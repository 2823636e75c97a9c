package exp

import (
	"encoding/csv"
	"strings"
	"testing"
)

// parseCSV asserts the emitted text is valid CSV with a header and a
// uniform column count, and returns the records.
func parseCSV(t *testing.T, name, data string) [][]string {
	t.Helper()
	recs, err := csv.NewReader(strings.NewReader(data)).ReadAll()
	if err != nil {
		t.Fatalf("%s: invalid CSV: %v", name, err)
	}
	if len(recs) < 2 {
		t.Fatalf("%s: no data rows", name)
	}
	return recs
}

func TestAllCSVEmitters(t *testing.T) {
	l := quickLab(t)
	mixCount := len(l.opts.Mixes())

	cases := []struct {
		name string
		data string
		rows int // expected data rows (0 = just non-empty)
	}{
		{"figure1", Figure1().CSV(), 4},
		{"figure13", Figure13(l).CSV(), 0},
		{"table7", Table7(l).CSV(), 16 * mixCount},
		{"figure15", Figure15(l).CSV(), 16 * len(FixedBudgets)},
		{"figure16", Figure16(l).CSV(), 16 * len(FixedBudgets)},
		{"figure17", Figure17(l).CSV(), 16 * len(FixedBudgets)},
		{"figure18", Figure18(l).CSV(), 4 * mixCount * 3},
		{"figure19", Figure19(l).CSV(), 16},
		{"figure20", Figure20(l).CSV(), 15},
		{"figure21", Figure21(l).CSV(), 16 * mixCount * 4},
		{"ablation", AblationMargin(l).CSV(), 5},
		{"trackers", TrackerComparison(l).CSV(), 4},
		{"forecast", ForecastStudy(l).CSV(), 48},
		{"consolidation", ConsolidationStudy().CSV(), 5},
		{"sustainability", Sustainability(l).CSV(), 4},
		{"mount", MountStudy(l).CSV(), 4},
		{"robustness", RobustnessResult{Days: []int{0}, Utilization: []float64{0.86}, OptOverRR: []float64{0.1}, OptOverIC: []float64{0.2}}.CSV(), 1},
	}
	for _, c := range cases {
		recs := parseCSV(t, c.name, c.data)
		if c.rows > 0 && len(recs)-1 != c.rows {
			t.Errorf("%s: %d data rows, want %d", c.name, len(recs)-1, c.rows)
		}
		width := len(recs[0])
		for i, rec := range recs {
			if len(rec) != width {
				t.Errorf("%s: row %d has %d columns, want %d", c.name, i, len(rec), width)
				break
			}
		}
	}
}

func TestCSVEscape(t *testing.T) {
	if got := csvEscape("plain"); got != "plain" {
		t.Errorf("plain escaped: %q", got)
	}
	if got := csvEscape(`a,"b"`); got != `"a,""b"""` {
		t.Errorf("quoted wrong: %q", got)
	}
	row := csvRow("a", `b,c`)
	if row != "a,\"b,c\"\n" {
		t.Errorf("row = %q", row)
	}
}

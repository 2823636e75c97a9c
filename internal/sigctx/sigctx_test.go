package sigctx

import (
	"context"
	"sync/atomic"
	"testing"
)

// TestEachRunsEveryIndexOnce checks an uncanceled pool runs each index
// exactly once, whatever the worker count.
func TestEachRunsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{-1, 0, 1, 3, 64} {
		const n = 50
		var hits [n]atomic.Int32
		if fed := Each(context.Background(), n, workers, func(i int) { hits[i].Add(1) }); fed != n {
			t.Fatalf("workers=%d: fed = %d, want %d", workers, fed, n)
		}
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, got)
			}
		}
	}
	if fed := Each(context.Background(), 0, 4, func(int) { t.Fatal("ran with n=0") }); fed != 0 {
		t.Fatalf("n=0: fed = %d", fed)
	}
}

// TestEachStopsFeedingOnCancel checks a canceled context stops the feed:
// exactly the indices below fed ran, and nothing after. The index whose
// ctx check raced the cancel may still go out, but no later one, and a
// context done before the call runs nothing.
func TestEachStopsFeedingOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran [64]atomic.Bool
	fed := Each(ctx, len(ran), 1, func(i int) {
		ran[i].Store(true)
		if i == 4 {
			cancel()
		}
	})
	if fed < 5 || fed > 6 {
		t.Fatalf("fed = %d, want 5 or 6", fed)
	}
	for i := range ran {
		if ran[i].Load() != (i < fed) {
			t.Errorf("index %d ran=%v with fed=%d", i, ran[i].Load(), fed)
		}
	}

	pre, stop := context.WithCancel(context.Background())
	stop()
	if fed := Each(pre, 64, 2, func(int) { t.Error("index ran under a done context") }); fed != 0 {
		t.Fatalf("pre-canceled feed handed out %d indices, want 0", fed)
	}
}

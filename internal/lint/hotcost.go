package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"
)

// AnalyzerHotCost budgets the static allocation pressure of the hot
// paths. For each declared hot root (the per-tick simulation loop and
// the serve cache-fill path by default) it walks the call graph, sums
// the allocation and interface-boxing sites statically reachable from
// the root, and compares the total against the budget recorded in
// .solarvet.allow:
//
//	hotcost-budget <root-name> <max>  # reason
//
// A root over its budget — or with no budget at all — is a finding at
// the root's declaration; a budget whose total dropped below max keeps
// passing (the ratchet is tightened by editing the number down). The
// counted sites are make/new calls, slice/map/struct composite
// literals, closure allocations, appends inside loops, and concrete
// values passed to interface-typed parameters. defer inside a loop is
// additionally reported per site: it is both an allocation and a
// latency cliff (the deferred calls all run at function exit).
//
// The model is deliberately static — one site counts once however many
// iterations execute — so the budget measures code shape, not workload.
// Fixture modules declare roots with //solarvet:costroot and budgets
// with //solarvet:costbudget <root> <max>.
var AnalyzerHotCost = &Analyzer{
	Name: "hotcost",
	Doc: "hot call-graph roots (sim tick loop, serve cache fill) must stay " +
		"within their recorded allocation/boxing budgets in .solarvet.allow; " +
		"defer-in-loop on a hot path is reported per site",
	RunModule: runHotCost,
}

// hotcostRoots are the default hot entry points.
var hotcostRoots = []string{
	"solarcore/internal/sim.Run",
	"(*solarcore/internal/serve.Server).Result",
}

// nodeCost is the static cost summary of one call-graph node.
type nodeCost struct {
	allocs     int // make/new, composite literals, closures, append-in-loop
	boxes      int // concrete values passed to interface parameters
	deferLoops []token.Pos
}

// computeCost tallies the cost sites in n's own body (nested function
// literals are separate call-graph nodes and carry their own cost).
func computeCost(n *CGNode) nodeCost {
	var c nodeCost
	info := n.Pkg.Info
	forEachOwnNode(n, func(node ast.Node, depth int) {
		switch x := node.(type) {
		case *ast.FuncLit:
			c.allocs++ // closure value; its body is costed under its own node
		case *ast.CompositeLit:
			if t := info.TypeOf(x); t != nil {
				switch t.Underlying().(type) {
				case *types.Slice, *types.Map:
					c.allocs++
				}
			}
		case *ast.UnaryExpr:
			if x.Op != token.AND {
				return
			}
			if cl, ok := ast.Unparen(x.X).(*ast.CompositeLit); ok {
				// &T{...} heap-allocates; slice/map composites already
				// counted under the CompositeLit case.
				if t := info.TypeOf(cl); t != nil {
					switch t.Underlying().(type) {
					case *types.Slice, *types.Map:
					default:
						c.allocs++
					}
				}
			}
		case *ast.DeferStmt:
			if depth > 0 {
				c.deferLoops = append(c.deferLoops, x.Defer)
			}
		case *ast.CallExpr:
			costCall(info, x, depth, &c)
		}
	})
	return c
}

// costCall tallies one call expression: allocation builtins and
// interface boxing of arguments.
func costCall(info *types.Info, call *ast.CallExpr, depth int, c *nodeCost) {
	if tv, ok := info.Types[call.Fun]; ok && (tv.IsType() || tv.IsBuiltin()) {
		if !tv.IsBuiltin() {
			return // conversion, not a call
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			switch id.Name {
			case "make", "new":
				c.allocs++
			case "append":
				if depth > 0 {
					c.allocs++ // may regrow the backing array each iteration
				}
			}
		}
		return
	}
	sig, ok := typeUnderlying(info.TypeOf(call.Fun)).(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis != token.NoPos {
				continue // the slice is passed through, nothing is boxed
			}
			st, ok := params.At(params.Len() - 1).Type().Underlying().(*types.Slice)
			if !ok {
				continue
			}
			pt = st.Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if !types.IsInterface(typeUnderlying(pt)) {
			continue
		}
		at := info.TypeOf(arg)
		if at == nil || types.IsInterface(typeUnderlying(at)) {
			continue
		}
		if b, ok := at.Underlying().(*types.Basic); ok && b.Kind() == types.UntypedNil {
			continue
		}
		c.boxes++
	}
}

// typeUnderlying is Underlying with a nil guard.
func typeUnderlying(t types.Type) types.Type {
	if t == nil {
		return nil
	}
	return t.Underlying()
}

func runHotCost(p *ModulePass) {
	roots := resolveRoots(p, "costroot", hotcostRoots)
	if len(roots) == 0 {
		return
	}
	budgets := p.Budgets
	// Fixture modules carry budgets as directives instead of an allowlist.
	for _, d := range p.Directive("costbudget") {
		fields := strings.Fields(d)
		if len(fields) != 2 {
			continue
		}
		max, err := strconv.Atoi(fields[1])
		if err != nil {
			continue
		}
		if budgets == nil {
			budgets = map[string]*BudgetEntry{}
		}
		if _, dup := budgets[fields[0]]; !dup {
			budgets[fields[0]] = &BudgetEntry{Root: fields[0], Max: max}
		}
	}

	costs := map[*CGNode]nodeCost{}
	reported := map[token.Pos]bool{}
	for _, root := range roots {
		parents := p.Graph.Reachable(root)
		total := 0
		type contrib struct {
			name string
			n    int
		}
		var heavy []contrib
		for _, n := range p.Graph.Nodes { // stable order
			if _, ok := parents[n]; !ok {
				continue
			}
			c, ok := costs[n]
			if !ok {
				c = computeCost(n)
				costs[n] = c
			}
			if s := c.allocs + c.boxes; s > 0 {
				total += s
				heavy = append(heavy, contrib{shortName(n.Name), s})
			}
			for _, pos := range c.deferLoops {
				if reported[pos] {
					continue
				}
				reported[pos] = true
				p.Reportf(pos, "defer inside a loop reachable from %s (%s) allocates per iteration and delays every call to function exit; restructure the loop body into a helper function",
					shortName(root.Name), CallPath(parents, n))
			}
		}
		sort.Slice(heavy, func(i, j int) bool {
			if heavy[i].n != heavy[j].n {
				return heavy[i].n > heavy[j].n
			}
			return heavy[i].name < heavy[j].name
		})
		if len(heavy) > 3 {
			heavy = heavy[:3]
		}
		var hs []string
		for _, h := range heavy {
			hs = append(hs, fmt.Sprintf("%s=%d", h.name, h.n))
		}
		detail := ""
		if len(hs) > 0 {
			detail = " (heaviest: " + strings.Join(hs, ", ") + ")"
		}
		b := lookupBudget(budgets, root)
		switch {
		case b == nil:
			p.Reportf(root.Pos, "hot root %s reaches %d allocation/boxing sites but has no recorded budget%s; add `hotcost-budget %s %d  # reason` to .solarvet.allow",
				shortName(root.Name), total, detail, root.Name, total)
		default:
			b.MarkUsed()
			if total > b.Max {
				p.Reportf(root.Pos, "hot root %s reaches %d allocation/boxing sites, over its budget of %d%s; hoist allocations off the hot path or raise the budget with a reason",
					shortName(root.Name), total, b.Max, detail)
			}
		}
	}
}

// lookupBudget finds the budget entry for root: exact name first, then
// a unique dotted-suffix match (fixture directives and allowlist lines
// may name the bare function).
func lookupBudget(budgets map[string]*BudgetEntry, root *CGNode) *BudgetEntry {
	if b, ok := budgets[root.Name]; ok {
		return b
	}
	keys := make([]string, 0, len(budgets))
	for k := range budgets {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if suffixMatch(root.Name, k) {
			return budgets[k]
		}
	}
	return nil
}

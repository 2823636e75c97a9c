package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// AnalyzerDetCheck proves the determinism contract solard's result
// cache silently assumes: everything reachable from solarcore's
// Runner.Run and from internal/serve's cache-fill path must produce
// byte-identical results for identical inputs, because RunSpec.Hash is
// the cache identity and coalesced requests replay one run's marshaled
// bytes (DESIGN.md §12). The analyzer walks the module call graph from
// those roots and flags every reachable:
//
//   - wall-clock read (time.Now);
//   - draw from the process-global math/rand source (seededrand's rule,
//     promoted from "inside internal/" to "reachable from the cached
//     path" — cmd/ code that feeds the cache is no longer exempt);
//   - environment or filesystem read (os.Getenv, os.ReadFile, ...);
//   - range over a map, whose iteration order differs run to run.
//
// Dynamic resolutions (a function value whose signature matches an
// address-taken nondeterminism source, e.g. time.Now stored in a Clock
// field) are reported with a "via a function value" marker: the match
// is conservative, and the allowlist entry documenting why it is safe
// belongs next to the injection point.
var AnalyzerDetCheck = &Analyzer{
	Name: "detcheck",
	Doc: "no wall clock, global randomness, env/FS reads or map-order " +
		"dependence reachable from Runner.Run or the serve cache-fill path " +
		"(the byte-identical result cache assumes determinism)",
	RunModule: runDetCheck,
}

// detcheckRoots are the default entry points of the determinism
// contract. Fixture modules override them with //solarvet:detroot.
var detcheckRoots = []string{
	"(*solarcore.Runner).Run",
	"(*solarcore/internal/serve.Server).Result",
}

// detSourceKind classifies one nondeterminism source for the message.
func detSourceKind(fn *types.Func) string {
	pkg := fn.Pkg()
	if pkg == nil {
		return ""
	}
	switch pkg.Path() {
	case "time":
		if fn.Name() == "Now" {
			return "wall-clock read"
		}
	case "math/rand", "math/rand/v2":
		if !randConstructors[fn.Name()] && fn.Type().(*types.Signature).Recv() == nil {
			return "global math/rand draw"
		}
	case "os":
		switch fn.Name() {
		case "Getenv", "LookupEnv", "Environ", "ExpandEnv":
			return "environment read"
		case "Open", "OpenFile", "ReadFile", "ReadDir", "Stat", "Lstat",
			"Getwd", "Hostname", "UserHomeDir", "UserCacheDir", "UserConfigDir":
			return "filesystem read"
		}
	}
	return ""
}

func runDetCheck(p *ModulePass) {
	roots := resolveRoots(p, "detroot", detcheckRoots)
	if len(roots) == 0 {
		return
	}
	// One BFS per root, in declaration order; a source reachable from
	// several roots is reported once, against the first root reaching it.
	reported := map[token.Pos]bool{}
	for _, root := range roots {
		parents := p.Graph.Reachable(root)
		for _, n := range p.Graph.Nodes { // stable order
			if _, ok := parents[n]; !ok {
				continue
			}
			for _, ext := range n.Ext {
				kind := detSourceKind(ext.Fn)
				if kind == "" || reported[ext.Pos] {
					continue
				}
				reported[ext.Pos] = true
				dyn := ""
				if ext.Dynamic {
					dyn = " via a function value"
				}
				p.Reportf(ext.Pos, "%s (%s)%s is reachable from %s (%s); the byte-identical result cache assumes this path is deterministic",
					kind, extName(ext.Fn), dyn, shortName(root.Name), CallPath(parents, n))
			}
			forEachOwnNode(n, func(node ast.Node, _ int) {
				rs, ok := node.(*ast.RangeStmt)
				if !ok || reported[rs.For] {
					return
				}
				if t := n.Pkg.Info.TypeOf(rs.X); t != nil {
					if _, isMap := t.Underlying().(*types.Map); isMap {
						reported[rs.For] = true
						p.Reportf(rs.For, "map iteration order is nondeterministic and this range is reachable from %s (%s); iterate a sorted key slice on the cached path",
							shortName(root.Name), CallPath(parents, n))
					}
				}
			})
		}
	}
}

// extName renders an external function for a diagnostic: "time.Now".
func extName(fn *types.Func) string {
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return fn.Name()
}

// resolveRoots maps the analyzer's default root names — overridden by
// //solarvet:<directive> lines in fixture modules — to call-graph
// nodes. Names resolve exactly first, then by suffix match against the
// node table (fixture directives name bare functions).
func resolveRoots(p *ModulePass, directive string, defaults []string) []*CGNode {
	names := p.Directive(directive)
	if len(names) == 0 {
		names = defaults
	}
	var out []*CGNode
	for _, name := range names {
		if n := resolveRoot(p.Graph, name); n != nil {
			out = append(out, n)
		}
	}
	return out
}

// resolveRoot finds one node by exact name or unique dotted suffix.
func resolveRoot(g *CallGraph, name string) *CGNode {
	if n := g.NodeByName(name); n != nil {
		return n
	}
	var found *CGNode
	for _, n := range g.Nodes {
		if suffixMatch(n.Name, name) {
			if found != nil {
				return nil // ambiguous; require the full name
			}
			found = n
		}
	}
	return found
}

// suffixMatch reports whether full ends in name at a path or receiver
// boundary: "Run" matches "solarcore/internal/sim.Run" but not
// "...sim.QuickRun".
func suffixMatch(full, name string) bool {
	if len(full) <= len(name) {
		return false
	}
	if full[len(full)-len(name):] != name {
		return false
	}
	switch full[len(full)-len(name)-1] {
	case '.', '/', ')':
		return true
	}
	return false
}

// forEachOwnNode walks the AST nodes belonging to n itself, skipping
// nested function literals (they are separate call-graph nodes). The
// callback receives each node with the current loop depth.
func forEachOwnNode(n *CGNode, fn func(node ast.Node, loopDepth int)) {
	if n.Body == nil {
		return
	}
	var walk func(node ast.Node, depth int)
	walk = func(node ast.Node, depth int) {
		if node == nil {
			return
		}
		if lit, ok := node.(*ast.FuncLit); ok && lit != n.Lit {
			fn(node, depth) // the literal itself is an event (a closure alloc)...
			return          // ...but its body belongs to its own node
		}
		fn(node, depth)
		inner := depth
		switch node.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			inner = depth + 1
		}
		for _, child := range childNodes(node) {
			walk(child, inner)
		}
	}
	if n.Lit != nil {
		walk(n.Lit.Body, 0)
		return
	}
	walk(n.Body, 0)
}

// childNodes returns the direct AST children of node, via ast.Inspect's
// one-level expansion.
func childNodes(node ast.Node) []ast.Node {
	var out []ast.Node
	first := true
	ast.Inspect(node, func(c ast.Node) bool {
		if first {
			first = false
			return true
		}
		if c != nil {
			out = append(out, c)
		}
		return false
	})
	return out
}

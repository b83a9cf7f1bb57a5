package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// Simdet enforces the deterministic-simulation rules from PR 7 in the
// packages the sim drives (internal/sim, the consensus engines, and the
// internal/replica runtime that holds their shared recovery tables):
// same seed must mean byte-identical traces, so nothing in those
// packages may observe a source of nondeterminism.
//
//   - Global math/rand state (rand.Intn, rand.Shuffle, ...) is shared,
//     unseeded and lock-ordered by the scheduler: every draw must come
//     from an explicit seeded instance (rand.New(rand.NewSource(seed))
//     or the sim's splitmix64 streams).
//   - Map iteration order is randomized per run. A range over a map may
//     only aggregate order-insensitively (delete, count, min/max) or
//     collect into a local slice that is sorted before anything else
//     sees it; any other escape can leak iteration order into wire
//     output, trace fingerprints or scheduling decisions.
//   - Naked go statements fork execution off the sim's single-threaded
//     step path, making delivery order a scheduler race. Engine
//     concurrency must stay in the harness-controlled layers outside
//     these packages.
var Simdet = &Analyzer{
	Name: "simdet",
	Doc: "flag nondeterminism in sim-driven packages: global math/rand, map-iteration " +
		"order escaping without a sort, naked go statements",
	Run: runSimdet,
}

// simdetScope lists the packages the deterministic simulation steps:
// the harness, the engines, internal/replica, whose Recovery owns the
// vote table and parked-checkpoint map the engines' map-order bugs
// lived in, and the state machine with its placement map, whose Apply
// every replica must answer byte for byte alike. Fixture packages match
// by their bare path.
var simdetScope = []string{"internal/sim", "internal/core", "internal/pbft", "internal/replica",
	"internal/statemachine", "internal/placement"}

func simdetScoped(path string) bool {
	for _, s := range simdetScope {
		if path == s || strings.HasSuffix(path, s) {
			return true
		}
		if path == strings.TrimPrefix(s, "internal/") {
			return true
		}
	}
	return false
}

// randConstructors are the math/rand entry points that build an
// explicit instance instead of touching global state.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

func runSimdet(pass *Pass) error {
	if !simdetScoped(pass.Pkg.Path()) {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch node := n.(type) {
			case *ast.SelectorExpr:
				path, ok := pass.importedPkg(node.X)
				if ok && (path == "math/rand" || path == "math/rand/v2") &&
					!randConstructors[node.Sel.Name] {
					pass.Reportf(node.Pos(),
						"global math/rand.%s in a deterministic package: draw from an explicit seeded instance",
						node.Sel.Name)
				}
			case *ast.GoStmt:
				pass.Reportf(node.Pos(),
					"naked go statement in a sim-driven package: execution must stay on the single-threaded step path")
			case *ast.FuncDecl:
				if node.Body != nil {
					checkMapRanges(pass, node.Body)
				}
				return false // checkMapRanges walks the body itself
			}
			return true
		})
	}
	return nil
}

// checkMapRanges inspects every map-range statement in body (one
// function) against the order-insensitivity rules.
func checkMapRanges(pass *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.SelectorExpr:
			if path, ok := pass.importedPkg(node.X); ok &&
				(path == "math/rand" || path == "math/rand/v2") &&
				!randConstructors[node.Sel.Name] {
				pass.Reportf(node.Pos(),
					"global math/rand.%s in a deterministic package: draw from an explicit seeded instance",
					node.Sel.Name)
			}
		case *ast.GoStmt:
			pass.Reportf(node.Pos(),
				"naked go statement in a sim-driven package: execution must stay on the single-threaded step path")
		case *ast.RangeStmt:
			if t := pass.TypesInfo.Types[node.X].Type; t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					checkOneMapRange(pass, body, node)
				}
			}
		}
		return true
	})
}

// checkOneMapRange decides whether rng's body is order-insensitive.
// Collectors (appends into a local slice) are remembered and must be
// sorted later in the same function.
func checkOneMapRange(pass *Pass, fn *ast.BlockStmt, rng *ast.RangeStmt) {
	collected := map[string]bool{}
	if !orderInsensitiveStmts(pass, rng.Body.List, collected) {
		pass.Reportf(rng.Pos(),
			"map iteration with order-sensitive effects: visit order can escape into wire output, fingerprints or scheduling; iterate sorted keys or restructure")
		return
	}
	for name := range collected {
		if !sortedAfter(fn, rng, name) {
			pass.Reportf(rng.Pos(),
				"map iteration order escapes through %q: sort it before use", name)
		}
	}
}

// orderInsensitiveStmts reports whether every statement is one whose
// effect cannot depend on iteration order: deletes, local aggregation
// (assignments and counting on local variables), collection into local
// slices (recorded in collected for the sort-later requirement), and
// control flow over those. Statement-level calls, sends, returns and
// writes through selectors or non-local names all fail.
func orderInsensitiveStmts(pass *Pass, stmts []ast.Stmt, collected map[string]bool) bool {
	for _, s := range stmts {
		if !orderInsensitiveStmt(pass, s, collected) {
			return false
		}
	}
	return true
}

func orderInsensitiveStmt(pass *Pass, s ast.Stmt, collected map[string]bool) bool {
	switch stmt := s.(type) {
	case *ast.ExprStmt:
		// Only the delete builtin has a permitted statement-level effect.
		if call, ok := stmt.X.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "delete" {
				if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
					return true
				}
			}
		}
		return false
	case *ast.AssignStmt:
		// Every target must be a plain (local) identifier. Collecting
		// appends x = append(x, ...) are allowed but recorded.
		for _, lhs := range stmt.Lhs {
			if _, ok := ast.Unparen(lhs).(*ast.Ident); !ok {
				return false
			}
		}
		for i, rhs := range stmt.Rhs {
			if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok {
				if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "append" {
					if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
						if i < len(stmt.Lhs) {
							if tgt, ok := ast.Unparen(stmt.Lhs[i]).(*ast.Ident); ok {
								collected[tgt.Name] = true
							}
						}
						continue
					}
				}
			}
			if callsNonBuiltin(pass, rhs) {
				return false
			}
		}
		return true
	case *ast.IncDecStmt:
		_, ok := ast.Unparen(stmt.X).(*ast.Ident)
		return ok
	case *ast.DeclStmt:
		return true
	case *ast.BranchStmt:
		return stmt.Tok.String() == "continue" || stmt.Tok.String() == "break"
	case *ast.IfStmt:
		if stmt.Init != nil && !orderInsensitiveStmt(pass, stmt.Init, collected) {
			return false
		}
		if !orderInsensitiveStmts(pass, stmt.Body.List, collected) {
			return false
		}
		if stmt.Else != nil {
			return orderInsensitiveStmt(pass, stmt.Else, collected)
		}
		return true
	case *ast.BlockStmt:
		return orderInsensitiveStmts(pass, stmt.List, collected)
	case *ast.RangeStmt:
		// A nested range over the map value (a slice, typically) keeps
		// the outer order question; same rules apply inside.
		return orderInsensitiveStmts(pass, stmt.Body.List, collected)
	default:
		return false
	}
}

// callsNonBuiltin reports whether expr contains a call to anything but
// len/cap/min/max — the pure builtins aggregation conditions lean on.
func callsNonBuiltin(pass *Pass, expr ast.Expr) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
				switch id.Name {
				case "len", "cap", "min", "max":
					return true
				}
			}
		}
		found = true
		return false
	})
	return found
}

// sortedAfter reports whether, somewhere after rng in the enclosing
// function body, name is passed to a sorting call (sort.Slice,
// slices.Sort, a local sortVotes-style helper — anything whose callee
// name contains "sort").
func sortedAfter(fn *ast.BlockStmt, rng *ast.RangeStmt, name string) bool {
	sorted := false
	ast.Inspect(fn, func(n ast.Node) bool {
		if sorted {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() {
			return true
		}
		callee := ""
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			callee = fun.Name
		case *ast.SelectorExpr:
			callee = fun.Sel.Name
			if pkg, ok := fun.X.(*ast.Ident); ok {
				callee = pkg.Name + "." + callee
			}
		}
		if !strings.Contains(strings.ToLower(callee), "sort") {
			return true
		}
		for _, arg := range call.Args {
			if id, ok := ast.Unparen(arg).(*ast.Ident); ok && id.Name == name {
				sorted = true
				return false
			}
		}
		return true
	})
	return sorted
}

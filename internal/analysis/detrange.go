package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// engineBases are the package base names whose code assembles schedules
// or decision/trace logs; they are the detrange scope and part of the
// detclock scope.
var engineBases = map[string]bool{
	"greedy": true, "bucket": true, "coloring": true, "depgraph": true,
	"sched": true, "core": true, "distbucket": true, "batch": true,
	"par": true,
}

// Detrange reports map iterations in engine packages whose bodies feed an
// order-dependent sink: appending to a slice declared outside the loop
// (unless that slice is deterministically sorted afterwards in the same
// function), committing a scheduling decision (Decide), or emitting an
// observability/trace event (Emit/Event). Go randomizes map iteration
// order, so any such loop makes two runs of the same instance diverge —
// the exact failure class the engine differential tests' decision logs pin.
//
// Commutative folds over a map (sums, min/max, per-key rewrites) are
// deliberately not flagged.
var Detrange = &Analyzer{
	Name: "detrange",
	Doc: "forbid map iteration feeding order-dependent sinks (slice appends " +
		"without a later sort, Decide, Emit/Event) in engine packages",
	AppliesTo: func(pkgPath string) bool {
		if !strings.HasPrefix(pkgPath, "dtm/internal/") {
			return false
		}
		return engineBases[pkgPath[strings.LastIndex(pkgPath, "/")+1:]]
	},
	Run: runDetrange,
}

// orderSinkMethods are method names whose call order is observable in the
// run's outputs.
var orderSinkMethods = map[string]bool{
	"Decide": true, // core.Sim: commits an execution time into the decision log
	"Emit":   true, // obs.Metrics: ordered event stream
	"Event":  true, // obs.Sink: ordered event stream
}

func runDetrange(pass *Pass) error {
	for _, file := range pass.Files {
		var funcs []*ast.BlockStmt
		ast.Inspect(file, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					funcs = append(funcs, fn.Body)
				}
			case *ast.FuncLit:
				funcs = append(funcs, fn.Body)
			}
			return true
		})
		for _, body := range funcs {
			checkMapRanges(pass, body)
		}
	}
	return nil
}

// checkMapRanges inspects one function body for map-keyed range loops
// with order-dependent sinks.
func checkMapRanges(pass *Pass, fnBody *ast.BlockStmt) {
	ast.Inspect(fnBody, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := pass.Info.Types[rs.X]
		if !ok || tv.Type == nil {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		checkMapRangeBody(pass, fnBody, rs)
		return true
	})
}

func checkMapRangeBody(pass *Pass, fnBody *ast.BlockStmt, rs *ast.RangeStmt) {
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch stmt := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range stmt.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok || !isBuiltinAppend(pass, call) || i >= len(stmt.Lhs) {
					continue
				}
				target, ok := stmt.Lhs[i].(*ast.Ident)
				if !ok {
					continue
				}
				obj := pass.Info.ObjectOf(target)
				if obj == nil || insideNode(rs.Body, obj.Pos()) {
					continue // loop-local accumulator
				}
				if sortedAfter(pass, fnBody, rs, obj) {
					continue // collect-then-sort idiom
				}
				pass.Reportf(call.Pos(),
					"append to %q inside map iteration without a deterministic sort afterwards: map order is random, so downstream consumers see a different order every run",
					target.Name)
			}
		case *ast.CallExpr:
			sel, ok := stmt.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
			if !ok {
				return true
			}
			sig, ok := fn.Type().(*types.Signature)
			if !ok || sig.Recv() == nil {
				return true
			}
			if isParRunnerMap(fn) {
				pass.Reportf(stmt.Pos(),
					"par.Runner.Map launched inside map iteration: the compute fan-out receives a different item order every run and the single-threaded merge cannot restore it; collect into a sorted slice first")
				return true
			}
			if !orderSinkMethods[fn.Name()] {
				return true
			}
			pass.Reportf(stmt.Pos(),
				"order-dependent %s call inside map iteration: decision/event order would follow the randomized map order; iterate a sorted key slice instead",
				fn.Name())
		}
		return true
	})
}

// isParRunnerMap reports whether fn is (*par.Runner).Map — the parallel
// compute fan-out of a compute/merge phase. It is its own sink kind:
// the merge phase that follows a Map consumes per-index results in index
// order, so handing Map an index space derived from a map iteration
// bakes the randomized order into the phase boundary.
func isParRunnerMap(fn *types.Func) bool {
	if fn.Name() != "Map" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Runner" && named.Obj().Pkg() != nil &&
		strings.HasSuffix(named.Obj().Pkg().Path(), "internal/par")
}

// isBuiltinAppend reports whether call invokes the append builtin.
func isBuiltinAppend(pass *Pass, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := pass.Info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

// insideNode reports whether pos falls within n's source extent.
func insideNode(n ast.Node, pos token.Pos) bool {
	return pos >= n.Pos() && pos < n.End()
}

// sortSlicePkgs are the packages whose functions establish a
// deterministic order.
var sortSlicePkgs = map[string]bool{"sort": true, "slices": true}

// sortedAfter reports whether, anywhere after the range loop in the same
// function, obj is passed to a sort/slices ordering function. This is the
// canonical fix (collect keys or values from the map, sort, then
// consume); the positional check is an approximation of dominance that
// accepts it in nested blocks too.
func sortedAfter(pass *Pass, fnBody *ast.BlockStmt, rs *ast.RangeStmt, obj types.Object) bool {
	found := false
	ast.Inspect(fnBody, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil || !sortSlicePkgs[fn.Pkg().Path()] {
			return true
		}
		for _, arg := range call.Args {
			if id, ok := arg.(*ast.Ident); ok && pass.Info.ObjectOf(id) == obj {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

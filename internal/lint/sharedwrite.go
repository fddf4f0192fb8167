package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// SharedWrite flags writes to slices, maps, and arrays captured by
// goroutine closures — the exact shape of the bug that silently
// corrupts a BFS parent tree: two workers writing parents[v] without a
// claim. A write is accepted when the analyzer can see the discipline
// that makes it safe:
//
//   - it is guarded by winning an atomic claim, i.e. it sits in the
//     body of `if x.SetAtomic(...)` or `if atomic.CompareAndSwap*(...)`
//     (the top-down kernels' pattern: the CAS winner owns the slot);
//   - it is a per-worker shard, i.e. the element index is the
//     closure's own worker parameter (locals[worker] = ...);
//   - it is annotated //lint:shared-ok with a human-reviewed rationale
//     (the bottom-up kernel's pattern: vertex ranges are disjoint by
//     construction, which no local analysis can prove).
//
// A closure that hands the work to a same-package function does not
// hide it: the analyzer follows each direct call the closure makes
// (resolved through the package call graph) and applies the same rules
// to the callee's writes into containers reached through its
// parameters or receiver, since those containers are the caller's
// shared ones. A callee parameter that every such call passes the
// closure's worker parameter counts as the worker index. Only that one
// call level is followed.
var SharedWrite = &Analyzer{
	Name: "sharedwrite",
	Doc: "flags unsynchronized writes to slices/maps captured by goroutine closures; " +
		"allowed via atomic claim guards, per-worker shards, or //lint:shared-ok",
	Run: runSharedWrite,
}

// parallelRunners names the functions whose func-literal arguments run
// concurrently on worker goroutines. parallelGrains is this codebase's
// fan-out primitive and RunManyFunc its batched multi-root driver;
// anything spelled like a parallel driver is treated the same so
// future runners are covered by default.
func isParallelRunner(name string) bool {
	if name == "parallelGrains" {
		return true
	}
	lower := strings.ToLower(name)
	return strings.Contains(lower, "parallel") ||
		strings.Contains(lower, "concurrent") ||
		strings.Contains(lower, "runmany")
}

// claimMethods are methods whose success return implies exclusive
// ownership of the claimed slot.
func isClaimCall(pass *Pass, call *ast.CallExpr) bool {
	name, isPkg := calleeName(pass, call)
	if isPkg {
		return strings.HasPrefix(name, "atomic.CompareAndSwap")
	}
	return name == "SetAtomic" || strings.HasPrefix(name, "CompareAndSwap") || name == "TryClaim"
}

func runSharedWrite(pass *Pass) error {
	lits := goroutineClosures(pass)
	if len(lits) == 0 {
		return nil
	}
	cg := BuildCallGraph(pass)
	// The closures' direct callees, in first-call order, each with the
	// argument positions at which every call passes the calling
	// closure's worker parameter. Callees are checked once all calls
	// have been seen.
	var callees []*CGNode
	shards := make(map[*CGNode]map[int]bool)
	for _, lit := range lits {
		checkClosureWrites(pass, lit)
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if _, nested := n.(*ast.FuncLit); nested {
				return false // a nested literal's calls are its own
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			node := cg.NodeForFunc(calledFunc(pass, call))
			if node == nil {
				return true
			}
			prev, seen := shards[node]
			if !seen {
				callees = append(callees, node)
			}
			shard := make(map[int]bool)
			for i, arg := range call.Args {
				shard[i] = isWorkerShardIndex(pass, lit, arg) && (!seen || prev[i])
			}
			shards[node] = shard
			return true
		})
	}
	for _, node := range callees {
		checkCalleeWrites(pass, node, shards[node])
	}
	return nil
}

// goroutineClosures finds every func literal that escapes onto another
// goroutine: `go func(){...}()` and literals passed to a parallel
// runner.
func goroutineClosures(pass *Pass) []*ast.FuncLit {
	var out []*ast.FuncLit
	seen := make(map[*ast.FuncLit]bool)
	add := func(lit *ast.FuncLit) {
		if lit != nil && !seen[lit] {
			seen[lit] = true
			out = append(out, lit)
		}
	}
	inspectAll(pass, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.GoStmt:
			if lit, ok := ast.Unparen(x.Call.Fun).(*ast.FuncLit); ok {
				add(lit)
			}
		case *ast.CallExpr:
			name, _ := calleeName(pass, x)
			if isParallelRunner(name) {
				for _, lit := range callbackLits(pass, x) {
					add(lit)
				}
			}
		}
		return true
	})
	return out
}

// checkClosureWrites reports unsafe container writes inside one
// goroutine closure.
func checkClosureWrites(pass *Pass, lit *ast.FuncLit) {
	inGuard := claimGuarded(pass, lit.Body)
	report := func(lhs ast.Expr) {
		id := rootExpr(lhs)
		if id == nil {
			return
		}
		v, captured := capturedVar(pass, lit, id)
		if !captured {
			return
		}
		// Only container writes: either indexing into a captured
		// container, or overwriting a captured container header.
		idx, isIndex := ast.Unparen(lhs).(*ast.IndexExpr)
		if isIndex {
			if !isSliceOrMap(pass.TypeOf(idx.X)) {
				return
			}
			if isWorkerShardIndex(pass, lit, idx.Index) {
				return
			}
		} else if !isSliceOrMap(v.Type()) {
			return
		}
		if inGuard(lhs.Pos()) {
			return
		}
		pass.Reportf(lhs.Pos(),
			"write to captured %q inside a goroutine closure without an atomic claim or per-worker shard; "+
				"synchronize it or annotate //lint:shared-ok with the invariant that makes it safe", id.Name)
	}
	forEachWrite(lit.Body, report)
}

// checkCalleeWrites reports unsafe container writes in a function that
// a goroutine closure calls: indexed writes into a slice, map or array
// reached through one of its parameters, its receiver, or a package
// variable. Writes to the function's own locals are not shared, and a
// write indexed by the parameter at a position in shard is a
// per-worker shard.
func checkCalleeWrites(pass *Pass, node *CGNode, shard map[int]bool) {
	body := node.Body()
	sig, ok := node.Func.Type().(*types.Signature)
	if body == nil || !ok {
		return
	}
	// params maps each parameter and the receiver to whether it is the
	// caller's worker index.
	params := make(map[types.Object]bool)
	if sig.Recv() != nil {
		params[sig.Recv()] = false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		params[sig.Params().At(i)] = shard[i]
	}
	inGuard := claimGuarded(pass, body)
	forEachWrite(body, func(lhs ast.Expr) {
		idx, isIndex := ast.Unparen(lhs).(*ast.IndexExpr)
		if !isIndex || !isSliceOrMap(pass.TypeOf(idx.X)) {
			return
		}
		id := rootExpr(lhs)
		if id == nil {
			return
		}
		obj := pass.ObjectOf(id)
		_, isParam := params[obj]
		shared := isParam || (obj != nil && pass.Pkg != nil && obj.Parent() == pass.Pkg.Scope())
		if !shared || inGuard(lhs.Pos()) {
			return
		}
		if ix, ok := ast.Unparen(idx.Index).(*ast.Ident); ok && params[pass.ObjectOf(ix)] {
			return
		}
		pass.Reportf(lhs.Pos(),
			"write through %q in %s, which a goroutine closure calls, without an atomic claim; "+
				"synchronize it or annotate //lint:shared-ok with the invariant that makes it safe",
			id.Name, node.Name)
	})
}

// forEachWrite calls report with the target of every assignment and
// increment in body.
func forEachWrite(body *ast.BlockStmt, report func(lhs ast.Expr)) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				report(lhs)
			}
		case *ast.IncDecStmt:
			report(x.X)
		}
		return true
	})
}

// claimGuarded reports whether a position in body lies inside an
// if-body whose condition wins an atomic claim: writes there have
// exclusive ownership of the claimed slot.
func claimGuarded(pass *Pass, body *ast.BlockStmt) func(token.Pos) bool {
	var guarded [][2]token.Pos
	ast.Inspect(body, func(n ast.Node) bool {
		ifStmt, ok := n.(*ast.IfStmt)
		if !ok {
			return true
		}
		hasClaim := false
		ast.Inspect(ifStmt.Cond, func(cn ast.Node) bool {
			if call, ok := cn.(*ast.CallExpr); ok && isClaimCall(pass, call) {
				hasClaim = true
			}
			return !hasClaim
		})
		if hasClaim {
			guarded = append(guarded, [2]token.Pos{ifStmt.Body.Pos(), ifStmt.Body.End()})
		}
		return true
	})
	return func(pos token.Pos) bool {
		for _, r := range guarded {
			if pos >= r[0] && pos <= r[1] {
				return true
			}
		}
		return false
	}
}

// isWorkerShardIndex reports whether the index expression is the
// closure's own first parameter — the per-worker shard idiom
// locals[worker] where each goroutine owns exactly one slot.
func isWorkerShardIndex(pass *Pass, lit *ast.FuncLit, index ast.Expr) bool {
	id, ok := ast.Unparen(index).(*ast.Ident)
	if !ok {
		return false
	}
	obj := pass.ObjectOf(id)
	if obj == nil {
		return false
	}
	params := lit.Type.Params
	if params == nil || len(params.List) == 0 {
		return false
	}
	for _, name := range params.List[0].Names {
		if pass.ObjectOf(name) == obj {
			return true
		}
	}
	return false
}

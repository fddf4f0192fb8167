package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// inspectAll walks every file in the pass in preorder. Returning false
// from fn prunes the subtree, matching ast.Inspect.
func inspectAll(pass *Pass, fn func(ast.Node) bool) {
	for _, f := range pass.Files {
		ast.Inspect(f, fn)
	}
}

// capturedVar reports whether id, appearing inside fn, resolves to a
// variable declared *outside* fn — a closure capture. Struct fields
// and package-level constants are not captures.
func capturedVar(pass *Pass, fn *ast.FuncLit, id *ast.Ident) (*types.Var, bool) {
	obj := pass.ObjectOf(id)
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() {
		return nil, false
	}
	if v.Pos() == token.NoPos {
		return nil, false
	}
	if v.Pos() >= fn.Pos() && v.Pos() <= fn.End() {
		return nil, false // declared inside the closure (incl. params)
	}
	return v, true
}

// callbackLits returns the function literals a call hands over as
// callbacks: each literal argument, and, for an argument that names a
// func-typed variable or struct field, every literal assigned to that
// variable or field anywhere in the package. The second form covers
// callbacks built once and stored — the bfs kernels keep their grain
// bodies in a workspace field so a level allocates no closure — which
// would otherwise escape every callback-based analyzer.
func callbackLits(pass *Pass, call *ast.CallExpr) []*ast.FuncLit {
	var out []*ast.FuncLit
	for _, arg := range call.Args {
		if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
			out = append(out, lit)
			continue
		}
		obj := namedObject(pass, arg)
		if obj == nil {
			continue
		}
		if _, ok := obj.Type().Underlying().(*types.Signature); !ok {
			continue
		}
		inspectAll(pass, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, lhs := range as.Lhs {
				if lit, ok := ast.Unparen(as.Rhs[i]).(*ast.FuncLit); ok && namedObject(pass, lhs) == obj {
					out = append(out, lit)
				}
			}
			return true
		})
	}
	return out
}

// namedObject resolves an identifier or a selector (x.f) to the object
// it names, or nil for any other expression.
func namedObject(pass *Pass, e ast.Expr) types.Object {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return pass.ObjectOf(x)
	case *ast.SelectorExpr:
		return pass.ObjectOf(x.Sel)
	}
	return nil
}

// rootExpr descends through index, slice, star, paren, and selector
// expressions to the base identifier of an lvalue, e.g. locals in
// locals[worker] or r in r.Parent[v]. Returns nil if the base is not a
// plain identifier.
func rootExpr(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// isSliceOrMap reports whether t (after unwrapping named types and
// pointers) is a slice, map, or array type — the shared-container
// types sharedwrite polices.
func isSliceOrMap(t types.Type) bool {
	if t == nil {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Slice, *types.Map, *types.Array:
		return true
	case *types.Pointer:
		return isSliceOrMap(u.Elem())
	default:
		return false
	}
}

// calleeName returns the qualified name of a call's callee: "pkg.Func"
// for package selectors, "recv.Method" method calls collapse to just
// the method name with recvQual true, and plain "fn" for identifiers.
func calleeName(pass *Pass, call *ast.CallExpr) (name string, isPkgFunc bool) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name, false
	case *ast.SelectorExpr:
		if id, ok := fun.X.(*ast.Ident); ok {
			if _, isPkg := pass.ObjectOf(id).(*types.PkgName); isPkg {
				return id.Name + "." + fun.Sel.Name, true
			}
		}
		return fun.Sel.Name, false
	default:
		return "", false
	}
}

// atomicCallArg returns the &-operand expression of a sync/atomic
// package call like atomic.AddInt64(&x, 1) or atomic.LoadUint64(&w),
// or nil if call is not one.
func atomicCallArg(pass *Pass, call *ast.CallExpr) ast.Expr {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return nil
	}
	pkg, ok := pass.ObjectOf(id).(*types.PkgName)
	if !ok || pkg.Imported().Path() != "sync/atomic" {
		return nil
	}
	if len(call.Args) == 0 {
		return nil
	}
	unary, ok := ast.Unparen(call.Args[0]).(*ast.UnaryExpr)
	if !ok || unary.Op != token.AND {
		return nil
	}
	return unary.X
}

package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// HotAlloc statically enforces the 0 allocs/op hot-path contract the
// benchmarks (BenchmarkRunNopRecorder, TestRunAllocsSteadyState) check
// dynamically. The hot region is every function reachable, through the
// package call graph, from a kernel grain loop (a function literal
// passed to parallelGrains or a similarly named grain runner, directly
// or through the variable or field that stores it) or from
// a function annotated //lint:hot. Inside it the analyzer flags the
// operations that heap-allocate or otherwise do per-edge work the
// kernels must not:
//
//   - make/new builtins and slice/map composite literals, plus
//     &T{...} (the value escapes through the pointer);
//   - function literals that capture variables (each creation
//     allocates a closure object);
//   - implicit interface conversions of non-pointer-shaped values
//     (boxing allocates; pointers, maps, chans, and funcs are exempt
//     because they fit the interface word directly);
//   - defer (per-iteration scheduling cost in a grain body);
//   - calls into fmt and log (formatting allocates; per-event
//     formatting belongs in consumers, per the obs contract).
//
// Flat value structs (obs.Event{...}) are deliberately not flagged:
// emitting one is a stack copy, which is exactly the idiom the obs
// layer is built on. Sites that allocate by design — a per-level
// closure amortized over the whole grain loop, say — carry a reasoned
// //lint:alloc-ok.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc: "flags heap allocations, closure captures, interface boxing, defer, and fmt/log " +
		"calls in functions reachable from kernel grain loops or //lint:hot annotations; " +
		"suppress with //lint:alloc-ok",
	Run: runHotAlloc,
}

// isGrainRunner matches the fan-out primitives whose callback argument
// is a kernel grain loop: parallelGrains itself, and any future runner
// spelled like one.
func isGrainRunner(name string) bool {
	if name == "parallelGrains" {
		return true
	}
	lower := strings.ToLower(name)
	return strings.Contains(lower, "parallel") && strings.Contains(lower, "grain")
}

func runHotAlloc(pass *Pass) error {
	g := BuildCallGraph(pass)

	// Roots, each tagged with the name shown in diagnostics.
	type root struct {
		node *CGNode
		why  string
	}
	var roots []root
	inspectAll(pass, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name, _ := calleeName(pass, call)
		if !isGrainRunner(name) {
			return true
		}
		for _, lit := range callbackLits(pass, call) {
			if node := g.NodeFor(lit); node != nil {
				roots = append(roots, root{node, "grain loop of " + name})
			}
		}
		return true
	})
	for fn := range funcMarkers(pass, markerHot) {
		if node := g.NodeFor(fn); node != nil {
			roots = append(roots, root{node, "//lint:hot " + node.Name})
		}
	}
	if len(roots) == 0 {
		return nil
	}

	// Reachability with provenance: each hot node remembers one root it
	// is reachable from, for the diagnostic message. Roots are visited
	// in source order so provenance is deterministic.
	sort.Slice(roots, func(i, j int) bool {
		pi, pj := roots[i].node.Body(), roots[j].node.Body()
		if pi == nil || pj == nil {
			return pj == nil && pi != nil
		}
		return pi.Pos() < pj.Pos()
	})
	why := make(map[*CGNode]string)
	var queue []*CGNode
	for _, r := range roots {
		if _, seen := why[r.node]; !seen {
			why[r.node] = r.why
			queue = append(queue, r.node)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, c := range n.Callees {
			if _, seen := why[c]; !seen {
				why[c] = why[n]
				queue = append(queue, c)
			}
		}
	}

	for node, reason := range why {
		checkHotBody(pass, node, reason)
	}
	return nil
}

// checkHotBody scans one hot function's own statements (nested
// literals are separate call-graph nodes and get their own scan; here
// only their creation is charged).
func checkHotBody(pass *Pass, node *CGNode, reason string) {
	body := node.Body()
	if body == nil {
		return
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		switch x := n.(type) {
		case *ast.FuncLit:
			if v, name := firstCapture(pass, x); v {
				pass.Reportf(x.Pos(),
					"hot path (%s): closure capturing %q allocates at every creation; "+
						"hoist it out of the hot region or annotate //lint:alloc-ok with the amortization argument",
					reason, name)
			}
			return false
		case *ast.DeferStmt:
			pass.Reportf(x.Pos(),
				"hot path (%s): defer in a hot function adds per-call scheduling cost; "+
					"close explicitly or annotate //lint:alloc-ok", reason)
		case *ast.CallExpr:
			checkHotCall(pass, x, reason)
		case *ast.CompositeLit:
			if t := pass.TypeOf(x); t != nil && isSliceOrMap(t) {
				pass.Reportf(x.Pos(),
					"hot path (%s): %s literal heap-allocates; preallocate in the workspace "+
						"or annotate //lint:alloc-ok", reason, typeKindWord(t))
			}
		case *ast.UnaryExpr:
			if x.Op.String() == "&" {
				if cl, ok := ast.Unparen(x.X).(*ast.CompositeLit); ok {
					pass.Reportf(cl.Pos(),
						"hot path (%s): &composite literal escapes to the heap; "+
							"reuse workspace storage or annotate //lint:alloc-ok", reason)
				}
			}
		case *ast.AssignStmt:
			checkHotAssign(pass, x, reason)
		}
		return true
	})
}

// checkHotCall flags make/new, fmt/log calls, and interface-boxing
// arguments.
func checkHotCall(pass *Pass, call *ast.CallExpr, reason string) {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if obj, isBuiltin := pass.ObjectOf(id).(*types.Builtin); isBuiltin {
			switch obj.Name() {
			case "make", "new":
				pass.Reportf(call.Pos(),
					"hot path (%s): %s allocates; move it to setup or the workspace, "+
						"or annotate //lint:alloc-ok", reason, obj.Name())
			}
			return
		}
	}
	if name, isPkg := calleeName(pass, call); isPkg {
		if pkg := name[:strings.Index(name, ".")]; pkg == "fmt" || pkg == "log" {
			pass.Reportf(call.Pos(),
				"hot path (%s): %s formats and allocates; per-event formatting belongs in "+
					"consumers — move it off the hot path or annotate //lint:alloc-ok", reason, name)
			return
		}
	}
	// Interface boxing at argument positions.
	sig, ok := pass.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return
	}
	for i, arg := range call.Args {
		var param types.Type
		switch {
		case sig.Variadic() && i >= sig.Params().Len()-1:
			last := sig.Params().At(sig.Params().Len() - 1).Type()
			if s, ok := last.(*types.Slice); ok {
				param = s.Elem()
			}
			if call.Ellipsis.IsValid() && i == len(call.Args)-1 {
				param = nil // xs... passes the slice through, no boxing
			}
		case i < sig.Params().Len():
			param = sig.Params().At(i).Type()
		}
		reportBoxing(pass, arg, param, reason)
	}
}

// checkHotAssign flags interface boxing on assignment.
func checkHotAssign(pass *Pass, as *ast.AssignStmt, reason string) {
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, rhs := range as.Rhs {
		reportBoxing(pass, rhs, pass.TypeOf(as.Lhs[i]), reason)
	}
}

// reportBoxing reports expr if storing it into target performs an
// allocating interface conversion.
func reportBoxing(pass *Pass, expr ast.Expr, target types.Type, reason string) {
	if target == nil || !types.IsInterface(target) {
		return
	}
	src := pass.TypeOf(expr)
	if src == nil || types.IsInterface(src) || isPointerShaped(src) {
		return
	}
	if b, ok := src.(*types.Basic); ok && b.Info()&types.IsUntyped != 0 {
		if b.Kind() == types.UntypedNil {
			return
		}
	}
	pass.Reportf(expr.Pos(),
		"hot path (%s): converting %s to %s boxes the value on the heap; "+
			"keep the concrete type or annotate //lint:alloc-ok", reason, src, target)
}

// isPointerShaped reports whether values of t fit an interface word
// without allocating.
func isPointerShaped(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return t.Underlying().(*types.Basic).Kind() == types.UnsafePointer
	}
	return false
}

// firstCapture reports whether the literal captures any variable, and
// the first one's name for the diagnostic.
func firstCapture(pass *Pass, lit *ast.FuncLit) (bool, string) {
	var name string
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if name != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if v, captured := capturedVar(pass, lit, id); captured {
			name = v.Name()
			return false
		}
		return true
	})
	return name != "", name
}

// typeKindWord names a container type's kind for diagnostics.
func typeKindWord(t types.Type) string {
	switch t.Underlying().(type) {
	case *types.Slice:
		return "slice"
	case *types.Map:
		return "map"
	default:
		return fmt.Sprintf("%s", t)
	}
}

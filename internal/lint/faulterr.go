package lint

import (
	"go/ast"
	"go/constant"
	"sort"
	"strings"
)

// FaultErr polices the typed-error contract at the stack's boundaries.
// The degradation ladder only works if callers can switch on error
// kinds: *fault.Error for modeled faults, *bfs.PanicError for contained
// kernel panics, context.Canceled/DeadlineExceeded for cancellation.
// An untyped fmt.Errorf leaking across the api.go boundary or out of
// the executors and the pricing loop forces callers back to string
// matching.
//
// Boundary roots are: exported functions of the root crossbfs package,
// the executor and pricing entry points (Price, Execute,
// ExecuteSharded), and anything annotated //lint:boundary. The
// check closes over the package call graph — a helper four calls below
// an exported function still feeds its return value to the caller —
// and flags return statements that hand back a bare errors.New(...) or
// a fmt.Errorf(...) whose format has no %w verb (a %w chain preserves
// the typed error beneath and unwraps correctly).
//
// Suppress with //lint:fault-ok and a rationale — the conventional one
// is argument validation, where the error marks a programming mistake
// rather than a runtime fault and callers only test for nil.
var FaultErr = &Analyzer{
	Name: "faulterr",
	Doc: "flags untyped errors (bare errors.New, fmt.Errorf without %w) returned across " +
		"the api.go boundary or from the executors and Price; wrap *fault.Error, *PanicError, " +
		"or context errors instead; suppress with //lint:fault-ok",
	Run: runFaultErr,
}

// boundaryPkgPath is the package whose exported functions form the
// public API boundary.
const boundaryPkgPath = "crossbfs"

// boundaryNames are executor entry points that are boundaries in any
// package.
var boundaryNames = map[string]bool{
	"Price":          true,
	"Execute":        true,
	"ExecuteSharded": true,
}

func runFaultErr(pass *Pass) error {
	g := BuildCallGraph(pass)

	type root struct {
		node *CGNode
		why  string
	}
	var roots []root
	if pass.Pkg != nil && pass.Pkg.Path() == boundaryPkgPath {
		for _, node := range g.Nodes {
			if node.Decl != nil && node.Decl.Name.IsExported() {
				roots = append(roots, root{node, "API boundary " + node.Name})
			}
		}
	}
	for _, node := range g.Nodes {
		if node.Decl != nil && boundaryNames[node.Decl.Name.Name] {
			roots = append(roots, root{node, "executor " + node.Name})
		}
	}
	for fn := range funcMarkers(pass, markerBoundary) {
		if node := g.NodeFor(fn); node != nil {
			roots = append(roots, root{node, "//lint:boundary " + node.Name})
		}
	}
	if len(roots) == 0 {
		return nil
	}

	// Deterministic provenance: prefer the earliest-declared root.
	sort.SliceStable(roots, func(i, j int) bool {
		bi, bj := roots[i].node.Body(), roots[j].node.Body()
		if bi == nil || bj == nil {
			return bj == nil && bi != nil
		}
		return bi.Pos() < bj.Pos()
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
		checkErrorReturns(pass, node, reason)
	}
	return nil
}

// checkErrorReturns flags untyped error constructors returned from one
// boundary-reachable function.
func checkErrorReturns(pass *Pass, node *CGNode, reason string) {
	body := node.Body()
	if body == nil {
		return
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // literals are their own graph nodes
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, res := range ret.Results {
			call, ok := ast.Unparen(res).(*ast.CallExpr)
			if !ok {
				continue
			}
			name, isPkg := calleeName(pass, call)
			if !isPkg {
				continue
			}
			switch name {
			case "errors.New":
				pass.Reportf(res.Pos(),
					"untyped errors.New crosses the error boundary (%s): callers cannot switch "+
						"on it; return *fault.Error, *PanicError, or a context error — or wrap a "+
						"typed cause with fmt.Errorf(...%%w...); suppress with //lint:fault-ok", reason)
			case "fmt.Errorf":
				if formatHasWrapVerb(pass, call) {
					continue
				}
				pass.Reportf(res.Pos(),
					"fmt.Errorf without %%w crosses the error boundary (%s): the chain loses its "+
						"typed kind; wrap the cause with %%w or return a typed error directly; "+
						"suppress with //lint:fault-ok", reason)
			}
		}
		return true
	})
}

// formatHasWrapVerb reports whether a fmt.Errorf call's constant
// format string contains %w. Non-constant formats are given the
// benefit of the doubt.
func formatHasWrapVerb(pass *Pass, call *ast.CallExpr) bool {
	if len(call.Args) == 0 {
		return false
	}
	tv, ok := pass.TypesInfo.Types[call.Args[0]]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return true
	}
	return strings.Contains(constant.StringVal(tv.Value), "%w")
}

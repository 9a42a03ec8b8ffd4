package golint

import (
	"go/ast"
)

// HotPathAnalyzer enforces allocation hygiene in functions marked with the
// `//guoq:hotpath` directive — the match/splice/invalidate loop whose
// allocations per search iteration the CI perf gate pins:
//
//   - no calls into fmt (formatting allocates and the error paths that
//     want it are never hot);
//   - no map composite literals and no make(map...) — map traffic is the
//     classic hidden allocator the engine refactor removed;
//   - no append to a fresh, uncapped slice declared in the same function
//     (`var s []T`, `s := []T{}`, or 2-arg make): every such append
//     allocates on first growth. Appending into caller-provided slices or
//     struct-field scratch — the amortized idiom the matcher uses — is
//     allowed, as is appending to a slice made with explicit capacity or
//     resliced from existing storage (s[:0]).
var HotPathAnalyzer = &Analyzer{
	Name: "hotpath",
	Doc:  "reports allocation-unfriendly constructs in //guoq:hotpath functions",
	Run:  runHotPath,
}

func runHotPath(p *Pass) {
	for _, f := range p.Files {
		fmtName := importName(f, "fmt")
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !funcDocHasDirective(fn, "//guoq:hotpath") {
				continue
			}
			checkHotPathFunc(p, fn, fmtName)
		}
	}
}

func checkHotPathFunc(p *Pass, fn *ast.FuncDecl, fmtName string) {
	fresh := freshUncappedSlices(fn.Body)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if id, ok := n.X.(*ast.Ident); ok && fmtName != "" && id.Name == fmtName {
				p.Reportf(n.Pos(), "%s: fmt.%s call in a //guoq:hotpath function", fn.Name.Name, n.Sel.Name)
			}
		case *ast.CompositeLit:
			if _, ok := n.Type.(*ast.MapType); ok {
				p.Reportf(n.Pos(), "%s: map literal in a //guoq:hotpath function", fn.Name.Name)
			}
		case *ast.CallExpr:
			switch callee := calleeIdent(n); callee {
			case "make":
				if len(n.Args) > 0 {
					if _, ok := n.Args[0].(*ast.MapType); ok {
						p.Reportf(n.Pos(), "%s: make(map) in a //guoq:hotpath function", fn.Name.Name)
					}
				}
			case "append":
				if len(n.Args) == 0 {
					return true
				}
				switch dst := n.Args[0].(type) {
				case *ast.Ident:
					if fresh[dst.Name] {
						p.Reportf(n.Pos(), "%s: append to fresh uncapped slice %q in a //guoq:hotpath function (allocates on growth; preallocate with capacity or reuse scratch)", fn.Name.Name, dst.Name)
					}
				case *ast.CompositeLit:
					p.Reportf(n.Pos(), "%s: append to a slice literal in a //guoq:hotpath function", fn.Name.Name)
				}
			}
		}
		return true
	})
}

func calleeIdent(call *ast.CallExpr) string {
	if id, ok := call.Fun.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// freshUncappedSlices collects local variables that are definitely fresh,
// capacity-less slices: declared `var x []T`, assigned a slice literal, or
// assigned a 2-argument make. Conservative by construction — anything it
// cannot prove fresh (parameters, struct fields, reslices like x[:0],
// 3-argument makes) is left alone.
func freshUncappedSlices(body *ast.BlockStmt) map[string]bool {
	fresh := map[string]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeclStmt:
			gd, ok := n.Decl.(*ast.GenDecl)
			if !ok {
				return true
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Values) != 0 {
					continue
				}
				if at, ok := vs.Type.(*ast.ArrayType); ok && at.Len == nil {
					for _, name := range vs.Names {
						fresh[name.Name] = true
					}
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if i >= len(n.Rhs) {
					break
				}
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				if freshSliceExpr(n.Rhs[i]) {
					fresh[id.Name] = true
				} else if _, isFresh := fresh[id.Name]; isFresh && reassignedFromOther(n.Rhs[i], id.Name) {
					// x = someOtherExpr: no longer provably fresh.
					delete(fresh, id.Name)
				}
			}
		}
		return true
	})
	return fresh
}

// freshSliceExpr reports whether e is a fresh uncapped slice expression: a
// slice composite literal or a 2-argument make of a slice type.
func freshSliceExpr(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.CompositeLit:
		at, ok := e.Type.(*ast.ArrayType)
		return ok && at.Len == nil
	case *ast.CallExpr:
		if calleeIdent(e) != "make" || len(e.Args) != 2 {
			return false
		}
		at, ok := e.Args[0].(*ast.ArrayType)
		return ok && at.Len == nil
	}
	return false
}

// reassignedFromOther reports whether rhs is something other than an
// append chain rooted at the same variable (x = append(x, ...) keeps x in
// whatever freshness state it had).
func reassignedFromOther(rhs ast.Expr, name string) bool {
	call, ok := rhs.(*ast.CallExpr)
	if !ok || calleeIdent(call) != "append" || len(call.Args) == 0 {
		return true
	}
	id, ok := call.Args[0].(*ast.Ident)
	return !ok || id.Name != name
}

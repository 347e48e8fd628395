package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// CtxLeak polices track.Group launch sites: every Go must have a
// reachable Wait, or the -race tier's drain guarantee (all goroutines
// join before results are read) silently breaks.
//
//   - A Group held in a struct field may Wait anywhere in the package
//     (motbench's server launches its log reader on start and waits in
//     stop); no Wait at all is the finding.
//   - A Group in a local variable must Wait in the same function. A
//     deferred Wait always satisfies; otherwise a return statement
//     between the first Go and the last Wait is a leak path.
//
// Group types are matched structurally by name and method set (a named
// "Group" with Go and Wait methods), so fixtures can declare their own.
var CtxLeak = &Analyzer{
	Name: "ctxleak",
	Doc:  "every track.Group launch site needs a reachable Wait on all return paths",
	Run:  runCtxLeak,
}

func runCtxLeak(p *Pass) {
	if pathAllowed(p.Cfg.CtxLeakAllowed, p.Path) {
		return
	}

	type site struct {
		pos token.Pos
		fn  string
	}
	fieldGos := map[*types.Var][]site{}
	fieldWaits := map[*types.Var]bool{}

	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fnName := fd.Name.Name
			if fn, isFn := p.Info.Defs[fd.Name].(*types.Func); isFn {
				fnName = funcDisplayName(fn)
			}

			deferred := deferredCalls(fd.Body)
			litRanges := funcLitRanges(fd.Body)
			type localUse struct {
				gos          []token.Pos
				waits        []token.Pos
				deferredWait bool
			}
			locals := map[*types.Var]*localUse{}
			var localOrder []*types.Var

			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				op := sel.Sel.Name
				if op != "Go" && op != "Wait" {
					return true
				}
				switch base := sel.X.(type) {
				case *ast.Ident:
					v, isVar := p.Info.Uses[base].(*types.Var)
					if !isVar || v.IsField() || !isTrackGroup(v.Type()) {
						return true
					}
					lu := locals[v]
					if lu == nil {
						lu = &localUse{}
						locals[v] = lu
						localOrder = append(localOrder, v)
					}
					if op == "Go" {
						lu.gos = append(lu.gos, call.Pos())
					} else {
						lu.waits = append(lu.waits, call.End())
						if deferred[call] {
							lu.deferredWait = true
						}
					}
				case *ast.SelectorExpr:
					s, hasSel := p.Info.Selections[base]
					if !hasSel || s.Kind() != types.FieldVal {
						return true
					}
					fld, isVar := s.Obj().(*types.Var)
					if !isVar || !isTrackGroup(fld.Type()) {
						return true
					}
					if op == "Go" {
						fieldGos[fld] = append(fieldGos[fld], site{pos: call.Pos(), fn: fnName})
					} else {
						fieldWaits[fld] = true
					}
				}
				return true
			})

			for _, v := range localOrder {
				lu := locals[v]
				if len(lu.gos) == 0 {
					continue
				}
				if len(lu.waits) == 0 {
					p.Reportf(lu.gos[0], "%s.Go launches goroutines but %s never calls %s.Wait",
						v.Name(), fnName, v.Name())
					continue
				}
				if lu.deferredWait {
					continue
				}
				firstGo, lastWait := lu.gos[0], lu.waits[0]
				for _, w := range lu.waits {
					if w > lastWait {
						lastWait = w
					}
				}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					ret, isRet := n.(*ast.ReturnStmt)
					if !isRet {
						return true
					}
					if ret.Pos() <= firstGo || ret.Pos() >= lastWait {
						return true
					}
					for _, lr := range litRanges {
						if ret.Pos() >= lr.lo && ret.Pos() <= lr.hi {
							return true // a closure's return, not this function's
						}
					}
					p.Reportf(ret.Pos(), "return between %s.Go and %s.Wait leaks goroutines (defer the Wait or restructure)",
						v.Name(), v.Name())
					return true
				})
			}
		}
	}

	for fld, sites := range fieldGos {
		if fieldWaits[fld] {
			continue
		}
		for _, s := range sites {
			p.Reportf(s.pos, "field %s launches goroutines in %s but no function in this package calls its Wait",
				fld.Name(), s.fn)
		}
	}
}

// funcLitRanges records the source extents of closures inside body.
func funcLitRanges(body ast.Node) []posRange {
	var out []posRange
	ast.Inspect(body, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok {
			out = append(out, posRange{fl.Pos(), fl.End()})
		}
		return true
	})
	return out
}

// isTrackGroup matches the track.Group shape: a named type called Group
// with Go and Wait methods.
func isTrackGroup(t types.Type) bool {
	if pt, ok := t.(*types.Pointer); ok {
		t = pt.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Name() != "Group" {
		return false
	}
	var hasGo, hasWait bool
	for i := 0; i < named.NumMethods(); i++ {
		switch named.Method(i).Name() {
		case "Go":
			hasGo = true
		case "Wait":
			hasWait = true
		}
	}
	return hasGo && hasWait
}

package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
	"unicode"
)

// MeterFields enforces exhaustiveness on the metered structs listed in
// Config.Meters: every data field of the struct must be referenced by
// each listed aggregator (CostMeter.Add, Directory.AbsorbMeter,
// Recorder.Snapshot, …), so a cost added to the meter cannot silently
// drop out of merged results. An aggregator may instead delegate by
// calling another listed aggregator. When a spec names a CSV exporter,
// that function must mention every field — snake_cased — as a header
// token in its string literals, so the field also reaches the artifact.
// Structs are matched by name, so fixtures can declare their own copy.
var MeterFields = &Analyzer{
	Name: "meterfields",
	Doc:  "every metered-struct field must reach the aggregators and the CSV header",
	Run:  runMeterFields,
}

func runMeterFields(p *Pass) {
	for i := range p.Cfg.Meters {
		spec := &p.Cfg.Meters[i]
		checkAggregators(p, spec)
		if spec.CSVPkg == p.Path && spec.CSVFunc != "" {
			checkMeterCSV(p, spec)
		}
	}
}

// checkAggregators runs when this package declares the spec's struct.
func checkAggregators(p *Pass, spec *MeterSpec) {
	named, pos := localStruct(p, spec.Type)
	if named == nil {
		return
	}
	fields := meterDataFields(named)

	decls := map[string][]*ast.FuncDecl{}
	for _, f := range p.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				decls[fd.Name.Name] = append(decls[fd.Name.Name], fd)
			}
		}
	}

	for _, aggName := range spec.Aggregators {
		fds := decls[aggName]
		if len(fds) == 0 {
			p.Reportf(pos, "%s has no aggregator %s in this package (fields could be silently dropped on merge)",
				spec.Type, aggName)
			continue
		}
		for _, fd := range fds {
			if delegates(p, fd, spec) {
				continue
			}
			seen := referencedMeterFields(p, fd, spec.Type)
			for _, fld := range fields {
				if !seen[fld.Name()] {
					p.Reportf(fd.Name.Pos(), "%s.%s is not referenced by %s (metered value silently dropped)",
						spec.Type, fld.Name(), fd.Name.Name)
				}
			}
		}
	}
}

// checkMeterCSV runs in the exporter's package: the CSV function must
// exist and mention every field as a snake_cased header token.
func checkMeterCSV(p *Pass, spec *MeterSpec) {
	named := p.Flow.LookupType(spec.Type)
	if named == nil {
		return // struct not loaded; nothing to check against
	}
	var fn *ast.FuncDecl
	for _, f := range p.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil && fd.Recv == nil && fd.Name.Name == spec.CSVFunc {
				fn = fd
			}
		}
	}
	if fn == nil {
		p.Reportf(p.Files[0].Name.Pos(), "no CSV exporter %s for %s in this package (meter fields never reach the artifact)",
			spec.CSVFunc, spec.Type)
		return
	}
	tokens := map[string]bool{}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		lit, ok := n.(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			return true
		}
		s, err := strconv.Unquote(lit.Value)
		if err != nil {
			return true
		}
		for _, tok := range strings.Split(s, ",") {
			tokens[strings.TrimSpace(tok)] = true
		}
		return true
	})
	for _, fld := range meterDataFields(named) {
		col := snakeCase(fld.Name())
		if !tokens[col] {
			p.Reportf(fn.Name.Pos(), "%s is missing CSV column %q for %s.%s",
				spec.CSVFunc, col, spec.Type, fld.Name())
		}
	}
}

// localStruct finds a struct type declared in this package by name,
// returning its named type and declaration position.
func localStruct(p *Pass, name string) (*types.Named, token.Pos) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts := spec.(*ast.TypeSpec)
				if ts.Name.Name != name {
					continue
				}
				tn, ok := p.Info.Defs[ts.Name].(*types.TypeName)
				if !ok || tn.IsAlias() {
					continue // the defining package owns the obligation
				}
				named, ok := tn.Type().(*types.Named)
				if !ok {
					continue
				}
				if _, isStruct := named.Underlying().(*types.Struct); isStruct {
					return named, ts.Name.Pos()
				}
			}
		}
	}
	return nil, token.NoPos
}

// meterDataFields lists the struct's fields minus synchronization state.
func meterDataFields(named *types.Named) []*types.Var {
	st := named.Underlying().(*types.Struct)
	var out []*types.Var
	for i := 0; i < st.NumFields(); i++ {
		if fld := st.Field(i); !isSyncType(fld.Type()) {
			out = append(out, fld)
		}
	}
	return out
}

// delegates reports whether fd calls another listed aggregator (by
// name), which transfers the exhaustiveness obligation there.
func delegates(p *Pass, fd *ast.FuncDecl, spec *MeterSpec) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		var callee string
		switch f := call.Fun.(type) {
		case *ast.Ident:
			callee = f.Name
		case *ast.SelectorExpr:
			callee = f.Sel.Name
		}
		if callee == fd.Name.Name {
			return true
		}
		for _, agg := range spec.Aggregators {
			if callee == agg {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// referencedMeterFields collects the names of spec-struct fields the
// function touches, through any selector whose receiver is the struct.
func referencedMeterFields(p *Pass, fd *ast.FuncDecl, typeName string) map[string]bool {
	out := map[string]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		s, ok := p.Info.Selections[sel]
		if !ok || s.Kind() != types.FieldVal {
			return true
		}
		recv := s.Recv()
		if pt, isPtr := recv.(*types.Pointer); isPtr {
			recv = pt.Elem()
		}
		named, isNamed := recv.(*types.Named)
		if !isNamed || named.Obj().Name() != typeName {
			return true
		}
		out[sel.Sel.Name] = true
		return true
	})
	// Composite-literal keys (CostMeter{PublishCost: …}) also count.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		cl, ok := n.(*ast.CompositeLit)
		if !ok {
			return true
		}
		tv, ok := p.Info.Types[cl]
		if !ok {
			return true
		}
		t := tv.Type
		if pt, isPtr := t.(*types.Pointer); isPtr {
			t = pt.Elem()
		}
		named, isNamed := t.(*types.Named)
		if !isNamed || named.Obj().Name() != typeName {
			return true
		}
		for _, el := range cl.Elts {
			if kv, isKV := el.(*ast.KeyValueExpr); isKV {
				if id, isID := kv.Key.(*ast.Ident); isID {
					out[id.Name] = true
				}
			}
		}
		return true
	})
	return out
}

// snakeCase converts a Go field name to its CSV column form, keeping
// acronym runs together: PublishCost → publish_cost, LBRouteCost →
// lb_route_cost, SampledMaintCostEst → sampled_maint_cost_est.
func snakeCase(s string) string {
	rs := []rune(s)
	var b strings.Builder
	for i, r := range rs {
		if unicode.IsUpper(r) {
			boundary := i > 0 && (unicode.IsLower(rs[i-1]) || unicode.IsDigit(rs[i-1]) ||
				(i+1 < len(rs) && unicode.IsLower(rs[i+1])))
			if boundary {
				b.WriteByte('_')
			}
			b.WriteRune(unicode.ToLower(r))
		} else {
			b.WriteRune(r)
		}
	}
	return b.String()
}

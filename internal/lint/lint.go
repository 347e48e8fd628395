// Package lint is motlint's engine: a stdlib-only static analyzer
// harness (go/parser + go/ast + go/types) that loads every package in the
// module, type-checks it, and runs a pluggable analyzer suite over the
// typed syntax trees. Findings print as "file:line: [rule] message" and
// cmd/motlint exits non-zero when any survive.
//
// The suite encodes this repository's determinism and concurrency
// invariants — the properties the golden figure tests and the -race tier
// rely on (see DESIGN.md, "Static analysis"):
//
//	maprange    map iteration feeding ordered output must sort its keys
//	globalrand  randomness flows through seeded *rand.Rand streams only
//	walltime    simulation library code never reads the wall clock
//	barego      goroutines launch via internal/runtime/track.Group only
//	printlib    library code writes to an io.Writer, never os.Stdout
//	hotalloc    //motlint:hotpath functions (and their static callees)
//	            must not contain allocation-inducing constructs
//	lockfield   mutex-guarded struct fields are never accessed plain,
//	            and lock acquisition order is consistent
//	meterfields every metered-struct field reaches the aggregators and
//	            the CSV header (no silently droppable costs)
//	ctxleak     every track.Group launch has a reachable Wait
//
// The last four are flow-aware: they consult a module-wide call graph
// and hot-path propagation pass (see flow.go) built once per load set.
//
// A finding can be waived in place with a reasoned directive:
//
//	//motlint:ignore <rule>[,<rule>…] <reason>
//
// placed on the offending line or the line directly above it. Directives
// without a reason, or naming an unknown rule, are themselves findings.
package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Finding is one rule violation at a position.
type Finding struct {
	File string `json:"file"` // relative to the lint root
	Line int    `json:"line"`
	Col  int    `json:"col"`
	Rule string `json:"rule"`
	Msg  string `json:"msg"`
}

// String renders the canonical "file:line: [rule] message" form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.File, f.Line, f.Rule, f.Msg)
}

// Analyzer is one pluggable rule.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Pass hands an analyzer one type-checked package.
type Pass struct {
	Cfg   *Config
	Fset  *token.FileSet
	Path  string // import path (drives the allowlists)
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
	// Flow is the module-wide call-graph pass (hot-path propagation,
	// caller edges, cross-package type lookup). It spans every package
	// the runner has loaded so far — the whole module under LintModule.
	Flow *Flow

	rule string
	out  *[]Finding
	rel  func(token.Pos) (string, int, int)
}

// Reportf records a finding for the pass's rule at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	file, line, col := p.rel(pos)
	*p.out = append(*p.out, Finding{
		File: file, Line: line, Col: col,
		Rule: p.rule, Msg: fmt.Sprintf(format, args...),
	})
}

// All returns the full analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		MapRange, GlobalRand, WallTime, BareGo, PrintLib,
		HotAlloc, LockField, MeterFields, CtxLeak,
	}
}

// Runner loads, type-checks, and lints packages. It caches packages
// across the run, so shared dependencies are checked once.
type Runner struct {
	cfg       Config
	analyzers []*Analyzer
	fset      *token.FileSet
	std       types.Importer
	pkgs      map[string]*pkgInfo
	loading   map[string]bool
	moduleDir string
	base      string // findings are reported relative to this directory

	// flowCache memoizes the flow pass; it rebuilds whenever load()
	// brings in a package the cached graph has not seen.
	flowCache *Flow
	flowN     int
}

// flow returns the flow pass over everything loaded so far.
func (r *Runner) flow() *Flow {
	if r.flowCache == nil || r.flowN != len(r.pkgs) {
		r.flowCache = buildFlow(r)
		r.flowN = len(r.pkgs)
	}
	return r.flowCache
}

type pkgInfo struct {
	path  string
	dir   string
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

// NewRunner builds a runner over cfg with the given analyzers (usually
// All()).
func NewRunner(cfg Config, analyzers ...*Analyzer) *Runner {
	fset := token.NewFileSet()
	return &Runner{
		cfg:       cfg,
		analyzers: analyzers,
		fset:      fset,
		// The source importer type-checks stdlib dependencies from
		// $GOROOT/src — no export data or go tool invocation needed.
		std:     importer.ForCompiler(fset, "source", nil),
		pkgs:    map[string]*pkgInfo{},
		loading: map[string]bool{},
	}
}

// Import implements types.Importer: module-internal paths resolve against
// the module directory (and get linted later from the same parse);
// everything else falls through to the stdlib source importer.
func (r *Runner) Import(path string) (*types.Package, error) {
	mod := r.cfg.ModulePath
	if mod != "" && (path == mod || strings.HasPrefix(path, mod+"/")) {
		if r.moduleDir == "" {
			return nil, fmt.Errorf("lint: import %q outside a module load", path)
		}
		rel := strings.TrimPrefix(strings.TrimPrefix(path, mod), "/")
		pi, err := r.load(filepath.Join(r.moduleDir, filepath.FromSlash(rel)), path)
		if err != nil {
			return nil, err
		}
		return pi.pkg, nil
	}
	return r.std.Import(path)
}

// load parses and type-checks the non-test Go files of one directory.
func (r *Runner) load(dir, path string) (*pkgInfo, error) {
	if pi, ok := r.pkgs[path]; ok {
		return pi, nil
	}
	if r.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	r.loading[path] = true
	defer delete(r.loading, path)

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(r.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no buildable Go files in %s", dir)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Defs:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		// Instances resolves generic functions and types at their use
		// sites, so the suite sees through explicit instantiations
		// (f[int](…)) instead of panicking or silently skipping them.
		Instances: map[*ast.Ident]types.Instance{},
	}
	conf := types.Config{Importer: r}
	pkg, err := conf.Check(path, r.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	pi := &pkgInfo{path: path, dir: dir, files: files, pkg: pkg, info: info}
	r.pkgs[path] = pi
	return pi, nil
}

// LintModule lints every package under the module rooted at root (the
// directory holding go.mod). Directories named testdata, hidden
// directories, and _-prefixed directories are skipped, mirroring the go
// tool.
func (r *Runner) LintModule(root string) ([]Finding, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		return nil, fmt.Errorf("lint: %s is not a module root: %w", root, err)
	}
	r.moduleDir = root
	r.base = root

	dirSet := map[string]bool{}
	err = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if p != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(d.Name(), ".go") && !strings.HasSuffix(d.Name(), "_test.go") {
			dirSet[filepath.Dir(p)] = true
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	dirs := make([]string, 0, len(dirSet))
	for d := range dirSet {
		dirs = append(dirs, d)
	}
	sort.Strings(dirs)

	pathOf := func(dir string) (string, error) {
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return "", err
		}
		path := r.cfg.ModulePath
		if rel != "." {
			path += "/" + filepath.ToSlash(rel)
		}
		return path, nil
	}

	// Preload everything before linting anything: the flow-aware rules
	// need caller edges and hot chains that cross package boundaries, so
	// the call graph must span the whole module before the first pass.
	for _, dir := range dirs {
		path, err := pathOf(dir)
		if err != nil {
			return nil, err
		}
		if _, err := r.load(dir, path); err != nil {
			return nil, err
		}
	}

	var all []Finding
	for _, dir := range dirs {
		path, err := pathOf(dir)
		if err != nil {
			return nil, err
		}
		fs, err := r.LintPackage(dir, path)
		if err != nil {
			return nil, err
		}
		all = append(all, fs...)
	}
	sortFindings(all)
	return all, nil
}

// LintDir lints the single package in dir as part of the module rooted
// at root: the import path is derived from dir's position in the module,
// and findings are reported relative to root. Used by cmd/motlint to
// lint one directory (e.g. a seeded fixture) instead of the whole tree.
func (r *Runner) LintDir(root, dir string) ([]Finding, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	dir, err = filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	rel, err := filepath.Rel(root, dir)
	if err != nil || strings.HasPrefix(rel, "..") {
		return nil, fmt.Errorf("lint: %s is outside module root %s", dir, root)
	}
	r.moduleDir = root
	r.base = root
	path := r.cfg.ModulePath
	if rel != "." {
		path += "/" + filepath.ToSlash(rel)
	}
	return r.LintPackage(dir, path)
}

// LintPackage lints a single directory as the package with the given
// import path (the path decides which allowlists apply). Findings are
// reported relative to the runner's base directory (the module root for
// LintModule; dir itself for a standalone call).
func (r *Runner) LintPackage(dir, path string) ([]Finding, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	if r.base == "" {
		r.base = dir
	}
	pi, err := r.load(dir, path)
	if err != nil {
		return nil, err
	}

	rel := func(pos token.Pos) (string, int, int) {
		pp := r.fset.Position(pos)
		name := pp.Filename
		if rp, err := filepath.Rel(r.base, name); err == nil && !strings.HasPrefix(rp, "..") {
			name = filepath.ToSlash(rp)
		}
		return name, pp.Line, pp.Column
	}

	var out []Finding
	ign := parseIgnores(r.fset, pi.files, rel, &out)
	flow := r.flow()
	for _, a := range r.analyzers {
		p := &Pass{
			Cfg: &r.cfg, Fset: r.fset, Path: path,
			Files: pi.files, Pkg: pi.pkg, Info: pi.info, Flow: flow,
			rule: a.Name, out: &out, rel: rel,
		}
		a.Run(p)
	}
	kept := out[:0]
	for _, f := range out {
		if ign.covers(f) {
			continue
		}
		kept = append(kept, f)
	}
	sortFindings(kept)
	return kept, nil
}

// SortFindings orders findings by (file, line, col, rule) — the
// canonical report order. Lint calls already return sorted slices;
// callers that concatenate several runs re-sort with this.
func SortFindings(fs []Finding) { sortFindings(fs) }

func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Msg < b.Msg
	})
}

// ignoreSet records which rules are waived on which lines of which files.
type ignoreSet map[string]map[int]map[string]bool

func (s ignoreSet) covers(f Finding) bool {
	return s[f.File] != nil && s[f.File][f.Line] != nil &&
		(s[f.File][f.Line][f.Rule] || s[f.File][f.Line]["all"])
}

func (s ignoreSet) add(file string, line int, rule string) {
	if s[file] == nil {
		s[file] = map[int]map[string]bool{}
	}
	if s[file][line] == nil {
		s[file][line] = map[string]bool{}
	}
	s[file][line][rule] = true
}

const ignorePrefix = "//motlint:ignore"

// parseIgnores collects //motlint:ignore directives. A directive waives
// its rules on its own line and on the line directly below, so it works
// both trailing a statement and on the line above one. Malformed
// directives (no reason, or an unknown rule) are reported as findings
// under the pseudo-rule "motlint". Rule names validate against the full
// registry (All), not the active subset, so a -rules run never flags a
// directive for a disabled rule.
func parseIgnores(fset *token.FileSet, files []*ast.File,
	rel func(token.Pos) (string, int, int), out *[]Finding) ignoreSet {
	known := map[string]bool{"all": true}
	for _, a := range All() {
		known[a.Name] = true
	}
	ign := ignoreSet{}
	bad := func(pos token.Pos, msg string) {
		file, line, col := rel(pos)
		*out = append(*out, Finding{File: file, Line: line, Col: col, Rule: "motlint", Msg: msg})
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, ignorePrefix) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, ignorePrefix)
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					bad(c.Pos(), "malformed ignore directive: want //motlint:ignore <rule>[,<rule>…] <reason>")
					continue
				}
				rules := strings.Split(fields[0], ",")
				ok := true
				for _, rule := range rules {
					if !known[rule] {
						bad(c.Pos(), fmt.Sprintf("ignore directive names unknown rule %q", rule))
						ok = false
					}
				}
				if !ok {
					continue
				}
				file, line, _ := rel(c.Pos())
				for _, rule := range rules {
					ign.add(file, line, rule)
					ign.add(file, line+1, rule)
				}
			}
		}
	}
	return ign
}

// pkgFunc resolves a qualified call like rand.Intn to its package path
// and function name; ok is false for method calls and locals. Explicit
// generic instantiations (pkg.Func[T](…)) unwrap to the same answer.
func pkgFunc(info *types.Info, call *ast.CallExpr) (pkgPath, name string, ok bool) {
	fun := call.Fun
	for {
		switch f := fun.(type) {
		case *ast.ParenExpr:
			fun = f.X
			continue
		case *ast.IndexExpr:
			fun = f.X
			continue
		case *ast.IndexListExpr:
			fun = f.X
			continue
		}
		break
	}
	sel, isSel := fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	id, isID := sel.X.(*ast.Ident)
	if !isID {
		return "", "", false
	}
	pn, isPkg := info.Uses[id].(*types.PkgName)
	if !isPkg {
		return "", "", false
	}
	return pn.Imported().Path(), sel.Sel.Name, true
}

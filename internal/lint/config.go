package lint

import (
	"go/token"
	"path/filepath"
	"strings"
)

// Config carries the per-rule allowlists. Paths are import-path prefixes
// (a prefix matches the package itself and everything below it). The
// zero-value Config forbids everything everywhere; Default() encodes this
// repository's invariants.
type Config struct {
	// ModulePath is the module's import path ("repro"); package kinds
	// (cmd, examples, library) are derived from it.
	ModulePath string

	// GlobalRandAllowed lists packages where top-level math/rand calls
	// (rand.Intn, rand.Seed, …) are permitted. Everywhere else all
	// randomness must flow through a seeded *rand.Rand (the StreamSeed
	// discipline); the constructors rand.New / rand.NewSource /
	// rand.NewZipf are always allowed.
	GlobalRandAllowed []string

	// WallTimeAllowed lists library packages that may call time.Now /
	// time.Since. cmd/ and examples/ are always allowed: wall-clock
	// timing belongs to drivers, never to simulation logic, or result
	// bytes start depending on the machine that produced them.
	WallTimeAllowed []string

	// BareGoAllowed lists library packages that may contain bare go
	// statements. Only internal/runtime/track should ever be here: it is
	// the single sanctioned launch site, so the -race tier can drain
	// every goroutine through Group.Wait.
	BareGoAllowed []string

	// PrintAllowed lists library packages that may write to os.Stdout or
	// call fmt.Print*. cmd/ and examples/ are always allowed; report
	// renderers take an io.Writer, so internal/report is here only for
	// its convenience entry points.
	PrintAllowed []string

	// PrintAllowedFiles waives printlib for single files, named as
	// "<import path>/<file name>". It exists for exporter entry points
	// (internal/obs's Dump) whose whole job is emitting the final artifact
	// to stdout: the narrow waiver keeps the rest of the package — the
	// span-recording and metrics code — under the full rule.
	PrintAllowedFiles []string

	// MapRangeAllowed lists library packages exempt from the maprange
	// rule entirely (none by default — prefer a //motlint:ignore with a
	// reason at the loop, or a sorted-keys helper).
	MapRangeAllowed []string

	// HotPathDepth bounds how far the hotalloc rule propagates the
	// //motlint:hotpath obligation through the intra-module call graph:
	// an annotated function is depth 0, its static callees depth 1, and
	// so on. 0 means the default (4). Dynamic (interface) calls and
	// calls into HotAllocStop packages never propagate.
	HotPathDepth int

	// HotAllocStop lists package prefixes the hotalloc propagation never
	// descends into. These are configuration-gated cold subsystems whose
	// enabled paths legitimately allocate while their disabled fast path
	// is a pointer test (internal/obs: a nil Recorder; internal/chaos:
	// a nil Injector). The disabled-path cost is pinned dynamically by
	// the 0-allocs benches instead.
	HotAllocStop []string

	// HotAllocAllowed lists library packages exempt from hotalloc
	// entirely (none by default — prefer a reasoned //motlint:ignore at
	// the allocation or call site, which also prunes propagation).
	HotAllocAllowed []string

	// LockFieldAllowed lists packages exempt from the lockfield rule.
	LockFieldAllowed []string

	// CtxLeakAllowed lists packages exempt from the ctxleak rule.
	CtxLeakAllowed []string

	// Meters lists the metered structs whose fields must never be
	// silently droppable: every field has to be accumulated by the
	// aggregator methods and rendered by the CSV exporter (see the
	// meterfields rule).
	Meters []MeterSpec
}

// MeterSpec names one metered struct and the functions that must cover
// every one of its fields.
type MeterSpec struct {
	// Type is the struct name, matched in any package (fixture packages
	// declare their own copy of the metered struct).
	Type string
	// Aggregators are function or method names in the struct's own
	// package. Each must reference every field of the struct, or
	// delegate by calling another listed aggregator.
	Aggregators []string
	// CSVPkg/CSVFunc optionally name the exporter that must mention
	// every field (snake_cased) as a column-header string literal, so a
	// field added to the meter cannot silently vanish from the artifact.
	CSVPkg  string
	CSVFunc string
}

// Default is this repository's lint policy, referenced by cmd/motlint and
// the make lint target.
func Default() Config {
	return Config{
		ModulePath:        "repro",
		GlobalRandAllowed: []string{"repro/internal/mobility"},
		// internal/obs/live is the wall-clock half of the two-layer obs
		// contract (DESIGN.md "Live telemetry"): the one library package
		// whose whole point is reading the machine clock. Everything it
		// measures stays in diagnostics channels, never measured output.
		// internal/serve joins it: the serving front end's whole job is
		// wall-clock ops/sec and tail latency, and nothing it measures
		// feeds a deterministic artifact either.
		WallTimeAllowed:   []string{"repro/internal/obs/live", "repro/internal/serve"},
		BareGoAllowed:     []string{"repro/internal/runtime/track"},
		PrintAllowed:      []string{"repro/internal/report"},
		PrintAllowedFiles: []string{"repro/internal/obs/export.go"},
		MapRangeAllowed:   nil,
		HotPathDepth:      4,
		HotAllocStop: []string{
			"repro/internal/obs",
			"repro/internal/chaos",
		},
		HotAllocAllowed:  nil,
		LockFieldAllowed: nil,
		CtxLeakAllowed:   nil,
		Meters: []MeterSpec{
			{
				Type:        "CostMeter",
				Aggregators: []string{"Add", "AbsorbMeter"},
				CSVPkg:      "repro/internal/report",
				CSVFunc:     "CSVMeter",
			},
			{
				Type:        "Recorder",
				Aggregators: []string{"Snapshot"},
			},
		},
	}
}

// meterFor returns the spec matching a struct type name, or nil.
func (c *Config) meterFor(typeName string) *MeterSpec {
	for i := range c.Meters {
		if c.Meters[i].Type == typeName {
			return &c.Meters[i]
		}
	}
	return nil
}

// pathAllowed reports whether pkgPath is covered by one of the prefixes.
func pathAllowed(prefixes []string, pkgPath string) bool {
	for _, p := range prefixes {
		if pkgPath == p || strings.HasPrefix(pkgPath, p+"/") {
			return true
		}
	}
	return false
}

// fileAllowed reports whether the file holding pos is individually
// allowlisted: entries name a file as "<import path>/<file name>".
func (p *Pass) fileAllowed(entries []string, pos token.Pos) bool {
	name := filepath.Base(p.Fset.Position(pos).Filename)
	for _, e := range entries {
		if e == p.Path+"/"+name {
			return true
		}
	}
	return false
}

// isCmd reports whether pkgPath is a command (under <module>/cmd/).
func (c *Config) isCmd(pkgPath string) bool {
	return pathAllowed([]string{c.ModulePath + "/cmd"}, pkgPath)
}

// isExample reports whether pkgPath is an example program.
func (c *Config) isExample(pkgPath string) bool {
	return pathAllowed([]string{c.ModulePath + "/examples"}, pkgPath)
}

// isDriver reports whether pkgPath is a cmd or example — code that talks
// to a terminal rather than producing measured results.
func (c *Config) isDriver(pkgPath string) bool {
	return c.isCmd(pkgPath) || c.isExample(pkgPath)
}

// Package analysis is the project-specific static analyzer behind
// cmd/schedlint. It enforces the repository's determinism contract
// (fixed seed ⇒ identical output at any worker count) as machine-checked
// invariants instead of reviewer folklore:
//
//	detrange    — map iteration feeding order-dependent state in solver
//	              packages (the growInitial class of bug)
//	nowallclock — wall-clock time and the global math/rand stream in
//	              solver packages; randomness must flow in as parameters
//	mergeorder  — worker results merged into shared state in a way that
//	              depends on goroutine scheduling rather than worker index
//	floataccum  — float += accumulation in map-iteration order
//	              (order-dependent rounding)
//	tracepurity — wall-clock reads anywhere outside internal/obs, the
//	              module's designated clock boundary; every other site
//	              must carry an annotated justification
//	ordertaint  — interprocedural order-taint dataflow: values derived
//	              from map iteration, channel-receive completion, or the
//	              unseeded RNG committed to schedule state, shared state
//	              via a callee, or encoded output
//	lockorder   — cycles in the module's lock-acquisition graph, the
//	              ABBA deadlock class the race detector cannot see
//
// The last two (plus the transitive halves of nowallclock and
// tracepurity) run on a shared interprocedural engine: a module-local
// call graph with per-function taint summaries, clock-reader closure,
// and transitive lock-acquisition sets (DESIGN.md §11).
//
// Findings are suppressed line-by-line with
//
//	//schedlint:allow <check>[,<check>...] [reason]
//
// placed on the offending line or the line directly above it. Strict
// mode audits the annotations themselves (allowstale, allowunknown).
// The package is built exclusively on the standard library (go/ast,
// go/parser, go/types), preserving the module's zero-dependency stance.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Finding is one rule violation at a source position.
type Finding struct {
	Check string
	Pos   token.Position
	Msg   string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Check, f.Msg)
}

// Config selects which checks run and which packages count as
// "deterministic" (solver) packages for the checks scoped to them.
type Config struct {
	// Checks to run; empty means all registered checks.
	Checks []string
	// DeterministicPaths are import-path prefixes of packages whose
	// output must be a pure function of their inputs and seeds.
	// detrange, nowallclock, floataccum and ordertaint only fire
	// inside these.
	DeterministicPaths []string
	// Strict additionally audits the suppression annotations
	// themselves: an allow entry naming an unregistered check is
	// reported as allowunknown, and an entry that suppressed nothing
	// during the run is reported as allowstale. Hygiene findings
	// cannot themselves be suppressed.
	Strict bool
}

// DefaultDeterministicPaths lists the solver packages of this
// repository: everything between problem input and committed schedule.
var DefaultDeterministicPaths = []string{
	"repro/internal/mip",
	"repro/internal/simplex",
	"repro/internal/hypergraph",
	"repro/internal/sched",
	"repro/internal/gantt",
	"repro/internal/batch",
	"repro/internal/eviction",
	"repro/internal/core",
	"repro/internal/faults",
	"repro/internal/spec",
	"repro/internal/obs/journal",
}

// A check inspects one package through a pass and reports findings.
type check struct {
	name string
	// deterministicOnly restricts the check to deterministic packages.
	deterministicOnly bool
	run               func(*pass)
}

// allChecks is the registry, in reporting-priority order.
var allChecks = []check{
	{name: "detrange", deterministicOnly: true, run: runDetRange},
	{name: "nowallclock", deterministicOnly: true, run: runNoWallClock},
	{name: "mergeorder", deterministicOnly: false, run: runMergeOrder},
	{name: "floataccum", deterministicOnly: true, run: runFloatAccum},
	{name: "tracepurity", deterministicOnly: false, run: runTracePurity},
	{name: "ordertaint", deterministicOnly: true, run: runOrderTaint},
	{name: "lockorder", deterministicOnly: false, run: runLockOrder},
}

// hygieneChecks are the strict-mode finding categories produced by the
// suppression audit; they are not runnable checks but appear as rule
// ids in findings and SARIF output.
var hygieneChecks = []string{"allowstale", "allowunknown"}

// CheckNames returns the registered check names.
func CheckNames() []string {
	names := make([]string, len(allChecks))
	for i, c := range allChecks {
		names[i] = c.name
	}
	return names
}

// pass is the per-(package, check) context handed to check bodies.
type pass struct {
	pkg      *Package
	check    string
	suppress *suppressions
	eng      *engine
	cfg      *Config
	detPaths []string
	out      *[]Finding
}

func (p *pass) reportf(pos token.Pos, format string, args ...any) {
	position := p.pkg.Fset.Position(pos)
	if p.suppress.allows(position, p.check) {
		return
	}
	*p.out = append(*p.out, Finding{Check: p.check, Pos: position, Msg: fmt.Sprintf(format, args...)})
}

// typeOf resolves an expression's type (nil when unknown).
func (p *pass) typeOf(e ast.Expr) types.Type {
	if tv, ok := p.pkg.Info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// objectOf resolves an identifier to its object via Uses then Defs.
func (p *pass) objectOf(id *ast.Ident) types.Object {
	if o := p.pkg.Info.Uses[id]; o != nil {
		return o
	}
	return p.pkg.Info.Defs[id]
}

// Run analyzes the packages and returns all unsuppressed findings,
// sorted by position. With cfg.Strict it appends suppression-hygiene
// findings (stale and unknown-check allow entries).
func Run(pkgs []*Package, cfg Config) []Finding {
	selected := map[string]bool{}
	for _, name := range cfg.Checks {
		selected[name] = true
	}
	detPaths := cfg.DeterministicPaths
	if detPaths == nil {
		detPaths = DefaultDeterministicPaths
	}
	supByPkg := make(map[*Package]*suppressions, len(pkgs))
	for _, pkg := range pkgs {
		supByPkg[pkg] = collectSuppressions(pkg)
	}
	eng := newEngine(pkgs, supByPkg)
	ran := map[string]bool{}
	var findings []Finding
	for _, pkg := range pkgs {
		det := isDeterministicPath(strings.TrimSuffix(pkg.Path, ".test"), detPaths)
		for _, c := range allChecks {
			if len(selected) > 0 && !selected[c.name] {
				continue
			}
			if c.deterministicOnly && !det {
				continue
			}
			ran[c.name] = true
			c.run(&pass{pkg: pkg, check: c.name, suppress: supByPkg[pkg],
				eng: eng, cfg: &cfg, detPaths: detPaths, out: &findings})
		}
	}
	if cfg.Strict {
		findings = append(findings, auditSuppressions(pkgs, supByPkg, ran)...)
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Msg < b.Msg
	})
	return findings
}

// auditSuppressions produces the strict-mode hygiene findings: allow
// entries naming no registered check (a typo suppresses nothing,
// silently) and entries whose check ran in this invocation yet
// suppressed no finding (stale — the code they excused has moved or
// been fixed). Staleness is judged against the checks that ran
// globally, not per package: an allow for a check that can never run
// in its package is exactly the kind of dead annotation -strict
// exists to surface.
func auditSuppressions(pkgs []*Package, supByPkg map[*Package]*suppressions, ran map[string]bool) []Finding {
	registered := map[string]bool{"all": true}
	for _, c := range allChecks {
		registered[c.name] = true
	}
	known := strings.Join(CheckNames(), ", ")
	anyRan := len(ran) > 0
	var out []Finding
	for _, pkg := range pkgs {
		for _, entry := range supByPkg[pkg].entries {
			switch {
			case !registered[entry.check]:
				out = append(out, Finding{Check: "allowunknown", Pos: entry.pos,
					Msg: fmt.Sprintf("allow annotation names %q, which is not a registered check (known: %s); it suppresses nothing", entry.check, known)})
			case entry.used:
			case entry.check == "all" && anyRan, ran[entry.check]:
				out = append(out, Finding{Check: "allowstale", Pos: entry.pos,
					Msg: fmt.Sprintf("stale allow: no %s finding is suppressed here — remove the annotation or narrow its check list", entry.check)})
			}
		}
	}
	return out
}

func isDeterministicPath(path string, prefixes []string) bool {
	for _, p := range prefixes {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

// allowEntry is one check name of one //schedlint:allow annotation,
// with usage tracking for the strict-mode staleness audit. An
// annotation listing N checks produces N entries sharing a position.
type allowEntry struct {
	pos   token.Position // position of the annotation comment
	check string
	used  bool
}

// suppressions indexes a package's allow annotations by file and line.
type suppressions struct {
	entries []*allowEntry
	index   map[string]map[int][]*allowEntry
}

const allowPrefix = "schedlint:allow"

// collectSuppressions scans every comment of the package for allow
// annotations, in both line- and block-comment form (in the latter the
// closing delimiter is stripped so it cannot glue onto the last check
// name).
func collectSuppressions(pkg *Package) *suppressions {
	sup := &suppressions{index: map[string]map[int][]*allowEntry{}}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(strings.TrimPrefix(c.Text, "//"), "/*")
				text = strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(text), "*/"))
				rest, ok := strings.CutPrefix(text, allowPrefix)
				if !ok {
					continue
				}
				fields := strings.Fields(rest)
				if len(fields) == 0 {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				lines := sup.index[pos.Filename]
				if lines == nil {
					lines = map[int][]*allowEntry{}
					sup.index[pos.Filename] = lines
				}
				for _, name := range strings.Split(fields[0], ",") {
					name = strings.TrimSpace(name)
					if name == "" {
						continue
					}
					entry := &allowEntry{pos: pos, check: name}
					sup.entries = append(sup.entries, entry)
					lines[pos.Line] = append(lines[pos.Line], entry)
				}
			}
		}
	}
	return sup
}

// allows reports whether the check is suppressed at the position — an
// allow annotation on the same line or the line directly above — and
// marks every matching entry used for the staleness audit.
func (s *suppressions) allows(pos token.Position, check string) bool {
	if s == nil {
		return false
	}
	lines := s.index[pos.Filename]
	if lines == nil {
		return false
	}
	hit := false
	for _, line := range []int{pos.Line, pos.Line - 1} {
		for _, entry := range lines[line] {
			if entry.check == check || entry.check == "all" {
				entry.used = true
				hit = true
			}
		}
	}
	return hit
}

// ---- shared AST helpers used by the individual checks ----

// rootIdent unwraps an assignable expression (index, selector, star,
// paren) down to its base identifier; nil when the base is not a plain
// identifier (e.g. a function call result).
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// declaredWithin reports whether obj's declaration lies inside the
// source interval [from, to] — used to separate loop-local state from
// captured/outer state.
func declaredWithin(obj types.Object, from, to token.Pos) bool {
	return obj != nil && obj.Pos() >= from && obj.Pos() <= to
}

// isMapType reports whether t's core type is a map.
func isMapType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// isFloatType reports whether t is a floating-point type.
func isFloatType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// isIntegerType reports whether t is an integer type.
func isIntegerType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

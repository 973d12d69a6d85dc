package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// runTracePurity confines wall-clock reads to the observability layer.
// Where nowallclock bans time.Now/Since/Until inside solver packages
// outright, tracepurity covers the whole module: internal/obs is the
// one designated clock boundary, and every read elsewhere — CLI timing
// printouts, the scheduling-overhead measurement — must carry an explicit
// //schedlint:allow tracepurity annotation stating why the read cannot
// influence the schedule. The annotations double as an auditable
// inventory of every clock site in the repository.
func runTracePurity(p *pass) {
	if isObsPackage(p.pkg.Path) {
		return
	}
	for _, f := range p.pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := p.objectOf(sel.Sel).(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
				return true
			}
			if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
				return true // methods like (time.Time).Sub compute on values already read
			}
			if wallClockFuncs[fn.Name()] {
				p.reportf(sel.Pos(), "time.%s outside internal/obs; route timing through the tracer or annotate //schedlint:allow tracepurity <why the read cannot affect the schedule>", fn.Name())
			}
			return true
		})
	}
	// The same boundary, enforced transitively: a helper that wraps
	// time.Now is as much a clock site as the read itself, and the
	// call graph pins it to every caller. Reads justified with an
	// allow annotation do not propagate — the annotation's reasoning
	// covers the wrapper's callers too.
	reportTransitiveReads(p, "tracepurity", false,
		"call to %s reaches %s at %s, a wall-clock read outside internal/obs; route timing through the tracer or annotate the read with //schedlint:allow tracepurity")
}

// isObsPackage reports whether path is the observability package (or
// its test binary), the module's designated wall-clock boundary.
func isObsPackage(path string) bool {
	path = strings.TrimSuffix(path, ".test")
	path = strings.TrimSuffix(path, "_test")
	return path == "repro/internal/obs" || strings.HasSuffix(path, "/internal/obs")
}

package core

import (
	"fmt"
	"math"
	"reflect"

	"repro/internal/batch"
	"repro/internal/obs/journal"
)

// ReuseChecks counts the reused source searches CheckProbeReuse
// re-verified, by kind.
type ReuseChecks struct {
	PassThroughs int // greedy winners staged from their probe's slot
	MemoHits     int // first-round probes answered by the commit-epoch memo
}

// CheckProbeReuse runs fn with every executor source-search reuse
// re-verified: each reused (src, start, tct) is compared bit for bit
// against a fresh bestSource over the same view, and in journaled
// commit mode the alternatives lists must match too. It returns the
// checks made and one line per mismatch. Not safe to call from
// parallel tests.
func CheckProbeReuse(fn func()) (ReuseChecks, []string) {
	var n ReuseChecks
	var bad []string
	probeReuseCheck = func(f batch.FileID, dst int, memoHit bool, reused, fresh srcChoice, reusedAlts, freshAlts []journal.SourceAlt) {
		if memoHit {
			n.MemoHits++
		} else {
			n.PassThroughs++
		}
		if reused.src != fresh.src ||
			math.Float64bits(reused.start) != math.Float64bits(fresh.start) ||
			math.Float64bits(reused.tct) != math.Float64bits(fresh.tct) {
			bad = append(bad, fmt.Sprintf("file %d -> node %d (memo %v): reused %+v, fresh %+v", f, dst, memoHit, reused, fresh))
		}
		if !reflect.DeepEqual(reusedAlts, freshAlts) {
			bad = append(bad, fmt.Sprintf("file %d -> node %d: reused alternatives %v, fresh %v", f, dst, reusedAlts, freshAlts))
		}
	}
	defer func() { probeReuseCheck = nil }()
	fn()
	return n, bad
}

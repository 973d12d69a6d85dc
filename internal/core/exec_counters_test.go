package core_test

import (
	"math"
	"strings"
	"testing"

	"repro/internal/core"
)

// execCounters is one scheduler arm's executor counters summed over
// its runs of the exactness matrix, with the bits of the summed
// makespan.
type execCounters struct {
	Probes, ProbeReuses, BoundSkips, ECTReevals int
	MakespanBits                                uint64
}

// TestExecCountersGolden pins, per scheduler arm of the exactness
// matrix, how many source searches the §6 executor ran, reused and
// ruled out, how many ECT-heap entries it re-evaluated, and the summed
// makespan's bits. TestProbeReuseExact proves every reuse is exact;
// this pins that a change to the executor's bookkeeping (the memo, the
// tentative copies, the overlays) reuses exactly as often and
// schedules exactly the same.
func TestExecCountersGolden(t *testing.T) {
	want := map[string]execCounters{
		"MinMin":      {29550, 17843, 31339, 1226, 4639080863156743288},
		"JDP":         {12067, 14472, 13733, 1872, 4639755257030946181},
		"BiPartition": {20661, 24363, 31567, 2255, 4639307058199470021},
		"IP":          {36, 8, 0, 84, 4631994209681142863},
	}
	got := map[string]execCounters{}
	makespan := map[string]float64{}
	exactnessRuns(t, func(name string, p *core.Problem, s core.Scheduler, opt core.RunOptions) {
		res, err := core.RunWith(p, s, opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		arm := name[:strings.IndexByte(name, '/')]
		c := got[arm]
		c.Probes += res.Probes
		c.ProbeReuses += res.ProbeReuses
		c.BoundSkips += res.BoundSkips
		c.ECTReevals += res.ECTReevals
		got[arm] = c
		makespan[arm] += res.Makespan
	})
	for arm, w := range want {
		g := got[arm]
		g.MakespanBits = math.Float64bits(makespan[arm])
		if g != w {
			t.Errorf("%s: got %+v, want %+v", arm, g, w)
		}
	}
}

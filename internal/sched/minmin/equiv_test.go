package minmin

import (
	"bytes"
	"testing"

	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/obs/journal"
	"repro/internal/platform"
	"repro/internal/workload"
)

// runArm executes one full pipeline (plan → execute → evict → repeat)
// and returns the provenance journal bytes plus the result, the
// byte-level fingerprint of every decision the scheduler made.
func runArm(t testing.TB, s core.Scheduler, p *core.Problem) ([]byte, *core.Result) {
	t.Helper()
	rec := journal.New()
	res, err := core.RunWith(p, s, core.RunOptions{Checked: true, Obs: core.Observer{Journal: rec}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), res
}

// requireEquivalent runs p under the reference and the incremental
// planner and fails unless journals and results match byte for byte.
func requireEquivalent(t testing.TB, p *core.Problem) {
	t.Helper()
	naiveJ, naiveR := runArm(t, &reference{}, p)
	incJ, incR := runArm(t, &Scheduler{}, p)
	if !bytes.Equal(naiveJ, incJ) {
		line := 0
		a, b := bytes.Split(naiveJ, []byte("\n")), bytes.Split(incJ, []byte("\n"))
		for i := 0; i < len(a) && i < len(b); i++ {
			if !bytes.Equal(a[i], b[i]) {
				line = i
				break
			}
		}
		t.Fatalf("journals diverge at line %d:\nnaive: %s\nincr:  %s", line, a[line], b[line])
	}
	if naiveR.Makespan != incR.Makespan || naiveR.SubBatches != incR.SubBatches ||
		naiveR.Evictions != incR.Evictions || naiveR.TaskCount != incR.TaskCount {
		t.Fatalf("results diverge: naive %+v vs incremental %+v", naiveR, incR)
	}
}

// heteroXIO is an XIO platform whose node i reads its local disk at
// readBW[i%len(readBW)] and has network bandwidth netBW[i%len(netBW)],
// so nodes fall into several (remote bandwidth, local read) classes.
func heteroXIO(compute int, disk int64, readBW, netBW []float64) *platform.Platform {
	p := platform.XIO(compute, 2, disk)
	for i := range p.Compute {
		p.Compute[i].LocalReadBW = readBW[i%len(readBW)]
		p.Compute[i].NetBW = netBW[i%len(netBW)]
	}
	return p
}

// TestMinMinIncrementalEquivalence pins the tentpole contract: the
// incremental heap implementation must reproduce the reference
// full-rescan plan byte for byte — every journal event (placement
// order, chosen nodes, full candidate matrices, staging, execution,
// eviction rationale) and the run result — across unlimited disk,
// eviction-pressured multi-round runs, and replication-disabled
// configurations. The wide cases exercise the best-node search: all
// nodes tied at ready 0, several cold classes, nodes too full to
// fit, and no replica path.
func TestMinMinIncrementalEquivalence(t *testing.T) {
	small := func(seed int64) *batch.Batch {
		return workload.Random(seed, 60, 45, 5, 2, 12*platform.MB, platform.PaperComputeFactor)
	}
	wide := func(seed int64) *batch.Batch {
		return workload.Random(seed, 240, 150, 3, 2, 10*platform.MB, platform.PaperComputeFactor)
	}
	mb := func(v ...float64) []float64 {
		for i := range v {
			v[i] *= platform.MB
		}
		return v
	}
	cases := []struct {
		name   string
		b      *batch.Batch
		plat   *platform.Platform
		noRepl bool
	}{
		{"unlimited", small(1), platform.XIO(4, 2, 0), false},
		{"unlimited-wide", small(2), platform.XIO(9, 2, 0), false},
		{"disk-pressure", small(3), platform.XIO(3, 2, 90*platform.MB), false},
		{"disk-tight", small(4), platform.XIO(4, 2, 70*platform.MB), false},
		{"ties-64", wide(5), platform.XIO(64, 2, 0), false},
		{"hetero-read", wide(6), heteroXIO(48, 0, mb(100, 80, 60), mb(1000)), false},
		{"hetero-net", wide(7), heteroXIO(48, 0, mb(100, 70), mb(1000, 180, 150)), false},
		{"disk-wide", wide(8), platform.XIO(64, 2, 40*platform.MB), false},
		{"disk-wide-hetero", wide(9), heteroXIO(40, 35*platform.MB, mb(100, 60), mb(1000, 170)), false},
		{"norepl-wide", wide(10), platform.XIO(64, 2, 0), true},
		{"norepl-disk-wide", wide(11), heteroXIO(64, 40*platform.MB, mb(100, 80, 60), mb(1000)), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			requireEquivalent(t, &core.Problem{Batch: tc.b, Platform: tc.plat, DisableReplication: tc.noRepl})
		})
	}
}

// TestMinMinIncrementalEquivalenceNoReplication covers the
// DisableReplication arm, where a file's first copy has no effect and the
// incremental path must skip its dirty-discount machinery without
// changing a byte.
func TestMinMinIncrementalEquivalenceNoReplication(t *testing.T) {
	b := workload.Random(7, 50, 35, 4, 2, 10*platform.MB, platform.PaperComputeFactor)
	for _, disk := range []int64{0, 55 * platform.MB} {
		p := &core.Problem{Batch: b, Platform: platform.XIO(4, 2, disk), DisableReplication: true}
		var outs [][]byte
		for _, s := range []core.Scheduler{&reference{}, &Scheduler{}} {
			rec := journal.New()
			if _, err := core.RunWith(p, s,
				core.RunOptions{Checked: true, Obs: core.Observer{Journal: rec}}); err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := rec.WriteJSONL(&buf); err != nil {
				t.Fatal(err)
			}
			outs = append(outs, buf.Bytes())
		}
		if !bytes.Equal(outs[0], outs[1]) {
			t.Fatalf("disk=%d: replication-disabled journals diverge", disk)
		}
	}
}

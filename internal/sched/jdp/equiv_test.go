package jdp

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/obs/journal"
	"repro/internal/platform"
	"repro/internal/workload"
)

// TestJDPIndexedEquivalence pins the first-holder index against the
// reference copy-scan implementation: full pipeline runs (ordering,
// replication daemon, assignment, execution, LRU eviction rounds) must
// produce byte-identical journals and identical results across
// unlimited disk, disk pressure, and replication-disabled arms.
func TestJDPIndexedEquivalence(t *testing.T) {
	cases := []struct {
		name    string
		compute int
		disk    int64
		seed    int64
		noRepl  bool
	}{
		{"unlimited", 4, 0, 1, false},
		{"unlimited-wide", 9, 0, 2, false},
		{"disk-pressure", 3, 90 * platform.MB, 3, false},
		{"disk-tight", 4, 120 * platform.MB, 4, false},
		{"no-replication", 4, 0, 5, true},
		{"no-replication-disk", 4, 80 * platform.MB, 6, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := workload.Random(tc.seed, 60, 45, 5, 2, 12*platform.MB, platform.PaperComputeFactor)
			var outs [][]byte
			var results []*core.Result
			for _, naive := range []bool{true, false} {
				s := arm(New(), naive)
				p := &core.Problem{Batch: b, Platform: platform.XIO(tc.compute, 2, tc.disk),
					DisableReplication: tc.noRepl}
				rec := journal.New()
				res, err := core.RunWith(p, s, core.RunOptions{Checked: true, Obs: core.Observer{Journal: rec}})
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := rec.WriteJSONL(&buf); err != nil {
					t.Fatal(err)
				}
				outs = append(outs, buf.Bytes())
				results = append(results, res)
			}
			if !bytes.Equal(outs[0], outs[1]) {
				a, b := bytes.Split(outs[0], []byte("\n")), bytes.Split(outs[1], []byte("\n"))
				for i := 0; i < len(a) && i < len(b); i++ {
					if !bytes.Equal(a[i], b[i]) {
						t.Fatalf("journals diverge at line %d:\nnaive:   %s\nindexed: %s", i, a[i], b[i])
					}
				}
				t.Fatalf("journals diverge in length: %d vs %d lines", len(a), len(b))
			}
			if results[0].Makespan != results[1].Makespan || results[0].SubBatches != results[1].SubBatches ||
				results[0].Evictions != results[1].Evictions {
				t.Fatalf("results diverge: naive %+v vs indexed %+v", results[0], results[1])
			}
		})
	}
}

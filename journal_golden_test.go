package repro

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"

	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/obs/journal"
	"repro/internal/platform"
	"repro/internal/sched/bipart"
	"repro/internal/sched/ipsched"
	"repro/internal/workload"
)

// The golden journal digests pin the §6 executor's decisions bit for
// bit: every staging source, slot, retry, burn, twin and eviction lands
// in the JSONL journal, so a refactor of the executor that changes any
// of them changes a digest here even when makespans happen to agree.
const (
	goldenChaosDigest = "d264be5784f3e78951b769541a89e9ca923e0db562ce2a08176a16651dbc5b92"
	goldenTraceDigest = "a0cdf817027ead3908522dfcee5b6daa3b88a3e9b86ae2b897566c1faebadeb8"
	goldenEvictDigest = "fd958d9e5b041d020ccd4fe5330f7d31813ab7742dd649903589254326433ae6"
	goldenIPDigest    = "630573aa30e9a315a2a3e904c9729fc21cb067b2d6f2cc63e728f4d93a9084e8"
)

func journalDigest(t *testing.T, j *journal.Recorder) string {
	t.Helper()
	var buf bytes.Buffer
	if err := j.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

func checkDigest(t *testing.T, name, got, want string) {
	t.Helper()
	if got != want {
		t.Errorf("%s journal digest %s, want %s", name, got, want)
	}
}

// TestJournalGoldenChaos pins the quick chaos matrix at seed 1: fault
// scenarios × speculation × BiPartition, MinMin and JDP.
func TestJournalGoldenChaos(t *testing.T) {
	j := journal.New()
	o := experiments.Options{Quick: true, Seed: 1, SkipIP: true, Workers: 2,
		Obs: core.Observer{Journal: j}}
	if _, err := experiments.Chaos(o); err != nil {
		t.Fatal(err)
	}
	checkDigest(t, "chaos", journalDigest(t, j), goldenChaosDigest)
}

// TestJournalGoldenTrace pins the golden-trace batch under all four
// schedulers, fault-free and with the harsh preset, so pinned IP plans
// run through the fault-injected transfer path too. IP placement
// reasons quote the portfolio's branch-and-bound node count, which the
// epoch-barrier bound exchange fixes.
func TestJournalGoldenTrace(t *testing.T) {
	j := journal.New()
	failures := 0
	for _, scenario := range []string{"none", "harsh"} {
		for _, s := range traceSchedulers() {
			fp, err := faults.Parse(scenario)
			if err != nil {
				t.Fatal(err)
			}
			res, err := core.RunWith(traceProblem(t), s.sched, core.RunOptions{Checked: true, Faults: fp,
				Obs: core.Observer{Journal: j}})
			if err != nil {
				t.Fatalf("%s/%s: %v", scenario, s.name, err)
			}
			if s.name == "ip" {
				failures += res.TransferFailures
			}
		}
	}
	if failures == 0 {
		t.Error("no IP transfer failed under the harsh preset: the pinned fault path went unexercised")
	}
	checkDigest(t, "trace", journalDigest(t, j), goldenTraceDigest)
}

// TestJournalGoldenEviction pins one disk-limited SAT BiPartition run:
// 16 nodes with disk for 30% of the data, so the run evicts.
func TestJournalGoldenEviction(t *testing.T) {
	b, err := workload.Sat(workload.SatConfig{NumTasks: 100, Overlap: workload.MediumOverlap, NumStorage: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	const nodes = 16
	disk := b.TotalUniqueBytes(nil) * 3 / 10 / nodes
	for i := range b.Tasks {
		disk = max(disk, b.TaskBytes(batch.TaskID(i)))
	}
	p := &core.Problem{Batch: b, Platform: platform.XIO(nodes, 4, disk)}
	j := journal.New()
	res, err := core.RunWith(p, bipart.New(3), core.RunOptions{Checked: true, Obs: core.Observer{Journal: j}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Evictions == 0 {
		t.Error("the disk-limited run evicted nothing")
	}
	checkDigest(t, "eviction", journalDigest(t, j), goldenEvictDigest)
}

// TestJournalGoldenBudgetIP pins one quick-scale IP run whose solves
// all stop at the node budget (IMAGE, 10 tasks, high overlap, 4 XIO
// compute nodes): the incumbent, node count and hence every placement
// depend on the bound the portfolio's dives exchange at each epoch
// barrier.
func TestJournalGoldenBudgetIP(t *testing.T) {
	b, err := workload.Image(workload.ImageConfig{NumTasks: 10, Overlap: workload.HighOverlap, NumStorage: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ip := ipsched.New(101)
	ip.NodeBudget = 20
	j := journal.New()
	if _, err := core.RunWith(&core.Problem{Batch: b, Platform: platform.XIO(4, 4, 0)}, ip,
		core.RunOptions{Checked: true, Obs: core.Observer{Journal: j}}); err != nil {
		t.Fatal(err)
	}
	for _, e := range j.Events() {
		if e.Kind == journal.KindPlace && !strings.Contains(e.Place.Reason, "status feasible") {
			t.Fatalf("solve not budget-bound: %s", e.Place.Reason)
		}
	}
	checkDigest(t, "budget-bound IP", journalDigest(t, j), goldenIPDigest)
}

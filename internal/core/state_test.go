package core_test

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/platform"
)

// denseState is the reference model FuzzStateOps checks core.State
// against: plain [node][file] matrices.
type denseState struct {
	holds     [][]bool
	lastUse   [][]float64
	used      []int64
	cap       []int64 // 0 = unlimited
	size      []int64
	evictions int
}

func (d *denseState) free(n int) int64 {
	if d.cap[n] <= 0 {
		return 1 << 62
	}
	return d.cap[n] - d.used[n]
}

// remove drops node n's copy of f, reporting whether there was one.
func (d *denseState) remove(n, f int) bool {
	if !d.holds[n][f] {
		return false
	}
	d.holds[n][f] = false
	d.used[n] -= d.size[f]
	return true
}

// stateOpsProblem builds nodes compute nodes and files files of 10–50
// B, each read by its own task. A node whose bit is set in unlimited
// (nodes 0–7) has unlimited disk; the others hold one to three of the
// largest files, so AddFile's capacity error is reachable.
func stateOpsProblem(nodes, files int, unlimited uint8) (*core.Problem, *denseState) {
	b := batch.New()
	d := &denseState{cap: make([]int64, nodes), used: make([]int64, nodes), size: make([]int64, files)}
	for f := 0; f < files; f++ {
		d.size[f] = int64(10 * (1 + (f*7)%5))
		b.AddTask("", 1, []batch.FileID{b.AddFile("", d.size[f], 0)})
	}
	p := platform.XIO(nodes, 1, 0)
	for n := range p.Compute {
		if n >= 8 || unlimited&(1<<n) == 0 {
			d.cap[n] = 50 * int64(1+n%3)
			p.Compute[n].DiskSpace = d.cap[n]
		}
		d.holds = append(d.holds, make([]bool, files))
		d.lastUse = append(d.lastUse, make([]float64, files))
	}
	return &core.Problem{Batch: b, Platform: p}, d
}

// FuzzStateOps drives core.State through random AddFile, Touch, Evict,
// Unstage and DropNode sequences (capacity errors included) and checks
// every query against the dense reference model after each op. Each op
// is three bytes: kind, node, file. Its seed corpus lives in
// testdata/fuzz/FuzzStateOps.
func FuzzStateOps(f *testing.F) {
	f.Fuzz(func(t *testing.T, nodes, files, unlimited uint8, ops []byte) {
		nn, nf := 1+int(nodes)%9, 1+int(files)%12
		p, d := stateOpsProblem(nn, nf, unlimited)
		st, err := core.NewState(p)
		if err != nil {
			t.Fatalf("NewState: %v", err)
		}
		for i := 0; i+2 < len(ops); i += 3 {
			n, fi := int(ops[i+1])%nn, int(ops[i+2])%nf
			fid := batch.FileID(fi)
			// Times are not monotone, so Touch's keep-the-latest rule and
			// AddFile's overwrite of a held copy's time both show.
			at := float64(i/3) + float64(ops[i]/6)*0.5
			switch ops[i] % 6 {
			case 0, 1:
				err := st.AddFile(n, fid, at)
				switch {
				case d.holds[n][fi]:
					d.lastUse[n][fi] = at
				case d.free(n) < d.size[fi]:
					if err == nil {
						t.Fatalf("op %d: AddFile(%d, %d) over capacity returned no error", i/3, n, fi)
					}
					continue
				default:
					d.holds[n][fi], d.lastUse[n][fi] = true, at
					d.used[n] += d.size[fi]
				}
				if err != nil {
					t.Fatalf("op %d: AddFile(%d, %d): %v", i/3, n, fi, err)
				}
			case 2:
				st.Touch(n, fid, at)
				if d.holds[n][fi] && at > d.lastUse[n][fi] {
					d.lastUse[n][fi] = at
				}
			case 3:
				st.Evict(n, fid)
				if d.remove(n, fi) {
					d.evictions++
				}
			case 4:
				st.Unstage(n, fid)
				d.remove(n, fi)
			case 5:
				want := 0
				for g := range d.holds[n] {
					if d.remove(n, g) {
						want++
					}
				}
				if got := st.DropNode(n); got != want {
					t.Fatalf("op %d: DropNode(%d) = %d, want %d", i/3, n, got, want)
				}
			}
			checkState(t, i/3, st, d)
		}
	})
}

// checkState compares every State query with the reference model.
func checkState(t *testing.T, op int, st *core.State, d *denseState) {
	t.Helper()
	for n := range d.holds {
		if st.Used(n) != d.used[n] || st.Free(n) != d.free(n) {
			t.Fatalf("op %d: node %d used/free %d/%d, want %d/%d", op, n, st.Used(n), st.Free(n), d.used[n], d.free(n))
		}
		for f, h := range d.holds[n] {
			fid := batch.FileID(f)
			if st.Holds(n, fid) != h {
				t.Fatalf("op %d: Holds(%d, %d) = %v, want %v", op, n, f, !h, h)
			}
			if h && st.LastUse(n, fid) != d.lastUse[n][f] {
				t.Fatalf("op %d: LastUse(%d, %d) = %v, want %v", op, n, f, st.LastUse(n, fid), d.lastUse[n][f])
			}
		}
	}
	for f := range d.size {
		var want []int
		for n := range d.holds {
			if d.holds[n][f] {
				want = append(want, n)
			}
		}
		fid := batch.FileID(f)
		if got := st.Holders(fid); !reflect.DeepEqual(got, want) {
			t.Fatalf("op %d: Holders(%d) = %v, want %v", op, f, got, want)
		}
		if st.NumCopies(fid) != len(want) {
			t.Fatalf("op %d: NumCopies(%d) = %d, want %d", op, f, st.NumCopies(fid), len(want))
		}
	}
	if st.Evictions != d.evictions {
		t.Fatalf("op %d: Evictions = %d, want %d", op, st.Evictions, d.evictions)
	}
	if got := st.PresentMatrix(); !reflect.DeepEqual(got, d.holds) {
		t.Fatalf("op %d: PresentMatrix = %v, want %v", op, got, d.holds)
	}
}

// NewState's footprint must follow the files and the copies, not
// nodes × files: a dense [node][file] state at 1000 nodes × 10k files
// allocates about 90 MB.
func TestNewStateMemoryBounded(t *testing.T) {
	const nodes, files = 1000, 10000
	b := batch.New()
	for f := 0; f < files; f++ {
		b.AddFile("", platform.MB, f%4)
	}
	for k := 0; k < files/10; k++ {
		fs := make([]batch.FileID, 10)
		for i := range fs {
			fs[i] = batch.FileID(10*k + i)
		}
		b.AddTask("", 1, fs)
	}
	p := &core.Problem{Batch: b, Platform: platform.XIO(nodes, 4, 64*platform.MB)}
	if _, err := core.NewState(p); err != nil { // warm up: first-use allocations
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := core.NewState(p); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("NewState on %d nodes × %d files allocated %d B", nodes, files, got)
	if got >= 1<<20 {
		t.Fatal("want < 1 MiB")
	}
}

package gantt

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// earliestSlot merge-scans two sorted interval lists for the first gap
// of length dur starting at or after `after`. It is the flat reference
// implementation the bucketed slotSearch must agree with byte-for-byte;
// production paths go through the index.
func earliestSlot(a, b []Interval, after, dur float64) float64 {
	if dur < 0 {
		panic("gantt: negative duration")
	}
	t := after
	i := sort.Search(len(a), func(i int) bool { return a[i].End > after })
	j := sort.Search(len(b), func(j int) bool { return b[j].End > after })
	for {
		// next blocking interval: the earlier-starting of a[i], b[j]
		var next *Interval
		if i < len(a) && (j >= len(b) || a[i].Start <= b[j].Start) {
			next = &a[i]
		} else if j < len(b) {
			next = &b[j]
		}
		if next == nil || t+dur <= next.Start+OverlapEps {
			return t
		}
		if next.End > t {
			t = next.End
		}
		if i < len(a) && next == &a[i] {
			i++
		} else {
			j++
		}
	}
}

// buildRandom reserves n random slots (via EarliestSlot, so the result
// is always valid) and returns the timeline plus its flat interval
// view for the reference scan.
func buildRandom(rng *rand.Rand, n int, spread float64) (*Timeline, []Interval) {
	tl := NewTimeline()
	for i := 0; i < n; i++ {
		after := rng.Float64() * spread
		dur := rng.Float64()*3 + 0.01
		s := tl.EarliestSlot(after, dur)
		tl.Reserve(s, dur)
	}
	return tl, append([]Interval(nil), tl.Intervals()...)
}

// TestIndexMatchesLinearScan property-tests the tentpole contract: the
// bucketed gap index must return bit-identical EarliestSlot answers to
// the flat merge-scan reference, for bare timelines and for overlays,
// across densities that exercise chunk skips, chunk splits, and the
// mid-chunk entry path.
func TestIndexMatchesLinearScan(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(400)
		tl, flat := buildRandom(rng, n, float64(n))
		var extra []Interval
		ov := NewOverlay(tl)
		for q := 0; q < 200; q++ {
			after := rng.Float64() * float64(n) * 1.5
			dur := rng.Float64() * 5
			if tl.EarliestSlot(after, dur) != earliestSlot(flat, nil, after, dur) {
				return false
			}
			if ov.EarliestSlot(after, dur) != earliestSlot(flat, extra, after, dur) {
				return false
			}
			if q%20 == 19 { // grow the overlay as the executor does
				d := dur + 0.01
				s := ov.EarliestSlot(after, d)
				ov.Add(s, d)
				i := 0
				for i < len(extra) && extra[i].Start < s {
					i++
				}
				extra = append(extra, Interval{})
				copy(extra[i+1:], extra[i:])
				extra[i] = Interval{Start: s, End: s + d}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestTimelineSortedAfterRandomOps asserts the invariant FinishTime
// documents: after any randomized Reserve sequence (including the
// preempted partial reservations the fault path books directly), the
// interval list is sorted with the last interval ending latest. The
// byte sequences replayed first are the FuzzTimelineReserve seeds, so
// the property test and the fuzz target pin the same corpus.
func TestTimelineSortedAfterRandomOps(t *testing.T) {
	seeds := [][]byte{
		{0, 4, 0, 4, 2, 8},
		{10, 1, 0, 1, 5, 3, 5, 3, 0, 16},
		{255, 255, 0, 0, 7, 7},
	}
	rng := rand.New(rand.NewSource(11))
	for c := 0; c < 40; c++ {
		data := seeds[c%len(seeds)]
		if c >= len(seeds) {
			data = make([]byte, 2+rng.Intn(300))
			rng.Read(data)
		}
		tl := NewTimeline()
		for i := 0; i+1 < len(data); i += 2 {
			after := float64(data[i]) * 0.5
			dur := float64(data[i+1]%32) * 0.25
			if dur == 0 {
				continue
			}
			s := tl.EarliestSlot(after, dur)
			if data[i+1]%5 == 0 && dur > 0.25 {
				// preempt-style partial booking, as the fault path does
				tl.Reserve(s, dur/2)
			} else {
				tl.Reserve(s, dur)
			}
		}
		ivs := tl.Intervals()
		maxEnd := 0.0
		for i, iv := range ivs {
			if i > 0 && ivs[i-1].Start > iv.Start {
				t.Fatalf("case %d: intervals out of order at %d: %v after %v", c, i, iv, ivs[i-1])
			}
			if i > 0 && ivs[i-1].End > iv.Start+OverlapEps {
				t.Fatalf("case %d: intervals overlap at %d: %v and %v", c, i, ivs[i-1], iv)
			}
			if iv.End > maxEnd {
				maxEnd = iv.End
			}
		}
		if tl.FinishTime() != maxEnd {
			t.Fatalf("case %d: FinishTime %g != max End %g (last-interval-ends-latest violated)",
				c, tl.FinishTime(), maxEnd)
		}
		if tl.Len() != len(ivs) {
			t.Fatalf("case %d: Len %d != len(Intervals) %d", c, tl.Len(), len(ivs))
		}
	}
}

// TestOverlayEpsBoundaries covers the merge-scan's float-slop edge
// cases: tentative intervals that abut or overlap committed ones
// within OverlapEps must behave exactly like exact abutment.
func TestOverlayEpsBoundaries(t *testing.T) {
	tl := NewTimeline()
	tl.Reserve(0, 5)  // [0,5)
	tl.Reserve(10, 5) // [10,15)
	ov := NewOverlay(tl)

	// Tentative interval eps-overlapping the committed [0,5): starts
	// OverlapEps/2 early; the pair still reads as one busy block.
	ov.Add(5-OverlapEps/2, 2) // ~[5,7)
	if got := ov.EarliestSlot(0, 3); got != 7-OverlapEps/2 {
		t.Fatalf("slot after eps-abutting pair = %v, want %v", got, 7-OverlapEps/2)
	}
	// A 3-unit request at the remaining [7,10) gap fits because the
	// eps slop absorbs the overhang.
	if got := ov.EarliestSlot(0, 3+OverlapEps/4); got != 7-OverlapEps/2 {
		t.Fatalf("slot within eps of gap end = %v, want %v", got, 7-OverlapEps/2)
	}
	// Anything clearly larger than the gap must jump past [10,15).
	if got := ov.EarliestSlot(0, 3.001); got != 15 {
		t.Fatalf("slot for too-long request = %v, want 15", got)
	}

	// Exactly-abutting tentative intervals chain without creating a
	// phantom gap: [5,7) + [7,9) reads as busy through 9.
	ov2 := NewOverlay(tl)
	ov2.Add(5, 2)
	ov2.Add(7, 2)
	if got := ov2.EarliestSlot(0, 1); got != 9 {
		t.Fatalf("slot after abutting tentative chain = %v, want 9", got)
	}
	// A zero-length request parks at the requested time when free.
	if got := ov2.EarliestSlot(9.5, 0); got != 9.5 {
		t.Fatalf("zero-duration slot = %v, want 9.5", got)
	}

	// Tentative interval fully inside a committed gap, shifted by eps:
	// the index and the reference must agree on all of these shapes.
	ov3 := NewOverlay(tl)
	ov3.Add(6+OverlapEps, 2)
	flat := append([]Interval(nil), tl.Intervals()...)
	extra := []Interval{{Start: 6 + OverlapEps, End: 8 + OverlapEps}}
	for _, q := range []struct{ after, dur float64 }{
		{0, 1}, {0, 1 + OverlapEps}, {5, 1}, {5 + OverlapEps, 1},
		{0, 2 - OverlapEps}, {8, 2 - OverlapEps}, {8, 2 + OverlapEps}, {0, 6},
	} {
		got := ov3.EarliestSlot(q.after, q.dur)
		want := earliestSlot(flat, extra, q.after, q.dur)
		if got != want {
			t.Fatalf("eps-shifted overlay slot(%g,%g) = %v, reference = %v", q.after, q.dur, got, want)
		}
	}
}

// BenchmarkEarliestSlot pits the bucketed index against the linear
// reference on dense timelines past the ~1k-interval mark, where the
// O(n) scan's cost shows; queries start at 0 (the executor's
// remote-transfer pattern, which always searches from the epoch).
func BenchmarkEarliestSlot(b *testing.B) {
	for _, n := range []int{256, 1024, 4096, 16384} {
		rng := rand.New(rand.NewSource(7))
		tl, flat := buildRandom(rng, n, float64(n)/4) // dense: few gaps
		queries := make([][2]float64, 256)
		for i := range queries {
			queries[i] = [2]float64{0, rng.Float64()*4 + 0.01}
		}
		b.Run("indexed/n="+itoa(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				q := queries[i%len(queries)]
				tl.EarliestSlot(q[0], q[1])
			}
		})
		b.Run("linear/n="+itoa(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				q := queries[i%len(queries)]
				earliestSlot(flat, nil, q[0], q[1])
			}
		})
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

package gantt

import (
	"math"
	"math/rand"
	"testing"
)

// slotDur decodes one byte into a reservation or query length, biased
// toward the lengths that stress the eps tolerance: zero, sub-eps and
// near-eps durations besides ordinary ones.
func slotDur(x byte) float64 {
	switch x % 16 {
	case 0:
		return 0
	case 1:
		return OverlapEps * float64(x) / 256
	case 2:
		return OverlapEps * (1 + float64(x)/64)
	default:
		return float64(x%32)*0.25 + float64(x/32)*0.01
	}
}

// endsSortedRef recomputes EndsSorted from an interval list.
func endsSortedRef(ivs []Interval) bool {
	for i := 1; i < len(ivs); i++ {
		if ivs[i-1].End > ivs[i].End {
			return false
		}
	}
	return true
}

// clearOf reports the first interval a slot [s, s+dur) collides with:
// a returned slot must end by iv.Start+OverlapEps or start at or after
// iv.End for every interval.
func clearOf(s, dur float64, lists ...[]Interval) (Interval, bool) {
	for _, ivs := range lists {
		for _, iv := range ivs {
			if !(s+dur <= iv.Start+OverlapEps || s >= iv.End) {
				return iv, false
			}
		}
	}
	return Interval{}, true
}

// checkSlotMonotone decodes data into a random pair of timelines with
// one overlay each, then a sequence of reservations (committed at a
// found slot nudged by up to half an eps, tentative at a found slot or
// anywhere), and checks after every step that:
//
//   - EndsSorted matches the interval lists exactly;
//   - while every list reports sorted ends, EarliestSlot on the
//     timeline and on the overlay, and MultiSlot over both overlays,
//     never decrease when a reservation is added, and each returned
//     slot is clear of every interval it was searched against.
//
// The staging loop's lower bounds in package core rest on exactly
// these two facts.
func checkSlotMonotone(t *testing.T, data []byte) {
	if len(data) < 2 {
		return
	}
	if len(data) > 2+4*300 {
		data = data[:2+4*300] // every step rescans every interval
	}
	a, b := NewTimeline(), NewTimeline()
	rng := rand.New(rand.NewSource(int64(data[1])))
	// Prefill A so searches cross chunk and meta-run summaries.
	for i := 0; i < int(data[0])*8; i++ {
		dur := rng.Float64()*3 + 0.01
		a.Reserve(a.EarliestSlot(rng.Float64()*float64(data[0])*8, dur), dur, 1)
	}
	oa, ob := NewOverlay(a), NewOverlay(b)
	type query struct{ after, dur float64 }
	answers := func(qs []query) []float64 {
		out := make([]float64, 0, 3*len(qs))
		for _, q := range qs {
			out = append(out, a.EarliestSlot(q.after, q.dur), oa.EarliestSlot(q.after, q.dur), MultiSlot(q.after, q.dur, oa, ob))
		}
		return out
	}
	for i := 2; i+3 < len(data); i += 4 {
		op, x, y, z := data[i], data[i+1], data[i+2], data[i+3]
		qs := []query{{float64(x) * 0.5, slotDur(y)}, {0, slotDur(z)}, {float64(z) * 0.25, slotDur(x)}}
		before := answers(qs)
		after, dur := float64(x)*0.5, slotDur(y)
		nudge := (float64(z%3) - 1) * OverlapEps / 2
		switch op % 4 {
		case 0, 1:
			tl := a
			if op%4 == 1 {
				tl = b
			}
			s := tl.EarliestSlot(after, dur) + nudge
			if !tryReserve(tl, s, dur) {
				continue
			}
		case 2:
			oa.Add(oa.EarliestSlot(after, dur)+nudge, dur)
		case 3:
			s := ob.EarliestSlot(after, dur)
			if z%4 == 0 {
				s = float64(z) * 0.5 // anywhere, as a crash block can be
			}
			ob.Add(s, dur)
		}
		if a.EndsSorted() != endsSortedRef(a.Intervals()) || b.EndsSorted() != endsSortedRef(b.Intervals()) {
			t.Fatalf("step %d: timeline EndsSorted = %v/%v, reference %v/%v", i, a.EndsSorted(), b.EndsSorted(),
				endsSortedRef(a.Intervals()), endsSortedRef(b.Intervals()))
		}
		if oa.EndsSorted() != (a.EndsSorted() && endsSortedRef(oa.extra)) || ob.EndsSorted() != (b.EndsSorted() && endsSortedRef(ob.extra)) {
			t.Fatalf("step %d: overlay EndsSorted disagrees with its lists", i)
		}
		if !oa.EndsSorted() || !ob.EndsSorted() {
			continue
		}
		got := answers(qs)
		for k, q := range qs {
			for m, lists := range [][][]Interval{
				{a.Intervals()},
				{a.Intervals(), oa.extra},
				{a.Intervals(), oa.extra, b.Intervals(), ob.extra},
			} {
				g, w := got[3*k+m], before[3*k+m]
				if g < w {
					t.Fatalf("step %d: search %d for %+v fell from %v to %v after a reservation", i, m, q, w, g)
				}
				if g < q.after {
					t.Fatalf("step %d: search %d for %+v returned %v before the requested time", i, m, q, g)
				}
				if iv, ok := clearOf(g, q.dur, lists...); !ok {
					t.Fatalf("step %d: search %d for %+v returned %v, which collides with %+v", i, m, q, g, iv)
				}
			}
		}
	}
}

// tryReserve books [s, s+dur) on tl, reporting false (and booking
// nothing) when Reserve rejects the slot as overlapping.
func tryReserve(tl *Timeline, s, dur float64) (ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	tl.Reserve(s, dur, 2)
	return true
}

// TestSlotMonotone runs checkSlotMonotone over random inputs, long
// enough to cover chunk splits, meta-run skips, unsorted sub-eps
// reservations and overlapping tentative intervals.
func TestSlotMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for c := 0; c < 200; c++ {
		data := make([]byte, 2+4*(1+rng.Intn(150)))
		rng.Read(data)
		if c%4 != 0 {
			data[0] %= 16 // most cases: short prefill, so the ops dominate
		}
		checkSlotMonotone(t, data)
	}
}

// FuzzSlotMonotone is the fuzz form of TestSlotMonotone; the corpus
// under testdata/fuzz/FuzzSlotMonotone holds its seeds.
func FuzzSlotMonotone(f *testing.F) {
	f.Fuzz(checkSlotMonotone)
}

// TestEndsSortedReportsSubEpsInversion pins why the report exists: a
// reservation shorter than OverlapEps, tucked under the end of its
// predecessor, leaves the ends unsorted, and a search then starts
// inside the predecessor — earlier than before that reservation.
func TestEndsSortedReportsSubEpsInversion(t *testing.T) {
	tl := NewTimeline()
	tl.Reserve(0, 10, 1)
	after := 10 - 0.3*OverlapEps
	if got := tl.EarliestSlot(after, 1); got != 10 {
		t.Fatalf("slot behind [0,10) = %v, want 10", got)
	}
	if !tl.EndsSorted() {
		t.Fatal("one interval reported unsorted")
	}
	tl.Reserve(10-0.5*OverlapEps, 0.1*OverlapEps, 3)
	if tl.EndsSorted() {
		t.Fatal("sub-eps reservation ending before its predecessor not reported")
	}
	if got := tl.EarliestSlot(after, 1); got >= 10 || math.Abs(got-10) > OverlapEps {
		t.Fatalf("slot after the inversion = %v; expected the sub-eps decrease this report guards against", got)
	}
	ov := NewOverlay(NewTimeline())
	ov.Add(0, 10)
	ov.Add(10-0.5*OverlapEps, 0.1*OverlapEps)
	if ov.EndsSorted() {
		t.Fatal("overlay inversion not reported")
	}
	ov.Clear()
	if !ov.EndsSorted() {
		t.Fatal("Clear kept the overlay's inversion")
	}
}

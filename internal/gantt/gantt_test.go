package gantt

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestReserveAndSlots(t *testing.T) {
	tl := NewTimeline()
	if got := tl.EarliestSlot(0, 5); got != 0 {
		t.Fatalf("empty timeline slot = %v", got)
	}
	tl.Reserve(0, 5)  // [0,5)
	tl.Reserve(10, 5) // [10,15)
	if got := tl.EarliestSlot(0, 5); got != 5 {
		t.Fatalf("slot(0,5) = %v, want 5 (gap [5,10))", got)
	}
	if got := tl.EarliestSlot(0, 6); got != 15 {
		t.Fatalf("slot(0,6) = %v, want 15", got)
	}
	if got := tl.EarliestSlot(12, 1); got != 15 {
		t.Fatalf("slot(12,1) = %v, want 15", got)
	}
	if tl.FinishTime() != 15 {
		t.Fatalf("finish = %v", tl.FinishTime())
	}
	if tl.BusyTime() != 10 {
		t.Fatalf("busy = %v", tl.BusyTime())
	}
}

func TestReserveOverlapPanics(t *testing.T) {
	tl := NewTimeline()
	tl.Reserve(0, 5)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on overlapping reservation")
		}
	}()
	tl.Reserve(4, 2)
}

func TestAbuttingReservationsAllowed(t *testing.T) {
	tl := NewTimeline()
	tl.Reserve(0, 5)
	tl.Reserve(5, 5) // must not panic
	if tl.Len() != 2 {
		t.Fatal("expected two intervals")
	}
}

func TestOverlayDoesNotMutateBase(t *testing.T) {
	tl := NewTimeline()
	tl.Reserve(0, 5)
	ov := NewOverlay(tl)
	ov.Add(5, 5)
	if got := ov.EarliestSlot(0, 3); got != 10 {
		t.Fatalf("overlay slot = %v, want 10", got)
	}
	if got := tl.EarliestSlot(0, 3); got != 5 {
		t.Fatalf("base slot = %v, want 5 (overlay leaked)", got)
	}
}

func TestMultiSlot(t *testing.T) {
	a, b := NewTimeline(), NewTimeline()
	a.Reserve(0, 10) // a busy [0,10)
	b.Reserve(12, 4) // b busy [12,16)
	// Common slot of length 3 after 0: a free at 10, but b blocks
	// [12,16): [10,13) collides, so 16.
	if got := MultiSlot(0, 3, a, b); got != 16 {
		t.Fatalf("multislot = %v, want 16", got)
	}
	if got := MultiSlot(0, 2, a, b); got != 10 {
		t.Fatalf("multislot = %v, want 10 ([10,12) fits)", got)
	}
}

// TestQuickNoOverlaps property-tests that any sequence of
// EarliestSlot+Reserve operations keeps intervals disjoint and sorted.
func TestQuickNoOverlaps(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tl := NewTimeline()
		for i := 0; i < 200; i++ {
			after := rng.Float64() * 50
			dur := rng.Float64()*10 + 0.01
			s := tl.EarliestSlot(after, dur)
			if s < after {
				return false
			}
			tl.Reserve(s, dur)
		}
		ivs := tl.Intervals()
		for i := 1; i < len(ivs); i++ {
			if ivs[i-1].End > ivs[i].Start+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickOverlayConsistent property-tests that an overlay's
// EarliestSlot answer is always free in both the base and the overlay
// additions.
func TestQuickOverlayConsistent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tl := NewTimeline()
		for i := 0; i < 40; i++ {
			dur := 1 + rng.Float64()*5
			s := tl.EarliestSlot(rng.Float64()*30, dur)
			tl.Reserve(s, dur)
		}
		ov := NewOverlay(tl)
		var added []Interval
		for i := 0; i < 40; i++ {
			after := rng.Float64() * 40
			dur := 0.5 + rng.Float64()*3
			s := ov.EarliestSlot(after, dur)
			if s < after {
				return false
			}
			// verify against base intervals and added
			for _, iv := range append(append([]Interval(nil), tl.Intervals()...), added...) {
				if s < iv.End-1e-9 && s+dur > iv.Start+1e-9 {
					return false
				}
			}
			ov.Add(s, dur)
			added = append(added, Interval{Start: s, End: s + dur})
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestMakespan(t *testing.T) {
	a, b := NewTimeline(), NewTimeline()
	a.Reserve(0, 3)
	b.Reserve(1, 7)
	if got := Makespan([]*Timeline{a, b}); got != 8 {
		t.Fatalf("makespan = %v", got)
	}
	if got := Makespan(nil); got != 0 {
		t.Fatalf("empty makespan = %v", got)
	}
}

package gantt

import "testing"

// FuzzTimelineReserve decodes the input as a sequence of (after, dur)
// slot requests, plays them through EarliestSlot+Reserve, and checks
// the reservation invariants: the returned slot never starts before
// the requested time, Reserve never panics on a slot EarliestSlot
// chose, and the finished timeline passes the Schedule validator
// (sorted, overlap-free, non-negative durations).
func FuzzTimelineReserve(f *testing.F) {
	f.Add([]byte{0, 4, 0, 4, 2, 8})
	f.Add([]byte{10, 1, 0, 1, 5, 3, 5, 3, 0, 16})
	f.Add([]byte{255, 255, 0, 0, 7, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		tl := NewTimeline()
		for i := 0; i+1 < len(data); i += 2 {
			after := float64(data[i]) * 0.5
			dur := float64(data[i+1]%32) * 0.25
			if dur == 0 {
				continue
			}
			s := tl.EarliestSlot(after, dur)
			if s < after-OverlapEps {
				t.Fatalf("EarliestSlot(%g, %g) returned %g before the requested time", after, dur, s)
			}
			tl.Reserve(s, dur) // panics on overlap — the fuzzer would catch it
		}
		sched := &Schedule{Compute: []*Timeline{tl}}
		if v := sched.Validate(); len(v) != 0 {
			t.Fatalf("timeline built via EarliestSlot+Reserve fails validation: %v", v)
		}
	})
}

// Package gantt provides the timeline-reservation structure the paper's
// runtime stage (§6) maintains for storage and compute nodes: sorted
// lists of busy intervals supporting earliest-free-slot queries,
// committed reservations, and cheap tentative overlays used while
// estimating a task's earliest completion time without committing its
// transfers.
//
// Internally a Timeline is a bucketed gap index: the sorted interval
// list is split into bounded-size chunks, each summarizing the largest
// free gap strictly inside it. EarliestSlot skips whole chunks whose
// summary proves no fit can exist there and falls back to the exact
// linear merge-scan only inside candidate chunks, so queries and
// inserts cost O(√n)-ish instead of O(n) on the simulator's inner
// loop. The observable behaviour (results, panics, float arithmetic of
// the fit tests) is identical to the flat sorted-slice implementation,
// the test-only `earliestSlot` in index_test.go, which pins the index
// through property tests and the fuzz corpus.
package gantt

import (
	"fmt"
	"math"
	"sort"
)

// Interval is a half-open busy period [Start, End). It does not say
// what the port was busy with: the decision journal's stage, exec and
// burn events do.
type Interval struct {
	Start, End float64
}

// chunkTarget bounds chunk sizes: a chunk splits in half when it grows
// past 2*chunkTarget intervals, keeping inserts and in-chunk scans
// O(chunkTarget) while chunk-summary skips cover the rest.
const chunkTarget = 16

// chunk is one bucket of the gap index: a short sorted run of the
// timeline's intervals plus the largest free gap strictly inside it
// (between consecutive intervals; the gap before the first interval is
// the previous chunk's trailing gap and is tested separately).
type chunk struct {
	ivs    []Interval
	maxGap float64
}

func (c *chunk) first() Interval { return c.ivs[0] }
func (c *chunk) last() Interval  { return c.ivs[len(c.ivs)-1] }

// recalcGap recomputes the chunk's internal max free gap.
func (c *chunk) recalcGap() {
	g := 0.0
	for i := 1; i < len(c.ivs); i++ {
		if d := c.ivs[i].Start - c.ivs[i-1].End; d > g {
			g = d
		}
	}
	c.maxGap = g
}

// metaFan is the fan-out of the second index level: one metaSum
// summarizes up to metaFan consecutive chunks, so a slot search over a
// dense timeline skips ~metaFan*chunkTarget intervals per step instead
// of one chunk's worth.
const metaFan = 64

// metaSum summarizes a run of consecutive chunks for whole-run skips.
// Every bound is conservative with respect to the chunk-by-chunk skip
// logic in slotSearch: a run is skipped only when each of its chunks
// would have been skipped individually, so the two walks always land
// on the same slot.
type metaSum struct {
	// firstStart is the run's first interval Start (the pre-run gap is
	// tested against the cursor, exactly like a chunk's pre-gap).
	firstStart float64
	// maxEnd is the largest interval End in the run: the cursor after
	// skipping the run, and the extra-interference horizon.
	maxEnd float64
	// maxGap is the largest free gap inside the run: internal chunk
	// gaps and the inter-chunk gaps between consecutive run members.
	maxGap float64
	// maxAbsEnd bounds |last.End| over the run's chunks, so the
	// relative-slack term of the skip test dominates every chunk's.
	maxAbsEnd float64
}

// Timeline is a single-port resource schedule: a sorted,
// non-overlapping list of busy intervals, bucketed into gap-indexed
// chunks, with a second summary level over runs of metaFan chunks.
type Timeline struct {
	chunks []chunk
	metas  []metaSum
	n      int
	// flat caches the Intervals() view; nil after any mutation.
	flat []Interval
	// unsorted records that some interval ends after its successor (see
	// EndsSorted). It is sticky: an inverted pair stays inverted under
	// further inserts.
	unsorted bool
}

// recalcMeta recomputes the summary of meta mi from its chunk run.
func (t *Timeline) recalcMeta(mi int) {
	lo, hi := mi*metaFan, (mi+1)*metaFan
	if hi > len(t.chunks) {
		hi = len(t.chunks)
	}
	m := metaSum{firstStart: t.chunks[lo].first().Start}
	for i := lo; i < hi; i++ {
		c := &t.chunks[i]
		end := c.last().End
		if i == lo || end > m.maxEnd {
			m.maxEnd = end
		}
		if a := math.Abs(end); a > m.maxAbsEnd {
			m.maxAbsEnd = a
		}
		if c.maxGap > m.maxGap {
			m.maxGap = c.maxGap
		}
		if i > lo {
			if g := c.first().Start - t.chunks[i-1].last().End; g > m.maxGap {
				m.maxGap = g
			}
		}
	}
	t.metas[mi] = m
}

// recalcMetasFrom resizes the meta level to cover every chunk and
// recomputes the summaries of meta mi and everything after it.
func (t *Timeline) recalcMetasFrom(mi int) {
	nm := (len(t.chunks) + metaFan - 1) / metaFan
	for len(t.metas) < nm {
		t.metas = append(t.metas, metaSum{})
	}
	t.metas = t.metas[:nm]
	for ; mi < nm; mi++ {
		t.recalcMeta(mi)
	}
}

// NewTimeline returns an empty timeline.
func NewTimeline() *Timeline { return &Timeline{} }

// EndsSorted reports whether the interval ends are non-decreasing in
// start order. Reserve tolerates OverlapEps of overlap, so a
// reservation shorter than that (a sub-eps partial fault or transfer)
// can end before its predecessor does. Slot searches binary-search
// on End, and only while the ends are sorted does a search return the
// least fitting start; then EarliestSlot never decreases when a
// reservation is added, and a returned slot [s, s+dur) satisfies, for
// every interval, s+dur <= Start+OverlapEps or s >= End.
func (t *Timeline) EndsSorted() bool { return !t.unsorted }

// Len returns the number of busy intervals.
func (t *Timeline) Len() int { return t.n }

// Intervals returns the busy intervals in order. The slice must not be
// modified, and is valid only until the next Reserve.
func (t *Timeline) Intervals() []Interval {
	if t.flat == nil {
		flat := make([]Interval, 0, t.n)
		for i := range t.chunks {
			flat = append(flat, t.chunks[i].ivs...)
		}
		t.flat = flat
	}
	return t.flat
}

// EarliestSlot returns the earliest start ≥ after at which a
// reservation of the given duration fits.
func (t *Timeline) EarliestSlot(after, dur float64) float64 {
	return t.slotSearch(nil, after, dur)
}

// Reserve books [start, start+dur) on the timeline. It panics if the
// slot overlaps an existing reservation: callers must only reserve
// slots returned by EarliestSlot (or verified free).
func (t *Timeline) Reserve(start, dur float64) {
	if dur < 0 {
		panic("gantt: negative duration")
	}
	end := start + dur
	if len(t.chunks) == 0 {
		t.chunks = append(t.chunks, chunk{ivs: []Interval{{Start: start, End: end}}})
		t.recalcMetasFrom(0)
		t.n++
		t.flat = nil
		return
	}
	// Locate the global insertion position: first interval with
	// Start >= start, as (chunk ci, offset k).
	ci := sort.Search(len(t.chunks), func(i int) bool { return t.chunks[i].last().Start >= start })
	k := 0
	if ci == len(t.chunks) {
		ci = len(t.chunks) - 1
		k = len(t.chunks[ci].ivs)
	} else {
		c := &t.chunks[ci]
		k = sort.Search(len(c.ivs), func(i int) bool { return c.ivs[i].Start >= start })
	}
	// Check neighbours for overlap (identical to the flat scan).
	var prev, next *Interval
	if k > 0 {
		prev = &t.chunks[ci].ivs[k-1]
	} else if ci > 0 {
		p := &t.chunks[ci-1]
		prev = &p.ivs[len(p.ivs)-1]
	}
	if k < len(t.chunks[ci].ivs) {
		next = &t.chunks[ci].ivs[k]
	} else if ci+1 < len(t.chunks) {
		next = &t.chunks[ci+1].ivs[0]
	}
	if prev != nil && prev.End > start+OverlapEps {
		panic(fmt.Sprintf("gantt: reservation [%g,%g) overlaps [%g,%g)", start, end, prev.Start, prev.End))
	}
	if next != nil && next.Start < end-OverlapEps {
		panic(fmt.Sprintf("gantt: reservation [%g,%g) overlaps [%g,%g)", start, end, next.Start, next.End))
	}
	if (prev != nil && prev.End > end) || (next != nil && end > next.End) {
		t.unsorted = true
	}
	c := &t.chunks[ci]
	c.ivs = append(c.ivs, Interval{})
	copy(c.ivs[k+1:], c.ivs[k:])
	c.ivs[k] = Interval{Start: start, End: end}
	if len(c.ivs) > 2*chunkTarget {
		// Split in half; both halves re-summarize. The split shifts
		// every later chunk one slot right, so the meta level is
		// recomputed from the touched run onward (splits are amortized
		// over chunkTarget inserts, so this stays cheap).
		mid := len(c.ivs) / 2
		right := chunk{ivs: append([]Interval(nil), c.ivs[mid:]...)}
		c.ivs = c.ivs[:mid]
		c.recalcGap()
		right.recalcGap()
		t.chunks = append(t.chunks, chunk{})
		copy(t.chunks[ci+2:], t.chunks[ci+1:])
		t.chunks[ci+1] = right
		t.recalcMetasFrom(ci / metaFan)
	} else {
		c.recalcGap()
		// Only this chunk changed: its internal gaps, its boundary
		// intervals, and the inter-chunk gaps to its run neighbours all
		// live in meta ci/metaFan (gaps between runs are not summarized
		// — the next run's pre-gap check covers them), so one summary
		// refresh suffices.
		t.recalcMeta(ci / metaFan)
	}
	t.n++
	t.flat = nil
}

// FinishTime returns the end of the last reservation (0 when empty).
// Because the timeline is kept sorted by Start with non-overlapping
// (at most eps-abutting) intervals, the last interval is also the one
// ending latest, so this is the port's makespan.
func (t *Timeline) FinishTime() float64 {
	if t.n == 0 {
		return 0
	}
	return t.chunks[len(t.chunks)-1].last().End
}

// BusyTime returns the total reserved duration.
func (t *Timeline) BusyTime() float64 {
	var sum float64
	for i := range t.chunks {
		for _, iv := range t.chunks[i].ivs {
			sum += iv.End - iv.Start
		}
	}
	return sum
}

// OverlapEps tolerates floating-point slop when two reservations abut.
const OverlapEps = 1e-9

// slotSearch finds the first gap of length dur at or after `after`,
// merge-scanning the timeline's intervals with the (small, sorted)
// extra list. It is the chunk-indexed equivalent of the test-only
// reference earliestSlot (index_test.go): the exact in-chunk scan
// performs the same float comparisons in the same order; chunks are
// skipped only when the gap summary proves (with a conservative slack
// for summary rounding) that no fit exists inside.
func (t *Timeline) slotSearch(extra []Interval, after, dur float64) float64 {
	if dur < 0 {
		panic("gantt: negative duration")
	}
	cur := after
	j := sort.Search(len(extra), func(j int) bool { return extra[j].End > after })
	ci := sort.Search(len(t.chunks), func(i int) bool { return t.chunks[i].last().End > after })
	k := 0
	if ci < len(t.chunks) {
		c := &t.chunks[ci]
		k = sort.Search(len(c.ivs), func(i int) bool { return c.ivs[i].End > after })
	}
	for {
		var base *Interval
		if ci < len(t.chunks) {
			c := &t.chunks[ci]
			if k >= len(c.ivs) {
				ci++
				k = 0
				continue
			}
			if k == 0 {
				// Meta-skip: at a run boundary, the run summary can prove
				// that every chunk-skip below would fire for all metaFan
				// chunks at once — the run's maxGap dominates each chunk's
				// internal and inter-chunk gaps, maxAbsEnd makes the
				// relative slack at least each chunk's, and the cursor
				// lands on maxEnd exactly as the chunk-by-chunk walk
				// would, so the two walks return identical slots.
				if ci%metaFan == 0 {
					m := &t.metas[ci/metaFan]
					if (j >= len(extra) || extra[j].Start >= m.maxEnd) &&
						cur+dur > m.firstStart+OverlapEps &&
						dur > m.maxGap+2*OverlapEps+1e-12*(1+m.maxAbsEnd) {
						if m.maxEnd > cur {
							cur = m.maxEnd
						}
						ci += metaFan
						continue
					}
				}
				// Chunk-skip: at a chunk boundary, if no extra interval
				// interferes before the chunk ends, the pre-chunk gap does
				// not fit, and the summary proves no internal gap fits,
				// jump the whole chunk. The slack covers summary rounding
				// plus the ≤eps offset of cur past the chunk start, so a
				// skip never hides a fit the exact scan would find.
				last := c.last()
				if (j >= len(extra) || extra[j].Start >= last.End) &&
					cur+dur > c.first().Start+OverlapEps &&
					dur > c.maxGap+2*OverlapEps+1e-12*(1+math.Abs(last.End)) {
					if last.End > cur {
						cur = last.End
					}
					ci++
					continue
				}
			}
			base = &c.ivs[k]
		}
		// Next blocking interval: the earlier-starting of base, extra[j].
		var next *Interval
		if base != nil && (j >= len(extra) || base.Start <= extra[j].Start) {
			next = base
		} else if j < len(extra) {
			next = &extra[j]
		}
		if next == nil || cur+dur <= next.Start+OverlapEps {
			return cur
		}
		if next.End > cur {
			cur = next.End
		}
		if next == base {
			k++
		} else {
			j++
		}
	}
}

// Overlay augments a base timeline with a small set of tentative
// reservations, so a candidate task's transfers can be slot-searched
// without mutating the committed schedule. Overlays are meant to hold
// only a handful of intervals (one per input file of one task).
type Overlay struct {
	base  *Timeline
	extra []Interval // sorted by Start
	// unsorted is the tentative set's sticky EndsSorted flag.
	unsorted bool
}

// NewOverlay wraps base with an empty tentative set.
func NewOverlay(base *Timeline) *Overlay { return &Overlay{base: base} }

// Clear drops the tentative reservations, keeping the base — for
// callers that cache overlays keyed by their base timeline.
func (o *Overlay) Clear() {
	o.extra = o.extra[:0]
	o.unsorted = false
}

// EndsSorted reports whether both the base timeline and the tentative
// set have non-decreasing interval ends (see Timeline.EndsSorted; the
// two lists are searched separately, so each needs it on its own).
func (o *Overlay) EndsSorted() bool { return !o.unsorted && o.base.EndsSorted() }

// TentativeLen returns the number of tentative reservations.
func (o *Overlay) TentativeLen() int { return len(o.extra) }

// Add tentatively books [start, start+dur).
func (o *Overlay) Add(start, dur float64) {
	iv := Interval{Start: start, End: start + dur}
	i := sort.Search(len(o.extra), func(i int) bool { return o.extra[i].Start >= iv.Start })
	if (i > 0 && o.extra[i-1].End > iv.End) || (i < len(o.extra) && iv.End > o.extra[i].End) {
		o.unsorted = true
	}
	o.extra = append(o.extra, Interval{})
	copy(o.extra[i+1:], o.extra[i:])
	o.extra[i] = iv
}

// EarliestSlot returns the earliest start ≥ after at which dur fits,
// considering both committed and tentative reservations.
func (o *Overlay) EarliestSlot(after, dur float64) float64 {
	return o.base.slotSearch(o.extra, after, dur)
}

// MultiSlot finds the earliest common start ≥ after at which a
// reservation of duration dur fits simultaneously on every one of the
// given slot-searchers (a transfer occupies its source port,
// destination port and, optionally, a shared link at the same time).
func MultiSlot(after, dur float64, res ...SlotSearcher) float64 {
	t := after
	if len(res) == 0 {
		return t
	}
	// Round-robin until len(res) consecutive searchers accept t
	// unchanged. Each EarliestSlot is monotone (result ≥ after,
	// non-decreasing in after), so this reaches the same least common
	// fixpoint as re-polling every searcher per round, with roughly
	// half the queries on the hot two-resource (src port, dst port)
	// transfer case.
	stable := 0
	for i, iter := 0, 0; ; i, iter = (i+1)%len(res), iter+1 {
		s := res[i].EarliestSlot(t, dur)
		if s > t {
			t = s
			stable = 1
		} else {
			stable++
		}
		if stable >= len(res) {
			return t
		}
		if iter > 1_000_000 {
			panic("gantt: MultiSlot failed to converge")
		}
	}
}

// SlotSearcher is the common query interface of Timeline and Overlay.
type SlotSearcher interface {
	EarliestSlot(after, dur float64) float64
	EndsSorted() bool
}

// Makespan returns the max finish time across timelines.
func Makespan(ts []*Timeline) float64 {
	m := 0.0
	for _, t := range ts {
		m = math.Max(m, t.FinishTime())
	}
	return m
}

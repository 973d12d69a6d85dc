package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
)

// Metrics is a small registry of named counters, gauges, and
// histograms. All methods are safe for concurrent use and are no-ops
// on a nil receiver, so call sites never guard against an absent
// registry. Deterministic aggregation: counter and histogram merges
// are commutative, and the experiment harness merges per-cell
// registries in cell-index order, so a snapshot for a fixed seed is
// identical at any worker count.
type Metrics struct {
	mu     sync.Mutex
	counts map[string]int64
	gauges map[string]float64
	hists  map[string]*hist
}

// hist is a histogram over powers of two: bucket b counts observations
// v with 2^(b-1) < v <= 2^b (bucket 0 holds v <= 1, negatives and
// zeros included). Exponential buckets cover the nine-decade spread
// between microsecond phase latencies and multi-hour makespans.
type hist struct {
	count    int64
	sum      float64
	min, max float64
	buckets  map[int]int64
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{
		counts: map[string]int64{},
		gauges: map[string]float64{},
		hists:  map[string]*hist{},
	}
}

// Count adds delta to the named counter.
func (m *Metrics) Count(name string, delta int64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.counts[name] += delta
	m.mu.Unlock()
}

// SetGauge records the current value of the named gauge (last write
// wins).
func (m *Metrics) SetGauge(name string, v float64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.gauges[name] = v
	m.mu.Unlock()
}

// Observe adds one observation to the named histogram.
func (m *Metrics) Observe(name string, v float64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	h := m.hists[name]
	if h == nil {
		h = &hist{min: math.Inf(1), max: math.Inf(-1), buckets: map[int]int64{}}
		m.hists[name] = h
	}
	h.count++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.buckets[bucketOf(v)]++
	m.mu.Unlock()
}

// bucketOf returns the histogram bucket index for v: the smallest b
// with v <= 2^b, clamped so everything at or below 1 lands in 0.
func bucketOf(v float64) int {
	if !(v > 1) { // v <= 1, zero, negative, or NaN
		return 0
	}
	frac, exp := math.Frexp(v) // v = frac * 2^exp, frac in [0.5, 1)
	if frac == 0.5 {
		return exp - 1 // v is exactly 2^(exp-1)
	}
	return exp
}

// Merge folds all of o's series into m. Counter and histogram merges
// are commutative; gauge merges are last-write-wins, which is
// deterministic when the caller merges in a fixed order (the
// experiment harness merges per-cell registries in index order).
//
// o is snapshotted under its own lock before m's lock is taken, so the
// two Metrics.mu instances are never held together: concurrent
// a.Merge(b) and b.Merge(a) cannot deadlock on acquisition order
// (schedlint's lockorder check rejects the held-both form).
func (m *Metrics) Merge(o *Metrics) {
	if m == nil || o == nil {
		return
	}
	o.mu.Lock()
	counts := make(map[string]int64, len(o.counts))
	for k, v := range o.counts {
		counts[k] = v
	}
	gauges := make(map[string]float64, len(o.gauges))
	for k, v := range o.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*hist, len(o.hists))
	for k, oh := range o.hists {
		c := &hist{count: oh.count, sum: oh.sum, min: oh.min, max: oh.max,
			buckets: make(map[int]int64, len(oh.buckets))}
		for b, n := range oh.buckets {
			c.buckets[b] = n
		}
		hists[k] = c
	}
	o.mu.Unlock()

	m.mu.Lock()
	defer m.mu.Unlock()
	for k, v := range counts {
		m.counts[k] += v
	}
	for k, v := range gauges {
		m.gauges[k] = v
	}
	for k, oh := range hists {
		h := m.hists[k]
		if h == nil {
			h = &hist{min: math.Inf(1), max: math.Inf(-1), buckets: map[int]int64{}}
			m.hists[k] = h
		}
		h.count += oh.count
		h.sum += oh.sum
		if oh.min < h.min {
			h.min = oh.min
		}
		if oh.max > h.max {
			h.max = oh.max
		}
		for b, c := range oh.buckets {
			h.buckets[b] += c
		}
	}
}

// quantile estimates the q-th quantile (q in (0,1]) by walking the
// buckets in ascending order and interpolating linearly inside the
// bucket where the cumulative count crosses q·count. Bucket bounds are
// clamped to the observed min/max, so single-valued histograms report
// the exact value at every quantile.
func (h *hist) quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	idx := make([]int, 0, len(h.buckets))
	for b := range h.buckets {
		idx = append(idx, b)
	}
	sort.Ints(idx)
	rank := q * float64(h.count)
	var cum int64
	for _, b := range idx {
		c := h.buckets[b]
		if float64(cum+c) >= rank {
			// Bucket b spans (2^(b-1), 2^b]; bucket 0 absorbs everything
			// at or below 1.
			lo, hi := math.Inf(-1), 1.0
			if b > 0 {
				lo, hi = math.Ldexp(1, b-1), math.Ldexp(1, b)
			}
			lo, hi = math.Max(lo, h.min), math.Min(hi, h.max)
			if hi <= lo {
				return lo
			}
			frac := (rank - float64(cum)) / float64(c)
			return lo + frac*(hi-lo)
		}
		cum += c
	}
	return h.max
}

// HistSnapshot is the exported view of one histogram.
type HistSnapshot struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Mean  float64 `json:"mean"`
	// P50/P95/P99 are quantile estimates interpolated within the
	// power-of-two buckets; exact when a bucket holds one distinct
	// value, otherwise correct to within the bucket's width.
	P50 float64 `json:"p50"`
	P95 float64 `json:"p95"`
	P99 float64 `json:"p99"`
	// Buckets maps the bucket's upper bound 2^b, formatted as the
	// integer exponent b, to its observation count.
	Buckets map[string]int64 `json:"buckets"`
}

// Snapshot is a point-in-time copy of the whole registry.
type Snapshot struct {
	Counters   map[string]int64        `json:"counters"`
	Gauges     map[string]float64      `json:"gauges"`
	Histograms map[string]HistSnapshot `json:"histograms"`
}

// Snapshot copies the registry's current state. Safe on a nil
// receiver, which yields an empty snapshot.
func (m *Metrics) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistSnapshot{},
	}
	if m == nil {
		return s
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for k, v := range m.counts {
		s.Counters[k] = v
	}
	for k, v := range m.gauges {
		s.Gauges[k] = v
	}
	for k, h := range m.hists {
		hs := HistSnapshot{Count: h.count, Sum: h.sum, Min: h.min, Max: h.max,
			Buckets: make(map[string]int64, len(h.buckets))}
		if h.count > 0 {
			hs.Mean = h.sum / float64(h.count)
			hs.P50 = h.quantile(0.50)
			hs.P95 = h.quantile(0.95)
			hs.P99 = h.quantile(0.99)
		}
		for b, c := range h.buckets {
			hs.Buckets[fmt.Sprintf("%d", b)] = c
		}
		s.Histograms[k] = hs
	}
	return s
}

// WriteJSON writes the snapshot as indented JSON. encoding/json
// serializes map keys in sorted order, so the bytes are deterministic.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(s); err != nil {
		return fmt.Errorf("obs: write metrics json: %w", err)
	}
	return nil
}

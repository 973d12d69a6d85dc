package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"sync"
	"testing"
)

func TestMetricsNilSafe(t *testing.T) {
	var m *Metrics
	m.Count("a", 1)
	m.SetGauge("b", 2)
	m.Observe("c", 3)
	m.Merge(NewMetrics())
	s := m.Snapshot()
	if len(s.Counters)+len(s.Gauges)+len(s.Histograms) != 0 {
		t.Fatal("nil Metrics snapshot not empty")
	}
}

func TestMetricsBasic(t *testing.T) {
	m := NewMetrics()
	m.Count("evictions", 2)
	m.Count("evictions", 3)
	m.SetGauge("makespan_s", 123.5)
	m.Observe("plan_ms", 0.5)
	m.Observe("plan_ms", 3)
	m.Observe("plan_ms", 4)
	s := m.Snapshot()
	if s.Counters["evictions"] != 5 {
		t.Fatalf("counter = %d, want 5", s.Counters["evictions"])
	}
	if s.Gauges["makespan_s"] != 123.5 {
		t.Fatalf("gauge = %g", s.Gauges["makespan_s"])
	}
	h := s.Histograms["plan_ms"]
	if h.Count != 3 || h.Sum != 7.5 || h.Min != 0.5 || h.Max != 4 {
		t.Fatalf("hist = %+v", h)
	}
	if math.Abs(h.Mean-2.5) > 1e-12 {
		t.Fatalf("mean = %g, want 2.5", h.Mean)
	}
}

func TestBucketOf(t *testing.T) {
	cases := []struct {
		v    float64
		want int
	}{
		{-1, 0}, {0, 0}, {0.5, 0}, {1, 0},
		{1.5, 1}, {2, 1},
		{3, 2}, {4, 2},
		{5, 3}, {8, 3},
		{1000, 10}, {1024, 10}, {1025, 11},
	}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.want {
			t.Errorf("bucketOf(%g) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestMergeCommutative(t *testing.T) {
	mk := func() (*Metrics, *Metrics) {
		a, b := NewMetrics(), NewMetrics()
		a.Count("n", 1)
		a.Observe("h", 2)
		a.Observe("h", 100)
		b.Count("n", 10)
		b.Count("only_b", 7)
		b.Observe("h", 0.25)
		return a, b
	}
	a1, b1 := mk()
	a1.Merge(b1)
	a2, b2 := mk()
	b2.Merge(a2)
	s1, s2 := a1.Snapshot(), b2.Snapshot()
	j1, _ := json.Marshal(s1)
	j2, _ := json.Marshal(s2)
	if !bytes.Equal(j1, j2) {
		t.Fatalf("merge not commutative:\n%s\nvs\n%s", j1, j2)
	}
}

func TestMergeConcurrent(t *testing.T) {
	root := NewMetrics()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := NewMetrics()
			for i := 0; i < 100; i++ {
				local.Count("ops", 1)
				local.Observe("lat", float64(i))
			}
			root.Merge(local)
		}()
	}
	wg.Wait()
	s := root.Snapshot()
	if s.Counters["ops"] != 800 {
		t.Fatalf("ops = %d, want 800", s.Counters["ops"])
	}
	if s.Histograms["lat"].Count != 800 {
		t.Fatalf("lat count = %d, want 800", s.Histograms["lat"].Count)
	}
}

func TestSnapshotWriters(t *testing.T) {
	m := NewMetrics()
	m.Count("remote_bytes", 1<<20)
	m.SetGauge("makespan_s", 42)
	m.Observe("plan_ms", 1.5)
	s := m.Snapshot()

	var js bytes.Buffer
	if err := s.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(js.Bytes()) {
		t.Fatal("metrics JSON invalid")
	}
	var js2 bytes.Buffer
	if err := s.WriteJSON(&js2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(js.Bytes(), js2.Bytes()) {
		t.Fatal("metrics JSON not deterministic")
	}
}

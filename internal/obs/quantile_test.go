package obs

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// TestQuantileSingleValue: a histogram holding one distinct value must
// report that value exactly at every quantile (the bucket bounds clamp
// to min == max).
func TestQuantileSingleValue(t *testing.T) {
	m := NewMetrics()
	for i := 0; i < 10; i++ {
		m.Observe("lat", 5)
	}
	h := m.Snapshot().Histograms["lat"]
	for _, q := range []float64{h.P50, h.P95, h.P99} {
		if q != 5 {
			t.Fatalf("quantiles = %g/%g/%g, want all 5", h.P50, h.P95, h.P99)
		}
	}
}

// TestQuantileUniform: over the uniform integers 1..100 the power-of-2
// bucket interpolation happens to be exact, which pins the estimator's
// arithmetic tightly.
func TestQuantileUniform(t *testing.T) {
	m := NewMetrics()
	for i := 1; i <= 100; i++ {
		m.Observe("lat", float64(i))
	}
	h := m.Snapshot().Histograms["lat"]
	for _, c := range []struct {
		name      string
		got, want float64
	}{{"p50", h.P50, 50}, {"p95", h.P95, 95}, {"p99", h.P99, 99}} {
		if math.Abs(c.got-c.want) > 1e-9 {
			t.Errorf("%s = %g, want %g", c.name, c.got, c.want)
		}
	}
}

// TestQuantileBounds: estimates never leave [min, max] and are
// monotone in q, whatever the distribution.
func TestQuantileBounds(t *testing.T) {
	m := NewMetrics()
	for _, v := range []float64{0.001, 0.5, 3, 3, 3, 700, 1e6} {
		m.Observe("lat", v)
	}
	h := m.Snapshot().Histograms["lat"]
	if h.P50 < h.Min || h.P99 > h.Max {
		t.Fatalf("quantiles escape [min, max]: p50=%g p99=%g min=%g max=%g", h.P50, h.P99, h.Min, h.Max)
	}
	if !(h.P50 <= h.P95 && h.P95 <= h.P99) {
		t.Fatalf("quantiles not monotone: %g, %g, %g", h.P50, h.P95, h.P99)
	}
}

// TestSnapshotJSONCarriesQuantiles pins the JSON field names the
// downstream dashboards key on.
func TestSnapshotJSONCarriesQuantiles(t *testing.T) {
	m := NewMetrics()
	for i := 1; i <= 100; i++ {
		m.Observe("lat", float64(i))
	}
	var js bytes.Buffer
	if err := m.Snapshot().WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"p50": 50`, `"p95": 95`, `"p99": 99`} {
		if !strings.Contains(js.String(), want) {
			t.Fatalf("json missing %q:\n%s", want, js.String())
		}
	}
}

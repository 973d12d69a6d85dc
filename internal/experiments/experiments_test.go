package experiments

import (
	"reflect"
	"testing"
)

// quick returns the smallest-possible options for smoke tests.
func quick() Options {
	return Options{Quick: true, Seed: 3, SkipIP: true}
}

func TestFig5aQuick(t *testing.T) {
	tables, err := Fig5a(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 || len(tables[0].Rows) != 2 {
		t.Fatalf("unexpected table shape: %+v", tables)
	}
	// Replication must not be slower than no-replication on the
	// shared-link platform.
	for _, row := range tables[0].Rows {
		with, without := row.Values[0], row.Values[1]
		if with > without*1.02 {
			t.Errorf("%s: replication (%v) slower than none (%v)", row.Label, with, without)
		}
	}
}

func TestFig5bQuick(t *testing.T) {
	tables, err := Fig5b(quick())
	if err != nil {
		t.Fatal(err)
	}
	rows := tables[0].Rows
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Batch time must grow with batch size for every scheduler.
	for c := range tables[0].Columns {
		for i := 1; i < len(rows); i++ {
			if rows[i].Values[c] <= rows[i-1].Values[c] {
				t.Errorf("column %s not increasing at row %s", tables[0].Columns[c], rows[i].Label)
			}
		}
	}
}

func TestFig3QuickShape(t *testing.T) {
	tables, err := Fig3(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 {
		t.Fatalf("panels = %d", len(tables))
	}
	for _, tb := range tables {
		if len(tb.Rows) != 3 {
			t.Fatalf("%s rows = %d", tb.Title, len(tb.Rows))
		}
		// Low overlap must not be cheaper than high overlap (more data
		// to move) for the BiPartition column.
		if tb.Rows[2].Values[0] < tb.Rows[0].Values[0] {
			t.Errorf("%s: low overlap cheaper than high", tb.Title)
		}
	}
}

func TestChaosQuick(t *testing.T) {
	tables, err := Chaos(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 3 {
		t.Fatalf("panels = %d, want 3 (makespan, degradation, recovery)", len(tables))
	}
	mk, deg, rec := tables[0], tables[1], tables[2]
	// 6 scenario×spec rows; degradation carries a wasted-compute row
	// per faulty scenario; recovery covers harsh and harsh+spec.
	if len(mk.Rows) != 6 || len(deg.Rows) != 8 || len(rec.Rows) != 2*len(mk.Columns) {
		t.Fatalf("table shapes: mk=%d deg=%d rec=%d", len(mk.Rows), len(deg.Rows), len(rec.Rows))
	}
	// Faults cost time: each scheduler's harsh makespan must exceed its
	// fault-free control, and some recovery activity must be recorded.
	// The none+spec control must reproduce the fault-free row exactly —
	// without an injector the speculation policy is inert.
	for c := range mk.Columns {
		if mk.Rows[4].Values[c] <= mk.Rows[0].Values[c] {
			t.Errorf("%s: harsh makespan %g not above fault-free %g",
				mk.Columns[c], mk.Rows[4].Values[c], mk.Rows[0].Values[c])
		}
		if mk.Rows[1].Values[c] != mk.Rows[0].Values[c] {
			t.Errorf("%s: none+spec makespan %g differs from fault-free %g",
				mk.Columns[c], mk.Rows[1].Values[c], mk.Rows[0].Values[c])
		}
	}
	var activity float64
	for _, v := range rec.Rows[0].Values {
		activity += v
	}
	if activity == 0 {
		t.Error("harsh scenario recorded no recovery activity at all")
	}
}

// TestChaosWorkerInvariance is the acceptance property at the matrix
// level: identical fault seeds must yield byte-identical tables at any
// worker count.
func TestChaosWorkerInvariance(t *testing.T) {
	o1 := quick()
	o1.Workers = 1
	seq, err := Chaos(o1)
	if err != nil {
		t.Fatal(err)
	}
	o4 := quick()
	o4.Workers = 4
	par, err := Chaos(o4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("chaos matrix differs across worker counts:\n  1: %+v\n  4: %+v", seq, par)
	}
}

func TestFig6QuickIncludesOverheadPanel(t *testing.T) {
	tables, err := Fig6(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 {
		t.Fatalf("panels = %d", len(tables))
	}
	if len(tables[1].Rows) != 5 {
		t.Fatalf("node sweep rows = %d", len(tables[1].Rows))
	}
}

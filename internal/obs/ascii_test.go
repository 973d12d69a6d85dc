package obs

import (
	"strings"
	"testing"
)

// ganttRows renders tr at width and returns the output split into
// lines (footer included as the last line).
func ganttRows(t *testing.T, tr *Trace, width int) []string {
	t.Helper()
	var sb strings.Builder
	if err := tr.WriteASCIIGantt(&sb, width); err != nil {
		t.Fatalf("WriteASCIIGantt: %v", err)
	}
	return strings.Split(strings.TrimRight(sb.String(), "\n"), "\n")
}

// rowFor returns the bar contents (between the '|' delimiters) of the
// track whose label contains name.
func rowFor(t *testing.T, lines []string, name string) string {
	t.Helper()
	for _, ln := range lines {
		if strings.Contains(ln, name) && strings.Contains(ln, "|") {
			open := strings.Index(ln, "|")
			close := strings.LastIndex(ln, "|")
			if close > open {
				return ln[open+1 : close]
			}
		}
	}
	t.Fatalf("no gantt row for track %q in:\n%s", name, strings.Join(lines, "\n"))
	return ""
}

func TestGanttEmptySchedule(t *testing.T) {
	var sb strings.Builder
	if err := New().WriteASCIIGantt(&sb, 80); err != nil {
		t.Fatalf("WriteASCIIGantt: %v", err)
	}
	if got := sb.String(); got != "(no simulated-time events recorded)\n" {
		t.Fatalf("empty trace rendered %q", got)
	}
}

// TestGanttRealTimeEventsInvisible: wall-clock spans and sim instants
// live on other clocks/phases and must not produce rows.
func TestGanttRealTimeEventsInvisible(t *testing.T) {
	tr := New()
	tr.Span(tr.AllocTrack(DomainReal, "planner"), "plan", "solve")()
	tr.SimInstant(tr.AllocTrack(DomainSim, "compute 0"), "fault", "node crash", 3)
	var sb strings.Builder
	if err := tr.WriteASCIIGantt(&sb, 80); err != nil {
		t.Fatalf("WriteASCIIGantt: %v", err)
	}
	if got := sb.String(); got != "(no simulated-time events recorded)\n" {
		t.Fatalf("non-span events rendered %q", got)
	}
}

func TestGanttSingleTask(t *testing.T) {
	tr := New()
	tid := tr.AllocTrack(DomainSim, "compute 0")
	tr.SimSpan(tid, "exec", "task 0", 0, 2)

	lines := ganttRows(t, tr, 40)
	if len(lines) != 2 {
		t.Fatalf("want 1 row + footer, got %d lines:\n%s", len(lines), strings.Join(lines, "\n"))
	}
	row := rowFor(t, lines, "compute 0")
	if len(row) != 40 {
		t.Fatalf("row width = %d, want 40", len(row))
	}
	// The single span covers the whole horizon: every cell is '#'.
	if row != strings.Repeat("#", 40) {
		t.Fatalf("single full-horizon task rendered %q", row)
	}
	footer := lines[len(lines)-1]
	if !strings.Contains(footer, "0s") || !strings.Contains(footer, "2.0s") {
		t.Fatalf("footer missing time axis: %q", footer)
	}
	if !strings.Contains(footer, "# exec") || !strings.Contains(footer, "x fault") {
		t.Fatalf("footer missing glyph legend: %q", footer)
	}
}

// TestGanttFaultReservations mirrors the simulator's fault-path
// emissions (core.TraceJournal): a partially completed transfer
// preempted by a link failure and an exec reservation burned by a
// node crash both carry cat "fault" and must render with their own
// glyph, distinct from healthy work.
func TestGanttFaultReservations(t *testing.T) {
	tr := New()
	c0 := tr.AllocTrack(DomainSim, "compute 0")
	c1 := tr.AllocTrack(DomainSim, "compute 1")
	// Node 0: a failed staging attempt burns 0..2, the retry succeeds
	// 2..4, then the task runs 4..8.
	tr.SimSpan(c0, "fault", "failed stage file 7", 0, 2)
	tr.SimSpan(c0, "remote", "stage file 7 (retry)", 2, 4)
	tr.SimSpan(c0, "exec", "task 3", 4, 8)
	// Node 1: a crash kills the task half-way through its slot.
	tr.SimSpan(c1, "fault", "killed task 5", 0, 4)

	lines := ganttRows(t, tr, 40)
	r0 := rowFor(t, lines, "compute 0")
	if want := strings.Repeat("x", 10) + strings.Repeat("=", 10) + strings.Repeat("#", 20); r0 != want {
		t.Fatalf("compute 0 row = %q, want %q", r0, want)
	}
	r1 := rowFor(t, lines, "compute 1")
	if want := strings.Repeat("x", 20) + strings.Repeat(".", 20); r1 != want {
		t.Fatalf("compute 1 row = %q, want %q", r1, want)
	}
}

// TestGanttInstantShortReservation: a reservation too short for one
// column at the chosen scale still occupies a single cell, so
// preempted slivers never vanish from the picture.
func TestGanttInstantShortReservation(t *testing.T) {
	tr := New()
	tid := tr.AllocTrack(DomainSim, "compute 0")
	tr.SimSpan(tid, "exec", "long task", 0, 100)
	// 0.1s of burned time at t=50 is well under one column at width 40.
	tr.SimSpan(tid, "fault", "failed stage", 50, 50.1)

	row := rowFor(t, ganttRows(t, tr, 40), "compute 0")
	if n := strings.Count(row, "x"); n != 1 {
		t.Fatalf("sub-cell fault span drew %d cells, want exactly 1 (row %q)", n, row)
	}
	if strings.Contains(row, ".") {
		t.Fatalf("fault cell should overlay the exec span, not blank it: %q", row)
	}
}

func TestGanttUnknownCategoryAndLabelFallback(t *testing.T) {
	tr := New()
	// NameTrack never called for tid 9: label falls back to "track 9".
	tr.SimSpan(9, "mystery", "??", 0, 1)
	lines := ganttRows(t, tr, 40)
	row := rowFor(t, lines, "track 9")
	if row != strings.Repeat("*", 40) {
		t.Fatalf("unknown category rendered %q, want '*' fill", row)
	}
}

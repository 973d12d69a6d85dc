package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// ganttGlyphs maps event categories to the fill character used in the
// ASCII Gantt; unknown categories render as '*'.
var ganttGlyphs = map[string]byte{
	"exec":    '#', // task execution
	"remote":  '=', // remote (wide-area) transfer
	"replica": '~', // intra-cluster replica transfer
	"fault":   'x', // preempted/burned reservation (failed transfer, killed task)
	"batch":   'B',
}

// WriteASCIIGantt renders the simulated-time (DomainSim) events as one
// text row per track, scaled to width columns, for terminal
// inspection without leaving the shell. Real-time events are ignored:
// they live on a different clock and belong in the Chrome trace.
func (t *Trace) WriteASCIIGantt(w io.Writer, width int) error {
	if width < 20 {
		width = 20
	}
	t.mu.Lock()
	events := make([]event, 0, len(t.events))
	for _, ev := range t.events {
		if ev.domain == DomainSim && ev.phase == 'X' {
			events = append(events, ev)
		}
	}
	names := make(map[int]string, len(t.names[DomainSim]))
	for k, v := range t.names[DomainSim] {
		names[k] = v
	}
	t.mu.Unlock()

	if len(events) == 0 {
		_, err := fmt.Fprintln(w, "(no simulated-time events recorded)")
		return err
	}

	var horizon float64
	tracks := map[int][]event{}
	for _, ev := range events {
		tracks[ev.tid] = append(tracks[ev.tid], ev)
		if end := ev.ts + ev.dur; end > horizon {
			horizon = end
		}
	}
	if horizon <= 0 {
		horizon = 1
	}

	tids := make([]int, 0, len(tracks))
	for tid := range tracks {
		tids = append(tids, tid)
	}
	sort.Ints(tids)

	labelW := 0
	for _, tid := range tids {
		if n := len(trackLabel(names, tid)); n > labelW {
			labelW = n
		}
	}

	scale := float64(width) / horizon
	for _, tid := range tids {
		row := make([]byte, width)
		for i := range row {
			row[i] = '.'
		}
		evs := tracks[tid]
		sort.SliceStable(evs, func(i, j int) bool { return evs[i].ts < evs[j].ts })
		for _, ev := range evs {
			glyph, ok := ganttGlyphs[ev.cat]
			if !ok {
				glyph = '*'
			}
			from := int(ev.ts * scale)
			to := int((ev.ts + ev.dur) * scale)
			if to <= from {
				to = from + 1 // even instant-short reservations get one cell
			}
			for i := from; i < to && i < width; i++ {
				row[i] = glyph
			}
		}
		if _, err := fmt.Fprintf(w, "%-*s |%s|\n", labelW, trackLabel(names, tid), row); err != nil {
			return err
		}
	}
	endLabel := fmt.Sprintf("%.1fs", horizon/1e6)
	pad := width - len(endLabel) - 2
	if pad < 0 {
		pad = 0
	}
	_, err := fmt.Fprintf(w, "%-*s  0s%s%s  (# exec, = remote, ~ replica, x fault)\n",
		labelW, "", strings.Repeat(" ", pad), endLabel)
	return err
}

func trackLabel(names map[int]string, tid int) string {
	if n, ok := names[tid]; ok {
		return n
	}
	return fmt.Sprintf("track %d", tid)
}

package core

import (
	"strconv"

	"repro/internal/obs"
	"repro/internal/obs/journal"
	"repro/internal/platform"
)

// TraceJournal projects journal events onto tr's simulated-time
// (DomainSim) tracks: one row per storage port, compute port and, on
// platforms with one, the shared link, plus the sub-batch row. It is
// the only producer of DomainSim events, so the trace, the ASCII Gantt
// and /gantt show exactly what the journal records. A plan event opens
// a sub-batch span that the next plan or run_end event closes; a slice
// ending on an open plan draws that sub-batch on the next call, which
// is how RunWith feeds it one sub-batch at a time.
func TraceJournal(tr *obs.Trace, p *platform.Platform, evs []journal.Event) {
	tr.NameTrack(obs.DomainSim, obs.TrackBatch, "sub-batches")
	for s := range p.Storage {
		tr.NameTrack(obs.DomainSim, obs.StorageTrack(s), "storage "+strconv.Itoa(s))
	}
	for n := range p.Compute {
		tr.NameTrack(obs.DomainSim, obs.ComputeTrack(n), "compute "+strconv.Itoa(n))
	}
	if p.SharedLinkBW > 0 {
		tr.NameTrack(obs.DomainSim, obs.TrackLink, "wide-area link")
	}
	var open *journal.Event // the current sub-batch's plan event
	remote, replica := 0, 0
	for i := range evs {
		ev := &evs[i]
		switch ev.Kind {
		case journal.KindPlan, journal.KindRunEnd:
			if open != nil {
				tr.SimSpan(obs.TrackBatch, "batch", "sub-batch "+strconv.Itoa(open.Round), open.T, ev.T,
					obs.A("tasks", open.Plan.Planned), obs.A("makespan_s", ev.T-open.T),
					obs.A("remote_transfers", remote), obs.A("replica_transfers", replica))
			}
			open, remote, replica = nil, 0, 0
			if ev.Kind == journal.KindPlan {
				open = ev
			}
		case journal.KindStage:
			s := ev.Stage
			args := []obs.Arg{obs.A("file", s.File), obs.A("bytes", s.Bytes), obs.A("dst", s.Dest)}
			name, tids := "stage file ", []int{obs.StorageTrack(s.Home), obs.ComputeTrack(s.Dest)}
			if s.Kind == "replica" {
				replica++
				args = append(args, obs.A("src", s.Src))
				name, tids = "replicate file ", []int{obs.ComputeTrack(s.Src), obs.ComputeTrack(s.Dest)}
			} else if remote++; p.SharedLinkBW > 0 {
				tids = append(tids, obs.TrackLink)
			}
			for _, tid := range tids {
				tr.SimSpan(tid, s.Kind, name+strconv.Itoa(s.File), s.Start, s.End, args...)
			}
		case journal.KindExec:
			x := ev.Exec
			tr.SimSpan(obs.ComputeTrack(x.Node), "exec", "task "+strconv.Itoa(x.Task), x.Start, x.End,
				obs.A("task", x.Task), obs.A("node", x.Node), obs.A("inputs", len(x.Inputs)))
		case journal.KindSpecLaunch:
			tr.SimInstant(obs.ComputeTrack(ev.Spec.Node), "spec", "fork twin of task "+strconv.Itoa(ev.Spec.Task), ev.T,
				obs.A("task", ev.Spec.Task), obs.A("twin", ev.Spec.Twin))
		case journal.KindFault:
			traceFault(tr, ev.T, ev.Fault)
		}
	}
}

// traceFault draws one fault event: burned windows as "fault" spans on
// the node's port, interruptions as instants.
func traceFault(tr *obs.Trace, t float64, f *journal.Fault) {
	task, node := strconv.Itoa(f.Task), obs.ComputeTrack(f.Node)
	switch f.Class {
	case journal.FaultTransferFail, journal.FaultBurn:
		name, args := f.Class+" task "+task, []obs.Arg{obs.A("task", f.Task), obs.A("node", f.Node), obs.A("detail", f.Detail)}
		if f.File >= 0 {
			name = f.Class + " file " + strconv.Itoa(f.File)
			args = append(args, obs.A("file", f.File), obs.A("attempt", f.Attempt))
		}
		tr.SimSpan(node, "fault", name, f.Start, t, args...)
	case journal.FaultRequeue:
		tr.SimInstant(node, "fault", "requeue task "+task, t, obs.A("task", f.Task), obs.A("reason", f.Detail))
	case journal.FaultCrash:
		tr.SimInstant(node, "fault", "node "+strconv.Itoa(f.Node)+" crash", t, obs.A("node", f.Node))
	case journal.FaultAbandon:
		tr.SimInstant(obs.TrackBatch, "fault", "abandon task "+task, t, obs.A("task", f.Task))
	}
}

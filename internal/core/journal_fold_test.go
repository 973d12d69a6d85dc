package core_test

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/obs/journal"
)

// journalFold is what a run's journal says happened: counts and bytes
// folded from its stage, exec, fault and spec events.
type journalFold struct {
	TasksRun                          int
	RemoteTransfers, ReplicaTransfers int
	RemoteBytes, ReplicaBytes         int64
	ReplicaRecoveries                 int
	TransferFailures, Crashes         int
	RequeuedTasks, Stragglers         int
	DegradedTasks                     int
	SpecLaunches, SpecWins            int
	SpecSaved, SpecCancels            int
	// Wasted is the port time of every burn and transfer_fail window.
	Wasted float64
}

func foldJournal(evs []journal.Event) journalFold {
	var f journalFold
	for _, ev := range evs {
		switch ev.Kind {
		case journal.KindStage:
			s := ev.Stage
			if s.Kind == "replica" {
				f.ReplicaTransfers++
				f.ReplicaBytes += s.Bytes
				if s.Attempt > 1 {
					f.ReplicaRecoveries++
				}
			} else {
				f.RemoteTransfers++
				f.RemoteBytes += s.Bytes
			}
		case journal.KindExec:
			f.TasksRun++
		case journal.KindFault:
			switch ev.Fault.Class {
			case journal.FaultTransferFail:
				f.TransferFailures++
				f.Wasted += ev.T - ev.Fault.Start
			case journal.FaultBurn:
				f.Wasted += ev.T - ev.Fault.Start
			case journal.FaultCrash:
				f.Crashes++
			case journal.FaultRequeue:
				f.RequeuedTasks++
			case journal.FaultStraggler:
				f.Stragglers++
			case journal.FaultAbandon:
				f.DegradedTasks++
			}
		case journal.KindSpecLaunch:
			f.SpecLaunches++
		case journal.KindSpecWin:
			if ev.Spec.Winner == "twin" {
				f.SpecWins++
				if ev.Spec.PrimaryEnd == -1 {
					f.SpecSaved++
				}
			}
		case journal.KindSpecCancel:
			f.SpecCancels++
		}
	}
	return f
}

// TestJournalFoldMatchesResult folds the journal of every run of the
// exactness matrix and compares it with the run's Result: each
// transfer, task, fault and speculation count and byte total the
// executor tallies beside the journal must be exactly what the
// journal records, and the burned and failed-transfer windows must sum
// to the wasted seconds. The journal is the one record of the
// committed schedule; this pins the tally that stays beside it.
func TestJournalFoldMatchesResult(t *testing.T) {
	var runs, faulty int
	exactnessRuns(t, func(name string, p *core.Problem, s core.Scheduler, opt core.RunOptions) {
		if opt.Obs.Journal == nil {
			opt.Obs.Journal = journal.New()
		}
		res, err := core.RunWith(p, s, opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := foldJournal(opt.Obs.Journal.Events())
		want := journalFold{
			TasksRun:        res.TasksRun,
			RemoteTransfers: res.RemoteTransfers, ReplicaTransfers: res.ReplicaTransfers,
			RemoteBytes: res.RemoteBytes, ReplicaBytes: res.ReplicaBytes,
			ReplicaRecoveries: res.ReplicaRecoveries,
			TransferFailures:  res.TransferFailures, Crashes: res.Crashes,
			RequeuedTasks: res.RequeuedTasks, Stragglers: res.Stragglers,
			DegradedTasks: res.DegradedTasks,
			SpecLaunches:  res.SpecLaunches, SpecWins: res.SpecWins,
			SpecSaved: res.SpecSaved, SpecCancels: res.SpecCancels,
		}
		wasted := res.WastedSeconds + res.SpecWastedSeconds
		if math.Abs(got.Wasted-wasted) > 1e-9*wasted {
			t.Errorf("%s: journal burns %g s, Result wastes %g s", name, got.Wasted, wasted)
		}
		got.Wasted = 0
		if got != want {
			t.Errorf("%s:\njournal %+v\n result %+v", name, got, want)
		}
		runs++
		if res.TransferFailures > 0 {
			faulty++
		}
	})
	if runs != 48 || faulty == 0 {
		t.Fatalf("matrix not exercised: %d runs, %d with transfer failures", runs, faulty)
	}
}

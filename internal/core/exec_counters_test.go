package core_test

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
)

// execCounters is one scheduler arm's ExecStats summed over its runs
// of the exactness matrix: every count and byte total as is, every
// float as its bits.
type execCounters struct {
	TasksRun                          int
	RemoteTransfers, ReplicaTransfers int
	RemoteBytes, ReplicaBytes         int64

	TransferFailures, TransferRetries, ReplicaRecoveries int
	Crashes, Stragglers, RequeuedTasks                   int
	SpecLaunches, SpecWins, SpecCancels, SpecSaved       int

	Probes, ProbeReuses, BoundSkips, ECTReevals int

	MakespanBits, StorageBusyBits, ComputeBusyBits uint64
	WastedBits, SpecWastedBits                     uint64
}

// pin converts summed stats into the pinned form.
func pin(s *core.ExecStats) execCounters {
	return execCounters{
		TasksRun:        s.TasksRun,
		RemoteTransfers: s.RemoteTransfers, ReplicaTransfers: s.ReplicaTransfers,
		RemoteBytes: s.RemoteBytes, ReplicaBytes: s.ReplicaBytes,
		TransferFailures: s.TransferFailures, TransferRetries: s.TransferRetries, ReplicaRecoveries: s.ReplicaRecoveries,
		Crashes: s.Crashes, Stragglers: s.Stragglers, RequeuedTasks: s.RequeuedTasks,
		SpecLaunches: s.SpecLaunches, SpecWins: s.SpecWins, SpecCancels: s.SpecCancels, SpecSaved: s.SpecSaved,
		Probes: s.Probes, ProbeReuses: s.ProbeReuses, BoundSkips: s.BoundSkips, ECTReevals: s.ECTReevals,
		MakespanBits:    math.Float64bits(s.Makespan),
		StorageBusyBits: math.Float64bits(s.StorageBusy),
		ComputeBusyBits: math.Float64bits(s.ComputeBusy),
		WastedBits:      math.Float64bits(s.WastedSeconds),
		SpecWastedBits:  math.Float64bits(s.SpecWastedSeconds),
	}
}

// TestExecCountersGolden pins, per scheduler arm of the exactness
// matrix, every ExecStats field summed over the arm's runs: the
// transfer, task, fault and speculation counts and bytes, the search
// counters (how many source searches the §6 executor ran, reused and
// ruled out, how many ECT-heap entries it re-evaluated) and the bits
// of the summed makespan, busy and wasted seconds.
// TestProbeReuseExact proves every reuse is exact; this pins that a
// change to the executor's bookkeeping (the memo, the tentative
// copies, the overlays, the validator's record) reuses exactly as
// often and schedules and accounts exactly the same.
func TestExecCountersGolden(t *testing.T) {
	// pin reads every ExecStats field; a new field must be pinned too.
	if n := reflect.TypeOf(core.ExecStats{}).NumField(); n != reflect.TypeOf(execCounters{}).NumField() {
		t.Fatalf("ExecStats has %d fields, execCounters pins %d", n, reflect.TypeOf(execCounters{}).NumField())
	}
	want := map[string]execCounters{
		"MinMin": {TasksRun: 480, RemoteTransfers: 2217, ReplicaTransfers: 637,
			RemoteBytes: 15464398848, ReplicaBytes: 4055891968,
			TransferFailures: 195, TransferRetries: 181, ReplicaRecoveries: 94,
			Crashes: 4, Stragglers: 18, RequeuedTasks: 16,
			SpecLaunches: 4, SpecWins: 2, SpecCancels: 4, SpecSaved: 2,
			Probes: 29550, ProbeReuses: 17843, BoundSkips: 31339, ECTReevals: 1226,
			MakespanBits: 0x4061537754c52c78, StorageBusyBits: 0x405200d2f4c8a037, ComputeBusyBits: 0x4076f6e047a08225,
			WastedBits: 0x4001dfa24316e8a2, SpecWastedBits: 0x400692c2305958d7},
		"JDP": {TasksRun: 480, RemoteTransfers: 1060, ReplicaTransfers: 142,
			RemoteBytes: 9667870720, ReplicaBytes: 1161822208,
			TransferFailures: 79, TransferRetries: 60, ReplicaRecoveries: 6,
			Crashes: 4, Stragglers: 21, RequeuedTasks: 19,
			SpecLaunches: 6, SpecWins: 5, SpecCancels: 6, SpecSaved: 2,
			Probes: 12067, ProbeReuses: 14472, BoundSkips: 13733, ECTReevals: 1872,
			MakespanBits: 0x4063b8d2e414ad85, StorageBusyBits: 0x40468dbc30fb4e81, ComputeBusyBits: 0x40758b6541daffd9,
			WastedBits: 0x3ff352862706d4a4, SpecWastedBits: 0x401a922bb85f8dee},
		"BiPartition": {TasksRun: 480, RemoteTransfers: 1247, ReplicaTransfers: 132,
			RemoteBytes: 10452205568, ReplicaBytes: 1560281088,
			TransferFailures: 94, TransferRetries: 87, ReplicaRecoveries: 12,
			Crashes: 4, Stragglers: 17, RequeuedTasks: 9,
			SpecLaunches: 4, SpecWins: 4, SpecCancels: 4, SpecSaved: 2,
			Probes: 20661, ProbeReuses: 24363, BoundSkips: 31567, ECTReevals: 2255,
			MakespanBits: 0x4062213077f11fc5, StorageBusyBits: 0x40487454e59a2b4a, ComputeBusyBits: 0x407546e6aa51ad47,
			WastedBits: 0x3ffcea97b703c798, SpecWastedBits: 0x4015e72c4c7a9417},
		"IP": {TasksRun: 96, RemoteTransfers: 516, ReplicaTransfers: 23,
			RemoteBytes: 3800039424, ReplicaBytes: 411041792,
			TransferFailures: 32, TransferRetries: 31, ReplicaRecoveries: 2,
			Crashes: 1, Stragglers: 5, RequeuedTasks: 1,
			Probes: 36, ProbeReuses: 8, BoundSkips: 0, ECTReevals: 84,
			MakespanBits: 0x404826313db5f44f, StorageBusyBits: 0x4031e8132c0cbeb6, ComputeBusyBits: 0x40539e0aa49efa54,
			WastedBits: 0x3fe4f4b656612306},
	}
	got := map[string]*core.ExecStats{}
	exactnessRuns(t, func(name string, p *core.Problem, s core.Scheduler, opt core.RunOptions) {
		res, err := core.RunWith(p, s, opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		arm := name[:strings.IndexByte(name, '/')]
		if got[arm] == nil {
			got[arm] = &core.ExecStats{}
		}
		got[arm].Add(&res.ExecStats)
	})
	for arm, w := range want {
		if g := pin(got[arm]); g != w {
			t.Errorf("%s:\n got %#v\nwant %#v", arm, g, w)
		}
	}
}

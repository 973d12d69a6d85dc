package core

import (
	"fmt"
	"math"
	"strconv"

	"repro/internal/batch"
	"repro/internal/obs/journal"
)

// survivingReplica picks the retry source for staging f onto dst
// after a failed attempt: among nodes already holding the file it
// returns the one whose copy would complete earliest without the
// source crashing first, and that copy's slot start. ok is false (and
// src -1) when no replica survives: the retry then falls back to the
// storage cluster.
func (v *schedEnv) survivingReplica(f batch.FileID, dst int, after float64) (src int, start float64, ok bool) {
	e := v.e
	src = -1
	if e.st.P.DisableReplication {
		return src, 0, false
	}
	best := math.Inf(1)
	it := v.holderWalk(f, dst)
	for j, at, more := it.next(); more; j, at, more = it.next() {
		jdur := e.transferDur(f, j, dst)
		jstart := v.slot(math.Max(after, at), jdur, e.ports(f, j, dst))
		end := jstart + jdur
		if end > e.crashRel[j] {
			continue // source dies before the copy completes
		}
		if end < best {
			best, src, start = end, j, jstart
		}
	}
	return src, start, src >= 0
}

// commitStaging is the one commit path of a staging transfer. Its
// first attempt moves f from src (-1 = remote) onto dst at start, the
// slot the caller's search found free on every port. Each attempt
// draws crash and link failures against its stable identity; a failed
// attempt burns a preempted reservation [start, failAt) on the ports
// it occupied, backs off, and retries — preferring a surviving replica
// source (the paper's replication doubling as the recovery path)
// before the storage cluster. Without an injector the first attempt
// always lands. It returns the slot of the attempt that landed the
// file. Exhausted retries or a destination crash abort the task commit
// with a faultAbort.
func (v *schedEnv) commitStaging(f batch.FileID, src, dst int, start float64) (slotStart, slotEnd float64, err error) {
	e := v.e
	inj := e.inj
	after := 0.0
	for attempt := 1; attempt <= inj.MaxTransferRetries(); attempt++ {
		curSrc, found := src, true
		if attempt > 1 {
			// Alternatives captured for the first attempt's source choice
			// no longer describe this retry's decision.
			v.alts = nil
			curSrc, start, found = v.survivingReplica(f, dst, after)
		}
		dur := e.transferDur(f, curSrc, dst)
		ps := e.ports(f, curSrc, dst)
		if !found {
			start = v.slot(after, dur, ps)
		}
		end := start + dur

		// Earliest failure among destination crash, source crash, and
		// the link draw decides the attempt's fate.
		failAt := math.Inf(1)
		crashedNode := -1
		if c := e.crashRel[dst]; c < end {
			failAt, crashedNode = c, dst
		}
		if curSrc >= 0 {
			if c := e.crashRel[curSrc]; c < end && c < failAt {
				failAt, crashedNode = c, curSrc
			}
		}
		if frac, bad := inj.TransferFail(int(f), dst, curSrc, e.round, attempt); bad {
			if at := start + frac*dur; at < failAt {
				failAt, crashedNode = at, -1
			}
		}
		if math.IsInf(failAt, 1) {
			if inj != nil {
				e.curAttempt = attempt
			}
			at, err := v.commitTransfer(f, curSrc, dst, start, dur)
			e.curAttempt = 0
			if err != nil {
				return 0, 0, err
			}
			if attempt > 1 && curSrc >= 0 {
				e.stats.ReplicaRecoveries++
			}
			return start, at, nil
		}

		// The attempt dies at failAt: burn the started portion as a
		// preempted reservation so the recovery schedule stays honest
		// about port occupancy. No stage event is journaled — the file
		// never arrived.
		if failAt < start {
			failAt = start
		}
		e.stats.TransferFailures++
		e.stats.WastedSeconds += failAt - start
		if failAt > start {
			v.book(ps, start, failAt-start)
		}
		if j := e.st.J; j.Enabled() {
			detail := "link failure mid-transfer"
			switch crashedNode {
			case dst:
				detail = "destination node crashed mid-transfer"
			case curSrc:
				if crashedNode >= 0 {
					detail = "source replica node crashed mid-transfer"
				}
			}
			srcDesc := "storage home " + strconv.Itoa(e.st.P.Batch.Files[f].Home)
			if curSrc >= 0 {
				srcDesc = "replica on node " + strconv.Itoa(curSrc)
			}
			j.Emit(journal.Event{T: e.base() + failAt, Kind: journal.KindFault, Round: e.round,
				Fault: &journal.Fault{Class: journal.FaultTransferFail, Node: dst, Task: e.curTask,
					File: int(f), Attempt: attempt, Start: e.base() + start, Detail: detail + " (from " + srcDesc + ")"}})
		}
		if crashedNode >= 0 {
			e.crashSeen[crashedNode] = true
		}
		if crashedNode == dst {
			return 0, 0, &faultAbort{node: dst, at: failAt, crash: true,
				reason: fmt.Sprintf("node %d crashed while staging file %d", dst, f)}
		}
		e.stats.TransferRetries++
		after = failAt + inj.Backoff(attempt+1)
	}
	return 0, 0, &faultAbort{node: dst, at: after,
		reason: fmt.Sprintf("staging file %d onto node %d: all %d transfer attempts failed", f, dst, inj.MaxTransferRetries())}
}

// base returns the absolute sim time at the start of this sub-batch.
func (e *executor) base() float64 { return e.st.Clock }

// burnKilled is the burn detail of an execution a node crash killed.
const burnKilled = "execution killed by node crash"

// burn books the killed or cancelled window [start, stop) of one
// attempt (sub-batch-relative times) and journals it as a burn fault
// on node: task's execution on node's port when op is nil, else the
// twin transfer op on every port it held. It returns the seconds
// burned, 0 when the attempt had not started by stop.
func (e *executor) burn(node, task int, op *specOp, start, stop float64, detail string) float64 {
	if stop <= start {
		return 0
	}
	file := -1
	if op == nil {
		e.computeTL[node].Reserve(start, stop-start)
	} else {
		file = int(op.file)
		ps := e.ports(op.file, op.src, op.dst)
		for _, id := range ps.id[:ps.n] {
			e.tls[id].Reserve(start, stop-start)
		}
	}
	if j := e.st.J; j.Enabled() {
		b := e.base()
		j.Emit(journal.Event{T: b + stop, Kind: journal.KindFault, Round: e.round,
			Fault: &journal.Fault{Class: journal.FaultBurn, Node: node, Task: task, File: file, Start: b + start, Detail: detail}})
	}
	return stop - start
}

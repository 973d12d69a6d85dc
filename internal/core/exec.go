package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"

	"repro/internal/batch"
	"repro/internal/faults"
	"repro/internal/gantt"
	"repro/internal/obs/journal"
	"repro/internal/spec"
)

// ExecStats reports what the runtime stage did for one sub-batch.
type ExecStats struct {
	// Makespan is the sub-batch execution time: the latest finish time
	// over all compute nodes, measured from the sub-batch start.
	Makespan float64
	// TasksRun counts tasks executed.
	TasksRun int
	// RemoteTransfers / RemoteBytes count storage→compute stagings.
	RemoteTransfers int
	RemoteBytes     int64
	// ReplicaTransfers / ReplicaBytes count compute→compute copies.
	ReplicaTransfers int
	ReplicaBytes     int64
	// StorageBusy / ComputeBusy are total reserved seconds, summed over
	// nodes, for utilization reporting.
	StorageBusy float64
	ComputeBusy float64

	// Fault/recovery accounting, all zero on fault-free runs.
	TransferFailures  int     // transfer attempts that died partway
	TransferRetries   int     // retry attempts scheduled after a failure
	ReplicaRecoveries int     // successful retries served from a surviving replica
	Crashes           int     // node crashes observed this sub-batch
	Stragglers        int     // execution attempts slowed by a straggling node
	RequeuedTasks     int     // tasks interrupted and handed back for a later sub-batch
	WastedSeconds     float64 // port seconds burnt by failed or interrupted attempts

	// Speculative-execution accounting, all zero unless a speculation
	// policy forked twins this sub-batch.
	SpecLaunches      int     // speculative twin attempts forked
	SpecWins          int     // tasks completed by their twin (primary lost)
	SpecCancels       int     // losing attempts cancelled (one per launch)
	SpecSaved         int     // twin wins whose primary was crash-killed
	SpecWastedSeconds float64 // port seconds burnt by losing speculative attempts

	// Source-search accounting for the §6 staging loop. Probes counts
	// the bestSource searches run; ProbeReuses counts the ones skipped
	// because an earlier search's answer was still exact (a greedy
	// winner staged from the slot its probe found, or a commit-epoch
	// memo hit); BoundSkips counts the re-pricings a lower bound ruled
	// out (a missing file that provably could not win a greedy round).
	// Probes + ProbeReuses + BoundSkips is the search count of the
	// literal re-price-everything loop. ECTReevals counts stale
	// ECT-heap entries re-evaluated.
	Probes      int
	ProbeReuses int
	BoundSkips  int
	ECTReevals  int
}

// Add folds o into s. Every field is a plain sum, so aggregation is
// commutative and associative: merging per-sub-batch or per-cell stats
// in any order yields identical totals (Makespan sums because
// sub-batches run back to back).
func (s *ExecStats) Add(o *ExecStats) {
	s.Makespan += o.Makespan
	s.TasksRun += o.TasksRun
	s.RemoteTransfers += o.RemoteTransfers
	s.RemoteBytes += o.RemoteBytes
	s.ReplicaTransfers += o.ReplicaTransfers
	s.ReplicaBytes += o.ReplicaBytes
	s.StorageBusy += o.StorageBusy
	s.ComputeBusy += o.ComputeBusy
	s.TransferFailures += o.TransferFailures
	s.TransferRetries += o.TransferRetries
	s.ReplicaRecoveries += o.ReplicaRecoveries
	s.Crashes += o.Crashes
	s.Stragglers += o.Stragglers
	s.RequeuedTasks += o.RequeuedTasks
	s.WastedSeconds += o.WastedSeconds
	s.SpecLaunches += o.SpecLaunches
	s.SpecWins += o.SpecWins
	s.SpecCancels += o.SpecCancels
	s.SpecSaved += o.SpecSaved
	s.SpecWastedSeconds += o.SpecWastedSeconds
	s.Probes += o.Probes
	s.ProbeReuses += o.ProbeReuses
	s.BoundSkips += o.BoundSkips
	s.ECTReevals += o.ECTReevals
}

// Execute runs one sub-batch plan through the §6 runtime stage:
// tasks within each node group are ordered by earliest completion
// time; each missing input file is staged from the source giving the
// minimum transfer completion time (or from the source the pinned IP
// plan dictates), reserving slots on the source port, destination port
// and — on platforms with one — the shared inter-cluster link.
// Transfers and execution on a compute node serialize on its single
// port (the paper's single-port model; no staging overlaps execution
// on the same node). Execute mutates st: staged files are recorded in
// the disk cache, task completion is marked, and the state clock
// advances by the sub-batch makespan.
func Execute(st *State, plan *SubPlan) (*ExecStats, error) {
	e, err := newExecutor(st, plan, false, nil, 0, nil)
	if err != nil {
		return nil, err
	}
	return e.run()
}

// faultAbort signals that injected faults prevented one task commit
// (node crash or exhausted transfer retries). The run loop re-queues
// the task instead of failing the run.
type faultAbort struct {
	node   int
	at     float64 // sub-batch-relative time of the terminal failure
	crash  bool    // caused by a node crash (vs a retry budget)
	reason string
}

func (f *faultAbort) Error() string { return "core: " + f.reason }

type stageKey struct {
	file batch.FileID
	dest int
}

type executor struct {
	st   *State
	plan *SubPlan

	storageTL []*gantt.Timeline
	computeTL []*gantt.Timeline
	linkTL    *gantt.Timeline

	// holders[f] lists, in ascending node order, the compute nodes
	// holding f within this sub-batch, each with the committed
	// availability time of its copy, so source searches visit only
	// actual copies instead of every node. Copies are only ever added
	// within a sub-batch (see committedAt and setAvail).
	holders [][]fileCopy

	// tentEnv is the reusable tentative scheduling environment for ECT
	// probes: its overlays, scratch tables and visiting set are cleared
	// between uses instead of reallocated (the probe loop runs millions
	// of times at scale).
	tentEnv *schedEnv
	// candBuf backs stageInputs' missing-file worklist across calls.
	candBuf []stageCand
	// memo caches first-round source probes of tentative evaluations.
	// Such a probe runs on a freshly cleared overlay, so its answer
	// depends only on committed state; an entry is valid while its
	// epoch equals e.epoch, which every commit and pre-stage op bumps.
	// Only a node running two or more of the plan's tasks
	// (nodeTasks[n] > 1) can serve one task's probe to another, so
	// only those nodes fill it.
	memo      map[stageKey]memoEntry
	epoch     int
	nodeTasks []int

	planned map[stageKey]Staging

	stats ExecStats
	// trace, when non-nil, accumulates the committed schedule for
	// post-hoc validation.
	trace *gantt.Schedule

	// Fault injection (all nil/zero on the fault-free fast path).
	inj   *faults.Injector
	round int
	// crashRel[n] is node n's pending crash time relative to this
	// sub-batch's start (+Inf when it never crashes). Fixed for the
	// whole sub-batch: crashes are consumed only at the boundary.
	crashRel []float64
	// crashSeen[n] records that node n's pending crash interrupted
	// work, so the boundary must consume it even if the final makespan
	// ends before the crash time (the zero-progress edge case).
	crashSeen []bool
	// requeued collects tasks whose commit a fault aborted; they stay
	// pending and the caller re-plans them in a later sub-batch.
	requeued []batch.TaskID

	// Journal context for committed transfers: the task whose inputs
	// are being staged (-1 during pre-staging) and, under fault
	// injection, the attempt number of the transfer being committed.
	curTask    int
	curAttempt int
	// specCause, when non-empty, overrides the journaled cause of
	// committed transfers (the twin-commit path sets it to "spec").
	specCause string

	// pol is the speculative-execution policy; nil or inactive (and
	// any run without an injector) takes the exact pre-speculation
	// code paths.
	pol *spec.Policy
	// drainLeft is the number of tasks still waiting behind the one
	// being committed (the ECT heap's residue). The watchdog uses it
	// to tell the drain phase — fewer waiting tasks than compute
	// ports, so ports are about to idle — from the saturated middle of
	// the sub-batch, where a duplicate could only displace useful
	// work.
	drainLeft int
}

// newExecutor prepares one sub-batch for the runtime stage. traced
// records the committed schedule in e.trace for gantt validation. A
// non-nil inj injects transfer failures, crashes and stragglers (round,
// the sub-batch ordinal, is part of every failure's hashed identity);
// tasks a fault aborted are collected in e.requeued for the caller to
// re-plan. pol forks speculative twins of straggling executions. Nil
// inj and pol take the exact fault-free code paths.
func newExecutor(st *State, plan *SubPlan, traced bool, inj *faults.Injector, round int, pol *spec.Policy) (*executor, error) {
	if len(plan.Tasks) == 0 {
		return nil, fmt.Errorf("core: empty sub-batch plan")
	}
	p := st.P
	e := &executor{st: st, plan: plan, round: round, curTask: -1, pol: pol,
		drainLeft: len(plan.Tasks), nodeTasks: make([]int, p.Platform.NumCompute())}
	if inj != nil {
		e.inj = inj
		e.crashRel = make([]float64, p.Platform.NumCompute())
		e.crashSeen = make([]bool, p.Platform.NumCompute())
		for n := range e.crashRel {
			e.crashRel[n] = inj.CrashTime(n) - st.Clock
		}
	}
	for range p.Platform.Storage {
		e.storageTL = append(e.storageTL, gantt.NewTimeline())
	}
	for range p.Platform.Compute {
		e.computeTL = append(e.computeTL, gantt.NewTimeline())
	}
	if p.Platform.SharedLinkBW > 0 {
		e.linkTL = gantt.NewTimeline()
	}
	nf := p.Batch.NumFiles()
	if traced {
		e.trace = &gantt.Schedule{
			Storage:  e.storageTL,
			Compute:  e.computeTL,
			Link:     e.linkTL,
			DiskCap:  make([]int64, p.Platform.NumCompute()),
			InitUsed: make([]int64, p.Platform.NumCompute()),
			InitHeld: make([][]int, p.Platform.NumCompute()),
		}
		for n := range p.Platform.Compute {
			e.trace.DiskCap[n] = p.Platform.Compute[n].DiskSpace
			e.trace.InitUsed[n] = st.Used(n)
		}
	}
	// Every copy the sub-batch starts with is available at time 0. The
	// per-file lists share one backing array; each is capped at its own
	// length, so a list that grows reallocates alone.
	total := 0
	for _, cs := range st.copies {
		total += len(cs)
	}
	backing := make([]fileCopy, total)
	e.holders = make([][]fileCopy, nf)
	for f, cs := range st.copies {
		hs := backing[:len(cs):len(cs)]
		backing = backing[len(cs):]
		for i, c := range cs {
			hs[i].node = c.node
			if e.trace != nil {
				e.trace.InitHeld[c.node] = append(e.trace.InitHeld[c.node], f) // f ascends: stays sorted
			}
		}
		e.holders[f] = hs
	}
	if plan.Pinned {
		if err := checkStagings(p, "staging", plan.Staging); err != nil {
			return nil, err
		}
		e.planned = make(map[stageKey]Staging, len(plan.Staging))
		for _, s := range plan.Staging {
			e.planned[stageKey{s.File, s.Dest}] = s
		}
	}
	if err := checkStagings(p, "pre-staging", plan.PreStage); err != nil {
		return nil, err
	}
	listed := make([]bool, p.Batch.NumTasks())
	for _, t := range plan.Tasks {
		if t < 0 || int(t) >= p.Batch.NumTasks() {
			return nil, fmt.Errorf("core: plan contains unknown task %d", t)
		}
		if listed[t] {
			return nil, fmt.Errorf("core: plan lists task %d twice", t)
		}
		listed[t] = true
		n, ok := plan.Node[t]
		if !ok {
			return nil, fmt.Errorf("core: plan contains task %d with no node assignment", t)
		}
		if n < 0 || n >= p.Platform.NumCompute() {
			return nil, fmt.Errorf("core: task %d assigned to unknown node %d", t, n)
		}
		if st.Done[t] {
			return nil, fmt.Errorf("core: task %d already executed", t)
		}
		e.nodeTasks[n]++
	}
	return e, nil
}

// checkStagings rejects a plan's staging list (named list in the
// error) when an entry names an unknown file, destination, kind or
// replica source: Scheduler is a public interface, so plans come from
// outside this package.
func checkStagings(p *Problem, list string, ss []Staging) error {
	nc := p.Platform.NumCompute()
	for _, s := range ss {
		switch {
		case s.File < 0 || int(s.File) >= p.Batch.NumFiles():
			return fmt.Errorf("core: %s entry names unknown file %d", list, s.File)
		case s.Dest < 0 || s.Dest >= nc:
			return fmt.Errorf("core: %s entry stages file %d onto unknown node %d", list, s.File, s.Dest)
		case s.Kind != Remote && s.Kind != Replica:
			return fmt.Errorf("core: %s entry for file %d has unknown kind %d", list, s.File, s.Kind)
		case s.Kind == Replica && (s.Src < 0 || s.Src >= nc):
			return fmt.Errorf("core: %s entry copies file %d from unknown node %d", list, s.File, s.Src)
		}
	}
	return nil
}

// schedEnv abstracts committed vs tentative scheduling so the same
// staging logic serves both ECT estimation and the final commit.
type schedEnv struct {
	e      *executor
	commit bool
	// overlays (tentative mode only), keyed by underlying timeline.
	overlays map[*gantt.Timeline]*gantt.Overlay
	// dirty lists the overlays that received tentative reservations, so
	// a reused env can clear exactly those instead of rebuilding the
	// map.
	dirty []*gantt.Overlay
	// scratch availability additions (tentative mode only). Their
	// per-file ascending-node inverse (the tentative counterpart of
	// executor.holders) is scratchPool[scratchIdx[f]]: a reset clears
	// only the small index map, and the pool's lists are truncated and
	// reused instead of reallocated.
	scratch     map[stageKey]float64
	scratchIdx  map[batch.FileID]int32
	scratchPool [][]int32
	visiting    map[stageKey]bool
	// alts holds the source alternatives bestSource evaluated for the
	// transfer about to commit (journaled commit mode only); the
	// commit consumes and clears it.
	alts []journal.SourceAlt
	// floor is the earliest time any slot search may start (tentative
	// twin planning only: a twin's transfers cannot begin before the
	// watchdog forked it). Zero for every other env.
	floor float64
	// record, when non-nil, captures each tentatively scheduled
	// transfer so the twin-commit path can replay the exact slots.
	record *[]specOp
	// dynamicOnly forces dynamic (min-TCT) source choice even under a
	// pinned plan: twin staging is not part of the IP plan, and
	// single-hop dynamic transfers keep the recorded ops replayable.
	dynamicOnly bool
	// unsorted records that a reservation this env made left a
	// timeline (or overlay) with unsorted interval ends, which voids
	// stageInputs' lower bounds; stageInputs clears it.
	unsorted bool
}

func newSchedEnv(e *executor, commit bool) *schedEnv {
	v := &schedEnv{e: e, commit: commit, visiting: make(map[stageKey]bool)}
	if !commit {
		v.overlays = make(map[*gantt.Timeline]*gantt.Overlay)
		v.scratch = make(map[stageKey]float64)
		v.scratchIdx = make(map[batch.FileID]int32)
	}
	return v
}

// tentativeEnv returns the executor's cached probe environment,
// cleared for a fresh tentative scheduling pass. Only the overlays
// that were actually dirtied and the scratch entries that were added
// get reset, so back-to-back probes cost no allocation.
func (e *executor) tentativeEnv() *schedEnv {
	v := e.tentEnv
	if v == nil {
		v = newSchedEnv(e, false)
		e.tentEnv = v
		return v
	}
	for _, ov := range v.dirty {
		ov.Clear()
	}
	v.dirty = v.dirty[:0]
	clear(v.scratch)
	clear(v.scratchIdx)
	clear(v.visiting)
	return v
}

// committedAt returns the committed availability time of file f on
// compute node n within this sub-batch, and whether n holds f at all.
func (e *executor) committedAt(n int, f batch.FileID) (float64, bool) {
	if i, ok := findCopy(e.holders[f], n); ok {
		return e.holders[f][i].at, true
	}
	return 0, false
}

func (v *schedEnv) availOn(n int, f batch.FileID) (float64, bool) {
	if a, ok := v.e.committedAt(n, f); ok {
		return a, true
	}
	if !v.commit {
		if a, ok := v.scratch[stageKey{f, n}]; ok {
			return a, true
		}
	}
	return 0, false
}

func (v *schedEnv) setAvail(n int, f batch.FileID, at float64) {
	if v.commit {
		e := v.e
		if i, ok := findCopy(e.holders[f], n); ok {
			e.holders[f][i].at = at
		} else {
			e.holders[f] = slices.Insert(e.holders[f], i, fileCopy{int32(n), at})
		}
		return
	}
	key := stageKey{f, n}
	if _, ok := v.scratch[key]; !ok {
		pi, ok := v.scratchIdx[f]
		if !ok {
			pi = int32(len(v.scratchIdx))
			v.scratchIdx[f] = pi
			if int(pi) == len(v.scratchPool) {
				v.scratchPool = append(v.scratchPool, nil)
			}
			v.scratchPool[pi] = v.scratchPool[pi][:0]
		}
		lst := v.scratchPool[pi]
		i := sort.Search(len(lst), func(i int) bool { return lst[i] >= int32(n) })
		lst = append(lst, 0)
		copy(lst[i+1:], lst[i:])
		lst[i] = int32(n)
		v.scratchPool[pi] = lst
	}
	v.scratch[key] = at
}

// scratchHolders returns, in ascending order, the nodes this env has
// tentatively scheduled to receive f (none in commit mode).
func (v *schedEnv) scratchHolders(f batch.FileID) []int32 {
	if pi, ok := v.scratchIdx[f]; ok {
		return v.scratchPool[pi]
	}
	return nil
}

func (v *schedEnv) searcher(tl *gantt.Timeline) gantt.SlotSearcher {
	if v.commit {
		return tl
	}
	ov, ok := v.overlays[tl]
	if !ok {
		ov = gantt.NewOverlay(tl)
		v.overlays[tl] = ov
	}
	return ov
}

func (v *schedEnv) reserve(tl *gantt.Timeline, start, dur float64) {
	if v.commit {
		tl.Reserve(start, dur)
		v.unsorted = v.unsorted || !tl.EndsSorted()
		return
	}
	ov, ok := v.overlays[tl]
	if !ok {
		ov = gantt.NewOverlay(tl)
		v.overlays[tl] = ov
	}
	if ov.TentativeLen() == 0 {
		v.dirty = append(v.dirty, ov)
	}
	ov.Add(start, dur)
	v.unsorted = v.unsorted || !ov.EndsSorted()
}

// ensureFile makes file f available on compute node dst, scheduling
// whatever transfer chain is needed, and returns its availability
// time. In pinned mode the plan's source choice is followed (with
// fallback to dynamic choice on cycles or missing entries); otherwise
// the source with minimum transfer completion time wins, per §6.
func (v *schedEnv) ensureFile(f batch.FileID, dst int) (float64, error) {
	if at, ok := v.availOn(dst, f); ok {
		return at, nil
	}
	key := stageKey{f, dst}
	if v.visiting[key] {
		// Replication cycle in a pinned plan; break it with a remote
		// transfer.
		return v.transfer(f, -1, dst, 0)
	}
	v.visiting[key] = true
	defer delete(v.visiting, key)

	if v.e.plan.Pinned && !v.dynamicOnly {
		if op, ok := v.e.planned[key]; ok {
			if op.Kind == Remote || v.e.st.P.DisableReplication {
				return v.transfer(f, -1, dst, 0)
			}
			srcAt, err := v.ensureFile(f, op.Src)
			if err != nil {
				return 0, err
			}
			if at, ok := v.availOn(dst, f); ok {
				return at, nil // breaking a replication cycle staged f here
			}
			return v.transfer(f, op.Src, dst, srcAt)
		}
		// No planned movement for a file a task needs here: the plan is
		// incomplete (should not happen for IP-feasible plans); fall
		// through to dynamic choice.
	}

	// Dynamic choice: min transfer completion time over the remote
	// source and every node already holding (or scheduled to receive)
	// the file.
	v.e.stats.Probes++
	_, at, err := v.stageFrom(f, dst, v.bestSource(f, dst))
	return at, err
}

// srcChoice is the answer of one source search: the source (-1 = the
// file's storage home), the earliest common slot start on every port
// the transfer occupies, and the transfer completion time. lb is at
// most the TCT of every source, in this view and in every later view
// of the same stageInputs pass (-Inf when a searched timeline has
// unsorted ends); dmin is the shortest transfer duration over the
// sources.
type srcChoice struct {
	src        int
	start, tct float64
	lb, dmin   float64
}

// memoEntry is one commit-epoch memo slot (see executor.memo).
type memoEntry struct {
	epoch int
	c     srcChoice
}

// bestSource evaluates every possible source of file f for node dst
// against the current Gantt view and returns the one with minimum
// transfer completion time (src = -1 means remote from the file's
// storage home), without reserving anything.
//
// The bounds hold because, within one stageInputs pass, only dst
// receives files: every source keeps its availability time and
// transfer duration, and reservations only ever push slots later
// (while the searched interval ends stay sorted, see
// gantt.Timeline.EndsSorted).
func (v *schedEnv) bestSource(f batch.FileID, dst int) srcChoice {
	e := v.e
	pf, size := e.st.P.Platform, float64(e.st.P.Batch.FileSize(f))
	src := -1
	dur := e.transferDur(f, -1, dst)
	rem := e.ports(f, -1, dst)
	res := v.searchers(&rem)
	sorted := true
	for _, r := range res[:rem.n] {
		sorted = sorted && r.EndsSorted()
	}
	dstRes := res[1] // hoisted: every port set lists dst second
	start := v.multiSlot(0, dur, res[:rem.n]...)
	tct := start + dur
	lb, dmin := tct, dur
	record := v.commit && e.st.J.Enabled()
	if record {
		v.alts = append(v.alts[:0], journal.SourceAlt{Src: -1, TCT: tct})
	}
	if e.st.P.DisableReplication {
		if !sorted {
			lb = math.Inf(-1)
		}
		return srcChoice{src, start, tct, lb, dmin}
	}
	// Visit only the nodes that hold (or are tentatively scheduled to
	// receive) the file.
	it := v.holderWalk(f, dst)
	for j, at, ok := it.next(); ok; j, at, ok = it.next() {
		rdur := size / pf.ReplicaBW(j, dst) // transferDur(f, j, dst), with f's size hoisted
		if rdur < dmin {
			dmin = rdur
		}
		if !record && at+rdur >= tct-1e-12 {
			// rstart ≥ at, so rtct ≥ at+rdur: this source cannot win the
			// strict rtct < tct-1e-12 test below. Skip its slot search —
			// unless the journal needs the exact TCT for the alts list.
			if at+rdur < lb {
				lb = at + rdur
			}
			continue
		}
		rp := e.ports(f, j, dst) // j, then dst (whose searcher is hoisted)
		srcRes := v.searcher(rp.tl[0])
		sorted = sorted && srcRes.EndsSorted()
		rstart := v.multiSlot(at, rdur, srcRes, dstRes)
		rtct := rstart + rdur
		if record {
			v.alts = append(v.alts, journal.SourceAlt{Src: j, TCT: rtct})
		}
		if rtct < lb {
			lb = rtct
		}
		if rtct < tct-1e-12 {
			src, start, tct = j, rstart, rtct
		}
	}
	if !sorted {
		lb = math.Inf(-1)
	}
	return srcChoice{src, start, tct, lb, dmin}
}

// probe prices staging f onto dst against the current view. With memo
// set (only on a tentative env whose view is still the committed
// state, see executor.memo) it answers from, or fills, the executor's
// commit-epoch memo.
func (v *schedEnv) probe(f batch.FileID, dst int, memo bool) srcChoice {
	e := v.e
	key := stageKey{f, dst}
	if memo {
		if m, ok := e.memo[key]; ok && m.epoch == e.epoch {
			e.stats.ProbeReuses++
			if probeReuseCheck != nil {
				v.checkReuse(f, dst, m.c, true, nil)
			}
			return m.c
		}
	}
	e.stats.Probes++
	c := v.bestSource(f, dst)
	if memo {
		if e.memo == nil {
			e.memo = make(map[stageKey]memoEntry)
		}
		e.memo[key] = memoEntry{e.epoch, c}
	}
	return c
}

// probeReuseCheck, when non-nil, receives every reused source choice
// together with a fresh bestSource over the same view (and, in
// journaled commit mode, both alternatives lists). Only tests set it,
// to prove that reuse never changes a bit.
var probeReuseCheck func(f batch.FileID, dst int, memoHit bool, reused, fresh srcChoice, reusedAlts, freshAlts []journal.SourceAlt)

// checkReuse recomputes the search a reuse skipped and hands both
// answers to probeReuseCheck.
func (v *schedEnv) checkReuse(f batch.FileID, dst int, reused srcChoice, memoHit bool, alts []journal.SourceAlt) {
	fresh := v.bestSource(f, dst)
	var freshAlts []journal.SourceAlt
	if v.commit && v.e.st.J.Enabled() {
		freshAlts = v.alts
	}
	probeReuseCheck(f, dst, memoHit, reused, fresh, alts, freshAlts)
}

// stagingCheck, when non-nil, receives every non-pinned greedy round
// of stageInputs: the chosen position and source choice, and the
// position and choice a full re-price of every remaining file picks.
// Only tests set it, to prove that the lower bounds never change the
// pick.
var stagingCheck func(dst int, pos int, got srcChoice, refPos int, ref srcChoice)

// stageCand is one missing file of a stageInputs pass. While fresh, c
// prices the current view and key is c.tct; once the view changes, key
// is a lower bound on the file's TCT.
type stageCand struct {
	f     batch.FileID
	c     srcChoice
	key   float64
	fresh bool
	// alts is the fresh probe's alternatives list (journaled commits).
	alts []journal.SourceAlt
}

// price probes cand against the current view.
func (v *schedEnv) price(cand *stageCand, dst int, memo, record bool) {
	cand.c = v.probe(cand.f, dst, memo)
	cand.key, cand.fresh = cand.c.tct, true
	if record {
		cand.alts = append(cand.alts[:0], v.alts...)
	}
}

// stageInputs makes every file in files available on node dst and
// returns the latest arrival time. §6 estimates the TCT of every
// missing file against the current Gantt view, stages the minimum,
// re-prices the rest, and repeats; since transfers to one node
// serialize on its port, taking shorter-TCT transfers first is what
// the greedy order achieves. The winner is staged from the source and
// slot its probe found: nothing is reserved between the probe and the
// staging, so searching again would return the same bits. With memo
// set, the first round's probes (the only ones priced before this
// pass reserves anything) go through the commit-epoch memo.
//
// Later rounds re-price lazily. A file's key is its exact TCT while
// fresh and otherwise a lower bound: the lb of its last probe, raised
// by the port bound. Once the winner occupies [ws, we) on dst, a file
// whose bound exceeds ws+OverlapEps could not fit before that slot
// (it would have fitted in the previous view too), so every source of
// it starts at or after we and its TCT is at least we+dmin. Each round
// re-prices the minimum (key, position) until that minimum is fresh;
// it is then the minimum of the exact TCTs with the literal loop's
// lowest-position tie-break. A reservation that leaves interval ends
// unsorted voids the bounds for the rest of the pass (every key drops
// to -Inf, which re-prices every file).
//
// In pinned (IP-plan) mode the source is dictated and may involve
// realizing a replication chain, which probing cannot price without
// side effects, so files are taken in ascending-size order there (the
// same order min-TCT produces on an otherwise idle port) and staged
// through ensureFile.
func (v *schedEnv) stageInputs(files []batch.FileID, dst int, memo bool) (float64, error) {
	e := v.e
	cands := e.candBuf[:0]
	arrival := 0.0
	for _, f := range files {
		if at, ok := v.availOn(dst, f); ok {
			if at > arrival {
				arrival = at
			}
			continue
		}
		cands = append(cands, stageCand{f: f})
	}
	pinned := e.plan.Pinned && !v.dynamicOnly
	record := v.commit && e.st.J.Enabled()
	v.unsorted = false
	for round := 0; len(cands) > 0; round++ {
		best := 0
		if pinned {
			for i := 1; i < len(cands); i++ {
				if e.st.P.Batch.FileSize(cands[i].f) < e.st.P.Batch.FileSize(cands[best].f) {
					best = i
				}
			}
		} else {
			if round == 0 {
				for i := range cands {
					v.price(&cands[i], dst, memo, record)
				}
			}
			for {
				best = 0
				for i := 1; i < len(cands); i++ {
					if cands[i].key < cands[best].key {
						best = i
					}
				}
				if cands[best].fresh {
					break
				}
				v.price(&cands[best], dst, false, record)
			}
			for i := range cands {
				if !cands[i].fresh {
					e.stats.BoundSkips++
				}
			}
			if stagingCheck != nil {
				v.checkStaging(cands, dst, best)
			}
		}
		cand := cands[best]
		cands = append(cands[:best], cands[best+1:]...)
		var ws, we float64
		var err error
		if pinned {
			we, err = v.ensureFile(cand.f, dst)
		} else {
			e.stats.ProbeReuses++
			if probeReuseCheck != nil {
				v.checkReuse(cand.f, dst, cand.c, false, cand.alts)
			}
			if record {
				// commitTransfer hands the list to the journal.
				v.alts = cand.alts
			}
			ws, we, err = v.stageFrom(cand.f, dst, cand.c)
		}
		if err != nil {
			e.candBuf = cands[:0]
			return 0, err
		}
		if we > arrival {
			arrival = we
		}
		if pinned {
			continue
		}
		// Later rounds see this pass's reservations, so every key turns
		// into a lower bound.
		memo = false
		guard := ws + gantt.OverlapEps
		for i := range cands {
			c := &cands[i]
			if c.fresh {
				c.key, c.fresh = c.c.lb, false
			}
			if v.unsorted {
				c.key = math.Inf(-1)
			} else if c.key > guard {
				if p := we + c.c.dmin; p > c.key {
					c.key = p
				}
			}
		}
	}
	e.candBuf = cands[:0]
	return arrival, nil
}

// checkStaging re-prices every remaining file against the current view
// with the literal greedy loop and hands both picks to stagingCheck.
func (v *schedEnv) checkStaging(cands []stageCand, dst, pos int) {
	refPos := 0
	var ref srcChoice
	for i := range cands {
		if c := v.bestSource(cands[i].f, dst); i == 0 || c.tct < ref.tct {
			refPos, ref = i, c
		}
	}
	stagingCheck(dst, pos, cands[pos].c, refPos, ref)
}

// portSet is the ports one transfer occupies for its whole duration,
// in slot-search order (see executor.ports).
type portSet struct {
	tl [3]*gantt.Timeline
	n  int
}

// ports returns the ports a transfer of f from src (-1 = f's storage
// home) onto dst occupies: a remote staging holds the storage home,
// dst and, on platforms with one, the shared link; a replica copy
// holds src and dst. Every slot search, booking and burn of a transfer
// goes through this set, which always lists dst second.
func (e *executor) ports(f batch.FileID, src, dst int) portSet {
	if src >= 0 {
		return portSet{tl: [3]*gantt.Timeline{e.computeTL[src], e.computeTL[dst]}, n: 2}
	}
	ps := portSet{tl: [3]*gantt.Timeline{e.storageTL[e.st.P.Batch.Files[f].Home], e.computeTL[dst], e.linkTL}, n: 2}
	if e.linkTL != nil {
		ps.n = 3
	}
	return ps
}

// transferDur is how long moving f from src (-1 = f's storage home)
// onto dst takes.
func (e *executor) transferDur(f batch.FileID, src, dst int) float64 {
	p := e.st.P
	if src >= 0 {
		return float64(p.Batch.FileSize(f)) / p.Platform.ReplicaBW(src, dst)
	}
	return float64(p.Batch.FileSize(f)) / p.Platform.RemoteBW(p.Batch.Files[f].Home, dst)
}

// searchers returns this env's view of ps's ports, in ps's order.
func (v *schedEnv) searchers(ps *portSet) (res [3]gantt.SlotSearcher) {
	for i, tl := range ps.tl[:ps.n] {
		res[i] = v.searcher(tl)
	}
	return res
}

// slot returns the earliest start ≥ after at which dur fits on every
// port of ps in this env's view.
func (v *schedEnv) slot(after, dur float64, ps portSet) float64 {
	res := v.searchers(&ps)
	return v.multiSlot(after, dur, res[:ps.n]...)
}

// book reserves [start, start+dur) on every port of ps.
func (v *schedEnv) book(ps portSet, start, dur float64) {
	for _, tl := range ps.tl[:ps.n] {
		v.reserve(tl, start, dur)
	}
}

func (v *schedEnv) multiSlot(after, dur float64, res ...gantt.SlotSearcher) float64 {
	if after < v.floor {
		after = v.floor
	}
	return gantt.MultiSlot(after, dur, res...)
}

// holderIter walks the nodes other than dst that hold f in an env's
// view: the executor's committed holder list merged with the env's
// tentatively scheduled receivers. The walk ascends by node, so source
// ties break, and alternatives are journaled, in node order.
type holderIter struct {
	v   *schedEnv
	f   batch.FileID
	dst int
	hs  []fileCopy
	ts  []int32
}

func (v *schedEnv) holderWalk(f batch.FileID, dst int) holderIter {
	return holderIter{v: v, f: f, dst: dst, hs: v.e.holders[f], ts: v.scratchHolders(f)}
}

// next returns the next holder and the availability time of its copy
// (straight from the list entry for a committed holder); ok is false
// once the walk is done.
func (it *holderIter) next() (node int, at float64, ok bool) {
	for len(it.hs) > 0 || len(it.ts) > 0 {
		if len(it.hs) > 0 && (len(it.ts) == 0 || it.hs[0].node <= it.ts[0]) {
			c := it.hs[0]
			it.hs = it.hs[1:]
			if int(c.node) != it.dst {
				return int(c.node), c.at, true
			}
			continue
		}
		j := int(it.ts[0])
		it.ts = it.ts[1:]
		if j == it.dst {
			continue
		}
		if at, held := it.v.availOn(j, it.f); held {
			return j, at, true
		}
	}
	return 0, 0, false
}

// transfer stages f onto dst from src (-1 = f's storage home; srcAt is
// when src's copy is available) at the earliest slot free on every
// port the transfer occupies. Under fault injection the commit goes
// through faultyTransfer, which draws each attempt's failures and may
// land the file later.
func (v *schedEnv) transfer(f batch.FileID, src, dst int, srcAt float64) (float64, error) {
	if v.commit && v.e.inj != nil {
		_, at, err := v.faultyTransfer(f, src, dst, srcAt)
		return at, err
	}
	e := v.e
	return v.place(f, src, dst, v.slot(srcAt, e.transferDur(f, src, dst), e.ports(f, src, dst)))
}

// stageFrom stages f onto dst from the source a search chose, at the
// slot it found, and returns the slot [start, end) it reserved on dst.
func (v *schedEnv) stageFrom(f batch.FileID, dst int, c srcChoice) (start, end float64, err error) {
	if v.commit && v.e.inj != nil {
		srcAt := 0.0
		if c.src >= 0 {
			srcAt, _ = v.availOn(c.src, f)
		}
		return v.faultyTransfer(f, c.src, dst, srcAt)
	}
	end, err = v.place(f, c.src, dst, c.start)
	return c.start, end, err
}

// place books the transfer of f from src (-1 = f's storage home) onto
// dst at a slot start already found free on every port it occupies:
// committed through commitTransfer, or tentatively on the env's
// overlays.
func (v *schedEnv) place(f batch.FileID, src, dst int, start float64) (float64, error) {
	e := v.e
	dur := e.transferDur(f, src, dst)
	if v.commit {
		return v.commitTransfer(f, src, dst, start, dur)
	}
	v.book(e.ports(f, src, dst), start, dur)
	if v.record != nil {
		*v.record = append(*v.record, specOp{file: f, src: src, dst: dst, start: start, dur: dur})
	}
	v.setAvail(dst, f, start+dur)
	return start + dur, nil
}

// commitTransfer reserves and records a transfer of f from src (-1 =
// f's storage home) onto dst whose slot [start, start+dur) has already
// been found: disk cache, statistics, validator record and a journal
// stage event carrying the source alternatives bestSource captured for
// it (if any).
func (v *schedEnv) commitTransfer(f batch.FileID, src, dst int, start, dur float64) (float64, error) {
	e := v.e
	size := e.st.P.Batch.FileSize(f)
	v.book(e.ports(f, src, dst), start, dur)
	b := e.base()
	if err := e.st.AddFile(dst, f, b+start+dur); err != nil {
		return 0, err
	}
	kind := "remote"
	if src >= 0 {
		kind = "replica"
		e.stats.ReplicaTransfers++
		e.stats.ReplicaBytes += size
	} else {
		e.stats.RemoteTransfers++
		e.stats.RemoteBytes += size
	}
	if e.trace != nil {
		e.trace.Stages = append(e.trace.Stages, gantt.StageEvent{File: int(f), Node: dst, Avail: start + dur, Size: size})
	}
	if j := e.st.J; j.Enabled() {
		cause := "task"
		switch {
		case e.specCause != "":
			cause = e.specCause
		case e.curTask < 0:
			cause = "prestage"
		case e.curAttempt > 1:
			cause = "retry"
		}
		j.Emit(journal.Event{T: b + start, Kind: journal.KindStage, Round: e.round, Stage: &journal.Stage{
			File: int(f), Dest: dst, Src: src, Home: e.st.P.Batch.Files[f].Home, Kind: kind,
			Start: b + start, End: b + start + dur, Bytes: size,
			Cause: cause, Task: e.curTask, Attempt: e.curAttempt, Alternatives: v.alts,
		}})
	}
	v.alts = nil
	v.setAvail(dst, f, start+dur)
	return start + dur, nil
}

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

// faultyTransfer is the transfer commit path under fault injection:
// each attempt draws crash and link failures against its stable
// identity; a failed attempt burns a preempted reservation
// [start, failAt) on the ports it occupied, backs off, and retries —
// preferring a surviving replica source (the paper's replication
// doubling as the recovery path) before the storage cluster. src is
// the first attempt's source (-1 = remote), srcAt its availability
// floor. It returns the slot of the attempt that landed the file.
// Exhausted retries or a destination crash abort the task commit with
// a faultAbort.
func (v *schedEnv) faultyTransfer(f batch.FileID, src, dst int, srcAt float64) (slotStart, slotEnd float64, err error) {
	e := v.e
	inj := e.inj
	after := 0.0
	for attempt := 1; attempt <= inj.MaxTransferRetries(); attempt++ {
		curSrc, start, found := src, 0.0, false
		if attempt > 1 {
			// Alternatives captured for the first attempt's source choice
			// no longer describe this retry's decision.
			v.alts = nil
			curSrc, start, found = v.survivingReplica(f, dst, after)
		}
		dur := e.transferDur(f, curSrc, dst)
		ps := e.ports(f, curSrc, dst)
		if !found {
			from := after
			if curSrc >= 0 {
				from = math.Max(after, srcAt)
			}
			start = v.slot(from, dur, ps)
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
			e.curAttempt = attempt
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
		// about port occupancy. No StageEvent is recorded — the file
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
		for _, tl := range ps.tl[:ps.n] {
			tl.Reserve(start, stop-start)
		}
	}
	if j := e.st.J; j.Enabled() {
		b := e.base()
		j.Emit(journal.Event{T: b + stop, Kind: journal.KindFault, Round: e.round,
			Fault: &journal.Fault{Class: journal.FaultBurn, Node: node, Task: task, File: file, Start: b + start, Detail: detail}})
	}
	return stop - start
}

// scheduleTask stages task t's missing files (greedy min-TCT order,
// per §6) and then places its execution; it returns the task's
// completion time. With commit=false everything happens on overlays.
func (e *executor) scheduleTask(t batch.TaskID, commit bool) (float64, error) {
	var v *schedEnv
	if commit {
		// The commit changes the committed state every memoized probe
		// was priced against; nothing reads the memo until it returns.
		e.epoch++
		v = newSchedEnv(e, true)
		e.curTask = int(t)
	} else {
		v = e.tentativeEnv()
	}
	c := e.plan.Node[t]
	task := &e.st.P.Batch.Tasks[t]

	// A fresh tentative env sees exactly the committed state, so its
	// first-round probes may use the memo.
	arrival, err := v.stageInputs(task.Files, c, !commit && e.nodeTasks[c] > 1)
	if err != nil {
		return 0, err
	}

	// Execute: local read of all inputs plus computation, on the
	// node's port (no staging overlaps execution).
	baseDur := float64(e.st.P.Batch.TaskBytes(t))/e.st.P.Platform.Compute[c].LocalReadBW + task.Compute
	execDur := baseDur
	stragFactor := 0.0
	if commit && e.inj != nil {
		// Stragglers stretch only the committed execution; ECT
		// estimation stays fault-blind so tentative ordering is
		// identical at any worker count.
		if factor := e.inj.Straggler(int(t), e.round); factor > 1 {
			execDur *= factor
			e.stats.Stragglers++
			stragFactor = factor
		}
	}
	start := v.searcher(e.computeTL[c]).EarliestSlot(arrival, execDur)
	if stragFactor > 1 {
		if j := e.st.J; j.Enabled() {
			j.Emit(journal.Event{T: e.base() + start, Kind: journal.KindFault, Round: e.round,
				Fault: &journal.Fault{Class: journal.FaultStraggler, Node: c, Task: int(t), File: -1,
					Factor: stragFactor, Detail: "execution stretched by straggling node"}})
		}
	}
	if commit && e.specOn() {
		// The watchdog may fork a duplicate attempt; when it does, the
		// speculation path owns the whole commit (winner, cancellation,
		// crash handling). When it does not fire, fall through to the
		// exact pre-speculation path below.
		if handled, end, err := e.trySpeculate(v, t, c, task, start, execDur, baseDur); handled || err != nil {
			return end, err
		}
	}
	if commit && e.inj != nil {
		if crashAt := e.crashRel[c]; start+execDur > crashAt {
			// Node c dies before this execution completes: burn the
			// started portion and hand the task back for re-queueing.
			e.stats.WastedSeconds += e.burn(c, int(t), nil, start, crashAt, burnKilled)
			e.crashSeen[c] = true
			return 0, &faultAbort{node: c, at: crashAt, crash: true,
				reason: fmt.Sprintf("node %d crashed during task %d execution", c, t)}
		}
	}
	if commit {
		e.commitExec(t, c, task, start, execDur)
	}
	return start + execDur, nil
}

// commitExec books task t's execution [start, start+dur) on node c
// and records every side effect of a completed task: Done marking,
// file touches, validator and journal records.
func (e *executor) commitExec(t batch.TaskID, c int, task *batch.Task, start, dur float64) {
	e.computeTL[c].Reserve(start, dur)
	e.st.Done[t] = true
	e.stats.TasksRun++
	for _, f := range task.Files {
		e.st.Touch(c, f, e.base()+start+dur)
	}
	if e.trace != nil {
		inputs := make([]int, len(task.Files))
		for i, f := range task.Files {
			inputs[i] = int(f)
		}
		e.trace.Tasks = append(e.trace.Tasks, gantt.TaskEvent{Task: int(t), Node: c, Start: start, End: start + dur, Inputs: inputs})
	}
	if j := e.st.J; j.Enabled() {
		b := e.base()
		inputs := make([]int, len(task.Files))
		for i, f := range task.Files {
			inputs[i] = int(f)
		}
		j.Emit(journal.Event{T: b + start, Kind: journal.KindExec, Round: e.round, Exec: &journal.Exec{
			Task: int(t), Node: c, Start: b + start, End: b + start + dur, Inputs: inputs}})
	}
}

// specOp is one tentatively scheduled twin transfer, recorded so the
// winner-resolution path can replay the exact slot. src is -1 for a
// remote (storage) transfer.
type specOp struct {
	file       batch.FileID
	src, dst   int
	start, dur float64
}

// twinPlan is a fully planned speculative duplicate attempt of one
// task: the twin host, the transfers that stage its missing inputs,
// and its execution window. end is the twin's projected completion.
type twinPlan struct {
	node               int
	ops                []specOp
	execStart, execDur float64
	end                float64
}

// specOn reports whether this run forks speculative twins: it needs
// both an active policy and an injector (without stragglers there is
// nothing to mitigate, and thresholds derive from the injector's
// straggler distribution).
func (e *executor) specOn() bool { return e.pol.Active() && e.inj != nil }

// plannedBytesOutstanding returns the bytes node j must still receive
// for the missing inputs of its not-yet-done assigned tasks (each
// file counted once). The twin capacity guard subtracts it from Free
// so a forked duplicate can never eat disk space a later commit on j
// relies on.
func (e *executor) plannedBytesOutstanding(j int) int64 {
	var sum int64
	seen := make(map[batch.FileID]bool)
	for _, t := range e.plan.Tasks {
		if e.plan.Node[t] != j || e.st.Done[t] {
			continue
		}
		for _, f := range e.st.P.Batch.Tasks[t].Files {
			if _, held := e.committedAt(j, f); held || seen[f] {
				continue
			}
			seen[f] = true
			sum += e.st.P.Batch.FileSize(f)
		}
	}
	return sum
}

// planTwin tentatively schedules a duplicate attempt of task t on
// node j, forked at forkT while the primary still occupies node c
// over [primStart, primStart+primDur). Everything happens on
// overlays; the recorded ops let the winner-resolution path replay
// exactly the slots that were planned. Twin staging is always dynamic
// and single-hop (min-TCT over current holders and the storage home)
// and floored at the fork time — a twin cannot move data before it
// exists.
func (e *executor) planTwin(t batch.TaskID, task *batch.Task, j, c int, forkT, primStart, primDur float64) twinPlan {
	var ops []specOp
	v := newSchedEnv(e, false)
	v.floor = forkT
	v.dynamicOnly = true
	v.record = &ops
	// The primary keeps executing while the twin races it: its full
	// stretched window occupies node c in the twin's view, so copies
	// sourced from c queue behind it.
	v.reserve(e.computeTL[c], primStart, primDur)
	// A copy must complete before its source node crashes (the same
	// rule survivingReplica applies on the retry path): block every
	// crash-doomed node's port from its crash time onward, so copies
	// that cannot fit before the crash price out of bestSource and a
	// twin never sources data from a dead node.
	const specFar = 1e18
	for j2 := range e.computeTL {
		if j2 == j {
			continue
		}
		if ca := e.crashRel[j2]; !math.IsInf(ca, 1) {
			if ca < 0 {
				ca = 0
			}
			v.reserve(e.computeTL[j2], ca, specFar)
		}
	}

	// Tentative scheduling cannot fail: the fault paths are
	// commit-only. The pre-reserved, floored view is not the committed
	// state, so the memo stays out.
	arrival, _ := v.stageInputs(task.Files, j, false)

	// The twin draws its own straggler luck through disjoint hash
	// domains: forking never perturbs any primary-path draw.
	dur := (float64(e.st.P.Batch.TaskBytes(t))/e.st.P.Platform.Compute[j].LocalReadBW + task.Compute) * e.inj.SpecStraggler(int(t), e.round)
	exStart := v.searcher(e.computeTL[j]).EarliestSlot(math.Max(arrival, forkT), dur)
	return twinPlan{node: j, ops: ops, execStart: exStart, execDur: dur, end: exStart + dur}
}

// commitTwinOps replays the twin's recorded transfer ops against the
// committed timelines. Ops finishing by stopT commit as real stagings
// with journaled cause "spec" (the copies persist — even a losing
// twin leaves useful replicas behind); ops in flight at stopT are
// cancelled: the occupied port time burns and the staging is rolled
// back through State (AddFile then Unstage) so the disk cache never
// shows a half-arrived file. Ops not yet started at stopT vanish.
// Returns the burnt port-seconds and whether any op had started.
func (e *executor) commitTwinOps(bp twinPlan, stopT float64) (waste float64, started bool, err error) {
	v := newSchedEnv(e, true)
	e.specCause = "spec"
	defer func() { e.specCause = "" }()
	for i := range bp.ops {
		op := &bp.ops[i]
		if op.start >= stopT {
			continue
		}
		started = true
		if op.start+op.dur <= stopT {
			if _, err = v.commitTransfer(op.file, op.src, op.dst, op.start, op.dur); err != nil {
				return waste, started, err
			}
			continue
		}
		if err = e.st.AddFile(op.dst, op.file, e.base()+stopT); err != nil {
			return waste, started, err
		}
		e.st.Unstage(op.dst, op.file)
		waste += e.burn(op.dst, e.curTask, op, op.start, stopT, "twin's transfer cut off when the twin stopped")
	}
	return waste, started, nil
}

// cancelTwin stops task t's losing twin bp at stopT — when the primary
// finished, or when crashed, when the twin's own host died: transfers
// done by then commit, the one in flight is cut, and the execution
// window up to stopT burns. It returns the twin's burnt port-seconds.
func (e *executor) cancelTwin(bp twinPlan, t batch.TaskID, stopT float64, crashed bool) (float64, error) {
	waste, started, err := e.commitTwinOps(bp, stopT)
	if err != nil {
		return 0, err
	}
	detail := "twin cancelled: primary finished first"
	if crashed {
		detail = "twin " + burnKilled
	}
	if w := e.burn(bp.node, int(t), nil, bp.execStart, stopT, detail); w > 0 {
		waste += w
		started = true
	}
	e.stats.SpecWastedSeconds += waste
	if crashed && started {
		e.crashSeen[bp.node] = true
	}
	e.stats.SpecCancels++
	return waste, nil
}

// trySpeculate is the watchdog hook on the commit path: when task t's
// committed (straggler-stretched) execution runs past the policy
// threshold, it forks a duplicate attempt on the best other node,
// resolves the first-finisher race, commits the winner and cancels
// the loser. It reports handled=false when the watchdog does not fire
// (or no twin host fits), in which case the caller proceeds down the
// exact pre-speculation path.
func (e *executor) trySpeculate(v *schedEnv, t batch.TaskID, c int, task *batch.Task, start, execDur, baseDur float64) (handled bool, end float64, err error) {
	thr := e.pol.Threshold(baseDur, e.inj.StragglerDist())
	if math.IsInf(thr, 1) {
		return false, 0, nil
	}
	// The watchdog only monitors attempts that actually start. A task
	// whose node is already down at its start time never begins
	// executing — detecting that is the failure detector's job, and
	// the ordinary abort/requeue path handles it (letting the
	// scheduler re-place the task instead of burning a threshold wait
	// on a node known to be dead).
	if e.crashRel[c] <= start {
		return false, 0, nil
	}
	// The watchdog fires iff the primary has not reported completion
	// by start+thr: either its stretched execution runs past the
	// threshold, or its node crashes mid-run and the attempt never
	// finishes at all (the watchdog cannot tell the two apart — a
	// silent task is a silent task).
	if primAlive := start+execDur <= e.crashRel[c]; primAlive && execDur <= thr {
		return false, 0, nil
	}
	// Duplicating a merely-slow (but live) primary trades port time
	// for latency: the pair always burns more total port time than
	// letting the straggler finish, so mid-batch — when every port the
	// twin could take still has useful work queued behind it — the
	// trade loses and the watchdog stands down. It pays only in the
	// drain phase (fewer waiting tasks than ports, the same
	// near-completion gate Hadoop-style speculation uses), where the
	// twin rides a port that would otherwise idle and a win shortens
	// the sub-batch tail directly. Crash-killed primaries are exempt:
	// their alternative is a requeue into a later sub-batch, which is
	// strictly worse than any finite twin.
	if start+execDur <= e.crashRel[c] && e.drainLeft >= len(e.computeTL) {
		return false, 0, nil
	}
	forkT := start + thr

	primEnd := start + execDur
	primAlive := primEnd <= e.crashRel[c]

	// A fork is only worthwhile if the twin can plausibly win the
	// race. Conditioned on "still silent at the threshold", a live
	// primary finishes uniformly within (thr, F·baseDur] — so a twin
	// projected past the conditional mean (thr + F·baseDur)/2 is a bad
	// bet: forking it would burn another node's port for an expected
	// loss. This prices out twins on saturated ports or with expensive
	// staging, leaving the forks that matter — stragglers in the batch
	// tail, duplicated onto nodes that are idle and already cache the
	// inputs. A dead primary never finishes, so any finite twin
	// rescues the task and no bound applies.
	limit := math.Inf(1)
	if primAlive {
		limit = start + (thr+e.inj.StragglerDist().Factor*baseDur)/2
	}

	// Pick the twin host: every other node is scored by the projected
	// completion of a tentatively planned duplicate (inputs already
	// cached count for free; missing ones stage dynamically, no
	// earlier than the fork). Nodes the failure detector knows are
	// dead at fork time, or whose disk cannot hold the missing inputs
	// on top of what pending commits still need, are recorded as
	// non-fitting candidates.
	var cands []journal.Candidate
	best := -1
	var bp twinPlan
	for j := range e.computeTL {
		if j == c {
			continue
		}
		if e.crashRel[j] <= forkT {
			cands = append(cands, journal.Candidate{Node: j, Fits: false})
			continue
		}
		var missing int64
		for _, f := range task.Files {
			if _, held := e.committedAt(j, f); !held {
				missing += e.st.P.Batch.FileSize(f)
			}
		}
		if missing > e.st.Free(j)-e.plannedBytesOutstanding(j) {
			cands = append(cands, journal.Candidate{Node: j, Fits: false})
			continue
		}
		tp := e.planTwin(t, task, j, c, forkT, start, execDur)
		cands = append(cands, journal.Candidate{Node: j, Score: e.base() + tp.end, Fits: true})
		if tp.end < limit && (best < 0 || tp.end < bp.end) {
			best, bp = j, tp
		}
	}
	if best < 0 {
		return false, 0, nil // no twin host worth forking; the ordinary path decides the task's fate
	}

	b := e.base()
	twinEnd := bp.end
	twinAlive := twinEnd <= e.crashRel[best]
	e.stats.SpecLaunches++
	if j := e.st.J; j.Enabled() {
		j.Emit(journal.Event{T: b + forkT, Kind: journal.KindSpecLaunch, Round: e.round, Spec: &journal.Spec{
			Task: int(t), Node: c, Twin: best, Policy: e.pol.String(), Threshold: thr, Candidates: cands,
			Reason: fmt.Sprintf("task %d still running on node %d %.4gs after start (threshold %.4gs, policy %s): forked twin on node %d",
				t, c, execDur, thr, e.pol, best)}})
	}

	if twinAlive && (!primAlive || twinEnd < primEnd) {
		// Twin wins: cancel the primary at the twin's finish (or at
		// its own crash, whichever strikes first) and commit the twin
		// as the task's real execution.
		primStop := twinEnd
		crashKilled := false
		detail := "primary cancelled: twin finished first"
		if e.crashRel[c] < primStop {
			primStop, crashKilled, detail = e.crashRel[c], true, burnKilled
			e.crashSeen[c] = true
		}
		e.stats.SpecWastedSeconds += e.burn(c, int(t), nil, start, primStop, detail)
		if !primAlive {
			e.stats.SpecSaved++
		}
		if _, _, err := e.commitTwinOps(bp, math.Inf(1)); err != nil {
			return true, 0, err
		}
		e.commitExec(t, best, task, bp.execStart, bp.execDur)
		e.stats.SpecWins++
		e.stats.SpecCancels++
		if j := e.st.J; j.Enabled() {
			pe := b + primEnd
			if !primAlive {
				pe = -1
			}
			why := "primary attempt cancelled: twin finished first"
			if crashKilled {
				why = "primary crashed; twin completed the task"
			}
			j.Emit(journal.Event{T: b + twinEnd, Kind: journal.KindSpecWin, Round: e.round, Spec: &journal.Spec{
				Task: int(t), Node: c, Twin: best, Winner: "twin", PrimaryEnd: pe, TwinEnd: b + twinEnd,
				Reason: fmt.Sprintf("twin on node %d finished at %.4g; primary on node %d cancelled", best, b+twinEnd, c)}})
			j.Emit(journal.Event{T: b + primStop, Kind: journal.KindSpecCancel, Round: e.round, Spec: &journal.Spec{
				Task: int(t), Node: c, Twin: best, Winner: "twin", WastedS: primStop - start, Reason: why}})
		}
		return true, twinEnd, nil
	}

	if primAlive {
		// Primary wins (ties included): commit it exactly as the
		// pre-speculation path would have, then cancel the twin at the
		// primary's finish (or at the twin host's crash).
		e.commitExec(t, c, task, start, execDur)
		twinStop := primEnd
		twinCrashed := e.crashRel[best] < twinStop
		if twinCrashed {
			twinStop = e.crashRel[best]
		}
		waste, err := e.cancelTwin(bp, t, twinStop, twinCrashed)
		if err != nil {
			return true, 0, err
		}
		if j := e.st.J; j.Enabled() {
			te := b + twinEnd
			if !twinAlive {
				te = -1
			}
			why := "twin attempt cancelled: primary finished first"
			if twinCrashed {
				why = "twin host crashed; primary completed the task"
			}
			j.Emit(journal.Event{T: b + primEnd, Kind: journal.KindSpecWin, Round: e.round, Spec: &journal.Spec{
				Task: int(t), Node: c, Twin: best, Winner: "primary", PrimaryEnd: b + primEnd, TwinEnd: te,
				Reason: fmt.Sprintf("primary on node %d finished at %.4g; twin on node %d cancelled", c, b+primEnd, best)}})
			j.Emit(journal.Event{T: b + twinStop, Kind: journal.KindSpecCancel, Round: e.round, Spec: &journal.Spec{
				Task: int(t), Node: c, Twin: best, Winner: "primary", WastedS: waste, Reason: why}})
		}
		return true, primEnd, nil
	}

	// Both attempts die before finishing: burn both, cancel the twin,
	// and hand the task back exactly once (the run loop re-queues on
	// the single faultAbort, so a killed task with a twin in flight is
	// never double-requeued).
	crashAt := e.crashRel[c]
	e.stats.WastedSeconds += e.burn(c, int(t), nil, start, crashAt, burnKilled)
	e.crashSeen[c] = true
	twinStop := e.crashRel[best]
	waste, err := e.cancelTwin(bp, t, twinStop, true)
	if err != nil {
		return true, 0, err
	}
	if j := e.st.J; j.Enabled() {
		j.Emit(journal.Event{T: b + twinStop, Kind: journal.KindSpecCancel, Round: e.round, Spec: &journal.Spec{
			Task: int(t), Node: c, Twin: best, Winner: "none", PrimaryEnd: -1, TwinEnd: -1, WastedS: waste,
			Reason: "both attempts crash-killed; task re-queued"}})
	}
	return true, 0, &faultAbort{node: c, at: crashAt, crash: true,
		reason: fmt.Sprintf("node %d crashed during task %d execution; speculative twin on node %d also died", c, t, best)}
}

// ectEntry is a heap entry with a cached earliest completion time.
type ectEntry struct {
	task batch.TaskID
	ect  float64
	ver  int
}

// ectHeap is a binary min-heap on ect. push and pop follow
// container/heap's sift-up and sift-down step for step, so equal keys
// pop in the same order, without boxing every entry in an interface.
type ectHeap []ectEntry

func (h *ectHeap) push(x ectEntry) {
	*h = append(*h, x)
	q := *h
	for j := len(q) - 1; ; {
		i := (j - 1) / 2 // parent
		if i == j || !(q[j].ect < q[i].ect) {
			break
		}
		q[i], q[j] = q[j], q[i]
		j = i
	}
}

func (h *ectHeap) pop() ectEntry {
	q := *h
	n := len(q) - 1
	q[0], q[n] = q[n], q[0]
	for i := 0; ; {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && q[j2].ect < q[j].ect {
			j = j2 // right child
		}
		if !(q[j].ect < q[i].ect) {
			break
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
	*h = q[:n]
	return q[n]
}

// run commits the sub-batch: pre-staging first, then tasks in cached
// earliest-completion-time order. This is not the paper's literal
// "lowest ECT first" rule: a commit invalidates only the cached ECTs of
// tasks on the same node, and a re-evaluated task commits if it is
// within commitSlack of the heap top (DESIGN §14 measures the
// difference).
func (e *executor) run() (*ExecStats, error) {
	// Pre-staging ops (e.g. DataLeastLoaded replicas) commit first so
	// every task sees the extra copies.
	for _, op := range e.plan.PreStage {
		if _, held := e.committedAt(op.Dest, op.File); held {
			continue // already there
		}
		e.curTask = -1 // journaled as planner-directed pre-staging
		e.epoch++
		src, srcAt := -1, 0.0
		if at, held := e.committedAt(op.Src, op.File); op.Kind == Replica && !e.st.P.DisableReplication && held {
			src, srcAt = op.Src, at
		}
		if _, err := newSchedEnv(e, true).transfer(op.File, src, op.Dest, srcAt); err != nil {
			// Pre-staging is a best-effort optimization: a fault-aborted
			// op is simply skipped (tasks re-stage on demand).
			var fa *faultAbort
			if errors.As(err, &fa) {
				continue
			}
			return nil, err
		}
	}

	// Cached ECTs are invalidated per compute node: committing a task
	// on node c changes c's port schedule (and marginally the storage
	// ports), so only tasks mapped to c re-evaluate; tasks elsewhere
	// keep slightly stale estimates. Together with a small relative
	// commit tolerance for near-tied candidates this keeps ordering
	// cost near O(T·files) instead of O(T²·files) on large
	// sub-batches.
	h := make(ectHeap, 0, len(e.plan.Tasks))
	nodeVer := make([]int, len(e.computeTL))
	for _, t := range e.plan.Tasks {
		ect, err := e.scheduleTask(t, false)
		if err != nil {
			return nil, err
		}
		h.push(ectEntry{task: t, ect: ect, ver: 0})
	}
	const commitSlack = 1.01
	for len(h) > 0 {
		top := h.pop()
		node := e.plan.Node[top.task]
		if top.ver != nodeVer[node] {
			e.stats.ECTReevals++
			ect, err := e.scheduleTask(top.task, false)
			if err != nil {
				return nil, err
			}
			if len(h) > 0 && ect > h[0].ect*commitSlack+1e-12 {
				h.push(ectEntry{task: top.task, ect: ect, ver: nodeVer[node]})
				continue
			}
		}
		e.drainLeft = len(h)
		if _, err := e.scheduleTask(top.task, true); err != nil {
			var fa *faultAbort
			if errors.As(err, &fa) {
				// Injected fault killed the commit: the task stays
				// pending and is handed back for a later sub-batch.
				e.requeued = append(e.requeued, top.task)
				e.stats.RequeuedTasks++
				nodeVer[node]++
				if j := e.st.J; j.Enabled() {
					j.Emit(journal.Event{T: e.base() + fa.at, Kind: journal.KindFault, Round: e.round,
						Fault: &journal.Fault{Class: journal.FaultRequeue, Node: fa.node,
							Task: int(top.task), File: -1, Detail: fa.reason}})
				}
				continue
			}
			return nil, err
		}
		nodeVer[node]++
	}

	e.stats.Makespan = gantt.Makespan(e.computeTL)
	for _, tl := range e.storageTL {
		e.stats.StorageBusy += tl.BusyTime()
	}
	for _, tl := range e.computeTL {
		e.stats.ComputeBusy += tl.BusyTime()
	}
	if e.inj != nil {
		for n := range e.computeTL {
			abs := e.inj.CrashTime(n)
			if e.crashSeen[n] || abs < e.base()+e.stats.Makespan {
				// The crash fell inside this sub-batch (or visibly
				// interrupted work): the node loses its disk cache and
				// reboots empty at the boundary.
				dropped := e.st.DropNode(n)
				e.inj.ConsumeCrash(n)
				e.stats.Crashes++
				if j := e.st.J; j.Enabled() {
					j.Emit(journal.Event{T: math.Min(abs, e.base()+e.stats.Makespan),
						Kind: journal.KindFault, Round: e.round,
						Fault: &journal.Fault{Class: journal.FaultCrash, Node: n, Task: -1, File: -1,
							Detail: fmt.Sprintf("node crashed; %d cached file copies lost, reboots empty", dropped)}})
				}
			}
		}
	}
	e.st.Clock += e.stats.Makespan
	return &e.stats, nil
}

package core

import (
	"math"
	"slices"

	"repro/internal/batch"
	"repro/internal/gantt"
	"repro/internal/obs/journal"
)

// schedEnv abstracts committed vs tentative scheduling so the same
// staging logic serves both ECT estimation and the final commit.
type schedEnv struct {
	e      *executor
	commit bool
	// overlays (tentative mode only) holds each port's overlay by port
	// id (see executor.tls), created on the port's first use.
	overlays []*gantt.Overlay
	// dirty lists the overlays that received tentative reservations, so
	// a reused env can clear exactly those.
	dirty []*gantt.Overlay
	// Tentative copies (tentative mode only): while tent[f].gen equals
	// gen, tentPool[tent[f].idx] lists, in ascending node order, the
	// nodes this env has scheduled to receive f with the availability
	// time of each copy, in the same form as executor.holders; tentN
	// lists are in use. A reset is one increment of gen; the pool's
	// lists are truncated and reused instead of reallocated.
	tent     []tentSlot
	gen      uint32
	tentPool [][]fileCopy
	tentN    int32
	// visiting holds the (file, node) stagings ensureFile is realizing
	// along a pinned plan's replication chain, to break cycles. Created
	// on first use: only pinned plans reach ensureFile, and every entry
	// is deleted before ensureFile returns.
	visiting map[stageKey]bool
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

// tentSlot locates one file's tentative copies in schedEnv.tentPool;
// it is current while gen equals the env's.
type tentSlot struct {
	gen uint32
	idx int32
}

// newCommitEnv returns a commit env, which books the executor's
// timelines directly.
func newCommitEnv(e *executor) *schedEnv {
	return &schedEnv{e: e, commit: true}
}

// newTentativeEnv returns an empty tentative env: one table slot per
// file and per port.
func newTentativeEnv(e *executor) *schedEnv {
	return &schedEnv{e: e, overlays: make([]*gantt.Overlay, len(e.tls)),
		tent: make([]tentSlot, e.st.P.Batch.NumFiles()), gen: 1}
}

// reset clears a tentative env for a fresh pass: only the overlays
// that were actually dirtied get cleared, and one increment of gen
// retires every tentative copy.
func (v *schedEnv) reset() {
	for _, ov := range v.dirty {
		ov.Clear()
	}
	v.dirty = v.dirty[:0]
	v.tentN = 0
	v.gen++
	if v.gen == 0 {
		// Wrapped: a slot stamped 1 four billion resets ago must not
		// read as current.
		clear(v.tent)
		v.gen = 1
	}
}

// tentativeEnv returns the executor's cached probe environment,
// cleared for a fresh tentative scheduling pass, so back-to-back
// probes cost no allocation.
func (e *executor) tentativeEnv() *schedEnv {
	if e.tentEnv == nil {
		e.tentEnv = newTentativeEnv(e)
	} else {
		e.tentEnv.reset()
	}
	return e.tentEnv
}

// twinEnv returns the executor's cached twin-planning environment,
// cleared, with its slot searches floored at forkT and its transfers
// recorded into ops. Twin staging is always dynamic (see planTwin).
func (e *executor) twinEnv(forkT float64, ops *[]specOp) *schedEnv {
	if e.twin == nil {
		e.twin = newTentativeEnv(e)
	} else {
		e.twin.reset()
	}
	v := e.twin
	v.floor, v.dynamicOnly, v.record = forkT, true, ops
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

// availOn returns the availability time of f on compute node n in
// this env's view, and whether n holds (or is scheduled to receive) f.
func (v *schedEnv) availOn(n int, f batch.FileID) (float64, bool) {
	if a, ok := v.e.committedAt(n, f); ok {
		return a, true
	}
	ts := v.tentHolders(f)
	if i, ok := findCopy(ts, n); ok {
		return ts[i].at, true
	}
	return 0, false
}

// setAvail records that f is available on n from at: in the executor's
// holder list when committing, else in this env's tentative list.
func (v *schedEnv) setAvail(n int, f batch.FileID, at float64) {
	cs := &v.e.holders[f]
	if !v.commit {
		ts := &v.tent[f]
		if ts.gen != v.gen {
			*ts = tentSlot{v.gen, v.tentN}
			if int(v.tentN) == len(v.tentPool) {
				v.tentPool = append(v.tentPool, nil)
			}
			v.tentPool[v.tentN] = v.tentPool[v.tentN][:0]
			v.tentN++
		}
		cs = &v.tentPool[ts.idx]
	}
	if i, ok := findCopy(*cs, n); ok {
		(*cs)[i].at = at
	} else {
		*cs = slices.Insert(*cs, i, fileCopy{int32(n), at})
	}
}

// tentHolders returns this env's tentative copies of f in ascending
// node order (none in commit mode).
func (v *schedEnv) tentHolders(f batch.FileID) []fileCopy {
	if v.commit {
		return nil
	}
	if ts := v.tent[f]; ts.gen == v.gen {
		return v.tentPool[ts.idx]
	}
	return nil
}

// searcher returns this env's view of port id.
func (v *schedEnv) searcher(id int32) gantt.SlotSearcher {
	if v.commit {
		return v.e.tls[id]
	}
	return v.overlay(id)
}

// overlay returns port id's overlay (tentative mode only).
func (v *schedEnv) overlay(id int32) *gantt.Overlay {
	ov := v.overlays[id]
	if ov == nil {
		ov = gantt.NewOverlay(v.e.tls[id])
		v.overlays[id] = ov
	}
	return ov
}

// reserve books [start, start+dur) on port id in this env's view.
func (v *schedEnv) reserve(id int32, start, dur float64) {
	if v.commit {
		tl := v.e.tls[id]
		tl.Reserve(start, dur)
		v.unsorted = v.unsorted || !tl.EndsSorted()
		return
	}
	ov := v.overlay(id)
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
	if v.visiting == nil {
		v.visiting = make(map[stageKey]bool)
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
	c := v.bestSource(f, dst)
	_, at, err := v.place(f, c.src, dst, c.start)
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

// memoHead locates one file's chain of memoized probes in
// executor.memoPool; it is current while epoch equals the executor's.
type memoHead struct {
	epoch uint32
	head  int32 // pool index of the chain's newest entry
}

// memoEntry is one commit-epoch memo slot: the probe of its file onto
// dst, and the pool index of the file's next entry (-1 ends the
// chain).
type memoEntry struct {
	dst  int32
	next int32
	c    srcChoice
}

// memoGet returns the current epoch's memoized probe of f onto dst.
func (e *executor) memoGet(f batch.FileID, dst int) (srcChoice, bool) {
	if e.memoFile == nil {
		return srcChoice{}, false
	}
	if h := e.memoFile[f]; h.epoch == e.epoch {
		for i := h.head; i >= 0; i = e.memoPool[i].next {
			if m := &e.memoPool[i]; int(m.dst) == dst {
				return m.c, true
			}
		}
	}
	return srcChoice{}, false
}

// memoPut memoizes the probe c of f onto dst for the current epoch
// (which holds none yet).
func (e *executor) memoPut(f batch.FileID, dst int, c srcChoice) {
	if e.memoFile == nil {
		e.memoFile = make([]memoHead, e.st.P.Batch.NumFiles())
	}
	h := &e.memoFile[f]
	next := int32(-1)
	if h.epoch == e.epoch {
		next = h.head
	}
	*h = memoHead{e.epoch, int32(len(e.memoPool))}
	e.memoPool = append(e.memoPool, memoEntry{int32(dst), next, c})
}

// bumpEpoch starts a new commit epoch, retiring every memoized probe:
// the caller is about to change the committed state they were priced
// against.
func (e *executor) bumpEpoch() {
	e.memoPool = e.memoPool[:0]
	e.epoch++
	if e.epoch == 0 {
		// Wrapped: a head stamped 1 four billion commits ago must not
		// read as current.
		clear(e.memoFile)
		e.epoch = 1
	}
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
	size := float64(e.st.P.Batch.FileSize(f))
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
		rdur := size / e.replicaBW(j, dst) // transferDur(f, j, dst), with f's size hoisted
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
		srcRes := v.searcher(e.ports(f, j, dst).id[0]) // j, then dst (whose searcher is hoisted)
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
// state, see executor.memoFile) it answers from, or fills, the
// executor's commit-epoch memo.
func (v *schedEnv) probe(f batch.FileID, dst int, memo bool) srcChoice {
	e := v.e
	if memo {
		if c, ok := e.memoGet(f, dst); ok {
			e.stats.ProbeReuses++
			if probeReuseCheck != nil {
				v.checkReuse(f, dst, c, true, nil)
			}
			return c
		}
	}
	e.stats.Probes++
	c := v.bestSource(f, dst)
	if memo {
		e.memoPut(f, dst, c)
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
			ws, we, err = v.place(cand.f, cand.c.src, dst, cand.c.start)
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
// by port id (see executor.tls), in slot-search order (see
// executor.ports).
type portSet struct {
	id [3]int32
	n  int
}

// ports returns the ports a transfer of f from src (-1 = f's storage
// home) onto dst occupies: a remote staging holds the storage home,
// dst and, on platforms with one, the shared link; a replica copy
// holds src and dst. Every slot search, booking and burn of a transfer
// goes through this set, which always lists dst second.
func (e *executor) ports(f batch.FileID, src, dst int) portSet {
	if src >= 0 {
		return portSet{id: [3]int32{e.computePort(src), e.computePort(dst)}, n: 2}
	}
	ps := portSet{id: [3]int32{int32(e.st.P.Batch.Files[f].Home), e.computePort(dst), e.linkPort}, n: 2}
	if e.linkTL != nil {
		ps.n = 3
	}
	return ps
}

// computePort returns compute node n's port id.
func (e *executor) computePort(n int) int32 { return int32(len(e.storageTL) + n) }

// transferDur is how long moving f from src (-1 = f's storage home)
// onto dst takes.
func (e *executor) transferDur(f batch.FileID, src, dst int) float64 {
	size := float64(e.st.P.Batch.FileSize(f))
	if src >= 0 {
		return size / e.replicaBW(src, dst)
	}
	return size / e.remoteBW[e.st.P.Batch.Files[f].Home*len(e.computeTL)+dst]
}

// replicaBW is Platform.ReplicaBW(i, j), min(NetBW_i, NetBW_j,
// IntraBW), from the per-node factors: min picks one of its operands,
// so the bits are the same.
func (e *executor) replicaBW(i, j int) float64 { return min(e.nodeBW[i], e.nodeBW[j]) }

// searchers returns this env's view of ps's ports, in ps's order.
func (v *schedEnv) searchers(ps *portSet) (res [3]gantt.SlotSearcher) {
	for i, id := range ps.id[:ps.n] {
		res[i] = v.searcher(id)
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
	for _, id := range ps.id[:ps.n] {
		v.reserve(id, start, dur)
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
// tentative copies. The walk ascends by node, so source ties break,
// and alternatives are journaled, in node order.
type holderIter struct {
	dst    int
	hs, ts []fileCopy
}

func (v *schedEnv) holderWalk(f batch.FileID, dst int) holderIter {
	return holderIter{dst: dst, hs: v.e.holders[f], ts: v.tentHolders(f)}
}

// next returns the next holder and the availability time of its copy;
// ok is false once the walk is done.
func (it *holderIter) next() (node int, at float64, ok bool) {
	for len(it.hs) > 0 || len(it.ts) > 0 {
		var c fileCopy
		if len(it.ts) == 0 || (len(it.hs) > 0 && it.hs[0].node <= it.ts[0].node) {
			c, it.hs = it.hs[0], it.hs[1:]
		} else {
			c, it.ts = it.ts[0], it.ts[1:]
		}
		if int(c.node) != it.dst {
			return int(c.node), c.at, true
		}
	}
	return 0, 0, false
}

// transfer stages f onto dst from src (-1 = f's storage home; srcAt is
// when src's copy is available) at the earliest slot free on every
// port the transfer occupies, and returns when the file lands.
func (v *schedEnv) transfer(f batch.FileID, src, dst int, srcAt float64) (float64, error) {
	e := v.e
	_, end, err := v.place(f, src, dst, v.slot(srcAt, e.transferDur(f, src, dst), e.ports(f, src, dst)))
	return end, err
}

// place stages f onto dst from src (-1 = f's storage home) starting at
// start, a slot already found free on every port the transfer
// occupies, and returns the slot [slotStart, end) it reserved on dst.
// A commit goes through commitStaging, whose retries may land the file
// later; a tentative placement books the env's overlays.
func (v *schedEnv) place(f batch.FileID, src, dst int, start float64) (slotStart, end float64, err error) {
	if v.commit {
		return v.commitStaging(f, src, dst, start)
	}
	e := v.e
	dur := e.transferDur(f, src, dst)
	v.book(e.ports(f, src, dst), start, dur)
	if v.record != nil {
		*v.record = append(*v.record, specOp{file: f, src: src, dst: dst, start: start, dur: dur})
	}
	v.setAvail(dst, f, start+dur)
	return start, start + dur, nil
}

// commitTransfer reserves and records a transfer of f from src (-1 =
// f's storage home) onto dst whose slot [start, start+dur) has already
// been found: disk cache, statistics and a journal stage event carrying
// the source alternatives bestSource captured for it (if any).
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

package hypergraph

import "runtime"

// This file holds the concurrency substrate of the recursive
// partitioners. The two sub-problems of every bisection step are
// independent — they touch disjoint vertex sets and write disjoint
// entries of the output slice — so they can run on separate goroutines.
//
// Determinism contract: randomness is never drawn from a stream shared
// across branches. Each recursion node derives its own seed from the
// parent's via splitSeed, so the partition depends only on (hypergraph,
// options, seed) — never on how many workers ran or how the goroutines
// interleaved. This is what lets Workers=1 and Workers=N return
// byte-identical partitions.

// workPool bounds the number of extra goroutines a recursive
// partitioner may spawn. The calling goroutine always counts as one
// worker, so a pool for W workers holds W−1 tokens; with W=1 every
// fork degenerates to plain sequential recursion.
type workPool struct {
	sem chan struct{}
}

// newWorkPool returns a pool for the given worker count
// (0 ⇒ runtime.GOMAXPROCS(0)).
func newWorkPool(workers int) *workPool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &workPool{sem: make(chan struct{}, workers-1)}
}

// fork runs left and right to completion, running right on a fresh
// goroutine when a worker token is free and inline otherwise. The
// token is held for right's whole subtree, which keeps the live
// goroutine count at the configured bound even though the recursion
// forks again inside both callbacks. Each callback receives the
// scratch of the goroutine it runs on: sc inline, a new one on a
// forked goroutine.
func (p *workPool) fork(sc *scratch, left, right func(*scratch)) {
	select {
	case p.sem <- struct{}{}:
		done := make(chan struct{})
		go func() {
			defer close(done)
			defer func() { <-p.sem }()
			right(new(scratch))
		}()
		left(sc)
		<-done
	default:
		left(sc)
		right(sc)
	}
}

// splitSeed derives a child RNG seed from a parent seed and a branch
// index (splitmix64 finalizer). Branches 0 and 1 seed the two
// sub-recursions; branch 2 seeds the current node's own RNG, so the
// local bisection's random stream is independent of both subtrees.
func splitSeed(seed int64, branch uint64) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + (branch+1)*0xBF58476D1CE4E5B9
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}

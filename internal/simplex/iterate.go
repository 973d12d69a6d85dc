package simplex

import "math"

// iterate runs simplex pivots under the current cost vector until an
// optimum, unboundedness, the iteration cap, or a singular
// refactorization is hit.
func (s *solver) iterate() Status {
	sinceRefactor := 0
	limit := maxIters(s.m)
	for {
		if s.iters >= limit {
			return IterLimit
		}
		if sinceRefactor >= refactorEvery {
			if !s.refactor() {
				return Singular
			}
			sinceRefactor = 0
		}
		// BTRAN: y = c_B B^{-T}.
		s.computeDuals()
		// Pricing.
		j, dir := s.price()
		if j < 0 {
			return Optimal
		}
		// FTRAN: w = B^{-1} a_j.
		s.ftranColumn(j)
		leave, t, flip := s.ratioTest(j, dir)
		if math.IsInf(t, 1) {
			if s.phase == 1 {
				// Phase-1 objective is bounded below by 0; an
				// unbounded ray means numerical trouble. Refactor and
				// retry once; if it persists, give up as singular.
				if !s.refactor() {
					return Singular
				}
				sinceRefactor = 0
				s.iters++
				continue
			}
			return Unbounded
		}
		s.pivot(j, dir, leave, t, flip)
		s.iters++
		sinceRefactor++
	}
}

// computeDuals fills s.y with c_B B^{-T} by BTRAN through the eta file
// in reverse order.
func (s *solver) computeDuals() {
	y := s.y
	for r := 0; r < s.m; r++ {
		y[r] = s.cost[s.basic[r]]
	}
	for k := len(s.etas) - 1; k >= 0; k-- {
		e := &s.etas[k]
		p := e.pivot
		yp := y[p]
		var pivotVal float64
		for _, en := range e.col {
			if en.Row == p {
				pivotVal = en.Val
			}
		}
		acc := yp
		for _, en := range e.col {
			if en.Row != p {
				acc -= en.Val * y[en.Row]
			}
		}
		y[p] = acc / pivotVal
	}
}

// reducedCost computes d_j = c_j − yᵀa_j.
func (s *solver) reducedCost(j int) float64 {
	d := s.cost[j]
	for _, e := range s.cols[j] {
		d -= s.y[e.Row] * e.Val
	}
	return d
}

// price selects the entering column and its direction (+1 when
// increasing from lower bound, −1 when decreasing from upper).
// Dantzig rule normally; Bland's rule when the objective has stalled,
// to break cycles. Returns j = −1 at optimality.
func (s *solver) price() (int, float64) {
	useBland := s.stallCount > 60
	bestJ, bestD, bestDir := -1, tol, 0.0
	// Partial (cyclic candidate-list) pricing: scan from where the last
	// pricing stopped and return the best of the first few dozen
	// eligible columns. Optimality is still exact — the scan only stops
	// early when an eligible column was found; otherwise it covers
	// every column. Bland's anti-cycling rule always uses the full
	// lowest-index scan.
	const candidates = 48
	found := 0
	for scanned := 0; scanned < s.n; scanned++ {
		j := s.priceStart + scanned
		if useBland {
			j = scanned
		} else if j >= s.n {
			j -= s.n
		}
		switch s.state[j] {
		case inBasis:
			continue
		case atLower:
			d := s.reducedCost(j)
			if d < -tol {
				if useBland {
					return j, +1
				}
				if -d > bestD {
					bestJ, bestD, bestDir = j, -d, +1
				}
				found++
			}
		case atUpper:
			d := s.reducedCost(j)
			if d > tol {
				if useBland {
					return j, -1
				}
				if d > bestD {
					bestJ, bestD, bestDir = j, d, -1
				}
				found++
			}
		}
		if found >= candidates {
			s.priceStart = j + 1
			if s.priceStart >= s.n {
				s.priceStart = 0
			}
			return bestJ, bestDir
		}
	}
	s.priceStart = 0
	return bestJ, bestDir
}

// ftranColumn computes w = B^{-1} a_j into s.w (dense).
func (s *solver) ftranColumn(j int) {
	w := s.w
	for r := range w {
		w[r] = 0
	}
	for _, e := range s.cols[j] {
		w[e.Row] = e.Val
	}
	s.ftran(w)
}

// ftran applies the eta file in order to a dense vector.
func (s *solver) ftran(w []float64) {
	for k := range s.etas {
		e := &s.etas[k]
		p := e.pivot
		wp := w[p]
		if wp == 0 {
			continue
		}
		var pivotVal float64
		for _, en := range e.col {
			if en.Row == p {
				pivotVal = en.Val
			}
		}
		wp /= pivotVal
		w[p] = wp
		for _, en := range e.col {
			if en.Row != p {
				w[en.Row] -= en.Val * wp
			}
		}
	}
}

// ratioTest finds how far the entering column j can move in direction
// dir before a basic column hits a bound (returns its row) or the
// entering column hits its own opposite bound (flip=true). t is the
// step length; +Inf signals an unbounded ray.
func (s *solver) ratioTest(j int, dir float64) (leaveRow int, t float64, flip bool) {
	t = math.Inf(1)
	leaveRow = -1
	// Entering variable's own range.
	if range_ := s.upper[j] - s.lower[j]; !math.IsInf(range_, 1) {
		t = range_
		flip = true
	}
	bestPivot := 0.0
	for r := 0; r < s.m; r++ {
		w := s.w[r]
		if math.Abs(w) <= 1e-10 {
			continue
		}
		bi := s.basic[r]
		// x_B[r] moves by -dir·w·t.
		delta := -dir * w
		var room float64
		if delta > 0 {
			if math.IsInf(s.upper[bi], 1) {
				continue
			}
			room = (s.upper[bi] - s.xB[r]) / delta
		} else {
			if math.IsInf(s.lower[bi], -1) {
				continue
			}
			room = (s.lower[bi] - s.xB[r]) / delta
		}
		if room < -tol {
			room = 0
		}
		if room < t-1e-12 || (room < t+1e-12 && math.Abs(w) > bestPivot) {
			t = room
			leaveRow = r
			bestPivot = math.Abs(w)
			flip = false
		}
	}
	if t < 0 {
		t = 0
	}
	return leaveRow, t, flip
}

// pivot applies the chosen step: updates basic values, flips bounds,
// or swaps the entering and leaving columns and appends an eta.
func (s *solver) pivot(j int, dir float64, leaveRow int, t float64, flip bool) {
	if t > tol {
		s.stallCount = 0
	} else {
		s.stallCount++
	}
	// Move basic values.
	if t > 0 {
		for r := 0; r < s.m; r++ {
			if s.w[r] != 0 {
				s.xB[r] -= dir * s.w[r] * t
			}
		}
	}
	if flip {
		// Entering variable runs to its opposite bound; basis is
		// unchanged.
		if dir > 0 {
			s.state[j] = atUpper
		} else {
			s.state[j] = atLower
		}
		return
	}
	// Entering becomes basic in leaveRow at value bound + dir·t.
	enterVal := s.valueAtBound(j) + dir*t
	leaving := s.basic[leaveRow]
	// Classify where the leaving column lands.
	if -dir*s.w[leaveRow] > 0 {
		s.state[leaving] = atUpper
	} else {
		s.state[leaving] = atLower
	}
	// Guard against -Inf/+Inf landings: a column leaving at an
	// infinite bound can only happen within tolerance of its finite
	// one; clamp to the finite side.
	if s.state[leaving] == atUpper && math.IsInf(s.upper[leaving], 1) {
		s.state[leaving] = atLower
	} else if s.state[leaving] == atLower && math.IsInf(s.lower[leaving], -1) {
		s.state[leaving] = atUpper
	}
	s.inRow[leaving] = -1
	s.state[j] = inBasis
	s.basic[leaveRow] = int32(j)
	s.inRow[j] = int32(leaveRow)
	s.xB[leaveRow] = enterVal

	// Record the eta for this pivot: the FTRANed entering column.
	col := make([]Entry, 0, 8)
	for r := 0; r < s.m; r++ {
		if v := s.w[r]; math.Abs(v) > 1e-12 || r == leaveRow {
			col = append(col, Entry{Row: int32(r), Val: v})
		}
	}
	s.etas = append(s.etas, eta{pivot: int32(leaveRow), col: col})
}

// refactor rebuilds the eta file from scratch for the current basis by
// product-form Gaussian elimination, keeping the file short. Returns
// false if the basis is numerically singular.
func (s *solver) refactor() bool {
	s.etas = s.etas[:0]
	m := s.m
	pivotedRow := make([]bool, m)
	type cand struct {
		col int32
		nnz int
	}
	// Greedy sparse ordering: repeatedly factor the remaining basic
	// column with the fewest nonzeros in unpivoted rows.
	remaining := make([]cand, 0, m)
	for r := 0; r < m; r++ {
		remaining = append(remaining, cand{col: s.basic[r]})
	}
	w := make([]float64, m)
	newBasic := make([]int32, 0, m)
	for len(remaining) > 0 {
		// Recount nnz in unpivoted rows (cheap: original column nnz).
		best := -1
		bestNNZ := 1 << 30
		for i := range remaining {
			nnz := 0
			for _, e := range s.cols[remaining[i].col] {
				if !pivotedRow[e.Row] {
					nnz++
				}
			}
			if nnz < bestNNZ {
				bestNNZ = nnz
				best = i
			}
		}
		j := remaining[best].col
		remaining = append(remaining[:best], remaining[best+1:]...)
		for r := range w {
			w[r] = 0
		}
		for _, e := range s.cols[j] {
			w[e.Row] = e.Val
		}
		s.ftran(w)
		// Pivot on the largest-magnitude unpivoted row.
		p, pv := -1, 0.0
		for r := 0; r < m; r++ {
			if pivotedRow[r] {
				continue
			}
			if a := math.Abs(w[r]); a > pv {
				pv = a
				p = r
			}
		}
		if p < 0 || pv < 1e-10 {
			return false
		}
		col := make([]Entry, 0, 8)
		for r := 0; r < m; r++ {
			if v := w[r]; math.Abs(v) > 1e-12 || r == p {
				col = append(col, Entry{Row: int32(r), Val: v})
			}
		}
		s.etas = append(s.etas, eta{pivot: int32(p), col: col})
		pivotedRow[p] = true
		newBasic = append(newBasic, j)
		s.basic[p] = j
		s.inRow[j] = int32(p)
	}
	// Recompute basic values: solve B x_B = b − N x_N.
	resid := make([]float64, m)
	copy(resid, s.lp.B)
	for j := 0; j < s.n; j++ {
		if s.state[j] == inBasis {
			continue
		}
		v := s.valueAtBound(j)
		if v == 0 {
			continue
		}
		for _, e := range s.cols[j] {
			resid[e.Row] -= e.Val * v
		}
	}
	s.ftran(resid)
	copy(s.xB, resid)
	return true
}

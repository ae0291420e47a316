package analytic

import (
	"fmt"
	"math"

	"repro/internal/stats"
)

// PH is a (possibly defective) continuous phase-type distribution with an
// atom at zero: with probability Mass0 the variable is exactly 0, otherwise
// it is the absorption time of a CTMC with initial row vector Alpha over the
// transient states and sub-generator S. Mass0 = 1 - sum(Alpha).
//
// Phase-type distributions are closed under mixture and convolution, which
// is exactly what the service time of Eq. (3) needs: T = Te + Tb + Tt where
// Te is a mixture over {I-encrypted, P-encrypted, plaintext}, Tb is zero
// with probability ps and exponential otherwise (Eq. 7), and Tt is a
// mixture over the I/P packet classes.
type PH struct {
	Alpha []float64
	S     *stats.Matrix
	Mass0 float64
}

// Dim returns the number of transient phases.
func (p PH) Dim() int { return len(p.Alpha) }

// Validate checks structural sanity of the representation.
func (p PH) Validate() error {
	if p.S == nil || p.S.Rows != p.S.Cols || p.S.Rows != len(p.Alpha) {
		return fmt.Errorf("analytic: PH shape mismatch")
	}
	sum := p.Mass0
	for _, a := range p.Alpha {
		if a < -1e-12 {
			return fmt.Errorf("analytic: negative initial probability %g", a)
		}
		sum += a
	}
	if math.Abs(sum-1) > 1e-9 {
		return fmt.Errorf("analytic: PH initial vector sums to %g, want 1", sum)
	}
	for i := 0; i < p.S.Rows; i++ {
		if p.S.At(i, i) >= 0 {
			return fmt.Errorf("analytic: PH diagonal must be negative at %d", i)
		}
		row := 0.0
		for j := 0; j < p.S.Cols; j++ {
			if i != j && p.S.At(i, j) < -1e-12 {
				return fmt.Errorf("analytic: negative off-diagonal at (%d,%d)", i, j)
			}
			row += p.S.At(i, j)
		}
		if row > 1e-9 {
			return fmt.Errorf("analytic: PH row %d sums to %g > 0", i, row)
		}
	}
	return nil
}

// ExitVector returns s* = -S e, the per-phase absorption rates.
func (p PH) ExitVector() []float64 {
	out := make([]float64, p.Dim())
	for i := 0; i < p.S.Rows; i++ {
		var row float64
		for j := 0; j < p.S.Cols; j++ {
			row += p.S.At(i, j)
		}
		out[i] = -row
	}
	return out
}

// PHExponential returns an exponential distribution with the given rate.
func PHExponential(rate float64) PH {
	if rate <= 0 {
		panic("analytic: PHExponential needs positive rate")
	}
	s := stats.NewMatrix(1, 1)
	s.Set(0, 0, -rate)
	return PH{Alpha: []float64{1}, S: s}
}

// PHErlang returns an Erlang distribution with k stages and the given total
// mean (each stage has rate k/mean).
func PHErlang(k int, mean float64) PH {
	if k <= 0 || mean <= 0 {
		panic("analytic: PHErlang needs k>0 and mean>0")
	}
	rate := float64(k) / mean
	s := stats.NewMatrix(k, k)
	for i := 0; i < k; i++ {
		s.Set(i, i, -rate)
		if i+1 < k {
			s.Set(i, i+1, rate)
		}
	}
	alpha := make([]float64, k)
	alpha[0] = 1
	return PH{Alpha: alpha, S: s}
}

// PHZero returns the distribution that is identically zero.
func PHZero() PH {
	s := stats.NewMatrix(1, 1)
	s.Set(0, 0, -1) // never entered: Alpha is all zero
	return PH{Alpha: []float64{0}, S: s, Mass0: 1}
}

// DefaultMaxErlangOrder bounds the number of stages used when fitting
// (near-)deterministic times. Higher orders match low variance better but
// add phases to the QBD level (the service PH convolves up to four fitted
// components of at most this many stages each), and SolveQueue's cost
// grows linearly with the phase count. 32 keeps the relative error of a constant's variance
// representation at ~3% of the squared mean while a planner-sized solve
// (125 service phases, 250 per QBD level) takes about a millisecond. The
// trade-off is quantified by BenchmarkAblationErlangOrder.
const DefaultMaxErlangOrder = 32

// PHFit2Moment returns a phase-type distribution matching the given mean
// and variance:
//
//   - cv² ≥ 1: a two-phase hyperexponential with balanced means,
//   - 1/maxOrder ≤ cv² < 1: the classic mixed-Erlang fit (Tijms), an
//     Erlang(k-1)/Erlang(k) mixture matching both moments exactly,
//   - cv² < 1/maxOrder (including deterministic): Erlang(maxOrder), which
//     matches the mean exactly and has the smallest representable variance.
//
// maxOrder ≤ 0 selects DefaultMaxErlangOrder.
func PHFit2Moment(mean, variance float64, maxOrder int) PH {
	if mean <= 0 {
		panic("analytic: PHFit2Moment needs positive mean")
	}
	if maxOrder <= 0 {
		maxOrder = DefaultMaxErlangOrder
	}
	cv2 := variance / (mean * mean)
	switch {
	case cv2 >= 1:
		if stats.ApproxEqual(cv2, 1, 1e-9) {
			return PHExponential(1 / mean)
		}
		// Balanced-means H2: p1/mu1 = p2/mu2.
		p1 := 0.5 * (1 + math.Sqrt((cv2-1)/(cv2+1)))
		p2 := 1 - p1
		mu1 := 2 * p1 / mean
		mu2 := 2 * p2 / mean
		s := stats.NewMatrix(2, 2)
		s.Set(0, 0, -mu1)
		s.Set(1, 1, -mu2)
		return PH{Alpha: []float64{p1, p2}, S: s}
	case cv2 <= 1.0/float64(maxOrder):
		return PHErlang(maxOrder, mean)
	default:
		k := int(math.Ceil(1 / cv2))
		if k < 2 {
			k = 2
		}
		if k > maxOrder {
			k = maxOrder
		}
		// Mixture of Erlang(k-1) w.p. p and Erlang(k) w.p. 1-p, common rate.
		fk := float64(k)
		p := (fk*cv2 - math.Sqrt(fk*(1+cv2)-fk*fk*cv2)) / (1 + cv2)
		if p < 0 {
			p = 0
		}
		if p > 1 {
			p = 1
		}
		rate := (fk - p) / mean
		// One chain of k stages; start at stage 1 w.p. p (k-1 stages left)
		// or stage 0 w.p. 1-p (k stages).
		s := stats.NewMatrix(k, k)
		for i := 0; i < k; i++ {
			s.Set(i, i, -rate)
			if i+1 < k {
				s.Set(i, i+1, rate)
			}
		}
		alpha := make([]float64, k)
		alpha[0] = 1 - p
		if k >= 2 {
			alpha[1] = p
		}
		return PH{Alpha: alpha, S: s}
	}
}

// Mixture returns the mixture distribution sum_i weights[i]*comps[i]. The
// weights must be non-negative and sum to 1.
func Mixture(weights []float64, comps []PH) PH {
	if len(weights) != len(comps) || len(comps) == 0 {
		panic("analytic: Mixture needs matching non-empty weights/components")
	}
	var wsum, dim0 float64
	dim := 0
	for i, w := range weights {
		if w < 0 {
			panic("analytic: negative mixture weight")
		}
		wsum += w
		dim += comps[i].Dim()
		dim0 += w * comps[i].Mass0
	}
	if math.Abs(wsum-1) > 1e-9 {
		panic(fmt.Sprintf("analytic: mixture weights sum to %g", wsum))
	}
	alpha := make([]float64, dim)
	s := stats.NewMatrix(dim, dim)
	off := 0
	for i, c := range comps {
		for j, a := range c.Alpha {
			alpha[off+j] = weights[i] * a
		}
		for r := 0; r < c.S.Rows; r++ {
			for cc := 0; cc < c.S.Cols; cc++ {
				s.Set(off+r, off+cc, c.S.At(r, cc))
			}
		}
		off += c.Dim()
	}
	return PH{Alpha: alpha, S: s, Mass0: dim0}
}

// Convolve returns the distribution of the sum of two independent
// phase-type variables.
func Convolve(a, b PH) PH {
	na, nb := a.Dim(), b.Dim()
	dim := na + nb
	alpha := make([]float64, dim)
	for i, v := range a.Alpha {
		alpha[i] = v
	}
	// If a is zero (its atom), start directly in b.
	for j, v := range b.Alpha {
		alpha[na+j] += a.Mass0 * v
	}
	s := stats.NewMatrix(dim, dim)
	for r := 0; r < na; r++ {
		for c := 0; c < na; c++ {
			s.Set(r, c, a.S.At(r, c))
		}
	}
	exitA := a.ExitVector()
	for r := 0; r < na; r++ {
		for c := 0; c < nb; c++ {
			s.Set(r, na+c, exitA[r]*b.Alpha[c])
		}
	}
	for r := 0; r < nb; r++ {
		for c := 0; c < nb; c++ {
			s.Set(na+r, na+c, b.S.At(r, c))
		}
	}
	return PH{Alpha: alpha, S: s, Mass0: a.Mass0 * b.Mass0}
}

// ConvolveAll folds Convolve over the given distributions.
func ConvolveAll(ps ...PH) PH {
	if len(ps) == 0 {
		return PHZero()
	}
	out := ps[0]
	for _, p := range ps[1:] {
		out = Convolve(out, p)
	}
	return out
}

// Compress removes phases that are unreachable (zero initial probability
// and zero inbound rate), shrinking convolution/mixture results. It is a
// cheap structural pass, not a minimal-order reduction, but it removes the
// dead branches that mixtures with zero weights produce.
func (p PH) Compress() PH {
	n := p.Dim()
	reach := make([]bool, n)
	// Seed with positive initial probabilities, then propagate.
	queue := make([]int, 0, n)
	for i, a := range p.Alpha {
		if a > 0 {
			reach[i] = true
			queue = append(queue, i)
		}
	}
	for len(queue) > 0 {
		i := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for j := 0; j < n; j++ {
			if i != j && !reach[j] && p.S.At(i, j) > 0 {
				reach[j] = true
				queue = append(queue, j)
			}
		}
	}
	keep := make([]int, 0, n)
	for i, r := range reach {
		if r {
			keep = append(keep, i)
		}
	}
	if len(keep) == n {
		return p
	}
	if len(keep) == 0 {
		return PHZero()
	}
	alpha := make([]float64, len(keep))
	s := stats.NewMatrix(len(keep), len(keep))
	for r, i := range keep {
		alpha[r] = p.Alpha[i]
		for c, j := range keep {
			s.Set(r, c, p.S.At(i, j))
		}
	}
	return PH{Alpha: alpha, S: s, Mass0: p.Mass0}
}

// Moment returns the k-th raw moment E[T^k] = k! * alpha * (-S)^{-k} * e
// (the atom at zero contributes nothing).
func (p PH) Moment(k int) float64 {
	if k <= 0 {
		panic("analytic: Moment needs k >= 1")
	}
	negS := p.S.Scale(-1)
	inv, err := negS.Inverse()
	if err != nil {
		panic("analytic: PH sub-generator singular: " + err.Error())
	}
	v := make([]float64, p.Dim())
	copy(v, p.Alpha)
	fact := 1.0
	for i := 1; i <= k; i++ {
		v = inv.VecMul(v)
		fact *= float64(i)
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	return fact * sum
}

// Mean returns E[T].
func (p PH) Mean() float64 { return p.Moment(1) }

// Variance returns Var[T].
func (p PH) Variance() float64 {
	m1 := p.Moment(1)
	return p.Moment(2) - m1*m1
}

// LST evaluates the Laplace-Stieltjes transform E[e^{-sT}] at real s ≥ 0:
// Mass0 + alpha (sI - S)^{-1} s*.
func (p PH) LST(s float64) float64 {
	n := p.Dim()
	m := stats.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			v := -p.S.At(i, j)
			if i == j {
				v += s
			}
			m.Set(i, j, v)
		}
	}
	x, err := m.Solve(p.ExitVector())
	if err != nil {
		panic("analytic: LST solve failed: " + err.Error())
	}
	var sum float64
	for i, a := range p.Alpha {
		sum += a * x[i]
	}
	return p.Mass0 + sum
}

// Sample draws one value from the distribution.
func (p PH) Sample(rng *stats.RNG) float64 {
	u := rng.Float64()
	if u < p.Mass0 {
		return 0
	}
	// Choose initial phase.
	u -= p.Mass0
	phase := -1
	for i, a := range p.Alpha {
		if u < a {
			phase = i
			break
		}
		u -= a
	}
	if phase < 0 {
		phase = p.Dim() - 1
	}
	exit := p.ExitVector()
	var t float64
	for {
		rate := -p.S.At(phase, phase)
		t += rng.Exp(rate)
		// Absorb or jump.
		v := rng.Float64() * rate
		if v < exit[phase] {
			return t
		}
		v -= exit[phase]
		next := phase
		for j := 0; j < p.Dim(); j++ {
			if j == phase {
				continue
			}
			r := p.S.At(phase, j)
			if v < r {
				next = j
				break
			}
			v -= r
		}
		phase = next
	}
}

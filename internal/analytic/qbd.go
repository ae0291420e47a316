package analytic

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/stats"
)

// QueueResult holds the stationary performance metrics of the sender queue
// under one encryption policy, the analytical counterparts of the
// measurements in Figs. 7-8.
type QueueResult struct {
	Rho          float64 // traffic intensity lambda * E[S]
	MeanWait     float64 // E[W]: mean time in queue before service (Eq. 19)
	MeanSojourn  float64 // E[W] + E[S]: queue entry to transmission complete
	MeanService  float64 // E[S]
	MeanQueueLen float64 // E[Lq]: mean number waiting
	MeanInSystem float64 // E[L]
	VarInSystem  float64 // Var[L]: queue-length variance (jitter indicator)
	PBusy        float64 // P{server busy}
	// TailDecay is the geometric decay rate of the queue-length tail,
	// the spectral radius of the R matrix: P{L >= k} ~ C * TailDecay^k.
	// A playout buffer sized for k levels misses with roughly this
	// geometric probability.
	TailDecay float64
	Phases    int // QBD phase count per level, 2 x service phases (diagnostics)
	// Iterations counts the Newton steps that found the 2x2 busy-period
	// matrix Ĝ (diagnostics); each step is ten back-substitutions.
	Iterations int
}

// ErrUnstable is returned when the offered load is at or beyond capacity.
var ErrUnstable = errors.New("analytic: queue unstable (rho >= 1)")

// SolveQueue computes the stationary mean delay of the 2-MMPP/G/1 sender
// queue of Section 4.2 for the given arrival process and service
// parameters. The service distribution is represented as a phase-type fit
// (exact in its first two moments per component) and the resulting
// MMPP/PH/1 queue is solved exactly as a quasi-birth-death process. This
// is the same quantity the numerical procedure of [18]/[16] behind
// Eq. (19) computes; in the Poisson limit (Lambda1 = Lambda2) it reduces
// to Pollaczek-Khinchine, which the tests assert.
//
// The solve never forms a level block. Service completions have rank 2,
// so the QBD's G matrix follows from the 2x2 busy-period matrix Ĝ, which
// Newton's method finds in a handful of steps. The service sub-generator
// is upper-triangular (every PH that ServiceParams.PH builds is), so each
// step solves (X ⊕ S) y = r by back-substitution over 2x2 blocks, and the
// R-matrix products the metrics need apply the Woodbury identity to such
// a solve. Each solve costs O(nnz(S)), a call makes a few hundred, and a
// call takes about a millisecond at the planner's 250 phases per level.
// SolveQueue returns an error, never a number, when the service
// sub-generator is not upper-triangular.
func SolveQueue(arrival MMPP2, service ServiceParams) (QueueResult, error) {
	if err := arrival.Validate(); err != nil {
		return QueueResult{}, err
	}
	if err := service.Validate(); err != nil {
		return QueueResult{}, err
	}
	m1, _ := service.Moments()
	lambda := arrival.MeanRate()
	rho := lambda * m1
	if rho >= 1 {
		return QueueResult{Rho: rho}, fmt.Errorf("%w: rho=%.4f", ErrUnstable, rho)
	}
	ph := service.PH()
	if ph.Mass0 > 1e-12 {
		return QueueResult{}, fmt.Errorf("analytic: service time has an atom at zero (%.3g); transmission must take positive time", ph.Mass0)
	}
	return solveMMPPPH1(arrival, ph, lambda, m1, rho)
}

// mat2 is a 2x2 matrix over the MMPP's arrival phases.
type mat2 [2][2]float64

func (x mat2) add(y mat2) mat2 {
	return mat2{{x[0][0] + y[0][0], x[0][1] + y[0][1]}, {x[1][0] + y[1][0], x[1][1] + y[1][1]}}
}

func (x mat2) mul(y mat2) mat2 {
	var z mat2
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			z[i][j] = x[i][0]*y[0][j] + x[i][1]*y[1][j]
		}
	}
	return z
}

func (x mat2) inverse() mat2 {
	det := x[0][0]*x[1][1] - x[0][1]*x[1][0]
	return mat2{{x[1][1] / det, -x[0][1] / det}, {-x[1][0] / det, x[0][0] / det}}
}

func (x mat2) vec(v [2]float64) [2]float64 {
	return [2]float64{x[0][0]*v[0] + x[0][1]*v[1], x[1][0]*v[0] + x[1][1]*v[1]}
}

func toMat2(m *stats.Matrix) mat2 {
	return mat2{{m.At(0, 0), m.At(0, 1)}, {m.At(1, 0), m.At(1, 1)}}
}

// qbd is the 2-MMPP/PH/1 queue as a level-independent QBD in Kronecker
// form. A level ≥ 1 phase is (arrival a, service s), stored at a*ms+s, and
// the level blocks are
//
//	A0 = D1 ⊗ I             arrival (level up)
//	A1 = D0 ⊕ S             local transitions
//	A2 = (I ⊗ s*)(I ⊗ β)    service completion (level down), rank 2
//
// The first-passage matrix is G = Y(I ⊗ β) with Y = -((D0+D1Ĝ) ⊕ S)⁻¹(I ⊗ s*)
// and Ĝ = (I ⊗ β)Y. So A0G = PQ with P = (D1 ⊗ I)Y, Q = I ⊗ β, and
//
//	U = -(A1 + A0G) = -(K0 + PQ),  K0 = D0 ⊕ S,
//	U - A0          = -(K1 + PQ),  K1 = (D0+D1) ⊕ S,
//
// both a block-triangular matrix plus a rank-2 term.
type qbd struct {
	d0, d1     mat2
	ms         int
	beta, exit []float64
	// S split into its diagonal and its strictly upper nonzeros, row s
	// holding (col[k], val[k]) for k in rowStart[s]..rowStart[s+1].
	diag     []float64
	rowStart []int
	col      []int
	val      []float64

	ghat   mat2
	iters  int          // Newton steps taken for Ĝ
	y      [2][]float64 // columns of Y
	k0, k1 lowRank
	tmp    []float64
}

// lowRank applies (x ⊕ S + PQ)⁻¹ by the Woodbury identity:
// (K + PQ)⁻¹v = K⁻¹v - Z C⁻¹ Q K⁻¹v with Z = K⁻¹P and C = I + QZ.
type lowRank struct {
	x    mat2
	z    [2][]float64
	cInv mat2
}

// errNotTriangular reports a service sub-generator the structured solve
// cannot back-substitute.
var errNotTriangular = errors.New("analytic: service sub-generator is not upper-triangular")

// newQBD builds the Kronecker form of the queue, checks that S is
// upper-triangular, finds Ĝ and prepares the solves with U and U - A0.
func newQBD(arrival MMPP2, ph PH) (q *qbd, err error) {
	ms := ph.Dim()
	q = &qbd{
		d0: toMat2(arrival.D0()), d1: toMat2(arrival.D1()),
		ms: ms, beta: ph.Alpha, exit: ph.ExitVector(),
		diag: make([]float64, ms), rowStart: make([]int, ms+1),
	}
	nnz := 0
	for s := 0; s < ms; s++ {
		for t := 0; t < ms; t++ {
			v := ph.S.At(s, t)
			if t == s || v == 0 { //lint:allow floateq exact structure test; any nonzero below the diagonal breaks back-substitution
				continue
			}
			if t < s {
				return nil, fmt.Errorf("%w: S[%d,%d] = %g", errNotTriangular, s, t, v)
			}
			nnz++
		}
	}
	q.col, q.val = make([]int, 0, nnz), make([]float64, 0, nnz)
	for s := 0; s < ms; s++ {
		q.diag[s] = ph.S.At(s, s)
		for t := s + 1; t < ms; t++ {
			if v := ph.S.At(s, t); v != 0 { //lint:allow floateq exact sparsity; skipped entries contribute exactly zero
				q.col = append(q.col, t)
				q.val = append(q.val, v)
			}
		}
		q.rowStart[s+1] = len(q.col)
	}
	// One backing array for every length-n vector the solve keeps.
	n := 2 * ms
	buf := make([]float64, 7*n)
	vec := func() []float64 { v := buf[:n:n]; buf = buf[n:]; return v }
	q.y = [2][]float64{vec(), vec()}
	q.k0.z = [2][]float64{vec(), vec()}
	q.k1.z = [2][]float64{vec(), vec()}
	q.tmp = vec()
	if q.iters, err = q.solveG(); err != nil {
		return nil, err
	}
	q.setLowRank(&q.k0, q.d0)
	q.setLowRank(&q.k1, q.d0.add(q.d1))
	return q, nil
}

// kronSolve overwrites r with the solution y of (x ⊕ S)y = r, where
// x ⊕ S = x ⊗ I + I ⊗ S. S is upper-triangular, so the service phases are
// solved from the last one back, each a 2x2 block x + S[s,s]I.
func (q *qbd) kronSolve(x mat2, r []float64) {
	ms := q.ms
	for s := ms - 1; s >= 0; s-- {
		r0, r1 := r[s], r[ms+s]
		for k := q.rowStart[s]; k < q.rowStart[s+1]; k++ {
			t, v := q.col[k], q.val[k]
			r0 -= v * r[t]
			r1 -= v * r[ms+t]
		}
		d := q.diag[s]
		a, b, c, e := x[0][0]+d, x[0][1], x[1][0], x[1][1]+d
		det := a*e - b*c
		r[s] = (e*r0 - b*r1) / det
		r[ms+s] = (a*r1 - c*r0) / det
	}
}

// betaDot returns (I ⊗ β)v.
func (q *qbd) betaDot(v []float64) [2]float64 {
	var out [2]float64
	for s, b := range q.beta {
		out[0] += b * v[s]
		out[1] += b * v[q.ms+s]
	}
	return out
}

// arrive sets dst = scale (x ⊗ I)src; dst may alias src.
func (q *qbd) arrive(dst, src []float64, x mat2, scale float64) {
	ms := q.ms
	for s := 0; s < ms; s++ {
		v0, v1 := src[s], src[ms+s]
		dst[s] = scale * (x[0][0]*v0 + x[0][1]*v1)
		dst[ms+s] = scale * (x[1][0]*v0 + x[1][1]*v1)
	}
}

// fillY sets the columns of Y = -((D0 + D1X) ⊕ S)⁻¹(I ⊗ s*) and returns
// (I ⊗ β)Y, the Newton map's value at X.
func (q *qbd) fillY(m mat2) mat2 {
	var f mat2
	for c := 0; c < 2; c++ {
		y := q.y[c]
		for i := range y {
			y[i] = 0
		}
		for s, e := range q.exit {
			y[c*q.ms+s] = -e
		}
		q.kronSolve(m, y)
		col := q.betaDot(y)
		f[0][c], f[1][c] = col[0], col[1]
	}
	return f
}

// solveG finds Ĝ, the arrival-phase transition matrix over a busy period,
// as the minimal fixed point of F(X) = (I ⊗ β)Y(X). F is entrywise
// monotone and convex in X, so Newton's method from X = 0 increases
// monotonically to that fixed point and converges quadratically. It
// returns the number of Newton steps.
func (q *qbd) solveG() (int, error) {
	const maxIter = 64
	var x mat2
	for iter := 0; ; iter++ {
		m := q.d0.add(q.d1.mul(x))
		f := q.fillY(m)
		if iter == maxIter {
			return iter, errors.New("analytic: Newton iteration for G did not converge")
		}
		// The derivative of F along E is (I ⊗ β)(-(M ⊕ S))⁻¹((D1E) ⊗ I)Y;
		// column 2i+j of jac is F's derivative along the unit matrix E_ij.
		var jac [4][4]float64
		w := q.tmp
		for i := 0; i < 2; i++ {
			for j := 0; j < 2; j++ {
				for c := 0; c < 2; c++ {
					yj := q.y[c][j*q.ms : (j+1)*q.ms]
					for a := 0; a < 2; a++ {
						for s, v := range yj {
							w[a*q.ms+s] = -q.d1[a][i] * v
						}
					}
					q.kronSolve(m, w)
					col := q.betaDot(w)
					jac[c][2*i+j] = col[0]
					jac[2+c][2*i+j] = col[1]
				}
			}
		}
		// Newton step: (I - J)δ = F(X) - X.
		var rhs [4]float64
		for k := range jac {
			rhs[k] = f[k/2][k%2] - x[k/2][k%2]
			for l := range jac[k] {
				jac[k][l] = -jac[k][l]
			}
			jac[k][k]++
		}
		delta := solve4(jac, rhs)
		step := 0.0
		for k, d := range delta {
			x[k/2][k%2] += d
			step = math.Max(step, math.Abs(d))
		}
		if step < 1e-12 {
			q.ghat = q.fillY(q.d0.add(q.d1.mul(x)))
			return iter + 1, nil
		}
		if math.IsNaN(step) {
			return iter + 1, errors.New("analytic: Newton iteration for G is singular")
		}
	}
}

// solve4 solves the 4x4 system a·x = b by Gaussian elimination with
// partial pivoting.
func solve4(a [4][4]float64, b [4]float64) [4]float64 {
	for k := 0; k < 4; k++ {
		p := k
		for i := k + 1; i < 4; i++ {
			if math.Abs(a[i][k]) > math.Abs(a[p][k]) {
				p = i
			}
		}
		a[k], a[p] = a[p], a[k]
		b[k], b[p] = b[p], b[k]
		for i := k + 1; i < 4; i++ {
			f := a[i][k] / a[k][k]
			for j := k; j < 4; j++ {
				a[i][j] -= f * a[k][j]
			}
			b[i] -= f * b[k]
		}
	}
	var x [4]float64
	for i := 3; i >= 0; i-- {
		s := b[i]
		for j := i + 1; j < 4; j++ {
			s -= a[i][j] * x[j]
		}
		x[i] = s / a[i][i]
	}
	return x
}

// setLowRank prepares l to apply (x ⊕ S + PQ)⁻¹ for P = (D1 ⊗ I)Y.
func (q *qbd) setLowRank(l *lowRank, x mat2) {
	l.x = x
	var c mat2
	for k := 0; k < 2; k++ {
		q.arrive(l.z[k], q.y[k], q.d1, 1)
		q.kronSolve(x, l.z[k])
		col := q.betaDot(l.z[k])
		c[0][k], c[1][k] = col[0], col[1]
	}
	c[0][0]++
	c[1][1]++
	l.cInv = c.inverse()
}

// solveLowRank overwrites v with (x ⊕ S + PQ)⁻¹v.
func (q *qbd) solveLowRank(l *lowRank, v []float64) {
	q.kronSolve(l.x, v)
	h := l.cInv.vec(q.betaDot(v))
	for i := range v {
		v[i] -= l.z[0][i]*h[0] + l.z[1][i]*h[1]
	}
}

// applyR sets dst = Rsrc = A0U⁻¹src = -(D1 ⊗ I)(K0 + PQ)⁻¹src.
func (q *qbd) applyR(dst, src []float64) {
	copy(dst, src)
	q.solveLowRank(&q.k0, dst)
	q.arrive(dst, dst, q.d1, -1)
}

// applyGeom sets dst = (I-R)⁻¹src = U(U-A0)⁻¹src = src + A0(U-A0)⁻¹src
// = src - (D1 ⊗ I)(K1 + PQ)⁻¹src.
func (q *qbd) applyGeom(dst, src []float64) {
	copy(q.tmp, src)
	q.solveLowRank(&q.k1, q.tmp)
	q.arrive(q.tmp, q.tmp, q.d1, 1)
	for i := range dst {
		dst[i] = src[i] - q.tmp[i]
	}
}

// level1 returns B01U⁻¹v = -D1(I ⊗ β)(K0 + PQ)⁻¹v, so that x1·v = x0·level1(v)
// with x1 = x0B01U⁻¹ and B01 = D1 ⊗ β.
func (q *qbd) level1(v []float64) [2]float64 {
	copy(q.tmp, v)
	q.solveLowRank(&q.k0, q.tmp)
	w := q.d1.vec(q.betaDot(q.tmp))
	return [2]float64{-w[0], -w[1]}
}

// tailDecay estimates the spectral radius of R by power iteration with a
// Rayleigh quotient, one R product per step; v and w are scratch.
func (q *qbd) tailDecay(v, w []float64) float64 {
	for i := range v {
		v[i] = 1
	}
	q.applyR(w, v)
	radius := 0.0
	for iter := 0; iter < 200; iter++ {
		var norm float64
		for _, x := range w {
			norm += x * x
		}
		norm = math.Sqrt(norm)
		if stats.NearZero(norm) {
			return 0
		}
		for i := range w {
			w[i] /= norm
		}
		// v = Rw is both the Rayleigh numerator and the next iterate.
		q.applyR(v, w)
		var num, den float64
		for i := range w {
			num += w[i] * v[i]
			den += w[i] * w[i]
		}
		next := num / den
		if math.Abs(next-radius) < 1e-12 {
			return next
		}
		radius = next
		v, w = w, v
	}
	return radius
}

// solveMMPPPH1 solves the 2-MMPP/PH/1 queue with service PH (β, S).
// Levels count customers in system; level 0 holds the arrival phase only.
func solveMMPPPH1(arrival MMPP2, ph PH, lambda, meanService, rho float64) (QueueResult, error) {
	q, err := newQBD(arrival, ph)
	if err != nil {
		return QueueResult{}, err
	}
	// Boundary: x0 D0 + x1 B10 = 0 and x0 B01 + x1(A1 + RA2) = 0 give
	// x1 = x0B01U⁻¹ and x0(D0 + B01U⁻¹B10) = 0. With B10 = I ⊗ s*,
	// U⁻¹B10 = Y, so B01U⁻¹B10 = D1Ĝ and x0 is the stationary vector of
	// the 2-state generator D0 + D1Ĝ, normalised by
	// x0·e + x1(I-R)⁻¹e = 1.
	n := 2 * q.ms
	scratch := make([]float64, 4*n)
	geom, geom2, geom3, r3 := scratch[:n], scratch[n:2*n], scratch[2*n:3*n], scratch[3*n:]
	for i := range r3 {
		r3[i] = 1
	}
	// E[L] = sum_{k>=1} k x_k e = x1 (I-R)^{-2} e,
	// E[Lq] = sum_{k>=1} (k-1) x_k e = E[L] - x1 (I-R)^{-1} e,
	// E[L^2] = sum_{k>=1} k^2 x_k e = x1 (I+R)(I-R)^{-3} e.
	q.applyGeom(geom, r3)
	q.applyGeom(geom2, geom)
	q.applyGeom(geom3, geom2)
	q.applyR(r3, geom3)
	for i := range r3 {
		r3[i] += geom3[i]
	}
	m := q.d0.add(q.d1.mul(q.ghat))
	x0 := [2]float64{m[1][0], m[0][1]}
	busyRow, lRow, l2Row := q.level1(geom), q.level1(geom2), q.level1(r3)
	norm := x0[0] + x0[1] + x0[0]*busyRow[0] + x0[1]*busyRow[1]
	x0[0] /= norm
	x0[1] /= norm
	dot := func(v [2]float64) float64 { return x0[0]*v[0] + x0[1]*v[1] }
	meanL, meanL2, busy := dot(lRow), dot(l2Row), dot(busyRow)
	meanLq := meanL - busy
	if meanLq < 0 && meanLq > -1e-9 {
		meanLq = 0
	}
	res := QueueResult{
		Rho:          rho,
		MeanService:  meanService,
		MeanQueueLen: meanLq,
		MeanInSystem: meanL,
		VarInSystem:  meanL2 - meanL*meanL,
		PBusy:        busy,
		TailDecay:    q.tailDecay(geom, geom2),
		MeanWait:     meanLq / lambda,
		Phases:       n,
		Iterations:   q.iters,
	}
	res.MeanSojourn = res.MeanWait + meanService
	for _, v := range []float64{res.MeanWait, res.VarInSystem, res.PBusy, res.TailDecay} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return QueueResult{}, errors.New("analytic: QBD solve produced a non-finite result")
		}
	}
	return res, nil
}

// MGOneWait returns the Pollaczek-Khinchine mean waiting time of an M/G/1
// queue with arrival rate lambda and service moments (m1, m2):
// E[W] = lambda*m2 / (2(1-rho)). It is the degenerate-MMPP reference used
// in validation tests.
func MGOneWait(lambda, m1, m2 float64) (float64, error) {
	rho := lambda * m1
	if rho >= 1 {
		return 0, ErrUnstable
	}
	return lambda * m2 / (2 * (1 - rho)), nil
}

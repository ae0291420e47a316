package main

import (
	"fmt"
	"time"

	"repro/internal/analytic"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/vcrypt"
	"repro/internal/video"
)

// plan is the Fig. 1 planner that `thriftyvid plan` runs: one op is a
// core.Plan call over the CLI's 8 AES256 candidates with a 20 dB
// eavesdropper target, on a calibration made once at set-up from the
// stored medium-motion distortion profile and the Samsung S-II profile.
type plan struct {
	cal        *core.Calibration
	cands      []vcrypt.Policy
	calibrated time.Duration

	// The last op's outputs: every prediction, in candidate order, and
	// the chosen one (untraced ops only; a traced op predicts each
	// candidate under its own span instead of calling Plan).
	preds   []core.Prediction
	best    *core.Prediction
	ref     []core.Prediction // the first op's predictions
	refBest *core.Prediction  // the first untraced op's choice

	solveAllocs []float64
}

func newPlan(seed uint64) (workload, error) {
	c, err := newClip(seed, false)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	cal, err := core.Calibrate(c.encoded, c.cfg, clipFPS, clipMTU, energy.SamsungGalaxySII(),
		core.DefaultNetwork(), core.ProfileFor(video.MotionMedium))
	if err != nil {
		return nil, fmt.Errorf("calibrate: %w", err)
	}
	p := &plan{cal: cal, calibrated: time.Since(t0)}
	for _, mode := range []vcrypt.Mode{vcrypt.ModeNone, vcrypt.ModeIFrames, vcrypt.ModePFrames, vcrypt.ModeAll} {
		p.cands = append(p.cands, vcrypt.Policy{Mode: mode, Alg: vcrypt.AES256})
	}
	for _, frac := range []float64{0.1, 0.2, 0.3, 0.5} {
		p.cands = append(p.cands, vcrypt.Policy{Mode: vcrypt.ModeIPlusFracP, FracP: frac, Alg: vcrypt.AES256})
	}
	return p, nil
}

func (p *plan) op(tr *tracer) error {
	p.preds, p.best = nil, nil
	if tr == nil {
		best, all, err := core.Plan(p.cal, p.cands, maxEavesdropperPSNR)
		if err != nil {
			return err
		}
		// Plan returns the predictions sorted by delay; index them by
		// candidate for the check.
		p.preds = make([]core.Prediction, len(p.cands))
		for _, pr := range all {
			for i, c := range p.cands {
				if pr.Policy == c {
					p.preds[i] = pr
				}
			}
		}
		p.best = &best
		return nil
	}
	for _, c := range p.cands {
		tr.begin("core.Predict", "core")
		pr, err := p.cal.Predict(c)
		tr.end()
		if err != nil {
			return err
		}
		p.preds = append(p.preds, pr)
	}
	return nil
}

// check compares the op's predictions and choice with the first op's:
// the planner is deterministic. Every choice must also follow Plan's
// rule: the lowest-delay candidate within the target.
func (p *plan) check() error {
	if len(p.preds) != len(p.cands) {
		return nil // the op failed and reported why
	}
	for i, pr := range p.preds {
		if pr.Policy != p.cands[i] {
			return fmt.Errorf("no prediction for %s", p.cands[i].Name())
		}
	}
	if p.ref == nil {
		p.ref = p.preds
	}
	for i, pr := range p.preds {
		if pr != p.ref[i] {
			return fmt.Errorf("%s: prediction %+v differs from the first op's %+v", pr.Policy.Name(), pr, p.ref[i])
		}
	}
	if p.best == nil {
		return nil
	}
	var want *core.Prediction
	for i := range p.preds {
		pr := &p.preds[i]
		if pr.EavesdropperPSNR <= maxEavesdropperPSNR && (want == nil || pr.MeanSojourn < want.MeanSojourn) {
			want = pr
		}
	}
	if want == nil || p.best.Policy != want.Policy {
		return fmt.Errorf("plan chose %s, the rule picks %v", p.best.Policy.Name(), want)
	}
	if p.refBest == nil {
		p.refBest = p.best
	}
	if *p.best != *p.refBest {
		return fmt.Errorf("plan chose %s, the first op chose %s", p.best.Policy.Name(), p.refBest.Policy.Name())
	}
	return nil
}

// probe times the queue solver alone on each candidate's service model:
// Predict minus SolveQueue is the distortion and power model's cost.
func (p *plan) probe(tr *tracer) error {
	for _, c := range p.cands {
		sp, err := p.cal.ServiceParams(c)
		if err != nil {
			return err
		}
		m0 := mallocs()
		tr.begin("analytic.SolveQueue", "analytic")
		_, err = analytic.SolveQueue(p.cal.Arrival, sp)
		tr.end()
		p.solveAllocs = append(p.solveAllocs, float64(mallocs()-m0))
		if err != nil {
			return fmt.Errorf("%s: %w", c.Name(), err)
		}
	}
	return nil
}

func (p *plan) layerMetrics(tr *tracer, _ *loopStats, out metrics) {
	solve := tr.durations("analytic.SolveQueue")
	out["analytic.solve_queue_ms.p50"] = median(solve) * 1e3
	out["analytic.solve_queue_ms.max"] = quantile(solve, 1) * 1e3
	out["analytic.solve_allocs_per_call"] = mean(p.solveAllocs)
	out["core.predict_ms"] = mean(tr.durations("core.Predict")) * 1e3
	out["core.calibrate_ms"] = ms(p.calibrated)
}

func (p *plan) close() {}

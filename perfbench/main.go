// Command perfbench is the repository's benchmark. It runs one named
// workload in-process over loopback for a fixed time, checks the output
// of every op, and prints every metric by name and unit, ending with one
// JSON line:
//
//	go run . --workload upload --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// records spans around the calls into each layer and reports the
// per-layer metrics instead. See README.md for the workloads.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"time"
)

// workload is one set-up instance of a workload.
type workload interface {
	// op runs one measured operation; tr is nil on untraced ops.
	op(tr *tracer) error
	// check verifies the outputs of the op just run, untimed, and
	// returns the instance to a clean state for the next op even when
	// the op or the check failed.
	check() error
	// probe batch-times the workload's cheap layer calls once, after the
	// measured ops of a traced run.
	probe(tr *tracer) error
	// layerMetrics derives the workload's per-layer metrics from its
	// spans and op records.
	layerMetrics(tr *tracer, st *loopStats, out metrics)
	close()
}

// spec names a workload and how to run it; BENCHMARK.json says why each
// exists.
type spec struct {
	name   string
	warmup int // untimed ops before measuring (they are still checked)
	cycle  int // ops run in whole multiples of this many
	setup  func(seed uint64) (workload, error)
}

var specs = []spec{
	{name: "upload", warmup: 1, cycle: clipsPerRun, setup: newUpload},
	{name: "ingest", warmup: 1, cycle: 1, setup: newIngest},
	{name: "plan", warmup: 0, cycle: 1, setup: newPlan},
	{name: "simulate", warmup: simulateCycle, cycle: simulateCycle, setup: newSimulate},
}

func findSpec(name string) (spec, bool) {
	for _, sp := range specs {
		if sp.name == name {
			return sp, true
		}
	}
	return spec{}, false
}

const (
	// setupRuns is how many times an untraced run sets its workload up;
	// setup_s is the median.
	setupRuns = 3
	// overrun caps how far a run may exceed --seconds to finish a cycle.
	overrun = 60 * time.Second
	// maxLogged bounds how many op failures are printed.
	maxLogged = 5
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: upload|ingest|plan|simulate")
	seed := fs.Uint64("seed", 1, "input seed: clip synthesis, medium RNG, resuming sessions")
	seconds := fs.Float64("seconds", 10, "how long to measure")
	trace := fs.Int("trace", 0, "0 = end-to-end metrics, 1 = traced run with per-layer metrics")
	traceDir := fs.String("trace-dir", "", "directory for the span dump of a traced run (empty = keep spans in memory only)")
	list := fs.Bool("list", false, "print the metric catalogue as JSON and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		return printCatalogue(stdout, stderr)
	}
	sp, ok := findSpec(*name)
	if !ok || (*trace != 0 && *trace != 1) || *seconds < 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload upload|ingest|plan|simulate, --seconds >= 0 and --trace 0|1\n")
		return 2
	}
	budget := time.Duration(*seconds * float64(time.Second))
	fmt.Fprintf(stdout, "perfbench workload=%s seed=%d seconds=%g trace=%d\n", sp.name, *seed, *seconds, *trace)

	var (
		rep report
		err error
	)
	if *trace == 0 {
		rep, err = runEndToEnd(sp, *seed, budget, stderr)
	} else {
		rep, err = runTraced(sp, *seed, budget, *traceDir, stdout, stderr)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return rep.print(stdout, *trace == 1)
}

// opRecord is one measured op.
type opRecord struct {
	wall, cpu time.Duration
	traced    bool
}

// loopStats describes one measuring loop.
type loopStats struct {
	ops             []opRecord
	mallocs         uint64  // heap objects allocated during the loop
	gcCPU, totalCPU float64 // runtime-estimated CPU seconds during the loop
}

// walls returns the wall times in seconds of the ops with the given
// tracing state.
func (st *loopStats) walls(traced bool) []float64 {
	var out []float64
	for _, o := range st.ops {
		if o.traced == traced {
			out = append(out, o.wall.Seconds())
		}
	}
	return out
}

// cpuPerOp is the mean process CPU time of an op.
func (st *loopStats) cpuPerOp() time.Duration {
	var sum time.Duration
	for _, o := range st.ops {
		sum += o.cpu
	}
	return sum / time.Duration(len(st.ops))
}

// failures counts and reports failed ops.
type failures struct {
	attempted, failed int
	log               io.Writer
}

func (f *failures) record(name string, i int, err error) {
	f.attempted++
	if err == nil {
		return
	}
	f.failed++
	if f.failed <= maxLogged {
		fmt.Fprintf(f.log, "perfbench: %s op %d failed: %v\n", name, i, err)
	}
}

// runOp runs one op and its check, returning the op's timing.
func runOp(w workload, tr *tracer) (opRecord, error) {
	c0 := cpuTime()
	t0 := time.Now()
	tr.begin("op", "bench")
	err := w.op(tr)
	tr.end()
	rec := opRecord{wall: time.Since(t0), cpu: cpuTime() - c0, traced: tr != nil}
	return rec, errors.Join(err, w.check())
}

// warm runs the spec's untimed warm-up ops.
func warm(sp spec, w workload, f *failures) {
	for i := 0; i < sp.warmup; i++ {
		_, err := runOp(w, nil)
		f.record(sp.name+" warm-up", i, err)
	}
}

// loop runs ops for budget and then to the end of the current cycle, and
// for at least minOps ops. With a tracer, interleave alternates whole
// untraced and traced cycles, so both halves see the same op mix;
// otherwise every op gets tr.
func loop(sp spec, w workload, budget time.Duration, minOps int, tr *tracer, interleave bool, f *failures) loopStats {
	var st loopStats
	gc0, tot0 := gcCPUSeconds()
	m0 := mallocs()
	start := time.Now()
	for i := 0; ; i++ {
		el := time.Since(start)
		if i >= minOps && i%sp.cycle == 0 && el >= budget || el >= budget+overrun && i > 0 {
			break
		}
		t := tr
		if interleave && (i/sp.cycle)%2 == 0 {
			t = nil
		}
		rec, err := runOp(w, t)
		f.record(sp.name, i, err)
		st.ops = append(st.ops, rec)
	}
	st.mallocs = mallocs() - m0
	gc1, tot1 := gcCPUSeconds()
	st.gcCPU, st.totalCPU = gc1-gc0, tot1-tot0
	return st
}

// gcCPUSeconds reads the runtime's estimate of CPU seconds spent in the
// garbage collector and in total.
func gcCPUSeconds() (gc, total float64) {
	s := []rtmetrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	rtmetrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// runEndToEnd is the untraced run: set-up several times, warm up, then
// measure.
func runEndToEnd(sp spec, seed uint64, budget time.Duration, stderr io.Writer) (report, error) {
	var (
		w      workload
		setups []float64
	)
	for k := 0; k < setupRuns; k++ {
		t0 := time.Now()
		inst, err := sp.setup(seed)
		if err != nil {
			return report{}, fmt.Errorf("%s set-up: %w", sp.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if w != nil {
			w.close()
		}
		w = inst
		// Free the dropped instance now, so the peak RSS does not depend
		// on where the collector happened to run during set-up.
		runtime.GC()
	}
	defer w.close()
	f := &failures{log: stderr}
	warm(sp, w, f)
	st := loop(sp, w, budget, sp.cycle, nil, false, f)
	walls := st.walls(false)
	m := metrics{
		"setup_s":       median(setups),
		"op_p50_ms":     median(walls) * 1e3,
		"op_p90_ms":     quantile(walls, 0.9) * 1e3,
		"cpu_ms_per_op": ms(st.cpuPerOp()),
		"rss_mb":        peakRSSMB(),
	}
	return report{attempted: f.attempted, failed: f.failed, ops: len(st.ops), metrics: m}, nil
}

// runTraced measures the workload with tracing on alternate cycles, for
// the per-layer metrics and the tracing overhead, then samples one
// traced cycle of every other workload so that their layer metrics are
// measured in this run too.
func runTraced(sp spec, seed uint64, budget time.Duration, traceDir string, stdout, stderr io.Writer) (report, error) {
	f := &failures{log: stderr}
	m := metrics{}
	dump := traceDump{Workload: sp.name, Seed: seed, Spans: map[string][]span{}, SelfMs: map[string]float64{}}

	tr, st, err := traceOne(sp, seed, budget, true, f, m)
	if err != nil {
		return report{}, err
	}
	dump.Spans[sp.name] = tr.spans
	untraced, traced := median(st.walls(false)), median(st.walls(true))
	m["trace.overhead_frac"] = (traced - untraced) / untraced
	m["runtime.gc_cpu_frac"] = st.gcCPU / st.totalCPU
	nTraced := float64(len(st.walls(true)))
	self := tr.selfTime("op")
	layers := make([]string, 0, len(self))
	for layer := range self {
		layers = append(layers, layer)
	}
	sort.Strings(layers)
	for _, layer := range layers {
		dump.SelfMs[layer] = ms(self[layer]) / nTraced
		fmt.Fprintf(stdout, "self time %-10s %10.4f ms/op\n", layer, dump.SelfMs[layer])
	}

	for _, other := range specs {
		if other.name == sp.name {
			continue
		}
		otr, _, err := traceOne(other, seed, 0, false, f, m)
		if err != nil {
			return report{}, err
		}
		dump.Spans[other.name] = otr.spans
	}

	if traceDir != "" {
		path, err := writeTrace(traceDir, dump)
		if err != nil {
			return report{}, fmt.Errorf("write spans: %w", err)
		}
		fmt.Fprintf(stdout, "spans written to %s\n", path)
	}
	return report{attempted: f.attempted, failed: f.failed, ops: len(st.ops), metrics: m}, nil
}

// traceOne sets a workload up, runs its traced loop and its probe, and
// adds its per-layer metrics to m. With interleave, the loop runs for
// budget and alternates untraced and traced cycles; otherwise it runs
// one traced cycle.
func traceOne(sp spec, seed uint64, budget time.Duration, interleave bool, f *failures, m metrics) (*tracer, loopStats, error) {
	w, err := sp.setup(seed)
	if err != nil {
		return nil, loopStats{}, fmt.Errorf("%s set-up: %w", sp.name, err)
	}
	defer w.close()
	warm(sp, w, f)
	tr := newTracer()
	minOps := sp.cycle
	if interleave {
		minOps = 2 * sp.cycle
	}
	st := loop(sp, w, budget, minOps, tr, interleave, f)
	if err := w.probe(tr); err != nil {
		return nil, st, fmt.Errorf("%s probe: %w", sp.name, err)
	}
	w.layerMetrics(tr, &st, m)
	return tr, st, nil
}

// report is one run's outcome.
type report struct {
	attempted, failed, ops int
	metrics                metrics
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonReport struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// print writes every metric by name and unit, then the result line, and
// returns the exit code: non-zero when an op failed its check.
func (r report) print(w io.Writer, traced bool) int {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	out := jsonReport{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jsonMetric{}}
	fmt.Fprintf(w, "ops %d, attempted %d, failed %d, fail_frac %g\n", r.ops, r.attempted, r.failed, float64(r.failed)/float64(r.attempted))
	for _, d := range defs {
		v, ok := r.metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(w, "perfbench: metric %s was not measured (%v)\n", d.name, v)
			return 1
		}
		fmt.Fprintf(w, "%-36s %14.6g %s\n", d.name, v, d.unit)
		out.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(w, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(w, "%s\n", b)
	if !out.Correct {
		return 1
	}
	return 0
}

// printCatalogue prints which layer each per-layer metric belongs to,
// on which workload it is measured and which end-to-end metrics it
// should move.
func printCatalogue(stdout, stderr io.Writer) int {
	type entry struct {
		Name     string   `json:"name"`
		Unit     string   `json:"unit"`
		Layer    string   `json:"layer,omitempty"`
		Workload string   `json:"workload,omitempty"`
		Moves    []string `json:"moves,omitempty"`
	}
	var cat struct {
		EndToEnd []entry `json:"end_to_end"`
		PerLayer []entry `json:"per_layer"`
	}
	for _, d := range endToEnd {
		cat.EndToEnd = append(cat.EndToEnd, entry{Name: d.name, Unit: d.unit})
	}
	for _, d := range perLayer {
		cat.PerLayer = append(cat.PerLayer, entry{d.name, d.unit, d.layer, d.workload, d.moves})
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(cat); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

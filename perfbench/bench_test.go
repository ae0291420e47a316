package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNameGrammar(t *testing.T) {
	seen := map[string]bool{}
	e2e := map[string]bool{}
	for _, d := range endToEnd {
		e2e[d.name] = true
	}
	workloads := map[string]bool{"all": true}
	for _, sp := range specs {
		workloads[sp.name] = true
		if !nameRE.MatchString(sp.name) || seen[sp.name] {
			t.Errorf("workload name %q is malformed or repeated", sp.name)
		}
		seen[sp.name] = true
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.name) || seen[d.name] {
			t.Errorf("metric name %q is malformed or repeated", d.name)
		}
		seen[d.name] = true
		if !unitRE.MatchString(d.unit) {
			t.Errorf("%s: malformed unit %q", d.name, d.unit)
		}
		if d.better != "lower" && d.better != "higher" {
			t.Errorf("%s: better is %q", d.name, d.better)
		}
	}
	for _, d := range perLayer {
		if d.layer == "" || !workloads[d.workload] {
			t.Errorf("%s: layer %q, workload %q", d.name, d.layer, d.workload)
		}
		for _, m := range d.moves {
			if !e2e[m] {
				t.Errorf("%s moves undeclared end-to-end metric %q", d.name, m)
			}
		}
	}
}

// benchmarkFile mirrors BENCHMARK.json; unknown keys fail the decode.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var bf benchmarkFile
	if err := dec.Decode(&bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bf
}

func TestBenchmarkFileDeclaresEveryMetric(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(bf.Workloads), len(specs))
	}
	for i, w := range bf.Workloads {
		if w.Name != specs[i].name || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: %q (%q), want %q with a one-line why", i, w.Name, w.Why, specs[i].name)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the benchmark reports %d", len(bf.EndToEnd), len(endToEnd))
	}
	largest := 0.0
	for i, m := range bf.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end-to-end %d: %+v, the benchmark reports %s %s %s", i, m, d.name, d.unit, d.better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		largest = math.Max(largest, m.Bound)
	}
	if bf.EndToEnd[0].Name != "setup_s" || bf.EndToEnd[0].Bound != largest {
		t.Errorf("setup_s must come first with the largest bound")
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the benchmark reports %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer %d: %+v, the benchmark reports %s %s %s", i, m, d.name, d.unit, d.better)
		}
	}
}

// runBench runs the command in-process and decodes its result line.
func runBench(t *testing.T, args ...string) jsonReport {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var rep jsonReport
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		t.Fatalf("%v: no result line (exit %d): %v\n%s\n%s", args, code, err, stdout.String(), stderr.String())
	}
	if code != 0 || !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
		t.Fatalf("%v: exit %d, %d of %d ops failed\n%s", args, code, rep.Failed, rep.Attempted, stderr.String())
	}
	return rep
}

func sameNames(t *testing.T, got map[string]jsonMetric, want []metricDef) {
	t.Helper()
	var g, w []string
	for name := range got {
		g = append(g, name)
	}
	for _, d := range want {
		w = append(w, d.name)
	}
	sort.Strings(g)
	sort.Strings(w)
	if strings.Join(g, " ") != strings.Join(w, " ") {
		t.Errorf("reported metrics\n%v\nwant\n%v", g, w)
	}
}

// TestWorkloadsPassChecks runs every workload briefly: every op must
// pass its checks, and the run must report exactly the declared
// end-to-end metrics.
func TestWorkloadsPassChecks(t *testing.T) {
	for _, sp := range specs {
		t.Run(sp.name, func(t *testing.T) {
			rep := runBench(t, "--workload", sp.name, "--seed", "3", "--seconds", "0", "--trace", "0")
			sameNames(t, rep.Metrics, endToEnd)
		})
	}
}

// TestTracedRunReportsEveryLayer checks the traced run: every per-layer
// metric is measured, and upload's stage rows plus the remainder row add
// up to the op total.
func TestTracedRunReportsEveryLayer(t *testing.T) {
	rep := runBench(t, "--workload", "upload", "--seed", "4", "--seconds", "0", "--trace", "1")
	sameNames(t, rep.Metrics, perLayer)
	v := func(name string) float64 { return rep.Metrics[name].Value }
	rows := v("upload.encode_ms") + v("upload.send_ms") + v("transport.drain_ms") + v("upload.decode_ms") + v("upload.unaccounted_ms")
	if total := v("upload.op_ms"); math.Abs(rows-total) > 1e-9*total {
		t.Errorf("stage rows add up to %v ms, op total %v ms", rows, total)
	}
	if f := v("transport.ingest_usable_frac"); f != 1 {
		t.Errorf("ingest usable fraction %v, want 1", f)
	}
}

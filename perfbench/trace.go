package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

// Tracing for the per-layer run. Spans are recorded by the benchmark
// around its own calls into each layer's public functions (the program
// itself carries no instrumentation), kept in memory, and written out
// once the run ends. Every op runs on the benchmark's main goroutine, so
// a plain stack of open spans gives each span its parent.

// span is one timed call: its layer is the repository module whose
// function it wraps ("bench" for the harness's own work).
type span struct {
	Name   string        `json:"name"`
	Layer  string        `json:"layer"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Parent int           `json:"parent"` // index into the span list; -1 for a root
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer records spans. A nil *tracer records nothing, so untraced ops
// pass nil and pay one nil check per call site.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span nested in the innermost open one.
func (t *tracer) begin(name, layer string) {
	if t == nil {
		return
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.open = append(t.open, len(t.spans))
	t.spans = append(t.spans, span{Name: name, Layer: layer, Start: time.Since(t.t0), Parent: parent})
}

// end closes the innermost open span and returns its duration.
func (t *tracer) end() time.Duration {
	if t == nil {
		return 0
	}
	n := len(t.open) - 1
	s := &t.spans[t.open[n]]
	t.open = t.open[:n]
	s.End = time.Since(t.t0)
	return s.dur()
}

// durations returns the durations of every span with the given name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.dur().Seconds())
		}
	}
	return out
}

// total sums the durations of every span with the given name.
func (t *tracer) total(name string) time.Duration {
	var d time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			d += s.dur()
		}
	}
	return d
}

// selfTime attributes every span's self time — its duration minus the
// part its children cover — to its layer, over the spans that descend
// from a root span named root.
func (t *tracer) selfTime(root string) map[string]time.Duration {
	self := make(map[string]time.Duration)
	inside := make([]bool, len(t.spans))
	for i, s := range t.spans {
		// Parents precede their children in the list.
		inside[i] = (s.Parent < 0 && s.Name == root) || (s.Parent >= 0 && inside[s.Parent])
		if !inside[i] {
			continue
		}
		self[s.Layer] += s.dur()
		if s.Parent >= 0 {
			self[t.spans[s.Parent].Layer] -= s.dur()
		}
	}
	return self
}

// traceDump is the on-disk form of one traced run: the spans of the
// measured workload and of each other workload sampled for its layers.
type traceDump struct {
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	Spans    map[string][]span  `json:"spans"`
	SelfMs   map[string]float64 `json:"self_ms_per_op"`
}

func writeTrace(dir string, d traceDump) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, d.Workload+"-seed"+strconv.FormatUint(d.Seed, 10)+".json")
	b, err := json.Marshal(d)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}

package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// metricDef declares one reported metric. BENCHMARK.json carries the
// name, unit and direction (plus the bound of each end-to-end metric);
// the benchmark's tests check that it and these tables agree.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"

	// Per-layer metrics only: the repository module the metric measures,
	// the workload whose ops it describes ("all" for every workload), and
	// the end-to-end metrics a change to that layer should move there.
	layer    string
	workload string
	moves    []string
}

// endToEnd are the metrics of an untraced run. Every workload reports
// all of them; for ingest an op is one pass of 64 concurrent sessions.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "op_p50_ms", unit: "ms", better: "lower"},
	{name: "op_p90_ms", unit: "ms", better: "lower"},
	{name: "cpu_ms_per_op", unit: "ms", better: "lower"},
	{name: "rss_mb", unit: "MB", better: "lower"},
}

var (
	p50cpu = []string{"op_p50_ms", "cpu_ms_per_op"}
	p50    = []string{"op_p50_ms"}
	p50p90 = []string{"op_p50_ms", "op_p90_ms"}
	p90    = []string{"op_p90_ms"}
	// Ingest's packet rate and CPU per packet are, near enough, a pass's
	// op_p50_ms and cpu_ms_per_op over its datagram count.
	ingestMoves = []string{"op_p50_ms", "cpu_ms_per_op"}
)

// perLayer are the metrics of a traced run. Each traced run measures its
// own workload for the full run and then samples every other workload,
// so every metric is measured, and none is a placeholder, in each run.
var perLayer = []metricDef{
	// upload: encode → LiveUDPSend → drain into IngestServer → decode.
	{name: "codec.encode_ms_per_frame", unit: "ms", better: "lower", layer: "codec", workload: "upload", moves: p50cpu},
	{name: "codec.encode_allocs_per_frame", unit: "count", better: "lower", layer: "codec", workload: "upload", moves: []string{"cpu_ms_per_op"}},
	{name: "codec.decode_ms_per_frame", unit: "ms", better: "lower", layer: "codec", workload: "upload", moves: p50},
	{name: "codec.packetize_into_us_per_frame", unit: "us", better: "lower", layer: "codec", workload: "upload", moves: p50},
	{name: "transport.send_us_per_pkt", unit: "us", better: "lower", layer: "transport", workload: "upload", moves: p50},
	{name: "transport.drain_ms", unit: "ms", better: "lower", layer: "transport", workload: "upload", moves: p50},
	{name: "vcrypt.encrypt_us_per_pkt", unit: "us", better: "lower", layer: "vcrypt", workload: "upload", moves: p50},
	{name: "vcrypt.encrypted_frac", unit: "frac", better: "lower", layer: "vcrypt", workload: "upload", moves: p50},
	{name: "upload.op_ms", unit: "ms", better: "lower", layer: "bench", workload: "upload", moves: p50},
	{name: "upload.encode_ms", unit: "ms", better: "lower", layer: "codec", workload: "upload", moves: p50cpu},
	{name: "upload.send_ms", unit: "ms", better: "lower", layer: "transport", workload: "upload", moves: p50},
	{name: "upload.decode_ms", unit: "ms", better: "lower", layer: "codec", workload: "upload", moves: p50},
	{name: "upload.unaccounted_ms", unit: "ms", better: "lower", layer: "bench", workload: "upload"},

	// ingest: 64 sessions replayed into one IngestServer.
	{name: "rtp.parse_ns_per_pkt", unit: "ns", better: "lower", layer: "rtp", workload: "ingest", moves: ingestMoves},
	{name: "vcrypt.decrypt_ns_per_pkt", unit: "ns", better: "lower", layer: "vcrypt", workload: "ingest", moves: ingestMoves},
	{name: "codec.reassemble_ns_per_pkt", unit: "ns", better: "lower", layer: "codec", workload: "ingest", moves: ingestMoves},
	{name: "codec.reassemble_allocs_per_pkt", unit: "count", better: "lower", layer: "codec", workload: "ingest", moves: ingestMoves},
	{name: "transport.ingest_allocs_per_pkt", unit: "count", better: "lower", layer: "transport", workload: "ingest", moves: ingestMoves},
	{name: "transport.ingest_usable_frac", unit: "frac", better: "higher", layer: "transport", workload: "ingest", moves: ingestMoves},
	{name: "transport.ingest_dup_frac", unit: "frac", better: "lower", layer: "transport", workload: "ingest", moves: ingestMoves},
	{name: "transport.ingest_drop_frac", unit: "frac", better: "lower", layer: "transport", workload: "ingest", moves: ingestMoves},
	{name: "ingest.window_wait_frac", unit: "frac", better: "lower", layer: "bench", workload: "ingest"},
	{name: "ingest.pkts_per_s", unit: "1/s", better: "higher", layer: "transport", workload: "ingest", moves: ingestMoves},
	{name: "ingest.cpu_us_per_pkt", unit: "us", better: "lower", layer: "transport", workload: "ingest", moves: ingestMoves},

	// plan: core.Plan over the CLI's 8 candidates.
	{name: "analytic.solve_queue_ms.p50", unit: "ms", better: "lower", layer: "analytic", workload: "plan", moves: p50cpu},
	{name: "analytic.solve_queue_ms.max", unit: "ms", better: "lower", layer: "analytic", workload: "plan", moves: p50cpu},
	{name: "analytic.solve_allocs_per_call", unit: "count", better: "lower", layer: "analytic", workload: "plan", moves: p50cpu},
	{name: "core.predict_ms", unit: "ms", better: "lower", layer: "core", workload: "plan", moves: p50cpu},
	{name: "core.calibrate_ms", unit: "ms", better: "lower", layer: "core", workload: "plan", moves: []string{"setup_s"}},

	// simulate: transport.RunUDP over the 12 standard policies.
	{name: "transport.sim_ms.aes128", unit: "ms", better: "lower", layer: "transport", workload: "simulate", moves: p50p90},
	{name: "transport.sim_ms.aes256", unit: "ms", better: "lower", layer: "transport", workload: "simulate", moves: p50p90},
	{name: "transport.sim_ms.3des", unit: "ms", better: "lower", layer: "transport", workload: "simulate", moves: p50p90},
	{name: "transport.sim_allocs_per_run", unit: "count", better: "lower", layer: "transport", workload: "simulate", moves: p50p90},
	{name: "codec.packetize_us_per_frame", unit: "us", better: "lower", layer: "codec", workload: "simulate", moves: p50p90},
	{name: "vcrypt.encrypt_ns_per_pkt.aes128", unit: "ns", better: "lower", layer: "vcrypt", workload: "simulate", moves: p90},
	{name: "vcrypt.encrypt_ns_per_pkt.aes256", unit: "ns", better: "lower", layer: "vcrypt", workload: "simulate", moves: p90},
	{name: "vcrypt.encrypt_ns_per_pkt.3des", unit: "ns", better: "lower", layer: "vcrypt", workload: "simulate", moves: p90},

	// Every workload, measured on the traced run's own workload.
	{name: "runtime.gc_cpu_frac", unit: "frac", better: "lower", layer: "runtime", workload: "all"},
	{name: "trace.overhead_frac", unit: "frac", better: "lower", layer: "bench", workload: "all"},
}

// metrics collects one run's values by name.
type metrics map[string]float64

// ms and us convert a duration to the float units metrics use.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// quantile interpolates linearly between the closest ranks of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// mallocs is the cumulative count of heap objects allocated by the
// process; deltas around a call count its allocations (and any made
// concurrently by other goroutines, which the callers keep idle).
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

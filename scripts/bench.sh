#!/usr/bin/env bash
# bench.sh — parameterized perf harness for the hot-path benchmarks.
#
# Runs three benchmark groups and writes one JSON report:
#   - codec micro-benchmarks (DCT, motion search, packetizers),
#   - the vcrypt per-packet encrypt hot path, including the legacy
#     (pre-engine) construction so the speedup-vs-legacy ratio is
#     measured on the same machine in the same run,
#   - the end-to-end codec + figure benchmarks at the repo root.
#
# The seed-checkpoint baseline is read from a checked-in JSON file
# (scripts/baselines/seed.json by default) instead of constants embedded
# in this script; benchmarks named there get baseline_ns_per_op and
# speedup fields in the report. scripts/perfgate.sh consumes the report
# and fails CI on hot-path regressions.
#
# Usage: scripts/bench.sh [-pr LABEL] [-out FILE] [-baseline FILE] [-no-obs]
#        scripts/bench.sh output.json        (legacy positional form)
set -euo pipefail
cd "$(dirname "$0")/.."

pr_label="PR6: zero-copy encrypt-packetize-send hot path (keystream engine, pooled wire buffers, prefetch overlap)"
out=BENCH_PR6.json
baseline=scripts/baselines/seed.json
obs=1

usage() {
	sed -n '2,19p' "$0" >&2
}

while [ $# -gt 0 ]; do
	case "$1" in
	-pr)
		pr_label=$2
		shift 2
		;;
	-out)
		out=$2
		shift 2
		;;
	-baseline)
		baseline=$2
		shift 2
		;;
	-no-obs)
		obs=0
		shift
		;;
	-h | --help)
		usage
		exit 0
		;;
	-*)
		echo "bench.sh: unknown flag $1" >&2
		usage
		exit 2
		;;
	*)
		out=$1
		shift
		;;
	esac
done

if [ ! -f "$baseline" ]; then
	echo "bench.sh: baseline file $baseline not found" >&2
	exit 2
fi

tmp=$(mktemp)
obs_tmp=$(mktemp)
ledger_tmp=$(mktemp)
trap 'rm -f "$tmp" "$obs_tmp" "$ledger_tmp"' EXIT

echo "running codec micro-benchmarks..." >&2
go test -run '^$' -bench 'BenchmarkFDCT8$|BenchmarkIDCT8$|BenchmarkMotionSearch$|BenchmarkEncodeFrameParallel$|BenchmarkPacketizeInto$|BenchmarkPacketize$|BenchmarkSADMB$|BenchmarkQuantiseBlock$' \
	-benchmem -timeout 600s ./internal/codec | tee -a "$tmp" >&2

echo "running vcrypt hot-path benchmarks..." >&2
# 0.3s per sub-benchmark: 4 benchmarks x 5 algorithms, and the prefetched
# variant spends extra untimed wall clock generating keystream batches.
go test -run '^$' -bench 'BenchmarkEncryptPacket$|BenchmarkEncryptPackets$|BenchmarkEncryptPacketPrefetched$|BenchmarkEncryptPacketLegacy$' \
	-benchmem -benchtime 0.3s -timeout 900s ./internal/vcrypt | tee -a "$tmp" >&2

echo "running end-to-end codec and figure benchmarks..." >&2
go test -run '^$' -bench 'BenchmarkCodecEncode$|BenchmarkCodecDecode$|BenchmarkFig7DelaySamsung$|BenchmarkFig9FractionalP$' \
	-benchmem -timeout 1200s . | tee -a "$tmp" >&2

awk -v out="$out" -v pr="$pr_label" -v basefile="$baseline" '
function jstr(line, key,   m) {
	if (match(line, "\"" key "\": *\"[^\"]*\"")) {
		m = substr(line, RSTART, RLENGTH)
		sub("\"" key "\": *\"", "", m)
		sub("\"$", "", m)
		return m
	}
	return ""
}
function jnum(line, key,   m) {
	if (match(line, "\"" key "\": *-?[0-9.eE+]+")) {
		m = substr(line, RSTART, RLENGTH)
		sub("\"" key "\": *", "", m)
		return m
	}
	return ""
}
BEGIN {
	base_commit = ""; base_cpu = ""
	while ((getline line < basefile) > 0) {
		c = jstr(line, "commit");  if (c != "") base_commit = c
		c = jstr(line, "cpu");     if (c != "" && base_cpu == "") base_cpu = c
		bn = jstr(line, "name")
		if (bn != "") {
			v = jnum(line, "ns_per_op");     if (v != "") base_ns[bn] = v
			a = jnum(line, "allocs_per_op"); if (a != "") base_allocs[bn] = a
		}
	}
	close(basefile)
	n = 0
}
/^cpu:/ { sub(/^cpu: */, ""); cpu = $0 }
/^Benchmark/ {
	name = $1
	sub(/-[0-9]+$/, "", name)
	ns = ""; allocs = ""
	for (i = 2; i <= NF; i++) {
		if ($i == "ns/op") ns = $(i-1)
		if ($i == "allocs/op") allocs = $(i-1)
	}
	if (ns == "") next
	names[n] = name; nsv[n] = ns; av[n] = allocs; n++
	ns_of[name] = ns
	if (name ~ /^BenchmarkEncryptPacketLegacy\//) {
		alg = name
		sub(/^BenchmarkEncryptPacketLegacy\//, "", alg)
		if (!(alg in is_alg)) { algs[na++] = alg; is_alg[alg] = 1 }
	}
}
END {
	printf "{\n" > out
	printf "  \"pr\": \"%s\",\n", pr >> out
	printf "  \"cpu\": \"%s\",\n", cpu >> out
	printf "  \"baseline_commit\": \"%s\",\n", base_commit >> out
	printf "  \"baseline_cpu\": \"%s\",\n", base_cpu >> out
	printf "  \"benchmarks\": [\n" >> out
	for (i = 0; i < n; i++) {
		printf "    {\"name\": \"%s\", \"ns_per_op\": %s", names[i], nsv[i] >> out
		if (av[i] != "") printf ", \"allocs_per_op\": %s", av[i] >> out
		if (names[i] in base_ns) {
			printf ", \"baseline_ns_per_op\": %.0f", base_ns[names[i]] >> out
			if (names[i] in base_allocs)
				printf ", \"baseline_allocs_per_op\": %.0f", base_allocs[names[i]] >> out
			printf ", \"speedup\": %.2f", base_ns[names[i]] / nsv[i] >> out
		}
		printf "}%s\n", (i < n-1 ? "," : "") >> out
	}
	printf "  ],\n" >> out
	# Per-algorithm hot-path summary: the pre-PR (legacy) per-packet
	# encrypt cost vs the engine with prefetched keystream, measured in
	# this same run, so the ratio is machine-independent.
	printf "  \"hot_path\": [\n" >> out
	for (i = 0; i < na; i++) {
		alg = algs[i]
		legacy = ns_of["BenchmarkEncryptPacketLegacy/" alg]
		hot = ns_of["BenchmarkEncryptPacketPrefetched/" alg]
		inline = ns_of["BenchmarkEncryptPacket/" alg]
		if (legacy == "" || hot == "") continue
		printf "    {\"alg\": \"%s\", \"legacy_ns_per_op\": %s, \"inline_ns_per_op\": %s, \"prefetched_ns_per_op\": %s, \"speedup_vs_legacy\": %.2f}%s\n", \
			alg, legacy, inline, hot, legacy / hot, (i < na-1 ? "," : "") >> out
	}
	printf "  ]\n}\n" >> out
}
' "$tmp"

echo "wrote $out" >&2

if [ "$obs" -eq 1 ]; then
	echo "running observability-tax benchmarks..." >&2
	go test -run '^$' -bench 'BenchmarkEncodeMetricsOff$|BenchmarkEncodeMetricsOn$' \
		-benchmem -count 5 -timeout 600s ./internal/codec | tee "$obs_tmp" >&2

	awk -v out=BENCH_PR3.json '
	/^cpu:/ { sub(/^cpu: */, ""); cpu = $0 }
	/^BenchmarkEncodeMetrics/ {
		name = $1
		sub(/-[0-9]+$/, "", name)
		ns = ""; allocs = ""
		for (i = 2; i <= NF; i++) {
			if ($i == "ns/op") ns = $(i-1)
			if ($i == "allocs/op") allocs = $(i-1)
		}
		if (ns == "") next
		# Best-of-N: the minimum is the least noisy estimate of the true cost.
		if (!(name in best) || ns + 0 < best[name] + 0) { best[name] = ns; al[name] = allocs }
	}
	END {
		off = best["BenchmarkEncodeMetricsOff"]
		on = best["BenchmarkEncodeMetricsOn"]
		overhead = (on / off - 1) * 100
		printf "{\n" > out
		printf "  \"pr\": \"PR3: zero-dependency observability layer\",\n" >> out
		printf "  \"cpu\": \"%s\",\n", cpu >> out
		printf "  \"benchmarks\": [\n" >> out
		printf "    {\"name\": \"BenchmarkEncodeMetricsOff\", \"ns_per_op\": %s, \"allocs_per_op\": %s},\n", off, al["BenchmarkEncodeMetricsOff"] >> out
		printf "    {\"name\": \"BenchmarkEncodeMetricsOn\", \"ns_per_op\": %s, \"allocs_per_op\": %s}\n", on, al["BenchmarkEncodeMetricsOn"] >> out
		printf "  ],\n" >> out
		printf "  \"metrics_on_overhead_percent\": %.2f\n", overhead >> out
		printf "}\n" >> out
		if (overhead > 2) {
			printf "FAIL: metrics-on encode overhead %.2f%% exceeds the 2%% budget\n", overhead > "/dev/stderr"
			exit 1
		}
	}
	' "$obs_tmp"

	echo "wrote BENCH_PR3.json" >&2
fi

echo "running audit-ledger benchmarks..." >&2
# The pipeline benchmark drives AppendBlocking through the sealer
# goroutine into io.Discard, so ns/op is the full wall-clock cost per
# entry: canonical encoding, leaf hashing, Merkle fold, chain header and
# JSON-line serialization included.
go test -run '^$' -bench 'BenchmarkLedgerPipeline$' \
	-benchmem -count 3 -timeout 600s ./internal/ledger | tee "$ledger_tmp" >&2

awk -v out=BENCH_PR8.json '
/^cpu:/ { sub(/^cpu: */, ""); cpu = $0 }
/^BenchmarkLedgerPipeline\// {
	name = $1
	sub(/-[0-9]+$/, "", name)
	ns = ""; allocs = ""
	for (i = 2; i <= NF; i++) {
		if ($i == "ns/op") ns = $(i-1)
		if ($i == "allocs/op") allocs = $(i-1)
	}
	if (ns == "") next
	# Best-of-N: the minimum is the least noisy estimate of the true cost.
	if (!(name in best) || ns + 0 < best[name] + 0) { best[name] = ns; al[name] = allocs }
	if (!(name in seen)) { order[n++] = name; seen[name] = 1 }
}
END {
	base = best["BenchmarkLedgerPipeline/batch1"]
	peak = 0
	printf "{\n" > out
	printf "  \"pr\": \"PR8: tamper-evident audit ledger (hash chain, Merkle batches) and ingest session lifecycle fixes\",\n" >> out
	printf "  \"cpu\": \"%s\",\n", cpu >> out
	printf "  \"benchmarks\": [\n" >> out
	for (i = 0; i < n; i++) {
		name = order[i]
		ns = best[name] + 0
		eps = 1e9 / ns
		if (eps > peak) peak = eps
		printf "    {\"name\": \"%s\", \"ns_per_op\": %s, \"allocs_per_op\": %s, \"entries_per_sec\": %.0f", \
			name, best[name], (al[name] == "" ? "null" : al[name]), eps >> out
		if (base != "" && name != "BenchmarkLedgerPipeline/batch1")
			printf ", \"speedup_vs_batch1\": %.2f", (base + 0) / ns >> out
		printf "}%s\n", (i < n-1 ? "," : "") >> out
	}
	printf "  ],\n" >> out
	printf "  \"peak_entries_per_sec\": %.0f\n", peak >> out
	printf "}\n" >> out
	# Hard gate: the ISSUE acceptance floor is 1M entries/sec at the best
	# batch size. Falling under it means event logging would become the
	# bottleneck of the very hot paths it audits.
	if (peak < 1e6) {
		printf "FAIL: peak ledger throughput %.0f entries/sec is under the 1M floor\n", peak > "/dev/stderr"
		exit 1
	}
}
' "$ledger_tmp"

echo "wrote BENCH_PR8.json" >&2

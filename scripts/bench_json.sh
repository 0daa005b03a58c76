#!/bin/sh
# bench_json.sh — convert `go test -bench` output on stdin to a JSON
# document on stdout. Pure POSIX awk, no dependencies; used by
# `make bench-tick-json`, `make bench-fleet-json` and `make bench-http-json`
# to record BENCH_tick_kernel.json, BENCH_fleet.json and BENCH_http.json.
#
#   go test -bench . -benchmem -benchtime 1x ./... | scripts/bench_json.sh
#
# Captures name, iterations, ns/op, and (when -benchmem is on) B/op and
# allocs/op; custom b.ReportMetric units are folded into a "metrics" map.
# When `-count N` repeats a benchmark, the fastest run (lowest ns/op) is
# recorded: on a shared machine noise only ever slows a run down, so the
# minimum over a batch is the reproducible number, not the single-shot
# draw.
set -eu

awk '
/^goos: /   { goos = $2 }
/^goarch: / { goarch = $2 }
/^cpu: /    { sub(/^cpu: /, ""); cpu = $0 }
/^Benchmark/ {
    name = $1
    nsop = ""; bop = ""; allocs = ""; metrics = ""
    for (i = 3; i < NF; i += 2) {
        unit = $(i + 1)
        if (unit == "ns/op")           nsop = $i
        else if (unit == "B/op")       bop = $i
        else if (unit == "allocs/op")  allocs = $i
        else {
            if (metrics != "") metrics = metrics ", "
            metrics = metrics "\"" unit "\": " $i
        }
    }
    if (!(name in bestNs)) { order[++n] = name }
    else if (nsop != "" && nsop + 0 >= bestNs[name] + 0) next
    bestNs[name] = nsop; iters[name] = $2
    bops[name] = bop; allocss[name] = allocs; metricss[name] = metrics
}
END {
    printf "{\n  \"benchmarks\": [\n"
    for (k = 1; k <= n; k++) {
        name = order[k]
        if (k > 1) printf ",\n"
        printf "    {\"name\": \"%s\", \"iterations\": %s", name, iters[name]
        if (bestNs[name] != "")   printf ", \"ns_per_op\": %s", bestNs[name]
        if (bops[name] != "")     printf ", \"bytes_per_op\": %s", bops[name]
        if (allocss[name] != "")  printf ", \"allocs_per_op\": %s", allocss[name]
        if (metricss[name] != "") printf ", \"metrics\": {%s}", metricss[name]
        printf "}"
    }
    printf "\n  ],\n"
    printf "  \"goos\": \"%s\",\n  \"goarch\": \"%s\",\n  \"cpu\": \"%s\"\n}\n", goos, goarch, cpu
}'

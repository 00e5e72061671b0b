#!/usr/bin/env bash
# Regenerates every table and figure of the paper plus the ablations,
# saving text outputs to results/ and each sweep's JSON to results/json/.
set -euo pipefail
cd "$(dirname "$0")/.."
out=${1:-results}
mkdir -p "$out/json"
tca_bench=(cargo run -q --release --offline -p tca-bench --bin tca-bench --)

# Every registered scenario runs through the unified scenario runner, on
# each backend it supports; each sweep point is an independent simulation,
# so --jobs parallelism cannot perturb any measurement (output is
# byte-identical at any job count). The registry listing is the one source
# of scenario names: its first column is the name, and the backends column
# is the token that starts with "tca".
jobs=${JOBS:-4}
mapfile -t rows < <("${tca_bench[@]}" --list | tail -n +2)
for row in "${rows[@]}"; do
    read -r s rest <<< "$row"
    backends=$(grep -oE '(^| )tca(,[a-z-]+)*( |$)' <<< "$rest" | head -n 1 | tr -d ' ')
    for backend in ${backends//,/ }; do
        name=$s
        [[ $backend == tca ]] || name=$s-$backend
        echo "== $s ($backend) =="
        # One run per sweep: the table goes to stdout, the --json bytes to
        # the file.
        "${tca_bench[@]}" --scenario "$s" --backend "$backend" --jobs "$jobs" \
            --json-out "$out/json/$name.json" | tee "$out/$name.txt"
        echo
    done
done

# Remaining standalone reports (artifact-writing views over the tracer).
bins=(telemetry trace_pio)
for b in "${bins[@]}"; do
    echo "== $b =="
    cargo run -q --release --offline -p tca-bench --bin "$b" | tee "$out/$b.txt"
    echo
done

# Schema-stable perf-regression report (byte-identical across runs), with
# every metric validated against its paper-anchored bound.
echo "== bench_regression =="
cargo run -q --release --offline -p tca-bench --bin bench_regression "$out/BENCH_fabric.json"
echo "all outputs under $out/"

#!/usr/bin/env bash
# Build the ledger and run it.
#
#   ledger/run.sh [--workload W] [--seed S] [--trace [0|1]]
#
# Without --workload, runs every workload, each in its own process, one
# after another. Each run lasts run_seconds of BENCHMARK.json. Traced
# (the default; a bare --trace means --trace 1) a run measures every
# metric; --trace 0 measures the end-to-end metrics only. Each process
# prints its metrics as `name value unit` lines and ends with one JSON
# line. The per-workload records are merged into ledger/out/result.json.
#
# `--seconds N` is accepted for the standard benchmark invocation, but N
# must equal run_seconds: the run length is set in BENCHMARK.json only.
set -euo pipefail

cd "$(dirname "$0")/.."

usage() {
    echo "usage: ledger/run.sh [--workload W] [--seed S] [--trace [0|1]]" >&2
    exit 2
}

run_seconds="$(sed -n 's/.*"run_seconds": *\([0-9][0-9]*\).*/\1/p' BENCHMARK.json)"
workloads=(paper_sweep mesh)
selected=()
args=()
while (($#)); do
    case "$1" in
    --workload)
        selected+=("${2:?--workload needs a value}")
        shift 2
        ;;
    --seed)
        args+=(--seed "${2:?--seed needs a value}")
        shift 2
        ;;
    --trace)
        if [[ "${2:-}" == 0 || "${2:-}" == 1 ]]; then
            args+=(--trace "$2")
            shift 2
        else
            args+=(--trace 1)
            shift
        fi
        ;;
    --seconds)
        if [[ "${2:-}" != "$run_seconds" ]]; then
            echo "error: a run lasts run_seconds of BENCHMARK.json ($run_seconds), not '${2:-}'" >&2
            exit 2
        fi
        shift 2
        ;;
    *) usage ;;
    esac
done
((${#selected[@]})) || selected=("${workloads[@]}")

# Offline and optimized; the ledger is its own workspace, so this never
# touches the root build.
cargo build --offline --release --quiet --manifest-path ledger/Cargo.toml >&2
bin="${CARGO_TARGET_DIR:-ledger/target}/release/tamsim-ledger"

# Host fingerprint inputs the binary cannot see for itself. The revision
# is read only from a git checkout rooted here.
LEDGER_RUSTC="$(rustc -V)"
LEDGER_REV=unknown
if [[ -e .git ]]; then
    LEDGER_REV="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
fi
export LEDGER_RUSTC LEDGER_REV

for w in "${selected[@]}"; do
    "$bin" --workload "$w" "${args[@]}"
done

{
    echo "{"
    sep=""
    for w in "${selected[@]}"; do
        printf '%s"%s": ' "$sep" "$w"
        cat "ledger/out/$w/result.json"
        sep=","
    done
    echo "}"
} >ledger/out/result.json

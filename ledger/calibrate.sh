#!/usr/bin/env bash
# Check that the ledger is steady on this host: run the untraced set
# twice, the second time in reverse workload order, and compare.
#
#   ledger/calibrate.sh [--seed S]
#
# Prints, per workload and metric, the two values and their spread
# (|second - first| / first) against the metric's bound. Exits nonzero
# when a bounded host-time metric spreads past its bound, when a value
# that must repeat exactly (simulated-output digest, instruction count,
# failed checks) differs at all, or when any check failed. A workload
# that is too noisy needs longer passes, not a wider bound.
set -euo pipefail

cd "$(dirname "$0")/.."

order=(paper_sweep mesh)
dir=ledger/out/calibrate
rm -rf "$dir"
mkdir -p "$dir/1" "$dir/2"

extra=("$@")
# run_set SET WORKLOAD...: one untraced run per workload, in that order.
run_set() {
    local set=$1
    shift
    for w in "$@"; do
        ledger/run.sh --workload "$w" --trace 0 "${extra[@]}" >/dev/null
        cp "ledger/out/$w/metrics.tsv" "$dir/$set/$w.tsv"
    done
}

run_set 1 "${order[@]}"
reversed=()
for ((i = ${#order[@]} - 1; i >= 0; i--)); do
    reversed+=("${order[i]}")
done
run_set 2 "${reversed[@]}"

status=0
printf '%-13s %-18s %14s %14s %8s %6s %s\n' workload metric first second spread bound verdict
for w in "${order[@]}"; do
    # metrics.tsv columns: name, value, unit, kind (host|exact), bound.
    if ! paste "$dir/1/$w.tsv" "$dir/2/$w.tsv" | awk -v w="$w" -F'\t' '
        $1 != $6 { print "metric lists differ: " $1 " vs " $6; bad = 1; next }
        {
            verdict = "ok"
            if ($4 == "exact") {
                spread = ($2 == $7) ? "0" : "differs"
                if ($2 != $7) { verdict = "FAIL"; bad = 1 }
                if ($1 == "checks.failed" && $2 != 0) { verdict = "FAIL"; bad = 1 }
            } else {
                s = ($7 - $2) / $2
                if (s < 0) s = -s
                spread = sprintf("%.4f", s)
                if ($5 != "-" && s > $5) { verdict = "FAIL"; bad = 1 }
            }
            printf "%-13s %-18s %14s %14s %8s %6s %s\n", w, $1, $2, $7, spread, $5, verdict
        }
        END { exit bad }'; then
        status=1
    fi
done
exit "$status"

#!/usr/bin/env bash
# Determinism wall: a worker-count override must not change any output.
#
#   ci/check_determinism.sh [OUT_DIR] [NODES]
#
# TAMSIM_JOBS sets how many host workers fan out independent runs; it
# never changes what a command prints or writes. Each leg below runs
# once with TAMSIM_JOBS unset and once with TAMSIM_JOBS=4, then
# byte-compares everything: stdout, and every file the run writes except
# manifest.json (which records the command line and the wall-clock time).
#
#   * mesh: every suite program on a NODES-node mesh (default 8) under
#     all three back-ends;
#   * serve: open-loop request serving under all three back-ends;
#   * steal: MMT, the suite's heaviest communicator, under --policy steal;
#   * steal-serve: corner-skewed serving under --policy steal, the
#     workload that actually migrates frames.
#
# Finally the golden-figure gate re-runs under TAMSIM_JOBS=2 to pin the
# figure pipeline, whose sweeps fan out across workers.
set -euo pipefail

out="${1:-det-out}"
nodes="${2:-8}"
bin="${TAMSIM:-./target/release/tamsim}"
progs=(fib MMT QS DTW Paraffins Wavefront SS)

if [ ! -x "$bin" ]; then
    echo "error: tamsim binary '$bin' not built (cargo build --release -p tamsim-cli)" >&2
    exit 2
fi

rm -rf "$out"
mkdir -p "$out"

fail=0

# leg NAME ARGS...: run `tamsim ARGS... --out DIR` with TAMSIM_JOBS unset
# and with TAMSIM_JOBS=4, and require byte-identical stdout and files.
leg() {
    local name="$1"
    shift
    local dir="$out/$name"
    mkdir -p "$dir"
    env -u TAMSIM_JOBS "$bin" "$@" --out "$dir/unset" >"$dir/unset.stdout"
    TAMSIM_JOBS=4 "$bin" "$@" --out "$dir/jobs4" >"$dir/jobs4.stdout"
    local ok=1
    if ! cmp -s "$dir/unset.stdout" "$dir/jobs4.stdout"; then
        echo "FAIL: $name stdout differs under TAMSIM_JOBS=4" >&2
        diff "$dir/unset.stdout" "$dir/jobs4.stdout" >&2 || true
        ok=0
    fi
    if ! diff -r -q -x manifest.json "$dir/unset" "$dir/jobs4" >&2; then
        echo "FAIL: $name artifacts differ under TAMSIM_JOBS=4" >&2
        ok=0
    fi
    if [ "$ok" -eq 1 ]; then
        echo "ok: $name byte-identical with TAMSIM_JOBS unset and =4"
    else
        fail=1
    fi
}

for prog in "${progs[@]}"; do
    leg "mesh-$prog" mesh "$prog" --small --nodes "$nodes" --impl all
done
leg serve serve --rate 20 --requests 24 --seed 3 --nodes "$nodes" --impl all
leg steal mesh MMT --small --nodes "$nodes" --impl all --policy steal
leg steal-serve serve --rate 20 --requests 24 --seed 3 --nodes "$nodes" \
    --impl all --policy steal --origins corner

if [ "$fail" -ne 0 ]; then
    echo "determinism wall: FAILED" >&2
    exit 1
fi

# The figure pipeline under a worker override: every golden CSV must
# still match tests/golden/ byte-for-byte.
TAMSIM_JOBS=2 "$(dirname "$0")/check_goldens.sh" "$out/golden-jobs2"
echo "determinism wall: every artifact byte-identical across TAMSIM_JOBS settings"

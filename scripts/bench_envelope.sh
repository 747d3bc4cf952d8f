#!/usr/bin/env bash
# Regenerates a dormant-overhead guard baseline as a measured noise
# envelope: RUNS fresh `--smoke` runs of one tm-bench bench, folded by
# `bench_guard --write-envelope` into the entry of OUT with the same
# meta shape (the rest of OUT's trajectory is kept).
#
#   scripts/bench_envelope.sh BENCH RUNS OUT [TREE]
#   scripts/bench_envelope.sh bdd_ops 10 BENCH_bdd.json
#   scripts/bench_envelope.sh sim_kernels 10 BENCH_sim.json ../parent
#
# TREE (default: this checkout) is the source tree whose bench is run,
# e.g. a checkout of the parent commit, so that the guard measures a
# change against the code before it. The envelope is always written by
# this checkout's bench_guard.
set -euo pipefail
cd "$(dirname "$0")/.."
[ $# -ge 3 ] || { echo "usage: $0 BENCH RUNS OUT [TREE]" >&2; exit 2; }
bench=$1
runs=$2
out=$3
tree=${4:-.}
reports=$(mktemp -d)
trap 'rm -rf "$reports"' EXIT
fresh=()
for i in $(seq "$runs"); do
    (cd "$tree" && TM_BENCH_DIR="$reports/$i" \
        cargo bench -q --offline -p tm-bench --bench "$bench" -- --smoke > /dev/null)
    fresh+=(--fresh "$reports/$i/$bench.json")
done
cargo run -q --offline --release -p tm-bench --bin bench_guard -- \
    --write-envelope "$out" "${fresh[@]}"

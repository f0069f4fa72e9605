#!/usr/bin/env bash
# Run every workload: a plain run (end-to-end metrics), then a traced run
# (per-layer metrics). Exits non-zero if any run fails its output checks.
# Usage, from the repository root: perfbench/all.sh [seed] [seconds]
set -uo pipefail
cd "$(dirname "$0")/.." || exit 2
seed=${1:-1}
seconds=${2:-30}
status=0
for workload in stream reload nips; do
    for trace in 0 1; do
        echo "== $workload trace=$trace"
        cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml --bin perfbench -- \
            --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" || status=1
    done
done
exit "$status"

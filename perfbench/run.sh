#!/usr/bin/env bash
# Builds the servers exactly as the repository builds them, builds the
# benchmark program, and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload stream --seed 1 --seconds 45 --trace 0
#
# It changes to the repository root first. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build); results and spans go to .perfbench/.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --offline --release --quiet \
    -p dvs-admit --bin dvs_admitd -p dvs-router --bin dvs_routerd >&2
cargo build --offline --release --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" --bin-dir "$CARGO_TARGET_DIR/release" "$@"

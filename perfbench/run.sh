#!/usr/bin/env bash
# Builds triq-cli and the benchmark program from source, then runs the
# benchmark with the given arguments, e.g.
#   bash perfbench/run.sh --workload point_lookups --seed 1 --seconds 15 --trace 0
# The last line of standard output is the result as one JSON object.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release --quiet --offline -p triq-server --bin triq-cli >&2
export TRIQ_CLI="${CARGO_TARGET_DIR:-target}/release/triq-cli"
exec cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml -- "$@"

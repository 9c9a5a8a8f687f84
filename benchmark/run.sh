#!/usr/bin/env bash
# Builds the benchmark from source (offline) and runs it from the repo root.
#
#   benchmark/run.sh                      every workload, every metric, results
#                                         under benchmark/out/ (see README.md)
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                         one measured run; last stdout line is
#                                         the result object
#   benchmark/run.sh compare A.json B.json
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/spice-benchmark" "$@"

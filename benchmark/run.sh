#!/usr/bin/env bash
# One command for the whole benchmark: builds the package in release mode
# (offline; it has no external crates), then hands every argument to it.
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1   one run, result object on the last line
#   benchmark/run.sh [--workload NAME] [--seed N] [--runs K]            every workload, one result file
#   benchmark/run.sh compare A.json B.json                              judge B against A
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
# Build output goes to stderr: the last line of stdout is the result.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
exec "$target/release/tc-benchmark" "$@"

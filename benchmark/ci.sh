#!/usr/bin/env bash
# Builds the benchmark, runs its tests and smoke-runs every workload, traced
# and untraced, at --quick size. Not wired into .github/workflows/ci.yml yet:
# a later change adds one step, `bash benchmark/ci.sh`.
set -euo pipefail
cd "$(dirname "$0")"

# One optimised build serves the tests and the smoke runs.
cargo build --release --offline
cargo test --release --offline
cargo run --release --offline --quiet -- --all --quick --trace 0
cargo run --release --offline --quiet -- --all --quick --trace 1

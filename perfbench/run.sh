#!/usr/bin/env bash
# Builds the benchmark and runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload apps-observed --seed 1 --seconds 60 --trace 0
#
# The benchmark replaces this shell (exec) instead of running under
# `cargo run`: Linux carries a process's peak resident memory across
# exec, so under `cargo run` the reported `peak_rss_mb` would be cargo's
# whenever cargo's is the larger.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
cargo build --release --quiet --offline --manifest-path "$here/Cargo.toml"
exec "${CARGO_TARGET_DIR:-$here/target}/release/specfaas-perfbench" "$@"

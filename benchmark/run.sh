#!/usr/bin/env bash
# Builds the `barre` binary and the benchmark from this checkout, then
# measures one workload. Run from the repository root:
#   bash benchmark/run.sh --workload <w> --seed <n> --seconds <s> --trace <0|1>
# Build output goes to stderr; the last line of stdout is the result JSON.
# The benchmark runs as a fresh child of this shell, not through `cargo
# run` and not by `exec`: either way its record of its children's peak
# RSS (`peak_rss_mb`) would start out holding a compiler's.
set -euo pipefail
cargo build --release --quiet --offline -p barre-cli >&2
cargo build --release --quiet --offline --manifest-path benchmark/Cargo.toml >&2
"${CARGO_TARGET_DIR:-benchmark/target}/release/barre-perf" run "$@"

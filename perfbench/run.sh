#!/usr/bin/env bash
# Builds the benchmark and the gramer-serve daemon from this checkout,
# then runs the benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload mine-mc --seed 1 --seconds 20 --trace 0
#
# Run it from the root of the repository. Build output goes to
# $CARGO_TARGET_DIR (default: .bench_build).
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$CARGO_TARGET_DIR"
target="$(cd "$CARGO_TARGET_DIR" && pwd)"
cargo build --release --offline --quiet --manifest-path Cargo.toml \
    -p gramer-serve --bin gramer-serve >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$target/release/gramer-perfbench" --daemon "$target/release/gramer-serve" "$@"

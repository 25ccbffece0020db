#!/usr/bin/env bash
# ROADMAP's Tier-1 line, `cargo build --release && cargo test -q`, spelled so
# that it passes from a bare checkout. Run from the repository root:
#   bash scripts/tier1.sh
#
# Resolves the real crates.io dependencies (parking_lot, serde, serde_json)
# whenever cargo can without the network; otherwise patches in the
# API-compatible stand-ins under crates/perf/stubs/, exactly as
# crates/perf/bench.sh does. Both spellings build and run every package and
# every test target. No flags, no environment variables read.
set -eu
if cargo metadata --offline --format-version 1 >/dev/null 2>&1; then
    cargo build --workspace --release --offline
    exec cargo test --workspace -q --offline
fi
cargo --config crates/perf/stubs/offline.toml build --workspace --release --offline
exec cargo --config crates/perf/stubs/offline.toml test --workspace -q --offline

#!/usr/bin/env bash
# BENCHMARK.json's command, run from the repository root:
#   bash crates/perf/bench.sh --workload <name> --seed <n> --seconds 20 --trace <0|1>
#
# Builds `perf` against the real crates.io dependencies whenever cargo can
# resolve them without the network (registry cache or a vendor directory).
# The PR driver's host has neither network nor cache, and its checkout holds
# only committed files, so there the build falls back to the API-compatible
# stand-ins under crates/perf/stubs/ — the only way the benchmark builds from
# a bare checkout. Every result file says which it was (`deps`), and
# `perf compare` refuses to mix the two.
set -eu
if cargo metadata --offline --format-version 1 >/dev/null 2>&1; then
    export PERF_DEPS=registry
    exec cargo run --release --offline --quiet -p perf -- run "$@"
fi
export PERF_DEPS=stubs
exec cargo --config crates/perf/stubs/offline.toml run --release --offline --quiet -p perf -- run "$@"

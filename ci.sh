#!/usr/bin/env bash
# Offline CI gate: formatting, lints, release build, full test suite.
#
# The whole workspace is std-only with path-only dependencies, so every
# step runs with the network forbidden. A clean checkout on a machine with
# a stock Rust toolchain and NO registry access must pass end-to-end; any
# reintroduced external dependency fails the build step immediately.
#
# Exits non-zero on the first failing step.

set -euo pipefail
cd "$(dirname "$0")"

export CARGO_NET_OFFLINE=true

run() {
    echo "==> $*"
    "$@"
}

# Hermeticity: the dependency graph must be path-only. Every package that
# `cargo metadata` can see must either live in this workspace (null
# "source") or not resolve at all; any registry/git source is a regression.
# Extra arguments (a --manifest-path) go to cargo metadata.
run_metadata_check() {
    echo "==> hermeticity: cargo metadata --offline${*:+ $*} lists only path dependencies"
    local sources
    sources=$(cargo metadata --format-version 1 --offline "$@" |
        tr ',' '\n' | grep -o '"source":"[^"]*"' | sort -u || true)
    if [ -n "$sources" ]; then
        echo "non-path dependency sources found:" >&2
        echo "$sources" >&2
        exit 1
    fi
}
run_metadata_check
# vdcbench is a workspace of its own, so its graph is checked separately.
run_metadata_check --manifest-path vdcbench/Cargo.toml

run cargo fmt --check
# vdcbench is a workspace of its own, so the root fmt and clippy steps
# never look at it; lint it the same way.
run cargo fmt --check --manifest-path vdcbench/Cargo.toml
# --locked on every step that resolves a graph: a manifest change whose
# Cargo.lock was not updated fails here instead of being rewritten.
run cargo clippy --workspace --all-targets --offline --locked -- -D warnings
run cargo clippy --manifest-path vdcbench/Cargo.toml --all-targets --offline --locked -- -D warnings
# The results gate below runs the member crates' bins (cosim, churn, ...),
# so build every workspace package, not only the facade.
run cargo build --release --offline --locked --workspace
# Every member crate's unit and property suites, not just the facade's.
run cargo test -q --offline --locked --workspace
# vdcbench is a workspace of its own (vdcbench/Cargo.toml), so the steps
# above never compile it. Build and test it here: a change that breaks an
# API the benchmark imports fails in CI, not at benchmark time.
run cargo test -q --release --offline --locked --manifest-path vdcbench/Cargo.toml

# Documentation must build clean for every member crate: any rustdoc
# warning (a broken intra-doc link, a malformed example) fails here, not
# on docs.rs.
run env RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline --locked

# Telemetry-overhead smoke check: an instrumented co-simulation must stay
# within a generous factor of the no-op-sink run (release build, so the
# ratio reflects real relative cost, not debug-build noise).
run cargo test -q --release --offline --locked --test telemetry_overhead

# Shard-equivalence gate: every runner must be bit-identical to the
# single-threaded run at every shard count. What fans out is coarse work
# (the optimizer's pod plans, cosim's per-app control periods); the
# Minimum Slack search and the per-sample data-center passes run inline.
# One run of tests/sharding.rs per count covers the whole suite, including
# the co-sim gate and its hierarchical-replay twin, which read VDC_SHARDS;
# the two counts are both ends of the shard range.
for n in 1 8; do
    run env VDC_SHARDS="$n" cargo test -q --offline --locked --test sharding
done

# Results-regression gate: re-run the cheap experiment bins from a scratch
# working directory (they write results/ relative to cwd) and diff the
# fresh METRICS_*.json against the committed baselines. Deterministic
# counters/gauges/SLO fields must match; schema drift vs vdc-metrics/1 is
# a hard failure. Intentional changes: bless with
#   target/release/results_gate --fresh target/results-gate/results --bless
# which rewrites only the baselines whose gated values moved (with their
# .tsv) and adds missing ones; the rest stay byte-identical.
echo "==> results_gate: regenerate experiment metrics and diff vs results/"
scratch="target/results-gate"
rm -rf "$scratch"
mkdir -p "$scratch"
(cd "$scratch" && ../release/vdcpower largescale --vms 40 --samples 48 >/dev/null)
(cd "$scratch" && ../release/cosim --apps 6 --days 1 -q >/dev/null)
(cd "$scratch" && ../release/week_profile -q >/dev/null)
(cd "$scratch" && ../release/churn -q >/dev/null)
(cd "$scratch" && ../release/faults --apps 8 --samples 48 -q >/dev/null)
# Controller ablation: the same trace through all three TierController
# impls (MPC / robust / cooling-coupled); the gate diffs the per-
# controller energy/violation/safe-mode family.
(cd "$scratch" && ../release/controllers --apps 8 --samples 48 -q >/dev/null)
# Megafleet smoke tier: streaming trace + hierarchical pods. --max-rss-mib
# asserts the constant-memory claim inside the bin, and the bin also exits
# 1 if any VM is left unplaced; the gate then diffs the deterministic
# counters and the bench record shape. 8000 servers is ~40 % above the
# smallest fleet that places all 20000 VMs at the default seed (5750).
(cd "$scratch" && ../release/megafleet --servers 8000 --vms 20000 --samples 48 \
    --max-rss-mib 64 -q >/dev/null)
run ./target/release/results_gate --baseline results --fresh "$scratch/results"

echo "==> ci.sh: all gates passed"

#!/usr/bin/env bash
# Local CI gate: everything a change must pass before merging.
#
#   ./ci.sh            # build + test + clippy + strict docs
#   ./ci.sh --quick    # build + test only
#
# The workspace denies missing_docs ([workspace.lints.rust] in
# Cargo.toml), so the ordinary builds below already enforce
# documentation on every public item; the doc step additionally fails
# on broken intra-doc links and other rustdoc warnings.
set -euo pipefail
cd "$(dirname "$0")"

quick=false
[[ "${1:-}" == "--quick" ]] && quick=true

echo "== build (release) =="
cargo build --release --workspace

# nb-crypto, home of the RSA arithmetic, is kept rustfmt-clean (the
# rest of the tree is not yet).
echo "== fmt (nb-crypto) =="
cargo fmt -p nb-crypto --check

echo "== test =="
cargo test --workspace --quiet

# The end-to-end benchmark (BENCHMARK.json) is its own workspace and
# builds ../crates/* from source, so the workspace build above does
# not compile it; build it here and run its unit tests.
echo "== benchmark crate test =="
CARGO_TARGET_DIR=.bench_build cargo test --release --offline --manifest-path e2ebench/Cargo.toml

# Benchmark smoke: each BENCHMARK.json workload for 3 s. No workspace
# test drives the real TCP path at rate; e2ebench exits non-zero on a
# lost, duplicated or reordered message, and the timeout catches a
# hang.
echo "== benchmark smoke =="
for workload in $(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))'); do
    timeout 300 env CARGO_TARGET_DIR=.bench_build cargo run --release --quiet --offline \
        --manifest-path e2ebench/Cargo.toml -- --workload "$workload" --seed 1 --seconds 3 --trace 0
done

# The committed parent/change e2ebench pairs (BENCH_e2e.json, written
# by ci/e2e_pairs.py): every run correct, each summary re-derived from
# the runs, no end-to-end metric past its BENCHMARK.json bound, and
# every claimed gain holding (see "End-to-end pairs" in
# docs/PERFORMANCE.md).
echo "== e2e pairs check =="
python3 ci/check_bench_json.py e2e

# The five data-plane reports below share one loopback harness and one
# trial policy (crates/bench/src/loopback.rs): 5 interleaved trials per
# configuration, medians compared, and an overhead gate that fails only
# when the median overhead exceeds both its budget and the baseline's
# own interquartile spread ("unresolved" when that spread is wider
# than the budget). check_bench_json.py re-checks every section
# (trials >= 5, min <= median <= max, exact delivery per trial) and
# re-derives each gate; see "Trials and gates" in docs/PERFORMANCE.md.
#
# Each report writes BENCH_<section>.json into its working directory,
# so it runs, with the check that reads the file back, in a scratch
# directory removed on exit: CI never overwrites the committed
# full-mode files.
root=$(pwd)
scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT
quick_report() {
    (cd "$scratch" &&
        cargo run --release --manifest-path "$root/Cargo.toml" -p nb-bench --bin "$1_report" -- --quick &&
        python3 "$root/ci/check_bench_json.py" "$1")
}
#
# Session-layer smoke (runs in --quick too: it gates the security hot
# path): drives the hosting-broker trace path under the per-trace RSA,
# token-only and session-tagged HMAC regimes on the co-resident
# contention workload; asserts (inside the binary) exact delivery,
# monitor silence, zero RSA fallbacks, median speedups of >= 10x over
# per-trace RSA and > 1x over token verify, zero keyring checks on
# plain frames with every key installed, and the 5% gate on the plain
# fast path; then writes BENCH_session.json and validates it.
echo "== session report (quick) =="
quick_report session

# Table 3's crypto rows: crypto_table runs 5 interleaved trials of 5
# samples per row and writes the crypto section of BENCH_paper.json;
# the check re-derives each row's median and quartiles from its trial
# means and re-checks the table's cost ordering (token generation >
# RSA sign > RSA verify > AES encrypt and decrypt).
echo "== crypto table (quick) =="
(cd "$scratch" &&
    NB_BENCH_SAMPLES=5 cargo run --release --manifest-path "$root/Cargo.toml" -p nb-bench --bin crypto_table &&
    python3 "$root/ci/check_bench_json.py" paper)

if ! $quick; then
    if cargo clippy --version >/dev/null 2>&1; then
        echo "== clippy =="
        cargo clippy --workspace --all-targets -- -D warnings
        # The benchmark crate is built on the workspace's public APIs.
        echo "== benchmark crate clippy =="
        CARGO_TARGET_DIR=.bench_build cargo clippy --offline --manifest-path e2ebench/Cargo.toml --all-targets -- -D warnings
    else
        echo "== clippy not installed; skipping =="
    fi

    echo "== docs (strict) =="
    RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

    # Causal-tracing smoke: drives a secured 3-broker deployment and
    # asserts (inside the binary) that the exports are non-empty and at
    # least one trace covers the complete publish→hop2→apply chain.
    echo "== trace report (smoke) =="
    cargo run --release -p nb-bench --bin trace_report -- --smoke

    # Fault-tolerance smoke: repeatedly downs and heals the middle
    # link of a broker chain and asserts (inside the binary) that every
    # cycle holds frames and reconverges within budget, and that the
    # tracker applies every trace once.
    echo "== chaos report (smoke) =="
    cargo run --release -p nb-bench --bin chaos_report -- --smoke

    # Data-plane smoke: saturates a loopback broker's routing
    # pipeline over 5 trials, asserts (inside the binary) exact
    # delivery and that every data frame routed without an owned
    # decode, and writes BENCH_throughput.json; then validate it.
    echo "== throughput report (quick) =="
    quick_report throughput

    # Runtime-verification smoke: drives the same loopback broker with
    # the standard monitors off, on (unmonitored topic), and on a fully
    # monitored trace topic, interleaved; asserts (inside the binary)
    # exact delivery, zero violations on clean traffic, zero monitor
    # events from unmonitored frames, and the 10% gate on the
    # monitors-on median, then writes BENCH_monitor.json; validate it.
    echo "== monitor report (quick) =="
    quick_report monitor

    # Telemetry-plane smoke: drives the loopback broker bare and with
    # the node's own telemetry publisher on (a fresh aggregator per
    # trial ingesting live), interleaved; asserts (inside the binary)
    # exact delivery, that every trial's genuine frames verify with no
    # duplicates, and the 2% gate on the telemetry-on median, then
    # writes BENCH_obs.json; validate it.
    echo "== obs report (quick) =="
    quick_report obs

    # Durability smoke: measures raw WAL append rate, times restart
    # recovery against growing log lengths (and after a checkpoint),
    # and drives the loopback fast path volatile vs durable,
    # interleaved; asserts (inside the binary) that replay covers every
    # record, compaction empties the log, publishing appends zero WAL
    # records while the log holds the control plane, and the 5% gate
    # on the durable median, then writes BENCH_recovery.json; validate
    # it.
    echo "== recovery report (quick) =="
    quick_report recovery
fi

echo "CI OK"

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

echo "== test =="
cargo test --workspace --quiet

# Session-layer smoke (runs in --quick too: it gates the security hot
# path): drives the hosting-broker trace path under the per-trace RSA
# regime and the session-tagged HMAC regime on the co-resident
# contention workload; asserts (inside the binary) exact delivery,
# monitor silence, zero RSA fallbacks, a ≥10x speedup over per-trace
# RSA, and that a populated keyring costs < 5% of the plain fast path,
# then writes BENCH_session.json; validate the shape documented in
# docs/PERFORMANCE.md.
echo "== session report (quick) =="
cargo run --release -p nb-bench --bin session_report -- --quick
python3 ci/check_bench_json.py session

if ! $quick; then
    if cargo clippy --version >/dev/null 2>&1; then
        echo "== clippy =="
        cargo clippy --workspace --all-targets -- -D warnings
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

    # Fault-tolerance smoke: repeatedly severs and heals the middle
    # link of a supervised broker chain and asserts (inside the
    # binary) that every cycle reconverges within budget and the
    # repair cycles appear in the link metrics.
    echo "== chaos report (smoke) =="
    cargo run --release -p nb-bench --bin chaos_report -- --smoke

    # Data-plane smoke: saturates a loopback broker's routing
    # pipeline, asserts (inside the binary) exact delivery and that
    # every data frame routed without an owned decode, and writes
    # BENCH_throughput.json; then validate the JSON shape documented
    # in docs/PERFORMANCE.md.
    echo "== throughput report (quick) =="
    cargo run --release -p nb-bench --bin throughput_report -- --quick
    python3 ci/check_bench_json.py throughput

    # Runtime-verification smoke: drives the same loopback broker with
    # the standard monitors off, on (unmonitored topic), and on a fully
    # monitored trace topic; asserts (inside the binary) exact
    # delivery, zero violations on clean traffic, and that monitors
    # cost < 10% of fast-path throughput, then writes
    # BENCH_monitor.json; validate the JSON shape documented in
    # docs/OBSERVABILITY.md.
    echo "== monitor report (quick) =="
    cargo run --release -p nb-bench --bin monitor_report -- --quick
    python3 ci/check_bench_json.py monitor

    # Telemetry-plane smoke: drives the loopback broker with the
    # node's own telemetry publisher off and on (aggregator ingesting
    # live), asserts (inside the binary) exact delivery, that genuine
    # frames verify, and that telemetry costs < 2% of fast-path
    # throughput, then writes BENCH_obs.json; validate the shape
    # documented in docs/OBSERVABILITY.md.
    echo "== obs report (quick) =="
    cargo run --release -p nb-bench --bin obs_report -- --quick
    python3 ci/check_bench_json.py obs

    # Durability smoke: measures raw WAL append rate, times restart
    # recovery against growing log lengths (and after a checkpoint),
    # and drives the loopback fast path volatile vs durable; asserts
    # (inside the binary) that replay covers every record, compaction
    # empties the log, and durability costs < 5% of data-plane
    # throughput, then writes BENCH_recovery.json; validate the shape
    # documented in docs/PERFORMANCE.md.
    echo "== recovery report (quick) =="
    cargo run --release -p nb-bench --bin recovery_report -- --quick
    python3 ci/check_bench_json.py recovery
fi

echo "CI OK"

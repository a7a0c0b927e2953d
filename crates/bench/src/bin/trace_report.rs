//! **Trace report** — drives a secured multi-broker deployment with
//! head sampling at 100% and prints per-hop latency attribution from
//! the causal traces (see `docs/OBSERVABILITY.md`, "Causal tracing").
//!
//! Stands up a 3-broker chain with one secured traced entity at broker
//! 0 and a tracker at broker 2, lets traces flow end to end, then:
//!
//! * groups the recorded spans by trace id and prints, for each hop,
//!   where the time went — authorization, routing, queueing, forwarding
//!   and the transit gap to the next hop;
//! * writes the raw spans as JSON lines
//!   (`target/trace_report/spans.jsonl`) and as a Chrome
//!   `trace_event` file (`target/trace_report/trace.json`, loadable in
//!   `chrome://tracing` / Perfetto);
//! * measures the unsampled fast path so the "tracing off" cost stays
//!   honest.
//!
//! Run with `--smoke` (CI) for a shorter drive with the same
//! assertions: non-empty exports and at least one complete
//! publish → hop 0 → hop 1 → hop 2 → tracker-apply chain.

#![allow(clippy::field_reassign_with_default)] // config tweaking reads better imperatively

use nb_bench::loopback::wait_until;
use nb_telemetry::{
    chrome_trace, json_lines, HeadSampler, NodeSpans, SpanEvent, Stage, TraceContext,
};
use nb_tracing::config::{SigningMode, TracingConfig};
use nb_tracing::harness::{Deployment, Topology};
use nb_tracing::view::EntityStatus;
use nb_transport::clock::system_clock;
use nb_transport::sim::LinkConfig;
use nb_wire::payload::DiscoveryRestrictions;
use nb_wire::trace::{LoadInformation, TraceCategory};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Per-hop duration buckets, in nanoseconds, accumulated over every
/// sampled trace that reached the hop.
#[derive(Default)]
struct HopBucket {
    auth: Vec<u64>,
    route: Vec<u64>,
    queue: Vec<u64>,
    forward: Vec<u64>,
    /// Gap between this hop's forward completing and the next hop's
    /// auth check starting: wire + framing + ingress queueing.
    transit: Vec<u64>,
}

fn mean_us(xs: &[u64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<u64>() as f64 / xs.len() as f64 / 1_000.0
}

/// Groups every captured span by trace id, keeping the capturing node.
fn by_trace(nodes: &[NodeSpans]) -> BTreeMap<u128, Vec<(&str, SpanEvent)>> {
    let mut traces: BTreeMap<u128, Vec<(&str, SpanEvent)>> = BTreeMap::new();
    for node in nodes {
        for span in &node.spans {
            traces
                .entry(span.trace_id)
                .or_default()
                .push((node.node.as_str(), *span));
        }
    }
    for spans in traces.values_mut() {
        spans.sort_by_key(|(_, s)| (s.start_ns, s.span_id));
    }
    traces
}

/// Folds one trace's spans into the per-hop buckets.
fn attribute(spans: &[(&str, SpanEvent)], hops: &mut BTreeMap<u8, HopBucket>) {
    for (_, s) in spans {
        let bucket = hops.entry(s.hop).or_default();
        match s.stage {
            Stage::AuthCheck => bucket.auth.push(s.dur_ns()),
            Stage::Route => bucket.route.push(s.dur_ns()),
            Stage::Enqueue | Stage::Deliver => bucket.queue.push(s.dur_ns()),
            Stage::Forward => bucket.forward.push(s.dur_ns()),
            _ => {}
        }
    }
    // Transit: forward at hop h → auth check at hop h + 1.
    for (_, fwd) in spans.iter().filter(|(_, s)| s.stage == Stage::Forward) {
        if let Some((_, next)) = spans
            .iter()
            .find(|(_, s)| s.stage == Stage::AuthCheck && s.hop == fwd.hop + 1)
        {
            hops.entry(fwd.hop)
                .or_default()
                .transit
                .push(next.start_ns.saturating_sub(fwd.end_ns));
        }
    }
}

/// Whether one trace covers the full publish → 2-hop → apply chain.
fn complete_chain(spans: &[(&str, SpanEvent)]) -> bool {
    let has = |stage, hop| spans.iter().any(|(_, s)| s.stage == stage && s.hop == hop);
    has(Stage::TracePublish, 0)
        && has(Stage::AuthCheck, 0)
        && has(Stage::Forward, 0)
        && has(Stage::AuthCheck, 1)
        && has(Stage::AuthCheck, 2)
        && has(Stage::TrackerApply, 2)
}

/// Measures the per-message cost of the tracing guard when nothing is
/// sampled: the branch every unsampled hot-path message pays.
fn unsampled_guard_ns() -> (f64, f64) {
    const N: u64 = 4_000_000;
    let sampler = HeadSampler::new(0);
    let ctx = TraceContext::root(1, false);
    let mut acc = 0u64;
    let t = Instant::now();
    for i in 0..N {
        acc = acc.wrapping_add(i);
    }
    let base = t.elapsed().as_nanos() as f64 / N as f64;
    std::hint::black_box(acc);
    let mut hits = 0u64;
    let t = Instant::now();
    for i in 0..N {
        acc = acc.wrapping_add(i);
        if ctx.sampled && sampler.decide(ctx.trace_id) {
            hits += 1;
        }
    }
    let guarded = t.elapsed().as_nanos() as f64 / N as f64;
    std::hint::black_box((acc, hits));
    (base, guarded)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    println!("== trace report: 3-broker chain, secured entity, 100% head sampling ==");

    let mut config = TracingConfig::for_tests();
    config.auto_tick = true;
    config.tick = Duration::from_millis(10);
    config.telemetry.sample_ppm = 1_000_000; // sample every message

    let dep = Deployment::new(
        Topology::Chain(3),
        LinkConfig::default(),
        system_clock(),
        config,
    )
    .expect("deployment");

    let entity = dep
        .traced_entity(
            0,
            "traced-svc",
            DiscoveryRestrictions::Open,
            SigningMode::RsaSign,
            true, // secured: the auth column includes real token checks
        )
        .expect("traced entity");
    let tracker = dep
        .tracker(
            2,
            "hop2-watcher",
            "traced-svc",
            vec![
                TraceCategory::ChangeNotifications,
                TraceCategory::AllUpdates,
                TraceCategory::Load,
            ],
        )
        .expect("tracker");

    // Drive traffic until the far tracker has applied real traces.
    assert!(
        wait_until(Duration::from_secs(15), || {
            tracker.view().status("traced-svc") == Some(EntityStatus::Available)
        }),
        "entity never became available at the hop-2 tracker"
    );
    let load_reports = if smoke { 3 } else { 10 };
    for i in 0..load_reports {
        entity
            .report_load(LoadInformation {
                cpu_percent: 7.0 * i as f64,
                memory_used_bytes: 1 << 28,
                memory_total_bytes: 1 << 30,
                workload: i,
            })
            .expect("load report");
        std::thread::sleep(Duration::from_millis(25));
    }
    assert!(wait_until(Duration::from_secs(15), || {
        entity.pings_answered() >= if smoke { 2 } else { 5 }
    }));
    // Let in-flight publications finish their last hop before capture.
    assert!(wait_until(Duration::from_secs(15), || {
        tracker.traces_applied() >= load_reports
    }));

    // Capture every recorder: brokers, engines, TDNs, plus the tracker.
    let mut nodes = dep.telemetry_spans();
    nodes.push(NodeSpans::capture(tracker.flight_recorder()));
    let total_spans: usize = nodes.iter().map(|n| n.spans.len()).sum();
    println!(
        "captured {total_spans} spans across {} recorders",
        nodes.len()
    );

    let traces = by_trace(&nodes);
    let mut hops: BTreeMap<u8, HopBucket> = BTreeMap::new();
    let mut complete = 0usize;
    for spans in traces.values() {
        attribute(spans, &mut hops);
        if complete_chain(spans) {
            complete += 1;
        }
    }

    println!(
        "\n-- per-hop latency attribution (mean µs over {} traces) --",
        traces.len()
    );
    println!(
        "{:>4}  {:>10}  {:>10}  {:>10}  {:>10}  {:>12}",
        "hop", "auth", "route", "queue", "forward", "transit→next"
    );
    for (hop, b) in &hops {
        println!(
            "{hop:>4}  {:>10.2}  {:>10.2}  {:>10.2}  {:>10.2}  {:>12.2}",
            mean_us(&b.auth),
            mean_us(&b.route),
            mean_us(&b.queue),
            mean_us(&b.forward),
            mean_us(&b.transit),
        );
    }
    println!(
        "complete publish→hop2→apply chains: {complete} of {} traces",
        traces.len()
    );

    // Exports.
    let dir = std::path::Path::new("target/trace_report");
    std::fs::create_dir_all(dir).expect("create target/trace_report");
    let jsonl = json_lines(&nodes);
    let chrome = chrome_trace(&nodes);
    std::fs::write(dir.join("spans.jsonl"), &jsonl).expect("write spans.jsonl");
    std::fs::write(dir.join("trace.json"), &chrome).expect("write trace.json");
    println!(
        "wrote {} ({} bytes) and {} ({} bytes)",
        dir.join("spans.jsonl").display(),
        jsonl.len(),
        dir.join("trace.json").display(),
        chrome.len()
    );

    // Unsampled fast-path cost.
    let (base, guarded) = unsampled_guard_ns();
    println!(
        "unsampled guard: {base:.2} ns/op baseline vs {guarded:.2} ns/op guarded \
         ({:+.2} ns/message when tracing is idle)",
        guarded - base
    );

    // Keep the report honest — these also back the CI smoke run.
    assert!(total_spans > 0, "no spans were recorded");
    assert!(!jsonl.is_empty(), "JSON-lines export is empty");
    assert!(
        chrome.contains("\"traceEvents\""),
        "Chrome trace export is malformed"
    );
    assert!(
        complete >= 1,
        "no trace covered the complete publish→hop2→apply chain"
    );
    println!("trace report OK: {complete} complete chains, exports written");
}

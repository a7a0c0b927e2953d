//! `top` for the cluster: a live terminal scoreboard rendered from
//! the telemetry plane.
//!
//! Every broker, tracing engine and TDN self-publishes its metrics on
//! the constrained Obs topic; a [`ClusterAggregator`] subscribed at
//! broker 0 reassembles the stream into per-node time series. This
//! example stands up a busy deployment (entities pinging, trackers
//! watching), then refreshes a table once a second: nodes ranked by
//! publish rate, with health, heartbeat sequence, flap count and drop
//! totals per node, and the cluster rollup underneath.
//!
//! Run with: `cargo run --release --example cluster_top`

#![allow(clippy::field_reassign_with_default)] // config tweaking reads better imperatively

use entity_tracing::metrics::SnapshotValue;
use entity_tracing::prelude::*;
use std::time::Duration;

const REFRESHES: usize = 6;

/// The per-kind "work done" counter the table ranks nodes by.
fn work_counter(kind: &str) -> &'static str {
    match kind {
        "broker" => "broker.publish.accepted",
        "engine" => "tracing.pings.sent",
        "tdn" => "tdn.discovery.queries",
        _ => "",
    }
}

/// Frames dropped or refused by a node, summed over its drop counters.
fn drops(total: &entity_tracing::metrics::Snapshot) -> u64 {
    [
        "broker.reject.constraint",
        "broker.drop.spurious_token",
        "broker.drop.ttl_exceeded",
    ]
    .iter()
    .filter_map(|n| total.counter(n))
    .sum()
}

fn main() {
    println!("== cluster top: telemetry-plane scoreboard ==\n");

    let mut config = TracingConfig::default();
    config.ping_interval = Duration::from_millis(200);
    config.response_timeout = Duration::from_millis(100);
    config.rsa_bits = 512;
    let deployment = Deployment::new(
        Topology::Chain(3),
        LinkConfig::default(),
        system_clock(),
        config,
    )
    .expect("deployment");

    // Background load so the board has something to show.
    let entity_far = deployment
        .traced_entity(
            2,
            "svc-far",
            DiscoveryRestrictions::Open,
            SigningMode::RsaSign,
            false,
        )
        .expect("entity");
    let entity_near = deployment
        .traced_entity(
            0,
            "svc-near",
            DiscoveryRestrictions::Open,
            SigningMode::RsaSign,
            false,
        )
        .expect("entity");
    let _watcher = deployment
        .tracker(
            0,
            "ops-console",
            "svc-far",
            vec![TraceCategory::ChangeNotifications],
        )
        .expect("tracker");

    // The telemetry plane: signed publishers on every node, aggregator
    // at broker 0, all pumping in the background.
    let obs = deployment
        .telemetry(PublisherConfig {
            interval_ms: 500,
            full_every: 8,
        })
        .expect("telemetry plane");
    obs.start();

    let clock = system_clock();
    for frame in 0..REFRESHES {
        std::thread::sleep(Duration::from_secs(1));
        let agg = obs.aggregator();
        let now_ms = clock.now_ms();

        // Rank nodes by their kind's work-counter rate over the last
        // 5 seconds of retained samples.
        let mut rows: Vec<(f64, String)> = agg
            .health_report(now_ms)
            .into_iter()
            .map(|h| {
                let total = agg.node_total(&h.node).unwrap_or_default();
                let rate = agg
                    .window_delta(&h.node, Duration::from_secs(5))
                    .and_then(|w| w.rate(work_counter(h.kind.label())))
                    .unwrap_or(0.0);
                let row = format!(
                    "{:<24} {:<7} {:<9} {:>5} {:>6} {:>9.1} {:>7}",
                    h.node,
                    h.kind.label(),
                    h.state.label(),
                    h.seq,
                    h.flaps,
                    rate,
                    drops(&total),
                );
                (rate, row)
            })
            .collect();
        rows.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));

        // Redraw in place: clear screen, home the cursor. (Skipped for
        // the first frame so the preamble above stays visible once.)
        if frame > 0 {
            print!("\x1b[2J\x1b[H");
        }
        println!("cluster top — refresh {}/{REFRESHES}", frame + 1);
        println!(
            "{:<24} {:<7} {:<9} {:>5} {:>6} {:>9} {:>7}",
            "NODE", "KIND", "HEALTH", "SEQ", "FLAPS", "WORK/s", "DROPS"
        );
        for (_, row) in &rows {
            println!("{row}");
        }

        let rollup = agg.rollup();
        let cluster_counters: u64 = rollup
            .entries()
            .iter()
            .filter_map(|e| match &e.value {
                SnapshotValue::Counter(v) => Some(*v),
                _ => None,
            })
            .sum();
        let stats = agg.metrics_snapshot();
        println!(
            "\ncluster: {} nodes, {} counted events  |  frames: {} ok, {} dup, {} gap, {} rejected",
            rows.len(),
            cluster_counters,
            stats.counter("obs.frames.accepted").unwrap_or(0),
            stats.counter("obs.frames.duplicate").unwrap_or(0),
            stats.counter("obs.frames.gap").unwrap_or(0),
            stats.counter("obs.frames.rejected").unwrap_or(0),
        );
    }

    // Parting shot: the same view, exported both ways.
    let now_ms = clock.now_ms();
    let prom = entity_tracing::obs::prometheus_text(obs.aggregator(), now_ms);
    let json = entity_tracing::obs::json_export(obs.aggregator(), now_ms, Duration::from_secs(5));
    println!(
        "\nexports: prometheus text {} B, json document {} B",
        prom.len(),
        json.len()
    );

    drop(entity_far);
    drop(entity_near);
}

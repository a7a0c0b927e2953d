//! **Table 3 / Figure 2** — trace routing overhead for different hop
//! counts, per transport, with authorization only vs authorization +
//! security.
//!
//! Topology mirrors the paper's Figure 1: a broker chain with the
//! traced entity attached at one end and the measuring tracker at the
//! other, both in this process (no clock-synchronization issues). The
//! simulated medium models the paper's 100 Mbps LAN with 1–2 ms
//! per-hop broker latency; real TCP and UDP run over loopback for the
//! transport-ordering comparison.
//!
//! Expected shape (paper): latency grows roughly linearly with hops;
//! UDP < TCP; authorization+security costs more than authorization
//! only by about the symmetric-crypto delta.

#![allow(clippy::field_reassign_with_default)] // config tweaking reads better imperatively

use nb_bench::{
    measure_trace_latencies, print_header, print_row, sample_count, wait_interest, Stats,
};
use nb_broker::network::Medium;
use nb_tracing::config::{SigningMode, TracingConfig};
use nb_tracing::harness::{Deployment, Topology};
use nb_transport::clock::system_clock;
use nb_transport::sim::LinkConfig;
use nb_wire::payload::DiscoveryRestrictions;
use nb_wire::trace::TraceCategory;

fn run_point(medium: Medium, hops: usize, secured: bool, samples: usize) -> Option<Stats> {
    let mut config = TracingConfig::default();
    config.rsa_bits = 1024; // the paper's configuration
    config.ping_interval = std::time::Duration::from_millis(500);
    let dep = Deployment::over(Topology::Chain(hops), medium, system_clock(), config).ok()?;
    let entity = dep
        .traced_entity(
            0,
            "bench-entity",
            DiscoveryRestrictions::Open,
            SigningMode::RsaSign,
            secured,
        )
        .ok()?;
    let tracker = dep
        .tracker(
            hops - 1,
            "measuring-tracker",
            "bench-entity",
            vec![TraceCategory::Load, TraceCategory::ChangeNotifications],
        )
        .ok()?;
    if !wait_interest(&dep, 0, "bench-entity", 1) {
        return None;
    }
    if secured {
        // The trace key must be in place before encrypted loads decode.
        nb_bench::wait_trace_key(&tracker, std::time::Duration::from_secs(20))?;
    }
    let latencies = measure_trace_latencies(&entity, &tracker, samples, 3);
    if latencies.is_empty() {
        return None;
    }
    Some(Stats::from_samples(&latencies))
}

fn main() {
    let samples = sample_count(50);
    println!("== Table 3 / Figure 2: trace routing overhead vs hops ==");
    println!("(all values milliseconds; {samples} samples per point)");

    let media: [(&str, Medium); 3] = [
        ("SIM 1.5ms/hop", Medium::Sim(LinkConfig::default())),
        ("TCP loopback", Medium::Tcp),
        ("UDP loopback", Medium::Udp),
    ];
    for (medium_name, medium) in media {
        for secured in [false, true] {
            let mode = if secured {
                "Authorization & Security"
            } else {
                "Authorization Only"
            };
            print_header(
                &format!("Trace Routing Overhead ({medium_name}) — {mode}"),
                "ms",
            );
            for hops in 2..=6 {
                match run_point(medium, hops, secured, samples) {
                    Some(stats) => print_row(&format!("{hops} hops"), &stats),
                    None => println!("{hops} hops: MEASUREMENT FAILED"),
                }
            }
        }
    }
    println!("\nFigure 2 series = the four (transport, mode) curves above.");
    // Deployments are torn down per point; the process-wide registry
    // keeps the crypto/token/transport totals for the whole run.
    nb_bench::print_metrics_epilogue(
        "process-wide totals across all points",
        &nb_metrics::global().snapshot(),
    );
}

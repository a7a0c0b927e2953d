//! **Figure 5** — reduction of signing costs (§6.3).
//!
//! The optimization replaces per-message RSA signatures on the
//! entity→broker path with symmetric authentication under a shared
//! session key, "since the encryption/decryption costs are cheaper
//! than the corresponding signing/verification cost". We measure the
//! end-to-end trace time per hop count in both modes.
//!
//! Expected shape (paper): the symmetric mode is strictly cheaper at
//! every hop count; the gap is the per-message RSA cost.

#![allow(clippy::field_reassign_with_default)] // config tweaking reads better imperatively

use nb_bench::{
    measure_trace_latencies, print_header, print_row, sample_count, wait_interest, Stats,
};
use nb_tracing::config::{SigningMode, TracingConfig};
use nb_tracing::harness::{Deployment, Topology};
use nb_transport::clock::system_clock;
use nb_transport::sim::LinkConfig;
use nb_wire::payload::DiscoveryRestrictions;
use nb_wire::trace::TraceCategory;

fn run_point(hops: usize, mode: SigningMode, samples: usize) -> Option<Stats> {
    let mut config = TracingConfig::default();
    config.rsa_bits = 1024;
    let dep = Deployment::new(
        Topology::Chain(hops),
        LinkConfig::default(),
        system_clock(),
        config,
    )
    .ok()?;
    let entity = dep
        .traced_entity(0, "opt-entity", DiscoveryRestrictions::Open, mode, false)
        .ok()?;
    let tracker = dep
        .tracker(
            hops - 1,
            "opt-tracker",
            "opt-entity",
            vec![TraceCategory::Load, TraceCategory::ChangeNotifications],
        )
        .ok()?;
    if !wait_interest(&dep, 0, "opt-entity", 1) {
        return None;
    }
    let latencies = measure_trace_latencies(&entity, &tracker, samples, 3);
    if latencies.is_empty() {
        return None;
    }
    Some(Stats::from_samples(&latencies))
}

fn main() {
    let samples = sample_count(50);
    println!("== Figure 5: reduction of signing costs (§6.3) ==");
    println!("(entity→broker authentication: RSA signature vs shared-key HMAC; {samples} samples per point)");

    for (label, mode) in [
        (
            "Per-message RSA signing (base scheme)",
            SigningMode::RsaSign,
        ),
        (
            "Symmetric-key authentication (optimized)",
            SigningMode::SymmetricKey,
        ),
    ] {
        print_header(label, "ms");
        for hops in 2..=6 {
            match run_point(hops, mode, samples) {
                Some(stats) => print_row(&format!("{hops} hops"), &stats),
                None => println!("{hops} hops: MEASUREMENT FAILED"),
            }
        }
    }
}

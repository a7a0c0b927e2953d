//! **§1 ablation** — message complexity of the naive all-to-all
//! heartbeat scheme vs the interest-gated tracing scheme, plus the
//! gossip baseline from the related-work section.
//!
//! The paper's motivating claim: the naive scheme costs N×(N−1)
//! messages per period and "the limits of this approach become
//! apparent since every entity within the system would be inundated
//! with messages". The tracing scheme issues traces *only* to
//! interested trackers and stays silent when there is no interest.

#![allow(clippy::field_reassign_with_default)] // config tweaking reads better imperatively

use nb_baseline::{GossipConfig, GossipFailureDetector, NaiveConfig, NaiveHeartbeatSystem};
use nb_bench::sample_count;
use nb_tracing::config::{SigningMode, TracingConfig};
use nb_tracing::harness::{Deployment, Topology};
use nb_transport::clock::system_clock;
use nb_transport::sim::LinkConfig;
use nb_wire::payload::DiscoveryRestrictions;
use nb_wire::trace::TraceCategory;
use std::time::Duration;

fn main() {
    let rounds = sample_count(10) as u64;

    println!("== Baseline comparison: message complexity ==\n");
    println!("Naive all-to-all heartbeats (paper §1: N×(N−1) per period):");
    println!(
        "{:<12} {:>18} {:>22}",
        "N entities",
        "msgs/period",
        format!("msgs over {rounds} periods")
    );
    for n in [10usize, 30, 50, 100] {
        let mut sys = NaiveHeartbeatSystem::new(n, NaiveConfig::default());
        for _ in 0..rounds {
            sys.run_round();
        }
        println!(
            "{:<12} {:>18} {:>22}",
            n,
            sys.messages_per_round(),
            sys.messages_sent()
        );
    }

    println!("\nGossip failure detection (related work §7; fanout 2):");
    println!(
        "{:<12} {:>18} {:>26}",
        "N members", "msgs/round", "rounds to majority suspicion"
    );
    for n in [10usize, 30, 50, 100] {
        let mut g = GossipFailureDetector::new(n, GossipConfig::default());
        for _ in 0..rounds {
            g.run_round();
        }
        let per_round = g.messages_sent() / g.round();
        g.kill(n / 2);
        let detect = g.rounds_until_majority_suspicion(n / 2, 200);
        println!("{:<12} {:>18} {:>26}", n, per_round, detect);
    }

    // The tracing scheme: broker message counts with vs without
    // tracker interest (the §3.5 gate).
    println!("\nTracing scheme (1 entity, heartbeats @100ms, 3 s window):");
    for interested in [false, true] {
        let mut config = TracingConfig::default();
        config.rsa_bits = 512; // speed; message counting only
        config.ping_interval = Duration::from_millis(100);
        let dep = Deployment::new(
            Topology::Chain(2),
            LinkConfig::instant(),
            system_clock(),
            config,
        )
        .expect("deployment");
        let _entity = dep
            .traced_entity(
                0,
                "cmp-entity",
                DiscoveryRestrictions::Open,
                SigningMode::RsaSign,
                false,
            )
            .expect("entity");
        let _tracker = interested.then(|| {
            dep.tracker(
                1,
                "cmp-tracker",
                "cmp-entity",
                vec![
                    TraceCategory::AllUpdates,
                    TraceCategory::ChangeNotifications,
                ],
            )
            .expect("tracker")
        });
        std::thread::sleep(Duration::from_secs(3));
        let stats = dep.engine(0).stats();
        println!(
            "  interest={:<5} pings={} traces_published={} traces_gated={}",
            interested, stats.pings_sent, stats.traces_published, stats.traces_gated
        );
    }
    println!("\nShape check: naive grows quadratically with N; gossip linear;");
    println!("the tracing scheme publishes ZERO heartbeat traces when nobody is interested.");
}

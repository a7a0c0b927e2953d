//! A started obs plane runs on one thread, which ticks every node's
//! publisher and feeds the aggregator. Threads are counted by name, so
//! this file holds a single test.

use nb_obs::PublisherConfig;
use nb_tracing::config::TracingConfig;
use nb_tracing::harness::{Deployment, Topology};
use nb_transport::clock::system_clock;
use nb_transport::sim::LinkConfig;
use std::time::{Duration, Instant};

/// Threads of this process whose name starts with `obs-` (the kernel
/// keeps its first 15 bytes).
fn obs_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.starts_with("obs-"))
        .count()
}

/// Waits up to `timeout` for `done`; returns whether it came true.
fn wait_until(timeout: Duration, mut done: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while !done() {
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    true
}

#[test]
fn a_started_obs_plane_runs_one_thread() {
    let dep = Deployment::new(
        Topology::Chain(2),
        LinkConfig::instant(),
        system_clock(),
        TracingConfig::for_tests(),
    )
    .unwrap();
    let obs = dep
        .telemetry(PublisherConfig {
            interval_ms: 50,
            full_every: 4,
        })
        .unwrap();
    obs.start();
    // A second start is a no-op.
    obs.start();
    // Two brokers, two engines and three TDNs.
    let heard = || obs.aggregator().nodes().len();
    assert!(
        wait_until(Duration::from_secs(10), || heard() == 7),
        "the aggregator heard only {:?}",
        obs.aggregator().nodes()
    );
    assert_eq!(obs_threads(), 1, "one thread runs the whole obs plane");
    drop((obs, dep));
    assert!(
        wait_until(Duration::from_secs(2), || obs_threads() == 0),
        "{} obs threads outlived their deployment",
        obs_threads()
    );
}

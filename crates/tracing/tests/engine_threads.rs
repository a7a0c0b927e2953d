//! Each tracing engine runs on one thread, which both handles its
//! messages and runs its scheduling passes. Threads are counted by
//! name, so this file holds a single test.

#![allow(clippy::field_reassign_with_default)] // config tweaking reads better imperatively

use nb_tracing::config::TracingConfig;
use nb_tracing::harness::{Deployment, Topology};
use nb_transport::clock::system_clock;
use nb_transport::sim::LinkConfig;
use std::time::{Duration, Instant};

/// Threads of this process named for a tracing engine
/// (`tracing-engine@<broker>`; the kernel keeps its first 15 bytes).
fn engine_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.starts_with("tracing-engine@"))
        .count()
}

/// Waits up to two seconds for the engine thread count to reach `want`.
fn settles_at(want: usize) -> usize {
    let deadline = Instant::now() + Duration::from_secs(2);
    while engine_threads() != want && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    engine_threads()
}

#[test]
fn each_engine_runs_one_thread() {
    let mut config = TracingConfig::for_tests();
    config.auto_tick = true;
    let dep = Deployment::new(
        Topology::Chain(2),
        LinkConfig::instant(),
        system_clock(),
        config,
    )
    .unwrap();
    // A new thread names itself once it runs; give the engines' ticks
    // time to show up too.
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(settles_at(2), 2, "two engines, one thread each");
    drop(dep);
    assert_eq!(settles_at(0), 0, "engine threads outlived their deployment");
}

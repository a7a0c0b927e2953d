//! A UDP endpoint's reader thread exits once the endpoint and every
//! sender cloned from it are dropped. Threads are counted by name, so
//! this file holds a single test.

use nb_transport::udp;
use std::time::{Duration, Instant};

/// Threads of this process named `udp-reader`.
fn udp_readers() -> usize {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.trim_end() == "udp-reader")
        .count()
}

/// Waits up to one second for the reader count to reach `want`.
fn settles_at(want: usize) -> bool {
    let deadline = Instant::now() + Duration::from_secs(1);
    while udp_readers() != want && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    udp_readers() == want
}

#[test]
fn dropped_endpoints_stop_their_reader_threads() {
    let before = udp_readers();
    let pairs: Vec<_> = (0..20).map(|_| udp::loopback_pair().unwrap()).collect();
    // A new thread names itself once it runs.
    assert!(settles_at(before + 40), "one reader per endpoint");
    drop(pairs);
    assert!(
        settles_at(before),
        "reader threads outlived their endpoints"
    );
}

//! A broker runs threads only for its links: neighbour handshakes and
//! anti-entropy run on each link's own thread, so a 2-broker chain with
//! the default config (adverts refreshed every 500 ms) runs one thread
//! per link end and no advert refresher. Threads are counted by name,
//! so this file holds a single test.

use nb_broker::network::BrokerNetwork;
use nb_broker::BrokerConfig;
use nb_transport::clock::system_clock;
use nb_transport::sim::LinkConfig;
use std::time::Duration;

/// Threads of this process whose name (the kernel keeps its first 15
/// bytes) satisfies `pick`.
fn threads(pick: impl Fn(&str) -> bool) -> usize {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|comm| pick(comm.trim_end()))
        .count()
}

#[test]
fn a_chain_runs_no_advert_thread() {
    let config = BrokerConfig::default();
    assert!(
        config.advert_refresh.is_some(),
        "anti-entropy is on by default"
    );
    let chain = BrokerNetwork::chain(2, LinkConfig::instant(), system_clock(), config);
    assert!(chain.wait_for_mesh(Duration::from_secs(10)));
    // A new thread names itself once it runs.
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(
        threads(|comm| comm.contains("advert")),
        0,
        "an advert refresher runs"
    );
    assert_eq!(
        threads(|comm| comm.starts_with("broker-")),
        2,
        "one thread per end of the chain's one link"
    );
    drop(chain);
    assert_eq!(threads(|comm| comm.starts_with("broker-")), 0);
}

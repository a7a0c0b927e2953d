//! A broker network whose links are all TCP starts no simulator thread:
//! its `SimNetwork` holds no frame, so the scheduler never starts.
//! Threads are counted by name, so this file holds a single test.

use nb_broker::network::{BrokerNetwork, Medium};
use nb_broker::BrokerConfig;
use nb_transport::clock::system_clock;
use nb_wire::{Payload, Topic};
use std::time::Duration;

const WAIT: Duration = Duration::from_secs(10);

/// Threads of this process named `sim-net-scheduler` (the kernel keeps
/// its first 15 bytes).
fn sim_schedulers() -> usize {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.trim_end() == "sim-net-schedul")
        .count()
}

#[test]
fn a_tcp_chain_starts_no_sim_scheduler() {
    let chain =
        BrokerNetwork::chain_over(2, Medium::Tcp, system_clock(), BrokerConfig::default()).unwrap();
    assert!(chain.wait_for_mesh(WAIT));
    // Traffic crosses the chain's TCP link end to end.
    let topic = Topic::parse("idle/sim").unwrap();
    let subscriber = chain.attach_client(1, "subscriber").unwrap();
    subscriber.subscribe(topic.clone(), WAIT).unwrap();
    let publisher = chain.attach_client(0, "publisher").unwrap();
    let delivered = (0..100).any(|_| {
        publisher
            .publish(topic.clone(), Payload::Blob { data: vec![1] })
            .unwrap();
        subscriber.next_message(Duration::from_millis(100)).is_ok()
    });
    assert!(delivered, "no publish crossed the chain");
    assert_eq!(sim_schedulers(), 0, "a TCP chain started the sim scheduler");
    drop((publisher, subscriber, chain));
    assert_eq!(sim_schedulers(), 0);
}

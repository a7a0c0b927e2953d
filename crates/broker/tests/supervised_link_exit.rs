//! A supervised link that closes leaves nothing behind: its worker and
//! supervisor threads exit, its supervisor leaves the broker's link
//! stats, and the link's own sender is released. Threads are counted
//! for the whole process, so this file holds a single test.

use nb_broker::{Broker, BrokerClient, BrokerConfig};
use nb_transport::clock::system_clock;
use nb_transport::endpoint::{Endpoint, FrameSender};
use nb_transport::sim::{LinkConfig, SimNetwork};
use nb_transport::supervisor::SupervisorConfig;
use nb_wire::codec::Encode;
use nb_wire::{Message, Payload};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const TIMEOUT: Duration = Duration::from_secs(5);

/// Threads of this process.
fn threads() -> usize {
    std::fs::read_dir("/proc/self/task").unwrap().count()
}

/// Waits up to two seconds for the thread count to reach `want`.
fn settles_at(want: usize) -> bool {
    let deadline = Instant::now() + Duration::from_secs(2);
    while threads() != want && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    threads() == want
}

/// A stand-in neighbour's sender: discards every frame and records
/// when the broker lets go of it.
struct Released(Arc<AtomicBool>);

impl FrameSender for Released {
    fn send_frame(&self, _frame: &[u8]) -> nb_transport::Result<()> {
        Ok(())
    }
}

impl Drop for Released {
    fn drop(&mut self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

#[test]
fn closed_supervised_links_leave_nothing_behind() {
    let broker = Broker::new(
        "b0",
        system_clock(),
        BrokerConfig {
            advert_refresh: None,
            link_supervision: Some(SupervisorConfig::fast()),
            ..BrokerConfig::default()
        },
    );
    let net = SimNetwork::new(5);
    let before = threads();
    let clients: Vec<BrokerClient> = (0..20)
        .map(|i| {
            let (broker_side, client_side) = net.symmetric_link(LinkConfig::instant());
            broker.attach_client(broker_side);
            BrokerClient::attach(client_side, format!("client-{i}"), system_clock(), TIMEOUT)
                .unwrap()
        })
        .collect();
    // A neighbour link too: its repair hook must not keep it alive.
    let released = Arc::new(AtomicBool::new(false));
    let (uplink, rx) = crossbeam::channel::unbounded();
    broker.connect_neighbor(Endpoint::from_parts(
        Arc::new(Released(Arc::clone(&released))),
        rx,
    ));
    let hello = Payload::NeighborHello {
        broker_id: "stand-in".into(),
    };
    uplink
        .send(Message::new(1, nb_broker::control_topic(), "stand-in", 0, hello).to_bytes())
        .unwrap();
    assert!(broker.wait_for_neighbors(1, TIMEOUT));
    assert!(
        settles_at(before + 42),
        "one worker and one supervisor per link, not {}",
        threads() - before
    );
    assert_eq!(broker.link_stats().len(), 21);

    drop(clients);
    drop(uplink);
    assert!(
        settles_at(before),
        "closed links left {} threads behind",
        threads().saturating_sub(before)
    );
    assert!(broker.link_stats().is_empty(), "{:?}", broker.link_stats());
    let supervised = broker.metrics_snapshot().gauge("broker.links.supervised");
    assert_eq!(supervised, Some(0));
    assert!(
        released.load(Ordering::SeqCst),
        "the departed neighbour's sender is still held"
    );
}

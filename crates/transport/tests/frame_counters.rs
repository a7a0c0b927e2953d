//! `transport.frames.*` and `transport.bytes.*` count each frame once,
//! where it crosses a transport — on a supervised link too, whose
//! facade relays frames through the live endpoint underneath — and a
//! frame a flaky link eats still counts as sent. The counters are
//! process-wide, so this file holds a single test.

use nb_transport::sim::{LinkConfig, SimNetwork};
use nb_transport::{Endpoint, LinkSupervisor, SupervisorConfig};
use std::time::Duration;

const N: u64 = 8;
const FRAME: &[u8] = b"counted once";

fn counters() -> [u64; 4] {
    let snap = nb_metrics::global().snapshot();
    [
        "transport.frames.sent",
        "transport.bytes.sent",
        "transport.frames.received",
        "transport.bytes.received",
    ]
    .map(|name| snap.counter(name).unwrap_or(0))
}

/// Sends `N` frames from `from` to `to` and returns how far each
/// counter moved.
fn send_n(from: &Endpoint, to: &Endpoint) -> [u64; 4] {
    let before = counters();
    for _ in 0..N {
        from.send(FRAME).unwrap();
    }
    for _ in 0..N {
        assert_eq!(to.recv_timeout(Duration::from_secs(5)).unwrap(), FRAME);
    }
    let after = counters();
    std::array::from_fn(|i| after[i] - before[i])
}

#[test]
fn each_frame_is_counted_once_each_way() {
    let bytes = N * FRAME.len() as u64;
    let want = [N, bytes, N, bytes];
    let net = SimNetwork::new(3);

    let (a, b) = net.symmetric_link(LinkConfig::instant());
    assert_eq!(send_n(&a, &b), want, "plain link, a to b");
    assert_eq!(send_n(&b, &a), want, "plain link, b to a");

    let (a, b) = net.symmetric_link(LinkConfig::instant());
    let (a, _supervisor) = LinkSupervisor::supervise(a, SupervisorConfig::fast());
    assert_eq!(send_n(&a, &b), want, "sent from a supervised facade");
    assert_eq!(send_n(&b, &a), want, "received on a supervised facade");

    // Sent counts precede simulated loss: a link that eats every frame
    // counts each one sent and none received.
    let (a, b, link) = net.symmetric_link_with_id(LinkConfig::instant());
    net.flaky(link, 1.0, Duration::from_secs(60));
    let before = counters();
    for _ in 0..N {
        a.send(FRAME).unwrap();
    }
    assert!(b.recv_timeout(Duration::from_millis(50)).is_err());
    let after = counters();
    let moved: [u64; 4] = std::array::from_fn(|i| after[i] - before[i]);
    assert_eq!(moved, [N, bytes, 0, 0], "flaky link eats every frame");
}

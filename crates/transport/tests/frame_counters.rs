//! `transport.frames.*` and `transport.bytes.*` count each frame once,
//! where it crosses a transport — a frame a downed link holds counts as
//! sent when the link accepts it and as received when the healed link
//! delivers it — and a frame a flaky link eats still counts as sent.
//! The counters are process-wide, so this file holds a single test.

use nb_transport::sim::{LinkConfig, SimNetwork};
use nb_transport::Endpoint;
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

/// How far each counter moved since `before`.
fn since(before: [u64; 4]) -> [u64; 4] {
    let after = counters();
    std::array::from_fn(|i| after[i] - before[i])
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
    since(before)
}

#[test]
fn each_frame_is_counted_once_each_way() {
    let bytes = N * FRAME.len() as u64;
    let want = [N, bytes, N, bytes];
    let net = SimNetwork::new(3);

    let (a, b) = net.symmetric_link(LinkConfig::instant());
    assert_eq!(send_n(&a, &b), want, "plain link, a to b");
    assert_eq!(send_n(&b, &a), want, "plain link, b to a");

    // A downed link holds what it accepts: sent now, received once it
    // heals.
    let (a, b, link) = net.symmetric_link_with_id(LinkConfig::instant());
    net.drop_link(link);
    let before = counters();
    for _ in 0..N {
        a.send(FRAME).unwrap();
    }
    assert!(b.recv_timeout(Duration::from_millis(50)).is_err());
    assert_eq!(since(before), [N, bytes, 0, 0], "held through an outage");
    let before = counters();
    net.restore(link);
    for _ in 0..N {
        assert_eq!(b.recv_timeout(Duration::from_secs(5)).unwrap(), FRAME);
    }
    assert_eq!(
        since(before),
        [0, 0, N, bytes],
        "delivered as the link heals"
    );

    // Sent counts precede simulated loss: a link that eats every frame
    // counts each one sent and none received.
    let (a, b, link) = net.symmetric_link_with_id(LinkConfig::instant());
    net.flaky(link, 1.0, Duration::from_secs(60));
    let before = counters();
    for _ in 0..N {
        a.send(FRAME).unwrap();
    }
    assert!(b.recv_timeout(Duration::from_millis(50)).is_err());
    assert_eq!(
        since(before),
        [N, bytes, 0, 0],
        "flaky link eats every frame"
    );
}

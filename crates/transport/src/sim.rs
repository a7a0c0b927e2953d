//! Deterministic simulated network.
//!
//! A [`SimNetwork`] owns a delivery-scheduler thread. Each simulated
//! link direction has a [`LinkConfig`] with latency, jitter, loss and
//! duplication; frames are delivered by the scheduler at
//! `send_time + latency + U(0, jitter)`, dropped with probability
//! `loss_rate`, and duplicated with probability `duplicate_rate`.
//!
//! NaradaBrokering's measured per-hop latency in cluster settings is
//! "around 1–2 milliseconds" (§6.1); [`LinkConfig::default`] models
//! exactly that, so multi-hop benchmark topologies built on simulated
//! links reproduce the paper's routing substrate.
//!
//! ## Fault injection
//!
//! Every link has a [`LinkId`]; the network can script outages against
//! it while the endpoints stay alive: [`SimNetwork::drop_link`] makes
//! sends fail with [`TransportError::Closed`] and discards in-flight
//! frames (a cable pull), [`SimNetwork::flaky`] drops frames with a
//! given probability for a bounded window (a deteriorating path),
//! [`SimNetwork::partition`] downs a whole set of links at once, and
//! [`SimNetwork::restore`] heals. Combined with the seeded RNG this
//! makes outage scenarios scriptable and reproducible — the substrate
//! the supervised-link layer ([`crate::supervisor`]) is tested against.
//!
//! ## Adversarial hooks
//!
//! Beyond benign faults, a link can host an *adversary* — the red-team
//! substrate the runtime-verification monitors (`nb-monitor`) are
//! proven against. [`SimNetwork::tamper`] installs a frame-rewriting
//! function on a link (forge a token, strip a TTL section, flip a
//! signature byte: anything a man-in-the-middle could do to bytes in
//! flight), and [`SimNetwork::replay`] re-sends every frame `copies`
//! extra times (a replay attack, distinct from the probabilistic
//! `duplicate_rate` in that it duplicates *every* frame
//! deterministically). [`SimNetwork::clear_adversary`] stands the
//! attacker down. Tampered and replayed frames are counted in
//! `transport.sim.frames.tampered` / `transport.sim.frames.replayed`.

use crate::endpoint::{Endpoint, FrameSender};
use crate::error::TransportError;
use crate::Result;
use crossbeam::channel::{unbounded, Sender};
use parking_lot::{Condvar, Mutex};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::cmp::Ordering as CmpOrdering;
use std::collections::{BinaryHeap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Identifies one bidirectional link of a [`SimNetwork`] for fault
/// injection. Both directions share the id: dropping it severs the
/// link like a pulled cable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LinkId(u64);

/// Scripted fault state of one link (absent = healthy).
#[derive(Debug, Clone, Copy)]
enum Fault {
    /// Sends fail with [`TransportError::Closed`]; nothing is delivered.
    Down,
    /// Frames are dropped with probability `p` until `until`, then the
    /// link heals itself.
    Flaky { p: f64, until: Instant },
}

/// A frame-rewriting adversary function: receives each frame crossing
/// the link and returns the bytes that actually go on the wire.
pub type TamperFn = Arc<dyn Fn(Vec<u8>) -> Vec<u8> + Send + Sync>;

/// Scripted man-in-the-middle behaviour on one link (absent = honest).
#[derive(Clone, Default)]
struct Adversary {
    /// Rewrites every frame before it is scheduled.
    tamper: Option<TamperFn>,
    /// Extra copies of every frame (deterministic replay attack).
    replay: u32,
}

/// Per-direction link behaviour.
#[derive(Debug, Clone, Copy)]
pub struct LinkConfig {
    /// Base one-way latency.
    pub latency: Duration,
    /// Additional uniform random delay in `[0, jitter]`.
    pub jitter: Duration,
    /// Probability a frame is silently dropped.
    pub loss_rate: f64,
    /// Probability a frame is delivered twice.
    pub duplicate_rate: f64,
}

impl Default for LinkConfig {
    /// The paper's cluster link: ~1.5 ms ± 0.5 ms, lossless.
    fn default() -> Self {
        LinkConfig {
            latency: Duration::from_micros(1500),
            jitter: Duration::from_micros(500),
            loss_rate: 0.0,
            duplicate_rate: 0.0,
        }
    }
}

impl LinkConfig {
    /// A zero-latency, lossless link (fast tests).
    pub fn instant() -> Self {
        LinkConfig {
            latency: Duration::ZERO,
            jitter: Duration::ZERO,
            loss_rate: 0.0,
            duplicate_rate: 0.0,
        }
    }

    /// A lossy link with the given drop probability.
    pub fn lossy(loss_rate: f64) -> Self {
        LinkConfig {
            loss_rate,
            ..LinkConfig::default()
        }
    }

    /// Sets the base latency (builder style).
    pub fn with_latency(mut self, latency: Duration) -> Self {
        self.latency = latency;
        self
    }
}

struct Delivery {
    deliver_at: Instant,
    seq: u64,
    frame: Vec<u8>,
    dest: Sender<Vec<u8>>,
    link: LinkId,
}

impl PartialEq for Delivery {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}
impl Eq for Delivery {}
impl PartialOrd for Delivery {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}
impl Ord for Delivery {
    // Reverse ordering: BinaryHeap is a max-heap, we want earliest first.
    fn cmp(&self, other: &Self) -> CmpOrdering {
        other
            .deliver_at
            .cmp(&self.deliver_at)
            .then(other.seq.cmp(&self.seq))
    }
}

struct Shared {
    queue: Mutex<BinaryHeap<Delivery>>,
    cv: Condvar,
    stop: AtomicBool,
    seq: AtomicU64,
    rng: Mutex<StdRng>,
    next_link: AtomicU64,
    faults: Mutex<HashMap<LinkId, Fault>>,
    adversaries: Mutex<HashMap<LinkId, Adversary>>,
}

/// A simulated network: one scheduler thread, any number of links.
pub struct SimNetwork {
    shared: Arc<Shared>,
    scheduler: Option<JoinHandle<()>>,
}

impl SimNetwork {
    /// Creates a network with a seeded RNG (loss/jitter decisions are
    /// reproducible for a given seed and send order).
    pub fn new(seed: u64) -> Self {
        let shared = Arc::new(Shared {
            queue: Mutex::new(BinaryHeap::new()),
            cv: Condvar::new(),
            stop: AtomicBool::new(false),
            seq: AtomicU64::new(0),
            rng: Mutex::new(StdRng::seed_from_u64(seed)),
            next_link: AtomicU64::new(0),
            faults: Mutex::new(HashMap::new()),
            adversaries: Mutex::new(HashMap::new()),
        });
        let thread_shared = Arc::clone(&shared);
        let scheduler = std::thread::Builder::new()
            .name("sim-net-scheduler".to_string())
            .spawn(move || scheduler_loop(&thread_shared))
            .expect("spawn sim scheduler");
        SimNetwork {
            shared,
            scheduler: Some(scheduler),
        }
    }

    /// Creates a bidirectional link; `a_to_b` and `b_to_a` configure
    /// each direction independently (asymmetric links are allowed).
    pub fn link(&self, a_to_b: LinkConfig, b_to_a: LinkConfig) -> (Endpoint, Endpoint) {
        let (a, b, _) = self.link_with_id(a_to_b, b_to_a);
        (a, b)
    }

    /// Like [`SimNetwork::link`] but also returns the [`LinkId`] for
    /// fault injection.
    pub fn link_with_id(
        &self,
        a_to_b: LinkConfig,
        b_to_a: LinkConfig,
    ) -> (Endpoint, Endpoint, LinkId) {
        let link = LinkId(self.shared.next_link.fetch_add(1, Ordering::Relaxed));
        let (tx_to_a, rx_a) = unbounded();
        let (tx_to_b, rx_b) = unbounded();
        let a = Endpoint::from_parts(
            Arc::new(SimSender {
                cfg: a_to_b,
                dest: tx_to_b,
                shared: Arc::clone(&self.shared),
                link,
            }),
            rx_a,
        );
        let b = Endpoint::from_parts(
            Arc::new(SimSender {
                cfg: b_to_a,
                dest: tx_to_a,
                shared: Arc::clone(&self.shared),
                link,
            }),
            rx_b,
        );
        (a, b, link)
    }

    /// A link with the same behaviour in both directions.
    pub fn symmetric_link(&self, cfg: LinkConfig) -> (Endpoint, Endpoint) {
        self.link(cfg, cfg)
    }

    /// A symmetric link plus its [`LinkId`] for fault injection.
    pub fn symmetric_link_with_id(&self, cfg: LinkConfig) -> (Endpoint, Endpoint, LinkId) {
        self.link_with_id(cfg, cfg)
    }

    /// Kills a link: both directions fail sends with
    /// [`TransportError::Closed`] and every queued in-flight frame on
    /// the link is discarded, like a pulled cable. The endpoints stay
    /// alive; [`SimNetwork::restore`] heals the link in place.
    pub fn drop_link(&self, link: LinkId) {
        self.shared.faults.lock().insert(link, Fault::Down);
        // Purge in-flight frames: a severed cable loses what was on it.
        let mut queue = self.shared.queue.lock();
        let survivors: BinaryHeap<Delivery> =
            queue.drain().filter(|d| d.link != link).collect();
        *queue = survivors;
        drop(queue);
        self.shared.cv.notify_all();
    }

    /// Makes a link drop frames with probability `p` for `duration`,
    /// after which it heals itself ([`SimNetwork::restore`] heals it
    /// early). Dropped frames are counted in
    /// `transport.sim.fault.flaky_dropped`.
    pub fn flaky(&self, link: LinkId, p: f64, duration: Duration) {
        self.shared.faults.lock().insert(
            link,
            Fault::Flaky {
                p,
                until: Instant::now() + duration,
            },
        );
    }

    /// Downs every link in `links` at once — a network partition
    /// separating broker groups. Equivalent to calling
    /// [`SimNetwork::drop_link`] on each.
    pub fn partition(&self, links: &[LinkId]) {
        for &link in links {
            self.drop_link(link);
        }
    }

    /// Heals a link: clears any scripted fault so traffic flows again.
    pub fn restore(&self, link: LinkId) {
        self.shared.faults.lock().remove(&link);
    }

    /// Installs a frame-rewriting adversary on a link: every frame in
    /// both directions passes through `f` before hitting the wire.
    /// Use it to forge tokens, strip trace/TTL sections, corrupt
    /// signatures — the violations the `nb-monitor` properties exist
    /// to catch. Replaces any previous tamper function on the link.
    pub fn tamper<F>(&self, link: LinkId, f: F)
    where
        F: Fn(Vec<u8>) -> Vec<u8> + Send + Sync + 'static,
    {
        self.shared
            .adversaries
            .lock()
            .entry(link)
            .or_default()
            .tamper = Some(Arc::new(f));
    }

    /// Installs a replay adversary on a link: every frame is delivered
    /// `1 + copies` times. Unlike `duplicate_rate`, this duplicates
    /// deterministically — the classic replay attack an exactly-once
    /// monitor must flag.
    pub fn replay(&self, link: LinkId, copies: u32) {
        self.shared
            .adversaries
            .lock()
            .entry(link)
            .or_default()
            .replay = copies;
    }

    /// Stands down any adversary on the link (tamper and replay).
    pub fn clear_adversary(&self, link: LinkId) {
        self.shared.adversaries.lock().remove(&link);
    }

    /// Whether the link currently has a scripted fault.
    pub fn is_faulted(&self, link: LinkId) -> bool {
        match self.shared.faults.lock().get(&link) {
            None => false,
            Some(Fault::Down) => true,
            Some(Fault::Flaky { until, .. }) => Instant::now() < *until,
        }
    }

    /// Stops the scheduler; queued frames are discarded.
    pub fn shutdown(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.shared.cv.notify_all();
        if let Some(handle) = self.scheduler.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for SimNetwork {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn scheduler_loop(shared: &Shared) {
    let mut queue = shared.queue.lock();
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        let now = Instant::now();
        // Deliver everything due.
        while let Some(head) = queue.peek() {
            if head.deliver_at <= now {
                let d = queue.pop().unwrap();
                deliver(&d.dest, d.frame);
            } else {
                break;
            }
        }
        match queue.peek().map(|d| d.deliver_at) {
            Some(next) => {
                let wait = next.saturating_duration_since(Instant::now());
                // Bounded wait so stop flags are honoured promptly.
                shared
                    .cv
                    .wait_for(&mut queue, wait.min(Duration::from_millis(50)));
            }
            None => {
                shared.cv.wait_for(&mut queue, Duration::from_millis(50));
            }
        }
    }
}

/// Hands a frame to the receiving endpoint's queue, counting it as
/// received. The receiver may be gone; that's a closed endpoint.
fn deliver(dest: &Sender<Vec<u8>>, frame: Vec<u8>) {
    let len = frame.len() as u64;
    if dest.send(frame).is_ok() {
        crate::instrument::FRAMES_RECEIVED.inc();
        crate::instrument::BYTES_RECEIVED.add(len);
    }
}

struct SimSender {
    cfg: LinkConfig,
    dest: Sender<Vec<u8>>,
    shared: Arc<Shared>,
    link: LinkId,
}

impl SimSender {
    /// Applies any scripted fault: `Err(Closed)` for a downed link,
    /// `Ok(true)` when a flaky link eats this frame, `Ok(false)` when
    /// the frame may proceed. Expired flaky windows self-heal here.
    fn check_fault(&self) -> Result<bool> {
        let mut faults = self.shared.faults.lock();
        match faults.get(&self.link) {
            None => Ok(false),
            Some(Fault::Down) => {
                crate::instrument::SIM_FAULT_REJECTED.inc();
                Err(TransportError::Closed)
            }
            Some(&Fault::Flaky { p, until }) => {
                if Instant::now() >= until {
                    faults.remove(&self.link);
                    return Ok(false);
                }
                let eaten = self.shared.rng.lock().random::<f64>() < p;
                if eaten {
                    crate::instrument::SIM_FAULT_FLAKY_DROPPED.inc();
                }
                Ok(eaten)
            }
        }
    }
}

impl FrameSender for SimSender {
    fn send_frame(&self, frame: &[u8]) -> Result<()> {
        if self.shared.stop.load(Ordering::SeqCst) {
            return Err(TransportError::Closed);
        }
        let eaten = self.check_fault()?;
        // Accepted: sent counts precede any simulated loss.
        crate::instrument::FRAMES_SENT.inc();
        crate::instrument::BYTES_SENT.add(frame.len() as u64);
        if eaten {
            // A flaky link eats the frame silently, like wire loss.
            return Ok(());
        }
        // Man-in-the-middle: rewrite the frame and/or schedule replay
        // copies. The adversary map is empty in honest runs, so this
        // is one uncontended lock on the hot path.
        let (tampered, replays) = {
            let adversaries = self.shared.adversaries.lock();
            match adversaries.get(&self.link) {
                None => (None, 0),
                Some(adv) => (
                    adv.tamper.as_ref().map(|f| f(frame.to_vec())),
                    adv.replay,
                ),
            }
        };
        if tampered.is_some() {
            crate::instrument::SIM_FRAMES_TAMPERED.inc();
        }
        if replays > 0 {
            crate::instrument::SIM_FRAMES_REPLAYED.add(u64::from(replays));
        }
        let frame: &[u8] = tampered.as_deref().unwrap_or(frame);
        // Instant, lossless, exact links (the benchmark/test loopback
        // shape) skip the scheduler entirely: no RNG draws, no heap
        // insert, no condvar signal — straight into the destination
        // channel, preserving FIFO per direction.
        if self.cfg.latency.is_zero()
            && self.cfg.jitter.is_zero()
            && self.cfg.loss_rate == 0.0
            && self.cfg.duplicate_rate == 0.0
        {
            crate::instrument::SIM_FRAMES_DIRECT.inc();
            for _ in 0..=replays {
                deliver(&self.dest, frame.to_vec());
            }
            return Ok(());
        }
        let (dropped, duplicated, jitter1, jitter2) = {
            let mut rng = self.shared.rng.lock();
            let dropped = self.cfg.loss_rate > 0.0 && rng.random::<f64>() < self.cfg.loss_rate;
            let duplicated =
                self.cfg.duplicate_rate > 0.0 && rng.random::<f64>() < self.cfg.duplicate_rate;
            let jitter = |rng: &mut StdRng, cfg: &LinkConfig| {
                if cfg.jitter.is_zero() {
                    Duration::ZERO
                } else {
                    cfg.jitter.mul_f64(rng.random::<f64>())
                }
            };
            let j1 = jitter(&mut rng, &self.cfg);
            let j2 = jitter(&mut rng, &self.cfg);
            (dropped, duplicated, j1, j2)
        };
        if dropped {
            // Silent loss is the whole point of a lossy link.
            crate::instrument::SIM_FRAMES_DROPPED.inc();
            return Ok(());
        }
        if duplicated {
            crate::instrument::SIM_FRAMES_DUPLICATED.inc();
        }
        let now = Instant::now();
        let mut queue = self.shared.queue.lock();
        let mut push = |deliver_at: Instant, frame: Vec<u8>| {
            let seq = self.shared.seq.fetch_add(1, Ordering::Relaxed);
            queue.push(Delivery {
                deliver_at,
                seq,
                frame,
                dest: self.dest.clone(),
                link: self.link,
            });
        };
        push(now + self.cfg.latency + jitter1, frame.to_vec());
        if duplicated {
            push(now + self.cfg.latency + jitter2, frame.to_vec());
        }
        for _ in 0..replays {
            // Replay copies trail the original by the base latency —
            // the attacker recorded the frame and re-sends it.
            push(now + self.cfg.latency + self.cfg.latency + jitter2, frame.to_vec());
        }
        drop(queue);
        self.shared.cv.notify_all();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_arrive_in_order_on_a_jitterless_link() {
        let net = SimNetwork::new(1);
        let (a, b) = net.symmetric_link(LinkConfig::instant());
        for i in 0..100u32 {
            a.send(&i.to_be_bytes()).unwrap();
        }
        for i in 0..100u32 {
            let frame = b.recv_timeout(Duration::from_secs(1)).unwrap();
            assert_eq!(frame, i.to_be_bytes());
        }
    }

    #[test]
    fn instant_links_take_the_direct_path() {
        let before = crate::instrument::SIM_FRAMES_DIRECT.get();
        let net = SimNetwork::new(21);
        let (a, b) = net.symmetric_link(LinkConfig::instant());
        for _ in 0..10 {
            a.send(b"fast").unwrap();
        }
        for _ in 0..10 {
            assert_eq!(b.recv_timeout(Duration::from_secs(1)).unwrap(), b"fast");
        }
        assert!(crate::instrument::SIM_FRAMES_DIRECT.get() >= before + 10);
        // A latencied link must still go through the scheduler.
        let during = crate::instrument::SIM_FRAMES_DIRECT.get();
        let (c, d) = net.symmetric_link(LinkConfig::default());
        c.send(b"slow").unwrap();
        assert_eq!(d.recv_timeout(Duration::from_secs(1)).unwrap(), b"slow");
        assert_eq!(crate::instrument::SIM_FRAMES_DIRECT.get(), during);
    }

    #[test]
    fn bidirectional_traffic() {
        let net = SimNetwork::new(2);
        let (a, b) = net.symmetric_link(LinkConfig::instant());
        a.send(b"ping").unwrap();
        assert_eq!(b.recv_timeout(Duration::from_secs(1)).unwrap(), b"ping");
        b.send(b"pong").unwrap();
        assert_eq!(a.recv_timeout(Duration::from_secs(1)).unwrap(), b"pong");
    }

    #[test]
    fn latency_is_applied() {
        let net = SimNetwork::new(3);
        let cfg = LinkConfig {
            latency: Duration::from_millis(20),
            jitter: Duration::ZERO,
            loss_rate: 0.0,
            duplicate_rate: 0.0,
        };
        let (a, b) = net.symmetric_link(cfg);
        let t0 = Instant::now();
        a.send(b"x").unwrap();
        b.recv_timeout(Duration::from_secs(1)).unwrap();
        let elapsed = t0.elapsed();
        assert!(elapsed >= Duration::from_millis(18), "elapsed {elapsed:?}");
    }

    #[test]
    fn total_loss_drops_everything() {
        let net = SimNetwork::new(4);
        let (a, b) = net.symmetric_link(LinkConfig {
            loss_rate: 1.0,
            ..LinkConfig::instant()
        });
        for _ in 0..10 {
            a.send(b"gone").unwrap();
        }
        assert_eq!(
            b.recv_timeout(Duration::from_millis(50)),
            Err(TransportError::Timeout)
        );
    }

    #[test]
    fn partial_loss_drops_roughly_proportionally() {
        let net = SimNetwork::new(5);
        let (a, b) = net.symmetric_link(LinkConfig {
            loss_rate: 0.5,
            ..LinkConfig::instant()
        });
        let n = 400;
        for i in 0..n as u32 {
            a.send(&i.to_be_bytes()).unwrap();
        }
        let mut received = 0;
        while b.recv_timeout(Duration::from_millis(100)).is_ok() {
            received += 1;
        }
        // 50% loss: expect 120..280 of 400 with overwhelming probability.
        assert!(
            (120..280).contains(&received),
            "received {received} of {n}"
        );
    }

    #[test]
    fn duplication_delivers_extra_frames() {
        let net = SimNetwork::new(6);
        let (a, b) = net.symmetric_link(LinkConfig {
            duplicate_rate: 1.0,
            ..LinkConfig::instant()
        });
        a.send(b"twin").unwrap();
        assert_eq!(b.recv_timeout(Duration::from_secs(1)).unwrap(), b"twin");
        assert_eq!(b.recv_timeout(Duration::from_secs(1)).unwrap(), b"twin");
    }

    #[test]
    fn shutdown_closes_senders() {
        let mut net = SimNetwork::new(7);
        let (a, _b) = net.symmetric_link(LinkConfig::instant());
        net.shutdown();
        assert_eq!(a.send(b"x"), Err(TransportError::Closed));
    }

    #[test]
    fn oversized_frames_rejected() {
        let net = SimNetwork::new(8);
        let (a, _b) = net.symmetric_link(LinkConfig::instant());
        let huge = vec![0u8; crate::endpoint::MAX_FRAME_LEN + 1];
        assert!(matches!(
            a.send(&huge),
            Err(TransportError::FrameTooLarge { .. })
        ));
    }

    #[test]
    fn dropped_receiver_does_not_break_scheduler() {
        let net = SimNetwork::new(9);
        let (a, b) = net.symmetric_link(LinkConfig::instant());
        drop(b);
        // Sends still succeed; scheduler discards on delivery.
        a.send(b"void").unwrap();
        // And other links continue to work.
        let (c, d) = net.symmetric_link(LinkConfig::instant());
        c.send(b"alive").unwrap();
        assert_eq!(d.recv_timeout(Duration::from_secs(1)).unwrap(), b"alive");
    }

    #[test]
    fn dropped_link_fails_sends_until_restored() {
        let net = SimNetwork::new(11);
        let (a, b, link) = net.symmetric_link_with_id(LinkConfig::instant());
        a.send(b"before").unwrap();
        assert_eq!(b.recv_timeout(Duration::from_secs(1)).unwrap(), b"before");
        net.drop_link(link);
        assert!(net.is_faulted(link));
        assert_eq!(a.send(b"lost"), Err(TransportError::Closed));
        assert_eq!(b.send(b"lost too"), Err(TransportError::Closed));
        net.restore(link);
        assert!(!net.is_faulted(link));
        a.send(b"after").unwrap();
        assert_eq!(b.recv_timeout(Duration::from_secs(1)).unwrap(), b"after");
    }

    #[test]
    fn drop_link_purges_in_flight_frames() {
        let net = SimNetwork::new(12);
        let slow = LinkConfig {
            latency: Duration::from_millis(200),
            jitter: Duration::ZERO,
            loss_rate: 0.0,
            duplicate_rate: 0.0,
        };
        let (a, b, link) = net.symmetric_link_with_id(slow);
        a.send(b"in flight").unwrap();
        // Sever the cable while the frame is still queued.
        net.drop_link(link);
        net.restore(link);
        assert_eq!(
            b.recv_timeout(Duration::from_millis(400)),
            Err(TransportError::Timeout)
        );
    }

    #[test]
    fn drop_link_leaves_other_links_untouched() {
        let net = SimNetwork::new(13);
        let (a, _b, link) = net.symmetric_link_with_id(LinkConfig::instant());
        let (c, d, _other) = net.symmetric_link_with_id(LinkConfig::instant());
        net.drop_link(link);
        assert_eq!(a.send(b"down"), Err(TransportError::Closed));
        c.send(b"up").unwrap();
        assert_eq!(d.recv_timeout(Duration::from_secs(1)).unwrap(), b"up");
    }

    #[test]
    fn flaky_link_drops_roughly_proportionally() {
        let net = SimNetwork::new(14);
        let (a, b, link) = net.symmetric_link_with_id(LinkConfig::instant());
        net.flaky(link, 0.5, Duration::from_secs(30));
        let n = 400;
        for i in 0..n as u32 {
            a.send(&i.to_be_bytes()).unwrap();
        }
        let mut received = 0;
        while b.recv_timeout(Duration::from_millis(100)).is_ok() {
            received += 1;
        }
        assert!(
            (120..280).contains(&received),
            "received {received} of {n}"
        );
    }

    #[test]
    fn flaky_window_expires_on_its_own() {
        let net = SimNetwork::new(15);
        let (a, b, link) = net.symmetric_link_with_id(LinkConfig::instant());
        net.flaky(link, 1.0, Duration::from_millis(50));
        a.send(b"eaten").unwrap();
        std::thread::sleep(Duration::from_millis(80));
        assert!(!net.is_faulted(link), "flaky window should have expired");
        a.send(b"healed").unwrap();
        assert_eq!(b.recv_timeout(Duration::from_secs(1)).unwrap(), b"healed");
    }

    #[test]
    fn partition_downs_every_listed_link() {
        let net = SimNetwork::new(16);
        let (a, _b, l1) = net.symmetric_link_with_id(LinkConfig::instant());
        let (c, _d, l2) = net.symmetric_link_with_id(LinkConfig::instant());
        let (e, f, _l3) = net.symmetric_link_with_id(LinkConfig::instant());
        net.partition(&[l1, l2]);
        assert_eq!(a.send(b"x"), Err(TransportError::Closed));
        assert_eq!(c.send(b"x"), Err(TransportError::Closed));
        e.send(b"alive").unwrap();
        assert_eq!(f.recv_timeout(Duration::from_secs(1)).unwrap(), b"alive");
    }

    #[test]
    fn tamper_rewrites_frames_in_flight() {
        let net = SimNetwork::new(17);
        let (a, b, link) = net.symmetric_link_with_id(LinkConfig::instant());
        net.tamper(link, |mut frame| {
            frame.reverse();
            frame
        });
        a.send(b"abc").unwrap();
        assert_eq!(b.recv_timeout(Duration::from_secs(1)).unwrap(), b"cba");
        net.clear_adversary(link);
        a.send(b"abc").unwrap();
        assert_eq!(b.recv_timeout(Duration::from_secs(1)).unwrap(), b"abc");
    }

    #[test]
    fn replay_delivers_deterministic_copies() {
        let net = SimNetwork::new(18);
        let (a, b, link) = net.symmetric_link_with_id(LinkConfig::instant());
        net.replay(link, 2);
        a.send(b"echo").unwrap();
        for _ in 0..3 {
            assert_eq!(b.recv_timeout(Duration::from_secs(1)).unwrap(), b"echo");
        }
        assert_eq!(
            b.recv_timeout(Duration::from_millis(50)),
            Err(TransportError::Timeout)
        );
    }

    #[test]
    fn replay_rides_the_scheduler_for_latencied_links() {
        let net = SimNetwork::new(19);
        let cfg = LinkConfig {
            latency: Duration::from_millis(5),
            jitter: Duration::ZERO,
            loss_rate: 0.0,
            duplicate_rate: 0.0,
        };
        let (a, b, link) = net.symmetric_link_with_id(cfg);
        net.replay(link, 1);
        net.tamper(link, |mut frame| {
            frame[0] ^= 0xff;
            frame
        });
        a.send(&[0x00, 0x42]).unwrap();
        // Both the original send and its replay copy carry the tamper.
        assert_eq!(b.recv_timeout(Duration::from_secs(1)).unwrap(), [0xff, 0x42]);
        assert_eq!(b.recv_timeout(Duration::from_secs(1)).unwrap(), [0xff, 0x42]);
    }

    #[test]
    fn many_links_share_one_scheduler() {
        let net = SimNetwork::new(10);
        let links: Vec<_> = (0..20)
            .map(|_| net.symmetric_link(LinkConfig::instant()))
            .collect();
        for (i, (a, _)) in links.iter().enumerate() {
            a.send(&(i as u32).to_be_bytes()).unwrap();
        }
        for (i, (_, b)) in links.iter().enumerate() {
            assert_eq!(
                b.recv_timeout(Duration::from_secs(1)).unwrap(),
                (i as u32).to_be_bytes()
            );
        }
    }
}

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
//! it while the endpoints stay alive. [`SimNetwork::drop_link`] is a
//! transient outage as a TCP connection rides it out: sends still
//! succeed, and each direction's frames (those already in flight first)
//! wait in order until [`SimNetwork::restore`] delivers them, exactly
//! once and ahead of anything sent later. When a 1,025th frame would
//! wait in one direction, the link resets, as a TCP write that stalls
//! past [`crate::tcp::WRITE_STALL`] gives its link up: both ends read
//! [`TransportError::Closed`]. [`SimNetwork::flaky`] drops frames with
//! a given probability for a bounded window (a deteriorating path), and
//! [`SimNetwork::partition`] downs a whole set of links at once.
//! Combined with the seeded RNG this makes outage scenarios scriptable
//! and reproducible.
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
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Identifies one bidirectional link of a [`SimNetwork`] for fault
/// injection. Both directions share the id: dropping it severs the
/// link like a pulled cable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LinkId(u64);

/// Frames one direction of a downed link holds before the link resets.
const HOLD_LIMIT: usize = 1024;

/// Scripted fault state of one link (absent = healthy).
enum Fault {
    /// Each direction's frames wait, in order, for the link to come
    /// back (see [`SimNetwork::drop_link`]).
    Down([Option<Held>; 2]),
    /// Frames are dropped with probability `p` until `until`, then the
    /// link heals itself.
    Flaky { p: f64, until: Instant },
}

impl Fault {
    /// Ends the fault: a downed link delivers what it holds, in order.
    fn release(self) {
        if let Fault::Down(held) = self {
            for Held { dest, frames } in held.into_iter().flatten() {
                frames.into_iter().for_each(|frame| deliver(&dest, frame));
            }
        }
    }
}

/// The frames one direction of a downed link holds, and the queue they
/// wait to reach.
struct Held {
    dest: Sender<Vec<u8>>,
    frames: VecDeque<Vec<u8>>,
}

/// Appends `frame` to the frames a direction holds for `dest`.
fn hold(held: &mut Option<Held>, dest: &Sender<Vec<u8>>, frame: Vec<u8>) {
    crate::instrument::SIM_FAULT_HELD.inc();
    let held = held.get_or_insert_with(|| Held {
        dest: dest.clone(),
        frames: VecDeque::new(),
    });
    held.frames.push_back(frame);
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

/// The receive queues of one link's two endpoints, by side, shared by
/// the link's two senders. A sender that drops empties the slot it
/// sends into and discards the frames it left waiting; a close empties
/// both and discards every frame in flight or waiting, which
/// disconnects both endpoints' queues.
type LinkQueues = [Mutex<Option<Sender<Vec<u8>>>>; 2];

struct Delivery {
    deliver_at: Instant,
    seq: u64,
    frame: Vec<u8>,
    dest: Sender<Vec<u8>>,
    link: LinkId,
    /// The side `dest` belongs to.
    to: usize,
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

impl Shared {
    /// Takes every frame in flight on `link` off the schedule, earliest
    /// delivery first.
    fn take_in_flight(&self, link: LinkId) -> Vec<Delivery> {
        let mut queue = self.queue.lock();
        let (mut taken, kept): (Vec<_>, Vec<_>) = queue.drain().partition(|d| d.link == link);
        *queue = kept.into();
        taken.sort_by_key(|d| (d.deliver_at, d.seq));
        taken
    }
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
        let queues: Arc<LinkQueues> = Arc::new([Mutex::new(Some(tx_to_a)), Mutex::new(Some(tx_to_b))]);
        let sender = |cfg, to| {
            Arc::new(SimSender {
                cfg,
                queues: Arc::clone(&queues),
                to,
                shared: Arc::clone(&self.shared),
                link,
            })
        };
        let a = Endpoint::from_parts(sender(a_to_b, 1), rx_a);
        let b = Endpoint::from_parts(sender(b_to_a, 0), rx_b);
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

    /// Downs a link for a transient outage, as TCP rides one out. Sends
    /// in both directions still succeed: each direction's frames wait,
    /// in order, behind the frames that were in flight when the link
    /// went down, and [`SimNetwork::restore`] delivers them all. A
    /// waiting frame counts as sent when accepted, as received when
    /// delivered, and in `transport.sim.fault.held`. When a 1,025th
    /// frame would wait in one direction, the link resets like a TCP
    /// write stalled past [`crate::tcp::WRITE_STALL`]: that send fails,
    /// what waited is discarded and both ends read
    /// [`TransportError::Closed`].
    pub fn drop_link(&self, link: LinkId) {
        let mut faults = self.shared.faults.lock();
        let mut held = match faults.remove(&link) {
            Some(Fault::Down(held)) => held,
            _ => Default::default(),
        };
        for d in self.shared.take_in_flight(link) {
            hold(&mut held[d.to], &d.dest, d.frame);
        }
        faults.insert(link, Fault::Down(held));
    }

    /// Makes a link drop frames with probability `p` for `duration`,
    /// after which it heals itself ([`SimNetwork::restore`] heals it
    /// early). Dropped frames are counted in
    /// `transport.sim.fault.flaky_dropped`. A downed link first
    /// delivers what it held.
    pub fn flaky(&self, link: LinkId, p: f64, duration: Duration) {
        let flaky = Fault::Flaky {
            p,
            until: Instant::now() + duration,
        };
        if let Some(fault) = self.shared.faults.lock().insert(link, flaky) {
            fault.release();
        }
    }

    /// Downs every link in `links` at once — a network partition
    /// separating broker groups. Equivalent to calling
    /// [`SimNetwork::drop_link`] on each.
    pub fn partition(&self, links: &[LinkId]) {
        for &link in links {
            self.drop_link(link);
        }
    }

    /// Heals a link: clears any scripted fault, and a downed link
    /// delivers every frame it held, each exactly once and before
    /// anything sent after this call.
    pub fn restore(&self, link: LinkId) {
        let mut faults = self.shared.faults.lock();
        // Released under the lock a send holds while it dispatches, so
        // no later send overtakes what waited.
        if let Some(fault) = faults.remove(&link) {
            fault.release();
        }
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
            Some(Fault::Down(_)) => true,
            Some(Fault::Flaky { until, .. }) => Instant::now() < *until,
        }
    }

    /// Stops the scheduler. Frames in flight or waiting out an outage
    /// are discarded, which lets go of the queues they were bound for.
    pub fn shutdown(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.shared.cv.notify_all();
        if let Some(handle) = self.scheduler.take() {
            let _ = handle.join();
        }
        // Cleared under the fault lock, which a send holds from its stop
        // check to its dispatch, so no frame lands after the clear.
        let mut faults = self.shared.faults.lock();
        faults.clear();
        self.shared.queue.lock().clear();
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
    queues: Arc<LinkQueues>,
    /// The side whose queue this sender delivers to.
    to: usize,
    shared: Arc<Shared>,
    link: LinkId,
}

impl Drop for SimSender {
    fn drop(&mut self) {
        self.queues[self.to].lock().take();
        // Frames left waiting would hold the queue open.
        if let Some(Fault::Down(held)) = self.shared.faults.lock().get_mut(&self.link) {
            held[self.to] = None;
        }
    }
}

/// Counts a frame a link accepted; simulated loss comes after.
fn count_sent(frame: &[u8]) {
    crate::instrument::FRAMES_SENT.inc();
    crate::instrument::BYTES_SENT.add(frame.len() as u64);
}

impl FrameSender for SimSender {
    /// Disconnects both endpoints' queues: each endpoint still receives
    /// what was delivered to it, then reads a close. Frames in flight or
    /// waiting out an outage are discarded.
    fn close(&self) {
        for slot in self.queues.iter() {
            slot.lock().take();
        }
        // A send schedules or holds its frame under its slot's lock, so
        // nothing reaches the link after this.
        self.shared.take_in_flight(self.link);
        if let Some(Fault::Down(held)) = self.shared.faults.lock().get_mut(&self.link) {
            *held = Default::default();
        }
    }

    fn send_frame(&self, frame: &[u8]) -> Result<()> {
        // Held for the whole send: a close waits for it.
        let slot = self.queues[self.to].lock();
        // Held until the frame is dispatched, so no drop_link, restore
        // or shutdown falls between this send's check and its dispatch.
        let mut faults = self.shared.faults.lock();
        let (Some(dest), false) = (slot.as_ref(), self.shared.stop.load(Ordering::SeqCst)) else {
            return Err(TransportError::Closed);
        };
        match faults.get_mut(&self.link) {
            None => {}
            Some(Fault::Down(held)) => {
                let held = &mut held[self.to];
                if held.as_ref().is_some_and(|h| h.frames.len() >= HOLD_LIMIT) {
                    // The outage outlasted the buffer: reset the link.
                    drop((faults, slot));
                    self.close();
                    return Err(TransportError::Closed);
                }
                count_sent(frame);
                hold(held, dest, frame.to_vec());
                return Ok(());
            }
            Some(&mut Fault::Flaky { p, until }) => {
                if Instant::now() >= until {
                    faults.remove(&self.link);
                } else if self.shared.rng.lock().random::<f64>() < p {
                    // A flaky link eats the frame silently, like wire loss.
                    crate::instrument::SIM_FAULT_FLAKY_DROPPED.inc();
                    count_sent(frame);
                    return Ok(());
                }
            }
        }
        count_sent(frame);
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
                deliver(dest, frame.to_vec());
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
                dest: dest.clone(),
                link: self.link,
                to: self.to,
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
    fn close_disconnects_both_endpoints() {
        let net = SimNetwork::new(22);
        let slow = LinkConfig::instant().with_latency(Duration::from_millis(20));
        let (a, b) = net.symmetric_link(slow);
        let (c, d) = net.symmetric_link(LinkConfig::instant());
        c.send(b"delivered").unwrap();
        a.send(b"in flight").unwrap();
        let reading = std::thread::spawn(move || b.recv());
        std::thread::sleep(Duration::from_millis(5));
        c.sender().close();
        a.sender().close();
        assert_eq!(reading.join().unwrap(), Err(TransportError::Closed));
        assert_eq!(a.recv(), Err(TransportError::Closed));
        assert_eq!(a.send(b"after"), Err(TransportError::Closed));
        // A frame delivered before the close is still read, then the
        // close.
        assert_eq!(d.recv().unwrap(), b"delivered");
        assert_eq!(d.recv(), Err(TransportError::Closed));
        assert_eq!(c.recv(), Err(TransportError::Closed));
        assert_eq!(d.send(b"after"), Err(TransportError::Closed));
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
    fn dropped_link_holds_sends_until_restored() {
        let net = SimNetwork::new(11);
        let (a, b, link) = net.symmetric_link_with_id(LinkConfig::instant());
        a.send(b"before").unwrap();
        assert_eq!(b.recv_timeout(Duration::from_secs(1)).unwrap(), b"before");
        net.drop_link(link);
        assert!(net.is_faulted(link));
        let held = crate::instrument::SIM_FAULT_HELD.get();
        for i in 0..3u8 {
            a.send(&[i]).unwrap();
        }
        b.send(b"back").unwrap();
        assert!(crate::instrument::SIM_FAULT_HELD.get() >= held + 4);
        assert_eq!(
            b.recv_timeout(Duration::from_millis(50)),
            Err(TransportError::Timeout)
        );
        assert_eq!(
            a.recv_timeout(Duration::from_millis(50)),
            Err(TransportError::Timeout)
        );
        net.restore(link);
        assert!(!net.is_faulted(link));
        a.send(b"after").unwrap();
        // Each waiting frame arrives once, in order, before later sends.
        for i in 0..3u8 {
            assert_eq!(b.recv_timeout(Duration::from_secs(1)).unwrap(), [i]);
        }
        assert_eq!(b.recv_timeout(Duration::from_secs(1)).unwrap(), b"after");
        assert_eq!(a.recv_timeout(Duration::from_secs(1)).unwrap(), b"back");
        assert_eq!(
            b.recv_timeout(Duration::from_millis(50)),
            Err(TransportError::Timeout)
        );
    }

    #[test]
    fn drop_link_holds_in_flight_frames_ahead_of_later_sends() {
        let net = SimNetwork::new(12);
        let slow = LinkConfig::instant().with_latency(Duration::from_millis(200));
        let (a, b, link) = net.symmetric_link_with_id(slow);
        a.send(b"in flight").unwrap();
        // Down the link while the frame is still on the wire.
        net.drop_link(link);
        a.send(b"held").unwrap();
        assert_eq!(
            b.recv_timeout(Duration::from_millis(400)),
            Err(TransportError::Timeout)
        );
        net.restore(link);
        a.send(b"after").unwrap();
        for want in [&b"in flight"[..], b"held", b"after"] {
            assert_eq!(b.recv_timeout(Duration::from_secs(1)).unwrap(), want);
        }
    }

    #[test]
    fn drop_link_leaves_other_links_untouched() {
        let net = SimNetwork::new(13);
        let (a, b, link) = net.symmetric_link_with_id(LinkConfig::instant());
        let (c, d, _other) = net.symmetric_link_with_id(LinkConfig::instant());
        net.drop_link(link);
        a.send(b"down").unwrap();
        c.send(b"up").unwrap();
        assert_eq!(d.recv_timeout(Duration::from_secs(1)).unwrap(), b"up");
        assert_eq!(
            b.recv_timeout(Duration::from_millis(50)),
            Err(TransportError::Timeout)
        );
    }

    #[test]
    fn a_1025th_waiting_frame_resets_the_link() {
        let net = SimNetwork::new(23);
        let (a, b, link) = net.symmetric_link_with_id(LinkConfig::instant());
        net.drop_link(link);
        for i in 0..HOLD_LIMIT as u32 {
            a.send(&i.to_be_bytes()).unwrap();
        }
        b.send(b"the other way").unwrap();
        assert_eq!(a.send(b"one too many"), Err(TransportError::Closed));
        // A reset loses what waited, in both directions.
        net.restore(link);
        assert_eq!(
            b.recv_timeout(Duration::from_secs(1)),
            Err(TransportError::Closed)
        );
        assert_eq!(
            a.recv_timeout(Duration::from_secs(1)),
            Err(TransportError::Closed)
        );
        assert_eq!(b.send(b"after"), Err(TransportError::Closed));
    }

    #[test]
    fn close_a_dropped_sender_and_shutdown_discard_waiting_frames() {
        // A close: a blocked reader wakes, and nothing that waited
        // arrives at either end.
        let net = SimNetwork::new(24);
        let (a, b, link) = net.symmetric_link_with_id(LinkConfig::instant());
        net.drop_link(link);
        a.send(b"waits").unwrap();
        b.send(b"waits too").unwrap();
        let reading = std::thread::spawn(move || b.recv());
        std::thread::sleep(Duration::from_millis(5));
        a.sender().close();
        net.restore(link);
        assert_eq!(reading.join().unwrap(), Err(TransportError::Closed));
        assert_eq!(
            a.recv_timeout(Duration::from_secs(1)),
            Err(TransportError::Closed)
        );

        // A dropped sender: its peer reads a close instead of waiting
        // for the frames it left.
        let (a, b, link) = net.symmetric_link_with_id(LinkConfig::instant());
        net.drop_link(link);
        a.send(b"waits").unwrap();
        drop(a);
        net.restore(link);
        assert_eq!(
            b.recv_timeout(Duration::from_secs(1)),
            Err(TransportError::Closed)
        );

        // Shutdown: frames in flight or waiting are gone, so each queue
        // closes once its sender goes.
        let mut net = SimNetwork::new(25);
        let slow = LinkConfig::instant().with_latency(Duration::from_millis(200));
        let (a, b) = net.symmetric_link(slow);
        let (c, d, link) = net.symmetric_link_with_id(LinkConfig::instant());
        a.send(b"in flight").unwrap();
        net.drop_link(link);
        c.send(b"waits").unwrap();
        net.shutdown();
        net.restore(link);
        drop((a, c));
        assert_eq!(
            b.recv_timeout(Duration::from_secs(1)),
            Err(TransportError::Closed)
        );
        assert_eq!(
            d.recv_timeout(Duration::from_secs(1)),
            Err(TransportError::Closed)
        );
    }

    #[test]
    fn flaky_on_a_downed_link_releases_what_waited() {
        let net = SimNetwork::new(26);
        let (a, b, link) = net.symmetric_link_with_id(LinkConfig::instant());
        net.drop_link(link);
        a.send(b"waited").unwrap();
        net.flaky(link, 1.0, Duration::from_secs(30));
        assert_eq!(b.recv_timeout(Duration::from_secs(1)).unwrap(), b"waited");
        a.send(b"eaten").unwrap();
        assert_eq!(
            b.recv_timeout(Duration::from_millis(50)),
            Err(TransportError::Timeout)
        );
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
        let (a, b, l1) = net.symmetric_link_with_id(LinkConfig::instant());
        let (c, d, l2) = net.symmetric_link_with_id(LinkConfig::instant());
        let (e, f, _l3) = net.symmetric_link_with_id(LinkConfig::instant());
        net.partition(&[l1, l2]);
        assert!(net.is_faulted(l1) && net.is_faulted(l2));
        a.send(b"x").unwrap();
        c.send(b"y").unwrap();
        e.send(b"alive").unwrap();
        assert_eq!(f.recv_timeout(Duration::from_secs(1)).unwrap(), b"alive");
        for held in [&b, &d] {
            assert_eq!(
                held.recv_timeout(Duration::from_millis(50)),
                Err(TransportError::Timeout)
            );
        }
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

//! Supervised links: failure detection, repair with backoff, and
//! bounded buffering so a transient outage does not tear down the
//! broker overlay.
//!
//! The paper's broker network assumes links fail (§5: brokers and
//! connections "may fail at any time"); this module gives every link a
//! supervisor so the failure is *observed, bounded and repaired*
//! instead of silently wedging a worker thread.
//!
//! ## State machine
//!
//! ```text
//!              send failure               backoff retry
//!   Up ───────────────────────▶ Degraded ───▶ Down ───▶ Reconnecting
//!    ▲                                                        │
//!    └──────────── buffer replayed in order ◀─────────────────┘
//! ```
//!
//! * **Up** — frames pass straight through to the transport.
//! * **Degraded** — a send just failed; the supervisor has been woken
//!   but has not yet classified the outage.
//! * **Down** — the supervisor confirmed the link is unusable.
//! * **Reconnecting** — backoff delays between repair attempts; every
//!   outbound frame is buffered (bounded, drop-oldest) while here.
//!
//! Repair retries the *same* underlying transport sender, using the
//! oldest buffered frame as the probe — the model for links whose
//! faults heal in place, such as
//! [`SimNetwork::drop_link`][crate::sim::SimNetwork::drop_link]. A TCP
//! sender is poisoned by its first write error, so a broken TCP link
//! stays down until its peer closes it.
//!
//! ## Receiving
//!
//! Only sends go through the supervisor. The facade [`Endpoint`]
//! receives straight from the endpoint it wraps, on the thread that
//! consumes it (a TCP facade reads its socket there, in place). A
//! receive error is final on every transport here — the peer closed
//! the stream or dropped its end of the queue — so the facade returns
//! it to the consumer, which tears the link down.
//!
//! ## Send contract
//!
//! A supervised endpoint's `send` returns `Ok` when the frame was
//! either transmitted or buffered for replay; the link-layer promise
//! is *eventual in-order delivery while the buffer holds* (oldest
//! frames are shed first past capacity, counted in
//! `transport.link.frames.shed`). Frame-size violations still fail
//! immediately with [`TransportError::FrameTooLarge`], and every send
//! fails with [`TransportError::Closed`] after
//! [`LinkSupervisor::shutdown`].

use crate::endpoint::{Endpoint, FrameSender};
use crate::error::TransportError;
use crate::instrument;
use crate::Result;
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Health of a supervised link (see the module docs for the cycle).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkState {
    /// Frames flow directly through the transport.
    Up,
    /// A send failed; the supervisor is waking up.
    Degraded,
    /// The supervisor confirmed the link is unusable.
    Down,
    /// Between repair attempts; outbound frames are buffered.
    Reconnecting,
}

impl LinkState {
    /// Stable lower-case name (metric/log label).
    pub fn name(&self) -> &'static str {
        match self {
            LinkState::Up => "up",
            LinkState::Degraded => "degraded",
            LinkState::Down => "down",
            LinkState::Reconnecting => "reconnecting",
        }
    }
}

/// Capped exponential backoff with deterministic jitter.
///
/// The delay before attempt `n` is
/// `min(initial * multiplier^n, max) * (1 + jitter * (u - 0.5))` where
/// `u ∈ [0, 1)` is derived by hashing `(seed, n)` — the same seed and
/// attempt always produce the same delay, so outage tests are
/// reproducible while distinct links (distinct seeds) still decorrelate
/// their retry storms.
#[derive(Debug, Clone, Copy)]
pub struct BackoffPolicy {
    /// Delay before the first retry.
    pub initial: Duration,
    /// Ceiling on the exponential growth.
    pub max: Duration,
    /// Growth factor per attempt.
    pub multiplier: f64,
    /// Jitter fraction: the delay is spread over `±jitter/2` of itself.
    pub jitter: f64,
}

impl Default for BackoffPolicy {
    fn default() -> Self {
        BackoffPolicy {
            initial: Duration::from_millis(50),
            max: Duration::from_secs(2),
            multiplier: 2.0,
            jitter: 0.25,
        }
    }
}

impl BackoffPolicy {
    /// An aggressive policy for tests and simulated networks.
    pub fn fast() -> Self {
        BackoffPolicy {
            initial: Duration::from_millis(5),
            max: Duration::from_millis(50),
            multiplier: 2.0,
            jitter: 0.25,
        }
    }

    /// The deterministic delay before retry attempt `attempt`.
    pub fn delay(&self, attempt: u32, seed: u64) -> Duration {
        let base = self.initial.as_secs_f64() * self.multiplier.powi(attempt.min(63) as i32);
        let capped = base.min(self.max.as_secs_f64());
        let h = splitmix64(seed ^ u64::from(attempt).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let unit = (h >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
        Duration::from_secs_f64(capped * (1.0 + self.jitter * (unit - 0.5)))
    }
}

/// SplitMix64 — tiny, well-mixed hash for jitter derivation.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Observes link-state transitions, called as `(old, new)`.
///
/// Invoked with the supervisor's internal lock held: observers must be
/// quick and must not call back into the supervisor.
pub type StateObserver = Arc<dyn Fn(LinkState, LinkState) + Send + Sync>;

/// Runs after a completed repair cycle (Down → Up), from the
/// supervisor thread with **no locks held**. The argument is the
/// total completed repair count.
///
/// Unlike [`StateObserver`], a reconnect hook may send on the
/// supervised endpoint — that is its purpose: transport repair alone
/// cannot tell whether the *peer process* survived the outage. If the
/// peer restarted, its session state (handshakes, subscription sync)
/// is gone, so the application layer must re-run its session
/// establishment. Brokers use this to replay the neighbour handshake
/// after every repair.
pub type ReconnectHook = Arc<dyn Fn(u64) + Send + Sync>;

/// Tuning for one [`LinkSupervisor`].
#[derive(Clone)]
pub struct SupervisorConfig {
    /// Retry pacing during an outage.
    pub backoff: BackoffPolicy,
    /// Maximum outbound frames held during an outage (drop-oldest
    /// past this; default 1024). Zero means "no buffering" — every
    /// frame sent while the link is not Up is shed.
    pub buffer_capacity: usize,
    /// Seed for deterministic backoff jitter (give each link its own).
    pub seed: u64,
    /// Optional transition hook (metrics, telemetry spans).
    pub observer: Option<StateObserver>,
    /// Optional post-repair hook (session re-establishment). See
    /// [`ReconnectHook`].
    pub on_reconnect: Option<ReconnectHook>,
}

impl std::fmt::Debug for SupervisorConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SupervisorConfig")
            .field("backoff", &self.backoff)
            .field("buffer_capacity", &self.buffer_capacity)
            .field("seed", &self.seed)
            .field("observer", &self.observer.is_some())
            .field("on_reconnect", &self.on_reconnect.is_some())
            .finish()
    }
}

impl Default for SupervisorConfig {
    /// [`BackoffPolicy::default`] and a 1024-frame outage buffer.
    fn default() -> Self {
        SupervisorConfig {
            backoff: BackoffPolicy::default(),
            buffer_capacity: 1024,
            seed: 0,
            observer: None,
            on_reconnect: None,
        }
    }
}

impl SupervisorConfig {
    /// A config suited to tests: [`BackoffPolicy::fast`] and the
    /// default buffer.
    pub fn fast() -> Self {
        SupervisorConfig {
            backoff: BackoffPolicy::fast(),
            ..SupervisorConfig::default()
        }
    }

    /// Sets the jitter seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the outage buffer capacity (builder style).
    pub fn with_buffer_capacity(mut self, capacity: usize) -> Self {
        self.buffer_capacity = capacity;
        self
    }

    /// Installs a state-transition observer (builder style).
    pub fn with_observer(mut self, observer: StateObserver) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Installs a post-repair hook (builder style). See
    /// [`ReconnectHook`].
    pub fn with_reconnect_hook(mut self, hook: ReconnectHook) -> Self {
        self.on_reconnect = Some(hook);
        self
    }
}

/// Point-in-time counters for one supervised link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkStats {
    /// Current health.
    pub state: LinkState,
    /// Completed repair cycles (Down → Up).
    pub reconnects: u64,
    /// Frames currently queued for replay.
    pub buffered: usize,
    /// Total frames ever buffered during outages.
    pub buffered_total: u64,
    /// Buffered frames successfully replayed after repair.
    pub replayed: u64,
    /// Buffered frames dropped because the buffer overflowed.
    pub shed: u64,
    /// Direct sends that failed and triggered supervision.
    pub send_failures: u64,
}

struct SupInner {
    state: LinkState,
    buffer: VecDeque<Vec<u8>>,
    reconnects: u64,
    buffered_total: u64,
    replayed: u64,
    shed: u64,
    send_failures: u64,
}

struct SupShared {
    inner: Mutex<SupInner>,
    cv: Condvar,
    stop: AtomicBool,
    /// The wrapped endpoint's sender: direct sends and replays both go
    /// through it.
    sender: Arc<dyn FrameSender>,
    cfg: SupervisorConfig,
}

impl SupShared {
    fn stopped(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Transitions the state and fires the observer. Call with the
    /// lock held; no-op when the state is unchanged.
    fn set_state(&self, inner: &mut SupInner, new: LinkState) {
        let old = inner.state;
        if old == new {
            return;
        }
        inner.state = new;
        if let Some(observer) = &self.cfg.observer {
            observer(old, new);
        }
        self.cv.notify_all();
    }

    /// Appends a frame to the outage buffer, shedding the oldest frame
    /// when past capacity. Call with the lock held.
    fn buffer_frame(&self, inner: &mut SupInner, frame: Vec<u8>) {
        if self.cfg.buffer_capacity == 0 {
            inner.shed += 1;
            instrument::LINK_FRAMES_SHED.inc();
            return;
        }
        while inner.buffer.len() >= self.cfg.buffer_capacity {
            inner.buffer.pop_front();
            inner.shed += 1;
            instrument::LINK_FRAMES_SHED.inc();
        }
        inner.buffer.push_back(frame);
        inner.buffered_total += 1;
        instrument::LINK_FRAMES_BUFFERED.inc();
        self.cv.notify_all();
    }
}

/// The facade sender handed to the supervised [`Endpoint`].
struct SupervisedSender {
    shared: Arc<SupShared>,
}

impl FrameSender for SupervisedSender {
    fn send_frame(&self, frame: &[u8]) -> Result<()> {
        let shared = &self.shared;
        if shared.stopped() {
            return Err(TransportError::Closed);
        }
        {
            let mut inner = shared.inner.lock();
            if inner.state != LinkState::Up {
                shared.buffer_frame(&mut inner, frame.to_vec());
                return Ok(());
            }
        }
        if shared.sender.send_frame(frame).is_err() {
            // The link just broke under us: keep the frame, flag the
            // outage, and report success per the send contract.
            let mut inner = shared.inner.lock();
            inner.send_failures += 1;
            shared.buffer_frame(&mut inner, frame.to_vec());
            if inner.state == LinkState::Up {
                shared.set_state(&mut inner, LinkState::Degraded);
            }
        }
        Ok(())
    }
}

/// Owns the repair thread for one link; dropping it stops the thread.
///
/// Created by [`LinkSupervisor::supervise`], which also returns the
/// supervised facade [`Endpoint`] the application should use in place
/// of the raw one.
pub struct LinkSupervisor {
    shared: Arc<SupShared>,
    worker: Option<JoinHandle<()>>,
}

impl LinkSupervisor {
    /// Supervises `endpoint`. The returned facade receives from
    /// `endpoint` itself; its sends go through the supervisor, and
    /// repair retries `endpoint`'s own sender, using the oldest
    /// buffered frame as the probe.
    pub fn supervise(endpoint: Endpoint, cfg: SupervisorConfig) -> (Endpoint, LinkSupervisor) {
        let shared = Arc::new(SupShared {
            inner: Mutex::new(SupInner {
                state: LinkState::Up,
                buffer: VecDeque::new(),
                reconnects: 0,
                buffered_total: 0,
                replayed: 0,
                shed: 0,
                send_failures: 0,
            }),
            cv: Condvar::new(),
            stop: AtomicBool::new(false),
            sender: endpoint.sender(),
            cfg,
        });
        let worker_shared = Arc::clone(&shared);
        let worker = std::thread::Builder::new()
            .name("link-supervisor".to_string())
            .spawn(move || supervisor_loop(&worker_shared))
            .expect("spawn link supervisor");
        let facade = endpoint.with_sender(Arc::new(SupervisedSender {
            shared: Arc::clone(&shared),
        }));
        (
            facade,
            LinkSupervisor {
                shared,
                worker: Some(worker),
            },
        )
    }

    /// Current health of the link.
    pub fn state(&self) -> LinkState {
        self.shared.inner.lock().state
    }

    /// Point-in-time counters.
    pub fn stats(&self) -> LinkStats {
        let inner = self.shared.inner.lock();
        LinkStats {
            state: inner.state,
            reconnects: inner.reconnects,
            buffered: inner.buffer.len(),
            buffered_total: inner.buffered_total,
            replayed: inner.replayed,
            shed: inner.shed,
            send_failures: inner.send_failures,
        }
    }

    /// Blocks until the link reaches `target` (true) or `timeout`
    /// elapses (false). Condition-variable based — no polling.
    pub fn wait_for_state(&self, target: LinkState, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut inner = self.shared.inner.lock();
        while inner.state != target {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return false;
            }
            self.shared.cv.wait_for(&mut inner, left);
        }
        true
    }

    /// Stops the repair thread. The facade endpoint's sends fail with
    /// [`TransportError::Closed`] afterwards.
    pub fn shutdown(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.shared.cv.notify_all();
        if let Some(handle) = self.worker.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for LinkSupervisor {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Sleeps `total` in slices so shutdown is prompt; false if stopped.
fn sleep_interruptible(shared: &SupShared, total: Duration) -> bool {
    let deadline = Instant::now() + total;
    loop {
        if shared.stopped() {
            return false;
        }
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return true;
        }
        std::thread::sleep(left.min(Duration::from_millis(25)));
    }
}

fn supervisor_loop(shared: &SupShared) {
    loop {
        // Wait for a failed send.
        {
            let mut inner = shared.inner.lock();
            while inner.state == LinkState::Up && !shared.stopped() {
                shared.cv.wait(&mut inner);
            }
            if shared.stopped() {
                return;
            }
            shared.set_state(&mut inner, LinkState::Down);
        }
        // Repair loop: backoff, then replay the outage buffer in order.
        // The first buffered frame doubles as the liveness probe; with
        // an empty buffer we wait for traffic rather than flap.
        let mut attempt: u32 = 0;
        'repair: loop {
            shared.set_state(&mut shared.inner.lock(), LinkState::Reconnecting);
            if !sleep_interruptible(shared, shared.cfg.backoff.delay(attempt, shared.cfg.seed)) {
                return;
            }
            let mut verified = false;
            loop {
                let frame = {
                    let mut inner = shared.inner.lock();
                    loop {
                        if shared.stopped() {
                            return;
                        }
                        if let Some(front) = inner.buffer.front() {
                            break front.clone();
                        }
                        if verified {
                            // Buffer drained: the link is healthy again.
                            inner.reconnects += 1;
                            instrument::LINK_RECONNECTS.inc();
                            shared.set_state(&mut inner, LinkState::Up);
                            break 'repair;
                        }
                        shared.cv.wait(&mut inner);
                    }
                };
                if shared.sender.send_frame(&frame).is_err() {
                    attempt = attempt.saturating_add(1);
                    continue 'repair;
                }
                verified = true;
                attempt = 0;
                let mut inner = shared.inner.lock();
                inner.buffer.pop_front();
                inner.replayed += 1;
                instrument::LINK_FRAMES_REPLAYED.inc();
            }
        }
        // Repair finished (state is Up). Fire the session hook with no
        // locks held: it may send on the supervised endpoint to re-run
        // application handshakes against a possibly-restarted peer.
        if let Some(hook) = &shared.cfg.on_reconnect {
            let count = shared.inner.lock().reconnects;
            hook(count);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{LinkConfig, SimNetwork};

    #[test]
    fn healthy_link_passes_frames_through() {
        let net = SimNetwork::new(20);
        let (a, b) = net.symmetric_link(LinkConfig::instant());
        let (sa, sup) = LinkSupervisor::supervise(a, SupervisorConfig::fast());
        sa.send(b"hello").unwrap();
        assert_eq!(b.recv_timeout(Duration::from_secs(1)).unwrap(), b"hello");
        b.send(b"reply").unwrap();
        assert_eq!(sa.recv_timeout(Duration::from_secs(1)).unwrap(), b"reply");
        assert_eq!(sup.state(), LinkState::Up);
        assert_eq!(sup.stats().reconnects, 0);
    }

    #[test]
    fn outage_buffers_then_replays_in_order() {
        let net = SimNetwork::new(21);
        let (a, b, id) = net.symmetric_link_with_id(LinkConfig::instant());
        let (sa, sup) = LinkSupervisor::supervise(a, SupervisorConfig::fast().with_seed(21));
        sa.send(&[0u8]).unwrap();
        assert_eq!(b.recv_timeout(Duration::from_secs(1)).unwrap(), vec![0]);

        net.drop_link(id);
        for i in 1..=5u8 {
            // Supervised contract: buffered sends still report Ok.
            sa.send(&[i]).unwrap();
        }
        // The first failed send flips the link out of Up synchronously.
        assert_ne!(sup.state(), LinkState::Up);
        assert!(sup.stats().buffered >= 1);

        net.restore(id);
        assert!(
            sup.wait_for_state(LinkState::Up, Duration::from_secs(5)),
            "link never repaired: {:?}",
            sup.stats()
        );
        for i in 1..=5u8 {
            assert_eq!(
                b.recv_timeout(Duration::from_secs(1)).unwrap(),
                vec![i],
                "replay out of order"
            );
        }
        // Exactly once: nothing extra follows.
        assert_eq!(
            b.recv_timeout(Duration::from_millis(100)),
            Err(TransportError::Timeout)
        );
        let stats = sup.stats();
        assert!(stats.reconnects >= 1);
        assert_eq!(stats.replayed, 5);
        assert_eq!(stats.shed, 0);
    }

    #[test]
    fn overflow_sheds_oldest_frames() {
        let net = SimNetwork::new(22);
        let (a, b, id) = net.symmetric_link_with_id(LinkConfig::instant());
        let cfg = SupervisorConfig::fast().with_buffer_capacity(3).with_seed(22);
        let (sa, sup) = LinkSupervisor::supervise(a, cfg);
        net.drop_link(id);
        for i in 1..=5u8 {
            sa.send(&[i]).unwrap();
        }
        net.restore(id);
        assert!(sup.wait_for_state(LinkState::Up, Duration::from_secs(5)));
        // Oldest two were shed; the last three survive, in order.
        for i in 3..=5u8 {
            assert_eq!(b.recv_timeout(Duration::from_secs(1)).unwrap(), vec![i]);
        }
        assert_eq!(
            b.recv_timeout(Duration::from_millis(100)),
            Err(TransportError::Timeout)
        );
        assert_eq!(sup.stats().shed, 2);
    }

    #[test]
    fn default_config_buffers_1024_frames() {
        let cfg = SupervisorConfig::default();
        assert_eq!(cfg.buffer_capacity, 1024);
        assert_eq!(cfg.backoff.initial, BackoffPolicy::default().initial);
    }

    #[test]
    fn backoff_is_deterministic_and_capped() {
        let p = BackoffPolicy {
            initial: Duration::from_millis(100),
            max: Duration::from_secs(1),
            multiplier: 2.0,
            jitter: 0.5,
        };
        assert_eq!(p.delay(3, 42), p.delay(3, 42));
        assert_ne!(p.delay(3, 42), p.delay(4, 42));
        assert_ne!(p.delay(3, 42), p.delay(3, 43));
        // Past the cap every delay stays within the jitter envelope.
        for attempt in 10..20 {
            let d = p.delay(attempt, 7);
            assert!(d <= Duration::from_millis(1250), "attempt {attempt}: {d:?}");
            assert!(d >= Duration::from_millis(750), "attempt {attempt}: {d:?}");
        }
    }

    #[test]
    fn observer_sees_the_full_cycle() {
        let net = SimNetwork::new(23);
        let (a, _b, id) = net.symmetric_link_with_id(LinkConfig::instant());
        let seen: Arc<Mutex<Vec<(LinkState, LinkState)>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        let cfg = SupervisorConfig::fast()
            .with_seed(23)
            .with_observer(Arc::new(move |old, new| sink.lock().push((old, new))));
        let (sa, sup) = LinkSupervisor::supervise(a, cfg);
        net.drop_link(id);
        sa.send(b"x").unwrap();
        net.restore(id);
        assert!(sup.wait_for_state(LinkState::Up, Duration::from_secs(5)));
        let transitions = seen.lock().clone();
        let states: Vec<LinkState> = transitions.iter().map(|(_, new)| *new).collect();
        assert!(states.contains(&LinkState::Degraded), "{states:?}");
        assert!(states.contains(&LinkState::Down), "{states:?}");
        assert!(states.contains(&LinkState::Reconnecting), "{states:?}");
        assert_eq!(states.last(), Some(&LinkState::Up), "{states:?}");
    }

    #[test]
    fn reconnect_hook_fires_after_repair_and_can_send() {
        let net = SimNetwork::new(26);
        let (a, b, id) = net.symmetric_link_with_id(LinkConfig::instant());
        // The hook sends a "session resync" frame through the repaired
        // link via a slot filled with the facade's sender (the pattern
        // the broker uses for its neighbour re-handshake).
        let slot: Arc<Mutex<Option<Arc<dyn FrameSender>>>> = Arc::new(Mutex::new(None));
        let fired: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
        let hook_slot = Arc::clone(&slot);
        let hook_fired = Arc::clone(&fired);
        let cfg = SupervisorConfig::fast()
            .with_seed(26)
            .with_reconnect_hook(Arc::new(move |count| {
                hook_fired.lock().push(count);
                if let Some(sender) = hook_slot.lock().clone() {
                    let _ = sender.send_frame(b"resync");
                }
            }));
        let (sa, sup) = LinkSupervisor::supervise(a, cfg);
        *slot.lock() = Some(sa.sender());

        sa.send(b"pre").unwrap();
        assert_eq!(b.recv_timeout(Duration::from_secs(1)).unwrap(), b"pre");
        assert!(fired.lock().is_empty(), "hook must not fire while Up");

        net.drop_link(id);
        sa.send(b"during").unwrap();
        net.restore(id);
        assert!(sup.wait_for_state(LinkState::Up, Duration::from_secs(5)));

        // The buffered frame replays first, then the hook's resync
        // frame goes out on the repaired link.
        assert_eq!(b.recv_timeout(Duration::from_secs(1)).unwrap(), b"during");
        assert_eq!(b.recv_timeout(Duration::from_secs(1)).unwrap(), b"resync");
        let fired = fired.lock().clone();
        assert_eq!(fired.len(), 1, "one repair cycle → one hook call");
        assert_eq!(fired[0], 1);
    }

    #[test]
    fn shutdown_fails_sends_fast() {
        let net = SimNetwork::new(25);
        let (a, _b) = net.symmetric_link(LinkConfig::instant());
        let (sa, mut sup) = LinkSupervisor::supervise(a, SupervisorConfig::fast());
        sup.shutdown();
        assert_eq!(sa.send(b"x"), Err(TransportError::Closed));
    }
}

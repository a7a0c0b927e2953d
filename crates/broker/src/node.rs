//! The broker node: client attachment, neighbour links, routing,
//! constrained-topic enforcement, token checks, and DoS containment.

use crate::error::BrokerError;
use crate::persist::{BrokerDurableState, BrokerOp};
use crate::route::{ClientDest, NeighborDest, RouteCache, RouteEntry, TopicPolicy};
use crate::subscription::SubscriptionTable;
use crate::Result;
use crossbeam::channel::{unbounded, Receiver, Sender};
use nb_crypto::rsa::RsaPublicKey;
use nb_crypto::{SessionKey, SessionKeyring, SessionVerdict, Uuid};
use nb_metrics::{Counter, Gauge, Registry, Snapshot};
use nb_telemetry::{now_ns, FlightRecorder, SpanEvent, Stage, TelemetryConfig, TraceContext};
use nb_transport::clock::SharedClock;
use nb_transport::endpoint::{Endpoint, FrameSender};
use nb_transport::supervisor::{LinkState, LinkStats, LinkSupervisor, SupervisorConfig};
use nb_wire::codec::{Decode, Encode};
use nb_wire::constrained::{Action, Actor, ConstrainedTopic};
use nb_wire::token::Rights;
use nb_wire::payload::{is_client_control_tag, is_neighbor_control_tag};
use nb_wire::view::TopicView;
use nb_monitor::{DeliveryEvent, MonitorSet};
use nb_obs::{NodeKind, PublisherConfig, TelemetryPublisher};
use nb_store::{Durable, DurableState, Recovery, StoreConfig};
use nb_wire::{Message, MessageView, Payload, Topic};
use parking_lot::{Condvar, Mutex, RwLock};
use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Broker tuning knobs.
#[derive(Debug, Clone)]
pub struct BrokerConfig {
    /// §5.2: after this many bogus attempts a client is disconnected.
    pub bogus_attempt_limit: u32,
    /// Clock-skew tolerance for token validity windows (the paper
    /// assumes NTP keeps clocks within 30–100 ms).
    pub token_skew_ms: u64,
    /// Enforce authorization tokens on broker-published trace topics.
    pub require_tokens: bool,
    /// Interval for subscription anti-entropy: each broker
    /// periodically re-advertises to every neighbour the full set of
    /// filters it should hold, repairing adverts lost on unreliable
    /// links. `None` disables the refresher.
    pub advert_refresh: Option<std::time::Duration>,
    /// Routing TTL: a message whose `TraceContext.hop_count` exceeds
    /// this after a neighbour-ingress increment is dropped (and
    /// counted in `broker.drop.ttl_exceeded`) instead of forwarded,
    /// closing the forwarding-loop hazard. Messages without a trace
    /// context are not TTL-checked.
    pub max_hops: u8,
    /// Causal-tracing knobs for this broker's flight recorder (see
    /// `docs/OBSERVABILITY.md`, "Causal tracing").
    pub telemetry: TelemetryConfig,
    /// Link-failure fault tolerance: when set, every client and
    /// neighbour endpoint is wrapped in a [`LinkSupervisor`] that
    /// detects failed sends, buffers outbound frames (bounded,
    /// drop-oldest) during the outage, and repairs the link with
    /// capped, jittered backoff. Receives bypass the supervisor, so a
    /// link whose peer closes it still ends its worker, and the
    /// worker's supervisor with it. `None` leaves sends unsupervised:
    /// a frame whose send fails is lost.
    pub link_supervision: Option<SupervisorConfig>,
    /// Durability: when set, the broker journals its control plane
    /// (local subscriptions, trace-topic owner keys) to a write-ahead
    /// log + snapshot under this directory and recovers it on
    /// construction — a restarted broker re-advertises the recovered
    /// filters during the neighbour handshake and resumes deliveries
    /// to re-attaching clients. `None` (the default) keeps the broker
    /// fully in-memory. See `docs/ARCHITECTURE.md`, "Durability".
    pub data_dir: Option<PathBuf>,
    /// Tuning for the durable store (checkpoint interval, fsync
    /// policy). Only consulted when [`BrokerConfig::data_dir`] is set.
    pub store: StoreConfig,
}

impl Default for BrokerConfig {
    fn default() -> Self {
        BrokerConfig {
            bogus_attempt_limit: 3,
            token_skew_ms: 100,
            require_tokens: true,
            advert_refresh: Some(std::time::Duration::from_millis(500)),
            max_hops: 16,
            telemetry: TelemetryConfig::default(),
            link_supervision: None,
            data_dir: None,
            store: StoreConfig::default(),
        }
    }
}

/// Cached handles on the broker's per-instance metrics registry.
///
/// The named counters are the hot-path metrics; gauges (client,
/// neighbour, subscription and queue sizes) are sampled lazily in
/// [`Broker::metrics_snapshot`]. Metric names are catalogued in
/// `docs/OBSERVABILITY.md` under the `broker.*` family.
#[derive(Debug)]
struct BrokerMetrics {
    registry: Registry,
    /// Messages accepted for routing (client + internal publishes).
    published: Counter,
    /// Messages handed to local consumers.
    delivered_local: Counter,
    /// Messages forwarded to neighbouring brokers.
    forwarded: Counter,
    /// Publish/subscribe attempts refused by constraint checks.
    rejected: Counter,
    /// Spurious traces dropped for missing/invalid tokens (§5.2).
    dropped_spurious: Counter,
    /// Messages dropped because their hop count exceeded
    /// [`BrokerConfig::max_hops`].
    dropped_ttl: Counter,
    /// Clients disconnected for repeated bogus attempts.
    terminated_clients: Counter,
    /// Trace frames authenticated by a session-key MAC instead of the
    /// RSA token path.
    session_verified: Counter,
    /// Session-tagged frames that fell back to the RSA token checks
    /// (unknown or expired key id — e.g. the publisher rotated first).
    session_fallback: Counter,
    /// Session-tagged frames dropped for a bad MAC or a key bound to a
    /// different trace topic.
    session_rejected: Counter,
    /// Session-tagged frames dropped because their key was revoked
    /// (each is also reported to an attached monitor).
    session_revoked_dropped: Counter,
    /// Condvar wake-ups inside [`Broker::wait_for_neighbors`].
    neighbor_wait_wakeups: Counter,
    /// Condvar wake-ups inside [`Broker::wait_for_remote_subscription`].
    subscription_wait_wakeups: Counter,
    /// Supervised links that completed a repair cycle and returned to
    /// Up (one increment per Down → Up recovery).
    link_reconnects: Counter,
    /// Every supervised link-state transition (Up → Degraded, …).
    link_state_changes: Counter,
    /// Supervised links observed leaving the Up state.
    link_down_events: Counter,
    clients: Gauge,
    neighbors: Gauge,
    subs_local: Gauge,
    subs_remote: Gauge,
    queue_depth: Gauge,
    links_supervised: Gauge,
}

impl BrokerMetrics {
    fn new() -> Self {
        let registry = Registry::new();
        BrokerMetrics {
            published: registry.counter("broker.publish.accepted"),
            delivered_local: registry.counter("broker.deliver.local"),
            forwarded: registry.counter("broker.forward.neighbor"),
            rejected: registry.counter("broker.reject.constraint"),
            dropped_spurious: registry.counter("broker.drop.spurious_token"),
            dropped_ttl: registry.counter("broker.drop.ttl_exceeded"),
            terminated_clients: registry.counter("broker.client.terminated"),
            session_verified: registry.counter("broker.session.verified"),
            session_fallback: registry.counter("broker.session.fallback"),
            session_rejected: registry.counter("broker.session.rejected"),
            session_revoked_dropped: registry.counter("broker.session.revoked_drop"),
            neighbor_wait_wakeups: registry.counter("broker.neighbor_wait.wakeups"),
            subscription_wait_wakeups: registry.counter("broker.subscription_wait.wakeups"),
            link_reconnects: registry.counter("broker.link.reconnects"),
            link_state_changes: registry.counter("broker.link.state_changes"),
            link_down_events: registry.counter("broker.link.down_events"),
            clients: registry.gauge("broker.clients"),
            neighbors: registry.gauge("broker.neighbors"),
            subs_local: registry.gauge("broker.subscriptions.local"),
            subs_remote: registry.gauge("broker.subscriptions.remote"),
            queue_depth: registry.gauge("broker.queue.internal_depth"),
            links_supervised: registry.gauge("broker.links.supervised"),
            registry,
        }
    }

    /// Per-event-type publish counter (`broker.publish.topic.<family>`).
    fn published_for(&self, family: &str) -> Counter {
        self.registry.counter(&format!("broker.publish.topic.{family}"))
    }

    /// Per-event-type delivery counter (`broker.deliver.topic.<family>`).
    fn delivered_for(&self, family: &str) -> Counter {
        self.registry.counter(&format!("broker.deliver.topic.{family}"))
    }
}

/// Point-in-time copy of a broker's core routing counters (see
/// [`Broker::stats`]). The full instrumented view — including the
/// per-topic-family splits and the gauges — is
/// [`Broker::metrics_snapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Publishes accepted into routing (`broker.publish.accepted`).
    pub published: u64,
    /// Deliveries to local consumers (`broker.deliver.local`).
    pub delivered_local: u64,
    /// Messages forwarded to neighbour brokers (`broker.forward.neighbor`).
    pub forwarded: u64,
    /// Publish/subscribe attempts refused by constrained-topic rules
    /// (`broker.reject.constraint`).
    pub rejected: u64,
    /// Trace publications dropped for a missing, expired or forged
    /// token (`broker.drop.spurious_token`).
    pub dropped_spurious: u64,
    /// Messages dropped by the hop-count TTL
    /// (`broker.drop.ttl_exceeded`).
    pub dropped_ttl: u64,
    /// Clients disconnected by DoS containment (`broker.client.terminated`).
    pub terminated_clients: u64,
}

struct ClientHandle {
    sender: Arc<dyn FrameSender>,
    bogus: u32,
    /// Shared with the client's worker thread and any cached route
    /// entries, so termination takes effect immediately without a
    /// state-lock check per frame.
    terminated: Arc<AtomicBool>,
}

struct State {
    clients: HashMap<String, ClientHandle>,
    neighbors: HashMap<String, Arc<dyn FrameSender>>,
    subs: SubscriptionTable,
    internal: HashMap<String, Sender<Message>>,
    owner_keys: HashMap<Uuid, RsaPublicKey>,
    /// Rate limiter for hello replies (prevents two registered peers
    /// from bouncing hellos forever).
    hello_replied_ms: HashMap<String, u64>,
}

struct Inner {
    id: String,
    clock: SharedClock,
    config: BrokerConfig,
    state: Mutex<State>,
    /// Notified whenever the neighbour table changes (see
    /// [`Broker::wait_for_neighbors`]).
    neighbor_cv: Condvar,
    /// Notified on every subscription-table change (see
    /// [`Broker::wait_for_remote_subscription`]).
    subs_cv: Condvar,
    /// Held from reading the subscription table for adverts until they
    /// are sent, so each neighbour receives adverts and withdrawals in
    /// table order. Never taken with the state lock held.
    adverts: Mutex<()>,
    metrics: BrokerMetrics,
    /// Sharded per-topic route cache backing the routing pipeline
    /// (see `crate::route`).
    routes: RouteCache,
    /// Per-broker causal-tracing span ring.
    recorder: FlightRecorder,
    msg_seq: AtomicU64,
    /// Every link a worker serves, by link number. A link's worker
    /// removes its own when the link closes; [`Broker::shutdown`]
    /// closes and joins the rest.
    links: Mutex<BTreeMap<u64, Link>>,
    /// Numbers links and seeds supervised links' backoff jitter.
    next_link: AtomicU64,
    /// Notified on every supervised-link state transition (see
    /// [`Broker::wait_for_link_stats`]).
    link_cv: Condvar,
    /// Fast gate for the monitor tap: one relaxed load on the data
    /// plane when no monitor is attached.
    monitor_on: AtomicBool,
    /// The attached runtime-verification monitor, if any (see
    /// [`Broker::attach_monitor`]).
    monitor: RwLock<Option<MonitorSet>>,
    /// Session keys negotiated for this broker's trace topics (see
    /// [`Broker::install_session_key`]): frames tagged under a live
    /// key authenticate with one HMAC instead of the RSA token chain.
    /// Shared by reference with the hosting tracing engine.
    session_keys: Arc<SessionKeyring>,
    /// The durable store (WAL + snapshots) and its replay mirror, when
    /// [`BrokerConfig::data_dir`] is set. Off the data plane: only
    /// control-plane mutations take this lock.
    persist: Mutex<Option<PersistHandle>>,
    /// What recovery found on construction (`None` without a data
    /// dir).
    recovery: Option<Recovery>,
    /// Set when [`Broker::shutdown`] begins; shared with the advert
    /// refresher, which sleeps on it.
    closing: Arc<Closing>,
    /// The advert refresher's thread, joined by [`Broker::shutdown`].
    refresher: Mutex<Option<JoinHandle<()>>>,
}

/// One link a worker serves.
struct Link {
    /// The worker's sender (a supervised link's facade): closing it
    /// ends the worker's receives.
    sender: Arc<dyn FrameSender>,
    worker: JoinHandle<()>,
    /// Present when [`BrokerConfig::link_supervision`] is set.
    supervisor: Option<LinkSupervisor>,
}

/// Whether [`Broker::shutdown`] has begun, with the condition variable
/// the advert refresher sleeps on so that shutdown wakes it at once.
#[derive(Default)]
struct Closing {
    closed: Mutex<bool>,
    cv: Condvar,
}

impl Closing {
    fn is_closed(&self) -> bool {
        *self.closed.lock()
    }

    fn close(&self) {
        *self.closed.lock() = true;
        self.cv.notify_all();
    }

    /// Sleeps for `interval` unless the broker closes first; returns
    /// whether it is still open.
    fn sleep_while_open(&self, interval: Duration) -> bool {
        let deadline = Instant::now() + interval;
        let mut closed = self.closed.lock();
        while !*closed {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return true;
            }
            self.cv.wait_for(&mut closed, left);
        }
        false
    }
}

/// The durable store plus the mirror state it checkpoints from.
///
/// The mirror duplicates the subscription/owner-key view held in
/// [`State`] rather than borrowing it: checkpoints then never contend
/// with the routing lock, at the cost of a second (small,
/// control-plane-sized) copy.
struct PersistHandle {
    durable: Durable<BrokerDurableState>,
    mirror: BrokerDurableState,
}

/// Journals one control-plane op (no-op without a data dir).
/// Write-ahead: the op is appended before the mirror applies it, and a
/// checkpoint fires once enough ops accumulate.
fn journal(inner: &Inner, op: BrokerOp) {
    let mut guard = inner.persist.lock();
    if let Some(p) = guard.as_mut() {
        if p.durable.record(&op).is_ok() {
            p.mirror.apply(op);
            let _ = p.durable.maybe_checkpoint(&p.mirror);
        }
    }
}

/// A broker node. Cheap to clone (shared internals).
#[derive(Clone)]
pub struct Broker {
    inner: Arc<Inner>,
}

impl Broker {
    /// Creates a broker with the given identifier and clock.
    pub fn new(id: impl Into<String>, clock: SharedClock, config: BrokerConfig) -> Self {
        let id = id.into();
        let recorder = FlightRecorder::new(id.clone(), config.telemetry.capacity);
        let metrics = BrokerMetrics::new();
        let routes = RouteCache::new(&metrics.registry);

        // Crash recovery: reopen the durable store (if configured) and
        // re-install the recovered control plane *before* any link
        // exists — the neighbour handshake then re-advertises the
        // recovered filters, and re-attaching clients resume
        // deliveries without re-subscribing.
        let mut subs = SubscriptionTable::new();
        let mut owner_keys = HashMap::new();
        let mut persist = None;
        let mut recovery = None;
        if let Some(dir) = &config.data_dir {
            match Durable::<BrokerDurableState>::open(dir, "broker", config.store.clone()) {
                Ok((durable, mirror, rec)) => {
                    for ((consumer, filter), suppressed) in &mirror.subs {
                        subs.add_local(consumer, filter.clone(), *suppressed);
                    }
                    for (topic, key) in &mirror.owner_keys {
                        owner_keys.insert(*topic, key.clone());
                    }
                    persist = Some(PersistHandle { durable, mirror });
                    recovery = Some(rec);
                }
                Err(_) => {
                    // An unusable data dir degrades to in-memory
                    // operation rather than refusing to start.
                }
            }
        }

        let broker = Broker {
            inner: Arc::new(Inner {
                id,
                clock,
                config,
                state: Mutex::new(State {
                    clients: HashMap::new(),
                    neighbors: HashMap::new(),
                    subs,
                    internal: HashMap::new(),
                    owner_keys,
                    hello_replied_ms: HashMap::new(),
                }),
                neighbor_cv: Condvar::new(),
                subs_cv: Condvar::new(),
                adverts: Mutex::new(()),
                metrics,
                routes,
                recorder,
                msg_seq: AtomicU64::new(1),
                links: Mutex::new(BTreeMap::new()),
                next_link: AtomicU64::new(0),
                link_cv: Condvar::new(),
                monitor_on: AtomicBool::new(false),
                monitor: RwLock::new(None),
                session_keys: Arc::new(SessionKeyring::new()),
                persist: Mutex::new(persist),
                recovery,
                closing: Arc::new(Closing::default()),
                refresher: Mutex::new(None),
            }),
        };
        if let Some(interval) = broker.inner.config.advert_refresh {
            let weak = Arc::downgrade(&broker.inner);
            let closing = Arc::clone(&broker.inner.closing);
            let refresher = std::thread::Builder::new()
                .name(format!("{}-advert-refresh", broker.inner.id))
                .spawn(move || {
                    while closing.sleep_while_open(interval) {
                        let Some(inner) = weak.upgrade() else { return };
                        refresh_adverts(&inner);
                    }
                })
                .expect("spawn advert refresher");
            *broker.inner.refresher.lock() = Some(refresher);
        }
        broker
    }

    /// This broker's identifier.
    pub fn id(&self) -> &str {
        &self.inner.id
    }

    /// Crash-test support: detaches the durable store *instantly*, as
    /// an abrupt process death would. Everything journalled so far
    /// stays on disk, but nothing after this call reaches the log — in
    /// particular the `ConsumerGone` cleanup that worker threads run
    /// when their links die during teardown. A broker reopened over
    /// the same data dir therefore recovers its clients' subscriptions
    /// exactly as it would after a real kill, and re-attaching clients
    /// resume deliveries without re-subscribing.
    ///
    /// No-op for brokers without a data dir.
    pub fn simulate_crash(&self) {
        *self.inner.persist.lock() = None;
    }

    /// Shuts this broker down: closes every link it serves, waits for
    /// the links' workers and supervisors and the advert refresher to
    /// exit, and drops the broker's in-process consumers, route cache
    /// and monitor.
    ///
    /// Shutdown is not a departure. From its start nothing is
    /// journalled and no withdrawal is sent, so a durable broker
    /// reopened over its data dir recovers what it held, as after
    /// [`Broker::simulate_crash`]. A handle that outlives shutdown is
    /// inert: a link attached later is closed at once, and publishes
    /// reach no one. Idempotent.
    pub fn shutdown(&self) {
        self.close_links();
        let links = std::mem::take(&mut *self.inner.links.lock());
        let refresher = self.inner.refresher.lock().take();
        let workers = links.into_values().map(|link| link.worker);
        for thread in workers.chain(refresher) {
            // A shutdown run on a thread of this broker's own cannot
            // wait for itself.
            if thread.thread().id() != std::thread::current().id() {
                let _ = thread.join();
            }
        }
        {
            let mut state = self.inner.state.lock();
            state.clients.clear();
            state.neighbors.clear();
            state.internal.clear();
            state.hello_replied_ms.clear();
            self.inner.routes.bump();
        }
        self.inner.routes.clear();
        self.inner.monitor_on.store(false, Ordering::Release);
        *self.inner.monitor.write() = None;
    }

    /// The first half of [`Broker::shutdown`], which waits for nothing:
    /// marks the broker closed, detaches its durable store and closes
    /// every link it serves. A network of brokers runs it on each
    /// broker before it waits for any, so no broker reads a peer's
    /// shutdown as a departure.
    pub(crate) fn close_links(&self) {
        self.inner.closing.close();
        self.simulate_crash();
        for link in self.inner.links.lock().values() {
            link.sender.close();
        }
    }

    /// Counters snapshot.
    pub fn stats(&self) -> StatsSnapshot {
        let m = &self.inner.metrics;
        StatsSnapshot {
            published: m.published.get(),
            delivered_local: m.delivered_local.get(),
            forwarded: m.forwarded.get(),
            rejected: m.rejected.get(),
            dropped_spurious: m.dropped_spurious.get(),
            dropped_ttl: m.dropped_ttl.get(),
            terminated_clients: m.terminated_clients.get(),
        }
    }

    /// This broker's causal-tracing flight recorder. Snapshot it (or
    /// wrap it in `nb_telemetry::NodeSpans::capture`) to export spans.
    pub fn flight_recorder(&self) -> &FlightRecorder {
        &self.inner.recorder
    }

    /// Captures every `broker.*` metric of this node: routing
    /// counters, per-event-type publish/deliver counts, and freshly
    /// sampled size gauges (clients, neighbours, subscription tables,
    /// internal queue depth).
    pub fn metrics_snapshot(&self) -> Snapshot {
        let m = &self.inner.metrics;
        {
            let state = self.inner.state.lock();
            m.clients.set(state.clients.len() as i64);
            m.neighbors.set(state.neighbors.len() as i64);
            m.subs_local.set(state.subs.local_filter_count() as i64);
            m.subs_remote.set(state.subs.remote_filter_count() as i64);
            m.queue_depth
                .set(state.internal.values().map(|tx| tx.len() as i64).sum());
        }
        let supervised = self.link_stats().len();
        m.links_supervised.set(supervised as i64);
        m.registry.snapshot()
    }

    /// Builds this broker's telemetry publisher: a periodic reporter
    /// that snapshots [`Broker::metrics_snapshot`] and publishes the
    /// changes on the constrained Obs topic through this broker's own
    /// internal publish path (constraint-exempt, like the monitor
    /// audit sink). Callers drive it with
    /// [`TelemetryPublisher::tick`] from a maintenance loop or
    /// [`TelemetryPublisher::start`]; sign it with
    /// [`TelemetryPublisher::signed`] before first publish if the
    /// aggregator requires authenticated streams.
    pub fn telemetry_publisher(&self, config: PublisherConfig) -> TelemetryPublisher {
        let source = self.clone();
        let sink = self.clone();
        TelemetryPublisher::new(
            self.id(),
            NodeKind::Broker,
            Arc::new(move || source.metrics_snapshot()),
            Arc::new(move |msg| sink.publish_internal(msg)),
            self.inner.clock.clone(),
            config,
        )
    }

    /// Blocks until this broker has registered at least `min`
    /// neighbours, or `timeout` elapses. Returns whether the target
    /// was reached.
    ///
    /// Event-driven: neighbour workers signal a condition variable on
    /// every registration, so the caller wakes exactly when the table
    /// changes instead of polling on a sleep loop. Spurious wake-ups
    /// are counted in `broker.neighbor_wait.wakeups`.
    pub fn wait_for_neighbors(&self, min: usize, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut state = self.inner.state.lock();
        loop {
            if state.neighbors.len() >= min {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            self.inner
                .neighbor_cv
                .wait_for(&mut state, deadline.duration_since(now));
            self.inner.metrics.neighbor_wait_wakeups.inc();
        }
    }

    /// Blocks until a neighbouring broker has advertised exactly
    /// `filter`, or `timeout` elapses. Returns whether the advert
    /// arrived.
    ///
    /// Same event-driven shape as [`Broker::wait_for_neighbors`]:
    /// subscription registrations signal a condition variable, so this
    /// observes propagation deterministically instead of sleeping and
    /// hoping — the fix for the seed-era
    /// `stats_track_publish_deliver_forward` flake. Wake-ups are
    /// counted in `broker.subscription_wait.wakeups`.
    pub fn wait_for_remote_subscription(&self, filter: &Topic, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut state = self.inner.state.lock();
        loop {
            if state.subs.remote_holds(filter) {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            self.inner
                .subs_cv
                .wait_for(&mut state, deadline.duration_since(now));
            self.inner.metrics.subscription_wait_wakeups.inc();
        }
    }

    /// Allocates a fresh message id.
    pub fn next_message_id(&self) -> u64 {
        self.inner.msg_seq.fetch_add(1, Ordering::Relaxed)
    }

    /// Registers the public key of a trace-topic owner so this broker
    /// can fully verify authorization tokens (signature, not just
    /// expiry). The tracing engine calls this during registration.
    pub fn register_topic_owner(&self, trace_topic: Uuid, key: RsaPublicKey) {
        {
            let mut state = self.inner.state.lock();
            state.owner_keys.insert(trace_topic, key.clone());
            self.inner.routes.bump();
        }
        journal(
            &self.inner,
            BrokerOp::OwnerKey {
                topic: trace_topic,
                key: key.clone(),
            },
        );
        // Keep an attached monitor's owner-key registry in sync so it
        // can fully verify tokens for this topic too.
        if self.inner.monitor_on.load(Ordering::Acquire) {
            if let Some(monitor) = self.inner.monitor.read().as_ref() {
                monitor.register_owner(trace_topic, key);
            }
        }
    }

    /// The broker's session keyring, shared with the hosting tracing
    /// engine: keys the engine negotiates with entities authenticate
    /// trace frames here without further registration.
    pub fn session_keyring(&self) -> Arc<SessionKeyring> {
        Arc::clone(&self.inner.session_keys)
    }

    /// Installs a negotiated session key: trace frames tagged under it
    /// verify with one HMAC over the signable region, in place on the
    /// frame, instead of the per-frame RSA token chain.
    pub fn install_session_key(&self, key: SessionKey) {
        // No route-cache bump: route entries cache nothing about the
        // keyring, which the pipeline consults per frame.
        self.inner.session_keys.install(key);
    }

    /// Revokes a session key: frames still tagged under it are dropped
    /// and, when a monitor is attached, reported as delivery attempts
    /// so its `require-session` property can flag the replay. Returns
    /// whether the key was known to this broker.
    pub fn revoke_session_key(&self, key_id: u64) -> bool {
        let known = self.inner.session_keys.revoke(key_id);
        if self.inner.monitor_on.load(Ordering::Acquire) {
            if let Some(monitor) = self.inner.monitor.read().as_ref() {
                monitor.revoke_session_key(key_id);
            }
        }
        known
    }

    /// Attaches an online runtime-verification monitor: every delivery
    /// decision this broker makes on a topic one of the monitor's
    /// properties governs (resolved once per route-cache entry into its
    /// `monitored` flag) is reported to `monitor` as a
    /// [`DeliveryEvent`] stamped with the broker's clock. The monitor
    /// inherits the broker's current trace-topic owner keys and stays
    /// in sync with future [`Broker::register_topic_owner`] calls.
    pub fn attach_monitor(&self, monitor: MonitorSet) {
        {
            let state = self.inner.state.lock();
            for (topic, key) in &state.owner_keys {
                monitor.register_owner(*topic, key.clone());
            }
        }
        *self.inner.monitor.write() = Some(monitor);
        self.inner.monitor_on.store(true, Ordering::Release);
        // Cached route entries predate the monitor and carry
        // `monitored: false`; invalidate them so every topic
        // re-resolves against the new property set.
        let _state = self.inner.state.lock();
        self.inner.routes.bump();
    }

    /// Blocks until `pred` holds over [`Broker::link_stats`] or the
    /// timeout elapses; returns whether the predicate was satisfied.
    ///
    /// Event-driven: woken by supervised-link state transitions (the
    /// same observer that feeds `broker.link.*` metrics), with a
    /// bounded re-check interval as a safety net for stat changes that
    /// don't transition the link state — so callers get condvar
    /// latency without sleep-polling.
    pub fn wait_for_link_stats(
        &self,
        timeout: Duration,
        mut pred: impl FnMut(&[LinkStats]) -> bool,
    ) -> bool {
        let deadline = Instant::now() + timeout;
        let mut links = self.inner.links.lock();
        loop {
            if pred(&supervised_stats(&links)) {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let slice = (deadline - now).min(Duration::from_millis(50));
            self.inner.link_cv.wait_for(&mut links, slice);
        }
    }

    /// Wraps `endpoint` in a [`LinkSupervisor`] when
    /// [`BrokerConfig::link_supervision`] is set, returning the facade
    /// and the supervisor; `link` is the link's number. The facade
    /// buffers sends through outages, and the supervisor's state
    /// transitions feed the `broker.link.*` metrics and (when telemetry
    /// is on) the flight recorder as `link_down`/`link_up` spans.
    ///
    /// With `neighbor_resync` set (neighbour links only), every
    /// completed repair cycle also replays the neighbour handshake —
    /// hello plus every filter the peer should hold from us — through
    /// the repaired link. Transport repair cannot tell a healed wire
    /// from a restarted peer; if the peer process restarted, its
    /// subscription table is gone (or freshly recovered) and only a
    /// re-run of the session sync restores routing toward us.
    fn supervise_link(
        &self,
        endpoint: Endpoint,
        link: u64,
        neighbor_resync: bool,
    ) -> (Endpoint, Option<LinkSupervisor>) {
        let Some(base) = &self.inner.config.link_supervision else {
            return (endpoint, None);
        };
        let weak = Arc::downgrade(&self.inner);
        let telemetry_on = self.inner.config.telemetry.enabled;
        let observer: nb_transport::supervisor::StateObserver = Arc::new(move |old, new| {
            let Some(inner) = weak.upgrade() else { return };
            inner.metrics.link_state_changes.inc();
            // Wake any wait_for_link_stats() waiter to re-check.
            inner.link_cv.notify_all();
            let (counter, stage) = match (old, new) {
                (_, LinkState::Up) => (&inner.metrics.link_reconnects, Stage::LinkUp),
                (LinkState::Up, _) => (&inner.metrics.link_down_events, Stage::LinkDown),
                _ => return,
            };
            counter.inc();
            if telemetry_on {
                let t = now_ns();
                let ctx = TraceContext::root(0, true);
                inner.recorder.record(SpanEvent::new(&ctx, stage, t, t));
            }
        });
        // Give each link its own jitter seed so simultaneous outages
        // don't retry in lockstep.
        let mut cfg = base
            .clone()
            .with_seed(base.seed ^ link.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .with_observer(observer);
        // The hook needs the facade's sender, which doesn't exist yet
        // when the config is built — hand it a slot filled in below.
        // The slot holds it weakly: the hook lives in the supervisor,
        // and the sender holds the supervisor.
        let sender_slot: Arc<Mutex<Option<Weak<dyn FrameSender>>>> = Arc::new(Mutex::new(None));
        if neighbor_resync {
            let slot = Arc::clone(&sender_slot);
            let weak = Arc::downgrade(&self.inner);
            cfg = cfg.with_reconnect_hook(Arc::new(move |_reconnects| {
                let Some(inner) = weak.upgrade() else { return };
                let Some(sender) = slot.lock().as_ref().and_then(Weak::upgrade) else {
                    return;
                };
                resync_neighbor_session(&inner, &sender);
            }));
        }
        let (facade, supervisor) = LinkSupervisor::supervise(endpoint, cfg);
        *sender_slot.lock() = Some(Arc::downgrade(&facade.sender()));
        (facade, Some(supervisor))
    }

    /// Point-in-time stats for every open supervised link of this
    /// broker (empty when supervision is disabled).
    pub fn link_stats(&self) -> Vec<LinkStats> {
        supervised_stats(&self.inner.links.lock())
    }

    /// Attaches a client over `endpoint`; the first frame must be an
    /// `Attach` payload carrying the client id. Spawns the worker
    /// thread and returns immediately. After [`Broker::shutdown`] the
    /// endpoint is closed at once.
    pub fn attach_client(&self, endpoint: Endpoint) {
        self.spawn_worker("client", endpoint, false, client_worker);
    }

    /// Connects a neighbouring broker over `endpoint`. Both sides call
    /// this on their half of the link. Spawns the worker thread. After
    /// [`Broker::shutdown`] the endpoint is closed at once.
    pub fn connect_neighbor(&self, endpoint: Endpoint) {
        self.spawn_worker("neighbor", endpoint, true, neighbor_worker);
    }

    /// Runs `worker` over `endpoint`, supervised if so configured, on a
    /// thread of its own, and enters the link in the link table; the
    /// table's lock spans the closed check and the entry, so shutdown
    /// closes every link it does not refuse. Once the worker returns
    /// (its link closed), the thread takes the link out of the table
    /// and drops it after the table's lock is released: shutting a
    /// supervisor down joins its thread, which may be inside the
    /// reconnect hook, and the hook takes the advert and state locks.
    fn spawn_worker(
        &self,
        role: &str,
        endpoint: Endpoint,
        neighbor_resync: bool,
        worker: fn(&Inner, Endpoint),
    ) {
        let mut links = self.inner.links.lock();
        if self.inner.closing.is_closed() {
            endpoint.sender().close();
            return;
        }
        let id = self.inner.next_link.fetch_add(1, Ordering::Relaxed);
        let (endpoint, supervisor) = self.supervise_link(endpoint, id, neighbor_resync);
        let sender = endpoint.sender();
        let inner = Arc::clone(&self.inner);
        let worker = std::thread::Builder::new()
            .name(format!("{}-{role}-worker", inner.id))
            .spawn(move || {
                worker(&inner, endpoint);
                let link = inner.links.lock().remove(&id);
                drop(link);
            })
            .expect("spawn link worker");
        links.insert(
            id,
            Link {
                sender,
                worker,
                supervisor,
            },
        );
    }

    /// Registers an in-process consumer (the tracing engine, a hosted
    /// TDN) and returns its message channel. After
    /// [`Broker::shutdown`] the channel is disconnected at once.
    pub fn register_internal(&self, consumer: &str) -> Receiver<Message> {
        let (tx, rx) = unbounded();
        let mut state = self.inner.state.lock();
        if !self.inner.closing.is_closed() {
            state.internal.insert(consumer.to_string(), tx);
            self.inner.routes.bump();
        }
        rx
    }

    /// Subscribes an in-process consumer (treated as the broker
    /// principal for constraint checks).
    pub fn subscribe_internal(&self, consumer: &str, filter: Topic) -> Result<()> {
        subscribe(&self.inner, consumer, &Actor::Broker, &filter)
    }

    /// Removes an internal subscription (propagating withdrawal when
    /// no local interest remains).
    pub fn unsubscribe_internal(&self, consumer: &str, filter: &Topic) {
        change_interest(&self.inner, Interest::Unsubscribe { consumer, filter });
    }

    /// Publishes a message as this broker (the tracing engine path).
    /// The caller is responsible for attaching any required
    /// authorization token before publishing. The message is encoded
    /// once and routed like any other frame; in-process consumers get
    /// the caller's message, never a re-decode.
    pub fn publish_internal(&self, msg: Message) {
        let mut frame = msg.to_bytes();
        route_frame(&self.inner, &mut frame, Ingress::Internal, Some(msg));
    }

    /// Routes one encoded *data* frame as if it had arrived from the
    /// attached client `client_id`, synchronously on the caller's
    /// thread. This is the raw data-plane entry point the client
    /// worker uses per frame — exposed so benchmarks and allocation
    /// tests can drive the routing path at saturation without a
    /// transport in between. The frame may be mutated in place (hop-TTL
    /// patching), so callers reusing a buffer must re-encode per send.
    ///
    /// A frame carrying client session control (attach, subscribe,
    /// unsubscribe) is left alone: only the client worker dispatches
    /// those — use a [`crate::BrokerClient`] over a real endpoint.
    pub fn ingest_client_frame(&self, client_id: &str, frame: &mut [u8]) {
        route_frame(&self.inner, frame, Ingress::Client(client_id), None);
    }

    /// Routes one encoded data frame as if it had arrived from the
    /// neighbouring broker `peer_id`, synchronously on the caller's
    /// thread — the neighbour-ingress twin of
    /// [`Broker::ingest_client_frame`]: applies the hop TTL and patches
    /// the frame's hop byte in place. Neighbour handshake frames are
    /// left alone, as in [`Broker::ingest_client_frame`].
    pub fn ingest_neighbor_frame(&self, peer_id: &str, frame: &mut [u8]) {
        route_frame(&self.inner, frame, Ingress::Neighbor(peer_id), None);
    }

    /// What crash recovery found when this broker (re)opened its
    /// durable store: snapshot loaded, ops replayed, repairs made.
    /// `None` when [`BrokerConfig::data_dir`] is unset (or the store
    /// failed to open and the broker degraded to in-memory operation).
    pub fn recovery(&self) -> Option<Recovery> {
        self.inner.recovery.clone()
    }

    /// Forces a durable-store checkpoint (snapshot + log compaction)
    /// now, regardless of the configured interval. Returns whether a
    /// store is attached and the checkpoint succeeded.
    pub fn checkpoint_now(&self) -> bool {
        let mut guard = self.inner.persist.lock();
        match guard.as_mut() {
            Some(p) => p.durable.checkpoint(&p.mirror).is_ok(),
            None => false,
        }
    }

    /// Number of directly attached clients.
    pub fn client_count(&self) -> usize {
        self.inner.state.lock().clients.len()
    }

    /// Number of neighbouring brokers.
    pub fn neighbor_count(&self) -> usize {
        self.inner.state.lock().neighbors.len()
    }
}

/// Stats of the supervised links in `links`.
fn supervised_stats(links: &BTreeMap<u64, Link>) -> Vec<LinkStats> {
    let supervisors = links.values().filter_map(|link| link.supervisor.as_ref());
    supervisors.map(LinkSupervisor::stats).collect()
}

/// Where a frame entered this broker.
#[derive(Clone, Copy)]
enum Ingress<'a> {
    /// Published by the attached client with this id.
    Client(&'a str),
    /// Relayed by the neighbouring broker with this id.
    Neighbor(&'a str),
    /// Published by this broker itself ([`Broker::publish_internal`]).
    Internal,
}

/// The owned decode of the frame being routed: made at most once, and
/// only when something needs an owned [`Message`] — an in-process
/// consumer or the RSA token fallback. `publish_internal` hands over
/// the message it encoded, so its frames never decode.
struct Owned {
    msg: Option<Message>,
    /// Whether the pipeline decoded the frame itself.
    decoded: bool,
}

impl Owned {
    fn get(&mut self, frame: &[u8]) -> Option<&mut Message> {
        if self.msg.is_none() && !self.decoded {
            self.decoded = true;
            self.msg = Message::from_bytes(frame).ok();
        }
        self.msg.as_mut()
    }
}

/// Routes one encoded data frame: the broker's only data path, for
/// client ingress, neighbour ingress and internal publishes alike.
///
/// The frame is borrow-parsed ([`MessageView`]) and matched through
/// the sharded route cache (`crate::route`); its original bytes are
/// fanned out, with the hop byte patched in place on neighbour
/// ingress. Each step runs exactly once, in this order: hop TTL, route
/// lookup, the client publish check with §5.2 punishment, §4.3
/// session/token admission of relayed trace publications, publish
/// accounting, distribution and echo suppression, the monitor tap,
/// delivery with head- and tail-sampled spans.
///
/// Returns `false`, having touched nothing, for the control payloads
/// the ingress link's worker dispatches itself (see
/// `is_client_control_tag` / `is_neighbor_control_tag`): the worker
/// then decodes and handles the frame.
///
/// `broker.route.fastpath` counts frames routed without an owned
/// decode, `broker.route.slowpath` those the pipeline had to decode;
/// `broker.route.ns` times every frame. Steady-state invariant
/// (enforced by `tests/no_alloc_route.rs`): a cache hit that needs no
/// owned decode performs no heap allocation, sampled or not.
fn route_frame(
    inner: &Inner,
    frame: &mut [u8],
    ingress: Ingress<'_>,
    owned: Option<Message>,
) -> bool {
    let t0 = now_ns();
    let mut owned = Owned {
        msg: owned,
        decoded: false,
    };
    if !route_steps(inner, frame, ingress, &mut owned, t0) {
        return false;
    }
    if owned.decoded {
        inner.routes.slowpath.inc();
    } else {
        inner.routes.fastpath.inc();
    }
    inner.routes.latency_ns.record(now_ns().saturating_sub(t0));
    true
}

/// The steps of [`route_frame`]; `false` means a worker-dispatched
/// control payload, anything else is routed or dropped here.
fn route_steps(
    inner: &Inner,
    frame: &mut [u8],
    ingress: Ingress<'_>,
    owned: &mut Owned,
    t0: u64,
) -> bool {
    // A client that sends bytes no router can read is as bogus as one
    // that publishes where it may not.
    let bogus = || {
        if let Ingress::Client(id) = ingress {
            punish(inner, id);
        }
        true
    };
    let Ok(view) = MessageView::parse(frame) else {
        return bogus();
    };
    let control = match ingress {
        Ingress::Client(_) => is_client_control_tag(view.payload_tag),
        Ingress::Neighbor(_) => is_neighbor_control_tag(view.payload_tag),
        Ingress::Internal => false,
    };
    if control {
        return false;
    }
    // Hop TTL: every neighbour ingress is one broker-to-broker hop, and
    // the hop count closes the forwarding-loop hazard. The incremented
    // count is written into the frame just before delivery.
    let mut trace = view.trace;
    let mut hop_offset = None;
    if let (Ingress::Neighbor(_), Some(ctx)) = (ingress, trace.as_mut()) {
        ctx.hop_count = ctx.hop_count.saturating_add(1);
        if ctx.hop_count > inner.config.max_hops {
            inner.metrics.dropped_ttl.inc();
            return true;
        }
        hop_offset = view.trace_hop_offset();
    }
    let telemetry = &inner.config.telemetry;
    let traced = trace.filter(|ctx| telemetry.enabled && ctx.sampled);

    let hash = view.topic.hash64();
    let entry = match inner.routes.lookup(hash, &view.topic) {
        Some(entry) => entry,
        None => {
            inner.routes.misses.inc();
            let Some(entry) = fill_route_entry(inner, &view.topic, hash) else {
                return bogus();
            };
            entry
        }
    };
    let t_route = if traced.is_some() { now_ns() } else { 0 };
    let Some(policy) = &entry.policy else {
        inner.metrics.rejected.inc();
        return true;
    };

    // §3.1 publish permission for clients, with §5.2 punishment; §4.3
    // admission for the trace publications a broker relays or issues.
    match ingress {
        Ingress::Client(id) => {
            if !policy.client_may_publish(id) {
                inner.metrics.rejected.inc();
                punish(inner, id);
                return true;
            }
        }
        Ingress::Neighbor(_) | Ingress::Internal => {
            if policy.requires_token
                && inner.config.require_tokens
                && !admit(inner, &entry, &view, frame, hash, trace, owned)
            {
                return true;
            }
        }
    }
    if !matches!(ingress, Ingress::Neighbor(_)) {
        inner.metrics.published.inc();
        entry.published_family.inc();
    }
    if let Some(ctx) = &traced {
        let t_auth = now_ns();
        inner.recorder.record(SpanEvent::new(ctx, Stage::Route, t0, t_route));
        inner.recorder.record(SpanEvent::new(ctx, Stage::AuthCheck, t_route, t_auth));
    }

    // Distribution suppression: the constrainer's publishes stay local
    // on Suppress links (§3.1 {Distribution}).
    let forward = match ingress {
        Ingress::Client(id) => policy.suppress_entity.as_deref() != Some(id),
        Ingress::Neighbor(_) | Ingress::Internal => !policy.suppress_broker,
    };
    let echo = |id: &str| matches!(ingress, Ingress::Client(from) if from == id);
    let returning = |id: &str| matches!(ingress, Ingress::Neighbor(from) if from == id);
    // In-process consumers take an owned message. Decode before any
    // delivery, so a frame that does not decode reaches nobody.
    let consumer_msg = if entry.internal.is_empty() {
        None
    } else {
        let Some(msg) = owned.get(frame) else {
            return bogus();
        };
        msg.trace = trace;
        Some(&*msg)
    };
    if entry.monitored
        && (consumer_msg.is_some()
            || entry
                .clients
                .iter()
                .any(|dest| !echo(&dest.id) && !dest.terminated.load(Ordering::Acquire))
            || (forward && entry.neighbors.iter().any(|dest| !returning(&dest.id))))
    {
        report_delivery(inner, &view, frame, hash, trace);
    }
    // Tail sampling: an unsampled message already older than the slow
    // threshold records its terminal spans anyway, so slow outliers
    // are never invisible.
    let deliver_ctx = traced.or_else(|| {
        trace.filter(|_| {
            telemetry.enabled
                && inner.clock.now_ms().saturating_sub(view.timestamp_ms)
                    >= telemetry.slow_threshold_ms
        })
    });
    if let (Some(off), Some(ctx)) = (hop_offset, trace) {
        frame[off] = ctx.hop_count;
    }
    let frame = &*frame;
    let stamp = |ctx: &Option<TraceContext>| if ctx.is_some() { now_ns() } else { 0 };
    let span = |ctx: &Option<TraceContext>, stage, start| {
        if let Some(ctx) = ctx {
            inner.recorder.record(SpanEvent::new(ctx, stage, start, now_ns()));
        }
    };
    for dest in &entry.clients {
        if echo(&dest.id) || dest.terminated.load(Ordering::Acquire) {
            continue;
        }
        let start = stamp(&deliver_ctx);
        if dest.sender.send_frame(frame).is_ok() {
            inner.metrics.delivered_local.inc();
            entry.delivered_family.inc();
            span(&deliver_ctx, Stage::Deliver, start);
        }
    }
    if let Some(msg) = consumer_msg {
        for tx in &entry.internal {
            let start = stamp(&deliver_ctx);
            if tx.send(msg.clone()).is_ok() {
                inner.metrics.delivered_local.inc();
                entry.delivered_family.inc();
                span(&deliver_ctx, Stage::Enqueue, start);
            }
        }
    }
    if forward {
        for dest in &entry.neighbors {
            if returning(&dest.id) {
                continue;
            }
            let start = stamp(&traced);
            if dest.sender.send_frame(frame).is_ok() {
                inner.metrics.forwarded.inc();
                span(&traced, Stage::Forward, start);
            }
        }
    }
    true
}

/// §4.3 admission of a trace publication this broker relays or issues.
/// A session tag verifies against the keyring with one HMAC over the
/// frame in place; untagged frames, an empty keyring, and unknown or
/// expired keys fall back to the RSA token checks on an owned decode.
/// Returns `false` when the frame must be discarded (accounting and
/// the monitor report already done).
fn admit(
    inner: &Inner,
    entry: &RouteEntry,
    view: &MessageView<'_>,
    frame: &[u8],
    hash: u64,
    trace: Option<TraceContext>,
    owned: &mut Owned,
) -> bool {
    let m = &inner.metrics;
    let session_topic = entry.policy.as_ref().and_then(|p| p.session_topic.as_ref());
    if let (Some(tag), false) = (&view.session, inner.session_keys.is_empty()) {
        match inner.session_keys.verify(
            tag.key_id,
            tag.seq,
            session_topic,
            inner.clock.now_ms(),
            &view.signable_parts(),
            &tag.mac,
        ) {
            SessionVerdict::Verified => {
                m.session_verified.inc();
                return true;
            }
            // The publisher may hold a newer key than we do, or the key
            // aged out mid-flight: fall back instead of dropping.
            SessionVerdict::UnknownKey | SessionVerdict::Expired => m.session_fallback.inc(),
            SessionVerdict::Revoked => {
                // A frame under a revoked key is the replay the
                // monitor's `require-session` property watches for.
                m.session_revoked_dropped.inc();
                m.dropped_spurious.inc();
                if entry.monitored {
                    report_delivery(inner, view, frame, hash, trace);
                }
                return false;
            }
            SessionVerdict::BadMac | SessionVerdict::WrongTopic => {
                m.session_rejected.inc();
                m.dropped_spurious.inc();
                return false;
            }
        }
    }
    let accepted = owned
        .get(frame)
        .is_some_and(|msg| token_acceptable(inner, msg));
    if !accepted {
        m.dropped_spurious.inc();
    }
    accepted
}

/// The RSA token check (§4.3, §5.2): the validity window always, the
/// owner's signature when this broker knows the topic owner (always
/// true at the hosting broker; transit brokers keep the window check).
fn token_acceptable(inner: &Inner, msg: &Message) -> bool {
    let Some(token) = &msg.token else {
        return false;
    };
    let now = inner.clock.now_ms();
    let skew = inner.config.token_skew_ms;
    if now > token.valid_until_ms.saturating_add(skew) || now + skew < token.valid_from_ms {
        return false;
    }
    let owner_key = inner.state.lock().owner_keys.get(&token.trace_topic).cloned();
    match owner_key {
        Some(key) => token.verify(&key, Rights::Publish, now, skew).is_ok(),
        None => true,
    }
}

/// Reports one delivery decision to the attached monitor, stamped with
/// this broker's clock. `trace` carries the hop count the frame
/// travels on with.
fn report_delivery(
    inner: &Inner,
    view: &MessageView<'_>,
    frame: &[u8],
    hash: u64,
    trace: Option<TraceContext>,
) {
    if let Some(monitor) = inner.monitor.read().as_ref() {
        monitor.on_delivery(&DeliveryEvent::from_view(
            &inner.id,
            view,
            frame,
            hash,
            trace.map(|ctx| ctx.hop_count),
            inner.clock.now_ms(),
        ));
    }
}

/// Builds and installs a route-cache entry for `topic_view`: snapshots
/// the matching destinations and the cache version atomically under
/// the state lock, compiles the topic policy, then inserts outside the
/// lock. Returns `None` when the topic fails owned validation.
fn fill_route_entry(
    inner: &Inner,
    topic_view: &TopicView<'_>,
    hash: u64,
) -> Option<Arc<RouteEntry>> {
    let topic = topic_view.to_topic().ok()?;
    let policy = TopicPolicy::compile(&topic).ok();
    let family = policy.as_ref().map_or("plain", |p| p.family.as_str());
    let published_family = inner.metrics.published_for(family);
    let delivered_family = inner.metrics.delivered_for(family);
    let (version, clients, internal, neighbors) = {
        let state = inner.state.lock();
        // Read under the lock so (snapshot, version) are consistent:
        // every mutation bumps while holding the same lock.
        let version = inner.routes.current_version();
        let mut clients = Vec::new();
        let mut internal = Vec::new();
        for consumer in state.subs.local_matches(&topic) {
            if let Some(handle) = state.clients.get(&consumer) {
                clients.push(ClientDest {
                    id: consumer,
                    sender: Arc::clone(&handle.sender),
                    terminated: Arc::clone(&handle.terminated),
                });
            } else if let Some(tx) = state.internal.get(&consumer) {
                internal.push(tx.clone());
            }
        }
        let neighbors = state
            .subs
            .remote_matches(&topic)
            .into_iter()
            .filter_map(|n| {
                let sender = Arc::clone(state.neighbors.get(&n)?);
                Some(NeighborDest { id: n, sender })
            })
            .collect();
        (version, clients, internal, neighbors)
    };
    // Resolve the monitor's interest *after* the version snapshot: a
    // monitor attached since then bumped the version under the same
    // state lock, so this entry is already stale and the conservative
    // read here can never be served past an attach.
    let monitored = inner.monitor_on.load(Ordering::Acquire)
        && inner
            .monitor
            .read()
            .as_ref()
            .is_some_and(|m| m.monitors_topic(hash, topic_view));
    let entry = Arc::new(RouteEntry {
        topic,
        policy,
        clients,
        internal,
        neighbors,
        monitored,
        published_family,
        delivered_family,
    });
    inner.routes.insert(hash, version, Arc::clone(&entry));
    Some(entry)
}

/// Records a bogus attempt; terminates the client at the limit (§5.2).
fn punish(inner: &Inner, client_id: &str) {
    let sender = {
        let mut state = inner.state.lock();
        let Some(handle) = state.clients.get_mut(client_id) else {
            return;
        };
        handle.bogus += 1;
        if handle.bogus < inner.config.bogus_attempt_limit
            || handle.terminated.swap(true, Ordering::AcqRel)
        {
            return;
        }
        Arc::clone(&handle.sender)
    };
    inner.metrics.terminated_clients.inc();
    let notice = control_message(
        inner,
        Payload::Nack {
            reason: "communications terminated: repeated bogus attempts".to_string(),
        },
    );
    let _ = sender.send_frame(&notice.to_bytes());
    // Termination is deliberate, so it is journalled and survives a
    // restart: a punished client that re-attaches starts with nothing.
    change_interest(inner, Interest::ClientGone(client_id));
}

/// What became of one frame a client worker received.
enum ClientFrame {
    /// The pipeline routed it as data.
    Routed,
    /// Session control the pipeline handed back, decoded (boxed: a
    /// `Message` dwarfs the other variants).
    Control(Box<Message>),
    /// Handed back, but not a message: the client is punished.
    Bogus,
    /// It arrived after punish() terminated the client.
    Terminated,
}

fn client_worker(inner: &Inner, endpoint: Endpoint) {
    // Handshake: first frame must be Attach; anything before it is
    // ignored.
    let (client_id, terminated) = loop {
        let Ok(frame) = endpoint.recv() else { return };
        let Ok(msg) = Message::from_bytes(&frame) else {
            continue;
        };
        if let Payload::Attach { client_id } = &msg.payload {
            let flag = Arc::new(AtomicBool::new(false));
            {
                let mut state = inner.state.lock();
                state.clients.insert(
                    client_id.clone(),
                    ClientHandle {
                        sender: endpoint.sender(),
                        bogus: 0,
                        terminated: Arc::clone(&flag),
                    },
                );
                inner.routes.bump();
            }
            reply(inner, &endpoint, &msg, Payload::Ack);
            break (client_id.clone(), flag);
        }
    };

    loop {
        // Data frames are routed undecoded, in place in the endpoint's
        // receive buffer; only the session control the pipeline hands
        // back is decoded here. Lock-free termination check: punish()
        // flips the shared flag.
        let received = endpoint.recv_with(|frame| {
            if terminated.load(Ordering::Acquire) {
                ClientFrame::Terminated
            } else if route_frame(inner, frame, Ingress::Client(&client_id), None) {
                ClientFrame::Routed
            } else {
                match Message::from_bytes(frame) {
                    Ok(msg) => ClientFrame::Control(Box::new(msg)),
                    Err(_) => ClientFrame::Bogus,
                }
            }
        });
        let msg = match received {
            Ok(ClientFrame::Control(msg)) => *msg,
            Ok(ClientFrame::Routed) => continue,
            Ok(ClientFrame::Bogus) => {
                punish(inner, &client_id);
                continue;
            }
            Ok(ClientFrame::Terminated) => return,
            Err(_) => {
                // Link dropped: clean up. Journalled too — the mirror
                // tracks the live table exactly; only a *broker* crash
                // or shutdown (which journal nothing) preserves client
                // subscriptions for post-restart re-attachment.
                if !inner.closing.is_closed() {
                    change_interest(inner, Interest::ClientGone(&client_id));
                }
                return;
            }
        };
        match &msg.payload {
            Payload::Subscribe { filter } => {
                let actor = Actor::Entity(client_id.clone());
                if subscribe(inner, &client_id, &actor, filter).is_ok() {
                    reply(inner, &endpoint, &msg, Payload::Ack);
                } else {
                    inner.metrics.rejected.inc();
                    let reason = format!("subscribe not permitted on {filter}");
                    reply(inner, &endpoint, &msg, Payload::Nack { reason });
                    punish(inner, &client_id);
                }
            }
            Payload::Unsubscribe { filter } => {
                change_interest(
                    inner,
                    Interest::Unsubscribe {
                        consumer: &client_id,
                        filter,
                    },
                );
                reply(inner, &endpoint, &msg, Payload::Ack);
            }
            // Duplicate attach (client retried over a lossy link):
            // acknowledge again, idempotently.
            Payload::Attach { .. } => reply(inner, &endpoint, &msg, Payload::Ack),
            _ => {}
        }
    }
}

/// Subscribes local `consumer`, acting as `actor`, to `filter` if the
/// topic's constraints permit it (§3.1); the constrainer's own
/// registration on a suppressed topic is never advertised.
fn subscribe(inner: &Inner, consumer: &str, actor: &Actor, filter: &Topic) -> Result<()> {
    let constrained = ConstrainedTopic::parse(filter)?;
    if constrained
        .as_ref()
        .is_some_and(|c| !c.permits(actor, Action::Subscribe))
    {
        return Err(BrokerError::NotPermitted {
            topic: filter.to_string(),
            action: "subscribe",
        });
    }
    let suppressed = constrained.is_some_and(|c| c.suppressed() && c.is_constrainer(actor));
    change_interest(
        inner,
        Interest::Subscribe {
            consumer,
            filter,
            suppressed,
        },
    );
    Ok(())
}

/// One change to who wants what (§2): a local subscription or a
/// neighbour's advert, coming or going.
#[derive(Clone, Copy)]
enum Interest<'a> {
    /// A local consumer subscribes; `suppressed` keeps the filter from
    /// being advertised (§3.1 {Distribution}).
    Subscribe {
        consumer: &'a str,
        filter: &'a Topic,
        suppressed: bool,
    },
    /// A local consumer drops one filter.
    Unsubscribe {
        consumer: &'a str,
        filter: &'a Topic,
    },
    /// A client detached or was terminated: its handle and every
    /// filter it held go.
    ClientGone(&'a str),
    /// A neighbour advertised a filter.
    Advert {
        neighbor: &'a str,
        filter: &'a Topic,
    },
    /// A neighbour withdrew a filter.
    Withdraw {
        neighbor: &'a str,
        filter: &'a Topic,
    },
    /// A neighbour's link closed: its sender and every advert go.
    NeighborGone(&'a str),
}

/// Applies one interest change. Outside crash recovery this is the only
/// writer of the subscription table.
///
/// Under the state lock it updates the table and bumps the route
/// version. For each filter the change touches it asks, for every
/// neighbour, whether the neighbour should hold that filter from us
/// ([`SubscriptionTable::advertises`]) before and after. After the
/// lock it journals a local op, wakes subscription waiters, and sends
/// each neighbour whose answer flipped one `NeighborSubscribe` or
/// `NeighborUnsubscribe`. The advert lock spans the whole change, so
/// a concurrent full-set advert cannot overtake a withdrawal.
fn change_interest(inner: &Inner, change: Interest<'_>) {
    let _in_order = inner.adverts.lock();
    let mut notices = Vec::new();
    {
        let mut guard = inner.state.lock();
        let state = &mut *guard;
        let touched: Vec<Topic> = match change {
            Interest::Subscribe { filter, .. }
            | Interest::Unsubscribe { filter, .. }
            | Interest::Advert { filter, .. }
            | Interest::Withdraw { filter, .. } => vec![filter.clone()],
            Interest::ClientGone(id) => {
                state.clients.remove(id);
                state.subs.consumer_filters(id).cloned().collect()
            }
            Interest::NeighborGone(id) => {
                state.neighbors.remove(id);
                state.subs.neighbor_filters(id).cloned().collect()
            }
        };
        let mut before = Vec::with_capacity(touched.len() * state.neighbors.len());
        for filter in &touched {
            let neighbors = state.neighbors.keys();
            before.extend(neighbors.map(|n| state.subs.advertises(filter, n)));
        }
        let subs = &mut state.subs;
        match change {
            Interest::Subscribe {
                consumer,
                filter,
                suppressed,
            } => subs.add_local(consumer, filter.clone(), suppressed),
            Interest::Unsubscribe { consumer, filter } => subs.remove_local(consumer, filter),
            Interest::ClientGone(id) => subs.remove_consumer(id),
            Interest::Advert { neighbor, filter } => subs.add_remote(neighbor, filter.clone()),
            Interest::Withdraw { neighbor, filter } => subs.remove_remote(neighbor, filter),
            Interest::NeighborGone(id) => subs.remove_neighbor(id),
        }
        inner.routes.bump();
        let mut was = before.into_iter();
        for filter in touched {
            for (n, sender) in &state.neighbors {
                let held = state.subs.advertises(&filter, n);
                if was.next() != Some(held) {
                    notices.push((Arc::clone(sender), filter.clone(), held));
                }
            }
        }
    }
    let op = match change {
        Interest::Subscribe {
            consumer,
            filter,
            suppressed,
        } => Some(BrokerOp::SubAdd {
            consumer: consumer.to_string(),
            filter: filter.clone(),
            suppressed,
        }),
        Interest::Unsubscribe { consumer, filter } => Some(BrokerOp::SubRemove {
            consumer: consumer.to_string(),
            filter: filter.clone(),
        }),
        Interest::ClientGone(id) => Some(BrokerOp::ConsumerGone {
            consumer: id.to_string(),
        }),
        _ => None,
    };
    if let Some(op) = op {
        journal(inner, op);
    }
    inner.subs_cv.notify_all();
    for (sender, filter, held) in notices {
        let payload = if held {
            Payload::NeighborSubscribe { filter }
        } else {
            Payload::NeighborUnsubscribe { filter }
        };
        let _ = sender.send_frame(&control_message(inner, payload).to_bytes());
    }
}

/// A control message from this broker on the control topic.
fn control_message(inner: &Inner, payload: Payload) -> Message {
    Message::new(
        inner.msg_seq.fetch_add(1, Ordering::Relaxed),
        crate::control_topic(),
        inner.id.clone(),
        inner.clock.now_ms(),
        payload,
    )
}

/// Answers a client's control `request` (`Ack` or `Nack`).
fn reply(inner: &Inner, endpoint: &Endpoint, request: &Message, payload: Payload) {
    let answer = control_message(inner, payload).correlated(request.id);
    let _ = endpoint.send(&answer.to_bytes());
}

/// This broker's neighbour hello.
fn hello(inner: &Inner) -> Vec<u8> {
    let broker_id = inner.id.clone();
    control_message(inner, Payload::NeighborHello { broker_id }).to_bytes()
}

/// Sends neighbour `peer` every filter it should hold from this broker
/// ([`SubscriptionTable::filters_for_neighbor`]): the full-set advert
/// of the handshake, link repair and anti-entropy. Re-received adverts
/// are idempotent at the peer. Holds the advert lock until the last
/// send, so no withdrawal lands between the snapshot and its adverts.
fn advertise_all(inner: &Inner, peer: &str, sender: &dyn FrameSender) {
    let _in_order = inner.adverts.lock();
    let filters = inner.state.lock().subs.filters_for_neighbor(peer);
    for filter in filters {
        let advert = control_message(inner, Payload::NeighborSubscribe { filter });
        if sender.send_frame(&advert.to_bytes()).is_err() {
            return;
        }
    }
}

/// Replays the neighbour session over a freshly repaired link: hello
/// plus the full advert. Run by the link supervisor's reconnect hook —
/// a restarted peer has lost (or just recovered) its view of our
/// interest, and the transport repair alone restores bytes, not
/// sessions. The peer side is idempotent: re-received hellos are
/// rate-limit answered, re-received adverts are deduplicated by its
/// subscription table. A link whose handshake has not finished gets
/// only the hello; the handshake advertises once it completes.
fn resync_neighbor_session(inner: &Inner, sender: &Arc<dyn FrameSender>) {
    if sender.send_frame(&hello(inner)).is_err() {
        return;
    }
    let peer = {
        let state = inner.state.lock();
        state
            .neighbors
            .iter()
            .find(|(_, s)| Arc::ptr_eq(s, sender))
            .map(|(peer, _)| peer.clone())
    };
    if let Some(peer) = peer {
        advertise_all(inner, &peer, sender.as_ref());
    }
}

fn neighbor_worker(inner: &Inner, endpoint: Endpoint) {
    // Identify ourselves, then wait for the peer's hello, buffering
    // anything (e.g. adverts reordered by jitter) that arrives before
    // it. The hello is retransmitted periodically so a lossy link
    // cannot wedge the handshake.
    let hello = hello(inner);
    if endpoint.send(&hello).is_err() {
        return;
    }
    let mut buffered: Vec<Vec<u8>> = Vec::new();
    let peer_id = loop {
        match endpoint.recv_timeout(Duration::from_millis(200)) {
            Ok(frame) => {
                if let Ok(Message {
                    payload: Payload::NeighborHello { broker_id },
                    ..
                }) = Message::from_bytes(&frame)
                {
                    let mut state = inner.state.lock();
                    state.neighbors.insert(broker_id.clone(), endpoint.sender());
                    inner.routes.bump();
                    break broker_id;
                }
                buffered.push(frame);
            }
            Err(nb_transport::TransportError::Timeout) => {
                if endpoint.send(&hello).is_err() {
                    return;
                }
            }
            Err(_) => return,
        }
    };
    inner.neighbor_cv.notify_all();
    // Now that the peer is known, advertise what it should hold.
    advertise_all(inner, &peer_id, endpoint.sender().as_ref());
    for mut frame in buffered {
        handle_neighbor_frame(inner, &peer_id, &mut frame);
    }

    // Frames are handled in place in the endpoint's receive buffer.
    while endpoint
        .recv_with(|frame| handle_neighbor_frame(inner, &peer_id, frame))
        .is_ok()
    {}
    // A link closed by shutdown is not a departure.
    if !inner.closing.is_closed() {
        change_interest(inner, Interest::NeighborGone(&peer_id));
    }
    inner.neighbor_cv.notify_all();
}

/// Handles one frame from neighbour `peer_id`: data frames are routed
/// undecoded (the pipeline patches the hop byte in place); only the
/// handshake the pipeline hands back is decoded here.
fn handle_neighbor_frame(inner: &Inner, peer_id: &str, frame: &mut [u8]) {
    if route_frame(inner, frame, Ingress::Neighbor(peer_id), None) {
        return;
    }
    let Ok(msg) = Message::from_bytes(frame) else {
        return;
    };
    match &msg.payload {
        Payload::NeighborHello { .. } => {
            // The peer is (re)announcing itself — our own hello may
            // have been lost. Answer with a fresh hello; the exchange
            // quiesces once both sides are registered (peers stop
            // retransmitting after registration).
            let now = inner.clock.now_ms();
            let sender = {
                let mut state = inner.state.lock();
                let last = state.hello_replied_ms.get(peer_id).copied().unwrap_or(0);
                if now.saturating_sub(last) < 1000 {
                    None // rate-limited: at most one reply per second
                } else {
                    state.hello_replied_ms.insert(peer_id.to_string(), now);
                    state.neighbors.get(peer_id).map(Arc::clone)
                }
            };
            if let Some(sender) = sender {
                let _ = sender.send_frame(&hello(inner));
            }
        }
        Payload::NeighborSubscribe { filter } => change_interest(
            inner,
            Interest::Advert {
                neighbor: peer_id,
                filter,
            },
        ),
        Payload::NeighborUnsubscribe { filter } => change_interest(
            inner,
            Interest::Withdraw {
                neighbor: peer_id,
                filter,
            },
        ),
        _ => {}
    }
}

/// Anti-entropy pass: re-advertise to each neighbour the full set it
/// should hold. Idempotent at the receiver (set insertion), so repeated
/// adverts are harmless; a single lost advert is repaired within one
/// refresh interval. A lost withdrawal is not: that would need an
/// advert carrying the whole set.
fn refresh_adverts(inner: &Inner) {
    let neighbors: Vec<(String, Arc<dyn FrameSender>)> = {
        let state = inner.state.lock();
        let links = state.neighbors.iter();
        links
            .map(|(peer, s)| (peer.clone(), Arc::clone(s)))
            .collect()
    };
    for (peer, sender) in neighbors {
        advertise_all(inner, &peer, sender.as_ref());
    }
}

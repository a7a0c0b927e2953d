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
use nb_monitor::{DeliveryEvent, MonitorSet};
use nb_obs::{NodeKind, PublisherConfig, TelemetryPublisher};
use nb_store::{Durable, DurableState, Recovery, StoreConfig};
use nb_telemetry::{
    now_ns, FlightRecorder, SpanEvent, Stage, TelemetryConfig, TraceContext, MAX_HOPS,
    RECORDER_CAPACITY, SLOW_THRESHOLD_MS,
};
use nb_transport::clock::SharedClock;
use nb_transport::endpoint::{Endpoint, FrameSender};
use nb_transport::TransportError;
use nb_wire::codec::{Decode, Encode};
use nb_wire::constrained::{Action, Actor, ConstrainedTopic};
use nb_wire::payload::{is_client_control_tag, is_neighbor_control_tag};
use nb_wire::token::AuthorizationToken;
use nb_wire::view::TopicView;
use nb_wire::{Message, MessageView, Payload, Topic};
use parking_lot::{Condvar, Mutex, RwLock};
use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// §5.2: after this many bogus attempts a client is disconnected.
pub const BOGUS_ATTEMPT_LIMIT: u32 = 3;

/// Broker settings.
#[derive(Debug, Clone)]
pub struct BrokerConfig {
    /// Enforce authorization tokens on broker-published trace topics.
    pub require_tokens: bool,
    /// Interval for subscription anti-entropy: each neighbour link
    /// periodically re-advertises to its peer the full set of filters
    /// the peer should hold, repairing adverts lost on unreliable
    /// links. `None` turns anti-entropy off.
    pub advert_refresh: Option<std::time::Duration>,
    /// Causal-tracing settings for this broker's flight recorder (see
    /// `docs/OBSERVABILITY.md`, "Causal tracing").
    pub telemetry: TelemetryConfig,
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
            require_tokens: true,
            advert_refresh: Some(std::time::Duration::from_millis(500)),
            telemetry: TelemetryConfig::default(),
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
    /// [`MAX_HOPS`].
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
    clients: Gauge,
    neighbors: Gauge,
    subs_local: Gauge,
    subs_remote: Gauge,
    queue_depth: Gauge,
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
            clients: registry.gauge("broker.clients"),
            neighbors: registry.gauge("broker.neighbors"),
            subs_local: registry.gauge("broker.subscriptions.local"),
            subs_remote: registry.gauge("broker.subscriptions.remote"),
            queue_depth: registry.gauge("broker.queue.internal_depth"),
            registry,
        }
    }

    /// Per-event-type publish counter (`broker.publish.topic.<family>`).
    fn published_for(&self, family: &str) -> Counter {
        self.registry
            .counter(&format!("broker.publish.topic.{family}"))
    }

    /// Per-event-type delivery counter (`broker.deliver.topic.<family>`).
    fn delivered_for(&self, family: &str) -> Counter {
        self.registry
            .counter(&format!("broker.deliver.topic.{family}"))
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
    /// Numbers links.
    next_link: AtomicU64,
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
    /// Set when [`Broker::shutdown`] begins.
    closed: AtomicBool,
}

/// One link a worker serves.
struct Link {
    /// The worker's sender: closing it ends the worker's receives.
    sender: Arc<dyn FrameSender>,
    worker: JoinHandle<()>,
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
        let recorder = FlightRecorder::new(id.clone(), RECORDER_CAPACITY);
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

        Broker {
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
                monitor_on: AtomicBool::new(false),
                monitor: RwLock::new(None),
                session_keys: Arc::new(SessionKeyring::new()),
                persist: Mutex::new(persist),
                recovery,
                closed: AtomicBool::new(false),
            }),
        }
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
    /// the links' workers to exit, and drops the broker's in-process
    /// consumers, route cache and monitor.
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
        for thread in links.into_values().map(|link| link.worker) {
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
        self.inner.closed.store(true, Ordering::Release);
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
        m.registry.snapshot()
    }

    /// Builds this broker's telemetry publisher: a periodic reporter
    /// that snapshots [`Broker::metrics_snapshot`] and publishes the
    /// changes on the constrained Obs topic through this broker's own
    /// internal publish path (constraint-exempt, like the monitor
    /// audit sink). Callers drive it with
    /// [`TelemetryPublisher::tick`] from a maintenance loop; sign it with
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

    /// Attaches a client over `endpoint`; the first frame must be an
    /// `Attach` payload carrying the client id. Spawns the worker
    /// thread and returns immediately. After [`Broker::shutdown`] the
    /// endpoint is closed at once.
    pub fn attach_client(&self, endpoint: Endpoint) {
        self.spawn_worker("client", endpoint, client_worker);
    }

    /// Connects a neighbouring broker over `endpoint`. Both sides call
    /// this on their half of the link. Spawns the worker thread. After
    /// [`Broker::shutdown`] the endpoint is closed at once.
    pub fn connect_neighbor(&self, endpoint: Endpoint) {
        self.spawn_worker("neighbor", endpoint, neighbor_worker);
    }

    /// Runs `worker` over `endpoint` on a thread of its own, and enters
    /// the link in the link table; the table's lock spans the closed
    /// check and the entry, so shutdown closes every link it does not
    /// refuse. Once the worker returns (its link closed), the thread
    /// takes the link out of the table.
    fn spawn_worker(&self, role: &str, endpoint: Endpoint, worker: fn(&Inner, Endpoint)) {
        let mut links = self.inner.links.lock();
        if self.inner.closed.load(Ordering::Acquire) {
            endpoint.sender().close();
            return;
        }
        let id = self.inner.next_link.fetch_add(1, Ordering::Relaxed);
        let sender = endpoint.sender();
        let inner = Arc::clone(&self.inner);
        let worker = std::thread::Builder::new()
            .name(format!("{}-{role}-worker", inner.id))
            .spawn(move || {
                worker(&inner, endpoint);
                inner.links.lock().remove(&id);
            })
            .expect("spawn link worker");
        links.insert(id, Link { sender, worker });
    }

    /// Registers an in-process consumer (the tracing engine, a hosted
    /// TDN) and returns its message channel. After
    /// [`Broker::shutdown`] the channel is disconnected at once.
    pub fn register_internal(&self, consumer: &str) -> Receiver<Message> {
        let (tx, rx) = unbounded();
        let mut state = self.inner.state.lock();
        if !self.inner.closed.load(Ordering::Acquire) {
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

    /// Number of directly attached clients.
    pub fn client_count(&self) -> usize {
        self.inner.state.lock().clients.len()
    }
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
/// `broker.route.fastpath` counts frames routed without a decode,
/// `broker.route.slowpath` those the pipeline decoded something of: the
/// whole message for an in-process consumer (`publish_internal` hands
/// over the message it encoded instead), or the token alone for the
/// RSA token fallback. `broker.route.ns` times every frame.
/// Steady-state invariant (enforced by `tests/no_alloc_route.rs`): a
/// cache hit that needs no decode performs no heap allocation, sampled
/// or not.
fn route_frame(
    inner: &Inner,
    frame: &mut [u8],
    ingress: Ingress<'_>,
    owned: Option<Message>,
) -> bool {
    let t0 = now_ns();
    let mut decoded = false;
    if !route_steps(inner, frame, ingress, owned, &mut decoded, t0) {
        return false;
    }
    if decoded {
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
    owned: Option<Message>,
    decoded: &mut bool,
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
    // count is written into the frame just before delivery. A frame
    // without a trace context is not TTL-checked.
    let mut trace = view.trace;
    let mut hop_offset = None;
    if let (Ingress::Neighbor(_), Some(ctx)) = (ingress, trace.as_mut()) {
        ctx.hop_count = ctx.hop_count.saturating_add(1);
        if ctx.hop_count > MAX_HOPS {
            inner.metrics.dropped_ttl.inc();
            return true;
        }
        hop_offset = view.trace_hop_offset();
    }
    let telemetry = &inner.config.telemetry;
    let traced = telemetry.sampled(trace);

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
                && !admit(inner, &entry, &view, hash, trace, decoded)
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
        inner
            .recorder
            .record(SpanEvent::new(ctx, Stage::Route, t0, t_route));
        inner
            .recorder
            .record(SpanEvent::new(ctx, Stage::AuthCheck, t_route, t_auth));
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
        *decoded |= owned.is_none();
        let Ok(mut msg) = owned.map_or_else(|| Message::from_bytes(frame), Ok) else {
            return bogus();
        };
        msg.trace = trace;
        Some(msg)
    };
    if entry.monitored
        && (consumer_msg.is_some()
            || entry
                .clients
                .iter()
                .any(|dest| !echo(&dest.id) && !dest.terminated.load(Ordering::Acquire))
            || (forward && entry.neighbors.iter().any(|dest| !returning(&dest.id))))
    {
        report_delivery(inner, &view, hash, trace);
    }
    // Tail sampling: an unsampled message already older than the slow
    // threshold records its terminal spans anyway, so slow outliers
    // are never invisible.
    let deliver_ctx = traced.or_else(|| {
        trace.filter(|_| {
            telemetry.enabled
                && inner.clock.now_ms().saturating_sub(view.timestamp_ms) >= SLOW_THRESHOLD_MS
        })
    });
    if let (Some(off), Some(ctx)) = (hop_offset, trace) {
        frame[off] = ctx.hop_count;
    }
    let frame = &*frame;
    let stamp = |ctx: &Option<TraceContext>| if ctx.is_some() { now_ns() } else { 0 };
    let span = |ctx: &Option<TraceContext>, stage, start| {
        if let Some(ctx) = ctx {
            inner
                .recorder
                .record(SpanEvent::new(ctx, stage, start, now_ns()));
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
    if let Some(msg) = &consumer_msg {
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
/// expired keys fall back to [`AuthorizationToken::admits`] on the
/// frame's token, decoded alone (setting `decoded`): the token never
/// covered the payload, so the payload is not decoded for it.
/// Returns `false` when the frame must be discarded (accounting and
/// the monitor report already done).
fn admit(
    inner: &Inner,
    entry: &RouteEntry,
    view: &MessageView<'_>,
    hash: u64,
    trace: Option<TraceContext>,
    decoded: &mut bool,
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
                    report_delivery(inner, view, hash, trace);
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
    *decoded = true;
    let token = view
        .token
        .and_then(|b| AuthorizationToken::from_bytes(b).ok());
    // The hosting broker knows the topic owner; a transit broker does
    // not, and `admits` then checks the window alone.
    let accepted = token.is_some_and(|token| {
        let owner = inner
            .state
            .lock()
            .owner_keys
            .get(&token.trace_topic)
            .cloned();
        token.admits(owner.as_ref(), inner.clock.now_ms()).is_ok()
    });
    if !accepted {
        m.dropped_spurious.inc();
    }
    accepted
}

/// Reports one delivery decision to the attached monitor, stamped with
/// this broker's clock. `trace` carries the hop count the frame
/// travels on with.
fn report_delivery(inner: &Inner, view: &MessageView<'_>, hash: u64, trace: Option<TraceContext>) {
    if let Some(monitor) = inner.monitor.read().as_ref() {
        monitor.on_delivery(&DeliveryEvent::from_view(
            &inner.id,
            view,
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
    let family = policy.as_ref().map_or("plain", |p| p.family);
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
        if handle.bogus < BOGUS_ATTEMPT_LIMIT || handle.terminated.swap(true, Ordering::AcqRel) {
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
        let received = endpoint.recv_with(None, |frame| {
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
                if !inner.closed.load(Ordering::Acquire) {
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
/// Under the state lock it updates the table and, when the table or
/// the client and neighbour handles changed, bumps the route version: a
/// re-received advert leaves warm routes warm. For each filter the
/// change touches it asks, for every neighbour, whether the neighbour
/// should hold that filter from us ([`SubscriptionTable::advertises`])
/// before and after. After the lock it journals a local op, wakes
/// subscription waiters if anything changed, and sends each neighbour
/// whose answer flipped one `NeighborSubscribe` or
/// `NeighborUnsubscribe`. The advert lock spans the whole change, so a
/// concurrent full-set advert cannot overtake a withdrawal.
fn change_interest(inner: &Inner, change: Interest<'_>) {
    let _in_order = inner.adverts.lock();
    let mut notices = Vec::new();
    let changed;
    {
        let mut guard = inner.state.lock();
        let state = &mut *guard;
        let (touched, handle_gone): (Vec<Topic>, bool) = match change {
            Interest::Subscribe { filter, .. }
            | Interest::Unsubscribe { filter, .. }
            | Interest::Advert { filter, .. }
            | Interest::Withdraw { filter, .. } => (vec![filter.clone()], false),
            Interest::ClientGone(id) => (
                state.subs.consumer_filters(id).cloned().collect(),
                state.clients.remove(id).is_some(),
            ),
            Interest::NeighborGone(id) => (
                state.subs.neighbor_filters(id).cloned().collect(),
                state.neighbors.remove(id).is_some(),
            ),
        };
        let mut before = Vec::with_capacity(touched.len() * state.neighbors.len());
        for filter in &touched {
            let neighbors = state.neighbors.keys();
            before.extend(neighbors.map(|n| state.subs.advertises(filter, n)));
        }
        let subs = &mut state.subs;
        let table_changed = match change {
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
        };
        changed = table_changed || handle_gone;
        if changed {
            inner.routes.bump();
        }
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
    if changed {
        inner.subs_cv.notify_all();
    }
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
/// of the handshake and of anti-entropy. Re-received adverts change
/// nothing at the peer. Holds the advert lock until the last send, so
/// no withdrawal lands between the snapshot and its adverts.
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

/// How often a neighbour link re-sends its hello until the peer's
/// arrives, so a lossy link cannot wedge the handshake.
const HELLO_RETRY: Duration = Duration::from_millis(200);

/// A neighbour link's handshake state.
enum Peer {
    /// The peer's hello has not arrived; the frames that beat it (e.g.
    /// adverts reordered by jitter) wait here.
    Unknown(Vec<Vec<u8>>),
    /// The peer is registered as `id`; `replied_ms` is when this link
    /// last answered a re-sent hello, on the broker's clock.
    Known { id: String, replied_ms: u64 },
}

/// One neighbour link, as the thread that serves it sees it.
struct NeighborLink<'a> {
    inner: &'a Inner,
    sender: Arc<dyn FrameSender>,
    peer: Peer,
    /// When [`NeighborLink::on_tick`] is next due: `None` once the peer
    /// is known and anti-entropy is off.
    next_tick: Option<Instant>,
}

/// Serves one neighbour link until it closes: each frame is handed, in
/// place in the endpoint's receive buffer, to
/// [`NeighborLink::on_frame`], and [`NeighborLink::on_tick`] runs
/// whenever its deadline passes, however busy the link is.
fn neighbor_worker(inner: &Inner, endpoint: Endpoint) {
    let mut link = NeighborLink {
        inner,
        sender: endpoint.sender(),
        peer: Peer::Unknown(Vec::new()),
        next_tick: Some(Instant::now()),
    };
    loop {
        let now = Instant::now();
        if link.next_tick.is_some_and(|due| due <= now) && link.on_tick(now).is_err() {
            break;
        }
        // Receive even when the next tick is already due, so no interval
        // is short enough to starve the link.
        let wait = link.next_tick.map(|due| due.saturating_duration_since(now));
        match endpoint.recv_with(wait, |frame| link.on_frame(frame)) {
            Ok(()) | Err(TransportError::Timeout) => {}
            Err(_) => break,
        }
    }
    let Peer::Known { id, .. } = &link.peer else {
        return;
    };
    // A link closed by shutdown is not a departure.
    if !inner.closed.load(Ordering::Acquire) {
        change_interest(inner, Interest::NeighborGone(id));
    }
    inner.neighbor_cv.notify_all();
}

impl NeighborLink<'_> {
    /// Runs when the link's deadline passes: until the peer's hello
    /// arrives, sends this broker's hello every [`HELLO_RETRY`]; after
    /// it, sends the peer its full set every
    /// [`BrokerConfig::advert_refresh`] (anti-entropy: a single lost
    /// advert is repaired within one interval; a lost withdrawal is
    /// not, which would need an advert carrying the whole set). Fails
    /// only when a hello cannot be sent.
    fn on_tick(&mut self, now: Instant) -> nb_transport::Result<()> {
        match &self.peer {
            Peer::Unknown(_) => {
                self.sender.send_frame(&hello(self.inner))?;
                self.next_tick = Some(now + HELLO_RETRY);
            }
            Peer::Known { id, .. } => {
                advertise_all(self.inner, id, self.sender.as_ref());
                self.next_tick = self.inner.config.advert_refresh.map(|every| now + every);
            }
        }
        Ok(())
    }

    /// Handles one frame from the peer. Until the peer's hello, frames
    /// wait. After it, data frames are routed undecoded (the pipeline
    /// patches the hop byte in place); only the handshake and adverts
    /// the pipeline hands back are decoded.
    fn on_frame(&mut self, frame: &mut [u8]) {
        let inner = self.inner;
        let (id, replied_ms) = match &mut self.peer {
            Peer::Known { id, replied_ms } => (id, replied_ms),
            Peer::Unknown(early) => {
                match Message::from_bytes(frame) {
                    Ok(Message {
                        payload: Payload::NeighborHello { broker_id },
                        ..
                    }) => {
                        let early = std::mem::take(early);
                        self.register(broker_id, early);
                    }
                    _ => early.push(frame.to_vec()),
                }
                return;
            }
        };
        if route_frame(inner, frame, Ingress::Neighbor(id), None) {
            return;
        }
        let Ok(msg) = Message::from_bytes(frame) else {
            return;
        };
        match &msg.payload {
            Payload::NeighborHello { .. } => {
                // The peer is announcing itself again: our hello may have
                // been lost. Answer at most once a second; the exchange
                // quiesces once both sides are registered, since a
                // registered link sends no hello unasked.
                let now = inner.clock.now_ms();
                if now.saturating_sub(*replied_ms) >= 1000 {
                    *replied_ms = now;
                    let _ = self.sender.send_frame(&hello(inner));
                }
            }
            Payload::NeighborSubscribe { filter } => change_interest(
                inner,
                Interest::Advert {
                    neighbor: id,
                    filter,
                },
            ),
            Payload::NeighborUnsubscribe { filter } => change_interest(
                inner,
                Interest::Withdraw {
                    neighbor: id,
                    filter,
                },
            ),
            _ => {}
        }
    }

    /// The peer's hello arrived: registers the peer as `id` and replays
    /// the frames that beat the hello. The peer's full set goes out on
    /// the tick this makes due.
    fn register(&mut self, id: String, early: Vec<Vec<u8>>) {
        {
            let mut state = self.inner.state.lock();
            state.neighbors.insert(id.clone(), Arc::clone(&self.sender));
            self.inner.routes.bump();
        }
        self.inner.neighbor_cv.notify_all();
        self.peer = Peer::Known { id, replied_ms: 0 };
        self.next_tick = Some(Instant::now());
        for mut frame in early {
            self.on_frame(&mut frame);
        }
    }
}

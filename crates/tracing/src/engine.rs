//! The broker-side tracing engine (paper §3.3–§3.5, §4, §5).
//!
//! One engine runs at each broker that hosts traced entities. It is
//! "responsible for polling — the pull part — the traced entity at
//! regular intervals and for generating — the push part — traces for
//! the traced entity".

use crate::channels;
use crate::config::{TracingConfig, SESSION_LIFETIME_MS};
use crate::failure::{DetectorEvent, FailureDetector, Liveness};
use crate::interest::{InterestSet, TrackerInterest};
use crossbeam::channel::{Receiver, RecvTimeoutError};
use nb_broker::Broker;
use nb_crypto::aes::Aes;
use nb_crypto::cert::{Certificate, Credential};
use nb_crypto::hybrid::SealedEnvelope;
use nb_crypto::modes::CipherMode;
use nb_crypto::rsa::RsaPublicKey;
use nb_crypto::{SessionKey, SessionKeyring, Uuid};
use nb_metrics::{Counter, Gauge, Histogram, Registry, Snapshot};
use nb_monitor::{MonitorSet, VerdictKind};
use nb_obs::{NodeKind, PublisherConfig, TelemetryPublisher};
use nb_telemetry::{now_ns, FlightRecorder, SpanEvent, Stage, TraceContext, RECORDER_CAPACITY};
use nb_transport::clock::SharedClock;
use nb_wire::codec::{Decode, Encode};
use nb_wire::payload::{SessionGrant, TraceKeyMaterial};
use nb_wire::token::AuthorizationToken;
use nb_wire::trace::{topics, EntityState, TraceCategory, TraceEvent, TraceKind};
use nb_wire::{Message, Payload, SessionTag, Topic};
use parking_lot::{Mutex, RwLock};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Everything an engine needs at start-up.
pub struct EngineSetup {
    /// The broker this engine runs at.
    pub broker: Broker,
    /// The broker's credential (entities seal keys to its public key).
    pub credential: Credential,
    /// CA key for validating entity/tracker certificates.
    pub ca_key: RsaPublicKey,
    /// Public keys of the TDNs whose advertisements we accept.
    pub tdn_keys: HashMap<String, RsaPublicKey>,
    /// Time source.
    pub clock: SharedClock,
    /// Scheme configuration.
    pub config: TracingConfig,
    /// RNG seed (session ids, IVs, trace keys).
    pub seed: u64,
}

/// Cached handles on an engine's per-instance registry (`tracing.*`
/// metric family; see `docs/OBSERVABILITY.md`).
struct EngineMetrics {
    registry: Registry,
    traces_published: Counter,
    traces_gated: Counter,
    pings_sent: Counter,
    suspicions: Counter,
    failures: Counter,
    auth_failures: Counter,
    keys_delivered: Counter,
    session_established: Counter,
    session_rotations: Counter,
    session_keys_delivered: Counter,
    /// Milliseconds from the last evidence of liveness (last ping
    /// response, or the first ping for entities that never answered)
    /// to the FAILED verdict — the paper's detection latency.
    time_to_detect_ms: Histogram,
    sessions: Gauge,
}

impl EngineMetrics {
    fn new() -> Self {
        let registry = Registry::new();
        EngineMetrics {
            traces_published: registry.counter("tracing.traces.published"),
            traces_gated: registry.counter("tracing.traces.gated"),
            pings_sent: registry.counter("tracing.pings.sent"),
            suspicions: registry.counter("tracing.detector.suspicions"),
            failures: registry.counter("tracing.detector.failures"),
            auth_failures: registry.counter("tracing.auth.failures"),
            keys_delivered: registry.counter("tracing.keys.delivered"),
            session_established: registry.counter("tracing.session.established"),
            session_rotations: registry.counter("tracing.session.rotations"),
            session_keys_delivered: registry.counter("tracing.session.delivered"),
            time_to_detect_ms: registry.histogram("tracing.detection.time_to_detect_ms"),
            sessions: registry.gauge("tracing.sessions"),
            registry,
        }
    }
}

/// Counters snapshot for benchmarks and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineStatsSnapshot {
    /// Trace events published.
    pub traces_published: u64,
    /// Trace events suppressed by interest gating.
    pub traces_gated: u64,
    /// Pings sent.
    pub pings_sent: u64,
    /// FAILURE_SUSPICION events.
    pub suspicions: u64,
    /// FAILED events.
    pub failures: u64,
    /// Authentication failures.
    pub auth_failures: u64,
    /// Trace keys delivered.
    pub keys_delivered: u64,
    /// Trace session keys adopted (announcements + rotations).
    pub session_established: u64,
    /// Trace session-key rotations performed.
    pub session_rotations: u64,
}

/// Upper bound on messages parked while waiting for a reordered
/// SymmetricKeySetup to arrive.
const MAX_PENDING_MAC: usize = 32;

struct Session {
    entity_id: String,
    trace_topic: Uuid,
    session_id: Uuid,
    cert: Certificate,
    state: EntityState,
    detector: FailureDetector,
    token: Option<AuthorizationToken>,
    /// §6.3 shared HMAC key (replaces per-message RSA verification).
    mac_key: Option<Vec<u8>>,
    /// §5.1 secret trace key (traces encrypted when present).
    trace_key: Option<TraceKey>,
    /// Current trace session key (amortized RSA): the id of the key
    /// the engine tags outgoing trace publications with. The key
    /// material itself lives in the broker's shared keyring.
    session_key_id: Option<u64>,
    interest: InterestSet,
    trace_seq: u64,
    joined: bool,
    last_gauge_ms: u64,
    last_metrics_ms: u64,
    /// MAC'd messages that overtook the SymmetricKeySetup (replayed
    /// once the key arrives).
    pending_mac: Vec<Message>,
}

/// A §5.1 trace key: its bytes, sealed to each tracker, the key
/// expanded once for every trace it encrypts, and the negotiated mode.
struct TraceKey {
    key: Vec<u8>,
    aes: Aes,
    mode: CipherMode,
}

struct EngineInner {
    broker: Broker,
    credential: Credential,
    ca_key: RsaPublicKey,
    tdn_keys: HashMap<String, RsaPublicKey>,
    clock: SharedClock,
    config: TracingConfig,
    sessions: Mutex<HashMap<String, Session>>,
    /// trace topic → entity id (for interest responses).
    topic_index: Mutex<HashMap<Uuid, String>>,
    /// The hosting broker's session keyring (shared by reference: the
    /// broker's data plane verifies against the very keys the engine
    /// installs and tags with).
    session_keys: Arc<SessionKeyring>,
    metrics: EngineMetrics,
    /// Per-engine causal-tracing span ring.
    recorder: FlightRecorder,
    stop: AtomicBool,
    rng: Mutex<StdRng>,
    consumer: String,
    /// Attached runtime-verification monitor, if any: sees every ping
    /// issued, every response observed, and every availability
    /// verdict rendered (see [`TracingEngine::attach_monitor`]).
    monitor: RwLock<Option<MonitorSet>>,
}

/// Reports a rendered availability verdict to the attached monitor.
fn notify_verdict(inner: &EngineInner, entity: &str, verdict: VerdictKind, now: u64) {
    if let Some(monitor) = inner.monitor.read().as_ref() {
        monitor.on_verdict(inner.broker.id(), entity, verdict, now);
    }
}

/// Handle to a running tracing engine.
#[derive(Clone)]
pub struct TracingEngine {
    inner: Arc<EngineInner>,
}

impl TracingEngine {
    /// Starts the engine at `setup.broker`: subscribes to the
    /// registration channel and spawns the engine's one thread, which
    /// handles messages and, unless `auto_tick` is off, runs a
    /// scheduling pass every `tick`.
    pub fn start(setup: EngineSetup) -> Self {
        let consumer = format!("tracing-engine@{}", setup.broker.id());
        let rx = setup.broker.register_internal(&consumer);
        setup
            .broker
            .subscribe_internal(&consumer, topics::registration())
            .expect("engine may subscribe to the registration channel");

        let recorder = FlightRecorder::new(consumer.clone(), RECORDER_CAPACITY);
        let session_keys = setup.broker.session_keyring();
        let inner = Arc::new(EngineInner {
            broker: setup.broker,
            credential: setup.credential,
            ca_key: setup.ca_key,
            tdn_keys: setup.tdn_keys,
            clock: setup.clock,
            config: setup.config,
            sessions: Mutex::new(HashMap::new()),
            topic_index: Mutex::new(HashMap::new()),
            session_keys,
            metrics: EngineMetrics::new(),
            recorder,
            stop: AtomicBool::new(false),
            rng: Mutex::new(StdRng::seed_from_u64(setup.seed)),
            consumer,
            monitor: RwLock::new(None),
        });

        let loop_inner = Arc::clone(&inner);
        std::thread::Builder::new()
            .name(inner.consumer.clone())
            .spawn(move || run(&loop_inner, &rx))
            .expect("spawn tracing engine");

        TracingEngine { inner }
    }

    /// Runs one scheduling pass now (deterministic testing with
    /// `auto_tick` disabled).
    pub fn tick_now(&self) {
        run_tick(&self.inner);
    }

    /// Attaches an online runtime-verification monitor: the engine
    /// reports every ping it issues, every ping response it observes,
    /// and every availability verdict it renders, so the monitor's
    /// `causal-verdicts` property can check that verdicts follow from
    /// actual ping traffic.
    pub fn attach_monitor(&self, monitor: MonitorSet) {
        *self.inner.monitor.write() = Some(monitor);
    }

    /// Stops the engine's thread (best effort: it exits at its next
    /// message or tick, or when the broker shuts down).
    pub fn stop(&self) {
        self.inner.stop.store(true, Ordering::SeqCst);
    }

    /// The public key entities seal their keys to.
    pub fn public_key(&self) -> RsaPublicKey {
        self.inner.credential.certificate.public_key.clone()
    }

    /// Number of live tracing sessions.
    pub fn session_count(&self) -> usize {
        self.inner.sessions.lock().len()
    }

    /// Liveness verdict for an entity, if hosted here.
    pub fn liveness_of(&self, entity_id: &str) -> Option<Liveness> {
        self.inner
            .sessions
            .lock()
            .get(entity_id)
            .map(|s| s.detector.liveness())
    }

    /// Whether the engine currently holds a delegation token for the
    /// entity.
    pub fn has_token(&self, entity_id: &str) -> bool {
        self.inner
            .sessions
            .lock()
            .get(entity_id)
            .is_some_and(|s| s.token.is_some())
    }

    /// Number of trackers registered as interested in `entity_id`.
    pub fn interest_count(&self, entity_id: &str) -> usize {
        self.inner
            .sessions
            .lock()
            .get(entity_id)
            .map(|s| s.interest.len())
            .unwrap_or(0)
    }

    /// Counters snapshot.
    pub fn stats(&self) -> EngineStatsSnapshot {
        let m = &self.inner.metrics;
        EngineStatsSnapshot {
            traces_published: m.traces_published.get(),
            traces_gated: m.traces_gated.get(),
            pings_sent: m.pings_sent.get(),
            suspicions: m.suspicions.get(),
            failures: m.failures.get(),
            auth_failures: m.auth_failures.get(),
            keys_delivered: m.keys_delivered.get(),
            session_established: m.session_established.get(),
            session_rotations: m.session_rotations.get(),
        }
    }

    /// This engine's causal-tracing flight recorder (spans for trace
    /// publications, pings, verdicts and consumed session messages).
    pub fn flight_recorder(&self) -> &FlightRecorder {
        &self.inner.recorder
    }

    /// Builds this engine's telemetry publisher: snapshots
    /// [`TracingEngine::metrics_snapshot`] and publishes the changes
    /// on the constrained Obs topic through the engine's home broker
    /// (internal publish path, constraint-exempt). Frames are
    /// attributed to the engine's consumer id
    /// (`tracing-engine@<broker>`).
    pub fn telemetry_publisher(&self, config: PublisherConfig) -> TelemetryPublisher {
        let source = self.clone();
        let broker = self.inner.broker.clone();
        TelemetryPublisher::new(
            self.inner.consumer.clone(),
            NodeKind::Engine,
            Arc::new(move || source.metrics_snapshot()),
            Arc::new(move |msg| broker.publish_internal(msg)),
            self.inner.clock.clone(),
            config,
        )
    }

    /// Captures every `tracing.*` metric of this engine (the session
    /// gauge is sampled at call time).
    pub fn metrics_snapshot(&self) -> Snapshot {
        self.inner.metrics.sessions.set(self.session_count() as i64);
        self.inner.metrics.registry.snapshot()
    }
}

/// The engine's thread: handles each message as it arrives and, with
/// `auto_tick` on, runs a scheduling pass whenever one is due, waiting
/// on the channel in between. Ends when the engine is stopped or the
/// broker drops the channel.
fn run(inner: &Arc<EngineInner>, rx: &Receiver<Message>) {
    let mut next_tick = Instant::now();
    while !inner.stop.load(Ordering::SeqCst) {
        let received = if inner.config.auto_tick {
            let now = Instant::now();
            if now >= next_tick {
                run_tick(inner);
                next_tick = Instant::now() + inner.config.tick;
                continue;
            }
            rx.recv_timeout(next_tick - now)
        } else {
            rx.recv().map_err(|_| RecvTimeoutError::Disconnected)
        };
        match received {
            Ok(msg) if !inner.stop.load(Ordering::SeqCst) => handle_message(inner, msg),
            Err(RecvTimeoutError::Timeout) => {}
            _ => return,
        }
    }
}

/// A message from this engine's broker.
fn message(inner: &EngineInner, topic: Topic, payload: Payload, now: u64) -> Message {
    Message::new(
        inner.broker.next_message_id(),
        topic,
        inner.broker.id().to_string(),
        now,
        payload,
    )
}

/// Records the root span of an engine-originated message. Its span id
/// is the context's `parent_span`, so every downstream span (broker
/// hops, tracker apply) chains under it.
fn record_root(inner: &EngineInner, ctx: &TraceContext, stage: Stage, start_ns: u64) {
    inner.recorder.record(SpanEvent {
        trace_id: ctx.trace_id,
        span_id: ctx.parent_span,
        parent_span: 0,
        hop: 0,
        stage,
        start_ns,
        end_ns: now_ns(),
    });
}

fn handle_message(inner: &Arc<EngineInner>, msg: Message) {
    let traced = inner.config.telemetry.sampled(msg.trace);
    let t0 = if traced.is_some() { now_ns() } else { 0 };
    match &msg.payload {
        Payload::TraceRegistration { .. } => handle_registration(inner, &msg),
        Payload::InterestResponse { .. } => handle_interest_response(inner, &msg),
        Payload::PingResponse { .. }
        | Payload::StateReport { .. }
        | Payload::LoadReport { .. }
        | Payload::SilentModeRequest
        | Payload::DelegationToken { .. }
        | Payload::TraceKeyDelivery { .. }
        | Payload::SymmetricKeySetup { .. }
        | Payload::SessionKeyAnnounce { .. } => handle_session_message(inner, msg),
        _ => {}
    }
    if let Some(ctx) = &traced {
        inner
            .recorder
            .record(SpanEvent::new(ctx, Stage::Consume, t0, now_ns()));
    }
}

/// §3.2: verify credentials, proof of possession and topic provenance,
/// then grant a session.
fn handle_registration(inner: &Arc<EngineInner>, msg: &Message) {
    let Payload::TraceRegistration {
        entity_id,
        credentials,
        advertisement,
    } = &msg.payload
    else {
        return;
    };
    let now = inner.clock.now_ms();
    let reply = |payload: Payload| {
        let reply = message(inner, channels::registration_reply(entity_id), payload, now);
        inner.broker.publish_internal(reply.correlated(msg.id));
    };
    let reject = |reason: &str| {
        reply(Payload::RegistrationRejected {
            reason: reason.to_string(),
        })
    };

    // 1. Certificate must chain to the CA.
    if credentials.verify(&inner.ca_key, now).is_err() {
        inner.metrics.auth_failures.inc();
        reject("invalid credentials");
        return;
    }
    // 2. Proof of possession + tamper evidence: the message signature
    //    must verify under the presented certificate (§3.2).
    if msg.verify_signature(&credentials.public_key).is_err() {
        inner.metrics.auth_failures.inc();
        reject("signature verification failed");
        return;
    }
    // 3. Topic provenance: the advertisement must be TDN-signed and
    //    owned by this very certificate.
    let tdn_ok = inner
        .tdn_keys
        .get(&advertisement.tdn_id)
        .map(|key| advertisement.verify(key).is_ok())
        .unwrap_or(false);
    if !tdn_ok {
        reject("advertisement provenance failed");
        return;
    }
    if advertisement.owner_cert != *credentials {
        reject("advertisement owned by a different credential");
        return;
    }
    if advertisement.is_expired(now) {
        reject("trace topic expired");
        return;
    }

    // Idempotency: a duplicated or retried registration (lossy links,
    // duplicating links) must re-issue the SAME session rather than
    // shadow the existing one. A FAILED entity re-registering is the
    // recovery path instead: tear the dead session down and grant a
    // fresh one (the paper's implied rejoin after failure).
    let failed_session = inner
        .sessions
        .lock()
        .get(entity_id.as_str())
        .map(|s| s.detector.liveness() == Liveness::Failed)
        .unwrap_or(false);
    if failed_session {
        let removed = inner.sessions.lock().remove(entity_id.as_str());
        if let Some(old) = removed {
            inner.topic_index.lock().remove(&old.trace_topic);
            inner.broker.unsubscribe_internal(
                &inner.consumer,
                &topics::entity_to_broker(&old.trace_topic, &old.session_id),
            );
        }
    }
    let trace_topic = advertisement.topic_id;
    let existing = inner
        .sessions
        .lock()
        .get(entity_id.as_str())
        .filter(|s| s.trace_topic == trace_topic)
        .map(|s| s.session_id);
    let session_id = match existing {
        Some(session_id) => session_id,
        None => {
            let session_id = Uuid::new_v4(&mut *inner.rng.lock());
            // The broker subscribes to the entity→broker session channel.
            let channel = topics::entity_to_broker(&trace_topic, &session_id);
            if inner
                .broker
                .subscribe_internal(&inner.consumer, channel)
                .is_err()
            {
                reject("session channel subscription failed");
                return;
            }
            // Also to the interest-response channel for this trace topic.
            let _ = inner
                .broker
                .subscribe_internal(&inner.consumer, topics::interest_response(&trace_topic));
            // Let the routing layer fully verify our future tokens.
            inner
                .broker
                .register_topic_owner(trace_topic, credentials.public_key.clone());
            session_id
        }
    };

    let grant = SessionGrant {
        request_id: msg.id,
        session_id,
    };
    let Some(sealed) = seal(inner, &credentials.public_key, &grant.to_bytes()) else {
        reject("response sealing failed");
        return;
    };
    if existing.is_none() {
        let session = Session {
            entity_id: entity_id.clone(),
            trace_topic,
            session_id,
            cert: credentials.clone(),
            state: EntityState::Initializing,
            detector: FailureDetector::new(&inner.config),
            token: None,
            mac_key: None,
            trace_key: None,
            session_key_id: None,
            interest: InterestSet::new(),
            trace_seq: 1,
            joined: false,
            last_gauge_ms: 0,
            last_metrics_ms: 0,
            pending_mac: Vec::new(),
        };
        inner.sessions.lock().insert(entity_id.clone(), session);
        inner
            .topic_index
            .lock()
            .insert(trace_topic, entity_id.clone());
    }
    reply(Payload::RegistrationAccepted { sealed });
}

/// §4.2: every trace message from the entity must demonstrate
/// possession of credentials — RSA signature, or HMAC after the §6.3
/// key exchange.
///
/// Both authenticators bind the message to the same principal (the
/// signature to the registered certificate, the MAC to the key that
/// was sealed to us under that certificate), so accepting either is
/// sound. Accepting either also makes the scheme robust to messages
/// reordered around the `SymmetricKeySetup` transition — UDP-style
/// links can deliver the first MAC'd messages before the setup itself.
fn authenticate(session: &Session, msg: &Message) -> bool {
    if let Some(key) = &session.mac_key {
        if msg.mac.is_some() && msg.verify_mac(key).is_ok() {
            return true;
        }
    }
    msg.signature.is_some() && msg.verify_signature(&session.cert.public_key).is_ok()
}

fn handle_session_message(inner: &Arc<EngineInner>, msg: Message) {
    let now = inner.clock.now_ms();
    let mut sessions = inner.sessions.lock();
    let Some(session) = sessions.get_mut(&msg.sender) else {
        return;
    };

    // The §6.3 transition message and the session-key announcement
    // must themselves carry an RSA signature — they are the asymmetric
    // half of the handshakes every later HMAC amortizes.
    let is_key_setup = matches!(
        msg.payload,
        Payload::SymmetricKeySetup { .. } | Payload::SessionKeyAnnounce { .. }
    );
    if is_key_setup {
        if msg.verify_signature(&session.cert.public_key).is_err() {
            inner.metrics.auth_failures.inc();
            return;
        }
    } else if !authenticate(session, &msg) {
        // A MAC'd message that overtook the key setup on a reordering
        // link: park it until the setup arrives (bounded). That is
        // deferral, not refusal, so it never counts as a failure.
        if msg.mac.is_some()
            && session.mac_key.is_none()
            && session.pending_mac.len() < MAX_PENDING_MAC
        {
            session.pending_mac.push(msg);
        } else {
            inner.metrics.auth_failures.inc();
        }
        return;
    }

    match msg.payload {
        Payload::PingResponse {
            seq,
            echo_sent_at_ms: _,
            state,
        } => {
            session.state = state;
            let recovered = session.detector.on_response(seq, now);
            if let Some(monitor) = inner.monitor.read().as_ref() {
                monitor.on_ping_answered(inner.broker.id(), &session.entity_id, seq, now);
            }
            if recovered == Some(DetectorEvent::Recover) {
                publish_trace(inner, session, TraceKind::AllsWell, now);
            }
            // ALLS_WELL heartbeat on every answered ping (gated on
            // interest like all AllUpdates traffic).
            publish_trace(inner, session, TraceKind::AllsWell, now);
            notify_verdict(inner, &session.entity_id, VerdictKind::AllsWell, now);
        }
        Payload::StateReport { from, to } => {
            session.state = to;
            publish_trace(inner, session, TraceKind::StateTransition { from, to }, now);
        }
        Payload::LoadReport { load } => {
            publish_trace(inner, session, TraceKind::LoadInformation(load), now);
        }
        Payload::SilentModeRequest => {
            publish_trace(inner, session, TraceKind::RevertingToSilentMode, now);
            let entity_id = session.entity_id.clone();
            let trace_topic = session.trace_topic;
            let session_id = session.session_id;
            sessions.remove(&entity_id);
            drop(sessions);
            inner.topic_index.lock().remove(&trace_topic);
            inner.broker.unsubscribe_internal(
                &inner.consumer,
                &topics::entity_to_broker(&trace_topic, &session_id),
            );
        }
        Payload::DelegationToken { token } => {
            // Verify the delegation actually comes from the topic owner.
            let owner = Some(&session.cert.public_key);
            if token.admits(owner, now).is_err() {
                inner.metrics.auth_failures.inc();
                return;
            }
            session.token = Some(token);
            if !session.joined {
                session.joined = true;
                publish_trace(inner, session, TraceKind::Join, now);
                gauge_interest(inner, session, now);
            }
        }
        Payload::TraceKeyDelivery { sealed } => {
            // §5.1: the entity's secret trace key arrives sealed to us,
            // together with the negotiated algorithm and padding. It
            // goes at once to every registered tracker: an entity that
            // re-sends its setup mints a fresh key each time. A key or
            // mode that does not parse leaves the session as it was.
            if let Ok(bytes) = sealed.open(&inner.credential.private_key) {
                if let Ok(material) = TraceKeyMaterial::from_bytes(&bytes) {
                    if let (Ok(mode), Ok(aes)) = (material.mode(), Aes::new(&material.key)) {
                        session.trace_key = Some(TraceKey {
                            key: material.key,
                            aes,
                            mode,
                        });
                        for tracker in session.interest.trackers() {
                            deliver_trace_key(inner, session, tracker, now);
                        }
                    }
                }
            }
        }
        Payload::SessionKeyAnnounce { sealed } => {
            // The entity's freshly minted trace session key. Adopt it:
            // install into the broker keyring (the data plane starts
            // accepting its MACs), tag from now on, fan it out to the
            // interested tracker-set. Re-announcements (loss recovery)
            // adopt the newest key; superseded ones simply age out.
            if let Ok(bytes) = sealed.open(&inner.credential.private_key) {
                if let Ok(key) = SessionKey::from_bytes(&bytes) {
                    if key.topic != session.trace_topic {
                        inner.metrics.auth_failures.inc();
                        return;
                    }
                    if session.session_key_id != Some(key.key_id) {
                        adopt_session_key(inner, session, key, now);
                    }
                }
            }
        }
        Payload::SymmetricKeySetup { sealed } => {
            if let Ok(key) = sealed.open(&inner.credential.private_key) {
                session.mac_key = Some(key);
                // Replay anything that overtook the setup.
                let parked = std::mem::take(&mut session.pending_mac);
                if !parked.is_empty() {
                    drop(sessions);
                    for parked_msg in parked {
                        handle_session_message(inner, parked_msg);
                    }
                }
            }
        }
        _ => {}
    }
}

/// §3.5: a tracker answered a GAUGE_INTEREST probe.
fn handle_interest_response(inner: &Arc<EngineInner>, msg: &Message) {
    let Payload::InterestResponse {
        credentials,
        interests,
        reply_topic,
    } = &msg.payload
    else {
        return;
    };
    let now = inner.clock.now_ms();
    // Trackers must prove credential possession too.
    if credentials.verify(&inner.ca_key, now).is_err()
        || msg.verify_signature(&credentials.public_key).is_err()
    {
        inner.metrics.auth_failures.inc();
        return;
    }
    // Locate the session by the trace topic embedded in the channel.
    let Some(trace_topic) = trace_topic_from_message(msg) else {
        return;
    };
    let entity_id = {
        let index = inner.topic_index.lock();
        index.get(&trace_topic).cloned()
    };
    let Some(entity_id) = entity_id else { return };

    let mut sessions = inner.sessions.lock();
    let Some(session) = sessions.get_mut(&entity_id) else {
        return;
    };
    let first_contact = !session.interest.knows(&msg.sender);
    let tracker = TrackerInterest {
        certificate: credentials.clone(),
        categories: interests.clone(),
        reply_topic: reply_topic.clone(),
        refreshed_ms: now,
    };
    // The delivery rule (§5.1): every interest response is answered
    // with every key the session holds, so a tracker that lost its
    // keys (a restart under its id, a lost delivery) decrypts again
    // after its next response.
    deliver_trace_key(inner, session, &tracker, now);
    deliver_session_key(inner, session, &tracker, now);
    session.interest.register(&msg.sender, tracker);
    // A tracker that registers interest after the original JOIN was
    // published would otherwise never learn the entity is available;
    // re-announce on first contact.
    if first_contact && session.joined && session.detector.liveness() != Liveness::Failed {
        publish_trace(inner, session, TraceKind::Join, now);
    }
}

fn trace_topic_from_message(msg: &Message) -> Option<Uuid> {
    let constrained = nb_wire::constrained::ConstrainedTopic::parse(&msg.topic).ok()??;
    constrained.suffixes.first()?.parse().ok()
}

/// Seals `plain` to `key` (an RSA-wrapped AES-192 envelope).
fn seal(inner: &EngineInner, key: &RsaPublicKey, plain: &[u8]) -> Option<SealedEnvelope> {
    let mut rng = inner.rng.lock();
    SealedEnvelope::seal(key, plain, nb_crypto::aes::KeySize::Aes192, &mut *rng).ok()
}

/// Publishes `payload` on a tracker's reply topic under the delegation
/// token, which shows the tracker the engine speaks for the entity.
fn send_to_tracker(
    inner: &EngineInner,
    tracker: &TrackerInterest,
    token: &AuthorizationToken,
    payload: Payload,
    now: u64,
) {
    let msg = message(inner, tracker.reply_topic.clone(), payload, now).with_token(token.clone());
    inner.broker.publish_internal(msg);
}

/// Seals the §5.1 trace key to one tracker (no-op without a key or a
/// delegation token).
fn deliver_trace_key(inner: &EngineInner, session: &Session, tracker: &TrackerInterest, now: u64) {
    let (Some(trace_key), Some(token)) = (&session.trace_key, &session.token) else {
        return;
    };
    let material = TraceKeyMaterial::aes192(trace_key.key.clone(), trace_key.mode);
    if let Some(sealed) = seal(inner, &tracker.certificate.public_key, &material.to_bytes()) {
        let delivery = Payload::TraceKeyDelivery { sealed };
        send_to_tracker(inner, tracker, token, delivery, now);
        inner.metrics.keys_delivered.inc();
    }
}

/// Seals the current session key to one tracker (no-op without a key
/// or a delegation token).
fn deliver_session_key(
    inner: &EngineInner,
    session: &Session,
    tracker: &TrackerInterest,
    now: u64,
) {
    let key = session
        .session_key_id
        .and_then(|id| inner.session_keys.get(id));
    let (Some(key), Some(token)) = (key, &session.token) else {
        return;
    };
    if let Some(sealed) = seal(inner, &tracker.certificate.public_key, &key.to_bytes()) {
        let delivery = Payload::SessionKeyDelivery { sealed };
        send_to_tracker(inner, tracker, token, delivery, now);
        inner.metrics.session_keys_delivered.inc();
    }
}

/// Adopts `key` as the session's current trace session key: installs
/// it into the broker's shared keyring and sends it at once to every
/// registered tracker.
fn adopt_session_key(inner: &EngineInner, session: &mut Session, key: SessionKey, now: u64) {
    session.session_key_id = Some(key.key_id);
    inner.broker.install_session_key(key);
    inner.metrics.session_established.inc();
    for tracker in session.interest.trackers() {
        deliver_session_key(inner, session, tracker, now);
    }
}

/// Rotates the session's trace session key: mints and adopts a fresh
/// one, then revokes the spent key — at the hosting broker (which
/// syncs any attached monitor), at every interested tracker, and with
/// a signed notice on the audit topic so operators see the rotation.
///
/// Ordering matters for seamlessness: the new key is installed and
/// fanned out *before* the old one is revoked, so the tagged stream
/// never passes through a keyless window.
fn rotate_session_key(inner: &EngineInner, session: &mut Session, old_key_id: u64, now: u64) {
    let fresh = {
        let mut rng = inner.rng.lock();
        SessionKey::mint(
            session.trace_topic,
            now,
            SESSION_LIFETIME_MS,
            inner.config.session_max_messages,
            &mut *rng,
        )
    };
    adopt_session_key(inner, session, fresh, now);
    inner.broker.revoke_session_key(old_key_id);
    inner.metrics.session_rotations.inc();

    let revoke = Payload::SessionKeyRevoke {
        key_id: old_key_id,
        topic: session.trace_topic,
    };
    if let Some(token) = &session.token {
        for tracker in session.interest.trackers() {
            send_to_tracker(inner, tracker, token, revoke.clone(), now);
        }
    }
    let mut audit = message(inner, nb_monitor::audit_topic(), revoke, now);
    if audit.sign(&inner.credential).is_ok() {
        inner.broker.publish_internal(audit);
    }
}

/// Publishes a GAUGE_INTEREST probe (§3.5).
fn gauge_interest(inner: &EngineInner, session: &mut Session, now: u64) {
    let Some(token) = session.token.clone() else {
        return;
    };
    let probe = Payload::GaugeInterestRequest {
        secured: session.trace_key.is_some(),
    };
    let topic = topics::gauge_interest(&session.trace_topic);
    let msg = message(inner, topic, probe, now);
    inner.broker.publish_internal(msg.with_token(token));
    session.last_gauge_ms = now;
}

/// Publishes one trace event, applying interest gating, encryption and
/// token attachment. Returns the trace context minted for the message
/// (so callers can chain further spans under it), or `None` when the
/// event was gated, unpublishable or telemetry is off.
fn publish_trace(
    inner: &EngineInner,
    session: &mut Session,
    kind: TraceKind,
    now: u64,
) -> Option<TraceContext> {
    let category = kind.category();
    // Change notifications always flow (they are the "change
    // notifications only" service tier); the rest is interest-gated.
    let gated = category != TraceCategory::ChangeNotifications && !session.interest.wants(category);
    if gated {
        inner.metrics.traces_gated.inc();
        return None;
    }
    let Some(token) = session.token.clone() else {
        return None; // cannot publish without delegation (§4.3)
    };
    let ctx = inner.config.telemetry.mint();
    let t0 = if ctx.is_some_and(|c| c.sampled) {
        now_ns()
    } else {
        0
    };
    let event = TraceEvent {
        entity_id: session.entity_id.clone(),
        trace_topic: session.trace_topic,
        seq: session.trace_seq,
        timestamp_ms: now,
        kind,
    };
    session.trace_seq += 1;

    let payload = match &session.trace_key {
        Some(trace_key) => {
            // The iv doubles as the CTR nonce in counter mode.
            let mut iv = [0u8; 16];
            {
                let mut rng = inner.rng.lock();
                (*rng).fill_bytes(&mut iv);
            }
            let encrypted = match trace_key.mode {
                CipherMode::Cbc => trace_key.aes.cbc_encrypt(&iv, &event.to_bytes()),
                CipherMode::Ctr => trace_key.aes.ctr_transform(&iv, &event.to_bytes()),
            };
            match encrypted {
                Ok(ciphertext) => Payload::EncryptedTrace { iv, ciphertext },
                Err(_) => return None,
            }
        }
        None => Payload::Trace { event },
    };

    let topic = topics::publication(&session.trace_topic, category);
    let mut msg = message(inner, topic, payload, now).with_token(token);
    if let Some(ctx) = ctx {
        msg = msg.with_trace(ctx);
    }
    // Amortized RSA: tag the publication under the trace session key
    // so every broker holding it authenticates with one HMAC, in place
    // on the frame. The token stays attached — receivers without
    // the key (or after the budget runs dry) fall back to it.
    if let Some(key_id) = session.session_key_id {
        let signable = msg.signable_bytes();
        if let Some((seq, mac)) = inner.session_keys.tag(key_id, now, &[&signable]) {
            msg = msg.with_session(SessionTag { key_id, seq, mac });
        }
    }
    inner.broker.publish_internal(msg);
    inner.metrics.traces_published.inc();
    if let Some(ctx) = ctx.filter(|c| c.sampled) {
        // The root span covers event construction, encryption and the
        // hand-off into the broker.
        record_root(inner, &ctx, Stage::TracePublish, t0);
    }
    ctx
}

/// One scheduler pass: expire pings, emit new pings, re-gauge
/// interest, publish periodic network metrics.
fn run_tick(inner: &Arc<EngineInner>) {
    let now = inner.clock.now_ms();
    let mut sessions = inner.sessions.lock();
    for session in sessions.values_mut() {
        // Failure detection.
        let verdict = match session.detector.on_tick(now) {
            Some(DetectorEvent::Suspect) => {
                inner.metrics.suspicions.inc();
                Some((VerdictKind::Suspect, TraceKind::FailureSuspicion))
            }
            Some(DetectorEvent::Fail) => {
                inner.metrics.failures.inc();
                if let Some(evidence) = session.detector.last_evidence_ms() {
                    inner
                        .metrics
                        .time_to_detect_ms
                        .record(now.saturating_sub(evidence));
                }
                Some((VerdictKind::Failed, TraceKind::Failed))
            }
            _ => None,
        };
        if let Some((verdict, kind)) = verdict {
            notify_verdict(inner, &session.entity_id, verdict, now);
            let t0 = now_ns();
            if let Some(ctx) = publish_trace(inner, session, kind, now).filter(|c| c.sampled) {
                inner
                    .recorder
                    .record(SpanEvent::new(&ctx, Stage::Verdict, t0, now_ns()));
            }
        }

        // Ping issue (failed entities are no longer pinged; they
        // re-enter via a fresh registration or a late response).
        if session.detector.liveness() != Liveness::Failed
            && session.joined
            && session.detector.ping_due(now)
        {
            let seq = session.detector.on_ping_sent(now);
            if let Some(monitor) = inner.monitor.read().as_ref() {
                monitor.on_ping_sent(inner.broker.id(), &session.entity_id, seq, now);
            }
            let ctx = inner.config.telemetry.mint();
            let t0 = if ctx.is_some_and(|c| c.sampled) {
                now_ns()
            } else {
                0
            };
            let topic = topics::broker_to_entity(
                &session.entity_id,
                &session.trace_topic,
                &session.session_id,
            );
            let payload = Payload::Ping {
                seq,
                sent_at_ms: now,
            };
            let mut ping = message(inner, topic, payload, now);
            if let Some(ctx) = ctx {
                ping = ping.with_trace(ctx);
            }
            inner.broker.publish_internal(ping);
            inner.metrics.pings_sent.inc();
            if let Some(ctx) = ctx.filter(|c| c.sampled) {
                record_root(inner, &ctx, Stage::PingSend, t0);
            }
        }

        // Session-key rotation: when the budget is spent or the key
        // has aged past 3/4 of its lifetime, mint-adopt-revoke.
        if let Some(key_id) = session.session_key_id {
            if inner.session_keys.needs_rotation(key_id, now) {
                rotate_session_key(inner, session, key_id, now);
            }
        }

        // Periodic interest re-gauging, plus expiry of trackers that
        // stopped answering probes (their gate contribution lapses
        // after several missed probe rounds).
        if session.joined
            && now.saturating_sub(session.last_gauge_ms)
                >= inner.config.gauge_interval.as_millis() as u64
        {
            gauge_interest(inner, session, now);
            let ttl = 4 * inner.config.gauge_interval.as_millis() as u64;
            session.interest.expire_stale(now.saturating_sub(ttl));
        }

        // Periodic network metrics.
        if session.joined
            && now.saturating_sub(session.last_metrics_ms)
                >= inner.config.metrics_interval.as_millis() as u64
        {
            session.last_metrics_ms = now;
            let window = session.detector.window();
            if !window.is_empty() {
                let metrics = nb_wire::trace::NetworkMetrics {
                    loss_rate: window.loss_rate(),
                    transit_delay_ms: window.mean_rtt_ms().unwrap_or(0.0),
                    bandwidth_bps: 0.0,
                    out_of_order_rate: window.out_of_order_rate(),
                };
                publish_trace(inner, session, TraceKind::NetworkMetrics(metrics), now);
            }
        }
    }
}

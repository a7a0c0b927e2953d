//! The tracker runtime (paper §3.4–§3.5, §4.1, §5.1).
//!
//! A tracker discovers the trace topic through the TDN (presenting its
//! credentials), subscribes to exactly the trace categories it cares
//! about, answers GAUGE_INTEREST probes, receives the sealed trace key
//! when tracing is secured, and folds verified traces into an
//! [`AvailabilityView`].

use crate::channels;
use crate::config::TracingConfig;
use crate::error::TracingError;
use crate::persist::TrackerDurableState;
use crate::view::AvailabilityView;
use crate::Result;
use nb_broker::BrokerClient;
use nb_crypto::cert::Credential;
use nb_crypto::modes::{cbc_decrypt, ctr_transform, CipherMode};
use nb_crypto::rsa::RsaPublicKey;
use nb_crypto::{SessionKey, SessionKeyring, SessionVerdict, Uuid};
use nb_metrics::{Counter, Registry, Snapshot};
use nb_store::{Durable, Recovery, StoreConfig};
use nb_tdn::TdnCluster;
use nb_telemetry::{now_ns, FlightRecorder, SpanEvent, Stage, TraceContext};
use nb_transport::clock::SharedClock;
use nb_wire::codec::Decode;
use nb_wire::payload::{TopicAdvertisement, TraceKeyMaterial};
use nb_wire::token::Rights;
use nb_wire::trace::{topics, TraceCategory, TraceEvent};
use nb_wire::{Message, Payload};
use parking_lot::Mutex;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Options for a tracker.
pub struct TrackerOptions {
    /// The tracker's identifier.
    pub tracker_id: String,
    /// The tracker's CA-issued credential.
    pub credential: Credential,
    /// Trace categories of interest ("any combination of change
    /// notifications, all-updates, state transitions, load information
    /// or network metrics", §3.5).
    pub interests: Vec<TraceCategory>,
    /// Scheme configuration (token skew).
    pub config: TracingConfig,
    /// Durability root. `Some(dir)` journals applied traces to
    /// `dir/tracker.{wal,snap}` and recovers the availability view on
    /// restart; `None` keeps the view purely in memory.
    pub data_dir: Option<PathBuf>,
    /// Store tuning (checkpoint cadence, fsync policy) when
    /// `data_dir` is set.
    pub store: StoreConfig,
}

/// Cached handles on a tracker's per-instance registry (`tracker.*`
/// metric family; see `docs/OBSERVABILITY.md`).
struct TrackerMetrics {
    registry: Registry,
    traces_applied: Counter,
    rejected_tokens: Counter,
    undecryptable: Counter,
    interest_responses: Counter,
    session_verified: Counter,
    session_rejected: Counter,
}

impl TrackerMetrics {
    fn new() -> Self {
        let registry = Registry::new();
        TrackerMetrics {
            traces_applied: registry.counter("tracker.traces.applied"),
            rejected_tokens: registry.counter("tracker.tokens.rejected"),
            undecryptable: registry.counter("tracker.traces.undecryptable"),
            interest_responses: registry.counter("tracker.interest.responses"),
            session_verified: registry.counter("tracker.session.verified"),
            session_rejected: registry.counter("tracker.session.rejected"),
            registry,
        }
    }
}

struct TrackerInner {
    id: String,
    credential: Credential,
    client: BrokerClient,
    clock: SharedClock,
    config: TracingConfig,
    entity_id: String,
    trace_topic: Uuid,
    owner_key: RsaPublicKey,
    interests: Vec<TraceCategory>,
    trace_key: Mutex<Option<(Vec<u8>, CipherMode)>>,
    /// Session keys delivered by the engine (amortized RSA): tagged
    /// traces verify with one HMAC here instead of an RSA token check.
    sessions: SessionKeyring,
    view: AvailabilityView,
    /// Journal for applied traces, when durability is enabled.
    persist: Mutex<Option<Durable<TrackerDurableState>>>,
    /// What recovery found on start-up (durable trackers only).
    recovery: Option<Recovery>,
    metrics: TrackerMetrics,
    /// Per-tracker causal-tracing span ring (apply/reject spans).
    recorder: FlightRecorder,
    stop: AtomicBool,
}

/// A running tracker for one traced entity.
pub struct Tracker {
    inner: Arc<TrackerInner>,
}

impl Tracker {
    /// Discovers `entity_id`'s trace topic (authorized discovery,
    /// §3.4), subscribes to the chosen categories, and starts the
    /// consuming pump.
    pub fn start(
        client: BrokerClient,
        tdns: &TdnCluster,
        clock: SharedClock,
        entity_id: &str,
        opts: TrackerOptions,
    ) -> Result<Self> {
        let timeout = Duration::from_secs(10);

        // §3.4: the discovery query carries our credentials; no
        // response means "not authorized or no such topic".
        let advert = discover_advertisement(tdns, entity_id, &opts.credential)?;
        let trace_topic = advert.topic_id;
        let owner_key = advert.owner_cert.public_key.clone();

        // Subscribe to each interesting category channel plus the
        // interest probe channel and our key-delivery channel.
        for category in &opts.interests {
            client.subscribe(topics::publication(&trace_topic, *category), timeout)?;
        }
        client.subscribe(topics::gauge_interest(&trace_topic), timeout)?;
        client.subscribe(channels::key_delivery(&opts.tracker_id), timeout)?;

        // Durability: recover the availability view journalled by a
        // previous incarnation before any trace flows, so the restart
        // resumes from the last applied sequence instead of a blank
        // map (stale re-deliveries stay rejected, nothing re-counts).
        let (view, persist, recovery) = match &opts.data_dir {
            Some(dir) => match Durable::<TrackerDurableState>::open(
                dir,
                "tracker",
                opts.store.clone(),
            ) {
                Ok((durable, state, rec)) => {
                    (state.view, Some(durable), Some(rec))
                }
                // Storage trouble degrades to in-memory operation —
                // tracking beats crashing on a bad disk.
                Err(_) => (AvailabilityView::new(), None, None),
            },
            None => (AvailabilityView::new(), None, None),
        };

        let recorder =
            FlightRecorder::new(opts.tracker_id.clone(), opts.config.telemetry.capacity);
        let inner = Arc::new(TrackerInner {
            id: opts.tracker_id,
            credential: opts.credential,
            client,
            clock,
            config: opts.config,
            entity_id: entity_id.to_string(),
            trace_topic,
            owner_key,
            interests: opts.interests,
            trace_key: Mutex::new(None),
            sessions: SessionKeyring::new(),
            view,
            persist: Mutex::new(persist),
            recovery,
            metrics: TrackerMetrics::new(),
            recorder,
            stop: AtomicBool::new(false),
        });
        let tracker = Tracker { inner };

        // Proactive interest registration: §3.5 has trackers respond
        // to probes; announcing once at start-up as well removes one
        // round trip before the first gated trace flows.
        tracker.send_interest_response()?;
        tracker.spawn_pump();
        Ok(tracker)
    }

    /// The availability view (clone shares state; read it any time).
    pub fn view(&self) -> AvailabilityView {
        self.inner.view.clone()
    }

    /// The discovered trace topic.
    pub fn trace_topic(&self) -> Uuid {
        self.inner.trace_topic
    }

    /// The tracker identifier.
    pub fn id(&self) -> &str {
        &self.inner.id
    }

    /// Traces applied so far.
    pub fn traces_applied(&self) -> u64 {
        self.inner.metrics.traces_applied.get()
    }

    /// Token-rejected message count.
    pub fn rejected_tokens(&self) -> u64 {
        self.inner.metrics.rejected_tokens.get()
    }

    /// Interest responses sent.
    pub fn interest_responses(&self) -> u64 {
        self.inner.metrics.interest_responses.get()
    }

    /// Captures every `tracker.*` metric of this tracker.
    pub fn metrics_snapshot(&self) -> Snapshot {
        self.inner.metrics.registry.snapshot()
    }

    /// This tracker's causal-tracing flight recorder (terminal
    /// apply/reject spans for sampled traces).
    pub fn flight_recorder(&self) -> &FlightRecorder {
        &self.inner.recorder
    }

    /// Whether the sealed trace key has arrived (secured tracing).
    pub fn has_trace_key(&self) -> bool {
        self.inner.trace_key.lock().is_some()
    }

    /// Whether at least one trace session key has been delivered
    /// (amortized-RSA tagging).
    pub fn has_session_key(&self) -> bool {
        !self.inner.sessions.is_empty()
    }

    /// Traces authenticated by a session MAC (no RSA on the hot path).
    pub fn session_verified(&self) -> u64 {
        self.inner.metrics.session_verified.get()
    }

    /// What recovery found on start-up, when this tracker is durable.
    pub fn recovery(&self) -> Option<Recovery> {
        self.inner.recovery.clone()
    }

    /// Stops the pump.
    pub fn stop(&self) {
        self.inner.stop.store(true, Ordering::SeqCst);
    }

    /// Convenience: blocks until the tracked entity reaches `want`, or
    /// the timeout elapses.
    ///
    /// Event-driven: rides [`AvailabilityView::wait_for_status`]'s
    /// condition variable, waking exactly when the pump applies a
    /// trace — the 5 ms sleep-poll this used to be would add up to one
    /// poll interval of latency to every status assertion.
    ///
    /// [`AvailabilityView::wait_for_status`]: crate::view::AvailabilityView::wait_for_status
    pub fn wait_for_status(
        &self,
        want: crate::view::EntityStatus,
        timeout: Duration,
    ) -> bool {
        self.inner
            .view
            .wait_for_status(&self.inner.entity_id, want, timeout)
    }

    fn send_interest_response(&self) -> Result<()> {
        send_interest_response(&self.inner)
    }

    fn spawn_pump(&self) {
        let inner = Arc::clone(&self.inner);
        std::thread::Builder::new()
            .name(format!("tracker-{}-pump", inner.id))
            .spawn(move || loop {
                if inner.stop.load(Ordering::SeqCst) {
                    return;
                }
                let msg = match inner.client.next_message(Duration::from_millis(50)) {
                    Ok(m) => m,
                    Err(nb_broker::BrokerError::Timeout) => continue,
                    Err(nb_broker::BrokerError::Transport(
                        nb_transport::TransportError::Timeout,
                    )) => continue,
                    Err(_) => return,
                };
                handle_message(&inner, msg);
            })
            .expect("spawn tracker pump");
    }
}

fn discover_advertisement(
    tdns: &TdnCluster,
    entity_id: &str,
    credential: &Credential,
) -> Result<TopicAdvertisement> {
    let adverts = tdns.discover(
        &topics::discovery_query(entity_id),
        &credential.certificate,
    );
    // Verify TDN provenance; prefer the newest advertisement (a
    // compromised topic may have been replaced, §5.2).
    let mut best: Option<TopicAdvertisement> = None;
    for advert in adverts {
        let Some(key) = tdns.tdn_key(&advert.tdn_id) else {
            continue;
        };
        if advert.verify(&key).is_err() {
            continue;
        }
        match &best {
            Some(b) if b.created_ms >= advert.created_ms => {}
            _ => best = Some(advert),
        }
    }
    best.ok_or_else(|| TracingError::TopicNotFound(entity_id.to_string()))
}

/// §4.1/§5.2: only accept broker publications carrying a token signed
/// by the topic owner.
fn token_valid(inner: &TrackerInner, msg: &Message) -> bool {
    let Some(token) = &msg.token else {
        return false;
    };
    token
        .verify(
            &inner.owner_key,
            Rights::Publish,
            inner.clock.now_ms(),
            inner.config.token_skew_ms,
        )
        .is_ok()
}

/// Whether a trace publication is admissible: a valid session MAC
/// under a delivered key (one HMAC, the amortized-RSA hot path), or —
/// for untagged frames and unknown/expired key ids — the full §4.1
/// RSA token check. Revoked keys, wrong-topic keys and bad MACs are
/// security events: the frame is rejected outright, token or not.
fn frame_authorized(inner: &TrackerInner, msg: &Message) -> bool {
    if let Some(tag) = &msg.session {
        if !inner.sessions.is_empty() {
            let signable = msg.signable_bytes();
            match inner.sessions.verify(
                tag.key_id,
                tag.seq,
                Some(&inner.trace_topic),
                inner.clock.now_ms(),
                &[&signable],
                &tag.mac,
            ) {
                SessionVerdict::Verified => {
                    inner.metrics.session_verified.inc();
                    return true;
                }
                // The issuer rotated ahead of us (or the key lapsed):
                // fall back to the RSA token path below.
                SessionVerdict::UnknownKey | SessionVerdict::Expired => {}
                SessionVerdict::Revoked
                | SessionVerdict::WrongTopic
                | SessionVerdict::BadMac => {
                    inner.metrics.session_rejected.inc();
                    return false;
                }
            }
        }
    }
    if token_valid(inner, msg) {
        true
    } else {
        inner.metrics.rejected_tokens.inc();
        false
    }
}

/// Records a terminal tracker span when the message rode a sampled
/// trace.
fn record_span(inner: &TrackerInner, ctx: Option<&TraceContext>, stage: Stage, t0: u64) {
    if let Some(ctx) = ctx {
        inner.recorder.record(SpanEvent::new(ctx, stage, t0, now_ns()));
    }
}

fn handle_message(inner: &Arc<TrackerInner>, msg: Message) {
    let traced = if inner.config.telemetry.enabled {
        msg.trace.filter(|c| c.sampled)
    } else {
        None
    };
    let t0 = if traced.is_some() { now_ns() } else { 0 };
    match &msg.payload {
        Payload::GaugeInterestRequest { .. } => {
            // §5.1: "Interested trackers, after confirming the validity
            // of the security token, then respond…"
            if !token_valid(inner, &msg) {
                inner.metrics.rejected_tokens.inc();
                return;
            }
            let _ = send_interest_response(inner);
        }
        Payload::TraceKeyDelivery { sealed } => {
            if !token_valid(inner, &msg) {
                inner.metrics.rejected_tokens.inc();
                return;
            }
            if let Ok(bytes) = sealed.open(&inner.credential.private_key) {
                if let Ok(material) = TraceKeyMaterial::from_bytes(&bytes) {
                    if let Ok(mode) = material.mode() {
                        *inner.trace_key.lock() = Some((material.key, mode));
                    }
                }
            }
        }
        Payload::SessionKeyDelivery { sealed } => {
            if !token_valid(inner, &msg) {
                inner.metrics.rejected_tokens.inc();
                return;
            }
            if let Ok(bytes) = sealed.open(&inner.credential.private_key) {
                if let Ok(key) = SessionKey::from_bytes(&bytes) {
                    // Only keys bound to the tracked topic are
                    // admissible — anything else cannot authenticate
                    // our entity's traces anyway.
                    if key.topic == inner.trace_topic {
                        inner.sessions.install(key);
                    }
                }
            }
        }
        Payload::SessionKeyRevoke { key_id, topic } => {
            if !token_valid(inner, &msg) {
                inner.metrics.rejected_tokens.inc();
                return;
            }
            if *topic == inner.trace_topic {
                inner.sessions.revoke(*key_id);
            }
        }
        Payload::Trace { event } => {
            if !frame_authorized(inner, &msg) {
                record_span(inner, traced.as_ref(), Stage::TrackerReject, t0);
                return;
            }
            apply_event(inner, event.clone());
            record_span(inner, traced.as_ref(), Stage::TrackerApply, t0);
        }
        Payload::EncryptedTrace { iv, ciphertext } => {
            if !frame_authorized(inner, &msg) {
                record_span(inner, traced.as_ref(), Stage::TrackerReject, t0);
                return;
            }
            let key = inner.trace_key.lock().clone();
            let Some((key, mode)) = key else {
                inner.metrics.undecryptable.inc();
                record_span(inner, traced.as_ref(), Stage::TrackerReject, t0);
                return;
            };
            let decrypted = match mode {
                CipherMode::Cbc => cbc_decrypt(&key, iv, ciphertext),
                CipherMode::Ctr => ctr_transform(&key, iv, ciphertext),
            };
            match decrypted
                .ok()
                .and_then(|pt| TraceEvent::from_bytes(&pt).ok())
            {
                Some(event) => {
                    apply_event(inner, event);
                    record_span(inner, traced.as_ref(), Stage::TrackerApply, t0);
                }
                None => {
                    inner.metrics.undecryptable.inc();
                    record_span(inner, traced.as_ref(), Stage::TrackerReject, t0);
                }
            }
        }
        _ => {}
    }
}

fn apply_event(inner: &TrackerInner, event: TraceEvent) {
    // Cross-check the event is about the entity we track.
    if event.trace_topic != inner.trace_topic || event.entity_id != inner.entity_id {
        return;
    }
    // Journal only what the view accepted: stale re-deliveries never
    // reach the log, so replay after a crash applies each event
    // exactly once.
    if !inner.view.apply(&event) {
        return;
    }
    inner.metrics.traces_applied.inc();
    let mut guard = inner.persist.lock();
    if let Some(durable) = guard.as_mut() {
        if durable.record(&event).is_ok() && durable.should_checkpoint() {
            let _ = durable.checkpoint(&TrackerDurableState {
                view: inner.view.clone(),
            });
        }
    }
}

fn send_interest_response(inner: &Arc<TrackerInner>) -> Result<()> {
    let mut msg = inner.client.make_message(
        topics::interest_response(&inner.trace_topic),
        Payload::InterestResponse {
            credentials: inner.credential.certificate.clone(),
            interests: inner.interests.clone(),
            reply_topic: channels::key_delivery(&inner.id),
        },
    );
    msg.sign(&inner.credential)?;
    inner.client.send_message(&msg)?;
    inner.metrics.interest_responses.inc();
    Ok(())
}

impl std::fmt::Debug for Tracker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Tracker({} → {})",
            self.inner.id, self.inner.entity_id
        )
    }
}

//! [`MonitorSet`]: the online evaluator. One set holds the compiled
//! properties, the per-property state machines, the violation log and
//! the audit publisher; a single set is shared (via `Clone`) by every
//! broker and engine in a deployment so cross-node properties (such
//! as exactly-once) see the whole fabric.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use nb_crypto::{Credential, RsaPublicKey, Uuid};
use nb_metrics::{Counter, Histogram, Registry, Snapshot};
use nb_telemetry::SpanEvent;
use nb_wire::codec::{Decode, Reader, Writer};
use nb_wire::{
    AllowedActions, AuthorizationToken, ConstrainedTopic, Constrainer, Distribution, EventType,
    Message, Payload, Topic, TopicView,
};
use parking_lot::{Mutex, RwLock};

use crate::dsl::{PropertyKind, PropertySpec};
use crate::event::{DeliveryEvent, VerdictKind};

/// Callback the monitor hands signed audit messages to — typically
/// `Broker::publish_internal` on one broker of the deployment.
pub type AuditSink = Arc<dyn Fn(Message) + Send + Sync>;

/// The audit topic violations are published on:
/// `/Constrained/RealTime/Monitor/Publish-Only/Disseminate/Audit`.
/// Publish-Only with constrainer `Monitor` means only the monitor's
/// own client identity may publish here, while any auditor may
/// subscribe; `RealTime` keeps it outside the token-guarded `Traces`
/// class (audit reports authenticate by message signature instead).
pub fn audit_topic() -> Topic {
    ConstrainedTopic::new(
        EventType::RealTime,
        Constrainer::Entity("Monitor".to_string()),
        AllowedActions::PublishOnly,
        Distribution::Disseminate,
        vec!["Audit".to_string()],
    )
    .to_topic()
}

/// One property breach, as retained in the monitor's log and encoded
/// into the audit report payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Name of the property that fired.
    pub property: String,
    /// Node (broker/engine id) the violation was observed on.
    pub node: String,
    /// Topic the offending traffic was routed on (or the synthetic
    /// `/Entities/{id}` topic for verdict properties).
    pub topic: String,
    /// Human-readable description of the breach.
    pub detail: String,
    /// Wall-clock milliseconds when the breach was observed.
    pub timestamp_ms: u64,
    /// Monotonic sequence number within this monitor set.
    pub seq: u64,
}

impl Violation {
    /// Serializes the violation for the audit message payload.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_str(&self.property);
        w.put_str(&self.node);
        w.put_str(&self.topic);
        w.put_str(&self.detail);
        w.put_u64(self.timestamp_ms);
        w.put_u64(self.seq);
        w.into_bytes()
    }

    /// Decodes a violation from an audit message payload.
    ///
    /// # Errors
    ///
    /// Returns the wire error if the bytes do not parse.
    pub fn from_bytes(bytes: &[u8]) -> nb_wire::Result<Self> {
        let mut r = Reader::new(bytes);
        let v = Violation {
            property: r.get_str()?,
            node: r.get_str()?,
            topic: r.get_str()?,
            detail: r.get_str()?,
            timestamp_ms: r.get_u64()?,
            seq: r.get_u64()?,
        };
        r.expect_end("violation report")?;
        Ok(v)
    }
}

/// Dedup window for the exactly-once property. Bounded: the oldest
/// key is evicted once the window is full, so very old replays can in
/// principle escape — the bound trades that tail for O(1) memory.
struct DedupWindow {
    seen: HashSet<(String, String, u64)>,
    order: VecDeque<(String, String, u64)>,
    cap: usize,
}

impl DedupWindow {
    fn new(cap: usize) -> Self {
        DedupWindow {
            seen: HashSet::new(),
            order: VecDeque::new(),
            cap,
        }
    }

    /// Records a delivery; returns `true` if it was already seen.
    fn check_and_insert(&mut self, key: (String, String, u64)) -> bool {
        if self.seen.contains(&key) {
            return true;
        }
        if self.order.len() >= self.cap {
            if let Some(old) = self.order.pop_front() {
                self.seen.remove(&old);
            }
        }
        self.order.push_back(key.clone());
        self.seen.insert(key);
        false
    }
}

/// Ping bookkeeping for one `(engine node, entity)` session, backing
/// the causal-verdicts property.
#[derive(Default)]
struct PingLedger {
    /// Sequence numbers pinged but not yet answered.
    outstanding: HashSet<u64>,
    /// Insertion order of `outstanding`, for bounded eviction.
    order: VecDeque<u64>,
    /// When the most recent ping response was observed.
    answered_ms: Option<u64>,
    /// When the most recent FAILED verdict was rendered; a positive
    /// verdict needs a response observed *after* this.
    last_fail_ms: Option<u64>,
}

const LEDGER_OUTSTANDING_CAP: usize = 1024;
/// Violations kept in the log; older ones are dropped, and counted in
/// `monitor.violations.dropped`, so a tamper or replay flood cannot
/// grow the log without bound.
const VIOLATION_LOG_CAP: usize = 1024;
const DEDUP_WINDOW_CAP: usize = 8192;
const PREFILTER_SLOTS: usize = 256;
const PREFILTER_MASK_BITS: u64 = 0xFFFF;

struct MonitorMetrics {
    registry: Registry,
    events: Counter,
    violations: Counter,
    /// Violations evicted from the capped log.
    violations_dropped: Counter,
    audit_published: Counter,
    check_ns: Histogram,
}

struct SetInner {
    specs: Vec<PropertySpec>,
    /// Indices of specs by kind, so the hot path never scans
    /// non-delivery properties.
    verdict_specs: Vec<usize>,
    credential: Credential,
    /// Direct-mapped topic-hash → property-mask cache. Each slot packs
    /// the hash's high 48 bits as a tag with a 16-bit property mask
    /// (one bit per spec); 0 means empty. A tag mismatch or empty slot
    /// recomputes from the patterns — always correct, just slower.
    prefilter: [AtomicU64; PREFILTER_SLOTS],
    owner_keys: RwLock<HashMap<Uuid, RsaPublicKey>>,
    /// Session-key ids seen revoked: deliveries tagged under any of
    /// these breach a `require-session` property.
    revoked_sessions: RwLock<HashSet<u64>>,
    dedup: Mutex<DedupWindow>,
    ledgers: Mutex<HashMap<(String, String), PingLedger>>,
    /// The newest [`VIOLATION_LOG_CAP`] violations, oldest first.
    violations: Mutex<VecDeque<Violation>>,
    audit: RwLock<Option<AuditSink>>,
    metrics: MonitorMetrics,
    seq: AtomicU64,
    sample: AtomicU64,
}

/// A shared set of online monitors. Cheap to clone (all clones share
/// state); attach one set to every broker and engine of a deployment.
#[derive(Clone)]
pub struct MonitorSet {
    inner: Arc<SetInner>,
}

impl MonitorSet {
    /// Builds a monitor set over `specs`, signing audit reports with
    /// `credential`.
    ///
    /// # Panics
    ///
    /// Panics if `specs` exceeds [`crate::dsl::MAX_PROPERTIES`] (the
    /// DSL parser enforces the same cap with an error).
    pub fn new(specs: Vec<PropertySpec>, credential: Credential) -> Self {
        assert!(
            specs.len() <= crate::dsl::MAX_PROPERTIES,
            "monitor set capped at {} properties",
            crate::dsl::MAX_PROPERTIES
        );
        let registry = Registry::new();
        let metrics = MonitorMetrics {
            events: registry.counter("monitor.events"),
            violations: registry.counter("monitor.violations"),
            violations_dropped: registry.counter("monitor.violations.dropped"),
            audit_published: registry.counter("monitor.audit.published"),
            check_ns: registry.histogram("monitor.check_ns"),
            registry,
        };
        let verdict_specs = specs
            .iter()
            .enumerate()
            .filter(|(_, s)| s.kind == PropertyKind::CausalVerdicts)
            .map(|(i, _)| i)
            .collect();
        MonitorSet {
            inner: Arc::new(SetInner {
                specs,
                verdict_specs,
                credential,
                prefilter: [const { AtomicU64::new(0) }; PREFILTER_SLOTS],
                owner_keys: RwLock::new(HashMap::new()),
                revoked_sessions: RwLock::new(HashSet::new()),
                dedup: Mutex::new(DedupWindow::new(DEDUP_WINDOW_CAP)),
                ledgers: Mutex::new(HashMap::new()),
                violations: Mutex::new(VecDeque::new()),
                audit: RwLock::new(None),
                metrics,
                seq: AtomicU64::new(0),
                sample: AtomicU64::new(0),
            }),
        }
    }

    /// Registers a trace-topic owner's public key, enabling full
    /// signature verification of that topic's authorization tokens
    /// (mirrors `Broker::register_topic_owner`; unknown owners get
    /// window-only checks, like a transit broker).
    pub fn register_owner(&self, trace_topic: Uuid, key: RsaPublicKey) {
        self.inner.owner_keys.write().insert(trace_topic, key);
    }

    /// Records a session-key revocation: any later delivery tagged
    /// under `key_id` breaches the `require-session` properties
    /// governing its topic. Brokers keep this registry in sync via
    /// `Broker::revoke_session_key`; auditors can also feed it from
    /// signed `SessionKeyRevoke` broadcasts on the audit topic.
    pub fn revoke_session_key(&self, key_id: u64) {
        self.inner.revoked_sessions.write().insert(key_id);
    }

    /// Whether `key_id` has been revoked on this monitor.
    pub fn is_session_revoked(&self, key_id: u64) -> bool {
        self.inner.revoked_sessions.read().contains(&key_id)
    }

    /// Installs the audit publisher. Until a sink is set, violations
    /// are only logged and counted.
    pub fn set_audit_sink(&self, sink: AuditSink) {
        *self.inner.audit.write() = Some(sink);
    }

    /// The monitor's certificate — auditors verify audit-message
    /// signatures against its public key.
    pub fn certificate(&self) -> &nb_crypto::Certificate {
        &self.inner.credential.certificate
    }

    /// The newest violations observed, oldest first (a copy of the
    /// log, which keeps the latest 1,024).
    pub fn violations(&self) -> Vec<Violation> {
        self.inner.violations.lock().iter().cloned().collect()
    }

    /// Number of violations observed so far, the dropped ones included.
    pub fn violation_count(&self) -> u64 {
        self.inner.metrics.violations.get()
    }

    /// Snapshot of the `monitor.*` metrics family.
    pub fn metrics_snapshot(&self) -> Snapshot {
        self.inner.metrics.registry.snapshot()
    }

    /// Whether any delivery property governs `topic`. The broker
    /// resolves this once per route-cache fill and stores the verdict
    /// in the entry, so steady-state traffic on unmonitored topics
    /// never reaches [`MonitorSet::on_delivery`] at all.
    pub fn monitors_topic(&self, hash: u64, topic: &TopicView<'_>) -> bool {
        self.property_mask(hash, topic) != 0
    }

    /// Evaluates every matching delivery property against one routing
    /// decision. Called by the broker for each message it is about to
    /// deliver or forward on a topic that passed
    /// [`MonitorSet::monitors_topic`]; cheap when nothing matches — one
    /// counter bump and one atomic prefilter probe.
    pub fn on_delivery(&self, ev: &DeliveryEvent<'_>) {
        let inner = &*self.inner;
        inner.metrics.events.inc();
        let mask = self.property_mask(ev.topic_hash, ev.topic);
        if mask == 0 {
            // Unmonitored topic: the whole call cost one counter bump
            // and one prefilter probe.
            return;
        }
        // 1-in-64 sampled timing keeps the Instant syscalls off most
        // checked events while still populating monitor.check_ns.
        let sampled = inner.sample.fetch_add(1, Ordering::Relaxed) & 63 == 0;
        let t0 = sampled.then(Instant::now);
        for (i, spec) in inner.specs.iter().enumerate() {
            if mask & (1 << i) != 0 {
                self.check_delivery(spec, ev);
            }
        }
        if let Some(t0) = t0 {
            inner
                .metrics
                .check_ns
                .record(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
        }
    }

    /// Prefilter: which properties (bitmask) govern this topic.
    fn property_mask(&self, hash: u64, topic: &TopicView<'_>) -> u64 {
        let inner = &*self.inner;
        let slot = &inner.prefilter[(hash as usize) & (PREFILTER_SLOTS - 1)];
        let tag = hash & !PREFILTER_MASK_BITS;
        let packed = slot.load(Ordering::Relaxed);
        if packed != 0 && (packed & !PREFILTER_MASK_BITS) == tag {
            return packed & PREFILTER_MASK_BITS;
        }
        // Miss: recompute from the patterns (allocation-free — the
        // view matches filters in place) and publish the result. Races
        // just repeat the same idempotent computation.
        let mut mask = 0u64;
        for (i, spec) in inner.specs.iter().enumerate() {
            if spec.kind != PropertyKind::CausalVerdicts && topic.matches_filter(&spec.pattern) {
                mask |= 1 << i;
            }
        }
        slot.store(tag | mask, Ordering::Relaxed);
        mask
    }

    fn check_delivery(&self, spec: &PropertySpec, ev: &DeliveryEvent<'_>) {
        match spec.kind {
            PropertyKind::RequireToken => {
                // Session-tagged frames authenticate through the
                // broker's keyring (the MAC was verified before the
                // delivery was reported); their key state is audited
                // by `require-session`, so flagging the absent token
                // here would double-count one breach under two names.
                if ev.session.is_none() {
                    if let Some(detail) = self.token_verdict(ev.token, ev.now_ms) {
                        self.flag(spec, ev.node, ev.topic_path(), detail, ev.now_ms);
                    }
                }
            }
            PropertyKind::SessionAuth => {
                if let Some(tag) = &ev.session {
                    if self.inner.revoked_sessions.read().contains(&tag.key_id) {
                        self.flag(
                            spec,
                            ev.node,
                            ev.topic_path(),
                            format!(
                                "delivery attempt under revoked session key {:#018x} (seq {})",
                                tag.key_id, tag.seq
                            ),
                            ev.now_ms,
                        );
                    }
                }
            }
            PropertyKind::MaxHops {
                bound,
                require_trace,
            } => match ev.hop {
                None if require_trace => self.flag(
                    spec,
                    ev.node,
                    ev.topic_path(),
                    "trace/TTL section missing from a channel that requires one".to_string(),
                    ev.now_ms,
                ),
                Some(h) if h > bound => self.flag(
                    spec,
                    ev.node,
                    ev.topic_path(),
                    format!("hop count {h} exceeds the bound of {bound}"),
                    ev.now_ms,
                ),
                _ => {}
            },
            PropertyKind::ExactlyOnce => {
                let key = (ev.node.to_string(), ev.sender.to_string(), ev.msg_id);
                if self.inner.dedup.lock().check_and_insert(key) {
                    self.flag(
                        spec,
                        ev.node,
                        ev.topic_path(),
                        format!(
                            "duplicate delivery of message {} from sender {:?}",
                            ev.msg_id, ev.sender
                        ),
                        ev.now_ms,
                    );
                }
            }
            PropertyKind::CausalVerdicts => {}
        }
    }

    /// `None` = token admitted; `Some(detail)` = violation, by the
    /// brokers' own rule ([`AuthorizationToken::admits`]): an unknown
    /// owner means the window alone, as at a transit broker.
    fn token_verdict(&self, token: Option<&[u8]>, now_ms: u64) -> Option<String> {
        let token = match token.map(AuthorizationToken::from_bytes) {
            None => return Some("no authorization token attached".to_string()),
            Some(Err(e)) => return Some(format!("token would not decode: {e}")),
            Some(Ok(token)) => token,
        };
        let keys = self.inner.owner_keys.read();
        let owner = keys.get(&token.trace_topic);
        let verdict = token.admits(owner, now_ms);
        verdict
            .err()
            .map(|e| format!("token refused at {now_ms}: {e}"))
    }

    /// Records that engine `node` pinged `entity` with sequence `seq`.
    pub fn on_ping_sent(&self, node: &str, entity: &str, seq: u64, _now_ms: u64) {
        self.inner.metrics.events.inc();
        let mut ledgers = self.inner.ledgers.lock();
        let ledger = ledgers
            .entry((node.to_string(), entity.to_string()))
            .or_default();
        if ledger.order.len() >= LEDGER_OUTSTANDING_CAP {
            if let Some(old) = ledger.order.pop_front() {
                ledger.outstanding.remove(&old);
            }
        }
        if ledger.outstanding.insert(seq) {
            ledger.order.push_back(seq);
        }
    }

    /// Records that `entity` answered ping `seq` on engine `node`.
    pub fn on_ping_answered(&self, node: &str, entity: &str, seq: u64, now_ms: u64) {
        self.inner.metrics.events.inc();
        let mut ledgers = self.inner.ledgers.lock();
        let ledger = ledgers
            .entry((node.to_string(), entity.to_string()))
            .or_default();
        if ledger.outstanding.remove(&seq) {
            ledger.order.retain(|&s| s != seq);
        }
        ledger.answered_ms = Some(now_ms);
    }

    /// Checks an availability verdict for causal consistency with the
    /// recorded ping traffic: failure verdicts need an outstanding
    /// unanswered ping, positive verdicts need a response observed
    /// since the last FAILED verdict.
    pub fn on_verdict(&self, node: &str, entity: &str, verdict: VerdictKind, now_ms: u64) {
        let inner = &*self.inner;
        inner.metrics.events.inc();
        if inner.verdict_specs.is_empty() {
            return;
        }
        // Verdict properties match on the synthetic per-entity topic.
        let Ok(entity_topic) = Topic::from_segments(["Entities", entity]) else {
            return;
        };
        let breach: Option<String> = {
            let mut ledgers = inner.ledgers.lock();
            let ledger = ledgers
                .entry((node.to_string(), entity.to_string()))
                .or_default();
            match verdict {
                VerdictKind::Suspect | VerdictKind::Failed => {
                    let ok = !ledger.outstanding.is_empty();
                    if verdict == VerdictKind::Failed {
                        ledger.last_fail_ms = Some(now_ms);
                    }
                    (!ok).then(|| {
                        format!(
                            "{} verdict for {entity:?} with no outstanding unanswered ping",
                            verdict.as_str()
                        )
                    })
                }
                VerdictKind::AllsWell => {
                    // Non-consuming: one answered ping legitimately
                    // yields both a recovery and a heartbeat verdict.
                    let supported = match (ledger.answered_ms, ledger.last_fail_ms) {
                        (Some(ans), Some(fail)) => ans >= fail,
                        (Some(_), None) => true,
                        (None, _) => false,
                    };
                    (!supported).then(|| {
                        format!(
                            "AllsWell verdict for {entity:?} without a supporting ping response"
                        )
                    })
                }
            }
        };
        if let Some(detail) = breach {
            for &i in &inner.verdict_specs {
                let spec = &inner.specs[i];
                if entity_topic.matches_filter(&spec.pattern) {
                    self.flag(spec, node, entity_topic.to_string(), detail.clone(), now_ms);
                }
            }
        }
    }

    /// Offline sweep over captured flight-recorder spans: re-checks
    /// the hop/TTL bound of every `max-hops`/`require-ttl` property
    /// against the hops recorded in the telemetry stream, and flags
    /// spans whose clocks run backwards. Returns the number of
    /// violations flagged.
    pub fn check_spans(&self, node: &str, spans: &[SpanEvent]) -> usize {
        let inner = &*self.inner;
        let bounds: Vec<&PropertySpec> = inner
            .specs
            .iter()
            .filter(|s| matches!(s.kind, PropertyKind::MaxHops { .. }))
            .collect();
        let mut flagged = 0;
        for span in spans {
            inner.metrics.events.inc();
            if span.end_ns < span.start_ns {
                for spec in &bounds {
                    self.flag(
                        spec,
                        node,
                        format!("trace:{:032x}", span.trace_id),
                        format!(
                            "span {:016x} ends {}ns before it starts",
                            span.span_id,
                            span.start_ns - span.end_ns
                        ),
                        0,
                    );
                    flagged += 1;
                }
                continue;
            }
            for spec in &bounds {
                if let PropertyKind::MaxHops { bound, .. } = spec.kind {
                    if span.hop > bound {
                        self.flag(
                            spec,
                            node,
                            format!("trace:{:032x}", span.trace_id),
                            format!(
                                "recorded span hop {} exceeds the bound of {bound}",
                                span.hop
                            ),
                            0,
                        );
                        flagged += 1;
                    }
                }
            }
        }
        flagged
    }

    /// Records one violation: log, metrics, and (when a sink is
    /// attached) a signed audit report.
    fn flag(&self, spec: &PropertySpec, node: &str, topic: String, detail: String, now_ms: u64) {
        let inner = &*self.inner;
        let seq = inner.seq.fetch_add(1, Ordering::Relaxed);
        inner.metrics.violations.inc();
        inner
            .metrics
            .registry
            .counter(&format!("monitor.violations.{}", spec.name))
            .inc();
        let violation = Violation {
            property: spec.name.clone(),
            node: node.to_string(),
            topic,
            detail,
            timestamp_ms: now_ms,
            seq,
        };
        {
            let mut log = inner.violations.lock();
            if log.len() == VIOLATION_LOG_CAP {
                log.pop_front();
                inner.metrics.violations_dropped.inc();
            }
            log.push_back(violation.clone());
        }
        self.publish_audit(&violation);
    }

    fn publish_audit(&self, violation: &Violation) {
        let inner = &*self.inner;
        let sink = inner.audit.read().clone();
        let Some(sink) = sink else { return };
        let mut msg = Message::new(
            violation.seq + 1, // ids are per-sender; the monitor is its own sender
            audit_topic(),
            inner.credential.subject().to_string(),
            violation.timestamp_ms,
            Payload::Blob {
                data: violation.to_bytes(),
            },
        );
        if msg.sign(&inner.credential).is_ok() {
            sink(msg);
            inner.metrics.audit_published.inc();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nb_crypto::cert::{CertificateAuthority, Validity};
    use rand::SeedableRng;

    #[test]
    fn violation_log_keeps_the_newest_and_counts_the_rest() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x10c);
        let validity = Validity::starting_now(0, u64::MAX / 4);
        let mut ca = CertificateAuthority::new("ca", 512, validity, &mut rng).unwrap();
        let credential = ca.issue("Monitor", validity, &mut rng).unwrap();
        let specs = crate::dsl::parse_properties("causal: causal-verdicts on /Entities/#").unwrap();
        let monitor = MonitorSet::new(specs, credential);
        // A FAILED verdict with no ping outstanding breaches the
        // property every time.
        for now_ms in 0..2_000 {
            monitor.on_verdict("engine", "flooded", VerdictKind::Failed, now_ms);
        }
        let log = monitor.violations();
        assert_eq!(log.len(), VIOLATION_LOG_CAP);
        assert_eq!(log[0].timestamp_ms, 976, "the oldest kept is the 977th");
        assert_eq!(log[VIOLATION_LOG_CAP - 1].timestamp_ms, 1_999);
        let snapshot = monitor.metrics_snapshot();
        assert_eq!(snapshot.counter("monitor.violations.dropped"), Some(976));
        assert_eq!(monitor.violation_count(), 2_000);
    }
}

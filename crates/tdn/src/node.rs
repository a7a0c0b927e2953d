//! A single Topic Discovery Node.

use crate::persist::{TdnDurableState, TdnOp};
use crate::query::matches_descriptor;
use crate::Result;
use nb_crypto::cert::{Certificate, Credential};
use nb_crypto::digest::DigestAlgorithm;
use nb_crypto::rsa::RsaPublicKey;
use nb_crypto::{CryptoError, Uuid};
use nb_metrics::{Counter, Gauge, Histogram, Registry, Snapshot};
use nb_obs::{NodeKind, ObsSink, PublisherConfig, TelemetryPublisher};
use nb_store::{Durable, DurableState, Recovery, StoreConfig};
use nb_telemetry::{fresh_span_id, now_ns, FlightRecorder, SpanEvent, Stage, TraceContext};
use nb_transport::clock::SharedClock;
use nb_wire::payload::{DiscoveryRestrictions, TopicAdvertisement};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::fmt;
use std::path::Path;
use std::sync::Arc;

/// TDN errors.
#[derive(Debug)]
pub enum TdnError {
    /// The requester's certificate failed verification.
    BadCredentials(CryptoError),
    /// The advertisement's TDN signature failed verification.
    BadAdvertisement(&'static str),
    /// Replication received an advertisement from an unknown TDN.
    UnknownPeer(String),
}

impl fmt::Display for TdnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TdnError::BadCredentials(e) => write!(f, "bad credentials: {e}"),
            TdnError::BadAdvertisement(why) => write!(f, "bad advertisement: {why}"),
            TdnError::UnknownPeer(id) => write!(f, "unknown peer TDN: {id}"),
        }
    }
}

impl std::error::Error for TdnError {}

struct Store {
    adverts: HashMap<Uuid, TopicAdvertisement>,
    /// Public keys of peer TDNs (for verifying replicas).
    peer_keys: HashMap<String, RsaPublicKey>,
    /// Journal + mirror, when durability is enabled.
    persist: Option<PersistHandle>,
    /// What recovery found when storage was attached.
    recovery: Option<Recovery>,
}

/// The journal plus a mirror of the durable registry. The mirror is
/// what gets snapshotted; it stays in lock-step with `Store::adverts`
/// because every mutation runs [`Store::journal`] under the same lock.
struct PersistHandle {
    durable: Durable<TdnDurableState>,
    mirror: TdnDurableState,
}

impl Store {
    /// Journals one registry op (no-op when durability is off).
    fn journal(&mut self, op: TdnOp) {
        if let Some(p) = self.persist.as_mut() {
            if p.durable.record(&op).is_ok() {
                p.mirror.apply(op);
                let _ = p.durable.maybe_checkpoint(&p.mirror);
            }
        }
    }
}

/// Cached handles on a TDN's per-instance registry (`tdn.*` metric
/// family; see `docs/OBSERVABILITY.md`).
struct TdnMetrics {
    registry: Registry,
    topics_created: Counter,
    discovery_queries: Counter,
    discovery_denied: Counter,
    replicas_accepted: Counter,
    replicas_rejected: Counter,
    /// Age of an advertisement when its replica lands here — the
    /// cluster's replication lag.
    replication_lag_ms: Histogram,
    adverts: Gauge,
}

impl TdnMetrics {
    fn new() -> Self {
        let registry = Registry::new();
        TdnMetrics {
            topics_created: registry.counter("tdn.topics.created"),
            discovery_queries: registry.counter("tdn.discovery.queries"),
            discovery_denied: registry.counter("tdn.discovery.denied"),
            replicas_accepted: registry.counter("tdn.replicas.accepted"),
            replicas_rejected: registry.counter("tdn.replicas.rejected"),
            replication_lag_ms: registry.histogram("tdn.replication.lag_ms"),
            adverts: registry.gauge("tdn.adverts"),
            registry,
        }
    }
}

/// A Topic Discovery Node.
pub struct Tdn {
    id: String,
    credential: Credential,
    ca_key: RsaPublicKey,
    clock: SharedClock,
    store: Mutex<Store>,
    metrics: TdnMetrics,
    /// Causal-tracing span ring for the discovery control plane.
    /// TDN operations are rare (topic creation, discovery,
    /// replication), so they are always recorded, each as the root of
    /// its own one-span trace.
    recorder: FlightRecorder,
    rng: Mutex<StdRng>,
}

/// Ring capacity for the TDN control-plane recorder. Operations are
/// orders of magnitude rarer than data-plane messages.
const TDN_RECORDER_CAPACITY: usize = 1024;

impl Tdn {
    /// Creates a TDN with its own credential and the CA key used to
    /// validate requester certificates.
    pub fn new(
        id: impl Into<String>,
        credential: Credential,
        ca_key: RsaPublicKey,
        clock: SharedClock,
        seed: u64,
    ) -> Self {
        let id = id.into();
        let recorder = FlightRecorder::new(id.clone(), TDN_RECORDER_CAPACITY);
        Tdn {
            id,
            credential,
            ca_key,
            clock,
            store: Mutex::new(Store {
                adverts: HashMap::new(),
                peer_keys: HashMap::new(),
                persist: None,
                recovery: None,
            }),
            metrics: TdnMetrics::new(),
            recorder,
            rng: Mutex::new(StdRng::seed_from_u64(seed)),
        }
    }

    /// This TDN's causal-tracing flight recorder (one root span per
    /// create/discover/replicate operation).
    pub fn flight_recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// Records a control-plane operation as the single span of a fresh
    /// trace.
    fn record_op(&self, stage: Stage, start_ns: u64) {
        let ctx = TraceContext::root(fresh_span_id(), true);
        self.recorder
            .record(SpanEvent::new(&ctx, stage, start_ns, now_ns()));
    }

    /// This TDN's identifier.
    pub fn id(&self) -> &str {
        &self.id
    }

    /// The public key trackers use to verify this TDN's signatures.
    pub fn public_key(&self) -> RsaPublicKey {
        self.credential.certificate.public_key.clone()
    }

    /// Attaches durable storage under `dir` and recovers any registry
    /// a previous incarnation journalled there: recovered
    /// advertisements are installed (they carry their original TDN
    /// signatures, so provenance survives the restart) and the
    /// replication epoch resumes where it left off.
    ///
    /// Call before the node starts serving; mutations from then on are
    /// journalled to `dir/tdn.{wal,snap}`.
    pub fn persist_to(
        &self,
        dir: impl AsRef<Path>,
        cfg: StoreConfig,
    ) -> nb_store::Result<Recovery> {
        let (durable, state, recovery) =
            Durable::<TdnDurableState>::open(dir.as_ref(), "tdn", cfg)?;
        let mut store = self.store.lock();
        for (id, advert) in &state.adverts {
            store.adverts.insert(*id, advert.clone());
        }
        store.persist = Some(PersistHandle {
            durable,
            mirror: state,
        });
        store.recovery = Some(recovery.clone());
        Ok(recovery)
    }

    /// What recovery found when storage was attached, if it was.
    pub fn recovery(&self) -> Option<Recovery> {
        self.store.lock().recovery.clone()
    }

    /// The replication epoch: total advertisements this member has
    /// ever installed (survives restarts; `0` without storage).
    pub fn replication_epoch(&self) -> u64 {
        self.store
            .lock()
            .persist
            .as_ref()
            .map_or(0, |p| p.mirror.epoch)
    }

    /// Introduces a peer TDN (enables replica verification).
    pub fn add_peer(&self, peer_id: &str, key: RsaPublicKey) {
        self.store.lock().peer_keys.insert(peer_id.to_string(), key);
    }

    /// Handles a topic creation request (§3.1): verifies credentials,
    /// generates the UUID *here*, signs and stores the advertisement.
    pub fn create_topic(
        &self,
        credentials: &Certificate,
        descriptor: &str,
        restrictions: DiscoveryRestrictions,
        lifetime_ms: u64,
    ) -> Result<TopicAdvertisement> {
        let t0 = now_ns();
        let now = self.clock.now_ms();
        credentials
            .verify(&self.ca_key, now)
            .map_err(TdnError::BadCredentials)?;

        let topic_id = Uuid::new_v4(&mut *self.rng.lock());
        let mut advert = TopicAdvertisement {
            topic_id,
            descriptor: descriptor.to_string(),
            owner_cert: credentials.clone(),
            restrictions,
            created_ms: now,
            lifetime_ms,
            tdn_id: self.id.clone(),
            signature: Vec::new(),
        };
        advert.signature = self
            .credential
            .private_key
            .sign(DigestAlgorithm::Sha256, &advert.tbs_bytes())
            .map_err(TdnError::BadCredentials)?;
        {
            let mut store = self.store.lock();
            store.adverts.insert(advert.topic_id, advert.clone());
            store.journal(TdnOp::AdvertPut(Box::new(advert.clone())));
        }
        self.metrics.topics_created.inc();
        self.record_op(Stage::TdnCreate, t0);
        Ok(advert)
    }

    /// Accepts a replica from a peer TDN, verifying the peer's
    /// signature before storing.
    pub fn replicate(&self, advert: TopicAdvertisement) -> Result<()> {
        let t0 = now_ns();
        let peer_key = {
            let store = self.store.lock();
            store.peer_keys.get(&advert.tdn_id).cloned()
        };
        let key = match peer_key {
            Some(k) => k,
            None if advert.tdn_id == self.id => self.public_key(),
            None => {
                self.metrics.replicas_rejected.inc();
                return Err(TdnError::UnknownPeer(advert.tdn_id.clone()));
            }
        };
        if advert.verify(&key).is_err() {
            self.metrics.replicas_rejected.inc();
            return Err(TdnError::BadAdvertisement("signature"));
        }
        self.metrics
            .replication_lag_ms
            .record(self.clock.now_ms().saturating_sub(advert.created_ms));
        {
            let mut store = self.store.lock();
            store.adverts.insert(advert.topic_id, advert.clone());
            store.journal(TdnOp::AdvertPut(Box::new(advert)));
        }
        self.metrics.replicas_accepted.inc();
        self.record_op(Stage::TdnReplicate, t0);
        Ok(())
    }

    /// Evaluates a discovery query (§3.4). Unauthorized or
    /// badly-credentialed requests return an **empty** result — the
    /// paper's TDN silently ignores them rather than revealing that a
    /// matching topic exists.
    pub fn discover(&self, query: &str, credentials: &Certificate) -> Vec<TopicAdvertisement> {
        let t0 = now_ns();
        self.metrics.discovery_queries.inc();
        let now = self.clock.now_ms();
        let matches = if credentials.verify(&self.ca_key, now).is_err() {
            self.metrics.discovery_denied.inc();
            Vec::new()
        } else {
            let store = self.store.lock();
            store
                .adverts
                .values()
                .filter(|a| !a.is_expired(now))
                .filter(|a| matches_descriptor(query, &a.descriptor))
                .filter(|a| a.restrictions.permits(credentials))
                .cloned()
                .collect()
        };
        // Denied queries are recorded too — the span's duration shows
        // the cost of the (failed) certificate check.
        self.record_op(Stage::TdnDiscover, t0);
        matches
    }

    /// Looks up an advertisement by topic id (no restriction check —
    /// used by holders of the UUID itself, e.g. brokers validating
    /// ownership during registration).
    pub fn advertisement(&self, topic_id: &Uuid) -> Option<TopicAdvertisement> {
        self.store.lock().adverts.get(topic_id).cloned()
    }

    /// Removes expired advertisements; returns how many were purged.
    pub fn purge_expired(&self) -> usize {
        let now = self.clock.now_ms();
        let mut store = self.store.lock();
        let before = store.adverts.len();
        store.adverts.retain(|_, a| !a.is_expired(now));
        let purged = before - store.adverts.len();
        if purged > 0 {
            store.journal(TdnOp::Purge { now_ms: now });
        }
        purged
    }

    /// All stored advertisements (used by cluster resync).
    pub fn all_advertisements(&self) -> Vec<TopicAdvertisement> {
        self.store.lock().adverts.values().cloned().collect()
    }

    /// Number of stored advertisements.
    pub fn advert_count(&self) -> usize {
        self.store.lock().adverts.len()
    }

    /// Captures every `tdn.*` metric of this node (the advert-count
    /// gauge is sampled at call time).
    pub fn metrics_snapshot(&self) -> Snapshot {
        self.metrics.adverts.set(self.advert_count() as i64);
        self.metrics.registry.snapshot()
    }

    /// Builds this TDN's telemetry publisher. Unlike brokers and
    /// engines, a TDN holds no broker handle, so the caller supplies
    /// the `sink` that carries frames into the mesh (typically a
    /// broker's `publish_internal`).
    pub fn telemetry_publisher(
        self: &Arc<Self>,
        sink: ObsSink,
        config: PublisherConfig,
    ) -> TelemetryPublisher {
        let source = Arc::clone(self);
        TelemetryPublisher::new(
            self.id.clone(),
            NodeKind::Tdn,
            Arc::new(move || source.metrics_snapshot()),
            sink,
            self.clock.clone(),
            config,
        )
    }
}

impl fmt::Debug for Tdn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tdn({}, {} adverts)", self.id, self.advert_count())
    }
}

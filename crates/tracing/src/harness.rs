//! One-call deployments for tests, examples and benchmarks.
//!
//! A [`Deployment`] stands up the full stack the paper's experiments
//! need: a certificate authority, a replicated TDN cluster, a broker
//! topology over the simulated network and one tracing engine per
//! broker — then hands out traced entities and trackers attached to
//! chosen brokers.

use crate::config::{SigningMode, TracingConfig};
use crate::engine::{EngineSetup, TracingEngine};
use crate::entity::{EntityOptions, TracedEntity};
use crate::tracker::{Tracker, TrackerOptions};
use crate::Result;
use nb_broker::network::{BrokerNetwork, Medium};
use nb_broker::BrokerConfig;
use nb_crypto::cert::{CertificateAuthority, Credential, Validity};
use nb_crypto::rsa::RsaPublicKey;
use nb_monitor::MonitorSet;
use nb_obs::{AggregatorConfig, ClusterAggregator, PublisherConfig, TelemetryPublisher};
use nb_tdn::TdnCluster;
use nb_transport::clock::SharedClock;
use nb_transport::sim::LinkConfig;
use nb_wire::payload::DiscoveryRestrictions;
use nb_wire::trace::TraceCategory;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Credential validity used by deployments (effectively unbounded).
fn deployment_validity(now_ms: u64) -> Validity {
    Validity::starting_now(now_ms.saturating_sub(60_000), u64::MAX / 4)
}

/// Broker topology shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// `b0 — b1 — … — b(n-1)` (hop-count experiments, Figure 1).
    Chain(usize),
    /// Hub `b0` with `n` spokes (tracker-scaling experiments,
    /// Figure 3).
    Star(usize),
}

/// A complete running deployment. Dropping it stops its engines, then
/// shuts its brokers down (see [`BrokerNetwork`]).
pub struct Deployment {
    /// Time source shared by every component.
    pub clock: SharedClock,
    /// The broker topology.
    pub network: BrokerNetwork,
    /// One tracing engine per broker.
    pub engines: Vec<TracingEngine>,
    /// The replicated topic-discovery cluster.
    pub tdns: TdnCluster,
    ca: Mutex<CertificateAuthority>,
    ca_key: RsaPublicKey,
    config: TracingConfig,
    rng: Mutex<StdRng>,
    seed: AtomicU64,
    monitors: Mutex<Option<MonitorSet>>,
    telemetry: Mutex<Option<ClusterObs>>,
}

/// The deployment's telemetry plane: one signed
/// [`TelemetryPublisher`] per broker, engine and TDN, plus a
/// [`ClusterAggregator`] subscribed to the Obs topic at broker 0 that
/// authenticates every frame against the deployment's `Obs`
/// credential.
///
/// Cheap to clone (shared internals). Deterministic tests drive it by
/// hand — [`tick`][ClusterObs::tick] after advancing a `MockClock`
/// (or [`publish_all`][ClusterObs::publish_all]), then
/// [`pump`][ClusterObs::pump] to drain delivered frames into the
/// aggregator. System-clock deployments call
/// [`start`][ClusterObs::start] once, which runs both on one thread,
/// and read the aggregator at will.
#[derive(Clone)]
pub struct ClusterObs {
    inner: std::sync::Arc<ObsInner>,
}

struct ObsInner {
    publishers: Vec<TelemetryPublisher>,
    aggregator: ClusterAggregator,
    rx: crossbeam::channel::Receiver<nb_wire::Message>,
    key: RsaPublicKey,
    started: std::sync::atomic::AtomicBool,
}

impl ClusterObs {
    /// Every node's publisher (brokers, then engines, then TDNs).
    pub fn publishers(&self) -> &[TelemetryPublisher] {
        &self.inner.publishers
    }

    /// The mesh-fed cluster aggregator.
    pub fn aggregator(&self) -> &ClusterAggregator {
        &self.inner.aggregator
    }

    /// Public key of the `Obs` credential the publishers sign with.
    pub fn key(&self) -> RsaPublicKey {
        self.inner.key.clone()
    }

    /// Polls every publisher's clock-driven schedule; returns how many
    /// published.
    pub fn tick(&self) -> usize {
        self.inner.publishers.iter().filter(|p| p.tick()).count()
    }

    /// Forces a frame out of every publisher (ignoring cadence).
    pub fn publish_all(&self) {
        for p in &self.inner.publishers {
            p.publish_now();
        }
    }

    /// Drains frames already delivered to the aggregator's
    /// subscription into the aggregator; returns how many messages
    /// were consumed. Non-blocking.
    pub fn pump(&self) -> usize {
        let mut n = 0;
        while let Ok(msg) = self.inner.rx.try_recv() {
            self.inner.aggregator.ingest(&msg);
            n += 1;
        }
        n
    }

    /// Pumps until the aggregator has accepted at least `min` frames
    /// or `timeout` elapses (frames from remote brokers cross
    /// simulated links asynchronously); returns whether the target was
    /// reached.
    pub fn pump_until_accepted(&self, min: u64, timeout: std::time::Duration) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        loop {
            self.pump();
            let accepted = self
                .inner
                .aggregator
                .metrics_snapshot()
                .counter("obs.frames.accepted")
                .unwrap_or(0);
            if accepted >= min {
                return true;
            }
            if std::time::Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }

    /// Spawns the background plane for system-clock deployments: one
    /// thread, `obs-plane`, that ticks every publisher at a quarter of
    /// the shortest publish interval (1–250 ms) and, between ticks,
    /// feeds the aggregator each frame as it arrives. Idempotent; the
    /// thread exits once the last `ClusterObs` clone is dropped or
    /// broker 0 shuts down.
    pub fn start(&self) {
        if self
            .inner
            .started
            .swap(true, std::sync::atomic::Ordering::SeqCst)
        {
            return;
        }
        let publishers = self.inner.publishers.iter();
        let interval_ms = publishers.map(|p| p.interval_ms()).min().unwrap_or(1);
        let poll = std::time::Duration::from_millis((interval_ms / 4).clamp(1, 250));
        let weak = std::sync::Arc::downgrade(&self.inner);
        std::thread::Builder::new()
            .name("obs-plane".into())
            .spawn(move || loop {
                let Some(inner) = weak.upgrade() else { return };
                for p in &inner.publishers {
                    p.tick();
                }
                let due = std::time::Instant::now() + poll;
                while let Some(left) = due.checked_duration_since(std::time::Instant::now()) {
                    match inner.rx.recv_timeout(left) {
                        Ok(msg) => {
                            inner.aggregator.ingest(&msg);
                        }
                        Err(crossbeam::channel::RecvTimeoutError::Timeout) => break,
                        Err(crossbeam::channel::RecvTimeoutError::Disconnected) => return,
                    }
                }
            })
            .expect("spawn obs plane thread");
    }
}

impl Drop for Deployment {
    fn drop(&mut self) {
        for engine in &self.engines {
            engine.stop();
        }
    }
}

impl Deployment {
    /// Builds a deployment over simulated links with the given
    /// behaviour.
    pub fn new(
        topology: Topology,
        link: LinkConfig,
        clock: SharedClock,
        config: TracingConfig,
    ) -> Result<Self> {
        Self::over(topology, Medium::Sim(link), clock, config)
    }

    /// Builds a deployment over an explicit medium (simulated links,
    /// real TCP, or real UDP — the paper's §6.1 transport comparison).
    pub fn over(
        topology: Topology,
        medium: Medium,
        clock: SharedClock,
        config: TracingConfig,
    ) -> Result<Self> {
        let now = clock.now_ms();
        let validity = deployment_validity(now);
        let mut rng = StdRng::seed_from_u64(0xdeb1);
        let mut ca = CertificateAuthority::new("deployment-ca", config.rsa_bits, validity, &mut rng)?;
        let ca_key = ca.certificate().public_key.clone();

        let tdns = TdnCluster::new(3, &mut ca, validity, clock.clone(), &mut rng)?;
        let tdn_keys: HashMap<String, RsaPublicKey> = (0..tdns.len())
            .map(|i| {
                let node = tdns.node(i);
                (node.id().to_string(), node.public_key())
            })
            .collect();

        let broker_cfg = BrokerConfig {
            token_skew_ms: config.token_skew_ms,
            telemetry: config.telemetry.clone(),
            ..BrokerConfig::default()
        };
        let network = match topology {
            Topology::Chain(n) => BrokerNetwork::chain_over(n, medium, clock.clone(), broker_cfg)?,
            Topology::Star(leaves) => {
                BrokerNetwork::star_over(leaves, medium, clock.clone(), broker_cfg)?
            }
        };
        network.wait_for_mesh(std::time::Duration::from_secs(10));

        let mut engines = Vec::with_capacity(network.len());
        for (i, broker) in network.brokers.iter().enumerate() {
            let credential = ca.issue(&format!("broker:{}", broker.id()), validity, &mut rng)?;
            engines.push(TracingEngine::start(EngineSetup {
                broker: broker.clone(),
                credential,
                ca_key: ca_key.clone(),
                tdn_keys: tdn_keys.clone(),
                clock: clock.clone(),
                config: config.clone(),
                seed: 0xe71 + i as u64,
            }));
        }

        Ok(Deployment {
            clock,
            network,
            engines,
            tdns,
            ca: Mutex::new(ca),
            ca_key,
            config,
            rng: Mutex::new(rng),
            seed: AtomicU64::new(1),
            monitors: Mutex::new(None),
            telemetry: Mutex::new(None),
        })
    }

    /// Stands up the cluster telemetry plane (idempotent — later calls
    /// return the same handle).
    ///
    /// Issues one `Obs` credential, builds a signed
    /// [`TelemetryPublisher`] for every broker, engine and TDN (TDN
    /// frames enter the mesh through their index-matched broker), and
    /// subscribes a [`ClusterAggregator`] to the Obs topic at broker 0
    /// with signature verification required. Nothing publishes until
    /// the caller drives the handle ([`ClusterObs::tick`] /
    /// [`ClusterObs::publish_all`]) or starts the background plane
    /// ([`ClusterObs::start`]).
    pub fn telemetry(&self, config: PublisherConfig) -> Result<ClusterObs> {
        let mut slot = self.telemetry.lock();
        if let Some(existing) = &*slot {
            return Ok(existing.clone());
        }
        let credential = {
            let validity = deployment_validity(self.clock.now_ms());
            let mut rng = self.rng.lock();
            self.ca.lock().issue("Obs", validity, &mut *rng)?
        };
        let key = credential.certificate.public_key.clone();

        let mut publishers = Vec::new();
        for broker in &self.network.brokers {
            publishers.push(
                broker
                    .telemetry_publisher(config.clone())
                    .signed(credential.clone()),
            );
        }
        for engine in &self.engines {
            publishers.push(
                engine
                    .telemetry_publisher(config.clone())
                    .signed(credential.clone()),
            );
        }
        for i in 0..self.tdns.len() {
            let node = self.tdns.node(i);
            let carrier = self.network.brokers[i % self.network.brokers.len()].clone();
            publishers.push(
                node.telemetry_publisher(
                    std::sync::Arc::new(move |msg| carrier.publish_internal(msg)),
                    config.clone(),
                )
                .signed(credential.clone()),
            );
        }

        let aggregator = ClusterAggregator::new(AggregatorConfig::default());
        aggregator.require_signatures(key.clone());
        let home = &self.network.brokers[0];
        let consumer = format!("obs-aggregator@{}", home.id());
        let rx = home.register_internal(&consumer);
        home.subscribe_internal(&consumer, nb_obs::telemetry_topic())?;

        let obs = ClusterObs {
            inner: std::sync::Arc::new(ObsInner {
                publishers,
                aggregator,
                rx,
                key,
                started: std::sync::atomic::AtomicBool::new(false),
            }),
        };
        *slot = Some(obs.clone());
        Ok(obs)
    }

    /// Attaches online runtime-verification monitors to the whole
    /// deployment (idempotent — later calls return the same set).
    ///
    /// Builds the standard property set
    /// ([`nb_monitor::standard_properties`]) with the broker TTL
    /// bound, wires it into every broker's data plane and every
    /// engine's verdict path, and publishes signed violation reports
    /// on the audit topic ([`nb_monitor::audit_topic`]) through broker
    /// 0. The strict TTL-presence property is enabled only when
    /// telemetry is on (untraced publications are legitimate
    /// otherwise).
    pub fn monitors(&self) -> Result<MonitorSet> {
        let mut slot = self.monitors.lock();
        if let Some(existing) = &*slot {
            return Ok(existing.clone());
        }
        let credential = {
            let validity = deployment_validity(self.clock.now_ms());
            let mut rng = self.rng.lock();
            self.ca.lock().issue("Monitor", validity, &mut *rng)?
        };
        let specs = nb_monitor::standard_properties(
            BrokerConfig::default().max_hops,
            self.config.telemetry.enabled,
        );
        let monitor = MonitorSet::new(specs, credential, self.config.token_skew_ms);
        for broker in &self.network.brokers {
            broker.attach_monitor(monitor.clone());
        }
        for engine in &self.engines {
            engine.attach_monitor(monitor.clone());
        }
        let audit_broker = self.network.brokers[0].clone();
        monitor.set_audit_sink(std::sync::Arc::new(move |msg| {
            audit_broker.publish_internal(msg);
        }));
        *slot = Some(monitor.clone());
        Ok(monitor)
    }

    /// The CA's public key (trust anchor).
    pub fn ca_key(&self) -> RsaPublicKey {
        self.ca_key.clone()
    }

    /// The scheme configuration in force.
    pub fn config(&self) -> &TracingConfig {
        &self.config
    }

    /// Issues a credential for `subject`.
    pub fn issue(&self, subject: &str) -> Result<Credential> {
        let validity = deployment_validity(self.clock.now_ms());
        let mut rng = self.rng.lock();
        Ok(self.ca.lock().issue(subject, validity, &mut *rng)?)
    }

    /// The tracing engine at broker `idx`.
    pub fn engine(&self, idx: usize) -> &TracingEngine {
        &self.engines[idx]
    }

    /// Forces a scheduler pass on every engine (deterministic tests).
    pub fn tick_all(&self) {
        for engine in &self.engines {
            engine.tick_now();
        }
    }

    /// One merged metrics snapshot for the whole deployment: every
    /// broker's `broker.*` family and every engine's `tracing.*` family
    /// (each prefixed by the broker id), the TDN cluster's `tdn.*`
    /// families, and the process-wide [`nb_metrics::global`] registry
    /// (`crypto.*`, `token.*`, `transport.*`).
    pub fn metrics_snapshot(&self) -> nb_metrics::Snapshot {
        let mut merged = nb_metrics::global().snapshot();
        for broker in &self.network.brokers {
            merged = merged.merge(broker.metrics_snapshot().prefixed(broker.id()));
        }
        for (broker, engine) in self.network.brokers.iter().zip(&self.engines) {
            merged = merged.merge(engine.metrics_snapshot().prefixed(broker.id()));
        }
        merged = merged.merge(self.tdns.metrics_snapshot());
        if let Some(monitor) = &*self.monitors.lock() {
            merged = merged.merge(monitor.metrics_snapshot());
        }
        merged
    }

    /// Captures every flight recorder in the deployment — each
    /// broker's, each engine's (named `tracing-engine@<broker>`), and
    /// each TDN member's — ready for the `nb_telemetry` exporters.
    /// Entity and tracker recorders live on those handles; capture and
    /// append them separately if needed.
    pub fn telemetry_spans(&self) -> Vec<nb_telemetry::NodeSpans> {
        let mut spans = self.network.telemetry_spans();
        for engine in &self.engines {
            spans.push(nb_telemetry::NodeSpans::capture(engine.flight_recorder()));
        }
        spans.extend(self.tdns.telemetry_spans());
        spans
    }

    /// Starts a traced entity attached to broker `idx`.
    pub fn traced_entity(
        &self,
        idx: usize,
        entity_id: &str,
        restrictions: DiscoveryRestrictions,
        signing_mode: SigningMode,
        secured: bool,
    ) -> Result<TracedEntity> {
        let credential = self.issue(&format!("entity:{entity_id}"))?;
        let client = self.network.attach_client(idx, entity_id)?;
        let broker_key = self.engines[idx].public_key();
        TracedEntity::start(
            client,
            &self.tdns,
            self.clock.clone(),
            EntityOptions {
                entity_id: entity_id.to_string(),
                credential,
                broker_key,
                restrictions,
                topic_lifetime_ms: 0,
                signing_mode,
                secured,
                config: self.config.clone(),
                seed: self.seed.fetch_add(1, Ordering::Relaxed) * 7919,
            },
        )
    }

    /// Starts a tracker attached to broker `idx`, tracking
    /// `entity_id` with the given category interests.
    pub fn tracker(
        &self,
        idx: usize,
        tracker_id: &str,
        entity_id: &str,
        interests: Vec<TraceCategory>,
    ) -> Result<Tracker> {
        self.tracker_with_dir(idx, tracker_id, entity_id, interests, None)
    }

    /// Like [`Deployment::tracker`] but durable: with `data_dir` set
    /// the tracker journals applied traces there and recovers its
    /// availability view when restarted over the same directory
    /// (kill-and-restart recovery tests).
    pub fn tracker_with_dir(
        &self,
        idx: usize,
        tracker_id: &str,
        entity_id: &str,
        interests: Vec<TraceCategory>,
        data_dir: Option<std::path::PathBuf>,
    ) -> Result<Tracker> {
        let credential = self.issue(&format!("tracker:{tracker_id}"))?;
        let client = self.network.attach_client(idx, tracker_id)?;
        Tracker::start(
            client,
            &self.tdns,
            self.clock.clone(),
            entity_id,
            TrackerOptions {
                tracker_id: tracker_id.to_string(),
                credential,
                interests,
                config: self.config.clone(),
                data_dir,
                store: nb_store::StoreConfig::default(),
            },
        )
    }
}

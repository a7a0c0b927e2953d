//! # entity-tracing
//!
//! A from-scratch Rust reproduction of *"A Scalable Approach for the
//! Secure and Authorized Tracking of the Availability of Entities in
//! Distributed Systems"* (Pallickara, Ekanayake & Fox, IPPS 2007),
//! including every substrate the scheme depends on: a
//! NaradaBrokering-style publish/subscribe broker network, Topic
//! Discovery Nodes, transport abstraction (simulated / TCP / UDP) and
//! a complete cryptography stack (RSA, SHA-1/SHA-256, HMAC, AES,
//! certificates).
//!
//! ## Quick start
//!
//! ```no_run
//! use entity_tracing::prelude::*;
//! use std::time::Duration;
//!
//! // A 2-broker deployment over simulated ~1.5 ms links.
//! let deployment = Deployment::new(
//!     Topology::Chain(2),
//!     LinkConfig::default(),
//!     system_clock(),
//!     TracingConfig::default(),
//! )
//! .unwrap();
//!
//! // An entity asks to be traced…
//! let entity = deployment
//!     .traced_entity(
//!         0,
//!         "web-service",
//!         DiscoveryRestrictions::Open,
//!         SigningMode::RsaSign,
//!         false,
//!     )
//!     .unwrap();
//!
//! // …and a tracker on the other broker watches it.
//! let tracker = deployment
//!     .tracker(
//!         1,
//!         "ops-console",
//!         "web-service",
//!         vec![TraceCategory::ChangeNotifications, TraceCategory::AllUpdates],
//!     )
//!     .unwrap();
//!
//! std::thread::sleep(Duration::from_millis(500));
//! println!("status: {:?}", tracker.view().status("web-service"));
//! # let _ = entity;
//! ```
//!
//! ## Observability
//!
//! Every layer is instrumented with the zero-dependency [`metrics`]
//! crate. A running [`prelude::Deployment`] merges all of it into one
//! snapshot (see `docs/OBSERVABILITY.md` for the metric catalogue):
//!
//! ```
//! use entity_tracing::metrics::Registry;
//!
//! let registry = Registry::new();
//! registry.counter("demo.events").add(3);
//! let snapshot = registry.snapshot();
//! assert_eq!(snapshot.counter("demo.events"), Some(3));
//! println!("{}", snapshot.to_table());
//! ```
//!
//! Beyond aggregate metrics, the [`telemetry`] crate traces individual
//! messages causally: an optional wire-level
//! [`TraceContext`](telemetry::TraceContext) propagates hop to hop,
//! every component records per-stage spans into a lock-free flight
//! recorder, and `Deployment::telemetry_spans()` collects them for the
//! JSON-lines / Chrome `trace_event` exporters (see the "Causal
//! tracing" section of `docs/OBSERVABILITY.md`).
//!
//! ## Fault tolerance
//!
//! Broker links ride out a transient outage the way TCP does: frames
//! wait in order and arrive once the path heals, and a link that
//! resets ends, withdrawing the interest it carried. The simulated
//! network scripts both — `drop_link` holds a link's frames until
//! `restore`, and closing a sender resets its link — alongside `flaky`
//! and `partition` (see the "Fault tolerance" section of
//! `docs/ARCHITECTURE.md`).
//!
//! See the crate-level documentation of the member crates for each
//! subsystem: [`nb_crypto`], [`nb_wire`], [`nb_transport`],
//! [`nb_broker`], [`nb_tdn`], [`nb_tracing`], [`nb_baseline`],
//! [`nb_metrics`], [`nb_telemetry`], [`nb_obs`], [`nb_store`].

pub use nb_baseline as baseline;
pub use nb_broker as broker;
pub use nb_crypto as crypto;
pub use nb_metrics as metrics;
pub use nb_obs as obs;
pub use nb_store as store;
pub use nb_tdn as tdn;
pub use nb_telemetry as telemetry;
pub use nb_tracing as tracing;
pub use nb_transport as transport;
pub use nb_wire as wire;

/// The most commonly used types, re-exported flat.
pub mod prelude {
    pub use nb_broker::{Broker, BrokerClient, BrokerConfig};
    pub use nb_crypto::cert::{CertificateAuthority, Credential, Validity};
    pub use nb_crypto::Uuid;
    pub use nb_metrics::{Registry, Snapshot};
    pub use nb_obs::{ClusterAggregator, PublisherConfig, TelemetryPublisher};
    pub use nb_store::{Durable, DurableState, FsyncPolicy, Recovery, StoreConfig, TempDir};
    pub use nb_tdn::TdnCluster;
    pub use nb_telemetry::{TelemetryConfig, TraceContext};
    pub use nb_tracing::config::{SigningMode, TracingConfig};
    pub use nb_tracing::harness::{ClusterObs, Deployment, Topology};
    pub use nb_tracing::view::{AvailabilityView, EntityStatus};
    pub use nb_tracing::{TracedEntity, Tracker, TracingEngine};
    pub use nb_transport::clock::{system_clock, Clock, MockClock, SystemClock};
    pub use nb_transport::sim::{LinkConfig, LinkId, SimNetwork};
    pub use nb_wire::payload::DiscoveryRestrictions;
    pub use nb_wire::trace::{EntityState, LoadInformation, TraceCategory};
    pub use nb_wire::{Message, Payload, Topic};
}

//! # nb-broker — the publish/subscribe broker network
//!
//! A NaradaBrokering-style distributed message-oriented middleware
//! (paper §2): cooperating broker nodes route topic-addressed messages
//! from producers to exactly the consumers that registered interest.
//! Entities attach to one broker and funnel all their traffic through
//! it; brokers propagate subscription interest to their neighbours and
//! forward content along links with matching interest.
//!
//! On top of plain routing this crate enforces the paper's security
//! machinery at the substrate level:
//!
//! * **constrained topics** (§3.1): publish/subscribe attempts by
//!   non-constrainers are refused,
//! * **authorization tokens** (§4.3/§5.2): broker-published traces on
//!   `Publish-Only` trace topics must carry a token; messages arriving
//!   from neighbours without one are discarded and never routed,
//! * **DoS containment** (§5.2): clients making repeated bogus
//!   attempts are disconnected.
//!
//! Topology note: subscription propagation assumes an acyclic broker
//! mesh (chains, stars, trees — the shapes used in the paper's
//! benchmarks). Cycles would need a spanning-tree protocol, which the
//! paper does not describe; as a backstop, messages carrying a causal
//! trace context are TTL-checked against `nb_telemetry::MAX_HOPS`, so
//! an accidental loop drops traffic (counted in
//! `broker.drop.ttl_exceeded`) instead of amplifying it forever.
//!
//! Routing is also instrumented for causal tracing: brokers record
//! auth/route/deliver/enqueue/forward spans for sampled messages into
//! a per-instance `nb_telemetry::FlightRecorder` (see
//! `docs/OBSERVABILITY.md`, "Causal tracing").

pub mod client;
pub mod error;
pub mod network;
pub mod node;
pub mod persist;
mod route;
pub mod subscription;

pub use client::BrokerClient;
pub use error::BrokerError;
pub use node::{Broker, BrokerConfig, BOGUS_ATTEMPT_LIMIT};
pub use subscription::SubscriptionTable;

/// The constrained topic session control travels on: client attach,
/// subscribe and unsubscribe with their replies, and the neighbour
/// handshake and adverts.
pub const CONTROL_TOPIC: &str = "/Constrained/RealTime/Broker/PublishSubscribe/Control";

/// [`CONTROL_TOPIC`], parsed.
pub fn control_topic() -> nb_wire::Topic {
    nb_wire::Topic::parse(CONTROL_TOPIC).expect("the control topic is well formed")
}

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, BrokerError>;

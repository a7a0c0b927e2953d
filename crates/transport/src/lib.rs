//! # nb-transport — transport independence layer
//!
//! The paper's scheme is explicitly *transport independent*: entities
//! never deal with the underlying protocol, the broker substrate does.
//! This crate provides that substrate's link layer:
//!
//! * [`endpoint::Endpoint`] — a bidirectional, framed, thread-safe
//!   link half, identical across transports,
//! * [`sim`] — a deterministic in-process network with configurable
//!   per-link latency, jitter, loss and duplication (used to reproduce
//!   the paper's 1–2 ms per-hop cluster links), and scripted outages
//!   that hold frames as a TCP connection does,
//! * [`tcp`] / [`udp`] — real socket transports over the loopback or a
//!   LAN (the two transports benchmarked in §6.1),
//! * [`metrics`] — RTT and loss estimators feeding the
//!   NETWORK_METRICS traces,
//! * [`clock`] — an injectable clock so failure detection and token
//!   expiry are deterministically testable.

pub mod clock;
pub mod endpoint;
pub mod error;
mod instrument;
pub mod metrics;
pub mod sim;
pub mod tcp;
pub mod udp;

pub use clock::{Clock, MockClock, SystemClock};
pub use endpoint::Endpoint;
pub use error::TransportError;
pub use sim::{LinkConfig, LinkId, SimNetwork};

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, TransportError>;

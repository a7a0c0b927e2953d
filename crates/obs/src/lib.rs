//! # nb-obs — the cluster telemetry plane
//!
//! Every observability layer before this one (`nb-metrics` snapshots,
//! `nb-telemetry` spans, `nb-monitor` properties) is per-process:
//! `Deployment::metrics_snapshot()` only works when every broker lives
//! in one address space. This crate makes the metrics travel: each
//! node of a deployment — broker, tracing engine, TDN — runs a
//! [`TelemetryPublisher`] that periodically snapshots its registries,
//! computes the delta against its previous snapshot
//! ([`nb_metrics::Snapshot::delta`]), and publishes the changed
//! entries with a heartbeat sequence number on the constrained topic
//!
//! ```text
//! /Constrained/RealTime/Obs/Publish-Only/Disseminate/Telemetry
//! ```
//!
//! Publish-Only with constrainer `Obs` means only the telemetry
//! plane's own identity may publish there (nodes inject through their
//! broker's internal publisher; an ordinary client attempting it is
//! refused by the constraint layer and counted in
//! `broker.reject.constraint`), while any operator may subscribe.
//!
//! A [`ClusterAggregator`] subscribes anywhere in the mesh and
//! rebuilds the cluster view: per-node ring-buffered time series with
//! windowed rates, cluster rollups (sums/merges across nodes per
//! metric family), and a health scoreboard (up / degraded / down from
//! heartbeat staleness, with flap tracking). The view is exposed as a
//! Prometheus text page ([`prometheus_text`]), a JSON document
//! ([`json_export`]), the `obs_report` bench (`BENCH_obs.json`) and
//! the `cluster_top` example (a live terminal table).
//!
//! ## Frame model
//!
//! Frames are *self-describing and loss-tolerant*: every frame carries
//! cumulative values (not bare deltas) for the entries that changed
//! since the previous publish, and every `full_every`-th frame is a
//! keyframe carrying the complete snapshot. The aggregator
//! deduplicates by sequence number, detects gaps, and converges on the
//! exact per-node counters as soon as one keyframe lands after an
//! outage — which is what makes reconstruction exact through a flaky
//! link (proven in `crates/broker/tests/obs_plane.rs`).
//!
//! The publish cadence is driven by the injected clock
//! ([`nb_transport::clock::Ticker`]), so under a `MockClock` the whole
//! plane — sequence numbers, heartbeat staleness, rates — is
//! deterministic in tests.

mod aggregator;
mod expo;
mod frame;
mod publisher;

pub use aggregator::{ClusterAggregator, HealthState, NodeHealth, WindowDelta};
pub use expo::{json_export, prometheus_text};
pub use frame::{NodeKind, TelemetryFrame, FRAME_VERSION};
pub use publisher::{ObsSink, PublisherConfig, SnapshotFn, TelemetryPublisher};

use nb_wire::{AllowedActions, ConstrainedTopic, Constrainer, Distribution, EventType, Topic};

/// The constrained topic telemetry frames are published on:
/// `/Constrained/RealTime/Obs/Publish-Only/Disseminate/Telemetry`.
///
/// Publish-Only with constrainer `Obs` restricts publishing to the
/// telemetry plane's own identity (nodes publish through their
/// broker's internal origin, which carries broker authority); any
/// operator may subscribe. `RealTime` keeps the family outside the
/// token-guarded `Traces` class — frames authenticate by message
/// signature against the plane's credential instead.
pub fn telemetry_topic() -> Topic {
    ConstrainedTopic::new(
        EventType::RealTime,
        Constrainer::Entity("Obs".to_string()),
        AllowedActions::PublishOnly,
        Distribution::Disseminate,
        vec!["Telemetry".to_string()],
    )
    .to_topic()
}

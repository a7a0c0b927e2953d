//! A traced entity stays trackable past its delegation token's
//! lifetime. The token lives `TOKEN_LIFETIME_MS` (60 s); the hosting
//! broker admits the engine's gauge probes, key deliveries and
//! unkeyed traces only under a live token, so an entity that never
//! refreshed it went dark about 60 s after registration. The entity's
//! pump now sends a fresh token once the current one passes half its
//! life (§4.3: refresh "once a token is closer to expiration").
//!
//! Virtual time: a mock clock moves in 5 s steps to t = 100 s, and
//! each step reports a new load that the tracker must apply.

use nb_tracing::config::{SigningMode, TracingConfig, TOKEN_LIFETIME_MS};
use nb_tracing::harness::{Deployment, Topology};
use nb_transport::clock::{Clock, MockClock};
use nb_transport::sim::LinkConfig;
use nb_wire::payload::DiscoveryRestrictions;
use nb_wire::trace::{LoadInformation, TraceCategory};
use std::sync::Arc;
use std::time::{Duration, Instant};

const START: u64 = 1_700_000_000_000;
const STEP_MS: u64 = 5_000;
const WAIT: Duration = Duration::from_secs(10);

fn wait_until(timeout: Duration, mut pred: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if pred() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    false
}

#[test]
fn loads_reach_the_tracker_long_after_the_first_token_lapses() {
    let clock = MockClock::new(START);
    let config = TracingConfig {
        session_keys: true,
        ..TracingConfig::for_tests()
    };
    let shared: Arc<dyn Clock> = Arc::new(clock.clone());
    let dep = Deployment::new(Topology::Chain(1), LinkConfig::instant(), shared, config).unwrap();
    let entity = dep
        .traced_entity(
            0,
            "long-lived",
            DiscoveryRestrictions::Open,
            SigningMode::SymmetricKey,
            true,
        )
        .unwrap();
    let tracker = dep
        .tracker(0, "long-watch", "long-lived", vec![TraceCategory::Load])
        .unwrap();
    dep.tick_all();
    assert!(
        wait_until(WAIT, || tracker.has_trace_key()),
        "the tracker never got the trace key"
    );

    let mut elapsed_ms = 0;
    let mut workload = 0;
    while elapsed_ms <= 100_000 {
        // The engine gauges interest on this tick and expires trackers
        // silent for four gauge intervals, so the tracker's interest
        // holds only if this step's probe reaches it.
        dep.tick_all();
        let interested = wait_until(WAIT, || dep.engine(0).interest_count("long-lived") > 0);
        workload += 1;
        entity
            .report_load(LoadInformation {
                cpu_percent: 10.0,
                memory_used_bytes: 1 << 20,
                memory_total_bytes: 1 << 30,
                workload,
            })
            .unwrap();
        let applied = wait_until(WAIT, || {
            tracker
                .view()
                .get("long-lived")
                .and_then(|r| r.load)
                .is_some_and(|l| l.workload == workload)
        });
        assert!(
            interested && applied,
            "load {workload} did not reach the tracker at t = {} s (token lifetime {} s)",
            elapsed_ms / 1000,
            TOKEN_LIFETIME_MS / 1000,
        );
        clock.advance(STEP_MS);
        elapsed_ms += STEP_MS;
    }
}

//! A dropped broker network frees what it built: on every medium its
//! threads exit and its heap goes back, and so does a deployment built
//! on one.
//!
//! Each case builds a stack and drops it five times. After each drop
//! the process's thread count (`/proc/self/task`) must be back at its
//! value before the first build within 2 s, and the live heap after the
//! fifth round must be within 64 KB of the live heap after the first.
//! The first round pays for process-wide state built once (metric
//! registries, thread-locals), so the rounds after it compare like with
//! like. A counting global allocator tracks live bytes; everything runs
//! in one test function, so no other test's threads or allocations
//! interleave.

use nb_broker::network::{BrokerNetwork, Medium};
use nb_broker::{BrokerClient, BrokerConfig};
use nb_tracing::harness::{Deployment, Topology};
use nb_tracing::{EntityStatus, SigningMode, TracedEntity, TracingConfig, Tracker};
use nb_transport::clock::system_clock;
use nb_transport::sim::LinkConfig;
use nb_wire::payload::DiscoveryRestrictions;
use nb_wire::trace::TraceCategory;
use nb_wire::Topic;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};
use std::time::{Duration, Instant};

struct CountingAllocator;

/// Bytes allocated and not yet freed.
static LIVE: AtomicI64 = AtomicI64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

const ROUNDS: usize = 5;
const WAIT: Duration = Duration::from_secs(10);
/// How long the threads of a dropped stack may take to exit.
const SETTLE: Duration = Duration::from_secs(2);
/// How far live heap after the last round may sit above the first.
const HEAP_SLACK: i64 = 64 * 1024;

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task").unwrap().count()
}

/// The thread count once it is back at `want`, or after [`SETTLE`].
fn threads_settled_at(want: usize) -> usize {
    let deadline = Instant::now() + SETTLE;
    while threads() != want && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    threads()
}

/// Builds and drops a stack [`ROUNDS`] times, checking threads after
/// every drop and live heap across the rounds.
fn build_and_drop<T>(case: &str, build: impl Fn() -> T) {
    let start = threads();
    let mut heap_after_first = 0;
    for round in 1..=ROUNDS {
        drop(build());
        let left = threads_settled_at(start);
        assert_eq!(
            left, start,
            "{case}, round {round}: {left} threads {SETTLE:?} after the drop, {start} before the first build"
        );
        let heap = LIVE.load(Ordering::Relaxed);
        if round == 1 {
            heap_after_first = heap;
        } else if round == ROUNDS {
            let grown = heap - heap_after_first;
            assert!(
                grown <= HEAP_SLACK,
                "{case}: live heap grew {grown} bytes from round 1 to round {ROUNDS}"
            );
        }
    }
}

/// A 3-broker chain over `medium` with one client attached to broker 0,
/// whose subscription has reached broker 2. Fields drop in order: the
/// network before the client.
fn chain(medium: Medium) -> (BrokerNetwork, BrokerClient) {
    let net =
        BrokerNetwork::chain_over(3, medium, system_clock(), BrokerConfig::default()).unwrap();
    assert!(net.wait_for_mesh(WAIT), "mesh never formed");
    let client = net.attach_client(0, "teardown-client").unwrap();
    let topic = Topic::parse("/Teardown/Chain").unwrap();
    client.subscribe(topic.clone(), WAIT).unwrap();
    assert!(net.broker(2).wait_for_remote_subscription(&topic, WAIT));
    (net, client)
}

/// A 2-broker TCP deployment with monitors, a secured entity at broker
/// 0 and a tracker at broker 1 that has seen it available, the entity
/// and tracker stopped. Fields drop in order: the deployment first.
fn deployment() -> (Deployment, TracedEntity, Tracker) {
    let config = TracingConfig {
        rsa_bits: 512,
        session_keys: true,
        ..TracingConfig::default()
    };
    let dep = Deployment::over(Topology::Chain(2), Medium::Tcp, system_clock(), config).unwrap();
    dep.monitors().unwrap();
    let entity = dep
        .traced_entity(
            0,
            "teardown-entity",
            DiscoveryRestrictions::Open,
            SigningMode::SymmetricKey,
            true,
        )
        .unwrap();
    let tracker = dep
        .tracker(
            1,
            "teardown-tracker",
            "teardown-entity",
            vec![
                TraceCategory::AllUpdates,
                TraceCategory::ChangeNotifications,
            ],
        )
        .unwrap();
    assert!(
        tracker.wait_for_status(EntityStatus::Available, WAIT),
        "the tracker never saw the entity"
    );
    tracker.stop();
    entity.stop();
    (dep, entity, tracker)
}

#[test]
fn dropped_stacks_leave_no_threads_or_heap_behind() {
    build_and_drop("sim chain", || chain(Medium::Sim(LinkConfig::instant())));
    build_and_drop("TCP chain", || chain(Medium::Tcp));
    build_and_drop("UDP chain", || chain(Medium::Udp));
    build_and_drop("TCP deployment", deployment);
}

//! Proves the hot-path claims: neither the head-sampling decision nor
//! `FlightRecorder::record` allocates. Uses a counting global
//! allocator, so everything is measured inside one test function to
//! keep the counter unpolluted by parallel tests.

use nb_telemetry::{now_ns, FlightRecorder, HeadSampler, SpanEvent, Stage, TraceContext};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

#[test]
fn hot_path_never_allocates() {
    // Warm everything that is allowed to allocate once: the recorder's
    // ring, the monotonic epoch, and id generators.
    let recorder = FlightRecorder::new("hot", 1024);
    let sampler = HeadSampler::new(500_000);
    let ctx = TraceContext::root(0, true);
    let _ = now_ns();
    recorder.record(SpanEvent::new(&ctx, Stage::Route, now_ns(), now_ns()));

    // 1. The unsampled fast path: the guard a broker evaluates per
    //    message before doing any tracing work at all.
    let unsampled = TraceContext::root(0, false);
    let before = allocations();
    let mut kept = 0u32;
    for _ in 0..10_000 {
        if unsampled.sampled && sampler.decide(unsampled.trace_id) {
            kept += 1;
        }
    }
    assert_eq!(kept, 0);
    assert_eq!(allocations() - before, 0, "unsampled guard path allocated");

    // 2. The sampled record path: building and recording a span.
    let before = allocations();
    for _ in 0..10_000 {
        let t0 = now_ns();
        recorder.record(SpanEvent::new(&ctx, Stage::AuthCheck, t0, now_ns()));
    }
    assert_eq!(allocations() - before, 0, "record path allocated");
    assert_eq!(recorder.recorded(), 10_001);
}

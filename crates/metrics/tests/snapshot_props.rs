//! Property tests for the snapshot algebra: `merge` is associative and
//! commutative (as a multiset of entries), and `delta` followed by
//! `accumulate` round-trips counters and histogram buckets exactly —
//! the invariant the cluster telemetry plane (`nb-obs`) leans on to
//! reconstruct per-node totals from periodic frames.

use nb_metrics::{Registry, Snapshot, SnapshotValue};
use proptest::prelude::*;

fn arb_name() -> impl Strategy<Value = String> {
    "[a-c]{1,2}\\.[a-d]{1,3}"
}

#[derive(Clone, Debug)]
enum Op {
    Count(String, u64),
    Gauge(String, i64),
    Record(String, u64),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (arb_name(), 0u64..10_000).prop_map(|(n, v)| Op::Count(format!("c.{n}"), v)),
        (arb_name(), 0u64..1000).prop_map(|(n, v)| Op::Gauge(format!("g.{n}"), v as i64 - 500)),
        (arb_name(), 0u64..1_000_000).prop_map(|(n, v)| Op::Record(format!("h.{n}"), v)),
    ]
}

fn apply(r: &Registry, ops: &[Op]) {
    for op in ops {
        match op {
            Op::Count(n, v) => r.counter(n).add(*v),
            Op::Gauge(n, v) => r.gauge(n).set(*v),
            Op::Record(n, v) => r.histogram(n).record(*v),
        }
    }
}

fn registry_from(ops: &[Op]) -> Registry {
    let r = Registry::new();
    apply(&r, ops);
    r
}

/// Sorted key/value view that ignores entry multiplicity order, for
/// comparing merges that interleave duplicates differently.
fn canonical(s: &Snapshot) -> Vec<String> {
    let mut lines: Vec<String> = s
        .entries()
        .iter()
        .map(|e| format!("{} {:?}", e.name, e.value))
        .collect();
    lines.sort();
    lines
}

proptest! {
    #[test]
    fn merge_is_commutative(a in proptest::collection::vec(arb_op(), 0..20),
                            b in proptest::collection::vec(arb_op(), 0..20)) {
        let (ra, rb) = (registry_from(&a), registry_from(&b));
        let ab = ra.snapshot().prefixed("a").merge(rb.snapshot().prefixed("b"));
        let ba = rb.snapshot().prefixed("b").merge(ra.snapshot().prefixed("a"));
        prop_assert_eq!(canonical(&ab), canonical(&ba));
    }

    #[test]
    fn merge_is_associative(a in proptest::collection::vec(arb_op(), 0..14),
                            b in proptest::collection::vec(arb_op(), 0..14),
                            c in proptest::collection::vec(arb_op(), 0..14)) {
        let (ra, rb, rc) = (registry_from(&a), registry_from(&b), registry_from(&c));
        let left = ra
            .snapshot()
            .merge(rb.snapshot())
            .merge(rc.snapshot());
        let right = ra
            .snapshot()
            .merge(rb.snapshot().merge(rc.snapshot()));
        prop_assert_eq!(canonical(&left), canonical(&right));
    }

    #[test]
    fn delta_accumulate_round_trips_exactly(
        first in proptest::collection::vec(arb_op(), 0..25),
        second in proptest::collection::vec(arb_op(), 0..25),
    ) {
        let r = Registry::new();
        apply(&r, &first);
        let earlier = r.snapshot();
        apply(&r, &second);
        let later = r.snapshot();

        let delta = later.delta(&earlier);
        let rebuilt = earlier.accumulate(&delta);

        prop_assert_eq!(rebuilt.len(), later.len());
        for (got, want) in rebuilt.entries().iter().zip(later.entries()) {
            prop_assert_eq!(&got.name, &want.name);
            match (&got.value, &want.value) {
                (SnapshotValue::Counter(a), SnapshotValue::Counter(b)) => {
                    prop_assert_eq!(a, b);
                }
                (SnapshotValue::Gauge(a), SnapshotValue::Gauge(b)) => {
                    prop_assert_eq!(a, b);
                }
                (SnapshotValue::Histogram(a), SnapshotValue::Histogram(b)) => {
                    // Exact round-trip: count, sum, every bucket.
                    prop_assert_eq!(a.count, b.count);
                    prop_assert_eq!(a.sum, b.sum);
                    prop_assert_eq!(&a.buckets, &b.buckets);
                    // min/max: conservative bounds, never a sentinel.
                    prop_assert!(a.min <= b.min || b.count == 0);
                    prop_assert!(a.max >= b.max || a.count == 0);
                    prop_assert!(a.min < u64::MAX);
                }
                (got, want) => prop_assert!(false, "kind mismatch: {got:?} vs {want:?}"),
            }
        }
    }

    #[test]
    fn delta_counters_never_underflow(
        first in proptest::collection::vec(arb_op(), 0..25),
        second in proptest::collection::vec(arb_op(), 0..25),
    ) {
        // Deltas taken across a source restart (the "earlier" side is
        // larger) saturate to zero rather than wrapping.
        let big = registry_from(&first);
        let fresh = registry_from(&second);
        let d = fresh.snapshot().delta(&big.snapshot());
        for e in d.entries() {
            if let SnapshotValue::Counter(v) = &e.value {
                prop_assert!(*v <= fresh.snapshot().counter(&e.name).unwrap_or(u64::MAX));
            }
        }
    }
}

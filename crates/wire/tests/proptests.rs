//! Property-based tests: topic grammar, constrained-topic defaulting,
//! and codec round-trips under arbitrary inputs.

use nb_wire::codec::{Decode, Encode, Reader};
use nb_wire::constrained::ConstrainedTopic;
use nb_wire::topic::Topic;
use nb_wire::trace::{EntityState, LoadInformation, NetworkMetrics, TraceKind};
use proptest::prelude::*;

/// Segments avoiding '/' and the grammar's reserved keywords.
fn arb_segment() -> impl Strategy<Value = String> {
    "[A-Za-z0-9_-]{1,12}".prop_filter("reserved", |s| {
        !matches!(
            s.as_str(),
            "Broker"
                | "Publish"
                | "Subscribe"
                | "PublishSubscribe"
                | "Suppress"
                | "Limited"
                | "Disseminate"
        )
    })
}

fn arb_topic() -> impl Strategy<Value = Topic> {
    proptest::collection::vec(arb_segment(), 1..6)
        .prop_map(|segs| Topic::from_segments(segs).unwrap())
}

fn arb_state() -> impl Strategy<Value = EntityState> {
    prop_oneof![
        Just(EntityState::Initializing),
        Just(EntityState::Recovering),
        Just(EntityState::Ready),
        Just(EntityState::Shutdown),
    ]
}

fn arb_trace_kind() -> impl Strategy<Value = TraceKind> {
    prop_oneof![
        (proptest::option::of(arb_state()), arb_state())
            .prop_map(|(from, to)| TraceKind::StateTransition { from, to }),
        Just(TraceKind::FailureSuspicion),
        Just(TraceKind::Failed),
        Just(TraceKind::Disconnect),
        Just(TraceKind::GaugeInterest),
        Just(TraceKind::Join),
        Just(TraceKind::RevertingToSilentMode),
        Just(TraceKind::AllsWell),
        (any::<f64>(), any::<u64>(), any::<u64>(), any::<u64>()).prop_map(
            |(cpu, used, total, wl)| TraceKind::LoadInformation(LoadInformation {
                cpu_percent: if cpu.is_nan() { 0.0 } else { cpu },
                memory_used_bytes: used,
                memory_total_bytes: total,
                workload: wl,
            })
        ),
        (any::<u32>(), any::<u32>(), any::<u32>(), any::<u32>()).prop_map(|(a, b, c, d)| {
            TraceKind::NetworkMetrics(NetworkMetrics {
                loss_rate: a as f64 / u32::MAX as f64,
                transit_delay_ms: b as f64,
                bandwidth_bps: c as f64,
                out_of_order_rate: d as f64 / u32::MAX as f64,
            })
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn topic_parse_display_round_trip(t in arb_topic()) {
        let s = t.to_string();
        prop_assert_eq!(Topic::parse(&s).unwrap(), t);
    }

    #[test]
    fn topic_codec_round_trip(t in arb_topic()) {
        prop_assert_eq!(Topic::from_bytes(&t.to_bytes()).unwrap(), t);
    }

    #[test]
    fn topic_is_prefix_of_self_and_extensions(t in arb_topic(), ext in arb_segment()) {
        prop_assert!(t.is_prefix_of(&t));
        let extended = t.join(ext).unwrap();
        prop_assert!(t.is_prefix_of(&extended));
        prop_assert!(!extended.is_prefix_of(&t));
    }

    #[test]
    fn exact_filter_matches_only_itself(a in arb_topic(), b in arb_topic()) {
        prop_assert!(a.matches_filter(&a));
        if a != b {
            // Without wildcards, distinct topics never cross-match.
            prop_assert!(!a.matches_filter(&b) || a == b);
        }
    }

    #[test]
    fn hash_wildcard_matches_all_extensions(t in arb_topic(), ext in arb_segment()) {
        let filter = t.join("#").unwrap();
        prop_assert!(t.join(ext.clone()).unwrap().matches_filter(&filter));
        let deep = format!("{ext}/deeper");
        prop_assert!(t.join(deep).unwrap().matches_filter(&filter));
    }

    #[test]
    fn constrained_canonicalization_is_idempotent(suffixes in proptest::collection::vec(arb_segment(), 0..4)) {
        let mut segs = vec!["Constrained".to_string(), "Traces".to_string()];
        segs.extend(suffixes);
        let topic = Topic::from_segments(segs).unwrap();
        if let Some(c) = ConstrainedTopic::parse(&topic).unwrap() {
            let canon = c.to_topic();
            let reparsed = ConstrainedTopic::parse(&canon).unwrap().unwrap();
            prop_assert_eq!(&reparsed, &c);
            // Canonical form is a fixed point.
            prop_assert_eq!(reparsed.to_topic(), canon);
        }
    }

    #[test]
    fn trace_kind_codec_round_trip(kind in arb_trace_kind()) {
        let bytes = kind.to_bytes();
        prop_assert_eq!(TraceKind::from_bytes(&bytes).unwrap(), kind);
    }

    #[test]
    fn decoder_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
        // Any byte soup must produce Ok or Err, never a panic.
        let mut r = Reader::new(&bytes);
        let _ = nb_wire::Message::decode(&mut r);
        let _ = TraceKind::from_bytes(&bytes);
        let _ = Topic::from_bytes(&bytes);
    }
}

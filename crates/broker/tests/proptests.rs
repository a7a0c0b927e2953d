//! Property-based tests on the subscription table: matching stays
//! consistent with membership under arbitrary add/remove interleavings,
//! and the full advert set agrees with the per-change advert query.

use nb_broker::SubscriptionTable;
use nb_wire::Topic;
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

#[derive(Debug, Clone)]
enum Op {
    AddLocal { consumer: u8, topic: u8, suppressed: bool },
    RemoveLocal { consumer: u8, topic: u8 },
    RemoveConsumer { consumer: u8 },
    AddRemote { neighbor: u8, topic: u8 },
    RemoveRemote { neighbor: u8, topic: u8 },
    RemoveNeighbor { neighbor: u8 },
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            (0u8..4, 0u8..6, any::<bool>())
                .prop_map(|(consumer, topic, suppressed)| Op::AddLocal {
                    consumer,
                    topic,
                    suppressed
                }),
            (0u8..4, 0u8..6).prop_map(|(consumer, topic)| Op::RemoveLocal { consumer, topic }),
            (0u8..4).prop_map(|consumer| Op::RemoveConsumer { consumer }),
            (0u8..3, 0u8..6).prop_map(|(neighbor, topic)| Op::AddRemote { neighbor, topic }),
            (0u8..3, 0u8..6).prop_map(|(neighbor, topic)| Op::RemoveRemote { neighbor, topic }),
            (0u8..3).prop_map(|neighbor| Op::RemoveNeighbor { neighbor }),
        ],
        0..60,
    )
}

fn topic(i: u8) -> Topic {
    Topic::parse(&format!("/T/{i}")).unwrap()
}

fn consumer(i: u8) -> String {
    format!("c{i}")
}

fn neighbor(i: u8) -> String {
    format!("b{i}")
}

fn apply(table: &mut SubscriptionTable, op: Op) -> bool {
    match op {
        Op::AddLocal { consumer: c, topic: t, suppressed } => {
            table.add_local(&consumer(c), topic(t), suppressed)
        }
        Op::RemoveLocal { consumer: c, topic: t } => table.remove_local(&consumer(c), &topic(t)),
        Op::RemoveConsumer { consumer: c } => table.remove_consumer(&consumer(c)),
        Op::AddRemote { neighbor: n, topic: t } => table.add_remote(&neighbor(n), topic(t)),
        Op::RemoveRemote { neighbor: n, topic: t } => table.remove_remote(&neighbor(n), &topic(t)),
        Op::RemoveNeighbor { neighbor: n } => table.remove_neighbor(&neighbor(n)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The table's matching answers always agree with a naive model.
    #[test]
    fn table_agrees_with_model(ops in arb_ops()) {
        let mut table = SubscriptionTable::new();
        let mut model_local: HashMap<String, HashSet<u8>> = HashMap::new();
        let mut model_remote: HashMap<String, HashSet<u8>> = HashMap::new();

        for op in ops {
            match op {
                Op::AddLocal { consumer: c, topic: t, suppressed } => {
                    table.add_local(&consumer(c), topic(t), suppressed);
                    model_local.entry(consumer(c)).or_default().insert(t);
                }
                Op::RemoveLocal { consumer: c, topic: t } => {
                    table.remove_local(&consumer(c), &topic(t));
                    if let Some(set) = model_local.get_mut(&consumer(c)) {
                        set.remove(&t);
                        if set.is_empty() {
                            model_local.remove(&consumer(c));
                        }
                    }
                }
                Op::RemoveConsumer { consumer: c } => {
                    table.remove_consumer(&consumer(c));
                    model_local.remove(&consumer(c));
                }
                Op::AddRemote { neighbor: n, topic: t } => {
                    table.add_remote(&neighbor(n), topic(t));
                    model_remote.entry(neighbor(n)).or_default().insert(t);
                }
                Op::RemoveRemote { neighbor: n, topic: t } => {
                    table.remove_remote(&neighbor(n), &topic(t));
                    if let Some(set) = model_remote.get_mut(&neighbor(n)) {
                        set.remove(&t);
                        if set.is_empty() {
                            model_remote.remove(&neighbor(n));
                        }
                    }
                }
                Op::RemoveNeighbor { neighbor: n } => {
                    table.remove_neighbor(&neighbor(n));
                    model_remote.remove(&neighbor(n));
                }
            }

            // Check every topic's matching against the model.
            for t in 0u8..6 {
                let mut expected_local: Vec<String> = model_local
                    .iter()
                    .filter(|(_, ts)| ts.contains(&t))
                    .map(|(c, _)| c.clone())
                    .collect();
                expected_local.sort();
                let mut got_local = table.local_matches(&topic(t));
                got_local.sort();
                prop_assert_eq!(got_local, expected_local);

                let mut expected_remote: Vec<String> = model_remote
                    .iter()
                    .filter(|(_, ts)| ts.contains(&t))
                    .map(|(n, _)| n.clone())
                    .collect();
                expected_remote.sort();
                let mut got_remote = table.remote_matches(&topic(t));
                got_remote.sort();
                prop_assert_eq!(got_remote, expected_remote);
            }
        }
    }

    /// Suppressed filters never appear in any advertisement set, no
    /// matter the interleaving.
    #[test]
    fn suppressed_filters_never_advertised(ops in arb_ops()) {
        let mut table = SubscriptionTable::new();
        let mut suppressed_topics: HashSet<u8> = HashSet::new();
        for op in ops {
            if let Op::AddLocal { consumer: c, topic: t, suppressed } = op {
                table.add_local(&consumer(c), topic(t), suppressed);
                if suppressed {
                    suppressed_topics.insert(t);
                }
            }
        }
        let advertisable = table.filters_for_neighbor("b0");
        for t in &suppressed_topics {
            prop_assert!(
                !advertisable.contains(&topic(*t)),
                "suppressed topic {t} leaked into advertisements"
            );
        }
    }

    /// The full set a neighbour is sent holds exactly the filters the
    /// per-change query says it should hold, for every neighbour,
    /// including one that advertised nothing.
    #[test]
    fn filters_for_neighbor_agrees_with_advertises(ops in arb_ops()) {
        let mut table = SubscriptionTable::new();
        for op in ops {
            apply(&mut table, op);
        }
        for n in 0..4 {
            let set = table.filters_for_neighbor(&neighbor(n));
            let wanted: HashSet<Topic> = (0..6)
                .map(topic)
                .filter(|f| table.advertises(f, &neighbor(n)))
                .collect();
            prop_assert_eq!(set, wanted);
        }
    }
}

//! Subscription bookkeeping: which local consumers and which
//! neighbouring brokers are interested in which topics.

use nb_wire::Topic;
use std::collections::{HashMap, HashSet};

/// Interest table for one broker.
///
/// *Local* entries map consumer ids (attached clients or in-process
/// engines) to their filters; *remote* entries record which filters
/// each neighbouring broker has advertised interest in. What a
/// neighbour should hold from this broker follows from both
/// ([`SubscriptionTable::advertises`]).
#[derive(Debug, Default)]
pub struct SubscriptionTable {
    /// Consumer → its filters, each with its suppression flag: a filter
    /// registered with Suppress/Limited distribution is never
    /// advertised to neighbours while that registration lasts (§3.1
    /// {Distribution}).
    local: HashMap<String, HashMap<Topic, bool>>,
    remote: HashMap<String, HashSet<Topic>>,
}

impl SubscriptionTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a local consumer's filter; a `suppressed` one keeps
    /// the filter from being advertised while it is registered. The
    /// flag is sticky: re-adding the registration unsuppressed does not
    /// lift it, and the journal mirror (`BrokerDurableState`) follows
    /// the same rule. Like every mutator here, returns whether the
    /// table changed.
    pub fn add_local(&mut self, consumer: &str, filter: Topic, suppressed: bool) -> bool {
        let filters = self.local.entry(consumer.to_string()).or_default();
        let was = filters.get(&filter).copied();
        let now = was.unwrap_or(false) | suppressed;
        filters.insert(filter, now);
        was != Some(now)
    }

    /// Removes a local filter.
    pub fn remove_local(&mut self, consumer: &str, filter: &Topic) -> bool {
        let Some(filters) = self.local.get_mut(consumer) else {
            return false;
        };
        let removed = filters.remove(filter).is_some();
        if filters.is_empty() {
            self.local.remove(consumer);
        }
        removed
    }

    /// Drops every filter belonging to `consumer`.
    pub fn remove_consumer(&mut self, consumer: &str) -> bool {
        self.local.remove(consumer).is_some()
    }

    /// Registers a neighbour's advertised interest.
    pub fn add_remote(&mut self, neighbor: &str, filter: Topic) -> bool {
        self.remote
            .entry(neighbor.to_string())
            .or_default()
            .insert(filter)
    }

    /// Withdraws a neighbour's interest.
    pub fn remove_remote(&mut self, neighbor: &str, filter: &Topic) -> bool {
        let Some(filters) = self.remote.get_mut(neighbor) else {
            return false;
        };
        let removed = filters.remove(filter);
        if filters.is_empty() {
            self.remote.remove(neighbor);
        }
        removed
    }

    /// Drops all state for a departed neighbour.
    pub fn remove_neighbor(&mut self, neighbor: &str) -> bool {
        self.remote.remove(neighbor).is_some()
    }

    /// The filters `consumer` holds.
    pub fn consumer_filters(&self, consumer: &str) -> impl Iterator<Item = &Topic> {
        self.local.get(consumer).into_iter().flat_map(HashMap::keys)
    }

    /// The filters `neighbor` has advertised.
    pub fn neighbor_filters(&self, neighbor: &str) -> impl Iterator<Item = &Topic> {
        self.remote.get(neighbor).into_iter().flatten()
    }

    /// Whether any neighbour has advertised exactly `filter`. Used by
    /// `Broker::wait_for_remote_subscription` to make subscription
    /// propagation observable without polling.
    pub fn remote_holds(&self, filter: &Topic) -> bool {
        self.remote.values().any(|fs| fs.contains(filter))
    }

    /// Whether `neighbor` should hold `filter` from this broker: a
    /// local consumer holds it and no local registration suppresses
    /// it, or another neighbour advertised it. Allocates nothing.
    pub fn advertises(&self, filter: &Topic, neighbor: &str) -> bool {
        self.local_advertises(filter)
            || self
                .remote
                .iter()
                .any(|(n, fs)| n != neighbor && fs.contains(filter))
    }

    fn local_advertises(&self, filter: &Topic) -> bool {
        let mut held = false;
        for filters in self.local.values() {
            match filters.get(filter) {
                Some(true) => return false,
                Some(false) => held = true,
                None => {}
            }
        }
        held
    }

    /// Local consumers whose filters match `topic`.
    pub fn local_matches(&self, topic: &Topic) -> Vec<String> {
        self.local
            .iter()
            .filter(|(_, filters)| filters.keys().any(|f| topic.matches_filter(f)))
            .map(|(id, _)| id.clone())
            .collect()
    }

    /// Neighbours with at least one filter matching `topic`.
    pub fn remote_matches(&self, topic: &Topic) -> Vec<String> {
        self.remote
            .iter()
            .filter(|(_, filters)| filters.iter().any(|f| topic.matches_filter(f)))
            .map(|(id, _)| id.clone())
            .collect()
    }

    /// Every filter `neighbor` should hold from this broker (see
    /// [`SubscriptionTable::advertises`]): the full set sent at the
    /// neighbour handshake, after link repair and by anti-entropy. One
    /// pass over the table.
    pub fn filters_for_neighbor(&self, neighbor: &str) -> HashSet<Topic> {
        let mut local: HashMap<&Topic, bool> = HashMap::new();
        for (filter, &suppressed) in self.local.values().flatten() {
            *local.entry(filter).or_default() |= suppressed;
        }
        let others = self.remote.iter().filter(|(n, _)| n.as_str() != neighbor);
        local
            .into_iter()
            .filter_map(|(filter, suppressed)| (!suppressed).then_some(filter))
            .chain(others.flat_map(|(_, filters)| filters))
            .cloned()
            .collect()
    }

    /// Total local (consumer, filter) registrations.
    pub fn local_filter_count(&self) -> usize {
        self.local.values().map(HashMap::len).sum()
    }

    /// Total remote (neighbour, filter) registrations.
    pub fn remote_filter_count(&self) -> usize {
        self.remote.values().map(HashSet::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: &str) -> Topic {
        Topic::parse(s).unwrap()
    }

    #[test]
    fn local_matching_by_exact_topic() {
        let mut table = SubscriptionTable::new();
        table.add_local("c1", t("/A/B"), false);
        table.add_local("c2", t("/A/C"), false);
        assert_eq!(table.local_matches(&t("/A/B")), vec!["c1".to_string()]);
        assert!(table.local_matches(&t("/A/X")).is_empty());
    }

    #[test]
    fn wildcard_filters_match() {
        let mut table = SubscriptionTable::new();
        table.add_local("c1", t("/Traces/*/Load"), false);
        table.add_local("c2", t("/Traces/#"), false);
        let hits = table.local_matches(&t("/Traces/e1/Load"));
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn remote_interest_routing() {
        let mut table = SubscriptionTable::new();
        table.add_remote("b2", t("/A/#"));
        table.add_remote("b3", t("/X"));
        assert_eq!(table.remote_matches(&t("/A/B")), vec!["b2".to_string()]);
        assert_eq!(table.remote_matches(&t("/X")), vec!["b3".to_string()]);
        table.remove_remote("b2", &t("/A/#"));
        assert!(table.remote_matches(&t("/A/B")).is_empty());
    }

    #[test]
    fn neighbor_removal_clears_interest() {
        let mut table = SubscriptionTable::new();
        table.add_remote("b2", t("/A"));
        table.remove_neighbor("b2");
        assert!(table.remote_matches(&t("/A")).is_empty());
    }

    #[test]
    fn remote_holds_sees_only_neighbour_adverts() {
        let mut table = SubscriptionTable::new();
        table.add_local("c1", t("/A"), false);
        assert!(!table.remote_holds(&t("/A"))); // local interest only
        table.add_remote("b2", t("/A"));
        assert!(table.remote_holds(&t("/A")));
        table.remove_remote("b2", &t("/A"));
        assert!(!table.remote_holds(&t("/A")));
    }

    #[test]
    fn filters_for_neighbor_excludes_its_own() {
        let mut table = SubscriptionTable::new();
        table.add_local("c1", t("/L"), false);
        table.add_remote("b2", t("/R2"));
        table.add_remote("b3", t("/R3"));
        let for_b2 = table.filters_for_neighbor("b2");
        assert!(for_b2.contains(&t("/L")));
        assert!(for_b2.contains(&t("/R3")));
        assert!(!for_b2.contains(&t("/R2")));
    }

    #[test]
    fn suppressed_filters_are_never_advertised() {
        let mut table = SubscriptionTable::new();
        table.add_local("engine", t("/Reg"), true);
        table.add_local("c1", t("/Pub"), false);
        let for_b2 = table.filters_for_neighbor("b2");
        assert!(for_b2.contains(&t("/Pub")));
        assert!(!for_b2.contains(&t("/Reg")));
        // Still matched locally.
        assert_eq!(table.local_matches(&t("/Reg")), vec!["engine".to_string()]);
    }

    #[test]
    fn advertises_follows_the_per_neighbour_rule() {
        let mut table = SubscriptionTable::new();
        // A filter only b2 advertised goes to every neighbour but b2.
        table.add_remote("b2", t("/R"));
        assert!(!table.advertises(&t("/R"), "b2"));
        assert!(table.advertises(&t("/R"), "b3"));
        // A second holder makes it b2's business too.
        table.add_remote("b3", t("/R"));
        assert!(table.advertises(&t("/R"), "b2"));
        // A suppressed registration withholds a local filter until it
        // goes; the last holder leaving withdraws it.
        table.add_local("c1", t("/L"), false);
        table.add_local("engine", t("/L"), true);
        assert!(!table.advertises(&t("/L"), "b2"));
        table.remove_local("engine", &t("/L"));
        assert!(table.advertises(&t("/L"), "b2"));
        table.remove_consumer("c1");
        assert!(!table.advertises(&t("/L"), "b2"));
        for n in ["b2", "b3", "b4"] {
            let set = table.filters_for_neighbor(n);
            for f in [t("/R"), t("/L")] {
                assert_eq!(set.contains(&f), table.advertises(&f, n), "{f} for {n}");
            }
        }
    }
}

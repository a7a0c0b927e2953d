//! Tracker-interest bookkeeping for the GAUGE_INTEREST protocol
//! (paper §3.5): "traces are issued by a broker only if there are
//! entities that are interested in receiving traces corresponding to
//! a traced entity."

use nb_crypto::cert::Certificate;
use nb_wire::trace::TraceCategory;
use nb_wire::Topic;
use std::collections::HashMap;

/// A tracker's registered interest.
#[derive(Debug, Clone)]
pub struct TrackerInterest {
    /// The tracker's credentials (needed for secured key delivery).
    pub certificate: Certificate,
    /// Categories the tracker asked for.
    pub categories: Vec<TraceCategory>,
    /// Where the tracker expects key deliveries.
    pub reply_topic: Topic,
    /// When the tracker last (re)registered, ms since epoch.
    pub refreshed_ms: u64,
}

/// Interest registry for one traced entity.
#[derive(Debug, Default)]
pub struct InterestSet {
    trackers: HashMap<String, TrackerInterest>,
}

impl InterestSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records (or refreshes) a tracker's interest response.
    pub fn register(&mut self, tracker_id: &str, interest: TrackerInterest) {
        self.trackers.insert(tracker_id.to_string(), interest);
    }

    /// Drops trackers that have not refreshed their interest since
    /// `cutoff_ms` — a tracker that stops answering GAUGE_INTEREST
    /// probes stops receiving traces (§3.5's gate stays accurate as
    /// trackers depart). Returns how many were expired.
    pub fn expire_stale(&mut self, cutoff_ms: u64) -> usize {
        let before = self.trackers.len();
        self.trackers.retain(|_, t| t.refreshed_ms >= cutoff_ms);
        before - self.trackers.len()
    }

    /// Whether this tracker has registered before.
    pub fn knows(&self, tracker_id: &str) -> bool {
        self.trackers.contains_key(tracker_id)
    }

    /// Removes a tracker entirely.
    pub fn remove(&mut self, tracker_id: &str) {
        self.trackers.remove(tracker_id);
    }

    /// Whether any tracker wants `category` — the §3.5 publication
    /// gate.
    pub fn wants(&self, category: TraceCategory) -> bool {
        self.trackers
            .values()
            .any(|t| t.categories.contains(&category))
    }

    /// Whether nobody is interested in anything (the entity's broker
    /// can stay silent).
    pub fn is_empty(&self) -> bool {
        self.trackers.is_empty()
    }

    /// Number of registered trackers.
    pub fn len(&self) -> usize {
        self.trackers.len()
    }

    /// Every registered tracker (session-key adoption and revocation
    /// fan out to the whole interested set).
    pub fn trackers(&self) -> impl Iterator<Item = &TrackerInterest> {
        self.trackers.values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nb_crypto::cert::{CertificateAuthority, Validity};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cert(name: &str) -> Certificate {
        let mut rng = StdRng::seed_from_u64(name.len() as u64);
        let mut ca =
            CertificateAuthority::new("ca", 512, Validity::starting_now(0, u64::MAX / 2), &mut rng)
                .unwrap();
        ca.issue(name, Validity::starting_now(0, u64::MAX / 2), &mut rng)
            .unwrap()
            .certificate
    }

    fn interest(name: &str, categories: Vec<TraceCategory>) -> TrackerInterest {
        TrackerInterest {
            certificate: cert(name),
            categories,
            reply_topic: Topic::parse(&format!("/replies/{name}")).unwrap(),
            refreshed_ms: 1_000,
        }
    }

    #[test]
    fn empty_set_gates_everything_off() {
        let set = InterestSet::new();
        assert!(set.is_empty());
        assert!(!set.wants(TraceCategory::AllUpdates));
        assert!(!set.wants(TraceCategory::Load));
    }

    #[test]
    fn category_gating_follows_registrations() {
        let mut set = InterestSet::new();
        set.register(
            "t1",
            interest("t1", vec![TraceCategory::ChangeNotifications]),
        );
        assert!(set.wants(TraceCategory::ChangeNotifications));
        assert!(!set.wants(TraceCategory::AllUpdates));
        set.register("t2", interest("t2", vec![TraceCategory::AllUpdates]));
        assert!(set.wants(TraceCategory::AllUpdates));
        set.remove("t2");
        assert!(!set.wants(TraceCategory::AllUpdates));
    }

    #[test]
    fn stale_trackers_expire() {
        let mut set = InterestSet::new();
        let mut old = interest("t1", vec![TraceCategory::Load]);
        old.refreshed_ms = 1_000;
        let mut fresh = interest("t2", vec![TraceCategory::AllUpdates]);
        fresh.refreshed_ms = 5_000;
        set.register("t1", old);
        set.register("t2", fresh);
        assert_eq!(set.expire_stale(2_000), 1);
        assert!(!set.wants(TraceCategory::Load));
        assert!(set.wants(TraceCategory::AllUpdates));
    }

    #[test]
    fn len_counts_distinct_trackers() {
        let mut set = InterestSet::new();
        set.register("t1", interest("t1", vec![TraceCategory::Load]));
        set.register("t1", interest("t1", vec![TraceCategory::Load]));
        set.register("t2", interest("t2", vec![TraceCategory::Load]));
        assert_eq!(set.len(), 2);
    }
}

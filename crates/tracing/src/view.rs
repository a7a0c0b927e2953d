//! The tracker's availability view: the distilled answer to "is this
//! entity up, and how is it doing?".

use nb_wire::trace::{EntityState, LoadInformation, NetworkMetrics, TraceEvent, TraceKind};
use parking_lot::{Condvar, Mutex, RwLock};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Aggregate availability judgement for one entity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntityStatus {
    /// JOIN seen, heartbeats flowing.
    Available,
    /// FAILURE_SUSPICION received.
    Suspected,
    /// FAILED received.
    Failed,
    /// DISCONNECT or REVERTING_TO_SILENT_MODE received.
    Offline,
}

/// Everything a tracker knows about one traced entity.
#[derive(Debug, Clone)]
pub struct EntityRecord {
    /// Aggregate status.
    pub status: EntityStatus,
    /// Last reported lifecycle state, if any.
    pub state: Option<EntityState>,
    /// Timestamp of the most recent trace.
    pub last_seen_ms: u64,
    /// Most recent load report.
    pub load: Option<LoadInformation>,
    /// Most recent network metrics.
    pub network: Option<NetworkMetrics>,
    /// Sequence number of the most recent trace applied.
    pub last_seq: u64,
    /// Count of traces applied for this entity.
    pub traces_seen: u64,
}

/// Change notification shared by every clone of a view: waiters sleep
/// on the condition variable, [`AvailabilityView::apply`] signals it
/// after each mutation.
struct Notify {
    generation: Mutex<u64>,
    cv: Condvar,
}

impl Default for Notify {
    fn default() -> Self {
        Notify {
            generation: Mutex::new(0),
            cv: Condvar::new(),
        }
    }
}

/// A concurrently readable availability map. Clones share state.
#[derive(Clone, Default)]
pub struct AvailabilityView {
    entities: Arc<RwLock<HashMap<String, EntityRecord>>>,
    notify: Arc<Notify>,
}

impl AvailabilityView {
    /// Creates an empty view.
    pub fn new() -> Self {
        Self::default()
    }

    /// Applies one trace event. Events older than the newest applied
    /// sequence are ignored (traces can arrive out of order across the
    /// broker mesh).
    ///
    /// Returns `true` when the event mutated the view, `false` when it
    /// was discarded as stale — the caller's signal for whether the
    /// event is worth journalling (see `nb_tracing::persist`).
    pub fn apply(&self, event: &TraceEvent) -> bool {
        {
            let mut entities = self.entities.write();
            let record = entities
                .entry(event.entity_id.clone())
                .or_insert(EntityRecord {
                    status: EntityStatus::Available,
                    state: None,
                    last_seen_ms: 0,
                    load: None,
                    network: None,
                    last_seq: 0,
                    traces_seen: 0,
                });
            if event.seq < record.last_seq {
                return false; // stale
            }
            record.last_seq = event.seq;
            record.last_seen_ms = event.timestamp_ms;
            record.traces_seen += 1;
            match &event.kind {
                TraceKind::Join | TraceKind::AllsWell => {
                    record.status = EntityStatus::Available;
                }
                TraceKind::FailureSuspicion => record.status = EntityStatus::Suspected,
                TraceKind::Failed => record.status = EntityStatus::Failed,
                TraceKind::Disconnect | TraceKind::RevertingToSilentMode => {
                    record.status = EntityStatus::Offline;
                }
                TraceKind::StateTransition { to, .. } => {
                    record.state = Some(*to);
                    if *to == EntityState::Shutdown {
                        record.status = EntityStatus::Offline;
                    } else {
                        record.status = EntityStatus::Available;
                    }
                }
                TraceKind::LoadInformation(load) => record.load = Some(*load),
                TraceKind::NetworkMetrics(metrics) => record.network = Some(*metrics),
                TraceKind::GaugeInterest => {}
            }
        } // write lock released before signalling — see wait_until
        let mut generation = self.notify.generation.lock();
        *generation += 1;
        self.notify.cv.notify_all();
        true
    }

    /// Every record, sorted by entity id — the deterministic iteration
    /// order the durable snapshot codec needs.
    pub fn export(&self) -> Vec<(String, EntityRecord)> {
        let mut all: Vec<(String, EntityRecord)> = self
            .entities
            .read()
            .iter()
            .map(|(id, r)| (id.clone(), r.clone()))
            .collect();
        all.sort_by(|a, b| a.0.cmp(&b.0));
        all
    }

    /// Installs a recovered record wholesale (snapshot restore). Used
    /// before the consuming pump starts, so no waiters are signalled.
    pub fn restore(&self, entity_id: String, record: EntityRecord) {
        self.entities.write().insert(entity_id, record);
    }

    /// Blocks until `pred(self)` holds (true) or `timeout` elapses
    /// (false). Purely event-driven: the waiter sleeps on a condition
    /// variable signalled by [`AvailabilityView::apply`], so it wakes
    /// exactly when the view changes instead of sleep-polling.
    ///
    /// Missed-wakeup safety: the predicate is evaluated while holding
    /// the notification lock, and `apply` only signals *after*
    /// releasing the data lock and *while* holding the notification
    /// lock — a change is therefore either visible to the predicate or
    /// wakes the waiter.
    pub fn wait_until<F>(&self, timeout: Duration, pred: F) -> bool
    where
        F: Fn(&AvailabilityView) -> bool,
    {
        let deadline = Instant::now() + timeout;
        let mut generation = self.notify.generation.lock();
        loop {
            if pred(self) {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            self.notify
                .cv
                .wait_for(&mut generation, deadline.duration_since(now));
        }
    }

    /// Blocks until `entity_id` reaches `status` (true) or `timeout`
    /// elapses (false).
    pub fn wait_for_status(
        &self,
        entity_id: &str,
        status: EntityStatus,
        timeout: Duration,
    ) -> bool {
        self.wait_until(timeout, |view| view.status(entity_id) == Some(status))
    }

    /// Current record for an entity.
    pub fn get(&self, entity_id: &str) -> Option<EntityRecord> {
        self.entities.read().get(entity_id).cloned()
    }

    /// Current status for an entity.
    pub fn status(&self, entity_id: &str) -> Option<EntityStatus> {
        self.entities.read().get(entity_id).map(|r| r.status)
    }

    /// All known entity ids.
    pub fn entities(&self) -> Vec<String> {
        self.entities.read().keys().cloned().collect()
    }

    /// Entities currently considered available.
    pub fn available(&self) -> Vec<String> {
        self.entities
            .read()
            .iter()
            .filter(|(_, r)| r.status == EntityStatus::Available)
            .map(|(id, _)| id.clone())
            .collect()
    }

    /// Total traces applied across all entities.
    pub fn total_traces(&self) -> u64 {
        self.entities.read().values().map(|r| r.traces_seen).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nb_crypto::Uuid;

    fn event(seq: u64, kind: TraceKind) -> TraceEvent {
        TraceEvent {
            entity_id: "e1".to_string(),
            trace_topic: Uuid::nil(),
            seq,
            timestamp_ms: 1000 + seq,
            kind,
        }
    }

    #[test]
    fn join_marks_available() {
        let view = AvailabilityView::new();
        view.apply(&event(1, TraceKind::Join));
        assert_eq!(view.status("e1"), Some(EntityStatus::Available));
        assert_eq!(view.available(), vec!["e1".to_string()]);
    }

    #[test]
    fn lifecycle_progression() {
        let view = AvailabilityView::new();
        view.apply(&event(1, TraceKind::Join));
        view.apply(&event(2, TraceKind::FailureSuspicion));
        assert_eq!(view.status("e1"), Some(EntityStatus::Suspected));
        view.apply(&event(3, TraceKind::Failed));
        assert_eq!(view.status("e1"), Some(EntityStatus::Failed));
        view.apply(&event(4, TraceKind::AllsWell));
        assert_eq!(view.status("e1"), Some(EntityStatus::Available));
        view.apply(&event(5, TraceKind::RevertingToSilentMode));
        assert_eq!(view.status("e1"), Some(EntityStatus::Offline));
    }

    #[test]
    fn stale_events_are_ignored() {
        let view = AvailabilityView::new();
        view.apply(&event(10, TraceKind::Failed));
        view.apply(&event(5, TraceKind::AllsWell)); // late, stale
        assert_eq!(view.status("e1"), Some(EntityStatus::Failed));
    }

    #[test]
    fn state_transitions_update_state() {
        let view = AvailabilityView::new();
        view.apply(&event(
            1,
            TraceKind::StateTransition {
                from: None,
                to: EntityState::Initializing,
            },
        ));
        assert_eq!(
            view.get("e1").unwrap().state,
            Some(EntityState::Initializing)
        );
        view.apply(&event(
            2,
            TraceKind::StateTransition {
                from: Some(EntityState::Initializing),
                to: EntityState::Shutdown,
            },
        ));
        let r = view.get("e1").unwrap();
        assert_eq!(r.state, Some(EntityState::Shutdown));
        assert_eq!(r.status, EntityStatus::Offline);
    }

    #[test]
    fn load_and_metrics_are_retained() {
        let view = AvailabilityView::new();
        view.apply(&event(
            1,
            TraceKind::LoadInformation(LoadInformation {
                cpu_percent: 80.0,
                memory_used_bytes: 100,
                memory_total_bytes: 200,
                workload: 4,
            }),
        ));
        view.apply(&event(
            2,
            TraceKind::NetworkMetrics(NetworkMetrics {
                loss_rate: 0.1,
                transit_delay_ms: 2.0,
                bandwidth_bps: 1e6,
                out_of_order_rate: 0.0,
            }),
        ));
        let r = view.get("e1").unwrap();
        assert_eq!(r.load.unwrap().cpu_percent, 80.0);
        assert_eq!(r.network.unwrap().loss_rate, 0.1);
        assert_eq!(r.traces_seen, 2);
    }

    #[test]
    fn clones_share_state() {
        let view = AvailabilityView::new();
        let view2 = view.clone();
        view.apply(&event(1, TraceKind::Join));
        assert_eq!(view2.status("e1"), Some(EntityStatus::Available));
        assert_eq!(view2.total_traces(), 1);
    }

    #[test]
    fn wait_for_status_wakes_on_apply() {
        let view = AvailabilityView::new();
        let waiter = view.clone();
        let t = std::thread::spawn(move || {
            waiter.wait_for_status("e1", EntityStatus::Failed, Duration::from_secs(5))
        });
        // Give the waiter a moment to park, then publish the change.
        std::thread::sleep(Duration::from_millis(20));
        view.apply(&event(1, TraceKind::Failed));
        assert!(t.join().unwrap());
        // Timeout path: a condition that never comes returns false.
        assert!(!view.wait_for_status("ghost", EntityStatus::Available, Duration::from_millis(30)));
    }

    #[test]
    fn unknown_entity_is_none() {
        let view = AvailabilityView::new();
        assert_eq!(view.status("ghost"), None);
        assert!(view.get("ghost").is_none());
        assert!(view.entities().is_empty());
    }
}

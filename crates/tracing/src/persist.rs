//! Durable tracker state: journalled trace events and the snapshot
//! codec for [`nb_store::Durable`].
//!
//! A tracker's hard-won state is its [`AvailabilityView`] — the fold
//! of every token-verified, decrypted, freshness-checked trace it has
//! applied. Rebuilding it after a crash would mean waiting for the
//! next heartbeat round (or probing the entity), so the tracker
//! journals each **applied** event and snapshots the folded view.
//!
//! Exactly-once replay falls out of the view's own sequence
//! discipline: [`AvailabilityView::apply`] reports whether an event
//! mutated the view, the tracker only journals when it did, and on
//! recovery the same fold runs over the same accepted events — a
//! record's `traces_seen` after restart equals what it was before the
//! crash, never more.

use crate::view::{AvailabilityView, EntityRecord, EntityStatus};
use nb_store::DurableState;
use nb_wire::codec::{Decode, Encode, Reader, Writer};
use nb_wire::trace::{EntityState, LoadInformation, NetworkMetrics, TraceEvent};
use nb_wire::WireError;

fn status_wire_id(status: EntityStatus) -> u8 {
    match status {
        EntityStatus::Available => 1,
        EntityStatus::Suspected => 2,
        EntityStatus::Failed => 3,
        EntityStatus::Offline => 4,
    }
}

fn status_from_wire_id(tag: u8) -> nb_wire::Result<EntityStatus> {
    match tag {
        1 => Ok(EntityStatus::Available),
        2 => Ok(EntityStatus::Suspected),
        3 => Ok(EntityStatus::Failed),
        4 => Ok(EntityStatus::Offline),
        tag => Err(WireError::UnknownTag {
            what: "entity status",
            tag,
        }),
    }
}

/// The tracker's durable state: a whole availability view.
///
/// The journalled op is the applied [`TraceEvent`] itself; replay is
/// the same fold the live pump performs.
#[derive(Default)]
pub struct TrackerDurableState {
    /// The availability view being made durable. During recovery this
    /// is a fresh private view; the tracker then adopts it as its live
    /// (shared-clone) view.
    pub view: AvailabilityView,
}

impl DurableState for TrackerDurableState {
    type Op = TraceEvent;

    fn apply(&mut self, op: TraceEvent) {
        let _ = self.view.apply(&op);
    }

    fn snapshot_encode(&self, w: &mut Writer) {
        let records = self.view.export();
        w.put_varint(records.len() as u64);
        for (id, r) in &records {
            w.put_str(id);
            w.put_u8(status_wire_id(r.status));
            w.put_option(&r.state, |w, s| w.put_u8(s.wire_id()));
            w.put_u64(r.last_seen_ms);
            w.put_option(&r.load, |w, l| l.encode(w));
            w.put_option(&r.network, |w, n| n.encode(w));
            w.put_u64(r.last_seq);
            w.put_varint(r.traces_seen);
        }
    }

    fn snapshot_decode(r: &mut Reader<'_>) -> nb_wire::Result<Self> {
        let state = TrackerDurableState::default();
        let n = r.get_varint()?;
        for _ in 0..n {
            let id = r.get_str()?;
            let record = EntityRecord {
                status: status_from_wire_id(r.get_u8()?)?,
                state: r.get_option(|r| EntityState::from_wire_id(r.get_u8()?))?,
                last_seen_ms: r.get_u64()?,
                load: r.get_option(LoadInformation::decode)?,
                network: r.get_option(NetworkMetrics::decode)?,
                last_seq: r.get_u64()?,
                traces_seen: r.get_varint()?,
            };
            state.view.restore(id, record);
        }
        Ok(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nb_crypto::Uuid;
    use nb_store::{Durable, StoreConfig, TempDir};
    use nb_wire::trace::TraceKind;

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
    fn snapshot_round_trips_the_view() {
        let mut s = TrackerDurableState::default();
        s.apply(event(1, TraceKind::Join));
        s.apply(event(
            2,
            TraceKind::LoadInformation(LoadInformation {
                cpu_percent: 42.0,
                memory_used_bytes: 10,
                memory_total_bytes: 20,
                workload: 3,
            }),
        ));
        s.apply(event(3, TraceKind::FailureSuspicion));

        let mut w = Writer::new();
        s.snapshot_encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let back = TrackerDurableState::snapshot_decode(&mut r).unwrap();

        let a = s.view.get("e1").unwrap();
        let b = back.view.get("e1").unwrap();
        assert_eq!(a.status, b.status);
        assert_eq!(a.last_seq, b.last_seq);
        assert_eq!(a.traces_seen, b.traces_seen);
        assert_eq!(a.load.unwrap().cpu_percent, b.load.unwrap().cpu_percent);
    }

    #[test]
    fn replay_preserves_traces_seen_exactly() {
        let dir = TempDir::new("tracker-persist").unwrap();
        let before;
        {
            let (mut d, live, _) =
                Durable::<TrackerDurableState>::open(dir.path(), "tracker", StoreConfig::default())
                    .unwrap();
            for seq in 1..=5u64 {
                let ev = event(seq, TraceKind::AllsWell);
                assert!(live.view.apply(&ev));
                d.record(&ev).unwrap();
            }
            // A stale duplicate is rejected by the view and therefore
            // never journalled.
            assert!(!live.view.apply(&event(2, TraceKind::Failed)));
            before = live.view.get("e1").unwrap();
        }
        let (_, recovered, rec) =
            Durable::<TrackerDurableState>::open(dir.path(), "tracker", StoreConfig::default())
                .unwrap();
        let after = recovered.view.get("e1").unwrap();
        assert_eq!(rec.records_replayed, 5);
        assert_eq!(after.traces_seen, before.traces_seen);
        assert_eq!(after.last_seq, before.last_seq);
        assert_eq!(after.status, before.status);
    }
}

//! The trace taxonomy (paper Table 1) and its topic mapping (Table 2).

use crate::codec::{Decode, Encode, Reader, Writer};
use crate::constrained::{AllowedActions, ConstrainedTopic, Constrainer, Distribution, EventType};
use crate::error::WireError;
use crate::topic::Topic;
use crate::Result;
use nb_crypto::Uuid;

/// Lifecycle states a traced entity reports (Table 1, row 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EntityState {
    /// The entity is starting up.
    Initializing,
    /// The entity is recovering after a failure.
    Recovering,
    /// The entity is available for work.
    Ready,
    /// The entity is shutting down cleanly.
    Shutdown,
}

impl EntityState {
    /// Stable wire tag.
    pub fn wire_id(self) -> u8 {
        match self {
            EntityState::Initializing => 1,
            EntityState::Recovering => 2,
            EntityState::Ready => 3,
            EntityState::Shutdown => 4,
        }
    }

    /// Inverse of [`EntityState::wire_id`].
    pub fn from_wire_id(tag: u8) -> Result<Self> {
        match tag {
            1 => Ok(EntityState::Initializing),
            2 => Ok(EntityState::Recovering),
            3 => Ok(EntityState::Ready),
            4 => Ok(EntityState::Shutdown),
            tag => Err(WireError::UnknownTag {
                what: "EntityState",
                tag,
            }),
        }
    }
}

/// Host load report (Table 1: "CPU Info, Memory Usage and Workload").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadInformation {
    /// CPU utilization in percent (0–100 per core-aggregate).
    pub cpu_percent: f64,
    /// Memory in use, bytes.
    pub memory_used_bytes: u64,
    /// Total memory, bytes.
    pub memory_total_bytes: u64,
    /// Application-defined workload figure (e.g. queue depth).
    pub workload: u64,
}

impl Encode for LoadInformation {
    fn encode(&self, w: &mut Writer) {
        w.put_f64(self.cpu_percent);
        w.put_u64(self.memory_used_bytes);
        w.put_u64(self.memory_total_bytes);
        w.put_u64(self.workload);
    }
}

impl Decode for LoadInformation {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok(LoadInformation {
            cpu_percent: r.get_f64()?,
            memory_used_bytes: r.get_u64()?,
            memory_total_bytes: r.get_u64()?,
            workload: r.get_u64()?,
        })
    }
}

/// Network-realm metrics for the entity↔broker link (Table 1:
/// "Loss rates, transit delay and bandwidth").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkMetrics {
    /// Fraction of pings lost over the measurement window, 0.0–1.0.
    pub loss_rate: f64,
    /// Mean transit delay, milliseconds.
    pub transit_delay_ms: f64,
    /// Estimated bandwidth, bytes per second.
    pub bandwidth_bps: f64,
    /// Fraction of ping responses arriving out of order.
    pub out_of_order_rate: f64,
}

impl Encode for NetworkMetrics {
    fn encode(&self, w: &mut Writer) {
        w.put_f64(self.loss_rate);
        w.put_f64(self.transit_delay_ms);
        w.put_f64(self.bandwidth_bps);
        w.put_f64(self.out_of_order_rate);
    }
}

impl Decode for NetworkMetrics {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok(NetworkMetrics {
            loss_rate: r.get_f64()?,
            transit_delay_ms: r.get_f64()?,
            bandwidth_bps: r.get_f64()?,
            out_of_order_rate: r.get_f64()?,
        })
    }
}

/// Every trace type of Table 1.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceKind {
    /// State information reported by a traced entity.
    StateTransition {
        /// Previous state (absent on the first report).
        from: Option<EntityState>,
        /// New state.
        to: EntityState,
    },
    /// Broker-generated failure detection: the entity missed enough
    /// pings to be suspected.
    FailureSuspicion,
    /// Broker-generated: the entity is deemed failed.
    Failed,
    /// Broker-generated: the entity disconnected.
    Disconnect,
    /// Probe for tracker interest in tracing an entity.
    GaugeInterest,
    /// The entity has requested tracing.
    Join,
    /// The entity has disabled tracing.
    RevertingToSilentMode,
    /// Heartbeat: the entity is still active.
    AllsWell,
    /// Host load report.
    LoadInformation(LoadInformation),
    /// Network-realm metrics.
    NetworkMetrics(NetworkMetrics),
}

impl TraceKind {
    /// The trace category, which selects the publication topic
    /// (Table 2).
    pub fn category(&self) -> TraceCategory {
        match self {
            TraceKind::StateTransition { .. } => TraceCategory::StateTransitions,
            TraceKind::FailureSuspicion
            | TraceKind::Failed
            | TraceKind::Disconnect
            | TraceKind::Join
            | TraceKind::RevertingToSilentMode => TraceCategory::ChangeNotifications,
            TraceKind::GaugeInterest => TraceCategory::Interest,
            TraceKind::AllsWell => TraceCategory::AllUpdates,
            TraceKind::LoadInformation(_) => TraceCategory::Load,
            TraceKind::NetworkMetrics(_) => TraceCategory::NetworkMetrics,
        }
    }
}

impl Encode for TraceKind {
    fn encode(&self, w: &mut Writer) {
        match self {
            TraceKind::StateTransition { from, to } => {
                w.put_u8(1);
                w.put_option(from, |w, s| w.put_u8(s.wire_id()));
                w.put_u8(to.wire_id());
            }
            TraceKind::FailureSuspicion => w.put_u8(2),
            TraceKind::Failed => w.put_u8(3),
            TraceKind::Disconnect => w.put_u8(4),
            TraceKind::GaugeInterest => w.put_u8(5),
            TraceKind::Join => w.put_u8(6),
            TraceKind::RevertingToSilentMode => w.put_u8(7),
            TraceKind::AllsWell => w.put_u8(8),
            TraceKind::LoadInformation(l) => {
                w.put_u8(9);
                l.encode(w);
            }
            TraceKind::NetworkMetrics(m) => {
                w.put_u8(10);
                m.encode(w);
            }
        }
    }
}

impl Decode for TraceKind {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        match r.get_u8()? {
            1 => Ok(TraceKind::StateTransition {
                from: r.get_option(|r| EntityState::from_wire_id(r.get_u8()?))?,
                to: EntityState::from_wire_id(r.get_u8()?)?,
            }),
            2 => Ok(TraceKind::FailureSuspicion),
            3 => Ok(TraceKind::Failed),
            4 => Ok(TraceKind::Disconnect),
            5 => Ok(TraceKind::GaugeInterest),
            6 => Ok(TraceKind::Join),
            7 => Ok(TraceKind::RevertingToSilentMode),
            8 => Ok(TraceKind::AllsWell),
            9 => Ok(TraceKind::LoadInformation(LoadInformation::decode(r)?)),
            10 => Ok(TraceKind::NetworkMetrics(NetworkMetrics::decode(r)?)),
            tag => Err(WireError::UnknownTag {
                what: "TraceKind",
                tag,
            }),
        }
    }
}

/// The per-type publication channels of Table 2. Trackers subscribe
/// to the categories they care about ("greater selectivity in the
/// trace information at any given tracker").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceCategory {
    /// JOIN / FAILURE_SUSPICION / FAILED / DISCONNECT /
    /// REVERTING_TO_SILENT_MODE.
    ChangeNotifications,
    /// ALLS_WELL heartbeats.
    AllUpdates,
    /// Entity lifecycle state changes.
    StateTransitions,
    /// LOAD_INFORMATION reports.
    Load,
    /// NETWORK_METRICS reports.
    NetworkMetrics,
    /// GAUGE_INTEREST request/response.
    Interest,
}

impl TraceCategory {
    fn suffix(self) -> &'static str {
        match self {
            TraceCategory::ChangeNotifications => "ChangeNotifications",
            TraceCategory::AllUpdates => "AllUpdates",
            TraceCategory::StateTransitions => "StateTransitions",
            TraceCategory::Load => "Load",
            TraceCategory::NetworkMetrics => "NetworkMetrics",
            TraceCategory::Interest => "Interest",
        }
    }

    /// Stable wire tag.
    pub fn wire_id(self) -> u8 {
        match self {
            TraceCategory::ChangeNotifications => 1,
            TraceCategory::AllUpdates => 2,
            TraceCategory::StateTransitions => 3,
            TraceCategory::Load => 4,
            TraceCategory::NetworkMetrics => 5,
            TraceCategory::Interest => 6,
        }
    }

    /// Inverse of [`TraceCategory::wire_id`].
    pub fn from_wire_id(tag: u8) -> Result<Self> {
        match tag {
            1 => Ok(TraceCategory::ChangeNotifications),
            2 => Ok(TraceCategory::AllUpdates),
            3 => Ok(TraceCategory::StateTransitions),
            4 => Ok(TraceCategory::Load),
            5 => Ok(TraceCategory::NetworkMetrics),
            6 => Ok(TraceCategory::Interest),
            tag => Err(WireError::UnknownTag {
                what: "TraceCategory",
                tag,
            }),
        }
    }
}

/// A complete trace event as published by the tracing broker.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// The traced entity this event concerns.
    pub entity_id: String,
    /// The entity's trace topic.
    pub trace_topic: Uuid,
    /// Monotonically increasing per-entity sequence number.
    pub seq: u64,
    /// Broker timestamp, milliseconds since epoch.
    pub timestamp_ms: u64,
    /// What happened.
    pub kind: TraceKind,
}

impl Encode for TraceEvent {
    fn encode(&self, w: &mut Writer) {
        w.put_str(&self.entity_id);
        w.put_uuid(&self.trace_topic);
        w.put_u64(self.seq);
        w.put_u64(self.timestamp_ms);
        self.kind.encode(w);
    }
}

impl Decode for TraceEvent {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok(TraceEvent {
            entity_id: r.get_str()?,
            trace_topic: r.get_uuid()?,
            seq: r.get_u64()?,
            timestamp_ms: r.get_u64()?,
            kind: TraceKind::decode(r)?,
        })
    }
}

/// Builders for the Table 2 topics and the §3.2 session channels.
pub mod topics {
    use super::*;

    /// The descriptor a traced entity registers at the TDN:
    /// `Availability/Traces/{entity-id}` (§3.1).
    pub fn descriptor_for_entity(entity_id: &str) -> String {
        format!("Availability/Traces/{entity_id}")
    }

    /// The discovery query a tracker issues: `/Liveness/{entity-id}`
    /// (§3.4).
    pub fn discovery_query(entity_id: &str) -> String {
        format!("/Liveness/{entity_id}")
    }

    /// `/Constrained/Traces/Broker/Publish-Only/{trace-topic}/{category}` —
    /// the per-category publication topic of Table 2.
    pub fn publication(trace_topic: &Uuid, category: TraceCategory) -> Topic {
        ConstrainedTopic::new(
            EventType::Traces,
            Constrainer::Broker,
            AllowedActions::PublishOnly,
            Distribution::Disseminate,
            vec![trace_topic.to_string(), category.suffix().to_string()],
        )
        .to_topic()
    }

    /// `/Constrained/Traces/Broker/Subscribe-Only/Registration` —
    /// where entities publish trace-registration requests (§3.2).
    pub fn registration() -> Topic {
        ConstrainedTopic::new(
            EventType::Traces,
            Constrainer::Broker,
            AllowedActions::SubscribeOnly,
            Distribution::Suppress,
            vec!["Registration".to_string()],
        )
        .to_topic()
    }

    /// `/Constrained/Traces/Broker/Subscribe-Only/Limited/{trace-topic}/{session}`
    /// — entity→broker session channel (§3.2): the broker subscribes,
    /// the traced entity publishes.
    pub fn entity_to_broker(trace_topic: &Uuid, session_id: &Uuid) -> Topic {
        ConstrainedTopic::new(
            EventType::Traces,
            Constrainer::Broker,
            AllowedActions::SubscribeOnly,
            Distribution::Suppress,
            vec![trace_topic.to_string(), session_id.to_string()],
        )
        .to_topic()
    }

    /// `/Constrained/Traces/{entity-id}/Subscribe-Only/{trace-topic}/{session}`
    /// — broker→entity session channel (§3.2): the entity subscribes,
    /// the broker publishes (pings travel here).
    pub fn broker_to_entity(entity_id: &str, trace_topic: &Uuid, session_id: &Uuid) -> Topic {
        ConstrainedTopic::new(
            EventType::Traces,
            Constrainer::Entity(entity_id.to_string()),
            AllowedActions::SubscribeOnly,
            Distribution::Suppress,
            vec![trace_topic.to_string(), session_id.to_string()],
        )
        .to_topic()
    }

    /// `/Constrained/Traces/Broker/Publish-Only/{trace-topic}/Interest`
    /// — where the broker publishes GAUGE_INTEREST probes (§3.5).
    pub fn gauge_interest(trace_topic: &Uuid) -> Topic {
        publication(trace_topic, TraceCategory::Interest)
    }

    /// `/Constrained/Traces/Broker/Subscribe-Only/{trace-topic}/Interest`
    /// — where trackers publish their interest responses (§3.5).
    pub fn interest_response(trace_topic: &Uuid) -> Topic {
        ConstrainedTopic::new(
            EventType::Traces,
            Constrainer::Broker,
            AllowedActions::SubscribeOnly,
            Distribution::Disseminate,
            vec![trace_topic.to_string(), "Interest".to_string()],
        )
        .to_topic()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constrained::{Action, Actor};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn uuid(seed: u64) -> Uuid {
        Uuid::new_v4(&mut StdRng::seed_from_u64(seed))
    }

    #[test]
    fn entity_state_wire_round_trip() {
        for s in [
            EntityState::Initializing,
            EntityState::Recovering,
            EntityState::Ready,
            EntityState::Shutdown,
        ] {
            assert_eq!(EntityState::from_wire_id(s.wire_id()).unwrap(), s);
        }
        assert!(EntityState::from_wire_id(0).is_err());
        assert!(EntityState::from_wire_id(5).is_err());
    }

    #[test]
    fn trace_kind_codec_round_trip() {
        let kinds = [
            TraceKind::StateTransition {
                from: Some(EntityState::Initializing),
                to: EntityState::Ready,
            },
            TraceKind::StateTransition {
                from: None,
                to: EntityState::Initializing,
            },
            TraceKind::FailureSuspicion,
            TraceKind::Failed,
            TraceKind::Disconnect,
            TraceKind::GaugeInterest,
            TraceKind::Join,
            TraceKind::RevertingToSilentMode,
            TraceKind::AllsWell,
            TraceKind::LoadInformation(LoadInformation {
                cpu_percent: 42.5,
                memory_used_bytes: 1 << 30,
                memory_total_bytes: 4 << 30,
                workload: 17,
            }),
            TraceKind::NetworkMetrics(NetworkMetrics {
                loss_rate: 0.01,
                transit_delay_ms: 1.8,
                bandwidth_bps: 12.5e6,
                out_of_order_rate: 0.0,
            }),
        ];
        for kind in kinds {
            let bytes = kind.to_bytes();
            assert_eq!(TraceKind::from_bytes(&bytes).unwrap(), kind);
        }
    }

    #[test]
    fn table2_category_mapping() {
        // Table 2 of the paper, row by row.
        assert_eq!(
            TraceKind::StateTransition {
                from: None,
                to: EntityState::Ready
            }
            .category(),
            TraceCategory::StateTransitions
        );
        for k in [
            TraceKind::FailureSuspicion,
            TraceKind::Failed,
            TraceKind::Disconnect,
            TraceKind::Join,
            TraceKind::RevertingToSilentMode,
        ] {
            assert_eq!(k.category(), TraceCategory::ChangeNotifications);
        }
        assert_eq!(TraceKind::GaugeInterest.category(), TraceCategory::Interest);
        assert_eq!(TraceKind::AllsWell.category(), TraceCategory::AllUpdates);
        assert_eq!(
            TraceKind::LoadInformation(LoadInformation {
                cpu_percent: 0.0,
                memory_used_bytes: 0,
                memory_total_bytes: 0,
                workload: 0
            })
            .category(),
            TraceCategory::Load
        );
        assert_eq!(
            TraceKind::NetworkMetrics(NetworkMetrics {
                loss_rate: 0.0,
                transit_delay_ms: 0.0,
                bandwidth_bps: 0.0,
                out_of_order_rate: 0.0
            })
            .category(),
            TraceCategory::NetworkMetrics
        );
    }

    #[test]
    fn publication_topics_match_paper_shape() {
        let tt = uuid(1);
        let topic = topics::publication(&tt, TraceCategory::ChangeNotifications);
        let s = topic.to_string();
        assert!(s.starts_with("/Constrained/Traces/Broker/Publish-Only/"));
        assert!(s.ends_with("/ChangeNotifications"));
        assert!(s.contains(&tt.to_string()));
    }

    #[test]
    fn publication_topics_enforce_broker_only_publish() {
        let tt = uuid(2);
        let topic = topics::publication(&tt, TraceCategory::AllUpdates);
        let c = ConstrainedTopic::parse(&topic).unwrap().unwrap();
        assert!(c.permits(&Actor::Broker, Action::Publish));
        assert!(!c.permits(&Actor::Entity("mallory".into()), Action::Publish));
        assert!(c.permits(&Actor::Entity("tracker-1".into()), Action::Subscribe));
    }

    #[test]
    fn session_channels_have_correct_constrainers() {
        let tt = uuid(3);
        let sess = uuid(4);
        let e2b = ConstrainedTopic::parse(&topics::entity_to_broker(&tt, &sess))
            .unwrap()
            .unwrap();
        assert_eq!(e2b.constrainer, Constrainer::Broker);
        assert_eq!(e2b.allowed_actions, AllowedActions::SubscribeOnly);
        assert!(e2b.suppressed());

        let b2e = ConstrainedTopic::parse(&topics::broker_to_entity("entity-9", &tt, &sess))
            .unwrap()
            .unwrap();
        assert_eq!(b2e.constrainer, Constrainer::Entity("entity-9".to_string()));
        assert!(b2e.permits(&Actor::Entity("entity-9".into()), Action::Subscribe));
        assert!(!b2e.permits(&Actor::Entity("other".into()), Action::Subscribe));
    }

    #[test]
    fn descriptor_and_query_formats() {
        assert_eq!(
            topics::descriptor_for_entity("worker-3"),
            "Availability/Traces/worker-3"
        );
        assert_eq!(topics::discovery_query("worker-3"), "/Liveness/worker-3");
    }

    #[test]
    fn distinct_trace_topics_give_distinct_channels() {
        let a = topics::publication(&uuid(5), TraceCategory::Load);
        let b = topics::publication(&uuid(6), TraceCategory::Load);
        assert_ne!(a, b);
    }

    #[test]
    fn trace_event_codec_round_trip() {
        let ev = TraceEvent {
            entity_id: "entity-1".to_string(),
            trace_topic: uuid(7),
            seq: 99,
            timestamp_ms: 1_700_000_000_123,
            kind: TraceKind::AllsWell,
        };
        assert_eq!(TraceEvent::from_bytes(&ev.to_bytes()).unwrap(), ev);
    }

    #[test]
    fn interest_channels_are_paired() {
        let tt = uuid(8);
        let probe = topics::gauge_interest(&tt);
        let reply = topics::interest_response(&tt);
        assert_ne!(probe, reply);
        // The probe is broker-publish-only, the reply broker-subscribe-only.
        let probe_c = ConstrainedTopic::parse(&probe).unwrap().unwrap();
        let reply_c = ConstrainedTopic::parse(&reply).unwrap().unwrap();
        assert_eq!(probe_c.allowed_actions, AllowedActions::PublishOnly);
        assert_eq!(reply_c.allowed_actions, AllowedActions::SubscribeOnly);
    }
}

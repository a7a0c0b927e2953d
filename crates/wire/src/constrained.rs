//! The constrained-topic grammar (paper §3.1).
//!
//! ```text
//! /Constrained/{Event Type}/{Constrainer}/{Allowed Actions}/{Distribution}/{suffixes…}
//! ```
//!
//! Elements may be omitted, in which case defaults apply — the paper
//! gives `/Constrained/Traces/Limited` and
//! `/Constrained/Traces/Broker/PublishSubscribe/Limited` as equivalent
//! topics. Parsing therefore walks the element slots in order and
//! consumes a segment only when it is plausible for the current slot,
//! falling back to the slot's default otherwise.
//!
//! Element semantics:
//!
//! * **Event Type** — content label, default `RealTime` (traces use
//!   `Traces`).
//! * **Constrainer** — `Broker` (default) or an entity identifier; the
//!   one principal allowed to perform the constrained actions.
//! * **Allowed Actions** — actions ONLY the constrainer may perform:
//!   `Publish-Only` (others may subscribe), `Subscribe-Only` (others
//!   may publish but not subscribe), or `PublishSubscribe` (default —
//!   nobody but the constrainer may do anything).
//! * **Distribution** — `Disseminate` (default) or
//!   `Suppress`/`Limited`: the constrainer's publishes/subscriptions
//!   are not propagated to neighbouring brokers. The paper's examples
//!   spell this element `Limited`; we accept it as a synonym of
//!   `Suppress` and canonicalize to `Limited`.

use crate::codec::{Decode, Encode, Reader, Writer};
use crate::error::WireError;
use crate::topic::Topic;
use crate::Result;
use std::fmt;

/// Leading keyword identifying a constrained topic.
pub const CONSTRAINED_KEYWORD: &str = "Constrained";

/// `{Event Type}` element.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum EventType {
    /// Default event type.
    RealTime,
    /// Availability traces (the tracing scheme's event type).
    Traces,
    /// Any other content label.
    Other(String),
}

impl EventType {
    fn as_str(&self) -> &str {
        match self {
            EventType::RealTime => "RealTime",
            EventType::Traces => "Traces",
            EventType::Other(s) => s,
        }
    }

    fn from_segment(seg: &str) -> Self {
        match seg {
            "RealTime" => EventType::RealTime,
            "Traces" => EventType::Traces,
            other => EventType::Other(other.to_string()),
        }
    }
}

/// `{Constrainer}` element: the principal granted the constrained
/// actions.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Constrainer {
    /// The broker hosting the traced entity (default).
    Broker,
    /// A specific entity, by identifier.
    Entity(String),
}

impl Constrainer {
    fn as_str(&self) -> &str {
        match self {
            Constrainer::Broker => "Broker",
            Constrainer::Entity(id) => id,
        }
    }
}

/// `{Allowed Actions}` element: actions reserved to the constrainer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AllowedActions {
    /// Only the constrainer may publish; anyone may subscribe.
    PublishOnly,
    /// Only the constrainer may subscribe; anyone may publish.
    SubscribeOnly,
    /// Only the constrainer may publish *or* subscribe (default).
    #[default]
    PublishSubscribe,
}

impl AllowedActions {
    fn as_str(&self) -> &str {
        match self {
            AllowedActions::PublishOnly => "Publish-Only",
            AllowedActions::SubscribeOnly => "Subscribe-Only",
            AllowedActions::PublishSubscribe => "PublishSubscribe",
        }
    }

    fn from_segment(seg: &str) -> Option<Self> {
        match seg {
            "Publish" | "Publish-Only" | "Publish_Only" | "PublishOnly" => {
                Some(AllowedActions::PublishOnly)
            }
            "Subscribe" | "Subscribe-Only" | "Subscribe_Only" | "SubscribeOnly" => {
                Some(AllowedActions::SubscribeOnly)
            }
            "PublishSubscribe" => Some(AllowedActions::PublishSubscribe),
            _ => None,
        }
    }
}

/// `{Distribution}` element.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Distribution {
    /// The constrainer's actions propagate through the broker network
    /// (default).
    #[default]
    Disseminate,
    /// The constrainer's publishes/subscriptions stay on the local
    /// broker (the paper's `Suppress`, spelled `Limited` in examples).
    Suppress,
}

impl Distribution {
    fn as_str(&self) -> &str {
        match self {
            Distribution::Disseminate => "Disseminate",
            Distribution::Suppress => "Limited",
        }
    }

    fn from_segment(seg: &str) -> Option<Self> {
        match seg {
            "Disseminate" => Some(Distribution::Disseminate),
            "Suppress" | "Limited" => Some(Distribution::Suppress),
            _ => None,
        }
    }
}

/// The principal attempting an action on a constrained topic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Actor {
    /// A broker node.
    Broker,
    /// An ordinary entity, by identifier.
    Entity(String),
}

/// A pub/sub action subject to constraint checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Publishing a message on the topic.
    Publish,
    /// Registering a subscription to the topic.
    Subscribe,
}

/// A parsed constrained topic.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ConstrainedTopic {
    /// Content label.
    pub event_type: EventType,
    /// Principal allowed the constrained actions.
    pub constrainer: Constrainer,
    /// Which actions are reserved to the constrainer.
    pub allowed_actions: AllowedActions,
    /// Whether the constrainer's actions propagate between brokers.
    pub distribution: Distribution,
    /// Trailing free-form segments (e.g. trace topic + session id).
    pub suffixes: Vec<String>,
}

impl ConstrainedTopic {
    /// Builds a constrained topic with explicit elements.
    pub fn new(
        event_type: EventType,
        constrainer: Constrainer,
        allowed_actions: AllowedActions,
        distribution: Distribution,
        suffixes: Vec<String>,
    ) -> Self {
        ConstrainedTopic {
            event_type,
            constrainer,
            allowed_actions,
            distribution,
            suffixes,
        }
    }

    /// Whether `topic` is a constrained topic (starts with the
    /// `Constrained` keyword).
    pub fn is_constrained(topic: &Topic) -> bool {
        topic.segments().first().map(String::as_str) == Some(CONSTRAINED_KEYWORD)
    }

    /// Parses a [`Topic`] under the defaulting rules described in the
    /// module docs. Returns `Ok(None)` for non-constrained topics.
    pub fn parse(topic: &Topic) -> Result<Option<Self>> {
        if !Self::is_constrained(topic) {
            return Ok(None);
        }
        let segs = &topic.segments()[1..];
        let mut idx = 0;

        // Slot 1: event type. A segment is an event type unless it
        // reads as a later slot's keyword.
        let event_type = match segs.get(idx) {
            Some(seg)
                if seg != "Broker"
                    && AllowedActions::from_segment(seg).is_none()
                    && Distribution::from_segment(seg).is_none() =>
            {
                idx += 1;
                EventType::from_segment(seg)
            }
            _ => EventType::RealTime,
        };

        // Slot 2: constrainer. `Broker` or an entity id (any segment
        // that is not an action/distribution keyword).
        let constrainer = match segs.get(idx) {
            Some(seg) if seg == "Broker" => {
                idx += 1;
                Constrainer::Broker
            }
            Some(seg)
                if AllowedActions::from_segment(seg).is_none()
                    && Distribution::from_segment(seg).is_none()
                    && segs.len() > idx + 1 =>
            {
                // Only treat a free segment as an entity constrainer if
                // more segments follow; a lone trailing free segment is
                // a suffix.
                idx += 1;
                Constrainer::Entity(seg.to_string())
            }
            _ => Constrainer::Broker,
        };

        // Slot 3: allowed actions.
        let allowed_actions = match segs.get(idx).and_then(|s| AllowedActions::from_segment(s)) {
            Some(a) => {
                idx += 1;
                a
            }
            None => AllowedActions::default(),
        };

        // Slot 4: distribution.
        let distribution = match segs.get(idx).and_then(|s| Distribution::from_segment(s)) {
            Some(d) => {
                idx += 1;
                d
            }
            None => Distribution::default(),
        };

        let suffixes = segs[idx..].to_vec();
        Ok(Some(ConstrainedTopic {
            event_type,
            constrainer,
            allowed_actions,
            distribution,
            suffixes,
        }))
    }

    /// Canonical topic form with every element spelled out.
    pub fn to_topic(&self) -> Topic {
        let mut segments = vec![
            CONSTRAINED_KEYWORD.to_string(),
            self.event_type.as_str().to_string(),
            self.constrainer.as_str().to_string(),
            self.allowed_actions.as_str().to_string(),
            self.distribution.as_str().to_string(),
        ];
        segments.extend(self.suffixes.iter().cloned());
        Topic::from_segments(segments).expect("canonical constrained topic is always valid")
    }

    /// Whether `actor` matches this topic's constrainer.
    pub fn is_constrainer(&self, actor: &Actor) -> bool {
        match (&self.constrainer, actor) {
            (Constrainer::Broker, Actor::Broker) => true,
            (Constrainer::Entity(id), Actor::Entity(a)) => id == a,
            _ => false,
        }
    }

    /// Constraint check: may `actor` perform `action` on this topic?
    pub fn permits(&self, actor: &Actor, action: Action) -> bool {
        let reserved = match (self.allowed_actions, action) {
            (AllowedActions::PublishOnly, Action::Publish) => true,
            (AllowedActions::PublishOnly, Action::Subscribe) => false,
            (AllowedActions::SubscribeOnly, Action::Subscribe) => true,
            (AllowedActions::SubscribeOnly, Action::Publish) => false,
            (AllowedActions::PublishSubscribe, _) => true,
        };
        !reserved || self.is_constrainer(actor)
    }

    /// Whether the constrainer's actions should stay on the local
    /// broker (Suppress/Limited distribution).
    pub fn suppressed(&self) -> bool {
        self.distribution == Distribution::Suppress
    }
}

impl fmt::Display for ConstrainedTopic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_topic())
    }
}

impl Encode for ConstrainedTopic {
    fn encode(&self, w: &mut Writer) {
        self.to_topic().encode(w);
    }
}

impl Decode for ConstrainedTopic {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        let topic = Topic::decode(r)?;
        ConstrainedTopic::parse(&topic)?
            .ok_or_else(|| WireError::InvalidTopic("not a constrained topic".into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> ConstrainedTopic {
        ConstrainedTopic::parse(&Topic::parse(s).unwrap())
            .unwrap()
            .expect("constrained")
    }

    #[test]
    fn non_constrained_topics_pass_through() {
        let t = Topic::parse("/Availability/Traces/entity-1").unwrap();
        assert!(ConstrainedTopic::parse(&t).unwrap().is_none());
        assert!(!ConstrainedTopic::is_constrained(&t));
    }

    #[test]
    fn fully_specified_example_from_paper() {
        let c = parse("/Constrained/Traces/Broker/Subscribe-Only/Limited/Trace-Topic");
        assert_eq!(c.event_type, EventType::Traces);
        assert_eq!(c.constrainer, Constrainer::Broker);
        assert_eq!(c.allowed_actions, AllowedActions::SubscribeOnly);
        assert_eq!(c.distribution, Distribution::Suppress);
        assert_eq!(c.suffixes, vec!["Trace-Topic".to_string()]);
    }

    #[test]
    fn paper_equivalence_of_defaulted_forms() {
        // The paper: "/Constrained/Traces/Broker/PublishSubscribe/Limited
        // and /Constrained/Traces/Limited are equivalent topics."
        let full = parse("/Constrained/Traces/Broker/PublishSubscribe/Limited");
        let short = parse("/Constrained/Traces/Limited");
        assert_eq!(full, short);
        assert_eq!(full.to_topic(), short.to_topic());
    }

    #[test]
    fn bare_constrained_topic_is_all_defaults() {
        let c = parse("/Constrained");
        assert_eq!(c.event_type, EventType::RealTime);
        assert_eq!(c.constrainer, Constrainer::Broker);
        assert_eq!(c.allowed_actions, AllowedActions::PublishSubscribe);
        assert_eq!(c.distribution, Distribution::Disseminate);
        assert!(c.suffixes.is_empty());
    }

    #[test]
    fn entity_constrainer_is_recognized() {
        let c = parse("/Constrained/Traces/entity-42/Subscribe-Only/Trace-Topic/Session-1");
        assert_eq!(c.constrainer, Constrainer::Entity("entity-42".to_string()));
        assert_eq!(c.allowed_actions, AllowedActions::SubscribeOnly);
        assert_eq!(c.distribution, Distribution::Disseminate);
        assert_eq!(
            c.suffixes,
            vec!["Trace-Topic".to_string(), "Session-1".to_string()]
        );
    }

    #[test]
    fn derivative_trace_topic_parses() {
        let c = parse("/Constrained/Traces/Broker/Publish-Only/tt-uuid/ChangeNotifications");
        assert_eq!(c.allowed_actions, AllowedActions::PublishOnly);
        assert_eq!(
            c.suffixes,
            vec!["tt-uuid".to_string(), "ChangeNotifications".to_string()]
        );
    }

    #[test]
    fn canonical_round_trip() {
        let c = parse("/Constrained/Traces/Limited");
        let canon = c.to_topic();
        let reparsed = ConstrainedTopic::parse(&canon).unwrap().unwrap();
        assert_eq!(reparsed, c);
    }

    #[test]
    fn publish_only_semantics() {
        let c = parse("/Constrained/Traces/Broker/Publish-Only/tt/AllUpdates");
        // Only brokers publish; everyone may subscribe.
        assert!(c.permits(&Actor::Broker, Action::Publish));
        assert!(!c.permits(&Actor::Entity("e1".into()), Action::Publish));
        assert!(c.permits(&Actor::Entity("e1".into()), Action::Subscribe));
        assert!(c.permits(&Actor::Broker, Action::Subscribe));
    }

    #[test]
    fn subscribe_only_semantics() {
        let c = parse("/Constrained/Traces/Broker/Subscribe-Only/Registration");
        // Only the broker subscribes; entities may publish into it.
        assert!(c.permits(&Actor::Broker, Action::Subscribe));
        assert!(!c.permits(&Actor::Entity("e1".into()), Action::Subscribe));
        assert!(c.permits(&Actor::Entity("e1".into()), Action::Publish));
    }

    #[test]
    fn publish_subscribe_reserves_everything() {
        let c = parse("/Constrained/Traces/Broker/PublishSubscribe/Admin");
        assert!(!c.permits(&Actor::Entity("e1".into()), Action::Publish));
        assert!(!c.permits(&Actor::Entity("e1".into()), Action::Subscribe));
        assert!(c.permits(&Actor::Broker, Action::Publish));
        assert!(c.permits(&Actor::Broker, Action::Subscribe));
    }

    #[test]
    fn entity_constrainer_enforcement() {
        let c = parse("/Constrained/Traces/entity-7/Subscribe-Only/tt/sess");
        assert!(c.permits(&Actor::Entity("entity-7".into()), Action::Subscribe));
        assert!(!c.permits(&Actor::Entity("entity-8".into()), Action::Subscribe));
        assert!(!c.permits(&Actor::Broker, Action::Subscribe));
    }

    #[test]
    fn suppress_detection() {
        assert!(parse("/Constrained/Traces/Limited").suppressed());
        assert!(parse("/Constrained/Traces/Suppress").suppressed());
        assert!(!parse("/Constrained/Traces").suppressed());
    }

    #[test]
    fn underscore_and_hyphen_action_spellings() {
        for s in [
            "/Constrained/Traces/Broker/Subscribe_Only/x",
            "/Constrained/Traces/Broker/Subscribe-Only/x",
            "/Constrained/Traces/Broker/SubscribeOnly/x",
            "/Constrained/Traces/Broker/Subscribe/x",
        ] {
            assert_eq!(
                parse(s).allowed_actions,
                AllowedActions::SubscribeOnly,
                "{s}"
            );
        }
    }

    #[test]
    fn codec_round_trip() {
        let c = parse("/Constrained/Traces/Broker/Publish-Only/tt/Load");
        let bytes = c.to_bytes();
        assert_eq!(ConstrainedTopic::from_bytes(&bytes).unwrap(), c);
    }
}

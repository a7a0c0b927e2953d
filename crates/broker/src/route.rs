//! The route cache behind the broker's routing pipeline: a sharded,
//! versioned map from topic to compiled routing decision.
//!
//! Deciding where a data frame goes costs a `ConstrainedTopic` parse
//! and two subscription-table scans under the broker's single state
//! mutex. This module caches the *outcome* of that per topic, so
//! [`crate::node`]'s pipeline routes a frame with: borrow-parse the
//! frame ([`nb_wire::MessageView`]), hash the topic bytes, one sharded
//! read-lock lookup, and a fan-out of the original frame bytes to the
//! cached destinations. No allocation, no state mutex, no re-encode
//! (enforced by `tests/no_alloc_route.rs`).
//!
//! ## Consistency model
//!
//! A single global [`RouteCache::bump`] version is incremented (under
//! the broker state lock) by **every** control-plane mutation that can
//! change a routing decision: client attach/detach, neighbour
//! registration/departure, any subscription add/remove, internal
//! consumer registration, and client termination. Each cache entry
//! records the version observed *while holding the state lock* at fill
//! time; a lookup whose entry version differs from the current global
//! version is treated as a miss and refilled. Entries are therefore
//! never stale: either the version matches and the entry reflects the
//! exact state the control plane last published, or the pipeline
//! refills it.
//!
//! ## Locking
//!
//! Lookups take only a shard read lock. Fills take the broker state
//! lock (to snapshot destinations and the version atomically), release
//! it, then take one shard write lock. No path ever holds a shard lock
//! and the state lock simultaneously, so no lock-order cycle exists.

use crossbeam::channel::Sender;
use nb_crypto::Uuid;
use nb_metrics::{Counter, Histogram, Registry};
use nb_transport::endpoint::FrameSender;
use nb_wire::constrained::{
    Action, Actor, AllowedActions, ConstrainedTopic, Constrainer, EventType,
};
use nb_wire::{Message, Topic, TopicView};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Number of independent cache shards. Concurrent routes on different
/// topics contend only when their topic hashes collide modulo this.
const SHARDS: usize = 16;

/// Who may publish on a topic, resolved once at cache-fill time so the
/// pipeline never re-parses the constrained-topic grammar.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum PublishRule {
    /// Anyone may publish (unconstrained, or publish not reserved).
    Anyone,
    /// Publishing is reserved to brokers; client publishes are bogus.
    BrokerOnly,
    /// Publishing is reserved to this one entity.
    EntityOnly(String),
}

/// Routing-relevant facts about one topic, precomputed at fill time
/// from [`ConstrainedTopic::parse`].
#[derive(Debug, Clone)]
pub(crate) struct TopicPolicy {
    /// Publish permission, per §3.1 constrained-topic enforcement.
    pub publish_rule: PublishRule,
    /// Broker-published trace channel (§4.3): neighbour/internal
    /// ingress must carry a live session tag or a valid token.
    pub requires_token: bool,
    /// Suppress/Limited distribution with a Broker constrainer:
    /// neighbour/internal publishes stay local.
    pub suppress_broker: bool,
    /// Suppress/Limited distribution with an entity constrainer: that
    /// entity's publishes stay local.
    pub suppress_entity: Option<String>,
    /// The trace-topic uuid parsed from the publication suffix, when
    /// the channel requires tokens and the suffix is a uuid. Binds
    /// session keys to the one topic they were minted for: a key for
    /// topic A can never authenticate a frame on topic B.
    pub session_topic: Option<Uuid>,
    /// Per-topic metric label: `plain`, `RealTime`, `Traces`, or
    /// `other` for any event type a peer names, so peers cannot add
    /// metrics to the registry.
    pub family: &'static str,
}

impl TopicPolicy {
    /// Compiles the policy for `topic`. `Err` from the constrained
    /// parser is surfaced so the caller can reject the frame.
    pub(crate) fn compile(topic: &Topic) -> Result<Self, ()> {
        let constrained = ConstrainedTopic::parse(topic).map_err(|_| ())?;
        Ok(match constrained {
            None => TopicPolicy {
                publish_rule: PublishRule::Anyone,
                requires_token: false,
                suppress_broker: false,
                suppress_entity: None,
                session_topic: None,
                family: "plain",
            },
            Some(c) => {
                let publish_rule = if c.permits(&Actor::Entity(String::new()), Action::Publish)
                    && c.permits(&Actor::Broker, Action::Publish)
                {
                    PublishRule::Anyone
                } else {
                    match &c.constrainer {
                        Constrainer::Broker => PublishRule::BrokerOnly,
                        Constrainer::Entity(id) => PublishRule::EntityOnly(id.clone()),
                    }
                };
                let requires_token = c.event_type == EventType::Traces
                    && c.allowed_actions == AllowedActions::PublishOnly;
                let session_topic = if requires_token {
                    c.suffixes.first().and_then(|s| s.parse::<Uuid>().ok())
                } else {
                    None
                };
                let (suppress_broker, suppress_entity) = if c.suppressed() {
                    match &c.constrainer {
                        Constrainer::Broker => (true, None),
                        Constrainer::Entity(id) => (false, Some(id.clone())),
                    }
                } else {
                    (false, None)
                };
                let family = match &c.event_type {
                    EventType::RealTime => "RealTime",
                    EventType::Traces => "Traces",
                    EventType::Other(_) => "other",
                };
                TopicPolicy {
                    publish_rule,
                    requires_token,
                    suppress_broker,
                    suppress_entity,
                    session_topic,
                    family,
                }
            }
        })
    }

    /// Whether a directly attached client `id` may publish here.
    pub(crate) fn client_may_publish(&self, id: &str) -> bool {
        match &self.publish_rule {
            PublishRule::Anyone => true,
            PublishRule::BrokerOnly => false,
            PublishRule::EntityOnly(owner) => owner == id,
        }
    }
}

/// A cached local-client destination.
pub(crate) struct ClientDest {
    /// Client id (for publisher echo suppression).
    pub id: String,
    /// The client's frame sender.
    pub sender: Arc<dyn FrameSender>,
    /// Live termination flag shared with the client's
    /// [`crate::node`] handle: checked lock-free before each send so a
    /// client terminated for bogus attempts stops receiving
    /// immediately, even through a cached entry.
    pub terminated: Arc<AtomicBool>,
}

/// A cached neighbour-broker destination.
pub(crate) struct NeighborDest {
    /// Neighbour broker id (for ingress echo suppression).
    pub id: String,
    /// The neighbour link's frame sender.
    pub sender: Arc<dyn FrameSender>,
}

/// One compiled routing decision: everything needed to fan a data
/// frame for this topic out to its destinations without touching the
/// broker state lock.
pub(crate) struct RouteEntry {
    /// The owned topic (collision guard: lookups compare the frame's
    /// topic bytes against this, so two topics hashing alike never
    /// share an entry).
    pub topic: Topic,
    /// Precompiled constraint policy, or `None` when the constrained
    /// grammar rejected the topic (every frame on it is rejected).
    pub policy: Option<TopicPolicy>,
    /// Matching directly attached clients.
    pub clients: Vec<ClientDest>,
    /// Queues of the matching in-process consumers (the tracing
    /// engine, a hosted TDN): they take owned [`Message`]s, decoded
    /// from the frame once per route.
    pub internal: Vec<Sender<Message>>,
    /// Matching neighbour brokers.
    pub neighbors: Vec<NeighborDest>,
    /// Whether an attached runtime monitor has at least one delivery
    /// property governing this topic, resolved at fill time (`false`
    /// when no monitor is attached). Attaching a monitor bumps the
    /// cache version, so entries filled before the attach are never
    /// consulted afterwards — unmonitored topics pay one branch here
    /// instead of a lock probe per frame.
    pub monitored: bool,
    /// Cached `broker.publish.topic.<family>` handle.
    pub published_family: Counter,
    /// Cached `broker.deliver.topic.<family>` handle.
    pub delivered_family: Counter,
}

type Shard = RwLock<HashMap<u64, Vec<(u64, Arc<RouteEntry>)>>>;

/// The sharded, versioned route cache. One per broker.
pub(crate) struct RouteCache {
    shards: Vec<Shard>,
    version: AtomicU64,
    /// `broker.route.cache_hit` — lookups served from cache.
    pub hits: Counter,
    /// `broker.route.cache_miss` — lookups that had to fill.
    pub misses: Counter,
    /// `broker.route.cache_stale` — entries invalidated by a version
    /// bump since fill.
    pub stale: Counter,
    /// `broker.route.fastpath` — frames routed without an owned decode.
    pub fastpath: Counter,
    /// `broker.route.slowpath` — frames the pipeline had to decode (an
    /// in-process consumer or the RSA token fallback needed them).
    pub slowpath: Counter,
    /// `broker.route.ns` — per-frame routing latency (nanoseconds),
    /// every routed frame.
    pub latency_ns: Histogram,
}

impl RouteCache {
    /// Creates the cache and registers its metrics on `registry`.
    pub(crate) fn new(registry: &Registry) -> Self {
        RouteCache {
            shards: (0..SHARDS).map(|_| RwLock::new(HashMap::new())).collect(),
            version: AtomicU64::new(0),
            hits: registry.counter("broker.route.cache_hit"),
            misses: registry.counter("broker.route.cache_miss"),
            stale: registry.counter("broker.route.cache_stale"),
            fastpath: registry.counter("broker.route.fastpath"),
            slowpath: registry.counter("broker.route.slowpath"),
            latency_ns: registry.histogram("broker.route.ns"),
        }
    }

    /// Invalidates every cached entry. Called (under the broker state
    /// lock) at each control-plane mutation; O(1).
    pub(crate) fn bump(&self) {
        self.version.fetch_add(1, Ordering::Release);
    }

    /// The current control-plane version. Read under the broker state
    /// lock at fill time so the entry snapshot and version agree.
    pub(crate) fn current_version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// Invalidates and drops every cached entry, and with them the
    /// destinations they hold; a fill already under way is not cached.
    pub(crate) fn clear(&self) {
        self.bump();
        for shard in &self.shards {
            shard.write().clear();
        }
    }

    #[inline]
    fn shard(&self, hash: u64) -> &Shard {
        &self.shards[(hash as usize) & (SHARDS - 1)]
    }

    /// Looks up the entry for a frame's topic. Returns `None` on miss
    /// or when the entry predates the latest control-plane change.
    /// Allocation-free on the hit path (one `Arc` clone).
    #[inline]
    pub(crate) fn lookup(&self, hash: u64, topic: &TopicView<'_>) -> Option<Arc<RouteEntry>> {
        let current = self.version.load(Ordering::Acquire);
        let shard = self.shard(hash).read();
        let slots = shard.get(&hash)?;
        for (version, entry) in slots {
            if topic.eq_topic(&entry.topic) {
                if *version == current {
                    self.hits.inc();
                    return Some(Arc::clone(entry));
                }
                self.stale.inc();
                return None;
            }
        }
        None
    }

    /// Installs `entry` under `hash` at `version`, replacing any older
    /// entry for the same topic. An entry a control-plane change has
    /// already overtaken would never be served, so it is not kept: the
    /// version is checked under the shard lock, which makes
    /// [`RouteCache::clear`] final.
    pub(crate) fn insert(&self, hash: u64, version: u64, entry: Arc<RouteEntry>) {
        let mut shard = self.shard(hash).write();
        if version != self.current_version() {
            return;
        }
        let slots = shard.entry(hash).or_default();
        slots.retain(|(_, e)| e.topic != entry.topic);
        slots.push((version, entry));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nb_wire::codec::Encode;

    fn t(s: &str) -> Topic {
        Topic::parse(s).unwrap()
    }

    fn entry(topic: &str, registry: &Registry) -> Arc<RouteEntry> {
        Arc::new(RouteEntry {
            topic: t(topic),
            policy: TopicPolicy::compile(&t(topic)).ok(),
            clients: Vec::new(),
            internal: Vec::new(),
            neighbors: Vec::new(),
            monitored: false,
            published_family: registry.counter("test.pub"),
            delivered_family: registry.counter("test.del"),
        })
    }

    fn view_of(topic: &Topic) -> (Vec<u8>, u64) {
        // Round-trip through a v3 frame to get a TopicView.
        let msg = nb_wire::Message::new(
            1,
            topic.clone(),
            "s",
            0,
            nb_wire::Payload::Ping {
                seq: 0,
                sent_at_ms: 0,
            },
        );
        let frame = msg.to_bytes();
        let hash = nb_wire::topic_hash(topic);
        (frame, hash)
    }

    #[test]
    fn lookup_hits_current_version_only() {
        let registry = Registry::new();
        let cache = RouteCache::new(&registry);
        let topic = t("/A/B");
        let (frame, hash) = view_of(&topic);
        let view = nb_wire::MessageView::parse(&frame).unwrap();

        assert!(cache.lookup(hash, &view.topic).is_none());
        cache.insert(hash, cache.current_version(), entry("/A/B", &registry));
        assert!(cache.lookup(hash, &view.topic).is_some());

        cache.bump();
        assert!(
            cache.lookup(hash, &view.topic).is_none(),
            "stale after bump"
        );
        assert_eq!(
            registry.snapshot().counter("broker.route.cache_stale"),
            Some(1)
        );

        cache.insert(hash, cache.current_version(), entry("/A/B", &registry));
        assert!(cache.lookup(hash, &view.topic).is_some());
    }

    #[test]
    fn clear_drops_every_entry_and_refuses_overtaken_fills() {
        let registry = Registry::new();
        let cache = RouteCache::new(&registry);
        let (frame, hash) = view_of(&t("/A"));
        let view = nb_wire::MessageView::parse(&frame).unwrap();
        let filled_at = cache.current_version();
        let cached = entry("/A", &registry);
        cache.insert(hash, filled_at, Arc::clone(&cached));
        assert_eq!(Arc::strong_count(&cached), 2);
        cache.clear();
        assert_eq!(
            Arc::strong_count(&cached),
            1,
            "the cache let go of the entry"
        );
        // A fill that read its version before the clear lands after it.
        cache.insert(hash, filled_at, Arc::clone(&cached));
        assert_eq!(Arc::strong_count(&cached), 1);
        assert!(cache.lookup(hash, &view.topic).is_none());
    }

    #[test]
    fn colliding_hash_slots_disambiguate_by_topic() {
        let registry = Registry::new();
        let cache = RouteCache::new(&registry);
        let (frame_a, hash_a) = view_of(&t("/A"));
        let view_a = nb_wire::MessageView::parse(&frame_a).unwrap();
        let v = cache.current_version();
        // Force both topics into the same slot key.
        cache.insert(hash_a, v, entry("/Other", &registry));
        // A different topic under the same hash must not match.
        assert!(cache.lookup(hash_a, &view_a.topic).is_none());
    }

    #[test]
    fn insert_replaces_same_topic() {
        let registry = Registry::new();
        let cache = RouteCache::new(&registry);
        let (frame, hash) = view_of(&t("/A"));
        let view = nb_wire::MessageView::parse(&frame).unwrap();
        let v = cache.current_version();
        cache.insert(hash, v, entry("/A", &registry));
        cache.insert(hash, v, entry("/A", &registry));
        let shard = cache.shard(hash).read();
        assert_eq!(shard.get(&hash).unwrap().len(), 1);
        drop(shard);
        assert!(cache.lookup(hash, &view.topic).is_some());
    }

    #[test]
    fn policy_unconstrained_is_anyone() {
        let p = TopicPolicy::compile(&t("/Availability/e1/Load")).unwrap();
        assert_eq!(p.publish_rule, PublishRule::Anyone);
        assert!(!p.requires_token);
        assert!(!p.suppress_broker);
        assert!(p.suppress_entity.is_none());
        assert_eq!(p.family, "plain");
        assert!(p.client_may_publish("anyone"));
    }

    #[test]
    fn policy_broker_reserved_publish() {
        let p = TopicPolicy::compile(&t("/Constrained/Traces/Broker/Publish-Only/tt")).unwrap();
        assert_eq!(p.publish_rule, PublishRule::BrokerOnly);
        assert!(p.requires_token, "broker-published trace channel");
        assert!(!p.client_may_publish("e1"));
        assert_eq!(p.family, "Traces");
    }

    #[test]
    fn policy_entity_constrainer() {
        let p =
            TopicPolicy::compile(&t("/Constrained/Traces/entity-7/Subscribe-Only/tt/s")).unwrap();
        // Subscribe-Only reserves subscribing; publishing is open.
        assert_eq!(p.publish_rule, PublishRule::Anyone);
        let p = TopicPolicy::compile(&t("/Constrained/Traces/entity-7/Publish-Only/tt/s")).unwrap();
        assert_eq!(p.publish_rule, PublishRule::EntityOnly("entity-7".into()));
        assert!(p.client_may_publish("entity-7"));
        assert!(!p.client_may_publish("entity-8"));
    }

    #[test]
    fn policy_session_topic_binds_only_uuid_trace_publications() {
        // A publication topic whose first suffix is the trace-topic
        // uuid binds the session layer to that uuid.
        let uuid: Uuid = "6ba7b810-9dad-11d1-80b4-00c04fd430c8".parse().unwrap();
        let p = TopicPolicy::compile(&t(&format!(
            "/Constrained/Traces/Broker/Publish-Only/{uuid}/AllUpdates"
        )))
        .unwrap();
        assert!(p.requires_token);
        assert_eq!(p.session_topic, Some(uuid));
        // A non-uuid suffix still requires tokens but never a session.
        let p = TopicPolicy::compile(&t("/Constrained/Traces/Broker/Publish-Only/tt")).unwrap();
        assert!(p.requires_token);
        assert_eq!(p.session_topic, None);
        // Tokenless channels never carry a session binding.
        let p = TopicPolicy::compile(&t(&format!(
            "/Constrained/Traces/Broker/Subscribe-Only/{uuid}"
        )))
        .unwrap();
        assert!(!p.requires_token);
        assert_eq!(p.session_topic, None);
    }

    #[test]
    fn policy_suppression_split_by_constrainer() {
        let p = TopicPolicy::compile(&t("/Constrained/Traces/Limited")).unwrap();
        assert!(p.suppress_broker);
        assert!(p.suppress_entity.is_none());
        let p = TopicPolicy::compile(&t("/Constrained/Traces/e1/Publish-Only/Limited/x")).unwrap();
        assert!(!p.suppress_broker);
        assert_eq!(p.suppress_entity.as_deref(), Some("e1"));
    }

    #[test]
    fn policy_matches_full_permits_for_a_corpus() {
        // The compiled publish rule must agree with
        // ConstrainedTopic::permits for every corpus topic and actor.
        let corpus = [
            "/plain/topic",
            "/Constrained",
            "/Constrained/Traces/Limited",
            "/Constrained/RealTime/Broker/PublishSubscribe/Control",
            "/Constrained/Traces/Broker/Publish-Only/tt/Updates",
            "/Constrained/Traces/Broker/Subscribe-Only/Registration",
            "/Constrained/Traces/entity-1/Publish-Only/tt/s",
            "/Constrained/Traces/entity-1/Subscribe-Only/tt/s",
            "/Constrained/Other/entity-2/PublishSubscribe/x",
        ];
        for s in corpus {
            let topic = t(s);
            let policy = TopicPolicy::compile(&topic).unwrap();
            let constrained = ConstrainedTopic::parse(&topic).unwrap();
            for actor_id in ["entity-1", "entity-2", "someone-else"] {
                let expected = match &constrained {
                    Some(c) => c.permits(&Actor::Entity(actor_id.to_string()), Action::Publish),
                    None => true,
                };
                assert_eq!(
                    policy.client_may_publish(actor_id),
                    expected,
                    "topic {s}, actor {actor_id}"
                );
            }
        }
    }
}

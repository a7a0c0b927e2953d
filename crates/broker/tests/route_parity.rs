//! Differential test of the broker's routing pipeline against a small
//! reference model of the paper's routing rules.
//!
//! Each case builds a fresh broker on a mock clock with a drawn
//! subscription set — attached clients including the publisher, an
//! in-process consumer, neighbour brokers including the ingress one —
//! then routes a few frames drawn over:
//!
//! * topics: plain; constrained with every event type, constrainer,
//!   allowed action and distribution; grammar the parser has to fill
//!   in with defaults;
//! * origins: client, neighbour, internal;
//! * auth mixes: no token, window-valid, expired and forged tokens,
//!   with and without the owner key registered; session tags under a
//!   live, unknown, revoked or bad-MAC key;
//! * trace contexts: none, unsampled, head-sampled, old enough for tail
//!   sampling, with hop counts around `MAX_HOPS`.
//!
//! After every frame the broker must match the model exactly: who
//! received what (compared decoded, not as bytes), `broker.*` counter
//! deltas, flight-recorder spans, punishments and terminations, and
//! what an attached monitor observed (replayed into a twin monitor fed
//! the model's delivery events).

use nb_broker::{Broker, BrokerConfig, BOGUS_ATTEMPT_LIMIT};
use nb_crypto::cert::{CertificateAuthority, Credential, Validity};
use nb_crypto::rsa::RsaKeyPair;
use nb_crypto::{SessionKey, Uuid};
use nb_monitor::{parse_properties, DeliveryEvent, MonitorSet};
use nb_telemetry::{TelemetryConfig, TraceContext, MAX_HOPS, SLOW_THRESHOLD_MS};
use nb_transport::clock::{MockClock, SharedClock};
use nb_transport::endpoint::{Endpoint, FrameSender};
use nb_wire::codec::{Decode, Encode};
use nb_wire::constrained::{Action, Actor, AllowedActions, ConstrainedTopic, EventType};
use nb_wire::token::{AuthorizationToken, Rights};
use nb_wire::{Message, MessageView, Payload, SessionTag, Topic};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Duration;

const START_MS: u64 = 1_700_000_000_000;
/// Hop counts a frame arrives with: the first two, and the three
/// around the TTL.
const HOPS: [u8; 5] = [0, 1, MAX_HOPS - 1, MAX_HOPS, MAX_HOPS + 1];
/// Age of an "old" frame: past the 1 s tail-sampling threshold, and
/// far enough back that a token expired 60 s ago was still valid at
/// the frame's own timestamp.
const OLD_MS: u64 = 90_000;
const TIMEOUT: Duration = Duration::from_secs(5);

const NODE: &str = "b0";
const PUBLISHER: &str = "c0";
const CLIENTS: [&str; 3] = ["c0", "c1", "c2"];
const ENGINE: &str = "engine";
const INGRESS: &str = "n0";
const NEIGHBORS: [&str; 2] = ["n0", "n1"];
const CONTROL: &str = "/Constrained/RealTime/Broker/PublishSubscribe/Control";

const MONITOR_DSL: &str = "auth: require-token on /Constrained/Traces/*/Publish-Only/#\n\
     session: require-session on /Constrained/Traces/*/Publish-Only/#\n\
     hops: max-hops 0 on /#\n\
     once: exactly-once on /#\n";

// ---------------------------------------------------------------- fixtures

/// Expensive, case-independent material: credentials, tokens and
/// session keys minted once against the fixed mock-clock start.
struct Fixtures {
    trace_topic: Uuid,
    owner: Credential,
    monitor: Credential,
    valid: AuthorizationToken,
    expired: AuthorizationToken,
    forged: AuthorizationToken,
    live: SessionKey,
    revoked: SessionKey,
    unknown: SessionKey,
    topics: Vec<Topic>,
    trace_publications: Vec<Topic>,
}

fn fixtures() -> &'static Fixtures {
    static FX: OnceLock<Fixtures> = OnceLock::new();
    FX.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(0xBA51);
        let validity = Validity::starting_now(0, u64::MAX / 2);
        let mut ca = CertificateAuthority::new("parity-ca", 512, validity, &mut rng).unwrap();
        let owner = ca.issue("entity:owner", validity, &mut rng).unwrap();
        let attacker = ca.issue("entity:attacker", validity, &mut rng).unwrap();
        let monitor = ca.issue("Monitor", validity, &mut rng).unwrap();
        let delegate = RsaKeyPair::generate(512, &mut rng).unwrap();
        let trace_topic = Uuid::new_v4(&mut rng);
        let token = |signer: &Credential, from: u64, until: u64| {
            AuthorizationToken::issue(
                signer,
                trace_topic,
                delegate.public.clone(),
                Rights::Publish,
                from,
                until,
            )
            .unwrap()
        };
        let valid = token(&owner, START_MS - 1_000, START_MS + 60_000);
        let expired = token(&owner, START_MS - 120_000, START_MS - 60_000);
        let forged = token(&attacker, START_MS - 1_000, START_MS + 60_000);
        let key = |rng: &mut StdRng| SessionKey::mint(trace_topic, START_MS, 600_000, 1 << 20, rng);
        let live = key(&mut rng);
        let revoked = key(&mut rng);
        let unknown = key(&mut rng);

        let mut topics = vec![Topic::parse("/Parity/Plain").unwrap()];
        for event_type in ["RealTime", "Traces", "Audit"] {
            for constrainer in ["Broker", "c0", "c1"] {
                for actions in ["Publish-Only", "Subscribe-Only", "PublishSubscribe"] {
                    for distribution in ["Disseminate", "Limited"] {
                        for suffix in [format!("{trace_topic}/AllUpdates"), "x".to_string()] {
                            topics.push(
                                Topic::parse(&format!(
                                    "/Constrained/{event_type}/{constrainer}/{actions}/{distribution}/{suffix}"
                                ))
                                .unwrap(),
                            );
                        }
                    }
                }
            }
        }
        // Grammar the parser completes with defaults: omitted
        // elements, keywords in later slots, a lone trailing segment.
        for s in [
            "/Constrained".to_string(),
            "/Constrained/Limited".to_string(),
            "/Constrained/Traces/Limited".to_string(),
            "/Constrained/Publish-Only/c0".to_string(),
            "/Constrained/Traces/c0".to_string(),
            "/Constrained/Broker/Broker/Publish-Only".to_string(),
            format!("/Constrained/Traces/Publish-Only/Limited/{trace_topic}"),
        ] {
            topics.push(Topic::parse(&s).unwrap());
        }
        let trace_publications = topics
            .iter()
            .filter(|t| {
                ConstrainedTopic::parse(t).unwrap().is_some_and(|c| {
                    c.event_type == EventType::Traces
                        && c.allowed_actions == AllowedActions::PublishOnly
                })
            })
            .cloned()
            .collect();
        Fixtures {
            trace_topic,
            owner,
            monitor,
            valid,
            expired,
            forged,
            live,
            revoked,
            unknown,
            topics,
            trace_publications,
        }
    })
}

// ------------------------------------------------------------------ cases

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Origin {
    Client,
    Neighbor,
    Internal,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TokenKind {
    None,
    Valid,
    Expired,
    Forged,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TagKind {
    None,
    Live,
    Unknown,
    Revoked,
    BadMac,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TraceKind {
    None,
    Unsampled,
    Sampled,
}

#[derive(Debug, Clone)]
struct Case {
    topic: Topic,
    /// Bit per recipient that subscribes to `topic` (where the
    /// constrained-topic rules allow it): c0, c1, c2, engine, n0, n1.
    subs: u8,
    /// c2 is disconnected for bogus attempts before any frame.
    c2_terminated: bool,
    origin: Origin,
    token: TokenKind,
    owner_registered: bool,
    tag: TagKind,
    /// Whether the broker's keyring holds the live and the revoked key.
    keys_installed: bool,
    trace: TraceKind,
    hop: u8,
    old: bool,
    require_tokens: bool,
    telemetry: bool,
    monitor: bool,
    frames: usize,
}

fn arb_case() -> impl Strategy<Value = Case> {
    (
        (0u8..5, 0usize..1_000, 0u8..64, any::<bool>(), 0u8..3),
        (0u8..4, any::<bool>(), 0u8..5, 0u8..4),
        (0u8..3, 0u8..HOPS.len() as u8, any::<bool>()),
        (0u8..4, any::<bool>(), 0u8..4, 1usize..5),
    )
        .prop_map(|(a, b, c, d)| {
            let fx = fixtures();
            let (pick, idx, subs, c2_terminated, origin) = a;
            let (token, owner_registered, tag, keys_installed) = b;
            let (trace, hop, old) = c;
            let (strict, telemetry, monitor, frames) = d;
            // Two draws in five land on a token-bearing trace
            // publication, where the auth mixes matter; token
            // enforcement, the keyring and the monitor are on in three
            // draws of four, so their joint cases (a revoked key on a
            // relayed, traced frame) come up.
            let topic = if pick < 2 {
                fx.trace_publications[idx % fx.trace_publications.len()].clone()
            } else {
                fx.topics[idx % fx.topics.len()].clone()
            };
            Case {
                topic,
                subs,
                c2_terminated,
                origin: [Origin::Client, Origin::Neighbor, Origin::Internal][origin as usize],
                token: [
                    TokenKind::None,
                    TokenKind::Valid,
                    TokenKind::Expired,
                    TokenKind::Forged,
                ][token as usize],
                owner_registered,
                tag: [
                    TagKind::None,
                    TagKind::Live,
                    TagKind::Unknown,
                    TagKind::Revoked,
                    TagKind::BadMac,
                ][tag as usize],
                keys_installed: keys_installed != 0,
                trace: [TraceKind::None, TraceKind::Unsampled, TraceKind::Sampled][trace as usize],
                hop: HOPS[usize::from(hop)],
                old,
                require_tokens: strict != 0,
                telemetry,
                monitor: monitor != 0,
                frames,
            }
        })
}

/// Frame `i` of a case, authenticated and traced as the case says.
fn build_frame(case: &Case, i: usize) -> Message {
    let fx = fixtures();
    let ts = if case.old {
        START_MS - OLD_MS
    } else {
        START_MS
    };
    let mut msg = Message::new(
        100 + i as u64,
        case.topic.clone(),
        "publisher",
        ts,
        Payload::Blob {
            data: vec![i as u8; 4],
        },
    );
    msg.token = match case.token {
        TokenKind::None => None,
        TokenKind::Valid => Some(fx.valid.clone()),
        TokenKind::Expired => Some(fx.expired.clone()),
        TokenKind::Forged => Some(fx.forged.clone()),
    };
    if case.trace != TraceKind::None {
        msg.trace = Some(TraceContext {
            trace_id: 0x7000 + i as u128,
            parent_span: 9,
            hop_count: case.hop,
            sampled: case.trace == TraceKind::Sampled,
        });
    }
    let seq = i as u64 + 1;
    let signable = msg.signable_bytes();
    let tag = |key: &SessionKey| SessionTag {
        key_id: key.key_id,
        seq,
        mac: key.mac(seq, &[&signable]),
    };
    msg.session = match case.tag {
        TagKind::None => None,
        TagKind::Live => Some(tag(&fx.live)),
        TagKind::Unknown => Some(tag(&fx.unknown)),
        TagKind::Revoked => Some(tag(&fx.revoked)),
        TagKind::BadMac => Some(SessionTag {
            key_id: fx.live.key_id,
            seq,
            mac: [0xAA; 32],
        }),
    };
    msg
}

// ------------------------------------------------------------------ model

/// One thing a client inbox received.
#[derive(Debug, Clone, PartialEq)]
enum Got {
    Data(Box<Message>),
    /// The §5.2 termination notice.
    Nack,
}

/// Everything observable about routing one frame.
#[derive(Debug, Default, PartialEq)]
struct Outcome {
    clients: BTreeMap<String, Vec<Got>>,
    engine: Vec<Message>,
    neighbors: BTreeMap<String, Vec<Message>>,
    /// Non-zero `broker.*` counter deltas (route-cache internals
    /// excluded).
    counters: BTreeMap<String, u64>,
    /// Sorted `(stage, hop)` of the frame's flight-recorder spans.
    spans: Vec<(u8, u8)>,
}

impl Outcome {
    fn count(&mut self, name: &str) {
        *self.counters.entry(name.to_string()).or_default() += 1;
    }
}

/// The reference model: the paper's routing rules written out once,
/// with no caching, no views and no shortcuts.
struct Model {
    attached: HashSet<&'static str>,
    subscribed: HashSet<&'static str>,
    bogus: HashMap<&'static str, u32>,
}

/// A delivery event the model expects the broker to report: the
/// message as delivered and its hop count.
type ExpectedEvent = (Message, Option<u8>);

impl Model {
    fn predict(&mut self, case: &Case, msg: &Message) -> (Outcome, Vec<ExpectedEvent>) {
        let mut out = Outcome::default();
        let mut events = Vec::new();
        let mut delivered = msg.clone();
        // Hop TTL on neighbour ingress.
        if case.origin == Origin::Neighbor {
            if let Some(ctx) = &mut delivered.trace {
                ctx.hop_count = ctx.hop_count.saturating_add(1);
                if ctx.hop_count > MAX_HOPS {
                    out.count("broker.drop.ttl_exceeded");
                    return (out, events);
                }
            }
        }
        let hop = delivered.trace.map(|ctx| ctx.hop_count);
        let constrained =
            ConstrainedTopic::parse(&msg.topic).expect("the grammar defaults every slot");
        let family = match &constrained {
            None => "plain".to_string(),
            Some(c) => match &c.event_type {
                EventType::RealTime => "RealTime".to_string(),
                EventType::Traces => "Traces".to_string(),
                EventType::Other(_) => "other".to_string(),
            },
        };
        // §3.1 publish permission for clients (with §5.2 punishment);
        // §4.3 admission for everything a broker relays.
        if let Some(c) = &constrained {
            match case.origin {
                Origin::Client => {
                    if !c.permits(&Actor::Entity(PUBLISHER.to_string()), Action::Publish) {
                        out.count("broker.reject.constraint");
                        self.punish(PUBLISHER, &mut out);
                        return (out, events);
                    }
                }
                Origin::Neighbor | Origin::Internal => {
                    if !self.admit(case, c, &delivered, hop, &mut out, &mut events) {
                        return (out, events);
                    }
                }
            }
        }
        if case.origin != Origin::Neighbor {
            out.count("broker.publish.accepted");
            out.count(&format!("broker.publish.topic.{family}"));
        }
        let head = case.telemetry && delivered.trace.is_some_and(|ctx| ctx.sampled);
        let tail = !head
            && case.telemetry
            && delivered.trace.is_some()
            && START_MS - msg.timestamp_ms >= SLOW_THRESHOLD_MS;
        let hop_byte = hop.unwrap_or(0);
        if head {
            out.spans
                .push((nb_telemetry::Stage::AuthCheck as u8, hop_byte));
            out.spans.push((nb_telemetry::Stage::Route as u8, hop_byte));
        }

        // Distribution suppression, echo suppression, termination.
        let origin_actor = match case.origin {
            Origin::Client => Actor::Entity(PUBLISHER.to_string()),
            Origin::Neighbor | Origin::Internal => Actor::Broker,
        };
        let forward = constrained
            .as_ref()
            .is_none_or(|c| !(c.suppressed() && c.is_constrainer(&origin_actor)));
        let clients: Vec<&str> = CLIENTS
            .into_iter()
            .filter(|c| self.subscribed.contains(c) && self.attached.contains(c))
            .filter(|c| !(case.origin == Origin::Client && *c == PUBLISHER))
            .collect();
        let engine = self.subscribed.contains(ENGINE);
        let neighbors: Vec<&str> = NEIGHBORS
            .into_iter()
            .filter(|n| forward && self.subscribed.contains(n))
            .filter(|n| !(case.origin == Origin::Neighbor && *n == INGRESS))
            .collect();

        if case.monitor && (!clients.is_empty() || engine || !neighbors.is_empty()) {
            events.push((delivered.clone(), hop));
        }
        for c in clients {
            out.clients
                .entry(c.to_string())
                .or_default()
                .push(Got::Data(Box::new(delivered.clone())));
            out.count("broker.deliver.local");
            out.count(&format!("broker.deliver.topic.{family}"));
            if head || tail {
                out.spans
                    .push((nb_telemetry::Stage::Deliver as u8, hop_byte));
            }
        }
        if engine {
            out.engine.push(delivered.clone());
            out.count("broker.deliver.local");
            out.count(&format!("broker.deliver.topic.{family}"));
            if head || tail {
                out.spans
                    .push((nb_telemetry::Stage::Enqueue as u8, hop_byte));
            }
        }
        for n in neighbors {
            out.neighbors
                .entry(n.to_string())
                .or_default()
                .push(delivered.clone());
            out.count("broker.forward.neighbor");
            if head {
                out.spans
                    .push((nb_telemetry::Stage::Forward as u8, hop_byte));
            }
        }
        out.spans.sort_unstable();
        (out, events)
    }

    /// §4.3 admission of a relayed trace publication: a session tag
    /// checked against the keyring, else the RSA token.
    fn admit(
        &self,
        case: &Case,
        c: &ConstrainedTopic,
        delivered: &Message,
        hop: Option<u8>,
        out: &mut Outcome,
        events: &mut Vec<ExpectedEvent>,
    ) -> bool {
        let trace_publication =
            c.event_type == EventType::Traces && c.allowed_actions == AllowedActions::PublishOnly;
        if !trace_publication || !case.require_tokens {
            return true;
        }
        if case.keys_installed {
            // Every fixture key is bound to the fixture trace topic, so
            // a uuid suffix naming it never trips the topic binding.
            match case.tag {
                TagKind::None => {}
                TagKind::Live => {
                    out.count("broker.session.verified");
                    return true;
                }
                TagKind::Unknown => out.count("broker.session.fallback"),
                TagKind::Revoked => {
                    out.count("broker.session.revoked_drop");
                    out.count("broker.drop.spurious_token");
                    if case.monitor {
                        events.push((delivered.clone(), hop));
                    }
                    return false;
                }
                TagKind::BadMac => {
                    out.count("broker.session.rejected");
                    out.count("broker.drop.spurious_token");
                    return false;
                }
            }
        }
        let accepted = match case.token {
            TokenKind::None | TokenKind::Expired => false,
            TokenKind::Valid => true,
            TokenKind::Forged => !case.owner_registered,
        };
        if !accepted {
            out.count("broker.drop.spurious_token");
        }
        accepted
    }

    /// §5.2: a bogus attempt; the limit-th one disconnects the client.
    fn punish(&mut self, id: &'static str, out: &mut Outcome) {
        if !self.attached.contains(id) {
            return;
        }
        let bogus = self.bogus.entry(id).or_default();
        *bogus += 1;
        if *bogus >= BOGUS_ATTEMPT_LIMIT {
            self.attached.remove(id);
            self.subscribed.remove(id);
            out.count("broker.client.terminated");
            out.clients
                .entry(id.to_string())
                .or_default()
                .push(Got::Nack);
        }
    }
}

// ---------------------------------------------------------------- harness

/// Records every frame the broker sends down one link.
#[derive(Default)]
struct Inbox {
    frames: Mutex<Vec<Vec<u8>>>,
    arrived: Condvar,
}

impl FrameSender for Inbox {
    fn send_frame(&self, frame: &[u8]) -> nb_transport::Result<()> {
        self.frames.lock().unwrap().push(frame.to_vec());
        self.arrived.notify_all();
        Ok(())
    }
}

impl Inbox {
    fn wait_len(&self, n: usize) {
        let frames = self.frames.lock().unwrap();
        let (frames, _) = self
            .arrived
            .wait_timeout_while(frames, TIMEOUT, |f| f.len() < n)
            .unwrap();
        assert!(frames.len() >= n, "link never saw frame {n}");
    }

    fn take(&self) -> Vec<Message> {
        std::mem::take(&mut *self.frames.lock().unwrap())
            .iter()
            .map(|f| Message::from_bytes(f).expect("broker frames decode"))
            .collect()
    }
}

fn control(sender: &str, payload: Payload) -> Vec<u8> {
    Message::new(1, Topic::parse(CONTROL).unwrap(), sender, START_MS, payload).to_bytes()
}

/// The far end of one link: peer id, what the broker sent it, and its
/// uplink into the broker.
type Link = (
    &'static str,
    Arc<Inbox>,
    crossbeam::channel::Sender<Vec<u8>>,
);

/// A broker under test plus the far ends of its links.
struct Rig {
    broker: Broker,
    clients: Vec<Link>,
    neighbors: Vec<Link>,
    engine: crossbeam::channel::Receiver<Message>,
    monitor: Option<MonitorSet>,
}

fn permits_subscribe(topic: &Topic, actor: Actor) -> bool {
    ConstrainedTopic::parse(topic)
        .unwrap()
        .is_none_or(|c| c.permits(&actor, Action::Subscribe))
}

impl Rig {
    /// Builds the broker and its subscription set; returns the rig and
    /// the model primed with the same state.
    fn new(case: &Case) -> (Rig, Model) {
        let fx = fixtures();
        let clock: SharedClock = Arc::new(MockClock::new(START_MS));
        let config = BrokerConfig {
            require_tokens: case.require_tokens,
            advert_refresh: None,
            telemetry: TelemetryConfig {
                enabled: case.telemetry,
                ..TelemetryConfig::default()
            },
            ..BrokerConfig::default()
        };
        let broker = Broker::new(NODE, clock, config);
        let monitor = case.monitor.then(|| {
            let monitor =
                MonitorSet::new(parse_properties(MONITOR_DSL).unwrap(), fx.monitor.clone());
            broker.attach_monitor(monitor.clone());
            monitor
        });
        if case.owner_registered {
            broker.register_topic_owner(fx.trace_topic, fx.owner.certificate.public_key.clone());
        }
        if case.keys_installed {
            broker.install_session_key(fx.live.clone());
            broker.install_session_key(fx.revoked.clone());
            assert!(broker.revoke_session_key(fx.revoked.key_id));
        }

        let mut model = Model {
            attached: CLIENTS.into_iter().collect(),
            subscribed: HashSet::new(),
            bogus: HashMap::new(),
        };
        let mut clients = Vec::new();
        for id in CLIENTS {
            let inbox = Arc::new(Inbox::default());
            let (tx, rx) = crossbeam::channel::unbounded();
            broker.attach_client(Endpoint::from_parts(
                Arc::clone(&inbox) as Arc<dyn FrameSender>,
                rx,
            ));
            tx.send(control(
                id,
                Payload::Attach {
                    client_id: id.into(),
                },
            ))
            .unwrap();
            inbox.wait_len(1);
            clients.push((id, inbox, tx));
        }
        let engine = broker.register_internal(ENGINE);
        let mut neighbors = Vec::new();
        for (i, id) in NEIGHBORS.into_iter().enumerate() {
            let inbox = Arc::new(Inbox::default());
            let (tx, rx) = crossbeam::channel::unbounded();
            broker.connect_neighbor(Endpoint::from_parts(
                Arc::clone(&inbox) as Arc<dyn FrameSender>,
                rx,
            ));
            tx.send(control(
                id,
                Payload::NeighborHello {
                    broker_id: id.into(),
                },
            ))
            .unwrap();
            assert!(broker.wait_for_neighbors(i + 1, TIMEOUT));
            neighbors.push((id, inbox, tx));
        }

        let topic = &case.topic;
        for (bit, (id, inbox, tx)) in clients.iter().enumerate() {
            if case.subs & (1 << bit) != 0
                && permits_subscribe(topic, Actor::Entity(id.to_string()))
            {
                tx.send(control(
                    id,
                    Payload::Subscribe {
                        filter: topic.clone(),
                    },
                ))
                .unwrap();
                inbox.wait_len(2);
                model.subscribed.insert(id);
            }
        }
        if case.subs & (1 << 3) != 0 && broker.subscribe_internal(ENGINE, topic.clone()).is_ok() {
            model.subscribed.insert(ENGINE);
        }
        for (bit, (id, _, tx)) in neighbors.iter().enumerate() {
            if case.subs & (1 << (4 + bit)) != 0 {
                // The worker handles its link in order: once the
                // sentinel advert lands, the topic advert has too.
                let sentinel = Topic::parse(&format!("/Parity/Sentinel/{id}")).unwrap();
                tx.send(control(
                    id,
                    Payload::NeighborSubscribe {
                        filter: topic.clone(),
                    },
                ))
                .unwrap();
                tx.send(control(
                    id,
                    Payload::NeighborSubscribe {
                        filter: sentinel.clone(),
                    },
                ))
                .unwrap();
                assert!(broker.wait_for_remote_subscription(&sentinel, TIMEOUT));
                model.subscribed.insert(id);
            }
        }
        if case.c2_terminated {
            let reserved = Topic::parse(CONTROL).unwrap();
            for i in 0..BOGUS_ATTEMPT_LIMIT {
                let mut frame = Message::new(
                    50 + u64::from(i),
                    reserved.clone(),
                    "c2",
                    START_MS,
                    Payload::Blob { data: vec![] },
                )
                .to_bytes();
                broker.ingest_client_frame("c2", &mut frame);
            }
            assert_eq!(broker.stats().terminated_clients, 1);
            model.attached.remove("c2");
            model.subscribed.remove("c2");
        }
        for (_, inbox, _) in clients.iter().chain(&neighbors) {
            inbox.take();
        }
        (
            Rig {
                broker,
                clients,
                neighbors,
                engine,
                monitor,
            },
            model,
        )
    }

    /// Routes `msg` from the case's origin and captures the outcome.
    fn ingest(&self, origin: Origin, msg: &Message) -> Outcome {
        let before = self.broker.metrics_snapshot();
        let mut frame = msg.to_bytes();
        match origin {
            Origin::Client => self.broker.ingest_client_frame(PUBLISHER, &mut frame),
            Origin::Neighbor => self.broker.ingest_neighbor_frame(INGRESS, &mut frame),
            Origin::Internal => self.broker.publish_internal(msg.clone()),
        }
        let after = self.broker.metrics_snapshot();

        let mut out = Outcome::default();
        for entry in after.entries() {
            if !entry.name.starts_with("broker.") || entry.name.starts_with("broker.route.") {
                continue;
            }
            if let nb_metrics::SnapshotValue::Counter(now) = entry.value {
                let delta = now - before.counter(&entry.name).unwrap_or(0);
                if delta > 0 {
                    out.counters.insert(entry.name.clone(), delta);
                }
            }
        }
        for (id, inbox, _) in &self.clients {
            let got: Vec<Got> = inbox
                .take()
                .into_iter()
                .map(|m| match m.payload {
                    Payload::Nack { .. } => Got::Nack,
                    _ => Got::Data(Box::new(m)),
                })
                .collect();
            if !got.is_empty() {
                out.clients.insert(id.to_string(), got);
            }
        }
        out.engine = std::iter::from_fn(|| self.engine.try_recv().ok()).collect();
        for (id, inbox, _) in &self.neighbors {
            // Subscription adverts the broker relays between its
            // neighbours are control-plane noise here.
            let got: Vec<Message> = inbox
                .take()
                .into_iter()
                .filter(|m| {
                    !matches!(
                        m.payload,
                        Payload::NeighborHello { .. }
                            | Payload::NeighborSubscribe { .. }
                            | Payload::NeighborUnsubscribe { .. }
                    )
                })
                .collect();
            if !got.is_empty() {
                out.neighbors.insert(id.to_string(), got);
            }
        }
        if let Some(ctx) = msg.trace {
            out.spans = self
                .broker
                .flight_recorder()
                .snapshot()
                .iter()
                .filter(|s| s.trace_id == ctx.trace_id)
                .map(|s| (s.stage as u8, s.hop))
                .collect();
            out.spans.sort_unstable();
        }
        out
    }
}

/// A monitor fed the model's delivery events, to compare against the
/// one attached to the broker.
fn twin_monitor(case: &Case) -> MonitorSet {
    let fx = fixtures();
    let twin = MonitorSet::new(parse_properties(MONITOR_DSL).unwrap(), fx.monitor.clone());
    if case.owner_registered {
        twin.register_owner(fx.trace_topic, fx.owner.certificate.public_key.clone());
    }
    if case.keys_installed {
        twin.revoke_session_key(fx.revoked.key_id);
    }
    twin
}

fn report(twin: &MonitorSet, (msg, hop): &ExpectedEvent) {
    let frame = msg.to_bytes();
    let view = MessageView::parse(&frame).unwrap();
    twin.on_delivery(&DeliveryEvent {
        node: NODE,
        topic: &view.topic,
        topic_hash: view.topic.hash64(),
        sender: view.sender,
        msg_id: view.id,
        hop: *hop,
        token: view.token,
        session: view.session,
        now_ms: START_MS,
    });
}

fn violations(monitor: &MonitorSet) -> Vec<(String, String, String, String, u64)> {
    monitor
        .violations()
        .into_iter()
        .map(|v| (v.property, v.node, v.topic, v.detail, v.timestamp_ms))
        .collect()
}

fn run_case(case: &Case) {
    let (rig, mut model) = Rig::new(case);
    let twin = twin_monitor(case);
    for i in 0..case.frames {
        let msg = build_frame(case, i);
        let observed = rig.ingest(case.origin, &msg);
        let (expected, events) = model.predict(case, &msg);
        assert_eq!(observed, expected, "frame {i} diverged for {case:#?}");
        if let Some(monitor) = &rig.monitor {
            for event in &events {
                report(&twin, event);
            }
            assert_eq!(
                monitor.metrics_snapshot().counter("monitor.events"),
                twin.metrics_snapshot().counter("monitor.events"),
                "frame {i}: monitor event count for {case:#?}"
            );
            assert_eq!(
                violations(monitor),
                violations(&twin),
                "frame {i}: monitor violations for {case:#?}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Every drawn case routes exactly as the reference model says.
    #[test]
    fn routing_matches_the_reference_model(case in arb_case()) {
        run_case(&case);
    }
}

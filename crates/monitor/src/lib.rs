//! Online runtime verification for the tracing fabric.
//!
//! Following the runtime-verification-container style for
//! publish/subscribe networks, this crate attaches *online monitors*
//! to the broker data plane and the tracing engine: every delivery
//! decision and every availability verdict is checked, as it happens,
//! against a set of safety properties expressed over constrained-topic
//! patterns. The monitors are passive — they never veto a delivery —
//! but every breach is recorded, counted under `monitor.*` metrics,
//! and published as an *authenticated violation trace* on a dedicated
//! audit topic so that a remote auditor can subscribe to the fabric's
//! own misbehaviour reports and verify their provenance.
//!
//! # The property DSL
//!
//! Properties are one-per-line, `name: kind [args] on /topic/pattern`,
//! with `#`-prefixed comments. Patterns use the routing filter grammar
//! (`*` one segment, trailing `#` any suffix). Kinds:
//!
//! | kind | checks |
//! |------|--------|
//! | `require-token` | every delivery on the pattern carries an authorization token that the brokers' own rule admits, [`nb_wire::AuthorizationToken::admits`]: inside its validity window and, when the topic owner's key is known, granting `Publish` under a valid owner signature ([`PropertyKind::RequireToken`]) |
//! | `max-hops N` | the hop count of a traced frame never exceeds `N` ([`PropertyKind::MaxHops`], lenient: untraced frames pass) |
//! | `require-ttl N` | frames must carry a trace/TTL section *and* stay within `N` hops (strict — scope it to channels where tracing is guaranteed) |
//! | `exactly-once` | no `(node, sender, message-id)` triple is ever delivered twice — catches replay after link repair |
//! | `causal-verdicts` | availability verdicts are causally consistent with the ping traffic that produced them (failure verdicts require an outstanding unanswered ping; positive verdicts require an observed response) |
//!
//! The pattern of a `causal-verdicts` property is matched against the
//! synthetic topic `/Entities/{entity-id}`, so `/Entities/#` monitors
//! every session.
//!
//! # Red-team hooks
//!
//! Every property has an adversarial counterpart in the simulated
//! transport (`SimNetwork::tamper` / `SimNetwork::replay`): forged
//! tokens, stripped TTL sections and duplicated frames are injected on
//! inter-broker links and the paired tests in `crates/tracing`
//! prove each monitor fires — and stays silent on a clean run.

pub mod dsl;
pub mod event;
mod set;

pub use dsl::{parse_properties, standard_properties, PropertyKind, PropertySpec};
pub use event::{DeliveryEvent, VerdictKind};
pub use set::{audit_topic, AuditSink, MonitorSet, Violation};

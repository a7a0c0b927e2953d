//! The property DSL: a one-line-per-property grammar compiled to
//! [`PropertySpec`]s. See the crate docs for the table of kinds.

use nb_telemetry::MAX_HOPS;
use nb_wire::Topic;

/// Hard cap on properties per monitor set: the delivery-path
/// prefilter packs one bit per property into a 16-bit mask (see
/// `MonitorSet`), so a set can hold at most 16 specs.
pub const MAX_PROPERTIES: usize = 16;

/// What a property checks. See the crate-level DSL table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PropertyKind {
    /// Deliveries on the pattern must carry a valid authorization
    /// token (window-checked always; signature-checked when the topic
    /// owner's key has been registered with the monitor).
    RequireToken,
    /// Hop count must stay within `bound`. With `require_trace`, a
    /// missing trace/TTL section is itself a violation (use only on
    /// channels where every publisher attaches a trace context).
    MaxHops {
        /// Maximum tolerated hop count.
        bound: u8,
        /// Whether an absent trace section is a violation.
        require_trace: bool,
    },
    /// Deliveries on the pattern must not be authenticated by a
    /// session key the monitor has seen revoked (a replay under a
    /// retired key). Untagged traffic is governed by `RequireToken`
    /// instead; tags under keys never revoked here pass.
    SessionAuth,
    /// No `(node, sender, message-id)` triple may be delivered twice.
    ExactlyOnce,
    /// Availability verdicts must be causally consistent with ping
    /// traffic (matched against `/Entities/{entity-id}`).
    CausalVerdicts,
}

/// One compiled property: a name (used in metrics and audit reports),
/// a constrained-topic pattern, and the check to run.
#[derive(Debug, Clone)]
pub struct PropertySpec {
    /// Property name — becomes the `monitor.violations.{name}` counter
    /// and the `property` field of audit reports.
    pub name: String,
    /// Topic filter selecting the traffic this property governs
    /// (`*` one segment, trailing `#` any suffix).
    pub pattern: Topic,
    /// The check to evaluate on matching traffic.
    pub kind: PropertyKind,
}

/// Parses DSL text into property specs.
///
/// Grammar, one property per line:
///
/// ```text
/// # comments and blank lines are skipped
/// auth:   require-token on /Constrained/Traces/*/Publish-Only/#
/// sess:   require-session on /Constrained/Traces/*/Publish-Only/#
/// ttl:    max-hops 16 on /Constrained/Traces/#
/// strip:  require-ttl 16 on /Constrained/Traces/*/Publish-Only/*/*/ChangeNotifications
/// replay: exactly-once on /Constrained/Traces/#
/// causal: causal-verdicts on /Entities/#
/// ```
///
/// # Errors
///
/// Returns a human-readable message naming the offending line for
/// syntax errors, unknown kinds, bad bounds, invalid patterns,
/// duplicate names, the reserved name `dropped`, or more than
/// [`MAX_PROPERTIES`] properties.
pub fn parse_properties(text: &str) -> Result<Vec<PropertySpec>, String> {
    let mut specs: Vec<PropertySpec> = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let err = |what: &str| format!("property line {}: {what}: {line:?}", lineno + 1);
        let (name, rest) = line
            .split_once(':')
            .ok_or_else(|| err("missing `name:` prefix"))?;
        let name = name.trim();
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
        {
            return Err(err("property name must be [A-Za-z0-9_-]+"));
        }
        if specs.iter().any(|s| s.name == name) {
            return Err(err("duplicate property name"));
        }
        if name == "dropped" {
            // Its per-property counter would be `monitor.violations.dropped`.
            return Err(err("property name `dropped` is reserved"));
        }
        let (check, pattern) = rest
            .split_once(" on ")
            .ok_or_else(|| err("missing ` on <pattern>`"))?;
        let pattern =
            Topic::parse(pattern.trim()).map_err(|e| err(&format!("bad pattern ({e})")))?;
        let mut words = check.split_whitespace();
        let kind = match words.next() {
            Some("require-token") => PropertyKind::RequireToken,
            Some(k @ ("max-hops" | "require-ttl")) => {
                let bound = words
                    .next()
                    .and_then(|w| w.parse::<u8>().ok())
                    .ok_or_else(|| err("expected a hop bound in 0..=255"))?;
                PropertyKind::MaxHops {
                    bound,
                    require_trace: k == "require-ttl",
                }
            }
            Some("require-session") => PropertyKind::SessionAuth,
            Some("exactly-once") => PropertyKind::ExactlyOnce,
            Some("causal-verdicts") => PropertyKind::CausalVerdicts,
            _ => return Err(err("unknown property kind")),
        };
        if words.next().is_some() {
            return Err(err("trailing tokens after property kind"));
        }
        specs.push(PropertySpec {
            name: name.to_string(),
            pattern,
            kind,
        });
    }
    if specs.len() > MAX_PROPERTIES {
        return Err(format!(
            "too many properties: {} (max {MAX_PROPERTIES})",
            specs.len()
        ));
    }
    Ok(specs)
}

/// The standard property set covering the paper's core guarantees:
/// authorized delivery, no replays under revoked session keys,
/// bounded TTL, exactly-once delivery, and causally consistent
/// availability verdicts.
///
/// The TTL bound is the brokers' own, [`nb_telemetry::MAX_HOPS`]. When
/// `strict_ttl` is set (use only with telemetry enabled, where every
/// trace publication carries a context) a sixth property additionally
/// flags change-notification publications whose TTL section was
/// stripped in flight.
pub fn standard_properties(strict_ttl: bool) -> Vec<PropertySpec> {
    let mut text = format!(
        "auth: require-token on /Constrained/Traces/*/Publish-Only/#\n\
         session: require-session on /Constrained/Traces/*/Publish-Only/#\n\
         ttl: max-hops {MAX_HOPS} on /Constrained/Traces/#\n\
         replay: exactly-once on /Constrained/Traces/#\n\
         causal: causal-verdicts on /Entities/#\n"
    );
    if strict_ttl {
        text.push_str(&format!(
            "ttl-strip: require-ttl {MAX_HOPS} on /Constrained/Traces/*/Publish-Only/*/*/ChangeNotifications\n"
        ));
    }
    parse_properties(&text).expect("standard property set always parses")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_kind() {
        let specs = parse_properties(
            "# header comment\n\
             \n\
             a: require-token on /Constrained/Traces/#\n\
             b: max-hops 7 on /x/*/y\n\
             c: require-ttl 3 on /x/#\n\
             d: exactly-once on /z\n\
             e: causal-verdicts on /Entities/#\n\
             f: require-session on /Constrained/Traces/#\n",
        )
        .expect("parse");
        assert_eq!(specs.len(), 6);
        assert_eq!(specs[0].kind, PropertyKind::RequireToken);
        assert_eq!(
            specs[1].kind,
            PropertyKind::MaxHops {
                bound: 7,
                require_trace: false
            }
        );
        assert_eq!(
            specs[2].kind,
            PropertyKind::MaxHops {
                bound: 3,
                require_trace: true
            }
        );
        assert_eq!(specs[3].kind, PropertyKind::ExactlyOnce);
        assert_eq!(specs[4].kind, PropertyKind::CausalVerdicts);
        assert_eq!(specs[5].kind, PropertyKind::SessionAuth);
        assert_eq!(specs[1].pattern.to_string(), "/x/*/y");
    }

    #[test]
    fn rejects_malformed_lines() {
        for bad in [
            "no-colon require-token on /x",
            "a: require-token /x",
            "a: max-hops on /x",
            "a: max-hops 300 on /x",
            "a: warp-drive on /x",
            "a: exactly-once extra on /x",
            "sp ace: exactly-once on /x",
            "a: exactly-once on /",
        ] {
            assert!(parse_properties(bad).is_err(), "accepted: {bad}");
        }
        let dup = "a: exactly-once on /x\na: require-token on /y\n";
        assert!(parse_properties(dup).is_err(), "accepted duplicate name");
    }

    #[test]
    fn dropped_is_reserved() {
        assert!(parse_properties("dropped: exactly-once on /x").is_err());
    }

    #[test]
    fn enforces_property_cap() {
        let text: String = (0..MAX_PROPERTIES + 1)
            .map(|i| format!("p{i}: exactly-once on /t/{i}\n"))
            .collect();
        assert!(parse_properties(&text).is_err());
    }

    #[test]
    fn standard_set_has_the_core_properties() {
        let specs = standard_properties(false);
        let names: Vec<&str> = specs.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["auth", "session", "ttl", "replay", "causal"]);
        let strict = standard_properties(true);
        assert_eq!(strict.len(), 6);
        assert_eq!(strict[5].name, "ttl-strip");
    }
}

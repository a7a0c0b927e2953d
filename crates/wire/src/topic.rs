//! Topic model for the publish/subscribe substrate.
//!
//! Topics are `/`-separated strings (e.g.
//! `StockQuotes/Companies/Adobe`, §2.1). The tracing scheme derives
//! all its topics from a TDN-issued trace-topic UUID; helpers for
//! those derivative topics (Table 2) live in [`crate::trace`].

use crate::codec::{Decode, Encode, Reader, Writer};
use crate::error::WireError;
use crate::Result;
use std::fmt;
use std::str::FromStr;

/// A publish/subscribe topic: a non-empty sequence of non-empty
/// segments.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Topic {
    segments: Vec<String>,
}

impl Topic {
    /// Builds a topic from segments, validating each one.
    pub fn from_segments<I, S>(segments: I) -> Result<Self>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let segments: Vec<String> = segments.into_iter().map(Into::into).collect();
        if segments.is_empty() {
            return Err(WireError::InvalidTopic("empty topic".into()));
        }
        for seg in &segments {
            validate_segment(seg)?;
        }
        Ok(Topic { segments })
    }

    /// Parses `"/A/B/C"` or `"A/B/C"` (leading slash optional).
    pub fn parse(s: &str) -> Result<Self> {
        let trimmed = s.strip_prefix('/').unwrap_or(s);
        if trimmed.is_empty() {
            return Err(WireError::InvalidTopic(s.to_string()));
        }
        Self::from_segments(trimmed.split('/'))
    }

    /// The topic's segments.
    pub fn segments(&self) -> &[String] {
        &self.segments
    }

    /// Number of segments.
    pub fn len(&self) -> usize {
        self.segments.len()
    }

    /// Always false (topics are non-empty by construction).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Returns a new topic with `suffix` segments appended.
    pub fn join<S: Into<String>>(&self, suffix: S) -> Result<Topic> {
        let suffix = suffix.into();
        let mut segments = self.segments.clone();
        for seg in suffix.split('/').filter(|s| !s.is_empty()) {
            validate_segment(seg)?;
            segments.push(seg.to_string());
        }
        Ok(Topic { segments })
    }

    /// Whether `self` is a prefix of `other` (segment-wise).
    pub fn is_prefix_of(&self, other: &Topic) -> bool {
        other.segments.len() >= self.segments.len()
            && self
                .segments
                .iter()
                .zip(other.segments.iter())
                .all(|(a, b)| a == b)
    }

    /// Subscription matching: exact segment equality, with `*`
    /// matching any single segment and a trailing `#` matching any
    /// remaining suffix (MQTT-style, used only by subscriptions).
    pub fn matches_filter(&self, filter: &Topic) -> bool {
        let mut t = self.segments.iter();
        for (i, f) in filter.segments.iter().enumerate() {
            if f == "#" {
                // `#` must be last; it absorbs everything remaining.
                return i == filter.segments.len() - 1;
            }
            match t.next() {
                Some(seg) if f == "*" || f == seg => continue,
                _ => return false,
            }
        }
        t.next().is_none()
    }
}

fn validate_segment(seg: &str) -> Result<()> {
    if seg.is_empty() {
        return Err(WireError::InvalidTopic("empty segment".into()));
    }
    if seg.contains('/') {
        return Err(WireError::InvalidTopic(format!(
            "segment contains '/': {seg}"
        )));
    }
    Ok(())
}

impl fmt::Display for Topic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "/{}", self.segments.join("/"))
    }
}

impl FromStr for Topic {
    type Err = WireError;

    fn from_str(s: &str) -> Result<Self> {
        Topic::parse(s)
    }
}

impl Encode for Topic {
    fn encode(&self, w: &mut Writer) {
        w.put_seq(&self.segments, |w, s| w.put_str(s));
    }
}

impl Decode for Topic {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        let segments = r.get_seq(|r| r.get_str())?;
        Topic::from_segments(segments)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: &str) -> Topic {
        Topic::parse(s).unwrap()
    }

    #[test]
    fn parse_and_display_round_trip() {
        for s in [
            "/StockQuotes/Companies/Adobe",
            "/Availability/Traces/entity-1",
            "/Constrained/Traces/Broker/Publish-Only/abc/ChangeNotifications",
        ] {
            assert_eq!(t(s).to_string(), s);
        }
    }

    #[test]
    fn leading_slash_is_optional() {
        assert_eq!(t("A/B/C"), t("/A/B/C"));
    }

    #[test]
    fn rejects_degenerate_topics() {
        assert!(Topic::parse("").is_err());
        assert!(Topic::parse("/").is_err());
        assert!(Topic::parse("//").is_err());
        assert!(Topic::parse("/A//B").is_err());
        assert!(Topic::from_segments(Vec::<String>::new()).is_err());
        assert!(Topic::from_segments(["a/b"]).is_err());
    }

    #[test]
    fn join_appends_segments() {
        let base = t("/Constrained/Traces");
        assert_eq!(
            base.join("Broker/Publish-Only").unwrap(),
            t("/Constrained/Traces/Broker/Publish-Only")
        );
        assert_eq!(base.join("X").unwrap().len(), 3);
    }

    #[test]
    fn prefix_relation() {
        assert!(t("/A/B").is_prefix_of(&t("/A/B/C")));
        assert!(t("/A/B").is_prefix_of(&t("/A/B")));
        assert!(!t("/A/B/C").is_prefix_of(&t("/A/B")));
        assert!(!t("/A/X").is_prefix_of(&t("/A/B/C")));
    }

    #[test]
    fn exact_matching() {
        assert!(t("/A/B/C").matches_filter(&t("/A/B/C")));
        assert!(!t("/A/B/C").matches_filter(&t("/A/B")));
        assert!(!t("/A/B").matches_filter(&t("/A/B/C")));
    }

    #[test]
    fn single_segment_wildcard() {
        assert!(t("/A/B/C").matches_filter(&t("/A/*/C")));
        assert!(t("/A/B/C").matches_filter(&t("/*/*/*")));
        assert!(!t("/A/B/C").matches_filter(&t("/A/*")));
        assert!(!t("/A/B").matches_filter(&t("/A/*/C")));
    }

    #[test]
    fn multi_level_wildcard() {
        assert!(t("/A/B/C").matches_filter(&t("/A/#")));
        assert!(t("/A").matches_filter(&t("/#")));
        assert!(!t("/X/B").matches_filter(&t("/A/#")));
        // `#` not in final position never matches.
        assert!(!t("/A/B/C").matches_filter(&t("/#/C")));
    }

    #[test]
    fn codec_round_trip() {
        let topic = t("/Constrained/Traces/Broker/Subscribe-Only/Registration");
        let bytes = topic.to_bytes();
        assert_eq!(Topic::from_bytes(&bytes).unwrap(), topic);
    }

    #[test]
    fn ordering_is_lexicographic_by_segments() {
        assert!(t("/A/B") < t("/A/C"));
        assert!(t("/A") < t("/A/B"));
    }
}

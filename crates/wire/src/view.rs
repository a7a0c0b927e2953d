//! Zero-copy frame views: the envelope's only parser.
//!
//! The broker's hot path routes far more frames than it originates,
//! and most of a frame — the payload body, signatures, tokens — is
//! opaque to routing. [`MessageView::parse`] walks the whole envelope
//! in a borrowed byte slice without allocating: it decodes what routing
//! needs (topic, sender, payload tag, trace and session sections) and
//! lends the rest undecoded, so the broker can forward the original
//! frame bytes untouched.
//!
//! Views parse the version-3 envelope (whose payload is
//! u32-length-prefixed, see [`crate::message`]) and reject every other
//! version. The owned [`crate::Message`] decoder parses through a view
//! and owns what it lends, so it accepts no frame the view rejects.

use crate::codec::Reader;
use crate::error::WireError;
use crate::message::{SessionTag, SECTION_SESSION, SECTION_TRACE, WIRE_VERSION};
use crate::token::AuthorizationToken;
use crate::topic::Topic;
use crate::Result;
use nb_telemetry::TraceContext;

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// Segment separator folded into topic hashes. `0xff` never occurs in
/// valid UTF-8, so no two distinct segment lists collide by
/// concatenation (e.g. `/AB/C` vs `/A/BC`).
const SEG_SEP: u8 = 0xff;

/// Hashes a [`Topic`] with the same segment-wise FNV-1a used by
/// [`TopicView::hash64`], so owned topics and borrowed views index
/// into the same hash-keyed structures (e.g. the broker route cache).
pub fn topic_hash(topic: &Topic) -> u64 {
    let mut h = FNV_OFFSET;
    for seg in topic.segments() {
        for &b in seg.as_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
        h = (h ^ u64::from(SEG_SEP)).wrapping_mul(FNV_PRIME);
    }
    h
}

/// A borrowed, segment-addressable view of an encoded topic.
///
/// Segments are exposed as raw byte slices: matching and hashing
/// compare bytes, so no UTF-8 validation or allocation happens on the
/// hot path. Use [`TopicView::to_topic`] for a fully validated owned
/// topic (allocates).
#[derive(Debug, Clone, Copy)]
pub struct TopicView<'a> {
    /// Encoded segment list (varint length + bytes per segment),
    /// without the leading count varint.
    body: &'a [u8],
    /// Number of segments in `body`.
    count: usize,
}

impl<'a> TopicView<'a> {
    /// Iterates the raw segment byte slices.
    pub fn segments(&self) -> SegmentIter<'a> {
        SegmentIter {
            buf: self.body,
            remaining: self.count,
        }
    }

    /// Segment-wise FNV-1a hash, identical to [`topic_hash`] over the
    /// equivalent owned [`Topic`].
    pub fn hash64(&self) -> u64 {
        let mut h = FNV_OFFSET;
        for seg in self.segments() {
            for &b in seg {
                h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
            }
            h = (h ^ u64::from(SEG_SEP)).wrapping_mul(FNV_PRIME);
        }
        h
    }

    /// Whether this view denotes exactly `topic` (segment-wise byte
    /// equality). Used to resolve hash collisions without allocating.
    pub fn eq_topic(&self, topic: &Topic) -> bool {
        self.count == topic.len()
            && self
                .segments()
                .zip(topic.segments())
                .all(|(a, b)| a == b.as_bytes())
    }

    /// Subscription matching against an owned filter, mirroring
    /// [`Topic::matches_filter`]: `*` matches any single segment, a
    /// trailing `#` matches any remaining suffix.
    pub fn matches_filter(&self, filter: &Topic) -> bool {
        let mut t = self.segments();
        let fsegs = filter.segments();
        for (i, f) in fsegs.iter().enumerate() {
            if f == "#" {
                return i == fsegs.len() - 1;
            }
            match t.next() {
                Some(seg) if f == "*" || f.as_bytes() == seg => continue,
                _ => return false,
            }
        }
        t.next().is_none()
    }

    /// Materializes a fully validated owned [`Topic`] (allocates; slow
    /// path only).
    pub fn to_topic(&self) -> Result<Topic> {
        let mut segments = Vec::with_capacity(self.count);
        for seg in self.segments() {
            segments.push(
                std::str::from_utf8(seg)
                    .map_err(|_| WireError::BadUtf8("topic segment"))?
                    .to_string(),
            );
        }
        Topic::from_segments(segments)
    }
}

/// Iterator over the raw byte segments of a [`TopicView`].
///
/// The segment structure was bounds-checked when the view was parsed,
/// so iteration cannot fail; a (structurally impossible) malformed
/// buffer simply ends the iteration early.
pub struct SegmentIter<'a> {
    buf: &'a [u8],
    remaining: usize,
}

impl<'a> Iterator for SegmentIter<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        // Inline LEB128 read; structure already validated at parse.
        let mut len = 0usize;
        let mut shift = 0u32;
        let mut used = 0usize;
        loop {
            let byte = *self.buf.get(used)?;
            used += 1;
            len |= ((byte & 0x7f) as usize) << shift;
            if byte & 0x80 == 0 {
                break;
            }
            shift += 7;
        }
        let seg = self.buf.get(used..used + len)?;
        self.buf = &self.buf[used + len..];
        Some(seg)
    }
}

/// A zero-copy view of an encoded version-3 [`crate::Message`] frame.
///
/// Exposes exactly what routing needs; the payload body and
/// authentication material stay as opaque borrowed slices. Construct
/// with [`MessageView::parse`]; a frame it rejects is not routable.
#[derive(Debug, Clone, Copy)]
pub struct MessageView<'a> {
    /// Unique (per sender) message id.
    pub id: u64,
    /// Correlates responses to requests (0 = none).
    pub correlation_id: u64,
    /// Borrowed view of the routing topic.
    pub topic: TopicView<'a>,
    /// Sender identifier.
    pub sender: &'a str,
    /// Send timestamp, ms since epoch.
    pub timestamp_ms: u64,
    /// Leading tag byte of the payload (the [`crate::Payload`] variant
    /// discriminant) — enough to split control traffic from data.
    pub payload_tag: u8,
    /// The complete encoded payload, undecoded.
    pub payload: &'a [u8],
    /// The attached RSA signature, if any.
    pub signature: Option<&'a [u8]>,
    /// The attached authorization token's encoded bytes, undecoded
    /// (`AuthorizationToken::from_bytes` decodes them), if any.
    pub token: Option<&'a [u8]>,
    /// The attached HMAC, if any.
    pub mac: Option<&'a [u8]>,
    /// Decoded causal trace context, if the frame carries one (the
    /// trace section is small and fixed-width; decoding it allocates
    /// nothing).
    pub trace: Option<TraceContext>,
    /// Decoded session authentication tag, if the frame carries one
    /// (fixed-width; decoding allocates nothing).
    pub session: Option<SessionTag>,
    /// Absolute offset of the trace hop-count byte within the frame.
    trace_hop_offset: Option<usize>,
    /// The envelope head covered by signatures/MACs: everything from
    /// just after the version byte up to the payload length prefix.
    signable_head: &'a [u8],
}

impl<'a> MessageView<'a> {
    /// Parses the routing-relevant fields of a version-3 frame without
    /// copying. Rejects other versions with [`WireError::BadVersion`],
    /// as the owned decoder does.
    pub fn parse(frame: &'a [u8]) -> Result<Self> {
        let mut r = Reader::new(frame);
        let version = r.get_u8()?;
        if version != WIRE_VERSION {
            return Err(WireError::BadVersion(version));
        }
        let id = r.get_u64()?;
        let correlation_id = r.get_u64()?;

        let count = r.get_varint()? as usize;
        if count == 0 {
            return Err(WireError::InvalidTopic("empty topic".into()));
        }
        let body_start = frame.len() - r.remaining();
        for _ in 0..count {
            r.get_bytes_ref()?;
        }
        let body_end = frame.len() - r.remaining();
        let topic = TopicView {
            body: &frame[body_start..body_end],
            count,
        };

        let sender = r.get_str_ref()?;
        let timestamp_ms = r.get_u64()?;

        // Everything between the version byte and the payload length
        // prefix is part of the signable region (the payload itself is
        // the other part — see `signable_parts`).
        let signable_head = &frame[1..frame.len() - r.remaining()];

        let payload_len = r.get_u32()? as usize;
        if payload_len > crate::codec::MAX_CHUNK_LEN {
            return Err(WireError::LengthOverflow("payload"));
        }
        let payload = r.get_exact(payload_len, "payload body")?;
        let payload_tag = *payload.first().ok_or(WireError::Truncated("payload tag"))?;

        let signature = r.get_option(|r| r.get_bytes_ref())?;
        let token = r.get_option(|r| {
            let start = frame.len() - r.remaining();
            AuthorizationToken::skip(r)?;
            Ok(&frame[start..frame.len() - r.remaining()])
        })?;
        let mac = r.get_option(|r| r.get_bytes_ref())?;

        let mut trace = None;
        let mut session = None;
        let mut trace_hop_offset = None;
        let sections = r.get_varint()?;
        for _ in 0..sections {
            let tag = r.get_u8()?;
            let body = r.get_bytes_ref()?;
            if tag == SECTION_SESSION && session.is_none() {
                session = Some(SessionTag::from_section_bytes(body)?);
            } else if tag == SECTION_TRACE && trace.is_none() {
                let body_abs = frame.len() - r.remaining() - body.len();
                let mut tr = Reader::new(body);
                let hi = tr.get_u64()?;
                let lo = tr.get_u64()?;
                let parent_span = tr.get_u64()?;
                let hop_count = tr.get_u8()?;
                let sampled = tr.get_bool()?;
                trace = Some(TraceContext {
                    trace_id: (u128::from(hi) << 64) | u128::from(lo),
                    parent_span,
                    hop_count,
                    sampled,
                });
                // hi + lo + parent_span precede the hop byte.
                trace_hop_offset = Some(body_abs + 24);
            }
        }
        r.expect_end("message view")?;

        Ok(MessageView {
            id,
            correlation_id,
            topic,
            sender,
            timestamp_ms,
            payload_tag,
            payload,
            signature,
            token,
            mac,
            trace,
            session,
            trace_hop_offset,
            signable_head,
        })
    }

    /// The two borrowed slices whose concatenation equals
    /// [`crate::Message::signable_bytes`] for this frame: the envelope
    /// head (id through timestamp) and the payload body, skipping the
    /// v3 payload length prefix between them. Lets a verifier MAC the
    /// signed region with zero copies (feed both parts to
    /// `nb_crypto::hmac::hmac_parts`).
    pub fn signable_parts(&self) -> [&'a [u8]; 2] {
        [self.signable_head, self.payload]
    }

    /// Whether this frame carries a head-sampled trace context.
    pub fn trace_sampled(&self) -> bool {
        self.trace.is_some_and(|t| t.sampled)
    }

    /// Absolute byte offset of the trace hop counter within the
    /// original frame, if a trace section is present. A broker
    /// forwarding the frame increments `frame[offset]` in place
    /// instead of re-encoding the envelope.
    pub fn trace_hop_offset(&self) -> Option<usize> {
        self.trace_hop_offset
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{Decode, Encode};
    use crate::message::Message;
    use crate::payload::Payload;
    use crate::token::Rights;
    use nb_crypto::Uuid;

    const NOW: u64 = 1_700_000_000_000;

    fn sample() -> Message {
        Message::new(
            77,
            Topic::parse("/Constrained/Traces/Broker/Publish-Only/abc").unwrap(),
            "entity:view-test",
            NOW,
            Payload::Ping {
                seq: 9,
                sent_at_ms: NOW,
            },
        )
    }

    fn ctx() -> TraceContext {
        TraceContext {
            trace_id: 0x1111_2222_3333_4444_5555_6666_7777_8888,
            parent_span: 17,
            hop_count: 3,
            sampled: true,
        }
    }

    fn token() -> AuthorizationToken {
        use nb_crypto::bigint::BigUint;
        use nb_crypto::rsa::RsaPublicKey;
        AuthorizationToken {
            trace_topic: Uuid::from_bytes([7; 16]),
            delegate_key: RsaPublicKey::new(BigUint::from_u64(3233), BigUint::from_u64(17)),
            rights: Rights::Publish,
            valid_from_ms: NOW,
            valid_until_ms: NOW + 1000,
            signature: vec![9; 32],
        }
    }

    #[test]
    fn view_agrees_with_full_decode() {
        let mut m = sample().correlated(5).with_trace(ctx());
        m.signature = Some(vec![4; 64]);
        m.mac = Some(vec![5; 32]);
        let m = m.with_token(token());
        let bytes = m.to_bytes();
        let v = MessageView::parse(&bytes).unwrap();
        assert_eq!(v.id, m.id);
        assert_eq!(v.correlation_id, 5);
        assert_eq!(v.sender, m.sender);
        assert_eq!(v.timestamp_ms, m.timestamp_ms);
        assert_eq!(v.payload_tag, 30); // Ping
        assert_eq!(
            (v.signature, v.mac),
            (Some(&[4u8; 64][..]), Some(&[5u8; 32][..]))
        );
        assert_eq!(v.token, Some(token().to_bytes().as_slice()));
        assert_eq!(v.trace, Some(ctx()));
        assert!(v.topic.eq_topic(&m.topic));
        assert_eq!(v.topic.to_topic().unwrap(), m.topic);
        // The payload slice is the exact encoding of the payload.
        assert_eq!(v.payload, m.payload.to_bytes().as_slice());
    }

    #[test]
    fn topic_hash_agrees_between_view_and_owned() {
        for s in [
            "/A",
            "/A/B/C",
            "/Constrained/Traces/Broker/Publish-Only/abc",
            "/Availability/Traces/entity-1",
        ] {
            let t = Topic::parse(s).unwrap();
            let m = Message::new(1, t.clone(), "s", NOW, Payload::Ack);
            let bytes = m.to_bytes();
            let v = MessageView::parse(&bytes).unwrap();
            assert_eq!(v.topic.hash64(), topic_hash(&t), "{s}");
        }
    }

    #[test]
    fn concatenation_does_not_collide() {
        assert_ne!(
            topic_hash(&Topic::parse("/AB/C").unwrap()),
            topic_hash(&Topic::parse("/A/BC").unwrap())
        );
    }

    #[test]
    fn view_filter_matching_mirrors_owned() {
        let m = sample();
        let bytes = m.to_bytes();
        let v = MessageView::parse(&bytes).unwrap();
        for (filter, expect) in [
            ("/Constrained/Traces/Broker/Publish-Only/abc", true),
            ("/Constrained/Traces/Broker/Publish-Only/xyz", false),
            ("/Constrained/*/Broker/*/abc", true),
            ("/Constrained/#", true),
            ("/Constrained/Traces", false),
            ("/#", true),
        ] {
            let f = Topic::parse(filter).unwrap();
            assert_eq!(v.topic.matches_filter(&f), expect, "{filter}");
            assert_eq!(m.topic.matches_filter(&f), expect, "{filter} (owned)");
        }
    }

    #[test]
    fn hop_offset_patches_in_place() {
        let m = sample().with_trace(ctx());
        let mut bytes = m.to_bytes();
        let off = MessageView::parse(&bytes)
            .unwrap()
            .trace_hop_offset()
            .unwrap();
        bytes[off] += 1;
        let back = Message::from_bytes(&bytes).unwrap();
        assert_eq!(back.trace.unwrap().hop_count, ctx().hop_count + 1);
        // Everything else untouched.
        let mut expect = m;
        expect.trace = Some(TraceContext {
            hop_count: ctx().hop_count + 1,
            ..ctx()
        });
        assert_eq!(back, expect);
    }

    #[test]
    fn traceless_frames_have_no_hop_offset() {
        let bytes = sample().to_bytes();
        let v = MessageView::parse(&bytes).unwrap();
        assert_eq!(v.trace, None);
        assert_eq!(v.trace_hop_offset(), None);
        assert!(!v.trace_sampled());
    }

    #[test]
    fn truncated_frames_are_rejected() {
        let bytes = sample().with_trace(ctx()).to_bytes();
        for cut in 1..bytes.len() {
            assert!(MessageView::parse(&bytes[..cut]).is_err(), "cut={cut}");
        }
    }

    #[test]
    fn segment_iterator_yields_raw_segments() {
        let m = sample();
        let bytes = m.to_bytes();
        let v = MessageView::parse(&bytes).unwrap();
        let segs: Vec<&[u8]> = v.topic.segments().collect();
        assert_eq!(segs.len(), m.topic.len());
        assert_eq!(segs[0], b"Constrained");
        assert_eq!(segs[4], b"abc");
    }
}

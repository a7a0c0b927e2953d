//! Property-based agreement between the zero-copy [`MessageView`]
//! parser and the owned [`Message`] decoder: for arbitrary envelopes
//! (any combination of signature, token, MAC and trace context), for
//! frames carrying unknown trailing sections from hypothetical newer
//! peers, and — against a reference copy of the owned decoder that
//! walked the envelope itself before it parsed through the view — for
//! edited encodings and random bytes.

use nb_crypto::bigint::BigUint;
use nb_crypto::rsa::RsaPublicKey;
use nb_crypto::Uuid;
use nb_telemetry::TraceContext;
use nb_wire::codec::{Decode, Encode, Reader, Writer, MAX_CHUNK_LEN};
use nb_wire::message::{Message, SessionTag, SECTION_SESSION, SECTION_TRACE};
use nb_wire::token::{AuthorizationToken, Rights};
use nb_wire::topic::Topic;
use nb_wire::{topic_hash, MessageView, Payload, WireError};
use proptest::prelude::*;

fn arb_segment() -> impl Strategy<Value = String> {
    "[A-Za-z0-9_-]{1,12}".prop_filter("reserved", |s| {
        !matches!(
            s.as_str(),
            "Broker"
                | "Publish"
                | "Subscribe"
                | "PublishSubscribe"
                | "Suppress"
                | "Limited"
                | "Disseminate"
        )
    })
}

fn arb_topic() -> impl Strategy<Value = Topic> {
    proptest::collection::vec(arb_segment(), 1..6)
        .prop_map(|segs| Topic::from_segments(segs).unwrap())
}

fn arb_payload() -> impl Strategy<Value = Payload> {
    prop_oneof![
        Just(Payload::Ack),
        Just(Payload::SilentModeRequest),
        (any::<u64>(), any::<u64>())
            .prop_map(|(seq, sent_at_ms)| Payload::Ping { seq, sent_at_ms }),
        proptest::collection::vec(any::<u8>(), 0..64).prop_map(|data| Payload::Blob { data }),
    ]
}

/// Structurally arbitrary tokens — the codec does not verify them.
fn arb_token() -> impl Strategy<Value = AuthorizationToken> {
    (
        proptest::array::uniform16(any::<u8>()),
        any::<u64>(),
        any::<u64>(),
        proptest::collection::vec(any::<u8>(), 1..48),
    )
        .prop_map(|(uuid, from, until, signature)| AuthorizationToken {
            trace_topic: Uuid::from_bytes(uuid),
            delegate_key: RsaPublicKey::new(BigUint::from_u64(3233), BigUint::from_u64(17)),
            rights: Rights::Publish,
            valid_from_ms: from,
            valid_until_ms: until,
            signature,
        })
}

fn arb_session() -> impl Strategy<Value = SessionTag> {
    (
        any::<u64>(),
        any::<u64>(),
        proptest::array::uniform32(any::<u8>()),
    )
        .prop_map(|(key_id, seq, mac)| SessionTag { key_id, seq, mac })
}

fn arb_trace() -> impl Strategy<Value = TraceContext> {
    (
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<u8>(),
        any::<bool>(),
    )
        .prop_map(|(hi, lo, parent_span, hop_count, sampled)| TraceContext {
            trace_id: (u128::from(hi) << 64) | u128::from(lo),
            parent_span,
            hop_count,
            sampled,
        })
}

/// An arbitrary envelope: every authentication field independently
/// present or absent.
fn arb_message() -> impl Strategy<Value = Message> {
    (
        (
            any::<u64>(),
            any::<u64>(),
            arb_topic(),
            "[a-z:_-]{1,16}",
            any::<u64>(),
            arb_payload(),
        ),
        proptest::option::of(proptest::collection::vec(any::<u8>(), 1..64)),
        proptest::option::of(arb_token()),
        proptest::option::of(proptest::collection::vec(any::<u8>(), 1..32)),
        proptest::option::of(arb_trace()),
        proptest::option::of(arb_session()),
    )
        .prop_map(
            |(
                (id, correlation_id, topic, sender, timestamp_ms, payload),
                sig,
                token,
                mac,
                trace,
                session,
            )| {
                let mut m = Message::new(id, topic, sender, timestamp_ms, payload)
                    .correlated(correlation_id);
                m.signature = sig;
                m.token = token;
                m.mac = mac;
                m.trace = trace;
                m.session = session;
                m
            },
        )
}

/// Re-encodes `m` in the v3 layout but with an explicit trailing
/// section list, emulating a newer peer that appends extension
/// sections this decoder has never heard of.
fn encode_v3_with_sections(m: &Message, sections: &[(u8, Vec<u8>)]) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u8(3);
    w.put_u64(m.id);
    w.put_u64(m.correlation_id);
    m.topic.encode(&mut w);
    w.put_str(&m.sender);
    w.put_u64(m.timestamp_ms);
    let mark = w.reserve_u32();
    m.payload.encode(&mut w);
    let payload_len = w.len() - mark - 4;
    w.patch_u32(mark, payload_len as u32);
    w.put_option(&m.signature, |w, s| w.put_bytes(s));
    w.put_option(&m.token, |w, t| t.encode(w));
    w.put_option(&m.mac, |w, m| w.put_bytes(m));
    w.put_varint(sections.len() as u64);
    for (tag, body) in sections {
        w.put_u8(*tag);
        w.put_bytes(body);
    }
    w.into_bytes()
}

/// Encodes a trace context exactly as the envelope's trace section
/// body (mirrors the private encoder in `message.rs`).
fn trace_section_body(ctx: &TraceContext) -> Vec<u8> {
    let mut w = Writer::with_capacity(26);
    w.put_u64((ctx.trace_id >> 64) as u64);
    w.put_u64(ctx.trace_id as u64);
    w.put_u64(ctx.parent_span);
    w.put_u8(ctx.hop_count);
    w.put_bool(ctx.sampled);
    w.into_bytes()
}

/// Asserts the zero-copy view of `bytes` agrees field-for-field with
/// the owned message `m` (panics on disagreement, like `prop_assert`).
fn assert_view_agrees(bytes: &[u8], m: &Message) {
    let v = MessageView::parse(bytes).expect("view parses v3 frame");
    assert_eq!(v.id, m.id);
    assert_eq!(v.correlation_id, m.correlation_id);
    assert_eq!(v.sender, m.sender.as_str());
    assert_eq!(v.timestamp_ms, m.timestamp_ms);
    assert_eq!(v.payload, m.payload.to_bytes().as_slice());
    assert_eq!(v.signature, m.signature.as_deref());
    assert_eq!(v.token, m.token.as_ref().map(Encode::to_bytes).as_deref());
    assert_eq!(v.mac, m.mac.as_deref());
    assert_eq!(v.trace, m.trace);
    assert_eq!(v.session, m.session);
    assert!(v.topic.eq_topic(&m.topic));
    assert_eq!(v.topic.to_topic().unwrap(), m.topic);
    assert_eq!(v.topic.hash64(), topic_hash(&m.topic));
    assert_eq!(v.trace_hop_offset().is_some(), m.trace.is_some());
    if let Some(off) = v.trace_hop_offset() {
        assert_eq!(bytes[off], m.trace.unwrap().hop_count);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Core agreement property: for any envelope, the zero-copy view
    /// and the full owned decode see the same message.
    #[test]
    fn view_agrees_with_owned_decode(m in arb_message()) {
        let bytes = m.to_bytes();
        prop_assert_eq!(&Message::from_bytes(&bytes).unwrap(), &m);
        assert_view_agrees(&bytes, &m);
    }

    /// Unknown trailing sections (extensions from newer peers) are
    /// skipped identically by both decoders, whether they precede or
    /// follow the trace section.
    #[test]
    fn unknown_trailing_sections_are_skipped_by_both_decoders(
        m in arb_message(),
        unknown in proptest::collection::vec(
            (
                // Tags 1 (trace) and 2 (session) are known; everything
                // above is an extension from a hypothetical newer peer.
                (3u64..256).prop_map(|t| t as u8),
                proptest::collection::vec(any::<u8>(), 0..40),
            ),
            1..4,
        ),
        trace_at in any::<usize>(),
        session_at in any::<usize>(),
    ) {
        let mut sections: Vec<(u8, Vec<u8>)> = unknown;
        if let Some(ctx) = &m.trace {
            let at = trace_at % (sections.len() + 1);
            sections.insert(at, (SECTION_TRACE, trace_section_body(ctx)));
        }
        if let Some(tag) = &m.session {
            let at = session_at % (sections.len() + 1);
            sections.insert(at, (SECTION_SESSION, tag.to_section_bytes()));
        }
        let bytes = encode_v3_with_sections(&m, &sections);
        // The owned decoder recovers the message exactly, ignoring
        // every unknown section.
        prop_assert_eq!(&Message::from_bytes(&bytes).unwrap(), &m);
        // The zero-copy view agrees on every routing-relevant field.
        assert_view_agrees(&bytes, &m);
    }
}

/// The owned decoder as it was when it walked the envelope itself,
/// kept as the reference the view-based decoder must agree with.
fn reference_decode(bytes: &[u8]) -> Result<Message, WireError> {
    let mut r = Reader::new(bytes);
    let version = r.get_u8()?;
    if version != 3 {
        return Err(WireError::BadVersion(version));
    }
    let id = r.get_u64()?;
    let correlation_id = r.get_u64()?;
    let topic = Topic::decode(&mut r)?;
    let sender = r.get_str()?;
    let timestamp_ms = r.get_u64()?;
    let len = r.get_u32()? as usize;
    if len > MAX_CHUNK_LEN {
        return Err(WireError::LengthOverflow("payload"));
    }
    let mut pr = Reader::new(r.get_exact(len, "payload body")?);
    let payload = Payload::decode(&mut pr)?;
    pr.expect_end("payload")?;
    let mut msg = Message {
        id,
        correlation_id,
        topic,
        sender,
        timestamp_ms,
        payload,
        signature: r.get_option(|r| r.get_bytes())?,
        token: r.get_option(AuthorizationToken::decode)?,
        mac: r.get_option(|r| r.get_bytes())?,
        trace: None,
        session: None,
    };
    let sections = r.get_varint()?;
    for _ in 0..sections {
        let tag = r.get_u8()?;
        let body = r.get_bytes_ref()?;
        if tag == SECTION_TRACE && msg.trace.is_none() {
            let mut tr = Reader::new(body);
            let hi = tr.get_u64()?;
            let lo = tr.get_u64()?;
            msg.trace = Some(TraceContext {
                trace_id: (u128::from(hi) << 64) | u128::from(lo),
                parent_span: tr.get_u64()?,
                hop_count: tr.get_u8()?,
                sampled: tr.get_bool()?,
            });
        } else if tag == SECTION_SESSION && msg.session.is_none() {
            msg.session = Some(SessionTag::from_section_bytes(body)?);
        }
    }
    r.expect_end("structure")?;
    Ok(msg)
}

/// The decoder under test and the reference agree on `bytes` (the same
/// `Ok` value, or both fail), and the view accepts whatever either
/// decoder accepts.
fn assert_decoders_agree(bytes: &[u8]) {
    let owned = Message::from_bytes(bytes);
    let reference = reference_decode(bytes);
    match (&owned, &reference) {
        (Ok(a), Ok(b)) => assert_eq!(a, b, "bytes: {bytes:?}"),
        (Err(_), Err(_)) => {}
        _ => panic!("decoders disagree on {bytes:?}: {owned:?} vs {reference:?}"),
    }
    if reference.is_ok() {
        assert!(MessageView::parse(bytes).is_ok(), "view refused {bytes:?}");
    }
}

/// Applies one edit to `bytes`: overwrite a byte, truncate, or insert a
/// byte, at `at` (taken modulo the length).
fn edit(bytes: &mut Vec<u8>, (kind, at, byte): (u8, usize, u8)) {
    match kind {
        0 if !bytes.is_empty() => {
            let at = at % bytes.len();
            bytes[at] = byte;
        }
        1 => bytes.truncate(at % (bytes.len() + 1)),
        _ => bytes.insert(at % (bytes.len() + 1), byte),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// The view-based decoder against the reference, on every
    /// arbitrary encoding and on 1–3 edits of it.
    #[test]
    fn owned_decoder_matches_the_reference_on_edited_frames(
        m in arb_message(),
        edits in proptest::collection::vec((0u8..3, any::<usize>(), any::<u8>()), 1..4),
    ) {
        let mut bytes = m.to_bytes();
        assert_decoders_agree(&bytes);
        for e in edits {
            edit(&mut bytes, e);
            assert_decoders_agree(&bytes);
        }
    }

    /// The same on random bytes behind a version byte of 3.
    #[test]
    fn owned_decoder_matches_the_reference_on_random_bytes(
        body in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let mut bytes = vec![3u8];
        bytes.extend_from_slice(&body);
        assert_decoders_agree(&bytes);
    }
}

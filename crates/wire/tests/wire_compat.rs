//! Wire-compatibility regression tests for the version-3 envelope:
//! the u32 payload length prefix must agree with the encoded payload,
//! the trailing-section block must round-trip trace contexts and
//! tolerate unknown sections from newer peers, and every other version
//! byte — older or newer — is refused by both decoders.

use nb_telemetry::TraceContext;
use nb_wire::codec::{Decode, Encode, Reader, Writer};
use nb_wire::error::WireError;
use nb_wire::{Message, MessageView, Payload, Topic};

const NOW: u64 = 1_700_000_000_000;

fn sample() -> Message {
    Message::new(
        11,
        Topic::parse("/Stat/Wire/Compat").unwrap(),
        "entity:compat",
        NOW,
        Payload::Ping {
            seq: 4,
            sent_at_ms: NOW,
        },
    )
}

fn ctx() -> TraceContext {
    TraceContext {
        trace_id: 0x0011_2233_4455_6677_8899_aabb_ccdd_eeff,
        parent_span: 42,
        hop_count: 2,
        sampled: true,
    }
}

#[test]
fn round_trip_without_trace() {
    let m = sample();
    let back = Message::from_bytes(&m.to_bytes()).unwrap();
    assert_eq!(back, m);
    assert_eq!(back.trace, None);
    assert!(!back.trace_sampled());
}

#[test]
fn round_trip_with_trace() {
    let m = sample().with_trace(ctx());
    let back = Message::from_bytes(&m.to_bytes()).unwrap();
    assert_eq!(back.trace, Some(ctx()));
    assert_eq!(back, m);
}

#[test]
fn legacy_versions_are_rejected_by_both_decoders() {
    // Version 3 is the only wire version: frames stamped 1 or 2 (the
    // pre-length-prefix layouts) are refused by the owned decoder and
    // the zero-copy view alike, never half-parsed.
    for version in [1u8, 2] {
        let mut bytes = sample().with_trace(ctx()).to_bytes();
        bytes[0] = version;
        assert_eq!(
            Message::from_bytes(&bytes),
            Err(WireError::BadVersion(version))
        );
        assert!(matches!(
            MessageView::parse(&bytes),
            Err(WireError::BadVersion(v)) if v == version
        ));
    }
}

#[test]
fn corrupt_payload_length_is_rejected() {
    let m = sample();
    let v3 = m.to_bytes();
    // Find the length prefix the same way the decoder does.
    let mut r = Reader::new(&v3[1..]);
    r.get_u64().unwrap();
    r.get_u64().unwrap();
    Topic::decode(&mut r).unwrap();
    r.get_str().unwrap();
    r.get_u64().unwrap();
    let at = 1 + (v3.len() - 1 - r.remaining());
    let declared = u32::from_be_bytes(v3[at..at + 4].try_into().unwrap());

    let mut longer = v3.clone();
    longer[at..at + 4].copy_from_slice(&(declared + 1).to_be_bytes());
    assert!(Message::from_bytes(&longer).is_err());

    let mut shorter = v3.clone();
    shorter[at..at + 4].copy_from_slice(&(declared - 1).to_be_bytes());
    assert!(Message::from_bytes(&shorter).is_err());
}

#[test]
fn unknown_trailing_sections_are_skipped() {
    // A newer peer appends a section we do not understand; we must
    // skip it and still pick up the trace section that follows.
    let m = sample();
    let mut w = Writer::new();
    m.encode(&mut w);
    let mut bytes = w.into_bytes();
    let base = bytes.len() - 1; // strip the encoder's 0 section count
    bytes.truncate(base);

    let mut tail = Writer::new();
    tail.put_varint(2);
    tail.put_u8(200); // unknown tag
    tail.put_bytes(b"from-the-future");
    tail.put_u8(nb_wire::message::SECTION_TRACE);
    let mut body = Writer::new();
    let c = ctx();
    body.put_u64((c.trace_id >> 64) as u64);
    body.put_u64(c.trace_id as u64);
    body.put_u64(c.parent_span);
    body.put_u8(c.hop_count);
    body.put_bool(c.sampled);
    tail.put_bytes(&body.into_bytes());
    bytes.extend_from_slice(&tail.into_bytes());

    let back = Message::from_bytes(&bytes).unwrap();
    assert_eq!(back.trace, Some(ctx()));
}

#[test]
fn future_versions_are_rejected() {
    let mut bytes = sample().to_bytes();
    bytes[0] = 4;
    match Message::from_bytes(&bytes) {
        Err(WireError::BadVersion(4)) => {}
        other => panic!("expected BadVersion(4), got {other:?}"),
    }
}

#[test]
fn truncated_section_block_is_an_error() {
    let m = sample().with_trace(ctx());
    let bytes = m.to_bytes();
    // Chop mid-section: count says 1 but the body is gone.
    let cut = bytes.len() - 10;
    assert!(Message::from_bytes(&bytes[..cut]).is_err());
    // And a Reader that stops before the section block reports
    // trailing bytes through from_bytes' expect_end.
    let mut r = Reader::new(&bytes);
    let parsed = Message::decode(&mut r).unwrap();
    assert_eq!(parsed.trace, Some(ctx()));
    r.expect_end("message").unwrap();
}

//! The message envelope.
//!
//! Every unit routed by the broker network is a [`Message`]: a topic,
//! a payload, and optional authentication material — an RSA signature
//! (proof of credential possession, §4.2), an authorization token
//! (broker delegation, §4.3), or an HMAC under a shared session key
//! (the §6.3 signing-cost optimization).
//!
//! The wire format is version 3, the only version the parser accepts:
//! a version byte, the envelope head (id, correlation id, topic,
//! sender, timestamp), the payload behind a big-endian `u32` length
//! prefix, the optional authentication fields, and a *trailing
//! section* block — a section count, then `(tag, length-prefixed
//! body)` pairs carrying the optional [`TraceContext`] and
//! [`SessionTag`]. The parser skips sections with tags it does not
//! recognize, so the envelope can grow without a version bump.
//!
//! The payload length prefix lets a router skip straight over the
//! body to the authentication and section trailers without decoding
//! it. That is what makes the zero-copy [`MessageView`], the envelope's
//! only parser, possible; the owned decoder parses through it, and the
//! broker data plane forwards the original bytes untouched.

use crate::codec::{Decode, Encode, Reader, Writer};
use crate::error::WireError;
use crate::payload::Payload;
use crate::token::AuthorizationToken;
use crate::topic::Topic;
use crate::view::MessageView;
use crate::Result;
use nb_crypto::cert::Credential;
use nb_crypto::digest::DigestAlgorithm;
use nb_crypto::hmac::{hmac, verify_mac};
use nb_crypto::rsa::RsaPublicKey;
use nb_crypto::sha256::Sha256;
use nb_telemetry::TraceContext;

/// Codec version byte leading every encoded message; decoders reject
/// every other value with [`WireError::BadVersion`].
pub const WIRE_VERSION: u8 = 3;

/// Trailing-section tag carrying a [`TraceContext`].
pub const SECTION_TRACE: u8 = 1;

/// Trailing-section tag carrying a [`SessionTag`].
pub const SECTION_SESSION: u8 = 2;

/// Length of a session-tag MAC (HMAC-SHA256).
pub const SESSION_TAG_MAC_LEN: usize = 32;

/// Encoded length of a [`SessionTag`] section body.
pub const SESSION_TAG_LEN: usize = 8 + 8 + SESSION_TAG_MAC_LEN;

/// Session authentication tag (trailing section).
///
/// Rides *outside* the signed region — like the trace section — so
/// attaching or stripping it never invalidates an end-to-end RSA
/// signature.
/// The MAC covers `key_id ‖ seq ‖ signable-bytes` under the session
/// key named by `key_id` (see `nb_crypto::session`), so the tag binds
/// to both the key and this message's position in the tagged stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionTag {
    /// Identifier of the session key that produced `mac`.
    pub key_id: u64,
    /// Per-key sequence number of this message.
    pub seq: u64,
    /// HMAC-SHA256 over `key_id ‖ seq ‖ signable-bytes`.
    pub mac: [u8; SESSION_TAG_MAC_LEN],
}

impl SessionTag {
    /// Encodes the section body (fixed [`SESSION_TAG_LEN`] bytes).
    pub fn to_section_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(SESSION_TAG_LEN);
        out.extend_from_slice(&self.key_id.to_be_bytes());
        out.extend_from_slice(&self.seq.to_be_bytes());
        out.extend_from_slice(&self.mac);
        out
    }

    /// Decodes a section body. Trailing bytes are tolerated so the
    /// section can grow compatibly; a short body is an error.
    pub fn from_section_bytes(body: &[u8]) -> Result<Self> {
        if body.len() < SESSION_TAG_LEN {
            return Err(WireError::Truncated("session tag"));
        }
        let mut key_id = [0u8; 8];
        key_id.copy_from_slice(&body[..8]);
        let mut seq = [0u8; 8];
        seq.copy_from_slice(&body[8..16]);
        let mut mac = [0u8; SESSION_TAG_MAC_LEN];
        mac.copy_from_slice(&body[16..16 + SESSION_TAG_MAC_LEN]);
        Ok(SessionTag {
            key_id: u64::from_be_bytes(key_id),
            seq: u64::from_be_bytes(seq),
            mac,
        })
    }
}

/// A routable message.
#[derive(Debug, Clone, PartialEq)]
pub struct Message {
    /// Unique (per sender) message id.
    pub id: u64,
    /// Correlates responses to requests (0 = none).
    pub correlation_id: u64,
    /// Routing topic.
    pub topic: Topic,
    /// Sender identifier (entity id, broker id, tracker id).
    pub sender: String,
    /// Send timestamp, ms since epoch.
    pub timestamp_ms: u64,
    /// The body.
    pub payload: Payload,
    /// RSA/SHA-1 signature over [`Message::signable_bytes`].
    pub signature: Option<Vec<u8>>,
    /// Authorization token (required on broker-published traces).
    pub token: Option<AuthorizationToken>,
    /// HMAC-SHA256 under a shared session key (§6.3 optimization;
    /// replaces `signature` on the entity→broker path).
    pub mac: Option<Vec<u8>>,
    /// Causal tracing context (trailing section). Not covered
    /// by signatures or MACs — the hop count mutates at every broker
    /// hop, and tampering with it can only corrupt telemetry, never
    /// authorization.
    pub trace: Option<TraceContext>,
    /// Session authentication tag (trailing section): an
    /// HMAC-SHA256 over the signable bytes under a negotiated session
    /// key, letting brokers and trackers skip per-message RSA
    /// verification. Self-authenticating (the MAC covers the signed
    /// region), so like `trace` it travels outside the signature.
    pub session: Option<SessionTag>,
}

impl Message {
    /// Creates an unauthenticated message.
    pub fn new(
        id: u64,
        topic: Topic,
        sender: impl Into<String>,
        timestamp_ms: u64,
        payload: Payload,
    ) -> Self {
        Message {
            id,
            correlation_id: 0,
            topic,
            sender: sender.into(),
            timestamp_ms,
            payload,
            signature: None,
            token: None,
            mac: None,
            trace: None,
            session: None,
        }
    }

    /// Sets the correlation id (builder style).
    pub fn correlated(mut self, correlation_id: u64) -> Self {
        self.correlation_id = correlation_id;
        self
    }

    /// The bytes covered by signatures and MACs: everything except the
    /// authentication fields themselves and the trace context (which
    /// mutates per hop and must not invalidate end-to-end signatures).
    pub fn signable_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_u64(self.id);
        w.put_u64(self.correlation_id);
        self.topic.encode(&mut w);
        w.put_str(&self.sender);
        w.put_u64(self.timestamp_ms);
        self.payload.encode(&mut w);
        w.into_bytes()
    }

    /// Signs the message with `credential` (SHA-1 + PKCS#1, the
    /// paper's configuration), replacing any existing signature.
    pub fn sign(&mut self, credential: &Credential) -> Result<()> {
        self.signature = Some(credential.sign(&self.signable_bytes())?);
        Ok(())
    }

    /// Verifies the signature against `key`.
    ///
    /// This is the broker's §3.2 check: decrypt the signature with the
    /// sender's public key and compare digests (proof of possession +
    /// tamper evidence).
    pub fn verify_signature(&self, key: &RsaPublicKey) -> Result<()> {
        let sig = self
            .signature
            .as_ref()
            .ok_or(WireError::Truncated("missing signature"))?;
        key.verify(DigestAlgorithm::Sha1, &self.signable_bytes(), sig)
            .map_err(WireError::Crypto)
    }

    /// Authenticates with an HMAC under `session_key` instead of an
    /// RSA signature (§6.3: "encryption/decryption costs are cheaper
    /// than the corresponding signing/verification cost").
    pub fn mac_with(&mut self, session_key: &[u8]) {
        self.mac = Some(hmac::<Sha256>(session_key, &self.signable_bytes()));
    }

    /// Verifies the HMAC under `session_key`.
    pub fn verify_mac(&self, session_key: &[u8]) -> Result<()> {
        let mac = self
            .mac
            .as_ref()
            .ok_or(WireError::Truncated("missing mac"))?;
        if verify_mac(mac, &hmac::<Sha256>(session_key, &self.signable_bytes())) {
            Ok(())
        } else {
            Err(WireError::Crypto(nb_crypto::CryptoError::SignatureMismatch))
        }
    }

    /// Attaches an authorization token (builder style).
    pub fn with_token(mut self, token: AuthorizationToken) -> Self {
        self.token = Some(token);
        self
    }

    /// Attaches a causal tracing context (builder style).
    pub fn with_trace(mut self, trace: TraceContext) -> Self {
        self.trace = Some(trace);
        self
    }

    /// Attaches a session authentication tag (builder style).
    pub fn with_session(mut self, session: SessionTag) -> Self {
        self.session = Some(session);
        self
    }

    /// Whether this message carries a head-sampled trace context —
    /// the guard recorders evaluate before doing any tracing work.
    pub fn trace_sampled(&self) -> bool {
        self.trace.is_some_and(|t| t.sampled)
    }
}

/// Encodes a trace context as a section body.
fn encode_trace_section(ctx: &TraceContext) -> Vec<u8> {
    let mut w = Writer::with_capacity(26);
    w.put_u64((ctx.trace_id >> 64) as u64);
    w.put_u64(ctx.trace_id as u64);
    w.put_u64(ctx.parent_span);
    w.put_u8(ctx.hop_count);
    w.put_bool(ctx.sampled);
    w.into_bytes()
}

impl Encode for Message {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(WIRE_VERSION);
        w.put_u64(self.id);
        w.put_u64(self.correlation_id);
        self.topic.encode(w);
        w.put_str(&self.sender);
        w.put_u64(self.timestamp_ms);
        // The payload is u32-length-prefixed so zero-copy parsers can
        // hop over it to the authentication/section trailers.
        let mark = w.reserve_u32();
        self.payload.encode(w);
        let payload_len = w.len() - mark - 4;
        w.patch_u32(mark, payload_len as u32);
        w.put_option(&self.signature, |w, s| w.put_bytes(s));
        w.put_option(&self.token, |w, t| t.encode(w));
        w.put_option(&self.mac, |w, m| w.put_bytes(m));
        let sections = u64::from(self.trace.is_some()) + u64::from(self.session.is_some());
        w.put_varint(sections);
        if let Some(ctx) = &self.trace {
            w.put_u8(SECTION_TRACE);
            w.put_bytes(&encode_trace_section(ctx));
        }
        if let Some(tag) = &self.session {
            w.put_u8(SECTION_SESSION);
            w.put_bytes(&tag.to_section_bytes());
        }
    }
}

impl Decode for Message {
    /// Parses the rest of `r` as one frame with [`MessageView::parse`],
    /// the envelope's only parser, then owns what the view lends.
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        let view = MessageView::parse(r.get_exact(r.remaining(), "message")?)?;
        Ok(Message {
            id: view.id,
            correlation_id: view.correlation_id,
            topic: view.topic.to_topic()?,
            sender: view.sender.to_string(),
            timestamp_ms: view.timestamp_ms,
            payload: Payload::from_bytes(view.payload)?,
            signature: view.signature.map(<[u8]>::to_vec),
            token: view.token.map(AuthorizationToken::from_bytes).transpose()?,
            mac: view.mac.map(<[u8]>::to_vec),
            trace: view.trace,
            session: view.session,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nb_crypto::cert::{CertificateAuthority, Validity};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::OnceLock;

    const NOW: u64 = 1_700_000_000_000;

    fn credential() -> &'static Credential {
        static CRED: OnceLock<Credential> = OnceLock::new();
        CRED.get_or_init(|| {
            let mut rng = StdRng::seed_from_u64(21);
            let mut ca = CertificateAuthority::new(
                "ca",
                512,
                Validity::starting_now(NOW, 1 << 40),
                &mut rng,
            )
            .unwrap();
            ca.issue(
                "entity:msg-test",
                Validity::starting_now(NOW, 1 << 40),
                &mut rng,
            )
            .unwrap()
        })
    }

    fn sample() -> Message {
        Message::new(
            7,
            Topic::parse("/Constrained/Traces/Broker/Subscribe-Only/Registration").unwrap(),
            "entity:msg-test",
            NOW,
            Payload::Ping {
                seq: 1,
                sent_at_ms: NOW,
            },
        )
    }

    #[test]
    fn codec_round_trip_plain() {
        let m = sample();
        assert_eq!(Message::from_bytes(&m.to_bytes()).unwrap(), m);
    }

    #[test]
    fn codec_round_trip_with_auth_material() {
        let mut m = sample().correlated(42);
        m.sign(credential()).unwrap();
        m.mac_with(b"session-key");
        let back = Message::from_bytes(&m.to_bytes()).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.correlation_id, 42);
    }

    #[test]
    fn version_byte_enforced() {
        let mut bytes = sample().to_bytes();
        bytes[0] = 99;
        assert_eq!(Message::from_bytes(&bytes), Err(WireError::BadVersion(99)));
    }

    #[test]
    fn signature_verifies_and_detects_tampering() {
        let cred = credential();
        let mut m = sample();
        m.sign(cred).unwrap();
        m.verify_signature(&cred.certificate.public_key).unwrap();

        let mut tampered = m.clone();
        tampered.sender = "entity:mallory".to_string();
        assert!(tampered
            .verify_signature(&cred.certificate.public_key)
            .is_err());

        let mut payload_swap = m.clone();
        payload_swap.payload = Payload::Ping {
            seq: 2,
            sent_at_ms: NOW,
        };
        assert!(payload_swap
            .verify_signature(&cred.certificate.public_key)
            .is_err());
    }

    #[test]
    fn missing_signature_is_an_error() {
        let m = sample();
        assert!(m
            .verify_signature(&credential().certificate.public_key)
            .is_err());
    }

    #[test]
    fn mac_authentication_round_trip() {
        let key = b"shared-session-key-0123456789ab";
        let mut m = sample();
        m.mac_with(key);
        m.verify_mac(key).unwrap();
        assert!(m.verify_mac(b"wrong-key").is_err());

        let mut tampered = m.clone();
        tampered.timestamp_ms += 1;
        assert!(tampered.verify_mac(key).is_err());
    }

    #[test]
    fn codec_round_trip_with_trace_context() {
        let ctx = TraceContext {
            trace_id: 0xdead_beef_cafe_f00d_0123_4567_89ab_cdef,
            parent_span: 99,
            hop_count: 3,
            sampled: true,
        };
        let m = sample().with_trace(ctx);
        let back = Message::from_bytes(&m.to_bytes()).unwrap();
        assert_eq!(back.trace, Some(ctx));
        assert_eq!(back, m);
        assert!(back.trace_sampled());
    }

    #[test]
    fn trace_context_not_covered_by_signature_or_mac() {
        let cred = credential();
        let mut m = sample();
        m.sign(cred).unwrap();
        m.mac_with(b"k");
        // A broker mutating the hop count mid-route must not break
        // end-to-end authentication.
        m.trace = Some(TraceContext::root(1, true).next_hop());
        m.verify_signature(&cred.certificate.public_key).unwrap();
        m.verify_mac(b"k").unwrap();
    }

    #[test]
    fn codec_round_trip_with_session_tag() {
        let tag = SessionTag {
            key_id: 0xfeed_f00d_1234_5678,
            seq: 42,
            mac: [7; SESSION_TAG_MAC_LEN],
        };
        let m = sample().with_session(tag);
        let back = Message::from_bytes(&m.to_bytes()).unwrap();
        assert_eq!(back.session, Some(tag));
        assert_eq!(back, m);
        // Alongside a trace section, both survive.
        let both = m.with_trace(TraceContext::root(5, true));
        let back = Message::from_bytes(&both.to_bytes()).unwrap();
        assert_eq!(back, both);
    }

    #[test]
    fn session_tag_not_covered_by_signature() {
        // Brokers may strip or ignore the session section without
        // breaking end-to-end RSA verification, exactly like the trace
        // section.
        let cred = credential();
        let mut m = sample();
        m.sign(cred).unwrap();
        m.session = Some(SessionTag {
            key_id: 1,
            seq: 0,
            mac: [0; SESSION_TAG_MAC_LEN],
        });
        m.verify_signature(&cred.certificate.public_key).unwrap();
        m.session = None;
        m.verify_signature(&cred.certificate.public_key).unwrap();
    }

    #[test]
    fn truncated_session_section_rejected() {
        let tag = SessionTag {
            key_id: 9,
            seq: 1,
            mac: [1; SESSION_TAG_MAC_LEN],
        };
        let body = tag.to_section_bytes();
        assert_eq!(body.len(), SESSION_TAG_LEN);
        assert_eq!(SessionTag::from_section_bytes(&body).unwrap(), tag);
        for cut in 0..SESSION_TAG_LEN {
            assert!(SessionTag::from_section_bytes(&body[..cut]).is_err());
        }
        // Trailing growth bytes are tolerated.
        let mut grown = body;
        grown.push(0xaa);
        assert_eq!(SessionTag::from_section_bytes(&grown).unwrap(), tag);
    }

    #[test]
    fn signature_does_not_cover_auth_fields() {
        // Attaching a token after signing must not invalidate the
        // signature (tokens are carried alongside, per §4.3).
        let cred = credential();
        let mut m = sample();
        m.sign(cred).unwrap();
        let sig_before = m.signature.clone();
        m.mac_with(b"k");
        assert_eq!(m.signature, sig_before);
        m.verify_signature(&cred.certificate.public_key).unwrap();
    }
}

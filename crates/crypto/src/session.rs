//! Session-key regime: amortizing RSA off the per-trace hot path.
//!
//! EXPERIMENTS.md §6.3 measures RSA signing at ~0.49 ms against
//! ~0.001 ms for HMAC-SHA256 — a ~500× gap that dominates per-trace
//! cost at scale. Following the trusted-channel shape (pay asymmetric
//! crypto once at session establishment, then authenticate every
//! frame symmetrically), an entity and its authorized tracker-set
//! negotiate a per-(entity, tracker-set) HMAC-SHA256 session key via
//! an RSA-signed, RSA-encrypted handshake; every subsequent trace
//! carries a cheap session MAC instead of relying on per-message RSA
//! verification.
//!
//! This module is the key store and MAC engine shared by that layer:
//!
//! * [`SessionKey`] — one negotiated key: a random 64-bit `key_id`,
//!   the 32-byte HMAC secret, the trace topic it is bound to, an
//!   expiry instant and a message budget (rotation after N messages /
//!   T ms);
//! * [`SessionKeyring`] — a concurrent map from `key_id` to key
//!   state, with installation, tagging (MAC issue + usage counting),
//!   verification, rotation-due detection and revocation.
//!
//! Expiry is **inclusive of the expiry instant**, exactly like
//! [`crate::cert::Validity::contains`] and the authorization-token
//! window checks: a key is accepted at `expires_at_ms` and rejected
//! one millisecond later, so no layer disagrees about the boundary.
//!
//! The MAC covers `key_id ‖ seq ‖ message-bytes`, binding the tag to
//! the key and the per-key sequence number so a tag cannot be grafted
//! onto another key's traffic. Verifiers additionally check the key's
//! topic binding: holding a valid key for entity A must not allow
//! forging traffic for entity B.

use crate::digest::Digest;
use crate::error::CryptoError;
use crate::hmac::{ct_eq, hmac_parts};
use crate::sha256::Sha256;
use crate::uuid::Uuid;
use rand::Rng;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::RwLock;

/// Length of a session MAC (full HMAC-SHA256 output).
pub const SESSION_MAC_LEN: usize = 32;

/// One negotiated per-(entity, tracker-set) session key.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SessionKey {
    /// Random 64-bit identifier carried in every tagged frame.
    pub key_id: u64,
    /// The trace topic this key is bound to (the entity's topic).
    pub topic: Uuid,
    /// The HMAC-SHA256 secret.
    pub secret: [u8; 32],
    /// When the key was negotiated (ms since epoch).
    pub established_ms: u64,
    /// Last instant at which the key is accepted (inclusive — see the
    /// module docs on boundary semantics).
    pub expires_at_ms: u64,
    /// Messages the issuer may tag before rotation is due.
    pub max_messages: u64,
}

impl SessionKey {
    /// Mints a fresh key bound to `topic`, valid for `lifetime_ms`
    /// with a budget of `max_messages` tags.
    pub fn mint(
        topic: Uuid,
        now_ms: u64,
        lifetime_ms: u64,
        max_messages: u64,
        rng: &mut dyn Rng,
    ) -> Self {
        let mut secret = [0u8; 32];
        rng.fill_bytes(&mut secret);
        SessionKey {
            key_id: rng.next_u64(),
            topic,
            secret,
            established_ms: now_ms,
            expires_at_ms: now_ms.saturating_add(lifetime_ms),
            max_messages,
        }
    }

    /// Whether the key has lapsed at `now_ms` (inclusive boundary:
    /// still valid *at* `expires_at_ms`).
    pub fn is_expired(&self, now_ms: u64) -> bool {
        now_ms > self.expires_at_ms
    }

    /// Fixed-layout serialization (80 bytes) — this is what travels
    /// inside the RSA-sealed handshake envelope.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(80);
        out.extend_from_slice(&self.key_id.to_be_bytes());
        out.extend_from_slice(self.topic.as_bytes());
        out.extend_from_slice(&self.secret);
        out.extend_from_slice(&self.established_ms.to_be_bytes());
        out.extend_from_slice(&self.expires_at_ms.to_be_bytes());
        out.extend_from_slice(&self.max_messages.to_be_bytes());
        out
    }

    /// Inverse of [`SessionKey::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CryptoError> {
        if bytes.len() != 80 {
            return Err(CryptoError::InvalidLength {
                what: "session key material",
                expected: 80,
                actual: bytes.len(),
            });
        }
        let u64_at = |off: usize| {
            let mut b = [0u8; 8];
            b.copy_from_slice(&bytes[off..off + 8]);
            u64::from_be_bytes(b)
        };
        let mut topic = [0u8; 16];
        topic.copy_from_slice(&bytes[8..24]);
        let mut secret = [0u8; 32];
        secret.copy_from_slice(&bytes[24..56]);
        Ok(SessionKey {
            key_id: u64_at(0),
            topic: Uuid::from_bytes(topic),
            secret,
            established_ms: u64_at(56),
            expires_at_ms: u64_at(64),
            max_messages: u64_at(72),
        })
    }

    /// Computes the session MAC for (`seq`, `parts`): HMAC-SHA256 over
    /// `key_id ‖ seq ‖ parts[0] ‖ parts[1] ‖ …`.
    pub fn mac(&self, seq: u64, parts: &[&[u8]]) -> [u8; SESSION_MAC_LEN] {
        let key_id = self.key_id.to_be_bytes();
        let seq = seq.to_be_bytes();
        let mut all: Vec<&[u8]> = Vec::with_capacity(parts.len() + 2);
        all.push(&key_id);
        all.push(&seq);
        all.extend_from_slice(parts);
        let digest = hmac_parts::<Sha256>(&self.secret, &all);
        let mut mac = [0u8; SESSION_MAC_LEN];
        mac.copy_from_slice(&digest);
        mac
    }
}

/// Why a session verification did not succeed — drives the receiver's
/// fallback policy (unknown/expired keys fall back to full RSA
/// verification; revoked keys and bad MACs are security events).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionVerdict {
    /// MAC valid under a live key bound to the expected topic.
    Verified,
    /// No key with this id — receiver falls back to RSA verification.
    UnknownKey,
    /// Key known but past `expires_at_ms` — RSA fallback.
    Expired,
    /// Key was explicitly revoked — reject and report.
    Revoked,
    /// Key is bound to a different trace topic — reject.
    WrongTopic,
    /// MAC mismatch under the named key — reject.
    BadMac,
}

struct KeyState {
    key: SessionKey,
    used: u64,
    revoked: bool,
}

/// Concurrent store of live session keys, indexed by `key_id`.
///
/// Brokers hold one (shared with the hosting tracing engine), each
/// tracker holds its own, and entities hold one for the keys they
/// minted. All metrics go to the process-wide registry under
/// `crypto.session.*` (see `docs/OBSERVABILITY.md`).
#[derive(Default)]
pub struct SessionKeyring {
    keys: RwLock<HashMap<u64, KeyState>>,
}

impl SessionKeyring {
    /// An empty keyring.
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs a key. A key id already resident keeps its state, so
    /// a late or replayed delivery of a revoked key cannot revive it
    /// and a re-delivered key keeps its message count.
    pub fn install(&self, key: SessionKey) {
        let mut keys = self.keys.write().expect("session keyring poisoned");
        if let Entry::Vacant(slot) = keys.entry(key.key_id) {
            crate::instrument::SESSION_INSTALLED.inc();
            slot.insert(KeyState {
                key,
                used: 0,
                revoked: false,
            });
        }
    }

    /// Marks `key_id` revoked (it stays resident so verifiers can
    /// distinguish *revoked* from *unknown*). Returns whether the key
    /// existed and was live.
    pub fn revoke(&self, key_id: u64) -> bool {
        let mut keys = self.keys.write().expect("session keyring poisoned");
        match keys.get_mut(&key_id) {
            Some(state) if !state.revoked => {
                state.revoked = true;
                crate::instrument::SESSION_REVOKED.inc();
                true
            }
            _ => false,
        }
    }

    /// Whether any key is installed at all (lets hot paths skip the
    /// map lookup entirely when the session layer is unused).
    pub fn is_empty(&self) -> bool {
        self.keys
            .read()
            .expect("session keyring poisoned")
            .is_empty()
    }

    /// A clone of the key record for `key_id`, if present.
    pub fn get(&self, key_id: u64) -> Option<SessionKey> {
        self.keys
            .read()
            .expect("session keyring poisoned")
            .get(&key_id)
            .map(|s| s.key.clone())
    }

    /// Tags a message: returns `(seq, mac)` under `key_id` and counts
    /// the use, or `None` when the key is missing, revoked, expired
    /// at `now_ms`, or out of message budget (callers should then
    /// rotate or fall back to RSA signatures).
    pub fn tag(
        &self,
        key_id: u64,
        now_ms: u64,
        parts: &[&[u8]],
    ) -> Option<(u64, [u8; SESSION_MAC_LEN])> {
        let mut keys = self.keys.write().expect("session keyring poisoned");
        let state = keys.get_mut(&key_id)?;
        if state.revoked || state.key.is_expired(now_ms) || state.used >= state.key.max_messages {
            return None;
        }
        let seq = state.used;
        state.used += 1;
        let mac = state.key.mac(seq, parts);
        crate::instrument::SESSION_TAGGED.inc();
        Some((seq, mac))
    }

    /// Whether the issuer should rotate `key_id` now: the message
    /// budget is spent, or three quarters of the key lifetime has
    /// elapsed (rotating *before* expiry keeps the tagged stream
    /// seamless).
    pub fn needs_rotation(&self, key_id: u64, now_ms: u64) -> bool {
        let keys = self.keys.read().expect("session keyring poisoned");
        let Some(state) = keys.get(&key_id) else {
            return true;
        };
        if state.revoked || state.used >= state.key.max_messages {
            return true;
        }
        let lifetime = state
            .key
            .expires_at_ms
            .saturating_sub(state.key.established_ms);
        now_ms.saturating_sub(state.key.established_ms) >= lifetime.saturating_mul(3) / 4
    }

    /// Verifies a session tag.
    ///
    /// `expected_topic` enforces the key↔topic binding when the caller
    /// knows which trace topic the frame claims to belong to (brokers
    /// resolve it from the route entry, trackers from their tracked
    /// entity); `None` skips that check.
    pub fn verify(
        &self,
        key_id: u64,
        seq: u64,
        expected_topic: Option<&Uuid>,
        now_ms: u64,
        parts: &[&[u8]],
        mac: &[u8],
    ) -> SessionVerdict {
        let keys = self.keys.read().expect("session keyring poisoned");
        let Some(state) = keys.get(&key_id) else {
            crate::instrument::SESSION_UNKNOWN.inc();
            return SessionVerdict::UnknownKey;
        };
        if state.revoked {
            crate::instrument::SESSION_REJECTED.inc();
            return SessionVerdict::Revoked;
        }
        if state.key.is_expired(now_ms) {
            crate::instrument::SESSION_EXPIRED.inc();
            return SessionVerdict::Expired;
        }
        if let Some(topic) = expected_topic {
            if &state.key.topic != topic {
                crate::instrument::SESSION_REJECTED.inc();
                return SessionVerdict::WrongTopic;
            }
        }
        let expected = state.key.mac(seq, parts);
        if ct_eq(&expected, mac) {
            crate::instrument::SESSION_VERIFIED.inc();
            SessionVerdict::Verified
        } else {
            crate::instrument::SESSION_REJECTED.inc();
            SessionVerdict::BadMac
        }
    }

    /// Drops keys expired before `now_ms` (revoked keys are kept so
    /// replayed traffic still reads as *revoked*, not *unknown*).
    pub fn sweep_expired(&self, now_ms: u64) {
        self.keys
            .write()
            .expect("session keyring poisoned")
            .retain(|_, s| s.revoked || !s.key.is_expired(now_ms));
    }

    /// Number of resident keys (live + revoked).
    pub fn len(&self) -> usize {
        self.keys.read().expect("session keyring poisoned").len()
    }
}

impl std::fmt::Debug for SessionKeyring {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SessionKeyring({} keys)", self.len())
    }
}

/// Digest length sanity: HMAC-SHA256 output is [`SESSION_MAC_LEN`].
const _: () = assert!(Sha256::OUTPUT_LEN == SESSION_MAC_LEN);

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const NOW: u64 = 1_700_000_000_000;

    fn key(rng: &mut StdRng) -> SessionKey {
        let topic = Uuid::new_v4(rng);
        SessionKey::mint(topic, NOW, 60_000, 100, rng)
    }

    #[test]
    fn reinstalling_a_revoked_key_keeps_it_revoked() {
        let mut rng = StdRng::seed_from_u64(9);
        let k = key(&mut rng);
        let ring = SessionKeyring::new();
        ring.install(k.clone());
        let (seq, mac) = ring.tag(k.key_id, NOW, &[b"m"]).unwrap();
        assert!(ring.revoke(k.key_id));
        ring.install(k.clone());
        assert_eq!(
            ring.verify(k.key_id, seq, None, NOW, &[b"m"], &mac),
            SessionVerdict::Revoked
        );
        assert_eq!(ring.len(), 1);
    }

    #[test]
    fn serialization_round_trip() {
        let mut rng = StdRng::seed_from_u64(1);
        let k = key(&mut rng);
        let bytes = k.to_bytes();
        assert_eq!(bytes.len(), 80);
        assert_eq!(SessionKey::from_bytes(&bytes).unwrap(), k);
        assert!(SessionKey::from_bytes(&bytes[..79]).is_err());
    }

    #[test]
    fn tag_and_verify_round_trip() {
        let mut rng = StdRng::seed_from_u64(2);
        let k = key(&mut rng);
        let ring = SessionKeyring::new();
        ring.install(k.clone());
        let (seq, mac) = ring.tag(k.key_id, NOW, &[b"hello", b" world"]).unwrap();
        assert_eq!(seq, 0);
        assert_eq!(
            ring.verify(k.key_id, seq, Some(&k.topic), NOW, &[b"hello world"], &mac),
            SessionVerdict::Verified
        );
        // Sequence numbers advance per tag.
        let (seq2, _) = ring.tag(k.key_id, NOW, &[b"x"]).unwrap();
        assert_eq!(seq2, 1);
    }

    #[test]
    fn verdicts_cover_every_failure_mode() {
        let mut rng = StdRng::seed_from_u64(3);
        let k = key(&mut rng);
        let other_topic = Uuid::new_v4(&mut rng);
        let ring = SessionKeyring::new();
        ring.install(k.clone());
        let (seq, mac) = ring.tag(k.key_id, NOW, &[b"m"]).unwrap();

        assert_eq!(
            ring.verify(k.key_id + 1, seq, None, NOW, &[b"m"], &mac),
            SessionVerdict::UnknownKey
        );
        assert_eq!(
            ring.verify(k.key_id, seq, Some(&other_topic), NOW, &[b"m"], &mac),
            SessionVerdict::WrongTopic
        );
        assert_eq!(
            ring.verify(k.key_id, seq, None, NOW, &[b"tampered"], &mac),
            SessionVerdict::BadMac
        );
        let mut bad = mac;
        bad[0] ^= 1;
        assert_eq!(
            ring.verify(k.key_id, seq, None, NOW, &[b"m"], &bad),
            SessionVerdict::BadMac
        );
        // Wrong seq under the right key is a MAC failure too.
        assert_eq!(
            ring.verify(k.key_id, seq + 1, None, NOW, &[b"m"], &mac),
            SessionVerdict::BadMac
        );
        assert!(ring.revoke(k.key_id));
        assert!(!ring.revoke(k.key_id), "double revoke reports false");
        assert_eq!(
            ring.verify(k.key_id, seq, None, NOW, &[b"m"], &mac),
            SessionVerdict::Revoked
        );
    }

    #[test]
    fn expiry_boundary_is_inclusive_like_every_other_layer() {
        // The cross-layer contract: certificates
        // (`Validity::contains`), authorization tokens and session
        // keys all accept at the exact expiry instant and reject one
        // millisecond later.
        let mut rng = StdRng::seed_from_u64(4);
        let k = key(&mut rng);
        let expiry = k.expires_at_ms;
        let ring = SessionKeyring::new();
        ring.install(k.clone());
        let (seq, mac) = ring.tag(k.key_id, NOW, &[b"m"]).unwrap();

        assert!(!k.is_expired(expiry));
        assert!(k.is_expired(expiry + 1));
        assert_eq!(
            ring.verify(k.key_id, seq, None, expiry, &[b"m"], &mac),
            SessionVerdict::Verified,
            "key must be accepted at the expiry instant"
        );
        assert_eq!(
            ring.verify(k.key_id, seq, None, expiry + 1, &[b"m"], &mac),
            SessionVerdict::Expired
        );
        // Tagging obeys the same boundary.
        assert!(ring.tag(k.key_id, expiry, &[b"m"]).is_some());
        assert!(ring.tag(k.key_id, expiry + 1, &[b"m"]).is_none());
    }

    #[test]
    fn rotation_due_after_budget_or_age() {
        let mut rng = StdRng::seed_from_u64(5);
        let topic = Uuid::new_v4(&mut rng);
        let k = SessionKey::mint(topic, NOW, 100_000, 3, &mut rng);
        let ring = SessionKeyring::new();
        ring.install(k.clone());
        assert!(!ring.needs_rotation(k.key_id, NOW));
        // Age: due at 3/4 of lifetime.
        assert!(!ring.needs_rotation(k.key_id, NOW + 74_999));
        assert!(ring.needs_rotation(k.key_id, NOW + 75_000));
        // Budget: due after max_messages tags; tag() then refuses.
        for _ in 0..3 {
            assert!(ring.tag(k.key_id, NOW, &[b"m"]).is_some());
        }
        assert!(ring.needs_rotation(k.key_id, NOW));
        assert!(ring.tag(k.key_id, NOW, &[b"m"]).is_none());
        // Unknown keys always rotate.
        assert!(ring.needs_rotation(999, NOW));
    }

    #[test]
    fn sweep_drops_expired_keeps_revoked() {
        let mut rng = StdRng::seed_from_u64(6);
        let a = key(&mut rng);
        let b = key(&mut rng);
        let ring = SessionKeyring::new();
        ring.install(a.clone());
        ring.install(b.clone());
        ring.revoke(b.key_id);
        ring.sweep_expired(a.expires_at_ms + 1);
        assert!(ring.get(a.key_id).is_none(), "expired key swept");
        assert!(ring.get(b.key_id).is_some(), "revoked key retained");
        assert_eq!(
            ring.verify(b.key_id, 0, None, NOW, &[b"m"], &[0u8; 32]),
            SessionVerdict::Revoked,
            "replay after revocation must read revoked, not unknown"
        );
    }

    #[test]
    fn topic_binding_prevents_cross_entity_forgery() {
        // Holding a valid key for entity A must not authenticate
        // traffic claimed for entity B.
        let mut rng = StdRng::seed_from_u64(7);
        let key_a = key(&mut rng);
        let topic_b = Uuid::new_v4(&mut rng);
        let ring = SessionKeyring::new();
        ring.install(key_a.clone());
        let (seq, mac) = ring.tag(key_a.key_id, NOW, &[b"forged for B"]).unwrap();
        assert_eq!(
            ring.verify(
                key_a.key_id,
                seq,
                Some(&topic_b),
                NOW,
                &[b"forged for B"],
                &mac
            ),
            SessionVerdict::WrongTopic
        );
    }
}

//! Authorization tokens (paper §4.3).
//!
//! A traced entity delegates the right to publish its traces to its
//! hosting broker by minting a token over a **randomly generated key
//! pair** (so the token does not reveal which broker the entity is
//! attached to — including the broker's own credential would leak
//! that). The token carries the trace topic, the delegate public key,
//! the granted rights and a validity window, all signed by the topic
//! owner. Every broker-generated trace message must carry a valid
//! token; routing brokers discard messages whose token is missing,
//! expired, or not signed by the topic owner.

use crate::codec::{Decode, Encode, Reader, Writer};
use crate::error::WireError;
use crate::instrument;
use crate::Result;
use nb_crypto::cert::Credential;
use nb_crypto::digest::DigestAlgorithm;
use nb_crypto::rsa::RsaPublicKey;
use nb_crypto::{CryptoError, Uuid};

/// Rights grantable by an authorization token.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rights {
    /// The delegate may publish traces for the topic (brokers get
    /// this).
    Publish,
    /// The delegate may subscribe to traces for the topic.
    Subscribe,
}

impl Rights {
    /// Stable wire tag.
    pub fn wire_id(self) -> u8 {
        match self {
            Rights::Publish => 1,
            Rights::Subscribe => 2,
        }
    }

    /// Inverse of [`Rights::wire_id`].
    pub fn from_wire_id(tag: u8) -> Result<Self> {
        match tag {
            1 => Ok(Rights::Publish),
            2 => Ok(Rights::Subscribe),
            tag => Err(WireError::UnknownTag {
                what: "Rights",
                tag,
            }),
        }
    }
}

/// Tolerated clock skew on both edges of a token's validity window,
/// at every node that checks one. The paper assumes NTP keeps clocks
/// "within 30-100 milliseconds"; we allow a conservative 100 ms.
pub const CLOCK_SKEW_MS: u64 = 100;

/// Why a token past its validity window is refused.
const EXPIRED: &str = "token past its validity window";

/// A signed delegation token (§4.3).
#[derive(Debug, Clone, PartialEq)]
pub struct AuthorizationToken {
    /// The trace topic the delegation covers.
    pub trace_topic: Uuid,
    /// The randomly generated public key whose private half the
    /// delegate (broker) holds.
    pub delegate_key: RsaPublicKey,
    /// Rights granted to the delegate.
    pub rights: Rights,
    /// Validity window start (ms since epoch).
    pub valid_from_ms: u64,
    /// Validity window end (ms since epoch). Entities keep this
    /// "short enough to correspond to its expected presence within
    /// the system".
    pub valid_until_ms: u64,
    /// Topic-owner signature over the TBS bytes.
    pub signature: Vec<u8>,
}

impl AuthorizationToken {
    /// Mints a token: the topic owner signs the delegation.
    pub fn issue(
        owner: &Credential,
        trace_topic: Uuid,
        delegate_key: RsaPublicKey,
        rights: Rights,
        valid_from_ms: u64,
        valid_until_ms: u64,
    ) -> Result<Self> {
        let mut token = AuthorizationToken {
            trace_topic,
            delegate_key,
            rights,
            valid_from_ms,
            valid_until_ms,
            signature: Vec::new(),
        };
        token.signature = owner
            .private_key
            .sign(DigestAlgorithm::Sha1, &token.tbs_bytes())?;
        instrument::TOKENS_MINTED.inc();
        Ok(token)
    }

    /// Canonical signed content.
    pub fn tbs_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_uuid(&self.trace_topic);
        w.put_bytes(&self.delegate_key.to_bytes());
        w.put_u8(self.rights.wire_id());
        w.put_u64(self.valid_from_ms);
        w.put_u64(self.valid_until_ms);
        w.into_bytes()
    }

    /// Full verification: owner signature, rights, and validity window
    /// (with [`CLOCK_SKEW_MS`] tolerance on both edges).
    pub fn verify(
        &self,
        owner_key: &RsaPublicKey,
        expected_rights: Rights,
        now_ms: u64,
    ) -> Result<()> {
        let outcome = self.verify_inner(owner_key, expected_rights, now_ms);
        match &outcome {
            Ok(()) => instrument::TOKENS_VERIFIED.inc(),
            Err(_) => instrument::TOKENS_REJECTED.inc(),
        }
        outcome
    }

    fn verify_inner(
        &self,
        owner_key: &RsaPublicKey,
        expected_rights: Rights,
        now_ms: u64,
    ) -> Result<()> {
        self.check_window(now_ms, CLOCK_SKEW_MS)?;
        if self.rights != expected_rights {
            return Err(CryptoError::CertificateInvalid("token grants different rights").into());
        }
        owner_key
            .verify(DigestAlgorithm::Sha1, &self.tbs_bytes(), &self.signature)
            .map_err(WireError::Crypto)
    }

    /// §4.3's rule for every node that relays or consumes a trace: the
    /// validity window with [`CLOCK_SKEW_MS`] on both edges and, when the topic
    /// owner's key is known, [`Rights::Publish`] under the owner's
    /// signature ([`AuthorizationToken::verify`]). A transit broker,
    /// which does not know the owner, checks the window alone.
    pub fn admits(&self, owner: Option<&RsaPublicKey>, now_ms: u64) -> Result<()> {
        self.check_window(now_ms, CLOCK_SKEW_MS)?;
        owner.map_or(Ok(()), |key| self.verify(key, Rights::Publish, now_ms))
    }

    /// The one comparison of the validity window: `skew_ms` widens both
    /// edges (inclusive), saturating, so a bound near `u64::MAX` never wraps.
    fn check_window(&self, now_ms: u64, skew_ms: u64) -> Result<()> {
        let why = if now_ms > self.valid_until_ms.saturating_add(skew_ms) {
            EXPIRED
        } else if now_ms.saturating_add(skew_ms) < self.valid_from_ms {
            "token before its validity window"
        } else {
            return Ok(());
        };
        Err(CryptoError::CertificateInvalid(why).into())
    }

    /// Whether the window has lapsed at `now_ms` (no signature check).
    pub fn is_expired(&self, now_ms: u64) -> bool {
        self.check_window(now_ms, 0) == Err(CryptoError::CertificateInvalid(EXPIRED).into())
    }

    /// Whether the token is in its final `fraction` of lifetime —
    /// entities "generate a new token, once a token is closer to
    /// expiration".
    pub fn near_expiry(&self, now_ms: u64, fraction: f64) -> bool {
        let lifetime = self.valid_until_ms.saturating_sub(self.valid_from_ms);
        let elapsed = now_ms.saturating_sub(self.valid_from_ms);
        lifetime == 0 || (elapsed as f64) >= (lifetime as f64) * fraction
    }

    /// Steps `r` over one encoded token without decoding it (the layout
    /// of [`Encode`] below), so the envelope parser can lend the token's
    /// bytes ([`crate::MessageView::token`]) without allocating.
    pub(crate) fn skip(r: &mut Reader<'_>) -> Result<()> {
        r.get_exact(16, "token uuid")?;
        r.get_bytes_ref()?; // delegate key
        r.get_exact(1 + 8 + 8, "token rights/validity")?;
        r.get_bytes_ref()?; // signature
        Ok(())
    }
}

impl Encode for AuthorizationToken {
    fn encode(&self, w: &mut Writer) {
        w.put_uuid(&self.trace_topic);
        w.put_bytes(&self.delegate_key.to_bytes());
        w.put_u8(self.rights.wire_id());
        w.put_u64(self.valid_from_ms);
        w.put_u64(self.valid_until_ms);
        w.put_bytes(&self.signature);
    }
}

impl Decode for AuthorizationToken {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        let trace_topic = r.get_uuid()?;
        let key_bytes = r.get_bytes()?;
        let delegate_key = RsaPublicKey::from_bytes(&key_bytes)?;
        let rights = Rights::from_wire_id(r.get_u8()?)?;
        let valid_from_ms = r.get_u64()?;
        let valid_until_ms = r.get_u64()?;
        let signature = r.get_bytes()?;
        Ok(AuthorizationToken {
            trace_topic,
            delegate_key,
            rights,
            valid_from_ms,
            valid_until_ms,
            signature,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nb_crypto::cert::{CertificateAuthority, Validity};
    use nb_crypto::rsa::RsaKeyPair;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::OnceLock;

    const NOW: u64 = 1_700_000_000_000;

    struct Fixture {
        owner: Credential,
        delegate: RsaKeyPair,
    }

    fn fixture() -> &'static Fixture {
        static FX: OnceLock<Fixture> = OnceLock::new();
        FX.get_or_init(|| {
            let mut rng = StdRng::seed_from_u64(99);
            let mut ca = CertificateAuthority::new(
                "ca",
                512,
                Validity::starting_now(NOW - 1000, 1 << 40),
                &mut rng,
            )
            .unwrap();
            let owner = ca
                .issue(
                    "entity:owner",
                    Validity::starting_now(NOW - 1000, 1 << 40),
                    &mut rng,
                )
                .unwrap();
            let delegate = RsaKeyPair::generate(512, &mut rng).unwrap();
            Fixture { owner, delegate }
        })
    }

    fn token(valid_from: u64, valid_until: u64) -> AuthorizationToken {
        issued(Rights::Publish, valid_from, valid_until)
    }

    fn issued(rights: Rights, valid_from: u64, valid_until: u64) -> AuthorizationToken {
        let fx = fixture();
        let mut rng = StdRng::seed_from_u64(3);
        AuthorizationToken::issue(
            &fx.owner,
            Uuid::new_v4(&mut rng),
            fx.delegate.public.clone(),
            rights,
            valid_from,
            valid_until,
        )
        .unwrap()
    }

    #[test]
    fn valid_token_verifies() {
        let fx = fixture();
        let t = token(NOW - 10_000, NOW + 60_000);
        t.verify(&fx.owner.certificate.public_key, Rights::Publish, NOW)
            .unwrap();
    }

    #[test]
    fn expired_token_rejected() {
        let fx = fixture();
        let t = token(NOW - 60_000, NOW - 1_000);
        assert!(t
            .verify(&fx.owner.certificate.public_key, Rights::Publish, NOW)
            .is_err());
        assert!(t.is_expired(NOW));
    }

    #[test]
    fn skew_tolerance_near_expiry_boundary() {
        let fx = fixture();
        let t = token(NOW - 60_000, NOW - 50);
        // Expired by 50 ms but within the 100 ms NTP skew allowance.
        t.verify(&fx.owner.certificate.public_key, Rights::Publish, NOW)
            .unwrap();
        // Past the allowance it fails.
        let past = NOW - 50 + CLOCK_SKEW_MS + 1;
        assert!(t
            .verify(&fx.owner.certificate.public_key, Rights::Publish, past)
            .is_err());
    }

    #[test]
    fn window_boundary_is_inclusive_at_both_ends() {
        // Cross-layer contract with `Validity::contains` and session
        // keys: acceptance exactly *at* the boundary instants, widened
        // by the skew allowance; `is_expired` takes no allowance.
        let fx = fixture();
        let key = &fx.owner.certificate.public_key;
        let t = token(NOW - 60_000, NOW + 60_000);
        t.verify(key, Rights::Publish, NOW - 60_000 - CLOCK_SKEW_MS)
            .expect("accepted at exactly valid_from_ms - skew");
        t.verify(key, Rights::Publish, NOW + 60_000 + CLOCK_SKEW_MS)
            .expect("accepted at exactly valid_until_ms + skew");
        assert!(!t.is_expired(NOW + 60_000));
        assert!(t.is_expired(NOW + 60_001));
        assert!(t
            .verify(key, Rights::Publish, NOW + 60_001 + CLOCK_SKEW_MS)
            .is_err());
    }

    #[test]
    fn not_yet_valid_token_rejected() {
        let fx = fixture();
        let t = token(NOW + 10_000, NOW + 60_000);
        assert!(t
            .verify(&fx.owner.certificate.public_key, Rights::Publish, NOW)
            .is_err());
    }

    #[test]
    fn wrong_rights_rejected() {
        let fx = fixture();
        let t = token(NOW - 1000, NOW + 60_000);
        assert!(t
            .verify(&fx.owner.certificate.public_key, Rights::Subscribe, NOW)
            .is_err());
    }

    #[test]
    fn forged_signature_rejected() {
        let fx = fixture();
        let mut t = token(NOW - 1000, NOW + 60_000);
        t.signature[10] ^= 0xff;
        assert!(t
            .verify(&fx.owner.certificate.public_key, Rights::Publish, NOW)
            .is_err());
    }

    #[test]
    fn tampered_fields_invalidate_signature() {
        let fx = fixture();
        let mut t = token(NOW - 1000, NOW + 60_000);
        t.valid_until_ms += 1_000_000; // try to extend the delegation
        assert!(t
            .verify(&fx.owner.certificate.public_key, Rights::Publish, NOW)
            .is_err());
    }

    #[test]
    fn wrong_owner_key_rejected() {
        let t = token(NOW - 1000, NOW + 60_000);
        let mut rng = StdRng::seed_from_u64(55);
        let other = RsaKeyPair::generate(512, &mut rng).unwrap();
        assert!(t.verify(&other.public, Rights::Publish, NOW).is_err());
    }

    #[test]
    fn codec_round_trip() {
        let t = token(NOW - 1000, NOW + 60_000);
        let bytes = t.to_bytes();
        assert_eq!(AuthorizationToken::from_bytes(&bytes).unwrap(), t);
    }

    #[test]
    fn near_expiry_detection() {
        let t = token(NOW, NOW + 100_000);
        assert!(!t.near_expiry(NOW + 10_000, 0.8));
        assert!(t.near_expiry(NOW + 85_000, 0.8));
        assert!(t.near_expiry(NOW + 200_000, 0.8));
    }

    #[test]
    fn rights_wire_round_trip() {
        for r in [Rights::Publish, Rights::Subscribe] {
            assert_eq!(Rights::from_wire_id(r.wire_id()).unwrap(), r);
        }
        assert!(Rights::from_wire_id(0).is_err());
    }

    #[test]
    fn admits_table() {
        let owner = &fixture().owner.certificate.public_key;
        let (skew, max) = (CLOCK_SKEW_MS, u64::MAX);
        // (valid_from, valid_until, now, admitted): both edges take the
        // skew and are inclusive; near u64::MAX they saturate, so a
        // window ending within `skew` of the maximum never expires.
        for (from, until, now, admitted) in [
            (NOW, NOW + 60_000, NOW - skew - 1, false),
            (NOW, NOW + 60_000, NOW - skew, true),
            (NOW, NOW + 60_000, NOW + 60_000 + skew, true),
            (NOW, NOW + 60_000, NOW + 60_001 + skew, false),
            (max - 10_000, max - skew - 1, max - 1, true),
            (max - 10_000, max - skew - 1, max, false),
            (max - 10, max, max - 10 - skew - 1, false),
            (max - 10, max, max - 10 - skew, true),
            (max - 10, max, max, true),
        ] {
            let t = token(from, until);
            for key in [None, Some(owner)] {
                let got = t.admits(key, now).is_ok();
                assert_eq!(
                    got,
                    admitted,
                    "{from}..{until} at {now}, owner known: {}",
                    key.is_some()
                );
            }
        }
        // Owner unknown (a transit broker): the window alone, so an
        // in-window Subscribe token or forged signature passes. Owner
        // known: Publish rights under the owner's signature.
        let subscribe = issued(Rights::Subscribe, NOW - 1000, NOW + 60_000);
        let mut forged = token(NOW - 1000, NOW + 60_000);
        forged.signature[10] ^= 0xff;
        for t in [&subscribe, &forged] {
            t.admits(None, NOW).unwrap();
            assert!(t.admits(Some(owner), NOW).is_err());
        }
        let other = RsaKeyPair::generate(512, &mut StdRng::seed_from_u64(56)).unwrap();
        let valid = token(NOW - 1000, NOW + 60_000);
        assert!(valid.admits(Some(&other.public), NOW).is_err());
        valid.admits(Some(owner), NOW).unwrap();
    }
}

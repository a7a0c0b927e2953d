//! Property-based tests for the session-key layer's wire surface:
//! the `SessionTag` trailing-section codec, rejection of
//! truncated/tampered tags, and the full RSA-sealed handshake (mint → sign+seal →
//! announce → open → install → tag → verify).

use nb_crypto::aes::KeySize;
use nb_crypto::cert::{CertificateAuthority, Validity};
use nb_crypto::session::{SessionKey, SessionKeyring, SessionVerdict};
use nb_crypto::{SealedEnvelope, Uuid};
use nb_wire::codec::{Decode, Encode};
use nb_wire::message::{Message, SessionTag, SESSION_TAG_LEN, SESSION_TAG_MAC_LEN};
use nb_wire::topic::Topic;
use nb_wire::{MessageView, Payload};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::OnceLock;

const NOW: u64 = 1_700_000_000_000;

fn arb_tag() -> impl Strategy<Value = SessionTag> {
    (
        any::<u64>(),
        any::<u64>(),
        proptest::array::uniform32(any::<u8>()),
    )
        .prop_map(|(key_id, seq, mac)| SessionTag { key_id, seq, mac })
}

fn sample_message(tag: SessionTag) -> Message {
    Message::new(
        11,
        Topic::parse("/Constrained/Traces/Session/Publish-Only/props").unwrap(),
        "entity:session-props",
        NOW,
        Payload::Blob {
            data: vec![1, 2, 3],
        },
    )
    .with_session(tag)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The section body codec is the identity for any tag.
    #[test]
    fn section_codec_round_trip(tag in arb_tag()) {
        let body = tag.to_section_bytes();
        prop_assert_eq!(body.len(), SESSION_TAG_LEN);
        prop_assert_eq!(SessionTag::from_section_bytes(&body).unwrap(), tag);
    }

    /// A session-tagged envelope round-trips through both the owned
    /// decoder and the zero-copy view, and the signable region is
    /// untouched by the tag (it lives in the trailing sections).
    #[test]
    fn tagged_envelope_round_trip(tag in arb_tag()) {
        let m = sample_message(tag);
        let bytes = m.to_bytes();
        let back = Message::from_bytes(&bytes).unwrap();
        prop_assert_eq!(&back, &m);
        prop_assert_eq!(back.session, Some(tag));
        let v = MessageView::parse(&bytes).unwrap();
        prop_assert_eq!(v.session, Some(tag));
        // The view's signable parts concatenate to the owned
        // signable bytes — the zero-copy MAC contract.
        let [head, payload] = v.signable_parts();
        let mut concat = head.to_vec();
        concat.extend_from_slice(payload);
        prop_assert_eq!(concat, m.signable_bytes());

        // Stripping the tag leaves the signable region bit-identical:
        // a v2-era peer that drops the unknown section cannot break
        // end-to-end authentication.
        let mut stripped = m.clone();
        stripped.session = None;
        prop_assert_eq!(stripped.signable_bytes(), m.signable_bytes());
    }

    /// Truncating the section body anywhere is rejected; flipping any
    /// bit of the body yields either a decode error (never a panic) or
    /// a tag that differs from the original.
    #[test]
    fn truncated_or_tampered_tag_never_passes(
        tag in arb_tag(),
        cut in 0usize..SESSION_TAG_LEN,
        flip_at in 0usize..SESSION_TAG_LEN,
        flip_bit in 0u8..8,
    ) {
        let body = tag.to_section_bytes();
        prop_assert!(SessionTag::from_section_bytes(&body[..cut]).is_err());

        let mut tampered = body.clone();
        tampered[flip_at] ^= 1 << flip_bit;
        let back = SessionTag::from_section_bytes(&tampered).unwrap();
        prop_assert_ne!(back, tag);
    }
}

/// Shared handshake fixture: a CA, an entity credential (the signer)
/// and a broker keypair (the seal recipient). 512-bit keys keep the
/// proptest iterations fast.
struct Fixture {
    entity: nb_crypto::cert::Credential,
    broker: nb_crypto::cert::Credential,
}

fn fixture() -> &'static Fixture {
    static FX: OnceLock<Fixture> = OnceLock::new();
    FX.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(0x5e55);
        let validity = Validity::starting_now(NOW - 1000, 1 << 40);
        let mut ca = CertificateAuthority::new("ca", 512, validity, &mut rng).unwrap();
        let entity = ca.issue("entity:handshake", validity, &mut rng).unwrap();
        let broker = ca.issue("broker:handshake", validity, &mut rng).unwrap();
        Fixture { entity, broker }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The full handshake: the entity mints a key, seals it to the
    /// broker inside a signed `SessionKeyAnnounce`; the broker
    /// verifies the signature, opens the envelope, installs the key,
    /// and can then verify tags the entity issues — while a tampered
    /// announce or a tag under a different message is rejected.
    #[test]
    fn handshake_establishes_a_verifiable_session(
        seed in any::<u64>(),
        lifetime_ms in 1u64..1 << 40,
        max_messages in 1u64..64,
        body in proptest::collection::vec(any::<u8>(), 0..128),
    ) {
        let fx = fixture();
        let mut rng = StdRng::seed_from_u64(seed);
        let broker_key = &fx.broker;
        let topic_id = Uuid::new_v4(&mut rng);
        let key = SessionKey::mint(topic_id, NOW, lifetime_ms, max_messages, &mut rng);

        // Entity side: seal + sign the announce.
        let sealed = SealedEnvelope::seal(
            &broker_key.certificate.public_key,
            &key.to_bytes(),
            KeySize::Aes192,
            &mut rng,
        )
        .unwrap();
        let mut announce = Message::new(
            1,
            Topic::parse("/Constrained/Traces/Session/Publish-Only/hs").unwrap(),
            "entity:handshake",
            NOW,
            Payload::SessionKeyAnnounce { sealed },
        );
        announce.sign(&fx.entity).unwrap();

        // Broker side: decode, verify the RSA signature, open, install.
        let decoded = Message::from_bytes(&announce.to_bytes()).unwrap();
        decoded
            .verify_signature(&fx.entity.certificate.public_key)
            .unwrap();
        let Payload::SessionKeyAnnounce { sealed } = &decoded.payload else {
            panic!("payload variant survived the codec");
        };
        let opened = sealed.open(&broker_key.private_key).unwrap();
        let installed = SessionKey::from_bytes(&opened).unwrap();
        prop_assert_eq!(&installed, &key);
        let ring = SessionKeyring::new();
        ring.install(installed);

        // Entity tags a frame; the broker verifies it zero-copy.
        let (seq, mac) = ring.tag(key.key_id, NOW, &[&body]).unwrap();
        prop_assert_eq!(
            ring.verify(key.key_id, seq, Some(&topic_id), NOW, &[&body], &mac),
            SessionVerdict::Verified
        );
        // Tampered body fails; wrong key id is unknown.
        let mut tampered = body.clone();
        tampered.push(0xff);
        prop_assert_eq!(
            ring.verify(key.key_id, seq, Some(&topic_id), NOW, &[&tampered], &mac),
            SessionVerdict::BadMac
        );
        prop_assert_eq!(
            ring.verify(key.key_id ^ 1, seq, Some(&topic_id), NOW, &[&body], &mac),
            SessionVerdict::UnknownKey
        );
    }

    /// A tampered sealed envelope never yields the minted key: either
    /// opening fails outright or the recovered bytes do not parse to
    /// the original key.
    #[test]
    fn tampered_announce_never_installs_the_key(
        seed in any::<u64>(),
        corrupt_at in any::<usize>(),
    ) {
        let fx = fixture();
        let mut rng = StdRng::seed_from_u64(seed);
        let broker_key = &fx.broker;
        let key = SessionKey::mint(Uuid::new_v4(&mut rng), NOW, 60_000, 8, &mut rng);
        let mut sealed = SealedEnvelope::seal(
            &broker_key.certificate.public_key,
            &key.to_bytes(),
            KeySize::Aes192,
            &mut rng,
        )
        .unwrap();
        let at = corrupt_at % sealed.ciphertext.len();
        sealed.ciphertext[at] ^= 0x01;
        match sealed.open(&broker_key.private_key) {
            Err(_) => {}
            Ok(bytes) => match SessionKey::from_bytes(&bytes) {
                Err(_) => {}
                Ok(recovered) => prop_assert_ne!(recovered, key),
            },
        }
    }
}

#[test]
fn mac_len_matches_crypto_layer() {
    assert_eq!(SESSION_TAG_MAC_LEN, nb_crypto::SESSION_MAC_LEN);
}

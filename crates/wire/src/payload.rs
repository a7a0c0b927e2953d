//! Protocol payloads: registration (§3.2), broker operations (§3.3),
//! interest gauging (§3.5), key distribution (§5.1), and the §6.3
//! symmetric-key optimization; plus the signed topic advertisement
//! (§3.1) that registration carries. Topic creation and discovery are
//! in-process calls to a TDN, so they have no payloads.

use crate::codec::{Decode, Encode, Reader, Writer};
use crate::error::WireError;
use crate::topic::Topic;
use crate::trace::{EntityState, LoadInformation, TraceCategory, TraceEvent};
use crate::Result;
use nb_crypto::aes::KeySize;
use nb_crypto::cert::Certificate;
use nb_crypto::hybrid::SealedEnvelope;
use nb_crypto::modes::CipherMode;
use nb_crypto::Uuid;

/// Who may discover a topic advertisement (§3.1 "discovery
/// restrictions").
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiscoveryRestrictions {
    /// Anyone presenting a valid certificate may discover the topic.
    Open,
    /// Only the listed certificate subjects may discover the topic.
    AllowedSubjects(Vec<String>),
    /// Only certificates with the listed fingerprints may discover it.
    AllowedFingerprints(Vec<[u8; 32]>),
}

impl DiscoveryRestrictions {
    /// Whether `cert` satisfies the restriction.
    pub fn permits(&self, cert: &Certificate) -> bool {
        match self {
            DiscoveryRestrictions::Open => true,
            DiscoveryRestrictions::AllowedSubjects(subjects) => {
                subjects.iter().any(|s| s == &cert.subject)
            }
            DiscoveryRestrictions::AllowedFingerprints(fps) => {
                let fp = cert.fingerprint();
                fps.iter().any(|f| f == &fp)
            }
        }
    }
}

impl Encode for DiscoveryRestrictions {
    fn encode(&self, w: &mut Writer) {
        match self {
            DiscoveryRestrictions::Open => w.put_u8(1),
            DiscoveryRestrictions::AllowedSubjects(subjects) => {
                w.put_u8(2);
                w.put_seq(subjects, |w, s| w.put_str(s));
            }
            DiscoveryRestrictions::AllowedFingerprints(fps) => {
                w.put_u8(3);
                w.put_seq(fps, |w, fp| w.put_bytes(fp));
            }
        }
    }
}

impl Decode for DiscoveryRestrictions {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        match r.get_u8()? {
            1 => Ok(DiscoveryRestrictions::Open),
            2 => Ok(DiscoveryRestrictions::AllowedSubjects(
                r.get_seq(|r| r.get_str())?,
            )),
            3 => Ok(DiscoveryRestrictions::AllowedFingerprints(r.get_seq(
                |r| {
                    let bytes = r.get_bytes()?;
                    bytes
                        .try_into()
                        .map_err(|_| WireError::Truncated("fingerprint"))
                },
            )?)),
            tag => Err(WireError::UnknownTag {
                what: "DiscoveryRestrictions",
                tag,
            }),
        }
    }
}

/// A cryptographically signed topic advertisement, created by a TDN
/// upon a topic-creation request (§3.1). Stored at multiple TDNs and
/// routed back to the traced entity; it "establishes the ownership of
/// the topic".
#[derive(Debug, Clone, PartialEq)]
pub struct TopicAdvertisement {
    /// The TDN-generated 128-bit trace topic.
    pub topic_id: Uuid,
    /// Query-matching descriptor, e.g. `Availability/Traces/{entity}`.
    pub descriptor: String,
    /// The owner's credentials (establishes provenance).
    pub owner_cert: Certificate,
    /// Who may discover this advertisement.
    pub restrictions: DiscoveryRestrictions,
    /// TDN creation timestamp (ms since epoch).
    pub created_ms: u64,
    /// Advertisement lifetime in ms (0 = unbounded).
    pub lifetime_ms: u64,
    /// Identifier of the issuing TDN.
    pub tdn_id: String,
    /// TDN signature over the TBS bytes.
    pub signature: Vec<u8>,
}

impl TopicAdvertisement {
    /// The signed content.
    pub fn tbs_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_uuid(&self.topic_id);
        w.put_str(&self.descriptor);
        w.put_bytes(&self.owner_cert.to_bytes());
        self.restrictions.encode(&mut w);
        w.put_u64(self.created_ms);
        w.put_u64(self.lifetime_ms);
        w.put_str(&self.tdn_id);
        w.into_bytes()
    }

    /// Whether the advertisement has lapsed at `now_ms`.
    pub fn is_expired(&self, now_ms: u64) -> bool {
        self.lifetime_ms != 0 && now_ms > self.created_ms.saturating_add(self.lifetime_ms)
    }

    /// Verifies the TDN signature.
    pub fn verify(&self, tdn_key: &nb_crypto::rsa::RsaPublicKey) -> Result<()> {
        tdn_key
            .verify(
                nb_crypto::DigestAlgorithm::Sha256,
                &self.tbs_bytes(),
                &self.signature,
            )
            .map_err(WireError::Crypto)
    }
}

impl Encode for TopicAdvertisement {
    fn encode(&self, w: &mut Writer) {
        w.put_uuid(&self.topic_id);
        w.put_str(&self.descriptor);
        w.put_bytes(&self.owner_cert.to_bytes());
        self.restrictions.encode(w);
        w.put_u64(self.created_ms);
        w.put_u64(self.lifetime_ms);
        w.put_str(&self.tdn_id);
        w.put_bytes(&self.signature);
    }
}

impl Decode for TopicAdvertisement {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok(TopicAdvertisement {
            topic_id: r.get_uuid()?,
            descriptor: r.get_str()?,
            owner_cert: Certificate::from_bytes(&r.get_bytes()?)?,
            restrictions: DiscoveryRestrictions::decode(r)?,
            created_ms: r.get_u64()?,
            lifetime_ms: r.get_u64()?,
            tdn_id: r.get_str()?,
            signature: r.get_bytes()?,
        })
    }
}

fn put_sealed(w: &mut Writer, env: &SealedEnvelope) {
    w.put_bytes(&env.encrypted_key);
    w.put_bytes(&env.iv);
    w.put_bytes(&env.ciphertext);
    w.put_u8(key_size_id(env.key_size));
    w.put_u8(env.mode.wire_id());
}

fn get_sealed(r: &mut Reader<'_>) -> Result<SealedEnvelope> {
    let encrypted_key = r.get_bytes()?;
    let iv: [u8; 16] = r
        .get_bytes()?
        .try_into()
        .map_err(|_| WireError::Truncated("sealed iv"))?;
    let ciphertext = r.get_bytes()?;
    let key_size = key_size_from_id(r.get_u8()?)?;
    let mode = CipherMode::from_wire_id(r.get_u8()?)?;
    Ok(SealedEnvelope {
        encrypted_key,
        iv,
        ciphertext,
        key_size,
        mode,
    })
}

fn key_size_id(ks: KeySize) -> u8 {
    match ks {
        KeySize::Aes128 => 1,
        KeySize::Aes192 => 2,
        KeySize::Aes256 => 3,
    }
}

fn key_size_from_id(tag: u8) -> Result<KeySize> {
    match tag {
        1 => Ok(KeySize::Aes128),
        2 => Ok(KeySize::Aes192),
        3 => Ok(KeySize::Aes256),
        tag => Err(WireError::UnknownTag {
            what: "KeySize",
            tag,
        }),
    }
}

/// The contents of a sealed registration response (§3.2): request id
/// correlation plus the broker-generated session identifier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionGrant {
    /// Echoes the registration request id.
    pub request_id: u64,
    /// The newly generated session identifier.
    pub session_id: Uuid,
}

impl Encode for SessionGrant {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.request_id);
        w.put_uuid(&self.session_id);
    }
}

impl Decode for SessionGrant {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok(SessionGrant {
            request_id: r.get_u64()?,
            session_id: r.get_uuid()?,
        })
    }
}

/// The contents of a sealed trace-key delivery (§5.1): "the secret
/// trace key, the encryption algorithm and the padding scheme".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceKeyMaterial {
    /// The secret symmetric trace key.
    pub key: Vec<u8>,
    /// Key size / algorithm selector.
    pub key_size_id: u8,
    /// Cipher mode selector.
    pub mode_id: u8,
    /// Padding scheme label (PKCS#7 here).
    pub padding: String,
}

impl TraceKeyMaterial {
    /// Material for a 192-bit AES key with an explicit mode — the
    /// §5.1 negotiation of "the encryption algorithm and padding
    /// scheme" (padding only applies to CBC; CTR needs none).
    pub fn aes192(key: Vec<u8>, mode: CipherMode) -> Self {
        TraceKeyMaterial {
            key,
            key_size_id: key_size_id(KeySize::Aes192),
            mode_id: mode.wire_id(),
            padding: match mode {
                CipherMode::Cbc => "PKCS7".to_string(),
                CipherMode::Ctr => "NONE".to_string(),
            },
        }
    }

    /// The negotiated cipher mode.
    pub fn mode(&self) -> Result<CipherMode> {
        CipherMode::from_wire_id(self.mode_id).map_err(WireError::Crypto)
    }
}

impl Encode for TraceKeyMaterial {
    fn encode(&self, w: &mut Writer) {
        w.put_bytes(&self.key);
        w.put_u8(self.key_size_id);
        w.put_u8(self.mode_id);
        w.put_str(&self.padding);
    }
}

impl Decode for TraceKeyMaterial {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok(TraceKeyMaterial {
            key: r.get_bytes()?,
            key_size_id: r.get_u8()?,
            mode_id: r.get_u8()?,
            padding: r.get_str()?,
        })
    }
}

/// All message bodies exchanged in the system.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    // ----- broker/client control plane -----
    /// Client attaches to a broker.
    Attach {
        /// Client identifier.
        client_id: String,
    },
    /// Register a subscription filter.
    Subscribe {
        /// The topic filter to subscribe to.
        filter: Topic,
    },
    /// Remove a subscription filter.
    Unsubscribe {
        /// The previously registered filter.
        filter: Topic,
    },
    /// Positive acknowledgement of a control request.
    Ack,
    /// Negative acknowledgement with a reason.
    Nack {
        /// Why the request was refused.
        reason: String,
    },

    // ----- trace registration (§3.2) -----
    /// Entity → broker: request tracing (published on the registration
    /// constrained topic; the envelope must be signed).
    TraceRegistration {
        /// The entity's identifier.
        entity_id: String,
        /// The entity's credentials.
        credentials: Certificate,
        /// The trace-topic advertisement (provenance), boxed: it is
        /// more than twice the size of any other variant.
        advertisement: Box<TopicAdvertisement>,
    },
    /// Broker → entity: success, sealed to the entity's public key.
    RegistrationAccepted {
        /// Sealed [`SessionGrant`].
        sealed: SealedEnvelope,
    },
    /// Broker → entity: verification failed.
    RegistrationRejected {
        /// Why registration was refused.
        reason: String,
    },

    // ----- broker operations (§3.3) -----
    /// Broker → entity: ping probe with monotone number + timestamp.
    Ping {
        /// Monotonically increasing ping number.
        seq: u64,
        /// Broker send timestamp (ms).
        sent_at_ms: u64,
    },
    /// Entity → broker: echo of the ping.
    PingResponse {
        /// Echoed ping number.
        seq: u64,
        /// Echoed broker timestamp.
        echo_sent_at_ms: u64,
        /// The entity's current lifecycle state.
        state: EntityState,
    },
    /// Entity → broker: lifecycle state change notification.
    StateReport {
        /// Previous state, if any.
        from: Option<EntityState>,
        /// New state.
        to: EntityState,
    },
    /// Entity → broker: host load change report.
    LoadReport {
        /// The load measurements.
        load: LoadInformation,
    },
    /// Entity → broker: stop tracing me (REVERTING_TO_SILENT_MODE).
    SilentModeRequest,

    // ----- trace publication -----
    /// A plaintext trace event.
    Trace {
        /// The event.
        event: TraceEvent,
    },
    /// An AES-encrypted trace event (confidential tracing, §5.1).
    EncryptedTrace {
        /// CBC initialization vector.
        iv: [u8; 16],
        /// Ciphertext of the encoded [`TraceEvent`].
        ciphertext: Vec<u8>,
    },

    // ----- interest gauging (§3.5) & key distribution (§5.1) -----
    /// Broker → trackers: is anyone interested in this entity?
    GaugeInterestRequest {
        /// Set when traces will be encrypted; trackers must respond
        /// with credentials to receive the trace key.
        secured: bool,
    },
    /// Tracker → broker: interest registration.
    InterestResponse {
        /// The tracker's credentials.
        credentials: Certificate,
        /// Categories the tracker wants (any combination).
        interests: Vec<TraceCategory>,
        /// Topic on which the tracker expects the key delivery.
        reply_topic: Topic,
    },
    /// Broker → tracker: sealed [`TraceKeyMaterial`].
    TraceKeyDelivery {
        /// Sealed to the tracker's public key.
        sealed: SealedEnvelope,
    },

    // ----- §6.3 signing-cost optimization -----
    /// Entity → broker: sealed symmetric session key replacing
    /// per-message RSA signatures.
    SymmetricKeySetup {
        /// Sealed to the broker's public key.
        sealed: SealedEnvelope,
    },

    /// Entity → broker: the delegation token the broker must attach
    /// to every trace it publishes for this entity (§4.3).
    DelegationToken {
        /// The freshly minted token.
        token: crate::token::AuthorizationToken,
    },

    // ----- session-key layer (amortized RSA) -----
    /// Entity → engine: a freshly minted session key
    /// (`nb_crypto::session::SessionKey` bytes), sealed to the hosting
    /// broker's public key. Must arrive RSA-signed — this is the
    /// asymmetric half of the handshake that every later session tag
    /// amortizes.
    SessionKeyAnnounce {
        /// Sealed to the broker's public key.
        sealed: SealedEnvelope,
    },
    /// Engine → tracker: the entity's current session key, sealed to
    /// the tracker's public key and delivered on its reply topic
    /// (mirrors [`Payload::TraceKeyDelivery`]).
    SessionKeyDelivery {
        /// Sealed to the tracker's public key.
        sealed: SealedEnvelope,
    },
    /// Engine → trackers / audit topic: a session key is no longer
    /// acceptable. On the trace topic it is tagged under the retiring
    /// key; on the audit topic it is RSA-signed.
    SessionKeyRevoke {
        /// The revoked key id.
        key_id: u64,
        /// The trace topic the key was bound to.
        topic: Uuid,
    },

    // ----- inter-broker control plane -----
    /// Broker → broker: link identification.
    NeighborHello {
        /// The neighbouring broker's identifier.
        broker_id: String,
    },
    /// Broker → broker: interest advertisement (subscription
    /// propagation).
    NeighborSubscribe {
        /// The filter now of interest behind this link.
        filter: Topic,
    },
    /// Broker → broker: interest withdrawal.
    NeighborUnsubscribe {
        /// The filter no longer of interest.
        filter: Topic,
    },

    /// Opaque bytes (benchmarks and tests).
    Blob {
        /// Arbitrary payload bytes.
        data: Vec<u8>,
    },
}

/// Whether a payload tag byte (read straight off the wire, see
/// [`crate::view::MessageView`]) is client session control a broker's
/// client worker dispatches itself: Attach, Subscribe, Unsubscribe.
/// Every other payload from a client is routed as data.
pub fn is_client_control_tag(tag: u8) -> bool {
    matches!(tag, 1..=3)
}

/// Whether a payload tag byte is the inter-broker handshake a broker's
/// neighbour worker dispatches itself: NeighborHello,
/// NeighborSubscribe, NeighborUnsubscribe. Every other payload from a
/// neighbour is routed as data.
pub fn is_neighbor_control_tag(tag: u8) -> bool {
    matches!(tag, 70..=72)
}

impl Encode for Payload {
    fn encode(&self, w: &mut Writer) {
        match self {
            Payload::Attach { client_id } => {
                w.put_u8(1);
                w.put_str(client_id);
            }
            Payload::Subscribe { filter } => {
                w.put_u8(2);
                filter.encode(w);
            }
            Payload::Unsubscribe { filter } => {
                w.put_u8(3);
                filter.encode(w);
            }
            Payload::Ack => w.put_u8(4),
            Payload::Nack { reason } => {
                w.put_u8(5);
                w.put_str(reason);
            }
            Payload::TraceRegistration {
                entity_id,
                credentials,
                advertisement,
            } => {
                w.put_u8(20);
                w.put_str(entity_id);
                w.put_bytes(&credentials.to_bytes());
                advertisement.encode(w);
            }
            Payload::RegistrationAccepted { sealed } => {
                w.put_u8(21);
                put_sealed(w, sealed);
            }
            Payload::RegistrationRejected { reason } => {
                w.put_u8(22);
                w.put_str(reason);
            }
            Payload::Ping { seq, sent_at_ms } => {
                w.put_u8(30);
                w.put_u64(*seq);
                w.put_u64(*sent_at_ms);
            }
            Payload::PingResponse {
                seq,
                echo_sent_at_ms,
                state,
            } => {
                w.put_u8(31);
                w.put_u64(*seq);
                w.put_u64(*echo_sent_at_ms);
                w.put_u8(state.wire_id());
            }
            Payload::StateReport { from, to } => {
                w.put_u8(32);
                w.put_option(from, |w, s| w.put_u8(s.wire_id()));
                w.put_u8(to.wire_id());
            }
            Payload::LoadReport { load } => {
                w.put_u8(33);
                load.encode(w);
            }
            Payload::SilentModeRequest => w.put_u8(34),
            Payload::Trace { event } => {
                w.put_u8(40);
                event.encode(w);
            }
            Payload::EncryptedTrace { iv, ciphertext } => {
                w.put_u8(41);
                w.put_bytes(iv);
                w.put_bytes(ciphertext);
            }
            Payload::GaugeInterestRequest { secured } => {
                w.put_u8(50);
                w.put_bool(*secured);
            }
            Payload::InterestResponse {
                credentials,
                interests,
                reply_topic,
            } => {
                w.put_u8(51);
                w.put_bytes(&credentials.to_bytes());
                w.put_seq(interests, |w, c| w.put_u8(c.wire_id()));
                reply_topic.encode(w);
            }
            Payload::TraceKeyDelivery { sealed } => {
                w.put_u8(52);
                put_sealed(w, sealed);
            }
            Payload::SymmetricKeySetup { sealed } => {
                w.put_u8(60);
                put_sealed(w, sealed);
            }
            Payload::SessionKeyAnnounce { sealed } => {
                w.put_u8(63);
                put_sealed(w, sealed);
            }
            Payload::SessionKeyDelivery { sealed } => {
                w.put_u8(64);
                put_sealed(w, sealed);
            }
            Payload::SessionKeyRevoke { key_id, topic } => {
                w.put_u8(65);
                w.put_u64(*key_id);
                w.put_uuid(topic);
            }
            Payload::DelegationToken { token } => {
                w.put_u8(62);
                token.encode(w);
            }
            Payload::NeighborHello { broker_id } => {
                w.put_u8(70);
                w.put_str(broker_id);
            }
            Payload::NeighborSubscribe { filter } => {
                w.put_u8(71);
                filter.encode(w);
            }
            Payload::NeighborUnsubscribe { filter } => {
                w.put_u8(72);
                filter.encode(w);
            }
            Payload::Blob { data } => {
                w.put_u8(200);
                w.put_bytes(data);
            }
        }
    }
}

impl Decode for Payload {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        match r.get_u8()? {
            1 => Ok(Payload::Attach {
                client_id: r.get_str()?,
            }),
            2 => Ok(Payload::Subscribe {
                filter: Topic::decode(r)?,
            }),
            3 => Ok(Payload::Unsubscribe {
                filter: Topic::decode(r)?,
            }),
            4 => Ok(Payload::Ack),
            5 => Ok(Payload::Nack {
                reason: r.get_str()?,
            }),
            20 => Ok(Payload::TraceRegistration {
                entity_id: r.get_str()?,
                credentials: Certificate::from_bytes(&r.get_bytes()?)?,
                advertisement: Box::new(TopicAdvertisement::decode(r)?),
            }),
            21 => Ok(Payload::RegistrationAccepted {
                sealed: get_sealed(r)?,
            }),
            22 => Ok(Payload::RegistrationRejected {
                reason: r.get_str()?,
            }),
            30 => Ok(Payload::Ping {
                seq: r.get_u64()?,
                sent_at_ms: r.get_u64()?,
            }),
            31 => Ok(Payload::PingResponse {
                seq: r.get_u64()?,
                echo_sent_at_ms: r.get_u64()?,
                state: EntityState::from_wire_id(r.get_u8()?)?,
            }),
            32 => Ok(Payload::StateReport {
                from: r.get_option(|r| EntityState::from_wire_id(r.get_u8()?))?,
                to: EntityState::from_wire_id(r.get_u8()?)?,
            }),
            33 => Ok(Payload::LoadReport {
                load: LoadInformation::decode(r)?,
            }),
            34 => Ok(Payload::SilentModeRequest),
            40 => Ok(Payload::Trace {
                event: TraceEvent::decode(r)?,
            }),
            41 => Ok(Payload::EncryptedTrace {
                iv: r
                    .get_bytes()?
                    .try_into()
                    .map_err(|_| WireError::Truncated("trace iv"))?,
                ciphertext: r.get_bytes()?,
            }),
            50 => Ok(Payload::GaugeInterestRequest {
                secured: r.get_bool()?,
            }),
            51 => Ok(Payload::InterestResponse {
                credentials: Certificate::from_bytes(&r.get_bytes()?)?,
                interests: r.get_seq(|r| TraceCategory::from_wire_id(r.get_u8()?))?,
                reply_topic: Topic::decode(r)?,
            }),
            52 => Ok(Payload::TraceKeyDelivery {
                sealed: get_sealed(r)?,
            }),
            60 => Ok(Payload::SymmetricKeySetup {
                sealed: get_sealed(r)?,
            }),
            62 => Ok(Payload::DelegationToken {
                token: crate::token::AuthorizationToken::decode(r)?,
            }),
            63 => Ok(Payload::SessionKeyAnnounce {
                sealed: get_sealed(r)?,
            }),
            64 => Ok(Payload::SessionKeyDelivery {
                sealed: get_sealed(r)?,
            }),
            65 => Ok(Payload::SessionKeyRevoke {
                key_id: r.get_u64()?,
                topic: r.get_uuid()?,
            }),
            70 => Ok(Payload::NeighborHello {
                broker_id: r.get_str()?,
            }),
            71 => Ok(Payload::NeighborSubscribe {
                filter: Topic::decode(r)?,
            }),
            72 => Ok(Payload::NeighborUnsubscribe {
                filter: Topic::decode(r)?,
            }),
            200 => Ok(Payload::Blob {
                data: r.get_bytes()?,
            }),
            tag => Err(WireError::UnknownTag {
                what: "Payload",
                tag,
            }),
        }
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

    fn cert() -> &'static Certificate {
        static CERT: OnceLock<Certificate> = OnceLock::new();
        CERT.get_or_init(|| {
            let mut rng = StdRng::seed_from_u64(11);
            let mut ca = CertificateAuthority::new(
                "ca",
                512,
                Validity::starting_now(NOW, 1 << 40),
                &mut rng,
            )
            .unwrap();
            ca.issue(
                "entity:payload-test",
                Validity::starting_now(NOW, 1 << 40),
                &mut rng,
            )
            .unwrap()
            .certificate
        })
    }

    fn advertisement() -> TopicAdvertisement {
        let mut rng = StdRng::seed_from_u64(12);
        TopicAdvertisement {
            topic_id: Uuid::new_v4(&mut rng),
            descriptor: "Availability/Traces/entity-1".to_string(),
            owner_cert: cert().clone(),
            restrictions: DiscoveryRestrictions::AllowedSubjects(vec!["tracker:ops".to_string()]),
            created_ms: NOW,
            lifetime_ms: 3_600_000,
            tdn_id: "tdn-0".to_string(),
            signature: vec![1, 2, 3],
        }
    }

    fn round_trip(p: Payload) {
        let bytes = p.to_bytes();
        assert_eq!(Payload::from_bytes(&bytes).unwrap(), p);
    }

    #[test]
    fn control_payloads_round_trip() {
        round_trip(Payload::Attach {
            client_id: "client-7".to_string(),
        });
        round_trip(Payload::Subscribe {
            filter: Topic::parse("/A/B/#").unwrap(),
        });
        round_trip(Payload::Unsubscribe {
            filter: Topic::parse("/A/B").unwrap(),
        });
        round_trip(Payload::Ack);
        round_trip(Payload::Nack {
            reason: "constrained topic".to_string(),
        });
    }

    #[test]
    fn registration_payloads_round_trip() {
        round_trip(Payload::TraceRegistration {
            entity_id: "entity-1".to_string(),
            credentials: cert().clone(),
            advertisement: Box::new(advertisement()),
        });
        round_trip(Payload::RegistrationRejected {
            reason: "bad signature".to_string(),
        });
    }

    #[test]
    fn sealed_payloads_round_trip() {
        let sealed = SealedEnvelope {
            encrypted_key: vec![9; 64],
            iv: [7; 16],
            ciphertext: vec![1, 2, 3, 4],
            key_size: KeySize::Aes192,
            mode: CipherMode::Cbc,
        };
        round_trip(Payload::RegistrationAccepted {
            sealed: sealed.clone(),
        });
        round_trip(Payload::TraceKeyDelivery {
            sealed: sealed.clone(),
        });
        round_trip(Payload::SymmetricKeySetup {
            sealed: sealed.clone(),
        });
        round_trip(Payload::SessionKeyAnnounce {
            sealed: sealed.clone(),
        });
        round_trip(Payload::SessionKeyDelivery { sealed });
        round_trip(Payload::SessionKeyRevoke {
            key_id: 0xdead_beef_1234_5678,
            topic: Uuid::from_bytes([3; 16]),
        });
    }

    #[test]
    fn operational_payloads_round_trip() {
        round_trip(Payload::Ping {
            seq: 9,
            sent_at_ms: NOW,
        });
        round_trip(Payload::PingResponse {
            seq: 9,
            echo_sent_at_ms: NOW,
            state: EntityState::Ready,
        });
        round_trip(Payload::StateReport {
            from: Some(EntityState::Initializing),
            to: EntityState::Ready,
        });
        round_trip(Payload::LoadReport {
            load: LoadInformation {
                cpu_percent: 55.0,
                memory_used_bytes: 123,
                memory_total_bytes: 456,
                workload: 7,
            },
        });
        round_trip(Payload::SilentModeRequest);
        round_trip(Payload::GaugeInterestRequest { secured: true });
        round_trip(Payload::InterestResponse {
            credentials: cert().clone(),
            interests: vec![TraceCategory::ChangeNotifications, TraceCategory::Load],
            reply_topic: Topic::parse("/replies/tracker-1").unwrap(),
        });
        round_trip(Payload::EncryptedTrace {
            iv: [3; 16],
            ciphertext: vec![0xaa; 48],
        });
        round_trip(Payload::Blob {
            data: vec![1, 2, 3],
        });
    }

    #[test]
    fn unknown_tag_rejected() {
        assert!(matches!(
            Payload::from_bytes(&[99]),
            Err(WireError::UnknownTag { .. })
        ));
    }

    #[test]
    fn restrictions_permit_logic() {
        let c = cert();
        assert!(DiscoveryRestrictions::Open.permits(c));
        assert!(
            DiscoveryRestrictions::AllowedSubjects(vec!["entity:payload-test".to_string()])
                .permits(c)
        );
        assert!(!DiscoveryRestrictions::AllowedSubjects(vec!["other".to_string()]).permits(c));
        assert!(DiscoveryRestrictions::AllowedFingerprints(vec![c.fingerprint()]).permits(c));
        assert!(!DiscoveryRestrictions::AllowedFingerprints(vec![[0u8; 32]]).permits(c));
    }

    #[test]
    fn advertisement_expiry() {
        let mut adv = advertisement();
        assert!(!adv.is_expired(NOW));
        assert!(!adv.is_expired(NOW + 3_600_000));
        assert!(adv.is_expired(NOW + 3_600_001));
        adv.lifetime_ms = 0; // unbounded
        assert!(!adv.is_expired(u64::MAX));
    }

    #[test]
    fn session_grant_and_key_material_round_trip() {
        let mut rng = StdRng::seed_from_u64(13);
        let grant = SessionGrant {
            request_id: 77,
            session_id: Uuid::new_v4(&mut rng),
        };
        assert_eq!(SessionGrant::from_bytes(&grant.to_bytes()).unwrap(), grant);

        let km = TraceKeyMaterial::aes192(vec![0x11; 24], CipherMode::Cbc);
        assert_eq!(TraceKeyMaterial::from_bytes(&km.to_bytes()).unwrap(), km);
        assert_eq!(km.padding, "PKCS7");
    }
}

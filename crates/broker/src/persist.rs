//! Durable broker state: the journalled ops and snapshot codec for
//! [`nb_store::Durable`].
//!
//! What a broker persists is its **control plane**: which consumer
//! holds which local subscription (and whether its adverts are
//! suppressed), and the trace-topic owner keys used for full token
//! verification. Data frames are never journalled — the paper's
//! delivery model is best-effort pub/sub, and a link carries its own
//! frames through a transient outage — so the WAL stays off the
//! routing pipeline entirely.
//!
//! On restart the recovered subscriptions are re-installed before any
//! link comes up, which makes neighbour re-sync automatic: the
//! neighbour handshake advertises each peer its
//! `SubscriptionTable::filters_for_neighbor` set — now including
//! everything recovered — and a client re-attaching under its old id
//! resumes deliveries without re-subscribing.

use nb_crypto::rsa::RsaPublicKey;
use nb_crypto::Uuid;
use nb_store::DurableState;
use nb_wire::codec::{Decode, Encode, Reader, Writer};
use nb_wire::{Topic, WireError};
use std::collections::BTreeMap;

/// One journalled control-plane mutation.
#[derive(Debug, Clone, PartialEq)]
pub enum BrokerOp {
    /// A consumer gained a local subscription.
    SubAdd {
        /// Consumer id (attached client or in-process consumer).
        consumer: String,
        /// The subscription filter.
        filter: Topic,
        /// Whether neighbour adverts for it are suppressed
        /// (constrained-topic `{Distribution}` rules).
        suppressed: bool,
    },
    /// A consumer dropped one local subscription.
    SubRemove {
        /// Consumer id.
        consumer: String,
        /// The withdrawn filter.
        filter: Topic,
    },
    /// A consumer detached cleanly (all its subscriptions go with it).
    /// Recorded on orderly disconnect and DoS termination — *not* on
    /// crash, which is what lets a restarted broker restore the
    /// subscriptions of clients that will re-attach.
    ConsumerGone {
        /// Consumer id.
        consumer: String,
    },
    /// A trace-topic owner key was registered for token verification.
    OwnerKey {
        /// The trace topic.
        topic: Uuid,
        /// The owner's public key.
        key: RsaPublicKey,
    },
}

impl Encode for BrokerOp {
    fn encode(&self, w: &mut Writer) {
        match self {
            BrokerOp::SubAdd {
                consumer,
                filter,
                suppressed,
            } => {
                w.put_u8(1);
                w.put_str(consumer);
                filter.encode(w);
                w.put_bool(*suppressed);
            }
            BrokerOp::SubRemove { consumer, filter } => {
                w.put_u8(2);
                w.put_str(consumer);
                filter.encode(w);
            }
            BrokerOp::ConsumerGone { consumer } => {
                w.put_u8(3);
                w.put_str(consumer);
            }
            BrokerOp::OwnerKey { topic, key } => {
                w.put_u8(4);
                w.put_uuid(topic);
                w.put_bytes(&key.to_bytes());
            }
        }
    }
}

impl Decode for BrokerOp {
    fn decode(r: &mut Reader<'_>) -> nb_wire::Result<Self> {
        match r.get_u8()? {
            1 => Ok(BrokerOp::SubAdd {
                consumer: r.get_str()?,
                filter: Topic::decode(r)?,
                suppressed: r.get_bool()?,
            }),
            2 => Ok(BrokerOp::SubRemove {
                consumer: r.get_str()?,
                filter: Topic::decode(r)?,
            }),
            3 => Ok(BrokerOp::ConsumerGone {
                consumer: r.get_str()?,
            }),
            4 => {
                let topic = r.get_uuid()?;
                let key_bytes = r.get_bytes()?;
                let key = RsaPublicKey::from_bytes(&key_bytes).map_err(WireError::Crypto)?;
                Ok(BrokerOp::OwnerKey { topic, key })
            }
            tag => Err(WireError::UnknownTag {
                what: "broker op",
                tag,
            }),
        }
    }
}

/// The broker's durable control-plane state (the replay target).
///
/// Deterministic (`BTreeMap`) so identical histories produce
/// byte-identical snapshots.
#[derive(Debug, Default)]
pub struct BrokerDurableState {
    /// `(consumer, filter)` → advert-suppression flag.
    pub subs: BTreeMap<(String, Topic), bool>,
    /// Trace topic → owner public key.
    pub owner_keys: BTreeMap<Uuid, RsaPublicKey>,
}

impl DurableState for BrokerDurableState {
    type Op = BrokerOp;

    fn apply(&mut self, op: BrokerOp) {
        match op {
            BrokerOp::SubAdd {
                consumer,
                filter,
                suppressed,
            } => {
                // Sticky per registration, as in the live table
                // (`SubscriptionTable::add_local`).
                *self.subs.entry((consumer, filter)).or_default() |= suppressed;
            }
            BrokerOp::SubRemove { consumer, filter } => {
                self.subs.remove(&(consumer, filter));
            }
            BrokerOp::ConsumerGone { consumer } => {
                self.subs.retain(|(c, _), _| *c != consumer);
            }
            BrokerOp::OwnerKey { topic, key } => {
                self.owner_keys.insert(topic, key);
            }
        }
    }

    fn snapshot_encode(&self, w: &mut Writer) {
        w.put_varint(self.subs.len() as u64);
        for ((consumer, filter), suppressed) in &self.subs {
            w.put_str(consumer);
            filter.encode(w);
            w.put_bool(*suppressed);
        }
        w.put_varint(self.owner_keys.len() as u64);
        for (topic, key) in &self.owner_keys {
            w.put_uuid(topic);
            w.put_bytes(&key.to_bytes());
        }
    }

    fn snapshot_decode(r: &mut Reader<'_>) -> nb_wire::Result<Self> {
        let mut state = BrokerDurableState::default();
        let n = r.get_varint()?;
        for _ in 0..n {
            let consumer = r.get_str()?;
            let filter = Topic::decode(r)?;
            let suppressed = r.get_bool()?;
            state.subs.insert((consumer, filter), suppressed);
        }
        let n = r.get_varint()?;
        for _ in 0..n {
            let topic = r.get_uuid()?;
            let key_bytes = r.get_bytes()?;
            let key = RsaPublicKey::from_bytes(&key_bytes).map_err(WireError::Crypto)?;
            state.owner_keys.insert(topic, key);
        }
        Ok(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nb_store::{Durable, StoreConfig, TempDir};

    fn topic(s: &str) -> Topic {
        Topic::parse(s).unwrap()
    }

    #[test]
    fn ops_round_trip_the_codec() {
        let ops = [
            BrokerOp::SubAdd {
                consumer: "tracker-1".into(),
                filter: topic("Availability/Traces/web"),
                suppressed: true,
            },
            BrokerOp::SubRemove {
                consumer: "tracker-1".into(),
                filter: topic("Availability/Traces/web"),
            },
            BrokerOp::ConsumerGone {
                consumer: "tracker-1".into(),
            },
        ];
        for op in &ops {
            let bytes = op.to_bytes();
            assert_eq!(&BrokerOp::from_bytes(&bytes).unwrap(), op);
        }
    }

    #[test]
    fn suppression_stays_on_a_registration_re_added_unsuppressed() {
        let mut state = BrokerDurableState::default();
        for suppressed in [true, false] {
            state.apply(BrokerOp::SubAdd {
                consumer: "a".into(),
                filter: topic("x/y"),
                suppressed,
            });
        }
        assert!(state.subs[&("a".to_string(), topic("x/y"))]);
    }

    #[test]
    fn state_recovers_across_reopen() {
        let dir = TempDir::new("broker-persist").unwrap();
        {
            let (mut d, mut s, _) =
                Durable::<BrokerDurableState>::open(dir.path(), "broker", StoreConfig::default())
                    .unwrap();
            for op in [
                BrokerOp::SubAdd {
                    consumer: "a".into(),
                    filter: topic("x/y"),
                    suppressed: false,
                },
                BrokerOp::SubAdd {
                    consumer: "b".into(),
                    filter: topic("x/z"),
                    suppressed: false,
                },
                BrokerOp::ConsumerGone {
                    consumer: "b".into(),
                },
            ] {
                d.record(&op).unwrap();
                s.apply(op);
            }
            d.checkpoint(&s).unwrap();
        }
        let (_, s, rec) =
            Durable::<BrokerDurableState>::open(dir.path(), "broker", StoreConfig::default())
                .unwrap();
        assert!(rec.snapshot_loaded);
        assert_eq!(s.subs.len(), 1);
        assert!(s.subs.contains_key(&("a".to_string(), topic("x/y"))));
    }
}

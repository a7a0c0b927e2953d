//! Client-side handle for talking to a broker.
//!
//! `BrokerClient` wraps an [`Endpoint`] with the attach handshake,
//! acknowledged subscribe/unsubscribe, and message construction.
//!
//! **Threading contract:** request/response helpers
//! ([`BrokerClient::subscribe`] etc.) and [`BrokerClient::next_message`]
//! both read from the same link. Perform setup (attach, subscribes)
//! before spawning any receive pump; afterwards, consume exclusively
//! through [`BrokerClient::next_message`].

use crate::error::BrokerError;
use crate::Result;
use nb_telemetry::TraceContext;
use nb_transport::clock::SharedClock;
use nb_transport::endpoint::Endpoint;
use nb_transport::TransportError;
use nb_wire::codec::{Decode, Encode};
use nb_wire::{Message, Payload, Topic};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A connected, attached broker client.
pub struct BrokerClient {
    id: String,
    endpoint: Endpoint,
    clock: SharedClock,
    next_id: AtomicU64,
    /// Messages received while waiting for a correlated response.
    stash: Mutex<VecDeque<Message>>,
}

impl BrokerClient {
    /// Attaches to a broker over `endpoint` as `client_id`, blocking
    /// until the broker acknowledges.
    pub fn attach(
        endpoint: Endpoint,
        client_id: impl Into<String>,
        clock: SharedClock,
        timeout: Duration,
    ) -> Result<Self> {
        let client = BrokerClient {
            id: client_id.into(),
            endpoint,
            clock,
            next_id: AtomicU64::new(1),
            stash: Mutex::new(VecDeque::new()),
        };
        let client_id = client.id.clone();
        client.control_with_retry(timeout, || Payload::Attach {
            client_id: client_id.clone(),
        })?;
        Ok(client)
    }

    /// This client's identifier.
    pub fn id(&self) -> &str {
        &self.id
    }

    /// Builds a message from this client with a fresh id and current
    /// timestamp.
    pub fn make_message(&self, topic: Topic, payload: Payload) -> Message {
        Message::new(
            self.next_id.fetch_add(1, Ordering::Relaxed),
            topic,
            self.id.clone(),
            self.clock.now_ms(),
            payload,
        )
    }

    /// Subscribes to `filter`, blocking for the broker's verdict.
    /// A `Nack` means the constrained topic refused this subscriber.
    /// Retries on loss (subscription registration is idempotent).
    pub fn subscribe(&self, filter: Topic, timeout: Duration) -> Result<()> {
        self.control_with_retry(timeout, || Payload::Subscribe {
            filter: filter.clone(),
        })
    }

    /// Removes a subscription, blocking for the acknowledgement.
    pub fn unsubscribe(&self, filter: Topic, timeout: Duration) -> Result<()> {
        self.control_with_retry(timeout, || Payload::Unsubscribe {
            filter: filter.clone(),
        })
    }

    /// Sends a control request until the broker answers it: control
    /// messages may be lost on unreliable links, so it retries a few
    /// times within the overall timeout.
    fn control_with_retry(
        &self,
        timeout: Duration,
        mut make_payload: impl FnMut() -> Payload,
    ) -> Result<()> {
        let attempts = 16u32;
        let per_attempt = timeout / attempts;
        let mut last_err = BrokerError::Timeout;
        for _ in 0..attempts {
            let msg = self.make_message(crate::control_topic(), make_payload());
            let id = msg.id;
            self.endpoint.send(&msg.to_bytes())?;
            match self.wait_correlated(id, per_attempt) {
                Ok(reply) => {
                    return match reply.payload {
                        Payload::Ack => Ok(()),
                        Payload::Nack { reason } => Err(BrokerError::Refused(reason)),
                        _ => Err(BrokerError::Refused("unexpected control reply".into())),
                    }
                }
                Err(BrokerError::Timeout) => {
                    last_err = BrokerError::Timeout;
                    continue;
                }
                Err(other) => return Err(other),
            }
        }
        Err(last_err)
    }

    /// Publishes a payload on `topic` (fire-and-forget). Returns the
    /// message id.
    pub fn publish(&self, topic: Topic, payload: Payload) -> Result<u64> {
        let msg = self.make_message(topic, payload);
        let id = msg.id;
        self.endpoint.send(&msg.to_bytes())?;
        Ok(id)
    }

    /// Publishes a payload carrying a causal trace context, so brokers
    /// along the path record spans (when sampled) and enforce the
    /// hop-count TTL. Returns the message id.
    pub fn publish_traced(
        &self,
        topic: Topic,
        payload: Payload,
        trace: TraceContext,
    ) -> Result<u64> {
        let msg = self.make_message(topic, payload).with_trace(trace);
        let id = msg.id;
        self.endpoint.send(&msg.to_bytes())?;
        Ok(id)
    }

    /// Sends a fully prepared message (signed, tokened, …).
    pub fn send_message(&self, msg: &Message) -> Result<()> {
        self.endpoint.send(&msg.to_bytes())?;
        Ok(())
    }

    /// Receives the next routed message (stashed messages first).
    pub fn next_message(&self, timeout: Duration) -> Result<Message> {
        if let Some(m) = self.stash.lock().pop_front() {
            return Ok(m);
        }
        let frame = self.endpoint.recv_timeout(timeout)?;
        Ok(Message::from_bytes(&frame)?)
    }

    fn wait_correlated(&self, request_id: u64, timeout: Duration) -> Result<Message> {
        let deadline = Instant::now() + timeout;
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(BrokerError::Timeout);
            }
            let frame = self.endpoint.recv_timeout(remaining).map_err(|e| match e {
                TransportError::Timeout => BrokerError::Timeout,
                other => BrokerError::Transport(other),
            })?;
            let msg = Message::from_bytes(&frame)?;
            if msg.correlation_id == request_id {
                return Ok(msg);
            }
            self.stash.lock().push_back(msg);
        }
    }
}

impl std::fmt::Debug for BrokerClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BrokerClient({})", self.id)
    }
}

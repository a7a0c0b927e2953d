//! The observation model: what the broker and the tracing engine
//! report to an attached [`MonitorSet`](crate::MonitorSet).
//!
//! Events borrow from the caller's stack — the broker hands over a
//! [`nb_wire::MessageView`] into the very frame buffer it is about to
//! forward, so building an event costs no allocation.

use nb_wire::{MessageView, SessionTag, TopicView};

/// One delivery decision: broker `node` is about to hand `sender`'s
/// message to at least one local subscriber or downstream neighbour.
#[derive(Debug, Clone, Copy)]
pub struct DeliveryEvent<'a> {
    /// Broker reporting the event.
    pub node: &'a str,
    /// Topic the message was routed on: the topic section of the
    /// routed frame.
    pub topic: &'a TopicView<'a>,
    /// `nb_wire::topic_hash` of the topic — the broker already has it
    /// from the route lookup, and the monitor's prefilter keys on it.
    pub topic_hash: u64,
    /// Publishing client/broker id from the envelope.
    pub sender: &'a str,
    /// Envelope message id (unique per sender).
    pub msg_id: u64,
    /// Hop count from the trace/TTL section, `None` if untraced.
    pub hop: Option<u8>,
    /// The envelope's authorization token, encoded: the bytes the
    /// frame's view lends ([`MessageView::token`]). The monitor decodes
    /// it only when a `require-token` property matched the topic.
    pub token: Option<&'a [u8]>,
    /// Session tag from the envelope's trailing section, when the
    /// frame authenticates via a negotiated session key instead of an
    /// RSA-signed token (the broker verifies the MAC before reporting;
    /// the monitor audits the key's revocation state).
    pub session: Option<SessionTag>,
    /// Wall-clock milliseconds for token-window checks and reports.
    pub now_ms: u64,
}

impl<'a> DeliveryEvent<'a> {
    /// Renders the topic path (only called on the violation path,
    /// where allocation is fine).
    pub fn topic_path(&self) -> String {
        self.topic
            .to_topic()
            .map(|t| t.to_string())
            .unwrap_or_else(|_| "<invalid topic>".to_string())
    }

    /// Builds an event from a zero-copy frame view (what the broker
    /// reports).
    /// `hop` is the post-increment hop count the frame will carry
    /// onward; `now_ms` is the broker's clock (never the frame's own
    /// timestamp, which the publisher chose).
    pub fn from_view(
        node: &'a str,
        view: &'a MessageView<'a>,
        topic_hash: u64,
        hop: Option<u8>,
        now_ms: u64,
    ) -> Self {
        DeliveryEvent {
            node,
            topic: &view.topic,
            topic_hash,
            sender: view.sender,
            msg_id: view.id,
            hop,
            token: view.token,
            session: view.session,
            now_ms,
        }
    }
}

/// The three availability verdicts the tracing engine can render
/// about a session (collapsing the trace vocabulary to what the
/// causal-consistency property needs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerdictKind {
    /// ALLS_WELL — the entity responded.
    AllsWell,
    /// FAILURE_SUSPICION — pings outstanding past the soft deadline.
    Suspect,
    /// FAILED — the failure detector gave up on the entity.
    Failed,
}

impl VerdictKind {
    /// Human-readable name used in violation reports.
    pub fn as_str(self) -> &'static str {
        match self {
            VerdictKind::AllsWell => "AllsWell",
            VerdictKind::Suspect => "Suspect",
            VerdictKind::Failed => "Failed",
        }
    }
}

//! Broker error type.

use nb_transport::TransportError;
use nb_wire::WireError;
use std::fmt;

/// Errors raised by broker nodes and clients.
#[derive(Debug)]
pub enum BrokerError {
    /// The link to the peer failed.
    Transport(TransportError),
    /// A frame failed to decode.
    Wire(WireError),
    /// The action is not permitted on a constrained topic.
    NotPermitted {
        /// The topic involved.
        topic: String,
        /// What was attempted.
        action: &'static str,
    },
    /// The broker refused a control request.
    Refused(String),
    /// A request timed out waiting for its response.
    Timeout,
}

impl fmt::Display for BrokerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BrokerError::Transport(e) => write!(f, "transport: {e}"),
            BrokerError::Wire(e) => write!(f, "wire: {e}"),
            BrokerError::NotPermitted { topic, action } => {
                write!(f, "{action} not permitted on constrained topic {topic}")
            }
            BrokerError::Refused(reason) => write!(f, "refused: {reason}"),
            BrokerError::Timeout => write!(f, "request timed out"),
        }
    }
}

impl std::error::Error for BrokerError {}

impl From<TransportError> for BrokerError {
    fn from(e: TransportError) -> Self {
        BrokerError::Transport(e)
    }
}

impl From<WireError> for BrokerError {
    fn from(e: WireError) -> Self {
        BrokerError::Wire(e)
    }
}

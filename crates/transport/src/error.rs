//! Transport error type.

use std::fmt;
use std::io;

/// Errors surfaced by link endpoints.
#[derive(Debug)]
pub enum TransportError {
    /// The peer closed the link (or the simulated network shut down).
    Closed,
    /// No frame arrived within the requested timeout.
    Timeout,
    /// A frame exceeded the maximum frame size.
    FrameTooLarge {
        /// Size of the offending frame.
        size: usize,
        /// Maximum allowed.
        max: usize,
    },
    /// Underlying socket error.
    Io(io::Error),
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::Closed => write!(f, "link closed"),
            TransportError::Timeout => write!(f, "receive timeout"),
            TransportError::FrameTooLarge { size, max } => {
                write!(f, "frame of {size} bytes exceeds maximum {max}")
            }
            TransportError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for TransportError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TransportError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for TransportError {
    fn from(e: io::Error) -> Self {
        TransportError::Io(e)
    }
}

impl Clone for TransportError {
    /// `io::Error` is not `Clone`; the copy preserves the kind and
    /// message, which is everything callers match on.
    fn clone(&self) -> Self {
        match self {
            TransportError::Closed => TransportError::Closed,
            TransportError::Timeout => TransportError::Timeout,
            TransportError::FrameTooLarge { size, max } => TransportError::FrameTooLarge {
                size: *size,
                max: *max,
            },
            TransportError::Io(e) => TransportError::Io(io::Error::new(e.kind(), e.to_string())),
        }
    }
}

impl PartialEq for TransportError {
    fn eq(&self, other: &Self) -> bool {
        matches!(
            (self, other),
            (TransportError::Closed, TransportError::Closed)
                | (TransportError::Timeout, TransportError::Timeout)
        ) || matches!((self, other),
            (
                TransportError::FrameTooLarge { size: a, max: b },
                TransportError::FrameTooLarge { size: c, max: d }
            ) if a == c && b == d)
    }
}

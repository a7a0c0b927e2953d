//! The uniform link-half abstraction shared by all transports.
//!
//! Which thread reads depends on the transport. A TCP endpoint has no
//! thread of its own: the thread that calls [`Endpoint::recv`],
//! [`Endpoint::recv_timeout`] or [`Endpoint::recv_with`] reads the
//! socket itself. Sim and UDP endpoints receive from a queue that a
//! transport thread fills.

use crate::error::TransportError;
use crate::tcp::TcpReader;
use crate::Result;
use crossbeam::channel::{Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::time::Duration;

/// Maximum frame size accepted by any transport (4 MiB).
pub const MAX_FRAME_LEN: usize = 4 * 1024 * 1024;

/// Transport-specific frame transmitter.
pub trait FrameSender: Send + Sync {
    /// Sends one frame; must be atomic with respect to other senders.
    fn send_frame(&self, frame: &[u8]) -> Result<()>;

    /// Closes the link this sender belongs to: later sends fail, and
    /// receives end with [`TransportError::Closed`] once the frames
    /// already delivered are read. A TCP link shuts its socket down, so
    /// both ends read a close; a simulated link disconnects both
    /// endpoints' queues; a UDP link, which has no connection to
    /// shut, stops this end's reader thread after its next datagram or
    /// poll. Never waits for a send in progress. Idempotent; the
    /// default, for senders with no link behind them, does nothing.
    fn close(&self) {}
}

/// Where an endpoint's inbound frames come from.
enum Inbound {
    /// Frames queued by a transport thread (sim links, UDP).
    Queue(Receiver<Vec<u8>>),
    /// A TCP stream, read by the receiving thread.
    Stream(TcpReader),
}

/// One half of a bidirectional, framed link.
///
/// `Endpoint` is identical across the simulated, TCP and UDP
/// transports — this is the "transport independence" the paper calls
/// out: brokers and entities exchange frames through this interface
/// and never see sockets.
pub struct Endpoint {
    tx: Arc<dyn FrameSender>,
    inbound: Inbound,
    max_frame_len: usize,
}

impl Endpoint {
    /// Assembles an endpoint from its halves (used by transport
    /// implementations). The frame limit defaults to the global
    /// [`MAX_FRAME_LEN`]; transports with a tighter wire limit use
    /// [`Endpoint::from_parts_limited`].
    pub fn from_parts(tx: Arc<dyn FrameSender>, rx: Receiver<Vec<u8>>) -> Self {
        Self::from_parts_limited(tx, rx, MAX_FRAME_LEN)
    }

    /// Assembles an endpoint advertising a transport-specific maximum
    /// frame size.
    pub fn from_parts_limited(
        tx: Arc<dyn FrameSender>,
        rx: Receiver<Vec<u8>>,
        max_frame_len: usize,
    ) -> Self {
        Self::assemble(tx, Inbound::Queue(rx), max_frame_len)
    }

    /// Assembles a TCP endpoint, whose receivers read the stream.
    pub(crate) fn from_stream(tx: Arc<dyn FrameSender>, reader: TcpReader) -> Self {
        Self::assemble(tx, Inbound::Stream(reader), MAX_FRAME_LEN)
    }

    fn assemble(tx: Arc<dyn FrameSender>, inbound: Inbound, max_frame_len: usize) -> Self {
        Endpoint {
            tx,
            inbound,
            max_frame_len: max_frame_len.min(MAX_FRAME_LEN),
        }
    }

    /// The largest frame this endpoint's transport can carry. UDP
    /// endpoints advertise the datagram ceiling here, so an envelope
    /// that could never survive the wire is rejected at frame-build
    /// time ([`Endpoint::send`]) instead of deep inside the transport.
    pub fn max_frame_len(&self) -> usize {
        self.max_frame_len
    }

    /// Sends one frame.
    pub fn send(&self, frame: &[u8]) -> Result<()> {
        if frame.len() > self.max_frame_len {
            return Err(TransportError::FrameTooLarge {
                size: frame.len(),
                max: self.max_frame_len,
            });
        }
        self.tx.send_frame(frame)
    }

    /// Blocks until a frame arrives or the link closes.
    pub fn recv(&self) -> Result<Vec<u8>> {
        self.receive(None)
    }

    /// Blocks up to `timeout` for a frame.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Vec<u8>> {
        self.receive(Some(timeout))
    }

    /// Blocks until a frame arrives, or up to `timeout` when one is
    /// given, then lends it to `f` and returns what `f` returns. A TCP
    /// endpoint lends the frame in place in its receive buffer, so the
    /// steady state allocates nothing; `f` may modify the frame (the
    /// broker patches hop counts in place). `f` runs under the
    /// endpoint's reader lock, so it must not receive from this
    /// endpoint; sending through it is fine.
    pub fn recv_with<R>(
        &self,
        timeout: Option<Duration>,
        f: impl FnOnce(&mut [u8]) -> R,
    ) -> Result<R> {
        match &self.inbound {
            Inbound::Queue(_) => self.receive(timeout).map(|mut frame| f(&mut frame)),
            Inbound::Stream(reader) => reader.read_frame(timeout, f),
        }
    }

    fn receive(&self, timeout: Option<Duration>) -> Result<Vec<u8>> {
        match &self.inbound {
            Inbound::Queue(rx) => match timeout {
                None => rx.recv().map_err(|_| TransportError::Closed),
                Some(t) => rx.recv_timeout(t).map_err(|e| match e {
                    RecvTimeoutError::Timeout => TransportError::Timeout,
                    RecvTimeoutError::Disconnected => TransportError::Closed,
                }),
            },
            Inbound::Stream(reader) => reader.read_frame(timeout, |frame| frame.to_vec()),
        }
    }

    /// A cloneable sender handle (for multi-writer use).
    pub fn sender(&self) -> Arc<dyn FrameSender> {
        Arc::clone(&self.tx)
    }
}

impl std::fmt::Debug for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inbound {
            Inbound::Queue(rx) => write!(f, "Endpoint(queued={})", rx.len()),
            Inbound::Stream(_) => write!(f, "Endpoint(tcp)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_enforces_its_frame_limit() {
        let (_tx, rx) = crossbeam::channel::unbounded::<Vec<u8>>();
        struct NullSender;
        impl FrameSender for NullSender {
            fn send_frame(&self, _frame: &[u8]) -> Result<()> {
                Ok(())
            }
        }
        let ep = Endpoint::from_parts_limited(Arc::new(NullSender), rx, 100);
        assert_eq!(ep.max_frame_len(), 100);
        // Oversized for this endpoint's transport: rejected at build time.
        assert_eq!(
            ep.send(&[0u8; 101]),
            Err(TransportError::FrameTooLarge { size: 101, max: 100 })
        );
    }
}

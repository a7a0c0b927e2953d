//! UDP transport: one datagram per frame.
//!
//! The second real transport of §6.1. UDP endpoints are *connected*
//! sockets (each link pairs two sockets), so frames cannot stray
//! between links. Datagram semantics mean frames can be lost or
//! reordered by the OS — exactly the behaviour the paper's
//! ping/loss-tracking machinery is built to observe.

use crate::endpoint::{Endpoint, FrameSender};
use crate::error::TransportError;
use crate::instrument;
use crate::Result;
use crossbeam::channel::unbounded;
use std::io::ErrorKind;
use std::net::{SocketAddr, UdpSocket};
use std::sync::Arc;
use std::time::Duration;

/// Maximum UDP payload we send (stays under the 65,507-byte datagram
/// limit with headroom).
pub const MAX_DATAGRAM: usize = 60_000;

/// How long the reader thread waits for a datagram before it checks
/// whether its endpoint is gone.
const READ_POLL: Duration = Duration::from_millis(200);

struct UdpFrameSender {
    socket: UdpSocket,
}

impl FrameSender for UdpFrameSender {
    fn send_frame(&self, frame: &[u8]) -> Result<()> {
        if frame.len() > MAX_DATAGRAM {
            return Err(TransportError::FrameTooLarge {
                size: frame.len(),
                max: MAX_DATAGRAM,
            });
        }
        self.socket.send(frame)?;
        instrument::FRAMES_SENT.inc();
        instrument::BYTES_SENT.add(frame.len() as u64);
        Ok(())
    }
}

/// A UDP endpoint bound to a local address, not yet connected.
pub struct UdpHalf {
    socket: UdpSocket,
}

impl UdpHalf {
    /// Binds to `addr` (use port 0 for ephemeral).
    pub fn bind(addr: &str) -> Result<Self> {
        Ok(UdpHalf {
            socket: UdpSocket::bind(addr)?,
        })
    }

    /// The bound local address (exchange this out of band).
    pub fn local_addr(&self) -> Result<SocketAddr> {
        Ok(self.socket.local_addr()?)
    }

    /// Connects to the peer and starts the reader thread. The thread
    /// exits once the endpoint and every sender cloned from it are
    /// dropped (within 200 ms), or when a datagram arrives for
    /// an endpoint that is gone.
    pub fn connect(self, peer: SocketAddr) -> Result<Endpoint> {
        self.socket.connect(peer)?;
        let reader = self.socket.try_clone()?;
        reader.set_read_timeout(Some(READ_POLL))?;
        let sender: Arc<dyn FrameSender> = Arc::new(UdpFrameSender {
            socket: self.socket,
        });
        let alive = Arc::downgrade(&sender);
        let (tx, rx) = unbounded();
        std::thread::Builder::new()
            .name("udp-reader".to_string())
            .spawn(move || {
                let mut buf = vec![0u8; MAX_DATAGRAM];
                loop {
                    match reader.recv(&mut buf) {
                        Ok(n) => {
                            if tx.send(buf[..n].to_vec()).is_err() {
                                return;
                            }
                            instrument::FRAMES_RECEIVED.inc();
                            instrument::BYTES_RECEIVED.add(n as u64);
                        }
                        // No datagram in this wait: stop once the
                        // endpoint and every cloned sender are gone.
                        Err(e)
                            if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) =>
                        {
                            if alive.strong_count() == 0 {
                                return;
                            }
                        }
                        Err(_) => return,
                    }
                }
            })
            .map_err(TransportError::Io)?;
        // The endpoint advertises the datagram ceiling as its frame
        // limit, so an envelope that passes the generic 4 MiB check but
        // could never fit one datagram is rejected at frame-build time
        // ([`Endpoint::send`]) instead of only at UDP send time.
        Ok(Endpoint::from_parts_limited(sender, rx, MAX_DATAGRAM))
    }
}

/// Convenience: creates a connected UDP link pair on loopback.
pub fn loopback_pair() -> Result<(Endpoint, Endpoint)> {
    let a = UdpHalf::bind("127.0.0.1:0")?;
    let b = UdpHalf::bind("127.0.0.1:0")?;
    let a_addr = a.local_addr()?;
    let b_addr = b.local_addr()?;
    Ok((a.connect(b_addr)?, b.connect(a_addr)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn datagrams_round_trip() {
        let (a, b) = loopback_pair().unwrap();
        a.send(b"udp ping").unwrap();
        assert_eq!(
            b.recv_timeout(Duration::from_secs(2)).unwrap(),
            b"udp ping"
        );
        b.send(b"udp pong").unwrap();
        assert_eq!(
            a.recv_timeout(Duration::from_secs(2)).unwrap(),
            b"udp pong"
        );
    }

    #[test]
    fn many_small_datagrams() {
        let (a, b) = loopback_pair().unwrap();
        // Loopback UDP is effectively lossless for modest bursts.
        for i in 0..100u32 {
            a.send(&i.to_be_bytes()).unwrap();
        }
        let mut got = 0;
        while b.recv_timeout(Duration::from_millis(200)).is_ok() {
            got += 1;
        }
        assert!(got >= 90, "received {got}/100 datagrams on loopback");
    }

    #[test]
    fn oversized_datagram_rejected() {
        let (a, _b) = loopback_pair().unwrap();
        let huge = vec![0u8; MAX_DATAGRAM + 1];
        assert!(matches!(
            a.send(&huge),
            Err(TransportError::FrameTooLarge { .. })
        ));
    }

    #[test]
    fn connected_sockets_ignore_strangers() {
        let (a, b) = loopback_pair().unwrap();
        let stranger = UdpSocket::bind("127.0.0.1:0").unwrap();
        // The stranger writes straight at b's address.
        let b_local = {
            // b's socket address is discoverable through a fresh half.
            // We reconstruct by sending a frame a→b and reading it, then
            // probing: connected sockets drop foreign datagrams.
            a.send(b"legit").unwrap();
            b.recv_timeout(Duration::from_secs(2)).unwrap()
        };
        assert_eq!(b_local, b"legit");
        // A datagram from an unconnected peer must not surface on `a`
        // (a is connected to b only).
        let a_probe = UdpHalf::bind("127.0.0.1:0").unwrap();
        let a_addr = a_probe.local_addr().unwrap(); // unrelated address
        stranger.send_to(b"spoof", a_addr).unwrap();
        assert_eq!(
            a.recv_timeout(Duration::from_millis(100)),
            Err(TransportError::Timeout)
        );
    }
}

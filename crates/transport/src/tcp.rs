//! TCP transport: length-prefixed frames over `std::net::TcpStream`.
//!
//! One of the two real transports benchmarked in §6.1. Each accepted
//! or connected stream becomes an [`Endpoint`] with no thread of its
//! own: whichever thread calls the endpoint's receive methods reads
//! the socket itself. It reads into one reused per-endpoint buffer and
//! deframes every whole frame a read returns, so a burst of frames
//! costs one syscall and later receives are served from the buffer.
//! Unread bytes wait in the kernel, where TCP flow control slows a
//! peer that sends faster than the consumer reads.
//!
//! Sends go through a write-combining sender (`TcpFrameSender`'s
//! internals): frames are staged into a shared buffer under a cheap
//! lock, and whichever sender wins the writer lock flushes the whole
//! staged batch in one `write_all`. Under concurrent load this
//! coalesces many frames per syscall (`transport.batch.*` counters)
//! while preserving exact FIFO order and frame boundaries; a lone
//! sender degenerates to the old one-write-per-frame behaviour. A
//! send that has not completed [`WRITE_STALL`] after its first write
//! began gives the link up.
//! [`FrameSender::close`] shuts the socket down without waiting for a
//! write in progress, so both ends read a close at once.

use crate::endpoint::{Endpoint, FrameSender, MAX_FRAME_LEN};
use crate::error::TransportError;
use crate::instrument;
use crate::Result;
use parking_lot::Mutex;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long one TCP send may take, from its first write to its last,
/// before the link is given up. A peer that stops reading, or reads
/// only a trickle, would otherwise hold the sending thread for as long
/// as it likes; past this the send fails like any write error and the
/// link is shut down.
pub const WRITE_STALL: Duration = Duration::from_secs(10);

/// Initial size of an endpoint's receive buffer. Small on purpose: a
/// deployment holds one per TCP endpoint. A frame that does not fit
/// grows the buffer as its bytes arrive, at most doubling it per read,
/// and once handed out the buffer drops back to this size: a length
/// prefix alone commits no memory.
const RECV_BUF_INITIAL: usize = 4 * 1024;

/// Length of a frame's big-endian `u32` length prefix.
const PREFIX_LEN: usize = 4;

/// Frames staged for the next batched write: encoded back-to-back
/// (length prefix + body each) in arrival order.
struct Pending {
    buf: Vec<u8>,
    frames: u64,
}

struct TcpFrameSender {
    pending: Mutex<Pending>,
    /// Held while writing, so only one thread writes at a time. Holds
    /// the capacity recycled between batches (swapped with
    /// `Pending::buf` at each flush so steady-state sends allocate
    /// nothing).
    writer: Mutex<Vec<u8>>,
    /// The socket. Written only under `writer`, but shut down without
    /// it: closing never waits for a stalled write. Its write timeout
    /// is `stall`.
    stream: TcpStream,
    /// How long one send may take ([`WRITE_STALL`] outside tests).
    stall: Duration,
    /// Set after the first write error: a failed send may have
    /// left a partial frame on the wire, so any further write would
    /// interleave into a corrupt stream. Once poisoned (or closed)
    /// every send fails fast with [`TransportError::Closed`].
    poisoned: AtomicBool,
}

impl Drop for TcpFrameSender {
    fn drop(&mut self) {
        // The peer reads EOF promptly, even if this endpoint's
        // receiving half still holds the stream open.
        self.close();
    }
}

impl FrameSender for TcpFrameSender {
    /// Shuts the socket down both ways: this endpoint's receives and
    /// the peer's read a close, and a write blocked on a peer that
    /// stopped reading fails at once.
    fn close(&self) {
        self.poisoned.store(true, Ordering::Release);
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }

    fn send_frame(&self, frame: &[u8]) -> Result<()> {
        if self.poisoned.load(Ordering::Acquire) {
            return Err(TransportError::Closed);
        }
        // Stage the frame; the pending lock is held only for the copy,
        // so concurrent senders queue up frames while a write syscall
        // is in progress.
        {
            let mut pending = self.pending.lock();
            pending
                .buf
                .extend_from_slice(&(frame.len() as u32).to_be_bytes());
            pending.buf.extend_from_slice(frame);
            pending.frames += 1;
        }
        instrument::FRAMES_SENT.inc();
        instrument::BYTES_SENT.add(frame.len() as u64);
        // Combining flush: the writer lock serializes syscalls; the
        // holder drains everything staged so far in one write. A
        // sender whose frame was carried out by an earlier flush finds
        // pending empty and returns without a syscall of its own.
        let mut spare = self.writer.lock();
        if self.poisoned.load(Ordering::Acquire) {
            // A flush that may have carried our frame failed.
            return Err(TransportError::Closed);
        }
        let (batch, frames) = {
            let mut pending = self.pending.lock();
            if pending.buf.is_empty() {
                return Ok(());
            }
            (
                std::mem::replace(&mut pending.buf, std::mem::take(&mut *spare)),
                std::mem::replace(&mut pending.frames, 0),
            )
        };
        let result = write_within(&self.stream, &batch, self.stall);
        instrument::BATCH_WRITES.inc();
        instrument::BATCH_FRAMES.add(frames);
        instrument::BATCH_COALESCED.add(frames.saturating_sub(1));
        // Recycle the batch's capacity for the next staging cycle.
        let mut batch = batch;
        batch.clear();
        *spare = batch;
        match result {
            Ok(()) => Ok(()),
            Err(e) => {
                // The send outlived its stall limit: the peer stopped
                // reading, or reads too slowly to take the batch.
                if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) {
                    instrument::WRITE_STALLED.inc();
                }
                self.close();
                Err(TransportError::Io(e))
            }
        }
    }
}

/// Writes all of `buf` within `stall` of the first write. The socket's
/// write timeout is `stall`, so a send whose first write completes
/// makes that one syscall; after a partial write the timeout shrinks to
/// what is left of the limit, and is put back once the send ends.
fn write_within(stream: &TcpStream, buf: &[u8], stall: Duration) -> std::io::Result<()> {
    let began = Instant::now();
    let mut written = 0;
    let mut shrunk = false;
    let result = loop {
        match (&*stream).write(&buf[written..]) {
            Ok(0) => break Err(ErrorKind::WriteZero.into()),
            Ok(n) if written + n == buf.len() => break Ok(()),
            Ok(n) => written += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => break Err(e),
        }
        let left = stall.saturating_sub(began.elapsed());
        if left.is_zero() {
            break Err(ErrorKind::TimedOut.into());
        }
        if let Err(e) = stream.set_write_timeout(Some(left)) {
            break Err(e);
        }
        shrunk = true;
    };
    if shrunk {
        let _ = stream.set_write_timeout(Some(stall));
    }
    result
}

/// The receiving half of a TCP endpoint, read by the thread that
/// receives. The lock serializes receivers; it is uncontended when one
/// thread consumes the link, which is how every worker uses it.
pub(crate) struct TcpReader(Mutex<ReadState>);

struct ReadState {
    stream: TcpStream,
    /// Bytes read from the socket; `buf[start..end]` are not yet
    /// handed out. Whole frames are lent straight out of it.
    buf: Vec<u8>,
    start: usize,
    end: usize,
    /// The read timeout last set on the socket.
    timeout: Option<Duration>,
    /// Why the stream stopped: `Closed` at EOF or a read error,
    /// `FrameTooLarge` at a bogus length prefix. Returned by every
    /// receive once the whole frames read before it are handed out.
    fault: Option<TransportError>,
}

impl TcpReader {
    fn new(stream: TcpStream) -> Self {
        TcpReader(Mutex::new(ReadState {
            stream,
            buf: vec![0; RECV_BUF_INITIAL],
            start: 0,
            end: 0,
            timeout: None,
            fault: None,
        }))
    }

    /// Reads until a whole frame is buffered, then lends it to `f`.
    /// With a `timeout`, waits at most that long, for the reader lock
    /// included; a partial frame stays buffered across a timeout.
    pub(crate) fn read_frame<R>(
        &self,
        timeout: Option<Duration>,
        f: impl FnOnce(&mut [u8]) -> R,
    ) -> Result<R> {
        let (mut state, deadline) = match timeout {
            None => (self.0.lock(), None),
            Some(t) => {
                let deadline = Instant::now() + t;
                (
                    self.0.try_lock_for(t).ok_or(TransportError::Timeout)?,
                    Some(deadline),
                )
            }
        };
        let mut read_once = false;
        loop {
            let need = match state.announced_len()? {
                Some(len) if state.end - state.start >= PREFIX_LEN + len => {
                    instrument::FRAMES_RECEIVED.inc();
                    instrument::BYTES_RECEIVED.add(len as u64);
                    let out = f(state.take(len));
                    state.shrink();
                    return Ok(out);
                }
                Some(len) => PREFIX_LEN + len,
                None => PREFIX_LEN,
            };
            // Every call reads at least once, so a zero timeout still
            // picks up bytes the kernel already holds.
            if read_once && deadline.is_some_and(|d| Instant::now() >= d) {
                return Err(TransportError::Timeout);
            }
            state.fill(need, deadline)?;
            read_once = true;
        }
    }
}

impl ReadState {
    /// The buffered frame's length prefix, once all of it has arrived,
    /// checked against [`MAX_FRAME_LEN`]. A longer one means the stream
    /// is garbage (or hostile): it is counted, the buffer is dropped
    /// and the stream fails with `FrameTooLarge` from then on.
    fn announced_len(&mut self) -> Result<Option<usize>> {
        let Some(prefix) = self.buf[self.start..self.end].first_chunk::<PREFIX_LEN>() else {
            return Ok(None);
        };
        let len = u32::from_be_bytes(*prefix) as usize;
        if len > MAX_FRAME_LEN {
            instrument::FRAME_OVERSIZED.inc();
            let err = TransportError::FrameTooLarge {
                size: len,
                max: MAX_FRAME_LEN,
            };
            self.fault = Some(err.clone());
            (self.start, self.end) = (0, 0);
            return Err(err);
        }
        Ok(Some(len))
    }

    /// Hands out the buffered whole frame whose body is `len` bytes.
    fn take(&mut self, len: usize) -> &mut [u8] {
        let body = self.start + PREFIX_LEN;
        self.start = body + len;
        if self.start == self.end {
            (self.start, self.end) = (0, 0);
        }
        &mut self.buf[body..body + len]
    }

    /// Drops a buffer grown for a large frame back to
    /// [`RECV_BUF_INITIAL`] once the bytes still buffered fit in that.
    fn shrink(&mut self) {
        let left = self.end - self.start;
        if self.buf.len() > RECV_BUF_INITIAL && left <= RECV_BUF_INITIAL {
            self.buf.copy_within(self.start..self.end, 0);
            (self.start, self.end) = (0, left);
            self.buf.truncate(RECV_BUF_INITIAL);
            self.buf.shrink_to_fit();
        }
    }

    /// Reads once from the socket into the frame being assembled, whose
    /// `need` bytes are not all buffered yet. A full buffer grows first,
    /// at most doubling and never past `need`: the buffer grows with
    /// the bytes that arrive, not with the length a peer announces. A
    /// read that times out returns `Ok` with nothing read; the caller
    /// checks its deadline.
    fn fill(&mut self, need: usize, deadline: Option<Instant>) -> Result<()> {
        if let Some(fault) = &self.fault {
            return Err(fault.clone());
        }
        if self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            (self.start, self.end) = (0, self.end - self.start);
        }
        if self.end == self.buf.len() {
            let len = (self.buf.len() * 2).min(need);
            self.buf.resize(len, 0);
        }
        // The time left, rounded up to whole milliseconds: a caller
        // that passes the same timeout on every call sets the socket
        // option once, not once per frame. std rejects a zero timeout.
        let timeout = deadline.map(|d| {
            let left = d.saturating_duration_since(Instant::now());
            let ms = u64::try_from(left.as_nanos().div_ceil(1_000_000)).unwrap_or(u64::MAX);
            Duration::from_millis(ms.max(1))
        });
        if timeout != self.timeout {
            self.stream.set_read_timeout(timeout)?;
            self.timeout = timeout;
        }
        match self.stream.read(&mut self.buf[self.end..]) {
            Ok(0) => Err(self.close()),
            Ok(n) => {
                self.end += n;
                Ok(())
            }
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) =>
            {
                Ok(())
            }
            // A reset or any other read error: the peer is gone.
            Err(_) => Err(self.close()),
        }
    }

    fn close(&mut self) -> TransportError {
        self.fault = Some(TransportError::Closed);
        TransportError::Closed
    }
}

/// Wraps an established TCP stream into an [`Endpoint`]. `TCP_NODELAY`
/// is set: the workload is small framed messages where Nagle batching
/// only adds latency. A send that takes longer than [`WRITE_STALL`]
/// gives the link up.
pub fn endpoint_from_stream(stream: TcpStream) -> Result<Endpoint> {
    endpoint_with_stall(stream, WRITE_STALL)
}

/// [`endpoint_from_stream`] with a chosen write-stall limit.
pub(crate) fn endpoint_with_stall(stream: TcpStream, stall: Duration) -> Result<Endpoint> {
    stream.set_nodelay(true)?;
    stream.set_write_timeout(Some(stall))?;
    let reader = TcpReader::new(stream.try_clone()?);
    Ok(Endpoint::from_stream(
        Arc::new(TcpFrameSender {
            pending: Mutex::new(Pending {
                buf: Vec::new(),
                frames: 0,
            }),
            writer: Mutex::new(Vec::new()),
            stream,
            stall,
            poisoned: AtomicBool::new(false),
        }),
        reader,
    ))
}

/// A listening TCP transport endpoint factory.
pub struct TcpTransportListener {
    listener: TcpListener,
}

impl TcpTransportListener {
    /// Binds to `addr` (use port 0 for an ephemeral port).
    pub fn bind(addr: &str) -> Result<Self> {
        Ok(TcpTransportListener {
            listener: TcpListener::bind(addr)?,
        })
    }

    /// The bound local address.
    pub fn local_addr(&self) -> Result<SocketAddr> {
        Ok(self.listener.local_addr()?)
    }

    /// Blocks until a peer connects; returns its endpoint.
    pub fn accept(&self) -> Result<Endpoint> {
        let (stream, _) = self.listener.accept()?;
        endpoint_from_stream(stream)
    }
}

/// Connects to a listening peer.
pub fn connect(addr: SocketAddr) -> Result<Endpoint> {
    endpoint_from_stream(TcpStream::connect(addr)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn pair() -> (Endpoint, Endpoint) {
        let listener = TcpTransportListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client_thread = std::thread::spawn(move || connect(addr).unwrap());
        let server = listener.accept().unwrap();
        let client = client_thread.join().unwrap();
        (server, client)
    }

    /// An endpoint and the raw socket of its peer, for tests that
    /// control the bytes on the wire.
    fn raw_pair() -> (Endpoint, TcpStream) {
        let listener = TcpTransportListener::bind("127.0.0.1:0").unwrap();
        let raw = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        raw.set_nodelay(true).unwrap();
        (listener.accept().unwrap(), raw)
    }

    /// `body` with its length prefix, as it travels on the wire.
    fn wire(body: &[u8]) -> Vec<u8> {
        let mut out = (body.len() as u32).to_be_bytes().to_vec();
        out.extend_from_slice(body);
        out
    }

    #[test]
    fn frame_written_one_byte_at_a_time_arrives_intact() {
        let (server, mut raw) = raw_pair();
        let bytes = wire(b"trickled frame");
        let writer = std::thread::spawn(move || {
            for b in bytes {
                raw.write_all(&[b]).unwrap();
                std::thread::sleep(Duration::from_millis(1));
            }
            raw
        });
        assert_eq!(
            server.recv_timeout(Duration::from_secs(5)).unwrap(),
            b"trickled frame"
        );
        let _raw = writer.join().unwrap();
    }

    #[test]
    fn frames_from_one_write_arrive_in_order() {
        let (server, mut raw) = raw_pair();
        let burst: Vec<u8> = (0..100u32)
            .flat_map(|i| wire(&i.to_le_bytes().repeat(1 + i as usize % 5)))
            .collect();
        raw.write_all(&burst).unwrap();
        for i in 0..100u32 {
            assert_eq!(
                server.recv_timeout(Duration::from_secs(2)).unwrap(),
                i.to_le_bytes().repeat(1 + i as usize % 5)
            );
        }
    }

    #[test]
    fn partial_frame_survives_a_timeout() {
        let (server, mut raw) = raw_pair();
        let bytes = wire(&[0x3cu8; 64]);
        raw.write_all(&bytes[..30]).unwrap();
        assert_eq!(
            server.recv_timeout(Duration::from_millis(50)),
            Err(TransportError::Timeout)
        );
        raw.write_all(&bytes[30..]).unwrap();
        assert_eq!(server.recv().unwrap(), vec![0x3cu8; 64]);
    }

    #[test]
    fn zero_timeout_takes_a_waiting_frame_or_times_out() {
        let (server, mut raw) = raw_pair();
        assert_eq!(
            server.recv_timeout(Duration::ZERO),
            Err(TransportError::Timeout)
        );
        raw.write_all(&wire(b"waiting")).unwrap();
        // Loopback delivery is immediate; the pause only makes sure.
        std::thread::sleep(Duration::from_millis(100));
        assert_eq!(server.recv_timeout(Duration::ZERO).unwrap(), b"waiting");
        // A frame already in the receive buffer is served without a read.
        raw.write_all(&[wire(b"first"), wire(b"second")].concat())
            .unwrap();
        assert_eq!(server.recv().unwrap(), b"first");
        assert_eq!(server.recv_timeout(Duration::ZERO).unwrap(), b"second");
        assert_eq!(
            server.recv_timeout(Duration::ZERO),
            Err(TransportError::Timeout)
        );
    }

    #[test]
    fn large_frame_then_small_frames() {
        let (server, mut raw) = raw_pair();
        let big: Vec<u8> = (0..1u32 << 20).map(|i| i as u8).collect();
        let mut bytes = wire(&big);
        for i in 0..10u8 {
            bytes.extend(wire(&[i; 3]));
        }
        let writer = std::thread::spawn(move || raw.write_all(&bytes).map(|()| raw));
        assert_eq!(server.recv_timeout(Duration::from_secs(5)).unwrap(), big);
        for i in 0..10u8 {
            assert_eq!(server.recv_timeout(Duration::from_secs(2)).unwrap(), [i; 3]);
        }
        let _raw = writer.join().unwrap().unwrap();
    }

    #[test]
    fn read_buffer_grows_with_the_bytes_that_arrive() {
        let buf_len = |reader: &TcpReader| {
            let state = reader.0.lock();
            (state.buf.len(), state.buf.capacity())
        };
        // A prefix announcing the largest legal frame, and nothing
        // else: the buffer keeps its initial size however often the
        // receive times out.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut raw = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let reader = TcpReader::new(listener.accept().unwrap().0);
        raw.write_all(&(MAX_FRAME_LEN as u32).to_be_bytes())
            .unwrap();
        for _ in 0..5 {
            assert_eq!(
                reader.read_frame(Some(Duration::from_millis(20)), |_| ()),
                Err(TransportError::Timeout)
            );
            let (len, capacity) = buf_len(&reader);
            assert!(
                len <= 8 * 1024 && capacity <= 8 * 1024,
                "{len} / {capacity} bytes"
            );
        }
        // A 1 MiB frame grows it; handing the frame out shrinks it back.
        let mut raw = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let reader = TcpReader::new(listener.accept().unwrap().0);
        let big: Vec<u8> = (0..1u32 << 20).map(|i| i as u8).collect();
        let bytes = [wire(&big), wire(b"small")].concat();
        let writer = std::thread::spawn(move || raw.write_all(&bytes).map(|()| raw));
        let timeout = Some(Duration::from_secs(5));
        assert_eq!(
            reader.read_frame(timeout, |frame| frame.to_vec()).unwrap(),
            big
        );
        assert_eq!(buf_len(&reader), (RECV_BUF_INITIAL, RECV_BUF_INITIAL));
        assert_eq!(
            reader.read_frame(timeout, |frame| frame.to_vec()).unwrap(),
            b"small"
        );
        let _raw = writer.join().unwrap().unwrap();
    }

    #[test]
    fn close_ends_receives_at_both_ends() {
        let (server, client) = pair();
        let reading = std::thread::spawn(move || (server.recv(), server));
        std::thread::sleep(Duration::from_millis(50));
        client.sender().close();
        let (received, _server) = reading.join().unwrap();
        assert_eq!(received, Err(TransportError::Closed));
        assert_eq!(client.recv(), Err(TransportError::Closed));
        assert_eq!(client.send(b"after"), Err(TransportError::Closed));
        client.sender().close();
    }

    #[test]
    fn eof_inside_a_frame_is_a_close() {
        let (server, mut raw) = raw_pair();
        raw.write_all(&wire(b"whole")).unwrap();
        raw.write_all(&wire(b"cut short")[..7]).unwrap();
        drop(raw);
        assert_eq!(server.recv().unwrap(), b"whole");
        assert_eq!(server.recv(), Err(TransportError::Closed));
        assert_eq!(
            server.recv_timeout(Duration::from_secs(1)),
            Err(TransportError::Closed)
        );
    }

    #[test]
    fn recv_with_lends_the_frame_in_place() {
        let (server, client) = pair();
        client.send(b"lent").unwrap();
        client.send(b"next").unwrap();
        let len = server
            .recv_with(None, |frame| {
                assert_eq!(frame, b"lent");
                frame[0] = b'L';
                frame.len()
            })
            .unwrap();
        assert_eq!(len, 4);
        assert_eq!(server.recv().unwrap(), b"next");
        assert_eq!(
            server.recv_with(Some(Duration::from_millis(20)), |frame| frame.len()),
            Err(TransportError::Timeout)
        );
    }

    #[test]
    fn frames_round_trip() {
        let (server, client) = pair();
        client.send(b"hello broker").unwrap();
        assert_eq!(
            server.recv_timeout(Duration::from_secs(2)).unwrap(),
            b"hello broker"
        );
        server.send(b"hello entity").unwrap();
        assert_eq!(
            client.recv_timeout(Duration::from_secs(2)).unwrap(),
            b"hello entity"
        );
    }

    #[test]
    fn framing_preserves_boundaries() {
        let (server, client) = pair();
        for i in 0..50u32 {
            client.send(&vec![i as u8; (i as usize % 7) + 1]).unwrap();
        }
        for i in 0..50u32 {
            let frame = server.recv_timeout(Duration::from_secs(2)).unwrap();
            assert_eq!(frame, vec![i as u8; (i as usize % 7) + 1]);
        }
    }

    #[test]
    fn empty_frames_are_legal() {
        let (server, client) = pair();
        client.send(b"").unwrap();
        assert_eq!(server.recv_timeout(Duration::from_secs(2)).unwrap(), b"");
    }

    #[test]
    fn large_frames_round_trip() {
        let (server, client) = pair();
        let big = vec![0xa7u8; 1 << 20]; // 1 MiB
        client.send(&big).unwrap();
        assert_eq!(server.recv_timeout(Duration::from_secs(5)).unwrap(), big);
    }

    #[test]
    fn peer_close_is_visible() {
        let (server, client) = pair();
        drop(client);
        assert_eq!(
            server.recv_timeout(Duration::from_secs(2)),
            Err(TransportError::Closed)
        );
    }

    #[test]
    fn oversized_wire_frame_surfaces_typed_error() {
        // A peer that announces a frame bigger than the protocol
        // ceiling must not look like a clean close: `recv` reads the
        // length prefix, counts the frame and reports FrameTooLarge.
        let listener = TcpTransportListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let before = nb_metrics::global()
            .counter("transport.frame.oversized")
            .get();
        let raw = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            let bogus_len = (MAX_FRAME_LEN as u32 + 1).to_be_bytes();
            s.write_all(&bogus_len).unwrap();
            s
        });
        let server = listener.accept().unwrap();
        let _raw = raw.join().unwrap();
        let err = server.recv_timeout(Duration::from_secs(2)).unwrap_err();
        assert_eq!(
            err,
            TransportError::FrameTooLarge {
                size: MAX_FRAME_LEN + 1,
                max: MAX_FRAME_LEN
            }
        );
        // The counter observed the event too.
        assert!(
            nb_metrics::global()
                .counter("transport.frame.oversized")
                .get()
                > before
        );
        // The reason sticks: later receives report it again, and the
        // frame is counted once.
        assert_eq!(
            server.recv(),
            Err(TransportError::FrameTooLarge {
                size: MAX_FRAME_LEN + 1,
                max: MAX_FRAME_LEN
            })
        );
        assert_eq!(
            nb_metrics::global()
                .counter("transport.frame.oversized")
                .get()
                - before,
            1
        );
    }

    #[test]
    fn write_error_poisons_the_sender() {
        let (server, client) = pair();
        drop(server);
        // Writing into a closed peer: the first writes land in the
        // kernel buffer, but once the RST comes back a write fails.
        let mut saw_error = false;
        for _ in 0..10_000 {
            match client.send(&[0x5au8; 1024]) {
                Ok(()) => std::thread::sleep(Duration::from_millis(1)),
                Err(TransportError::Closed) => {
                    // Already poisoned by an earlier failure — also fine.
                    saw_error = true;
                    break;
                }
                Err(_) => {
                    saw_error = true;
                    break;
                }
            }
        }
        assert!(saw_error, "writes into a dead peer never failed");
        // Poisoned: every subsequent send fails fast with Closed, so a
        // partially written frame can never be followed by another.
        assert_eq!(client.send(b"after"), Err(TransportError::Closed));
        assert_eq!(client.send(b"again"), Err(TransportError::Closed));
    }

    /// Serializes the tests that stall a send: each counts its own
    /// increment of the process-wide `transport.write.stalled`.
    static STALL_TESTS: Mutex<()> = Mutex::new(());

    #[test]
    fn stalled_write_gives_the_link_up() {
        let _serial = STALL_TESTS.lock();
        // The peer never reads: once both socket buffers are full a
        // send makes no progress, and after the stall limit it fails
        // like any write error.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut raw = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        let client = endpoint_with_stall(stream, Duration::from_millis(200)).unwrap();
        let stalled = || {
            nb_metrics::global()
                .counter("transport.write.stalled")
                .get()
        };
        let before = stalled();
        let frame = vec![0x77u8; 64 * 1024];
        let mut sent = 0;
        let err = loop {
            match client.send(&frame) {
                Ok(()) => sent += 1,
                Err(e) => break e,
            }
            assert!(
                sent < 100_000,
                "sends into a peer that never reads never stalled"
            );
        };
        assert!(
            matches!(&err, TransportError::Io(e) if e.kind() == ErrorKind::WouldBlock
                || e.kind() == ErrorKind::TimedOut),
            "unexpected error {err:?}"
        );
        assert_eq!(stalled() - before, 1);
        // Poisoned and shut down: later sends fail fast, and both ends
        // read a close.
        assert_eq!(client.send(b"after"), Err(TransportError::Closed));
        assert_eq!(
            client.recv_timeout(Duration::from_secs(2)),
            Err(TransportError::Closed)
        );
        raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut drained = Vec::new();
        raw.read_to_end(&mut drained).unwrap();
        assert!(drained.len() >= sent * frame.len());
    }

    #[test]
    fn a_send_the_peer_reads_too_slowly_gives_the_link_up() {
        let _serial = STALL_TESTS.lock();
        // The peer reads, but only a trickle: each write makes some
        // progress, yet the whole frame would take seconds. The stall
        // limit bounds the send, not each write.
        let stall = Duration::from_millis(300);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut raw = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        let client = endpoint_with_stall(stream, stall).unwrap();
        let stalled = || {
            nb_metrics::global()
                .counter("transport.write.stalled")
                .get()
        };
        let before = stalled();
        let done = Arc::new(AtomicBool::new(false));
        let trickling = Arc::clone(&done);
        let trickle = std::thread::spawn(move || {
            let mut slice = [0u8; 4096];
            while !trickling.load(Ordering::Relaxed) && raw.read(&mut slice).is_ok_and(|n| n > 0) {
                std::thread::sleep(Duration::from_millis(2));
            }
        });
        // The first frame fits in the socket buffers; a later one has
        // to wait for the trickle.
        let frame = vec![0x33u8; 3 << 20];
        let mut sent = 0;
        let outcome = loop {
            let began = Instant::now();
            let outcome = client.send(&frame);
            let took = began.elapsed();
            assert!(
                took < 2 * stall,
                "send {sent} took {took:?} (stall limit {stall:?})"
            );
            if outcome.is_err() || sent == 3 {
                break outcome;
            }
            sent += 1;
        };
        done.store(true, Ordering::Relaxed);
        assert!(
            outcome.is_err(),
            "every send into a trickling peer succeeded"
        );
        assert_eq!(stalled() - before, 1);
        // Given up through the usual path: poisoned and shut down.
        assert_eq!(client.send(b"after"), Err(TransportError::Closed));
        trickle.join().unwrap();
    }

    #[test]
    fn batched_writes_account_every_frame() {
        let (server, client) = pair();
        let writes0 = nb_metrics::global().counter("transport.batch.writes").get();
        let frames0 = nb_metrics::global().counter("transport.batch.frames").get();
        let sender = client.sender();
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let tx = Arc::clone(&sender);
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        tx.send_frame(&[t as u8; 64]).unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        for _ in 0..400 {
            server.recv_timeout(Duration::from_secs(2)).unwrap();
        }
        let writes = nb_metrics::global().counter("transport.batch.writes").get() - writes0;
        let frames = nb_metrics::global().counter("transport.batch.frames").get() - frames0;
        // Every frame is accounted, in no more syscalls than frames
        // (the counters are process-global, so other tests may add to
        // them — the invariant still holds for the deltas).
        assert!(frames >= 400, "frames {frames}");
        assert!(writes <= frames, "writes {writes} > frames {frames}");
    }

    #[test]
    fn concurrent_senders_do_not_interleave() {
        let (server, client) = pair();
        let sender = client.sender();
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let tx = Arc::clone(&sender);
                std::thread::spawn(move || {
                    for i in 0..50 {
                        let frame = vec![t as u8; 100 + i % 10];
                        tx.send_frame(&frame).unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        // Every frame must be homogeneous — interleaving would mix bytes.
        for _ in 0..200 {
            let frame = server.recv_timeout(Duration::from_secs(2)).unwrap();
            assert!(frame.iter().all(|&b| b == frame[0]));
            assert!((100..110).contains(&frame.len()));
        }
    }
}

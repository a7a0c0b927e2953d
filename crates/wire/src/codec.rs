//! Minimal binary codec: length-prefixed, big-endian, LEB128 varints.
//!
//! Every structure that crosses a link implements [`Encode`] and
//! [`Decode`]. The format is deliberately simple — fixed-width
//! integers for protocol fields, varints for lengths — so that a
//! decoder can enforce strict bounds and reject malformed input
//! without allocation blow-ups (lengths are capped at
//! [`MAX_CHUNK_LEN`]).

use crate::error::WireError;
use crate::Result;
use nb_crypto::Uuid;

/// Upper bound on any single length-prefixed chunk (16 MiB). Protects
/// decoders from hostile length prefixes.
pub const MAX_CHUNK_LEN: usize = 16 * 1024 * 1024;

/// Serialization sink.
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a writer with reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Writer {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends a single byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a big-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends an `f64` (IEEE-754 bits, big-endian).
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_be_bytes());
    }

    /// Appends a boolean as one byte.
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Appends an unsigned LEB128 varint.
    pub fn put_varint(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(byte);
                return;
            }
            self.buf.push(byte | 0x80);
        }
    }

    /// Appends a varint-length-prefixed byte slice.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_varint(bytes.len() as u64);
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a varint-length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_bytes(s.as_bytes());
    }

    /// Appends a 16-byte UUID.
    pub fn put_uuid(&mut self, u: &Uuid) {
        self.buf.extend_from_slice(u.as_bytes());
    }

    /// Appends an `Option<T>` via a presence byte.
    pub fn put_option<T>(&mut self, v: &Option<T>, mut f: impl FnMut(&mut Self, &T)) {
        match v {
            None => self.put_u8(0),
            Some(inner) => {
                self.put_u8(1);
                f(self, inner);
            }
        }
    }

    /// Appends a sequence with a varint count prefix.
    pub fn put_seq<T>(&mut self, items: &[T], mut f: impl FnMut(&mut Self, &T)) {
        self.put_varint(items.len() as u64);
        for item in items {
            f(self, item);
        }
    }

    /// Reserves four bytes for a big-endian `u32` to be patched in
    /// later with [`Writer::patch_u32`], returning the reservation
    /// offset. Used for length prefixes whose value is only known
    /// after the prefixed content has been written.
    pub fn reserve_u32(&mut self) -> usize {
        let at = self.buf.len();
        self.buf.extend_from_slice(&[0u8; 4]);
        at
    }

    /// Overwrites a four-byte reservation made by
    /// [`Writer::reserve_u32`] with a big-endian `u32`.
    ///
    /// # Panics
    /// Panics if `at` does not address four already-written bytes.
    pub fn patch_u32(&mut self, at: usize, v: u32) {
        self.buf[at..at + 4].copy_from_slice(&v.to_be_bytes());
    }

    /// Current encoded length.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// Deserialization cursor over a byte slice.
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Wraps a byte slice.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf }
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// Fails unless the reader is fully consumed.
    pub fn expect_end(&self, what: &'static str) -> Result<()> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(WireError::TrailingBytes(what))
        }
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8]> {
        if self.buf.len() < n {
            return Err(WireError::Truncated(what));
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Reads a big-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32> {
        Ok(u32::from_be_bytes(self.take(4, "u32")?.try_into().unwrap()))
    }

    /// Reads a big-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64> {
        Ok(u64::from_be_bytes(self.take(8, "u64")?.try_into().unwrap()))
    }

    /// Reads an `f64`.
    pub fn get_f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(u64::from_be_bytes(
            self.take(8, "f64")?.try_into().unwrap(),
        )))
    }

    /// Reads a boolean byte (strict: must be 0 or 1).
    pub fn get_bool(&mut self) -> Result<bool> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(WireError::UnknownTag { what: "bool", tag }),
        }
    }

    /// Reads an unsigned LEB128 varint (max 10 bytes).
    pub fn get_varint(&mut self) -> Result<u64> {
        let mut value = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.get_u8()?;
            if shift >= 64 {
                return Err(WireError::LengthOverflow("varint"));
            }
            value |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
            shift += 7;
        }
    }

    /// Reads a varint-length-prefixed byte slice.
    pub fn get_bytes(&mut self) -> Result<Vec<u8>> {
        Ok(self.get_bytes_ref()?.to_vec())
    }

    /// Reads a varint-length-prefixed byte slice without copying: the
    /// returned slice borrows from the underlying buffer. This is the
    /// allocation-free primitive the zero-copy [`crate::view`] parsers
    /// are built on.
    pub fn get_bytes_ref(&mut self) -> Result<&'a [u8]> {
        let len = self.get_varint()? as usize;
        if len > MAX_CHUNK_LEN {
            return Err(WireError::LengthOverflow("bytes"));
        }
        self.take(len, "bytes body")
    }

    /// Reads a varint-length-prefixed UTF-8 string without copying.
    pub fn get_str_ref(&mut self) -> Result<&'a str> {
        std::str::from_utf8(self.get_bytes_ref()?).map_err(|_| WireError::BadUtf8("string"))
    }

    /// Reads exactly `n` raw bytes as a borrowed slice (no length
    /// prefix, no copy). `what` labels truncation errors.
    pub fn get_exact(&mut self, n: usize, what: &'static str) -> Result<&'a [u8]> {
        self.take(n, what)
    }

    /// Reads a varint-length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String> {
        Ok(self.get_str_ref()?.to_string())
    }

    /// Reads a 16-byte UUID.
    pub fn get_uuid(&mut self) -> Result<Uuid> {
        let bytes: [u8; 16] = self.take(16, "uuid")?.try_into().unwrap();
        Ok(Uuid::from_bytes(bytes))
    }

    /// Reads an `Option<T>` via a presence byte.
    pub fn get_option<T>(
        &mut self,
        mut f: impl FnMut(&mut Self) -> Result<T>,
    ) -> Result<Option<T>> {
        match self.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(f(self)?)),
            tag => Err(WireError::UnknownTag {
                what: "option",
                tag,
            }),
        }
    }

    /// Reads a varint-counted sequence.
    pub fn get_seq<T>(&mut self, mut f: impl FnMut(&mut Self) -> Result<T>) -> Result<Vec<T>> {
        let count = self.get_varint()? as usize;
        if count > MAX_CHUNK_LEN {
            return Err(WireError::LengthOverflow("sequence"));
        }
        let mut out = Vec::with_capacity(count.min(4096));
        for _ in 0..count {
            out.push(f(self)?);
        }
        Ok(out)
    }
}

/// Types that serialize to the wire format.
pub trait Encode {
    /// Writes `self` into the writer.
    fn encode(&self, w: &mut Writer);

    /// Convenience: encode to a fresh byte vector.
    fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.encode(&mut w);
        w.into_bytes()
    }
}

/// Types that deserialize from the wire format.
pub trait Decode: Sized {
    /// Reads a value from the reader.
    fn decode(r: &mut Reader<'_>) -> Result<Self>;

    /// Convenience: decode from a complete byte slice, requiring full
    /// consumption.
    fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let mut r = Reader::new(bytes);
        let v = Self::decode(&mut r)?;
        r.expect_end("structure")?;
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        let mut w = Writer::new();
        w.put_u8(0xab);
        w.put_u32(0xdeadbeef);
        w.put_u64(0x0123456789abcdef);
        w.put_f64(1.5);
        w.put_bool(true);
        w.put_bool(false);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 0xab);
        assert_eq!(r.get_u32().unwrap(), 0xdeadbeef);
        assert_eq!(r.get_u64().unwrap(), 0x0123456789abcdef);
        assert_eq!(r.get_f64().unwrap(), 1.5);
        assert!(r.get_bool().unwrap());
        assert!(!r.get_bool().unwrap());
        r.expect_end("test").unwrap();
    }

    #[test]
    fn varint_round_trips() {
        for v in [0u64, 1, 127, 128, 300, 16384, u32::MAX as u64, u64::MAX] {
            let mut w = Writer::new();
            w.put_varint(v);
            let bytes = w.into_bytes();
            let mut r = Reader::new(&bytes);
            assert_eq!(r.get_varint().unwrap(), v, "v={v}");
            r.expect_end("varint").unwrap();
        }
    }

    #[test]
    fn varint_encoding_is_minimal_for_small_values() {
        let mut w = Writer::new();
        w.put_varint(5);
        assert_eq!(w.into_bytes(), vec![5]);
        let mut w = Writer::new();
        w.put_varint(300);
        assert_eq!(w.into_bytes(), vec![0xac, 0x02]);
    }

    #[test]
    fn bytes_and_strings() {
        let mut w = Writer::new();
        w.put_bytes(b"hello");
        w.put_str("Availability/Traces/entity-1");
        w.put_bytes(b"");
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_bytes().unwrap(), b"hello");
        assert_eq!(r.get_str().unwrap(), "Availability/Traces/entity-1");
        assert_eq!(r.get_bytes().unwrap(), b"");
    }

    #[test]
    fn options_and_sequences() {
        let mut w = Writer::new();
        w.put_option(&Some(42u64), |w, v| w.put_u64(*v));
        w.put_option(&None::<u64>, |w, v| w.put_u64(*v));
        w.put_seq(&[1u32, 2, 3], |w, v| w.put_u32(*v));
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_option(|r| r.get_u64()).unwrap(), Some(42));
        assert_eq!(r.get_option(|r| r.get_u64()).unwrap(), None);
        assert_eq!(r.get_seq(|r| r.get_u32()).unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn truncated_input_is_rejected() {
        let mut w = Writer::new();
        w.put_u64(7);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes[..4]);
        assert_eq!(r.get_u64(), Err(WireError::Truncated("u64")));
    }

    #[test]
    fn hostile_length_prefix_rejected() {
        let mut w = Writer::new();
        w.put_varint(u64::MAX); // absurd length
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(matches!(r.get_bytes(), Err(WireError::LengthOverflow(_))));
    }

    #[test]
    fn overlong_varint_rejected() {
        let bytes = [0xffu8; 11];
        let mut r = Reader::new(&bytes);
        assert!(matches!(r.get_varint(), Err(WireError::LengthOverflow(_))));
    }

    #[test]
    fn strict_bool_rejects_other_bytes() {
        let mut r = Reader::new(&[2u8]);
        assert!(matches!(r.get_bool(), Err(WireError::UnknownTag { .. })));
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut w = Writer::new();
        w.put_bytes(&[0xff, 0xfe]);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_str(), Err(WireError::BadUtf8("string")));
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut r = Reader::new(&[1, 2, 3]);
        let _ = r.get_u8().unwrap();
        assert!(r.expect_end("x").is_err());
    }
}

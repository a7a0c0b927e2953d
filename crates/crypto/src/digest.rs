//! Common trait for streaming message digests.

use crate::error::CryptoError;
use crate::sha1::Sha1;
use crate::sha256::Sha256;

/// A streaming message digest (Merkle–Damgård construction).
pub trait Digest: Default + Clone {
    /// Output size in bytes.
    const OUTPUT_LEN: usize;
    /// Internal block size in bytes (needed by HMAC).
    const BLOCK_LEN: usize;

    /// Absorbs `data` into the state.
    fn update(&mut self, data: &[u8]);

    /// Consumes the digest and writes the final hash into `out`, which
    /// must be [`Digest::OUTPUT_LEN`] bytes long. Touches no heap.
    fn finalize_into(self, out: &mut [u8]);

    /// Consumes the digest and produces the final hash.
    fn finalize(self) -> Vec<u8> {
        let mut out = vec![0; Self::OUTPUT_LEN];
        self.finalize_into(&mut out);
        out
    }

    /// One-shot convenience: hash `data` in a single call.
    fn digest(data: &[u8]) -> Vec<u8> {
        let mut d = Self::default();
        d.update(data);
        d.finalize()
    }
}

/// Writes the Merkle–Damgård suffix of a `len`-byte message into
/// `pad`: `0x80`, zeros up to 56 mod 64, then the bit length as a
/// big-endian `u64`. Returns the suffix length (9 to 72 bytes).
pub(crate) fn md_padding(len: u64, pad: &mut [u8; 72]) -> usize {
    let rem = (len % 64 + 1) as usize;
    let zeros = if rem <= 56 { 56 - rem } else { 120 - rem };
    pad[0] = 0x80;
    pad[1..=zeros].fill(0);
    pad[1 + zeros..9 + zeros].copy_from_slice(&len.wrapping_mul(8).to_be_bytes());
    9 + zeros
}

/// Runtime-selectable digest algorithm identifier, used in wire
/// messages and certificates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DigestAlgorithm {
    /// SHA-1 (160-bit). The paper's signing benchmarks use
    /// 1024-bit RSA with 160-bit SHA-1.
    Sha1,
    /// SHA-256 (256-bit). Used for certificates in this reproduction.
    Sha256,
}

impl DigestAlgorithm {
    /// Hashes `data` with the selected algorithm.
    pub fn digest(self, data: &[u8]) -> Vec<u8> {
        match self {
            DigestAlgorithm::Sha1 => Sha1::digest(data),
            DigestAlgorithm::Sha256 => Sha256::digest(data),
        }
    }

    /// Stable single-byte identifier for wire encoding.
    pub fn wire_id(self) -> u8 {
        match self {
            DigestAlgorithm::Sha1 => 1,
            DigestAlgorithm::Sha256 => 2,
        }
    }

    /// Inverse of [`DigestAlgorithm::wire_id`].
    pub fn from_wire_id(id: u8) -> Result<Self, CryptoError> {
        match id {
            1 => Ok(DigestAlgorithm::Sha1),
            2 => Ok(DigestAlgorithm::Sha256),
            other => Err(CryptoError::UnsupportedAlgorithm(other)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_id_round_trip() {
        for alg in [DigestAlgorithm::Sha1, DigestAlgorithm::Sha256] {
            assert_eq!(DigestAlgorithm::from_wire_id(alg.wire_id()).unwrap(), alg);
        }
        assert!(DigestAlgorithm::from_wire_id(0).is_err());
        assert!(DigestAlgorithm::from_wire_id(99).is_err());
    }
}

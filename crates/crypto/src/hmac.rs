//! HMAC (RFC 2104), generic over any [`Digest`].
//!
//! Used by the tracing layer for keyed integrity on the
//! symmetric-key signing optimization (paper §6.3): once an entity and
//! its hosting broker share a secret key, per-message RSA signatures
//! are replaced by cheap symmetric authentication.

use crate::digest::Digest;
use std::fmt;

/// Largest block and output of the crate's digests (SHA-1, SHA-256).
const MAX_BLOCK_LEN: usize = 64;
const MAX_OUTPUT_LEN: usize = 32;

/// An HMAC key, absorbed once: the digest states after the inner
/// (`key ⊕ ipad`) and outer (`key ⊕ opad`) key blocks. Each MAC
/// starts from copies of these midstates, so it hashes the key no
/// more and touches no heap.
#[derive(Clone)]
pub struct Hmac<D: Digest> {
    inner: D,
    outer: D,
}

impl<D: Digest> Hmac<D> {
    /// Absorbs `key`, hashed first when it is longer than a block.
    pub fn new(key: &[u8]) -> Self {
        let mut block = [0u8; MAX_BLOCK_LEN];
        let block = &mut block[..D::BLOCK_LEN];
        if key.len() > D::BLOCK_LEN {
            let mut hashed = D::default();
            hashed.update(key);
            hashed.finalize_into(&mut block[..D::OUTPUT_LEN]);
        } else {
            block[..key.len()].copy_from_slice(key);
        }
        let mut inner = D::default();
        block.iter_mut().for_each(|b| *b ^= 0x36);
        inner.update(block);
        let mut outer = D::default();
        block.iter_mut().for_each(|b| *b ^= 0x36 ^ 0x5c);
        outer.update(block);
        Hmac { inner, outer }
    }

    /// A digest primed with the inner key block: absorb the message
    /// into it, then pass it to [`Hmac::finish`].
    pub fn begin(&self) -> D {
        self.inner.clone()
    }

    /// Writes the MAC of the message absorbed into `inner` (from
    /// [`Hmac::begin`]) into `out`, which must be
    /// [`Digest::OUTPUT_LEN`] bytes long.
    pub fn finish(&self, inner: D, out: &mut [u8]) {
        let mut inner_hash = [0u8; MAX_OUTPUT_LEN];
        let inner_hash = &mut inner_hash[..D::OUTPUT_LEN];
        inner.finalize_into(inner_hash);
        let mut outer = self.outer.clone();
        outer.update(inner_hash);
        outer.finalize_into(out);
    }
}

impl<D: Digest> fmt::Debug for Hmac<D> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Hmac(..)")
    }
}

/// Computes `HMAC(key, message)` with digest `D`.
pub fn hmac<D: Digest>(key: &[u8], message: &[u8]) -> Vec<u8> {
    hmac_parts::<D>(key, &[message])
}

/// Computes `HMAC(key, parts[0] ‖ parts[1] ‖ …)` with digest `D` —
/// identical to [`hmac`] over the concatenation, without requiring the
/// caller to materialize it. The broker's zero-copy fast path feeds
/// the signable region of a frame as two borrowed slices.
pub fn hmac_parts<D: Digest>(key: &[u8], parts: &[&[u8]]) -> Vec<u8> {
    let key = Hmac::<D>::new(key);
    let mut inner = key.begin();
    for part in parts {
        inner.update(part);
    }
    let mut out = vec![0; D::OUTPUT_LEN];
    key.finish(inner, &mut out);
    out
}

/// Constant-time byte-slice equality: length check, then an
/// XOR-accumulate pass with no early exit on content differences.
///
/// This is the single comparison routine for all secret-dependent
/// equality in the crate — MAC verification ([`verify_mac`]) and
/// RSA signature verification (`RsaPublicKey::verify` compares the
/// recovered encoded message through it) both route here, so neither
/// leaks match-prefix length through timing.
pub fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut diff = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        diff |= x ^ y;
    }
    diff == 0
}

/// Constant-time byte-slice equality for MAC verification.
///
/// Returns `false` for length mismatches without early exit on
/// content differences.
pub fn verify_mac(expected: &[u8], actual: &[u8]) -> bool {
    ct_eq(expected, actual)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha1::Sha1;
    use crate::sha256::Sha256;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn rfc2202_hmac_sha1_case1() {
        let key = [0x0bu8; 20];
        assert_eq!(
            hex(&hmac::<Sha1>(&key, b"Hi There")),
            "b617318655057264e28bc0b6fb378c8ef146be00"
        );
    }

    #[test]
    fn rfc2202_hmac_sha1_case2() {
        assert_eq!(
            hex(&hmac::<Sha1>(b"Jefe", b"what do ya want for nothing?")),
            "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79"
        );
    }

    #[test]
    fn rfc4231_hmac_sha256_case1() {
        let key = [0x0bu8; 20];
        assert_eq!(
            hex(&hmac::<Sha256>(&key, b"Hi There")),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_hmac_sha256_case2() {
        assert_eq!(
            hex(&hmac::<Sha256>(b"Jefe", b"what do ya want for nothing?")),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_long_key_is_hashed_first() {
        // Test case 6: 131-byte key forces the key-hashing branch.
        let key = [0xaau8; 131];
        assert_eq!(
            hex(&hmac::<Sha256>(
                &key,
                b"Test Using Larger Than Block-Size Key - Hash Key First"
            )),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn different_keys_produce_different_macs() {
        let m1 = hmac::<Sha256>(b"key-a", b"payload");
        let m2 = hmac::<Sha256>(b"key-b", b"payload");
        assert_ne!(m1, m2);
    }

    #[test]
    fn verify_mac_semantics() {
        let mac = hmac::<Sha256>(b"k", b"m");
        assert!(verify_mac(&mac, &mac));
        let mut tampered = mac.clone();
        tampered[0] ^= 1;
        assert!(!verify_mac(&mac, &tampered));
        assert!(!verify_mac(&mac, &mac[..31]));
    }

    #[test]
    fn hmac_parts_equals_hmac_over_concatenation() {
        let key = b"session-secret";
        let whole = b"abcdef0123456789";
        let concat = hmac::<Sha256>(key, whole);
        for split in [0usize, 1, 7, whole.len()] {
            let (a, b) = whole.split_at(split);
            assert_eq!(hmac_parts::<Sha256>(key, &[a, b]), concat);
        }
        assert_eq!(
            hmac_parts::<Sha256>(key, &[&whole[..3], &whole[3..9], &whole[9..], b""]),
            concat
        );
        assert_eq!(hmac_parts::<Sha1>(key, &[whole]), hmac::<Sha1>(key, whole));
    }

    #[test]
    fn ct_eq_semantics() {
        assert!(ct_eq(b"", b""));
        assert!(ct_eq(b"abc", b"abc"));
        assert!(!ct_eq(b"abc", b"abd"));
        assert!(!ct_eq(b"abc", b"ab"));
        // Differences anywhere in the slice are caught (no early exit
        // to observe, but semantics must hold at every position).
        let base = [0u8; 64];
        for i in 0..64 {
            let mut other = base;
            other[i] = 1;
            assert!(!ct_eq(&base, &other));
        }
    }
}

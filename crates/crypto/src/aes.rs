//! AES block cipher (FIPS 197) with 128-, 192-, and 256-bit keys.
//!
//! The paper's security layer encrypts traces with **192-bit AES
//! keys**; this module provides the block primitive and
//! [`crate::modes`] supplies CBC/CTR on top of it.

use crate::error::CryptoError;
use std::sync::OnceLock;

/// Forward S-box (FIPS 197, figure 7).
#[rustfmt::skip]
const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

/// Inverse S-box, derived from [`SBOX`] at first use (avoids a second
/// hand-typed table that could silently disagree with the forward one).
fn inv_sbox() -> &'static [u8; 256] {
    static INV: OnceLock<[u8; 256]> = OnceLock::new();
    INV.get_or_init(|| {
        let mut inv = [0u8; 256];
        for (i, &s) in SBOX.iter().enumerate() {
            inv[s as usize] = i as u8;
        }
        inv
    })
}

/// AES block size in bytes.
pub const BLOCK_SIZE: usize = 16;

/// Multiplication by `x` in GF(2^8) modulo the AES polynomial.
#[inline]
fn xtime(b: u8) -> u8 {
    (b << 1) ^ (((b >> 7) & 1) * 0x1b)
}

/// GF(2^8) multiplication (small, used only in InvMixColumns).
#[inline]
fn gmul(mut a: u8, mut b: u8) -> u8 {
    let mut p = 0u8;
    for _ in 0..8 {
        if b & 1 != 0 {
            p ^= a;
        }
        a = xtime(a);
        b >>= 1;
    }
    p
}

/// AES key size selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeySize {
    /// 128-bit key, 10 rounds.
    Aes128,
    /// 192-bit key, 12 rounds — the paper's trace-encryption choice.
    Aes192,
    /// 256-bit key, 14 rounds.
    Aes256,
}

impl KeySize {
    /// Key length in bytes.
    pub fn key_len(self) -> usize {
        match self {
            KeySize::Aes128 => 16,
            KeySize::Aes192 => 24,
            KeySize::Aes256 => 32,
        }
    }

    fn rounds(self) -> usize {
        match self {
            KeySize::Aes128 => 10,
            KeySize::Aes192 => 12,
            KeySize::Aes256 => 14,
        }
    }

    /// Picks the key size matching a raw key length.
    pub fn for_key(key: &[u8]) -> Result<Self, CryptoError> {
        match key.len() {
            16 => Ok(KeySize::Aes128),
            24 => Ok(KeySize::Aes192),
            32 => Ok(KeySize::Aes256),
            other => Err(CryptoError::InvalidLength {
                what: "AES key",
                expected: 24,
                actual: other,
            }),
        }
    }
}

/// An expanded AES key, ready to encrypt/decrypt 16-byte blocks.
#[derive(Clone)]
pub struct Aes {
    round_keys: Vec<[u8; 16]>,
    rounds: usize,
}

impl Aes {
    /// Expands `key` (16, 24 or 32 bytes).
    pub fn new(key: &[u8]) -> Result<Self, CryptoError> {
        let size = KeySize::for_key(key)?;
        let nk = key.len() / 4;
        let nr = size.rounds();
        let total_words = 4 * (nr + 1);
        let mut w = vec![[0u8; 4]; total_words];
        for (i, word) in w.iter_mut().take(nk).enumerate() {
            word.copy_from_slice(&key[4 * i..4 * i + 4]);
        }
        let mut rcon: u8 = 1;
        for i in nk..total_words {
            let mut temp = w[i - 1];
            if i % nk == 0 {
                temp.rotate_left(1);
                for b in &mut temp {
                    *b = SBOX[*b as usize];
                }
                temp[0] ^= rcon;
                rcon = xtime(rcon);
            } else if nk > 6 && i % nk == 4 {
                for b in &mut temp {
                    *b = SBOX[*b as usize];
                }
            }
            for j in 0..4 {
                w[i][j] = w[i - nk][j] ^ temp[j];
            }
        }
        let round_keys = w
            .chunks_exact(4)
            .map(|c| {
                let mut rk = [0u8; 16];
                for (j, word) in c.iter().enumerate() {
                    rk[4 * j..4 * j + 4].copy_from_slice(word);
                }
                rk
            })
            .collect();
        Ok(Aes {
            round_keys,
            rounds: nr,
        })
    }

    /// Encrypts one 16-byte block in place.
    pub fn encrypt_block(&self, block: &mut [u8; 16]) {
        add_round_key(block, &self.round_keys[0]);
        for round in 1..self.rounds {
            sub_bytes(block);
            shift_rows(block);
            mix_columns(block);
            add_round_key(block, &self.round_keys[round]);
        }
        sub_bytes(block);
        shift_rows(block);
        add_round_key(block, &self.round_keys[self.rounds]);
    }

    /// Decrypts one 16-byte block in place.
    pub fn decrypt_block(&self, block: &mut [u8; 16]) {
        add_round_key(block, &self.round_keys[self.rounds]);
        inv_shift_rows(block);
        inv_sub_bytes(block);
        for round in (1..self.rounds).rev() {
            add_round_key(block, &self.round_keys[round]);
            inv_mix_columns(block);
            inv_shift_rows(block);
            inv_sub_bytes(block);
        }
        add_round_key(block, &self.round_keys[0]);
    }
}

// State layout: byte index = 4*col + row (matches the FIPS input order).

fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
    for (s, k) in state.iter_mut().zip(rk.iter()) {
        *s ^= k;
    }
}

fn sub_bytes(state: &mut [u8; 16]) {
    for b in state.iter_mut() {
        *b = SBOX[*b as usize];
    }
}

fn inv_sub_bytes(state: &mut [u8; 16]) {
    let inv = inv_sbox();
    for b in state.iter_mut() {
        *b = inv[*b as usize];
    }
}

/// Row `r` rotates left by `r` positions across the four columns.
fn shift_rows(state: &mut [u8; 16]) {
    let orig = *state;
    for r in 1..4 {
        for c in 0..4 {
            state[4 * c + r] = orig[4 * ((c + r) % 4) + r];
        }
    }
}

fn inv_shift_rows(state: &mut [u8; 16]) {
    let orig = *state;
    for r in 1..4 {
        for c in 0..4 {
            state[4 * ((c + r) % 4) + r] = orig[4 * c + r];
        }
    }
}

fn mix_columns(state: &mut [u8; 16]) {
    for c in 0..4 {
        let col = &mut state[4 * c..4 * c + 4];
        let a0 = col[0];
        let a1 = col[1];
        let a2 = col[2];
        let a3 = col[3];
        let all = a0 ^ a1 ^ a2 ^ a3;
        col[0] = a0 ^ all ^ xtime(a0 ^ a1);
        col[1] = a1 ^ all ^ xtime(a1 ^ a2);
        col[2] = a2 ^ all ^ xtime(a2 ^ a3);
        col[3] = a3 ^ all ^ xtime(a3 ^ a0);
    }
}

fn inv_mix_columns(state: &mut [u8; 16]) {
    for c in 0..4 {
        let col = &mut state[4 * c..4 * c + 4];
        let a0 = col[0];
        let a1 = col[1];
        let a2 = col[2];
        let a3 = col[3];
        col[0] = gmul(a0, 0x0e) ^ gmul(a1, 0x0b) ^ gmul(a2, 0x0d) ^ gmul(a3, 0x09);
        col[1] = gmul(a0, 0x09) ^ gmul(a1, 0x0e) ^ gmul(a2, 0x0b) ^ gmul(a3, 0x0d);
        col[2] = gmul(a0, 0x0d) ^ gmul(a1, 0x09) ^ gmul(a2, 0x0e) ^ gmul(a3, 0x0b);
        col[3] = gmul(a0, 0x0b) ^ gmul(a1, 0x0d) ^ gmul(a2, 0x09) ^ gmul(a3, 0x0e);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    fn roundtrip(key_hex: &str, pt_hex: &str, ct_hex: &str) {
        let key = unhex(key_hex);
        let aes = Aes::new(&key).unwrap();
        let mut block: [u8; 16] = unhex(pt_hex).try_into().unwrap();
        aes.encrypt_block(&mut block);
        assert_eq!(block.to_vec(), unhex(ct_hex), "encrypt mismatch");
        aes.decrypt_block(&mut block);
        assert_eq!(block.to_vec(), unhex(pt_hex), "decrypt mismatch");
    }

    // FIPS 197, Appendix C known-answer vectors.
    #[test]
    fn fips197_aes128() {
        roundtrip(
            "000102030405060708090a0b0c0d0e0f",
            "00112233445566778899aabbccddeeff",
            "69c4e0d86a7b0430d8cdb78070b4c55a",
        );
    }

    #[test]
    fn fips197_aes192() {
        roundtrip(
            "000102030405060708090a0b0c0d0e0f1011121314151617",
            "00112233445566778899aabbccddeeff",
            "dda97ca4864cdfe06eaf70a0ec0d7191",
        );
    }

    #[test]
    fn fips197_aes256() {
        roundtrip(
            "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
            "00112233445566778899aabbccddeeff",
            "8ea2b7ca516745bfeafc49904b496089",
        );
    }

    // SP 800-38A ECB single-block vectors (different key shape).
    #[test]
    fn sp800_38a_ecb_aes128_block1() {
        roundtrip(
            "2b7e151628aed2a6abf7158809cf4f3c",
            "6bc1bee22e409f96e93d7e117393172a",
            "3ad77bb40d7a3660a89ecaf32466ef97",
        );
    }

    #[test]
    fn invalid_key_length_rejected() {
        assert!(Aes::new(&[0u8; 15]).is_err());
        assert!(Aes::new(&[0u8; 17]).is_err());
        assert!(Aes::new(&[0u8; 0]).is_err());
    }

    #[test]
    fn key_size_selection() {
        assert_eq!(KeySize::for_key(&[0; 16]).unwrap(), KeySize::Aes128);
        assert_eq!(KeySize::for_key(&[0; 24]).unwrap(), KeySize::Aes192);
        assert_eq!(KeySize::for_key(&[0; 32]).unwrap(), KeySize::Aes256);
        assert_eq!(KeySize::Aes192.key_len(), 24);
    }

    #[test]
    fn shift_rows_inverse_property() {
        let mut state: [u8; 16] = (0u8..16).collect::<Vec<_>>().try_into().unwrap();
        let orig = state;
        shift_rows(&mut state);
        assert_ne!(state, orig);
        inv_shift_rows(&mut state);
        assert_eq!(state, orig);
    }

    #[test]
    fn mix_columns_inverse_property() {
        let mut state: [u8; 16] = (100u8..116).collect::<Vec<_>>().try_into().unwrap();
        let orig = state;
        mix_columns(&mut state);
        inv_mix_columns(&mut state);
        assert_eq!(state, orig);
    }

    #[test]
    fn sbox_is_a_permutation() {
        let mut seen = [false; 256];
        for &b in SBOX.iter() {
            assert!(!seen[b as usize]);
            seen[b as usize] = true;
        }
        let inv = inv_sbox();
        for i in 0..=255u8 {
            assert_eq!(inv[SBOX[i as usize] as usize], i);
        }
    }

    #[test]
    fn every_key_size_round_trips_random_blocks() {
        for len in [16usize, 24, 32] {
            let key: Vec<u8> = (0..len as u8)
                .map(|i| i.wrapping_mul(37).wrapping_add(11))
                .collect();
            let aes = Aes::new(&key).unwrap();
            let mut block = [0xa5u8; 16];
            let orig = block;
            aes.encrypt_block(&mut block);
            assert_ne!(block, orig);
            aes.decrypt_block(&mut block);
            assert_eq!(block, orig);
        }
    }
}

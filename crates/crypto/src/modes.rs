//! Block-cipher modes of operation (NIST SP 800-38A): CBC and CTR.
//!
//! Trace messages in the reproduction are encrypted with AES-CBC plus
//! PKCS#7 padding by default (matching the paper's "encryption
//! algorithm and padding scheme" negotiation); CTR is provided for the
//! key-stream case.

use crate::aes::{Aes, BLOCK_SIZE};
use crate::error::CryptoError;
use crate::padding::{pkcs7_pad, pkcs7_unpadded_len};

/// Cipher mode selector carried in key-distribution payloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CipherMode {
    /// Cipher block chaining with PKCS#7 padding.
    Cbc,
    /// Counter mode (no padding required).
    Ctr,
}

impl CipherMode {
    /// Stable single-byte identifier for wire encoding.
    pub fn wire_id(self) -> u8 {
        match self {
            CipherMode::Cbc => 1,
            CipherMode::Ctr => 2,
        }
    }

    /// Inverse of [`CipherMode::wire_id`].
    pub fn from_wire_id(id: u8) -> Result<Self, CryptoError> {
        match id {
            1 => Ok(CipherMode::Cbc),
            2 => Ok(CipherMode::Ctr),
            other => Err(CryptoError::UnsupportedAlgorithm(other)),
        }
    }
}

/// Reads a 16-byte IV or nonce.
fn block_param(bytes: &[u8], what: &'static str) -> Result<[u8; BLOCK_SIZE], CryptoError> {
    bytes.try_into().map_err(|_| CryptoError::InvalidLength {
        what,
        expected: BLOCK_SIZE,
        actual: bytes.len(),
    })
}

fn xor_block(block: &mut [u8; BLOCK_SIZE], with: &[u8; BLOCK_SIZE]) {
    for (b, w) in block.iter_mut().zip(with) {
        *b ^= w;
    }
}

impl Aes {
    /// Encrypts with CBC + PKCS#7 under this key. `iv` must be 16
    /// bytes.
    pub fn cbc_encrypt(&self, iv: &[u8], plaintext: &[u8]) -> Result<Vec<u8>, CryptoError> {
        let _t = crate::instrument::AES_ENCRYPT_US.start_timer();
        let mut prev = block_param(iv, "CBC IV")?;
        let mut out = pkcs7_pad(plaintext, BLOCK_SIZE);
        for chunk in out.chunks_exact_mut(BLOCK_SIZE) {
            let block: &mut [u8; BLOCK_SIZE] = chunk.try_into().unwrap();
            xor_block(block, &prev);
            self.encrypt_block(block);
            prev = *block;
        }
        Ok(out)
    }

    /// Decrypts CBC + PKCS#7 under this key.
    pub fn cbc_decrypt(&self, iv: &[u8], ciphertext: &[u8]) -> Result<Vec<u8>, CryptoError> {
        let _t = crate::instrument::AES_DECRYPT_US.start_timer();
        let mut prev = block_param(iv, "CBC IV")?;
        if ciphertext.is_empty() || !ciphertext.len().is_multiple_of(BLOCK_SIZE) {
            return Err(CryptoError::InvalidLength {
                what: "CBC ciphertext",
                expected: BLOCK_SIZE,
                actual: ciphertext.len(),
            });
        }
        let mut out = ciphertext.to_vec();
        for chunk in out.chunks_exact_mut(BLOCK_SIZE) {
            let block: &mut [u8; BLOCK_SIZE] = chunk.try_into().unwrap();
            let cipher_block = *block;
            self.decrypt_block(block);
            xor_block(block, &prev);
            prev = cipher_block;
        }
        out.truncate(pkcs7_unpadded_len(&out, BLOCK_SIZE)?);
        Ok(out)
    }

    /// The CTR keystream transform under this key (encryption and
    /// decryption are the same operation). `nonce` must be 16 bytes;
    /// it is the first counter block, incremented as a big-endian
    /// integer (carry across all 16 bytes).
    pub fn ctr_transform(&self, nonce: &[u8], data: &[u8]) -> Result<Vec<u8>, CryptoError> {
        let _t = crate::instrument::AES_CTR_US.start_timer();
        let mut counter = block_param(nonce, "CTR nonce")?;
        let mut out = data.to_vec();
        for chunk in out.chunks_mut(BLOCK_SIZE) {
            let mut keystream = counter;
            self.encrypt_block(&mut keystream);
            for (d, k) in chunk.iter_mut().zip(keystream) {
                *d ^= k;
            }
            for byte in counter.iter_mut().rev() {
                let (v, overflow) = byte.overflowing_add(1);
                *byte = v;
                if !overflow {
                    break;
                }
            }
        }
        Ok(out)
    }
}

/// Encrypts with AES-CBC + PKCS#7 under the raw `key` (see
/// [`Aes::cbc_encrypt`]). `iv` must be 16 bytes.
pub fn cbc_encrypt(key: &[u8], iv: &[u8], plaintext: &[u8]) -> Result<Vec<u8>, CryptoError> {
    Aes::new(key)?.cbc_encrypt(iv, plaintext)
}

/// Decrypts AES-CBC + PKCS#7 under the raw `key` (see
/// [`Aes::cbc_decrypt`]).
pub fn cbc_decrypt(key: &[u8], iv: &[u8], ciphertext: &[u8]) -> Result<Vec<u8>, CryptoError> {
    Aes::new(key)?.cbc_decrypt(iv, ciphertext)
}

/// AES-CTR keystream transform under the raw `key` (see
/// [`Aes::ctr_transform`]). `nonce` must be 16 bytes.
pub fn ctr_transform(key: &[u8], nonce: &[u8], data: &[u8]) -> Result<Vec<u8>, CryptoError> {
    Aes::new(key)?.ctr_transform(nonce, data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    // SP 800-38A F.2.1: CBC-AES128 encrypt, first block.
    #[test]
    fn sp800_38a_cbc_aes128_first_block() {
        let key = unhex("2b7e151628aed2a6abf7158809cf4f3c");
        let iv = unhex("000102030405060708090a0b0c0d0e0f");
        let pt = unhex("6bc1bee22e409f96e93d7e117393172a");
        let ct = cbc_encrypt(&key, &iv, &pt).unwrap();
        assert_eq!(
            &ct[..16],
            unhex("7649abac8119b246cee98e9b12e9197d").as_slice()
        );
    }

    // SP 800-38A F.2.1 full four-block chain (our output additionally
    // carries a padding block at the end).
    #[test]
    fn sp800_38a_cbc_aes128_chain() {
        let key = unhex("2b7e151628aed2a6abf7158809cf4f3c");
        let iv = unhex("000102030405060708090a0b0c0d0e0f");
        let pt = unhex(
            "6bc1bee22e409f96e93d7e117393172a\
             ae2d8a571e03ac9c9eb76fac45af8e51\
             30c81c46a35ce411e5fbc1191a0a52ef\
             f69f2445df4f9b17ad2b417be66c3710",
        );
        let ct = cbc_encrypt(&key, &iv, &pt).unwrap();
        let expected = unhex(
            "7649abac8119b246cee98e9b12e9197d\
             5086cb9b507219ee95db113a917678b2\
             73bed6b8e3c1743b7116e69e22229516\
             3ff1caa1681fac09120eca307586e1a7",
        );
        assert_eq!(&ct[..64], expected.as_slice());
        assert_eq!(ct.len(), 80); // + one PKCS#7 padding block
        assert_eq!(cbc_decrypt(&key, &iv, &ct).unwrap(), pt);
    }

    // SP 800-38A F.5.1: CTR-AES128, first block.
    #[test]
    fn sp800_38a_ctr_aes128_first_block() {
        let key = unhex("2b7e151628aed2a6abf7158809cf4f3c");
        let nonce = unhex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff");
        let pt = unhex("6bc1bee22e409f96e93d7e117393172a");
        let ct = ctr_transform(&key, &nonce, &pt).unwrap();
        assert_eq!(ct, unhex("874d6191b620e3261bef6864990db6ce"));
    }

    #[test]
    fn ctr_is_its_own_inverse() {
        let key = [0x42u8; 24];
        let nonce = [7u8; 16];
        let msg = b"trace message: entity-17 is READY";
        let ct = ctr_transform(&key, &nonce, msg).unwrap();
        assert_ne!(&ct, msg);
        assert_eq!(ctr_transform(&key, &nonce, &ct).unwrap(), msg);
    }

    #[test]
    fn ctr_counter_carries_across_bytes() {
        // A nonce ending in 0xff forces the carry path immediately.
        let key = [1u8; 16];
        let nonce = [0xffu8; 16];
        let data = vec![0u8; 48]; // 3 blocks
        let ks = ctr_transform(&key, &nonce, &data).unwrap();
        // Keystream blocks must differ (counter moved on wrap-around).
        assert_ne!(&ks[..16], &ks[16..32]);
        assert_ne!(&ks[16..32], &ks[32..48]);
    }

    #[test]
    fn cbc_round_trip_aes192_paper_configuration() {
        // The paper uses 192-bit AES keys for trace encryption.
        let key = [0x5au8; 24];
        let iv = [0x11u8; 16];
        let msg = b"ALLS_WELL heartbeat payload for entity-42";
        let ct = cbc_encrypt(&key, &iv, msg).unwrap();
        assert_eq!(cbc_decrypt(&key, &iv, &ct).unwrap(), msg);
    }

    #[test]
    fn cbc_rejects_bad_iv_or_ciphertext() {
        let key = [0u8; 16];
        assert!(cbc_encrypt(&key, &[0u8; 15], b"x").is_err());
        assert!(cbc_decrypt(&key, &[0u8; 16], &[0u8; 15]).is_err());
        assert!(cbc_decrypt(&key, &[0u8; 16], &[]).is_err());
    }

    #[test]
    fn cbc_tamper_detection_via_padding() {
        let key = [9u8; 16];
        let iv = [3u8; 16];
        let ct = cbc_encrypt(&key, &iv, b"short").unwrap();
        // Flipping a bit in the last block almost always corrupts padding.
        let mut tampered = ct.clone();
        let last = tampered.len() - 1;
        tampered[last] ^= 0xff;
        let result = cbc_decrypt(&key, &iv, &tampered);
        if let Ok(pt) = result {
            assert_ne!(pt, b"short");
        }
    }

    #[test]
    fn wire_id_round_trip() {
        for mode in [CipherMode::Cbc, CipherMode::Ctr] {
            assert_eq!(CipherMode::from_wire_id(mode.wire_id()).unwrap(), mode);
        }
        assert!(CipherMode::from_wire_id(0).is_err());
    }

    proptest! {
        // A pre-expanded key on each kernel against the byte-key
        // functions (which run on the CPU's kernel).
        #[test]
        fn pre_expanded_keys_match_the_byte_key_functions(
            size in 0usize..3,
            key in proptest::collection::vec(any::<u8>(), 32..33),
            iv in proptest::array::uniform16(any::<u8>()),
            data in proptest::collection::vec(any::<u8>(), 0..100),
        ) {
            let key = &key[..[16, 24, 32][size]];
            let cbc = cbc_encrypt(key, &iv, &data).unwrap();
            let ctr = ctr_transform(key, &iv, &data).unwrap();
            // Block-aligned bytes that are mostly not valid CBC output.
            let junk = &data[..data.len() / BLOCK_SIZE * BLOCK_SIZE];
            let junk_plain = cbc_decrypt(key, &iv, junk).ok();
            let expanded = Aes::new(key).unwrap();
            for aes in [expanded.clone(), expanded.portable()] {
                prop_assert_eq!(aes.cbc_encrypt(&iv, &data).unwrap(), cbc.clone());
                prop_assert_eq!(aes.cbc_decrypt(&iv, &cbc).unwrap(), data.clone());
                prop_assert_eq!(aes.cbc_decrypt(&iv, junk).ok(), junk_plain.clone());
                prop_assert_eq!(aes.ctr_transform(&iv, &data).unwrap(), ctr.clone());
                prop_assert_eq!(aes.ctr_transform(&iv, &ctr).unwrap(), data.clone());
            }
        }
    }
}

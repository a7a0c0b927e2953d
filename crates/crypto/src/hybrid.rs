//! Hybrid public-key envelopes (RSA-encrypted symmetric key + AES body).
//!
//! The paper uses this construction twice:
//!
//! * registration responses are "encrypted with a randomly generated
//!   secret key, and this secret key is encrypted using the entity's
//!   public key" (§3.2), and
//! * the secret trace key is distributed to each authorized tracker as
//!   "a combination of the tracker's credential and a randomly
//!   generated secret key" (§5.1).

use crate::aes::KeySize;
use crate::error::CryptoError;
use crate::modes::{cbc_decrypt, cbc_encrypt, CipherMode};
use crate::rsa::{RsaPrivateKey, RsaPublicKey};
use rand::Rng;

/// A sealed payload: only the holder of the recipient's private key
/// can recover the plaintext.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SealedEnvelope {
    /// The symmetric key, encrypted with the recipient's RSA key.
    pub encrypted_key: Vec<u8>,
    /// CBC initialization vector.
    pub iv: [u8; 16],
    /// AES-CBC ciphertext of the payload.
    pub ciphertext: Vec<u8>,
    /// Symmetric cipher parameters (negotiated, per the paper).
    pub key_size: KeySize,
    /// Cipher mode (always CBC for envelopes in this implementation).
    pub mode: CipherMode,
}

impl SealedEnvelope {
    /// Seals `plaintext` for `recipient` with a fresh random
    /// `key_size` AES key (the paper's configuration is
    /// [`KeySize::Aes192`]).
    pub fn seal(
        recipient: &RsaPublicKey,
        plaintext: &[u8],
        key_size: KeySize,
        rng: &mut dyn Rng,
    ) -> Result<Self, CryptoError> {
        let mut key = vec![0u8; key_size.key_len()];
        rng.fill_bytes(&mut key);
        let mut iv = [0u8; 16];
        rng.fill_bytes(&mut iv);
        let ciphertext = cbc_encrypt(&key, &iv, plaintext)?;
        let encrypted_key = recipient.encrypt(&key, rng)?;
        Ok(SealedEnvelope {
            encrypted_key,
            iv,
            ciphertext,
            key_size,
            mode: CipherMode::Cbc,
        })
    }

    /// Opens the envelope with the recipient's private key.
    pub fn open(&self, recipient: &RsaPrivateKey) -> Result<Vec<u8>, CryptoError> {
        let key = recipient.decrypt(&self.encrypted_key)?;
        if key.len() != self.key_size.key_len() {
            return Err(CryptoError::InvalidLength {
                what: "envelope symmetric key",
                expected: self.key_size.key_len(),
                actual: key.len(),
            });
        }
        cbc_decrypt(&key, &self.iv, &self.ciphertext)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rsa::RsaKeyPair;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::OnceLock;

    fn keypair() -> &'static RsaKeyPair {
        static KP: OnceLock<RsaKeyPair> = OnceLock::new();
        KP.get_or_init(|| {
            let mut rng = StdRng::seed_from_u64(77);
            RsaKeyPair::generate(512, &mut rng).unwrap()
        })
    }

    #[test]
    fn seal_open_round_trip() {
        let kp = keypair();
        let mut rng = StdRng::seed_from_u64(1);
        let msg = b"session-id: 0123456789abcdef, request-id: 42";
        for ks in [KeySize::Aes128, KeySize::Aes192, KeySize::Aes256] {
            let env = SealedEnvelope::seal(&kp.public, msg, ks, &mut rng).unwrap();
            assert_eq!(env.open(&kp.private).unwrap(), msg);
        }
    }

    #[test]
    fn wrong_recipient_cannot_open() {
        let kp = keypair();
        let mut rng = StdRng::seed_from_u64(2);
        let other = RsaKeyPair::generate(512, &mut rng).unwrap();
        let env = SealedEnvelope::seal(&kp.public, b"secret", KeySize::Aes192, &mut rng).unwrap();
        assert!(env.open(&other.private).is_err());
    }

    #[test]
    fn tampered_ciphertext_fails_or_differs() {
        let kp = keypair();
        let mut rng = StdRng::seed_from_u64(3);
        let env =
            SealedEnvelope::seal(&kp.public, b"payload-bytes", KeySize::Aes192, &mut rng).unwrap();
        let mut tampered = env.clone();
        tampered.ciphertext[0] ^= 0xff;
        if let Ok(pt) = tampered.open(&kp.private) {
            assert_ne!(pt, b"payload-bytes")
        }
    }

    #[test]
    fn envelopes_are_randomized() {
        let kp = keypair();
        let mut rng = StdRng::seed_from_u64(4);
        let e1 = SealedEnvelope::seal(&kp.public, b"m", KeySize::Aes128, &mut rng).unwrap();
        let e2 = SealedEnvelope::seal(&kp.public, b"m", KeySize::Aes128, &mut rng).unwrap();
        assert_ne!(e1.ciphertext, e2.ciphertext);
        assert_ne!(e1.encrypted_key, e2.encrypted_key);
    }

    #[test]
    fn large_payloads_supported() {
        // Payload larger than the RSA modulus must still work (that is
        // the point of the hybrid construction).
        let kp = keypair();
        let mut rng = StdRng::seed_from_u64(5);
        let big = vec![0x5au8; 4096];
        let env = SealedEnvelope::seal(&kp.public, &big, KeySize::Aes192, &mut rng).unwrap();
        assert_eq!(env.open(&kp.private).unwrap(), big);
    }
}

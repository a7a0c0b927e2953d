//! RSA with PKCS#1 v1.5 signatures and encryption.
//!
//! The paper signs messages with "1024-bit RSA with 160-bit SHA-1 and
//! PKCS#1 padding" and encrypts registration responses / trace keys
//! with the recipient's public key. Both operations live here, plus
//! CRT-accelerated private-key operations.

use crate::bigint::BigUint;
use crate::digest::DigestAlgorithm;
use crate::error::CryptoError;
use crate::prime::{generate_prime, random_below};
use rand::Rng;

/// ASN.1 DigestInfo prefix for SHA-1 (RFC 8017 §9.2 note 1).
const SHA1_PREFIX: [u8; 15] = [
    0x30, 0x21, 0x30, 0x09, 0x06, 0x05, 0x2b, 0x0e, 0x03, 0x02, 0x1a, 0x05, 0x00, 0x04, 0x14,
];

/// ASN.1 DigestInfo prefix for SHA-256.
const SHA256_PREFIX: [u8; 19] = [
    0x30, 0x31, 0x30, 0x0d, 0x06, 0x09, 0x60, 0x86, 0x48, 0x01, 0x65, 0x03, 0x04, 0x02, 0x01, 0x05,
    0x00, 0x04, 0x20,
];

fn digest_info_prefix(alg: DigestAlgorithm) -> &'static [u8] {
    match alg {
        DigestAlgorithm::Sha1 => &SHA1_PREFIX,
        DigestAlgorithm::Sha256 => &SHA256_PREFIX,
    }
}

/// RSA public key `(n, e)`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RsaPublicKey {
    n: BigUint,
    e: BigUint,
}

/// RSA private key with CRT parameters.
#[derive(Clone)]
pub struct RsaPrivateKey {
    n: BigUint,
    d: BigUint,
    p: BigUint,
    q: BigUint,
    d_p: BigUint,
    d_q: BigUint,
    q_inv: BigUint,
}

/// A matched public/private key pair.
#[derive(Clone)]
pub struct RsaKeyPair {
    /// The public half (freely distributable).
    pub public: RsaPublicKey,
    /// The private half.
    pub private: RsaPrivateKey,
}

impl RsaKeyPair {
    /// Generates a fresh key pair with an `bits`-bit modulus and
    /// public exponent 65537.
    ///
    /// The paper's benchmarks use `bits = 1024`.
    pub fn generate(bits: usize, rng: &mut dyn Rng) -> Result<Self, CryptoError> {
        assert!(bits >= 128, "modulus must be at least 128 bits");
        let started = std::time::Instant::now();
        let e = BigUint::from_u64(65537);
        loop {
            let p = generate_prime(bits / 2, rng)?;
            let q = generate_prime(bits - bits / 2, rng)?;
            if p == q {
                continue;
            }
            let n = p.mul(&q);
            if n.bit_length() != bits {
                continue;
            }
            let one = BigUint::one();
            let p1 = p.sub(&one);
            let q1 = q.sub(&one);
            let phi = p1.mul(&q1);
            // e must be invertible modulo phi.
            let d = match e.mod_inverse(&phi) {
                Ok(d) => d,
                Err(_) => continue,
            };
            let d_p = d.rem(&p1)?;
            let d_q = d.rem(&q1)?;
            let q_inv = q.mod_inverse(&p)?;
            crate::instrument::RSA_KEYGEN_US.record(started.elapsed().as_micros() as u64);
            return Ok(RsaKeyPair {
                public: RsaPublicKey { n: n.clone(), e },
                private: RsaPrivateKey {
                    n,
                    d,
                    p,
                    q,
                    d_p,
                    d_q,
                    q_inv,
                },
            });
        }
    }
}

impl RsaPublicKey {
    /// Constructs a public key from its components.
    pub fn new(n: BigUint, e: BigUint) -> Self {
        RsaPublicKey { n, e }
    }

    /// The modulus.
    pub fn modulus(&self) -> &BigUint {
        &self.n
    }

    /// The public exponent.
    pub fn exponent(&self) -> &BigUint {
        &self.e
    }

    /// Modulus length in whole bytes.
    pub fn modulus_len(&self) -> usize {
        self.n.bit_length().div_ceil(8)
    }

    /// Raw RSA public operation `m^e mod n`.
    fn raw(&self, m: &BigUint) -> Result<BigUint, CryptoError> {
        if m >= &self.n {
            return Err(CryptoError::MessageTooLarge);
        }
        m.modpow(&self.e, &self.n)
    }

    /// Verifies a PKCS#1 v1.5 signature over `message`.
    pub fn verify(
        &self,
        alg: DigestAlgorithm,
        message: &[u8],
        signature: &[u8],
    ) -> Result<(), CryptoError> {
        let _t = crate::instrument::RSA_VERIFY_US.start_timer();
        let k = self.modulus_len();
        if signature.len() != k {
            return Err(CryptoError::InvalidLength {
                what: "RSA signature",
                expected: k,
                actual: signature.len(),
            });
        }
        let s = BigUint::from_bytes_be(signature);
        let em = self.raw(&s)?.to_bytes_be_padded(k)?;
        let expected = emsa_pkcs1_v15(alg, message, k)?;
        // Constant-time comparison: `em == expected` would exit at the
        // first differing byte, leaking how much of the encoded
        // message an attacker-supplied signature recovered.
        if crate::hmac::ct_eq(&em, &expected) {
            Ok(())
        } else {
            Err(CryptoError::SignatureMismatch)
        }
    }

    /// Encrypts `plaintext` with EME-PKCS1-v1_5 random padding.
    ///
    /// The plaintext must be at most `modulus_len() - 11` bytes.
    pub fn encrypt(&self, plaintext: &[u8], rng: &mut dyn Rng) -> Result<Vec<u8>, CryptoError> {
        let _t = crate::instrument::RSA_ENCRYPT_US.start_timer();
        let k = self.modulus_len();
        if plaintext.len() + 11 > k {
            return Err(CryptoError::MessageTooLarge);
        }
        // EM = 0x00 || 0x02 || PS (nonzero random) || 0x00 || M
        //
        // Each `next_u32()` yields four uniform bytes; use all of them
        // (rejection-sampling only the zeros, which must not appear in
        // PS) instead of drawing one word per byte and discarding
        // three quarters of the entropy.
        let ps_len = k - plaintext.len() - 3;
        let mut em = Vec::with_capacity(k);
        em.push(0x00);
        em.push(0x02);
        let mut word = [0u8; 4];
        let mut avail = 0usize;
        while em.len() < 2 + ps_len {
            if avail == 0 {
                word = rng.next_u32().to_le_bytes();
                avail = 4;
            }
            let b = word[4 - avail];
            avail -= 1;
            if b != 0 {
                em.push(b);
            }
        }
        em.push(0x00);
        em.extend_from_slice(plaintext);
        let m = BigUint::from_bytes_be(&em);
        let c = self.raw(&m)?;
        c.to_bytes_be_padded(k)
    }

    /// Canonical byte encoding (length-prefixed n and e), used in
    /// certificates and wire messages.
    pub fn to_bytes(&self) -> Vec<u8> {
        let n = self.n.to_bytes_be();
        let e = self.e.to_bytes_be();
        let mut out = Vec::with_capacity(8 + n.len() + e.len());
        out.extend_from_slice(&(n.len() as u32).to_be_bytes());
        out.extend_from_slice(&n);
        out.extend_from_slice(&(e.len() as u32).to_be_bytes());
        out.extend_from_slice(&e);
        out
    }

    /// Inverse of [`RsaPublicKey::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CryptoError> {
        let (n, rest) = read_chunk(bytes)?;
        let (e, rest) = read_chunk(rest)?;
        if !rest.is_empty() {
            return Err(CryptoError::Malformed("trailing bytes in RSA public key"));
        }
        Ok(RsaPublicKey {
            n: BigUint::from_bytes_be(n),
            e: BigUint::from_bytes_be(e),
        })
    }
}

fn read_chunk(bytes: &[u8]) -> Result<(&[u8], &[u8]), CryptoError> {
    if bytes.len() < 4 {
        return Err(CryptoError::Malformed("truncated length prefix"));
    }
    let len = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) as usize;
    if bytes.len() < 4 + len {
        return Err(CryptoError::Malformed("truncated chunk"));
    }
    Ok((&bytes[4..4 + len], &bytes[4 + len..]))
}

impl RsaPrivateKey {
    /// The modulus.
    pub fn modulus(&self) -> &BigUint {
        &self.n
    }

    /// Modulus length in whole bytes.
    pub fn modulus_len(&self) -> usize {
        self.n.bit_length().div_ceil(8)
    }

    /// Raw RSA private operation `c^d mod n`, CRT-accelerated.
    fn raw(&self, c: &BigUint) -> Result<BigUint, CryptoError> {
        if c >= &self.n {
            return Err(CryptoError::MessageTooLarge);
        }
        // m1 = c^dP mod p ; m2 = c^dQ mod q
        let m1 = c.modpow(&self.d_p, &self.p)?;
        let m2 = c.modpow(&self.d_q, &self.q)?;
        // h = qInv * (m1 - m2) mod p ; m = m2 + h*q
        let diff = m1.sub_mod(&m2.rem(&self.p)?, &self.p)?;
        let h = self.q_inv.mul_mod(&diff, &self.p)?;
        Ok(m2.add(&h.mul(&self.q)))
    }

    /// Raw private operation without CRT acceleration. Exposed for
    /// the crypto_ops ablation bench (CRT vs plain exponentiation).
    pub fn raw_no_crt(&self, c: &BigUint) -> Result<BigUint, CryptoError> {
        if c >= &self.n {
            return Err(CryptoError::MessageTooLarge);
        }
        c.modpow(&self.d, &self.n)
    }

    /// Signs `message` with EMSA-PKCS1-v1_5 over digest `alg`.
    pub fn sign(&self, alg: DigestAlgorithm, message: &[u8]) -> Result<Vec<u8>, CryptoError> {
        let _t = crate::instrument::RSA_SIGN_US.start_timer();
        let k = self.modulus_len();
        let em = emsa_pkcs1_v15(alg, message, k)?;
        let m = BigUint::from_bytes_be(&em);
        let s = self.raw(&m)?;
        s.to_bytes_be_padded(k)
    }

    /// Decrypts an EME-PKCS1-v1_5 ciphertext.
    pub fn decrypt(&self, ciphertext: &[u8]) -> Result<Vec<u8>, CryptoError> {
        let _t = crate::instrument::RSA_DECRYPT_US.start_timer();
        let k = self.modulus_len();
        if ciphertext.len() != k {
            return Err(CryptoError::InvalidLength {
                what: "RSA ciphertext",
                expected: k,
                actual: ciphertext.len(),
            });
        }
        let c = BigUint::from_bytes_be(ciphertext);
        let em = self.raw(&c)?.to_bytes_be_padded(k)?;
        if em[0] != 0x00 || em[1] != 0x02 {
            return Err(CryptoError::BadPadding("EME-PKCS1 header"));
        }
        // Find the 0x00 separator after at least 8 padding bytes.
        let sep = em[2..]
            .iter()
            .position(|&b| b == 0)
            .ok_or(CryptoError::BadPadding("missing separator"))?;
        if sep < 8 {
            return Err(CryptoError::BadPadding("padding string too short"));
        }
        Ok(em[2 + sep + 1..].to_vec())
    }

    /// The public key corresponding to this private key.
    pub fn public_key(&self) -> RsaPublicKey {
        // e is recoverable as d^-1 mod lcm(p-1,q-1); but we keep it
        // simple: e = 65537 is the only exponent this crate generates.
        RsaPublicKey {
            n: self.n.clone(),
            e: BigUint::from_u64(65537),
        }
    }

    /// Produces a blinded copy check value for tests: `m^(ed) mod n == m`.
    #[doc(hidden)]
    pub fn self_test(&self, rng: &mut dyn Rng) -> bool {
        let m = random_below(&self.n, rng);
        match self.raw(&m) {
            Ok(s) => matches!(self.public_key().raw(&s), Ok(back) if back == m),
            Err(_) => false,
        }
    }
}

impl std::fmt::Debug for RsaPrivateKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print private material.
        write!(f, "RsaPrivateKey({} bits)", self.n.bit_length())
    }
}

/// EMSA-PKCS1-v1_5 encoding: `0x00 01 FF..FF 00 || DigestInfo || hash`.
fn emsa_pkcs1_v15(alg: DigestAlgorithm, message: &[u8], k: usize) -> Result<Vec<u8>, CryptoError> {
    let hash = alg.digest(message);
    let prefix = digest_info_prefix(alg);
    let t_len = prefix.len() + hash.len();
    if k < t_len + 11 {
        return Err(CryptoError::MessageTooLarge);
    }
    let mut em = Vec::with_capacity(k);
    em.push(0x00);
    em.push(0x01);
    em.extend(std::iter::repeat_n(0xffu8, k - t_len - 3));
    em.push(0x00);
    em.extend_from_slice(prefix);
    em.extend_from_slice(&hash);
    Ok(em)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::OnceLock;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xc0ffee)
    }

    /// Key generation is the slowest part of the suite; share one
    /// 1024-bit pair across tests.
    fn keypair() -> &'static RsaKeyPair {
        static KP: OnceLock<RsaKeyPair> = OnceLock::new();
        KP.get_or_init(|| RsaKeyPair::generate(1024, &mut rng()).unwrap())
    }

    /// Both primes carry their top two bits, so `n` has exactly
    /// `bits` bits on the first pair drawn.
    fn assert_prime_bound(kp: &RsaKeyPair, bits: usize) {
        let (p, q) = (&kp.private.p, &kp.private.q);
        assert_eq!(p.bit_length(), bits / 2);
        assert_eq!(q.bit_length(), bits - bits / 2);
        for prime in [p, q] {
            let top = prime.bit_length() - 1;
            assert!(prime.bit(top) && prime.bit(top - 1), "bits={bits}");
        }
        assert_eq!(kp.public.modulus().bit_length(), bits);
        assert_eq!(p.mul(q), *kp.public.modulus());
    }

    #[test]
    fn generated_modulus_has_requested_bits() {
        let kp = keypair();
        assert_prime_bound(kp, 1024);
        assert_eq!(kp.public.modulus_len(), 128);
        for seed in 1..=5 {
            let kp = RsaKeyPair::generate(129, &mut StdRng::seed_from_u64(seed)).unwrap();
            assert_prime_bound(&kp, 129);
            assert_eq!(kp.public.modulus_len(), 17);
            assert!(kp.private.self_test(&mut rng()));
        }
    }

    #[test]
    fn crt_matches_plain_exponentiation() {
        let kp = keypair();
        let mut r = rng();
        let m = random_below(kp.public.modulus(), &mut r);
        assert_eq!(
            kp.private.raw(&m).unwrap(),
            kp.private.raw_no_crt(&m).unwrap()
        );
    }

    #[test]
    fn raw_private_public_inverse() {
        let kp = keypair();
        let mut r = rng();
        for _ in 0..3 {
            assert!(kp.private.self_test(&mut r));
        }
    }

    #[test]
    fn sign_verify_sha1_paper_configuration() {
        let kp = keypair();
        let msg = b"trace: entity-7 READY at t=1234";
        let sig = kp.private.sign(DigestAlgorithm::Sha1, msg).unwrap();
        assert_eq!(sig.len(), 128);
        kp.public.verify(DigestAlgorithm::Sha1, msg, &sig).unwrap();
    }

    #[test]
    fn sign_verify_sha256() {
        let kp = keypair();
        let msg = b"certificate tbs bytes";
        let sig = kp.private.sign(DigestAlgorithm::Sha256, msg).unwrap();
        kp.public
            .verify(DigestAlgorithm::Sha256, msg, &sig)
            .unwrap();
    }

    #[test]
    fn tampered_message_fails_verification() {
        let kp = keypair();
        let sig = kp.private.sign(DigestAlgorithm::Sha1, b"original").unwrap();
        assert_eq!(
            kp.public.verify(DigestAlgorithm::Sha1, b"tampered", &sig),
            Err(CryptoError::SignatureMismatch)
        );
    }

    #[test]
    fn tampered_signature_fails_verification() {
        let kp = keypair();
        let mut sig = kp.private.sign(DigestAlgorithm::Sha1, b"msg").unwrap();
        sig[64] ^= 0x01;
        assert!(kp
            .public
            .verify(DigestAlgorithm::Sha1, b"msg", &sig)
            .is_err());
    }

    #[test]
    fn wrong_digest_algorithm_fails() {
        let kp = keypair();
        let sig = kp.private.sign(DigestAlgorithm::Sha1, b"msg").unwrap();
        assert!(kp
            .public
            .verify(DigestAlgorithm::Sha256, b"msg", &sig)
            .is_err());
    }

    #[test]
    fn encrypt_decrypt_round_trip() {
        let kp = keypair();
        let mut r = rng();
        let secret = b"192-bit AES trace key: 0123456789abcdef01234567";
        let ct = kp.public.encrypt(secret, &mut r).unwrap();
        assert_eq!(ct.len(), 128);
        assert_eq!(kp.private.decrypt(&ct).unwrap(), secret);
    }

    #[test]
    fn encryption_is_randomized() {
        let kp = keypair();
        let mut r = rng();
        let c1 = kp.public.encrypt(b"same message", &mut r).unwrap();
        let c2 = kp.public.encrypt(b"same message", &mut r).unwrap();
        assert_ne!(c1, c2);
    }

    #[test]
    fn oversized_plaintext_rejected() {
        let kp = keypair();
        let mut r = rng();
        let too_big = vec![1u8; 128 - 10]; // needs 11 bytes of padding
        assert_eq!(
            kp.public.encrypt(&too_big, &mut r),
            Err(CryptoError::MessageTooLarge)
        );
    }

    #[test]
    fn corrupted_ciphertext_rejected() {
        let kp = keypair();
        let mut r = rng();
        let mut ct = kp.public.encrypt(b"secret", &mut r).unwrap();
        ct[5] ^= 0xff;
        assert!(kp.private.decrypt(&ct).is_err());
    }

    #[test]
    fn wrong_length_inputs_rejected() {
        let kp = keypair();
        assert!(kp.private.decrypt(&[0u8; 64]).is_err());
        assert!(kp
            .public
            .verify(DigestAlgorithm::Sha1, b"m", &[0u8; 64])
            .is_err());
    }

    #[test]
    fn public_key_byte_round_trip() {
        let kp = keypair();
        let bytes = kp.public.to_bytes();
        let back = RsaPublicKey::from_bytes(&bytes).unwrap();
        assert_eq!(back, kp.public);
        assert!(RsaPublicKey::from_bytes(&bytes[..bytes.len() - 1]).is_err());
        assert!(RsaPublicKey::from_bytes(&[0, 0]).is_err());
    }

    #[test]
    fn public_key_from_private_matches() {
        let kp = keypair();
        assert_eq!(kp.private.public_key(), kp.public);
    }

    /// Recovers the encoded message `EM` from a ciphertext via the raw
    /// private operation (no padding strip), so tests can inspect the
    /// exact EME-PKCS1-v1_5 layout the encryptor produced.
    fn recover_em(kp: &RsaKeyPair, ct: &[u8]) -> Vec<u8> {
        let c = BigUint::from_bytes_be(ct);
        kp.private
            .raw(&c)
            .unwrap()
            .to_bytes_be_padded(kp.public.modulus_len())
            .unwrap()
    }

    /// Asserts `em` is exactly `00 02 || PS (nonzero) || 00 || msg`.
    fn assert_em_layout(em: &[u8], k: usize, msg: &[u8]) {
        assert_eq!(em.len(), k);
        assert_eq!(em[0], 0x00);
        assert_eq!(em[1], 0x02);
        let ps = &em[2..k - msg.len() - 1];
        assert!(ps.len() >= 8, "padding string shorter than 8 bytes");
        assert!(ps.iter().all(|&b| b != 0), "zero byte inside PS");
        assert_eq!(em[k - msg.len() - 1], 0x00);
        assert_eq!(&em[k - msg.len()..], msg);
    }

    #[test]
    fn deterministic_rng_preserves_em_layout() {
        // The batched four-bytes-per-draw padding must produce the
        // same EM *structure* as before: 00 02, all-nonzero PS, 00,
        // message — byte-exact under a deterministic RNG.
        let kp = keypair();
        let msg = b"layout probe";
        let mut r = StdRng::seed_from_u64(424242);
        let ct = kp.public.encrypt(msg, &mut r).unwrap();
        assert_em_layout(&recover_em(kp, &ct), kp.public.modulus_len(), msg);
        // Same seed, same ciphertext: the draw is deterministic.
        let mut r2 = StdRng::seed_from_u64(424242);
        assert_eq!(kp.public.encrypt(msg, &mut r2).unwrap(), ct);
        assert_eq!(kp.private.decrypt(&ct).unwrap(), msg);
    }

    /// An RNG whose words are riddled with zero bytes, forcing the
    /// padding loop through its rejection-sampling branch.
    struct ZeroHeavyRng {
        n: u64,
    }

    impl rand::RngCore for ZeroHeavyRng {
        fn raw_u64(&mut self) -> u64 {
            self.n = self.n.wrapping_add(1);
            // Low half zero → `next_u32` (the high half) alternates
            // between words with 0x00 bytes and fully nonzero words.
            if self.n.is_multiple_of(2) {
                0x00ab_00cd_0000_0000
            } else {
                0x1122_3344_0000_0000u64.wrapping_add(self.n << 32)
            }
        }
    }

    #[test]
    fn zero_bytes_are_rejection_sampled_not_emitted() {
        let kp = keypair();
        let msg = b"reject zeros";
        let mut r = ZeroHeavyRng { n: 0 };
        let ct = kp.public.encrypt(msg, &mut r).unwrap();
        assert_em_layout(&recover_em(kp, &ct), kp.public.modulus_len(), msg);
        assert_eq!(kp.private.decrypt(&ct).unwrap(), msg);
    }

    #[test]
    fn padding_consumes_four_bytes_per_word() {
        // A counting RNG with no zero bytes must be drawn exactly
        // ⌈ps_len/4⌉ times — the pre-fix code drew once per byte.
        struct CountingRng {
            draws: u64,
        }
        impl rand::RngCore for CountingRng {
            fn raw_u64(&mut self) -> u64 {
                self.draws += 1;
                0x0101_0101_0000_0000u64 // next_u32 → 0x01010101
            }
        }
        let kp = keypair();
        let msg = b"budget";
        let ps_len = kp.public.modulus_len() - msg.len() - 3;
        let mut r = CountingRng { draws: 0 };
        kp.public.encrypt(msg, &mut r).unwrap();
        assert_eq!(r.draws as usize, ps_len.div_ceil(4));
    }

    #[test]
    fn small_keys_work_for_fast_tests() {
        // 256-bit keys keep integration tests cheap; make sure the
        // pipeline supports them (max payload = 32 - 11 = 21 bytes).
        let kp = RsaKeyPair::generate(256, &mut rng()).unwrap();
        let msg = b"short secret!";
        let mut r = rng();
        let ct = kp.public.encrypt(msg, &mut r).unwrap();
        assert_eq!(kp.private.decrypt(&ct).unwrap(), msg);
    }
}

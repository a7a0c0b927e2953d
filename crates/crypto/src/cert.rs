//! Simplified X.509-style certificates.
//!
//! The paper uses X.509 certificates as entity credentials for three
//! purposes: establishing provenance of trace topics at the TDN,
//! proof-of-possession signatures on registration and trace messages,
//! and encrypting responses so only the credentialed entity can read
//! them. This module provides exactly those capabilities with a
//! canonical binary TBS ("to be signed") encoding instead of ASN.1/DER,
//! which the scheme itself never inspects.

use crate::digest::DigestAlgorithm;
use crate::error::CryptoError;
use crate::rsa::{RsaKeyPair, RsaPrivateKey, RsaPublicKey};
use crate::sha256::Sha256;
use crate::Digest;
use rand::Rng;

/// Certificate validity window in milliseconds since the Unix epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Validity {
    /// Earliest instant at which the certificate is valid.
    pub not_before_ms: u64,
    /// Latest instant at which the certificate is valid.
    pub not_after_ms: u64,
}

impl Validity {
    /// A window starting at `now_ms` and lasting `duration_ms`.
    pub fn starting_now(now_ms: u64, duration_ms: u64) -> Self {
        Validity {
            not_before_ms: now_ms,
            not_after_ms: now_ms.saturating_add(duration_ms),
        }
    }

    /// Whether `at_ms` falls inside the window (inclusive bounds).
    pub fn contains(&self, at_ms: u64) -> bool {
        (self.not_before_ms..=self.not_after_ms).contains(&at_ms)
    }
}

/// A certificate binding a subject name to an RSA public key, signed
/// by an issuer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Certificate {
    /// Serial number assigned by the issuer.
    pub serial: u64,
    /// Subject distinguished name (e.g. `"entity:worker-17"`).
    pub subject: String,
    /// Issuer distinguished name.
    pub issuer: String,
    /// The subject's public key.
    pub public_key: RsaPublicKey,
    /// Validity window.
    pub validity: Validity,
    /// RSA/SHA-256 signature over the TBS bytes, by the issuer's key.
    pub signature: Vec<u8>,
}

impl Certificate {
    /// Canonical "to be signed" byte encoding.
    pub fn tbs_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&self.serial.to_be_bytes());
        push_str(&mut out, &self.subject);
        push_str(&mut out, &self.issuer);
        let pk = self.public_key.to_bytes();
        out.extend_from_slice(&(pk.len() as u32).to_be_bytes());
        out.extend_from_slice(&pk);
        out.extend_from_slice(&self.validity.not_before_ms.to_be_bytes());
        out.extend_from_slice(&self.validity.not_after_ms.to_be_bytes());
        out
    }

    /// A short stable fingerprint (SHA-256 of the TBS bytes), used in
    /// discovery restrictions and ACLs.
    pub fn fingerprint(&self) -> [u8; 32] {
        Sha256::digest(&self.tbs_bytes()).try_into().unwrap()
    }

    /// Verifies this certificate against the issuer's public key and
    /// checks the validity window at `now_ms`.
    pub fn verify(&self, issuer_key: &RsaPublicKey, now_ms: u64) -> Result<(), CryptoError> {
        if !self.validity.contains(now_ms) {
            return Err(CryptoError::CertificateInvalid("outside validity window"));
        }
        issuer_key
            .verify(DigestAlgorithm::Sha256, &self.tbs_bytes(), &self.signature)
            .map_err(|_| CryptoError::CertificateInvalid("bad issuer signature"))
    }

    /// Canonical full encoding (TBS || signature), for wire transfer.
    pub fn to_bytes(&self) -> Vec<u8> {
        let tbs = self.tbs_bytes();
        let mut out = Vec::with_capacity(tbs.len() + self.signature.len() + 8);
        out.extend_from_slice(&(tbs.len() as u32).to_be_bytes());
        out.extend_from_slice(&tbs);
        out.extend_from_slice(&(self.signature.len() as u32).to_be_bytes());
        out.extend_from_slice(&self.signature);
        out
    }

    /// Inverse of [`Certificate::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CryptoError> {
        let (tbs, rest) = read_chunk(bytes)?;
        let (sig, rest) = read_chunk(rest)?;
        if !rest.is_empty() {
            return Err(CryptoError::Malformed("trailing bytes in certificate"));
        }
        let mut cert = Self::parse_tbs(tbs)?;
        cert.signature = sig.to_vec();
        Ok(cert)
    }

    fn parse_tbs(tbs: &[u8]) -> Result<Self, CryptoError> {
        let mut cur = tbs;
        let serial = take_u64(&mut cur)?;
        let subject = take_str(&mut cur)?;
        let issuer = take_str(&mut cur)?;
        let (pk_bytes, rest) = read_chunk(cur)?;
        cur = rest;
        let public_key = RsaPublicKey::from_bytes(pk_bytes)?;
        let not_before_ms = take_u64(&mut cur)?;
        let not_after_ms = take_u64(&mut cur)?;
        if !cur.is_empty() {
            return Err(CryptoError::Malformed("trailing bytes in TBS"));
        }
        Ok(Certificate {
            serial,
            subject,
            issuer,
            public_key,
            validity: Validity {
                not_before_ms,
                not_after_ms,
            },
            signature: Vec::new(),
        })
    }
}

/// A subject's full credential: certificate plus matching private key.
///
/// This is what a traced entity or tracker holds; the certificate half
/// is what it presents to TDNs and brokers.
#[derive(Clone)]
pub struct Credential {
    /// The public certificate.
    pub certificate: Certificate,
    /// The private key matching `certificate.public_key`.
    pub private_key: RsaPrivateKey,
}

impl Credential {
    /// Signs `message` with this credential's private key using the
    /// paper's configuration (SHA-1 + PKCS#1).
    pub fn sign(&self, message: &[u8]) -> Result<Vec<u8>, CryptoError> {
        self.private_key.sign(DigestAlgorithm::Sha1, message)
    }

    /// The subject name from the certificate.
    pub fn subject(&self) -> &str {
        &self.certificate.subject
    }
}

impl std::fmt::Debug for Credential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Credential(subject={})", self.certificate.subject)
    }
}

/// A certificate authority that can issue credentials.
///
/// The benchmarks and examples stand up one `CertificateAuthority` per
/// deployment; entities, brokers and TDNs all get credentials from it
/// so any party can verify any other party's certificate.
pub struct CertificateAuthority {
    name: String,
    keypair: RsaKeyPair,
    cert: Certificate,
    next_serial: u64,
    key_bits: usize,
}

impl CertificateAuthority {
    /// Creates a CA with a self-signed root certificate.
    ///
    /// `key_bits` controls both the CA key and issued-subject keys;
    /// the paper's configuration is 1024, tests may use 512 for speed.
    pub fn new(
        name: &str,
        key_bits: usize,
        validity: Validity,
        rng: &mut dyn Rng,
    ) -> Result<Self, CryptoError> {
        let keypair = RsaKeyPair::generate(key_bits, rng)?;
        let mut cert = Certificate {
            serial: 0,
            subject: name.to_string(),
            issuer: name.to_string(),
            public_key: keypair.public.clone(),
            validity,
            signature: Vec::new(),
        };
        cert.signature = keypair
            .private
            .sign(DigestAlgorithm::Sha256, &cert.tbs_bytes())?;
        Ok(CertificateAuthority {
            name: name.to_string(),
            keypair,
            cert,
            next_serial: 1,
            key_bits,
        })
    }

    /// The CA's own (self-signed) certificate; distribute this as the
    /// trust anchor.
    pub fn certificate(&self) -> &Certificate {
        &self.cert
    }

    /// Issues a fresh credential (new key pair + signed certificate)
    /// for `subject`.
    pub fn issue(
        &mut self,
        subject: &str,
        validity: Validity,
        rng: &mut dyn Rng,
    ) -> Result<Credential, CryptoError> {
        let keypair = RsaKeyPair::generate(self.key_bits, rng)?;
        let cert = self.issue_for_key(subject, keypair.public.clone(), validity)?;
        Ok(Credential {
            certificate: cert,
            private_key: keypair.private,
        })
    }

    /// Issues a certificate over an externally generated public key.
    pub fn issue_for_key(
        &mut self,
        subject: &str,
        public_key: RsaPublicKey,
        validity: Validity,
    ) -> Result<Certificate, CryptoError> {
        let mut cert = Certificate {
            serial: self.next_serial,
            subject: subject.to_string(),
            issuer: self.name.clone(),
            public_key,
            validity,
            signature: Vec::new(),
        };
        self.next_serial += 1;
        cert.signature = self
            .keypair
            .private
            .sign(DigestAlgorithm::Sha256, &cert.tbs_bytes())?;
        Ok(cert)
    }

    /// Verifies a certificate chain `[leaf]` against this CA at `now_ms`.
    pub fn verify_issued(&self, cert: &Certificate, now_ms: u64) -> Result<(), CryptoError> {
        if cert.issuer != self.name {
            return Err(CryptoError::CertificateInvalid("unknown issuer"));
        }
        cert.verify(&self.keypair.public, now_ms)
    }
}

fn push_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_be_bytes());
    out.extend_from_slice(s.as_bytes());
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

fn take_u64(cur: &mut &[u8]) -> Result<u64, CryptoError> {
    if cur.len() < 8 {
        return Err(CryptoError::Malformed("truncated u64"));
    }
    let (head, tail) = cur.split_at(8);
    *cur = tail;
    Ok(u64::from_be_bytes(head.try_into().unwrap()))
}

fn take_str(cur: &mut &[u8]) -> Result<String, CryptoError> {
    let (chunk, rest) = read_chunk(cur)?;
    *cur = rest;
    String::from_utf8(chunk.to_vec()).map_err(|_| CryptoError::Malformed("non-UTF8 string"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::{Mutex, OnceLock};

    const NOW: u64 = 1_700_000_000_000;

    fn validity() -> Validity {
        Validity::starting_now(NOW - 1000, 3_600_000)
    }

    /// Shared CA (512-bit keys keep the suite fast while still able to
    /// produce SHA-256 signatures).
    fn ca() -> &'static Mutex<CertificateAuthority> {
        static CA: OnceLock<Mutex<CertificateAuthority>> = OnceLock::new();
        CA.get_or_init(|| {
            let mut rng = StdRng::seed_from_u64(42);
            Mutex::new(CertificateAuthority::new("test-ca", 512, validity(), &mut rng).unwrap())
        })
    }

    #[test]
    fn ca_root_is_self_signed() {
        let ca = ca().lock().unwrap();
        let root = ca.certificate();
        assert_eq!(root.issuer, root.subject);
        root.verify(&root.public_key, NOW).unwrap();
    }

    #[test]
    fn issued_certificate_verifies() {
        let mut rng = StdRng::seed_from_u64(43);
        let mut ca = ca().lock().unwrap();
        let cred = ca.issue("entity:alpha", validity(), &mut rng).unwrap();
        ca.verify_issued(&cred.certificate, NOW).unwrap();
        assert_eq!(cred.subject(), "entity:alpha");
    }

    #[test]
    fn expired_certificate_rejected() {
        let mut rng = StdRng::seed_from_u64(44);
        let mut ca = ca().lock().unwrap();
        let cred = ca.issue("entity:beta", validity(), &mut rng).unwrap();
        let too_late = validity().not_after_ms + 1;
        assert_eq!(
            ca.verify_issued(&cred.certificate, too_late),
            Err(CryptoError::CertificateInvalid("outside validity window"))
        );
        let too_early = validity().not_before_ms - 1;
        assert!(ca.verify_issued(&cred.certificate, too_early).is_err());
    }

    #[test]
    fn validity_boundary_is_inclusive_at_both_ends() {
        // Cross-layer contract: certificates, authorization tokens and
        // session keys all accept at the exact boundary instants —
        // a cert accepted at `not_after_ms` must not be rejected by a
        // downstream layer at the same instant (see token and
        // session-key boundary tests for the other layers).
        let mut rng = StdRng::seed_from_u64(48);
        let mut ca = ca().lock().unwrap();
        let cred = ca.issue("entity:edge", validity(), &mut rng).unwrap();
        let window = validity();
        assert!(window.contains(window.not_before_ms));
        assert!(window.contains(window.not_after_ms));
        assert!(!window.contains(window.not_after_ms + 1));
        ca.verify_issued(&cred.certificate, window.not_before_ms)
            .expect("accepted at exactly not_before_ms");
        ca.verify_issued(&cred.certificate, window.not_after_ms)
            .expect("accepted at exactly not_after_ms");
    }

    #[test]
    fn tampered_certificate_rejected() {
        let mut rng = StdRng::seed_from_u64(45);
        let mut ca = ca().lock().unwrap();
        let cred = ca.issue("entity:gamma", validity(), &mut rng).unwrap();
        let mut cert = cred.certificate.clone();
        cert.subject = "entity:mallory".to_string();
        assert!(ca.verify_issued(&cert, NOW).is_err());
    }

    #[test]
    fn wrong_issuer_rejected() {
        let mut rng = StdRng::seed_from_u64(46);
        let mut other = CertificateAuthority::new("other-ca", 512, validity(), &mut rng).unwrap();
        let cred = other.issue("entity:delta", validity(), &mut rng).unwrap();
        let ca = ca().lock().unwrap();
        assert_eq!(
            ca.verify_issued(&cred.certificate, NOW),
            Err(CryptoError::CertificateInvalid("unknown issuer"))
        );
    }

    #[test]
    fn serials_increment() {
        let mut rng = StdRng::seed_from_u64(47);
        let mut ca = ca().lock().unwrap();
        let a = ca.issue("entity:s1", validity(), &mut rng).unwrap();
        let b = ca.issue("entity:s2", validity(), &mut rng).unwrap();
        assert!(b.certificate.serial > a.certificate.serial);
    }

    #[test]
    fn certificate_byte_round_trip() {
        let mut rng = StdRng::seed_from_u64(48);
        let mut ca = ca().lock().unwrap();
        let cred = ca.issue("entity:rt", validity(), &mut rng).unwrap();
        let bytes = cred.certificate.to_bytes();
        let back = Certificate::from_bytes(&bytes).unwrap();
        assert_eq!(back, cred.certificate);
        ca.verify_issued(&back, NOW).unwrap();
        assert!(Certificate::from_bytes(&bytes[..10]).is_err());
    }

    #[test]
    fn fingerprints_are_stable_and_distinct() {
        let mut rng = StdRng::seed_from_u64(49);
        let mut ca = ca().lock().unwrap();
        let a = ca.issue("entity:fa", validity(), &mut rng).unwrap();
        let b = ca.issue("entity:fb", validity(), &mut rng).unwrap();
        assert_eq!(a.certificate.fingerprint(), a.certificate.fingerprint());
        assert_ne!(a.certificate.fingerprint(), b.certificate.fingerprint());
    }

    #[test]
    fn credential_signs_with_sha1_pkcs1() {
        let mut rng = StdRng::seed_from_u64(50);
        let mut ca = ca().lock().unwrap();
        let cred = ca.issue("entity:signer", validity(), &mut rng).unwrap();
        let sig = cred.sign(b"registration message").unwrap();
        cred.certificate
            .public_key
            .verify(DigestAlgorithm::Sha1, b"registration message", &sig)
            .unwrap();
    }

    #[test]
    fn validity_window_bounds_are_inclusive() {
        let v = Validity {
            not_before_ms: 100,
            not_after_ms: 200,
        };
        assert!(v.contains(100));
        assert!(v.contains(200));
        assert!(!v.contains(99));
        assert!(!v.contains(201));
    }
}

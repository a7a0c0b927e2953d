//! # nb-crypto — cryptography substrate
//!
//! A from-scratch implementation of every cryptographic primitive the
//! IPPS 2007 entity-tracking scheme depends on:
//!
//! * arbitrary-precision unsigned integers ([`bigint::BigUint`]) with
//!   Montgomery modular exponentiation,
//! * Miller–Rabin probabilistic prime generation ([`prime`]),
//! * RSA key generation, PKCS#1 v1.5 signing and encryption ([`rsa`]),
//! * SHA-1 and SHA-256 digests ([`sha1`], [`sha256`]) behind a common
//!   [`digest::Digest`] trait, plus HMAC ([`hmac`]),
//! * AES-128/192/256 with CBC and CTR modes and PKCS#7 padding
//!   ([`aes`], [`modes`], [`padding`]),
//! * simplified X.509-style certificates and chains ([`cert`]),
//! * 128-bit version-4 UUIDs ([`uuid`]).
//!
//! The paper's experiments use 1024-bit RSA with SHA-1 and PKCS#1
//! padding for signatures, and 192-bit AES keys for symmetric
//! encryption; all of those configurations are first-class here.
//!
//! ## Design notes
//!
//! This crate exists because the reproduction may not rely on external
//! cryptography crates. It is *not* hardened against side channels and
//! must not be used outside this research context. Correctness is
//! established against FIPS-197, NIST SP 800-38A, RFC 2202/4231 and
//! NIST SHA test vectors (see the unit tests in each module) and by
//! property-based tests on the arithmetic core.

pub mod aes;
pub mod bigint;
pub mod cert;
pub mod digest;
pub mod error;
pub mod hmac;
pub mod hybrid;
mod instrument;
pub mod modes;
pub mod padding;
pub mod prime;
pub mod rsa;
pub mod session;
pub mod sha1;
pub mod sha256;
pub mod uuid;

pub use bigint::BigUint;
pub use cert::{Certificate, Credential, Validity};
pub use digest::{Digest, DigestAlgorithm};
pub use error::CryptoError;
pub use hybrid::SealedEnvelope;
pub use rsa::{RsaKeyPair, RsaPrivateKey, RsaPublicKey};
pub use session::{SessionKey, SessionKeyring, SessionVerdict, SESSION_MAC_LEN};
pub use uuid::Uuid;

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, CryptoError>;

//! AES rounds on the x86 AES instructions (AES-NI).
//!
//! One of the two modules of the crate allowed `unsafe` (the other is
//! `sha256::ni`). It is used for two things only: the calls into the
//! `#[target_feature]` kernels, which an [`AesNi`] makes only after
//! [`AesNi::new`] detected AES-NI, and the kernels' unaligned vector
//! loads and stores.
//!
//! Encryption takes the FIPS 197 round keys as they are. Decryption
//! runs the equivalent inverse cipher (FIPS 197 §5.3.5), whose round
//! keys `AesNi::new` derives once with `aesimc`.

#[cfg(target_arch = "x86")]
use core::arch::x86::*;
#[cfg(target_arch = "x86_64")]
use core::arch::x86_64::*;

use super::MAX_ROUND_KEYS;

/// Proof that this CPU runs the AES-NI kernels, holding one key's
/// decryption round keys. Only [`AesNi::new`] makes one.
#[derive(Clone)]
pub(super) struct AesNi {
    /// Round keys of the equivalent inverse cipher; the first
    /// `len` are in use.
    dec: [[u8; 16]; MAX_ROUND_KEYS],
    len: usize,
}

impl AesNi {
    /// `None` when the CPU lacks AES-NI. Otherwise the kernel for the
    /// key whose encryption round keys are `enc` (`rounds + 1` of
    /// them), with its decryption round keys.
    pub(super) fn new(enc: &[[u8; 16]]) -> Option<Self> {
        if !(is_x86_feature_detected!("aes") && is_x86_feature_detected!("sse2")) {
            return None;
        }
        let mut dec = [[0u8; 16]; MAX_ROUND_KEYS];
        // SAFETY: aes and sse2 were detected just above.
        unsafe { inverse_keys(enc, &mut dec[..enc.len()]) };
        Some(AesNi {
            dec,
            len: enc.len(),
        })
    }

    /// Encrypts `block` in place under the round keys `enc`.
    pub(super) fn encrypt(&self, enc: &[[u8; 16]], block: &mut [u8; 16]) {
        // SAFETY: an `AesNi` exists only where `new` detected aes and
        // sse2, the features `encrypt` enables.
        unsafe { encrypt(enc, block) }
    }

    /// Decrypts `block` in place.
    pub(super) fn decrypt(&self, block: &mut [u8; 16]) {
        // SAFETY: as in `AesNi::encrypt`.
        unsafe { decrypt(&self.dec[..self.len], block) }
    }
}

/// Writes the equivalent inverse cipher's round keys for `enc` into
/// `dec` (same length): the encryption keys in reverse order, with
/// InvMixColumns applied to every key but the first and the last.
///
/// # Safety
///
/// The CPU must support `aes` and `sse2`.
#[target_feature(enable = "aes,sse2")]
unsafe fn inverse_keys(enc: &[[u8; 16]], dec: &mut [[u8; 16]]) {
    let last = enc.len() - 1;
    for (i, (out, key)) in dec.iter_mut().zip(enc.iter().rev()).enumerate() {
        if i == 0 || i == last {
            *out = *key;
        } else {
            // SAFETY: `key` and `out` are 16 bytes each; `loadu` and
            // `storeu` have no alignment requirement.
            unsafe {
                let k = _mm_aesimc_si128(_mm_loadu_si128(key.as_ptr().cast()));
                _mm_storeu_si128(out.as_mut_ptr().cast(), k);
            }
        }
    }
}

/// Encrypts `block` in place under the round keys `keys`.
///
/// # Safety
///
/// The CPU must support `aes` and `sse2`.
#[target_feature(enable = "aes,sse2")]
unsafe fn encrypt(keys: &[[u8; 16]], block: &mut [u8; 16]) {
    let (first, rest) = keys.split_first().expect("round keys");
    let (last, middle) = rest.split_last().expect("round keys");
    // SAFETY: each load reads one 16-byte array, the store writes one;
    // none needs alignment.
    unsafe {
        let mut state = _mm_xor_si128(
            _mm_loadu_si128(block.as_ptr().cast()),
            _mm_loadu_si128(first.as_ptr().cast()),
        );
        for key in middle {
            state = _mm_aesenc_si128(state, _mm_loadu_si128(key.as_ptr().cast()));
        }
        state = _mm_aesenclast_si128(state, _mm_loadu_si128(last.as_ptr().cast()));
        _mm_storeu_si128(block.as_mut_ptr().cast(), state);
    }
}

/// Decrypts `block` in place under the equivalent inverse cipher's
/// round keys `keys`.
///
/// # Safety
///
/// The CPU must support `aes` and `sse2`.
#[target_feature(enable = "aes,sse2")]
unsafe fn decrypt(keys: &[[u8; 16]], block: &mut [u8; 16]) {
    let (first, rest) = keys.split_first().expect("round keys");
    let (last, middle) = rest.split_last().expect("round keys");
    // SAFETY: as in `encrypt`.
    unsafe {
        let mut state = _mm_xor_si128(
            _mm_loadu_si128(block.as_ptr().cast()),
            _mm_loadu_si128(first.as_ptr().cast()),
        );
        for key in middle {
            state = _mm_aesdec_si128(state, _mm_loadu_si128(key.as_ptr().cast()));
        }
        state = _mm_aesdeclast_si128(state, _mm_loadu_si128(last.as_ptr().cast()));
        _mm_storeu_si128(block.as_mut_ptr().cast(), state);
    }
}

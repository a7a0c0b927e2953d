//! SHA-256 compression on the x86 SHA extensions (SHA-NI).
//!
//! One of the two modules of the crate allowed `unsafe` (the other is
//! `aes::ni`). It is used for two things only: the call into the
//! `#[target_feature]` kernel, which [`ShaNi::compress`] makes only
//! after [`ShaNi::detect`] saw every feature the kernel enables, and
//! the kernel's unaligned vector loads and stores.
//!
//! The kernel is Intel's SHA-NI round structure: the state lives in
//! two registers as `ABEF` and `CDGH`, each `sha256rnds2` runs two
//! rounds, and `sha256msg1`/`sha256msg2` extend the message schedule
//! four words at a time.

#[cfg(target_arch = "x86")]
use core::arch::x86::*;
#[cfg(target_arch = "x86_64")]
use core::arch::x86_64::*;

use super::K;

/// Proof that this CPU runs the SHA-NI kernel: only
/// [`ShaNi::detect`] makes one.
#[derive(Clone, Copy)]
pub(super) struct ShaNi(());

impl ShaNi {
    /// `Some` when the CPU has the SHA extensions and SSE4.1 (which
    /// brings the SSE2 and SSSE3 shuffles the kernel also uses).
    pub(super) fn detect() -> Option<Self> {
        let present = is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("sse2")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1");
        present.then_some(ShaNi(()))
    }

    /// Folds each 64-byte block of `blocks` into `state`.
    pub(super) fn compress(self, state: &mut [u32; 8], blocks: &[u8]) {
        // SAFETY: a `ShaNi` exists only where `detect` found sha, sse2,
        // ssse3 and sse4.1, the features `compress` enables.
        unsafe { compress(state, blocks) }
    }
}

/// Folds each 64-byte block of `blocks` into `state`; a trailing
/// partial block is ignored.
///
/// # Safety
///
/// The CPU must support `sha`, `sse2`, `ssse3` and `sse4.1`.
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
unsafe fn compress(state: &mut [u32; 8], blocks: &[u8]) {
    // Byte-swaps each 32-bit lane: the message words are big-endian.
    let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);

    // SAFETY: `state` is 32 readable bytes; `loadu` has no alignment
    // requirement.
    let (dcba, hgfe) = unsafe {
        (
            _mm_loadu_si128(state.as_ptr().cast()),
            _mm_loadu_si128(state.as_ptr().add(4).cast()),
        )
    };
    // a..h as the two registers the round instruction takes.
    let cdab = _mm_shuffle_epi32(dcba, 0xb1);
    let efgh = _mm_shuffle_epi32(hgfe, 0x1b);
    let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
    let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);

    for block in blocks.chunks_exact(64) {
        let (abef_in, cdgh_in) = (abef, cdgh);
        // SAFETY: `block` is 64 readable bytes, read as four unaligned
        // 16-byte loads.
        let raw = unsafe {
            [
                _mm_loadu_si128(block.as_ptr().cast()),
                _mm_loadu_si128(block.as_ptr().add(16).cast()),
                _mm_loadu_si128(block.as_ptr().add(32).cast()),
                _mm_loadu_si128(block.as_ptr().add(48).cast()),
            ]
        };
        // Message words W[4g..4g+4] of the last four groups g, in slot
        // g % 4.
        let mut w = [
            _mm_shuffle_epi8(raw[0], bswap),
            _mm_shuffle_epi8(raw[1], bswap),
            _mm_shuffle_epi8(raw[2], bswap),
            _mm_shuffle_epi8(raw[3], bswap),
        ];
        for group in 0..16 {
            if group >= 4 {
                // Groups g-4 .. g-1 give group g, which takes the slot
                // of group g-4.
                let (w0, w1, w2, w3) = (
                    w[group % 4],
                    w[(group + 1) % 4],
                    w[(group + 2) % 4],
                    w[(group + 3) % 4],
                );
                let sigma0 = _mm_sha256msg1_epu32(w0, w1);
                let w9 = _mm_alignr_epi8(w3, w2, 4);
                w[group % 4] = _mm_sha256msg2_epu32(_mm_add_epi32(sigma0, w9), w3);
            }
            // SAFETY: `K` has 64 words, so `4 * group + 4 <= 64`.
            let k = unsafe { _mm_loadu_si128(K.as_ptr().add(4 * group).cast()) };
            let wk = _mm_add_epi32(w[group % 4], k);
            cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
            abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
        }
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }

    let feba = _mm_shuffle_epi32(abef, 0x1b);
    let dchg = _mm_shuffle_epi32(cdgh, 0xb1);
    let dcba = _mm_blend_epi16(feba, dchg, 0xf0);
    let hgef = _mm_alignr_epi8(dchg, feba, 8);
    // SAFETY: `state` is 32 writable bytes; `storeu` has no alignment
    // requirement.
    unsafe {
        _mm_storeu_si128(state.as_mut_ptr().cast(), dcba);
        _mm_storeu_si128(state.as_mut_ptr().add(4).cast(), hgef);
    }
}

//! SHA-256 (FIPS 180-4), used for certificate signatures and message
//! digests where a stronger hash than the paper-era SHA-1 is wanted,
//! and under every HMAC on the trace path.
//!
//! Two compression kernels fold whole blocks into the state: the
//! portable one below, and the SHA-NI one in `sha256::ni` on x86 CPUs
//! that have the SHA extensions. [`Sha256::update`] detects the CPU
//! once per call and picks one for all the blocks it folds. The
//! portable kernel is the only one on other CPUs and the reference the
//! tests compare the SHA-NI kernel against.

use crate::digest::{md_padding, Digest};
use ni::ShaNi;

#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[allow(unsafe_code)]
mod ni;

/// No SHA extensions off x86: the portable kernel is the only one.
#[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
mod ni {
    /// Never made: there is no SHA-NI kernel on this architecture.
    #[derive(Clone, Copy)]
    pub(super) enum ShaNi {}

    impl ShaNi {
        pub(super) fn detect() -> Option<Self> {
            None
        }

        pub(super) fn compress(self, _state: &mut [u32; 8], _blocks: &[u8]) {
            match self {}
        }
    }
}

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Streaming SHA-256 state.
#[derive(Clone)]
pub struct Sha256 {
    h: [u32; 8],
    len: u64,
    buf: [u8; 64],
    buf_len: usize,
}

impl Default for Sha256 {
    fn default() -> Self {
        Sha256 {
            h: H0,
            len: 0,
            buf: [0; 64],
            buf_len: 0,
        }
    }
}

/// The portable compression function (FIPS 180-4 §6.2.2): folds each
/// 64-byte block of `blocks` into `state`.
fn compress_portable(state: &mut [u32; 8], blocks: &[u8]) {
    for block in blocks.chunks_exact(64) {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (hi, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *hi = hi.wrapping_add(v);
        }
    }
}

impl Sha256 {
    /// Absorbs `data`, folding whole blocks with the SHA-NI kernel when
    /// `ni` is given and with the portable one otherwise.
    fn absorb(&mut self, mut data: &[u8], ni: Option<ShaNi>) {
        let compress = |state: &mut [u32; 8], blocks: &[u8]| match ni {
            Some(ni) => ni.compress(state, blocks),
            None => compress_portable(state, blocks),
        };
        self.len = self.len.wrapping_add(data.len() as u64);
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len < 64 {
                // Buffer still partially filled and input exhausted.
                return;
            }
            let block = self.buf;
            compress(&mut self.h, &block);
            self.buf_len = 0;
        }
        let whole = data.len() - data.len() % 64;
        if whole > 0 {
            compress(&mut self.h, &data[..whole]);
        }
        let rest = &data[whole..];
        self.buf[..rest.len()].copy_from_slice(rest);
        self.buf_len = rest.len();
    }

    /// Pads with `ni`'s kernel (see [`Sha256::absorb`]) and writes the
    /// digest into `out`.
    fn finish(mut self, ni: Option<ShaNi>, out: &mut [u8]) {
        assert_eq!(out.len(), Self::OUTPUT_LEN, "SHA-256 output length");
        let mut pad = [0u8; 72];
        let pad_len = md_padding(self.len, &mut pad);
        self.absorb(&pad[..pad_len], ni);
        debug_assert_eq!(self.buf_len, 0);
        for (bytes, word) in out.chunks_exact_mut(4).zip(self.h) {
            bytes.copy_from_slice(&word.to_be_bytes());
        }
    }
}

impl Digest for Sha256 {
    const OUTPUT_LEN: usize = 32;
    const BLOCK_LEN: usize = 64;

    fn update(&mut self, data: &[u8]) {
        self.absorb(data, ShaNi::detect());
    }

    fn finalize_into(self, out: &mut [u8]) {
        self.finish(ShaNi::detect(), out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn fips_vector_empty() {
        assert_eq!(
            hex(&Sha256::digest(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn fips_vector_abc() {
        assert_eq!(
            hex(&Sha256::digest(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn fips_vector_two_blocks() {
        assert_eq!(
            hex(&Sha256::digest(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a() {
        let mut d = Sha256::default();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            d.update(&chunk);
        }
        assert_eq!(
            hex(&d.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn streaming_equals_one_shot() {
        let data: Vec<u8> = (0u8..=255).cycle().take(777).collect();
        for split in [0usize, 1, 63, 64, 65, 776, 777] {
            let mut d = Sha256::default();
            d.update(&data[..split]);
            d.update(&data[split..]);
            assert_eq!(d.finalize(), Sha256::digest(&data), "split={split}");
        }
    }

    #[test]
    fn distinct_inputs_distinct_digests() {
        assert_ne!(Sha256::digest(b"entity-1"), Sha256::digest(b"entity-2"));
    }

    /// The portable kernel alone, start to finish.
    fn portable_digest(data: &[u8]) -> [u8; 32] {
        let mut d = Sha256::default();
        d.absorb(data, None);
        let mut out = [0u8; 32];
        d.finish(None, &mut out);
        out
    }

    proptest! {
        // Both kernels called directly: each case is skipped only on a
        // CPU without SHA-NI.
        #[test]
        fn sha_ni_compression_matches_portable(
            state in proptest::array::uniform8(any::<u32>()),
            blocks in 1usize..5,
            bytes in proptest::collection::vec(any::<u8>(), 256..257),
        ) {
            let Some(ni) = ShaNi::detect() else { return };
            let data = &bytes[..64 * blocks];
            let mut portable = state;
            compress_portable(&mut portable, data);
            let mut hardware = state;
            ni.compress(&mut hardware, data);
            prop_assert_eq!(hardware, portable);
        }

        #[test]
        fn streaming_at_every_split_matches_the_portable_kernel(
            data in proptest::collection::vec(any::<u8>(), 0..200),
        ) {
            let expected = portable_digest(&data).to_vec();
            for split in 0..=data.len() {
                let mut d = Sha256::default();
                d.update(&data[..split]);
                d.update(&data[split..]);
                prop_assert_eq!(d.finalize(), expected.clone(), "split {}", split);
            }
        }
    }
}

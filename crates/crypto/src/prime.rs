//! Probabilistic prime generation (Miller–Rabin) for RSA key
//! generation.

use crate::bigint::{BigUint, MontgomeryCtx};
use crate::error::CryptoError;
use rand::Rng;

/// Primes below 1000 used for cheap trial division before the
/// expensive Miller–Rabin rounds.
const SMALL_PRIMES: [u64; 167] = [
    3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
    101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193,
    197, 199, 211, 223, 227, 229, 233, 239, 241, 251, 257, 263, 269, 271, 277, 281, 283, 293, 307,
    311, 313, 317, 331, 337, 347, 349, 353, 359, 367, 373, 379, 383, 389, 397, 401, 409, 419, 421,
    431, 433, 439, 443, 449, 457, 461, 463, 467, 479, 487, 491, 499, 503, 509, 521, 523, 541, 547,
    557, 563, 569, 571, 577, 587, 593, 599, 601, 607, 613, 617, 619, 631, 641, 643, 647, 653, 659,
    661, 673, 677, 683, 691, 701, 709, 719, 727, 733, 739, 743, 751, 757, 761, 769, 773, 787, 797,
    809, 811, 821, 823, 827, 829, 839, 853, 857, 859, 863, 877, 881, 883, 887, 907, 911, 919, 929,
    937, 941, 947, 953, 967, 971, 977, 983, 991, 997,
];

/// Number of Miller–Rabin rounds; 40 gives an error probability below
/// 2^-80 for the key sizes used here.
const MR_ROUNDS: usize = 40;

/// Samples a uniformly random value with exactly `bits` bits
/// (top bit set).
pub fn random_with_bits(bits: usize, rng: &mut dyn Rng) -> BigUint {
    assert!(bits >= 2, "need at least 2 bits");
    let bytes = bits.div_ceil(8);
    let mut buf = vec![0u8; bytes];
    rng.fill_bytes(&mut buf);
    // Clear excess high bits, then force the top bit.
    let excess = bytes * 8 - bits;
    buf[0] &= 0xffu8 >> excess;
    buf[0] |= 1 << (7 - excess);
    BigUint::from_bytes_be(&buf)
}

/// Samples a uniformly random value in `[0, bound)` by rejection.
pub fn random_below(bound: &BigUint, rng: &mut dyn Rng) -> BigUint {
    assert!(!bound.is_zero());
    let bits = bound.bit_length();
    let bytes = bits.div_ceil(8);
    let excess = bytes * 8 - bits;
    loop {
        let mut buf = vec![0u8; bytes];
        rng.fill_bytes(&mut buf);
        buf[0] &= 0xffu8 >> excess;
        let candidate = BigUint::from_bytes_be(&buf);
        if &candidate < bound {
            return candidate;
        }
    }
}

/// Miller–Rabin primality test with `MR_ROUNDS` random bases.
///
/// An `n` wider than 4096 bits, which [`MontgomeryCtx`] refuses, reads
/// as not prime.
pub fn is_probably_prime(n: &BigUint, rng: &mut dyn Rng) -> bool {
    if n < &BigUint::from_u64(2) {
        return false;
    }
    if let Some(small) = n.to_u64() {
        if small == 2 || small == 3 {
            return true;
        }
    }
    if n.is_even() {
        return false;
    }
    if let Some(p) = smallest_small_factor(n) {
        return n.to_u64() == Some(p);
    }

    // One Montgomery context serves every round and every squaring.
    let Ok(ctx) = MontgomeryCtx::new(n) else {
        return false;
    };
    // Write n-1 = d * 2^s with d odd.
    let mut d = n.sub(&BigUint::one());
    let mut s = 0usize;
    while d.is_even() {
        d = d.shr(1);
        s += 1;
    }

    // Bases a are drawn from [2, n-2].
    let range = n.sub(&BigUint::from_u64(3));
    let two = BigUint::from_u64(2);
    (0..MR_ROUNDS)
        .all(|_| ctx.is_strong_probable_prime(&random_below(&range, rng).add(&two), &d, s))
}

/// The first of [`SMALL_PRIMES`] that divides `n`, if any.
///
/// `n` is reduced once per run of consecutive small primes whose
/// product fits in a word (3 * 5 * ... * 47 < 2^64, and so on), and
/// each prime of the run is tested against that one-word residue.
fn smallest_small_factor(n: &BigUint) -> Option<u64> {
    let mut primes = &SMALL_PRIMES[..];
    while !primes.is_empty() {
        // The longest run of the remaining primes whose product fits.
        let (mut run, mut product) = (0, 1u64);
        while let Some(next) = primes.get(run).and_then(|&p| product.checked_mul(p)) {
            product = next;
            run += 1;
        }
        let residue = n.rem_u64(product);
        if let Some(&p) = primes[..run].iter().find(|&&p| residue.is_multiple_of(p)) {
            return Some(p);
        }
        primes = &primes[run..];
    }
    None
}

/// Generates a random probable prime with exactly `bits` bits, the
/// top two of them set.
///
/// The second bit puts the prime at or above `1.5 * 2^(bits-1)`, inside
/// FIPS 186-4 Appendix B.3.1's `sqrt(2) * 2^(bits-1)` bound (Go's
/// `crypto/rand.Prime` does the same), so the product of an `a`-bit
/// and a `b`-bit prime always has exactly `a + b` bits.
pub fn generate_prime(bits: usize, rng: &mut dyn Rng) -> Result<BigUint, CryptoError> {
    // Expected attempts ~ bits * ln2 / 2; give generous headroom.
    let max_attempts = bits.max(64) * 64;
    for _ in 0..max_attempts {
        let mut candidate = random_with_bits(bits, rng);
        // Set the second-highest bit, and force odd.
        candidate.limbs[(bits - 2) / 64] |= 1 << ((bits - 2) % 64);
        candidate.limbs[0] |= 1;
        if candidate.bit_length() != bits {
            continue;
        }
        if is_probably_prime(&candidate, rng) {
            return Ok(candidate);
        }
    }
    Err(CryptoError::PrimeGenerationFailed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xfeed_beef)
    }

    #[test]
    fn known_primes_pass() {
        let mut r = rng();
        for p in [
            2u64,
            3,
            5,
            101,
            997,
            7919,
            1_000_000_007,
            0xffffffff00000001,
        ] {
            assert!(
                is_probably_prime(&BigUint::from_u64(p), &mut r),
                "p={p} should be prime"
            );
        }
    }

    #[test]
    fn known_composites_fail() {
        let mut r = rng();
        for c in [1u64, 4, 100, 999, 7917, 1_000_000_008] {
            assert!(
                !is_probably_prime(&BigUint::from_u64(c), &mut r),
                "c={c} should be composite"
            );
        }
    }

    #[test]
    fn carmichael_numbers_fail() {
        // Carmichael numbers fool Fermat tests but not Miller–Rabin.
        let mut r = rng();
        for c in [561u64, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265] {
            assert!(
                !is_probably_prime(&BigUint::from_u64(c), &mut r),
                "Carmichael {c} must be rejected"
            );
        }
    }

    #[test]
    fn grouped_trial_division_finds_the_first_small_factor() {
        let mut r = rng();
        let mut values: Vec<BigUint> = (0..300).map(|_| random_with_bits(512, &mut r)).collect();
        // Multiples of primes at the end of one run and the start of the
        // next, and of the last primes in the list.
        for &(p, q) in &[(47u64, 53u64), (997, 991), (3, 997), (53, 59)] {
            values.push(random_with_bits(500, &mut r).mul_u64(p).mul_u64(q));
            values.push(BigUint::from_u64(p * q));
        }
        for n in values {
            let want = SMALL_PRIMES.iter().copied().find(|&p| n.rem_u64(p) == 0);
            assert_eq!(smallest_small_factor(&n), want, "n={n}");
        }
    }

    #[test]
    fn random_with_bits_has_exact_length() {
        let mut r = rng();
        for bits in [8usize, 9, 63, 64, 65, 512] {
            for _ in 0..5 {
                let v = random_with_bits(bits, &mut r);
                assert_eq!(v.bit_length(), bits, "bits={bits}");
            }
        }
    }

    #[test]
    fn random_below_respects_bound() {
        let mut r = rng();
        let bound = BigUint::from_u64(1000);
        for _ in 0..100 {
            assert!(random_below(&bound, &mut r) < bound);
        }
    }

    #[test]
    fn generated_primes_have_requested_size() {
        let mut r = rng();
        for bits in [64usize, 65, 128, 129] {
            let p = generate_prime(bits, &mut r).unwrap();
            assert_eq!(p.bit_length(), bits);
            assert!(p.bit(bits - 2), "second-highest bit clear, bits={bits}");
            assert!(is_probably_prime(&p, &mut r));
        }
    }

    #[test]
    fn generated_256_bit_prime() {
        let mut r = rng();
        let p = generate_prime(256, &mut r).unwrap();
        assert_eq!(p.bit_length(), 256);
        assert!(p.bit(254));
        assert!(p.is_odd());
    }
}

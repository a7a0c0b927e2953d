//! Modular arithmetic: Montgomery multiplication, modular
//! exponentiation, inverses, and GCD.

use super::BigUint;
use crate::error::CryptoError;

/// Precomputed context for Montgomery arithmetic modulo an odd `n`.
///
/// Montgomery representation maps `a` to `a * R mod n` where
/// `R = 2^(64k)` and `k` is the limb count of `n`. Multiplication in
/// this domain (CIOS method) avoids per-step long division, which is
/// what makes 1024-bit RSA exponentiation fast enough for the paper's
/// benchmark workloads.
#[derive(Clone, Debug)]
pub struct MontgomeryCtx {
    n: BigUint,
    /// `-n^{-1} mod 2^64`.
    n0_inv: u64,
    /// `R^2 mod n`, used to enter the Montgomery domain.
    rr: Vec<u64>,
}

/// Exponents longer than this many bits (private and CRT exponents,
/// Miller–Rabin's `d`) take 4-bit windows; shorter ones, such as the
/// public exponent 65537, keep plain square-and-multiply, where a
/// window's 14-product table would cost more than it saves.
const WINDOW_MIN_BITS: usize = 64;

impl MontgomeryCtx {
    /// Builds a context for an odd modulus `n > 1`.
    pub fn new(n: &BigUint) -> Result<Self, CryptoError> {
        if n.is_zero() || n.is_one() {
            return Err(CryptoError::DivisionByZero);
        }
        if n.is_even() {
            return Err(CryptoError::Malformed("Montgomery modulus must be odd"));
        }
        let k = n.limbs.len();
        // Newton iteration for the inverse of n[0] modulo 2^64; six
        // doublings of precision from 1 bit covers all 64 bits.
        let x = n.limbs[0];
        let mut inv: u64 = 1;
        for _ in 0..6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(x.wrapping_mul(inv)));
        }
        debug_assert_eq!(x.wrapping_mul(inv), 1);
        let n0_inv = inv.wrapping_neg();

        // R^2 mod n via one long division of 2^(128k).
        let r2 = BigUint::one().shl(128 * k).rem(n)?;
        let mut rr = r2.limbs;
        rr.resize(k, 0);

        Ok(MontgomeryCtx {
            n: n.clone(),
            n0_inv,
            rr,
        })
    }

    /// The modulus this context reduces by.
    pub fn modulus(&self) -> BigUint {
        self.n.clone()
    }

    fn k(&self) -> usize {
        self.n.limbs.len()
    }

    /// CIOS Montgomery multiplication: writes `a * b * R^{-1} mod n`
    /// to `out`. `a`, `b` and `out` are `k` limbs and `t` is `k + 2`
    /// limbs of scratch; nothing is allocated, so an exponentiation
    /// that reuses its buffers never touches the heap per product.
    #[allow(clippy::needless_range_loop)] // index math mirrors the CIOS paper
    fn mont_mul(&self, a: &[u64], b: &[u64], t: &mut [u64], out: &mut [u64]) {
        let k = self.k();
        let n = &self.n.limbs[..k];
        let (a, b, out, t) = (&a[..k], &b[..k], &mut out[..k], &mut t[..k + 2]);
        t.fill(0);
        for i in 0..k {
            // t += a[i] * b
            let ai = a[i] as u128;
            let mut carry = 0u64;
            for j in 0..k {
                let s = t[j] as u128 + ai * b[j] as u128 + carry as u128;
                t[j] = s as u64;
                carry = (s >> 64) as u64;
            }
            let s = t[k] as u128 + carry as u128;
            t[k] = s as u64;
            t[k + 1] = (s >> 64) as u64;

            // m = t[0] * (-n^-1) mod 2^64; then t = (t + m*n) / 2^64
            let m = t[0].wrapping_mul(self.n0_inv) as u128;
            let s = t[0] as u128 + m * n[0] as u128;
            debug_assert_eq!(s as u64, 0);
            let mut carry = (s >> 64) as u64;
            for j in 1..k {
                let s = t[j] as u128 + m * n[j] as u128 + carry as u128;
                t[j - 1] = s as u64;
                carry = (s >> 64) as u64;
            }
            let s = t[k] as u128 + carry as u128;
            t[k - 1] = s as u64;
            t[k] = t[k + 1] + ((s >> 64) as u64);
            t[k + 1] = 0;
        }
        // Conditional subtraction to bring the result below n.
        if t[k] != 0 || ge_slice(&t[..k], n) {
            let mut borrow = 0u64;
            for j in 0..k {
                let (d1, b1) = t[j].overflowing_sub(n[j]);
                let (d2, b2) = d1.overflowing_sub(borrow);
                out[j] = d2;
                borrow = (b1 as u64) + (b2 as u64);
            }
        } else {
            out.copy_from_slice(&t[..k]);
        }
    }

    /// Writes a reduced value (`a < n`) into `out` in the Montgomery
    /// domain.
    fn to_mont(&self, a: &BigUint, t: &mut [u64], out: &mut [u64]) {
        let mut limbs = a.limbs.clone();
        limbs.resize(self.k(), 0);
        self.mont_mul(&limbs, &self.rr, t, out);
    }

    /// Leaves the Montgomery domain.
    #[allow(clippy::wrong_self_convention)] // "from the Montgomery domain", not a constructor
    fn from_mont(&self, a: &[u64], t: &mut [u64]) -> BigUint {
        let mut one = vec![0u64; self.k()];
        one[0] = 1;
        let mut out = vec![0u64; self.k()];
        self.mont_mul(a, &one, t, &mut out);
        BigUint::from_limbs(out)
    }

    /// Modular multiplication `a * b mod n` for already-reduced inputs.
    pub fn mul_mod(&self, a: &BigUint, b: &BigUint) -> BigUint {
        let k = self.k();
        let mut t = vec![0u64; k + 2];
        let mut am = vec![0u64; k];
        let mut bm = vec![0u64; k];
        self.to_mont(a, &mut t, &mut am);
        self.to_mont(b, &mut t, &mut bm);
        let mut product = vec![0u64; k];
        self.mont_mul(&am, &bm, &mut t, &mut product);
        self.from_mont(&product, &mut t)
    }

    /// Modular exponentiation `base^exp mod n`: a left-to-right
    /// fixed-window loop in the Montgomery domain over buffers
    /// allocated once per call. The window is 4 bits for exponents
    /// longer than 64 bits and 1 bit (square-and-multiply) otherwise.
    pub fn pow_mod(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        if exp.is_zero() {
            return BigUint::one(); // n > 1, so 1 is already reduced
        }
        let reduced;
        let base = if base >= &self.n {
            reduced = base.rem(&self.n).unwrap();
            &reduced
        } else {
            base
        };
        let k = self.k();
        let bits = exp.bit_length();
        let w = if bits > WINDOW_MIN_BITS { 4 } else { 1 };
        let mut t = vec![0u64; k + 2];
        // Entry `d - 1` (limbs `(d - 1) * k..d * k`) holds base^d in the
        // Montgomery domain, for d = 1..2^w.
        let mut table = vec![0u64; ((1 << w) - 1) * k];
        self.to_mont(base, &mut t, &mut table[..k]);
        for d in 2..1 << w {
            let (lower, entry) = table.split_at_mut((d - 1) * k);
            self.mont_mul(&lower[(d - 2) * k..], &lower[..k], &mut t, entry);
        }
        let entry = |d: usize| &table[(d - 1) * k..d * k];

        // The top window holds the exponent's top bit, so it is never
        // zero and seeds the accumulator.
        let windows = bits.div_ceil(w);
        let mut acc = entry(window(exp, (windows - 1) * w, w)).to_vec();
        let mut next = vec![0u64; k];
        for i in (0..windows - 1).rev() {
            for _ in 0..w {
                self.mont_mul(&acc, &acc, &mut t, &mut next);
                std::mem::swap(&mut acc, &mut next);
            }
            let d = window(exp, i * w, w);
            if d != 0 {
                self.mont_mul(&acc, entry(d), &mut t, &mut next);
                std::mem::swap(&mut acc, &mut next);
            }
        }
        self.from_mont(&acc, &mut t)
    }
}

/// The `w` bits of `exp` starting at bit `lo`, as a number.
fn window(exp: &BigUint, lo: usize, w: usize) -> usize {
    (lo..lo + w)
        .rev()
        .fold(0, |d, i| (d << 1) | exp.bit(i) as usize)
}

fn ge_slice(a: &[u64], b: &[u64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    for i in (0..a.len()).rev() {
        if a[i] != b[i] {
            return a[i] > b[i];
        }
    }
    true
}

impl BigUint {
    /// Modular exponentiation `self^exp mod m`.
    ///
    /// Uses Montgomery arithmetic when `m` is odd (the RSA case) and a
    /// division-based square-and-multiply fallback otherwise.
    pub fn modpow(&self, exp: &BigUint, m: &BigUint) -> Result<BigUint, CryptoError> {
        if m.is_zero() {
            return Err(CryptoError::DivisionByZero);
        }
        if m.is_one() {
            return Ok(BigUint::zero());
        }
        if m.is_odd() {
            let ctx = MontgomeryCtx::new(m)?;
            return Ok(ctx.pow_mod(self, exp));
        }
        self.modpow_generic(exp, m)
    }

    /// Square-and-multiply with full division-based reduction. Exposed
    /// for benchmarking the Montgomery speedup (DESIGN.md ablation).
    pub fn modpow_generic(&self, exp: &BigUint, m: &BigUint) -> Result<BigUint, CryptoError> {
        if m.is_zero() {
            return Err(CryptoError::DivisionByZero);
        }
        if m.is_one() {
            return Ok(BigUint::zero());
        }
        let mut result = BigUint::one();
        let mut base = self.rem(m)?;
        let bits = exp.bit_length();
        for i in 0..bits {
            if exp.bit(i) {
                result = result.mul(&base).rem(m)?;
            }
            if i + 1 < bits {
                base = base.mul(&base).rem(m)?;
            }
        }
        Ok(result)
    }

    /// Greatest common divisor (binary GCD).
    pub fn gcd(&self, other: &BigUint) -> BigUint {
        let mut a = self.clone();
        let mut b = other.clone();
        if a.is_zero() {
            return b;
        }
        if b.is_zero() {
            return a;
        }
        // Factor out common powers of two.
        let mut shift = 0usize;
        while a.is_even() && b.is_even() {
            a = a.shr(1);
            b = b.shr(1);
            shift += 1;
        }
        while a.is_even() {
            a = a.shr(1);
        }
        loop {
            while b.is_even() {
                b = b.shr(1);
            }
            if a > b {
                std::mem::swap(&mut a, &mut b);
            }
            b = b.sub(&a);
            if b.is_zero() {
                break;
            }
        }
        a.shl(shift)
    }

    /// Modular inverse: finds `x` with `self * x ≡ 1 (mod m)`.
    ///
    /// Returns [`CryptoError::NotInvertible`] when `gcd(self, m) != 1`.
    pub fn mod_inverse(&self, m: &BigUint) -> Result<BigUint, CryptoError> {
        if m.is_zero() || m.is_one() {
            return Err(CryptoError::NotInvertible);
        }
        let a = self.rem(m)?;
        if a.is_zero() {
            return Err(CryptoError::NotInvertible);
        }
        // Extended Euclid with sign-tracked coefficients.
        let (mut old_r, mut r) = (a, m.clone());
        let (mut old_s, mut s) = (Signed::pos(BigUint::one()), Signed::pos(BigUint::zero()));
        while !r.is_zero() {
            let (q, rem) = old_r.div_rem(&r)?;
            old_r = std::mem::replace(&mut r, rem);
            let qs = s.mul_mag(&q);
            let new_s = old_s.sub(&qs);
            old_s = std::mem::replace(&mut s, new_s);
        }
        if !old_r.is_one() {
            return Err(CryptoError::NotInvertible);
        }
        old_s.reduce_mod(m)
    }
}

/// Minimal signed wrapper used only by the extended Euclid above.
#[derive(Clone)]
struct Signed {
    neg: bool,
    mag: BigUint,
}

impl Signed {
    fn pos(mag: BigUint) -> Self {
        Signed { neg: false, mag }
    }

    fn mul_mag(&self, q: &BigUint) -> Signed {
        Signed {
            neg: self.neg,
            mag: self.mag.mul(q),
        }
    }

    fn sub(&self, other: &Signed) -> Signed {
        match (self.neg, other.neg) {
            // a - b with both non-negative.
            (false, false) | (true, true) => {
                if self.mag >= other.mag {
                    Signed {
                        neg: self.neg,
                        mag: self.mag.sub(&other.mag),
                    }
                } else {
                    Signed {
                        neg: !self.neg,
                        mag: other.mag.sub(&self.mag),
                    }
                }
            }
            // a - (-b) = a + b ; (-a) - b = -(a + b)
            (false, true) | (true, false) => Signed {
                neg: self.neg,
                mag: self.mag.add(&other.mag),
            },
        }
    }

    fn reduce_mod(&self, m: &BigUint) -> Result<BigUint, CryptoError> {
        let r = self.mag.rem(m)?;
        if self.neg && !r.is_zero() {
            Ok(m.sub(&r))
        } else {
            Ok(r)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(v: u64) -> BigUint {
        BigUint::from_u64(v)
    }

    fn h(s: &str) -> BigUint {
        BigUint::from_hex(s).unwrap()
    }

    #[test]
    fn montgomery_rejects_even_or_trivial_modulus() {
        assert!(MontgomeryCtx::new(&n(10)).is_err());
        assert!(MontgomeryCtx::new(&BigUint::zero()).is_err());
        assert!(MontgomeryCtx::new(&BigUint::one()).is_err());
    }

    #[test]
    fn montgomery_mul_matches_naive() {
        let m = h("fedcba9876543211"); // odd
        let ctx = MontgomeryCtx::new(&m).unwrap();
        let a = h("123456789abcdef0");
        let b = h("fedcba987654320f");
        let got = ctx.mul_mod(&a.rem(&m).unwrap(), &b.rem(&m).unwrap());
        let want = a.mul(&b).rem(&m).unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn modpow_small_cases() {
        assert_eq!(n(2).modpow(&n(10), &n(1000)).unwrap(), n(24));
        assert_eq!(n(3).modpow(&n(0), &n(7)).unwrap(), n(1));
        assert_eq!(n(0).modpow(&n(5), &n(7)).unwrap(), n(0));
        assert_eq!(n(5).modpow(&n(3), &BigUint::one()).unwrap(), n(0));
    }

    #[test]
    fn modpow_fermat_little_theorem() {
        // a^(p-1) ≡ 1 mod p for prime p not dividing a.
        let p = n(1_000_000_007);
        for a in [2u64, 3, 12345, 999_999_999] {
            assert_eq!(
                n(a).modpow(&n(1_000_000_006), &p).unwrap(),
                BigUint::one(),
                "a={a}"
            );
        }
    }

    #[test]
    fn modpow_matches_generic_fallback() {
        let m = h("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"); // odd
        let base = h("123456789abcdef0fedcba9876543210aabbccddeeff0011");
        let exp = h("10001");
        assert_eq!(
            base.modpow(&exp, &m).unwrap(),
            base.modpow_generic(&exp, &m).unwrap()
        );
    }

    #[test]
    fn modpow_even_modulus_uses_fallback() {
        let m = h("10000000000000000"); // 2^64, even
        assert_eq!(n(3).modpow(&n(64), &m).unwrap(), n(3).modpow_generic(&n(64), &m).unwrap());
    }

    #[test]
    fn gcd_basics() {
        assert_eq!(n(12).gcd(&n(18)), n(6));
        assert_eq!(n(17).gcd(&n(31)), n(1));
        assert_eq!(n(0).gcd(&n(5)), n(5));
        assert_eq!(n(5).gcd(&n(0)), n(5));
        assert_eq!(n(48).gcd(&n(36)), n(12));
    }

    #[test]
    fn mod_inverse_round_trips() {
        let m = n(1_000_000_007);
        for a in [2u64, 3, 65537, 999_999_999] {
            let inv = n(a).mod_inverse(&m).unwrap();
            assert_eq!(n(a).mul_mod(&inv, &m).unwrap(), BigUint::one(), "a={a}");
        }
    }

    #[test]
    fn mod_inverse_not_coprime_fails() {
        assert_eq!(n(6).mod_inverse(&n(9)), Err(CryptoError::NotInvertible));
        assert_eq!(n(0).mod_inverse(&n(9)), Err(CryptoError::NotInvertible));
    }

    #[test]
    fn mod_inverse_large_operands() {
        let m = h("ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"); // odd
        let a = h("123456789abcdef0123456789abcdef0");
        if a.gcd(&m).is_one() {
            let inv = a.mod_inverse(&m).unwrap();
            assert_eq!(a.mul_mod(&inv, &m).unwrap(), BigUint::one());
        }
    }

    #[test]
    fn rsa_shaped_round_trip() {
        // p, q small primes; e*d ≡ 1 mod (p-1)(q-1); m^(e*d) ≡ m mod n.
        let p = n(61);
        let q = n(53);
        let modulus = p.mul(&q); // 3233
        let e = n(17);
        let phi = n(60).mul(&n(52)); // 3120
        let d = e.mod_inverse(&phi).unwrap(); // 2753
        assert_eq!(d, n(2753));
        let msg = n(65);
        let c = msg.modpow(&e, &modulus).unwrap();
        assert_eq!(c, n(2790));
        let back = c.modpow(&d, &modulus).unwrap();
        assert_eq!(back, msg);
    }
}

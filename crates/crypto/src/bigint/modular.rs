//! Modular arithmetic: Montgomery multiplication, modular
//! exponentiation, inverses, and GCD.

use super::BigUint;
use crate::error::CryptoError;
use std::borrow::Cow;

/// Precomputed context for Montgomery arithmetic modulo an odd `n`.
///
/// Montgomery representation maps `a` to `a * R mod n` where
/// `R = 2^(64N)` and `N` is the width of the fixed-width kernel that
/// serves `n`: 4 limbs up to 256 bits (RSA-512's primes), 8 up to 512
/// bits (RSA-1024's primes and CRT halves), 16 up to 1024 bits (its
/// modulus), then 32 and 64, so moduli of up to 4096 bits. Any `R`
/// above an odd `n` works, so a narrower modulus runs zero-extended at
/// the next width and every result is the same. Multiplication in this
/// domain avoids per-step long division, and the fixed width lets the
/// compiler unroll the limb loops: that is what makes RSA key
/// generation and 1024-bit exponentiation fast enough for the paper's
/// benchmark workloads.
#[derive(Clone, Debug)]
pub struct MontgomeryCtx {
    n: BigUint,
    kernel: Kernel,
}

/// The widest modulus a kernel serves, in 64-bit limbs.
const MAX_LIMBS: usize = 64;

/// A [`Fixed`] context at the narrowest width that holds the modulus.
#[derive(Clone, Debug)]
enum Kernel {
    L4(Fixed<4>),
    L8(Fixed<8>),
    L16(Fixed<16>),
    L32(Box<Fixed<32>>),
    L64(Box<Fixed<64>>),
}

/// Evaluates `$body` with `$k` bound to the width-specific [`Fixed`]
/// context inside `$kernel`.
macro_rules! with_kernel {
    ($kernel:expr, |$k:ident| $body:expr) => {
        match $kernel {
            Kernel::L4($k) => $body,
            Kernel::L8($k) => $body,
            Kernel::L16($k) => $body,
            Kernel::L32($k) => $body,
            Kernel::L64($k) => $body,
        }
    };
}

/// Exponents longer than this many bits (private and CRT exponents,
/// Miller–Rabin's `d`) take [`WINDOW`]-bit windows; shorter ones, such
/// as the public exponent 65537, keep plain square-and-multiply, where
/// a window's 14-product table would cost more than it saves.
const WINDOW_MIN_BITS: usize = 64;

/// Window width of long exponents.
const WINDOW: usize = 4;

impl MontgomeryCtx {
    /// Builds a context for an odd modulus `n > 1` of at most 4096
    /// bits; a wider one is refused with [`CryptoError::Malformed`].
    pub fn new(n: &BigUint) -> Result<Self, CryptoError> {
        if n.is_zero() || n.is_one() {
            return Err(CryptoError::DivisionByZero);
        }
        if n.is_even() {
            return Err(CryptoError::Malformed("Montgomery modulus must be odd"));
        }
        let kernel = match n.limbs.len() {
            0..=4 => Kernel::L4(Fixed::new(n)),
            5..=8 => Kernel::L8(Fixed::new(n)),
            9..=16 => Kernel::L16(Fixed::new(n)),
            17..=32 => Kernel::L32(Box::new(Fixed::new(n))),
            33..=MAX_LIMBS => Kernel::L64(Box::new(Fixed::new(n))),
            _ => {
                return Err(CryptoError::Malformed(
                    "Montgomery modulus wider than 4096 bits",
                ))
            }
        };
        Ok(MontgomeryCtx {
            n: n.clone(),
            kernel,
        })
    }

    /// The modulus this context reduces by.
    pub fn modulus(&self) -> BigUint {
        self.n.clone()
    }

    /// `a mod n`, borrowing `a` when it is already reduced.
    fn reduced<'a>(&self, a: &'a BigUint) -> Cow<'a, BigUint> {
        if a < &self.n {
            Cow::Borrowed(a)
        } else {
            Cow::Owned(a.rem(&self.n).expect("the modulus is above 1"))
        }
    }

    /// Modular multiplication `a * b mod n`.
    pub fn mul_mod(&self, a: &BigUint, b: &BigUint) -> BigUint {
        let (a, b) = (self.reduced(a), self.reduced(b));
        // (a * b * R^-1) * R^2 * R^-1 = a * b: two products, and no
        // trip into or out of the Montgomery domain.
        with_kernel!(&self.kernel, |k| {
            to_biguint(&k.mul(&k.mul(&limbs(&a), &limbs(&b)), &k.rr))
        })
    }

    /// Modular exponentiation `base^exp mod n`: a left-to-right
    /// fixed-window loop in the Montgomery domain over stack buffers.
    /// The window is 4 bits for exponents longer than 64 bits and 1 bit
    /// (square-and-multiply) otherwise.
    pub fn pow_mod(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        if exp.is_zero() {
            return BigUint::one(); // n > 1, so 1 is already reduced
        }
        let base = self.reduced(base);
        with_kernel!(&self.kernel, |k| k.from_mont(&k.pow(&base, exp)))
    }

    /// One Miller–Rabin round: whether `n` is a strong probable prime to
    /// base `a` (`1 < a < n - 1`), where `n - 1 = d * 2^s` with `d` odd.
    /// That is `a^d ≡ 1`, or `a^(d * 2^r) ≡ -1` for some `r < s`; the
    /// `s - 1` squarings stay in the Montgomery domain, where 1 and -1
    /// have fixed images to compare against.
    pub(crate) fn is_strong_probable_prime(&self, a: &BigUint, d: &BigUint, s: usize) -> bool {
        with_kernel!(&self.kernel, |k| k.is_strong_probable_prime(a, d, s))
    }
}

/// Montgomery arithmetic modulo an odd `n` of at most `N` limbs, with
/// `R = 2^(64N)`. Values in the domain are `N`-limb arrays below `n`.
#[derive(Clone, Debug)]
struct Fixed<const N: usize> {
    /// The modulus, zero-extended to `N` limbs.
    n: [u64; N],
    /// `-n^{-1} mod 2^64`.
    n0_inv: u64,
    /// `R^2 mod n`, used to enter the Montgomery domain.
    rr: [u64; N],
}

impl<const N: usize> Fixed<N> {
    /// The constants for an odd `n > 1` of at most `N` limbs.
    fn new(n: &BigUint) -> Self {
        // Newton iteration for the inverse of n[0] modulo 2^64; six
        // doublings of precision from 1 bit covers all 64 bits.
        let x = n.limbs[0];
        let mut inv: u64 = 1;
        for _ in 0..6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(x.wrapping_mul(inv)));
        }
        debug_assert_eq!(x.wrapping_mul(inv), 1);
        // R^2 mod n via one long division of 2^(128N).
        let rr = BigUint::one()
            .shl(128 * N)
            .rem(n)
            .expect("the modulus is above 1");
        Fixed {
            n: limbs(n),
            n0_inv: inv.wrapping_neg(),
            rr: limbs(&rr),
        }
    }

    /// The Montgomery product `a * b * R^-1 mod n`.
    fn mul(&self, a: &[u64; N], b: &[u64; N]) -> [u64; N] {
        self.reduce(&mut mul_wide(a, b))
    }

    /// The Montgomery square `a * a * R^-1 mod n`.
    fn sqr(&self, a: &[u64; N]) -> [u64; N] {
        self.reduce(&mut square_wide(a))
    }

    /// Montgomery reduction: `t * R^-1 mod n` for a `2N`-limb `t < n * R`
    /// (low half first). Row `i` adds the multiple of `n` that clears
    /// limb `i`, so the high half ends at `(t + m * n) / R < 2n`, with
    /// its carry in `top`; one conditional subtraction brings it below
    /// `n`.
    fn reduce(&self, wide: &mut [[u64; N]; 2]) -> [u64; N] {
        let t = wide.as_flattened_mut();
        let mut top = 0u64;
        for i in 0..N {
            let m = t[i].wrapping_mul(self.n0_inv) as u128;
            let mut carry = 0u64;
            for j in 0..N {
                let s = t[i + j] as u128 + m * self.n[j] as u128 + carry as u128;
                t[i + j] = s as u64;
                carry = (s >> 64) as u64;
            }
            let s = t[i + N] as u128 + carry as u128 + top as u128;
            t[i + N] = s as u64;
            top = (s >> 64) as u64;
        }
        let high = wide[1];
        if top == 0 && high.iter().rev().lt(self.n.iter().rev()) {
            high
        } else {
            sub(&high, &self.n)
        }
    }

    /// Enters the Montgomery domain: `a * R mod n` for `a < n`.
    fn to_mont(&self, a: &BigUint) -> [u64; N] {
        self.mul(&limbs(a), &self.rr)
    }

    /// Leaves the Montgomery domain: `a * R^-1 mod n`.
    #[allow(clippy::wrong_self_convention)] // "from the Montgomery domain", not a constructor
    fn from_mont(&self, a: &[u64; N]) -> BigUint {
        to_biguint(&self.reduce(&mut [*a, [0; N]]))
    }

    /// `base^exp` in the Montgomery domain, for `base < n` and `exp > 0`.
    fn pow(&self, base: &BigUint, exp: &BigUint) -> [u64; N] {
        let bits = exp.bit_length();
        let w = if bits > WINDOW_MIN_BITS { WINDOW } else { 1 };
        // Entry `d - 1` holds base^d in the Montgomery domain, for
        // d = 1..2^w.
        let mut table = [[0u64; N]; (1 << WINDOW) - 1];
        table[0] = self.to_mont(base);
        for d in 1..(1 << w) - 1 {
            table[d] = self.mul(&table[d - 1], &table[0]);
        }

        // The top window holds the exponent's top bit, so it is never
        // zero and seeds the accumulator.
        let windows = bits.div_ceil(w);
        let mut acc = table[window(exp, (windows - 1) * w, w) - 1];
        for i in (0..windows - 1).rev() {
            for _ in 0..w {
                acc = self.sqr(&acc);
            }
            let d = window(exp, i * w, w);
            if d != 0 {
                acc = self.mul(&acc, &table[d - 1]);
            }
        }
        acc
    }

    /// See [`MontgomeryCtx::is_strong_probable_prime`].
    fn is_strong_probable_prime(&self, a: &BigUint, d: &BigUint, s: usize) -> bool {
        // R mod n and n - (R mod n) are the images of 1 and n - 1.
        let one = self.to_mont(&BigUint::one());
        let minus_one = sub(&self.n, &one);
        let mut x = self.pow(a, d);
        if x == one || x == minus_one {
            return true;
        }
        for _ in 1..s {
            x = self.sqr(&x);
            if x == minus_one {
                return true;
            }
        }
        false
    }
}

/// The `2N`-limb product `a * b`, low half first.
fn mul_wide<const N: usize>(a: &[u64; N], b: &[u64; N]) -> [[u64; N]; 2] {
    let mut wide = [[0u64; N]; 2];
    let t = wide.as_flattened_mut();
    for i in 0..N {
        let ai = a[i] as u128;
        let mut carry = 0u64;
        for j in 0..N {
            let s = t[i + j] as u128 + ai * b[j] as u128 + carry as u128;
            t[i + j] = s as u64;
            carry = (s >> 64) as u64;
        }
        t[i + N] = carry;
    }
    wide
}

/// The `2N`-limb square `a * a`, low half first: each cross product
/// `a[i] * a[j]`, `i < j`, is computed once and the sum doubled, then
/// the squares of the limbs are added on the diagonal.
fn square_wide<const N: usize>(a: &[u64; N]) -> [[u64; N]; 2] {
    let mut wide = [[0u64; N]; 2];
    let t = wide.as_flattened_mut();
    for i in 0..N {
        let ai = a[i] as u128;
        let mut carry = 0u64;
        for j in i + 1..N {
            let s = t[i + j] as u128 + ai * a[j] as u128 + carry as u128;
            t[i + j] = s as u64;
            carry = (s >> 64) as u64;
        }
        t[i + N] = carry;
    }
    // The cross products sum to less than a^2 / 2, so doubling them
    // shifts no bit out of the top limb.
    let mut shifted_out = 0u64;
    for limb in t.iter_mut() {
        let next = *limb >> 63;
        *limb = (*limb << 1) | shifted_out;
        shifted_out = next;
    }
    let mut carry = 0u64;
    for i in 0..N {
        let square = a[i] as u128 * a[i] as u128;
        let s = t[2 * i] as u128 + (square as u64) as u128 + carry as u128;
        t[2 * i] = s as u64;
        let s = t[2 * i + 1] as u128 + (square >> 64) + (s >> 64);
        t[2 * i + 1] = s as u64;
        carry = (s >> 64) as u64;
    }
    wide
}

/// `a - b` modulo `R = 2^(64N)`: the difference itself when `a >= b`,
/// and `a + R - b` when [`Fixed::reduce`]'s value carried out into `R`.
fn sub<const N: usize>(a: &[u64; N], b: &[u64; N]) -> [u64; N] {
    let mut out = [0u64; N];
    let mut borrow = false;
    for j in 0..N {
        let (d1, b1) = a[j].overflowing_sub(b[j]);
        let (d2, b2) = d1.overflowing_sub(borrow as u64);
        out[j] = d2;
        borrow = b1 | b2;
    }
    out
}

/// `a` zero-extended to `N` limbs; `a` must be below the modulus.
fn limbs<const N: usize>(a: &BigUint) -> [u64; N] {
    let mut out = [0u64; N];
    out[..a.limbs.len()].copy_from_slice(&a.limbs);
    out
}

/// An `N`-limb value as a [`BigUint`].
fn to_biguint<const N: usize>(a: &[u64; N]) -> BigUint {
    BigUint::from_limbs(a.to_vec())
}

/// The `w` bits of `exp` starting at bit `lo`, as a number.
fn window(exp: &BigUint, lo: usize, w: usize) -> usize {
    (lo..lo + w)
        .rev()
        .fold(0, |d, i| (d << 1) | exp.bit(i) as usize)
}

impl BigUint {
    /// Modular exponentiation `self^exp mod m`.
    ///
    /// Uses Montgomery arithmetic when `m` is odd (the RSA case) and a
    /// division-based square-and-multiply fallback otherwise. An odd
    /// `m` wider than 4096 bits is refused, as [`MontgomeryCtx::new`]
    /// refuses it.
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
        assert_eq!(
            n(3).modpow(&n(64), &m).unwrap(),
            n(3).modpow_generic(&n(64), &m).unwrap()
        );
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

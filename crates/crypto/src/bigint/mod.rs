//! Arbitrary-precision unsigned integers.
//!
//! [`BigUint`] stores magnitude as little-endian `u64` limbs with no
//! trailing zero limbs (canonical form). The type implements the
//! arithmetic needed for RSA: addition, subtraction, schoolbook
//! multiplication, Knuth Algorithm D division, and modular
//! arithmetic including Montgomery exponentiation ([`MontgomeryCtx`]).

mod div;
mod modular;

pub use modular::MontgomeryCtx;

use crate::error::CryptoError;
use std::cmp::Ordering;
use std::fmt;

/// An arbitrary-precision unsigned integer.
///
/// Internally a little-endian vector of 64-bit limbs in canonical form
/// (no trailing zero limbs; zero is the empty vector).
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BigUint {
    pub(crate) limbs: Vec<u64>,
}

impl BigUint {
    /// The value `0`.
    pub fn zero() -> Self {
        BigUint { limbs: Vec::new() }
    }

    /// The value `1`.
    pub fn one() -> Self {
        BigUint { limbs: vec![1] }
    }

    /// Builds a value from a single `u64`.
    pub fn from_u64(v: u64) -> Self {
        if v == 0 {
            Self::zero()
        } else {
            BigUint { limbs: vec![v] }
        }
    }

    /// Constructs from raw little-endian limbs (normalizing).
    pub(crate) fn from_limbs(limbs: Vec<u64>) -> Self {
        let mut out = BigUint { limbs };
        out.normalize();
        out
    }

    /// Parses a big-endian byte string (leading zeros allowed).
    pub fn from_bytes_be(bytes: &[u8]) -> Self {
        let mut limbs = Vec::with_capacity(bytes.len() / 8 + 1);
        let mut chunk_iter = bytes.rchunks(8);
        for chunk in &mut chunk_iter {
            let mut limb = 0u64;
            for &b in chunk {
                limb = (limb << 8) | b as u64;
            }
            limbs.push(limb);
        }
        Self::from_limbs(limbs)
    }

    /// Serializes to big-endian bytes with no leading zeros.
    ///
    /// Zero serializes to an empty vector; use
    /// [`BigUint::to_bytes_be_padded`] for fixed-width output.
    pub fn to_bytes_be(&self) -> Vec<u8> {
        if self.is_zero() {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(self.limbs.len() * 8);
        for &limb in self.limbs.iter().rev() {
            out.extend_from_slice(&limb.to_be_bytes());
        }
        // Strip leading zero bytes of the most significant limb.
        let first_nonzero = out.iter().position(|&b| b != 0).unwrap_or(out.len());
        out.drain(..first_nonzero);
        out
    }

    /// Serializes to big-endian bytes left-padded with zeros to `width`.
    ///
    /// Returns an error if the value does not fit in `width` bytes.
    pub fn to_bytes_be_padded(&self, width: usize) -> Result<Vec<u8>, CryptoError> {
        let raw = self.to_bytes_be();
        if raw.len() > width {
            return Err(CryptoError::InvalidLength {
                what: "big integer",
                expected: width,
                actual: raw.len(),
            });
        }
        let mut out = vec![0u8; width - raw.len()];
        out.extend_from_slice(&raw);
        Ok(out)
    }

    /// Parses a hexadecimal string (no `0x` prefix, case-insensitive).
    pub fn from_hex(s: &str) -> Result<Self, CryptoError> {
        let s = s.trim();
        let mut bytes = Vec::with_capacity(s.len() / 2 + 1);
        let chars: Vec<u8> = s.bytes().collect();
        let mut idx = 0;
        // Odd-length strings get an implicit leading zero nibble.
        if chars.len() % 2 == 1 {
            bytes.push(hex_val(chars[0])?);
            idx = 1;
        }
        while idx + 1 < chars.len() + 1 && idx < chars.len() {
            let hi = hex_val(chars[idx])?;
            let lo = hex_val(chars[idx + 1])?;
            bytes.push((hi << 4) | lo);
            idx += 2;
        }
        Ok(Self::from_bytes_be(&bytes))
    }

    /// Formats as lowercase hexadecimal with no leading zeros (`"0"` for zero).
    pub fn to_hex(&self) -> String {
        if self.is_zero() {
            return "0".to_string();
        }
        let bytes = self.to_bytes_be();
        let mut s = String::with_capacity(bytes.len() * 2);
        for b in bytes {
            s.push_str(&format!("{b:02x}"));
        }
        // Trim a single leading '0' nibble if present.
        if s.starts_with('0') {
            s.remove(0);
        }
        s
    }

    /// `true` if the value is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// `true` if the value is one.
    pub fn is_one(&self) -> bool {
        self.limbs.len() == 1 && self.limbs[0] == 1
    }

    /// `true` if the value is even (zero counts as even).
    pub fn is_even(&self) -> bool {
        self.limbs.first().is_none_or(|l| l & 1 == 0)
    }

    /// `true` if the value is odd.
    pub fn is_odd(&self) -> bool {
        !self.is_even()
    }

    /// Returns bit `i` (little-endian bit order).
    pub fn bit(&self, i: usize) -> bool {
        let limb = i / 64;
        let off = i % 64;
        self.limbs.get(limb).is_some_and(|l| (l >> off) & 1 == 1)
    }

    /// Number of significant bits (0 for zero).
    pub fn bit_length(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(&top) => (self.limbs.len() - 1) * 64 + (64 - top.leading_zeros() as usize),
        }
    }

    /// Converts to `u64` if it fits.
    pub fn to_u64(&self) -> Option<u64> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0]),
            _ => None,
        }
    }

    fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// `self + other`.
    #[allow(clippy::should_implement_trait, clippy::needless_range_loop)]
    pub fn add(&self, other: &BigUint) -> BigUint {
        let (long, short) = if self.limbs.len() >= other.limbs.len() {
            (&self.limbs, &other.limbs)
        } else {
            (&other.limbs, &self.limbs)
        };
        let mut out = Vec::with_capacity(long.len() + 1);
        let mut carry = 0u64;
        for i in 0..long.len() {
            let b = short.get(i).copied().unwrap_or(0);
            let (s1, c1) = long[i].overflowing_add(b);
            let (s2, c2) = s1.overflowing_add(carry);
            out.push(s2);
            carry = (c1 as u64) + (c2 as u64);
        }
        if carry != 0 {
            out.push(carry);
        }
        BigUint::from_limbs(out)
    }

    /// `self - other`, or `None` if the result would be negative.
    pub fn checked_sub(&self, other: &BigUint) -> Option<BigUint> {
        if self < other {
            return None;
        }
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0u64;
        for i in 0..self.limbs.len() {
            let b = other.limbs.get(i).copied().unwrap_or(0);
            let (d1, b1) = self.limbs[i].overflowing_sub(b);
            let (d2, b2) = d1.overflowing_sub(borrow);
            out.push(d2);
            borrow = (b1 as u64) + (b2 as u64);
        }
        debug_assert_eq!(borrow, 0);
        Some(BigUint::from_limbs(out))
    }

    /// `self - other`; panics on underflow.
    pub fn sub(&self, other: &BigUint) -> BigUint {
        self.checked_sub(other)
            .expect("BigUint subtraction underflow")
    }

    /// Schoolbook multiplication `self * other`.
    pub fn mul(&self, other: &BigUint) -> BigUint {
        if self.is_zero() || other.is_zero() {
            return BigUint::zero();
        }
        let mut out = vec![0u64; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            if a == 0 {
                continue;
            }
            let mut carry = 0u64;
            let a = a as u128;
            for (j, &b) in other.limbs.iter().enumerate() {
                let t = out[i + j] as u128 + a * b as u128 + carry as u128;
                out[i + j] = t as u64;
                carry = (t >> 64) as u64;
            }
            out[i + other.limbs.len()] = carry;
        }
        BigUint::from_limbs(out)
    }

    /// Multiplies by a single `u64`.
    pub fn mul_u64(&self, m: u64) -> BigUint {
        if m == 0 || self.is_zero() {
            return BigUint::zero();
        }
        let mut out = Vec::with_capacity(self.limbs.len() + 1);
        let m = m as u128;
        let mut carry = 0u64;
        for &a in &self.limbs {
            let t = a as u128 * m + carry as u128;
            out.push(t as u64);
            carry = (t >> 64) as u64;
        }
        if carry != 0 {
            out.push(carry);
        }
        BigUint::from_limbs(out)
    }

    /// Left shift by `bits`.
    pub fn shl(&self, bits: usize) -> BigUint {
        if self.is_zero() || bits == 0 {
            return self.clone();
        }
        let limb_shift = bits / 64;
        let bit_shift = bits % 64;
        let mut out = vec![0u64; limb_shift];
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u64;
            for &l in &self.limbs {
                out.push((l << bit_shift) | carry);
                carry = l >> (64 - bit_shift);
            }
            if carry != 0 {
                out.push(carry);
            }
        }
        BigUint::from_limbs(out)
    }

    /// Right shift by `bits`.
    pub fn shr(&self, bits: usize) -> BigUint {
        let limb_shift = bits / 64;
        if limb_shift >= self.limbs.len() {
            return BigUint::zero();
        }
        let bit_shift = bits % 64;
        let src = &self.limbs[limb_shift..];
        if bit_shift == 0 {
            return BigUint::from_limbs(src.to_vec());
        }
        let mut out = Vec::with_capacity(src.len());
        for i in 0..src.len() {
            let hi = src.get(i + 1).copied().unwrap_or(0);
            out.push((src[i] >> bit_shift) | (hi << (64 - bit_shift)));
        }
        BigUint::from_limbs(out)
    }

    /// `self mod m`.
    pub fn rem(&self, m: &BigUint) -> Result<BigUint, CryptoError> {
        Ok(self.div_rem(m)?.1)
    }

    /// Modular subtraction `(self - other) mod m`. Inputs must be `< m`.
    pub fn sub_mod(&self, other: &BigUint, m: &BigUint) -> Result<BigUint, CryptoError> {
        debug_assert!(self < m && other < m);
        if self >= other {
            Ok(self.sub(other))
        } else {
            Ok(self.add(m).sub(other))
        }
    }

    /// Modular multiplication `(self * other) mod m`.
    pub fn mul_mod(&self, other: &BigUint, m: &BigUint) -> Result<BigUint, CryptoError> {
        self.mul(other).rem(m)
    }
}

fn hex_val(c: u8) -> Result<u8, CryptoError> {
    match c {
        b'0'..=b'9' => Ok(c - b'0'),
        b'a'..=b'f' => Ok(c - b'a' + 10),
        b'A'..=b'F' => Ok(c - b'A' + 10),
        _ => Err(CryptoError::Malformed("hex digit")),
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        match self.limbs.len().cmp(&other.limbs.len()) {
            Ordering::Equal => {
                for (a, b) in self.limbs.iter().rev().zip(other.limbs.iter().rev()) {
                    match a.cmp(b) {
                        Ordering::Equal => continue,
                        ord => return ord,
                    }
                }
                Ordering::Equal
            }
            ord => ord,
        }
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Debug for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigUint(0x{})", self.to_hex())
    }
}

impl fmt::Display for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{}", self.to_hex())
    }
}

impl From<u64> for BigUint {
    fn from(v: u64) -> Self {
        BigUint::from_u64(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(v: u64) -> BigUint {
        BigUint::from_u64(v)
    }

    #[test]
    fn zero_and_one_are_canonical() {
        assert!(BigUint::zero().is_zero());
        assert!(BigUint::one().is_one());
        assert_eq!(BigUint::from_u64(0), BigUint::zero());
        assert!(BigUint::zero().limbs.is_empty());
    }

    #[test]
    fn add_with_carry_across_limbs() {
        let a = BigUint::from_u64(u64::MAX);
        let b = BigUint::one();
        let sum = a.add(&b);
        assert_eq!(sum.limbs, vec![0, 1]);
        assert_eq!(sum.bit_length(), 65);
    }

    #[test]
    fn sub_with_borrow_across_limbs() {
        let a = BigUint::from_limbs(vec![0, 1]); // 2^64
        let b = BigUint::one();
        assert_eq!(a.sub(&b), BigUint::from_u64(u64::MAX));
    }

    #[test]
    fn checked_sub_underflow_is_none() {
        assert!(n(3).checked_sub(&n(5)).is_none());
        assert_eq!(n(5).checked_sub(&n(3)), Some(n(2)));
    }

    #[test]
    fn mul_small_values() {
        assert_eq!(n(6).mul(&n(7)), n(42));
        assert_eq!(n(0).mul(&n(7)), BigUint::zero());
    }

    #[test]
    fn mul_crosses_limb_boundary() {
        let a = BigUint::from_u64(u64::MAX);
        let sq = a.mul(&a);
        // (2^64-1)^2 = 2^128 - 2^65 + 1
        let expected = BigUint::one()
            .shl(128)
            .sub(&BigUint::one().shl(65))
            .add(&BigUint::one());
        assert_eq!(sq, expected);
    }

    #[test]
    fn mul_u64_matches_mul() {
        let a = BigUint::from_hex("ffeeddccbbaa99887766554433221100").unwrap();
        assert_eq!(a.mul_u64(12345), a.mul(&n(12345)));
    }

    #[test]
    fn shifts_round_trip() {
        let a = BigUint::from_hex("123456789abcdef0fedcba9876543210").unwrap();
        for bits in [1, 7, 63, 64, 65, 127, 130] {
            assert_eq!(a.shl(bits).shr(bits), a, "bits={bits}");
        }
    }

    #[test]
    fn shr_past_end_is_zero() {
        assert_eq!(n(5).shr(64), BigUint::zero());
        assert_eq!(n(5).shr(3), BigUint::zero());
        assert_eq!(n(5).shr(2), n(1));
    }

    #[test]
    fn byte_round_trip_be() {
        let bytes = [0x01u8, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09];
        let v = BigUint::from_bytes_be(&bytes);
        assert_eq!(v.to_bytes_be(), bytes);
    }

    #[test]
    fn leading_zero_bytes_are_ignored() {
        let v = BigUint::from_bytes_be(&[0, 0, 0, 0x12, 0x34]);
        assert_eq!(v, BigUint::from_u64(0x1234));
        assert_eq!(v.to_bytes_be(), vec![0x12, 0x34]);
    }

    #[test]
    fn padded_serialization() {
        let v = BigUint::from_u64(0x1234);
        assert_eq!(v.to_bytes_be_padded(4).unwrap(), vec![0, 0, 0x12, 0x34]);
        assert!(v.to_bytes_be_padded(1).is_err());
    }

    #[test]
    fn hex_round_trip() {
        for s in ["1", "ff", "deadbeef", "123456789abcdef123456789abcdef"] {
            assert_eq!(BigUint::from_hex(s).unwrap().to_hex(), s);
        }
        assert_eq!(BigUint::from_hex("0").unwrap().to_hex(), "0");
        assert_eq!(BigUint::from_hex("00ff").unwrap().to_hex(), "ff");
        assert!(BigUint::from_hex("xyz").is_err());
    }

    #[test]
    fn bit_length_and_bit_access() {
        let v = BigUint::from_u64(0b1010);
        assert_eq!(v.bit_length(), 4);
        assert!(v.bit(1));
        assert!(!v.bit(0));
        assert!(v.bit(3));
        assert!(!v.bit(100));
        assert_eq!(BigUint::zero().bit_length(), 0);
        assert_eq!(BigUint::one().shl(512).bit_length(), 513);
    }

    #[test]
    fn ordering_compares_by_magnitude() {
        assert!(n(3) < n(5));
        assert!(BigUint::from_limbs(vec![0, 1]) > BigUint::from_u64(u64::MAX));
        assert_eq!(n(7).cmp(&n(7)), Ordering::Equal);
    }

    #[test]
    fn parity_checks() {
        assert!(BigUint::zero().is_even());
        assert!(n(2).is_even());
        assert!(n(3).is_odd());
        assert!(BigUint::from_limbs(vec![1, 5]).is_odd());
    }

    #[test]
    fn sub_mod_wraps_correctly() {
        let m = n(17);
        assert_eq!(n(3).sub_mod(&n(5), &m).unwrap(), n(15));
        assert_eq!(n(5).sub_mod(&n(3), &m).unwrap(), n(2));
    }
}

//! Multi-precision division (Knuth, TAOCP vol. 2, Algorithm D).

use super::BigUint;
use crate::error::CryptoError;

impl BigUint {
    /// Computes `(self / divisor, self % divisor)`.
    ///
    /// Uses single-limb short division when the divisor fits in one
    /// limb, and Knuth's Algorithm D otherwise.
    pub fn div_rem(&self, divisor: &BigUint) -> Result<(BigUint, BigUint), CryptoError> {
        if divisor.is_zero() {
            return Err(CryptoError::DivisionByZero);
        }
        if self < divisor {
            return Ok((BigUint::zero(), self.clone()));
        }
        if divisor.limbs.len() == 1 {
            let (q, r) = self.div_rem_u64(divisor.limbs[0]);
            return Ok((q, BigUint::from_u64(r)));
        }
        Ok(self.div_rem_knuth(divisor))
    }

    /// Short division by a single non-zero limb.
    pub fn div_rem_u64(&self, d: u64) -> (BigUint, u64) {
        assert!(d != 0, "division by zero");
        let mut rem = 0u64;
        let mut q = vec![0u64; self.limbs.len()];
        for i in (0..self.limbs.len()).rev() {
            let cur = ((rem as u128) << 64) | self.limbs[i] as u128;
            q[i] = (cur / d as u128) as u64;
            rem = (cur % d as u128) as u64;
        }
        (BigUint::from_limbs(q), rem)
    }

    /// `self mod d` for a single non-zero limb. Unlike
    /// [`BigUint::div_rem_u64`] it builds no quotient, so it does not
    /// allocate.
    pub(crate) fn rem_u64(&self, d: u64) -> u64 {
        assert!(d != 0, "division by zero");
        self.limbs.iter().rev().fold(0, |rem, &limb| {
            ((((rem as u128) << 64) | limb as u128) % d as u128) as u64
        })
    }

    /// Knuth Algorithm D for divisors of at least two limbs.
    ///
    /// Precondition: `self >= divisor` and `divisor.limbs.len() >= 2`.
    fn div_rem_knuth(&self, divisor: &BigUint) -> (BigUint, BigUint) {
        // D1: normalize so the divisor's top limb has its high bit set.
        let shift = divisor.limbs.last().unwrap().leading_zeros() as usize;
        let v = divisor.shl(shift);
        let mut u = self.shl(shift).limbs;
        let n = v.limbs.len();
        let m = u.len() - n;
        u.push(0); // u now has m + n + 1 limbs
        let v = &v.limbs;
        let v_top = v[n - 1];
        let v_next = v[n - 2];

        let mut q = vec![0u64; m + 1];

        // D2..D7: main loop over quotient digits, most significant first.
        for j in (0..=m).rev() {
            // D3: estimate q_hat from the top two limbs of u and top of v.
            let numer = ((u[j + n] as u128) << 64) | u[j + n - 1] as u128;
            let mut q_hat = numer / v_top as u128;
            let mut r_hat = numer % v_top as u128;
            // Correct q_hat down while it is provably too large.
            while q_hat >> 64 != 0
                || q_hat * v_next as u128 > ((r_hat << 64) | u[j + n - 2] as u128)
            {
                q_hat -= 1;
                r_hat += v_top as u128;
                if r_hat >> 64 != 0 {
                    break;
                }
            }
            let mut q_hat = q_hat as u64;

            // D4: u[j..j+n+1] -= q_hat * v  (multiply-and-subtract).
            let mut borrow = 0i128;
            let mut carry = 0u128;
            for i in 0..n {
                let prod = q_hat as u128 * v[i] as u128 + carry;
                carry = prod >> 64;
                let sub = u[j + i] as i128 - (prod as u64) as i128 + borrow;
                u[j + i] = sub as u64;
                borrow = sub >> 64; // arithmetic shift: 0 or -1
            }
            let sub = u[j + n] as i128 - carry as i128 + borrow;
            u[j + n] = sub as u64;
            let went_negative = sub < 0;

            // D5/D6: if we overshot by one, add the divisor back.
            if went_negative {
                q_hat -= 1;
                let mut carry = 0u64;
                for i in 0..n {
                    let (s1, c1) = u[j + i].overflowing_add(v[i]);
                    let (s2, c2) = s1.overflowing_add(carry);
                    u[j + i] = s2;
                    carry = (c1 as u64) + (c2 as u64);
                }
                u[j + n] = u[j + n].wrapping_add(carry);
            }
            q[j] = q_hat;
        }

        // D8: denormalize the remainder.
        let rem = BigUint::from_limbs(u[..n].to_vec()).shr(shift);
        (BigUint::from_limbs(q), rem)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h(s: &str) -> BigUint {
        BigUint::from_hex(s).unwrap()
    }

    #[test]
    fn division_by_zero_is_an_error() {
        assert_eq!(
            BigUint::from_u64(5).div_rem(&BigUint::zero()),
            Err(CryptoError::DivisionByZero)
        );
    }

    #[test]
    fn small_divisions() {
        let (q, r) = BigUint::from_u64(17)
            .div_rem(&BigUint::from_u64(5))
            .unwrap();
        assert_eq!(q, BigUint::from_u64(3));
        assert_eq!(r, BigUint::from_u64(2));
    }

    #[test]
    fn dividend_smaller_than_divisor() {
        let (q, r) = BigUint::from_u64(3).div_rem(&BigUint::from_u64(7)).unwrap();
        assert!(q.is_zero());
        assert_eq!(r, BigUint::from_u64(3));
    }

    #[test]
    fn exact_division() {
        let a = h("100000000000000000000000000000000"); // 2^128
        let b = h("10000000000000000"); // 2^64
        let (q, r) = a.div_rem(&b).unwrap();
        assert_eq!(q, b);
        assert!(r.is_zero());
    }

    #[test]
    fn multi_limb_division_reconstructs() {
        let a = h("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
        let b = h("ba7816bf8f01cfea414140de5dae2223");
        let (q, r) = a.div_rem(&b).unwrap();
        assert!(r < b);
        assert_eq!(q.mul(&b).add(&r), a);
    }

    #[test]
    fn knuth_add_back_case() {
        // Constructed to exercise the rare D6 add-back path: dividend
        // chosen so the first q_hat estimate overshoots.
        let a = BigUint::from_limbs(vec![0, 0, 0x8000000000000000, 0x7fffffffffffffff]);
        let b = BigUint::from_limbs(vec![1, 0, 0x8000000000000000]);
        let (q, r) = a.div_rem(&b).unwrap();
        assert!(r < b);
        assert_eq!(q.mul(&b).add(&r), a);
    }

    #[test]
    fn short_division_matches_long_path() {
        let a = h("123456789abcdef00fedcba987654321");
        let d = 0x1234567890abcdefu64;
        let (q1, r1) = a.div_rem_u64(d);
        let (q2, r2) = a.div_rem(&BigUint::from_u64(d)).unwrap();
        assert_eq!(q1, q2);
        assert_eq!(BigUint::from_u64(r1), r2);
        assert_eq!(q1.mul_u64(d).add(&BigUint::from_u64(r1)), a);
    }

    #[test]
    fn rem_u64_matches_div_rem_u64() {
        let a = h("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
        for d in [1u64, 3, 997, 0x1234567890abcdef, u64::MAX] {
            assert_eq!(a.rem_u64(d), a.div_rem_u64(d).1, "d={d}");
        }
        assert_eq!(BigUint::zero().rem_u64(7), 0);
    }

    #[test]
    fn rem_alias() {
        let a = h("ffffffffffffffffffffffffffffffff");
        let m = h("fedcba9876543210");
        let r = a.rem(&m).unwrap();
        assert_eq!(r, a.div_rem(&m).unwrap().1);
    }

    #[test]
    fn division_identity_large_operands() {
        // (a * b + c) / b == a with remainder c, for c < b.
        let a = h("deadbeefdeadbeefdeadbeefdeadbeefdeadbeefdeadbeefdeadbeefdeadbeef");
        let b = h("123456789abcdef0123456789abcdef0123456789abcdef1");
        let c = h("42");
        let lhs = a.mul(&b).add(&c);
        let (q, r) = lhs.div_rem(&b).unwrap();
        assert_eq!(q, a);
        assert_eq!(r, c);
    }
}

//! Property-based tests on the arithmetic and primitive layers.

use nb_crypto::bigint::{BigUint, MontgomeryCtx};
use nb_crypto::hmac::{hmac, verify_mac};
use nb_crypto::modes::{cbc_decrypt, cbc_encrypt, ctr_transform};
use nb_crypto::padding::{pkcs7_pad, pkcs7_unpad};
use nb_crypto::sha256::Sha256;
use nb_crypto::Digest;
use proptest::prelude::*;
use std::ops::Range;

/// Arbitrary BigUint up to ~256 bits, biased toward interesting
/// small values and limb boundaries.
fn arb_biguint() -> impl Strategy<Value = BigUint> {
    prop_oneof![
        2 => any::<u64>().prop_map(BigUint::from_u64),
        1 => Just(BigUint::zero()),
        1 => Just(BigUint::one()),
        1 => Just(BigUint::from_u64(u64::MAX)),
        4 => proptest::collection::vec(any::<u8>(), 0..32).prop_map(|b| BigUint::from_bytes_be(&b)),
    ]
}

fn arb_nonzero() -> impl Strategy<Value = BigUint> {
    arb_biguint().prop_filter("nonzero", |v| !v.is_zero())
}

/// A big-endian byte string read as a BigUint.
fn arb_bytes(len: std::ops::Range<usize>) -> impl Strategy<Value = BigUint> {
    proptest::collection::vec(any::<u8>(), len).prop_map(|b| BigUint::from_bytes_be(&b))
}

/// `m`, or `m + 1` when `m` is even.
fn make_odd(m: BigUint) -> BigUint {
    if m.is_odd() {
        m
    } else {
        m.add(&BigUint::one())
    }
}

/// An odd modulus of `widths` limbs whose top limb is `u64::MAX`, and
/// one time in four with every limb `u64::MAX`: the largest values of
/// their width, where the carry out of a Montgomery product's top limb
/// and its final subtraction matter most.
fn arb_top_heavy_modulus(widths: Range<usize>) -> impl Strategy<Value = BigUint> {
    let max = widths.end - 1;
    (
        widths,
        proptest::collection::vec(any::<u64>(), max..max + 1),
        0u8..4,
    )
        .prop_map(|(width, mut limbs, shape)| {
            limbs.truncate(width);
            if shape == 0 {
                limbs.fill(u64::MAX);
            }
            limbs[width - 1] = u64::MAX;
            let bytes: Vec<u8> = limbs.iter().rev().flat_map(|l| l.to_be_bytes()).collect();
            make_odd(BigUint::from_bytes_be(&bytes))
        })
}

/// An odd modulus above 1 of up to 1024 bits (16 limbs). The widest
/// tier is drawn least often: the division-based reference is slow in
/// debug builds.
fn arb_odd_modulus() -> impl Strategy<Value = BigUint> {
    prop_oneof![
        6 => arb_bytes(1..33),
        3 => arb_bytes(33..65),
        2 => arb_bytes(65..129),
        2 => arb_top_heavy_modulus(1..17),
    ]
    .prop_map(make_odd)
    .prop_filter("modulus > 1", |m| !m.is_one())
}

/// An odd modulus of 17 to 64 limbs (up to 4096 bits), wider than
/// RSA-1024's modulus.
fn arb_wide_odd_modulus() -> impl Strategy<Value = BigUint> {
    prop_oneof![
        arb_bytes(129..513)
            .prop_map(make_odd)
            .prop_filter("17 limbs or more", |m| m.bit_length() > 1024),
        arb_top_heavy_modulus(17..65),
        arb_top_heavy_modulus(64..65),
    ]
}

/// An operand modulo `m`: one of the edge values 0, 1 and `m - 1`
/// (selected by `edge` 0, 1 and 2), or else `r` unreduced, often many
/// limbs wider than `m`.
fn operand(m: &BigUint, r: &BigUint, edge: u8) -> BigUint {
    match edge {
        0 => BigUint::zero(),
        1 => BigUint::one(),
        2 => m.sub(&BigUint::one()),
        _ => r.clone(),
    }
}

/// Exponents of up to 1024 bits on both sides of the 64-bit threshold
/// between square-and-multiply and 4-bit windows, plus powers of two,
/// whose windows below the top one are all zero.
fn arb_exponent() -> impl Strategy<Value = BigUint> {
    prop_oneof![
        2 => any::<u64>().prop_map(BigUint::from_u64),
        3 => arb_bytes(9..129),
        1 => (0usize..1024).prop_map(|bit| BigUint::one().shl(bit)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn add_is_commutative(a in arb_biguint(), b in arb_biguint()) {
        prop_assert_eq!(a.add(&b), b.add(&a));
    }

    #[test]
    fn add_is_associative(a in arb_biguint(), b in arb_biguint(), c in arb_biguint()) {
        prop_assert_eq!(a.add(&b).add(&c), a.add(&b.add(&c)));
    }

    #[test]
    fn add_then_sub_round_trips(a in arb_biguint(), b in arb_biguint()) {
        prop_assert_eq!(a.add(&b).sub(&b), a);
    }

    #[test]
    fn mul_is_commutative(a in arb_biguint(), b in arb_biguint()) {
        prop_assert_eq!(a.mul(&b), b.mul(&a));
    }

    #[test]
    fn mul_distributes_over_add(a in arb_biguint(), b in arb_biguint(), c in arb_biguint()) {
        prop_assert_eq!(a.mul(&b.add(&c)), a.mul(&b).add(&a.mul(&c)));
    }

    #[test]
    fn division_identity(a in arb_biguint(), d in arb_nonzero()) {
        let (q, r) = a.div_rem(&d).unwrap();
        prop_assert!(r < d);
        prop_assert_eq!(q.mul(&d).add(&r), a);
    }

    #[test]
    fn shifts_match_mul_by_powers_of_two(a in arb_biguint(), bits in 0usize..130) {
        let shifted = a.shl(bits);
        let pow2 = BigUint::one().shl(bits);
        prop_assert_eq!(shifted.clone(), a.mul(&pow2));
        prop_assert_eq!(shifted.shr(bits), a);
    }

    #[test]
    fn byte_round_trip(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        let v = BigUint::from_bytes_be(&bytes);
        let back = v.to_bytes_be();
        // Canonical form strips leading zeros.
        let stripped: Vec<u8> = bytes.iter().copied()
            .skip_while(|&b| b == 0).collect();
        prop_assert_eq!(back, stripped);
    }

    #[test]
    fn hex_round_trip(a in arb_biguint()) {
        prop_assert_eq!(BigUint::from_hex(&a.to_hex()).unwrap(), a);
    }

    #[test]
    fn modpow_product_rule(a in arb_biguint(), x in 0u64..64, y in 0u64..64, m in arb_nonzero()) {
        // a^x * a^y ≡ a^(x+y) (mod m)
        prop_assume!(!m.is_one());
        let ax = a.modpow(&BigUint::from_u64(x), &m).unwrap();
        let ay = a.modpow(&BigUint::from_u64(y), &m).unwrap();
        let axy = a.modpow(&BigUint::from_u64(x + y), &m).unwrap();
        prop_assert_eq!(ax.mul_mod(&ay, &m).unwrap(), axy);
    }

    #[test]
    fn montgomery_agrees_with_generic(
        m in arb_odd_modulus(),
        exp in arb_exponent(),
        r in arb_bytes(0..129),
        edge in 0u8..6,
        c in 0u64..4,
    ) {
        // Half the bases are 0, 1 or m - 1 and half are r, of up to
        // 1024 bits, before c >= 1 puts the base at or above the
        // modulus.
        let base = operand(&m, &r, edge).add(&m.mul_u64(c));
        prop_assert_eq!(
            base.modpow(&exp, &m).unwrap(),
            base.modpow_generic(&exp, &m).unwrap()
        );
    }

    #[test]
    fn montgomery_mul_mod_agrees_with_division(
        m in arb_odd_modulus(),
        ra in arb_bytes(0..129),
        rb in arb_bytes(0..129),
        edge_a in 0u8..6,
        edge_b in 0u8..6,
    ) {
        // Reduced operands; the exponentiation properties take
        // unreduced ones.
        let a = operand(&m, &ra, edge_a).rem(&m).unwrap();
        let b = operand(&m, &rb, edge_b).rem(&m).unwrap();
        let ctx = MontgomeryCtx::new(&m).unwrap();
        prop_assert_eq!(ctx.mul_mod(&a, &b), a.mul(&b).rem(&m).unwrap());
    }

    #[test]
    fn montgomery_products_that_are_multiples_of_the_modulus_are_zero(
        u in arb_bytes(1..65),
        v in arb_bytes(1..65),
        exp in 2u64..6,
    ) {
        // A product that is a non-zero multiple of m leaves the
        // reduction at exactly m before its final subtraction.
        let (u, v) = (make_odd(u), make_odd(v));
        prop_assume!(!u.is_one() && !v.is_one());
        let m = u.mul(&v);
        let ctx = MontgomeryCtx::new(&m).unwrap();
        prop_assert!(ctx.mul_mod(&u, &v).is_zero());
        let m = u.mul(&u);
        prop_assert!(u.modpow(&BigUint::from_u64(exp), &m).unwrap().is_zero());
    }

    #[test]
    fn gcd_divides_both(a in arb_nonzero(), b in arb_nonzero()) {
        let g = a.gcd(&b);
        prop_assert!(a.rem(&g).unwrap().is_zero());
        prop_assert!(b.rem(&g).unwrap().is_zero());
    }

    #[test]
    fn mod_inverse_is_an_inverse(a in arb_nonzero(), m in arb_nonzero()) {
        prop_assume!(!m.is_one());
        if let Ok(inv) = a.mod_inverse(&m) {
            prop_assert_eq!(a.mul_mod(&inv, &m).unwrap(), BigUint::one());
        }
    }

    #[test]
    fn pkcs7_round_trip(data in proptest::collection::vec(any::<u8>(), 0..100)) {
        let padded = pkcs7_pad(&data, 16);
        prop_assert_eq!(padded.len() % 16, 0);
        prop_assert!(padded.len() > data.len());
        prop_assert_eq!(pkcs7_unpad(&padded, 16).unwrap(), data);
    }

    #[test]
    fn cbc_round_trip(
        key in proptest::collection::vec(any::<u8>(), 3..4).prop_map(|_| [0x42u8; 24].to_vec()),
        iv in proptest::array::uniform16(any::<u8>()),
        msg in proptest::collection::vec(any::<u8>(), 0..200),
    ) {
        let ct = cbc_encrypt(&key, &iv, &msg).unwrap();
        prop_assert_eq!(cbc_decrypt(&key, &iv, &ct).unwrap(), msg);
    }

    #[test]
    fn ctr_round_trip(
        nonce in proptest::array::uniform16(any::<u8>()),
        msg in proptest::collection::vec(any::<u8>(), 0..200),
    ) {
        let key = [7u8; 16];
        let ct = ctr_transform(&key, &nonce, &msg).unwrap();
        prop_assert_eq!(ctr_transform(&key, &nonce, &ct).unwrap(), msg);
    }

    #[test]
    fn sha256_is_deterministic_and_sensitive(msg in proptest::collection::vec(any::<u8>(), 1..100), flip in 0usize..800) {
        let h1 = Sha256::digest(&msg);
        prop_assert_eq!(h1.clone(), Sha256::digest(&msg));
        let bit = flip % (msg.len() * 8);
        let mut tampered = msg.clone();
        tampered[bit / 8] ^= 1 << (bit % 8);
        prop_assert_ne!(h1, Sha256::digest(&tampered));
    }

    #[test]
    fn hmac_verifies_only_with_same_key(
        key in proptest::collection::vec(any::<u8>(), 1..64),
        msg in proptest::collection::vec(any::<u8>(), 0..100),
    ) {
        let mac = hmac::<Sha256>(&key, &msg);
        prop_assert!(verify_mac(&mac, &hmac::<Sha256>(&key, &msg)));
        let mut other_key = key.clone();
        other_key[0] ^= 0xff;
        prop_assert!(!verify_mac(&mac, &hmac::<Sha256>(&other_key, &msg)));
    }
}

proptest! {
    // Each case costs up to a few hundred 64-limb products on both
    // sides, so wide moduli get fewer cases.
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn montgomery_agrees_with_generic_on_wide_moduli(
        m in arb_wide_odd_modulus(),
        exp in prop_oneof![any::<u64>().prop_map(BigUint::from_u64), arb_bytes(9..33)],
        r in arb_bytes(0..513),
        edge in 0u8..6,
        c in 0u64..2,
    ) {
        let base = operand(&m, &r, edge).add(&m.mul_u64(c));
        prop_assert_eq!(
            base.modpow(&exp, &m).unwrap(),
            base.modpow_generic(&exp, &m).unwrap()
        );
    }

    #[test]
    fn montgomery_mul_mod_agrees_with_division_on_wide_moduli(
        m in arb_wide_odd_modulus(),
        ra in arb_bytes(0..513),
        rb in arb_bytes(0..513),
        edge_a in 0u8..6,
        edge_b in 0u8..6,
    ) {
        // Reduced operands; the exponentiation properties take
        // unreduced ones.
        let a = operand(&m, &ra, edge_a).rem(&m).unwrap();
        let b = operand(&m, &rb, edge_b).rem(&m).unwrap();
        let ctx = MontgomeryCtx::new(&m).unwrap();
        prop_assert_eq!(ctx.mul_mod(&a, &b), a.mul(&b).rem(&m).unwrap());
    }
}

//! Property-based tests on the arithmetic and primitive layers.

use nb_crypto::bigint::BigUint;
use nb_crypto::hmac::{hmac, verify_mac};
use nb_crypto::modes::{cbc_decrypt, cbc_encrypt, ctr_transform};
use nb_crypto::padding::{pkcs7_pad, pkcs7_unpad};
use nb_crypto::sha256::Sha256;
use nb_crypto::Digest;
use proptest::prelude::*;

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

/// An odd modulus above 1 of up to 1024 bits (16 limbs). The widest
/// tier is drawn least often: the division-based reference is slow in
/// debug builds.
fn arb_odd_modulus() -> impl Strategy<Value = BigUint> {
    prop_oneof![
        6 => arb_bytes(1..33),
        3 => arb_bytes(33..65),
        2 => arb_bytes(65..129),
    ]
    .prop_map(|m| {
        if m.is_odd() {
            m
        } else {
            m.add(&BigUint::one())
        }
    })
    .prop_filter("modulus > 1", |m| !m.is_one())
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
        c in 0u64..4,
    ) {
        // c >= 1 puts the base at or above the modulus.
        let base = r.add(&m.mul_u64(c));
        prop_assert_eq!(
            base.modpow(&exp, &m).unwrap(),
            base.modpow_generic(&exp, &m).unwrap()
        );
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

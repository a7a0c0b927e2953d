//! Golden RSA keys: a seeded RNG must keep yielding bit-identical
//! primes, keys, signatures and ciphertexts.
//!
//! For seeds 1..=8 and modulus sizes 1024, 512 and 129 bits, the test
//! generates a key pair, replays the prime draws on a second RNG with
//! the same seed to recover `p` and `q`, derives the private CRT parts
//! from them, and hashes the public key bytes, those parts, a SHA-1
//! signature (where the modulus is long enough for its DigestInfo) and
//! a ciphertext under a seeded padding RNG. Each digest must equal the
//! constant below, recorded before the Montgomery kernel was rewritten:
//! any change to prime selection, key derivation or the modular
//! arithmetic behind signing and encryption moves it.

use nb_crypto::prime::generate_prime;
use nb_crypto::rsa::RsaKeyPair;
use nb_crypto::sha256::Sha256;
use nb_crypto::{BigUint, Digest, DigestAlgorithm};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Per modulus size in bits, the SHA-256 of each key's material and
/// outputs for seeds 1 to 8, in order.
const GOLDEN: [(usize, [&str; 8]); 3] = [
    (
        1024,
        [
            "2b8b6ce70ce1bd457466cbcdef669039e5a52ad18688b09bfc8194c1a186f6e3",
            "3dc73bbdae690ca9b14f50c1a624a40759b185e718b2fca86ca81be3f56b9c12",
            "8e94b034c8921e236991eae81358cef05ab338cf2d772e949863f9ca2a01e80d",
            "30d73febf20560cb043e0603b5a1a504ffa8b4a20117cebbf0a4295c38cbde15",
            "a02d0b64b03832ac8acfa5b3d6ee375c31341a90534a3a1632a9329a4807730c",
            "3fa4a4a469d92c553d1409dd118c91d22c54f1e7211d951029481c7f599ca363",
            "099fd8740a90b95f119679ead35a0905e381e90fe34f4d8c42c5ce76d9765cd7",
            "ec85eb1f1d8f563bd96cfa6673af20e83a612bd44075c15061cfc752b377a29d",
        ],
    ),
    (
        512,
        [
            "bc952aeba79e47829f32891b1a3c4a9ff6688023f4b5d14817e87cbe15fd3f21",
            "92511d0bed7c376fd8484cbf3bb84b1bc498626ba012a629bef67b0f3957a890",
            "488b05285d6ce27c2f171def0d209cafec97f0061432b6b05c7acea4b6fd746b",
            "2b7b396c0f1445142ed393c4462acd31af659cc461257c7f1c660d7da589ea30",
            "b34528bced922cbc407e03d8c7246ebb5b3485584974d6391e917f9b31afcc06",
            "a8cb7b64f13a5be748815ead15cfb1b79ad5bd0f57e4b110b196e755e568a97a",
            "48bc7058d7228ca6b9c6942a94f2303dec0565c345dd46ed6318513b626c0672",
            "227829f56acbef200c1a426a335443a155676e867f8b29e76a30a23ea761789a",
        ],
    ),
    (
        129,
        [
            "3d1b5217841b416485497dc87bc15bd549312e29565194a9a97603797dc5418e",
            "3801d6ac92c62f9ebefb9bb4b756e33e6627cdde71bd2c811afd5ed52378c232",
            "6d718947b29ca068fb8787d8ffbaacfd8e9cdc2c09a7f356f8d3512ce0520d87",
            "52032cb8e7d7b567ef5bdd6fb082b66e27fa10cc77fedbf5df9c464a5e517d86",
            "3851000056ca400f95a77c31eb4391dd077f8cce35a5910a9f0646729c551937",
            "ec74b79f6da53ec78481a3eabbc5f18295c0b9a602b75f7d539a2262888f54c8",
            "ca352f9903498e270c16f7a900359fb21a6cde6e3a6b26e43797d1b3c23bcb7b",
            "b2fcef226732271537b873ee7fd904b888e259c6de71bc2a208e93d7b85346a9",
        ],
    ),
];

/// A SHA-1 DigestInfo is 35 bytes and PKCS#1 v1.5 adds at least 11.
const MIN_SIGNING_LEN: usize = 46;

fn absorb(out: &mut Vec<u8>, bytes: &[u8]) {
    out.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
    out.extend_from_slice(bytes);
}

/// The hex SHA-256 of one seeded key's material and outputs.
fn key_digest(seed: u64, bits: usize) -> String {
    let kp = RsaKeyPair::generate(bits, &mut StdRng::seed_from_u64(seed)).unwrap();
    let n = kp.public.modulus().clone();

    // Key generation draws p, then q, and retries the pair until the
    // product has the requested length and e is invertible; replaying
    // the draws until the product matches recovers the accepted pair.
    let mut replay = StdRng::seed_from_u64(seed);
    let (p, q) = (0..8)
        .map(|_| {
            let p = generate_prime(bits / 2, &mut replay).unwrap();
            let q = generate_prime(bits - bits / 2, &mut replay).unwrap();
            (p, q)
        })
        .find(|(p, q)| p.mul(q) == n)
        .expect("the key's primes come from the seeded draws");
    let one = BigUint::one();
    let (p1, q1) = (p.sub(&one), q.sub(&one));
    let d = kp.public.exponent().mod_inverse(&p1.mul(&q1)).unwrap();
    let (d_p, d_q) = (d.rem(&p1).unwrap(), d.rem(&q1).unwrap());
    let q_inv = q.mod_inverse(&p).unwrap();

    let mut material = Vec::new();
    absorb(&mut material, &kp.public.to_bytes());
    for part in [&p, &q, &d, &d_p, &d_q, &q_inv] {
        absorb(&mut material, &part.to_bytes_be());
    }
    // The private half agrees with the derived exponent.
    let probe = BigUint::from_u64(0x5eed_0000 + seed);
    assert_eq!(
        kp.private.raw_no_crt(&probe).unwrap(),
        probe.modpow(&d, &n).unwrap()
    );

    if kp.public.modulus_len() >= MIN_SIGNING_LEN {
        let message = format!("golden trace {seed}");
        let signature = kp
            .private
            .sign(DigestAlgorithm::Sha1, message.as_bytes())
            .unwrap();
        kp.public
            .verify(DigestAlgorithm::Sha1, message.as_bytes(), &signature)
            .unwrap();
        absorb(&mut material, &signature);
    }
    let secret = b"key!";
    let ciphertext = kp
        .public
        .encrypt(secret, &mut StdRng::seed_from_u64(seed + 1000))
        .unwrap();
    assert_eq!(kp.private.decrypt(&ciphertext).unwrap(), secret);
    absorb(&mut material, &ciphertext);

    Sha256::digest(&material)
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect()
}

#[test]
fn seeded_keys_signatures_and_ciphertexts_are_unchanged() {
    let mut changed = Vec::new();
    for (bits, digests) in GOLDEN {
        for (seed, want) in (1..).zip(digests) {
            let have = key_digest(seed, bits);
            if have != want {
                changed.push(format!("{bits} bits, seed {seed}: {have}"));
            }
        }
    }
    assert!(
        changed.is_empty(),
        "{} golden keys changed; this build computes:\n{}",
        changed.len(),
        changed.join("\n")
    );
}

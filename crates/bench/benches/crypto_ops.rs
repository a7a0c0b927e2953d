//! Criterion micro-benchmarks over the crypto substrate — the
//! operations behind Table 3's "Security and Authorization related
//! costs" rows, plus the DESIGN.md ablations (Montgomery vs schoolbook
//! exponentiation, CRT vs plain RSA).

use criterion::{criterion_group, criterion_main, Criterion};
use nb_crypto::cert::{CertificateAuthority, Validity};
use nb_crypto::hmac::hmac;
use nb_crypto::modes::{cbc_decrypt, cbc_encrypt};
use nb_crypto::prime::random_below;
use nb_crypto::rsa::RsaKeyPair;
use nb_crypto::sha1::Sha1;
use nb_crypto::sha256::Sha256;
use nb_crypto::{BigUint, Digest, DigestAlgorithm, Uuid};
use nb_wire::token::{AuthorizationToken, Rights};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

const NOW: u64 = 1_700_000_000_000;

fn bench_digests(c: &mut Criterion) {
    let data = vec![0xa5u8; 1024];
    c.bench_function("sha1_1KiB", |b| b.iter(|| Sha1::digest(black_box(&data))));
    c.bench_function("sha256_1KiB", |b| {
        b.iter(|| Sha256::digest(black_box(&data)))
    });
    c.bench_function("hmac_sha256_1KiB", |b| {
        b.iter(|| hmac::<Sha256>(black_box(b"session-key"), black_box(&data)))
    });
}

fn bench_aes(c: &mut Criterion) {
    // The paper's configuration: 192-bit AES.
    let key = [0x42u8; 24];
    let iv = [7u8; 16];
    let trace = vec![0x5au8; 256]; // a typical encoded trace event
    let ct = cbc_encrypt(&key, &iv, &trace).unwrap();
    c.bench_function("aes192_cbc_encrypt_trace", |b| {
        b.iter(|| cbc_encrypt(black_box(&key), black_box(&iv), black_box(&trace)).unwrap())
    });
    c.bench_function("aes192_cbc_decrypt_trace", |b| {
        b.iter(|| cbc_decrypt(black_box(&key), black_box(&iv), black_box(&ct)).unwrap())
    });
}

fn bench_rsa(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(0xbe11c);
    let kp = RsaKeyPair::generate(1024, &mut rng).unwrap();
    let msg = vec![0x17u8; 256];
    let sig = kp.private.sign(DigestAlgorithm::Sha1, &msg).unwrap();

    c.bench_function("rsa1024_sign_sha1", |b| {
        b.iter(|| {
            kp.private
                .sign(DigestAlgorithm::Sha1, black_box(&msg))
                .unwrap()
        })
    });
    c.bench_function("rsa1024_verify_sha1", |b| {
        b.iter(|| {
            kp.public
                .verify(DigestAlgorithm::Sha1, black_box(&msg), black_box(&sig))
                .unwrap()
        })
    });

    let m = random_below(kp.public.modulus(), &mut rng);
    c.bench_function("rsa1024_private_no_crt", |b| {
        b.iter(|| kp.private.raw_no_crt(black_box(&m)).unwrap())
    });

    let mut group = c.benchmark_group("rsa_keygen");
    group.sample_size(10);
    group.bench_function("rsa1024_keygen", |b| {
        b.iter(|| RsaKeyPair::generate(1024, &mut rng).unwrap())
    });
    group.finish();
}

fn bench_tokens(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(0x70ce);
    let mut ca =
        CertificateAuthority::new("ca", 1024, Validity::starting_now(NOW, 1 << 40), &mut rng)
            .unwrap();
    let owner = ca
        .issue("entity:b", Validity::starting_now(NOW, 1 << 40), &mut rng)
        .unwrap();
    let delegate = RsaKeyPair::generate(1024, &mut rng).unwrap();
    let tt = Uuid::new_v4(&mut rng);
    let token = AuthorizationToken::issue(
        &owner,
        tt,
        delegate.public.clone(),
        Rights::Publish,
        NOW,
        NOW + 60_000,
    )
    .unwrap();

    c.bench_function("token_issue_existing_keypair", |b| {
        b.iter(|| {
            AuthorizationToken::issue(
                &owner,
                tt,
                delegate.public.clone(),
                Rights::Publish,
                NOW,
                NOW + 60_000,
            )
            .unwrap()
        })
    });
    c.bench_function("token_verify", |b| {
        b.iter(|| {
            token
                .verify(
                    &owner.certificate.public_key,
                    Rights::Publish,
                    black_box(NOW + 5),
                )
                .unwrap()
        })
    });
}

fn bench_modpow_ablation(c: &mut Criterion) {
    // DESIGN.md ablation: Montgomery vs schoolbook-reduction modpow.
    let mut rng = StdRng::seed_from_u64(0x0b1a);
    let kp = RsaKeyPair::generate(1024, &mut rng).unwrap();
    let m = kp.public.modulus().clone();
    let base = random_below(&m, &mut rng);
    let e = BigUint::from_u64(65537);
    c.bench_function("modpow1024_montgomery", |b| {
        b.iter(|| base.modpow(black_box(&e), &m).unwrap())
    });
    c.bench_function("modpow1024_schoolbook", |b| {
        b.iter(|| base.modpow_generic(black_box(&e), &m).unwrap())
    });
}

criterion_group!(
    benches,
    bench_digests,
    bench_aes,
    bench_rsa,
    bench_tokens,
    bench_modpow_ablation
);
criterion_main!(benches);

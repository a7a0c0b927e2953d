//! **Table 3 (lower half)** — "Security and Authorization related
//! costs": token generation and signing, token verification, trace
//! encryption/decryption, trace signing/verification, and the
//! encrypted-trace variants.
//!
//! Configuration matches the paper: 1024-bit RSA with SHA-1 +
//! PKCS#1 padding for signatures, 192-bit AES for symmetric work.
//!
//! Expected shape (paper): RSA signing ≫ RSA verification ≫ AES
//! encrypt/decrypt; token generation ≈ signing cost plus key
//! generation.
//!
//! The rows run as [`TRIALS`] interleaved trials, rotating which row
//! goes first, each timing `NB_BENCH_SAMPLES` operations per row (40
//! at most for token generation). The binary writes the `crypto`
//! section of `BENCH_paper.json` into its working directory: each
//! row's trial means with their median, quartiles and range, in ms.
//! `ci/check_bench_json.py paper` re-derives those figures and
//! re-checks the table's shape.

#![allow(clippy::field_reassign_with_default)] // config tweaking reads better imperatively

use nb_bench::loopback::{Spread, TRIALS};
use nb_bench::{print_header, print_row, sample_count, Stats};
use nb_crypto::cert::{CertificateAuthority, Validity};
use nb_crypto::modes::{cbc_decrypt, cbc_encrypt};
use nb_crypto::rsa::RsaKeyPair;
use nb_crypto::DigestAlgorithm;
use nb_crypto::Uuid;
use nb_wire::codec::Encode;
use nb_wire::token::{AuthorizationToken, Rights};
use nb_wire::trace::{TraceEvent, TraceKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// One row of the table: the timed operation and its samples.
struct Row<'a> {
    /// The row's key in `BENCH_paper.json`.
    key: &'static str,
    label: &'static str,
    samples: usize,
    op: Box<dyn FnMut() + 'a>,
    /// Every sample over every trial, in ms.
    all: Vec<f64>,
    /// Each trial's mean, in ms.
    trial_means: Vec<f64>,
}

impl<'a> Row<'a> {
    fn new(key: &'static str, label: &'static str, samples: usize, op: impl FnMut() + 'a) -> Self {
        Row { key, label, samples, op: Box::new(op), all: Vec::new(), trial_means: Vec::new() }
    }

    /// Times one trial of `samples` operations.
    fn trial(&mut self) {
        let start = self.all.len();
        for _ in 0..self.samples {
            let t0 = Instant::now();
            (self.op)();
            self.all.push(t0.elapsed().as_secs_f64() * 1000.0);
        }
        let trial = &self.all[start..];
        self.trial_means.push(trial.iter().sum::<f64>() / trial.len() as f64);
    }

    /// The row as a JSON object.
    fn json(&self) -> String {
        let s = Spread::of(&self.trial_means);
        let means: Vec<String> = self.trial_means.iter().map(|m| format!("{m:.9}")).collect();
        format!(
            "\"{}\": {{ \"label\": \"{}\", \"samples\": {}, \"trial_means\": [{}], \"median\": {:.9}, \"q1\": {:.9}, \"q3\": {:.9}, \"iqr\": {:.9}, \"min\": {:.9}, \"max\": {:.9} }}",
            self.key,
            self.label,
            self.samples,
            means.join(", "),
            s.median,
            s.q1,
            s.q3,
            s.iqr(),
            s.min,
            s.max
        )
    }
}

/// Warms every row up with three operations, then runs `trials`
/// trials of each, rotating which row goes first.
fn run(rows: &mut [Row], trials: usize) {
    for row in rows.iter_mut() {
        for _ in 0..3 {
            (row.op)();
        }
    }
    for trial in 0..trials {
        for k in 0..rows.len() {
            let at = (trial + k) % rows.len();
            rows[at].trial();
        }
    }
}

/// Prints a table of the rows' samples over every trial.
fn print_rows(title: &str, rows: &[Row]) {
    print_header(title, "ms");
    for row in rows {
        print_row(row.label, &Stats::from_samples(&row.all));
    }
}

fn main() {
    let samples = sample_count(200);
    let mut rng = StdRng::seed_from_u64(0xc0de);
    let now: u64 = 1_700_000_000_000;

    // Fixtures: the paper's 1024-bit RSA owner credential and a
    // representative trace message.
    let mut ca = CertificateAuthority::new(
        "bench-ca",
        1024,
        Validity::starting_now(now, 1 << 40),
        &mut rng,
    )
    .unwrap();
    let owner = ca
        .issue("entity:bench", Validity::starting_now(now, 1 << 40), &mut rng)
        .unwrap();
    let owner_key = owner.certificate.public_key.clone();
    let trace_topic = Uuid::new_v4(&mut rng);
    let delegate = RsaKeyPair::generate(1024, &mut rng).unwrap();

    let event = TraceEvent {
        entity_id: "entity:bench".to_string(),
        trace_topic,
        seq: 42,
        timestamp_ms: now,
        kind: TraceKind::AllsWell,
    };
    let trace_bytes = event.to_bytes();
    let aes_key = [0x42u8; 24]; // 192-bit, the paper's choice
    let iv = [7u8; 16];
    let encrypted = cbc_encrypt(&aes_key, &iv, &trace_bytes).unwrap();
    let signature = owner.sign(&trace_bytes).unwrap();
    let enc_signature = owner.sign(&encrypted).unwrap();
    let token = AuthorizationToken::issue(
        &owner,
        trace_topic,
        delegate.public.clone(),
        Rights::Publish,
        now,
        now + 60_000,
    )
    .unwrap();

    println!("== Table 3 (lower half): security & authorization costs ==");
    println!("(1024-bit RSA + SHA-1 + PKCS#1; 192-bit AES-CBC; {TRIALS} interleaved trials of {samples} samples)");

    // "Token Generation and Signing" — the paper's token generation
    // includes creating the random key pair and signing the token.
    let mut kg_rng = StdRng::seed_from_u64(1);
    // §6.3 rationale in one line: symmetric auth vs RSA signing.
    let mut mac_data = trace_bytes.clone();
    let mut rows = vec![
        Row::new("token_generation", "Token Generation and Signing", samples.min(40), || {
            let kp = RsaKeyPair::generate(1024, &mut kg_rng).unwrap();
            let _ = AuthorizationToken::issue(
                &owner,
                trace_topic,
                kp.public,
                Rights::Publish,
                now,
                now + 60_000,
            )
            .unwrap();
        }),
        Row::new("token_verify", "Verifying Authorization Token", samples, || {
            token.verify(&owner_key, Rights::Publish, now, 100).unwrap();
        }),
        Row::new("aes_encrypt", "Encrypting Trace Message", samples, || {
            let _ = cbc_encrypt(&aes_key, &iv, &trace_bytes).unwrap();
        }),
        Row::new("aes_decrypt", "Decrypting Trace Message", samples, || {
            let _ = cbc_decrypt(&aes_key, &iv, &encrypted).unwrap();
        }),
        Row::new("sign", "Sign Trace Message", samples, || {
            let _ = owner.sign(&trace_bytes).unwrap();
        }),
        Row::new("verify", "Verify Signature in Trace Message", samples, || {
            owner_key
                .verify(DigestAlgorithm::Sha1, &trace_bytes, &signature)
                .unwrap();
        }),
        Row::new("sign_encrypted", "Sign Encrypted Trace Message", samples, || {
            let _ = owner.sign(&encrypted).unwrap();
        }),
        Row::new("verify_encrypted", "Verify Signature in Encrypted Trace Message", samples, || {
            owner_key
                .verify(DigestAlgorithm::Sha1, &encrypted, &enc_signature)
                .unwrap();
        }),
        Row::new("hmac_sha256", "HMAC-SHA256 authenticate (6.3 optimization)", samples, || {
            mac_data[0] ^= 1;
            let _ = nb_crypto::hmac::hmac::<nb_crypto::sha256::Sha256>(&aes_key, &mac_data);
        }),
    ];
    run(&mut rows, TRIALS);
    print_rows("Security and Authorization related costs", &rows);
    let json: Vec<String> = rows.iter().map(|r| format!("      {}", r.json())).collect();
    let report = format!(
        "{{\n  \"crypto\": {{\n    \"bench\": \"crypto_table\",\n    \"unit\": \"ms\",\n    \"trials\": {TRIALS},\n    \"rows\": {{\n{}\n    }}\n  }}\n}}\n",
        json.join(",\n")
    );
    std::fs::write("BENCH_paper.json", &report).expect("write BENCH_paper.json");
    println!("wrote BENCH_paper.json ({} bytes)", report.len());

    // Ablation: Montgomery vs generic modular exponentiation, and
    // CRT vs plain private-key operation (DESIGN.md design choices).
    let m = nb_crypto::BigUint::from_bytes_be(&{
        let mut b = vec![0u8; 128];
        rng.fill_bytes(&mut b);
        b[0] |= 0x80;
        b[127] |= 1; // odd
        b
    });
    let base = nb_crypto::BigUint::from_u64(0x1234_5678_9abc_def1);
    // A full-width odd exponent below the modulus, so both modpow rows
    // time a 1024-bit exponentiation (e = 65537 would time the 17-bit
    // verify path).
    let exp = m.sub(&nb_crypto::BigUint::from_u64(2));
    assert_eq!(exp.bit_length(), 1024);
    let c = nb_crypto::BigUint::from_u64(0xdead_beef);
    // One trial each, printed but left out of BENCH_paper.json.
    let mut ablations = [
        Row::new("modpow_montgomery", "modpow 1024-bit (Montgomery)", samples, || {
            let _ = base.modpow(&exp, &m).unwrap();
        }),
        Row::new("modpow_generic", "modpow 1024-bit (schoolbook reduction)", samples.min(50), || {
            let _ = base.modpow_generic(&exp, &m).unwrap();
        }),
        Row::new("private_no_crt", "RSA private op (no CRT)", samples, || {
            let _ = delegate.private.raw_no_crt(&c).unwrap();
        }),
        Row::new("private_crt", "RSA private op (CRT, via sign)", samples, || {
            let _ = delegate.private.sign(DigestAlgorithm::Sha1, b"x").unwrap();
        }),
    ];
    run(&mut ablations, 1);
    print_rows("Ablations (design choices)", &ablations);
}

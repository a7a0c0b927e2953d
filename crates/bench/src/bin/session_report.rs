//! **Session-key report** — measures what the session layer buys the
//! per-trace hot path and writes `BENCH_session.json` (see
//! `docs/PERFORMANCE.md`).
//!
//! The contention workload mirrors Table 4's setup: one hosting broker,
//! N co-resident traced entities (one publisher thread each, all
//! per-trace security work contending on one host), every publication
//! delivered to a subscribed sink and inspected by the standard monitor
//! battery with the topic owners' keys registered. Three auth regimes
//! are driven back to back on identically configured brokers:
//!
//! * **rsa_signed** — every trace is RSA-signed at issue and carries an
//!   authorization token that the broker and the monitor each
//!   RSA-verify: the paper's §6.3 per-trace RSA regime the session
//!   layer exists to replace;
//! * **rsa_token** — traces carry only the (pre-issued) token, still
//!   RSA-verified per frame at the broker and the monitor: the
//!   pre-session data plane of this codebase;
//! * **session** — traces carry a `SessionTag` and nothing else: one
//!   HMAC-SHA256 at issue, one keyring HMAC at admission, token checks
//!   skipped end to end.
//!
//! The regimes run in the shared harness's interleaved trials
//! (`nb_bench::loopback`). Delivery counts are asserted exact, the
//! clean runs must leave the monitors silent, every session frame must
//! authenticate through the keyring (zero fallbacks), and the session
//! regime's median must beat the per-trace RSA regime's by ≥10× — all
//! asserted inside the binary so the CI smoke run fails loudly.
//!
//! A final segment guards the unrelated traffic: the cached data-plane
//! fast path is saturated with plain frames against an empty keyring
//! and against a keyring holding every entity's key. The routing
//! pipeline consults the keyring only on token-enforced trace topics,
//! so the keyed trials must record exactly zero `crypto.session.*`
//! checks, and the keyed median must pass the 5% overhead gate.
//!
//! Run with `--quick` (CI) for a shorter drive with the same
//! assertions and JSON shape.

use nb_bench::loopback::{publisher_threads, run_trials, write_report, Gate, Loopback};
use nb_broker::{Broker, BrokerConfig};
use nb_crypto::cert::{CertificateAuthority, Credential, Validity};
use nb_crypto::{SessionKey, Uuid};
use nb_monitor::MonitorSet;
use nb_transport::clock::{system_clock, SharedClock};
use nb_wire::codec::Encode;
use nb_wire::token::{AuthorizationToken, Rights};
use nb_wire::trace::{topics, TraceCategory, TraceEvent, TraceKind};
use nb_wire::{Message, Payload, SessionTag, Topic};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The keyring's verification outcomes (`crypto.session.*` on the
/// process-wide registry): plain frames must move none of them.
const KEYRING_CHECKS: [&str; 4] = [
    "crypto.session.verified",
    "crypto.session.rejected",
    "crypto.session.unknown_key",
    "crypto.session.expired",
];

/// How each published trace authenticates itself.
#[derive(Clone, Copy, PartialEq)]
enum Auth {
    /// RSA signature on the message + RSA-verified token (§6.3 regime).
    RsaSigned,
    /// RSA-verified token only (the pre-session data plane).
    RsaToken,
    /// Session tag only: HMAC at issue, keyring HMAC at admission.
    Session,
}

impl Auth {
    fn label(self) -> &'static str {
        match self {
            Auth::RsaSigned => "rsa_signed (sign+verify)",
            Auth::RsaToken => "rsa_token  (verify only)",
            Auth::Session => "session    (HMAC tag)   ",
        }
    }
}

/// One co-resident traced entity: its topic, 1024-bit credential, the
/// pre-issued publication token and its negotiated session key.
struct EntityCtx {
    name: String,
    pub_topic: Topic,
    credential: Credential,
    token: AuthorizationToken,
    key: SessionKey,
}

/// Mints the shared fixtures once: a 1024-bit CA (EXPERIMENTS.md's
/// measured key size), one credential + trace topic + token + session
/// key per entity, and the monitor credential.
fn mint_entities(count: usize, now: u64) -> (Vec<EntityCtx>, Credential) {
    let mut rng = StdRng::seed_from_u64(0x5e5510);
    let validity = Validity::starting_now(0, u64::MAX / 2);
    let mut ca = CertificateAuthority::new("bench-ca", 1024, validity, &mut rng).expect("bench CA");
    let monitor_cred = ca
        .issue("Monitor", validity, &mut rng)
        .expect("monitor cred");
    let entities = (0..count)
        .map(|i| {
            let name = format!("entity-{i}");
            let credential = ca.issue(&name, validity, &mut rng).expect("entity cred");
            let trace_topic = Uuid::new_v4(&mut rng);
            // Issued once per entity — token issue is the amortized
            // cost in *both* RSA regimes; what differs per message is
            // the verification (and, in rsa_signed, the signature).
            let token = AuthorizationToken::issue(
                &credential,
                trace_topic,
                credential.certificate.public_key.clone(),
                Rights::Publish,
                0,
                u64::MAX / 2,
            )
            .expect("publication token");
            let key = SessionKey::mint(trace_topic, now, u64::MAX / 4, u64::MAX / 2, &mut rng);
            EntityCtx {
                name,
                pub_topic: topics::publication(&trace_topic, TraceCategory::AllUpdates),
                credential,
                token,
                key,
            }
        })
        .collect();
    (entities, monitor_cred)
}

/// Builds one authenticated trace publication for `entity` — the
/// per-message work a publisher pays under the given regime.
fn trace_message(broker: &Broker, entity: &EntityCtx, auth: Auth, seq: u64, now: u64) -> Message {
    let event = TraceEvent {
        entity_id: entity.name.clone(),
        trace_topic: entity.key.topic,
        seq,
        timestamp_ms: now,
        kind: TraceKind::AllsWell,
    };
    let mut msg = Message::new(
        broker.next_message_id(),
        entity.pub_topic.clone(),
        broker.id().to_string(),
        now,
        Payload::Trace { event },
    );
    match auth {
        Auth::RsaSigned => {
            msg = msg.with_token(entity.token.clone());
            msg.sign(&entity.credential).expect("per-trace RSA sign");
        }
        Auth::RsaToken => {
            msg = msg.with_token(entity.token.clone());
        }
        Auth::Session => {
            let signable = msg.signable_bytes();
            let mac = entity.key.mac(seq, &[&signable]);
            msg = msg.with_session(SessionTag {
                key_id: entity.key.key_id,
                seq,
                mac,
            });
        }
    }
    msg
}

/// The fast-path guard's plain topic.
fn fast_topic() -> Topic {
    Topic::parse("/Bench/Session/Fastpath").unwrap()
}

/// Plain data frame on the fast-path guard's topic.
fn plain_frame(sender: &str) -> Vec<u8> {
    Message::new(
        7,
        fast_topic(),
        sender,
        0,
        Payload::Ping {
            seq: 1,
            sent_at_ms: 0,
        },
    )
    .to_bytes()
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    // At least four co-resident entities even on small hosts — the
    // contention (Table 4's co-residency) is the workload, not an
    // artifact of core count.
    let threads = publisher_threads().max(4);
    // Per-regime message counts scale with the regime's expected rate
    // so every phase runs long enough to measure without the RSA
    // regimes dominating wall-clock (an RSA-1024 sign is ~0.5 ms):
    // (saturation msgs per thread, timed msgs) per regime, then the
    // fast-path guard's.
    let auths = [Auth::RsaSigned, Auth::RsaToken, Auth::Session];
    let (sizes, fast_n, fast_t): ([(u64, u64); 3], u64, u64) = if quick {
        (
            [(300, 100), (3_000, 1_000), (30_000, 10_000)],
            50_000,
            20_000,
        )
    } else {
        (
            [(2_000, 300), (20_000, 5_000), (200_000, 50_000)],
            300_000,
            100_000,
        )
    };
    println!(
        "== session report: 1 hosting broker, {threads} co-resident entities ({}) ==",
        if quick { "quick" } else { "full" }
    );

    let clock: SharedClock = system_clock();
    let (entities, monitor_cred) = mint_entities(threads, clock.now_ms());
    let specs = nb_monitor::standard_properties(true);
    let filters: Vec<Topic> = entities.iter().map(|e| e.pub_topic.clone()).collect();
    let config = BrokerConfig {
        // Keep trace publications off the span recorder: broker-side
        // telemetry is not what this bench measures.
        telemetry: nb_telemetry::TelemetryConfig {
            enabled: false,
            ..Default::default()
        },
        ..BrokerConfig::default()
    };

    // Each trace trial runs on a fresh hosting broker: every topic
    // owner registered (so both RSA regimes pay real signature
    // verification, not just the window check), the standard monitor
    // battery attached, and — in the session regime — every entity's
    // key installed. One thread per co-resident entity issues
    // authenticated traces as fast as the regime allows; the timed
    // phase times entity 0's full issue + admission + delivery path.
    let (mut verified, mut fallbacks) = ([0u64; 3], [0u64; 3]);
    let (mut monitor_events, mut violations) = (0u64, 0u64);
    let [signed, token, session] = run_trials(|c| {
        let (auth, (per_thread, timed)) = (auths[c], sizes[c]);
        let monitor = MonitorSet::new(specs.clone(), monitor_cred.clone());
        let mut probe_seq = 1_000_000u64;
        let mut probe = |b: &Broker, e: &EntityCtx| {
            probe_seq += 1;
            b.publish_internal(trace_message(b, e, auth, probe_seq, clock.now_ms()));
        };
        let setup = |b: &Broker| {
            for e in &entities {
                b.register_topic_owner(e.key.topic, e.credential.certificate.public_key.clone());
                if auth == Auth::Session {
                    b.install_session_key(e.key.clone());
                }
            }
            b.attach_monitor(monitor.clone());
        };
        let lb = Loopback::new(config.clone(), false, &filters, setup, |b| {
            probe(b, &entities[0])
        });
        for e in &entities[1..] {
            lb.await_route(|b| probe(b, e));
        }
        let trial = lb.trial(threads, per_thread, timed, |t| {
            let e = &entities[t % threads];
            let clock = clock.clone();
            // The timed phase publishes as entity 0 again, so its seqs
            // continue after that entity's saturation seqs.
            let first = 1 + if t == threads { per_thread } else { 0 };
            move |b: &Broker, seq: u64| {
                b.publish_internal(trace_message(b, e, auth, first + seq, clock.now_ms()))
            }
        });
        let snap = lb.broker.metrics_snapshot();
        verified[c] += snap.counter("broker.session.verified").unwrap_or(0);
        fallbacks[c] += snap.counter("broker.session.fallback").unwrap_or(0);
        monitor_events += monitor
            .metrics_snapshot()
            .counter("monitor.events")
            .unwrap_or(0);
        violations += monitor.violation_count();
        trial
    });
    for (auth, section) in auths.iter().zip([&signed, &token, &session]) {
        section.print(auth.label());
    }

    // Clean runs: every monitor stayed silent, every session frame
    // authenticated through the keyring with zero RSA fallbacks.
    assert_eq!(
        violations, 0,
        "clean traffic must leave the monitors silent"
    );
    assert!(monitor_events > 0, "monitors never saw the traffic");
    assert!(
        verified[2] >= session.sent(),
        "session frames bypassed the keyring: {} verified",
        verified[2]
    );
    assert_eq!(fallbacks[2], 0, "session frames fell back to RSA");
    assert_eq!(verified[0], 0, "RSA frames must not consult the keyring");

    let speedup_signed = session.median() / signed.median();
    let speedup_token = session.median() / token.median();
    println!(
        "median speedup: {speedup_signed:.1}x vs per-trace RSA sign+verify, {speedup_token:.1}x vs token verify"
    );
    // The acceptance bar: ≥10× trace-issue throughput over the
    // per-trace RSA regime on the contention workload.
    assert!(
        speedup_signed >= 10.0,
        "session regime is only {speedup_signed:.1}x over per-trace RSA (bar: 10x)"
    );
    assert!(
        speedup_token > 1.0,
        "session regime is slower than the token path ({speedup_token:.2}x)"
    );

    // Fast-path guard: installing session keys must not tax unrelated
    // traffic — plain topics never consult the keyring.
    let keyring = KEYRING_CHECKS.map(|name| nb_metrics::global().counter(name));
    let mut keyring_checks = [0u64; 4];
    let [fast_none, fast_keys] = run_trials(|c| {
        let before = keyring.each_ref().map(|k| k.get());
        let mut probe = plain_frame("probe");
        let install = |b: &Broker| {
            if c == 1 {
                entities
                    .iter()
                    .for_each(|e| b.install_session_key(e.key.clone()));
            }
        };
        let lb = Loopback::new(
            BrokerConfig::default(),
            false,
            &[fast_topic()],
            install,
            |b| b.ingest_client_frame("probe", &mut probe),
        );
        let trial = lb.trial(threads, fast_n, fast_t, |t| {
            let id = format!("pub-{t}");
            let mut frame = plain_frame(&id);
            move |b: &Broker, _seq: u64| b.ingest_client_frame(&id, &mut frame)
        });
        let fastpath = lb
            .broker
            .metrics_snapshot()
            .counter("broker.route.fastpath")
            .unwrap_or(0);
        assert!(
            fastpath >= trial.sent,
            "plain frames left the cached fast path"
        );
        if c == 1 {
            for (total, (k, b)) in keyring_checks.iter_mut().zip(keyring.iter().zip(before)) {
                *total += k.get() - b;
            }
        }
        trial
    });
    fast_none.print("fastpath (no keys)");
    fast_keys.print("fastpath (keys installed)");
    assert_eq!(
        keyring_checks, [0; 4],
        "plain frames consulted the keyring ({KEYRING_CHECKS:?})"
    );
    let gate = Gate::check(
        5.0,
        ("fastpath_no_keys", &fast_none),
        ("fastpath_keys", &fast_keys),
    );

    let checks_json: Vec<String> = KEYRING_CHECKS
        .iter()
        .zip(keyring_checks)
        .map(|(name, n)| format!("\"{}\": {n}", name.trim_start_matches("crypto.session.")))
        .collect();
    write_report(
        "BENCH_session.json",
        "session_report",
        quick,
        threads,
        &[
            ("entities", threads.to_string()),
            ("rsa_signed", signed.json()),
            ("rsa_token", token.json()),
            ("session", session.json()),
            ("fastpath_no_keys", fast_none.json()),
            ("fastpath_keys", fast_keys.json()),
            ("session_verified", verified[2].to_string()),
            ("session_fallbacks", fallbacks[2].to_string()),
            ("monitor_events", monitor_events.to_string()),
            ("violations", violations.to_string()),
            ("speedup_vs_rsa_signed", format!("{speedup_signed:.2}")),
            ("speedup_vs_rsa_token", format!("{speedup_token:.2}")),
            ("gate", gate.json()),
            (
                "keyring_checks_on_plain",
                format!("{{ {} }}", checks_json.join(", ")),
            ),
        ],
    );
}

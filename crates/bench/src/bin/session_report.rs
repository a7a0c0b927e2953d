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
//! Delivery counts are asserted exact, the clean runs must leave the
//! monitors silent, every session frame must authenticate through the
//! keyring (zero fallbacks), and the session regime must beat the
//! per-trace RSA regime by ≥10× — all asserted inside the binary so
//! the CI smoke run fails loudly.
//!
//! A final segment guards the unrelated traffic: the cached data-plane
//! fast path is saturated with plain frames against an empty keyring
//! and against a keyring holding every entity's key, and the delta must
//! stay under 5% — the routing pipeline consults the keyring only on
//! token-enforced trace topics, so plain frames pay no per-frame tax.
//!
//! Run with `--quick` (CI) for a shorter drive with the same
//! assertions and JSON shape.

use nb_broker::{Broker, BrokerConfig};
use nb_crypto::cert::{CertificateAuthority, Credential, Validity};
use nb_crypto::{SessionKey, Uuid};
use nb_monitor::MonitorSet;
use nb_transport::clock::{system_clock, SharedClock};
use nb_transport::endpoint::{Endpoint, FrameSender};
use nb_wire::codec::Encode;
use nb_wire::token::{AuthorizationToken, Rights};
use nb_wire::trace::{topics, TraceCategory, TraceEvent, TraceKind};
use nb_wire::{Message, Payload, SessionTag, Topic};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Broker-side sender for the subscriber endpoint: swallows frames
/// after counting them, so the bench measures the trace path, not a
/// consumer.
#[derive(Default)]
struct SinkSender {
    delivered: AtomicU64,
}

impl FrameSender for SinkSender {
    fn send_frame(&self, _frame: &[u8]) -> nb_transport::Result<()> {
        self.delivered.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

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
    let mut ca =
        CertificateAuthority::new("bench-ca", 1024, validity, &mut rng).expect("bench CA");
    let monitor_cred = ca.issue("Monitor", validity, &mut rng).expect("monitor cred");
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

/// Attaches one sink-backed client and registers its filters, waiting
/// for every control ack. Returns the sink and the client's uplink —
/// dropping the uplink reads as a link failure and detaches the
/// client, so callers must hold it.
fn attach_sink_client(
    broker: &Broker,
    id: &str,
    filters: &[Topic],
) -> (Arc<SinkSender>, crossbeam::channel::Sender<Vec<u8>>) {
    let sink = Arc::new(SinkSender::default());
    let (frames_tx, frames_rx) = crossbeam::channel::unbounded::<Vec<u8>>();
    broker.attach_client(Endpoint::from_parts(
        Arc::clone(&sink) as Arc<dyn FrameSender>,
        frames_rx,
    ));
    let control = Topic::parse("/Constrained/RealTime/Broker/PublishSubscribe/Control").unwrap();
    frames_tx
        .send(
            Message::new(1, control.clone(), id, 0, Payload::Attach { client_id: id.to_string() })
                .to_bytes(),
        )
        .expect("attach frame");
    for (i, filter) in filters.iter().enumerate() {
        frames_tx
            .send(
                Message::new(
                    2 + i as u64,
                    control.clone(),
                    id,
                    0,
                    Payload::Subscribe { filter: filter.clone() },
                )
                .to_bytes(),
            )
            .expect("subscribe frame");
    }
    let expected = 1 + filters.len() as u64;
    let deadline = Instant::now() + Duration::from_secs(10);
    while sink.delivered.load(Ordering::Relaxed) < expected {
        assert!(Instant::now() < deadline, "client {id} never finished its handshake");
        std::thread::sleep(Duration::from_millis(1));
    }
    (sink, frames_tx)
}

struct RunStats {
    msgs_per_sec: f64,
    p50_ns: u64,
    p99_ns: u64,
    delivered: u64,
}

/// Per-run counters the report surfaces beyond the routing stats.
#[derive(Default)]
struct SessionCounters {
    verified: u64,
    fallbacks: u64,
    monitor_events: u64,
    violations: u64,
}

/// Drives one auth regime on a fresh hosting broker: the standard
/// monitors attached with every topic owner's key registered (so both
/// RSA regimes pay real signature verification per frame), a
/// multi-threaded saturation phase (one thread per co-resident
/// entity), then a single-threaded timed phase for latency.
fn run_trace_config(
    auth: Auth,
    entities: &Arc<Vec<EntityCtx>>,
    monitor_cred: &Credential,
    per_thread: u64,
    timed: u64,
) -> (RunStats, SessionCounters) {
    let cfg = BrokerConfig {
        advert_refresh: None,
        // Keep trace publications off the span recorder: broker-side
        // telemetry is not what this bench measures.
        telemetry: nb_telemetry::TelemetryConfig { enabled: false, ..Default::default() },
        ..BrokerConfig::default()
    };
    let clock: SharedClock = system_clock();
    let broker = Arc::new(Broker::new("host", clock.clone(), cfg));
    // The hosting-broker posture: every topic owner registered (full
    // RSA token verification, not just the window check), the standard
    // monitor battery attached, and — in the session regime — every
    // entity's key installed in the keyring.
    for e in entities.iter() {
        broker.register_topic_owner(e.key.topic, e.credential.certificate.public_key.clone());
        if auth == Auth::Session {
            broker.install_session_key(e.key.clone());
        }
    }
    let specs = nb_monitor::standard_properties(BrokerConfig::default().max_hops, true);
    let monitor = MonitorSet::new(specs, monitor_cred.clone(), 100);
    broker.attach_monitor(monitor.clone());

    let filters: Vec<Topic> = entities.iter().map(|e| e.pub_topic.clone()).collect();
    let (sink, _uplink) = attach_sink_client(&broker, "console", &filters);

    // Prove every subscription is live: one admissible probe per
    // entity, delivered before the clock starts.
    let mut probe_seq = 1_000_000u64;
    for e in entities.iter() {
        let before = sink.delivered.load(Ordering::Relaxed);
        let deadline = Instant::now() + Duration::from_secs(10);
        while sink.delivered.load(Ordering::Relaxed) == before {
            assert!(Instant::now() < deadline, "{} never became routable", e.name);
            probe_seq += 1;
            broker.publish_internal(trace_message(&broker, e, auth, probe_seq, clock.now_ms()));
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    let delivered_start = sink.delivered.load(Ordering::Relaxed);
    let counters_start = {
        let snap = broker.metrics_snapshot();
        (
            snap.counter("broker.session.verified").unwrap_or(0),
            snap.counter("broker.session.fallback").unwrap_or(0),
        )
    };
    let events_start = monitor.metrics_snapshot().counter("monitor.events").unwrap_or(0);

    // Saturation phase: every thread is one co-resident traced entity
    // issuing authenticated traces as fast as the regime allows.
    let threads = entities.len();
    let barrier = Arc::new(Barrier::new(threads + 1));
    let workers: Vec<_> = (0..threads)
        .map(|t| {
            let broker = Arc::clone(&broker);
            let barrier = Arc::clone(&barrier);
            let entities = Arc::clone(entities);
            let clock = clock.clone();
            std::thread::spawn(move || {
                let e = &entities[t];
                barrier.wait();
                for seq in 1..=per_thread {
                    let msg = trace_message(&broker, e, auth, seq, clock.now_ms());
                    broker.publish_internal(msg);
                }
            })
        })
        .collect();
    barrier.wait();
    let t0 = Instant::now();
    for w in workers {
        w.join().expect("publisher thread");
    }
    let elapsed = t0.elapsed();
    let msgs = threads as u64 * per_thread;
    let msgs_per_sec = msgs as f64 / elapsed.as_secs_f64();

    // Latency phase: one entity, one thread, per-message timing of the
    // full issue + admission + delivery path.
    let e = &entities[0];
    let mut lat_ns: Vec<u64> = Vec::with_capacity(timed as usize);
    for seq in 0..timed {
        let t = Instant::now();
        let msg = trace_message(&broker, e, auth, per_thread + 1 + seq, clock.now_ms());
        broker.publish_internal(msg);
        lat_ns.push(t.elapsed().as_nanos() as u64);
    }
    lat_ns.sort_unstable();
    let pct = |q: f64| lat_ns[((lat_ns.len() - 1) as f64 * q) as usize];

    let delivered = sink.delivered.load(Ordering::Relaxed) - delivered_start;
    assert_eq!(delivered, msgs + timed, "lost or duplicated deliveries ({})", auth.label());

    let snap = broker.metrics_snapshot();
    let counters = SessionCounters {
        verified: snap.counter("broker.session.verified").unwrap_or(0) - counters_start.0,
        fallbacks: snap.counter("broker.session.fallback").unwrap_or(0) - counters_start.1,
        monitor_events: monitor.metrics_snapshot().counter("monitor.events").unwrap_or(0)
            - events_start,
        violations: monitor.violation_count() as u64,
    };
    (
        RunStats { msgs_per_sec, p50_ns: pct(0.50), p99_ns: pct(0.99), delivered },
        counters,
    )
}

/// Saturates the cached data-plane fast path with plain frames — the
/// traffic the session layer must not tax. `keys` installs every
/// entity key before the drive (the keyring-populated posture).
fn run_fastpath(
    keys: Option<&[SessionKey]>,
    threads: usize,
    per_thread: u64,
    timed: u64,
) -> RunStats {
    let cfg = BrokerConfig {
        advert_refresh: None,
        ..BrokerConfig::default()
    };
    let broker = Broker::new("fast", system_clock(), cfg);
    if let Some(keys) = keys {
        for k in keys {
            broker.install_session_key(k.clone());
        }
    }
    let topic = Topic::parse("/Bench/Session/Fastpath").unwrap();
    let (sink, _uplink) = attach_sink_client(&broker, "sub", std::slice::from_ref(&topic));
    let frame_for = |sender: &str| {
        Message::new(7, topic.clone(), sender, 0, Payload::Ping { seq: 1, sent_at_ms: 0 })
            .to_bytes()
    };

    // Probe-publish until the first copy lands behind the control acks.
    let acks = sink.delivered.load(Ordering::Relaxed);
    let mut probe = frame_for("probe");
    let deadline = Instant::now() + Duration::from_secs(10);
    while sink.delivered.load(Ordering::Relaxed) <= acks {
        assert!(Instant::now() < deadline, "subscription never became routable");
        broker.ingest_client_frame("probe", &mut probe);
        std::thread::sleep(Duration::from_millis(2));
    }
    let delivered_start = sink.delivered.load(Ordering::Relaxed);

    let broker = Arc::new(broker);
    let barrier = Arc::new(Barrier::new(threads + 1));
    let workers: Vec<_> = (0..threads)
        .map(|t| {
            let broker = Arc::clone(&broker);
            let barrier = Arc::clone(&barrier);
            let mut frame = frame_for(&format!("pub-{t}"));
            std::thread::spawn(move || {
                let id = format!("pub-{t}");
                barrier.wait();
                for _ in 0..per_thread {
                    broker.ingest_client_frame(&id, &mut frame);
                }
            })
        })
        .collect();
    barrier.wait();
    let t0 = Instant::now();
    for w in workers {
        w.join().expect("publisher thread");
    }
    let elapsed = t0.elapsed();
    let msgs = threads as u64 * per_thread;

    let mut frame = frame_for("pub-timed");
    let mut lat_ns: Vec<u64> = Vec::with_capacity(timed as usize);
    for _ in 0..timed {
        let t = Instant::now();
        broker.ingest_client_frame("pub-timed", &mut frame);
        lat_ns.push(t.elapsed().as_nanos() as u64);
    }
    lat_ns.sort_unstable();
    let pct = |q: f64| lat_ns[((lat_ns.len() - 1) as f64 * q) as usize];

    let delivered = sink.delivered.load(Ordering::Relaxed) - delivered_start;
    assert_eq!(delivered, msgs + timed, "lost or duplicated fast-path deliveries");
    let fastpath = broker.metrics_snapshot().counter("broker.route.fastpath").unwrap_or(0);
    assert!(fastpath >= msgs, "plain frames left the cached fast path");

    RunStats {
        msgs_per_sec: msgs as f64 / elapsed.as_secs_f64(),
        p50_ns: pct(0.50),
        p99_ns: pct(0.99),
        delivered,
    }
}

fn json_section(s: &RunStats) -> String {
    format!(
        "{{\n    \"msgs_per_sec\": {:.0},\n    \"p50_route_ns\": {},\n    \"p99_route_ns\": {},\n    \"delivered\": {}\n  }}",
        s.msgs_per_sec, s.p50_ns, s.p99_ns, s.delivered
    )
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    // At least four co-resident entities even on small hosts — the
    // contention (Table 4's co-residency) is the workload, not an
    // artifact of core count.
    let threads = std::thread::available_parallelism()
        .map(|n| n.get().clamp(4, 8))
        .unwrap_or(4);
    // Per-regime message counts scale with the regime's expected rate
    // so every phase runs long enough to measure without the RSA
    // regimes dominating wall-clock (an RSA-1024 sign is ~0.5 ms).
    let (signed_n, signed_t, token_n, token_t, session_n, session_t, fast_n, fast_t) = if quick {
        (300u64, 100u64, 3_000u64, 1_000u64, 30_000u64, 10_000u64, 50_000u64, 20_000u64)
    } else {
        (2_000, 300, 20_000, 5_000, 200_000, 50_000, 300_000, 100_000)
    };
    println!(
        "== session report: 1 hosting broker, {threads} co-resident entities ({}) ==",
        if quick { "quick" } else { "full" }
    );

    let clock: SharedClock = system_clock();
    let (entities, monitor_cred) = mint_entities(threads, clock.now_ms());
    let entities = Arc::new(entities);

    let (signed, signed_c) =
        run_trace_config(Auth::RsaSigned, &entities, &monitor_cred, signed_n, signed_t);
    println!(
        "{}: {:>12.0} msgs/sec   p50 {:>9} ns   p99 {:>9} ns",
        Auth::RsaSigned.label(),
        signed.msgs_per_sec,
        signed.p50_ns,
        signed.p99_ns
    );
    let (token, token_c) =
        run_trace_config(Auth::RsaToken, &entities, &monitor_cred, token_n, token_t);
    println!(
        "{}: {:>12.0} msgs/sec   p50 {:>9} ns   p99 {:>9} ns",
        Auth::RsaToken.label(),
        token.msgs_per_sec,
        token.p50_ns,
        token.p99_ns
    );
    let (session, session_c) =
        run_trace_config(Auth::Session, &entities, &monitor_cred, session_n, session_t);
    println!(
        "{}: {:>12.0} msgs/sec   p50 {:>9} ns   p99 {:>9} ns",
        Auth::Session.label(),
        session.msgs_per_sec,
        session.p50_ns,
        session.p99_ns
    );

    // Clean runs: every monitor stayed silent, every session frame
    // authenticated through the keyring with zero RSA fallbacks.
    let violations = signed_c.violations + token_c.violations + session_c.violations;
    assert_eq!(violations, 0, "clean traffic must leave the monitors silent");
    let monitor_events = signed_c.monitor_events + token_c.monitor_events + session_c.monitor_events;
    assert!(monitor_events > 0, "monitors never saw the traffic");
    assert!(
        session_c.verified >= threads as u64 * session_n + session_t,
        "session frames bypassed the keyring: {} verified",
        session_c.verified
    );
    assert_eq!(session_c.fallbacks, 0, "session frames fell back to RSA");
    assert_eq!(signed_c.verified, 0, "RSA frames must not consult the keyring");

    let speedup_signed = session.msgs_per_sec / signed.msgs_per_sec;
    let speedup_token = session.msgs_per_sec / token.msgs_per_sec;
    println!(
        "speedup: {speedup_signed:.1}x vs per-trace RSA sign+verify, {speedup_token:.1}x vs token verify"
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
    let keys: Vec<SessionKey> = entities.iter().map(|e| e.key.clone()).collect();
    let fast_none = run_fastpath(None, threads, fast_n, fast_t);
    let fast_keys = run_fastpath(Some(&keys), threads, fast_n, fast_t);
    let overhead_pct =
        (fast_none.msgs_per_sec - fast_keys.msgs_per_sec) / fast_none.msgs_per_sec * 100.0;
    println!(
        "fastpath: {:>12.0} msgs/sec (no keys)  {:>12.0} msgs/sec (keys registered)  overhead {overhead_pct:.1}%",
        fast_none.msgs_per_sec, fast_keys.msgs_per_sec
    );
    assert!(
        overhead_pct < 5.0,
        "session gate costs {overhead_pct:.1}% of fast-path throughput (budget 5%)"
    );

    let json = format!(
        "{{\n  \"bench\": \"session_report\",\n  \"mode\": \"{}\",\n  \"threads\": {},\n  \"entities\": {},\n  \"rsa_signed\": {},\n  \"rsa_token\": {},\n  \"session\": {},\n  \"fastpath_no_keys\": {},\n  \"fastpath_keys\": {},\n  \"session_verified\": {},\n  \"session_fallbacks\": {},\n  \"monitor_events\": {},\n  \"violations\": {},\n  \"speedup_vs_rsa_signed\": {:.2},\n  \"speedup_vs_rsa_token\": {:.2},\n  \"session_fastpath_overhead_pct\": {:.2}\n}}\n",
        if quick { "quick" } else { "full" },
        threads,
        threads,
        json_section(&signed),
        json_section(&token),
        json_section(&session),
        json_section(&fast_none),
        json_section(&fast_keys),
        session_c.verified,
        session_c.fallbacks,
        monitor_events,
        violations,
        speedup_signed,
        speedup_token,
        overhead_pct
    );
    std::fs::write("BENCH_session.json", &json).expect("write BENCH_session.json");
    println!("wrote BENCH_session.json ({} bytes)", json.len());
}

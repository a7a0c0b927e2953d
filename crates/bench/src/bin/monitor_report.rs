//! **Monitor overhead report** — measures what online runtime
//! verification costs the broker fast path and writes
//! `BENCH_monitor.json` (see `docs/OBSERVABILITY.md`).
//!
//! Three configurations of the same loopback broker are driven through
//! its routing pipeline, in the shared harness's interleaved trials
//! (`nb_bench::loopback`), each trial with its own broker and monitor:
//!
//! * **monitors_off** — no monitors attached: the fast-path baseline;
//! * **monitors_on** — the standard property set attached, traffic on
//!   an unmonitored topic: the cost every routed frame pays (one
//!   branch on the `monitored` flag cached in its route entry);
//! * **monitored_topic** — same monitors, traffic on a constrained
//!   trace topic with a token and a trace context attached, unique
//!   message ids: every frame runs the full auth + TTL + exactly-once
//!   check battery, reported as per-event check overhead.
//!
//! Delivery counts are asserted exact, the clean traffic must produce
//! zero violations, unmonitored traffic must produce exactly zero
//! monitor events, and the monitors-on median must pass the 10%
//! overhead gate — all asserted inside the binary so the CI smoke run
//! fails loudly. Run with `--quick` (CI) for a shorter drive with the
//! same assertions and JSON shape.

use nb_bench::loopback::{publisher_threads, run_trials, write_report, Gate, Loopback};
use nb_broker::{Broker, BrokerConfig};
use nb_crypto::cert::{CertificateAuthority, Credential, Validity};
use nb_crypto::Uuid;
use nb_metrics::HistogramSummary;
use nb_monitor::MonitorSet;
use nb_wire::codec::Encode;
use nb_wire::token::{AuthorizationToken, Rights};
use nb_wire::{Message, Payload, Topic};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The unmonitored hot topic (matches no property pattern).
fn plain_topic() -> Topic {
    Topic::parse("/Bench/Monitor/Loopback").unwrap()
}

/// The entity that constrains (and may publish on) the monitored
/// topic — every monitored-run frame is ingested under this identity.
const PUBLISHER: &str = "bench-entity";

/// A canonical constrained trace-publication topic every data-plane
/// property (auth, TTL, exactly-once) matches. Constrained by
/// [`PUBLISHER`] so client publishes pass the broker's Publish-Only
/// enforcement.
fn monitored_topic() -> Topic {
    Topic::parse(&format!(
        "/Constrained/Traces/{PUBLISHER}/Publish-Only/Disseminate/t1/AllUpdates"
    ))
    .unwrap()
}

/// Issues the bench credentials from a throwaway 512-bit CA (size is
/// irrelevant here: the monitor only window-checks the token because
/// no owner key is registered).
fn credentials() -> (Credential, Credential) {
    let mut rng = StdRng::seed_from_u64(0xb41c);
    let validity = Validity::starting_now(0, u64::MAX / 2);
    let mut ca = CertificateAuthority::new("bench-ca", 512, validity, &mut rng).expect("bench CA");
    let monitor = ca
        .issue("Monitor", validity, &mut rng)
        .expect("monitor cred");
    let owner = ca
        .issue("entity:bench", validity, &mut rng)
        .expect("owner cred");
    (monitor, owner)
}

/// Pre-encodes one data frame for `topic`; monitored frames carry an
/// authorization token and a trace context like real trace traffic.
fn data_frame(sender: &str, topic: Topic, monitored: bool, owner: &Credential) -> Vec<u8> {
    let mut msg = Message::new(
        10,
        topic,
        sender,
        0,
        Payload::Ping {
            seq: 1,
            sent_at_ms: 0,
        },
    );
    if monitored {
        let token = AuthorizationToken::issue(
            owner,
            Uuid::from_bytes([7; 16]),
            owner.certificate.public_key.clone(),
            Rights::Publish,
            0,
            u64::MAX / 2,
        )
        .expect("bench token");
        msg = msg
            .with_token(token)
            .with_trace(nb_telemetry::TraceContext::root(0, false));
    }
    msg.to_bytes()
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let threads = publisher_threads();
    let (per_thread, timed) = if quick {
        (50_000, 20_000)
    } else {
        (500_000, 200_000)
    };
    println!(
        "== monitor report: loopback broker, {threads} publishers x {per_thread} msgs ({}) ==",
        if quick { "quick" } else { "full" }
    );

    let (monitor_cred, owner) = credentials();
    let specs = nb_monitor::standard_properties(true);
    let config = BrokerConfig {
        require_tokens: false,
        // Keep span recording off: broker-side telemetry is not what
        // this bench measures.
        telemetry: nb_telemetry::TelemetryConfig {
            enabled: false,
            ..Default::default()
        },
        ..BrokerConfig::default()
    };
    let (mut plain_events, mut checked_events, mut violations) = (0u64, 0u64, 0u64);
    let mut check_ns = HistogramSummary::empty();
    let [off, on, hot] = run_trials(|c| {
        let monitored = c == 2;
        let topic = if monitored {
            monitored_topic()
        } else {
            plain_topic()
        };
        let monitor = (c > 0).then(|| MonitorSet::new(specs.clone(), monitor_cred.clone()));
        // Fresh id per probe attempt: exactly-once monitoring is live.
        let mut probe = data_frame(PUBLISHER, topic.clone(), monitored, &owner);
        let mut probe_id = u64::MAX;
        let lb = Loopback::new(
            config.clone(),
            false,
            std::slice::from_ref(&topic),
            |b| monitor.iter().for_each(|m| b.attach_monitor(m.clone())),
            |b| {
                probe[1..9].copy_from_slice(&probe_id.to_be_bytes());
                probe_id -= 1;
                b.ingest_client_frame(PUBLISHER, &mut probe);
            },
        );
        let trial = lb.trial(threads, per_thread, timed, |t| {
            // Monitored frames publish as the topic's constrainer
            // (Publish-Only enforcement); plain frames use per-thread
            // identities.
            let id = if monitored {
                PUBLISHER.to_string()
            } else {
                format!("pub-{t}")
            };
            let mut frame = data_frame(&id, topic.clone(), monitored, &owner);
            move |b: &Broker, seq: u64| {
                // Message id sits after the version byte (offset 1..9,
                // big-endian); a unique id per frame keeps exactly-once
                // tracking clean.
                frame[1..9].copy_from_slice(&(t as u64 * per_thread + seq).to_be_bytes());
                b.ingest_client_frame(&id, &mut frame);
            }
        });
        if let Some(m) = monitor {
            let snap = m.metrics_snapshot();
            let events = snap.counter("monitor.events").unwrap_or(0);
            if monitored {
                assert!(events >= trial.sent, "monitors missed events: {events}");
                checked_events += events;
                let sampled = snap
                    .histogram("monitor.check_ns")
                    .expect("check_ns sampled");
                check_ns = check_ns.accumulate(sampled);
            } else {
                plain_events += events;
            }
            violations += m.violation_count();
        }
        trial
    });
    off.print("monitors off");
    on.print("monitors on");
    hot.print("monitored topic");

    // Clean traffic: every monitored frame checked, nothing flagged,
    // and unmonitored frames never reach the monitor tap.
    assert_eq!(violations, 0, "clean traffic raised violations");
    assert_eq!(
        plain_events, 0,
        "unmonitored frames reached the monitor tap"
    );

    // Per-event check overhead, two ways: the sampled in-monitor
    // timing, and the end-to-end throughput delta per message.
    let checked_overhead_ns = 1e9 / hot.median() - 1e9 / off.median();
    println!(
        "full-check overhead: {checked_overhead_ns:.0} ns/msg (sampled mean {:.0} ns)",
        check_ns.mean()
    );
    // The acceptance bar: enabling monitors costs < 10% of the
    // fast-path msgs/sec on unmonitored traffic.
    let gate = Gate::check(10.0, ("monitors_off", &off), ("monitors_on", &on));

    write_report(
        "BENCH_monitor.json",
        "monitor_report",
        quick,
        threads,
        &[
            (
                "saturation_msgs_per_config",
                (threads as u64 * per_thread).to_string(),
            ),
            ("timed_msgs_per_config", timed.to_string()),
            ("monitors_off", off.json()),
            ("monitors_on", on.json()),
            ("monitored_topic", hot.json()),
            ("monitor_events", checked_events.to_string()),
            ("plain_topic_monitor_events", plain_events.to_string()),
            ("violations", violations.to_string()),
            ("gate", gate.json()),
            (
                "per_event_check_ns",
                format!("{:.0}", checked_overhead_ns.max(0.0)),
            ),
            ("sampled_check_ns_mean", format!("{:.0}", check_ns.mean())),
        ],
    );
}

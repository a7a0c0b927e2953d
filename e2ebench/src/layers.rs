//! Per-layer numbers for traced runs: metric-snapshot deltas over the
//! measured window, and replays of each workload's own inputs through
//! each layer's public function.

use crate::stats::{counter_delta, histogram_delta, median, per_op, Stage, Waterfall};
use nb_broker::{Broker, BrokerConfig};
use nb_crypto::hmac::hmac;
use nb_crypto::modes::{cbc_decrypt, cbc_encrypt};
use nb_crypto::sha256::Sha256;
use nb_metrics::Snapshot;
use nb_monitor::MonitorSet;
use nb_tracing::{AvailabilityView, TracingEngine, Tracker};
use nb_transport::clock::system_clock;
use nb_transport::endpoint::{Endpoint, FrameSender};
use nb_transport::tcp;
use nb_wire::codec::{Decode, Encode};
use nb_wire::trace::{LoadInformation, TraceEvent, TraceKind};
use nb_wire::{Message, MessageView, Payload, Topic};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Brokers reported per layer: the longest chain any workload builds.
pub const MAX_BROKERS: usize = 2;

/// Every per-layer metric a traced run prints, with its unit, in
/// output order. Workloads that do not exercise a layer report 0.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut names: Vec<(String, &'static str)> = [
        ("tracing.entity.report_us", "us"),
        ("crypto.rsa_sign.per_trace", "1/op"),
        ("crypto.rsa_sign.busy_us", "us/op"),
        ("crypto.rsa_verify.per_trace", "1/op"),
        ("crypto.rsa_verify.busy_us", "us/op"),
        ("crypto.aes.busy_us", "us/op"),
        ("crypto.session.per_trace", "1/op"),
        ("token.verify.per_trace", "1/op"),
        ("wire.encode_ns", "ns"),
        ("wire.view_parse_ns", "ns"),
        ("wire.decode_ns", "ns"),
        ("wire.frame_bytes", "B"),
    ]
    .iter()
    .map(|(n, u)| (n.to_string(), *u))
    .collect();
    for b in 0..MAX_BROKERS {
        for (metric, unit) in [
            ("fastpath_share", "ratio"),
            ("cache_hit", "1/op"),
            ("cache_miss", "1/op"),
            ("cache_stale", "1/op"),
            ("forward_per_op", "1/op"),
            ("deliver_per_op", "1/op"),
            ("internal_queue_max", "count"),
            ("route_ns.p50", "ns"),
        ] {
            names.push((format!("broker-{b}.{metric}"), unit));
        }
    }
    names.extend(
        [
            ("broker.ingest_ns", "ns"),
            ("broker.publish_internal_ns", "ns"),
            ("transport.frames_per_op", "1/op"),
            ("transport.bytes_per_op", "B/op"),
            ("transport.coalesce_ratio", "ratio"),
            ("transport.tcp_hop_us", "us"),
            ("transport.tcp_send_us", "us"),
            ("monitor.events_per_op", "1/op"),
            ("monitor.check_ns", "ns"),
            ("monitor.violations", "count"),
            ("tracing.traces_published", "1/op"),
            ("tracing.traces_gated", "1/op"),
            ("tracing.pings_sent", "1/op"),
            ("tracker.applied_per_trace", "1/op"),
            ("tracker.session_verified", "1/op"),
            ("tracker.tokens_rejected", "count"),
            ("view.apply_ns", "ns"),
            ("tdn.discover_us", "us"),
            ("gen.lag_p99_us", "us"),
            ("waterfall.busy_us", "us"),
            ("waterfall.wait_us", "us"),
            ("tracing_overhead.p50_us", "us"),
        ]
        .iter()
        .map(|(n, u)| (n.to_string(), *u)),
    );
    names
}

/// The metric sources of one running stack.
#[derive(Default)]
pub struct Sources<'a> {
    /// Brokers, in chain order.
    pub brokers: Vec<&'a Broker>,
    /// Tracing engines, one per broker (empty for the pub/sub stack).
    pub engines: Vec<&'a TracingEngine>,
    /// Long-lived trackers.
    pub trackers: Vec<&'a Tracker>,
    /// Attached monitors, if any.
    pub monitor: Option<&'a MonitorSet>,
}

/// Point-in-time capture of every source.
pub struct Snap {
    global: Snapshot,
    brokers: Vec<Snapshot>,
    engines: Vec<Snapshot>,
    trackers: Vec<Snapshot>,
    monitor: Snapshot,
}

impl Sources<'_> {
    /// Captures every source now.
    pub fn snap(&self) -> Snap {
        Snap {
            global: nb_metrics::global().snapshot(),
            brokers: self.brokers.iter().map(|b| b.metrics_snapshot()).collect(),
            engines: self.engines.iter().map(|e| e.metrics_snapshot()).collect(),
            trackers: self.trackers.iter().map(|t| t.metrics_snapshot()).collect(),
            monitor: self
                .monitor
                .map(|m| m.metrics_snapshot())
                .unwrap_or_default(),
        }
    }

    /// Largest `broker.queue.internal_depth` per broker right now.
    pub fn queue_depths(&self) -> Vec<i64> {
        self.brokers
            .iter()
            .map(|b| {
                b.metrics_snapshot()
                    .gauge("broker.queue.internal_depth")
                    .unwrap_or(0)
            })
            .collect()
    }
}

/// Counter growth summed over a set of same-shaped snapshots.
fn sum_delta(before: &[Snapshot], after: &[Snapshot], name: &str) -> u64 {
    before
        .iter()
        .zip(after)
        .map(|(b, a)| counter_delta(b, a, name))
        .sum()
}

/// Deltas of one measured window, normalised per operation.
pub struct Deltas<'a> {
    /// Capture at the start of the window.
    pub before: &'a Snap,
    /// Capture at the end of the window.
    pub after: &'a Snap,
    /// Operations completed in the window (traces or messages).
    pub ops: u64,
}

impl Deltas<'_> {
    fn global(&self, name: &str) -> u64 {
        counter_delta(&self.before.global, &self.after.global, name)
    }

    fn hist(&self, name: &str) -> (u64, u64) {
        histogram_delta(&self.before.global, &self.after.global, name)
    }

    fn per_op(&self, n: u64) -> f64 {
        per_op(n as f64, self.ops)
    }

    /// RSA operations of one kind per operation and their busy µs per
    /// operation, from the `crypto.rsa.*_us` histograms.
    pub fn rsa(&self, kind: &str) -> (f64, f64) {
        let (count, sum) = self.hist(&format!("crypto.rsa.{kind}_us"));
        (self.per_op(count), per_op(sum as f64, self.ops))
    }

    /// AES block-mode calls per operation.
    pub fn aes_calls(&self) -> f64 {
        let calls: u64 = ["encrypt", "decrypt", "ctr"]
            .iter()
            .map(|k| self.hist(&format!("crypto.aes.{k}_us")).0)
            .sum();
        self.per_op(calls)
    }

    /// Session-key MACs computed or checked per operation.
    pub fn session_macs(&self) -> f64 {
        self.per_op(
            self.global("crypto.session.tagged")
                + self.global("crypto.session.verified")
                + self.global("crypto.session.rejected"),
        )
    }

    /// Broker `b`'s counter growth.
    pub fn broker(&self, b: usize, name: &str) -> u64 {
        match (self.before.brokers.get(b), self.after.brokers.get(b)) {
            (Some(x), Some(y)) => counter_delta(x, y, name),
            _ => 0,
        }
    }

    /// Transport frames sent per operation.
    pub fn frames_per_op(&self) -> f64 {
        self.per_op(self.global("transport.frames.sent"))
    }

    /// Monitor events per operation and the mean check time, ns.
    pub fn monitor(&self) -> (f64, f64) {
        let events = counter_delta(&self.before.monitor, &self.after.monitor, "monitor.events");
        let (count, sum) = histogram_delta(
            &self.before.monitor,
            &self.after.monitor,
            "monitor.check_ns",
        );
        (self.per_op(events), per_op(sum as f64, count))
    }

    /// Traces applied by the long-lived trackers, per operation.
    pub fn applied_per_op(&self) -> f64 {
        self.per_op(sum_delta(
            &self.before.trackers,
            &self.after.trackers,
            "tracker.traces.applied",
        ))
    }
}

/// Self times of each layer's public calls, replayed on the workload's
/// own inputs after the measured window.
#[derive(Debug, Default, Clone)]
pub struct Replay {
    /// `Message::to_bytes`, ns.
    pub encode_ns: f64,
    /// `MessageView::parse`, ns.
    pub view_parse_ns: f64,
    /// `Message::from_bytes`, ns.
    pub decode_ns: f64,
    /// Mean frame size, bytes.
    pub frame_bytes: f64,
    /// `Broker::ingest_client_frame` on the fast path, ns.
    pub ingest_ns: f64,
    /// `Broker::publish_internal`, ns.
    pub publish_internal_ns: f64,
    /// One frame across a loopback TCP endpoint pair (half the echoed
    /// round trip, wake-ups included), µs.
    pub tcp_hop_us: f64,
    /// The sender's own cost of one frame: the `send` call that frames
    /// and writes it to the socket, µs.
    pub tcp_send_us: f64,
    /// `AvailabilityView::apply`, ns.
    pub view_apply_ns: f64,
    /// One AES-192-CBC encrypt or decrypt of a trace event, ns.
    pub aes_ns: f64,
    /// One HMAC-SHA256 over a frame's signable bytes, ns.
    pub hmac_ns: f64,
    /// One TDN discovery query, µs.
    pub tdn_discover_us: f64,
}

/// Times `f` over `rounds` batches of `per_batch` calls; returns the
/// median per-call time in ns.
fn time_ns(rounds: usize, per_batch: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut batches = Vec::with_capacity(rounds);
    for r in 0..rounds {
        let t0 = Instant::now();
        for i in 0..per_batch {
            f(r * per_batch + i);
        }
        batches.push(t0.elapsed().as_nanos() as f64 / per_batch as f64);
    }
    median(&batches)
}

/// Wire-layer replay over the workload's frames.
pub fn replay_wire(frames: &[Vec<u8>], out: &mut Replay) {
    if frames.is_empty() {
        return;
    }
    let msgs: Vec<Message> = frames
        .iter()
        .map(|f| Message::from_bytes(f).expect("workload frames decode"))
        .collect();
    let n = frames.len();
    out.encode_ns = time_ns(15, 400, |i| {
        std::hint::black_box(msgs[i % n].to_bytes());
    });
    out.view_parse_ns = time_ns(15, 400, |i| {
        std::hint::black_box(MessageView::parse(&frames[i % n]).is_ok());
    });
    out.decode_ns = time_ns(15, 400, |i| {
        std::hint::black_box(Message::from_bytes(&frames[i % n]).is_ok());
    });
    out.frame_bytes = frames.iter().map(Vec::len).sum::<usize>() as f64 / n as f64;
}

/// Broker-side sink for replay clients: counts and drops frames,
/// signalling each one so set-up can wait for acknowledgements.
#[derive(Default)]
struct Sink {
    frames: std::sync::Mutex<u64>,
    arrived: std::sync::Condvar,
}

impl FrameSender for Sink {
    fn send_frame(&self, _frame: &[u8]) -> nb_transport::Result<()> {
        *self.frames.lock().unwrap() += 1;
        self.arrived.notify_all();
        Ok(())
    }
}

/// Attaches a sink-backed client to an in-process broker and registers
/// `filters`, waiting for every acknowledgement. The returned uplink
/// must be held: dropping it detaches the client.
fn attach_sink(
    broker: &Broker,
    id: &str,
    filters: &[Topic],
) -> crossbeam::channel::Sender<Vec<u8>> {
    let sink = Arc::new(Sink::default());
    let (tx, rx) = crossbeam::channel::unbounded::<Vec<u8>>();
    broker.attach_client(Endpoint::from_parts(
        Arc::clone(&sink) as Arc<dyn FrameSender>,
        rx,
    ));
    let control = Topic::parse("/Constrained/RealTime/Broker/PublishSubscribe/Control").unwrap();
    let send = |n: u64, payload: Payload| {
        tx.send(Message::new(n, control.clone(), id, 0, payload).to_bytes())
            .expect("replay client link");
    };
    send(
        1,
        Payload::Attach {
            client_id: id.to_string(),
        },
    );
    for (i, f) in filters.iter().enumerate() {
        send(2 + i as u64, Payload::Subscribe { filter: f.clone() });
    }
    // One acknowledgement per control frame.
    let want = 1 + filters.len() as u64;
    let frames = sink.frames.lock().unwrap();
    let _ = sink
        .arrived
        .wait_timeout_while(frames, Duration::from_secs(10), |n| *n < want);
    tx
}

/// Broker replay: routes the workload's frame on an in-process broker
/// holding the workload's subscription (one sink subscriber on the
/// frame's topic).
pub fn replay_broker(frame: &[u8], out: &mut Replay) {
    let Ok(msg) = Message::from_bytes(frame) else {
        return;
    };
    let cfg = BrokerConfig {
        advert_refresh: None,
        ..BrokerConfig::default()
    };
    let broker = Broker::new("replay", system_clock(), cfg);
    let _sub = attach_sink(&broker, "replay-sub", std::slice::from_ref(&msg.topic));
    let _pubc = attach_sink(&broker, "replay-pub", &[]);
    let mut buf = frame.to_vec();
    out.ingest_ns = time_ns(15, 400, |_| {
        buf.copy_from_slice(frame);
        broker.ingest_client_frame("replay-pub", &mut buf);
    });
    out.publish_internal_ns = time_ns(15, 200, |_| {
        broker.publish_internal(msg.clone());
    });
}

/// Transport replay: one frame of the workload's size across a
/// loopback TCP endpoint pair. The hop is half the echoed round trip;
/// the send is the time inside the sender's `send` call alone.
pub fn replay_tcp(frame_len: usize, out: &mut Replay) {
    let listener = tcp::TcpTransportListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let client = std::thread::spawn(move || tcp::connect(addr));
    let server = listener.accept().expect("accept loopback");
    let client = client
        .join()
        .expect("connect thread")
        .expect("connect loopback");
    let frame = vec![0xA5u8; frame_len.max(1)];
    let rounds = 2000;
    let echo = std::thread::spawn(move || {
        for _ in 0..rounds {
            match server.recv_timeout(Duration::from_secs(5)) {
                Ok(f) => {
                    if server.send(&f).is_err() {
                        return;
                    }
                }
                Err(_) => return,
            }
        }
    });
    let mut rtts = Vec::with_capacity(rounds);
    let mut sends = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let t0 = Instant::now();
        if client.send(&frame).is_err() {
            break;
        }
        sends.push(t0.elapsed().as_secs_f64() * 1e6);
        if client.recv_timeout(Duration::from_secs(5)).is_err() {
            break;
        }
        rtts.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    let _ = echo.join();
    out.tcp_hop_us = median(&rtts) / 2.0;
    out.tcp_send_us = median(&sends);
}

/// Tracking-layer replay: `AvailabilityView::apply` over the
/// workload's loads, AES over a trace event, and HMAC over a frame.
pub fn replay_tracking(loads: &[LoadInformation], frame: Option<&[u8]>, out: &mut Replay) {
    let view = AvailabilityView::new();
    let events: Vec<TraceEvent> = loads
        .iter()
        .enumerate()
        .map(|(i, l)| TraceEvent {
            entity_id: "replay-entity".to_string(),
            trace_topic: nb_crypto::Uuid::nil(),
            seq: i as u64,
            timestamp_ms: i as u64,
            kind: TraceKind::LoadInformation(*l),
        })
        .collect();
    let n = events.len().max(1);
    let mut seq = 0u64;
    out.view_apply_ns = time_ns(15, 400, |i| {
        let mut e = events[i % n].clone();
        e.seq = seq;
        seq += 1;
        std::hint::black_box(view.apply(&e));
    });
    let key = [7u8; 24];
    let iv = [9u8; 16];
    let plain = events[0].to_bytes();
    let cipher = cbc_encrypt(&key, &iv, &plain).expect("aes encrypt");
    let enc = time_ns(10, 200, |_| {
        std::hint::black_box(cbc_encrypt(&key, &iv, &plain).is_ok());
    });
    let dec = time_ns(10, 200, |_| {
        std::hint::black_box(cbc_decrypt(&key, &iv, &cipher).is_ok());
    });
    out.aes_ns = (enc + dec) / 2.0;
    if let Some(msg) = frame.and_then(|f| Message::from_bytes(f).ok()) {
        let signable = msg.signable_bytes();
        let mac_key = [3u8; 32];
        out.hmac_ns = time_ns(10, 200, |_| {
            std::hint::black_box(hmac::<Sha256>(&mac_key, &signable));
        });
    }
}

/// Bench-side spans and samples gathered during the window.
#[derive(Debug, Default, Clone)]
pub struct Spans {
    /// Time inside `TracedEntity::report_load`, µs.
    pub report_us: Vec<f64>,
    /// Open-loop generator lateness, µs.
    pub lag_us: Vec<f64>,
    /// Largest sampled internal queue depth per broker.
    pub queue_max: Vec<i64>,
}

impl Spans {
    /// Adds one segment's spans and samples.
    pub fn add(&mut self, report_us: Vec<f64>, lag_us: Vec<f64>, queue_max: &[i64]) {
        self.report_us.extend(report_us);
        self.lag_us.extend(lag_us);
        if self.queue_max.len() < queue_max.len() {
            self.queue_max.resize(queue_max.len(), 0);
        }
        for (m, q) in self.queue_max.iter_mut().zip(queue_max) {
            *m = (*m).max(*q);
        }
    }
}

/// Every per-layer metric of one traced run, `(name, value)`, from the
/// window's deltas, spans and replays. `waterfall` and `overhead_us`
/// come from the workload.
pub fn layer_values(
    d: &Deltas<'_>,
    spans: &Spans,
    replay: &Replay,
    waterfall: &Waterfall,
    overhead_us: f64,
) -> Vec<(String, f64)> {
    let mut v: Vec<(String, f64)> = Vec::new();
    let mut put = |name: &str, value: f64| v.push((name.to_string(), value));
    put("tracing.entity.report_us", median(&spans.report_us));
    let (sign_n, sign_us) = d.rsa("sign");
    let (verify_n, verify_us) = d.rsa("verify");
    put("crypto.rsa_sign.per_trace", sign_n);
    put("crypto.rsa_sign.busy_us", sign_us);
    put("crypto.rsa_verify.per_trace", verify_n);
    put("crypto.rsa_verify.busy_us", verify_us);
    put("crypto.aes.busy_us", d.aes_calls() * replay.aes_ns / 1000.0);
    put("crypto.session.per_trace", d.session_macs());
    put(
        "token.verify.per_trace",
        d.per_op(d.global("token.verify.ok") + d.global("token.verify.rejected")),
    );
    put("wire.encode_ns", replay.encode_ns);
    put("wire.view_parse_ns", replay.view_parse_ns);
    put("wire.decode_ns", replay.decode_ns);
    put("wire.frame_bytes", replay.frame_bytes);
    for b in 0..MAX_BROKERS {
        let fast = d.broker(b, "broker.route.fastpath");
        let slow = d.broker(b, "broker.route.slowpath");
        put(
            &format!("broker-{b}.fastpath_share"),
            per_op(fast as f64, fast + slow),
        );
        for (metric, counter) in [
            ("cache_hit", "broker.route.cache_hit"),
            ("cache_miss", "broker.route.cache_miss"),
            ("cache_stale", "broker.route.cache_stale"),
            ("forward_per_op", "broker.forward.neighbor"),
            ("deliver_per_op", "broker.deliver.local"),
        ] {
            put(
                &format!("broker-{b}.{metric}"),
                d.per_op(d.broker(b, counter)),
            );
        }
        put(
            &format!("broker-{b}.internal_queue_max"),
            spans.queue_max.get(b).copied().unwrap_or(0) as f64,
        );
        let route_p50 = match (d.before.brokers.get(b), d.after.brokers.get(b)) {
            (Some(x), Some(y)) => match (
                x.histogram("broker.route.ns"),
                y.histogram("broker.route.ns"),
            ) {
                (Some(hx), Some(hy)) => hy.delta(hx).quantile(0.5) as f64,
                (None, Some(hy)) => hy.quantile(0.5) as f64,
                _ => 0.0,
            },
            _ => 0.0,
        };
        put(&format!("broker-{b}.route_ns.p50"), route_p50);
    }
    put("broker.ingest_ns", replay.ingest_ns);
    put("broker.publish_internal_ns", replay.publish_internal_ns);
    put("transport.frames_per_op", d.frames_per_op());
    put(
        "transport.bytes_per_op",
        d.per_op(d.global("transport.bytes.sent")),
    );
    put(
        "transport.coalesce_ratio",
        per_op(
            d.global("transport.batch.frames") as f64,
            d.global("transport.batch.writes"),
        ),
    );
    put("transport.tcp_hop_us", replay.tcp_hop_us);
    put("transport.tcp_send_us", replay.tcp_send_us);
    let (events, check_ns) = d.monitor();
    put("monitor.events_per_op", events);
    put("monitor.check_ns", check_ns);
    put(
        "monitor.violations",
        counter_delta(&d.before.monitor, &d.after.monitor, "monitor.violations") as f64,
    );
    for (metric, counter) in [
        ("tracing.traces_published", "tracing.traces.published"),
        ("tracing.traces_gated", "tracing.traces.gated"),
        ("tracing.pings_sent", "tracing.pings.sent"),
    ] {
        put(
            metric,
            d.per_op(sum_delta(&d.before.engines, &d.after.engines, counter)),
        );
    }
    put("tracker.applied_per_trace", d.applied_per_op());
    put(
        "tracker.session_verified",
        d.per_op(sum_delta(
            &d.before.trackers,
            &d.after.trackers,
            "tracker.session.verified",
        )),
    );
    put(
        "tracker.tokens_rejected",
        sum_delta(
            &d.before.trackers,
            &d.after.trackers,
            "tracker.tokens.rejected",
        ) as f64,
    );
    put("view.apply_ns", replay.view_apply_ns);
    put("tdn.discover_us", replay.tdn_discover_us);
    put(
        "gen.lag_p99_us",
        crate::stats::percentile(&spans.lag_us, 0.99).unwrap_or(0.0),
    );
    put("waterfall.busy_us", waterfall.busy_us);
    put("waterfall.wait_us", waterfall.wait_us);
    put("tracing_overhead.p50_us", overhead_us);
    v
}

/// The stages on one trace's path from the entity to one tracker:
/// entity → broker-0 over TCP, engine-0 publishes, broker-0 → broker-1
/// over TCP, broker-1 → the tracker over TCP. Both brokers route trace
/// traffic on the slow path (`broker-<i>.fastpath_share` ≈ 0), which
/// decodes the frame, routes the message and encodes it onward. Each
/// stage is the replayed self time of one call times the calls this
/// path makes; the work for the other trackers, pings and telemetry is
/// off the path and shows in the wait.
pub fn trace_stages(d: &Deltas<'_>, replay: &Replay) -> Vec<Stage> {
    let (_, check_ns) = d.monitor();
    vec![
        // The entity's report; broker-0's and broker-1's onward frames.
        Stage::new("wire.encode", replay.encode_ns / 1000.0, 3.0),
        Stage::new("transport.tcp_send", replay.tcp_send_us, 3.0),
        // Broker-0 and broker-1 take their frames; the tracker decodes
        // the publication.
        Stage::new("wire.decode", replay.decode_ns / 1000.0, 3.0),
        // Broker-0 routes the report to the engine and the engine's
        // publication onward; broker-1 routes it to the tracker.
        Stage::new(
            "broker.publish_internal",
            replay.publish_internal_ns / 1000.0,
            3.0,
        ),
        // The entity's report MAC and its check at the engine; the
        // session tag and its checks at broker-1 and the tracker.
        Stage::new("crypto.hmac", replay.hmac_ns / 1000.0, 5.0),
        // The engine encrypts, the tracker decrypts.
        Stage::new("crypto.aes", replay.aes_ns / 1000.0, 2.0),
        // One delivery report at each broker that routes the
        // publication.
        Stage::new("monitor.check", check_ns / 1000.0, 2.0),
        Stage::new("tracker.view_apply", replay.view_apply_ns / 1000.0, 1.0),
    ]
}

/// The stages on one message's path from the publisher to the
/// subscriber: publisher → broker-0 → broker-1 → subscriber, three TCP
/// hops, both brokers on the cached fast path.
pub fn pubsub_stages(replay: &Replay) -> Vec<Stage> {
    vec![
        Stage::new("wire.encode", replay.encode_ns / 1000.0, 1.0),
        Stage::new("transport.tcp_send", replay.tcp_send_us, 3.0),
        Stage::new("broker.ingest", replay.ingest_ns / 1000.0, 2.0),
        Stage::new("wire.decode", replay.decode_ns / 1000.0, 1.0),
    ]
}

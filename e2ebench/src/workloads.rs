//! The two workloads. Each builds its stack over loopback TCP through
//! the public APIs, measures for the requested time, checks every
//! output, and (when traced) gathers the per-layer numbers.

use crate::layers::{self, Deltas, Replay, Sources, Spans};
use crate::stats::{
    at_reference_speed, calibration_s, completion_rate, median, per_op, percentile, trimmed_mean,
    SeedRng, Stage, Waterfall,
};
use nb_broker::network::{BrokerNetwork, Medium};
use nb_broker::{BrokerClient, BrokerConfig};
use nb_monitor::MonitorSet;
use nb_tracing::harness::{Deployment, Topology};
use nb_tracing::{AvailabilityView, SigningMode, TracedEntity, TracingConfig, Tracker};
use nb_transport::clock::system_clock;
use nb_wire::codec::Encode;
use nb_wire::payload::DiscoveryRestrictions;
use nb_wire::trace::{topics, LoadInformation, TraceCategory};
use nb_wire::{Payload, Topic};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Target length of one segment of the window, seconds. Each segment
/// runs on a stack of its own, built for it: a stack keeps the latency
/// level it starts with (pub/sub p50 sits near 95 or near 125 µs per
/// stack on the same host), so one run samples several. Five seconds is
/// the engine's longest periodic interval (interest re-gauging and
/// stale-tracker expiry), so every segment holds that work.
pub const SEGMENT_S: f64 = 5.0;
/// Pub/sub stacks timed per run, counting the segments' own: each
/// takes about a millisecond, so many are needed for a steady median.
const PUBSUB_SETUPS: usize = 41;
/// How long one trace or message may take before it counts as
/// failed.
const OP_TIMEOUT: Duration = Duration::from_secs(3);
/// How long warm-up waits for one load before publishing the next.
const WARM_UP_RETRY: Duration = Duration::from_millis(5);
/// Budget for a stack to become ready.
const READY_TIMEOUT: Duration = Duration::from_secs(30);

/// Command-line options shared by every workload.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// Drives every generated input.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Traced run: per-layer numbers instead of end-to-end ones.
    pub trace: bool,
}

/// `seconds` cut into whole segments of about [`SEGMENT_S`]: their
/// count (at least one) and length.
fn segments(seconds: f64) -> (usize, f64) {
    let n = ((seconds / SEGMENT_S).floor() as usize).max(1);
    (n, seconds / n as f64)
}

/// Completed operations of one segment.
#[derive(Default)]
pub struct Segment {
    /// Latency of every completed operation, µs.
    pub lat_us: Vec<f64>,
    /// Completion of every completed operation, seconds into the
    /// segment.
    pub done_s: Vec<f64>,
}

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// What one operation is (`trace` or `message`).
    pub op: &'static str,
    /// Operations attempted in the window.
    pub attempted: u64,
    /// Timeouts, losses and duplicates.
    pub failed: u64,
    /// Named correctness checks and whether each held in every
    /// segment.
    pub checks: Vec<(String, bool)>,
    /// Set-up time of each stack built, seconds at the reference
    /// speed (see [`timed_setup`]).
    pub setup_s: Vec<f64>,
    /// Set-up time of each stack built, wall-clock seconds.
    pub setup_wall_s: Vec<f64>,
    /// The window's segments, in order.
    pub segments: Vec<Segment>,
    /// Latencies of operations started in traced blocks, µs.
    pub lat_traced_us: Vec<f64>,
    /// Latencies of operations started in untraced blocks, µs.
    pub lat_untraced_us: Vec<f64>,
    /// Diagnostics printed with the results.
    pub diag: Vec<(String, f64, &'static str)>,
    /// Per-layer numbers (traced runs).
    pub layers: Vec<(String, f64)>,
    /// Latency waterfall (traced runs).
    pub waterfall: Option<Waterfall>,
}

impl Outcome {
    /// Records a check; a check made in several segments holds only if
    /// it holds in each.
    fn check(&mut self, name: &str, ok: bool) {
        match self.checks.iter_mut().find(|(n, _)| n == name) {
            Some((_, held)) => *held &= ok,
            None => self.checks.push((name.to_string(), ok)),
        }
    }

    /// Each segment's `q`-percentile latency, µs, or `None` when a
    /// segment cannot carry it.
    pub fn segment_percentiles(&self, q: f64) -> Option<Vec<f64>> {
        self.segments
            .iter()
            .map(|s| percentile(&s.lat_us, q))
            .collect()
    }

    /// The run's `q`-percentile latency, µs: the segments'
    /// percentiles, highest and lowest left out, averaged (0 when a
    /// segment cannot carry it).
    pub fn latency(&self, q: f64) -> f64 {
        self.segment_percentiles(q)
            .map_or(0.0, |p| trimmed_mean(&p))
    }

    /// Every completed operation's latency, µs.
    pub fn all_latencies(&self) -> Vec<f64> {
        self.segments
            .iter()
            .flat_map(|s| s.lat_us.iter().copied())
            .collect()
    }

    /// Completed operations per second: the mean over segments of each
    /// one's rate between its first and last completion.
    pub fn ops_per_s(&self) -> f64 {
        let rates: Vec<f64> = self
            .segments
            .iter()
            .map(|s| completion_rate(&s.done_s))
            .collect();
        per_op(rates.iter().sum(), rates.len() as u64)
    }

    /// Tracing overhead: traced-block median minus untraced-block
    /// median, µs.
    pub fn overhead_us(&self) -> f64 {
        if self.lat_traced_us.is_empty() || self.lat_untraced_us.is_empty() {
            return 0.0;
        }
        median(&self.lat_traced_us) - median(&self.lat_untraced_us)
    }

    /// Adds a completed operation to the current segment.
    fn record(&mut self, window: &Window, started: Instant, lat_us: f64) {
        let at_s = started
            .saturating_duration_since(window.start)
            .as_secs_f64();
        let segment = self.segments.last_mut().expect("a segment is open");
        segment.lat_us.push(lat_us);
        segment.done_s.push(at_s + lat_us / 1e6);
        if window.trace {
            if window.traced(started) {
                self.lat_traced_us.push(lat_us);
            } else {
                self.lat_untraced_us.push(lat_us);
            }
        }
    }
}

fn fail<E: std::fmt::Debug>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e:?}")
}

/// Inputs generated from the seed: identifiers, load values, blob
/// bytes and entity order. The program only ever sees these.
pub struct Inputs {
    tag: String,
    loads: Vec<LoadInformation>,
    blobs: Vec<[u8; 56]>,
    rng: SeedRng,
}

impl Inputs {
    /// Inputs for `seed`.
    pub fn new(seed: u64) -> Inputs {
        let mut rng = SeedRng::new(seed);
        let tag = format!("{:08x}", rng.next_u64() as u32);
        let loads = (0..512)
            .map(|_| {
                let total = (1u64 << 30) * (1 + rng.below(16));
                LoadInformation {
                    cpu_percent: rng.unit() * 100.0,
                    memory_used_bytes: (total as f64 * rng.unit()) as u64,
                    memory_total_bytes: total,
                    workload: 0,
                }
            })
            .collect();
        let blobs = (0..256)
            .map(|_| {
                let mut b = [0u8; 56];
                for chunk in b.chunks_mut(8) {
                    let bytes = rng.next_u64().to_le_bytes();
                    chunk.copy_from_slice(&bytes[..chunk.len()]);
                }
                b
            })
            .collect();
        Inputs {
            tag,
            loads,
            blobs,
            rng,
        }
    }

    /// A seeded identifier, e.g. `entity-1a2b3c4d-0`.
    pub fn id(&self, kind: &str, i: usize) -> String {
        format!("{kind}-{}-{i}", self.tag)
    }

    /// The load report carrying `marker`.
    pub fn load(&self, marker: u64) -> LoadInformation {
        let mut load = self.loads[(marker % self.loads.len() as u64) as usize];
        load.workload = marker;
        load
    }

    /// The 64-byte blob for message `seq`: the sequence number, then
    /// seeded bytes.
    pub fn blob(&self, seq: u64) -> Vec<u8> {
        let mut data = Vec::with_capacity(64);
        data.extend_from_slice(&seq.to_le_bytes());
        data.extend_from_slice(&self.blobs[(seq % self.blobs.len() as u64) as usize]);
        data
    }

    /// Entity order for `n` publications over two entities: each
    /// consecutive pair holds both entities, in seeded order.
    pub fn pair_order(&mut self, n: usize) -> Vec<usize> {
        let mut order = Vec::with_capacity(n + 1);
        while order.len() < n {
            let first = self.rng.below(2) as usize;
            order.push(first);
            order.push(1 - first);
        }
        order.truncate(n);
        order
    }
}

/// One segment's measured window. In traced runs it alternates one-second
/// untraced and traced blocks, so the benchmark's own spans and queue
/// sampling show up as the difference between the two.
#[derive(Clone, Copy)]
pub struct Window {
    start: Instant,
    trace: bool,
}

impl Window {
    fn open(trace: bool) -> Window {
        Window {
            start: Instant::now(),
            trace,
        }
    }

    fn traced(&self, at: Instant) -> bool {
        self.trace && at.saturating_duration_since(self.start).as_secs() % 2 == 1
    }
}

/// Samples every broker's internal queue depth during traced blocks
/// until `stop` is set; returns the largest depth seen per broker.
fn sample_queues(sources: &Sources<'_>, window: Window, stop: &AtomicBool) -> Vec<i64> {
    let mut max = vec![0i64; sources.brokers.len()];
    while !stop.load(Ordering::Relaxed) {
        if window.traced(Instant::now()) {
            for (m, d) in max.iter_mut().zip(sources.queue_depths()) {
                *m = (*m).max(d);
            }
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    max
}

/// Blocks on the view's condition variable until `entity` shows a load
/// report carrying `marker` or a later one.
fn await_marker(view: &AvailabilityView, entity: &str, marker: u64, timeout: Duration) -> bool {
    view.wait_until(timeout, |v| {
        v.get(entity)
            .and_then(|r| r.load)
            .is_some_and(|l| l.workload >= marker)
    })
}

/// `(last applied sequence, traces applied)` for `entity` in `view`.
fn seq_and_seen(view: &AvailabilityView, entity: &str) -> (u64, u64) {
    view.get(entity)
        .map(|r| (r.last_seq, r.traces_seen))
        .unwrap_or((0, 0))
}

/// Every tracker's `(last applied sequence, traces applied)` for
/// `entity`, read when all of them show the same latest sequence, so a
/// trace still in flight to one tracker does not read as a loss. A
/// tracker that does not catch up within [`OP_TIMEOUT`] is read as it
/// stands.
fn sequence_cut(views: &[AvailabilityView], entity: &str) -> Vec<(u64, u64)> {
    let deadline = Instant::now() + OP_TIMEOUT;
    loop {
        let cut: Vec<(u64, u64)> = views.iter().map(|v| seq_and_seen(v, entity)).collect();
        let top = cut.iter().map(|c| c.0).max().unwrap_or(0);
        if cut.iter().all(|c| c.0 == top) || Instant::now() > deadline {
            return cut;
        }
        for v in views {
            v.wait_until(OP_TIMEOUT, |v| {
                v.get(entity).is_some_and(|r| r.last_seq >= top)
            });
        }
    }
}

/// Losses plus duplicates at one tracker over a window in which the
/// entity published `published` traces (its sequence advance): both the
/// applied sequence and the applied count must grow by exactly that.
/// A loss and a duplicate in the middle of the window still cancel: the
/// view keeps no per-trace record to tell them apart.
fn sequence_errors(before: (u64, u64), after: (u64, u64), published: u64) -> u64 {
    let seq = after.0.saturating_sub(before.0);
    let seen = after.1.saturating_sub(before.1);
    seq.abs_diff(published) + seen.abs_diff(published)
}

/// Peak resident set size of this process, MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The fan-out's tracing deployment plus its entities, trackers and
/// monitors. Dropping it stops every background thread it can.
struct TraceStack {
    dep: Deployment,
    entities: Vec<TracedEntity>,
    entity_ids: Vec<String>,
    /// Long-lived trackers, per entity.
    trackers: Vec<Vec<Tracker>>,
    monitor: MonitorSet,
}

impl TraceStack {
    fn sources(&self) -> Sources<'_> {
        Sources {
            brokers: self.dep.network.brokers.iter().collect(),
            engines: self.dep.engines.iter().collect(),
            trackers: self.trackers.iter().flatten().collect(),
            monitor: Some(&self.monitor),
        }
    }

    fn views(&self) -> Vec<Vec<AvailabilityView>> {
        self.trackers
            .iter()
            .map(|ts| ts.iter().map(Tracker::view).collect())
            .collect()
    }

    fn rejected_tokens(&self) -> u64 {
        self.trackers
            .iter()
            .flatten()
            .map(Tracker::rejected_tokens)
            .sum()
    }
}

impl Drop for TraceStack {
    fn drop(&mut self) {
        for t in self.trackers.iter().flatten() {
            t.stop();
        }
        for e in &self.entities {
            e.stop();
        }
        for engine in &self.dep.engines {
            engine.stop();
        }
    }
}

/// Brokers in the fan-out's TCP chain: the entities sit at broker 0,
/// their trackers at the last broker.
const BROKERS: usize = 2;
/// Traced entities.
const ENTITIES: usize = 2;
/// Long-lived trackers per entity.
const TRACKERS_PER_ENTITY: usize = 4;
/// Categories every long-lived tracker subscribes to.
const INTERESTS: [TraceCategory; 3] = [
    TraceCategory::Load,
    TraceCategory::AllUpdates,
    TraceCategory::ChangeNotifications,
];

/// Stands up the fan-out over TCP with the deployment defaults plus
/// session keys, secured HMAC-keyed entities and the standard
/// monitors, then waits until every tracker applies traces.
fn trace_stack(inputs: &Inputs, marker: &mut u64) -> Result<TraceStack, String> {
    let config = TracingConfig {
        session_keys: true,
        ..TracingConfig::default()
    };
    let dep = Deployment::over(
        Topology::Chain(BROKERS),
        Medium::Tcp,
        system_clock(),
        config,
    )
    .map_err(fail("deployment"))?;
    let monitor = dep.monitors().map_err(fail("monitors"))?;
    let mut stack = TraceStack {
        dep,
        entities: Vec::new(),
        entity_ids: Vec::new(),
        trackers: Vec::new(),
        monitor,
    };
    for e in 0..ENTITIES {
        let id = inputs.id("entity", e);
        let entity = stack
            .dep
            .traced_entity(
                0,
                &id,
                DiscoveryRestrictions::Open,
                SigningMode::SymmetricKey,
                true,
            )
            .map_err(fail("traced entity"))?;
        let mut trackers = Vec::new();
        for t in 0..TRACKERS_PER_ENTITY {
            let tid = inputs.id(&format!("tracker{e}"), t);
            trackers.push(
                stack
                    .dep
                    .tracker(BROKERS - 1, &tid, &id, INTERESTS.to_vec())
                    .map_err(fail("tracker"))?,
            );
        }
        // Acknowledged subscribes at the last broker; wait for their
        // adverts to reach the entity's broker.
        for category in INTERESTS {
            let topic = topics::publication(&entity.trace_topic(), category);
            if !stack.dep.network.brokers[0].wait_for_remote_subscription(&topic, READY_TIMEOUT) {
                return Err(format!("subscription {topic} never reached broker-0"));
            }
        }
        stack.entities.push(entity);
        stack.entity_ids.push(id);
        stack.trackers.push(trackers);
    }
    for e in 0..ENTITIES {
        warm_up(&stack, e, inputs, marker)?;
    }
    Ok(stack)
}

/// Publishes loads until every tracker of entity `e` applies one and
/// holds its keys. Key delivery races the first traces (the re-sent
/// JOIN is sealed before the trace key arrives), so one load is not
/// always enough; each round waits on the views' condition variables.
fn warm_up(stack: &TraceStack, e: usize, inputs: &Inputs, marker: &mut u64) -> Result<(), String> {
    let deadline = Instant::now() + READY_TIMEOUT;
    let id = &stack.entity_ids[e];
    let views: Vec<AvailabilityView> = stack.trackers[e].iter().map(Tracker::view).collect();
    loop {
        *marker += 1;
        stack.entities[e]
            .report_load(inputs.load(*marker))
            .map_err(fail("warm-up load"))?;
        let applied = views
            .iter()
            .all(|v| await_marker(v, id, *marker, WARM_UP_RETRY));
        let keyed = stack.trackers[e]
            .iter()
            .all(|t| t.has_trace_key() && t.has_session_key());
        if applied && keyed {
            return Ok(());
        }
        if Instant::now() > deadline {
            return Err(format!("trackers of {id} never became ready"));
        }
    }
}

/// Builds one stack and records its set-up time. Set-up is mostly
/// compute (the fan-out's is RSA key generation), and the shared
/// host's compute speed swings by up to 2x for seconds to minutes at a
/// time, so the wall time is also scaled to the reference speed by a
/// calibration of the benchmark's own fixed kernel run just before and
/// just after the build (see [`at_reference_speed`]).
fn timed_setup<T>(
    out: &mut Outcome,
    build: impl FnOnce() -> Result<T, String>,
) -> Result<T, String> {
    let before = calibration_s();
    let t0 = Instant::now();
    let stack = build()?;
    let wall = t0.elapsed().as_secs_f64();
    let after = calibration_s();
    out.setup_wall_s.push(wall);
    out.setup_s
        .push(at_reference_speed(wall, (before + after) / 2.0));
    Ok(stack)
}

/// Builds more stacks after the window, up to `setups` timed in all,
/// timing each.
fn time_more_setups<T>(
    out: &mut Outcome,
    setups: usize,
    mut build: impl FnMut() -> Result<T, String>,
) -> Result<(), String> {
    for _ in out.setup_s.len()..setups {
        drop(timed_setup(out, &mut build)?);
    }
    Ok(())
}

/// Attaches a raw client next to the trackers and captures real trace
/// publications of entity 0 (the workload's own frames), re-encoded.
fn capture_trace_frames(stack: &TraceStack, inputs: &Inputs, marker: &mut u64) -> Vec<Vec<u8>> {
    let last = stack.dep.network.len() - 1;
    let Ok(client) = stack
        .dep
        .network
        .attach_client(last, &inputs.id("capture", 0))
    else {
        return Vec::new();
    };
    let topic = topics::publication(&stack.entities[0].trace_topic(), TraceCategory::Load);
    if client.subscribe(topic, Duration::from_secs(5)).is_err() {
        return Vec::new();
    }
    let mut frames = Vec::new();
    for _ in 0..8 {
        *marker += 1;
        if stack.entities[0].report_load(inputs.load(*marker)).is_err() {
            break;
        }
        match client.next_message(Duration::from_secs(2)) {
            Ok(msg) => frames.push(msg.to_bytes()),
            Err(_) => break,
        }
    }
    frames
}

/// Replays of the fan-out's own frames and loads.
fn trace_replay(stack: &TraceStack, inputs: &Inputs, marker: &mut u64) -> Replay {
    let mut replay = Replay::default();
    let frames = capture_trace_frames(stack, inputs, marker);
    layers::replay_wire(&frames, &mut replay);
    if let Some(frame) = frames.first() {
        layers::replay_broker(frame, &mut replay);
    }
    layers::replay_tcp(replay.frame_bytes as usize, &mut replay);
    let loads: Vec<LoadInformation> = (0..512).map(|m| inputs.load(m)).collect();
    layers::replay_tracking(&loads, frames.first().map(Vec::as_slice), &mut replay);
    // TDN discovery, as a tracker start runs it, with a fresh credential.
    if let Ok(credential) = stack.dep.issue(&inputs.id("replay", 0)) {
        let query = topics::discovery_query(&stack.entity_ids[0]);
        let discover: Vec<f64> = (0..20)
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(stack.dep.tdns.discover(&query, &credential.certificate));
                t.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        replay.tdn_discover_us = median(&discover);
    }
    replay
}

/// Fills the waterfall and per-layer report of a traced run. The
/// waterfall reconciles against the run's reported latency median.
fn finish_traced(
    out: &mut Outcome,
    d: &Deltas<'_>,
    spans: &Spans,
    replay: &Replay,
    stages: Vec<Stage>,
) {
    let waterfall = Waterfall::new(stages, out.latency(0.5));
    out.layers = layers::layer_values(d, spans, replay, &waterfall, out.overhead_us());
    out.waterfall = Some(waterfall);
}

/// Runs `send(k, due)` on an open-loop schedule of `rate` per second
/// for `seconds` from `start`, sleeping until each due time. A late
/// generator sends at once; its lateness is returned per operation, µs.
fn open_loop(
    start: Instant,
    rate: f64,
    seconds: f64,
    mut send: impl FnMut(u64, Instant) -> bool,
) -> Vec<f64> {
    let period = Duration::from_secs_f64(1.0 / rate);
    let total = (rate * seconds) as u64;
    let mut lag = Vec::with_capacity(total as usize);
    for k in 0..total {
        let due = start + period * k as u32;
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        lag.push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e6);
        if !send(k, due) {
            break;
        }
    }
    lag
}

/// Open loop at 1000 traces/s over a two-broker chain, alternating two
/// session-keyed entities, each watched by four trackers; monitors on.
/// Each segment of the window runs on a stack of its own.
pub fn trace_session_fanout(o: &Opts) -> Result<Outcome, String> {
    const RATE: f64 = 1000.0;
    let (n, seconds) = segments(o.seconds);
    let mut inputs = Inputs::new(o.seed);
    let orders: Vec<Vec<usize>> = (0..n)
        .map(|_| inputs.pair_order((RATE * seconds) as usize + 2))
        .collect();
    let inputs = inputs;
    let mut marker = 0u64;
    let mut spans = Spans::default();
    let mut out = Outcome {
        op: "trace",
        ..Outcome::default()
    };
    for (k, order) in orders.iter().enumerate() {
        let stack = timed_setup(&mut out, || trace_stack(&inputs, &mut marker))?;
        let segment = FanoutSegment {
            stack: &stack,
            inputs: &inputs,
            order,
            rate: RATE,
            seconds,
            trace: o.trace,
        };
        // Per-layer numbers come from the last segment's stack.
        segment.run(&mut out, &mut spans, &mut marker, o.trace && k + 1 == n);
    }
    out.diag.push((
        "gen.lag_p99_us".into(),
        percentile(&spans.lag_us, 0.99).unwrap_or(0.0),
        "us",
    ));
    Ok(out)
}

/// One segment of the fan-out.
struct FanoutSegment<'a> {
    stack: &'a TraceStack,
    inputs: &'a Inputs,
    /// Which entity publishes each trace.
    order: &'a [usize],
    rate: f64,
    seconds: f64,
    trace: bool,
}

impl FanoutSegment<'_> {
    /// Runs the open loop, checks every tracker's sequence, and with
    /// `per_layer` fills the per-layer numbers from this segment.
    fn run(&self, out: &mut Outcome, spans: &mut Spans, marker: &mut u64, per_layer: bool) {
        let stack = self.stack;
        let inputs = self.inputs;
        let views = stack.views();
        let ids = &stack.entity_ids;
        let sources = stack.sources();
        let seq0: Vec<Vec<(u64, u64)>> = views
            .iter()
            .zip(ids)
            .map(|(vs, id)| sequence_cut(vs, id))
            .collect();
        let fallbacks = || -> u64 {
            stack
                .dep
                .network
                .brokers
                .iter()
                .map(|b| {
                    b.metrics_snapshot()
                        .counter("broker.session.fallback")
                        .unwrap_or(0)
                })
                .sum()
        };
        let fallback0 = fallbacks();
        let violations0 = stack.monitor.violation_count();
        let snap0 = sources.snap();
        let first_marker = *marker + 1;
        let window = Window::open(self.trace);
        let stop = AtomicBool::new(false);
        let (lag, queue_max, observed, report_us) = std::thread::scope(|s| {
            let sampler = self
                .trace
                .then(|| s.spawn(|| sample_queues(&sources, window, &stop)));
            let (tx, rx) = mpsc::channel::<(Instant, usize, u64)>();
            let observer = s.spawn(move || {
                let mut got = Vec::new();
                for (due, e, m) in rx {
                    let ok = views[e]
                        .iter()
                        .all(|v| await_marker(v, &ids[e], m, OP_TIMEOUT));
                    got.push((due, ok, due.elapsed().as_secs_f64() * 1e6));
                }
                got
            });
            let mut report_us = Vec::new();
            let lag = open_loop(window.start, self.rate, self.seconds, |k, due| {
                let e = self.order[k as usize];
                let m = first_marker + k;
                let started = Instant::now();
                let sent = stack.entities[e].report_load(inputs.load(m)).is_ok();
                if window.traced(started) {
                    report_us.push(started.elapsed().as_secs_f64() * 1e6);
                }
                if sent {
                    tx.send((due, e, m)).is_ok()
                } else {
                    true
                }
            });
            drop(tx);
            let observed = observer.join().unwrap_or_default();
            stop.store(true, Ordering::Relaxed);
            let queue_max = sampler
                .map(|h| h.join().unwrap_or_default())
                .unwrap_or_default();
            (lag, queue_max, observed, report_us)
        });
        let snap1 = sources.snap();
        *marker = first_marker + lag.len() as u64;
        out.attempted += lag.len() as u64;
        out.failed += (lag.len() - observed.len()) as u64;
        out.segments.push(Segment::default());
        for (due, ok, lat) in &observed {
            if *ok {
                out.record(&window, *due, *lat);
            } else {
                out.failed += 1;
            }
        }
        spans.add(report_us, lag, &queue_max);

        // The entity's sequence advance, as the furthest of its
        // trackers applied it, is what it published in the window.
        let top = |cut: &[(u64, u64)]| cut.iter().map(|c| c.0).max().unwrap_or(0);
        let mut seq_err = 0;
        for ((vs, id), before) in stack.views().iter().zip(ids).zip(&seq0) {
            let after = sequence_cut(vs, id);
            let published = top(&after).saturating_sub(top(before));
            for (b, a) in before.iter().zip(&after) {
                seq_err += sequence_errors(*b, *a, published);
            }
        }
        out.failed += seq_err;
        out.check(
            "every trace applied exactly once, in order, at every tracker",
            seq_err == 0,
        );
        out.check("tracker rejected no token", stack.rejected_tokens() == 0);
        out.check(
            "monitors raised no violation",
            stack.monitor.violation_count() == violations0,
        );
        out.check(
            "no broker fell back from session keys",
            fallbacks() == fallback0,
        );

        if per_layer {
            let replay = trace_replay(stack, inputs, marker);
            let d = Deltas {
                before: &snap0,
                after: &snap1,
                ops: out.segments.last().map_or(0, |s| s.lat_us.len() as u64),
            };
            finish_traced(out, &d, spans, &replay, layers::trace_stages(&d, &replay));
        }
    }
}

/// A two-broker TCP chain with a publisher client at broker 0 and a
/// subscriber client at broker 1.
struct PubSubStack {
    network: BrokerNetwork,
    publisher: BrokerClient,
    subscriber: BrokerClient,
    topic: Topic,
}

fn pubsub_stack(inputs: &Inputs) -> Result<PubSubStack, String> {
    let network =
        BrokerNetwork::chain_over(2, Medium::Tcp, system_clock(), BrokerConfig::default())
            .map_err(fail("broker chain"))?;
    if !network.wait_for_mesh(READY_TIMEOUT) {
        return Err("broker mesh never formed".into());
    }
    let topic = Topic::parse(&format!("/Bench/PubSub/{}", inputs.tag)).map_err(fail("topic"))?;
    let publisher = network
        .attach_client(0, &inputs.id("publisher", 0))
        .map_err(fail("publisher"))?;
    let subscriber = network
        .attach_client(1, &inputs.id("subscriber", 0))
        .map_err(fail("subscriber"))?;
    subscriber
        .subscribe(topic.clone(), READY_TIMEOUT)
        .map_err(fail("subscribe"))?;
    if !network.brokers[0].wait_for_remote_subscription(&topic, READY_TIMEOUT) {
        return Err("subscription never reached broker-0".into());
    }
    Ok(PubSubStack {
        network,
        publisher,
        subscriber,
        topic,
    })
}

/// Raw data plane: 64-byte blobs from a publisher on broker 0 to a
/// subscriber on broker 1, open loop at 10k msgs/s, one segment per
/// stack.
pub fn pubsub_tcp(o: &Opts) -> Result<Outcome, String> {
    let inputs = Inputs::new(o.seed);
    let (n, seconds) = segments(o.seconds);
    let mut spans = Spans::default();
    let mut out = Outcome {
        op: "message",
        ..Outcome::default()
    };
    let mut base = 0u64;
    for k in 0..n {
        let stack = timed_setup(&mut out, || pubsub_stack(&inputs))?;
        let segment = PubSubSegment {
            stack: &stack,
            inputs: &inputs,
            base,
            seconds,
            trace: o.trace,
        };
        base += segment.run(&mut out, &mut spans, o.trace && k + 1 == n);
    }
    out.check(
        "every message delivered exactly once, in order, intact",
        out.failed == 0,
    );
    out.diag.push((
        "gen.lag_p99_us".into(),
        percentile(&spans.lag_us, 0.99).unwrap_or(0.0),
        "us",
    ));
    time_more_setups(&mut out, PUBSUB_SETUPS, || pubsub_stack(&inputs))?;
    Ok(out)
}

/// One segment of the pub/sub workload.
struct PubSubSegment<'a> {
    stack: &'a PubSubStack,
    inputs: &'a Inputs,
    /// Sequence number of the segment's first message.
    base: u64,
    seconds: f64,
    trace: bool,
}

impl PubSubSegment<'_> {
    /// Runs the open loop, checking every message as it arrives; with
    /// `per_layer` fills the per-layer numbers from this segment.
    /// Returns the messages sent.
    fn run(&self, out: &mut Outcome, spans: &mut Spans, per_layer: bool) -> u64 {
        const RATE: f64 = 10_000.0;
        let (stack, inputs, base) = (self.stack, self.inputs, self.base);
        let sources = Sources {
            brokers: stack.network.brokers.iter().collect(),
            ..Sources::default()
        };
        let period = Duration::from_secs_f64(1.0 / RATE);
        // Allocated up front so peak memory does not depend on timing.
        let mut lat_us: Vec<f64> = Vec::with_capacity((RATE * self.seconds) as usize);
        let sent = AtomicU64::new(0);
        let done = AtomicBool::new(false);
        let stop = AtomicBool::new(false);
        let frame_of = |seq: u64| {
            stack.publisher.make_message(
                stack.topic.clone(),
                Payload::Blob {
                    data: inputs.blob(seq),
                },
            )
        };
        let snap0 = sources.snap();
        // Sends and the receiver's latencies both count from this origin.
        let window = Window::open(self.trace);
        let start = window.start;
        let (lag, queue_max, arrived, bad) = std::thread::scope(|s| {
            let sampler = self
                .trace
                .then(|| s.spawn(|| sample_queues(&sources, window, &stop)));
            let (lat_us, sent, done) = (&mut lat_us, &sent, &done);
            let receiver = s.spawn(move || {
                // Content and order are checked as messages arrive.
                let (mut arrived, mut bad, mut next) = (0u64, 0u64, 0u64);
                while !(done.load(Ordering::Acquire) && next >= sent.load(Ordering::Acquire)) {
                    let Ok(msg) = stack.subscriber.next_message(OP_TIMEOUT) else {
                        break;
                    };
                    let at = Instant::now();
                    let Payload::Blob { data } = &msg.payload else {
                        bad += 1;
                        continue;
                    };
                    let seq = u64::from_le_bytes(data[..8].try_into().unwrap_or([0xff; 8]));
                    if seq != base + next || *data != inputs.blob(seq) || msg.topic != stack.topic {
                        bad += 1;
                    }
                    next = seq.saturating_sub(base) + 1;
                    arrived += 1;
                    let due = start + period * (next - 1) as u32;
                    lat_us.push(at.saturating_duration_since(due).as_secs_f64() * 1e6);
                }
                (arrived, bad)
            });
            // Latency counts from each message's due time.
            let lag = open_loop(start, RATE, self.seconds, |k, _| {
                let ok = stack.publisher.send_message(&frame_of(base + k)).is_ok();
                sent.store(k + 1, Ordering::Release);
                ok
            });
            done.store(true, Ordering::Release);
            let (arrived, bad) = receiver.join().unwrap_or_default();
            stop.store(true, Ordering::Relaxed);
            let queue_max = sampler
                .map(|h| h.join().unwrap_or_default())
                .unwrap_or_default();
            (lag, queue_max, arrived, bad)
        });
        let snap1 = sources.snap();
        let total = sent.load(Ordering::Acquire);
        out.attempted += total;
        out.failed += total.saturating_sub(arrived) + bad;
        out.segments.push(Segment::default());
        for (k, lat) in lat_us.iter().enumerate() {
            out.record(&window, start + period * k as u32, *lat);
        }
        spans.add(Vec::new(), lag, &queue_max);

        if per_layer {
            let mut replay = Replay::default();
            let frames: Vec<Vec<u8>> = (0..8).map(|q| frame_of(base + q).to_bytes()).collect();
            layers::replay_wire(&frames, &mut replay);
            layers::replay_broker(&frames[0], &mut replay);
            layers::replay_tcp(frames[0].len(), &mut replay);
            let d = Deltas {
                before: &snap0,
                after: &snap1,
                ops: arrived,
            };
            finish_traced(out, &d, spans, &replay, layers::pubsub_stages(&replay));
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequence_errors_count_against_what_was_published() {
        // Four traces published, all applied once.
        assert_eq!(sequence_errors((10, 7), (14, 11), 4), 0);
        // A duplicate: one more applied than published.
        assert_eq!(sequence_errors((10, 7), (14, 12), 4), 1);
        // A loss in the middle: the sequence reaches 14, one fewer
        // applied.
        assert_eq!(sequence_errors((10, 7), (14, 10), 4), 1);
        // Seq 11 applied twice, 12 and 14 lost (11, 11, 13): applied
        // count and sequence both grow by 3, which comparing them with
        // each other alone would pass; against the four published
        // traces it is two errors.
        assert_eq!(sequence_errors((10, 7), (13, 10), 4), 2);
        // Nothing published and nothing applied.
        assert_eq!(sequence_errors((10, 7), (10, 7), 0), 0);
    }
}

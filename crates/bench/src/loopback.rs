//! The loopback harness shared by the data-plane reports
//! (`throughput_report`, `monitor_report`, `obs_report`,
//! `session_report`, `recovery_report`).
//!
//! Each report stands up one in-process broker per trial, subscribes a
//! counting sink to its hot topics, saturates the routing pipeline
//! from several threads and then times single publishes. What differs
//! between reports is only the broker configuration, the frames and
//! the report's own assertions; everything else lives here.
//!
//! **Trial policy.** [`run_trials`] runs every configuration
//! [`TRIALS`] times, interleaved, rotating which configuration goes
//! first, so host drift and run-order effects fall on every
//! configuration alike. Each [`Section`] keeps the median, min, max
//! and interquartile distance of msgs/sec over its trials.
//!
//! **Gate rule.** A [`Gate`] compares medians. It fails only when the
//! median overhead exceeds its budget *and* the baseline's own
//! interquartile distance, taken as a % of the baseline median. When
//! that distance is wider than the budget, the trials cannot resolve
//! the budget and a gate that does not fail reads `unresolved`.
//! `ci/check_bench_json.py` re-applies the same rule to the JSON.

use nb_broker::{Broker, BrokerConfig};
use nb_transport::clock::system_clock;
use nb_transport::endpoint::{Endpoint, FrameSender};
use nb_wire::codec::Encode;
use nb_wire::{Message, Payload, Topic};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Trials per configuration.
pub const TRIALS: usize = 5;

/// Clients in the optional idle fleet. A realistic data plane is never
/// matching against one filter: each idle client carries
/// [`IDLE_FILTERS`] disjoint filters the hot topic is matched against
/// (and rejected by) on every route-cache fill.
pub const IDLE_SUBSCRIBERS: usize = 64;
/// Filters per idle client.
pub const IDLE_FILTERS: usize = 4;

/// Polls `pred` every 5 ms until it holds (`true`) or `timeout`
/// passes (`false`).
pub fn wait_until(timeout: Duration, mut pred: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if pred() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    false
}

/// Publisher threads for a saturation phase: one per available core,
/// capped at 8.
pub fn publisher_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get().min(8))
        .unwrap_or(4)
}

/// Broker-side sender for a subscriber endpoint: counts frames and
/// drops them, so a report measures routing, not a consumer.
#[derive(Default)]
struct Sink {
    delivered: AtomicU64,
}

impl Sink {
    /// Frames delivered so far, control acks included.
    fn delivered(&self) -> u64 {
        self.delivered.load(Ordering::Relaxed)
    }
}

impl FrameSender for Sink {
    fn send_frame(&self, _frame: &[u8]) -> nb_transport::Result<()> {
        self.delivered.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

type Uplink = crossbeam::channel::Sender<Vec<u8>>;

/// Attaches one sink-backed client and registers its filters, waiting
/// for every control ack. Dropping the returned uplink reads as a link
/// failure and detaches the client, so callers must hold it.
fn attach_sink_client(broker: &Broker, id: &str, filters: &[Topic]) -> (Arc<Sink>, Uplink) {
    let sink = Arc::new(Sink::default());
    let (frames_tx, frames_rx) = crossbeam::channel::unbounded::<Vec<u8>>();
    broker.attach_client(Endpoint::from_parts(
        Arc::clone(&sink) as Arc<dyn FrameSender>,
        frames_rx,
    ));
    let control = nb_broker::control_topic();
    let attach = Payload::Attach { client_id: id.to_string() };
    let subscribes = filters.iter().map(|f| Payload::Subscribe { filter: f.clone() });
    for (seq, payload) in (1..).zip(std::iter::once(attach).chain(subscribes)) {
        let frame = Message::new(seq, control.clone(), id, 0, payload).to_bytes();
        frames_tx.send(frame).expect("control frame");
    }
    // One ack per control message proves the worker registered them.
    let expected = 1 + filters.len() as u64;
    assert!(
        wait_until(Duration::from_secs(10), || sink.delivered() >= expected),
        "client {id} never finished its handshake"
    );
    (sink, frames_tx)
}

/// One trial of one configuration.
#[derive(Debug, Clone, Copy)]
pub struct Trial {
    /// Saturation throughput.
    pub msgs_per_sec: f64,
    /// Median single-publish latency of the timed phase.
    pub p50_ns: u64,
    /// 99th-percentile single-publish latency of the timed phase.
    pub p99_ns: u64,
    /// Frames published in both phases.
    pub sent: u64,
    /// Frames the sink received in both phases.
    pub delivered: u64,
}

/// A loopback broker named `bench` with a counting subscriber on the
/// hot topics.
pub struct Loopback {
    /// The broker under test.
    pub broker: Broker,
    sink: Arc<Sink>,
    _uplinks: Vec<Uplink>,
}

impl Loopback {
    /// Builds the broker from `config` with advert refresh off, runs
    /// `setup` on it (attach a monitor, install keys), attaches the
    /// [`IDLE_SUBSCRIBERS`] × [`IDLE_FILTERS`] fleet when `idle_fleet`
    /// is set, then one subscriber on `hot`, and calls `probe` until
    /// the hot subscription routes (see [`Loopback::await_route`]).
    pub fn new(
        config: BrokerConfig,
        idle_fleet: bool,
        hot: &[Topic],
        setup: impl FnOnce(&Broker),
        probe: impl FnMut(&Broker),
    ) -> Loopback {
        let config = BrokerConfig { advert_refresh: None, ..config };
        let broker = Broker::new("bench", system_clock(), config);
        setup(&broker);
        let fleet = if idle_fleet { IDLE_SUBSCRIBERS } else { 0 };
        let mut uplinks: Vec<Uplink> = (0..fleet)
            .map(|i| {
                let filters: Vec<Topic> = (0..IDLE_FILTERS)
                    .map(|j| Topic::parse(&format!("/Bench/Idle/{i}/{j}")).unwrap())
                    .collect();
                attach_sink_client(&broker, &format!("idle-{i}"), &filters).1
            })
            .collect();
        let (sink, uplink) = attach_sink_client(&broker, "sub", hot);
        uplinks.push(uplink);
        let loopback = Loopback { broker, sink, _uplinks: uplinks };
        loopback.await_route(probe);
        loopback
    }

    /// Calls `probe` (which publishes one frame) every 2 ms until one
    /// more frame reaches the sink, proving the probed route is live.
    pub fn await_route(&self, mut probe: impl FnMut(&Broker)) {
        let before = self.sink.delivered();
        let deadline = Instant::now() + Duration::from_secs(10);
        while self.sink.delivered() == before {
            assert!(Instant::now() < deadline, "subscription never became routable");
            probe(&self.broker);
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Runs one trial: the saturation phase with `threads` publishers,
    /// thread `t` calling its `publisher(t)` closure `per_thread`
    /// times, then a timed phase of `timed` individually timed calls of
    /// `publisher(threads)` on this thread. Each call gets a sequence
    /// number counting from 0. Both phases assert exact delivery.
    pub fn trial<F>(
        &self,
        threads: usize,
        per_thread: u64,
        timed: u64,
        publisher: impl Fn(usize) -> F + Sync,
    ) -> Trial
    where
        F: FnMut(&Broker, u64),
    {
        let start = self.sink.delivered();
        let msgs_per_sec = self.saturate(threads, per_thread, &publisher);
        let mut publish = publisher(threads);
        let before = self.sink.delivered();
        let mut lat_ns: Vec<f64> = (0..timed)
            .map(|seq| {
                let t = Instant::now();
                publish(&self.broker, seq);
                t.elapsed().as_nanos() as f64
            })
            .collect();
        assert_eq!(self.sink.delivered() - before, timed, "lost or duplicated timed deliveries");
        lat_ns.sort_by(f64::total_cmp);
        Trial {
            msgs_per_sec,
            p50_ns: quantile(&lat_ns, 0.50) as u64,
            p99_ns: quantile(&lat_ns, 0.99) as u64,
            sent: threads as u64 * per_thread + timed,
            delivered: self.sink.delivered() - start,
        }
    }

    /// Barrier-started saturation: `threads` publishers each call
    /// their closure `per_thread` times, wall-clocked from the barrier
    /// to the last join. Asserts exact delivery; returns msgs/sec.
    fn saturate<F>(
        &self,
        threads: usize,
        per_thread: u64,
        publisher: &(impl Fn(usize) -> F + Sync),
    ) -> f64
    where
        F: FnMut(&Broker, u64),
    {
        let before = self.sink.delivered();
        let barrier = Barrier::new(threads + 1);
        let elapsed = std::thread::scope(|s| {
            let workers: Vec<_> = (0..threads)
                .map(|t| {
                    let (broker, barrier) = (&self.broker, &barrier);
                    s.spawn(move || {
                        // Built on its own thread, so frames that
                        // publishers patch in place are not allocated
                        // back to back on one cache line.
                        let mut publish = publisher(t);
                        barrier.wait();
                        for seq in 0..per_thread {
                            publish(broker, seq);
                        }
                    })
                })
                .collect();
            barrier.wait();
            let t0 = Instant::now();
            for w in workers {
                w.join().expect("publisher thread");
            }
            t0.elapsed()
        });
        let msgs = threads as u64 * per_thread;
        assert_eq!(self.sink.delivered() - before, msgs, "lost or duplicated deliveries");
        msgs as f64 / elapsed.as_secs_f64()
    }
}

/// Linear-interpolation quantile of an ascending, non-empty sample.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let h = (sorted.len() - 1) as f64 * q;
    let lo = h.floor() as usize;
    let hi = (lo + 1).min(sorted.len() - 1);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (h - lo as f64)
}

/// Min, quartiles and max of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    /// Smallest value.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Largest value.
    pub max: f64,
}

impl Spread {
    /// Summarises a non-empty sample.
    pub fn of(samples: &[f64]) -> Spread {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Spread {
            min: sorted[0],
            q1: quantile(&sorted, 0.25),
            median: quantile(&sorted, 0.50),
            q3: quantile(&sorted, 0.75),
            max: sorted[sorted.len() - 1],
        }
    }

    /// Interquartile distance.
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }
}

/// The trials of one configuration: one section of a report.
#[derive(Debug)]
pub struct Section {
    /// Every trial, in run order.
    trials: Vec<Trial>,
    /// Spread of saturation msgs/sec over the trials.
    msgs_per_sec: Spread,
    /// Median over the trials of each trial's p50 latency.
    p50_ns: f64,
    /// Median over the trials of each trial's p99 latency.
    p99_ns: f64,
}

impl Section {
    fn new(trials: Vec<Trial>) -> Section {
        let spread = |f: fn(&Trial) -> f64| Spread::of(&trials.iter().map(f).collect::<Vec<_>>());
        Section {
            msgs_per_sec: spread(|t| t.msgs_per_sec),
            p50_ns: spread(|t| t.p50_ns as f64).median,
            p99_ns: spread(|t| t.p99_ns as f64).median,
            trials,
        }
    }

    /// Median saturation msgs/sec.
    pub fn median(&self) -> f64 {
        self.msgs_per_sec.median
    }

    /// Total frames sent over every trial.
    pub fn sent(&self) -> u64 {
        self.trials.iter().map(|t| t.sent).sum()
    }

    /// Prints the section as one line.
    pub fn print(&self, label: &str) {
        let s = &self.msgs_per_sec;
        println!(
            "{label:<24}: median {:>10.0} msgs/sec (min {:.0}, max {:.0}, IQR {:.1}%)   p50 {:.0} ns   p99 {:.0} ns",
            s.median,
            s.min,
            s.max,
            s.iqr() / s.median * 100.0,
            self.p50_ns,
            self.p99_ns
        );
    }

    /// The section as a JSON object (see `docs/PERFORMANCE.md`).
    pub fn json(&self) -> String {
        let list = |f: fn(&Trial) -> String| {
            self.trials.iter().map(f).collect::<Vec<_>>().join(", ")
        };
        let s = &self.msgs_per_sec;
        format!(
            "{{\n    \"trials\": {},\n    \"msgs_per_sec\": {:.0},\n    \"min_msgs_per_sec\": {:.0},\n    \"max_msgs_per_sec\": {:.0},\n    \"iqr_msgs_per_sec\": {:.0},\n    \"trial_msgs_per_sec\": [{}],\n    \"p50_route_ns\": {:.0},\n    \"p99_route_ns\": {:.0},\n    \"sent\": [{}],\n    \"delivered\": [{}]\n  }}",
            self.trials.len(),
            s.median,
            s.min,
            s.max,
            s.iqr(),
            list(|t| format!("{:.0}", t.msgs_per_sec)),
            self.p50_ns,
            self.p99_ns,
            list(|t| t.sent.to_string()),
            list(|t| t.delivered.to_string()),
        )
    }
}

/// Runs [`TRIALS`] trials of each of `N` configurations, interleaved:
/// round `r` runs configurations `r % N, r % N + 1, …` (mod `N`), so
/// each configuration takes its turn at going first. `trial(c)` runs
/// one trial of configuration `c`. Returns one section per
/// configuration.
pub fn run_trials<const N: usize>(mut trial: impl FnMut(usize) -> Trial) -> [Section; N] {
    let mut runs: [Vec<Trial>; N] = std::array::from_fn(|_| Vec::with_capacity(TRIALS));
    for round in 0..TRIALS {
        for k in 0..N {
            let c = (round + k) % N;
            runs[c].push(trial(c));
        }
    }
    runs.map(Section::new)
}

/// Outcome of an overhead gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    /// Within budget, or within the baseline's own spread.
    Pass,
    /// Not failing, but the baseline's spread is wider than the budget.
    Unresolved,
    /// Over budget and over the baseline's spread.
    Fail,
}

impl Verdict {
    /// Applies the gate rule (see the module docs); all values in %.
    fn of(overhead_pct: f64, noise_pct: f64, budget_pct: f64) -> Verdict {
        if overhead_pct > budget_pct && overhead_pct > noise_pct {
            Verdict::Fail
        } else if noise_pct > budget_pct {
            Verdict::Unresolved
        } else {
            Verdict::Pass
        }
    }

    fn as_str(self) -> &'static str {
        match self {
            Verdict::Pass => "pass",
            Verdict::Unresolved => "unresolved",
            Verdict::Fail => "fail",
        }
    }
}

/// An overhead gate: how much slower a variant configuration's median
/// is than its baseline's, against a budget and the baseline's noise.
#[derive(Debug, Clone)]
pub struct Gate {
    baseline: &'static str,
    variant: &'static str,
    budget_pct: f64,
    /// Median overhead of the variant, in % of the baseline median.
    overhead_pct: f64,
    /// The baseline's interquartile distance, in % of its median.
    noise_pct: f64,
    verdict: Verdict,
}

impl Gate {
    /// Evaluates and prints the gate for the named sections, and
    /// panics if it fails.
    pub fn check(
        budget_pct: f64,
        (baseline, base): (&'static str, &Section),
        (variant, var): (&'static str, &Section),
    ) -> Gate {
        let overhead_pct = (base.median() - var.median()) / base.median() * 100.0;
        let noise_pct = base.msgs_per_sec.iqr() / base.median() * 100.0;
        let verdict = Verdict::of(overhead_pct, noise_pct, budget_pct);
        println!(
            "gate {variant} vs {baseline}: overhead {overhead_pct:.2}% (budget {budget_pct}%, baseline noise {noise_pct:.2}%) -> {}",
            verdict.as_str()
        );
        assert_ne!(
            verdict,
            Verdict::Fail,
            "{variant} costs {overhead_pct:.2}% of {baseline} throughput (budget {budget_pct}%, noise {noise_pct:.2}%)"
        );
        Gate { baseline, variant, budget_pct, overhead_pct, noise_pct, verdict }
    }

    /// The gate as a JSON object. Overhead and noise are written at
    /// full precision, so a checker that applies the rule to them
    /// reaches the verdict the gate reached.
    pub fn json(&self) -> String {
        format!(
            "{{ \"baseline\": \"{}\", \"variant\": \"{}\", \"budget_pct\": {}, \"overhead_pct\": {}, \"noise_pct\": {}, \"verdict\": \"{}\" }}",
            self.baseline,
            self.variant,
            self.budget_pct,
            self.overhead_pct,
            self.noise_pct,
            self.verdict.as_str()
        )
    }
}

/// Writes a report file: the `bench`, `mode`, `threads` and `trials`
/// header, then `fields` in order (values already JSON).
pub fn write_report(
    file: &str,
    bench: &str,
    quick: bool,
    threads: usize,
    fields: &[(&str, String)],
) {
    let mode = if quick { "quick" } else { "full" };
    let mut json = format!(
        "{{\n  \"bench\": \"{bench}\",\n  \"mode\": \"{mode}\",\n  \"threads\": {threads},\n  \"trials\": {TRIALS}"
    );
    for (key, value) in fields {
        json.push_str(&format!(",\n  \"{key}\": {value}"));
    }
    json.push_str("\n}\n");
    std::fs::write(file, &json).unwrap_or_else(|e| panic!("write {file}: {e}"));
    println!("wrote {file} ({} bytes)", json.len());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_of_odd_and_even_samples() {
        let odd = Spread::of(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!(odd, Spread { min: 1.0, q1: 2.0, median: 3.0, q3: 4.0, max: 5.0 });
        assert_eq!(odd.iqr(), 2.0);
        let even = Spread::of(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(even, Spread { min: 1.0, q1: 1.75, median: 2.5, q3: 3.25, max: 4.0 });
    }

    #[test]
    fn trials_interleave_and_rotate_the_first_configuration() {
        let mut order = Vec::new();
        let sections: [Section; 3] = run_trials(|c| {
            order.push(c);
            Trial { msgs_per_sec: c as f64, p50_ns: 0, p99_ns: 0, sent: 1, delivered: 1 }
        });
        let firsts: Vec<usize> = order.chunks(3).map(|round| round[0]).collect();
        assert_eq!(firsts, [0, 1, 2, 0, 1]);
        for round in order.chunks(3) {
            let mut configs = round.to_vec();
            configs.sort_unstable();
            assert_eq!(configs, [0, 1, 2], "every round runs every configuration once");
        }
        for (c, section) in sections.iter().enumerate() {
            assert_eq!(section.trials.len(), TRIALS);
            assert_eq!(section.median(), c as f64);
        }
    }

    #[test]
    fn wait_until_gives_up_at_its_timeout() {
        let t0 = Instant::now();
        assert!(!wait_until(Duration::from_millis(20), || false));
        assert!(t0.elapsed() >= Duration::from_millis(20));
        assert!(wait_until(Duration::from_secs(1), || true));
    }

    #[test]
    fn gate_fails_only_beyond_budget_and_noise() {
        assert_eq!(Verdict::of(3.0, 1.0, 5.0), Verdict::Pass);
        assert_eq!(Verdict::of(6.0, 7.0, 10.0), Verdict::Pass);
        assert_eq!(Verdict::of(6.0, 1.0, 5.0), Verdict::Fail);
        assert_eq!(Verdict::of(6.0, 8.0, 5.0), Verdict::Unresolved);
        assert_eq!(Verdict::of(9.0, 8.0, 5.0), Verdict::Fail);
    }

    #[test]
    fn gate_json_keeps_the_numbers_its_verdict_came_from() {
        let (overhead_pct, noise_pct, budget_pct) = (4.19, 5.004, 5.0);
        let verdict = Verdict::of(overhead_pct, noise_pct, budget_pct);
        assert_eq!(verdict, Verdict::Unresolved);
        let gate = Gate {
            baseline: "base",
            variant: "var",
            budget_pct,
            overhead_pct,
            noise_pct,
            verdict,
        };
        let json = gate.json();
        let field = |name: &str| -> f64 {
            let start = json.find(&format!("\"{name}\": ")).unwrap() + name.len() + 4;
            let len = json[start..].find(',').unwrap();
            json[start..start + len].parse().unwrap()
        };
        assert_eq!(field("overhead_pct"), overhead_pct);
        assert_eq!(field("noise_pct"), noise_pct);
        assert_eq!(
            Verdict::of(field("overhead_pct"), field("noise_pct"), budget_pct),
            verdict
        );
        assert!(json.contains("\"verdict\": \"unresolved\""), "{json}");
    }
}

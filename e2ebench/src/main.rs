//! End-to-end benchmark of the trace path over loopback TCP.
//!
//! ```text
//! e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads: `trace_session_fanout` and `pubsub_tcp` (see `README.md`
//! next to this crate). An untraced run
//! (`--trace 0`) prints the end-to-end metrics; a traced run prints the
//! per-layer metrics and the latency waterfall. The last line of
//! standard output is always one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! The process exits non-zero when any correctness check fails.

mod layers;
mod stats;
mod workloads;

use std::process::ExitCode;
use workloads::{Opts, Outcome};

/// The workloads `--workload` accepts.
const WORKLOADS: [&str; 2] = ["trace_session_fanout", "pubsub_tcp"];

struct Args {
    workload: String,
    opts: Opts,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {value}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        opts: Opts {
            seed,
            seconds,
            trace,
        },
    })
}

fn run(args: &Args) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "trace_session_fanout" => workloads::trace_session_fanout(&args.opts),
        "pubsub_tcp" => workloads::pubsub_tcp(&args.opts),
        other => Err(format!("unknown workload {other}")),
    }
}

/// The end-to-end metrics of an untraced run, `(name, value, unit)`.
/// p90 is printed but not gated: on the shared host it is set by other
/// tenants' multi-millisecond stalls (fan-out p90 moved 0.4-2 ms
/// between identical runs).
fn end_to_end(out: &Outcome) -> Vec<(&'static str, f64, &'static str)> {
    vec![
        ("setup_s", stats::median(&out.setup_s), "s"),
        ("latency_p50_us", out.latency(0.5), "us"),
        ("ops_per_s", out.ops_per_s(), "1/s"),
        (
            "ok_ratio",
            1.0 - stats::fail_ratio(out.attempted, out.failed),
            "ratio",
        ),
        ("rss_mb", workloads::peak_rss_mb(), "MB"),
    ]
}

fn json_metrics(metrics: &[(String, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    let out = match run(&args) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("e2ebench: {} failed: {e}", args.workload);
            return ExitCode::from(1);
        }
    };

    let o = &args.opts;
    println!(
        "== {} (seed {}, {} s, trace {}) ==",
        args.workload,
        o.seed,
        o.seconds,
        u8::from(o.trace)
    );
    let correct = out.checks.iter().all(|(_, ok)| *ok) && out.attempted > 0;
    for (name, ok) in &out.checks {
        println!("check: {:<62} {}", name, if *ok { "ok" } else { "FAILED" });
    }
    println!(
        "{} {}s attempted, {} failed (fail_ratio {})",
        out.attempted,
        out.op,
        out.failed,
        stats::fail_ratio(out.attempted, out.failed)
    );
    let all = out.all_latencies();
    let pcts: Vec<String> = [("p50", 0.5), ("p90", 0.9), ("p99", 0.99)]
        .iter()
        .map(|(name, q)| match stats::percentile(&all, *q) {
            Some(v) => format!("{name} {v:.1} us"),
            None => format!("{name} n/a (fewer than {} samples beyond)", stats::MIN_TAIL),
        })
        .collect();
    println!("{} latency (n={}): {}", out.op, all.len(), pcts.join(", "));
    for (what, times) in [
        ("at reference speed", &out.setup_s),
        ("wall clock", &out.setup_wall_s),
    ] {
        let setups: Vec<String> = times.iter().map(|s| format!("{s:.4}")).collect();
        println!("set-up times, {what} (s): {}", setups.join(" "));
    }
    println!(
        "diag setup_wall_s (median, wall clock): {:.4} s",
        stats::median(&out.setup_wall_s)
    );
    let p50s = out.segment_percentiles(0.5).unwrap_or_default();
    let p50s: Vec<String> = p50s.iter().map(|p| format!("{p:.1}")).collect();
    println!("p50 per segment, one stack each (us): {}", p50s.join(" "));
    println!(
        "diag latency_p90_us (as latency_p50_us): {:.1} us",
        out.latency(0.9)
    );
    for (name, value, unit) in &out.diag {
        println!("diag {name}: {value:.1} {unit}");
    }

    let metrics: Vec<(String, f64, &str)> = if o.trace {
        if let Some(w) = &out.waterfall {
            println!("waterfall of the median {} (µs):", out.op);
            print!("{}", w.render());
        }
        println!(
            "tracing overhead (traced - untraced median): {:.1} us",
            out.overhead_us()
        );
        layers::per_layer_names()
            .into_iter()
            .map(|(name, unit)| {
                let v = out
                    .layers
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map_or(0.0, |(_, v)| *v);
                println!("layer {name:<36} {v:>14.3} {unit}");
                (name, v, unit)
            })
            .collect()
    } else {
        end_to_end(&out)
            .into_iter()
            .map(|(name, value, unit)| {
                println!("e2e {name:<16} {value:>14.3} {unit}");
                (name.to_string(), value, unit)
            })
            .collect()
    };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.attempted.max(1),
        out.failed,
        json_metrics(&metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse_args(&argv(
            "--workload pubsub_tcp --seed 7 --seconds 12 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, "pubsub_tcp");
        assert_eq!(a.opts.seed, 7);
        assert_eq!(a.opts.seconds, 12.0);
        assert!(a.opts.trace);
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--workload pubsub_tcp --trace 2")).is_err());
        assert!(parse_args(&argv("--seed 1")).is_err());
    }

    #[test]
    fn json_carries_every_digit() {
        let j = json_metrics(&[
            ("a".into(), 1.234_567_89, "ms"),
            ("b".into(), f64::NAN, "s"),
        ]);
        assert_eq!(
            j,
            "{\"a\": {\"value\": 1.23456789, \"unit\": \"ms\"}, \"b\": {\"value\": 0, \"unit\": \"s\"}}"
        );
    }

    /// The metric lists printed here are the ones `BENCHMARK.json`
    /// declares, in both directions.
    #[test]
    fn benchmark_json_matches_the_printed_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(path) else {
            return; // benchmark directory used on its own
        };
        let declared = |section: &str| -> Vec<String> {
            let start = text
                .find(&format!("\"{section}\""))
                .expect("section present");
            let rest = &text[start..];
            let end = rest.find(']').expect("section closes");
            rest[..end]
                .split("\"name\":")
                .skip(1)
                .map(|s| {
                    s.trim()
                        .trim_start_matches('"')
                        .split('"')
                        .next()
                        .unwrap()
                        .to_string()
                })
                .collect()
        };
        let e2e: Vec<String> = end_to_end(&Outcome::default())
            .iter()
            .map(|(n, _, _)| n.to_string())
            .collect();
        assert_eq!(declared("end_to_end"), e2e);
        let per_layer: Vec<String> = layers::per_layer_names()
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(declared("per_layer"), per_layer);
        for w in WORKLOADS {
            assert!(text.contains(&format!("\"name\": \"{w}\"")), "{w}");
        }
    }
}

//! Exposition: render the aggregator's view as Prometheus text or a
//! JSON document, for scrapers, scripts and CI.

use std::fmt::Write as _;
use std::time::Duration;

use nb_metrics::{HistogramSummary, Snapshot, SnapshotValue};

use crate::aggregator::{ClusterAggregator, HealthState};

/// Maps a dotted metric name to the Prometheus grammar
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`).
fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 4);
    out.push_str("obs_");
    for c in name.chars() {
        out.push(if c.is_ascii_alphanumeric() { c } else { '_' });
    }
    out
}

/// Escapes a label value per the Prometheus text format.
fn prom_label(value: &str) -> String {
    value
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn write_histogram(
    out: &mut String,
    name: &str,
    labels: &str,
    extra_comma: &str,
    h: &HistogramSummary,
) {
    let _ = writeln!(out, "{name}_count{{{labels}}} {}", h.count);
    let _ = writeln!(out, "{name}_sum{{{labels}}} {}", h.sum);
    for (q, v) in [
        (0.5, h.quantile(0.5)),
        (0.9, h.quantile(0.9)),
        (0.99, h.quantile(0.99)),
    ] {
        let _ = writeln!(out, "{name}{{{labels}{extra_comma}quantile=\"{q}\"}} {v}");
    }
}

fn write_snapshot(out: &mut String, snapshot: &Snapshot, labels: &str) {
    let extra_comma = if labels.is_empty() { "" } else { "," };
    for e in snapshot.entries() {
        let name = prom_name(&e.name);
        match &e.value {
            SnapshotValue::Counter(v) => {
                let _ = writeln!(out, "{name}{{{labels}}} {v}");
            }
            SnapshotValue::Gauge(v) => {
                let _ = writeln!(out, "{name}{{{labels}}} {v}");
            }
            SnapshotValue::Histogram(h) => {
                write_histogram(out, &name, labels, extra_comma, h);
            }
        }
    }
}

/// Renders the cluster view in the Prometheus text exposition format:
/// every node's metrics labelled `{node,kind}`, the cluster rollup
/// labelled `{scope="cluster"}`, and the health scoreboard as
/// `obs_node_health` (2 = up, 1 = degraded, 0 = down) plus
/// `obs_node_flaps` / `obs_node_seq`. `now_ms` must come from the same
/// clock domain the publishers stamp frames with.
pub fn prometheus_text(agg: &ClusterAggregator, now_ms: u64) -> String {
    let mut out = String::new();
    for health in agg.health_report(now_ms) {
        let labels = format!(
            "node=\"{}\",kind=\"{}\"",
            prom_label(&health.node),
            health.kind.label()
        );
        let score = match health.state {
            HealthState::Up => 2,
            HealthState::Degraded => 1,
            HealthState::Down => 0,
        };
        let _ = writeln!(out, "obs_node_health{{{labels}}} {score}");
        let _ = writeln!(out, "obs_node_flaps{{{labels}}} {}", health.flaps);
        let _ = writeln!(out, "obs_node_seq{{{labels}}} {}", health.seq);
        if let Some(total) = agg.node_total(&health.node) {
            write_snapshot(&mut out, &total, &labels);
        }
    }
    write_snapshot(&mut out, &agg.rollup(), "scope=\"cluster\"");
    write_snapshot(&mut out, &agg.metrics_snapshot(), "scope=\"aggregator\"");
    out
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn json_snapshot(snapshot: &Snapshot) -> String {
    let mut parts = Vec::with_capacity(snapshot.len());
    for e in snapshot.entries() {
        let name = json_escape(&e.name);
        match &e.value {
            SnapshotValue::Counter(v) => parts.push(format!("\"{name}\": {v}")),
            SnapshotValue::Gauge(v) => parts.push(format!("\"{name}\": {v}")),
            SnapshotValue::Histogram(h) => parts.push(format!(
                "\"{name}\": {{\"count\": {}, \"sum\": {}, \"min\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}, \"max\": {}}}",
                h.count,
                h.sum,
                if h.count == 0 { 0 } else { h.min },
                h.quantile(0.5),
                h.quantile(0.9),
                h.quantile(0.99),
                h.max
            )),
        }
    }
    format!("{{{}}}", parts.join(", "))
}

/// Renders the cluster view as one JSON document:
///
/// ```json
/// {
///   "now_ms": ...,
///   "nodes": [
///     {"node": "...", "kind": "broker", "health": "up", "seq": N,
///      "flaps": N, "frames": N, "last_heard_ms": N, "metrics": {...}},
///     ...
///   ],
///   "cluster": {...rollup...},
///   "aggregator": {...obs.* metrics...}
/// }
/// ```
///
/// Rates over `rate_window` are included per node as
/// `"rates": {"<counter>": per_second, ...}` once two samples exist.
pub fn json_export(agg: &ClusterAggregator, now_ms: u64, rate_window: Duration) -> String {
    let mut nodes = Vec::new();
    for health in agg.health_report(now_ms) {
        let metrics = agg
            .node_total(&health.node)
            .map(|t| json_snapshot(&t))
            .unwrap_or_else(|| "{}".to_string());
        let rates = agg
            .window_delta(&health.node, rate_window)
            .map(|w| {
                let mut parts = Vec::new();
                for e in w.delta.entries() {
                    if let SnapshotValue::Counter(_) = e.value {
                        if let Some(rate) = w.rate(&e.name) {
                            parts.push(format!("\"{}\": {rate:.1}", json_escape(&e.name)));
                        }
                    }
                }
                format!("{{{}}}", parts.join(", "))
            })
            .unwrap_or_else(|| "{}".to_string());
        nodes.push(format!(
            "{{\"node\": \"{}\", \"kind\": \"{}\", \"health\": \"{}\", \"seq\": {}, \"flaps\": {}, \"frames\": {}, \"last_heard_ms\": {}, \"metrics\": {metrics}, \"rates\": {rates}}}",
            json_escape(&health.node),
            health.kind.label(),
            health.state.label(),
            health.seq,
            health.flaps,
            health.frames,
            health.last_heard_ms,
        ));
    }
    format!(
        "{{\"now_ms\": {now_ms}, \"nodes\": [{}], \"cluster\": {}, \"aggregator\": {}}}",
        nodes.join(", "),
        json_snapshot(&agg.rollup()),
        json_snapshot(&agg.metrics_snapshot()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{NodeKind, TelemetryFrame};
    use nb_metrics::Registry;

    fn seeded_aggregator() -> ClusterAggregator {
        let agg = ClusterAggregator::new();
        let r = Registry::new();
        r.counter("broker.publish.accepted").add(10);
        r.gauge("broker.clients").set(2);
        r.histogram("broker.route.ns").record(512);
        for (node, seq, t) in [("b0", 0, 1_000), ("b0", 1, 2_000)] {
            agg.ingest_frame(TelemetryFrame {
                node: node.into(),
                kind: NodeKind::Broker,
                seq,
                clock_ms: t,
                interval_ms: 1_000,
                full: seq == 0,
                snapshot: r.snapshot(),
            });
        }
        agg
    }

    #[test]
    fn prometheus_text_is_well_formed() {
        let agg = seeded_aggregator();
        let text = prometheus_text(&agg, 2_100);
        assert!(text.contains("obs_node_health{node=\"b0\",kind=\"broker\"} 2"));
        assert!(text.contains("obs_broker_publish_accepted{node=\"b0\",kind=\"broker\"} 10"));
        assert!(text.contains("obs_broker_route_ns_count{node=\"b0\",kind=\"broker\"} 1"));
        assert!(text.contains("quantile=\"0.5\""));
        assert!(text.contains("obs_broker_publish_accepted{scope=\"cluster\"} 10"));
        assert!(text.contains("obs_obs_frames_accepted{scope=\"aggregator\"} 2"));
        // Every line is `name{labels} value`.
        for line in text.lines() {
            assert!(
                line.contains('{') && line.contains("} "),
                "bad line: {line}"
            );
        }
    }

    #[test]
    fn json_export_parses_structurally() {
        let agg = seeded_aggregator();
        let json = json_export(&agg, 2_100, Duration::from_secs(10));
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"node\": \"b0\""));
        assert!(json.contains("\"health\": \"up\""));
        assert!(json.contains("\"cluster\": {"));
        assert!(json.contains("\"broker.publish.accepted\": 10"));
        // Balanced braces/brackets (hand-built JSON sanity).
        assert_eq!(json.matches('{').count(), json.matches('}').count(),);
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}

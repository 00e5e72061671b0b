//! The per-layer metrics of a traced run, named by crate, and the
//! end-to-end (metric, workload) pairs each one is predicted to move.
//!
//! Host times come from the benchmark's own spans (see [`crate::trace`]);
//! counts come from the simulator's exact counters. Unless stated
//! otherwise a figure is per pass of the op list: `_ms` is host time per
//! pass, `_us` is host time per call, counts are per pass. Set-up figures
//! are per set-up.

use crate::harness::Counters;
use crate::trace::Totals;
use std::collections::BTreeMap;

/// One per-layer metric.
pub struct LayerMetric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// The end-to-end (metric, workload) pairs a change in this layer is
    /// predicted to move.
    pub targets: &'static [(&'static str, &'static str)],
}

const BULK: &[(&str, &str)] = &[("ops_per_s", "bulk-dma")];
const DRAIN: &[(&str, &str)] = &[
    ("op_ms_p50", "bulk-dma"),
    ("op_ms_p50", "ring16-concurrent"),
];
const ISSUE: &[(&str, &str)] = &[("op_ms_p50", "ring16-concurrent"), ("op_ms_p50", "app-mix")];
const SETUP: &[(&str, &str)] = &[("setup_s", "app-mix")];
const CORE: &[(&str, &str)] = &[("op_ms_p50", "app-mix")];
const APPS: &[(&str, &str)] = &[("ops_per_s", "app-mix")];
const STAGING: &[(&str, &str)] = &[("op_ms_p50", "bulk-dma")];
const VERIFY: &[(&str, &str)] = &[("setup_s", "ring16-concurrent")];
const PROBES: &[(&str, &str)] = &[("ops_per_s", "observed"), ("peak_rss_mb", "observed")];

macro_rules! m {
    ($name:literal, $unit:literal, $targets:expr) => {
        LayerMetric {
            name: $name,
            unit: $unit,
            targets: $targets,
        }
    };
}

/// Every per-layer metric, in print order.
pub const METRICS: &[LayerMetric] = &[
    m!("sim.events", "count", BULK),
    m!("sim.ns_per_event", "ns", BULK),
    m!("sim.queue.cascades_per_push", "ratio", BULK),
    m!("sim.queue.peak_pending", "count", BULK),
    m!("pcie.drain_ms", "ms", DRAIN),
    m!("pcie.deliver_events", "count", DRAIN),
    m!("pcie.credit_return_events", "count", DRAIN),
    m!("pcie.credit_return_share", "ratio", DRAIN),
    m!("pcie.tlp_transmits", "count", DRAIN),
    m!("pcie.credit_stall_us", "us", DRAIN),
    m!("peach2.issue_us", "us", ISSUE),
    m!("peach2.desc_fetches", "count", ISSUE),
    m!("peach2.dma_runs", "count", ISSUE),
    m!("core.build_ms", "ms", SETUP),
    m!("device.alloc_ms", "ms", SETUP),
    m!("core.put_us", "us", CORE),
    m!("core.pio_put_us", "us", CORE),
    m!("core.barrier_us", "us", CORE),
    m!("core.allreduce_us", "us", CORE),
    m!("net.put_us", "us", APPS),
    m!("net.collective_us", "us", APPS),
    m!("net.mpi.eager_sends", "count", APPS),
    m!("net.mpi.rndv_sends", "count", APPS),
    m!("apps.self_ms", "ms", APPS),
    m!("apps.comm_share", "ratio", APPS),
    m!("device.write_ms", "ms", STAGING),
    m!("device.read_ms", "ms", STAGING),
    m!("verify.analyze_ms", "ms", VERIFY),
    m!("sim.span.count", "count", PROBES),
    m!("sim.flight.records", "count", PROBES),
    m!("sim.flight.export_ms", "ms", PROBES),
    m!("sim.sampler.captures", "count", PROBES),
    m!("sim.probe_ns_per_event", "ns", PROBES),
    m!("bench.trace_overhead_pct", "%", &[]),
];

/// Span names (recorded by the workloads) whose host time runs the
/// simulator's event loop; `sim.ns_per_event` divides their self time by
/// the events they executed.
pub const EVENT_SPANS: &[&str] = &[
    "pcie.drain",
    "core.put",
    "core.pio_put",
    "core.barrier",
    "core.allreduce",
    "core.allgather",
    "net.put",
    "net.collective",
];

/// Per-layer values collected during a traced run; every metric of
/// [`METRICS`] is reported, 0 where the workload does not exercise it.
#[derive(Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// Sets `name` (which must be listed in [`METRICS`]).
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(METRICS.iter().any(|m| m.name == name), "{name}");
        self.0
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }

    /// The current value of `name` (0 when unset).
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Every metric of [`METRICS`] with its unit, in order.
    pub fn into_metrics(self) -> Vec<(String, f64, &'static str)> {
        METRICS
            .iter()
            .map(|m| (m.name.to_string(), self.get(m.name), m.unit))
            .collect()
    }
}

fn self_ms(t: &BTreeMap<&'static str, Totals>, name: &str) -> f64 {
    t.get(name).map_or(0.0, |x| x.self_ns as f64 / 1e6)
}

fn mean_us(t: &BTreeMap<&'static str, Totals>, name: &str) -> f64 {
    t.get(name)
        .filter(|x| x.count > 0)
        .map_or(0.0, |x| x.total_ns as f64 / 1e3 / x.count as f64)
}

/// Set-up figures from the spans of `reps` set-ups.
pub fn from_setup(out: &mut Layers, t: &BTreeMap<&'static str, Totals>, reps: usize) {
    let per = |name| self_ms(t, name) / reps as f64;
    out.set("core.build_ms", per("core.build"));
    out.set("device.alloc_ms", per("device.alloc"));
    out.set("verify.analyze_ms", per("verify.analyze"));
}

/// Host-time figures from the spans of `passes` traced passes.
pub fn from_spans(out: &mut Layers, t: &BTreeMap<&'static str, Totals>, passes: usize) {
    let per_pass = |name| self_ms(t, name) / passes.max(1) as f64;
    out.set("pcie.drain_ms", per_pass("pcie.drain"));
    out.set("device.write_ms", per_pass("device.write"));
    out.set("device.read_ms", per_pass("device.read"));
    out.set("apps.self_ms", per_pass("apps.kernel"));
    out.set("peach2.issue_us", mean_us(t, "peach2.issue"));
    for (metric, span) in [
        ("core.put_us", "core.put"),
        ("core.pio_put_us", "core.pio_put"),
        ("core.barrier_us", "core.barrier"),
        ("core.allreduce_us", "core.allreduce"),
        ("net.put_us", "net.put"),
        ("net.collective_us", "net.collective"),
    ] {
        out.set(metric, mean_us(t, span));
    }
    if let Some(k) = t.get("apps.kernel").filter(|k| k.total_ns > 0) {
        let comm = (k.total_ns - k.self_ns) as f64;
        out.set("apps.comm_share", comm / k.total_ns as f64);
    }
    out.set("sim.flight.export_ms", mean_us(t, "sim.export") / 1e3);
    let (ns, events) = EVENT_SPANS
        .iter()
        .filter_map(|n| t.get(n))
        .fold((0u64, 0u64), |(ns, ev), x| (ns + x.self_ns, ev + x.events));
    if events > 0 {
        out.set("sim.ns_per_event", ns as f64 / events as f64);
    }
}

/// Count figures from the counter increments over `passes` passes.
pub fn from_counters(out: &mut Layers, c: &Counters, passes: usize) {
    let per = |v: u64| v as f64 / passes.max(1) as f64;
    out.set("sim.events", per(c.events));
    if c.pushes > 0 {
        out.set(
            "sim.queue.cascades_per_push",
            c.cascades as f64 / c.pushes as f64,
        );
    }
    out.set("sim.queue.peak_pending", c.peak_pending as f64);
    out.set("pcie.deliver_events", per(c.deliver));
    out.set("pcie.credit_return_events", per(c.credit_return));
    let all = c.deliver + c.timer + c.credit_return;
    if all > 0 {
        out.set(
            "pcie.credit_return_share",
            c.credit_return as f64 / all as f64,
        );
    }
    out.set("pcie.tlp_transmits", per(c.tlp_transmits));
    out.set("pcie.credit_stall_us", per(c.credit_stall_ps) / 1e6);
    out.set("peach2.desc_fetches", per(c.desc_fetches));
    out.set("peach2.dma_runs", per(c.dma_runs));
    out.set("net.mpi.eager_sends", per(c.eager_sends));
    out.set("net.mpi.rndv_sends", per(c.rndv_sends));
    out.set("sim.span.count", per(c.span_count));
    out.set("sim.flight.records", per(c.flight_records));
    out.set("sim.sampler.captures", per(c.sampler_captures));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_every_layer_metric_with_its_unit() {
        let json = include_str!("../../BENCHMARK.json");
        let per_layer = &json[json.find("\"per_layer\"").expect("per_layer key")..];
        assert_eq!(per_layer.matches("\"name\"").count(), METRICS.len());
        for m in METRICS {
            let entry = format!("\"name\": \"{}\",\n      \"unit\": \"{}\"", m.name, m.unit);
            assert!(
                per_layer.contains(&entry),
                "{} ({}) missing",
                m.name,
                m.unit
            );
        }
    }
}

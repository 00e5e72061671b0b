//! Fabric-wide metrics registry.
//!
//! [`MetricsHub`] is a name-indexed registry of the four collector kinds in
//! [`crate::stats`]: counters, gauges (with peak watermark), log₂ latency
//! histograms, and bandwidth meters. Device models register a metric once
//! under a hierarchical dot name (`link.3.fwd.credit_stall_ns`,
//! `peach2.1.dma.chain_len`) and then update it through a `Copy` handle, so
//! the hot path is one bounds-checked array access — cheap enough to stay
//! always-on.
//!
//! ## Determinism contract
//!
//! The hub observes simulated time (timestamps passed in by callers) but
//! never advances it: no method schedules events or touches the event
//! queue. [`MetricsHub::snapshot`] is a pure read sorted by metric name, so
//! two runs of the same seed produce byte-identical snapshot JSON, and an
//! instrumented run pops exactly the same events as an uninstrumented one —
//! the determinism tests assert both properties.

use crate::json::JsonValue;
use crate::stats::{BandwidthMeter, LatencyHistogram};
use crate::time::{Dur, SimTime};
use std::collections::HashMap;

/// Handle to a registered counter.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CounterId(u32);

/// Handle to a registered gauge.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct GaugeId(u32);

/// Handle to a registered latency histogram.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct HistogramId(u32);

/// Handle to a registered bandwidth meter.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MeterId(u32);

#[derive(Clone, Copy, Debug, Default)]
struct GaugeState {
    current: i64,
    peak: i64,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Slot {
    Counter(u32),
    Gauge(u32),
    Histogram(u32),
    Meter(u32),
}

/// Name-indexed registry of always-on metrics.
#[derive(Default)]
pub struct MetricsHub {
    index: HashMap<String, Slot>,
    counters: Vec<(String, u64)>,
    gauges: Vec<(String, GaugeState)>,
    histograms: Vec<(String, LatencyHistogram)>,
    meters: Vec<(String, BandwidthMeter)>,
}

impl MetricsHub {
    /// Creates an empty hub.
    pub fn new() -> MetricsHub {
        MetricsHub::default()
    }

    /// Registers (or looks up) a counter under `name`.
    ///
    /// A lookup hit returns the existing handle without allocating: the
    /// name is only converted to an owned `String` on first registration.
    /// (Callers on repeated paths should still cache the returned id —
    /// *formatting* a name allocates before this method ever sees it.)
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different metric kind.
    pub fn counter(&mut self, name: impl AsRef<str> + Into<String>) -> CounterId {
        if let Some(slot) = self.index.get(name.as_ref()) {
            match slot {
                Slot::Counter(i) => return CounterId(*i),
                _ => panic!(
                    "metric `{}` already registered with another kind",
                    name.as_ref()
                ),
            }
        }
        let name = name.into();
        let idx = self.counters.len() as u32;
        self.index.insert(name.clone(), Slot::Counter(idx));
        self.counters.push((name, 0));
        CounterId(idx)
    }

    /// Registers (or looks up) a gauge under `name` (allocation-free on
    /// a lookup hit, as for [`MetricsHub::counter`]).
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different metric kind.
    pub fn gauge(&mut self, name: impl AsRef<str> + Into<String>) -> GaugeId {
        if let Some(slot) = self.index.get(name.as_ref()) {
            match slot {
                Slot::Gauge(i) => return GaugeId(*i),
                _ => panic!(
                    "metric `{}` already registered with another kind",
                    name.as_ref()
                ),
            }
        }
        let name = name.into();
        let idx = self.gauges.len() as u32;
        self.index.insert(name.clone(), Slot::Gauge(idx));
        self.gauges.push((name, GaugeState::default()));
        GaugeId(idx)
    }

    /// Registers (or looks up) a latency histogram under `name`
    /// (allocation-free on a lookup hit, as for [`MetricsHub::counter`]).
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different metric kind.
    pub fn histogram(&mut self, name: impl AsRef<str> + Into<String>) -> HistogramId {
        if let Some(slot) = self.index.get(name.as_ref()) {
            match slot {
                Slot::Histogram(i) => return HistogramId(*i),
                _ => panic!(
                    "metric `{}` already registered with another kind",
                    name.as_ref()
                ),
            }
        }
        let name = name.into();
        let idx = self.histograms.len() as u32;
        self.index.insert(name.clone(), Slot::Histogram(idx));
        self.histograms.push((name, LatencyHistogram::new()));
        HistogramId(idx)
    }

    /// Registers (or looks up) a bandwidth meter under `name`
    /// (allocation-free on a lookup hit, as for [`MetricsHub::counter`]).
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different metric kind.
    pub fn meter(&mut self, name: impl AsRef<str> + Into<String>) -> MeterId {
        if let Some(slot) = self.index.get(name.as_ref()) {
            match slot {
                Slot::Meter(i) => return MeterId(*i),
                _ => panic!(
                    "metric `{}` already registered with another kind",
                    name.as_ref()
                ),
            }
        }
        let name = name.into();
        let idx = self.meters.len() as u32;
        self.index.insert(name.clone(), Slot::Meter(idx));
        self.meters.push((name, BandwidthMeter::new()));
        MeterId(idx)
    }

    /// Adds one to a counter.
    #[inline]
    pub fn inc(&mut self, id: CounterId) {
        self.add(id, 1);
    }

    /// Adds `n` to a counter.
    #[inline]
    pub fn add(&mut self, id: CounterId, n: u64) {
        self.counters[id.0 as usize].1 += n;
    }

    /// Current counter value.
    #[inline]
    pub fn counter_value(&self, id: CounterId) -> u64 {
        self.counters[id.0 as usize].1
    }

    /// Raises a counter to an absolute cumulative `total` (no-op when the
    /// counter already reached it). This is the idempotent publication path
    /// for devices that keep their own cumulative counters and mirror them
    /// into the hub on every snapshot (`Device::publish_metrics`).
    #[inline]
    pub fn counter_sync(&mut self, id: CounterId, total: u64) {
        let c = &mut self.counters[id.0 as usize].1;
        *c = (*c).max(total);
    }

    /// Sets a gauge to an absolute value, tracking the peak.
    #[inline]
    pub fn gauge_set(&mut self, id: GaugeId, value: i64) {
        let g = &mut self.gauges[id.0 as usize].1;
        g.current = value;
        g.peak = g.peak.max(value);
    }

    /// Adjusts a gauge by a signed delta, tracking the peak.
    #[inline]
    pub fn gauge_add(&mut self, id: GaugeId, delta: i64) {
        let g = &mut self.gauges[id.0 as usize].1;
        g.current += delta;
        g.peak = g.peak.max(g.current);
    }

    /// Current gauge value.
    #[inline]
    pub fn gauge_value(&self, id: GaugeId) -> i64 {
        self.gauges[id.0 as usize].1.current
    }

    /// Highest value the gauge has reached.
    #[inline]
    pub fn gauge_peak(&self, id: GaugeId) -> i64 {
        self.gauges[id.0 as usize].1.peak
    }

    /// Records one latency sample.
    #[inline]
    pub fn record_latency(&mut self, id: HistogramId, latency: Dur) {
        self.histograms[id.0 as usize].1.record(latency);
    }

    /// Read access to a histogram.
    pub fn histogram_ref(&self, id: HistogramId) -> &LatencyHistogram {
        &self.histograms[id.0 as usize].1
    }

    /// Replaces a hub histogram with a copy of a device-owned one —
    /// idempotent publication for `Device::publish_metrics` (re-recording
    /// the samples instead would double-count them on the next snapshot).
    ///
    /// Callers must sync each `id` from one device histogram that only
    /// ever grows (no reset, no second source). Equal sample counts then
    /// mean the hub's copy is current and the copy is skipped, so a
    /// sampler tick that republishes every device costs one compare per
    /// histogram. A debug build asserts that the hub never holds more
    /// samples than the source.
    pub fn histogram_sync(&mut self, id: HistogramId, source: &LatencyHistogram) {
        let (name, dst) = &mut self.histograms[id.0 as usize];
        debug_assert!(
            dst.count() <= source.count(),
            "histogram_sync: source of {name:?} shrank ({} < {})",
            source.count(),
            dst.count()
        );
        if dst.count() != source.count() {
            dst.clone_from(source);
        }
    }

    /// Records bytes moved at a simulated instant.
    #[inline]
    pub fn record_bytes(&mut self, id: MeterId, at: SimTime, bytes: u64) {
        self.meters[id.0 as usize].1.record(at, bytes);
    }

    /// Read access to a bandwidth meter.
    pub fn meter_ref(&self, id: MeterId) -> &BandwidthMeter {
        &self.meters[id.0 as usize].1
    }

    /// Replaces a hub meter with a copy of a device-owned one (idempotent
    /// publication, see [`MetricsHub::histogram_sync`]).
    pub fn meter_sync(&mut self, id: MeterId, source: BandwidthMeter) {
        self.meters[id.0 as usize].1 = source;
    }

    /// Number of registered metrics across all kinds.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True when no metric is registered.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Looks up a counter's value by name (for registers/tests).
    pub fn counter_by_name(&self, name: &str) -> Option<u64> {
        match self.index.get(name) {
            Some(Slot::Counter(i)) => Some(self.counters[*i as usize].1),
            _ => None,
        }
    }

    /// Iterates every registered gauge as `(name, current, peak)` in
    /// registration order. This is the [`crate::sampler::Sampler`]'s read
    /// path: it captures all gauge levels at one simulated instant without
    /// paying for a full name-sorted [`MetricsHub::snapshot`].
    pub fn gauges_iter(&self) -> impl Iterator<Item = (&str, i64, i64)> {
        self.gauges
            .iter()
            .map(|(name, g)| (name.as_str(), g.current, g.peak))
    }

    /// Takes a deterministic point-in-time snapshot, sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut entries: Vec<MetricEntry> = Vec::with_capacity(self.index.len());
        for (name, value) in &self.counters {
            entries.push(MetricEntry {
                name: name.clone(),
                value: MetricValue::Counter(*value),
            });
        }
        for (name, g) in &self.gauges {
            entries.push(MetricEntry {
                name: name.clone(),
                value: MetricValue::Gauge {
                    current: g.current,
                    peak: g.peak,
                },
            });
        }
        for (name, h) in &self.histograms {
            entries.push(MetricEntry {
                name: name.clone(),
                value: MetricValue::Histogram {
                    count: h.count(),
                    mean_ns: h.mean_ns(),
                    p50_ns: h.percentile_ns(0.50),
                    p99_ns: h.percentile_ns(0.99),
                    max_ns: h.stats().max().unwrap_or(0.0),
                },
            });
        }
        for (name, m) in &self.meters {
            entries.push(MetricEntry {
                name: name.clone(),
                value: MetricValue::Bandwidth {
                    bytes: m.bytes(),
                    bytes_per_sec: m.throughput(),
                },
            });
        }
        entries.sort_by(|a, b| a.name.cmp(&b.name));
        MetricsSnapshot { entries }
    }
}

/// One named metric inside a [`MetricsSnapshot`].
#[derive(Clone, Debug, PartialEq)]
pub struct MetricEntry {
    /// Hierarchical dot name, e.g. `link.0.fwd.credit_stall_ns`.
    pub name: String,
    /// The captured value.
    pub value: MetricValue,
}

/// Captured value of one metric.
#[derive(Clone, Debug, PartialEq)]
pub enum MetricValue {
    /// Monotonic event count.
    Counter(u64),
    /// Instantaneous level plus its high-water mark.
    Gauge {
        /// Value at snapshot time.
        current: i64,
        /// Highest value observed.
        peak: i64,
    },
    /// Latency distribution summary.
    Histogram {
        /// Number of samples.
        count: u64,
        /// Mean latency in nanoseconds.
        mean_ns: f64,
        /// Median bucket upper bound in nanoseconds.
        p50_ns: f64,
        /// 99th-percentile bucket upper bound in nanoseconds.
        p99_ns: f64,
        /// Largest sample in nanoseconds.
        max_ns: f64,
    },
    /// Byte volume and observed throughput.
    Bandwidth {
        /// Total bytes recorded.
        bytes: u64,
        /// Throughput over the observed window, bytes/second.
        bytes_per_sec: f64,
    },
}

/// Deterministic, name-sorted capture of every metric in a hub.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// All metrics, sorted by name.
    pub entries: Vec<MetricEntry>,
}

impl MetricsSnapshot {
    /// Looks up one metric by exact name.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.entries
            .binary_search_by(|e| e.name.as_str().cmp(name))
            .ok()
            .map(|i| &self.entries[i].value)
    }

    /// Counter value by name, when the metric is a counter.
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.get(name)? {
            MetricValue::Counter(v) => Some(*v),
            _ => None,
        }
    }

    /// Serializes the snapshot as a JSON object keyed by metric name.
    /// Byte-identical across runs that recorded identical values.
    pub fn to_json(&self) -> String {
        let mut root = JsonValue::object();
        for entry in &self.entries {
            let mut v = JsonValue::object();
            match &entry.value {
                MetricValue::Counter(c) => {
                    v.push("type", JsonValue::from("counter"));
                    v.push("value", JsonValue::from(*c));
                }
                MetricValue::Gauge { current, peak } => {
                    v.push("type", JsonValue::from("gauge"));
                    v.push("current", JsonValue::from(*current));
                    v.push("peak", JsonValue::from(*peak));
                }
                MetricValue::Histogram {
                    count,
                    mean_ns,
                    p50_ns,
                    p99_ns,
                    max_ns,
                } => {
                    v.push("type", JsonValue::from("histogram"));
                    v.push("count", JsonValue::from(*count));
                    v.push("mean_ns", JsonValue::from(*mean_ns));
                    v.push("p50_ns", JsonValue::from(*p50_ns));
                    v.push("p99_ns", JsonValue::from(*p99_ns));
                    v.push("max_ns", JsonValue::from(*max_ns));
                }
                MetricValue::Bandwidth {
                    bytes,
                    bytes_per_sec,
                } => {
                    v.push("type", JsonValue::from("bandwidth"));
                    v.push("bytes", JsonValue::from(*bytes));
                    v.push("bytes_per_sec", JsonValue::from(*bytes_per_sec));
                }
            }
            root.push(entry.name.clone(), v);
        }
        root.to_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_update_snapshot() {
        let mut hub = MetricsHub::new();
        let c = hub.counter("link.0.fwd.packets");
        let g = hub.gauge("link.0.fwd.queue_depth");
        let h = hub.histogram("dma.fetch_ns");
        let m = hub.meter("link.0.fwd.bytes");
        hub.inc(c);
        hub.add(c, 2);
        hub.gauge_add(g, 3);
        hub.gauge_add(g, -2);
        hub.record_latency(h, Dur::from_ns(100));
        hub.record_bytes(m, SimTime::ZERO, 500);
        hub.record_bytes(m, SimTime::from_ps(1_000_000), 500);

        assert_eq!(hub.counter_value(c), 3);
        assert_eq!(hub.gauge_value(g), 1);
        assert_eq!(hub.gauge_peak(g), 3);
        assert_eq!(hub.len(), 4);

        let snap = hub.snapshot();
        assert_eq!(snap.counter("link.0.fwd.packets"), Some(3));
        assert_eq!(
            snap.get("link.0.fwd.queue_depth"),
            Some(&MetricValue::Gauge {
                current: 1,
                peak: 3
            })
        );
        match snap.get("link.0.fwd.bytes") {
            Some(MetricValue::Bandwidth {
                bytes,
                bytes_per_sec,
            }) => {
                assert_eq!(*bytes, 1000);
                assert!((bytes_per_sec - 1e9).abs() < 1.0);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn sync_publication_is_idempotent() {
        // Devices mirror their internal collectors into the hub on every
        // snapshot; repeating the publication must not change the values.
        let mut hub = MetricsHub::new();
        let c = hub.counter("dev.relayed");
        let h = hub.histogram("dev.window_ns");
        let m = hub.meter("dev.bytes");
        let mut dev_hist = LatencyHistogram::new();
        dev_hist.record(Dur::from_ns(200));
        let mut dev_meter = BandwidthMeter::new();
        dev_meter.record(SimTime::ZERO, 100);
        for _ in 0..3 {
            hub.counter_sync(c, 42);
            hub.histogram_sync(h, &dev_hist);
            hub.meter_sync(m, dev_meter);
        }
        assert_eq!(hub.counter_value(c), 42);
        assert_eq!(hub.histogram_ref(h).count(), 1);
        assert_eq!(hub.meter_ref(m).bytes(), 100);
        // A stale total never winds a counter backwards.
        hub.counter_sync(c, 41);
        assert_eq!(hub.counter_value(c), 42);
    }

    #[test]
    fn histogram_sync_copies_only_when_samples_arrive() {
        let mut hub = MetricsHub::new();
        let h = hub.histogram("dev.wait_ns");
        let mut dev_hist = LatencyHistogram::new();
        dev_hist.record(Dur::from_ns(100));
        hub.histogram_sync(h, &dev_hist);
        let synced = hub.histogram_ref(h).to_string();
        assert_eq!(synced, dev_hist.to_string());
        // Nothing recorded since: the hub's copy stays as it was.
        hub.histogram_sync(h, &dev_hist);
        assert_eq!(hub.histogram_ref(h).to_string(), synced);
        // New samples: the next sync copies them all.
        dev_hist.record(Dur::from_ns(7));
        dev_hist.record(Dur::from_us(3));
        hub.histogram_sync(h, &dev_hist);
        let h_ref = hub.histogram_ref(h);
        assert_eq!(h_ref.count(), 3);
        assert_eq!(h_ref.to_string(), dev_hist.to_string());
        assert_eq!(h_ref.percentile_ns(0.5), dev_hist.percentile_ns(0.5));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "shrank")]
    fn histogram_sync_rejects_a_shrinking_source() {
        let mut hub = MetricsHub::new();
        let h = hub.histogram("dev.wait_ns");
        let mut dev_hist = LatencyHistogram::new();
        dev_hist.record(Dur::from_ns(100));
        hub.histogram_sync(h, &dev_hist);
        hub.histogram_sync(h, &LatencyHistogram::new());
    }

    #[test]
    fn reregistration_returns_same_handle() {
        let mut hub = MetricsHub::new();
        let a = hub.counter("x");
        let b = hub.counter("x");
        assert_eq!(a, b);
        assert_eq!(hub.len(), 1);
    }

    #[test]
    #[should_panic(expected = "another kind")]
    fn kind_conflict_panics() {
        let mut hub = MetricsHub::new();
        hub.counter("x");
        hub.gauge("x");
    }

    #[test]
    fn snapshot_is_sorted_and_json_deterministic() {
        let build = || {
            let mut hub = MetricsHub::new();
            // Register in non-alphabetical order.
            let b = hub.counter("b.count");
            let a = hub.counter("a.count");
            hub.inc(b);
            hub.add(a, 7);
            hub
        };
        let s1 = build().snapshot();
        let s2 = build().snapshot();
        assert_eq!(s1, s2);
        assert_eq!(s1.to_json(), s2.to_json());
        let names: Vec<_> = s1.entries.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["a.count", "b.count"]);
        // And the JSON parses back.
        let parsed = crate::json::JsonValue::parse(&s1.to_json()).expect("valid json");
        assert_eq!(
            parsed
                .get("a.count")
                .and_then(|v| v.get("value"))
                .and_then(|v| v.as_u64()),
            Some(7)
        );
    }
}

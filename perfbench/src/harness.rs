//! The closed-loop driver shared by every workload: repeated set-up, the
//! timed loop over whole passes of the op list, the correctness gate and
//! the metric summary.

use crate::calib;
use crate::layers::{self, Layers};
use crate::stats::{self, Fnv};
use crate::trace::{Totals, Tracer};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::panic::{self, AssertUnwindSafe};
use std::time::{Duration, Instant};
use tca_pcie::{Dir, Fabric, LinkId};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 7;

/// Host time between two rounds of the host-speed reference: a round
/// follows the first op that ends this long after the previous round.
pub const REF_INTERVAL: Duration = Duration::from_millis(20);

/// Host time of each op of one plain pass and of the end-of-pass work,
/// with the reference rounds measured between ops.
struct Pass {
    op_ms: Vec<f64>,
    /// Index into `ref_ns` of the round that followed each op.
    op_ref: Vec<usize>,
    end_ms: f64,
    ref_ns: Vec<u64>,
}

impl Pass {
    /// Op times in reference milliseconds (see [`calib::scale`]).
    fn scaled_op_ms(&self) -> impl Iterator<Item = f64> + '_ {
        self.op_ms
            .iter()
            .zip(&self.op_ref)
            .map(|(ms, &r)| ms * calib::scale(self.ref_ns[r]))
    }

    /// The whole pass in reference milliseconds.
    fn scaled_ms(&self) -> f64 {
        let last = *self.ref_ns.last().expect("a round follows the last op");
        self.scaled_op_ms().sum::<f64>() + self.end_ms * calib::scale(last)
    }
}

/// One workload: a fixed op list run over and over by a single client.
pub trait Workload {
    /// Builds every world, allocates buffers and runs static analysis.
    fn setup(&mut self, tr: &mut Tracer) -> Result<(), String>;
    /// Runs the warm-up ops (part of set-up).
    fn warmup(&mut self, tr: &mut Tracer) -> Result<(), String>;
    /// Ops in one pass.
    fn len(&self) -> usize;
    /// Runs op `i` of the pass. `exec` numbers executions across the run
    /// (payload bytes change with it). The op folds its simulated
    /// completion into `digest`; `Err` means its output was wrong.
    fn run(&mut self, i: usize, exec: u64, tr: &mut Tracer, digest: &mut Fnv)
        -> Result<(), String>;
    /// End-of-pass work: observability exports, rebuilding worlds.
    /// Default: nothing.
    fn end_pass(&mut self, _tr: &mut Tracer) -> Result<(), String> {
        Ok(())
    }
    /// Simulated counters summed over every world.
    fn counters(&mut self) -> Counters;
    /// Largest relative error (%) against the paper anchors, from the
    /// anchor ops of the first timed pass.
    fn paper_err_pct(&self) -> f64;
    /// Per-layer figures only this workload can produce (run after the
    /// timed loop, in traced runs only). Default: nothing.
    fn extra_layers(&mut self, _out: &mut Layers) {}
}

/// Simulated and host-side counters summed over a workload's fabrics.
/// Everything here is exact: identical code and seed give identical
/// values.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    /// Events executed.
    pub events: u64,
    /// Queue pushes.
    pub pushes: u64,
    /// Timing-wheel cascades.
    pub cascades: u64,
    /// Peak pending queue depth (a high-water mark, not a sum: max).
    pub peak_pending: u64,
    /// Deliver events.
    pub deliver: u64,
    /// Timer events.
    pub timer: u64,
    /// Credit-return events.
    pub credit_return: u64,
    /// TLP wire reservations.
    pub tlp_transmits: u64,
    /// Simulated credit-stall time over all links, ps.
    pub credit_stall_ps: u64,
    /// PEACH2 descriptors fetched.
    pub desc_fetches: u64,
    /// PEACH2 DMA runs.
    pub dma_runs: u64,
    /// MPI eager sends.
    pub eager_sends: u64,
    /// MPI rendezvous sends.
    pub rndv_sends: u64,
    /// Simulator spans recorded.
    pub span_count: u64,
    /// Flight-recorder events recorded.
    pub flight_records: u64,
    /// Sampler captures.
    pub sampler_captures: u64,
}

impl Counters {
    /// Adds the engine, fabric, link and probe counters of `f`.
    pub fn add_fabric(&mut self, f: &Fabric) {
        let q = f.queue_prof();
        let p = f.prof();
        self.events += f.events_executed();
        self.pushes += q.pushes;
        self.cascades += q.cascades;
        self.peak_pending = self.peak_pending.max(q.peak_pending);
        self.deliver += p.deliver_events;
        self.timer += p.timer_events;
        self.credit_return += p.credit_return_events;
        self.tlp_transmits += p.tlp_transmits;
        for i in 0..f.link_count() {
            for dir in [Dir::Fwd, Dir::Rev] {
                self.credit_stall_ps += f.link_stats(LinkId(i as u32), dir).credit_stall.as_ps();
            }
        }
        self.span_count += f.spans().len() as u64;
        self.flight_records += f.flight().map_or(0, |fl| fl.recorded());
        self.sampler_captures += f.sampler().map_or(0, |s| s.captures() as u64);
    }

    /// Adds the fabric counters of a TCA cluster plus its boards' DMA
    /// run and descriptor counts.
    pub fn add_tca(&mut self, c: &tca_core::TcaCluster) {
        self.add_fabric(&c.fabric);
        for &chip in &c.sub.chips {
            let runs = &c.fabric.device::<tca_peach2::Peach2>(chip).runs;
            for r in runs.iter().filter(|r| r.complete.is_some()) {
                self.dma_runs += 1;
                self.desc_fetches += u64::from(r.descriptors);
            }
        }
    }

    /// Adds the fabric counters of an MPI world plus its protocol
    /// counters.
    pub fn add_mpi(&mut self, m: &tca_core::MpiBackend) {
        self.add_fabric(&m.fabric);
        let hub = m.fabric.metrics();
        self.eager_sends += hub.counter_by_name("mpi.eager_sends").unwrap_or(0);
        self.rndv_sends += hub.counter_by_name("mpi.rndv_sends").unwrap_or(0);
    }

    /// Adds `o` field by field (the peak takes the larger value) — how a
    /// workload banks the counters of a world it is about to rebuild.
    pub fn absorb(&mut self, o: &Counters) {
        let peak = self.peak_pending.max(o.peak_pending);
        let mut o = *o;
        for (a, b) in self.fields().into_iter().zip(o.fields()) {
            *a += *b;
        }
        self.peak_pending = peak;
    }

    /// Increments since `earlier`; the peak keeps its later value.
    pub fn since(&self, earlier: &Counters) -> Counters {
        let (mut out, mut e) = (*self, *earlier);
        for (a, b) in out.fields().into_iter().zip(e.fields()) {
            *a -= *b;
        }
        out
    }

    /// Folds every field into `d`.
    pub fn fold(&self, d: &mut Fnv) {
        let mut c = *self;
        d.u64(c.peak_pending);
        for v in c.fields() {
            d.u64(*v);
        }
    }

    /// Every summable field (all but the peak).
    fn fields(&mut self) -> [&mut u64; 15] {
        [
            &mut self.events,
            &mut self.pushes,
            &mut self.cascades,
            &mut self.deliver,
            &mut self.timer,
            &mut self.credit_return,
            &mut self.tlp_transmits,
            &mut self.credit_stall_ps,
            &mut self.desc_fetches,
            &mut self.dma_runs,
            &mut self.eager_sends,
            &mut self.rndv_sends,
            &mut self.span_count,
            &mut self.flight_records,
            &mut self.sampler_captures,
        ]
    }
}

/// What one run produced.
pub struct Outcome {
    /// Ops attempted in the timed loop.
    pub attempted: u64,
    /// Ops that failed (wrong bytes, panic, config error, watchdog).
    pub failed: u64,
    /// First few failure messages.
    pub failures: Vec<String>,
    /// Digest of the first pass (completion times + counters).
    pub digest: u64,
    /// Metric name → (value, unit), in print order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Human-readable notes printed before the result line.
    pub notes: Vec<String>,
}

thread_local! {
    static PANIC_MSG: RefCell<Option<String>> = const { RefCell::new(None) };
}

/// Installs a panic hook that records the message instead of printing
/// it, so a panicking op is counted with its message and the run goes on.
pub fn install_panic_hook() {
    panic::set_hook(Box::new(|info| {
        let msg = if let Some(s) = info.payload().downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = info.payload().downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic".to_string()
        };
        let at = info
            .location()
            .map(|l| format!(" at {}:{}", l.file(), l.line()))
            .unwrap_or_default();
        PANIC_MSG.with(|m| *m.borrow_mut() = Some(format!("panic: {msg}{at}")));
    }));
}

/// Runs `f`, turning a panic into `Err(message)`.
pub fn guarded<R>(f: impl FnOnce() -> Result<R, String>) -> Result<R, String> {
    match panic::catch_unwind(AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(_) => Err(PANIC_MSG
            .with(|m| m.borrow_mut().take())
            .unwrap_or_else(|| "panic".into())),
    }
}

/// Run parameters.
pub struct Params {
    /// Seconds the timed loop runs for (at least; it ends on a pass
    /// boundary).
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

/// Sets the workload up [`SETUP_REPS`] times (keeping the last), runs the
/// timed loop and summarizes it.
pub fn run(make: &dyn Fn() -> Box<dyn Workload>, p: &Params) -> Outcome {
    let mut tr = Tracer::default();
    tr.set_enabled(p.trace);
    let mut failures = Vec::new();
    let (mut setup_s, mut setup_raw_s) = (Vec::new(), Vec::new());
    let mut w = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let mut fresh = make();
        if let Err(e) = guarded(|| fresh.setup(&mut tr)) {
            failures.push(format!("set-up: {e}"));
        } else if let Err(e) = guarded(|| fresh.warmup(&mut tr)) {
            failures.push(format!("warm-up: {e}"));
        }
        let raw = t.elapsed().as_secs_f64();
        setup_raw_s.push(raw);
        setup_s.push(raw * calib::scale(calib::reference_ns()));
        w = Some(fresh);
    }
    let mut w = w.expect("at least one set-up");
    let setup_totals = tr.totals();
    tr.clear();

    // Timed loop. Pass 0 is always plain and feeds the digest; in a traced
    // run odd passes are traced and even ones plain, so the tracing
    // overhead is measured on the same work.
    let min_passes = if p.trace { 3 } else { 1 };
    let (mut plain, mut traced_passes): (Vec<Pass>, Vec<Pass>) = (Vec::new(), Vec::new());
    let mut traced_totals: BTreeMap<&'static str, Totals> = BTreeMap::new();
    let (mut attempted, mut failed, mut exec) = (0u64, 0u64, 0u64);
    let mut digest = Fnv::default();
    let mut counters_first = None;
    let mut counters_pass0 = Counters::default();
    let mut passes = 0usize;
    let start = Instant::now();
    loop {
        let traced = p.trace && passes % 2 == 1;
        tr.set_enabled(traced);
        if passes == 0 || p.trace {
            let c = w.counters();
            counters_first.get_or_insert(c);
            if passes == 0 {
                counters_pass0 = c;
            }
        }
        let (mut ref_ns, mut op_ref) = (Vec::new(), Vec::with_capacity(w.len()));
        let mut since_ref = Instant::now();
        let mut op_ms = Vec::with_capacity(w.len());
        let mut scratch = Fnv::default();
        for i in 0..w.len() {
            tr.set_op(i as u32);
            let d = if passes == 0 {
                &mut digest
            } else {
                &mut scratch
            };
            let t = Instant::now();
            let r = guarded(|| w.run(i, exec, &mut tr, d));
            op_ms.push(t.elapsed().as_secs_f64() * 1e3);
            op_ref.push(ref_ns.len());
            if since_ref.elapsed() >= REF_INTERVAL || i + 1 == w.len() {
                ref_ns.push(calib::reference_ns());
                since_ref = Instant::now();
            }
            attempted += 1;
            exec += 1;
            if let Err(e) = r {
                failed += 1;
                if failures.len() < 8 {
                    failures.push(format!("op {i} (pass {passes}): {e}"));
                }
            }
        }
        let end_t = Instant::now();
        if let Err(e) = guarded(|| w.end_pass(&mut tr)) {
            failed += 1;
            failures.push(format!("end of pass {passes}: {e}"));
        }
        let end_ms = end_t.elapsed().as_secs_f64() * 1e3;
        let pass = Pass {
            op_ms,
            op_ref,
            end_ms,
            ref_ns,
        };
        if passes == 0 {
            w.counters().since(&counters_pass0).fold(&mut digest);
        }
        if traced {
            traced_passes.push(pass);
            for (name, t) in tr.totals() {
                let acc = traced_totals.entry(name).or_default();
                acc.count += t.count;
                acc.total_ns += t.total_ns;
                acc.self_ns += t.self_ns;
                acc.events += t.events;
            }
            tr.clear();
        } else if passes > 0 || !p.trace {
            plain.push(pass);
        }
        passes += 1;
        if passes >= min_passes && start.elapsed().as_secs_f64() >= p.seconds {
            break;
        }
    }

    let mut notes = Vec::new();
    let metrics = if p.trace {
        let counters = w.counters().since(&counters_first.unwrap_or_default());
        let mut out = Layers::default();
        layers::from_setup(&mut out, &setup_totals, SETUP_REPS);
        layers::from_spans(&mut out, &traced_totals, traced_passes.len());
        layers::from_counters(&mut out, &counters, passes);
        let scaled = |ps: &[Pass]| ps.iter().map(Pass::scaled_ms).collect::<Vec<_>>();
        let overhead = match (
            stats::median(&scaled(&traced_passes)),
            stats::median(&scaled(&plain)),
        ) {
            (Some(t), Some(p)) if p > 0.0 => 100.0 * (t - p) / p,
            _ => 0.0,
        };
        out.set("bench.trace_overhead_pct", overhead);
        w.extra_layers(&mut out);
        notes.push(format!(
            "passes {passes} ({} traced), tracing overhead {overhead:.2} %",
            traced_passes.len()
        ));
        out.into_metrics()
    } else {
        let op_ms: Vec<f64> = plain.iter().flat_map(Pass::scaled_op_ms).collect();
        let total_s: f64 = plain.iter().map(Pass::scaled_ms).sum::<f64>() / 1e3;
        let raw_ms: Vec<f64> = plain.iter().flat_map(|p| p.op_ms.iter().copied()).collect();
        let raw_s: f64 = plain
            .iter()
            .map(|p| p.op_ms.iter().sum::<f64>() + p.end_ms)
            .sum::<f64>()
            / 1e3;
        let refs: Vec<f64> = plain
            .iter()
            .flat_map(|p| p.ref_ns.iter().map(|&r| r as f64 / 1e6))
            .collect();
        let tail = stats::p99_tail(&op_ms).expect("at least one op");
        notes.push(format!(
            "op_ms_p99 over {} samples, {} beyond{}",
            tail.samples,
            tail.beyond,
            if tail.trusted() {
                ""
            } else {
                " (fewer than 10: the tail figure is not trustworthy)"
            }
        ));
        notes.push(format!(
            "passes {passes} of {} ops; fail_frac {}",
            w.len(),
            failed as f64 / attempted as f64
        ));
        notes.push(format!(
            "reference round median {:.4} ms (nominal {:.4} ms); unscaled: setup_s {:.6} ops_per_s {:.4} op_ms_p50 {:.6} op_ms_p99 {:.6}",
            stats::median(&refs).unwrap_or(0.0),
            calib::NOMINAL_NS as f64 / 1e6,
            stats::median(&setup_raw_s).unwrap_or(0.0),
            raw_ms.len() as f64 / raw_s,
            stats::median(&raw_ms).unwrap_or(0.0),
            stats::p99(&raw_ms).unwrap_or(0.0),
        ));
        vec![
            (
                "setup_s".into(),
                stats::median(&setup_s).expect("set-ups ran"),
                "s",
            ),
            ("ops_per_s".into(), op_ms.len() as f64 / total_s, "1/s"),
            (
                "op_ms_p50".into(),
                stats::median(&op_ms).expect("ops ran"),
                "ms",
            ),
            ("op_ms_p99".into(), tail.value, "ms"),
            ("peak_rss_mb".into(), crate::sys::peak_rss_mb(), "MiB"),
            (
                "ok_pct".into(),
                100.0 * (attempted - failed) as f64 / attempted as f64,
                "%",
            ),
            ("paper_err_pct".into(), w.paper_err_pct(), "%"),
        ]
    };
    Outcome {
        attempted,
        failed,
        failures,
        digest: digest.finish(),
        metrics,
        notes,
    }
}

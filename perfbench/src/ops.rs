//! Building blocks shared by the workloads: a traced chained-DMA run on
//! the production drain path, the health gate, and the paper anchors.

use crate::trace::Tracer;
use tca_core::TcaCluster;
use tca_device::HostBridge;
use tca_pcie::Fabric;
use tca_peach2::{Descriptor, EngineKind, Peach2};
use tca_sim::SimTime;

/// PIO one-way latency through two boards and one cable, ns (Fig. 10).
pub const PIO_ONEWAY_NS: f64 = 782.0;
/// GPU-read bandwidth ceiling, bytes/s (§IV-A).
pub const GPU_READ_BPS: f64 = 830e6;
/// Chained (255 × 4 KiB) DMA write to CPU, bytes/s: midpoint of the
/// paper's 3.3–3.4 GB/s.
pub const CPU_WRITE_4K_BPS: f64 = 3.35e9;
/// Four chained 4 KiB requests as a share of the 255-request maximum.
pub const FOUR_REQ_SHARE: f64 = 0.70;

/// Relative error of `measured` against `anchor`, in percent.
pub fn err_pct(measured: f64, anchor: f64) -> f64 {
    100.0 * (measured - anchor).abs() / anchor
}

/// A simulated world with one fabric.
pub trait HasFabric {
    /// The world's fabric.
    fn fabric(&self) -> &Fabric;
}

impl HasFabric for TcaCluster {
    fn fabric(&self) -> &Fabric {
        &self.fabric
    }
}

impl HasFabric for tca_core::MpiBackend {
    fn fabric(&self) -> &Fabric {
        &self.fabric
    }
}

/// Runs `f` on `w` inside a span named `name` that records how many
/// simulation events `f` executed.
pub fn event_span<W: HasFabric, R>(
    tr: &mut Tracer,
    name: &'static str,
    w: &mut W,
    f: impl FnOnce(&mut W) -> R,
) -> R {
    let open = tr.enter(name);
    let e0 = w.fabric().events_executed();
    let r = f(w);
    tr.exit(open, w.fabric().events_executed() - e0);
    r
}

/// Outcome of one chained-DMA run.
#[derive(Clone, Copy, Debug)]
pub struct ChainRun {
    /// Doorbell instant.
    pub start: SimTime,
    /// Completion-interrupt handler entry.
    pub done: SimTime,
    /// Events the drain executed.
    pub events: u64,
}

impl ChainRun {
    /// Bytes per simulated second over the doorbell → interrupt window
    /// (the paper's §IV-A methodology).
    pub fn bandwidth(&self, bytes: u64) -> f64 {
        bytes as f64 / (self.done.since(self.start).as_ns_f64() * 1e-9)
    }
}

/// Runs `descs` as one chain on `node`'s board: table write and register
/// programming (`peach2.issue`), then a full drain (`pcie.drain`), then
/// checks that exactly one completion interrupt arrived.
pub fn chain(
    c: &mut TcaCluster,
    node: u32,
    descs: &[Descriptor],
    engine: EngineKind,
    tr: &mut Tracer,
) -> Result<ChainRun, String> {
    let drv = c.drivers[node as usize];
    let open = tr.enter("peach2.issue");
    let vector = c.fabric.device::<Peach2>(drv.chip).params().dma_msi_vector;
    drv.write_descriptors(&mut c.fabric, descs);
    drv.program_dma(&mut c.fabric, descs.len() as u32, engine);
    let before = c
        .fabric
        .device::<HostBridge>(drv.host)
        .core()
        .interrupts()
        .len();
    let start = drv.ring_doorbell(&mut c.fabric);
    tr.exit(open, 0);
    let e0 = c.fabric.events_executed();
    event_span(tr, "pcie.drain", c, TcaCluster::synchronize);
    let events = c.fabric.events_executed() - e0;
    let irqs = &c.fabric.device::<HostBridge>(drv.host).core().interrupts()[before..];
    let mut done = irqs.iter().filter(|i| i.2 == vector);
    match (done.next(), done.next()) {
        (Some(&(_, entry, _)), None) => Ok(ChainRun {
            start,
            done: entry,
            events,
        }),
        (None, _) => Err("DMA completion interrupt did not arrive".into()),
        _ => Err("more than one DMA completion interrupt".into()),
    }
}

/// Fails an op that left new typed config errors or a fired watchdog
/// behind on `f`. `seen` carries the config-error count across ops.
pub fn health(f: &Fabric, seen: &mut usize) -> Result<(), String> {
    let errs = f.config_errors();
    if errs.len() > *seen {
        let first = format!("{:?}", errs[*seen]);
        *seen = errs.len();
        return Err(format!("config error: {first}"));
    }
    if let Some(stall) = f.stall_report() {
        return Err(format!("watchdog fired: {stall:?}"));
    }
    Ok(())
}

/// Compares read-back bytes with the bytes that were sent.
pub fn same_bytes(what: &str, got: &[u8], want: &[u8]) -> Result<(), String> {
    if got == want {
        return Ok(());
    }
    let at = got.iter().zip(want).position(|(a, b)| a != b);
    Err(format!(
        "{what}: read-back differs ({} of {} bytes, first at {at:?})",
        got.len(),
        want.len()
    ))
}

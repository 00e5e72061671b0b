//! `bulk-dma` and `observed`: seeded chained-DMA puts on a 2-node ring —
//! the Fig. 7/8/9/12 regime — plus the same traffic with every simulator
//! probe switched on.

use crate::gen::{self, Payload, Rng};
use crate::harness::{Counters, Workload};
use crate::layers::Layers;
use crate::ops::{self, ChainRun};
use crate::stats::Fnv;
use crate::trace::Tracer;
use tca_core::{GpuAlloc, MemRef, TcaCluster, TcaClusterBuilder};
use tca_peach2::{Descriptor, EngineKind, Peach2};
use tca_sim::Dur;

/// Bytes one op moves at most (descriptor size × chain length).
pub const MAX_OP_BYTES: u64 = 2 << 20;
/// Host DRAM buffer used as the CPU-side endpoint.
const HOST_BUF: u64 = 0x4000_0000;
/// `bulk-dma` passes hold `BULK_GRID²` generated ops.
const BULK_GRID: usize = 20;
/// `observed` passes hold `OBSERVED_GRID²` generated ops.
const OBSERVED_GRID: usize = 14;
/// `observed` draws from the same generator with shorter transfers —
/// every probe multiplies the cost of an event, and a run still needs
/// enough ops for a trustworthy tail.
const OBSERVED_SHAPE: Shape = Shape {
    max_size: 64 << 10,
    max_bytes: 256 << 10,
};
/// `bulk-dma`'s transfer shape.
const BULK_SHAPE: Shape = Shape {
    max_size: 1 << 20,
    max_bytes: MAX_OP_BYTES,
};
/// Sampling period of the `observed` gauge sampler (simulated).
const SAMPLE_PERIOD: Dur = Dur::from_ns(1000);
/// Flight-ring capacity of `observed`.
const FLIGHT_RING: usize = 4096;
/// No-progress window of the `observed` watchdog (simulated). Progress
/// means a DRAM commit or an interrupt, and a DMA read into the chip's
/// own memory makes neither until its completion interrupt, so the window
/// must outlast the longest such op (2 MiB at the 830 MB/s GPU-read
/// ceiling is 2.5 ms).
const WATCHDOG: Dur = Dur::from_us(10_000);

/// Where a chained DMA moves data, from the PEACH2 chip's viewpoint
/// (§IV-A: a *write* goes from the chip's memory to CPU/GPU).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Chip → local host DRAM.
    CpuWrite,
    /// Local host DRAM → chip.
    CpuRead,
    /// Chip → local GPU.
    GpuWrite,
    /// Local GPU → chip.
    GpuRead,
    /// Chip → adjacent node's host DRAM, through the cable.
    RemoteCpuWrite,
    /// Chip → adjacent node's GPU, through the cable.
    RemoteGpuWrite,
}

const KINDS: [Kind; 6] = [
    Kind::CpuWrite,
    Kind::CpuRead,
    Kind::GpuWrite,
    Kind::GpuRead,
    Kind::RemoteCpuWrite,
    Kind::RemoteGpuWrite,
];

/// One chained-DMA op: `count` descriptors of `size` bytes each.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DmaOp {
    /// Direction and target.
    pub kind: Kind,
    /// Bytes per descriptor.
    pub size: u64,
    /// Descriptors in the chain (1..=255).
    pub count: u64,
}

impl DmaOp {
    /// Total bytes moved.
    pub fn bytes(&self) -> u64 {
        self.size * self.count
    }
}

/// The paper-anchor ops every pass starts with: the 255 × 4 KiB chained
/// CPU write (3.3–3.4 GB/s), four chained 4 KiB writes (≈70 % of it) and
/// a 1 MiB GPU read (the 830 MB/s ceiling).
pub const ANCHORS: [DmaOp; 3] = [
    DmaOp {
        kind: Kind::CpuWrite,
        size: 4096,
        count: 255,
    },
    DmaOp {
        kind: Kind::CpuWrite,
        size: 4096,
        count: 4,
    },
    DmaOp {
        kind: Kind::GpuRead,
        size: 1 << 20,
        count: 1,
    },
];

/// Bounds of a generated op list.
#[derive(Clone, Copy)]
pub struct Shape {
    /// Largest descriptor size.
    pub max_size: u64,
    /// Most bytes one op moves.
    pub max_bytes: u64,
}

/// `k²` seeded ops: descriptor sizes log-uniform over 64 B – `max_size`
/// and chain lengths log-uniform over 1–255 (capped so an op moves at
/// most `max_bytes`), drawn jointly from a `k × k` grid. Kinds are dealt
/// out in shuffled rounds of six along the ops sorted by bytes, so every
/// kind sees nearly the same size mix.
pub fn generate(seed: u64, stream: u64, k: usize, shape: Shape) -> Vec<DmaOp> {
    let mut r = Rng::new(seed, stream);
    let mut ops: Vec<DmaOp> = r
        .grid(k)
        .into_iter()
        .map(|(a, b)| {
            let size = gen::log_scale(a, 64, shape.max_size) & !7;
            DmaOp {
                kind: Kind::CpuWrite,
                size,
                count: gen::log_scale(b, 1, 255).min(shape.max_bytes / size),
            }
        })
        .collect();
    ops.sort_by_key(DmaOp::bytes);
    for round in ops.chunks_mut(KINDS.len()) {
        let mut kinds = KINDS;
        r.shuffle(&mut kinds);
        for (op, kind) in round.iter_mut().zip(kinds) {
            op.kind = kind;
        }
    }
    r.shuffle(&mut ops);
    ops
}

/// The warm-up list: one largest op of every kind first, so set-up
/// touches the whole memory footprint the same way under every seed, then
/// a quarter-pass of seeded ops.
fn warmup_ops(seed: u64, grid: usize, shape: Shape) -> Vec<DmaOp> {
    let size = shape.max_size.min(shape.max_bytes);
    let mut ops: Vec<DmaOp> = KINDS
        .iter()
        .map(|&kind| DmaOp {
            kind,
            size,
            count: shape.max_bytes / size,
        })
        .collect();
    ops.extend(generate(seed, 2, grid / 2, shape));
    ops
}

/// GPU buffers of a cluster's DMA endpoints.
#[derive(Clone, Copy)]
pub struct Gpus {
    /// Node 0, GPU0.
    pub local: GpuAlloc,
    /// Node 1, GPU0.
    pub remote: GpuAlloc,
}

/// Allocates the [`Gpus`] of a ≥2-node cluster.
pub fn alloc_gpus(c: &mut TcaCluster, tr: &mut Tracer) -> Gpus {
    tr.scope("device.alloc", || Gpus {
        local: c.alloc_gpu(0, 0, MAX_OP_BYTES),
        remote: c.alloc_gpu(1, 0, MAX_OP_BYTES),
    })
}

/// Runs `op` from node 0's board: stages `data` into the source, runs
/// the chain on the production drain path, reads the destination back
/// and compares it byte for byte.
pub fn exec_dma(
    c: &mut TcaCluster,
    gpus: &Gpus,
    op: &DmaOp,
    data: &[u8],
    tr: &mut Tracer,
) -> Result<ChainRun, String> {
    let drv = c.drivers[0];
    let chip = c.sub.chips[0];
    let len = op.bytes();
    let target = match op.kind {
        Kind::CpuWrite | Kind::CpuRead => MemRef::host(0, HOST_BUF),
        Kind::GpuWrite | Kind::GpuRead => gpus.local.at(0),
        Kind::RemoteCpuWrite => MemRef::host(1, HOST_BUF),
        Kind::RemoteGpuWrite => gpus.remote.at(0),
    };
    let target_addr = match op.kind {
        Kind::CpuWrite | Kind::CpuRead => HOST_BUF,
        Kind::GpuWrite | Kind::GpuRead => gpus.local.pcie_addr,
        Kind::RemoteCpuWrite | Kind::RemoteGpuWrite => c.global_addr(&target),
    };
    let write = !matches!(op.kind, Kind::CpuRead | Kind::GpuRead);
    tr.scope("device.write", || {
        if write {
            c.fabric
                .device_mut::<Peach2>(chip)
                .sram_mut()
                .write(0, data);
        } else {
            c.write(&target, data);
        }
    });
    let descs: Vec<Descriptor> = (0..op.count)
        .map(|i| {
            let (sram, other) = (drv.sram_addr(i * op.size), target_addr + i * op.size);
            if write {
                Descriptor::new(sram, other, op.size)
            } else {
                Descriptor::new(other, sram, op.size)
            }
        })
        .collect();
    let run = ops::chain(c, 0, &descs, EngineKind::Legacy, tr)?;
    tr.scope("device.read", || {
        let got = if write {
            c.read(&target, len as usize)
        } else {
            c.fabric.device::<Peach2>(chip).sram().read(0, len as usize)
        };
        ops::same_bytes("dma", &got, data)
    })?;
    Ok(run)
}

/// Largest anchor error over measured anchor bandwidths (in [`ANCHORS`]
/// order); `None` entries are skipped.
pub fn anchor_err(bw: &[Option<f64>]) -> f64 {
    let mut err: f64 = 0.0;
    if let Some(full) = bw[0] {
        err = err.max(ops::err_pct(full, ops::CPU_WRITE_4K_BPS));
        if let Some(four) = bw.get(1).copied().flatten() {
            err = err.max(ops::err_pct(four / full, ops::FOUR_REQ_SHARE));
        }
    }
    if let Some(gpu) = bw.get(2).copied().flatten() {
        err = err.max(ops::err_pct(gpu, ops::GPU_READ_BPS));
    }
    err
}

/// The `bulk-dma` workload, or `observed` when `probes` is set.
pub struct Bulk {
    ops: Vec<DmaOp>,
    warm: Vec<DmaOp>,
    payload: Payload,
    probes: bool,
    world: Option<(TcaCluster, Gpus)>,
    config_errors: usize,
    anchor_bw: [Option<f64>; 3],
    /// Counters of the worlds rebuilt at earlier pass ends.
    banked: Counters,
    seed: u64,
    grid: usize,
    shape: Shape,
}

impl Bulk {
    /// `bulk-dma` for `seed`.
    pub fn dma(seed: u64) -> Bulk {
        Bulk::new(seed, false, BULK_GRID, BULK_SHAPE)
    }

    /// `observed` for `seed`: the bulk generator, a shorter pass, every
    /// probe on.
    pub fn observed(seed: u64) -> Bulk {
        Bulk::new(seed, true, OBSERVED_GRID, OBSERVED_SHAPE)
    }

    fn new(seed: u64, probes: bool, grid: usize, shape: Shape) -> Bulk {
        let mut ops = ANCHORS.to_vec();
        ops.extend(generate(seed, 1, grid, shape));
        Bulk {
            ops,
            warm: warmup_ops(seed, grid, shape),
            payload: Payload::new(seed, 2 * MAX_OP_BYTES as usize),
            probes,
            world: None,
            config_errors: 0,
            anchor_bw: [None; 3],
            banked: Counters::default(),
            seed,
            grid,
            shape,
        }
    }

    fn exec(&mut self, op: &DmaOp, exec: u64, tr: &mut Tracer) -> Result<ChainRun, String> {
        let (c, gpus) = self.world.as_mut().ok_or("not set up")?;
        let data = self.payload.window(exec, op.bytes() as usize);
        let run = exec_dma(c, gpus, op, data, tr)?;
        ops::health(&c.fabric, &mut self.config_errors)?;
        Ok(run)
    }
}

impl Workload for Bulk {
    fn setup(&mut self, tr: &mut Tracer) -> Result<(), String> {
        let mut c = tr.scope("core.build", || TcaClusterBuilder::new(2).build());
        if self.probes {
            c.set_span_tracing(true);
            c.enable_sampling(SAMPLE_PERIOD);
            c.enable_flight(FLIGHT_RING, false);
            c.arm_watchdog(WATCHDOG);
        }
        let gpus = alloc_gpus(&mut c, tr);
        self.world = Some((c, gpus));
        Ok(())
    }

    fn warmup(&mut self, tr: &mut Tracer) -> Result<(), String> {
        let warm = std::mem::take(&mut self.warm);
        let r = warm
            .iter()
            .enumerate()
            .try_for_each(|(i, op)| self.exec(op, i as u64, tr).map(drop));
        self.warm = warm;
        r
    }

    fn len(&self) -> usize {
        self.ops.len()
    }

    fn run(
        &mut self,
        i: usize,
        exec: u64,
        tr: &mut Tracer,
        digest: &mut Fnv,
    ) -> Result<(), String> {
        let op = self.ops[i];
        let run = self.exec(&op, exec, tr)?;
        if i < ANCHORS.len() && self.anchor_bw[i].is_none() {
            self.anchor_bw[i] = Some(run.bandwidth(op.bytes()));
        }
        for v in [i as u64, run.start.as_ps(), run.done.as_ps(), run.events] {
            digest.u64(v);
        }
        Ok(())
    }

    fn end_pass(&mut self, tr: &mut Tracer) -> Result<(), String> {
        if self.probes {
            let (c, _) = self.world.as_mut().ok_or("not set up")?;
            let (flight, health) =
                tr.scope("sim.export", || (c.flight_jsonl(), c.health_report_json()));
            let flight = flight.ok_or("flight recorder is off")?;
            if flight.lines().count() < 2 || !health.starts_with('{') {
                return Err("empty flight or health export".into());
            }
        }
        // Every pass is one job on a fresh cluster, so host-side history
        // (interrupt logs, span and sampler stores) stays bounded however
        // long the run is.
        self.banked = self.counters();
        self.config_errors = 0;
        self.world = None;
        self.setup(tr)
    }

    fn counters(&mut self) -> Counters {
        let mut out = self.banked;
        if let Some((c, _)) = self.world.as_mut() {
            let mut live = Counters::default();
            live.add_tca(c);
            out.absorb(&live);
        }
        out
    }

    fn paper_err_pct(&self) -> f64 {
        anchor_err(&self.anchor_bw)
    }

    fn extra_layers(&mut self, out: &mut Layers) {
        if !self.probes {
            return;
        }
        // The probe cost: the same pass on a twin cluster with every
        // probe off, against the probed figure of the traced passes.
        let mut bare = Bulk::new(self.seed, false, self.grid, self.shape);
        let mut tr = Tracer::default();
        if bare
            .setup(&mut tr)
            .and_then(|()| bare.warmup(&mut tr))
            .is_err()
        {
            return;
        }
        tr.set_enabled(true);
        let mut scratch = Fnv::default();
        for i in 0..bare.len() {
            if bare.run(i, i as u64, &mut tr, &mut scratch).is_err() {
                return;
            }
        }
        let drain = tr.totals().get("pcie.drain").copied().unwrap_or_default();
        if drain.events > 0 {
            let bare_ns = drain.self_ns as f64 / drain.events as f64;
            out.set(
                "sim.probe_ns_per_event",
                out.get("sim.ns_per_event") - bare_ns,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{self, Params, Workload};

    const TINY: Shape = Shape {
        max_size: 4096,
        max_bytes: 16 << 10,
    };

    fn digest(seed: u64, trace: bool) -> (u64, u64) {
        let o = harness::run(
            &|| Box::new(Bulk::new(seed, false, 3, TINY)) as Box<dyn Workload>,
            &Params {
                seconds: 0.0,
                trace,
            },
        );
        (o.digest, o.failed)
    }

    #[test]
    fn digest_is_stable_across_same_seed_runs() {
        let first = digest(7, false);
        assert_eq!(first.1, 0, "no op may fail");
        assert_eq!(first, digest(7, false));
        // Tracing records host spans only: the simulated digest is unmoved.
        assert_eq!(first, digest(7, true));
        assert_ne!(first.0, digest(8, false).0);
    }

    #[test]
    fn generated_ops_respect_the_shape() {
        let ops = generate(3, 1, 10, BULK_SHAPE);
        assert_eq!(ops.len(), 100);
        for op in &ops {
            assert!((64..=1 << 20).contains(&op.size) && op.size % 8 == 0);
            assert!((1..=255).contains(&op.count));
            assert!(op.bytes() <= MAX_OP_BYTES);
        }
        // Every kind gets a sixth of the ops (up to the last partial round).
        for kind in KINDS {
            let n = ops.iter().filter(|o| o.kind == kind).count();
            assert!((16..=17).contains(&n), "{kind:?}: {n}");
        }
    }
}

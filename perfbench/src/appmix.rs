//! `app-mix`: the cg, stencil, stencil2d and nbody kernels plus seeded
//! PIO/DMA puts on the `tca`, `mpi` and `mpi-gpudirect` backends with 2–8
//! nodes. Every communication call goes through [`Timed`], a `CommWorld`
//! wrapper that records a span around it.

use crate::gen::{Payload, Rng};
use crate::harness::{Counters, Workload};
use crate::ops::{self, HasFabric};
use crate::stats::Fnv;
use crate::trace::Tracer;
use std::cell::RefCell;
use tca_core::comm::PIO_MAX_BYTES;
use tca_core::{
    CommWorld, GpuAlloc, MemRef, MemSpace, MpiBackend, MpiGpuMode, PutSpec, TcaCluster,
    TcaClusterBuilder,
};
use tca_device::node::NodeConfig;
use tca_device::HostBridge;
use tca_pcie::{AddrRange, Fabric};
use tca_peach2::{build_loopback, LoopbackRig, Peach2Params};
use tca_sim::{Dur, SimTime};

const BACKENDS: [&str; 3] = ["tca", "mpi", "mpi-gpudirect"];
const NODES: [u32; 3] = [2, 4, 8];
/// Ops in one pass (a multiple of worlds × kinds, so every pairing runs
/// equally often).
const OPS: usize = 135;
/// Puts per put op, inclusive.
const PUTS: (u64, u64) = (1, 8);
/// Put sizes, inclusive log-uniform range.
const SIZES: (u64, u64) = (8, 64 << 10);
const SLOT: u64 = 64 << 10;
/// CG unknowns per rank.
const CG_N_LOCAL: usize = 8;
const HOST_SRC: u64 = 0x6000_0000;
const HOST_DST: u64 = 0x6800_0000;
/// GPU buffer per node: source slots, then destination slots.
const GPU_BUF: u64 = 2 * PUTS.1 * SLOT;

/// One put of a put op.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Put {
    /// Source rank.
    pub src: u32,
    /// Destination rank (never `src`).
    pub dst: u32,
    /// Bytes.
    pub len: u64,
    /// GPU0 memory at both ends (host memory otherwise).
    pub gpu: bool,
}

/// What an op runs.
#[derive(Clone, Debug, PartialEq)]
pub enum Kind {
    /// Distributed conjugate gradient.
    Cg,
    /// 1-D-decomposed Jacobi stencil.
    Stencil,
    /// 2-D-decomposed Jacobi stencil.
    Stencil2d,
    /// Direct N-body.
    Nbody,
    /// A batch of seeded puts.
    Puts(Vec<Put>),
}

/// One op: a kernel or put batch on world `world` (index into the
/// backend × node-count grid).
#[derive(Clone, Debug, PartialEq)]
pub struct Op {
    /// World index.
    pub world: usize,
    /// Work.
    pub kind: Kind,
}

/// `n` seeded ops, every (world, kind) pairing equally often.
pub fn generate(seed: u64, stream: u64, n: usize) -> Vec<Op> {
    let worlds = BACKENDS.len() * NODES.len();
    let mut r = Rng::new(seed, stream);
    let picks = r.balanced(n, worlds * 5);
    let put_ops = picks.iter().filter(|&&p| p % 5 == 4).count();
    let counts: Vec<u64> = r
        .strata(put_ops)
        .into_iter()
        .map(|u| PUTS.0 + (u * (PUTS.1 - PUTS.0 + 1) as f64) as u64)
        .collect();
    let total = counts.iter().sum::<u64>() as usize;
    let mut sizes = r.log_uniform(total, SIZES.0, SIZES.1).into_iter();
    let mut gpu = r.balanced(total, 2).into_iter();
    let mut counts = counts.into_iter();
    picks
        .into_iter()
        .map(|p| {
            let world = p / 5;
            let nodes = u64::from(NODES[world % NODES.len()]);
            let kind = match p % 5 {
                0 => Kind::Cg,
                1 => Kind::Stencil,
                2 => Kind::Stencil2d,
                3 => Kind::Nbody,
                _ => Kind::Puts({
                    // Distinct sources, as in `ring16::Batch`.
                    let k = counts.next().expect("one count per put op").min(nodes);
                    let mut srcs: Vec<u64> = (0..nodes).collect();
                    r.shuffle(&mut srcs);
                    srcs[..k as usize]
                        .iter()
                        .map(|&src| {
                            let dst = ((src + 1 + r.below(nodes - 1)) % nodes) as u32;
                            let src = src as u32;
                            Put {
                                src,
                                dst,
                                len: sizes.next().expect("one size per put"),
                                gpu: gpu.next().expect("one space per put") == 1,
                            }
                        })
                        .collect()
                }),
            };
            Op { world, kind }
        })
        .collect()
}

/// A `CommWorld` that records a span around every call it forwards.
/// Communication spans are named by the layer that serves them: `core.*`
/// for the TCA backend, `net.*` for the MPI ones.
pub struct Timed<'a, W> {
    w: &'a mut W,
    tr: RefCell<&'a mut Tracer>,
    mpi: bool,
}

impl<'a, W: CommWorld + HasFabric> Timed<'a, W> {
    /// Wraps `w`.
    pub fn new(w: &'a mut W, tr: &'a mut Tracer) -> Self {
        let mpi = w.backend_name() != "tca";
        Timed {
            w,
            tr: RefCell::new(tr),
            mpi,
        }
    }

    fn comm<R>(&mut self, tca: &'static str, net: &'static str, f: impl FnOnce(&mut W) -> R) -> R {
        let name = if self.mpi { net } else { tca };
        ops::event_span(self.tr.get_mut(), name, self.w, f)
    }
}

impl<W: CommWorld + HasFabric> CommWorld for Timed<'_, W> {
    fn backend_name(&self) -> &'static str {
        self.w.backend_name()
    }

    fn nodes(&self) -> u32 {
        self.w.nodes()
    }

    fn now(&self) -> SimTime {
        self.w.now()
    }

    fn alloc_gpu(&mut self, node: u32, gpu: usize, len: u64) -> GpuAlloc {
        let w = &mut *self.w;
        self.tr
            .get_mut()
            .scope("device.alloc", || w.alloc_gpu(node, gpu, len))
    }

    fn write(&mut self, m: &MemRef, data: &[u8]) {
        let w = &mut *self.w;
        self.tr.get_mut().scope("device.write", || w.write(m, data));
    }

    fn read(&self, m: &MemRef, len: usize) -> Vec<u8> {
        self.tr
            .borrow_mut()
            .scope("device.read", || self.w.read(m, len))
    }

    fn put_batch(&mut self, puts: &[PutSpec]) -> Dur {
        self.comm("core.put", "net.put", |w| w.put_batch(puts))
    }

    fn put_strided(
        &mut self,
        dst: &MemRef,
        dst_stride: u64,
        src: &MemRef,
        src_stride: u64,
        block_len: u64,
        count: u64,
    ) -> Dur {
        self.comm("core.put", "net.put", |w| {
            w.put_strided(dst, dst_stride, src, src_stride, block_len, count)
        })
    }

    fn barrier(&mut self) -> Dur {
        self.comm("core.barrier", "net.collective", |w| w.barrier())
    }

    fn allgather(&mut self, addr: u64, len: u64) -> Dur {
        self.comm("core.allgather", "net.collective", |w| {
            w.allgather(addr, len)
        })
    }

    fn allreduce_scalar_f64(&mut self, addr: u64) -> f64 {
        self.comm("core.allreduce", "net.collective", |w| {
            w.allreduce_scalar_f64(addr)
        })
    }
}

/// Runs one kernel op through [`Timed`] under an `apps.kernel` span and
/// checks its result against the kernel's single-node reference.
fn kernel<W: CommWorld + HasFabric>(
    w: &mut W,
    kind: &Kind,
    tr: &mut Tracer,
    digest: &mut Fnv,
) -> Result<(), String> {
    let open = tr.enter("apps.kernel");
    let mut t = Timed::new(w, tr);
    let result = match kind {
        Kind::Cg => {
            let r = tca_apps::cg_solve(&mut t, CG_N_LOCAL, 1e-10, 200);
            if r.residual < 1e-10 {
                Ok((r.max_error, r.iterations as u64))
            } else {
                Err(format!("cg did not converge: {r:?}"))
            }
        }
        Kind::Stencil => {
            let r = tca_apps::stencil_run(&mut t, tca_apps::StencilConfig::default());
            Ok((r.max_error, r.halo_bytes))
        }
        Kind::Stencil2d => {
            let r = tca_apps::stencil2d_run(&mut t, tca_apps::Stencil2dConfig::default());
            Ok((r.max_error, r.vertical_comm.as_ps()))
        }
        Kind::Nbody => {
            let r = tca_apps::nbody_run(&mut t, 8, 2, 1e-3);
            Ok((r.max_error, r.comm_time.as_ps()))
        }
        Kind::Puts(_) => Err("puts are not a kernel".into()),
    };
    tr.exit(open, 0);
    let (max_error, extra) = result?;
    // CG is checked against a direct solve; the other kernels preserve
    // the reference's arithmetic order and must match it bit for bit.
    let tol = if matches!(kind, Kind::Cg) { 1e-6 } else { 0.0 };
    if max_error > tol {
        return Err(format!("{kind:?}: max error {max_error} over {tol}"));
    }
    digest.u64(max_error.to_bits());
    digest.u64(extra);
    Ok(())
}

/// The TCA PIO window, where a backend has one.
pub trait Pio {
    /// Stores `data` at `dst` from `from`'s CPU; `false` when the backend
    /// has no PIO window.
    fn pio_put(&mut self, from: u32, dst: &MemRef, data: &[u8]) -> bool;
}

impl Pio for TcaCluster {
    fn pio_put(&mut self, from: u32, dst: &MemRef, data: &[u8]) -> bool {
        TcaCluster::pio_put(self, from, dst, data);
        true
    }
}

impl Pio for MpiBackend {
    fn pio_put(&mut self, _: u32, _: &MemRef, _: &[u8]) -> bool {
        false
    }
}

/// Runs a put op: short host-sourced puts over the PIO window one by one
/// (TCA only), everything else as one `put_batch`, then a barrier; then
/// reads every destination back.
fn puts<W: CommWorld + HasFabric + Pio>(
    w: &mut W,
    gpus: &[GpuAlloc],
    puts: &[Put],
    payload: &Payload,
    exec: u64,
    tr: &mut Tracer,
) -> Result<(), String> {
    let mut t = Timed::new(w, tr);
    let ends: Vec<(PutSpec, &[u8])> = puts
        .iter()
        .enumerate()
        .map(|(j, p)| {
            let slot = j as u64 * SLOT;
            let (src, dst) = if p.gpu {
                let (s, d) = (&gpus[p.src as usize], &gpus[p.dst as usize]);
                (s.at(slot), d.at(GPU_BUF / 2 + slot))
            } else {
                (
                    MemRef::host(p.src, HOST_SRC + slot),
                    MemRef::host(p.dst, HOST_DST + slot),
                )
            };
            let data = payload.window(exec * 17 + j as u64, p.len as usize);
            t.write(&src, data);
            (PutSpec::new(dst, src, p.len), data)
        })
        .collect();
    let mut batch = Vec::new();
    for (s, data) in &ends {
        let short = s.len <= PIO_MAX_BYTES && !matches!(s.src.space, MemSpace::Gpu(_));
        let sent = short
            && t.comm("core.pio_put", "net.put", |w| {
                Pio::pio_put(w, s.src.node, &s.dst, data)
            });
        if !sent {
            batch.push(*s);
        }
    }
    if !batch.is_empty() {
        t.put_batch(&batch);
    }
    // Every rank agrees the exchange is over before anyone reads.
    t.barrier();
    ends.iter()
        .try_for_each(|(s, data)| ops::same_bytes("put", &t.read(&s.dst, data.len()), data))
}

/// The 782 ns PIO anchor: a 4-byte CPU store through two boards and one
/// cable of the Fig. 10 loopback rig, timed to the watched write landing.
struct Loopback {
    fabric: Fabric,
    rig: LoopbackRig,
    watch: tca_device::host::WatchId,
}

impl Loopback {
    fn new() -> Loopback {
        let mut fabric = Fabric::new();
        let rig = build_loopback(&mut fabric, &NodeConfig::default(), Peach2Params::default());
        let watch = fabric
            .device_mut::<HostBridge>(rig.node.host)
            .core_mut()
            .add_watch(AddrRange::new(POLL, 4));
        Loopback { fabric, rig, watch }
    }

    /// One-way latency of one store, ns.
    fn oneway_ns(&mut self, tr: &mut Tracer, value: u32) -> Result<f64, String> {
        let dst = self
            .rig
            .map
            .global_addr(1, tca_device::map::TcaBlock::Host, POLL);
        let host = self.rig.node.host;
        let t0 = self.fabric.now();
        let open = tr.enter("core.pio_put");
        let e0 = self.fabric.events_executed();
        self.fabric.drive::<HostBridge, _>(host, |h, ctx| {
            h.core_mut().cpu_store(dst, &value.to_le_bytes(), ctx);
        });
        self.fabric.run_until_idle();
        tr.exit(open, self.fabric.events_executed() - e0);
        let core = self.fabric.device::<HostBridge>(host).core();
        let landed = *core
            .watch_hits(self.watch)
            .last()
            .ok_or("PIO store never landed")?;
        let got = core.mem_ref().read(POLL, 4);
        ops::same_bytes("pio", &got, &value.to_le_bytes())?;
        Ok(landed.since(t0).as_ns_f64())
    }
}

/// Address the loopback anchor stores to.
const POLL: u64 = 0x6000;

enum World {
    Tca(TcaCluster, Vec<GpuAlloc>),
    Mpi(MpiBackend, Vec<GpuAlloc>),
}

impl World {
    fn build(index: usize, tr: &mut Tracer) -> World {
        let backend = BACKENDS[index / NODES.len()];
        let nodes = NODES[index % NODES.len()];
        let mut w = tr.scope("core.build", || match backend {
            "tca" => World::Tca(TcaClusterBuilder::new(nodes).build(), Vec::new()),
            "mpi" => World::Mpi(MpiBackend::new(nodes, MpiGpuMode::Staged), Vec::new()),
            _ => World::Mpi(MpiBackend::new(nodes, MpiGpuMode::GpuDirect), Vec::new()),
        });
        tr.scope("device.alloc", || match &mut w {
            World::Tca(c, g) => g.extend((0..nodes).map(|n| c.alloc_gpu(n, 0, GPU_BUF))),
            World::Mpi(m, g) => g.extend((0..nodes).map(|n| m.alloc_gpu(n, 0, GPU_BUF))),
        });
        w
    }

    fn fabric(&self) -> &Fabric {
        match self {
            World::Tca(c, _) => &c.fabric,
            World::Mpi(m, _) => &m.fabric,
        }
    }

    fn now(&self) -> SimTime {
        self.fabric().now()
    }

    fn run(
        &mut self,
        kind: &Kind,
        payload: &Payload,
        exec: u64,
        tr: &mut Tracer,
        digest: &mut Fnv,
    ) -> Result<(), String> {
        match (self, kind) {
            (World::Tca(c, g), Kind::Puts(p)) => puts(c, g, p, payload, exec, tr),
            (World::Mpi(m, g), Kind::Puts(p)) => puts(m, g, p, payload, exec, tr),
            (World::Tca(c, _), k) => kernel(c, k, tr, digest),
            (World::Mpi(m, _), k) => kernel(m, k, tr, digest),
        }
    }

    fn counters(&self, out: &mut Counters) {
        match self {
            World::Tca(c, _) => out.add_tca(c),
            World::Mpi(m, _) => out.add_mpi(m),
        }
    }
}

/// The `app-mix` workload.
pub struct AppMix {
    ops: Vec<Op>,
    warm: Vec<Op>,
    payload: Payload,
    loopback: Option<Loopback>,
    pio_ns: Option<f64>,
    /// Counters of every world an op has run on.
    banked: Counters,
}

impl AppMix {
    /// `app-mix` for `seed`.
    pub fn new(seed: u64) -> AppMix {
        AppMix {
            ops: generate(seed, 1, OPS),
            warm: generate(seed, 2, OPS / 3),
            payload: Payload::new(seed, 1 << 20),
            loopback: None,
            pio_ns: None,
            banked: Counters::default(),
        }
    }

    /// Runs `op` as one job on a fresh world: build, run, check, bank
    /// the world's counters. A fresh world per op keeps every op's cost
    /// independent of the ops before it.
    fn exec(
        &mut self,
        op: &Op,
        exec: u64,
        tr: &mut Tracer,
        digest: &mut Fnv,
    ) -> Result<(), String> {
        let mut w = World::build(op.world, tr);
        w.run(&op.kind, &self.payload, exec, tr, digest)?;
        digest.u64(w.now().as_ps());
        ops::health(w.fabric(), &mut 0)?;
        w.counters(&mut self.banked);
        Ok(())
    }
}

/// The anchor op sits in front of the generated ones.
const ANCHOR: usize = 0;

impl Workload for AppMix {
    fn setup(&mut self, tr: &mut Tracer) -> Result<(), String> {
        self.loopback = Some(tr.scope("core.build", Loopback::new));
        Ok(())
    }

    fn warmup(&mut self, tr: &mut Tracer) -> Result<(), String> {
        let warm = std::mem::take(&mut self.warm);
        let mut scratch = Fnv::default();
        let r = warm
            .iter()
            .enumerate()
            .try_for_each(|(i, op)| self.exec(op, i as u64, tr, &mut scratch));
        self.warm = warm;
        r
    }

    fn len(&self) -> usize {
        self.ops.len() + 1
    }

    fn run(
        &mut self,
        i: usize,
        exec: u64,
        tr: &mut Tracer,
        digest: &mut Fnv,
    ) -> Result<(), String> {
        digest.u64(i as u64);
        if i == ANCHOR {
            let lb = self.loopback.as_mut().ok_or("not set up")?;
            let ns = lb.oneway_ns(tr, exec as u32)?;
            self.pio_ns.get_or_insert(ns);
            digest.u64(ns.to_bits());
            return Ok(());
        }
        let op = self.ops[i - 1].clone();
        self.exec(&op, exec, tr, digest)
    }

    fn counters(&mut self) -> Counters {
        let mut out = self.banked;
        if let Some(lb) = &self.loopback {
            out.add_fabric(&lb.fabric);
        }
        out
    }

    fn paper_err_pct(&self) -> f64 {
        self.pio_ns
            .map_or(0.0, |ns| ops::err_pct(ns, ops::PIO_ONEWAY_NS))
    }
}

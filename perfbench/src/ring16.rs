//! `ring16-concurrent`: batches of concurrent `memcpy_peer_async` puts
//! between random node pairs of a 16-node dual-ring TCA cluster — many
//! short multi-hop flows through real PEACH2 routers.

use crate::bulk::{self, DmaOp, Gpus, Kind};
use crate::gen::{Payload, Rng};
use crate::harness::{Counters, Workload};
use crate::ops;
use crate::stats::Fnv;
use crate::trace::Tracer;
use tca_core::{GpuAlloc, MemRef, TcaCluster, TcaClusterBuilder, Topology};

const NODES: u32 = 16;
/// Batches in one pass.
const BATCHES: usize = 400;
/// Puts per batch, inclusive range.
const PUTS: (u64, u64) = (4, 16);
/// Put sizes, inclusive log-uniform range.
const SIZES: (u64, u64) = (64, 32 << 10);
/// Each put of a batch owns one slot of this size at both ends.
const SLOT: u64 = 32 << 10;
const SRC_BASE: u64 = 0x4000_0000;
const DST_BASE: u64 = 0x5000_0000;

/// One put of a batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Put {
    /// Source node.
    pub src: u32,
    /// Destination node (never `src`).
    pub dst: u32,
    /// Bytes.
    pub len: u64,
    /// Host memory at both ends, or GPU0 memory at both ends.
    pub gpu: bool,
}

/// One op: a batch of puts issued back to back, then awaited. The puts
/// of a batch start from distinct nodes: `memcpy_peer_async` overlaps
/// transfers started from *different* nodes, and two chains started back
/// to back on one board panic ("doorbell while DMA busy") — see the
/// package README.
pub type Batch = Vec<Put>;

/// `n` seeded batches.
pub fn generate(seed: u64, stream: u64, n: usize) -> Vec<Batch> {
    let mut r = Rng::new(seed, stream);
    let counts: Vec<u64> = r
        .strata(n)
        .into_iter()
        .map(|u| PUTS.0 + (u * (PUTS.1 - PUTS.0 + 1) as f64) as u64)
        .collect();
    let total: u64 = counts.iter().sum();
    let mut sizes = r.log_uniform(total as usize, SIZES.0, SIZES.1).into_iter();
    let mut gpu = r.balanced(total as usize, 2).into_iter();
    counts
        .iter()
        .map(|&k| {
            let mut srcs: Vec<u32> = (0..NODES).collect();
            r.shuffle(&mut srcs);
            srcs[..k as usize]
                .iter()
                .map(|&src| {
                    let dst = (src + 1 + r.below(u64::from(NODES) - 1) as u32) % NODES;
                    Put {
                        src,
                        dst,
                        len: sizes.next().expect("one size per put"),
                        gpu: gpu.next().expect("one space per put") == 1,
                    }
                })
                .collect()
        })
        .collect()
}

/// Anchor chains run from node 0's board every pass (the first two
/// [`bulk::ANCHORS`]: 255 and 4 chained 4 KiB CPU writes).
const ANCHOR_OPS: usize = 2;

enum Op {
    Anchor(DmaOp),
    Batch(Batch),
}

/// The `ring16-concurrent` workload.
pub struct Ring16 {
    ops: Vec<Op>,
    warm: Vec<Batch>,
    payload: Payload,
    world: Option<(TcaCluster, Vec<GpuAlloc>, Gpus)>,
    config_errors: usize,
    anchor_bw: [Option<f64>; ANCHOR_OPS],
    /// Counters of the clusters rebuilt at earlier pass ends.
    banked: Counters,
}

impl Ring16 {
    /// `ring16-concurrent` for `seed`.
    pub fn new(seed: u64) -> Ring16 {
        let mut ops: Vec<Op> = bulk::ANCHORS[..ANCHOR_OPS]
            .iter()
            .map(|a| Op::Anchor(*a))
            .collect();
        ops.extend(generate(seed, 1, BATCHES).into_iter().map(Op::Batch));
        Ring16 {
            ops,
            warm: generate(seed, 2, BATCHES / 4),
            payload: Payload::new(seed, 4 * bulk::MAX_OP_BYTES as usize),
            world: None,
            config_errors: 0,
            anchor_bw: [None; ANCHOR_OPS],
            banked: Counters::default(),
        }
    }

    /// Builds the cluster and its GPU buffers.
    fn build(&mut self, tr: &mut Tracer) {
        let mut c = tr.scope("core.build", || {
            TcaClusterBuilder::new(NODES)
                .topology(Topology::DualRing)
                .build()
        });
        let gpus = tr.scope("device.alloc", || {
            (0..NODES).map(|n| c.alloc_gpu(n, 0, 32 * SLOT)).collect()
        });
        let anchor_gpus = bulk::alloc_gpus(&mut c, tr);
        self.world = Some((c, gpus, anchor_gpus));
        self.config_errors = 0;
    }

    fn batch(
        &mut self,
        b: &Batch,
        exec: u64,
        tr: &mut Tracer,
        digest: &mut Fnv,
    ) -> Result<(), String> {
        let (c, gpus, _) = self.world.as_mut().ok_or("not set up")?;
        let at = |node: u32, gpu: bool, base: u64| {
            if gpu {
                gpus[node as usize].at(base - SRC_BASE)
            } else {
                MemRef::host(node, base)
            }
        };
        let ends: Vec<(MemRef, MemRef, &[u8])> = b
            .iter()
            .enumerate()
            .map(|(j, p)| {
                let slot = j as u64 * SLOT;
                let data = self.payload.window(exec * 17 + j as u64, p.len as usize);
                let src = at(p.src, p.gpu, SRC_BASE + slot);
                // GPU buffers hold the destination slots after the
                // source ones.
                let dst_base = if p.gpu {
                    SRC_BASE + 16 * SLOT
                } else {
                    DST_BASE
                };
                (at(p.dst, p.gpu, dst_base + slot), src, data)
            })
            .collect();
        tr.scope("device.write", || {
            for (_, src, data) in &ends {
                c.write(src, data);
            }
        });
        let events: Vec<_> = tr.scope("peach2.issue", || {
            ends.iter()
                .map(|(dst, src, data)| c.memcpy_peer_async(dst, src, data.len() as u64))
                .collect()
        });
        let t0 = c.now();
        ops::event_span(tr, "pcie.drain", c, |c| {
            c.synchronize();
            for ev in events {
                c.wait(ev);
            }
        });
        digest.u64(t0.as_ps());
        digest.u64(c.now().as_ps());
        tr.scope("device.read", || {
            ends.iter().try_for_each(|(dst, _, data)| {
                ops::same_bytes("put", &c.read(dst, data.len()), data)
            })
        })?;
        ops::health(&c.fabric, &mut self.config_errors)
    }
}

impl Workload for Ring16 {
    fn setup(&mut self, tr: &mut Tracer) -> Result<(), String> {
        self.build(tr);
        let (c, _, _) = self.world.as_ref().ok_or("not built")?;
        let report = tr.scope("verify.analyze", || c.verify());
        if !report.is_clean() {
            return Err(format!("cluster verification: {}", report.render()));
        }
        Ok(())
    }

    fn warmup(&mut self, tr: &mut Tracer) -> Result<(), String> {
        let warm = std::mem::take(&mut self.warm);
        let mut scratch = Fnv::default();
        let r = warm
            .iter()
            .enumerate()
            .try_for_each(|(i, b)| self.batch(b, i as u64, tr, &mut scratch));
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
        digest.u64(i as u64);
        match &self.ops[i] {
            Op::Anchor(op) => {
                let op = *op;
                let (c, _, gpus) = self.world.as_mut().ok_or("not set up")?;
                let data = self.payload.window(exec, op.bytes() as usize);
                debug_assert_eq!(op.kind, Kind::CpuWrite);
                let run = bulk::exec_dma(c, gpus, &op, data, tr)?;
                ops::health(&c.fabric, &mut self.config_errors)?;
                self.anchor_bw[i].get_or_insert(run.bandwidth(op.bytes()));
                digest.u64(run.start.as_ps());
                digest.u64(run.done.as_ps());
                Ok(())
            }
            Op::Batch(b) => {
                let b = b.clone();
                self.batch(&b, exec, tr, digest)
            }
        }
    }

    fn end_pass(&mut self, tr: &mut Tracer) -> Result<(), String> {
        // One job per pass on a fresh cluster (see `bulk::Bulk::end_pass`).
        self.banked = self.counters();
        self.world = None;
        self.build(tr);
        Ok(())
    }

    fn counters(&mut self) -> Counters {
        let mut out = self.banked;
        if let Some((c, _, _)) = self.world.as_mut() {
            let mut live = Counters::default();
            live.add_tca(c);
            out.absorb(&live);
        }
        out
    }

    fn paper_err_pct(&self) -> f64 {
        bulk::anchor_err(&self.anchor_bw)
    }
}

//! The MPI-like runtime over InfiniBand — the software stack whose
//! overheads TCA eliminates (§I: "The TCA architecture can eliminate
//! protocol overhead, such as that associated with InfiniBand and MPI, as
//! well as the memory copy overhead").
//!
//! Implements the two classic point-to-point protocols:
//! * **eager** (small messages): sender copies into a pre-registered
//!   bounce buffer, RDMA-writes it to the receiver's bounce buffer, and
//!   the receiver copies out after matching;
//! * **rendezvous** (large messages): an RTS/CTS control round-trip
//!   followed by a zero-copy RDMA write into the destination buffer.
//!
//! GPU data additionally pays the §III-A three-step staging:
//! `cudaMemcpy` D2H → network → `cudaMemcpy` H2D — or uses
//! GPUDirect-RDMA-over-IB (§V), where the HCA reads the pinned GPU BAR
//! directly (and inherits its 830 MB/s read ceiling, as era hardware did).
//!
//! The runtime is host software, so it runs at harness level: every
//! software cost advances the simulation clock through a timer, every
//! byte moves through the simulated fabric.

use crate::cluster::IbNetwork;
use crate::hca::{IbHca, SendOp};
use crate::params::{CudaCopyParams, MpiParams};
use tca_device::node::Node;
use tca_device::{Gpu, HostBridge};
use tca_pcie::{DeviceId, Fabric};
use tca_sim::{Dur, SimTime, TraceCtx};

/// Point-to-point protocol selection.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Protocol {
    /// Force the eager path.
    Eager,
    /// Force the rendezvous path.
    Rendezvous,
    /// Pick by `eager_threshold`, like a real MPI.
    Auto,
}

/// Records a phase segment `[start, now]` against an MPI root span, when
/// tracing is on. Pure data collection: never touches simulated time.
fn span_seg(f: &mut Fabric, span: Option<TraceCtx>, name: &'static str, start: SimTime) {
    if let Some(sp) = span {
        let now = f.now();
        f.spans_mut().segment(sp, name, start, now, None);
    }
}

/// Fixed DRAM regions the runtime owns on every node.
const MAILBOX_BASE: u64 = 0x0300_0000;
const CTRL_BASE: u64 = 0x0380_0000;
const SEND_BOUNCE: u64 = 0x0500_0000;
const RECV_BOUNCE: u64 = 0x0600_0000;
/// Staging buffers for the three-step GPU path.
const GPU_STAGE: u64 = 0x0800_0000;

/// The communication world: nodes + IB network + software parameters.
pub struct MpiWorld {
    /// Node handles (index == rank == IB node id).
    pub nodes: Vec<Node>,
    /// The InfiniBand network.
    pub net: IbNetwork,
    /// Software cost model.
    pub mpi: MpiParams,
    /// CUDA staging cost model.
    pub cuda: CudaCopyParams,
    seq: u32,
}

impl MpiWorld {
    /// Builds a world over prepared nodes and an attached network.
    pub fn new(nodes: Vec<Node>, net: IbNetwork) -> Self {
        MpiWorld {
            nodes,
            net,
            mpi: MpiParams::default(),
            cuda: CudaCopyParams::default(),
            seq: 0,
        }
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.nodes.len()
    }

    fn next_seq(&mut self) -> u32 {
        self.seq += 1;
        self.seq
    }

    /// Burns host software time on `rank` (the clock advances through the
    /// event queue, keeping everything deterministic).
    pub fn advance(&self, f: &mut Fabric, rank: usize, d: Dur) {
        if d == Dur::ZERO {
            return;
        }
        f.schedule_timer(self.nodes[rank].host, d, 0);
        f.run_until_idle();
    }

    /// Posts an RDMA write and runs the fabric until its completion flags
    /// land on the destination node.
    fn post_and_wait(
        &mut self,
        f: &mut Fabric,
        src_rank: usize,
        dst_rank: usize,
        src: u64,
        dst: u64,
        len: u64,
    ) {
        let val = self.next_seq();
        let flags_addr = MAILBOX_BASE + src_rank as u64 * 64;
        let rails = self.net.params.rails;
        f.drive::<IbHca, _>(self.net.hcas[src_rank], |h, ctx| {
            h.post(
                SendOp {
                    src,
                    dst_node: dst_rank as u32,
                    dst,
                    len,
                    flags_addr,
                    flag_value: val,
                },
                ctx,
            );
        });
        f.run_until_idle();
        let core = f.device::<HostBridge>(self.nodes[dst_rank].host).core();
        for r in 0..rails {
            assert_eq!(
                core.mem_ref().read_u32(flags_addr + r as u64 * 4),
                val,
                "rail {r} flag missing after idle — transport bug"
            );
        }
    }

    /// `MPI_Send`/`MPI_Recv` pair between host buffers; returns elapsed
    /// simulated time.
    #[allow(clippy::too_many_arguments)] // mirrors the MPI call signature
    pub fn send(
        &mut self,
        f: &mut Fabric,
        src_rank: usize,
        dst_rank: usize,
        src_addr: u64,
        dst_addr: u64,
        len: u64,
        proto: Protocol,
    ) -> Dur {
        assert!(len > 0);
        let eager = match proto {
            Protocol::Eager => true,
            Protocol::Rendezvous => false,
            Protocol::Auto => len <= self.mpi.eager_threshold,
        };
        let t0 = f.now();
        // Protocol accounting: which path carried each message, and the
        // payload volume (the overhead TCA eliminates, §I).
        let hub = f.metrics_mut();
        let c = hub.counter(if eager {
            "mpi.eager_sends"
        } else {
            "mpi.rndv_sends"
        });
        hub.inc(c);
        let m = hub.meter("mpi.payload_bytes");
        hub.record_bytes(m, t0, len);
        let span = f
            .spans_mut()
            .start_root(if eager { "mpi.eager" } else { "mpi.rndv" }, t0, None);
        let mut mark = f.now();
        self.advance(f, src_rank, self.mpi.sw_overhead);
        span_seg(f, span, "sw_overhead", mark);
        if eager {
            // Sender copy into the registered bounce buffer.
            let data = f
                .device::<HostBridge>(self.nodes[src_rank].host)
                .core()
                .mem_ref()
                .read(src_addr, len as usize);
            f.device_mut::<HostBridge>(self.nodes[src_rank].host)
                .core_mut()
                .mem()
                .write(SEND_BOUNCE, &data);
            mark = f.now();
            self.advance(f, src_rank, Dur::for_bytes(len, self.mpi.memcpy_rate));
            span_seg(f, span, "memcpy", mark);
            mark = f.now();
            self.post_and_wait(f, src_rank, dst_rank, SEND_BOUNCE, RECV_BOUNCE, len);
            span_seg(f, span, "rdma_write", mark);
            // Receiver match + copy-out.
            mark = f.now();
            self.advance(f, dst_rank, self.mpi.match_overhead);
            span_seg(f, span, "match", mark);
            let data = f
                .device::<HostBridge>(self.nodes[dst_rank].host)
                .core()
                .mem_ref()
                .read(RECV_BOUNCE, len as usize);
            f.device_mut::<HostBridge>(self.nodes[dst_rank].host)
                .core_mut()
                .mem()
                .write(dst_addr, &data);
            mark = f.now();
            self.advance(f, dst_rank, Dur::for_bytes(len, self.mpi.memcpy_rate));
            span_seg(f, span, "memcpy", mark);
        } else {
            // RTS (sender → receiver control message).
            f.device_mut::<HostBridge>(self.nodes[src_rank].host)
                .core_mut()
                .mem()
                .write_u64(CTRL_BASE, len);
            mark = f.now();
            self.post_and_wait(f, src_rank, dst_rank, CTRL_BASE, CTRL_BASE, 8);
            span_seg(f, span, "rts", mark);
            mark = f.now();
            self.advance(f, dst_rank, self.mpi.match_overhead);
            span_seg(f, span, "match", mark);
            // CTS (receiver → sender: destination ready).
            f.device_mut::<HostBridge>(self.nodes[dst_rank].host)
                .core_mut()
                .mem()
                .write_u64(CTRL_BASE + 8, dst_addr);
            mark = f.now();
            self.post_and_wait(f, dst_rank, src_rank, CTRL_BASE + 8, CTRL_BASE + 8, 8);
            span_seg(f, span, "cts", mark);
            // Zero-copy payload.
            mark = f.now();
            self.post_and_wait(f, src_rank, dst_rank, src_addr, dst_addr, len);
            span_seg(f, span, "rdma_write", mark);
            mark = f.now();
            self.advance(f, dst_rank, self.mpi.match_overhead);
            span_seg(f, span, "match", mark);
        }
        if let Some(sp) = span {
            let now = f.now();
            f.spans_mut().end_root(sp, now);
        }
        f.now().since(t0)
    }

    /// `cudaMemcpy` device→host: moves real bytes and charges launch +
    /// copy time.
    pub fn cuda_d2h(
        &self,
        f: &mut Fabric,
        rank: usize,
        gpu: DeviceId,
        gpu_addr: u64,
        host_addr: u64,
        len: u64,
    ) -> Dur {
        let t0 = f.now();
        let data = f.device::<Gpu>(gpu).gddr_ref().read(gpu_addr, len as usize);
        f.device_mut::<HostBridge>(self.nodes[rank].host)
            .core_mut()
            .mem()
            .write(host_addr, &data);
        self.advance(
            f,
            rank,
            self.cuda.launch + Dur::for_bytes(len, self.cuda.d2h_rate),
        );
        f.now().since(t0)
    }

    /// `cudaMemcpy` host→device.
    pub fn cuda_h2d(
        &self,
        f: &mut Fabric,
        rank: usize,
        gpu: DeviceId,
        host_addr: u64,
        gpu_addr: u64,
        len: u64,
    ) -> Dur {
        let t0 = f.now();
        let data = f
            .device::<HostBridge>(self.nodes[rank].host)
            .core()
            .mem_ref()
            .read(host_addr, len as usize);
        f.device_mut::<Gpu>(gpu).gddr().write(gpu_addr, &data);
        self.advance(
            f,
            rank,
            self.cuda.launch + Dur::for_bytes(len, self.cuda.h2d_rate),
        );
        f.now().since(t0)
    }

    /// The conventional three-step GPU-to-GPU transfer (§III-A):
    /// D2H copy, MPI over IB, H2D copy.
    #[allow(clippy::too_many_arguments)]
    pub fn send_gpu_staged(
        &mut self,
        f: &mut Fabric,
        src_rank: usize,
        src_gpu_addr: u64,
        dst_rank: usize,
        dst_gpu_addr: u64,
        len: u64,
        proto: Protocol,
    ) -> Dur {
        let t0 = f.now();
        let src_gpu = self.nodes[src_rank].gpus[0];
        let dst_gpu = self.nodes[dst_rank].gpus[0];
        self.cuda_d2h(f, src_rank, src_gpu, src_gpu_addr, GPU_STAGE, len);
        self.send(f, src_rank, dst_rank, GPU_STAGE, GPU_STAGE, len, proto);
        self.cuda_h2d(f, dst_rank, dst_gpu, GPU_STAGE, dst_gpu_addr, len);
        f.now().since(t0)
    }

    /// GPUDirect-RDMA-over-IB (§V): zero-copy between *pinned* GPU
    /// regions; the HCA gathers straight from the source GPU BAR.
    /// Caller provides PCIe (BAR) addresses from [`Gpu::pin`].
    pub fn send_gpu_gpudirect(
        &mut self,
        f: &mut Fabric,
        src_rank: usize,
        src_bar_addr: u64,
        dst_rank: usize,
        dst_bar_addr: u64,
        len: u64,
    ) -> Dur {
        let t0 = f.now();
        let span = f.spans_mut().start_root("mpi.gpudirect", t0, None);
        let mut mark = t0;
        self.advance(f, src_rank, self.mpi.sw_overhead);
        span_seg(f, span, "sw_overhead", mark);
        mark = f.now();
        self.post_and_wait(f, src_rank, dst_rank, src_bar_addr, dst_bar_addr, len);
        span_seg(f, span, "rdma_write", mark);
        if let Some(sp) = span {
            let now = f.now();
            f.spans_mut().end_root(sp, now);
        }
        f.now().since(t0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::attach_ib;
    use crate::params::IbParams;
    use tca_device::node::{build_node, NodeConfig};

    fn world(n: usize) -> (Fabric, MpiWorld) {
        let mut f = Fabric::new();
        let mut nodes: Vec<Node> = (0..n)
            .map(|i| build_node(&mut f, &format!("n{i}"), &NodeConfig::default()))
            .collect();
        let net = attach_ib(&mut f, &mut nodes, IbParams::default());
        (f, MpiWorld::new(nodes, net))
    }

    #[test]
    fn eager_send_delivers_payload() {
        let (mut f, mut w) = world(2);
        f.device_mut::<HostBridge>(w.nodes[0].host)
            .core_mut()
            .mem()
            .fill_pattern(0x100_0000, 4096, 0x11);
        let d = w.send(&mut f, 0, 1, 0x100_0000, 0x200_0000, 4096, Protocol::Eager);
        assert!(d > Dur::ZERO);
        let host1 = f.device::<HostBridge>(w.nodes[1].host).core();
        let mut chk = tca_pcie::PageMemory::new();
        chk.write(0x100_0000, &host1.mem_ref().read(0x200_0000, 4096));
        assert!(chk.verify_pattern(0x100_0000, 4096, 0x11).is_ok());
    }

    #[test]
    fn rendezvous_send_delivers_payload() {
        let (mut f, mut w) = world(2);
        let len = 256 * 1024u64;
        f.device_mut::<HostBridge>(w.nodes[0].host)
            .core_mut()
            .mem()
            .fill_pattern(0x100_0000, len, 0x22);
        let d = w.send(
            &mut f,
            0,
            1,
            0x100_0000,
            0x200_0000,
            len,
            Protocol::Rendezvous,
        );
        assert!(d > Dur::ZERO);
        let host1 = f.device::<HostBridge>(w.nodes[1].host).core();
        let mut chk = tca_pcie::PageMemory::new();
        chk.write(0x100_0000, &host1.mem_ref().read(0x200_0000, len as usize));
        assert!(chk.verify_pattern(0x100_0000, len, 0x22).is_ok());
    }

    #[test]
    fn auto_protocol_switches_at_threshold() {
        let (mut f, mut w) = world(2);
        // Rendezvous pays two extra control trips: for a tiny message the
        // auto (eager) path must beat forced rendezvous.
        f.device_mut::<HostBridge>(w.nodes[0].host)
            .core_mut()
            .mem()
            .fill_pattern(0x100_0000, 64, 1);
        let auto = w.send(&mut f, 0, 1, 0x100_0000, 0x200_0000, 64, Protocol::Auto);
        let rndv = w.send(
            &mut f,
            0,
            1,
            0x100_0000,
            0x210_0000,
            64,
            Protocol::Rendezvous,
        );
        assert!(auto < rndv, "auto={auto} rndv={rndv}");
        // For a large message auto (rendezvous) must beat forced eager
        // (which pays two full-size memcpies).
        let len = 1u64 << 20;
        f.device_mut::<HostBridge>(w.nodes[0].host)
            .core_mut()
            .mem()
            .fill_pattern(0x300_0000, len, 2);
        let auto_l = w.send(&mut f, 0, 1, 0x300_0000, 0x400_0000, len, Protocol::Auto);
        let eager_l = w.send(&mut f, 0, 1, 0x300_0000, 0x500_0000, len, Protocol::Eager);
        assert!(auto_l < eager_l, "auto={auto_l} eager={eager_l}");
    }

    #[test]
    fn protocol_counters_track_each_path() {
        let (mut f, mut w) = world(2);
        f.device_mut::<HostBridge>(w.nodes[0].host)
            .core_mut()
            .mem()
            .fill_pattern(0x100_0000, 4096, 3);
        w.send(&mut f, 0, 1, 0x100_0000, 0x200_0000, 64, Protocol::Auto);
        w.send(&mut f, 0, 1, 0x100_0000, 0x210_0000, 64, Protocol::Eager);
        w.send(
            &mut f,
            0,
            1,
            0x100_0000,
            0x220_0000,
            4096,
            Protocol::Rendezvous,
        );
        let snap = f.metrics_snapshot();
        assert_eq!(snap.counter("mpi.eager_sends"), Some(2));
        assert_eq!(snap.counter("mpi.rndv_sends"), Some(1));
        match snap.get("mpi.payload_bytes") {
            Some(tca_sim::MetricValue::Bandwidth { bytes, .. }) => {
                assert_eq!(*bytes, 64 + 64 + 4096);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn staged_gpu_send_moves_gddr_to_gddr() {
        let (mut f, mut w) = world(2);
        let len = 64 * 1024u64;
        {
            let g = f.device_mut::<Gpu>(w.nodes[0].gpus[0]);
            let a = g.alloc(len);
            g.gddr().fill_pattern(a, len, 0x33);
        }
        {
            let g = f.device_mut::<Gpu>(w.nodes[1].gpus[0]);
            let _ = g.alloc(len);
        }
        let d = w.send_gpu_staged(&mut f, 0, 0, 1, 0, len, Protocol::Auto);
        // Two cudaMemcpy launches alone are 14 µs.
        assert!(d > Dur::from_us(14), "d={d}");
        let g = f.device::<Gpu>(w.nodes[1].gpus[0]);
        let mut chk = tca_pcie::PageMemory::new();
        chk.write(0, &g.gddr_ref().read(0, len as usize));
        assert!(chk.verify_pattern(0, len, 0x33).is_ok());
    }

    #[test]
    fn gpudirect_beats_staging_on_latency_but_not_bandwidth() {
        let (mut f, mut w) = world(2);
        let len_small = 64u64;
        let len_big = 1u64 << 20;
        let (src_bar, dst_bar) = {
            let g = f.device_mut::<Gpu>(w.nodes[0].gpus[0]);
            let a = g.alloc(len_big);
            g.gddr().fill_pattern(a, len_big, 0x44);
            let t = g.p2p_token(a, len_big);
            let s = g.pin(a, len_big, t);
            let g = f.device_mut::<Gpu>(w.nodes[1].gpus[0]);
            let b = g.alloc(len_big);
            let t = g.p2p_token(b, len_big);
            let d = g.pin(b, len_big, t);
            (s, d)
        };
        let direct_small = w.send_gpu_gpudirect(&mut f, 0, src_bar, 1, dst_bar, len_small);
        let staged_small = w.send_gpu_staged(&mut f, 0, 0, 1, 0, len_small, Protocol::Auto);
        assert!(
            direct_small < staged_small / 3,
            "direct={direct_small} staged={staged_small}"
        );
        // Large transfers: GPUDirect reads are stuck at ~830 MB/s while the
        // staged pipeline streams at GB/s — staging wins on bandwidth.
        let direct_big = w.send_gpu_gpudirect(&mut f, 0, src_bar, 1, dst_bar, len_big);
        let staged_big = w.send_gpu_staged(&mut f, 0, 0, 1, 0, len_big, Protocol::Auto);
        assert!(
            staged_big < direct_big,
            "staged={staged_big} direct={direct_big}"
        );
        // Data integrity on the direct path.
        let g = f.device::<Gpu>(w.nodes[1].gpus[0]);
        let mut chk = tca_pcie::PageMemory::new();
        chk.write(0, &g.gddr_ref().read(0, len_big as usize));
        assert!(chk.verify_pattern(0, len_big, 0x44).is_ok());
    }

    #[test]
    fn host_pingpong_latency_is_microseconds() {
        let (mut f, mut w) = world(2);
        f.device_mut::<HostBridge>(w.nodes[0].host)
            .core_mut()
            .mem()
            .write(0x100_0000, &[1u8; 8]);
        let fwd = w.send(&mut f, 0, 1, 0x100_0000, 0x200_0000, 8, Protocol::Eager);
        let back = w.send(&mut f, 1, 0, 0x200_0000, 0x100_0100, 8, Protocol::Eager);
        let half = (fwd + back) / 2;
        // Era-accurate MPI/IB half-round-trip: a few microseconds —
        // several times the 0.78 µs TCA PIO latency.
        let us = half.as_us_f64();
        assert!((1.0..6.0).contains(&us), "half-rtt={us} µs");
    }
}

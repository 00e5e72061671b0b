//! The CUDA-like TCA programming interface (§III-H).
//!
//! "In the TCA sub-cluster, a function similar to `cudaMemcpyPeer` should
//! be available for the target node ID in addition to the GPU IDs" — this
//! module provides it: [`TcaCluster::memcpy_peer`] moves data between any
//! two memories of the sub-cluster with one call, plus a block-stride
//! variant mapping onto the chaining DMAC and a PIO put for short
//! messages. No MPI, no explicit communication: a remote GPU buffer is
//! just an address.

use crate::cluster::TcaCluster;
use tca_device::map::TcaBlock;
use tca_device::{Gpu, HostBridge};
use tca_peach2::{Descriptor, EngineKind, Peach2};
use tca_sim::{Dur, SimTime};

/// Which memory of a node an address refers to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MemSpace {
    /// Host DRAM (the address is the DRAM offset, < 8 GiB for remote
    /// visibility through the Host block).
    Host,
    /// GPU `i` device memory (the address is the CUDA device address;
    /// remote access requires the region to be pinned).
    Gpu(usize),
}

/// A location in the sub-cluster's unified memory view.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MemRef {
    /// Node id.
    pub node: u32,
    /// Memory space on that node.
    pub space: MemSpace,
    /// Address within the space.
    pub addr: u64,
}

impl MemRef {
    /// Host memory reference.
    pub fn host(node: u32, addr: u64) -> MemRef {
        MemRef {
            node,
            space: MemSpace::Host,
            addr,
        }
    }

    /// GPU memory reference.
    pub fn gpu(node: u32, gpu: usize, addr: u64) -> MemRef {
        MemRef {
            node,
            space: MemSpace::Gpu(gpu),
            addr,
        }
    }
}

/// Completion handle of an asynchronous transfer.
#[derive(Clone, Copy, Debug)]
#[must_use = "wait on the event to complete the transfer"]
pub struct TcaEvent {
    node: u32,
    vector: u32,
    target_count: usize,
}

/// Where the last chain started on a node leaves that node's board run log
/// and host interrupt count once its doorbell lands and it completes.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct ChainMark {
    runs: usize,
    irqs: usize,
}

/// A GPU allocation that has been pinned into the PCIe space (the full
/// GPUDirect flow of §IV-A2), ready for TCA transfers.
#[derive(Clone, Copy, Debug)]
pub struct GpuAlloc {
    /// Owning node.
    pub node: u32,
    /// GPU index on the node.
    pub gpu: usize,
    /// CUDA device address.
    pub dev_addr: u64,
    /// Length in bytes.
    pub len: u64,
    /// Node-local PCIe (BAR) address.
    pub pcie_addr: u64,
}

impl GpuAlloc {
    /// Memory reference at `offset` into the allocation.
    #[track_caller]
    pub fn at(&self, offset: u64) -> MemRef {
        assert!(offset < self.len, "offset outside allocation");
        MemRef::gpu(self.node, self.gpu, self.dev_addr + offset)
    }
}

impl TcaCluster {
    /// Node-local PCIe address of a reference.
    pub fn local_addr(&self, m: &MemRef) -> u64 {
        match m.space {
            MemSpace::Host => m.addr,
            MemSpace::Gpu(i) => tca_device::map::gpu_bar(i).base() + m.addr,
        }
    }

    /// Global TCA-window address of a reference (what makes "an
    /// accelerator in a different node \[look\] as if it existed in the same
    /// node", §I).
    #[track_caller]
    pub fn global_addr(&self, m: &MemRef) -> u64 {
        let block = match m.space {
            MemSpace::Host => TcaBlock::Host,
            MemSpace::Gpu(0) => TcaBlock::Gpu0,
            MemSpace::Gpu(1) => TcaBlock::Gpu1,
            MemSpace::Gpu(i) => {
                panic!("GPU{i} is not TCA-reachable: PEACH2 only accesses GPU0/GPU1 (§III-C)")
            }
        };
        self.sub.map.global_addr(m.node, block, m.addr)
    }

    /// `cuMemAlloc` + `cuPointerGetAttribute` + P2P-driver pin, in one
    /// call: allocates `len` bytes on (`node`, `gpu`) and exposes them to
    /// the sub-cluster.
    pub fn alloc_gpu(&mut self, node: u32, gpu: usize, len: u64) -> GpuAlloc {
        let dev = self.sub.nodes[node as usize].gpus[gpu];
        let g = self.fabric.device_mut::<Gpu>(dev);
        let dev_addr = g.alloc(len);
        let token = g.p2p_token(dev_addr, len);
        let pcie_addr = g.pin(dev_addr, len, token);
        GpuAlloc {
            node,
            gpu,
            dev_addr,
            len,
            pcie_addr,
        }
    }

    /// Functional data write (stands in for a CUDA kernel or host code
    /// producing data).
    pub fn write(&mut self, m: &MemRef, data: &[u8]) {
        match m.space {
            MemSpace::Host => self
                .fabric
                .device_mut::<HostBridge>(self.sub.nodes[m.node as usize].host)
                .core_mut()
                .mem()
                .write(m.addr, data),
            MemSpace::Gpu(i) => self
                .fabric
                .device_mut::<Gpu>(self.sub.nodes[m.node as usize].gpus[i])
                .gddr()
                .write(m.addr, data),
        }
    }

    /// Functional data read.
    pub fn read(&self, m: &MemRef, len: usize) -> Vec<u8> {
        match m.space {
            MemSpace::Host => self
                .fabric
                .device::<HostBridge>(self.sub.nodes[m.node as usize].host)
                .core()
                .mem_ref()
                .read(m.addr, len),
            MemSpace::Gpu(i) => self
                .fabric
                .device::<Gpu>(self.sub.nodes[m.node as usize].gpus[i])
                .gddr_ref()
                .read(m.addr, len),
        }
    }

    /// The `tcaMemcpyPeer` equivalent: copies `len` bytes from `src` to
    /// `dst` anywhere in the sub-cluster, synchronously, using the
    /// pipelined DMAC on the source node's board. Returns the elapsed
    /// simulated time (doorbell → completion interrupt).
    pub fn memcpy_peer(&mut self, dst: &MemRef, src: &MemRef, len: u64) -> Dur {
        let ev = self.memcpy_peer_async(dst, src, len);
        let d = self.wait(ev);
        // The completion interrupt is a *source-side* event (RDMA put): the
        // last posted writes may still be in flight. Drain for visibility.
        self.synchronize();
        d
    }

    /// Asynchronous `tcaMemcpyPeer`: starts the DMA and returns an event.
    /// Transfers started from *different* nodes proceed concurrently.
    #[track_caller]
    pub fn memcpy_peer_async(&mut self, dst: &MemRef, src: &MemRef, len: u64) -> TcaEvent {
        assert!(len > 0);
        // A transfer must stay inside its destination block: running past
        // the block boundary would silently address the *next* device's
        // window in the aligned Fig. 4 map.
        let block = self.sub.map.block_size();
        assert!(
            dst.addr.checked_add(len).is_some_and(|end| end <= block),
            "destination [{:#x}, +{len}) runs past the {block:#x}-byte TCA block",
            dst.addr
        );
        let d = Descriptor::new(self.local_addr(src), self.global_addr(dst), len);
        self.start_chain(src.node, &[d])
    }

    /// Block-stride transfer (§III-H): `count` blocks of `block_len` bytes
    /// with independent source/destination strides, executed as one
    /// chained-DMA activation — the multidimensional-halo access pattern
    /// the chaining DMAC exists for (§III-D).
    #[allow(clippy::too_many_arguments)]
    pub fn memcpy_peer_strided(
        &mut self,
        dst: &MemRef,
        dst_stride: u64,
        src: &MemRef,
        src_stride: u64,
        block_len: u64,
        count: u64,
    ) -> Dur {
        let descs = Descriptor::block_stride(
            self.local_addr(src),
            src_stride,
            self.global_addr(dst),
            dst_stride,
            block_len,
            count,
        );
        let ev = self.start_chain(src.node, &descs);
        let d = self.wait(ev);
        self.synchronize();
        d
    }

    fn start_chain(&mut self, node: u32, descs: &[Descriptor]) -> TcaEvent {
        let drv = self.drivers[node as usize];
        let mark = self.chains[node as usize];
        // One chain at a time per board: if this node's DMAC is still busy
        // (a previous async transfer), run the world until it frees up. A
        // doorbell still in flight leaves the chip reading idle, so also
        // wait until the run log shows every doorbell already rung.
        loop {
            let chip = self.fabric.device::<Peach2>(drv.chip);
            if chip.dma_idle() && chip.runs.len() >= mark.runs {
                break;
            }
            assert!(self.fabric.step(), "deadlock waiting for a free DMAC");
        }
        drv.write_descriptors(&mut self.fabric, descs);
        drv.program_dma(&mut self.fabric, descs.len() as u32, EngineKind::Pipelined);
        let chip = self.fabric.device::<Peach2>(drv.chip);
        let (vector, runs) = (chip.params().dma_msi_vector, chip.runs.len());
        // The previous chain's completion interrupt may still be in flight;
        // this chain's event must not be satisfied by it.
        let current = self
            .fabric
            .device::<HostBridge>(drv.host)
            .core()
            .interrupt_count(vector)
            .max(mark.irqs);
        drv.ring_doorbell(&mut self.fabric);
        self.chains[node as usize] = ChainMark {
            runs: runs + 1,
            irqs: current + 1,
        };
        TcaEvent {
            node,
            vector,
            target_count: current + 1,
        }
    }

    /// Blocks until the transfer behind `ev` completes; returns the time
    /// elapsed while waiting events drained.
    #[track_caller]
    pub fn wait(&mut self, ev: TcaEvent) -> Dur {
        let host = self.drivers[ev.node as usize].host;
        let t0 = self.fabric.now();
        loop {
            let n = self
                .fabric
                .device::<HostBridge>(host)
                .core()
                .interrupt_count(ev.vector);
            if n >= ev.target_count {
                break;
            }
            assert!(
                self.fabric.step(),
                "deadlock: event queue idle before DMA completion"
            );
        }
        self.fabric.now().since(t0)
    }

    /// Runs the fabric until every in-flight packet has drained — the
    /// remote-visibility barrier to pair with [`TcaCluster::wait`], whose
    /// completion interrupt is a source-side (RDMA-put) event.
    pub fn synchronize(&mut self) {
        self.fabric.run_until_idle();
    }

    /// PIO put (§III-F1): the CPU of `from_node` stores `data` directly
    /// into `dst` through the mmapped window — the short-message path.
    /// Synchronous; returns elapsed simulated time until the fabric drains.
    pub fn pio_put(&mut self, from_node: u32, dst: &MemRef, data: &[u8]) -> Dur {
        let t0 = self.fabric.now();
        let addr = self.global_addr(dst);
        let host = self.sub.nodes[from_node as usize].host;
        let owned = data.to_vec();
        self.fabric.drive::<HostBridge, _>(host, |h, ctx| {
            h.core_mut().cpu_store_wc(addr, &owned, ctx);
        });
        let end = self.fabric.run_until_idle();
        end.since(t0)
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.fabric.now()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::TcaClusterBuilder;

    fn pattern(len: usize, seed: u8) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u8) ^ seed.wrapping_mul(13))
            .collect()
    }

    #[test]
    fn memcpy_peer_host_to_remote_host() {
        let mut c = TcaClusterBuilder::new(4).build();
        let src = MemRef::host(0, 0x4000_0000);
        let dst = MemRef::host(2, 0x5000_0000);
        let data = pattern(8192, 1);
        c.write(&src, &data);
        let d = c.memcpy_peer(&dst, &src, 8192);
        assert!(d > Dur::ZERO);
        assert_eq!(c.read(&dst, 8192), data);
    }

    #[test]
    fn memcpy_peer_gpu_to_remote_gpu() {
        let mut c = TcaClusterBuilder::new(2).build();
        let a = c.alloc_gpu(0, 0, 64 * 1024);
        let b = c.alloc_gpu(1, 1, 64 * 1024);
        let data = pattern(64 * 1024, 2);
        c.write(&a.at(0), &data);
        c.memcpy_peer(&b.at(0), &a.at(0), 64 * 1024);
        assert_eq!(c.read(&b.at(0), 64 * 1024), data);
    }

    #[test]
    fn memcpy_peer_same_node_gpu_to_gpu() {
        // The within-node cudaMemcpyPeer case, §III-H.
        let mut c = TcaClusterBuilder::new(2).build();
        let a = c.alloc_gpu(0, 0, 4096);
        let b = c.alloc_gpu(0, 1, 4096);
        let data = pattern(4096, 3);
        c.write(&a.at(0), &data);
        c.memcpy_peer(&b.at(0), &a.at(0), 4096);
        assert_eq!(c.read(&b.at(0), 4096), data);
    }

    #[test]
    fn strided_transfer_lands_every_block() {
        let mut c = TcaClusterBuilder::new(2).build();
        let src = MemRef::host(0, 0x4000_0000);
        let dst = MemRef::host(1, 0x5000_0000);
        // 8 blocks of 256 B, source stride 1 KiB, dest stride 512 B.
        for i in 0..8u64 {
            let blk = pattern(256, i as u8);
            c.write(&MemRef::host(0, 0x4000_0000 + i * 1024), &blk);
        }
        c.memcpy_peer_strided(&dst, 512, &src, 1024, 256, 8);
        for i in 0..8u64 {
            let got = c.read(&MemRef::host(1, 0x5000_0000 + i * 512), 256);
            assert_eq!(got, pattern(256, i as u8), "block {i}");
        }
    }

    #[test]
    fn async_transfers_from_distinct_nodes_overlap() {
        let mut c = TcaClusterBuilder::new(4).build();
        let len = 256 * 1024u64;
        let d01 = pattern(len as usize, 4);
        let d23 = pattern(len as usize, 5);
        c.write(&MemRef::host(0, 0x4000_0000), &d01);
        c.write(&MemRef::host(2, 0x4000_0000), &d23);
        let e1 = c.memcpy_peer_async(
            &MemRef::host(1, 0x5000_0000),
            &MemRef::host(0, 0x4000_0000),
            len,
        );
        let e2 = c.memcpy_peer_async(
            &MemRef::host(3, 0x5000_0000),
            &MemRef::host(2, 0x4000_0000),
            len,
        );
        let t0 = c.now();
        c.wait(e1);
        c.wait(e2);
        let both = c.now().since(t0);
        c.synchronize();
        assert_eq!(c.read(&MemRef::host(1, 0x5000_0000), len as usize), d01);
        assert_eq!(c.read(&MemRef::host(3, 0x5000_0000), len as usize), d23);
        // Overlap check: two concurrent transfers finish in well under 2x
        // one transfer's time.
        let mut c2 = TcaClusterBuilder::new(4).build();
        c2.write(&MemRef::host(0, 0x4000_0000), &d01);
        let solo = c2.memcpy_peer(
            &MemRef::host(1, 0x5000_0000),
            &MemRef::host(0, 0x4000_0000),
            len,
        );
        assert!(
            both.as_ns_f64() < 1.5 * solo.as_ns_f64(),
            "both={both} solo={solo}"
        );
    }

    #[test]
    fn back_to_back_async_puts_from_one_node_serialize() {
        // The first doorbell is still a TLP in flight when the second put
        // starts, so the chip reads idle; the second chain must wait for
        // the chip to see that doorbell instead of ringing into a busy DMAC.
        let mut c = TcaClusterBuilder::new(4).build();
        let len = 4096u64;
        let (d1, d2) = (pattern(len as usize, 6), pattern(len as usize, 7));
        c.write(&MemRef::host(0, 0x4000_0000), &d1);
        c.write(&MemRef::host(0, 0x4100_0000), &d2);
        let e1 = c.memcpy_peer_async(
            &MemRef::host(1, 0x5000_0000),
            &MemRef::host(0, 0x4000_0000),
            len,
        );
        let e2 = c.memcpy_peer_async(
            &MemRef::host(2, 0x5000_0000),
            &MemRef::host(0, 0x4100_0000),
            len,
        );
        c.wait(e1);
        c.wait(e2);
        // The second event completes only with the second run's interrupt.
        let chip = c.sub.chips[0];
        assert_eq!(c.fabric.device::<Peach2>(chip).runs.len(), 2);
        assert!(c.fabric.device::<Peach2>(chip).dma_idle());
        c.synchronize();
        assert_eq!(c.read(&MemRef::host(1, 0x5000_0000), len as usize), d1);
        assert_eq!(c.read(&MemRef::host(2, 0x5000_0000), len as usize), d2);
    }

    #[test]
    fn pio_put_short_message() {
        let mut c = TcaClusterBuilder::new(2).build();
        let dst = MemRef::host(1, 0x4200_0000);
        let d = c.pio_put(0, &dst, &[0xaa; 4]);
        assert_eq!(c.read(&dst, 4), vec![0xaa; 4]);
        // A 4-byte PIO put across one cable is sub-microsecond (§IV-B1).
        assert!(d < Dur::from_us(2), "d={d}");
    }

    #[test]
    fn pio_put_into_remote_gpu() {
        let mut c = TcaClusterBuilder::new(2).build();
        let a = c.alloc_gpu(1, 0, 4096);
        c.pio_put(0, &a.at(128), b"short message");
        assert_eq!(c.read(&a.at(128), 13), b"short message");
    }

    #[test]
    #[should_panic(expected = "not TCA-reachable")]
    fn gpu2_is_rejected_for_global_addressing() {
        let c = TcaClusterBuilder::new(2).build();
        let _ = c.global_addr(&MemRef::gpu(0, 2, 0));
    }

    #[test]
    #[should_panic(expected = "runs past")]
    fn transfer_crossing_block_boundary_rejected() {
        let mut c = TcaClusterBuilder::new(2).build();
        let block = c.sub.map.block_size();
        c.write(&MemRef::host(0, 0x4000_0000), &[1u8; 16]);
        let _ = c.memcpy_peer(
            &MemRef::host(1, block - 8),
            &MemRef::host(0, 0x4000_0000),
            16,
        );
    }

    #[test]
    fn global_addr_matches_map() {
        let c = TcaClusterBuilder::new(4).build();
        let m = MemRef::gpu(3, 1, 0x1000);
        let g = c.global_addr(&m);
        assert_eq!(c.sub.map.classify(g), Some((3, TcaBlock::Gpu1, 0x1000)));
    }
}

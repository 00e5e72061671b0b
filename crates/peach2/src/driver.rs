//! Host-side software: the PEACH2 driver and the P2P driver (§IV).
//!
//! The paper's evaluation uses two Linux kernel modules: the *PEACH2
//! driver* (board control, DMA buffer, descriptor tables, interrupt
//! handler, the TSC-based measurement) and the *P2P driver* (pins GPU pages
//! for GPUDirect RDMA). [`Peach2Driver`] models the former as harness-level
//! software driving the simulation; the P2P driver is the pinning flow on
//! [`tca_device::Gpu`].
//!
//! Measurement methodology reproduced from §IV-A: read the TSC just before
//! ringing the doorbell, and read it again inside the completion interrupt
//! handler; the difference is the reported transfer time.

use crate::chip::Peach2;
use crate::dma::{Descriptor, EngineKind, DESC_SIZE};
use crate::regs::{
    REG_DMA_DESC_ADDR, REG_DMA_DESC_COUNT, REG_DMA_DOORBELL, REG_DMA_ENGINE, REG_DMA_STATUS_ADDR,
};
use tca_device::map::{TcaBlock, TcaMap};
use tca_device::HostBridge;
use tca_pcie::{DeviceId, Fabric};
use tca_sim::{Dur, SimTime};

/// The host-resident driver state for one PEACH2 board.
#[derive(Clone, Copy, Debug)]
pub struct Peach2Driver {
    /// Sub-cluster map shared with the chip.
    pub map: TcaMap,
    /// TCA node id of the board.
    pub node: u32,
    /// The host bridge the board is attached to.
    pub host: DeviceId,
    /// The chip device.
    pub chip: DeviceId,
    /// Host DRAM address of the descriptor table (driver-allocated).
    pub desc_table: u64,
    /// Host DRAM address of the DMA status writeback word.
    pub status_addr: u64,
    /// Host DRAM address of the driver's DMA buffer ("A DMA buffer is
    /// prepared in the PEACH2 driver beforehand", §IV-A1).
    pub dma_buf: u64,
}

/// Result of one measured DMA run.
#[derive(Clone, Copy, Debug)]
pub struct DmaMeasurement {
    /// TSC-to-TSC window: doorbell store → interrupt handler entry.
    pub window: Dur,
    /// Payload bytes moved.
    pub bytes: u64,
}

impl DmaMeasurement {
    /// Bandwidth over the measured window, bytes/second.
    pub fn bandwidth(&self) -> f64 {
        self.bytes as f64 / self.window.as_s_f64()
    }
}

impl Peach2Driver {
    /// Creates driver state with default buffer placement.
    pub fn new(map: TcaMap, node: u32, host: DeviceId, chip: DeviceId) -> Self {
        Peach2Driver {
            map,
            node,
            host,
            chip,
            desc_table: 0x0100_0000,  // 16 MiB into host DRAM
            status_addr: 0x0200_0000, // status word
            dma_buf: 0x0400_0000,     // 64 MiB: driver DMA buffer
        }
    }

    /// Global TCA address of the board's register block.
    pub fn regs_base(&self) -> u64 {
        self.map.global_addr(self.node, TcaBlock::Internal, 0)
    }

    /// Global TCA address of SRAM offset `off` on this board.
    pub fn sram_addr(&self, off: u64) -> u64 {
        self.map.global_addr(
            self.node,
            TcaBlock::Internal,
            crate::regs::SRAM_OFFSET + off,
        )
    }

    /// One-time driver init: program the status writeback address.
    pub fn init(&self, fabric: &mut Fabric) {
        let base = self.regs_base();
        let status = self.status_addr;
        fabric.drive::<HostBridge, _>(self.host, |h, ctx| {
            h.core_mut()
                .cpu_store(base + REG_DMA_STATUS_ADDR, &status.to_le_bytes(), ctx);
        });
        fabric.run_until_idle();
    }

    /// Writes a descriptor table into host memory (driver-owned pages; a
    /// cached CPU write, so functional and instant).
    pub fn write_descriptors(&self, fabric: &mut Fabric, descs: &[Descriptor]) {
        assert!(
            !descs.is_empty() && descs.len() <= 255,
            "1..=255 descriptors"
        );
        let h = fabric.device_mut::<HostBridge>(self.host);
        for (i, d) in descs.iter().enumerate() {
            h.core_mut()
                .mem()
                .write(self.desc_table + i as u64 * DESC_SIZE, &d.encode());
        }
    }

    /// Programs table address/count/engine registers via PIO. No fabric
    /// drain is needed before the doorbell: posted writes on the
    /// host→board path deliver in order, so the register stores always
    /// land before a doorbell issued afterwards.
    pub fn program_dma(&self, fabric: &mut Fabric, count: u32, engine: EngineKind) {
        let base = self.regs_base();
        let table = self.desc_table;
        fabric.drive::<HostBridge, _>(self.host, |h, ctx| {
            let c = h.core_mut();
            c.cpu_store(base + REG_DMA_DESC_ADDR, &table.to_le_bytes(), ctx);
            c.cpu_store(base + REG_DMA_DESC_COUNT, &count.to_le_bytes(), ctx);
            c.cpu_store(base + REG_DMA_ENGINE, &(engine as u32).to_le_bytes(), ctx);
        });
    }

    /// Rings the doorbell; returns the doorbell-store instant (the first
    /// TSC read of the measurement). When span tracing is enabled this
    /// opens the `dma` root span the whole run records against; the root
    /// closes in the host's interrupt handler, so its duration is exactly
    /// the paper's TSC-to-TSC window.
    pub fn ring_doorbell(&self, fabric: &mut Fabric) -> SimTime {
        let base = self.regs_base();
        let t0 = fabric.now();
        let host_dev = self.host.0;
        let span = fabric.spans_mut().start_root("dma", t0, Some(host_dev));
        fabric.drive::<HostBridge, _>(self.host, |h, ctx| {
            h.core_mut()
                .cpu_store_traced(base + REG_DMA_DOORBELL, &1u32.to_le_bytes(), ctx, span);
        });
        t0
    }

    /// Runs a full measured DMA: write table, program registers, doorbell,
    /// run to completion, and report the TSC-to-TSC window ending at the
    /// interrupt-handler entry.
    pub fn run_dma(
        &self,
        fabric: &mut Fabric,
        descs: &[Descriptor],
        engine: EngineKind,
    ) -> DmaMeasurement {
        self.write_descriptors(fabric, descs);
        self.program_dma(fabric, descs.len() as u32, engine);
        let vector = fabric.device::<Peach2>(self.chip).params().dma_msi_vector;
        let irq_before = fabric
            .device::<HostBridge>(self.host)
            .core()
            .interrupt_count(vector);
        let t0 = self.ring_doorbell(fabric);
        fabric.run_until_idle();
        let core = fabric.device::<HostBridge>(self.host).core();
        assert_eq!(
            core.interrupt_count(vector),
            irq_before + 1,
            "DMA completion interrupt did not arrive"
        );
        let (_, handler_entry, _) = *core
            .interrupts()
            .iter()
            .rev()
            .find(|i| i.2 == vector)
            .expect("interrupt recorded");
        let bytes: u64 = descs.iter().map(|d| d.len).sum();
        let window = handler_entry.since(t0);
        // Instrument the run into the fabric-wide registry: the full
        // TSC-to-TSC window, and the interrupt latency alone (chip-side MSI
        // emission → host handler entry).
        let complete = fabric
            .device::<Peach2>(self.chip)
            .runs
            .last()
            .and_then(|r| r.complete)
            .expect("completed run has a completion time");
        let hub = fabric.metrics_mut();
        let h = hub.histogram(format!("peach2.driver.n{}.window_ns", self.node));
        hub.record_latency(h, window);
        let h = hub.histogram(format!("peach2.driver.n{}.irq_ns", self.node));
        hub.record_latency(h, handler_entry.since(complete));
        DmaMeasurement { window, bytes }
    }

    /// The two-phase node-to-node put forced by the legacy DMAC (§IV-B2):
    /// phase 1 DMA-reads the local source into the board's internal memory,
    /// phase 2 DMA-writes the internal memory to the remote destination.
    /// Returns the combined measured window.
    pub fn legacy_remote_put(
        &self,
        fabric: &mut Fabric,
        src_local: u64,
        dst_global: u64,
        len: u64,
    ) -> DmaMeasurement {
        let staging = self.sram_addr(0);
        let m1 = self.run_dma(
            fabric,
            &[Descriptor::new(src_local, staging, len)],
            EngineKind::Legacy,
        );
        let m2 = self.run_dma(
            fabric,
            &[Descriptor::new(staging, dst_global, len)],
            EngineKind::Legacy,
        );
        DmaMeasurement {
            window: m1.window + m2.window,
            bytes: len,
        }
    }

    /// Single-descriptor node-to-node put on the new pipelined DMAC.
    pub fn pipelined_remote_put(
        &self,
        fabric: &mut Fabric,
        src_local: u64,
        dst_global: u64,
        len: u64,
    ) -> DmaMeasurement {
        self.run_dma(
            fabric,
            &[Descriptor::new(src_local, dst_global, len)],
            EngineKind::Pipelined,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{build_ring, SubCluster};
    use tca_device::node::NodeConfig;
    use tca_pcie::AddrRange;

    fn rig(n: u32) -> (Fabric, SubCluster, Vec<Peach2Driver>) {
        let mut f = Fabric::new();
        let sc = build_ring(
            &mut f,
            n,
            &NodeConfig::default(),
            crate::Peach2Params::default(),
        );
        let drivers: Vec<_> = (0..n as usize)
            .map(|i| Peach2Driver::new(sc.map, i as u32, sc.nodes[i].host, sc.chips[i]))
            .collect();
        for d in &drivers {
            d.init(&mut f);
        }
        (f, sc, drivers)
    }

    #[test]
    fn dma_write_moves_sram_to_host_dram() {
        let (mut f, sc, drv) = rig(2);
        let d = &drv[0];
        // Fill 4 KiB of board 0's SRAM, then DMA-write it to the host DMA buffer.
        f.device_mut::<Peach2>(sc.chips[0])
            .sram_mut()
            .fill_pattern(0, 4096, 0x11);
        let m = d.run_dma(
            &mut f,
            &[Descriptor::new(d.sram_addr(0), d.dma_buf, 4096)],
            EngineKind::Legacy,
        );
        assert_eq!(m.bytes, 4096);
        assert!(m.window > Dur::ZERO);
        let host = f.device::<HostBridge>(sc.nodes[0].host).core();
        let mut copy = tca_pcie::PageMemory::new();
        copy.write(0, &host.mem_ref().read(d.dma_buf, 4096));
        assert!(copy.verify_pattern(0, 4096, 0x11).is_ok());
    }

    #[test]
    fn dma_read_moves_host_dram_to_sram() {
        let (mut f, sc, drv) = rig(2);
        let d = &drv[0];
        f.device_mut::<HostBridge>(sc.nodes[0].host)
            .core_mut()
            .mem()
            .fill_pattern(d.dma_buf, 8192, 0x22);
        let m = d.run_dma(
            &mut f,
            &[Descriptor::new(d.dma_buf, d.sram_addr(0x2000), 8192)],
            EngineKind::Legacy,
        );
        assert_eq!(m.bytes, 8192);
        let chip = f.device::<Peach2>(sc.chips[0]);
        let data = chip.sram().read(0x2000, 8192);
        let mut copy = tca_pcie::PageMemory::new();
        copy.write(d.dma_buf, &data);
        assert!(copy.verify_pattern(d.dma_buf, 8192, 0x22).is_ok());
    }

    #[test]
    fn chained_dma_moves_all_descriptors() {
        let (mut f, sc, drv) = rig(2);
        let d = &drv[0];
        f.device_mut::<Peach2>(sc.chips[0])
            .sram_mut()
            .fill_pattern(0, 16 * 1024, 0x33);
        let descs: Vec<_> = (0..16u64)
            .map(|i| Descriptor::new(d.sram_addr(i * 1024), d.dma_buf + i * 1024, 1024))
            .collect();
        let m = d.run_dma(&mut f, &descs, EngineKind::Legacy);
        assert_eq!(m.bytes, 16 * 1024);
        let host = f.device::<HostBridge>(sc.nodes[0].host).core();
        let mut copy = tca_pcie::PageMemory::new();
        copy.write(0, &host.mem_ref().read(d.dma_buf, 16 * 1024));
        assert!(copy.verify_pattern(0, 16 * 1024, 0x33).is_ok());
    }

    #[test]
    fn chaining_amortizes_activation_overhead() {
        // Fig. 7 vs Fig. 8: 16 chained 4 KiB descriptors must be much
        // faster than 16 separate single-descriptor runs.
        let (mut f, sc, drv) = rig(2);
        let d = &drv[0];
        f.device_mut::<Peach2>(sc.chips[0])
            .sram_mut()
            .fill_pattern(0, 64 * 1024, 0x44);
        let descs: Vec<_> = (0..16u64)
            .map(|i| Descriptor::new(d.sram_addr(i * 4096), d.dma_buf + i * 4096, 4096))
            .collect();
        let chained = d.run_dma(&mut f, &descs, EngineKind::Legacy);
        let mut single_total = Dur::ZERO;
        for desc in &descs {
            single_total += d.run_dma(&mut f, &[*desc], EngineKind::Legacy).window;
        }
        assert!(
            single_total.as_ns_f64() > 1.8 * chained.window.as_ns_f64(),
            "chained={} singles={}",
            chained.window,
            single_total
        );
    }

    #[test]
    fn remote_dma_write_reaches_adjacent_node() {
        let (mut f, sc, drv) = rig(4);
        let d = &drv[0];
        f.device_mut::<Peach2>(sc.chips[0])
            .sram_mut()
            .fill_pattern(0, 4096, 0x55);
        let dst = sc.map.global_addr(1, TcaBlock::Host, 0x5_0000);
        let m = d.run_dma(
            &mut f,
            &[Descriptor::new(d.sram_addr(0), dst, 4096)],
            EngineKind::Legacy,
        );
        assert_eq!(m.bytes, 4096);
        let host1 = f.device::<HostBridge>(sc.nodes[1].host).core();
        let mut copy = tca_pcie::PageMemory::new();
        copy.write(0, &host1.mem_ref().read(0x5_0000, 4096));
        assert!(copy.verify_pattern(0, 4096, 0x55).is_ok());
    }

    #[test]
    fn legacy_two_phase_vs_pipelined_put() {
        let (mut f, sc, drv) = rig(2);
        let d = &drv[0];
        let len = 64 * 1024u64;
        f.device_mut::<HostBridge>(sc.nodes[0].host)
            .core_mut()
            .mem()
            .fill_pattern(d.dma_buf, len, 0x66);
        let dst = sc.map.global_addr(1, TcaBlock::Host, 0x10_0000);
        let legacy = d.legacy_remote_put(&mut f, d.dma_buf, dst, len);
        // Verify delivery.
        {
            let host1 = f.device::<HostBridge>(sc.nodes[1].host).core();
            let data = host1.mem_ref().read(0x10_0000, len as usize);
            let mut copy = tca_pcie::PageMemory::new();
            copy.write(d.dma_buf, &data);
            assert!(copy.verify_pattern(d.dma_buf, len, 0x66).is_ok());
        }
        let dst2 = sc.map.global_addr(1, TcaBlock::Host, 0x20_0000);
        let piped = d.pipelined_remote_put(&mut f, d.dma_buf, dst2, len);
        {
            let host1 = f.device::<HostBridge>(sc.nodes[1].host).core();
            let data = host1.mem_ref().read(0x20_0000, len as usize);
            let mut copy = tca_pcie::PageMemory::new();
            copy.write(d.dma_buf, &data);
            assert!(copy.verify_pattern(d.dma_buf, len, 0x66).is_ok());
        }
        // §IV-B2: the two-phase procedure "seriously impacts the
        // performance"; the pipelined engine must be substantially faster.
        assert!(
            legacy.window.as_ns_f64() > 1.5 * piped.window.as_ns_f64(),
            "legacy={} pipelined={}",
            legacy.window,
            piped.window
        );
    }

    #[test]
    fn chip_histogram_tracks_run_windows() {
        let (mut f, sc, drv) = rig(2);
        let d = &drv[0];
        f.device_mut::<Peach2>(sc.chips[0])
            .sram_mut()
            .fill_pattern(0, 4096, 1);
        for _ in 0..4 {
            d.run_dma(
                &mut f,
                &[Descriptor::new(d.sram_addr(0), d.dma_buf, 4096)],
                EngineKind::Legacy,
            );
        }
        let h = &f.device::<Peach2>(sc.chips[0]).dma_window_hist;
        assert_eq!(h.count(), 4);
        assert!(h.mean_ns() > 1000.0, "{}", h);
        assert!(h.percentile_ns(1.0) >= h.mean_ns());
    }

    #[test]
    fn status_writeback_lands_in_host_memory() {
        let (mut f, sc, drv) = rig(2);
        let d = &drv[0];
        f.device_mut::<Peach2>(sc.chips[0])
            .sram_mut()
            .fill_pattern(0, 256, 0);
        let watch = f
            .device_mut::<HostBridge>(sc.nodes[0].host)
            .core_mut()
            .add_watch(AddrRange::new(d.status_addr, 4));
        d.run_dma(
            &mut f,
            &[Descriptor::new(d.sram_addr(0), d.dma_buf, 256)],
            EngineKind::Legacy,
        );
        let core = f.device::<HostBridge>(sc.nodes[0].host).core();
        assert_eq!(core.mem_ref().read_u32(d.status_addr), 1, "run counter");
        assert_eq!(core.watch_hits(watch).len(), 1);
    }

    #[test]
    fn nios_reads_live_link_counters() {
        use crate::nios::{MGMT_PORT_STRIDE, MGMT_REPLAYS, MGMT_TLPS_FWD};
        let (mut f, sc, drv) = rig(4);
        let d = &drv[0];
        f.device_mut::<Peach2>(sc.chips[0])
            .sram_mut()
            .fill_pattern(0, 4096, 0x55);
        let dst = sc.map.global_addr(1, TcaBlock::Host, 0x5_0000);
        d.run_dma(
            &mut f,
            &[Descriptor::new(d.sram_addr(0), dst, 4096)],
            EngineKind::Legacy,
        );
        crate::chip::sync_nios_link_stats(&mut f, sc.chips[0]);
        let chip = f.device::<Peach2>(sc.chips[0]);
        let n = chip.nios();
        // The write stream to node 1 left through port E; the sync must
        // surface the fabric's transmit counters there.
        let east = n.link_stats(crate::PORT_E.0);
        assert!(east.tlps_forwarded > 0, "{east:?}");
        assert_eq!(east.replays, 0);
        // And management register reads return the same live values.
        let base = crate::PORT_E.0 as u64 * MGMT_PORT_STRIDE;
        assert_eq!(n.read_reg(base + MGMT_TLPS_FWD), east.tlps_forwarded);
        assert_eq!(n.read_reg(base + MGMT_REPLAYS), east.replays);
    }

    #[test]
    fn chip_metrics_publish_idempotently() {
        use tca_sim::MetricValue;
        let (mut f, sc, drv) = rig(2);
        let d = &drv[0];
        f.device_mut::<Peach2>(sc.chips[0])
            .sram_mut()
            .fill_pattern(0, 4096, 1);
        for _ in 0..3 {
            d.run_dma(
                &mut f,
                &[Descriptor::new(d.sram_addr(0), d.dma_buf, 4096)],
                EngineKind::Legacy,
            );
        }
        let s1 = f.metrics_snapshot();
        // A second snapshot re-runs every publish_metrics; nothing may
        // double-count.
        let s2 = f.metrics_snapshot();
        assert_eq!(s1.to_json(), s2.to_json());
        assert_eq!(s1.counter("peach2.n0.dma.runs"), Some(3));
        assert_eq!(s1.counter("peach2.n0.dma.bytes"), Some(3 * 4096));
        assert_eq!(s1.counter("peach2.n0.dma.descriptors"), Some(3));
        assert!(s1.counter("peach2.n0.dma.engine_busy_ns").unwrap() > 0);
        match s1.get("peach2.n0.dma.desc_fetch_ns") {
            Some(MetricValue::Histogram { count, mean_ns, .. }) => {
                assert_eq!(*count, 3);
                assert!(*mean_ns > 0.0);
            }
            other => panic!("unexpected {other:?}"),
        }
        match s1.get("peach2.n0.dma.chain_len") {
            Some(MetricValue::Gauge { current, peak }) => {
                assert_eq!((*current, *peak), (1, 1));
            }
            other => panic!("unexpected {other:?}"),
        }
        match s1.get("peach2.driver.n0.irq_ns") {
            Some(MetricValue::Histogram { count, .. }) => assert_eq!(*count, 3),
            other => panic!("unexpected {other:?}"),
        }
        // Port-N traffic (descriptor fetches, completions, writes) showed
        // up in the per-port NIOS counters.
        assert!(s1.counter("peach2.n0.port.n.ingress").unwrap() > 0);
        assert!(s1.counter("peach2.n0.port.n.egress").unwrap() > 0);
    }

    #[test]
    fn published_run_totals_agree_with_the_run_log() {
        use tca_sim::MetricValue;
        let (mut f, sc, drv) = rig(2);
        let d = &drv[0];
        for chain in [3u64, 1, 2] {
            let descs: Vec<Descriptor> = (0..chain)
                .map(|i| Descriptor::new(d.sram_addr(i * 1024), d.dma_buf + i * 1024, 512))
                .collect();
            d.run_dma(&mut f, &descs, EngineKind::Legacy);
        }
        let s = f.metrics_snapshot();
        let runs = &f.device::<Peach2>(sc.chips[0]).runs;
        let done = || runs.iter().filter(|r| r.complete.is_some());
        let busy_ps: u64 = done()
            .map(|r| r.complete.unwrap().since(r.doorbell).as_ps())
            .sum();
        assert_eq!(s.counter("peach2.n0.dma.runs"), Some(done().count() as u64));
        assert_eq!(
            s.counter("peach2.n0.dma.bytes"),
            Some(done().map(|r| r.bytes).sum())
        );
        assert_eq!(s.counter("peach2.n0.dma.descriptors"), Some(6));
        assert_eq!(
            s.counter("peach2.n0.dma.engine_busy_ns"),
            Some(busy_ps / 1_000)
        );
        match s.get("peach2.n0.dma.chain_len") {
            Some(MetricValue::Gauge { current, peak }) => assert_eq!((*current, *peak), (2, 3)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn dma_to_pinned_gpu_memory() {
        use tca_device::Gpu;
        let (mut f, sc, drv) = rig(2);
        let d = &drv[0];
        let gpu_pcie = {
            let g = f.device_mut::<Gpu>(sc.nodes[0].gpus[0]);
            let a = g.alloc(4096);
            let t = g.p2p_token(a, 4096);
            g.pin(a, 4096, t)
        };
        f.device_mut::<Peach2>(sc.chips[0])
            .sram_mut()
            .fill_pattern(0, 4096, 0x77);
        let m = d.run_dma(
            &mut f,
            &[Descriptor::new(d.sram_addr(0), gpu_pcie, 4096)],
            EngineKind::Legacy,
        );
        assert_eq!(m.bytes, 4096);
        let g = f.device::<Gpu>(sc.nodes[0].gpus[0]);
        let data = g.gddr_ref().read(0, 4096);
        let mut copy = tca_pcie::PageMemory::new();
        copy.write(0, &data);
        assert!(copy.verify_pattern(0, 4096, 0x77).is_ok());
    }

    #[test]
    fn gpu_dma_read_is_translation_limited() {
        use tca_device::Gpu;
        let (mut f, sc, drv) = rig(2);
        let d = &drv[0];
        let len = 64 * 1024u64;
        let gpu_pcie = {
            let g = f.device_mut::<Gpu>(sc.nodes[0].gpus[0]);
            let a = g.alloc(len);
            g.gddr().fill_pattern(a, len, 0x88);
            let t = g.p2p_token(a, len);
            g.pin(a, len, t)
        };
        let m = d.run_dma(
            &mut f,
            &[Descriptor::new(gpu_pcie, d.sram_addr(0), len)],
            EngineKind::Legacy,
        );
        let bw = m.bandwidth();
        // §IV-A2: DMA read from GPU memory ≈ 830 MB/s ceiling.
        assert!(bw < 850e6, "bw={bw:.3e}");
        assert!(bw > 400e6, "bw={bw:.3e}");
        let chip = f.device::<Peach2>(sc.chips[0]);
        let mut copy = tca_pcie::PageMemory::new();
        copy.write(0, &chip.sram().read(0, len as usize));
        assert!(copy.verify_pattern(0, len, 0x88).is_ok());
    }
}

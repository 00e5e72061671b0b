//! The PEACH2 chip device.
//!
//! Four PCIe Gen2 x8 ports (§III-D): port **N** is always the host
//! connection; **E**/**W** form the ring (fixed EP/RC roles); **S** couples
//! two rings. The chip relays TLPs between ports with a register-programmed
//! address router (no tables, no translation except at port N, §III-E), and
//! contains the chaining DMA controller (§III-F2) plus the pipelined
//! next-generation DMAC the paper announces in §IV-B2.
//!
//! Everything performance-relevant is evented: descriptor fetches are real
//! PCIe reads of the in-host-memory table (the Fig. 8/9 overhead), write
//! streams are paced at wire rate, read streams are bounded by the engine's
//! tag pool, relays pay `chip_transit`, and the port-N translation pays
//! `port_n_translate`.

use crate::dma::{Descriptor, EngineKind, DESC_SIZE};
use crate::nios::{Nios, PortLinkStats, PortRole};
use crate::params::Peach2Params;
use crate::regs::{RegEffect, RegError, RegFile, RouteRule, SRAM_OFFSET};
use std::collections::{HashMap, VecDeque};
use tca_device::map::{gpu_bar, TcaBlock, TcaMap};
use tca_pcie::{
    Ctx, Device, DeviceId, Fabric, PageMemory, PortIdx, ReadReassembly, TagPool, Tlp, TlpKind,
};
use tca_sim::{
    Counter, CounterId, Dur, GaugeId, HistogramId, LatencyHistogram, MetricsHub, SimTime, TraceCtx,
    TraceLevel,
};

/// Port N: host connection (always, §III-D).
pub const PORT_N: PortIdx = PortIdx(0);
/// Port E: ring link, fixed EP role.
pub const PORT_E: PortIdx = PortIdx(1);
/// Port W: ring link, fixed RC role.
pub const PORT_W: PortIdx = PortIdx(2);
/// Port S: ring-coupling link, role selectable (RC/EP).
pub const PORT_S: PortIdx = PortIdx(3);

// Timer tag kinds.
const T_ENGINE_START: u64 = 1 << 56;
const T_DESC_DECODE: u64 = 2 << 56;
const T_WCHUNK: u64 = 3 << 56;
const T_DESC_GAP: u64 = 4 << 56;
const T_FLUSH: u64 = 5 << 56;
const T_FWD: u64 = 6 << 56;
const T_RECONFIG: u64 = 7 << 56;
const KIND_MASK: u64 = 0xff << 56;

/// Completion record of one DMA run, for chip-side accounting (the paper's
/// measurements are host-side: doorbell TSC → interrupt-handler TSC).
#[derive(Clone, Copy, Debug)]
pub struct DmaRunRecord {
    /// Doorbell decode time.
    pub doorbell: SimTime,
    /// MSI emission time (`None` while running).
    pub complete: Option<SimTime>,
    /// Total payload bytes moved.
    pub bytes: u64,
    /// Descriptor count of the run.
    pub descriptors: u32,
}

/// Running totals over completed DMA runs, folded in once per completion
/// so publishing metrics never rescans the [`Peach2::runs`] history.
#[derive(Clone, Copy, Debug, Default)]
struct RunTotals {
    runs: u64,
    bytes: u64,
    descriptors: u64,
    /// Sum of doorbell→completion windows.
    busy: Dur,
    longest_chain: u32,
    last_chain: u32,
}

impl RunTotals {
    fn add(&mut self, run: &DmaRunRecord, complete: SimTime) {
        self.runs += 1;
        self.bytes += run.bytes;
        self.descriptors += u64::from(run.descriptors);
        self.busy += complete.since(run.doorbell);
        self.longest_chain = self.longest_chain.max(run.descriptors);
        self.last_chain = run.descriptors;
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Phase {
    Idle,
    Starting,
    Active,
    Flushing,
}

#[derive(Clone, Copy, Debug)]
struct ReadChunk {
    desc: u32,
    src: u64,
    /// SRAM offset (staging) or global/local destination (pipelined).
    dst: u64,
    len: u32,
    /// Pipelined engine: forward each completion as a write immediately.
    write_out: bool,
}

struct DataRead {
    chunk: ReadChunk,
    received: u32,
    /// Issue time, for the per-chunk `dma_read` span segment.
    issued: SimTime,
}

struct DmaState {
    phase: Phase,
    engine: EngineKind,
    count: u32,
    descs: Vec<Option<Descriptor>>,
    /// Next descriptor index to fetch.
    fetch_next: u32,
    /// In-flight descriptor-table reads: tag → (index, issue time,
    /// reassembly). The issue time feeds the fetch-latency histogram.
    fetch_reasm: HashMap<u16, (u32, SimTime, ReadReassembly)>,
    issue_idx: u32,
    waiting_for_desc: bool,
    /// Current write-descriptor progress.
    wr_off: u64,
    read_q: VecDeque<ReadChunk>,
    data_reads: HashMap<u16, DataRead>,
    desc_remaining: Vec<u64>,
    descs_done: u32,
    issue_done: bool,
    /// Legacy engine: the current read descriptor's data must fully arrive
    /// before the chain advances (the engine is descriptor-serial on the
    /// completion path — why DMA read lags DMA write in Fig. 7).
    issue_waiting_data: bool,
    tags: TagPool,
    /// Pipelined engine: bytes between read issue and write emission.
    fifo_in_flight: u64,
    run_bytes: u64,
    /// Reliable-link retirement delay carried into the next descriptor's
    /// decode (never absorbed by the descriptor prefetch).
    pending_ack: tca_sim::Dur,
    /// Causal span of the run, carried in on the doorbell TLP. Every
    /// engine stage and every packet the run emits is recorded against it.
    span: Option<TraceCtx>,
    /// When the current descriptor began issuing (for stage segments).
    issue_start: SimTime,
}

impl DmaState {
    fn new(tags: u16) -> Self {
        DmaState {
            phase: Phase::Idle,
            engine: EngineKind::Legacy,
            count: 0,
            descs: Vec::new(),
            fetch_next: 0,
            fetch_reasm: HashMap::new(),
            issue_idx: 0,
            waiting_for_desc: false,
            wr_off: 0,
            read_q: VecDeque::new(),
            data_reads: HashMap::new(),
            desc_remaining: Vec::new(),
            descs_done: 0,
            issue_done: false,
            issue_waiting_data: false,
            tags: TagPool::new(tags),
            fifo_in_flight: 0,
            run_bytes: 0,
            pending_ack: tca_sim::Dur::ZERO,
            span: None,
            issue_start: SimTime::ZERO,
        }
    }
}

/// Cached [`MetricsHub`] ids for [`Peach2`]'s publication path:
/// registered once on the first `publish_metrics` call, then reused, so
/// repeated snapshots neither format metric names nor probe the hub's
/// string index. Host-side state only — invisible to the event stream.
#[derive(Clone, Copy)]
struct ChipMetricIds {
    relayed: CounterId,
    dma_runs: CounterId,
    dma_bytes: CounterId,
    dma_descriptors: CounterId,
    dma_engine_busy_ns: CounterId,
    dma_chain_len: GaugeId,
    dma_window_ns: HistogramId,
    dma_desc_fetch_ns: HistogramId,
    /// Per-port ingress/egress counters in N/E/W/S order.
    port_ingress: [CounterId; 4],
    port_egress: [CounterId; 4],
    dma_read_q_depth: GaugeId,
    dma_engine_active: GaugeId,
}

impl ChipMetricIds {
    fn register(name: &str, hub: &mut MetricsHub) -> ChipMetricIds {
        let mut port = |p: &str, kind: &str| hub.counter(format!("{name}.port.{p}.{kind}"));
        let port_ingress = [
            port("n", "ingress"),
            port("e", "ingress"),
            port("w", "ingress"),
            port("s", "ingress"),
        ];
        let port_egress = [
            port("n", "egress"),
            port("e", "egress"),
            port("w", "egress"),
            port("s", "egress"),
        ];
        ChipMetricIds {
            relayed: hub.counter(format!("{name}.relayed")),
            dma_runs: hub.counter(format!("{name}.dma.runs")),
            dma_bytes: hub.counter(format!("{name}.dma.bytes")),
            dma_descriptors: hub.counter(format!("{name}.dma.descriptors")),
            dma_engine_busy_ns: hub.counter(format!("{name}.dma.engine_busy_ns")),
            dma_chain_len: hub.gauge(format!("{name}.dma.chain_len")),
            dma_window_ns: hub.histogram(format!("{name}.dma.window_ns")),
            dma_desc_fetch_ns: hub.histogram(format!("{name}.dma.desc_fetch_ns")),
            port_ingress,
            port_egress,
            dma_read_q_depth: hub.gauge(format!("{name}.dma.read_q_depth")),
            dma_engine_active: hub.gauge(format!("{name}.dma.engine_active")),
        }
    }
}

/// One PEACH2 chip.
pub struct Peach2 {
    id: DeviceId,
    name: String,
    params: Peach2Params,
    map: TcaMap,
    regs: RegFile,
    sram: PageMemory,
    dma: DmaState,
    /// Local DRAM address backing offset 0 of this node's Host block.
    host_window_base: u64,
    pending_fwd: Vec<Option<(PortIdx, Tlp)>>,
    fwd_free: Vec<usize>,
    /// Packets relayed between ports (not terminated here).
    pub relayed: Counter,
    /// Malformed register accesses observed (stores dropped); surfaced by
    /// `tca-verify` as diagnostics.
    reg_errors: Vec<RegError>,
    /// Completed and in-progress DMA runs.
    pub runs: Vec<DmaRunRecord>,
    /// Totals over the completed entries of `runs`.
    run_totals: RunTotals,
    /// Distribution of doorbell→completion windows across runs.
    pub dma_window_hist: LatencyHistogram,
    /// Distribution of descriptor-table fetch latencies (read issued on
    /// port N → descriptor fully reassembled) — the Fig. 8/9 overhead.
    pub desc_fetch_hist: LatencyHistogram,
    /// The NIOS management microcontroller (§III-D).
    nios: Nios,
    /// Metric ids cached on first publish (see [`ChipMetricIds`]).
    metric_ids: Option<ChipMetricIds>,
}

impl Peach2 {
    /// Creates a chip for `node_id` within a `map`-sized sub-cluster.
    pub fn new(
        id: DeviceId,
        name: impl Into<String>,
        node_id: u32,
        map: TcaMap,
        params: Peach2Params,
    ) -> Self {
        let regs = RegFile {
            node_id,
            ..RegFile::default()
        };
        Peach2 {
            id,
            name: name.into(),
            dma: DmaState::new(params.dma_tags),
            params,
            map,
            regs,
            sram: PageMemory::new(),
            host_window_base: 0,
            pending_fwd: Vec::new(),
            fwd_free: Vec::new(),
            relayed: Counter::new(),
            reg_errors: Vec::new(),
            runs: Vec::new(),
            run_totals: RunTotals::default(),
            dma_window_hist: LatencyHistogram::new(),
            desc_fetch_hist: LatencyHistogram::new(),
            nios: Nios::default(),
            metric_ids: None,
        }
    }

    /// Management (NIOS) interface, read-only.
    pub fn nios(&self) -> &Nios {
        &self.nios
    }

    /// Management (NIOS) interface, for operators/topology builders.
    pub fn nios_mut(&mut self) -> &mut Nios {
        &mut self.nios
    }

    /// Issues a dynamic role switch for port S (paper future work,
    /// §III-D): the port goes down for the partial-reconfiguration time
    /// and returns with the new role. Traffic routed through S while it is
    /// down is an operator error and panics.
    pub fn reconfigure_port_s(&mut self, role: PortRole, ctx: &mut Ctx<'_>) {
        self.nios.begin_reconfig(PORT_S.0, role, ctx.now());
        ctx.timer_in(self.nios.reconfig_time, T_RECONFIG);
    }

    /// The sub-cluster map this chip is programmed with.
    pub fn map(&self) -> TcaMap {
        self.map
    }

    /// The chip's node id.
    pub fn node_id(&self) -> u32 {
        self.regs.node_id
    }

    /// Chip parameters.
    pub fn params(&self) -> &Peach2Params {
        &self.params
    }

    /// Register file (tests & topology builders program routes directly;
    /// drivers do the same thing with PIO stores).
    pub fn regs_mut(&mut self) -> &mut RegFile {
        &mut self.regs
    }

    /// Read-only register file access.
    pub fn regs(&self) -> &RegFile {
        &self.regs
    }

    /// Malformed register accesses observed while running (each one a
    /// dropped store), in occurrence order. Empty on a correct driver.
    pub fn reg_errors(&self) -> &[RegError] {
        &self.reg_errors
    }

    /// Direct access to the internal SRAM/DDR3 staging memory (offset space
    /// starting at 0 == Internal block offset [`SRAM_OFFSET`]).
    pub fn sram_mut(&mut self) -> &mut PageMemory {
        &mut self.sram
    }

    /// Immutable SRAM access.
    pub fn sram(&self) -> &PageMemory {
        &self.sram
    }

    /// Global TCA address of this chip's SRAM offset `off`.
    pub fn sram_global_addr(&self, off: u64) -> u64 {
        self.map
            .global_addr(self.regs.node_id, TcaBlock::Internal, SRAM_OFFSET + off)
    }

    /// Whether the DMA engine is idle.
    pub fn dma_idle(&self) -> bool {
        self.dma.phase == Phase::Idle
    }

    // ------------------------------------------------------------------
    // Address handling
    // ------------------------------------------------------------------

    /// Translates an own-slice global address to the node-local address
    /// (the port-N address conversion of §III-E): base/offset arithmetic
    /// only, as in the hardware.
    fn translate_own(&self, block: TcaBlock, off: u64) -> u64 {
        match block {
            TcaBlock::Gpu0 => gpu_bar(0).base() + off,
            TcaBlock::Gpu1 => gpu_bar(1).base() + off,
            TcaBlock::Host => self.host_window_base + off,
            TcaBlock::Internal => unreachable!("internal addresses terminate in the chip"),
        }
    }

    /// Resolves a DMA source/destination to a node-local PCIe address,
    /// rejecting remote reads (PEACH2 supports only RDMA put, §III-F).
    #[track_caller]
    fn resolve_local(&self, addr: u64, what: &str) -> u64 {
        match self.map.classify(addr) {
            None => addr, // already node-local (DRAM, GPU BAR)
            Some((node, block, off)) if node == self.regs.node_id => match block {
                TcaBlock::Internal => panic!("{what}: use SRAM paths for internal addresses"),
                b => self.translate_own(b, off),
            },
            Some((node, ..)) => panic!(
                "{}: {what} {addr:#x} is on remote node {node}; \
                 remote reads (RDMA get) are not supported by PEARL",
                self.name
            ),
        }
    }

    /// Schedules a relayed packet out of `port` after the chip transit /
    /// translation delay.
    fn forward_after(&mut self, delay: tca_sim::Dur, port: PortIdx, tlp: Tlp, ctx: &mut Ctx<'_>) {
        let slot = if let Some(s) = self.fwd_free.pop() {
            self.pending_fwd[s] = Some((port, tlp));
            s
        } else {
            self.pending_fwd.push(Some((port, tlp)));
            self.pending_fwd.len() - 1
        };
        ctx.timer_in(delay, T_FWD | slot as u64);
    }

    /// Emits a DMA-engine write to `addr` (any byte count ≤ MPS), routing
    /// it like the hardware: own slice → translate → port N; other slice →
    /// routing registers → E/W/S; non-window → port N as-is.
    fn emit_write(&mut self, addr: u64, data: Vec<u8>, ctx: &mut Ctx<'_>) {
        let span = self.dma.span;
        match self.map.classify(addr) {
            Some((node, block, off)) if node == self.regs.node_id => {
                if block == TcaBlock::Internal {
                    // Local staging write (pipelined engine looping back).
                    assert!(off >= SRAM_OFFSET, "DMA write into register block");
                    self.sram.write(off - SRAM_OFFSET, &data);
                } else {
                    let local = self.translate_own(block, off);
                    ctx.send(PORT_N, Tlp::write(local, data).with_span(span));
                }
            }
            Some(_) => {
                let port = self
                    .regs
                    .route(addr)
                    .unwrap_or_else(|| panic!("{}: no route for {addr:#x}", self.name));
                self.nios.count_egress(port.0);
                ctx.send(port, Tlp::write(addr, data).with_span(span));
            }
            None => {
                self.nios.count_egress(PORT_N.0);
                ctx.send(PORT_N, Tlp::write(addr, data).with_span(span));
            }
        }
    }

    // ------------------------------------------------------------------
    // DMA engine
    // ------------------------------------------------------------------

    fn doorbell(&mut self, span: Option<TraceCtx>, ctx: &mut Ctx<'_>) {
        assert_eq!(
            self.dma.phase,
            Phase::Idle,
            "{}: doorbell while DMA busy",
            self.name
        );
        let tags = self.params.dma_tags;
        self.dma = DmaState::new(tags);
        self.dma.span = span;
        if let Some(sp) = span {
            let now = ctx.now();
            let end = now + self.params.engine_start;
            ctx.spans()
                .segment(sp, "engine_start", now, end, Some(self.id.0));
        }
        self.dma.phase = Phase::Starting;
        self.dma.engine = EngineKind::from_u32(self.regs.dma_engine);
        self.dma.count = self.regs.dma_desc_count;
        assert!(self.dma.count > 0, "doorbell with zero descriptors");
        self.runs.push(DmaRunRecord {
            doorbell: ctx.now(),
            complete: None,
            bytes: 0,
            descriptors: self.dma.count,
        });
        ctx.trace(TraceLevel::Txn, || {
            format!(
                "{}: DMA start, {} descriptors",
                self.name, self.regs.dma_desc_count
            )
        });
        ctx.timer_in(self.params.engine_start, T_ENGINE_START);
    }

    fn engine_begin(&mut self, ctx: &mut Ctx<'_>) {
        self.dma.descs = vec![None; self.dma.count as usize];
        self.dma.desc_remaining = vec![u64::MAX; self.dma.count as usize];
        self.dma.phase = Phase::Active;
        self.dma.waiting_for_desc = true;
        self.fetch_descriptor(ctx);
    }

    /// Issues the next descriptor-table read (32 bytes from host memory).
    fn fetch_descriptor(&mut self, ctx: &mut Ctx<'_>) {
        if self.dma.fetch_next >= self.dma.count {
            return;
        }
        let Some(tag) = self.dma.tags.alloc() else {
            return; // retried when a tag frees
        };
        let idx = self.dma.fetch_next;
        self.dma.fetch_next += 1;
        let addr = self.regs.dma_desc_addr + idx as u64 * DESC_SIZE;
        self.dma.fetch_reasm.insert(
            tag.0,
            (idx, ctx.now(), ReadReassembly::new(DESC_SIZE as usize)),
        );
        ctx.send(
            PORT_N,
            Tlp::read(addr, DESC_SIZE as u32, tag, self.id).with_span(self.dma.span),
        );
    }

    fn begin_issue(&mut self, ctx: &mut Ctx<'_>) {
        self.dma.issue_start = ctx.now();
        let idx = self.dma.issue_idx;
        let d = self.dma.descs[idx as usize].expect("descriptor not fetched");
        // Prefetch the next descriptor while this one transfers — the
        // chaining mechanism that makes Fig. 7 ≫ Fig. 8.
        if self.dma.fetch_next == idx + 1 {
            self.fetch_descriptor(ctx);
        }
        let own_internal = self.map.block(self.regs.node_id, TcaBlock::Internal);
        match self.dma.engine {
            EngineKind::Legacy => {
                if own_internal.contains(d.src) {
                    // DMA write: internal memory → CPU/GPU (local or remote).
                    self.dma.desc_remaining[idx as usize] = 0;
                    self.dma.wr_off = 0;
                    ctx.timer_in(tca_sim::Dur::ZERO, T_WCHUNK);
                } else if own_internal.contains(d.dst) {
                    // DMA read: CPU/GPU → internal memory. The legacy
                    // engine advances only once this descriptor's data has
                    // fully returned.
                    self.queue_reads(idx, d, /*write_out=*/ false);
                    self.dma.issue_waiting_data = true;
                    self.pump_reads(ctx);
                } else {
                    panic!(
                        "{}: legacy DMAC requires the internal memory as \
                         DMA-write source or DMA-read destination (§IV-B2); \
                         descriptor {idx} has src={:#x} dst={:#x}",
                        self.name, d.src, d.dst
                    );
                }
            }
            EngineKind::Pipelined => {
                // New DMAC: read local source and write (possibly remote)
                // destination simultaneously, one descriptor end-to-end.
                self.queue_reads(idx, d, /*write_out=*/ true);
                self.pump_reads(ctx);
                self.finish_issue(ctx);
            }
        }
    }

    fn queue_reads(&mut self, idx: u32, d: Descriptor, write_out: bool) {
        let src_local = self.resolve_local(d.src, "DMA source");
        let dst = if write_out {
            d.dst
        } else {
            // Staging destination: SRAM offset.
            let own_internal = self.map.block(self.regs.node_id, TcaBlock::Internal);
            let off = own_internal.offset_of(d.dst);
            assert!(off >= SRAM_OFFSET, "DMA read into register block");
            off - SRAM_OFFSET
        };
        self.dma.desc_remaining[idx as usize] = d.len;
        let mrrs = self.params.host_link.max_read_request as u64;
        let mut off = 0u64;
        while off < d.len {
            let n = mrrs.min(d.len - off) as u32;
            self.dma.read_q.push_back(ReadChunk {
                desc: idx,
                src: src_local + off,
                dst: dst + off,
                len: n,
                write_out,
            });
            off += n as u64;
        }
    }

    fn pump_reads(&mut self, ctx: &mut Ctx<'_>) {
        while let Some(chunk) = self.dma.read_q.front().copied() {
            if chunk.write_out
                && self.dma.fifo_in_flight + chunk.len as u64 > self.params.pipeline_fifo
            {
                break; // pipelined FIFO full
            }
            let Some(tag) = self.dma.tags.alloc() else {
                break;
            };
            self.dma.read_q.pop_front();
            if chunk.write_out {
                self.dma.fifo_in_flight += chunk.len as u64;
            }
            self.dma.data_reads.insert(
                tag.0,
                DataRead {
                    chunk,
                    received: 0,
                    issued: ctx.now(),
                },
            );
            ctx.send(
                PORT_N,
                Tlp::read(chunk.src, chunk.len, tag, self.id).with_span(self.dma.span),
            );
        }
    }

    /// One write-stream pacing tick: emit the next MPS chunk of the current
    /// write descriptor.
    fn write_chunk_tick(&mut self, ctx: &mut Ctx<'_>) {
        let idx = self.dma.issue_idx;
        let d = self.dma.descs[idx as usize].expect("active write descriptor");
        let own_internal = self.map.block(self.regs.node_id, TcaBlock::Internal);
        let src_off = own_internal.offset_of(d.src) - SRAM_OFFSET;
        let mps = self.params.host_link.max_payload as u64;
        let n = mps.min(d.len - self.dma.wr_off);
        let data = self.sram.read(src_off + self.dma.wr_off, n as usize);
        self.emit_write(d.dst + self.dma.wr_off, data, ctx);
        self.dma.wr_off += n;
        self.dma.run_bytes += n;
        if self.dma.wr_off < d.len {
            // Pace at wire rate: the engine feeds the link exactly as fast
            // as the link drains.
            let wire = n + tca_pcie::TLP_OVERHEAD_BYTES;
            ctx.timer_in(self.params.host_link.serialize(wire), T_WCHUNK);
        } else {
            // Posted writes: the descriptor is done when its last TLP has
            // been issued (no completion to wait for, §IV-A1).
            if let Some(sp) = self.dma.span {
                let now = ctx.now();
                ctx.spans()
                    .segment(sp, "dma_write", self.dma.issue_start, now, Some(self.id.0));
            }
            self.desc_done(idx, ctx);
            self.finish_issue(ctx);
        }
    }

    fn finish_issue(&mut self, ctx: &mut Ctx<'_>) {
        let finished = self.dma.issue_idx;
        self.dma.issue_idx += 1;
        if self.dma.issue_idx >= self.dma.count {
            self.dma.issue_done = true;
            self.check_complete(ctx);
            return;
        }
        let d = self.dma.descs[finished as usize].expect("finished descriptor");
        let own_internal = self.map.block(self.regs.node_id, TcaBlock::Internal);
        let was_write = self.dma.engine == EngineKind::Legacy && own_internal.contains(d.src);
        let gap = if was_write {
            self.params.desc_gap_write
        } else {
            self.params.desc_gap_read
        };
        if was_write {
            // Reliable-link retirement: remote host-memory writes wait for
            // the final TLP's acknowledgment (remote GPU queues ack
            // immediately) — the Fig. 12 small-size degradation. The wait
            // delays the *next* descriptor's decode so descriptor prefetch
            // cannot hide it.
            if let Some((node, TcaBlock::Host, _)) = self.map.classify(d.dst) {
                if node != self.regs.node_id {
                    self.dma.pending_ack = self.params.remote_ack;
                }
            }
        }
        ctx.timer_in(gap, T_DESC_GAP);
    }

    fn desc_done(&mut self, _idx: u32, ctx: &mut Ctx<'_>) {
        self.dma.descs_done += 1;
        self.check_complete(ctx);
    }

    fn check_complete(&mut self, ctx: &mut Ctx<'_>) {
        if self.dma.phase == Phase::Active
            && self.dma.issue_done
            && self.dma.descs_done == self.dma.count
            && self.dma.read_q.is_empty()
            && self.dma.data_reads.is_empty()
        {
            self.dma.phase = Phase::Flushing;
            if let Some(sp) = self.dma.span {
                let now = ctx.now();
                let end = now + self.params.completion_flush;
                ctx.spans().segment(sp, "flush", now, end, Some(self.id.0));
            }
            ctx.timer_in(self.params.completion_flush, T_FLUSH);
        }
    }

    fn flush_complete(&mut self, ctx: &mut Ctx<'_>) {
        let run = self.runs.last_mut().expect("active run");
        run.complete = Some(ctx.now());
        run.bytes = self.dma.run_bytes;
        self.run_totals.add(run, ctx.now());
        self.dma_window_hist.record(ctx.now().since(run.doorbell));
        if self.regs.dma_status_addr != 0 {
            let count = self.runs.len() as u32;
            ctx.send(
                PORT_N,
                Tlp::write(self.regs.dma_status_addr, count.to_le_bytes().to_vec())
                    .with_span(self.dma.span),
            );
        }
        ctx.send(
            PORT_N,
            Tlp::msi(self.params.dma_msi_vector).with_span(self.dma.span),
        );
        self.nios.note_dma_complete(ctx.now(), self.dma.count);
        self.dma.phase = Phase::Idle;
        ctx.trace(TraceLevel::Txn, || {
            format!("{}: DMA complete, {} bytes", self.name, self.dma.run_bytes)
        });
    }

    fn on_completion(&mut self, tlp: Tlp, ctx: &mut Ctx<'_>) {
        let TlpKind::Completion {
            tag,
            requester,
            offset,
            data,
            last,
        } = tlp.kind
        else {
            unreachable!()
        };
        assert_eq!(requester, self.id, "{}: foreign completion", self.name);
        if let Some((idx, issued, mut reasm)) = self.dma.fetch_reasm.remove(&tag.0) {
            // Descriptor-table fetch.
            let done = reasm.add(offset, &data);
            if !done {
                self.dma.fetch_reasm.insert(tag.0, (idx, issued, reasm));
                return;
            }
            self.dma.tags.release(tag);
            self.desc_fetch_hist.record(ctx.now().since(issued));
            if let Some(sp) = self.dma.span {
                let now = ctx.now();
                ctx.spans()
                    .segment(sp, "desc_fetch", issued, now, Some(self.id.0));
            }
            let desc = Descriptor::decode(&reasm.into_data());
            self.dma.descs[idx as usize] = Some(desc);
            if self.dma.waiting_for_desc && idx == self.dma.issue_idx {
                self.dma.waiting_for_desc = false;
                let ack = std::mem::take(&mut self.dma.pending_ack);
                let decode = self.params.desc_decode + ack;
                if let Some(sp) = self.dma.span {
                    let now = ctx.now();
                    let end = now + decode;
                    ctx.spans()
                        .segment(sp, "desc_decode", now, end, Some(self.id.0));
                }
                ctx.timer_in(decode, T_DESC_DECODE);
            }
            self.pump_reads(ctx);
            return;
        }
        // Data read completion.
        let dr = self
            .dma
            .data_reads
            .get_mut(&tag.0)
            .unwrap_or_else(|| panic!("{}: completion for unknown {tag:?}", self.name));
        let chunk = dr.chunk;
        let read_issued = dr.issued;
        dr.received += data.len() as u32;
        let req_done = last && dr.received >= chunk.len;
        if req_done {
            self.dma.data_reads.remove(&tag.0);
            self.dma.tags.release(tag);
            if let Some(sp) = self.dma.span {
                let now = ctx.now();
                ctx.spans()
                    .segment(sp, "dma_read", read_issued, now, Some(self.id.0));
            }
        }
        if chunk.write_out {
            self.dma.fifo_in_flight -= data.len() as u64;
            self.dma.run_bytes += data.len() as u64;
            self.emit_write(chunk.dst + offset as u64, data.to_vec(), ctx);
        } else {
            self.sram.write(chunk.dst + offset as u64, &data);
            self.dma.run_bytes += data.len() as u64;
        }
        let rem = &mut self.dma.desc_remaining[chunk.desc as usize];
        *rem -= data.len() as u64;
        if *rem == 0 {
            self.desc_done(chunk.desc, ctx);
            if self.dma.issue_waiting_data && chunk.desc == self.dma.issue_idx {
                self.dma.issue_waiting_data = false;
                self.finish_issue(ctx);
            }
        }
        if req_done {
            // A tag freed: fetch pending descriptors first, then data.
            if self.dma.fetch_next < self.dma.count
                && (self.dma.fetch_next <= self.dma.issue_idx + 1)
            {
                self.fetch_descriptor(ctx);
            }
            self.pump_reads(ctx);
        }
        self.check_complete(ctx);
    }

    // ------------------------------------------------------------------
    // Ingress handling
    // ------------------------------------------------------------------

    fn on_mem_write(&mut self, in_port: PortIdx, mut tlp: Tlp, ctx: &mut Ctx<'_>) {
        let TlpKind::MemWrite { addr, .. } = tlp.kind else {
            unreachable!("on_mem_write dispatched on a non-write TLP");
        };
        let span = tlp.span;
        match self.map.classify(addr) {
            Some((node, block, off)) if node == self.regs.node_id => {
                if block == TcaBlock::Internal {
                    let TlpKind::MemWrite { ref data, .. } = tlp.kind else {
                        unreachable!();
                    };
                    if off < SRAM_OFFSET {
                        match self.regs.write(off, data) {
                            Ok(RegEffect::Doorbell) => self.doorbell(span, ctx),
                            Ok(RegEffect::None) => {}
                            Err(e) => {
                                // Software bug, not a chip invariant: drop
                                // the store, record it for the verifier.
                                ctx.trace(TraceLevel::Txn, || {
                                    format!("{}: dropped register write: {e}", self.name)
                                });
                                self.reg_errors.push(e);
                            }
                        }
                    } else {
                        self.sram.write(off - SRAM_OFFSET, data);
                    }
                } else {
                    // Terminates at this node: port-N address conversion,
                    // then up to the host bridge. (A store from the local
                    // CPU into the node's own slice legitimately hairpins
                    // here: down port N, translate, back up port N.)
                    // The conversion retargets the packet in place — the
                    // payload handle and span ride along untouched.
                    let _ = in_port;
                    if let Some(sp) = span {
                        let now = ctx.now();
                        let end = now + self.params.port_n_translate;
                        ctx.spans().segment(sp, "relay", now, end, Some(self.id.0));
                    }
                    let local = self.translate_own(block, off);
                    if let TlpKind::MemWrite { ref mut addr, .. } = tlp.kind {
                        *addr = local;
                    }
                    self.forward_after(self.params.port_n_translate, PORT_N, tlp, ctx);
                }
            }
            Some(_) => {
                // Relay toward another node: the packet is forwarded *by
                // move* — no rebuild, no payload clone, no new TLP. The
                // hop counter keeps the per-hop cost visible to the host
                // profiler (clones-per-hop must stay ~0).
                let out = self
                    .regs
                    .route(addr)
                    .unwrap_or_else(|| panic!("{}: no route for {addr:#x}", self.name));
                assert_ne!(out, in_port, "{}: routing loop on {addr:#x}", self.name);
                assert!(
                    !self.nios.is_reconfiguring(out.0),
                    "{}: route to {addr:#x} crosses port {out:?} during reconfiguration",
                    self.name
                );
                self.relayed.inc();
                tca_pcie::prof::count_relay_hop();
                if let Some(sp) = span {
                    let now = ctx.now();
                    let end = now + self.params.chip_transit;
                    ctx.spans().segment(sp, "relay", now, end, Some(self.id.0));
                }
                self.forward_after(self.params.chip_transit, out, tlp, ctx);
            }
            None => panic!(
                "{}: write outside the TCA window reached the chip ({addr:#x})",
                self.name
            ),
        }
    }
}

impl Device for Peach2 {
    fn on_tlp(&mut self, port: PortIdx, tlp: Tlp, ctx: &mut Ctx<'_>) {
        self.nios.count_ingress(port.0);
        match tlp.kind {
            TlpKind::MemWrite { .. } => self.on_mem_write(port, tlp, ctx),
            TlpKind::Completion { .. } => {
                assert_eq!(
                    port, PORT_N,
                    "{}: completion arrived on an external port; reads never \
                     cross PEARL links",
                    self.name
                );
                self.on_completion(tlp, ctx);
            }
            TlpKind::MemRead { addr, .. } => panic!(
                "{}: memory read {addr:#x} reached the chip; PEACH2 is \
                 write-only for inbound traffic (RDMA put, §III-F)",
                self.name
            ),
            TlpKind::Msi { .. } => panic!("{}: MSI delivered to PEACH2", self.name),
        }
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut Ctx<'_>) {
        let val = tag & !KIND_MASK;
        match tag & KIND_MASK {
            T_ENGINE_START => self.engine_begin(ctx),
            T_DESC_DECODE => self.begin_issue(ctx),
            T_WCHUNK => self.write_chunk_tick(ctx),
            T_DESC_GAP => {
                if self.dma.descs[self.dma.issue_idx as usize].is_some() {
                    let ack = std::mem::take(&mut self.dma.pending_ack);
                    let decode = self.params.desc_decode + ack;
                    if let Some(sp) = self.dma.span {
                        let now = ctx.now();
                        let end = now + decode;
                        ctx.spans()
                            .segment(sp, "desc_decode", now, end, Some(self.id.0));
                    }
                    ctx.timer_in(decode, T_DESC_DECODE);
                } else {
                    self.dma.waiting_for_desc = true;
                    // Make sure the fetch is actually in flight.
                    if self.dma.fetch_next <= self.dma.issue_idx {
                        self.fetch_descriptor(ctx);
                    }
                }
            }
            T_FLUSH => self.flush_complete(ctx),
            T_FWD => {
                let slot = val as usize;
                let (out, tlp) = self.pending_fwd[slot].take().expect("forward slot empty");
                self.fwd_free.push(slot);
                assert!(
                    !self.nios.is_reconfiguring(out.0),
                    "{}: forwarding through port {out:?} during partial reconfiguration",
                    self.name
                );
                self.nios.count_egress(out.0);
                ctx.send(out, tlp);
            }
            T_RECONFIG => self.nios.finish_reconfig(ctx.now()),
            k => unreachable!("unknown PEACH2 timer kind {k:#x}"),
        }
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn publish_metrics(&mut self, hub: &mut MetricsHub) {
        let ids = *self
            .metric_ids
            .get_or_insert_with(|| ChipMetricIds::register(&self.name, hub));
        hub.counter_sync(ids.relayed, self.relayed.get());
        let t = self.run_totals;
        hub.counter_sync(ids.dma_runs, t.runs);
        hub.counter_sync(ids.dma_bytes, t.bytes);
        hub.counter_sync(ids.dma_descriptors, t.descriptors);
        // Engine-busy time: the sum of doorbell→completion windows.
        hub.counter_sync(ids.dma_engine_busy_ns, t.busy.as_ps() / 1_000);
        // Chain length: current = last completed run, peak = longest ever.
        // Setting the (monotonic) maximum first makes the peak watermark
        // exact even though the gauge is only written at snapshot time.
        hub.gauge_set(ids.dma_chain_len, i64::from(t.longest_chain));
        hub.gauge_set(ids.dma_chain_len, i64::from(t.last_chain));
        hub.histogram_sync(ids.dma_window_ns, &self.dma_window_hist);
        hub.histogram_sync(ids.dma_desc_fetch_ns, &self.desc_fetch_hist);
        for i in 0..4u8 {
            let pc = self.nios.counters(i);
            hub.counter_sync(ids.port_ingress[i as usize], pc.ingress);
            hub.counter_sync(ids.port_egress[i as usize], pc.egress);
        }
        // Live engine state, refreshed on every publish so the sampler's
        // periodic captures see descriptor-queue backpressure as it happens.
        hub.gauge_set(ids.dma_read_q_depth, self.dma.read_q.len() as i64);
        hub.gauge_set(
            ids.dma_engine_active,
            (self.dma.phase != Phase::Idle) as i64,
        );
    }

    fn health_status(&self) -> Option<String> {
        Some(format!(
            "dma {:?}, {} read chunk(s) queued, {} data read(s) in flight, {} forward(s) pending",
            self.dma.phase,
            self.dma.read_q.len(),
            self.dma.data_reads.len(),
            self.pending_fwd.iter().filter(|s| s.is_some()).count(),
        ))
    }

    // Names the chip's private timer encodings for the flight recorder, so
    // a relay hop shows up in the log as `relay_forward` rather than an
    // opaque tag — the event-kind vocabulary run-to-run diffs align on.
    fn timer_kind(&self, tag: u64) -> Option<&'static str> {
        Some(match tag & KIND_MASK {
            T_ENGINE_START => "engine_start",
            T_DESC_DECODE => "desc_decode",
            T_WCHUNK => "write_chunk",
            T_DESC_GAP => "desc_gap",
            T_FLUSH => "flush",
            T_FWD => "relay_forward",
            T_RECONFIG => "reconfig",
            _ => return None,
        })
    }
}

/// Copies the fabric's per-port link statistics into a chip's NIOS
/// management registers. The NIOS never touches the data path (§III-D), so
/// its firmware learns about the wire from status registers the link layer
/// maintains; this helper models the harness-side poll that refreshes them.
/// Call it whenever fresh management data is wanted — typically right
/// before reading [`Nios::read_reg`].
pub fn sync_nios_link_stats(fabric: &mut Fabric, chip: DeviceId) {
    for port in 0..4u8 {
        let Some((link, dir)) = fabric.port_link(chip, PortIdx(port)) else {
            continue;
        };
        let tx = fabric.link_stats(link, dir);
        let stats = PortLinkStats {
            tlps_forwarded: tx.packets,
            replays: tx.replays,
            credit_stall_ns: tx.credit_stall.as_ps() / 1_000,
        };
        fabric
            .device_mut::<Peach2>(chip)
            .nios_mut()
            .set_link_stats(port, stats);
    }
}

/// Builds routing register rows sending each listed destination node's
/// slice out of the paired port. Sorted destination lists are compressed
/// into address-contiguous `[lower, upper]` rows, exactly the register
/// shape of Fig. 5.
pub fn routing_rules(map: TcaMap, dests_by_port: &[(PortIdx, Vec<u32>)]) -> Vec<RouteRule> {
    let slice = map.slice_size();
    let mask = !(slice - 1);
    let mut rules = Vec::new();
    for (port, dests) in dests_by_port {
        if dests.is_empty() {
            continue;
        }
        let mut sorted = dests.clone();
        sorted.sort_unstable();
        let mut run_start = sorted[0];
        let mut prev = sorted[0];
        let flush = |start: u32, end: u32, rules: &mut Vec<RouteRule>| {
            rules.push(RouteRule {
                mask,
                lower: map.node_slice(start).base(),
                upper: map.node_slice(end).base(),
                port: Some(*port),
            });
        };
        for &d in &sorted[1..] {
            if d != prev + 1 {
                flush(run_start, prev, &mut rules);
                run_start = d;
            }
            prev = d;
        }
        flush(run_start, prev, &mut rules);
    }
    rules
}

/// Builds the shortest-path ring routing rules (Fig. 5) for `my_id` in an
/// `n`-node ring: slices reached faster eastward go out E, the rest out W.
/// Wrapping slice sets are split into at most two address-contiguous rows
/// per port.
pub fn ring_routing(map: TcaMap, my_id: u32, n: u32) -> Vec<RouteRule> {
    assert!(n >= 2 && my_id < n);
    let mut east = Vec::new();
    let mut west = Vec::new();
    for d in 0..n {
        if d == my_id {
            continue;
        }
        let fwd = (d + n - my_id) % n; // hops going east
        if fwd <= n - fwd {
            east.push(d);
        } else {
            west.push(d);
        }
    }
    routing_rules(map, &[(PORT_E, east), (PORT_W, west)])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_routing_four_nodes_matches_fig5_shape() {
        let map = TcaMap::new(4);
        // Node 0: east reaches 1 and 2 (2 hops ties go east), west reaches 3.
        let rules = ring_routing(map, 0, 4);
        let route = |addr: u64| rules.iter().find(|r| r.matches(addr)).and_then(|r| r.port);
        assert_eq!(route(map.node_slice(1).base() + 5), Some(PORT_E));
        assert_eq!(route(map.node_slice(2).base() + 5), Some(PORT_E));
        assert_eq!(route(map.node_slice(3).base() + 5), Some(PORT_W));
        assert_eq!(
            route(map.node_slice(0).base() + 5),
            None,
            "own slice never routed"
        );
    }

    #[test]
    fn ring_routing_all_pairs_consistent() {
        // For every (me, dest) pair the chosen direction must be a shortest
        // path, and every non-own slice must be routed somewhere.
        for n in [2u32, 4, 8, 16] {
            let map = TcaMap::new(n);
            for me in 0..n {
                let rules = ring_routing(map, me, n);
                assert!(rules.len() <= 4, "at most two rows per direction");
                for d in 0..n {
                    if d == me {
                        continue;
                    }
                    let addr = map.node_slice(d).base() + 42;
                    let port = rules
                        .iter()
                        .find(|r| r.matches(addr))
                        .and_then(|r| r.port)
                        .unwrap_or_else(|| panic!("n={n} me={me} d={d}: unrouted"));
                    let fwd = (d + n - me) % n;
                    let bwd = n - fwd;
                    if fwd < bwd {
                        assert_eq!(port, PORT_E, "n={n} me={me} d={d}");
                    } else if bwd < fwd {
                        assert_eq!(port, PORT_W, "n={n} me={me} d={d}");
                    }
                }
            }
        }
    }

    #[test]
    fn sram_global_addr_maps_into_internal_block() {
        let map = TcaMap::new(4);
        let chip = Peach2::new(DeviceId(0), "p0", 2, map, Peach2Params::default());
        let g = chip.sram_global_addr(0x100);
        let (node, block, off) = map.classify(g).unwrap();
        assert_eq!(node, 2);
        assert_eq!(block, TcaBlock::Internal);
        assert_eq!(off, SRAM_OFFSET + 0x100);
    }
}

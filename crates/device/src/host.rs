//! The host bridge: one CPU socket with its integrated PCIe root complex.
//!
//! A Sandy Bridge-EP socket (Table I/II) exposes 40 PCIe Gen3 lanes through
//! an integrated root complex/switch; GPUs, the PEACH2 board, and the IB
//! HCA all hang off it and share one PCIe address space (§III-C). The
//! [`HostBridge`] device models that socket:
//!
//! * sink/source for host DRAM traffic (with memory latency),
//! * PCIe bridge: address-routes TLPs between its downstream ports
//!   (this is the path PEACH2 → GPU BAR takes, i.e. GPUDirect P2P),
//! * completion routing back to requesters by device id,
//! * MSI sink with interrupt-handler dispatch cost,
//! * poll watches (the PIO latency measurement of §IV-B1 polls an address),
//! * host-software hook ([`HostAgent`]) for driver and runtime models.

use crate::params::HostParams;
use std::collections::HashMap;
use tca_pcie::{AddrRange, Ctx, Device, DeviceId, PageMemory, PortIdx, Tlp, TlpKind};
use tca_sim::{Counter, SimTime, TraceCtx, TraceLevel};

/// Identifier of a poll watch registered on a host.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct WatchId(pub u32);

/// Timer-tag namespaces inside the host device.
const KIND_AGENT: u64 = 0;
const KIND_IRQ: u64 = 1;
const KIND_READ: u64 = 2;

const fn mk_tag(kind: u64, val: u64) -> u64 {
    debug_assert!(val < (1 << 56));
    (kind << 56) | val
}

/// Host software model: device drivers and communication runtimes implement
/// this to react to interrupts, watched writes, and their own timers.
///
/// Handlers receive a [`HostApi`] giving access to host memory and the
/// ability to issue stores / arm timers, all in simulated time.
pub trait HostAgent: 'static {
    /// An MSI reached the CPU and the handler has been entered
    /// (`interrupt_entry` after delivery).
    fn on_interrupt(&mut self, _vector: u32, _h: &mut HostApi<'_, '_>) {}
    /// A watched address range was written by a device.
    fn on_watch(&mut self, _watch: WatchId, _h: &mut HostApi<'_, '_>) {}
    /// A timer armed through [`HostApi::timer_in`] fired.
    fn on_timer(&mut self, _tag: u64, _h: &mut HostApi<'_, '_>) {}
}

struct PendingRead {
    port: PortIdx,
    addr: u64,
    len: u32,
    tag: tca_pcie::Tag,
    requester: DeviceId,
    span: Option<TraceCtx>,
}

struct Watch {
    range: AddrRange,
    hits: Vec<SimTime>,
}

/// Everything in the host except the agent (split so the agent can borrow
/// the rest mutably while it runs).
pub struct HostCore {
    id: DeviceId,
    name: String,
    params: HostParams,
    mem: PageMemory,
    dram: AddrRange,
    windows: Vec<(AddrRange, PortIdx)>,
    id_routes: HashMap<u32, PortIdx>,
    pending_reads: Vec<Option<PendingRead>>,
    watches: Vec<Watch>,
    /// (delivery time, handler-entry time, vector) for every MSI.
    interrupts: Vec<(SimTime, SimTime, u32)>,
    /// Span context of each MSI, parallel to `interrupts`, so the handler
    /// entry can close the originating transfer's root span.
    irq_spans: Vec<Option<TraceCtx>>,
    /// `(vector, count)` tallies of `interrupts`, in first-seen order, so
    /// a count is a lookup over the few distinct vectors rather than a
    /// scan of the whole log.
    irq_counts: Vec<(u32, usize)>,
    /// Writes delivered into DRAM: count and bytes.
    pub dram_writes: Counter,
    /// Bytes written into DRAM by devices.
    pub dram_bytes_in: Counter,
}

impl HostCore {
    /// The socket's DRAM range in the node-local map.
    pub fn dram(&self) -> AddrRange {
        self.dram
    }

    /// Direct (functional, zero-time) access to host memory — models
    /// cache-coherent CPU access from software.
    pub fn mem(&mut self) -> &mut PageMemory {
        &mut self.mem
    }

    /// Immutable memory access.
    pub fn mem_ref(&self) -> &PageMemory {
        &self.mem
    }

    /// Registers a downstream window: TLPs addressed inside `range` are
    /// forwarded out of `port`.
    #[track_caller]
    pub fn add_window(&mut self, range: AddrRange, port: PortIdx) {
        assert!(
            !range.overlaps(&self.dram),
            "window {range:?} overlaps DRAM"
        );
        for (r, _) in &self.windows {
            assert!(!range.overlaps(r), "window {range:?} overlaps {r:?}");
        }
        self.windows.push((range, port));
    }

    /// The registered downstream windows, in registration order (read-only
    /// introspection for configuration lints).
    pub fn windows(&self) -> &[(AddrRange, PortIdx)] {
        &self.windows
    }

    /// Registers the port leading to `device`, for completion routing.
    pub fn add_id_route(&mut self, device: DeviceId, port: PortIdx) {
        self.id_routes.insert(device.0, port);
    }

    /// Registers a poll watch over `range`; device writes covering any part
    /// of it are timestamped.
    pub fn add_watch(&mut self, range: AddrRange) -> WatchId {
        self.watches.push(Watch {
            range,
            hits: Vec::new(),
        });
        WatchId(self.watches.len() as u32 - 1)
    }

    /// Times at which the watch was hit.
    pub fn watch_hits(&self, w: WatchId) -> &[SimTime] {
        &self.watches[w.0 as usize].hits
    }

    /// All interrupts seen: (MSI delivery, handler entry, vector).
    pub fn interrupts(&self) -> &[(SimTime, SimTime, u32)] {
        &self.interrupts
    }

    /// Count of interrupts with the given vector.
    pub fn interrupt_count(&self, vector: u32) -> usize {
        self.irq_counts
            .iter()
            .find(|&&(v, _)| v == vector)
            .map_or(0, |&(_, n)| n)
    }

    fn route_port(&self, addr: u64) -> Option<PortIdx> {
        self.windows
            .iter()
            .find(|(r, _)| r.contains(addr))
            .map(|&(_, p)| p)
    }

    /// Issues a store from the CPU: DRAM stores land directly; stores into
    /// a downstream window become posted write TLPs (the PIO path, §III-F1).
    /// With span tracing enabled, each window store opens a `"pio"` root
    /// span that closes when the write commits into its destination DRAM.
    #[track_caller]
    pub fn cpu_store(&mut self, addr: u64, data: &[u8], ctx: &mut Ctx<'_>) {
        if self.dram.contains(addr) {
            self.mem.write(addr, data);
            return;
        }
        let now = ctx.now();
        let span = ctx.spans().start_root("pio", now, Some(self.id.0));
        self.cpu_store_traced(addr, data, ctx, span);
    }

    /// [`HostCore::cpu_store`] carrying a caller-allocated span context —
    /// used when the store belongs to a larger traced transfer (a DMA
    /// doorbell, a multi-TLP write-combining copy).
    #[track_caller]
    pub fn cpu_store_traced(
        &mut self,
        addr: u64,
        data: &[u8],
        ctx: &mut Ctx<'_>,
        span: Option<TraceCtx>,
    ) {
        if self.dram.contains(addr) {
            self.mem.write(addr, data);
            return;
        }
        let port = self
            .route_port(addr)
            .unwrap_or_else(|| panic!("cpu_store to unmapped address {addr:#x}"));
        ctx.send(port, Tlp::write(addr, data.to_vec()).with_span(span));
    }

    /// Copies `data` to a device window through the CPU write-combining
    /// buffers: one posted TLP per `wc_burst` bytes, as a streaming store
    /// loop would produce. All bursts share one `"pio"` root span, closed
    /// by the last burst's commit.
    pub fn cpu_store_wc(&mut self, addr: u64, data: &[u8], ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        let span = ctx.spans().start_root("pio", now, Some(self.id.0));
        let burst = self.params.wc_burst as usize;
        for (i, chunk) in data.chunks(burst).enumerate() {
            self.cpu_store_traced(addr + (i * burst) as u64, chunk, ctx, span);
        }
    }

    fn note_dram_write(&mut self, addr: u64, len: usize, now: SimTime) {
        self.dram_writes.inc();
        self.dram_bytes_in.add(len as u64);
        let access = AddrRange::new(addr, len as u64);
        for w in &mut self.watches {
            if w.range.overlaps(&access) {
                w.hits.push(now);
            }
        }
    }
}

/// The host device: core state + optional software agent.
pub struct HostBridge {
    core: HostCore,
    agent: Option<Box<dyn HostAgent>>,
    /// Watches hit but not yet dispatched to the agent (dispatch happens
    /// in the same event, after the write is applied).
    watch_events: Vec<WatchId>,
}

/// What a [`HostAgent`] sees while it runs: the host core plus the live
/// event context.
pub struct HostApi<'a, 'b> {
    /// The host (memory, routing, measurement records).
    pub host: &'a mut HostCore,
    /// The live event context.
    pub ctx: &'a mut Ctx<'b>,
}

impl HostApi<'_, '_> {
    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.ctx.now()
    }

    /// Arms an agent timer; fires back into [`HostAgent::on_timer`].
    pub fn timer_in(&mut self, d: tca_sim::Dur, tag: u64) {
        self.ctx.timer_in(d, mk_tag(KIND_AGENT, tag));
    }

    /// CPU store (see [`HostCore::cpu_store`]).
    pub fn store(&mut self, addr: u64, data: &[u8]) {
        self.core_store(addr, data);
    }

    fn core_store(&mut self, addr: u64, data: &[u8]) {
        self.host.cpu_store(addr, data, self.ctx);
    }
}

impl HostBridge {
    /// Creates a host bridge with the given parameters.
    pub fn new(id: DeviceId, name: impl Into<String>, params: HostParams) -> Self {
        HostBridge {
            core: HostCore {
                id,
                name: name.into(),
                dram: AddrRange::new(params.dram_base, params.dram_size),
                params,
                mem: PageMemory::new(),
                windows: Vec::new(),
                id_routes: HashMap::new(),
                pending_reads: Vec::new(),
                watches: Vec::new(),
                interrupts: Vec::new(),
                irq_spans: Vec::new(),
                irq_counts: Vec::new(),
                dram_writes: Counter::new(),
                dram_bytes_in: Counter::new(),
            },
            agent: None,
            watch_events: Vec::new(),
        }
    }

    /// Installs the host software agent.
    pub fn set_agent(&mut self, agent: Box<dyn HostAgent>) {
        self.agent = Some(agent);
    }

    /// Shared access to the core (measurements, memory).
    pub fn core(&self) -> &HostCore {
        &self.core
    }

    /// Mutable access to the core (configuration between run steps).
    pub fn core_mut(&mut self) -> &mut HostCore {
        &mut self.core
    }

    fn dispatch_agent(
        &mut self,
        ctx: &mut Ctx<'_>,
        f: impl FnOnce(&mut dyn HostAgent, &mut HostApi<'_, '_>),
    ) {
        if let Some(mut agent) = self.agent.take() {
            let mut api = HostApi {
                host: &mut self.core,
                ctx,
            };
            f(agent.as_mut(), &mut api);
            self.agent = Some(agent);
        }
    }

    fn flush_watch_events(&mut self, ctx: &mut Ctx<'_>) {
        while let Some(w) = self.watch_events.pop() {
            self.dispatch_agent(ctx, |a, api| a.on_watch(w, api));
        }
    }
}

impl Device for HostBridge {
    fn on_tlp(&mut self, port: PortIdx, tlp: Tlp, ctx: &mut Ctx<'_>) {
        match tlp.kind {
            TlpKind::MemWrite { addr, ref data } => {
                if self.core.dram.contains(addr) {
                    // Final remote-memory commit: the transfer's root span
                    // closes at the instant the payload is visible in DRAM,
                    // and the commit lands in the write log hazard analysis
                    // replays (`tca-verify` pass 2).
                    if let Some(sp) = tlp.span {
                        let now = ctx.now();
                        ctx.spans().end_root(sp, now);
                        ctx.spans().record_write(
                            sp,
                            addr,
                            data.len() as u64,
                            now,
                            Some(self.core.id.0),
                        );
                    }
                    self.core.mem.write(addr, data);
                    ctx.note_progress();
                    let n = data.len();
                    let hit_before = self
                        .core
                        .watches
                        .iter()
                        .map(|w| w.hits.len())
                        .sum::<usize>();
                    self.core.note_dram_write(addr, n, ctx.now());
                    let hit_after = self
                        .core
                        .watches
                        .iter()
                        .map(|w| w.hits.len())
                        .sum::<usize>();
                    if hit_after > hit_before {
                        // Queue agent notifications for every watch covering
                        // this write.
                        let access = AddrRange::new(addr, n as u64);
                        for (i, w) in self.core.watches.iter().enumerate() {
                            if w.range.overlaps(&access) {
                                self.watch_events.push(WatchId(i as u32));
                            }
                        }
                        self.flush_watch_events(ctx);
                    }
                } else if let Some(out) = self.core.route_port(addr) {
                    assert_ne!(out, port, "routing loop at {addr:#x}");
                    ctx.send(out, tlp);
                } else {
                    ctx.trace(TraceLevel::Txn, || {
                        format!("{}: dropping write to unmapped {addr:#x}", self.core.name)
                    });
                }
            }
            TlpKind::MemRead {
                addr,
                len,
                tag,
                requester,
            } => {
                if self.core.dram.contains(addr) {
                    let idx = self.core.pending_reads.len() as u64;
                    if let Some(sp) = tlp.span {
                        let now = ctx.now();
                        let until = now + self.core.params.mem_read_latency;
                        ctx.spans().segment(sp, "dram_read", now, until, None);
                    }
                    self.core.pending_reads.push(Some(PendingRead {
                        port,
                        addr,
                        len,
                        tag,
                        requester,
                        span: tlp.span,
                    }));
                    ctx.timer_in(self.core.params.mem_read_latency, mk_tag(KIND_READ, idx));
                } else if let Some(out) = self.core.route_port(addr) {
                    assert_ne!(out, port, "routing loop at {addr:#x}");
                    ctx.send(out, tlp);
                } else {
                    panic!("{}: read of unmapped address {addr:#x}", self.core.name);
                }
            }
            TlpKind::Completion { requester, .. } => {
                assert_ne!(
                    requester, self.core.id,
                    "host CPU loads from devices are not modelled (PIO is store-only, §III-F1)"
                );
                let out = *self
                    .core
                    .id_routes
                    .get(&requester.0)
                    .unwrap_or_else(|| panic!("no id route to {requester:?}"));
                ctx.send(out, tlp);
            }
            TlpKind::Msi { vector } => {
                let arrived = ctx.now();
                // Handler entry happens after the interrupt dispatch cost;
                // record both instants (the paper reads TSC *inside* the
                // handler, §IV-A).
                if let Some(sp) = tlp.span {
                    let entry = arrived + self.core.params.interrupt_entry;
                    ctx.spans().segment(sp, "irq_entry", arrived, entry, None);
                }
                self.core.interrupts.push((arrived, arrived, vector));
                self.core.irq_spans.push(tlp.span);
                match self.core.irq_counts.iter_mut().find(|(v, _)| *v == vector) {
                    Some((_, n)) => *n += 1,
                    None => self.core.irq_counts.push((vector, 1)),
                }
                let idx = self.core.interrupts.len() as u64 - 1;
                ctx.timer_in(
                    self.core.params.interrupt_entry,
                    mk_tag(KIND_IRQ, (idx << 16) | vector as u64),
                );
            }
        }
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut Ctx<'_>) {
        let kind = tag >> 56;
        let val = tag & ((1 << 56) - 1);
        match kind {
            KIND_READ => {
                let pr = self.core.pending_reads[val as usize]
                    .take()
                    .expect("read already served");
                let chunk = self.core.params.completion_chunk as usize;
                let data = self.core.mem.read(pr.addr, pr.len as usize);
                let total = data.len();
                let mut off = 0usize;
                while off < total {
                    let n = chunk.min(total - off);
                    let last = off + n >= total;
                    ctx.send(
                        pr.port,
                        Tlp::completion(
                            pr.tag,
                            pr.requester,
                            off as u32,
                            data[off..off + n].to_vec(),
                            last,
                        )
                        .with_span(pr.span),
                    );
                    off += n;
                }
            }
            KIND_IRQ => {
                let idx = (val >> 16) as usize;
                let vector = (val & 0xffff) as u32;
                self.core.interrupts[idx].1 = ctx.now();
                // The paper's DMA window closes at handler entry (§IV-A):
                // close the originating transfer's root span here.
                if let Some(sp) = self.core.irq_spans[idx] {
                    let now = ctx.now();
                    ctx.spans().end_root(sp, now);
                }
                self.dispatch_agent(ctx, |a, api| a.on_interrupt(vector, api));
            }
            KIND_AGENT => {
                self.dispatch_agent(ctx, |a, api| a.on_timer(val, api));
            }
            _ => unreachable!("unknown host timer kind {kind}"),
        }
    }

    fn name(&self) -> &str {
        &self.core.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::HostParams;
    use tca_pcie::{Fabric, LinkParams, Tag};
    use tca_sim::Dur;

    /// Simple endpoint that records what it receives and can echo writes.
    struct Probe {
        id: DeviceId,
        writes: Vec<(u64, usize)>,
        completions: Vec<(u32, Vec<u8>, bool)>,
    }
    impl Device for Probe {
        fn on_tlp(&mut self, _port: PortIdx, tlp: Tlp, _ctx: &mut Ctx<'_>) {
            match tlp.kind {
                TlpKind::MemWrite { addr, data } => self.writes.push((addr, data.len())),
                TlpKind::Completion {
                    offset, data, last, ..
                } => self.completions.push((offset, data.to_vec(), last)),
                _ => {}
            }
        }
        fn on_timer(&mut self, _tag: u64, _ctx: &mut Ctx<'_>) {}
    }

    fn rig() -> (Fabric, DeviceId, DeviceId) {
        let mut f = Fabric::new();
        let host = f.add_device(|id| HostBridge::new(id, "host", HostParams::default()));
        let dev = f.add_device(|id| Probe {
            id,
            writes: vec![],
            completions: vec![],
        });
        f.connect(
            (host, PortIdx(0)),
            (dev, PortIdx(0)),
            LinkParams::gen2_x8().with_latency(Dur::from_ns(100)),
        );
        let devid = dev;
        f.device_mut::<HostBridge>(host)
            .core_mut()
            .add_window(AddrRange::new(0x20_0000_0000, 1 << 30), PortIdx(0));
        f.device_mut::<HostBridge>(host)
            .core_mut()
            .add_id_route(devid, PortIdx(0));
        (f, host, dev)
    }

    #[test]
    fn cpu_store_to_window_becomes_tlp() {
        let (mut f, host, dev) = rig();
        f.drive::<HostBridge, _>(host, |h, ctx| {
            h.core_mut().cpu_store(0x20_0000_0100, &[1, 2, 3, 4], ctx);
        });
        f.run_until_idle();
        assert_eq!(f.device::<Probe>(dev).writes, vec![(0x20_0000_0100, 4)]);
    }

    #[test]
    fn cpu_store_to_dram_is_local() {
        let (mut f, host, dev) = rig();
        f.drive::<HostBridge, _>(host, |h, ctx| {
            h.core_mut().cpu_store(0x1000, b"abc", ctx);
        });
        f.run_until_idle();
        assert!(f.device::<Probe>(dev).writes.is_empty());
        assert_eq!(
            f.device::<HostBridge>(host)
                .core()
                .mem_ref()
                .read(0x1000, 3),
            b"abc"
        );
    }

    #[test]
    fn wc_copy_splits_into_bursts() {
        let (mut f, host, dev) = rig();
        f.drive::<HostBridge, _>(host, |h, ctx| {
            h.core_mut().cpu_store_wc(0x20_0000_0000, &[7u8; 200], ctx);
        });
        f.run_until_idle();
        let w = &f.device::<Probe>(dev).writes;
        assert_eq!(w.len(), 4, "200 B in 64 B bursts = 4 TLPs");
        assert_eq!(w[3], (0x20_0000_00c0, 8));
    }

    #[test]
    fn device_write_lands_in_dram_and_hits_watch() {
        let (mut f, host, dev) = rig();
        let watch = f
            .device_mut::<HostBridge>(host)
            .core_mut()
            .add_watch(AddrRange::new(0x3000, 8));
        f.drive::<Probe, _>(dev, |_, ctx| {
            ctx.send(PortIdx(0), Tlp::write(0x2000, vec![9u8; 16]));
            ctx.send(PortIdx(0), Tlp::write(0x3004, vec![0xffu8; 4]));
        });
        f.run_until_idle();
        let core = f.device::<HostBridge>(host).core();
        assert_eq!(core.mem_ref().read(0x2000, 2), vec![9, 9]);
        assert_eq!(core.watch_hits(watch).len(), 1);
        assert_eq!(core.dram_writes.get(), 2);
        assert_eq!(core.dram_bytes_in.get(), 20);
    }

    #[test]
    fn read_served_with_latency_and_chunked_completions() {
        let (mut f, host, dev) = rig();
        f.device_mut::<HostBridge>(host)
            .core_mut()
            .mem()
            .fill_pattern(0x4000, 512, 3);
        f.drive::<Probe, _>(dev, |p, ctx| {
            ctx.send(PortIdx(0), Tlp::read(0x4000, 512, Tag(5), p.id));
        });
        f.run_until_idle();
        let p = f.device::<Probe>(dev);
        assert_eq!(p.completions.len(), 2, "512 B split at 256 B chunks");
        assert_eq!(p.completions[0].0, 0);
        assert_eq!(p.completions[1].0, 256);
        assert!(p.completions[1].2, "last flag on final completion");
        assert!(!p.completions[0].2);
        // Reassemble and verify the pattern.
        let mut buf = vec![0u8; 512];
        for (off, data, _) in &p.completions {
            buf[*off as usize..*off as usize + data.len()].copy_from_slice(data);
        }
        let mut m = PageMemory::new();
        m.write(0x4000, &buf);
        assert!(m.verify_pattern(0x4000, 512, 3).is_ok());
    }

    #[test]
    fn msi_recorded_with_handler_entry_delay() {
        let (mut f, host, dev) = rig();
        f.drive::<Probe, _>(dev, |_, ctx| {
            ctx.send(PortIdx(0), Tlp::msi(2));
        });
        f.run_until_idle();
        let core = f.device::<HostBridge>(host).core();
        assert_eq!(core.interrupt_count(2), 1);
        let (arrived, entered, _) = core.interrupts()[0];
        assert_eq!(
            entered.since(arrived),
            HostParams::default().interrupt_entry
        );
    }

    #[test]
    fn interrupt_counts_agree_with_the_log() {
        let (mut f, host, dev) = rig();
        let vectors = [1u32, 2, 1, 7, 1, 2, 0];
        f.drive::<Probe, _>(dev, |_, ctx| {
            for v in vectors {
                ctx.send(PortIdx(0), Tlp::msi(v));
            }
        });
        f.run_until_idle();
        let core = f.device::<HostBridge>(host).core();
        assert_eq!(core.interrupts().len(), vectors.len());
        for v in 0..9 {
            let logged = core.interrupts().iter().filter(|i| i.2 == v).count();
            assert_eq!(core.interrupt_count(v), logged, "vector {v}");
        }
        assert_eq!(core.interrupt_count(1), 3);
    }

    #[test]
    fn agent_interrupt_dispatch() {
        struct Echo {
            fired: std::rc::Rc<std::cell::Cell<u32>>,
        }
        impl HostAgent for Echo {
            fn on_interrupt(&mut self, vector: u32, h: &mut HostApi<'_, '_>) {
                self.fired.set(self.fired.get() + vector);
                // Agent writes a flag into DRAM from the handler.
                h.host.mem().write_u32(0x9000, 0x5a5a_5a5a);
            }
        }
        let (mut f, host, dev) = rig();
        let fired = std::rc::Rc::new(std::cell::Cell::new(0));
        f.device_mut::<HostBridge>(host).set_agent(Box::new(Echo {
            fired: fired.clone(),
        }));
        f.drive::<Probe, _>(dev, |_, ctx| {
            ctx.send(PortIdx(0), Tlp::msi(7));
        });
        f.run_until_idle();
        assert_eq!(fired.get(), 7);
        assert_eq!(
            f.device::<HostBridge>(host)
                .core()
                .mem_ref()
                .read_u32(0x9000),
            0x5a5a_5a5a
        );
    }

    #[test]
    fn bridge_forwards_peer_to_peer() {
        // A second endpoint writes into the first endpoint's window through
        // the host bridge (the GPUDirect P2P path).
        let (mut f, host, dev) = rig();
        let dev2 = f.add_device(|id| Probe {
            id,
            writes: vec![],
            completions: vec![],
        });
        f.connect(
            (host, PortIdx(1)),
            (dev2, PortIdx(0)),
            LinkParams::gen2_x8(),
        );
        f.drive::<Probe, _>(dev2, |_, ctx| {
            ctx.send(PortIdx(0), Tlp::write(0x20_0000_0040, vec![1u8; 32]));
        });
        f.run_until_idle();
        assert_eq!(f.device::<Probe>(dev).writes, vec![(0x20_0000_0040, 32)]);
    }

    #[test]
    #[should_panic(expected = "store-only")]
    fn completion_to_host_cpu_rejected() {
        let (mut f, host, dev) = rig();
        let hostid = host;
        f.drive::<Probe, _>(dev, |_, ctx| {
            ctx.send(
                PortIdx(0),
                Tlp::completion(Tag(0), hostid, 0, vec![1], true),
            );
        });
        f.run_until_idle();
    }
}

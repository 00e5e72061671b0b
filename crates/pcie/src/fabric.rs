//! The PCIe fabric: topology, transmission, flow control, dispatch loop.
//!
//! A [`Fabric`] owns every device and link of a simulated system (one node,
//! or a whole TCA sub-cluster plus its InfiniBand network). It is the only
//! piece of code that moves packets: devices hand TLPs to their ports via
//! [`Ctx::send`](crate::Ctx::send), the fabric serializes them onto the
//! wire, enforces receiver credits, and delivers them to the peer device
//! after serialization + propagation time.
//!
//! Transmission rules per link direction:
//! * the wire serializes one packet at a time (store-and-forward);
//! * posted/non-posted requests share one FIFO, completions have their own
//!   FIFO that can bypass stalled requests (PCIe ordering rule, and the
//!   classic deadlock avoidance);
//! * a packet needs receiver credits before it may start serializing;
//!   credits return after the receiver consumes the packet (or later, if
//!   the receiving device holds them to model finite internal buffers).

use crate::device::{Action, CreditHold, Ctx, Device};
use crate::flow::CreditState;
use crate::link::{LinkParams, WireState};
use crate::slab::{TlpHandle, TlpSlab};
use crate::tlp::{DeviceId, Dir, FcClass, PortIdx, Tlp, TlpKind};
use std::any::Any;
use std::collections::{HashMap, VecDeque};
use tca_sim::metrics::{CounterId, GaugeId, MeterId};
use tca_sim::{
    Dur, EventQueue, FlightPayload, FlightRecorder, Fnv64, MetricsHub, MetricsSnapshot, Sampler,
    SimRng, SimTime, SpanStore, StallReport, TraceLevel, Tracer, Watchdog,
};

/// Identifier of a link within the fabric.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct LinkId(pub u32);

/// A configuration error observed while the fabric was running. These are
/// *software/config* mistakes (wrong routing table, missing cable), not
/// internal invariant violations: the offending packet is dropped, the
/// error is recorded, and the simulation keeps running so a verifier can
/// report every problem in one pass instead of dying on the first.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ConfigError {
    /// A device handed a TLP to a port with no link attached.
    UnconnectedPort {
        /// The sending device.
        device: DeviceId,
        /// The port the TLP was submitted on.
        port: PortIdx,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::UnconnectedPort { device, port } => {
                write!(f, "send on unconnected port dev{}:{port:?}", device.0)
            }
        }
    }
}

/// One queued fabric event. Kept small (16 bytes of payload) on purpose:
/// the timing wheel moves entries between levels as time advances, and a
/// `Deliver` carries only a [`TlpHandle`] into the fabric's [`TlpSlab`] —
/// the packet itself is parked once at transmit and taken at delivery,
/// never cloned and never dragged through the wheel.
enum Ev {
    Deliver {
        link: u32,
        dir: Dir,
        tlp: TlpHandle,
    },
    Timer {
        dst: DeviceId,
        tag: u64,
    },
    CreditReturn {
        link: u32,
        dir: Dir,
        class: FcClass,
        hdr: u32,
        data: u32,
    },
}

/// The kind of event one [`Fabric::step_kind`] call dispatched. Public
/// mirror of the private event enum, so the `tca-bench` profiler can
/// bucket host time per event kind without the fabric ever touching a
/// wall clock itself.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StepKind {
    /// A TLP arrived at a device.
    Deliver,
    /// A device timer fired.
    Timer,
    /// Flow-control credits returned to a link direction.
    CreditReturn,
}

impl StepKind {
    /// Stable lowercase name (JSON / folded-stack frame label).
    pub fn name(self) -> &'static str {
        match self {
            StepKind::Deliver => "deliver",
            StepKind::Timer => "timer",
            StepKind::CreditReturn => "credit_return",
        }
    }
}

/// What the flight recorder keeps of one dispatched fabric event: a
/// compact snapshot from which the `tca-flight/v1` digest and label are
/// rendered at export (or at eviction, with spill on). A delivery keeps the
/// packet's [`TlpKind`], whose payload is a shared buffer, so recording it
/// costs a reference-count bump rather than a copy or a hash.
#[derive(Clone)]
pub enum FabricFlight {
    /// A TLP arrived at a device.
    Deliver(TlpKind),
    /// A device timer fired; `name` is the device's [`Device::timer_kind`]
    /// for the tag, resolved at dispatch.
    Timer {
        /// The device-private timer tag.
        tag: u64,
        /// The device's name for the tag's encoding, if it has one.
        name: Option<&'static str>,
    },
    /// Flow-control credits returned to a link direction.
    CreditReturn {
        /// The link.
        link: u32,
        /// The direction whose sender regains the credits.
        dir: Dir,
        /// The credit class.
        class: FcClass,
        /// Header credits returned.
        hdr: u32,
        /// Data credits returned.
        data: u32,
    },
}

impl FlightPayload for FabricFlight {
    fn kind(&self) -> &'static str {
        match self {
            FabricFlight::Deliver(_) => StepKind::Deliver.name(),
            FabricFlight::Timer { .. } => StepKind::Timer.name(),
            FabricFlight::CreditReturn { .. } => StepKind::CreditReturn.name(),
        }
    }

    fn digest(&self) -> u64 {
        match self {
            FabricFlight::Deliver(kind) => kind.digest(),
            FabricFlight::Timer { tag, .. } => *tag,
            FabricFlight::CreditReturn {
                link,
                dir,
                class,
                hdr,
                data,
            } => Fnv64::new()
                .write_u64(u64::from(*link))
                .write_u64(dir.index() as u64)
                .write_u64(*class as u64)
                .write_u64(u64::from(*hdr))
                .write_u64(u64::from(*data))
                .finish(),
        }
    }

    fn write_label(&self, out: &mut String) {
        use std::fmt::Write as _;
        let _ = match self {
            FabricFlight::Deliver(kind) => write!(out, "{kind:?}"),
            FabricFlight::Timer { tag, name } => {
                write!(out, "{} tag={tag:#x}", name.unwrap_or("timer"))
            }
            FabricFlight::CreditReturn {
                link,
                dir,
                class,
                hdr,
                data,
            } => write!(out, "credits link{link}.{dir} {class:?} +{hdr}h/+{data}d"),
        };
    }
}

/// Host-side dispatch counters of one fabric (`tca-prof` layer one).
/// Plain integers bumped inside [`Fabric::step`] and the transmit path;
/// like [`tca_sim::ProfCounters`] they never schedule events and cannot
/// perturb the event stream.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FabricProf {
    /// `Ev::Deliver` events dispatched.
    pub deliver_events: u64,
    /// `Ev::Timer` events dispatched.
    pub timer_events: u64,
    /// `Ev::CreditReturn` events dispatched.
    pub credit_return_events: u64,
    /// Wire reservations made by the transmit path, replays included
    /// (each one serializes a TLP onto a link hop).
    pub tlp_transmits: u64,
}

impl FabricProf {
    /// Counter increments since `earlier`.
    pub fn since(&self, earlier: &FabricProf) -> FabricProf {
        FabricProf {
            deliver_events: self.deliver_events - earlier.deliver_events,
            timer_events: self.timer_events - earlier.timer_events,
            credit_return_events: self.credit_return_events - earlier.credit_return_events,
            tlp_transmits: self.tlp_transmits - earlier.tlp_transmits,
        }
    }
}

/// Metric handles of one link direction, registered at [`Fabric::connect`]
/// under `link.{id}.{fwd|rev}.*`.
#[derive(Clone, Copy)]
struct DirMetrics {
    tlps: CounterId,
    wire_bytes: MeterId,
    wire_busy_ns: CounterId,
    credit_stall_ns: CounterId,
    replays: CounterId,
    queue_depth: GaugeId,
    /// Header credits currently consumed across all three FC classes
    /// (initial advertisement minus available), refreshed at sample time.
    credits_in_use: GaugeId,
}

struct LinkDir {
    wire: WireState,
    credits: CreditState,
    /// Posted + non-posted requests blocked on credits, in order, each with
    /// its enqueue instant (so dequeue can attribute the credit stall).
    reqq: VecDeque<(SimTime, Tlp)>,
    /// Completions blocked on credits; may bypass blocked requests.
    cplq: VecDeque<(SimTime, Tlp)>,
    /// Total time packets spent queued waiting for credits.
    credit_stall: Dur,
    m: DirMetrics,
}

struct LinkState {
    params: LinkParams,
    /// `ends[0]` and `ends[1]`; direction `d` flows from `ends[d]` to
    /// `ends[1-d]`.
    ends: [(DeviceId, PortIdx); 2],
    dirs: [LinkDir; 2],
}

/// Aggregate counters for one link direction.
#[derive(Clone, Copy, Debug, Default)]
pub struct LinkDirStats {
    /// Total bytes pushed on the wire (payload + protocol overhead).
    pub wire_bytes: u64,
    /// Packets transmitted.
    pub packets: u64,
    /// Packets currently queued waiting for credits.
    pub queued: usize,
    /// Link-level replays (corrupted TLPs retransmitted by the DLL).
    pub replays: u64,
    /// Accumulated wire occupancy (serialization time, replays included).
    pub wire_busy: Dur,
    /// Accumulated time packets spent queued waiting for receiver credits.
    pub credit_stall: Dur,
}

/// The simulated PCIe fabric.
pub struct Fabric {
    queue: EventQueue<Ev>,
    devices: Vec<Box<dyn Device>>,
    ports: HashMap<(DeviceId, PortIdx), (u32, Dir)>,
    links: Vec<LinkState>,
    tracer: Tracer,
    metrics: MetricsHub,
    /// Causal span trees of in-flight and completed transfers.
    spans: SpanStore,
    /// Drives link-error injection (PEARL replays); deterministic.
    rng: SimRng,
    /// Configuration errors observed while running (packets dropped).
    config_errors: Vec<ConfigError>,
    /// Periodic gauge recorder; `None` unless sampling is enabled.
    sampler: Option<Sampler>,
    /// Progress watchdog; `None` unless armed.
    watchdog: Option<Watchdog>,
    /// Host-side dispatch counters (`tca-prof` layer one).
    prof: FabricProf,
    /// Flight recorder; `None` unless enabled. Boxed: the recorder is
    /// large and off by default, and keeping it out of line keeps the
    /// fields the dispatch loop touches packed together.
    flight: Option<Box<FlightRecorder<FabricFlight>>>,
    /// In-flight TLP storage; `Ev::Deliver` carries handles into it.
    tlps: TlpSlab,
    /// Reusable action buffer lent to each [`Ctx`]; drained and returned
    /// after every handler so steady-state dispatch allocates nothing.
    action_scratch: Vec<Action>,
    /// Reusable same-timestamp event batch for [`Fabric::run_until_idle`].
    batch_buf: Vec<Ev>,
}

impl Default for Fabric {
    fn default() -> Self {
        Self::new()
    }
}

impl Fabric {
    /// Creates an empty fabric.
    pub fn new() -> Self {
        Fabric {
            queue: EventQueue::new(),
            devices: Vec::new(),
            ports: HashMap::new(),
            links: Vec::new(),
            tracer: Tracer::default(),
            metrics: MetricsHub::new(),
            spans: SpanStore::new(),
            rng: SimRng::seed_from_u64(0x7ca_2013),
            config_errors: Vec::new(),
            sampler: None,
            watchdog: None,
            prof: FabricProf::default(),
            flight: None,
            tlps: TlpSlab::new(),
            action_scratch: Vec::new(),
            batch_buf: Vec::new(),
        }
    }

    /// Reseeds the error-injection stream (determinism is per seed).
    pub fn set_seed(&mut self, seed: u64) {
        self.rng = SimRng::seed_from_u64(seed);
    }

    /// Enables tracing at `level`, keeping the most recent `capacity` lines.
    pub fn set_trace(&mut self, level: TraceLevel, capacity: usize) {
        self.tracer = Tracer::new(level, capacity);
    }

    /// Renders the retained trace.
    pub fn dump_trace(&self) -> String {
        self.tracer.dump()
    }

    /// Renders the retained trace as Chrome trace-event JSON (`ph`/`ts`/
    /// `name` fields, timestamps in microseconds), loadable in Perfetto or
    /// `chrome://tracing`. When span tracing is on, the causal span trees
    /// are appended as complete (`"X"`) events plus cross-device flow
    /// (`"s"`/`"f"`) arrows in the same array; when sampling is enabled,
    /// every gauge series is appended as counter (`"C"`) events so the
    /// occupancy curves render under the spans.
    pub fn chrome_trace_json(&self) -> String {
        let mut out = self.tracer.chrome_trace_json();
        if !self.spans.is_empty() {
            out = Self::splice_json_arrays(out, self.spans.chrome_trace_json());
        }
        if let Some(s) = &self.sampler {
            out = Self::splice_json_arrays(out, s.chrome_counter_events_json());
        }
        out
    }

    /// Concatenates two JSON array strings into one array.
    fn splice_json_arrays(a: String, b: String) -> String {
        match (a.as_str(), b.as_str()) {
            ("[]", _) => b,
            (_, "[]") => a,
            _ => format!("{},{}", &a[..a.len() - 1], &b[1..]),
        }
    }

    /// Enables periodic gauge sampling at `period` of simulated time.
    /// Sampling is driven by the event queue (captures happen between
    /// events, never *as* events), so it cannot shift a single timestamp;
    /// see [`Sampler`]. Re-enabling replaces any previous series.
    pub fn enable_sampling(&mut self, period: Dur) {
        self.sampler = Some(Sampler::new(period));
    }

    /// The gauge time-series recorder, when sampling is enabled.
    pub fn sampler(&self) -> Option<&Sampler> {
        self.sampler.as_ref()
    }

    /// Arms the progress watchdog: if no DRAM commit or interrupt is
    /// delivered for `window` of simulated time — or the event queue drains
    /// with TLPs still blocked on credits — the watchdog captures a
    /// [`StallReport`] diagnosing the stalled links and engines. Pure
    /// observation: arming it never schedules events.
    pub fn arm_watchdog(&mut self, window: Dur) {
        self.watchdog = Some(Watchdog::new(window));
    }

    /// The armed watchdog, if any.
    pub fn watchdog(&self) -> Option<&Watchdog> {
        self.watchdog.as_ref()
    }

    /// The stall report, when the armed watchdog has fired.
    pub fn stall_report(&self) -> Option<&StallReport> {
        self.watchdog.as_ref().and_then(|w| w.report())
    }

    /// Enables the deterministic flight recorder, keeping the most recent
    /// `ring_capacity` dispatched events; with `spill`, events evicted
    /// from the ring are retained as pre-serialized JSONL lines so the
    /// full log survives. Like the sampler and watchdog, the recorder is
    /// a pure data sink driven from the dispatch loop — it never schedules
    /// events and never reads a wall clock, so a recorded run replays the
    /// exact event stream of an unrecorded one (proven byte-for-byte by
    /// `tests/determinism.rs`). Re-enabling replaces any previous log.
    pub fn enable_flight(&mut self, ring_capacity: usize, spill: bool) {
        self.flight = Some(Box::new(if spill {
            FlightRecorder::with_spill(ring_capacity)
        } else {
            FlightRecorder::new(ring_capacity)
        }));
    }

    /// The flight recorder, when enabled.
    pub fn flight(&self) -> Option<&FlightRecorder<FabricFlight>> {
        self.flight.as_deref()
    }

    /// The full flight log as `tca-flight/v1` JSONL — header, event lines,
    /// then the run's span records (so span trees can be bisected from the
    /// log alone) — or `None` when recording is off. Both parts stream
    /// into one pre-sized buffer.
    pub fn flight_jsonl(&self) -> Option<String> {
        let fl = self.flight.as_ref()?;
        let mut out = String::with_capacity(fl.jsonl_len_hint() + self.spans.json_len_hint());
        fl.write_jsonl(&mut out);
        self.spans.write_jsonl(&mut out);
        Some(out)
    }

    /// Enables or disables causal span tracing. Packets launched while
    /// disabled carry no [`tca_sim::TraceCtx`], and the store never
    /// schedules events, so this flag cannot shift simulated time.
    pub fn set_span_tracing(&mut self, enabled: bool) {
        self.spans.set_enabled(enabled);
    }

    /// Read access to the recorded span trees.
    pub fn spans(&self) -> &SpanStore {
        &self.spans
    }

    /// Write access to the span store, for host-side code (drivers,
    /// harnesses) that opens transfer roots from outside the event loop.
    pub fn spans_mut(&mut self) -> &mut SpanStore {
        &mut self.spans
    }

    /// Read access to the always-on metrics registry.
    pub fn metrics(&self) -> &MetricsHub {
        &self.metrics
    }

    /// Write access to the metrics registry, for host-side code (drivers,
    /// harnesses) that records fabric-scoped metrics such as interrupt
    /// latency. Recording metrics never schedules events, so instrumented
    /// and uninstrumented runs execute identically.
    pub fn metrics_mut(&mut self) -> &mut MetricsHub {
        &mut self.metrics
    }

    /// Takes a deterministic, name-sorted snapshot of every metric. Devices
    /// first publish their internal collectors via
    /// [`Device::publish_metrics`]; the snapshot is a pure read of simulated
    /// state and never advances time.
    pub fn metrics_snapshot(&mut self) -> MetricsSnapshot {
        for dev in &mut self.devices {
            dev.publish_metrics(&mut self.metrics);
        }
        self.metrics.snapshot()
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Total events executed (diagnostic).
    pub fn events_executed(&self) -> u64 {
        self.queue.events_executed()
    }

    /// Adds a device built by `f`, which receives the id the device will
    /// have (devices embed their id so they can stamp requester fields).
    pub fn add_device<D: Device, F: FnOnce(DeviceId) -> D>(&mut self, f: F) -> DeviceId {
        let id = DeviceId(self.devices.len() as u32);
        self.devices.push(Box::new(f(id)));
        id
    }

    /// Connects `a` and `b` with a link. Each `(device, port)` pair may be
    /// connected at most once.
    #[track_caller]
    pub fn connect(
        &mut self,
        a: (DeviceId, PortIdx),
        b: (DeviceId, PortIdx),
        params: LinkParams,
    ) -> LinkId {
        assert!(a != b, "cannot connect a port to itself");
        let id = self.links.len() as u32;
        for (end, pt) in [(Dir::Fwd, a), (Dir::Rev, b)] {
            assert!(
                (pt.0 .0 as usize) < self.devices.len(),
                "unknown device {:?}",
                pt.0
            );
            let prev = self.ports.insert(pt, (id, end));
            assert!(prev.is_none(), "port {pt:?} already connected");
        }
        let metrics = &mut self.metrics;
        let mut mk_dir = |dir: Dir| {
            let p = format!("link.{id}.{dir}");
            LinkDir {
                wire: WireState::default(),
                credits: CreditState::from_params(&params),
                reqq: VecDeque::new(),
                cplq: VecDeque::new(),
                credit_stall: Dur::ZERO,
                m: DirMetrics {
                    tlps: metrics.counter(format!("{p}.tlps")),
                    wire_bytes: metrics.meter(format!("{p}.wire_bytes")),
                    wire_busy_ns: metrics.counter(format!("{p}.wire_busy_ns")),
                    credit_stall_ns: metrics.counter(format!("{p}.credit_stall_ns")),
                    replays: metrics.counter(format!("{p}.replays")),
                    queue_depth: metrics.gauge(format!("{p}.queue_depth")),
                    credits_in_use: metrics.gauge(format!("{p}.credits_in_use")),
                },
            }
        };
        self.links.push(LinkState {
            params,
            ends: [a, b],
            dirs: [mk_dir(Dir::Fwd), mk_dir(Dir::Rev)],
        });
        LinkId(id)
    }

    /// The registered name of a device (report/diagnosis convenience).
    pub fn device_name(&self, id: DeviceId) -> &str {
        self.devices[id.0 as usize].name()
    }

    /// Immutable typed access to a device.
    #[track_caller]
    pub fn device<T: Device>(&self, id: DeviceId) -> &T {
        let d: &dyn Any = self.devices[id.0 as usize].as_ref();
        d.downcast_ref::<T>().expect("device type mismatch")
    }

    /// Mutable typed access to a device (for configuration between steps;
    /// use [`Fabric::drive`] when the mutation needs to emit packets).
    #[track_caller]
    pub fn device_mut<T: Device>(&mut self, id: DeviceId) -> &mut T {
        let d: &mut dyn Any = self.devices[id.0 as usize].as_mut();
        d.downcast_mut::<T>().expect("device type mismatch")
    }

    /// Runs `f` against a device with a live [`Ctx`], so host software
    /// models (drivers, benchmark harnesses) can inject stores, doorbells
    /// and timers from outside the event loop.
    #[track_caller]
    pub fn drive<T: Device, R>(
        &mut self,
        id: DeviceId,
        f: impl FnOnce(&mut T, &mut Ctx<'_>) -> R,
    ) -> R {
        let mut ctx = Ctx {
            now: self.queue.now(),
            self_id: id,
            actions: std::mem::take(&mut self.action_scratch),
            delivery_credits: None,
            progress: false,
            tracer: &mut self.tracer,
            spans: &mut self.spans,
        };
        let dev: &mut dyn Any = self.devices[id.0 as usize].as_mut();
        let dev = dev.downcast_mut::<T>().expect("device type mismatch");
        let r = f(dev, &mut ctx);
        let mut actions = std::mem::take(&mut ctx.actions);
        debug_assert!(ctx.delivery_credits.is_none());
        self.apply_actions(id, &mut actions);
        self.action_scratch = actions;
        r
    }

    /// Number of links in the fabric.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Per-direction link statistics; [`Dir::Fwd`] flows from the first
    /// endpoint passed to [`Fabric::connect`] to the second.
    pub fn link_stats(&self, link: LinkId, dir: Dir) -> LinkDirStats {
        let d = &self.links[link.0 as usize].dirs[dir.index()];
        LinkDirStats {
            wire_bytes: d.wire.wire_bytes,
            packets: d.wire.packets,
            queued: d.reqq.len() + d.cplq.len(),
            replays: d.wire.replays,
            wire_busy: d.wire.busy_time,
            credit_stall: d.credit_stall,
        }
    }

    /// The link and transmit direction a device port is attached to, if
    /// connected. Lets upper layers (the PEACH2 firmware's register file)
    /// map their local port numbering onto fabric link statistics.
    pub fn port_link(&self, dev: DeviceId, port: PortIdx) -> Option<(LinkId, Dir)> {
        self.ports
            .get(&(dev, port))
            .map(|&(link, dir)| (LinkId(link), dir))
    }

    /// The parameters a link was connected with (read-only introspection
    /// for static analysis: credit sizing, latency, payload limits).
    pub fn link_params(&self, link: LinkId) -> &LinkParams {
        &self.links[link.0 as usize].params
    }

    /// The two `(device, port)` endpoints of a link, in [`Dir::Fwd`] order
    /// (`[0]` is the first endpoint passed to [`Fabric::connect`]).
    pub fn link_endpoints(&self, link: LinkId) -> [(DeviceId, PortIdx); 2] {
        self.links[link.0 as usize].ends
    }

    /// Configuration errors observed while running, in occurrence order.
    /// Empty on a correctly configured fabric; each entry corresponds to a
    /// dropped packet (see [`ConfigError`]).
    pub fn config_errors(&self) -> &[ConfigError] {
        &self.config_errors
    }

    /// Executes events until the queue drains; returns the final time.
    /// With the watchdog armed, a drain that leaves TLPs blocked on credits
    /// (a permanently starved link — nothing left to pump them) fires the
    /// watchdog with a diagnosis instead of returning silently.
    ///
    /// The drain is batched: [`EventQueue::pop_run`] detaches every event
    /// sharing the earliest timestamp in one queue operation, and the batch
    /// dispatches back-to-back. Dispatch order is exactly the single-step
    /// order (a slot list is stored in sequence order, and events a handler
    /// schedules at the *same* instant get larger sequence numbers, so they
    /// surface in the next batch precisely where `step` would pop them);
    /// the flight recorder and watchdog still run per event, and the
    /// sampler runs once per batch — equivalent to once per event, since no
    /// sample grid point can fall strictly *before* a timestamp the batch
    /// is already at.
    pub fn run_until_idle(&mut self) -> SimTime {
        let mut batch = std::mem::take(&mut self.batch_buf);
        loop {
            self.sample_pending();
            if self.queue.pop_run(&mut batch).is_none() {
                break;
            }
            for ev in batch.drain(..) {
                if self.flight.is_some() {
                    self.record_flight(&ev);
                }
                self.dispatch(ev);
                self.check_watchdog();
            }
        }
        self.batch_buf = batch;
        self.check_drained_stall();
        self.queue.now()
    }

    /// Executes events with timestamps `<= deadline`.
    pub fn run_until(&mut self, deadline: SimTime) {
        while let Some(t) = self.queue.peek_time() {
            if t > deadline {
                break;
            }
            self.step();
        }
    }

    /// Executes one event. Returns `false` when the queue is idle.
    pub fn step(&mut self) -> bool {
        self.step_kind().is_some()
    }

    /// Executes one event and reports its kind (`None` when idle). The
    /// profiling entry point: a harness can wrap each call in its own
    /// wall-clock timer and bucket host time per event kind, while the
    /// fabric itself stays wall-clock-free.
    pub fn step_kind(&mut self) -> Option<StepKind> {
        self.sample_pending();
        let (_, ev) = self.queue.pop()?;
        if self.flight.is_some() {
            self.record_flight(&ev);
        }
        let kind = self.dispatch(ev);
        self.check_watchdog();
        Some(kind)
    }

    /// Executes one already-popped event (shared by the single-step and
    /// batched drivers) and reports its kind.
    fn dispatch(&mut self, ev: Ev) -> StepKind {
        match ev {
            Ev::Deliver { link, dir, tlp } => {
                self.prof.deliver_events += 1;
                let tlp = self.tlps.take(tlp);
                self.deliver(link, dir, tlp);
                StepKind::Deliver
            }
            Ev::Timer { dst, tag } => {
                self.prof.timer_events += 1;
                self.dispatch_timer(dst, tag);
                StepKind::Timer
            }
            Ev::CreditReturn {
                link,
                dir,
                class,
                hdr,
                data,
            } => {
                self.prof.credit_return_events += 1;
                self.links[link as usize].dirs[dir.index()]
                    .credits
                    .replenish(class, hdr, data);
                self.pump_link(link, dir);
                StepKind::CreditReturn
            }
        }
    }

    /// Host-side dispatch counters accumulated since construction.
    pub fn prof(&self) -> FabricProf {
        self.prof
    }

    /// Host-side counters of the underlying event queue (pushes, pops,
    /// cancels, wheel cascades, peak pending depth).
    pub fn queue_prof(&self) -> tca_sim::ProfCounters {
        *self.queue.prof()
    }

    /// Number of events currently pending in the queue. Exact: the timing
    /// wheel unlinks cancelled entries eagerly, so there is no tombstone
    /// residue to subtract.
    pub fn queue_depth(&self) -> usize {
        self.queue.pending()
    }

    /// Appends the just-popped event to the flight recorder, if enabled.
    /// Runs between pop and dispatch so the log order *is* the dispatch
    /// order; pure data capture — nothing here schedules events or touches
    /// link state, so recording cannot shift simulated time. Callers test
    /// `self.flight.is_some()` first, so an unrecorded run pays one branch
    /// per event; the body stays out of line so that branch is all the
    /// dispatch loop carries.
    #[inline(never)]
    fn record_flight(&mut self, ev: &Ev) {
        let Some(fl) = &mut self.flight else {
            return;
        };
        let at = self.queue.now();
        match *ev {
            Ev::Deliver { link, dir, tlp } => {
                let (dst, port) = self.links[link as usize].ends[dir.flip().index()];
                let tlp = self.tlps.get(tlp);
                fl.record(
                    at,
                    dst.0,
                    Some(port.0),
                    tlp.span.map(|s| s.root.raw()),
                    FabricFlight::Deliver(tlp.kind.clone()),
                );
            }
            Ev::Timer { dst, tag } => {
                let name = self.devices[dst.0 as usize].timer_kind(tag);
                fl.record(at, dst.0, None, None, FabricFlight::Timer { tag, name });
            }
            Ev::CreditReturn {
                link,
                dir,
                class,
                hdr,
                data,
            } => {
                let (src, port) = self.links[link as usize].ends[dir.index()];
                let credit = FabricFlight::CreditReturn {
                    link,
                    dir,
                    class,
                    hdr,
                    data,
                };
                fl.record(at, src.0, Some(port.0), None, credit);
            }
        }
    }

    /// Takes every sample due strictly before the next queued event. The
    /// gap between events is already decided when this runs, so capturing
    /// inside it is invisible to the simulation: no event is scheduled and
    /// `now` does not move (captures are timestamped on the sample grid).
    fn sample_pending(&mut self) {
        let Some(mut sampler) = self.sampler.take() else {
            return;
        };
        if let Some(next_event) = self.queue.peek_time() {
            while sampler.due_before(next_event) {
                let at = sampler.next_due();
                self.refresh_live_gauges();
                for dev in &mut self.devices {
                    dev.publish_metrics(&mut self.metrics);
                }
                sampler.capture(at, &self.metrics);
            }
        }
        self.sampler = Some(sampler);
    }

    /// Re-publishes the gauges whose live value only the fabric knows:
    /// queued-TLP depth and consumed header credits per link direction.
    fn refresh_live_gauges(&mut self) {
        for l in &self.links {
            let advertised = CreditState::from_params(&l.params);
            for d in &l.dirs {
                self.metrics
                    .gauge_set(d.m.queue_depth, (d.reqq.len() + d.cplq.len()) as i64);
                let in_use = advertised.posted_hdr.saturating_sub(d.credits.posted_hdr)
                    + advertised
                        .nonposted_hdr
                        .saturating_sub(d.credits.nonposted_hdr)
                    + advertised
                        .completion_hdr
                        .saturating_sub(d.credits.completion_hdr);
                self.metrics.gauge_set(d.m.credits_in_use, in_use as i64);
            }
        }
    }

    /// Fires the watchdog when the no-progress window has elapsed.
    fn check_watchdog(&mut self) {
        let now = self.queue.now();
        if matches!(&self.watchdog, Some(w) if w.expired(now)) {
            let diagnosis = self.stall_diagnosis();
            if let Some(w) = &mut self.watchdog {
                w.fire(now, diagnosis);
            }
        }
    }

    /// Fires the watchdog when the queue drained with TLPs still blocked.
    fn check_drained_stall(&mut self) {
        let armed_quiet = matches!(&self.watchdog, Some(w) if w.report().is_none());
        if !armed_quiet {
            return;
        }
        let stuck = self.links.iter().any(|l| {
            l.dirs
                .iter()
                .any(|d| !d.reqq.is_empty() || !d.cplq.is_empty())
        });
        if stuck {
            let now = self.queue.now();
            let diagnosis = self.stall_diagnosis();
            if let Some(w) = &mut self.watchdog {
                w.fire(now, diagnosis);
            }
        }
    }

    /// Renders what is known about the stall: every link direction with
    /// blocked TLPs and its credit state, the oldest in-flight span, and
    /// each device's self-reported engine state.
    fn stall_diagnosis(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (i, l) in self.links.iter().enumerate() {
            let advertised = CreditState::from_params(&l.params);
            for dir in [Dir::Fwd, Dir::Rev] {
                let d = &l.dirs[dir.index()];
                let queued = d.reqq.len() + d.cplq.len();
                if queued == 0 {
                    continue;
                }
                let src = l.ends[dir.index()].0;
                let dst = l.ends[dir.flip().index()].0;
                let c = &d.credits;
                writeln!(
                    out,
                    "  link {i}.{dir} {} -> {}: {queued} TLP(s) blocked on credits \
                     (hdr avail P/NP/C {}/{}/{} of {}/{}/{}, data avail P/C {}/{} of {}/{})",
                    self.devices[src.0 as usize].name(),
                    self.devices[dst.0 as usize].name(),
                    c.posted_hdr,
                    c.nonposted_hdr,
                    c.completion_hdr,
                    advertised.posted_hdr,
                    advertised.nonposted_hdr,
                    advertised.completion_hdr,
                    c.posted_data,
                    c.completion_data,
                    advertised.posted_data,
                    advertised.completion_data,
                )
                .expect("write to String");
            }
        }
        let oldest_open = self
            .spans
            .roots()
            .into_iter()
            .filter(|&(_, _, _, end)| end.is_none())
            .min_by_key(|&(_, _, start, _)| start);
        if let Some((_, name, start, _)) = oldest_open {
            writeln!(out, "  oldest in-flight span: `{name}` open since {start}")
                .expect("write to String");
        }
        for dev in &self.devices {
            if let Some(status) = dev.health_status() {
                writeln!(out, "  {}: {status}", dev.name()).expect("write to String");
            }
        }
        if out.is_empty() {
            out.push_str("  (no blocked link queues; all devices silent)\n");
        }
        out
    }

    fn deliver(&mut self, link: u32, dir: Dir, tlp: Tlp) {
        let l = &self.links[link as usize];
        let (dst, port) = l.ends[dir.flip().index()];
        let class = tlp.fc_class();
        let data = tlp.data_credits();
        let credit_delay = l.params.credit_return_delay;
        // Interrupts are forward progress in their own right. Writes count
        // only when the receiving device reports a commit via
        // `Ctx::note_progress` — a chip relaying a packet another hop is
        // NOT progress, or routing loops would keep the watchdog quiet
        // while packets circulate forever without ever landing in DRAM.
        if let Some(w) = &mut self.watchdog {
            if matches!(tlp.kind, TlpKind::Msi { .. }) {
                w.progress(self.queue.now());
            }
        }
        self.tracer.emit(TraceLevel::Packet, self.queue.now(), || {
            format!("deliver {tlp:?} -> dev{}:{port:?}", dst.0)
        });

        let mut ctx = Ctx {
            now: self.queue.now(),
            self_id: dst,
            actions: std::mem::take(&mut self.action_scratch),
            delivery_credits: Some(CreditHold {
                link,
                dir,
                class,
                hdr: 1,
                data,
            }),
            progress: false,
            tracer: &mut self.tracer,
            spans: &mut self.spans,
        };
        self.devices[dst.0 as usize].on_tlp(port, tlp, &mut ctx);
        let mut actions = std::mem::take(&mut ctx.actions);
        if ctx.progress {
            if let Some(w) = &mut self.watchdog {
                w.progress(self.queue.now());
            }
        }
        let auto_release = ctx.delivery_credits.take();
        if let Some(hold) = auto_release {
            // Receiver consumed the packet inline; return credits after the
            // receiver-side processing + DLLP turnaround delay.
            self.queue.schedule_in(
                credit_delay,
                Ev::CreditReturn {
                    link: hold.link,
                    dir: hold.dir,
                    class: hold.class,
                    hdr: hold.hdr,
                    data: hold.data,
                },
            );
        }
        self.apply_actions(dst, &mut actions);
        self.action_scratch = actions;
    }

    fn dispatch_timer(&mut self, dst: DeviceId, tag: u64) {
        let mut ctx = Ctx {
            now: self.queue.now(),
            self_id: dst,
            actions: std::mem::take(&mut self.action_scratch),
            delivery_credits: None,
            progress: false,
            tracer: &mut self.tracer,
            spans: &mut self.spans,
        };
        self.devices[dst.0 as usize].on_timer(tag, &mut ctx);
        let mut actions = std::mem::take(&mut ctx.actions);
        if ctx.progress {
            if let Some(w) = &mut self.watchdog {
                w.progress(self.queue.now());
            }
        }
        self.apply_actions(dst, &mut actions);
        self.action_scratch = actions;
    }

    /// Applies a handler's queued actions, draining (but keeping the
    /// capacity of) the borrowed scratch buffer.
    fn apply_actions(&mut self, src: DeviceId, actions: &mut Vec<Action>) {
        for a in actions.drain(..) {
            match a {
                Action::Send { port, tlp } => self.submit(src, port, tlp),
                Action::Timer { delay, tag } => {
                    self.queue.schedule_in(delay, Ev::Timer { dst: src, tag });
                }
                Action::Release { hold } => {
                    self.queue.schedule_in(
                        self.links[hold.link as usize].params.credit_return_delay,
                        Ev::CreditReturn {
                            link: hold.link,
                            dir: hold.dir,
                            class: hold.class,
                            hdr: hold.hdr,
                            data: hold.data,
                        },
                    );
                }
            }
        }
    }

    /// Enqueues `tlp` for transmission from `(src, port)`. A send on an
    /// unconnected port is a *configuration* error (bad routing table,
    /// missing cable), not an internal invariant: the TLP is dropped and
    /// recorded in [`Fabric::config_errors`] so `tca-verify` can surface it
    /// as a diagnostic.
    #[track_caller]
    fn submit(&mut self, src: DeviceId, port: PortIdx, tlp: Tlp) {
        let Some(&(link, end)) = self.ports.get(&(src, port)) else {
            let err = ConfigError::UnconnectedPort { device: src, port };
            self.tracer.emit(TraceLevel::Txn, self.queue.now(), || {
                format!("{err}: dropping {tlp:?}")
            });
            self.config_errors.push(err);
            return;
        };
        let params = self.links[link as usize].params;
        match &tlp.kind {
            TlpKind::MemWrite { data, .. } | TlpKind::Completion { data, .. } => {
                assert!(
                    data.len() as u32 <= params.max_payload,
                    "TLP payload {} exceeds MPS {} on link {link}",
                    data.len(),
                    params.max_payload
                );
            }
            TlpKind::MemRead { len, .. } => {
                assert!(
                    *len <= params.max_read_request,
                    "read request {len} exceeds MRRS {}",
                    params.max_read_request
                );
            }
            TlpKind::Msi { .. } => {}
        }
        let d = &mut self.links[link as usize].dirs[end.index()];
        let is_cpl = tlp.fc_class() == FcClass::Completion;
        let queue_empty = if is_cpl {
            d.cplq.is_empty()
        } else {
            d.reqq.is_empty()
        };
        if queue_empty && d.credits.consume(tlp.fc_class(), tlp.data_credits()) {
            Self::transmit(
                &mut self.queue,
                &mut self.tracer,
                &mut self.metrics,
                &mut self.spans,
                &mut self.rng,
                &mut self.prof,
                &mut self.tlps,
                link,
                end,
                params,
                d,
                src,
                tlp,
            );
        } else {
            let now = self.queue.now();
            if is_cpl {
                d.cplq.push_back((now, tlp));
            } else {
                d.reqq.push_back((now, tlp));
            }
            self.metrics
                .gauge_set(d.m.queue_depth, (d.reqq.len() + d.cplq.len()) as i64);
        }
    }

    /// Reserves the wire and schedules delivery for a credit-approved TLP.
    /// With a non-zero link error rate, corrupted transmissions occupy the
    /// wire, are NAKed, and replay after the penalty — in order, exactly
    /// like a PCIe/PEARL data-link-layer replay buffer.
    #[allow(clippy::too_many_arguments)] // split borrows of fabric fields
    fn transmit(
        queue: &mut EventQueue<Ev>,
        tracer: &mut Tracer,
        metrics: &mut MetricsHub,
        spans: &mut SpanStore,
        rng: &mut SimRng,
        prof: &mut FabricProf,
        tlps: &mut TlpSlab,
        link: u32,
        dir: Dir,
        params: LinkParams,
        d: &mut LinkDir,
        sender: DeviceId,
        tlp: Tlp,
    ) {
        let corrupt_p = params.error_rate_ppm as f64 / 1e6;
        let submitted = queue.now();
        loop {
            prof.tlp_transmits += 1;
            let wire_bytes = tlp.wire_bytes();
            let (departure, arrival) = d.wire.reserve(queue.now(), &params, wire_bytes);
            metrics.add(
                d.m.wire_busy_ns,
                params.serialize(wire_bytes).as_ps() / 1_000,
            );
            metrics.record_bytes(d.m.wire_bytes, departure, wire_bytes);
            if corrupt_p > 0.0 && rng.gen_bool(corrupt_p) {
                // LCRC failure at the receiver: discard, NAK, replay. The
                // wire time was spent; the replay waits for the NAK round
                // trip and retransmits (possibly corrupting again).
                d.wire.replays += 1;
                d.wire.busy_until = d.wire.busy_until.max(arrival) + params.replay_penalty();
                metrics.inc(d.m.replays);
                if let Some(sp) = tlp.span {
                    spans.segment(sp, "replay", departure, arrival, Some(sender.0));
                }
                tracer.emit(TraceLevel::Packet, queue.now(), || {
                    format!("tx link{link}/{dir} {tlp:?} CORRUPT -> replay")
                });
                continue;
            }
            metrics.inc(d.m.tlps);
            if let Some(sp) = tlp.span {
                // Head-of-line wait behind earlier packets serializing on
                // this wire, then the traversal itself (tx + propagation).
                if departure > submitted {
                    spans.segment(sp, "wire_wait", submitted, departure, Some(sender.0));
                }
                spans.segment(sp, "wire", departure, arrival, Some(sender.0));
            }
            tracer.emit(TraceLevel::Packet, queue.now(), || {
                format!("tx link{link}/{dir} {tlp:?} depart={departure} arrive={arrival}")
            });
            let tlp = tlps.insert(tlp);
            queue.schedule_at(arrival, Ev::Deliver { link, dir, tlp });
            break;
        }
    }

    /// After credits return, pushes out as many queued packets as now fit.
    fn pump_link(&mut self, link: u32, dir: Dir) {
        let params = self.links[link as usize].params;
        let sender = self.links[link as usize].ends[dir.index()].0;
        let d = &mut self.links[link as usize].dirs[dir.index()];
        loop {
            // Completions first: they must be able to bypass stalled
            // requests or read traffic deadlocks behind write bursts.
            let from_cpl = match (d.cplq.front(), d.reqq.front()) {
                (Some((_, c)), _) if d.credits.available(FcClass::Completion, c.data_credits()) => {
                    true
                }
                (_, Some((_, r))) if d.credits.available(r.fc_class(), r.data_credits()) => false,
                _ => break,
            };
            let (queued_at, tlp) = if from_cpl {
                d.cplq.pop_front().expect("checked front")
            } else {
                d.reqq.pop_front().expect("checked front")
            };
            let stall = self.queue.now().since(queued_at);
            d.credit_stall += stall;
            self.metrics.add(d.m.credit_stall_ns, stall.as_ps() / 1_000);
            self.metrics
                .gauge_set(d.m.queue_depth, (d.reqq.len() + d.cplq.len()) as i64);
            if let Some(sp) = tlp.span {
                if stall > Dur::ZERO {
                    self.spans
                        .segment(sp, "stall", queued_at, self.queue.now(), Some(sender.0));
                }
            }
            let ok = d.credits.consume(tlp.fc_class(), tlp.data_credits());
            debug_assert!(ok);
            Self::transmit(
                &mut self.queue,
                &mut self.tracer,
                &mut self.metrics,
                &mut self.spans,
                &mut self.rng,
                &mut self.prof,
                &mut self.tlps,
                link,
                dir,
                params,
                d,
                sender,
                tlp,
            );
        }
    }

    /// Schedules a bare timer for a device from outside any handler
    /// (harness convenience).
    pub fn schedule_timer(&mut self, dst: DeviceId, delay: Dur, tag: u64) {
        self.queue.schedule_in(delay, Ev::Timer { dst, tag });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::PageMemory;
    use crate::tlp::Tag;
    use bytes::Bytes;

    /// Minimal memory endpoint used by fabric unit tests: consumes writes
    /// into a PageMemory, answers reads with completions, counts MSIs.
    struct TestMem {
        #[allow(dead_code)]
        id: DeviceId,
        mem: PageMemory,
        msi_count: u32,
        cpl_count: u32,
        delivered_writes: Vec<(SimTime, u64, usize)>,
    }

    impl TestMem {
        fn new(id: DeviceId) -> Self {
            TestMem {
                id,
                mem: PageMemory::new(),
                msi_count: 0,
                cpl_count: 0,
                delivered_writes: Vec::new(),
            }
        }
    }

    impl Device for TestMem {
        fn on_tlp(&mut self, port: PortIdx, tlp: Tlp, ctx: &mut Ctx<'_>) {
            match tlp.kind {
                TlpKind::MemWrite { addr, data } => {
                    self.delivered_writes.push((ctx.now(), addr, data.len()));
                    self.mem.write(addr, &data);
                }
                TlpKind::MemRead {
                    addr,
                    len,
                    tag,
                    requester,
                } => {
                    let data = self.mem.read(addr, len as usize);
                    ctx.send(port, Tlp::completion(tag, requester, 0, data, true));
                }
                TlpKind::Completion { .. } => self.cpl_count += 1,
                TlpKind::Msi { .. } => self.msi_count += 1,
            }
        }
        fn on_timer(&mut self, _tag: u64, _ctx: &mut Ctx<'_>) {}
    }

    /// A requester that fires a burst of writes or one read at t=0.
    struct Requester {
        #[allow(dead_code)]
        id: DeviceId,
        got: Vec<(SimTime, Bytes)>,
    }
    impl Device for Requester {
        fn on_tlp(&mut self, _port: PortIdx, tlp: Tlp, ctx: &mut Ctx<'_>) {
            if let TlpKind::Completion { data, .. } = tlp.kind {
                self.got.push((ctx.now(), data));
            }
        }
        fn on_timer(&mut self, _tag: u64, _ctx: &mut Ctx<'_>) {}
    }

    fn pair() -> (Fabric, DeviceId, DeviceId) {
        let mut f = Fabric::new();
        let req = f.add_device(|id| Requester { id, got: vec![] });
        let mem = f.add_device(TestMem::new);
        f.connect(
            (req, PortIdx(0)),
            (mem, PortIdx(0)),
            LinkParams::gen2_x8().with_latency(Dur::from_ns(100)),
        );
        (f, req, mem)
    }

    #[test]
    fn write_arrives_with_serialization_and_latency() {
        let (mut f, req, mem) = pair();
        f.drive::<Requester, _>(req, |_, ctx| {
            ctx.send(PortIdx(0), Tlp::write(0x1000, vec![0xab; 256]));
        });
        f.run_until_idle();
        let m = f.device::<TestMem>(mem);
        assert_eq!(m.delivered_writes.len(), 1);
        let (t, addr, len) = m.delivered_writes[0];
        assert_eq!((addr, len), (0x1000, 256));
        // 280 wire bytes at 4 GB/s = 70 ns + 100 ns latency.
        assert_eq!(t, SimTime::from_ps(170_000));
        assert_eq!(m.mem.read(0x1000, 3), vec![0xab; 3]);
    }

    #[test]
    fn back_to_back_writes_pipeline_on_the_wire() {
        let (mut f, req, mem) = pair();
        f.drive::<Requester, _>(req, |_, ctx| {
            for i in 0..10u64 {
                ctx.send(PortIdx(0), Tlp::write(0x1000 + i * 256, vec![i as u8; 256]));
            }
        });
        f.run_until_idle();
        let m = f.device::<TestMem>(mem);
        assert_eq!(m.delivered_writes.len(), 10);
        // Arrivals are exactly 70 ns apart: the wire is the bottleneck,
        // the latency is paid once per packet but overlaps.
        for w in m.delivered_writes.windows(2) {
            assert_eq!(w[1].0.since(w[0].0), Dur::from_ns(70));
        }
    }

    #[test]
    fn read_round_trip_returns_data() {
        let (mut f, req, mem) = pair();
        f.device_mut::<TestMem>(mem).mem.write(0x2000, b"ping");
        f.drive::<Requester, _>(req, |d, ctx| {
            ctx.send(PortIdx(0), Tlp::read(0x2000, 4, crate::tlp::Tag(7), d.id));
        });
        f.run_until_idle();
        let r = f.device::<Requester>(req);
        assert_eq!(r.got.len(), 1);
        assert_eq!(&r.got[0].1[..], b"ping");
        // Round trip: request 24 B (6 ns) + 100 ns + completion 28 B (7 ns) + 100 ns.
        assert_eq!(r.got[0].0, SimTime::from_ps(213_000));
    }

    #[test]
    fn msi_is_posted_and_counted() {
        let (mut f, req, mem) = pair();
        f.drive::<Requester, _>(req, |_, ctx| {
            ctx.send(PortIdx(0), Tlp::msi(3));
            ctx.send(PortIdx(0), Tlp::msi(3));
        });
        f.run_until_idle();
        assert_eq!(f.device::<TestMem>(mem).msi_count, 2);
    }

    #[test]
    fn flow_control_blocks_and_recovers() {
        let mut f = Fabric::new();
        let req = f.add_device(|id| Requester { id, got: vec![] });
        let mem = f.add_device(TestMem::new);
        // Tiny credit pool: 2 posted headers / 32 data credits.
        let mut p = LinkParams::gen2_x8().with_latency(Dur::from_ns(10));
        p.posted_hdr_credits = 2;
        p.posted_data_credits = 32;
        f.connect((req, PortIdx(0)), (mem, PortIdx(0)), p);
        f.drive::<Requester, _>(req, |_, ctx| {
            for i in 0..20u64 {
                ctx.send(PortIdx(0), Tlp::write(i * 256, vec![1u8; 256]));
            }
        });
        f.run_until_idle();
        let m = f.device::<TestMem>(mem);
        assert_eq!(m.delivered_writes.len(), 20, "all packets eventually land");
        // With only 2 packets in flight and 100 ns credit-return turnaround,
        // spacing is credit-limited, not wire-limited (> 70 ns apart on avg).
        let first = m.delivered_writes.first().unwrap().0;
        let last = m.delivered_writes.last().unwrap().0;
        assert!(last.since(first) > Dur::from_ns(19 * 70));
    }

    #[test]
    fn ordering_is_fifo_per_direction() {
        let (mut f, req, mem) = pair();
        f.drive::<Requester, _>(req, |_, ctx| {
            for i in 0..50u64 {
                ctx.send(PortIdx(0), Tlp::write(0x100 * i, vec![i as u8; 64]));
            }
        });
        f.run_until_idle();
        let m = f.device::<TestMem>(mem);
        let addrs: Vec<u64> = m.delivered_writes.iter().map(|w| w.1).collect();
        let mut sorted = addrs.clone();
        sorted.sort_unstable();
        assert_eq!(addrs, sorted, "writes delivered in issue order");
    }

    #[test]
    fn link_stats_accumulate() {
        let (mut f, req, _mem) = pair();
        f.drive::<Requester, _>(req, |_, ctx| {
            ctx.send(PortIdx(0), Tlp::write(0, vec![0u8; 100]));
        });
        f.run_until_idle();
        let s = f.link_stats(LinkId(0), Dir::Fwd);
        assert_eq!(s.packets, 1);
        assert_eq!(s.wire_bytes, 124);
        assert_eq!(s.queued, 0);
        let rev = f.link_stats(LinkId(0), Dir::Rev);
        assert_eq!(rev.packets, 0);
    }

    #[test]
    fn send_on_unconnected_port_is_recorded_not_fatal() {
        let mut f = Fabric::new();
        let req = f.add_device(|id| Requester { id, got: vec![] });
        f.drive::<Requester, _>(req, |_, ctx| {
            ctx.send(PortIdx(5), Tlp::msi(0));
        });
        f.run_until_idle();
        assert_eq!(
            f.config_errors(),
            &[ConfigError::UnconnectedPort {
                device: req,
                port: PortIdx(5)
            }]
        );
        assert_eq!(
            f.config_errors()[0].to_string(),
            "send on unconnected port dev0:p5"
        );
    }

    #[test]
    #[should_panic(expected = "exceeds MPS")]
    fn oversized_payload_panics() {
        let (mut f, req, _) = pair();
        f.drive::<Requester, _>(req, |_, ctx| {
            ctx.send(PortIdx(0), Tlp::write(0, vec![0u8; 512]));
        });
    }

    #[test]
    #[should_panic(expected = "already connected")]
    fn double_connect_rejected() {
        let mut f = Fabric::new();
        let a = f.add_device(|id| Requester { id, got: vec![] });
        let b = f.add_device(TestMem::new);
        let c = f.add_device(TestMem::new);
        f.connect((a, PortIdx(0)), (b, PortIdx(0)), LinkParams::gen2_x8());
        f.connect((a, PortIdx(0)), (c, PortIdx(0)), LinkParams::gen2_x8());
    }

    #[test]
    fn completions_bypass_blocked_requests() {
        // Saturate posted credits with writes, then issue a completion on
        // the same direction: it must not wait behind the blocked queue
        // (PCIe ordering rule / deadlock avoidance).
        let mut f = Fabric::new();
        let req = f.add_device(|id| Requester { id, got: vec![] });
        let mem = f.add_device(TestMem::new);
        let mut p = LinkParams::gen2_x8().with_latency(Dur::from_ns(10));
        p.posted_hdr_credits = 1;
        p.posted_data_credits = 16;
        p.credit_return_delay = Dur::from_us(50); // writes stall a long time
        f.connect((req, PortIdx(0)), (mem, PortIdx(0)), p);
        let reqid = req;
        f.drive::<Requester, _>(req, |_, ctx| {
            for i in 0..4u64 {
                ctx.send(PortIdx(0), Tlp::write(i * 256, vec![1u8; 256]));
            }
            // This completion is queued after the writes...
            ctx.send(
                PortIdx(0),
                Tlp::completion(Tag(9), reqid, 0, vec![2u8; 64], true),
            );
        });
        // Run a short window: far less than the 50 µs credit stall.
        f.run_until(SimTime::from_ps(5_000_000)); // 5 µs
        let s = f.link_stats(LinkId(0), Dir::Fwd);
        // 1 write went out (first credit), the completion bypassed the
        // other 3 blocked writes.
        assert_eq!(s.packets, 2, "write + bypassing completion");
        assert_eq!(s.queued, 3, "three writes still blocked");
        // Drain fully: everything eventually arrives.
        f.run_until_idle();
        let m = f.device::<TestMem>(mem);
        assert_eq!(m.delivered_writes.len(), 4);
        assert_eq!(m.cpl_count, 1);
    }

    #[test]
    fn run_until_respects_the_deadline() {
        let (mut f, req, mem) = pair();
        f.drive::<Requester, _>(req, |_, ctx| {
            for i in 0..10u64 {
                ctx.send(PortIdx(0), Tlp::write(i * 256, vec![0u8; 256]));
            }
        });
        // Arrivals at 170 ns, 240 ns, ... (70 ns apart). Stop at 300 ns.
        f.run_until(SimTime::from_ps(300_000));
        let got = f.device::<TestMem>(mem).delivered_writes.len();
        assert_eq!(got, 2, "exactly the arrivals before the deadline");
        assert!(f.now() <= SimTime::from_ps(300_000));
        f.run_until_idle();
        assert_eq!(f.device::<TestMem>(mem).delivered_writes.len(), 10);
    }

    #[test]
    fn packet_trace_captures_hops() {
        let (mut f, req, _mem) = pair();
        f.set_trace(TraceLevel::Packet, 64);
        f.drive::<Requester, _>(req, |_, ctx| {
            ctx.send(PortIdx(0), Tlp::write(0xabc0, vec![1u8; 64]));
        });
        f.run_until_idle();
        let dump = f.dump_trace();
        assert!(dump.contains("tx link0/fwd"), "{dump}");
        assert!(dump.contains("deliver"), "{dump}");
        assert!(dump.contains("0xabc0"), "{dump}");
    }

    #[test]
    fn lossy_link_delivers_everything_exactly_once() {
        // PEARL reliability: at 5% TLP corruption every byte still arrives,
        // in order, with replays counted.
        let mut f = Fabric::new();
        let req = f.add_device(|id| Requester { id, got: vec![] });
        let mem = f.add_device(TestMem::new);
        f.connect(
            (req, PortIdx(0)),
            (mem, PortIdx(0)),
            LinkParams::gen2_x8()
                .with_latency(Dur::from_ns(100))
                .with_error_rate_ppm(50_000),
        );
        f.drive::<Requester, _>(req, |_, ctx| {
            for i in 0..200u64 {
                ctx.send(PortIdx(0), Tlp::write(i * 256, vec![i as u8; 256]));
            }
        });
        f.run_until_idle();
        let m = f.device::<TestMem>(mem);
        assert_eq!(m.delivered_writes.len(), 200, "exactly once");
        let addrs: Vec<u64> = m.delivered_writes.iter().map(|w| w.1).collect();
        let mut sorted = addrs.clone();
        sorted.sort_unstable();
        assert_eq!(addrs, sorted, "order preserved through replays");
        let s = f.link_stats(LinkId(0), Dir::Fwd);
        assert!(s.replays > 0, "some replays must have occurred");
        for i in 0..200u64 {
            assert_eq!(m.mem.read(i * 256, 1), vec![i as u8], "payload {i}");
        }
    }

    #[test]
    fn lossy_link_reduces_bandwidth() {
        let run = |ppm: u32| {
            let mut f = Fabric::new();
            let req = f.add_device(|id| Requester { id, got: vec![] });
            let mem = f.add_device(TestMem::new);
            f.connect(
                (req, PortIdx(0)),
                (mem, PortIdx(0)),
                LinkParams::gen2_x8()
                    .with_latency(Dur::from_ns(100))
                    .with_error_rate_ppm(ppm),
            );
            f.drive::<Requester, _>(req, |_, ctx| {
                for i in 0..1000u64 {
                    ctx.send(PortIdx(0), Tlp::write(i * 256, vec![0u8; 256]));
                }
            });
            f.run_until_idle().as_ps()
        };
        let clean = run(0);
        let lossy = run(100_000); // 10%
        assert!(lossy > clean + clean / 20, "clean={clean} lossy={lossy}");
    }

    #[test]
    fn error_injection_is_seed_deterministic() {
        let run = |seed: u64| {
            let mut f = Fabric::new();
            f.set_seed(seed);
            let req = f.add_device(|id| Requester { id, got: vec![] });
            let mem = f.add_device(TestMem::new);
            f.connect(
                (req, PortIdx(0)),
                (mem, PortIdx(0)),
                LinkParams::gen2_x8().with_error_rate_ppm(30_000),
            );
            f.drive::<Requester, _>(req, |_, ctx| {
                for i in 0..500u64 {
                    ctx.send(PortIdx(0), Tlp::write(i * 64, vec![1u8; 64]));
                }
            });
            f.run_until_idle();
            (f.now().as_ps(), f.link_stats(LinkId(0), Dir::Fwd).replays)
        };
        assert_eq!(run(42), run(42), "same seed, same replay schedule");
        assert_ne!(run(42).1, run(43).1, "different seeds diverge");
    }

    #[test]
    fn bandwidth_saturates_toward_theoretical_peak() {
        // 4096 × 256-byte writes: delivered-bytes / elapsed must approach
        // the §IV-A1 theoretical peak (3.657 GB/s), since the wire is the
        // only bottleneck in this two-device setup.
        let (mut f, req, mem) = pair();
        f.drive::<Requester, _>(req, |_, ctx| {
            for i in 0..4096u64 {
                ctx.send(PortIdx(0), Tlp::write(i * 256, vec![0u8; 256]));
            }
        });
        let end = f.run_until_idle();
        let m = f.device::<TestMem>(mem);
        let bytes: usize = m.delivered_writes.iter().map(|w| w.2).sum();
        let bw = bytes as f64 / end.since(SimTime::ZERO).as_s_f64();
        let peak = LinkParams::gen2_x8().theoretical_peak_bytes_per_sec();
        assert!(bw / peak > 0.99, "bw={bw:.3e} peak={peak:.3e}");
    }

    #[test]
    fn port_link_maps_ports_to_directions() {
        let (f, req, mem) = pair();
        assert_eq!(f.port_link(req, PortIdx(0)), Some((LinkId(0), Dir::Fwd)));
        assert_eq!(f.port_link(mem, PortIdx(0)), Some((LinkId(0), Dir::Rev)));
        assert_eq!(f.port_link(req, PortIdx(7)), None);
    }

    #[test]
    fn metrics_track_wire_time_and_tlps() {
        let (mut f, req, _mem) = pair();
        f.drive::<Requester, _>(req, |_, ctx| {
            for i in 0..10u64 {
                ctx.send(PortIdx(0), Tlp::write(i * 256, vec![0u8; 256]));
            }
        });
        f.run_until_idle();
        let snap = f.metrics_snapshot();
        assert_eq!(snap.counter("link.0.fwd.tlps"), Some(10));
        // 280 wire bytes at 4 GB/s = 70 ns per packet.
        assert_eq!(snap.counter("link.0.fwd.wire_busy_ns"), Some(700));
        assert_eq!(snap.counter("link.0.fwd.credit_stall_ns"), Some(0));
        assert_eq!(snap.counter("link.0.rev.tlps"), Some(0));
        match snap.get("link.0.fwd.wire_bytes") {
            Some(tca_sim::MetricValue::Bandwidth { bytes, .. }) => assert_eq!(*bytes, 2800),
            other => panic!("unexpected {other:?}"),
        }
        let stats = f.link_stats(LinkId(0), Dir::Fwd);
        assert_eq!(stats.wire_busy, Dur::from_ns(700));
        assert_eq!(stats.credit_stall, Dur::ZERO);
    }

    #[test]
    fn metrics_attribute_credit_stall_and_queue_depth() {
        let mut f = Fabric::new();
        let req = f.add_device(|id| Requester { id, got: vec![] });
        let mem = f.add_device(TestMem::new);
        let mut p = LinkParams::gen2_x8().with_latency(Dur::from_ns(10));
        p.posted_hdr_credits = 2;
        p.posted_data_credits = 32;
        f.connect((req, PortIdx(0)), (mem, PortIdx(0)), p);
        f.drive::<Requester, _>(req, |_, ctx| {
            for i in 0..20u64 {
                ctx.send(PortIdx(0), Tlp::write(i * 256, vec![1u8; 256]));
            }
        });
        f.run_until_idle();
        let snap = f.metrics_snapshot();
        let stall = snap.counter("link.0.fwd.credit_stall_ns").unwrap();
        assert!(stall > 0, "credit-starved run must accumulate stall time");
        let stats = f.link_stats(LinkId(0), Dir::Fwd);
        assert_eq!(stats.credit_stall.as_ps() / 1_000, stall);
        match snap.get("link.0.fwd.queue_depth") {
            Some(tca_sim::MetricValue::Gauge { current, peak }) => {
                assert_eq!(*current, 0, "queue drained");
                assert_eq!(*peak, 18, "18 writes were blocked behind 2 credits");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    /// A receiver that takes the credit hold of every delivery and never
    /// releases it — models a sink whose internal buffer never drains, the
    /// deliberate credit-starvation case for watchdog tests.
    struct Hoarder {
        #[allow(dead_code)]
        id: DeviceId,
        holds: Vec<CreditHold>,
    }
    impl Device for Hoarder {
        fn on_tlp(&mut self, _port: PortIdx, _tlp: Tlp, ctx: &mut Ctx<'_>) {
            self.holds.push(ctx.hold_credits());
        }
        fn on_timer(&mut self, _tag: u64, _ctx: &mut Ctx<'_>) {}
        fn name(&self) -> &str {
            "hoarder"
        }
        fn health_status(&self) -> Option<String> {
            Some(format!("{} credit hold(s) outstanding", self.holds.len()))
        }
    }

    #[test]
    fn watchdog_diagnoses_credit_starved_link() {
        let mut f = Fabric::new();
        let req = f.add_device(|id| Requester { id, got: vec![] });
        let sink = f.add_device(|id| Hoarder { id, holds: vec![] });
        let mut p = LinkParams::gen2_x8().with_latency(Dur::from_ns(10));
        p.posted_hdr_credits = 1;
        f.connect((req, PortIdx(0)), (sink, PortIdx(0)), p);
        f.arm_watchdog(Dur::from_us(100));
        f.drive::<Requester, _>(req, |_, ctx| {
            for i in 0..3u64 {
                ctx.send(PortIdx(0), Tlp::write(i * 256, vec![1u8; 256]));
            }
        });
        // The first write consumes the only posted header credit and is
        // delivered; the hoarder keeps the hold, so the credit never
        // returns and the queue drains with two writes still blocked.
        f.run_until_idle();
        let report = f.stall_report().expect("watchdog must fire");
        let rendered = report.render();
        assert!(rendered.contains("WATCHDOG"), "{rendered}");
        assert!(
            report.diagnosis.contains("link 0.fwd"),
            "diagnosis names the starved link: {}",
            report.diagnosis
        );
        assert!(
            report.diagnosis.contains("2 TLP(s) blocked on credits"),
            "{}",
            report.diagnosis
        );
        assert!(
            report
                .diagnosis
                .contains("hoarder: 1 credit hold(s) outstanding"),
            "diagnosis names the stalled engine: {}",
            report.diagnosis
        );
    }

    #[test]
    fn watchdog_drained_stall_names_oldest_in_flight_span() {
        // The drained-stall path with span tracing on: the queue empties
        // with TLPs still blocked AND a transfer tree still open, so the
        // diagnosis must name that oldest in-flight span — the line an
        // operator greps for to learn *which* transfer never completed.
        let mut f = Fabric::new();
        let req = f.add_device(|id| Requester { id, got: vec![] });
        let sink = f.add_device(|id| Hoarder { id, holds: vec![] });
        let mut p = LinkParams::gen2_x8().with_latency(Dur::from_ns(10));
        p.posted_hdr_credits = 1;
        f.connect((req, PortIdx(0)), (sink, PortIdx(0)), p);
        f.set_span_tracing(true);
        f.arm_watchdog(Dur::from_us(100));
        f.spans_mut()
            .start_root("stuck_put", SimTime::ZERO, Some(0))
            .expect("tracing enabled");
        f.drive::<Requester, _>(req, |_, ctx| {
            for i in 0..3u64 {
                ctx.send(PortIdx(0), Tlp::write(i * 256, vec![1u8; 256]));
            }
        });
        // Drains long before the 100 µs window: only `check_drained_stall`
        // (not the periodic in-run check) can have fired the watchdog.
        let end = f.run_until_idle();
        assert!(end < SimTime::from_ps(100_000_000), "drained early: {end}");
        let report = f.stall_report().expect("drained stall must fire");
        assert_eq!(report.at, end, "fired at the drain instant");
        assert!(
            report
                .diagnosis
                .contains("oldest in-flight span: `stuck_put`"),
            "diagnosis names the open transfer: {}",
            report.diagnosis
        );
        assert!(
            report.diagnosis.contains("blocked on credits"),
            "{}",
            report.diagnosis
        );
    }

    #[test]
    fn watchdog_stays_quiet_on_healthy_run() {
        let (mut f, req, _mem) = pair();
        f.arm_watchdog(Dur::from_us(100));
        f.drive::<Requester, _>(req, |_, ctx| {
            for i in 0..10u64 {
                ctx.send(PortIdx(0), Tlp::write(i * 256, vec![0u8; 256]));
            }
        });
        f.run_until_idle();
        assert!(f.stall_report().is_none());
    }

    #[test]
    fn watchdog_fires_on_progress_free_event_churn() {
        // Livelock shape: timers keep firing but no write/MSI ever lands.
        struct Spinner {
            #[allow(dead_code)]
            id: DeviceId,
        }
        impl Device for Spinner {
            fn on_tlp(&mut self, _p: PortIdx, _t: Tlp, _c: &mut Ctx<'_>) {}
            fn on_timer(&mut self, tag: u64, ctx: &mut Ctx<'_>) {
                ctx.timer_in(Dur::from_ns(50), tag);
            }
            fn name(&self) -> &str {
                "spinner"
            }
        }
        let mut f = Fabric::new();
        let s = f.add_device(|id| Spinner { id });
        f.arm_watchdog(Dur::from_us(2));
        f.schedule_timer(s, Dur::from_ns(50), 0);
        f.run_until(SimTime::from_ps(10_000_000)); // 10 µs of churn
        let report = f.stall_report().expect("no progress for 10 µs");
        assert!(report.at <= SimTime::from_ps(10_000_000));
        assert_eq!(report.last_progress, SimTime::ZERO);
        assert!(
            report.diagnosis.contains("all devices silent"),
            "{}",
            report.diagnosis
        );
    }

    /// Renders `ev` the way the recorder did before it deferred rendering:
    /// digest and label computed from the live packet at dispatch time.
    fn eager_flight_event(f: &Fabric, ev: &Ev, seq: u64) -> tca_sim::FlightEvent {
        let at = f.queue.now();
        let (kind, node, port, span, digest, label) = match ev {
            Ev::Deliver { link, dir, tlp } => {
                let (dst, port) = f.links[*link as usize].ends[dir.flip().index()];
                let tlp = f.tlps.get(*tlp);
                let span = tlp.span.map(|s| s.root.raw());
                let label = format!("{tlp:?}");
                ("deliver", dst.0, Some(port.0), span, tlp.digest(), label)
            }
            Ev::Timer { dst, tag } => {
                let label = match f.devices[dst.0 as usize].timer_kind(*tag) {
                    Some(kind) => format!("{kind} tag={tag:#x}"),
                    None => format!("timer tag={tag:#x}"),
                };
                ("timer", dst.0, None, None, *tag, label)
            }
            Ev::CreditReturn {
                link,
                dir,
                class,
                hdr,
                data,
            } => {
                let (src, port) = f.links[*link as usize].ends[dir.index()];
                let digest = Fnv64::new()
                    .write_u64(u64::from(*link))
                    .write_u64(dir.index() as u64)
                    .write_u64(*class as u64)
                    .write_u64(u64::from(*hdr))
                    .write_u64(u64::from(*data))
                    .finish();
                let label = format!("credits link{link}.{dir} {class:?} +{hdr}h/+{data}d");
                ("credit_return", src.0, Some(port.0), None, digest, label)
            }
        };
        tca_sim::FlightEvent {
            seq,
            at,
            kind,
            node,
            port,
            span,
            digest,
            label,
        }
    }

    #[test]
    fn deferred_flight_logs_equal_eager_rendering() {
        /// Timer-driven traffic source: every tick writes a tag-dependent
        /// payload (span-traced on even ticks), reads back every third
        /// tick, and names only its even tags.
        struct Ticker {
            id: DeviceId,
            left: u32,
        }
        impl Device for Ticker {
            fn on_tlp(&mut self, _p: PortIdx, _t: Tlp, _c: &mut Ctx<'_>) {}
            fn on_timer(&mut self, tag: u64, ctx: &mut Ctx<'_>) {
                let now = ctx.now();
                let span = if tag.is_multiple_of(2) {
                    ctx.spans().start_root("tick", now, Some(self.id.0))
                } else {
                    None
                };
                let payload: Vec<u8> = (0..64 + tag as usize % 5 * 48)
                    .map(|i| (i as u64 ^ tag) as u8)
                    .collect();
                ctx.send(
                    PortIdx(0),
                    Tlp::write(0x1000 + tag * 0x100, payload).with_span(span),
                );
                if tag.is_multiple_of(3) {
                    ctx.send(PortIdx(0), Tlp::read(0x1000, 32, Tag(tag as u16), self.id));
                }
                if self.left > 0 {
                    self.left -= 1;
                    ctx.timer_in(Dur::from_ns(15), tag + 1);
                }
            }
            fn timer_kind(&self, tag: u64) -> Option<&'static str> {
                tag.is_multiple_of(2).then_some("tick")
            }
        }
        let build = |flight: Option<bool>| {
            let mut f = Fabric::new();
            let t = f.add_device(|id| Ticker { id, left: 40 });
            let mem = f.add_device(TestMem::new);
            let mut p = LinkParams::gen2_x8().with_latency(Dur::from_ns(10));
            p.posted_hdr_credits = 2;
            f.connect((t, PortIdx(0)), (mem, PortIdx(0)), p);
            f.set_span_tracing(true);
            if let Some(spill) = flight {
                f.enable_flight(RING, spill);
            }
            f.schedule_timer(t, Dur::from_ns(1), 0);
            f
        };
        const RING: usize = 32;

        // The reference: every event rendered the moment it is dispatched.
        let mut f = build(None);
        let mut eager = Vec::new();
        while let Some((_, ev)) = f.queue.pop() {
            eager.push(eager_flight_event(&f, &ev, eager.len() as u64 + 1).jsonl());
            f.dispatch(ev);
        }
        let n = eager.len();
        assert!(n > 4 * RING, "run must outgrow the ring: {n} events");
        for needle in [
            "\"kind\":\"deliver\"",
            "\"kind\":\"timer\"",
            "\"kind\":\"credit_return\"",
            "\"label\":\"tick tag=",
            "\"label\":\"timer tag=",
            "\"label\":\"MemRd[",
            "\"label\":\"Cpl[",
            "\"span\":1,",
        ] {
            assert!(eager.iter().any(|l| l.contains(needle)), "no {needle}");
        }

        for spill in [false, true] {
            let mut f = build(Some(spill));
            f.run_until_idle();
            let fl = f.flight().expect("enabled");
            let log = fl.jsonl();
            let lines: Vec<&str> = log.lines().collect();
            let dropped = if spill { 0 } else { n - RING };
            assert_eq!(
                lines[0],
                format!("{{\"schema\":\"tca-flight/v1\",\"events\":{n},\"dropped\":{dropped}}}")
            );
            assert_eq!(lines[1..], eager[dropped..], "spill={spill}");
            let rendered: Vec<String> = fl.events().map(|e| e.jsonl()).collect();
            assert_eq!(rendered, eager[n - RING..], "spill={spill}");
            let full = f.flight_jsonl().expect("enabled");
            assert_eq!(full, log + &f.spans().jsonl());
        }
    }

    #[test]
    fn sampling_records_series_without_shifting_time() {
        let run = |sample: bool| {
            let mut f = Fabric::new();
            let req = f.add_device(|id| Requester { id, got: vec![] });
            let mem = f.add_device(TestMem::new);
            let mut p = LinkParams::gen2_x8().with_latency(Dur::from_ns(10));
            p.posted_hdr_credits = 2;
            p.posted_data_credits = 32;
            f.connect((req, PortIdx(0)), (mem, PortIdx(0)), p);
            if sample {
                f.enable_sampling(Dur::from_ns(50));
                f.arm_watchdog(Dur::from_ms(1));
            }
            f.drive::<Requester, _>(req, |_, ctx| {
                for i in 0..20u64 {
                    ctx.send(PortIdx(0), Tlp::write(i * 256, vec![1u8; 256]));
                }
            });
            let end = f.run_until_idle();
            (end, f.events_executed(), f)
        };
        let (t_plain, ev_plain, _) = run(false);
        let (t_sampled, ev_sampled, f) = run(true);
        assert_eq!(t_plain, t_sampled, "sampling must not move time");
        assert_eq!(ev_plain, ev_sampled, "sampling must not add events");
        assert!(f.stall_report().is_none());
        let sampler = f.sampler().expect("enabled");
        assert!(sampler.captures() > 5, "got {}", sampler.captures());
        let depth = sampler
            .series_by_name("link.0.fwd.queue_depth")
            .expect("series recorded");
        assert!(
            depth.samples.iter().any(|&(_, v)| v > 0),
            "credit-limited run must show nonzero queue occupancy"
        );
        let credits = sampler
            .series_by_name("link.0.fwd.credits_in_use")
            .expect("series recorded");
        assert!(credits.samples.iter().any(|&(_, v)| v > 0));
        // Counter events land in the Chrome trace.
        assert!(f.chrome_trace_json().contains("\"ph\":\"C\""));
        // Identical runs produce byte-identical series JSON.
        let (_, _, f2) = run(true);
        assert_eq!(
            f.sampler().unwrap().to_json(),
            f2.sampler().unwrap().to_json()
        );
    }
}

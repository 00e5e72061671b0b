//! Deterministic flight recorder: a bounded ring of structured dispatch
//! events, serialized as schema-versioned JSONL (`tca-flight/v1`).
//!
//! The recorder is a pure data sink, exactly like [`crate::MetricsHub`] and
//! [`crate::SpanStore`]: recording never schedules events, never reads a
//! wall clock, and never branches the simulation, so a recorded run and an
//! unrecorded run execute identically and two recorded runs of the same
//! seeded workload produce byte-identical logs. That property is what makes
//! the log *diffable*: `tca-verify`'s divergence engine aligns two logs by
//! sequence number and the first mismatching line is, by construction, the
//! first point where the two runs actually differed.
//!
//! ## Ring buffer and spill
//!
//! Capture is bounded: the most recent `capacity` events live in a ring
//! (`VecDeque`), so an arbitrarily long run records in O(capacity) memory —
//! the black-box-recorder mode. The ring holds *compact* records: the
//! dispatch instant, node, port, root span and a [`FlightPayload`] — for a
//! packet delivery, the packet's kind itself, which shares the payload
//! buffer instead of copying it. Nothing is hashed or formatted while the
//! simulation runs: the content digest and the label are rendered from the
//! payload only when a record is exported ([`FlightRecorder::jsonl`]) or,
//! with spill enabled, when it is evicted from the ring. Spill appends the
//! evicted record's JSONL line to a retained buffer, so the full log
//! survives — the record-everything mode used by `tca-bench --flight-dir`.
//! Either way the emitted log is identical for the events it covers, and
//! identical to rendering every event the moment it was dispatched (the
//! payload is immutable); the header states how many events were recorded
//! and how many were dropped unserialized.
//!
//! ## Log format
//!
//! One JSON object per line. The first line is the header:
//!
//! ```text
//! {"schema":"tca-flight/v1","events":1234,"dropped":0}
//! ```
//!
//! then one line per event, in dispatch order:
//!
//! ```text
//! {"seq":7,"t_ps":170000,"kind":"deliver","node":2,"port":0,"span":3,"digest":"91ab...","label":"MemWr[0x1000 +256B]"}
//! ```
//!
//! `digest` is a 16-hex-digit FNV-1a content hash (see [`Fnv64`]) kept as a
//! string because JSON numbers cannot carry 64 bits exactly. Writers may
//! append the run's span records (`{"id":..,"root":..,...}`, the
//! [`crate::SpanStore::jsonl`] lines) after the events so analysis tools
//! can bisect span trees from the log alone.

use crate::json::JsonLine;
use crate::time::SimTime;
use std::collections::VecDeque;

/// Schema tag of the flight-log header line.
pub const FLIGHT_SCHEMA: &str = "tca-flight/v1";

/// Streaming 64-bit FNV-1a hasher. Deterministic across platforms and
/// allocation-free, which is why the flight recorder uses it (and not
/// `DefaultHasher`, whose output is unspecified) for packet content
/// digests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fnv64(u64);

impl Fnv64 {
    /// A hasher at the FNV-1a offset basis.
    pub fn new() -> Fnv64 {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }

    /// Folds `bytes` into the hash.
    pub fn update(&mut self, bytes: &[u8]) -> &mut Fnv64 {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
        self
    }

    /// Folds a `u64` in little-endian byte order.
    pub fn write_u64(&mut self, v: u64) -> &mut Fnv64 {
        self.update(&v.to_le_bytes())
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Fnv64 {
        Fnv64::new()
    }
}

/// What a flight record carries beyond its envelope (instant, node, port,
/// span): enough to render the event's kind, digest and label later.
/// Implementations must be immutable snapshots of the dispatched event, so
/// rendering at export yields exactly what rendering at dispatch would.
pub trait FlightPayload {
    /// Stable kind name (`"deliver"`, `"timer"`, `"credit_return"`).
    fn kind(&self) -> &'static str;
    /// FNV-1a content digest (see [`Fnv64`]).
    fn digest(&self) -> u64;
    /// Appends the human-readable label, unescaped.
    fn write_label(&self, out: &mut String);
}

/// One recorded dispatch, rendered: what the event loop executed, when,
/// and on whose behalf.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FlightEvent {
    /// 1-based dispatch sequence number (the alignment key for diffing).
    pub seq: u64,
    /// Simulated instant the event executed.
    pub at: SimTime,
    /// Stable kind name (`"deliver"`, `"timer"`, `"credit_return"`).
    pub kind: &'static str,
    /// Device the event acted on (delivery destination, timer owner, or
    /// credit-returning link endpoint).
    pub node: u32,
    /// Device-local port involved, when the event is port-scoped.
    pub port: Option<u8>,
    /// Root span id of the transfer the event serves, when span tracing
    /// attached one.
    pub span: Option<u64>,
    /// FNV-1a content digest (TLP payload identity, timer tag, or credit
    /// tuple) — catches payload corruption even when timing agrees.
    pub digest: u64,
    /// Human-readable description (`MemWr[0x1000 +256B]`, `relay_forward
    /// tag=0x600…`).
    pub label: String,
}

impl FlightEvent {
    /// The event's JSONL line (no trailing newline), in the fixed key order
    /// the schema promises.
    pub fn jsonl(&self) -> String {
        let mut line = JsonLine::default();
        write_line(self, &mut line);
        let mut out = String::new();
        line.finish(&mut out);
        out
    }
}

/// Writes `ev`'s JSONL line (no trailing newline) into `line`. The one
/// writer of event lines: [`FlightEvent::jsonl`], spill and export all
/// render through it.
fn write_line(ev: &FlightEvent, line: &mut JsonLine) {
    // Integers print verbatim (not through the `f64` document model), so
    // `t_ps` stays exact at any magnitude.
    line.raw("{\"seq\":");
    line.digits(ev.seq);
    line.raw(",\"t_ps\":");
    line.digits(ev.at.as_ps());
    line.raw(",\"kind\":\"");
    line.raw(ev.kind);
    line.raw("\",\"node\":");
    line.digits(ev.node.into());
    line.raw(",\"port\":");
    match ev.port {
        Some(p) => line.digits(p.into()),
        None => line.raw("null"),
    }
    line.raw(",\"span\":");
    match ev.span {
        Some(s) => line.digits(s),
        None => line.raw("null"),
    }
    line.raw(",\"digest\":\"");
    line.hex16(ev.digest);
    line.raw("\",\"label\":");
    line.str(&ev.label);
    line.raw("}");
}

/// The buffers one rendered record leaves behind for the next: the label
/// of the event and the bytes of its line. Export and spill render every
/// record through one of these, so a long log allocates nothing per line.
#[derive(Clone, Debug, Default)]
struct LineWriter {
    ev: FlightEvent,
    line: JsonLine,
}

impl LineWriter {
    /// Appends `rec`'s line, as dispatch number `seq`, to `out`.
    fn write<P: FlightPayload>(&mut self, seq: u64, rec: &Record<P>, out: &mut String) {
        rec.render_into(seq, &mut self.ev);
        write_line(&self.ev, &mut self.line);
        self.line.raw("\n");
        self.line.finish(out);
    }
}

/// A compact ring entry; see the module docs.
#[derive(Clone, Debug)]
struct Record<P> {
    at: SimTime,
    node: u32,
    port: Option<u8>,
    span: Option<u64>,
    payload: P,
}

impl<P: FlightPayload> Record<P> {
    /// Renders the record as dispatch number `seq`.
    fn render(&self, seq: u64) -> FlightEvent {
        let mut ev = FlightEvent::default();
        self.render_into(seq, &mut ev);
        ev
    }

    /// [`Record::render`] into `ev`, reusing its label buffer.
    fn render_into(&self, seq: u64, ev: &mut FlightEvent) {
        ev.seq = seq;
        ev.at = self.at;
        ev.kind = self.payload.kind();
        ev.node = self.node;
        ev.port = self.port;
        ev.span = self.span;
        ev.digest = self.payload.digest();
        ev.label.clear();
        self.payload.write_label(&mut ev.label);
    }
}

/// The recorder: a bounded ring of compact records with optional spill of
/// evicted records to rendered JSONL lines. See the module docs for the
/// determinism contract and log format.
#[derive(Clone, Debug)]
pub struct FlightRecorder<P> {
    capacity: usize,
    ring: VecDeque<Record<P>>,
    /// JSONL lines (newline-terminated) of records evicted from the ring;
    /// `None` disables spill and evictions only bump `dropped`.
    spill: Option<String>,
    /// Render buffers of the spill path.
    writer: LineWriter,
    next_seq: u64,
    dropped: u64,
}

impl<P: FlightPayload> FlightRecorder<P> {
    /// A ring-only recorder keeping the most recent `capacity` events.
    ///
    /// # Panics
    /// Panics when `capacity` is zero.
    pub fn new(capacity: usize) -> FlightRecorder<P> {
        assert!(capacity > 0, "flight ring capacity must be non-zero");
        FlightRecorder {
            capacity,
            ring: VecDeque::with_capacity(capacity),
            spill: None,
            writer: LineWriter::default(),
            next_seq: 0,
            dropped: 0,
        }
    }

    /// A recorder that spills evicted events to JSONL so the full log is
    /// retained regardless of ring size.
    pub fn with_spill(capacity: usize) -> FlightRecorder<P> {
        FlightRecorder {
            spill: Some(String::new()),
            ..FlightRecorder::new(capacity)
        }
    }

    /// Appends one event, assigning it the next sequence number. Evicts the
    /// oldest ring entry first when full (rendering it into the spill, or
    /// dropping it).
    pub fn record(
        &mut self,
        at: SimTime,
        node: u32,
        port: Option<u8>,
        span: Option<u64>,
        payload: P,
    ) {
        if self.ring.len() == self.capacity {
            let oldest = self.ring.pop_front().expect("non-empty full ring");
            match &mut self.spill {
                Some(lines) => {
                    let seq = self.next_seq - self.capacity as u64 + 1;
                    self.writer.write(seq, &oldest, lines);
                }
                None => self.dropped += 1,
            }
        }
        self.next_seq += 1;
        self.ring.push_back(Record {
            at,
            node,
            port,
            span,
            payload,
        });
    }

    /// Total events recorded since construction.
    pub fn recorded(&self) -> u64 {
        self.next_seq
    }

    /// Events evicted without spill (absent from the emitted log).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Events currently held in the ring.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True when nothing has been recorded or everything was evicted.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// The retained events, oldest first, each rendered on demand.
    pub fn events(&self) -> impl Iterator<Item = FlightEvent> + '_ {
        (self.first_seq()..)
            .zip(&self.ring)
            .map(|(seq, rec)| rec.render(seq))
    }

    /// The dispatch number of the oldest ring entry.
    fn first_seq(&self) -> u64 {
        self.next_seq + 1 - self.ring.len() as u64
    }

    /// The header line (no trailing newline).
    pub fn header(&self) -> String {
        format!(
            "{{\"schema\":\"{FLIGHT_SCHEMA}\",\"events\":{},\"dropped\":{}}}",
            self.next_seq, self.dropped
        )
    }

    /// The full log as JSONL: header, spilled lines, then the ring —
    /// newline-terminated, byte-deterministic.
    pub fn jsonl(&self) -> String {
        let mut out = String::with_capacity(self.jsonl_len_hint());
        self.write_jsonl(&mut out);
        out
    }

    /// Appends the [`FlightRecorder::jsonl`] log to `out`, rendering each
    /// ring record straight into it.
    pub fn write_jsonl(&self, out: &mut String) {
        out.push_str(&self.header());
        out.push('\n');
        if let Some(lines) = &self.spill {
            out.push_str(lines);
        }
        let mut writer = LineWriter::default();
        for (seq, rec) in (self.first_seq()..).zip(&self.ring) {
            writer.write(seq, rec, out);
        }
    }

    /// A capacity estimate for the rendered log, in bytes.
    pub fn jsonl_len_hint(&self) -> usize {
        64 + self.spill.as_ref().map_or(0, String::len) + self.ring.len() * 160
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::JsonValue;

    /// A payload that carries its rendering verbatim.
    #[derive(Clone, Debug)]
    struct Fixed {
        kind: &'static str,
        digest: u64,
        label: String,
    }

    impl FlightPayload for Fixed {
        fn kind(&self) -> &'static str {
            self.kind
        }
        fn digest(&self) -> u64 {
            self.digest
        }
        fn write_label(&self, out: &mut String) {
            out.push_str(&self.label);
        }
    }

    fn ev(r: &mut FlightRecorder<Fixed>, n: u32) {
        r.record(
            SimTime::from_ps(u64::from(n) * 100),
            n,
            Some(0),
            Some(1),
            Fixed {
                kind: "deliver",
                digest: u64::from(n) * 7,
                label: format!("ev{n}"),
            },
        );
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(Fnv64::new().finish(), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv64::new().update(b"a").finish(), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(Fnv64::new().update(b"foobar").finish(), 0x85944171f73967e8);
    }

    #[test]
    fn ring_keeps_most_recent_and_counts_drops() {
        let mut r = FlightRecorder::new(2);
        for n in 0..5 {
            ev(&mut r, n);
        }
        assert_eq!((r.recorded(), r.dropped(), r.len()), (5, 3, 2));
        let seqs: Vec<u64> = r.events().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![4, 5]);
        assert!(r.header().contains("\"events\":5,\"dropped\":3"));
    }

    #[test]
    fn spill_retains_full_log_in_order() {
        let mut r = FlightRecorder::with_spill(2);
        for n in 0..5 {
            ev(&mut r, n);
        }
        assert_eq!(r.dropped(), 0);
        let log = r.jsonl();
        let lines: Vec<&str> = log.lines().collect();
        assert_eq!(lines.len(), 6); // header + 5 events
        for (i, line) in lines.iter().enumerate().skip(1) {
            let v = JsonValue::parse(line).expect("valid JSON line");
            assert_eq!(v.get("seq").and_then(JsonValue::as_u64), Some(i as u64));
        }
    }

    #[test]
    fn jsonl_lines_parse_and_round_trip_fields() {
        let mut r = FlightRecorder::new(8);
        r.record(
            SimTime::from_ps(42),
            3,
            None,
            None,
            Fixed {
                kind: "timer",
                digest: 0xdead_beef,
                label: "odd \"label\"\twith\ncontrol \u{1} bytes".to_owned(),
            },
        );
        let line = r.events().next().expect("one event").jsonl();
        let v = JsonValue::parse(&line).expect("valid JSON");
        assert_eq!(v.get("t_ps").and_then(JsonValue::as_u64), Some(42));
        assert_eq!(v.get("kind").and_then(JsonValue::as_str), Some("timer"));
        assert!(matches!(v.get("port"), Some(JsonValue::Null)));
        assert!(matches!(v.get("span"), Some(JsonValue::Null)));
        assert_eq!(
            v.get("digest").and_then(JsonValue::as_str),
            Some("00000000deadbeef")
        );
        assert_eq!(
            v.get("label").and_then(JsonValue::as_str),
            Some("odd \"label\"\twith\ncontrol \u{1} bytes")
        );
    }

    /// The event-line rendering through `core::fmt` that the line writer
    /// replaced.
    fn fmt_line(ev: &FlightEvent) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"seq\":{},\"t_ps\":{},\"kind\":\"{}\",\"node\":{}",
            ev.seq,
            ev.at.as_ps(),
            ev.kind,
            ev.node
        );
        match ev.port {
            Some(p) => write!(out, ",\"port\":{p}").unwrap(),
            None => out.push_str(",\"port\":null"),
        }
        match ev.span {
            Some(s) => write!(out, ",\"span\":{s}").unwrap(),
            None => out.push_str(",\"span\":null"),
        }
        let _ = write!(out, ",\"digest\":\"{:016x}\",\"label\":", ev.digest);
        crate::json::write_escaped(&ev.label, &mut out);
        out.push('}');
        out
    }

    #[test]
    fn event_lines_match_the_fmt_rendering() {
        let labels = [
            "MemWr[0x1000 +256B]",
            "",
            "odd \"label\"\twith\ncontrol \u{1} bytes",
            "back\\slash",
            "ünïcode ✓",
        ];
        let edges = [
            0,
            9,
            10,
            99_999,
            1u64 << 53,
            9_000_000_000_000_000,
            u64::MAX,
        ];
        let mut spill = FlightRecorder::with_spill(2);
        let mut expected = Vec::new();
        for (i, label) in labels.iter().enumerate() {
            for (j, &v) in edges.iter().enumerate() {
                let ev = FlightEvent {
                    seq: expected.len() as u64 + 1,
                    at: SimTime::from_ps(v),
                    kind: "deliver",
                    node: v as u32,
                    port: (j % 2 == 0).then_some(v as u8),
                    span: (i % 2 == 0).then_some(v),
                    digest: v.rotate_left(i as u32 * 7),
                    label: label.to_string(),
                };
                assert_eq!(ev.jsonl(), fmt_line(&ev), "{ev:?}");
                spill.record(
                    ev.at,
                    ev.node,
                    ev.port,
                    ev.span,
                    Fixed {
                        kind: ev.kind,
                        digest: ev.digest,
                        label: ev.label.clone(),
                    },
                );
                expected.push(fmt_line(&ev) + "\n");
            }
        }
        // Spilled and ring lines both go through the line writer.
        let log = spill.jsonl();
        let (header, lines) = log.split_once('\n').expect("header");
        assert!(header.contains("\"dropped\":0"));
        assert_eq!(lines, expected.concat());
    }

    #[test]
    fn identical_inputs_serialize_byte_identically() {
        let build = || {
            let mut r = FlightRecorder::with_spill(3);
            for n in 0..7 {
                ev(&mut r, n);
            }
            r.jsonl()
        };
        assert_eq!(build(), build());
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_rejected() {
        let _ = FlightRecorder::<Fixed>::new(0);
    }
}

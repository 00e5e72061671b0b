//! Generic discrete-event engine.
//!
//! [`EventQueue`] is a deterministic scheduler of `(SimTime, E)` pairs with
//! a strict tie-break: events scheduled at the same instant pop in the
//! order they were scheduled. The engine is deliberately payload-agnostic;
//! the PCIe fabric layer defines the payload type and the dispatch loop.
//!
//! # Implementation: hierarchical timing wheel
//!
//! Events live in a slab (stable indices, generation-checked handles) and
//! are threaded onto intrusive doubly-linked lists hanging off a
//! hierarchical timing wheel — [`LEVELS`] levels of [`SLOTS`] slots, each
//! level covering a 256× longer horizon than the one below, over integer
//! picoseconds. Level 0 slots each hold exactly one absolute timestamp;
//! higher levels hold coarser buckets that are *cascaded* down (lazily
//! re-binned) as the wheel's base time advances past their boundary.
//! Events beyond the wheel horizon (`2^56` ps ≈ 20 simulated hours) park
//! in a `BTreeMap` overflow tier keyed by `(time, seq)`.
//!
//! * `schedule_at` / `cancel` are O(1): a slab allocation plus a list
//!   append (or unlink) — no tombstones, no hashing, no re-heapification.
//! * `pop` is O(1) amortized: a one-bit-per-level summary names the
//!   finest occupied level, that level's occupancy bitmap names its first
//!   occupied slot, and the head is unlinked.
//!
//! Determinism is preserved exactly (see DESIGN.md "Timing-wheel event
//! queue"): sequence numbers are monotone, slot lists only ever append, and
//! cascades walk their source list head→tail, so every level-0 slot is in
//! seq order and global pop order is lexicographic `(at, seq)` — the same
//! total order the previous binary-heap implementation produced, byte for
//! byte in every flight log.

use crate::prof::ProfCounters;
use crate::time::{Dur, SimTime};
use std::collections::BTreeMap;

/// Bits of the slot index at each wheel level (256 slots per level).
const SLOT_BITS: u32 = 8;
/// Slots per wheel level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Wheel levels; together they cover `2^(8*7) = 2^56` picoseconds.
const LEVELS: usize = 7;
const _: () = assert!(LEVELS <= u8::BITS as usize, "level summary is a u8");
/// Null link in the intrusive slot lists.
const NIL: u32 = u32::MAX;
/// `Entry::level` marker: parked in the overflow `BTreeMap`.
const LVL_OVERFLOW: u8 = 0xFF;
/// `Entry::level` marker: entry is on the free list.
const LVL_FREE: u8 = 0xFE;

/// Identifier of a scheduled event, usable for cancellation.
///
/// Encodes the slab index (low 32 bits) and the slot's generation (high 32
/// bits); a cancel with a stale generation — the event already fired or
/// was already cancelled and its slot reused — is detected exactly and
/// returns `false`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EventId(u64);

impl EventId {
    fn encode(idx: u32, gen: u32) -> EventId {
        EventId((u64::from(gen) << 32) | u64::from(idx))
    }

    fn decode(self) -> (u32, u32) {
        (self.0 as u32, (self.0 >> 32) as u32)
    }
}

/// One slab slot: an event (live in a wheel slot or the overflow tier) or
/// a free-list entry awaiting reuse.
struct Entry<E> {
    at: u64,
    seq: u64,
    gen: u32,
    prev: u32,
    next: u32,
    /// Wheel level, or `LVL_OVERFLOW` / `LVL_FREE`.
    level: u8,
    slot: u8,
    payload: Option<E>,
}

/// Head/tail of one wheel slot's intrusive list.
#[derive(Clone, Copy)]
struct SlotList {
    head: u32,
    tail: u32,
}

const EMPTY_SLOT: SlotList = SlotList {
    head: NIL,
    tail: NIL,
};

/// A deterministic discrete-event queue (hierarchical timing wheel).
///
/// Invariants:
/// * time never moves backwards: popping advances `now` monotonically;
/// * scheduling in the past (before `now`) is a model bug and panics;
/// * same-instant events pop in scheduling order (FIFO tie-break).
pub struct EventQueue<E> {
    slab: Vec<Entry<E>>,
    free: Vec<u32>,
    wheel: Vec<SlotList>,
    /// Per-level slot-occupancy bitmaps (256 bits each).
    occ: [[u64; 4]; LEVELS],
    /// Level summary: bit `l` is set exactly when `occ[l]` has any bit set,
    /// so the finest occupied level is one `trailing_zeros` away.
    occ_levels: u8,
    /// Far-future tier: events whose time differs from `base` above the
    /// wheel horizon, keyed `(at, seq)` so drain order is pop order.
    overflow: BTreeMap<(u64, u64), u32>,
    /// Wheel origin in ps. Equal to `now` between operations; advances
    /// only inside `pop`/`pop_run` (never in `peek_time` — scheduling
    /// between a peek and the pop it predicts must stay legal).
    base: u64,
    live: usize,
    now: SimTime,
    next_seq: u64,
    popped: u64,
    /// Host-side activity counters (`tca-prof` layer one). Pure integers
    /// bumped on the existing control paths; provably unable to perturb
    /// the event stream.
    prof: ProfCounters,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at t = 0.
    pub fn new() -> Self {
        EventQueue {
            slab: Vec::new(),
            free: Vec::new(),
            wheel: vec![EMPTY_SLOT; LEVELS * SLOTS],
            occ: [[0; 4]; LEVELS],
            occ_levels: 0,
            overflow: BTreeMap::new(),
            base: 0,
            live: 0,
            now: SimTime::ZERO,
            next_seq: 0,
            popped: 0,
            prof: ProfCounters::default(),
        }
    }

    /// Current simulation time (the timestamp of the last popped event).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events executed so far.
    #[inline]
    pub fn events_executed(&self) -> u64 {
        self.popped
    }

    /// Number of live events still pending. Cancelled events leave no
    /// residue, so this is exact (the old heap counted tombstones too).
    #[inline]
    pub fn pending(&self) -> usize {
        self.live
    }

    /// True while `id` is still pending (scheduled, not fired, not
    /// cancelled) — exact via the slot's generation check.
    #[inline]
    pub fn is_pending(&self, id: EventId) -> bool {
        let (idx, gen) = id.decode();
        self.slab
            .get(idx as usize)
            .is_some_and(|e| e.gen == gen && e.level != LVL_FREE)
    }

    /// Host-side activity counters accumulated since construction.
    #[inline]
    pub fn prof(&self) -> &ProfCounters {
        &self.prof
    }

    /// Schedules `payload` at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is before the current time.
    #[track_caller]
    pub fn schedule_at(&mut self, at: SimTime, payload: E) -> EventId {
        assert!(
            at >= self.now,
            "scheduling into the past: at={at:?} now={:?}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let idx = match self.free.pop() {
            Some(idx) => {
                let e = &mut self.slab[idx as usize];
                e.at = at.as_ps();
                e.seq = seq;
                e.payload = Some(payload);
                idx
            }
            None => {
                let idx = self.slab.len() as u32;
                assert!(idx != NIL, "event slab exhausted");
                self.slab.push(Entry {
                    at: at.as_ps(),
                    seq,
                    gen: 0,
                    prev: NIL,
                    next: NIL,
                    level: LVL_FREE,
                    slot: 0,
                    payload: Some(payload),
                });
                idx
            }
        };
        let gen = self.slab[idx as usize].gen;
        self.place(idx);
        self.live += 1;
        self.prof.pushes += 1;
        self.prof.peak_pending = self.prof.peak_pending.max(self.live as u64);
        EventId::encode(idx, gen)
    }

    /// Schedules `payload` after a delay relative to now.
    #[track_caller]
    pub fn schedule_in(&mut self, delay: Dur, payload: E) -> EventId {
        self.schedule_at(self.now + delay, payload)
    }

    /// Cancels a previously scheduled event in O(1): the entry is unlinked
    /// from its wheel slot (or overflow tier) immediately — no tombstone
    /// is parked and nothing is drained later. Returns `true` only if the
    /// event was still pending; an event that already fired, was already
    /// cancelled, or was never scheduled returns `false` (the slab
    /// generation check makes this exact).
    pub fn cancel(&mut self, id: EventId) -> bool {
        let (idx, gen) = id.decode();
        let Some(e) = self.slab.get(idx as usize) else {
            return false;
        };
        if e.gen != gen || e.level == LVL_FREE {
            return false;
        }
        if e.level == LVL_OVERFLOW {
            let key = (e.at, e.seq);
            self.overflow.remove(&key);
        } else {
            self.unlink(idx);
        }
        self.release(idx);
        self.live -= 1;
        self.prof.cancels += 1;
        true
    }

    /// Pops the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        loop {
            if self.live == 0 {
                return None;
            }
            let Some((level, slot)) = self.first_occupied() else {
                self.admit_overflow();
                continue;
            };
            if level > 0 {
                self.cascade(level, slot);
                continue;
            }
            let idx = self.wheel[slot].head;
            self.unlink(idx);
            let e = &mut self.slab[idx as usize];
            let at = e.at;
            let payload = e.payload.take().expect("live entry has a payload");
            debug_assert!(at >= self.now.as_ps(), "event queue went backwards");
            self.release(idx);
            self.base = at;
            self.now = SimTime::from_ps(at);
            self.live -= 1;
            self.popped += 1;
            self.prof.pops += 1;
            return Some((self.now, payload));
        }
    }

    /// Pops the entire run of events sharing the earliest timestamp into
    /// `out` (in FIFO seq order), advancing the clock once. Returns the
    /// run's timestamp, or `None` when the queue is empty.
    ///
    /// Equivalent to calling [`EventQueue::pop`] until the head timestamp
    /// changes — a level-0 wheel slot holds exactly one absolute
    /// timestamp, so the whole batch is one list detach. Events the caller
    /// schedules *at the same timestamp* while dispatching the batch carry
    /// larger seqs and surface in a later run, exactly as they would have
    /// popped after the batch one-by-one.
    pub fn pop_run(&mut self, out: &mut Vec<E>) -> Option<SimTime> {
        loop {
            if self.live == 0 {
                return None;
            }
            let Some((level, slot)) = self.first_occupied() else {
                self.admit_overflow();
                continue;
            };
            if level > 0 {
                self.cascade(level, slot);
                continue;
            }
            let mut idx = self.detach_all(slot);
            let at = self.slab[idx as usize].at;
            debug_assert!(at >= self.now.as_ps(), "event queue went backwards");
            self.base = at;
            self.now = SimTime::from_ps(at);
            while idx != NIL {
                let e = &mut self.slab[idx as usize];
                debug_assert_eq!(e.at, at, "level-0 slot mixed timestamps");
                let next = e.next;
                out.push(e.payload.take().expect("live entry has a payload"));
                self.release(idx);
                self.live -= 1;
                self.popped += 1;
                self.prof.pops += 1;
                idx = next;
            }
            return Some(self.now);
        }
    }

    /// Timestamp of the next event without popping it.
    ///
    /// Never advances the wheel base: `schedule_at(t)` for any
    /// `now <= t <= peek_time()` must remain legal between a peek and the
    /// pop it predicts (the `run_until` + `drive` pattern relies on it).
    pub fn peek_time(&self) -> Option<SimTime> {
        if self.live == 0 {
            return None;
        }
        if let Some((level, slot)) = self.first_occupied() {
            if level == 0 {
                // A level-0 slot holds exactly one timestamp: base's page
                // with the slot index as the low byte.
                let page = self.base & !u64::from(u8::MAX);
                return Some(SimTime::from_ps(page | (slot & (SLOTS - 1)) as u64));
            }
            // Coarser buckets mix timestamps; scan the (short) list.
            let mut min = u64::MAX;
            let mut idx = self.wheel[level * SLOTS + (slot & (SLOTS - 1))].head;
            while idx != NIL {
                let e = &self.slab[idx as usize];
                min = min.min(e.at);
                idx = e.next;
            }
            return Some(SimTime::from_ps(min));
        }
        self.overflow
            .first_key_value()
            .map(|(&(at, _), _)| SimTime::from_ps(at))
    }

    /// True when no events remain.
    pub fn is_idle(&self) -> bool {
        self.live == 0
    }

    // -- wheel internals ----------------------------------------------------

    /// Wheel level for time `at` given the current base: the index of the
    /// highest 8-bit block in which `at` differs from `base`, or
    /// `LEVELS..` (overflow) when they differ above the wheel horizon.
    #[inline]
    fn level_for(&self, at: u64) -> usize {
        let x = at ^ self.base;
        if x == 0 {
            0
        } else {
            ((63 - x.leading_zeros()) / SLOT_BITS) as usize
        }
    }

    /// Files entry `idx` into the wheel slot (or overflow tier) its time
    /// maps to relative to the current base, appending at the tail so
    /// every slot list stays in ascending-seq order.
    fn place(&mut self, idx: u32) {
        let (at, seq) = {
            let e = &self.slab[idx as usize];
            (e.at, e.seq)
        };
        let level = self.level_for(at);
        if level >= LEVELS {
            let e = &mut self.slab[idx as usize];
            e.level = LVL_OVERFLOW;
            e.prev = NIL;
            e.next = NIL;
            self.overflow.insert((at, seq), idx);
            return;
        }
        let slot = ((at >> (SLOT_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
        let cell = level * SLOTS + slot;
        let tail = self.wheel[cell].tail;
        {
            let e = &mut self.slab[idx as usize];
            e.level = level as u8;
            e.slot = slot as u8;
            e.prev = tail;
            e.next = NIL;
        }
        if tail == NIL {
            self.wheel[cell].head = idx;
        } else {
            self.slab[tail as usize].next = idx;
        }
        self.wheel[cell].tail = idx;
        self.occ[level][slot >> 6] |= 1u64 << (slot & 63);
        self.occ_levels |= 1 << level;
    }

    /// Unlinks entry `idx` from its wheel slot list, clearing the
    /// occupancy bit when the slot empties.
    fn unlink(&mut self, idx: u32) {
        let (prev, next, level, slot) = {
            let e = &self.slab[idx as usize];
            (e.prev, e.next, e.level as usize, e.slot as usize)
        };
        let cell = level * SLOTS + slot;
        if prev == NIL {
            self.wheel[cell].head = next;
        } else {
            self.slab[prev as usize].next = next;
        }
        if next == NIL {
            self.wheel[cell].tail = prev;
        } else {
            self.slab[next as usize].prev = prev;
        }
        if self.wheel[cell].head == NIL {
            self.clear_occupied(level, slot);
        }
    }

    /// Detaches and returns the whole list of level-0 slot `slot`.
    fn detach_all(&mut self, slot: usize) -> u32 {
        let slot = slot & (SLOTS - 1);
        let head = self.wheel[slot].head;
        self.wheel[slot] = EMPTY_SLOT;
        self.clear_occupied(0, slot);
        head
    }

    /// Clears the occupancy bit of `(level, slot)`, and the level's summary
    /// bit when that was the level's last occupied slot.
    #[inline]
    fn clear_occupied(&mut self, level: usize, slot: usize) {
        let words = &mut self.occ[level];
        words[slot >> 6] &= !(1u64 << (slot & 63));
        if words.iter().all(|&w| w == 0) {
            self.occ_levels &= !(1 << level);
        }
    }

    /// First occupied `(level, slot)`: the level summary names the finest
    /// occupied level, whose bitmap names its lowest occupied slot. By the
    /// wheel invariant that slot holds the earliest event.
    #[inline]
    fn first_occupied(&self) -> Option<(usize, usize)> {
        if self.occ_levels == 0 {
            return None;
        }
        let level = self.occ_levels.trailing_zeros() as usize;
        let words = &self.occ[level];
        let w = words.iter().position(|&bits| bits != 0)?;
        Some((level, w * 64 + words[w].trailing_zeros() as usize))
    }

    /// Advances the base into level-`level` slot `slot` (zeroing all finer
    /// blocks) and re-files that bucket's events one level down. Walking
    /// the source list head→tail preserves ascending-seq order in every
    /// target slot — the cornerstone of the FIFO tie-break.
    fn cascade(&mut self, level: usize, slot: usize) {
        let slot = slot & (SLOTS - 1);
        let cell = level * SLOTS + slot;
        let mut idx = self.wheel[cell].head;
        self.wheel[cell] = EMPTY_SLOT;
        self.clear_occupied(level, slot);
        let shift = SLOT_BITS * level as u32;
        let keep_above = !((1u64 << (shift + SLOT_BITS)) - 1);
        self.base = (self.base & keep_above) | ((slot as u64) << shift);
        while idx != NIL {
            let next = self.slab[idx as usize].next;
            self.place(idx);
            self.prof.cascades += 1;
            idx = next;
        }
    }

    /// The wheel is empty but overflow is not: jump the base to the first
    /// overflow timestamp and admit every overflow event that now fits the
    /// horizon, in `(at, seq)` order (which keeps slot lists seq-sorted).
    fn admit_overflow(&mut self) {
        let (&(at, _), _) = self
            .overflow
            .first_key_value()
            .expect("live events but empty wheel implies a non-empty overflow tier");
        self.base = at;
        while let Some((&(at, _), _)) = self.overflow.first_key_value() {
            if self.level_for(at) >= LEVELS {
                break;
            }
            let ((_, _), idx) = self.overflow.pop_first().expect("peeked entry");
            self.place(idx);
            self.prof.cascades += 1;
        }
    }

    /// Returns entry `idx` to the free list, bumping its generation so any
    /// outstanding [`EventId`] for it goes stale.
    fn release(&mut self, idx: u32) {
        let e = &mut self.slab[idx as usize];
        e.gen = e.gen.wrapping_add(1);
        e.level = LVL_FREE;
        e.payload = None;
        self.free.push(idx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_ps(30), "c");
        q.schedule_at(SimTime::from_ps(10), "a");
        q.schedule_at(SimTime::from_ps(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, ["a", "b", "c"]);
        assert_eq!(q.now(), SimTime::from_ps(30));
    }

    #[test]
    fn fifo_tie_break_at_same_instant() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule_at(SimTime::from_ps(5), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn schedule_in_is_relative_to_now() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_ps(100), 1);
        q.pop();
        q.schedule_in(Dur::from_ps(50), 2);
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_ps(150));
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn cannot_schedule_into_past() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_ps(100), 1);
        q.pop();
        q.schedule_at(SimTime::from_ps(50), 2);
    }

    #[test]
    fn cancellation() {
        let mut q = EventQueue::new();
        let a = q.schedule_at(SimTime::from_ps(10), "a");
        q.schedule_at(SimTime::from_ps(20), "b");
        assert!(q.cancel(a));
        assert!(!q.cancel(EventId(999)), "unknown id");
        let (t, e) = q.pop().unwrap();
        assert_eq!((t, e), (SimTime::from_ps(20), "b"));
        assert!(q.pop().is_none());
    }

    #[test]
    fn cancel_of_fired_event_returns_false_and_leaks_nothing() {
        let mut q = EventQueue::new();
        let a = q.schedule_at(SimTime::from_ps(10), "a");
        let b = q.schedule_at(SimTime::from_ps(20), "b");
        assert_eq!(q.pop().unwrap().1, "a");
        // `a` has already fired: its slab slot's generation moved on, so
        // cancelling it must fail — even after the slot is reused.
        assert!(!q.cancel(a), "cancel of fired event must return false");
        assert!(!q.cancel(a), "repeated cancel of fired event");
        assert!(q.cancel(b), "b is still pending");
        assert!(!q.cancel(b), "double-cancel of same pending event");
        assert!(q.pop().is_none());
        // Cancel-heavy model: fire-then-cancel in a loop must not grow
        // anything (the old heap accumulated a tombstone per iteration).
        for i in 0..1000u64 {
            let id = q.schedule_at(SimTime::from_ps(100 + i), "x");
            assert!(q.pop().is_some());
            assert!(!q.cancel(id));
        }
        assert_eq!(q.pending(), 0, "no residue may leak");
        assert!(q.slab.len() <= 2, "slab slots are reused, not leaked");
    }

    #[test]
    fn stale_id_on_reused_slot_is_rejected() {
        let mut q = EventQueue::new();
        let a = q.schedule_at(SimTime::from_ps(10), 0);
        q.pop();
        // The new event reuses a's slab slot with a bumped generation.
        let b = q.schedule_at(SimTime::from_ps(20), 1);
        assert!(!q.cancel(a), "stale generation must not cancel the tenant");
        assert!(q.is_pending(b));
        assert!(!q.is_pending(a));
        assert!(q.cancel(b));
    }

    #[test]
    fn peek_skips_cancelled_events() {
        let mut q = EventQueue::new();
        let a = q.schedule_at(SimTime::from_ps(10), "a");
        q.schedule_at(SimTime::from_ps(20), "b");
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(SimTime::from_ps(20)));
        assert!(!q.is_idle());
        q.pop();
        assert!(q.is_idle());
    }

    #[test]
    fn peek_does_not_advance_the_wheel() {
        // Scheduling between a peek and its pop, at a time at or before
        // the peeked one, must stay legal and pop first — the `run_until`
        // + `drive` pattern depends on it.
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_ps(100_000), "far");
        assert_eq!(q.peek_time(), Some(SimTime::from_ps(100_000)));
        q.schedule_at(SimTime::from_ps(7), "near");
        assert_eq!(q.peek_time(), Some(SimTime::from_ps(7)));
        assert_eq!(q.pop().unwrap().1, "near");
        assert_eq!(q.pop().unwrap().1, "far");
    }

    #[test]
    fn counts_executed_events() {
        let mut q = EventQueue::new();
        for i in 0..10u64 {
            q.schedule_at(SimTime::from_ps(i), i);
        }
        while q.pop().is_some() {}
        assert_eq!(q.events_executed(), 10);
    }

    #[test]
    fn prof_counters_track_queue_activity() {
        let mut q = EventQueue::new();
        let a = q.schedule_at(SimTime::from_ps(10), "a");
        let b = q.schedule_at(SimTime::from_ps(20), "b");
        q.schedule_at(SimTime::from_ps(30), "c");
        assert_eq!(q.prof().pushes, 3);
        assert_eq!(q.prof().peak_pending, 3);
        assert!(q.cancel(a));
        assert!(q.cancel(b));
        assert!(!q.cancel(b), "double cancel must not count twice");
        assert_eq!(q.prof().cancels, 2);
        // Cancellation is eager: popping goes straight to "c".
        assert_eq!(q.pop().unwrap().1, "c");
        assert_eq!(q.prof().pops, 1, "only executed events count as pops");
        assert!(q.pop().is_none());
        let p = *q.prof();
        assert_eq!((p.pushes, p.pops, p.cancels, p.peak_pending), (3, 1, 2, 3));
    }

    #[test]
    fn interleaved_schedule_and_pop_stays_deterministic() {
        // A chain of events each scheduling a successor must execute exactly.
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_ps(1), 0u64);
        let mut seen = vec![];
        while let Some((_, n)) = q.pop() {
            seen.push(n);
            if n < 5 {
                q.schedule_in(Dur::from_ps(2), n + 1);
            }
        }
        assert_eq!(seen, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(q.now(), SimTime::from_ps(11));
    }

    #[test]
    fn cascades_preserve_order_across_slot_boundaries() {
        // Times straddling level boundaries (255/256 = level 0→1 edge,
        // 65535/65536 = level 1→2 edge) plus same-time pairs scheduled
        // out of order: pop order must be (time, schedule-order) exactly.
        let mut q = EventQueue::new();
        let times = [
            65_536u64, 256, 255, 65_535, 257, 256, 1, 0, 65_536, 16_777_216, 255,
        ];
        for (i, &t) in times.iter().enumerate() {
            q.schedule_at(SimTime::from_ps(t), (t, i));
        }
        let mut sorted: Vec<(u64, usize)> = times.iter().copied().zip(0..).collect();
        sorted.sort_by_key(|&(t, i)| (t, i));
        let popped: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(popped, sorted);
        assert!(q.prof().cascades > 0, "the workload must exercise cascades");
    }

    #[test]
    fn far_future_events_park_in_overflow_and_return_in_order() {
        let mut q = EventQueue::new();
        let horizon = 1u64 << (SLOT_BITS as usize * LEVELS);
        let far_a = q.schedule_at(SimTime::from_ps(horizon + 50), "far_a");
        q.schedule_at(SimTime::from_ps(horizon + 50), "far_b");
        q.schedule_at(SimTime::from_ps(3 * horizon), "farther");
        q.schedule_at(SimTime::from_ps(40), "near");
        assert_eq!(q.peek_time(), Some(SimTime::from_ps(40)));
        assert_eq!(q.pop().unwrap().1, "near");
        // Cancel inside the overflow tier.
        assert!(q.cancel(far_a));
        assert_eq!(q.pop().unwrap().1, "far_b");
        assert_eq!(q.now(), SimTime::from_ps(horizon + 50));
        // Scheduling relative to the jumped clock still works.
        q.schedule_in(Dur::from_ps(1), "after_jump");
        assert_eq!(q.pop().unwrap().1, "after_jump");
        assert_eq!(q.pop().unwrap().1, "farther");
        assert!(q.pop().is_none());
    }

    #[test]
    fn horizon_edge_events_pop_in_time_seq_order_and_survive_cancel() {
        // The wheel covers [now, now + 2^56); times at or past the
        // horizon park in the BTreeMap overflow tier. Straddling the
        // exact edge — horizon-1 in the top wheel level, horizon and
        // horizon+1 in overflow, plus duplicates at the horizon itself —
        // must still pop in (time, schedule-order), and cancels must
        // land in whichever tier holds the event.
        let mut q = EventQueue::new();
        let horizon = 1u64 << (SLOT_BITS as usize * LEVELS);
        let times = [
            horizon + 1,
            horizon - 1,
            horizon,
            horizon,
            horizon - 1,
            2 * horizon - 1,
            2 * horizon,
            1,
        ];
        let mut ids = Vec::new();
        for (i, &t) in times.iter().enumerate() {
            ids.push(q.schedule_at(SimTime::from_ps(t), (t, i)));
        }
        // Cancel one wheel-resident and one overflow-resident event.
        assert!(q.cancel(ids[1]), "cancel below the horizon (wheel tier)");
        assert!(q.cancel(ids[3]), "cancel at the horizon (overflow tier)");
        assert!(!q.cancel(ids[3]), "double cancel must report false");
        let mut expect: Vec<(u64, usize)> = times
            .iter()
            .copied()
            .zip(0..)
            .filter(|&(_, i)| i != 1 && i != 3)
            .collect();
        expect.sort_by_key(|&(t, i)| (t, i));
        let popped: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(popped, expect);
        assert_eq!(q.now(), SimTime::from_ps(2 * horizon));
    }

    #[test]
    fn exact_cascade_boundary_events_pop_in_time_seq_order() {
        // Times exactly on level boundaries (multiples of 256^k) are the
        // off-by-one hot spot of hierarchical wheels: an event at 256^k
        // lives in level k's first slot and must cascade down — not fire
        // early with its whole slot, nor be skipped. Schedule boundary^k
        // for every level, each with a (boundary - 1) and (boundary + 1)
        // neighbour, out of order, and mix in cancels.
        let mut q = EventQueue::new();
        let mut times = Vec::new();
        for k in 1..=LEVELS {
            let boundary = 1u64 << (SLOT_BITS as usize * k);
            times.extend([boundary + 1, boundary - 1, boundary, boundary]);
        }
        let mut ids = Vec::new();
        for (i, &t) in times.iter().enumerate() {
            ids.push(q.schedule_at(SimTime::from_ps(t), (t, i)));
        }
        // Cancel one duplicate on every boundary: survivors must keep
        // their original schedule order, not renumber.
        let mut cancelled = Vec::new();
        for (i, _) in times.iter().enumerate() {
            if i % 4 == 3 {
                assert!(q.cancel(ids[i]));
                cancelled.push(i);
            }
        }
        let mut expect: Vec<(u64, usize)> = times
            .iter()
            .copied()
            .zip(0..)
            .filter(|&(_, i)| !cancelled.contains(&i))
            .collect();
        expect.sort_by_key(|&(t, i)| (t, i));
        let popped: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(popped, expect);
        assert!(q.prof().cascades > 0, "boundary times must cascade");
    }

    /// The level summary mirrors the per-level bitmaps exactly.
    fn assert_summary_consistent<E>(q: &EventQueue<E>) {
        for (level, words) in q.occ.iter().enumerate() {
            assert_eq!(
                q.occ_levels & (1 << level) != 0,
                words.iter().any(|&w| w != 0),
                "summary bit of level {level} disagrees with its bitmap"
            );
        }
    }

    #[test]
    fn level_summary_tracks_cascades_and_schedules() {
        let mut q = EventQueue::new();
        // 1000 and 1001 ps differ from base 0 above the low byte: level 1.
        q.schedule_at(SimTime::from_ps(1_000), "a");
        q.schedule_at(SimTime::from_ps(1_001), "b");
        assert_eq!(q.occ_levels, 0b10);
        assert_eq!(q.peek_time(), Some(SimTime::from_ps(1_000)));
        // The pop cascades level 1's only bucket down: level 1 empties and
        // its summary bit clears, leaving "b" alone on level 0.
        assert_eq!(q.pop(), Some((SimTime::from_ps(1_000), "a")));
        assert!(q.prof().cascades > 0);
        assert_eq!(q.occ_levels, 0b01);
        assert_summary_consistent(&q);
        // A later schedule on an emptied level sets its bit again.
        q.schedule_at(SimTime::from_ps(1_000 + 70_000), "c");
        assert_eq!(q.occ_levels, 0b101);
        assert_summary_consistent(&q);
        // Peek and pop agree all the way down, and the summary follows.
        while let Some(t) = q.peek_time() {
            let (at, _) = q.pop().expect("peeked an event");
            assert_eq!(at, t);
            assert_summary_consistent(&q);
        }
        assert_eq!(q.occ_levels, 0);
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn level_summary_survives_cancel_and_batched_pops() {
        let mut q = EventQueue::new();
        let mut ids = Vec::new();
        for (i, t) in [5u64, 300, 70_000, 20_000_000, 5, 300]
            .into_iter()
            .enumerate()
        {
            ids.push(q.schedule_at(SimTime::from_ps(t), i));
        }
        assert_summary_consistent(&q);
        // Cancelling the lone level-3 event clears that level's bit.
        assert!(q.cancel(ids[3]));
        assert_eq!(q.occ_levels & 0b1000, 0);
        assert_summary_consistent(&q);
        let mut batch = Vec::new();
        while let Some(t) = q.peek_time() {
            batch.clear();
            assert_eq!(q.pop_run(&mut batch), Some(t));
            assert_summary_consistent(&q);
        }
        assert_eq!(q.occ_levels, 0);
    }

    #[test]
    fn pop_run_batches_exactly_one_timestamp() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_ps(10), 0);
        q.schedule_at(SimTime::from_ps(10), 1);
        q.schedule_at(SimTime::from_ps(10), 2);
        q.schedule_at(SimTime::from_ps(20), 3);
        let mut batch = Vec::new();
        assert_eq!(q.pop_run(&mut batch), Some(SimTime::from_ps(10)));
        assert_eq!(batch, [0, 1, 2], "whole run, FIFO order, nothing more");
        // Same-time events scheduled mid-batch surface in the next run.
        q.schedule_at(SimTime::from_ps(20), 4);
        batch.clear();
        assert_eq!(q.pop_run(&mut batch), Some(SimTime::from_ps(20)));
        assert_eq!(batch, [3, 4]);
        batch.clear();
        assert_eq!(q.pop_run(&mut batch), None);
        assert_eq!(q.events_executed(), 5);
        assert_eq!(q.prof().pops, 5, "batched pops count per event");
    }

    #[test]
    fn pop_run_matches_pop_on_a_mixed_workload() {
        let build = || {
            let mut q = EventQueue::new();
            for i in 0..200u64 {
                // Deliberate collisions: only 37 distinct timestamps.
                q.schedule_at(SimTime::from_ps((i * 7) % 37 * 1000), i);
            }
            q
        };
        let mut a = build();
        let mut via_pop = Vec::new();
        while let Some((t, e)) = a.pop() {
            via_pop.push((t, e));
        }
        let mut b = build();
        let mut via_run = Vec::new();
        let mut batch = Vec::new();
        while let Some(t) = b.pop_run(&mut batch) {
            via_run.extend(batch.drain(..).map(|e| (t, e)));
        }
        assert_eq!(via_pop, via_run);
    }

    // The determinism contract, checked against a naive reference model:
    // under any schedule/cancel/pop interleaving, pop order must equal a
    // sorted-Vec model ordered by (time, schedule seq), `is_pending` must
    // match exact membership, and `pending()` must track the live count.
    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// Naive reference: a Vec kept sorted by `(at, seq)`.
        #[derive(Default)]
        struct RefModel {
            events: Vec<(u64, u64, u32)>, // (at, seq, payload)
            now: u64,
            next_seq: u64,
        }

        impl RefModel {
            fn schedule(&mut self, at: u64, payload: u32) -> u64 {
                let seq = self.next_seq;
                self.next_seq += 1;
                self.events.push((at, seq, payload));
                self.events.sort_unstable_by_key(|&(a, s, _)| (a, s));
                seq
            }

            fn cancel(&mut self, seq: u64) -> bool {
                match self.events.iter().position(|&(_, s, _)| s == seq) {
                    Some(i) => {
                        self.events.remove(i);
                        true
                    }
                    None => false,
                }
            }

            fn pop(&mut self) -> Option<(u64, u32)> {
                if self.events.is_empty() {
                    return None;
                }
                let (at, _, payload) = self.events.remove(0);
                self.now = at;
                Some((at, payload))
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig {
                cases: 64,
                .. ProptestConfig::default()
            })]

            #[test]
            fn wheel_matches_sorted_vec_reference(
                ops in proptest::collection::vec(any::<u64>(), 1..300),
            ) {
                let mut q = EventQueue::new();
                let mut model = RefModel::default();
                // seq -> (wheel id, cancelled-or-fired) mirror.
                let mut ids: Vec<(u64, EventId)> = Vec::new();
                for word in ops {
                    let (op, arg) = ((word & 0xFF) as u8, (word >> 8) as u32);
                    match op % 5 {
                        // Near future: exercises level 0/1 and cascades.
                        0 => {
                            let at = model.now + u64::from(arg % 4096);
                            let seq = model.schedule(at, arg);
                            ids.push((seq, q.schedule_at(SimTime::from_ps(at), arg)));
                        }
                        // Far future: exercises high levels and overflow.
                        1 => {
                            let at = model.now
                                + (u64::from(arg % 64) << (8 * u32::from(arg as u8 % 8)));
                            let seq = model.schedule(at, arg);
                            ids.push((seq, q.schedule_at(SimTime::from_ps(at), arg)));
                        }
                        // Edge times: exactly on a level-cascade boundary
                        // (now + m * 256^k) or hugging it by one, for every
                        // level up to and past the 2^56 horizon — the
                        // off-by-one hot spots of hierarchical wheels.
                        2 => {
                            let k = 1 + usize::from(arg as u8 % LEVELS as u8);
                            let m = u64::from((arg >> 8) % 3) + 1;
                            let nudge = [0u64, 1, u64::MAX][(arg >> 4) as usize % 3];
                            let at = (model.now + (m << (8 * k))).wrapping_add(nudge);
                            let seq = model.schedule(at, arg);
                            ids.push((seq, q.schedule_at(SimTime::from_ps(at), arg)));
                        }
                        3 if !ids.is_empty() => {
                            let (seq, id) = ids[arg as usize % ids.len()];
                            prop_assert_eq!(
                                q.cancel(id),
                                model.cancel(seq),
                                "cancel result diverged from the model"
                            );
                        }
                        _ => {
                            let got = q.pop();
                            let want = model.pop();
                            prop_assert_eq!(
                                got.map(|(t, e)| (t.as_ps(), e)),
                                want,
                                "pop diverged from the model"
                            );
                        }
                    }
                    prop_assert_eq!(q.pending(), model.events.len());
                    for (seq, id) in &ids {
                        prop_assert_eq!(
                            q.is_pending(*id),
                            model.events.iter().any(|&(_, s, _)| s == *seq),
                            "id membership diverged from the model"
                        );
                    }
                }
                // Drain both to the end: identical tails.
                loop {
                    let got = q.pop();
                    let want = model.pop();
                    prop_assert_eq!(got.map(|(t, e)| (t.as_ps(), e)), want);
                    if want.is_none() {
                        break;
                    }
                }
                prop_assert_eq!(q.pending(), 0);
                // Counter cross-check: every scheduled event either fired
                // or was cancelled — nothing else exists.
                let p = *q.prof();
                prop_assert_eq!(p.pushes, ids.len() as u64);
                prop_assert_eq!(p.pops + p.cancels, p.pushes);
            }
        }
    }
}

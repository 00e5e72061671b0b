//! Host-side engine profiling: wall-clock-free counters plus (behind the
//! `host-prof` feature) process-wide allocation accounting.
//!
//! This is the *counter* half of `tca-prof`. Everything in this module is
//! observationally neutral to the simulation: counters are plain integers
//! bumped on the engine's existing control paths, they never schedule
//! events, never consult wall-clock time, and never branch on anything the
//! event stream could see. The *timer* half (wall-clock phase spans,
//! folded-stack rendering, `BENCH_engine.json`) lives in `tca-bench`,
//! because the determinism lint in `scripts/ci.sh` bans wall-clock use in
//! the simulation crates — see DESIGN.md's counters-in-sim /
//! timers-in-bench split.
//!
//! `tests/determinism.rs` proves the neutrality claim: the byte-identity
//! tests for the event stream, the health report, and `BENCH_fabric.json`
//! run with these counters compiled in (and, in the `host-prof` builds,
//! with the counting allocator installed) and still reproduce the same
//! paper-anchored absolute values as the uninstrumented binaries.

use crate::json::JsonValue;

/// Pure host-side counters of one [`EventQueue`](crate::EventQueue)'s
/// activity. Every field is a monotone `u64` except `peak_pending`,
/// which is a high-water mark; none of them feed back into scheduling.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProfCounters {
    /// Events scheduled (`schedule_at` / `schedule_in`).
    pub pushes: u64,
    /// Events popped and executed.
    pub pops: u64,
    /// Successful cancellations (entry unlinked eagerly, O(1)).
    pub cancels: u64,
    /// Entries re-filed one wheel level down (or admitted from the
    /// overflow tier) as the wheel base advanced past their bucket.
    pub cascades: u64,
    /// Maximum number of simultaneously pending events observed.
    pub peak_pending: u64,
}

impl ProfCounters {
    /// Counter increments since `earlier` (a snapshot of the same queue).
    /// The monotone counters subtract; `peak_pending` keeps the later
    /// absolute high-water mark, since a peak has no meaningful delta.
    pub fn since(&self, earlier: &ProfCounters) -> ProfCounters {
        ProfCounters {
            pushes: self.pushes - earlier.pushes,
            pops: self.pops - earlier.pops,
            cancels: self.cancels - earlier.cancels,
            cascades: self.cascades - earlier.cascades,
            peak_pending: self.peak_pending,
        }
    }

    /// Serializes the counters as a stable-key-order JSON object.
    pub fn to_json(&self) -> JsonValue {
        let mut o = JsonValue::object();
        o.push("pushes", JsonValue::from(self.pushes));
        o.push("pops", JsonValue::from(self.pops));
        o.push("cancels", JsonValue::from(self.cancels));
        o.push("cascades", JsonValue::from(self.cascades));
        o.push("peak_pending", JsonValue::from(self.peak_pending));
        o
    }
}

/// Snapshot of the process-wide allocation counters. All zeros unless the
/// `host-prof` feature is enabled *and* a binary has installed
/// [`CountingAllocator`] as its `#[global_allocator]`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllocSnapshot {
    /// Heap allocations served.
    pub allocs: u64,
    /// Heap deallocations served.
    pub frees: u64,
    /// Total bytes handed out across all allocations.
    pub bytes_allocated: u64,
    /// Bytes currently live (allocated minus freed).
    pub current_bytes: u64,
    /// High-water mark of `current_bytes`.
    pub peak_bytes: u64,
}

impl AllocSnapshot {
    /// Allocation activity since `earlier`. Monotone counters subtract;
    /// `current_bytes` and `peak_bytes` keep the later absolute values.
    pub fn since(&self, earlier: &AllocSnapshot) -> AllocSnapshot {
        AllocSnapshot {
            allocs: self.allocs - earlier.allocs,
            frees: self.frees - earlier.frees,
            bytes_allocated: self.bytes_allocated - earlier.bytes_allocated,
            current_bytes: self.current_bytes,
            peak_bytes: self.peak_bytes,
        }
    }
}

#[cfg(feature = "host-prof")]
mod hostalloc {
    use super::AllocSnapshot;
    use std::cell::Cell;
    use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

    static ALLOCS: AtomicU64 = AtomicU64::new(0);
    static FREES: AtomicU64 = AtomicU64::new(0);
    static BYTES: AtomicU64 = AtomicU64::new(0);
    static CURRENT: AtomicU64 = AtomicU64::new(0);
    static PEAK: AtomicU64 = AtomicU64::new(0);

    thread_local! {
        // Const-initialized and drop-free, so touching it from inside the
        // allocator never allocates or registers a destructor.
        static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
    }

    pub(super) fn record_alloc(size: u64) {
        let _ = THREAD_ALLOCS.try_with(|n| n.set(n.get() + 1));
        ALLOCS.fetch_add(1, Relaxed);
        BYTES.fetch_add(size, Relaxed);
        let now = CURRENT.fetch_add(size, Relaxed) + size;
        PEAK.fetch_max(now, Relaxed);
    }

    pub(super) fn record_dealloc(size: u64) {
        FREES.fetch_add(1, Relaxed);
        // Saturating: a binary may install the allocator after some
        // allocations already happened, so frees can outrun allocs.
        let _ = CURRENT.fetch_update(Relaxed, Relaxed, |c| Some(c.saturating_sub(size)));
    }

    pub(super) fn thread_allocs() -> u64 {
        THREAD_ALLOCS.try_with(Cell::get).unwrap_or(0)
    }

    pub(super) fn snapshot() -> AllocSnapshot {
        AllocSnapshot {
            allocs: ALLOCS.load(Relaxed),
            frees: FREES.load(Relaxed),
            bytes_allocated: BYTES.load(Relaxed),
            current_bytes: CURRENT.load(Relaxed),
            peak_bytes: PEAK.load(Relaxed),
        }
    }

    /// System-allocator passthrough that counts every request. The only
    /// `unsafe` in the workspace: each method forwards verbatim to
    /// [`std::alloc::System`] and touches nothing but relaxed atomics, so
    /// it upholds exactly the contract `System` already satisfies.
    #[allow(unsafe_code)]
    mod allocator {
        use std::alloc::{GlobalAlloc, Layout, System};

        /// See [`crate::prof::CountingAllocator`].
        pub struct CountingAllocator;

        unsafe impl GlobalAlloc for CountingAllocator {
            unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
                super::record_alloc(layout.size() as u64);
                System.alloc(layout)
            }

            unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
                super::record_dealloc(layout.size() as u64);
                System.dealloc(ptr, layout)
            }

            unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
                super::record_alloc(layout.size() as u64);
                System.alloc_zeroed(layout)
            }

            unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
                super::record_dealloc(layout.size() as u64);
                super::record_alloc(new_size as u64);
                System.realloc(ptr, layout, new_size)
            }
        }
    }

    pub use allocator::CountingAllocator;
}

/// Counting system-allocator wrapper (only with the `host-prof` feature).
/// Binaries opt in with:
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: tca_sim::prof::CountingAllocator = tca_sim::prof::CountingAllocator;
/// ```
///
/// Counting is two relaxed atomic adds per call — uniform overhead that
/// cannot observe or perturb simulated time.
#[cfg(feature = "host-prof")]
pub use hostalloc::CountingAllocator;

/// Current process-wide allocation counters. Returns
/// [`AllocSnapshot::default`] (all zeros) when the `host-prof` feature is
/// off or no binary installed [`CountingAllocator`].
pub fn alloc_snapshot() -> AllocSnapshot {
    #[cfg(feature = "host-prof")]
    {
        hostalloc::snapshot()
    }
    #[cfg(not(feature = "host-prof"))]
    {
        AllocSnapshot::default()
    }
}

/// Heap allocations served so far to the calling thread (0 unless
/// allocation tracking is live, as for [`alloc_snapshot`]). Unlike the
/// process-wide snapshot, a delta of this count cannot pick up another
/// thread's allocations — such as a test harness's own bookkeeping — so it
/// is the exact measure for "this single-threaded code path allocated".
pub fn thread_allocs() -> u64 {
    #[cfg(feature = "host-prof")]
    {
        hostalloc::thread_allocs()
    }
    #[cfg(not(feature = "host-prof"))]
    {
        0
    }
}

/// True when this build can account allocations (the `host-prof` feature
/// is enabled). Whether counts are non-zero still depends on the running
/// binary having installed [`CountingAllocator`].
pub fn alloc_tracking_compiled() -> bool {
    cfg!(feature = "host-prof")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prof_counters_delta_subtracts_monotone_fields() {
        let earlier = ProfCounters {
            pushes: 10,
            pops: 8,
            cancels: 1,
            cascades: 1,
            peak_pending: 5,
        };
        let later = ProfCounters {
            pushes: 25,
            pops: 20,
            cancels: 3,
            cascades: 2,
            peak_pending: 9,
        };
        let d = later.since(&earlier);
        assert_eq!(d.pushes, 15);
        assert_eq!(d.pops, 12);
        assert_eq!(d.cancels, 2);
        assert_eq!(d.cascades, 1);
        assert_eq!(d.peak_pending, 9, "peak carries the absolute value");
    }

    #[test]
    fn prof_counters_json_is_stable() {
        let c = ProfCounters {
            pushes: 2,
            pops: 1,
            cancels: 0,
            cascades: 0,
            peak_pending: 2,
        };
        assert_eq!(
            c.to_json().to_json(),
            r#"{"pushes":2,"pops":1,"cancels":0,"cascades":0,"peak_pending":2}"#
        );
    }

    #[test]
    fn alloc_snapshot_delta() {
        let a = AllocSnapshot {
            allocs: 100,
            frees: 90,
            bytes_allocated: 4096,
            current_bytes: 512,
            peak_bytes: 2048,
        };
        let b = AllocSnapshot {
            allocs: 150,
            frees: 140,
            bytes_allocated: 8192,
            current_bytes: 768,
            peak_bytes: 4096,
        };
        let d = b.since(&a);
        assert_eq!(d.allocs, 50);
        assert_eq!(d.frees, 50);
        assert_eq!(d.bytes_allocated, 4096);
        assert_eq!(d.current_bytes, 768);
        assert_eq!(d.peak_bytes, 4096);
    }
}

//! Zero-allocation guarantees of the rewritten engine hot path.
//!
//! These tests live in their own binary because they install the counting
//! allocator. Its process-wide tallies see every thread: the other test's
//! set-up, and the test harness's main thread, which allocates when it
//! first blocks waiting for a result. So the tests run one at a time, each
//! holding a shared lock for its whole body, and each asserts on the
//! allocations of its own thread ([`tca::sim::thread_allocs`]), the thread
//! that runs the measured code. The process-wide delta is printed
//! alongside on failure.

use std::sync::Mutex;

#[global_allocator]
static ALLOC: tca::sim::prof::CountingAllocator = tca::sim::prof::CountingAllocator;

/// Serializes the tests so the in-process test threads never allocate
/// inside each other's snapshots.
static MEASURE: Mutex<()> = Mutex::new(());

/// Takes [`MEASURE`] for the rest of a test, surviving a sibling test's
/// panic (a poisoned lock still serializes).
fn serialize() -> std::sync::MutexGuard<'static, ()> {
    MEASURE
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Steady-state stepping on a warmed fabric performs zero heap
/// allocations: the timing-wheel slab and free list, the TLP slab, the
/// per-link queues, the pop-run batch buffer, and the action scratch
/// pool all reach capacity during the first round of traffic, and an
/// identical second round reuses every one of them. Payload allocation
/// happens at inject (drive) time, outside the measured drain.
#[test]
fn steady_state_stepping_is_allocation_free() {
    let _serial = serialize();
    assert!(tca::sim::prof::alloc_tracking_compiled());
    let spec = tca::core::presets::build_topology("torus2d-4x4").expect("registry grammar");
    let mut tf = tca_bench::topo_fabric::build(&spec);
    let dests = |src: u32| tca_bench::topo_fabric::strided_dests(spec.nodes, src, 8);

    // Round 1: grow every pool to steady-state capacity.
    tf.inject(dests);
    tf.drain();

    // Round 2: identical traffic; payloads are allocated here, before
    // the measurement starts.
    tf.inject(dests);
    let before = tca::sim::alloc_snapshot();
    let mine = tca::sim::thread_allocs();
    tf.fabric.run_until_idle();
    let mine = tca::sim::thread_allocs() - mine;
    let delta = tca::sim::alloc_snapshot().since(&before);
    assert_eq!(
        mine, 0,
        "steady-state stepping allocated on a warmed fabric (process-wide: {delta:?})"
    );

    // The invariant check still holds across both rounds: 16 nodes ×
    // strides {1, 2, 4, 8} × 2 rounds, all delivered.
    let report = tf.drain();
    assert_eq!(report.messages, 2 * 16 * 4);
}

/// Metric registration is a name→id lookup on the hot path; a hit must
/// not allocate (the `impl AsRef<str>` probe happens before any
/// `String` conversion). Only a miss — first registration — pays for
/// the owned name.
#[test]
fn metric_lookup_hits_do_not_allocate() {
    let _serial = serialize();
    assert!(tca::sim::prof::alloc_tracking_compiled());
    let mut hub = tca::sim::MetricsHub::new();
    let miss = tca::sim::thread_allocs();
    let first = hub.counter("gpu0.bar1.reads");
    assert!(
        tca::sim::thread_allocs() > miss,
        "the per-thread tally must see a registration miss allocate"
    );
    let g_first = hub.gauge("gpu0.bar1.read_q_depth");
    let h_first = hub.histogram("gpu0.bar1.read_q_wait_ns");

    let before = tca::sim::alloc_snapshot();
    let mine = tca::sim::thread_allocs();
    let again = hub.counter("gpu0.bar1.reads");
    let g_again = hub.gauge("gpu0.bar1.read_q_depth");
    let h_again = hub.histogram("gpu0.bar1.read_q_wait_ns");
    let mine = tca::sim::thread_allocs() - mine;
    let delta = tca::sim::alloc_snapshot().since(&before);

    assert_eq!(first, again, "re-registration must return the same id");
    assert_eq!(g_first, g_again);
    assert_eq!(h_first, h_again);
    assert_eq!(
        mine, 0,
        "metric lookup hit allocated (process-wide: {delta:?})"
    );
}

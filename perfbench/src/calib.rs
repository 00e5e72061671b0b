//! Host-speed reference: a fixed miniature discrete-event loop that uses
//! no simulator code. It does the same kinds of work the simulator does
//! (a priority queue, hash lookups, small allocations, page copies), so a
//! slow phase of a shared host slows it about as much as the simulator.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// Events one reference round executes.
const EVENTS: u64 = 20_000;

/// A typical reference round time on a 2-core 2.1 GHz Intel Xeon virtual
/// machine, nanoseconds. It only sets the scale of the reported figures.
pub const NOMINAL_NS: u64 = 2_500_000;

/// The factor that turns host time measured next to a reference round of
/// `ref_ns` into reference time: what the work would have taken had the
/// host run the reference at its nominal speed. A shared host's slow
/// phases slow the reference and the measured work alike, so the scaled
/// figure stays put while the raw one swings.
pub fn scale(ref_ns: u64) -> f64 {
    NOMINAL_NS as f64 / ref_ns.max(1) as f64
}

/// Host nanoseconds one round of the reference work takes right now.
pub fn reference_ns() -> u64 {
    let t = Instant::now();
    let mut queue: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::with_capacity(64);
    let mut routes: HashMap<(u32, u8), u32> = HashMap::new();
    for dev in 0..32u32 {
        for port in 0..4u8 {
            routes.insert((dev, port), (dev * 7 + u32::from(port) * 3 + 1) % 32);
        }
    }
    let mut pages: HashMap<u64, Box<[u8; 4096]>> = HashMap::new();
    let mut x = 0x2545_f491_4f6c_dd1d_u64;
    for dev in 0..32u32 {
        queue.push(Reverse((u64::from(dev), dev)));
    }
    let mut done = 0u64;
    while let Some(Reverse((at, dev))) = queue.pop() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let len = 64 + (x % 192) as usize;
        let payload = vec![(x >> 8) as u8; len];
        let page = pages
            .entry((x >> 20) % 256)
            .or_insert_with(|| Box::new([0; 4096]));
        let off = (x % (4096 - 256)) as usize;
        page[off..off + len].copy_from_slice(&payload);
        let next = routes[&(dev, (x % 4) as u8)];
        done += 1;
        if done < EVENTS {
            queue.push(Reverse((at + 1 + x % 100, next)));
        }
    }
    black_box((pages.len(), x));
    t.elapsed().as_nanos() as u64
}

//! Seeds and pinned digests. Every workload has a default seed (the one
//! the pinned figures were taken with) and a held-out seed that is only
//! ever used to confirm a result, never to tune against. The digest of a
//! pinned seed covers every op's simulated completion time plus the
//! simulated counters of the first pass; a speed-only change must leave
//! it unchanged.

/// Pins of one workload.
pub struct Pin {
    /// Workload name.
    pub workload: &'static str,
    /// Default seed.
    pub seed: u64,
    /// Digest under the default seed.
    pub digest: u64,
    /// Held-out seed.
    pub held_out: u64,
    /// Digest under the held-out seed.
    pub held_out_digest: u64,
}

/// Every workload's pins.
pub const PINS: &[Pin] = &[
    Pin {
        workload: "bulk-dma",
        seed: 1,
        digest: 0xfd2e_7f9e_e8ab_c8c5,
        held_out: 9001,
        held_out_digest: 0x89b4_f32e_4cd6_4566,
    },
    Pin {
        workload: "app-mix",
        seed: 1,
        digest: 0x422e_9720_a558_7b78,
        held_out: 9002,
        held_out_digest: 0x3d3f_212a_c155_e27b,
    },
    Pin {
        workload: "ring16-concurrent",
        seed: 1,
        digest: 0x4034_a917_0d40_5eec,
        held_out: 9003,
        held_out_digest: 0x7ffa_e641_a0b2_7e00,
    },
    Pin {
        workload: "observed",
        seed: 1,
        digest: 0x2676_e425_be4f_4e33,
        held_out: 9004,
        held_out_digest: 0xd3f9_d77d_4578_b188,
    },
];

/// The digest pinned for (`workload`, `seed`), if that seed is pinned.
pub fn pinned(workload: &str, seed: u64) -> Option<u64> {
    let p = PINS.iter().find(|p| p.workload == workload)?;
    match seed {
        s if s == p.seed => Some(p.digest),
        s if s == p.held_out => Some(p.held_out_digest),
        _ => None,
    }
}

//! Seeded input generation. Every op list is a pure function of the seed;
//! the simulator only ever receives the finished list.
//!
//! Draws are *stratified*: a list of `n` values takes one value from each
//! of `n` equal-probability strata and is then shuffled. The seed decides
//! where in each stratum a value lands and the order the ops run in, but
//! the size mix of every list is nearly the same, so figures taken under
//! different seeds measure the same work.

/// splitmix64: small, fast and fully specified, so input lists never
/// change under a dependency upgrade.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` on an independent `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xd134_2543_de82_ef95));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }

    /// `n` stratified uniforms in `[0, 1)`, shuffled.
    pub fn strata(&mut self, n: usize) -> Vec<f64> {
        let mut v: Vec<f64> = (0..n)
            .map(|i| (i as f64 + self.unit()) / n as f64)
            .collect();
        self.shuffle(&mut v);
        v
    }

    /// `n` stratified log-uniform integers in `[lo, hi]`, shuffled.
    pub fn log_uniform(&mut self, n: usize, lo: u64, hi: u64) -> Vec<u64> {
        self.strata(n)
            .into_iter()
            .map(|u| log_scale(u, lo, hi))
            .collect()
    }

    /// `k × k` points in the unit square, one per cell of a `k × k` grid,
    /// shuffled. Stratifying both coordinates *jointly* keeps the mix of
    /// any function of the pair (such as a descriptor size times a chain
    /// length) nearly the same under every seed, which two independently
    /// stratified and randomly paired lists do not.
    pub fn grid(&mut self, k: usize) -> Vec<(f64, f64)> {
        let mut v = Vec::with_capacity(k * k);
        for i in 0..k {
            for j in 0..k {
                let a = (i as f64 + self.unit()) / k as f64;
                let b = (j as f64 + self.unit()) / k as f64;
                v.push((a, b));
            }
        }
        self.shuffle(&mut v);
        v
    }

    /// `n` picks from `0..k` with every value used equally often (up to
    /// one), shuffled.
    pub fn balanced(&mut self, n: usize, k: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).map(|i| i % k).collect();
        self.shuffle(&mut v);
        v
    }
}

/// Maps `u` in `[0, 1)` log-uniformly onto the integers `[lo, hi]`.
pub fn log_scale(u: f64, lo: u64, hi: u64) -> u64 {
    let span = (hi as f64 / lo as f64).ln();
    ((lo as f64 * (u * span).exp()) as u64).clamp(lo, hi)
}

/// A pool of seeded payload bytes. Ops copy windows out of it at offsets
/// that change with every execution, so a transfer that silently failed
/// can never be hidden by the bytes an earlier pass left behind.
pub struct Payload(Vec<u8>);

impl Payload {
    /// `len` bytes drawn from `seed`.
    pub fn new(seed: u64, len: usize) -> Payload {
        let mut r = Rng::new(seed, 0x7061_796c);
        let mut v = Vec::with_capacity(len + 8);
        while v.len() < len {
            v.extend_from_slice(&r.next_u64().to_le_bytes());
        }
        v.truncate(len);
        Payload(v)
    }

    /// `len` bytes for the `exec`-th execution of an op.
    pub fn window(&self, exec: u64, len: usize) -> &[u8] {
        let room = self.0.len() - len;
        let off = (exec.wrapping_mul(0x9e37_79b9) % (room as u64 + 1)) as usize;
        &self.0[off..off + len]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_list() {
        let a = Rng::new(7, 1).log_uniform(100, 64, 1 << 20);
        let b = Rng::new(7, 1).log_uniform(100, 64, 1 << 20);
        assert_eq!(a, b);
        assert_ne!(a, Rng::new(8, 1).log_uniform(100, 64, 1 << 20));
    }

    #[test]
    fn strata_cover_every_bucket_once() {
        let mut v = Rng::new(1, 2).strata(50);
        v.sort_by(f64::total_cmp);
        for (i, u) in v.iter().enumerate() {
            assert!((i as f64 / 50.0..(i + 1) as f64 / 50.0).contains(u));
        }
    }

    #[test]
    fn log_uniform_stays_in_range() {
        let v = Rng::new(3, 4).log_uniform(1000, 64, 1 << 20);
        assert!(v.iter().all(|&x| (64..=1 << 20).contains(&x)));
        assert!(v.iter().any(|&x| x < 128) && v.iter().any(|&x| x > 1 << 19));
    }

    #[test]
    fn grid_has_one_point_per_cell() {
        let mut cells: Vec<(usize, usize)> = Rng::new(9, 9)
            .grid(7)
            .into_iter()
            .map(|(a, b)| ((a * 7.0) as usize, (b * 7.0) as usize))
            .collect();
        cells.sort_unstable();
        let want: Vec<(usize, usize)> = (0..7).flat_map(|i| (0..7).map(move |j| (i, j))).collect();
        assert_eq!(cells, want);
    }

    #[test]
    fn payload_windows_move_with_exec() {
        let p = Payload::new(5, 4096);
        assert_eq!(p.window(1, 64).len(), 64);
        assert_ne!(p.window(1, 64), p.window(2, 64));
    }
}

//! Summary maths: median, quantiles, tail percentiles and the FNV-1a
//! digest. Quantiles follow Python's
//! `statistics.quantiles` (the default "exclusive" method), which is also
//! what `steady.py` judges quartile spreads with.

/// Median of `xs` (mean of the two middle values for even lengths).
/// `None` when `xs` is empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// Cut points dividing `xs` into `n` equal-probability groups, with the
/// "exclusive" interpolation of Python's `statistics.quantiles`.
pub fn quantiles(xs: &[f64], n: usize) -> Vec<f64> {
    assert!(n >= 1, "quantiles need n >= 1");
    let s = sorted(xs);
    let ld = s.len();
    match ld {
        0 => return Vec::new(),
        1 => return vec![s[0]; n - 1],
        _ => {}
    }
    let m = ld + 1;
    (1..n)
        .map(|i| {
            let j = (i * m / n).clamp(1, ld - 1);
            let delta = (i * m) as f64 - (j * n) as f64;
            (s[j - 1] * (n as f64 - delta) + s[j] * delta) / n as f64
        })
        .collect()
}

/// The 99th percentile of `xs` (same interpolation as [`quantiles`]).
pub fn p99(xs: &[f64]) -> Option<f64> {
    quantiles(xs, 100).get(98).copied()
}

/// A tail percentile together with how many samples lie strictly beyond
/// it; a tail figure is only trusted with at least [`MIN_BEYOND`] of them.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile value.
    pub value: f64,
    /// Samples strictly greater than `value`.
    pub beyond: usize,
    /// Total samples.
    pub samples: usize,
}

/// Samples a tail percentile needs beyond it before it is reported as
/// trustworthy.
pub const MIN_BEYOND: usize = 10;

impl Tail {
    /// Whether enough samples lie beyond the percentile.
    pub fn trusted(&self) -> bool {
        self.beyond >= MIN_BEYOND
    }
}

/// The 99th percentile of `xs` with its beyond-count.
pub fn p99_tail(xs: &[f64]) -> Option<Tail> {
    let value = p99(xs)?;
    Some(Tail {
        value,
        beyond: xs.iter().filter(|&&x| x > value).count(),
        samples: xs.len(),
    })
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// 64-bit FNV-1a. Kept here rather than borrowed from the simulator so a
/// change inside the simulator can never move the yardstick itself.
#[derive(Clone, Copy, Debug)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds `bytes` into the digest.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds one little-endian `u64` into the digest.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// The digest value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantiles(&xs, 4), vec![2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quantiles(&[2.0, 1.0], 4), vec![0.75, 1.5, 2.25]);
        // statistics.quantiles([5, 7, 9], n=4) == [5.0, 7.0, 9.0]
        assert_eq!(quantiles(&[9.0, 5.0, 7.0], 4), vec![5.0, 7.0, 9.0]);
        assert_eq!(quantiles(&[4.0], 4), vec![4.0; 3]);
        assert!(quantiles(&[], 4).is_empty());
    }

    #[test]
    fn p99_needs_ten_samples_beyond() {
        // 1000 distinct samples: p99 sits at 990.99, with 10 above it.
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = p99_tail(&xs).unwrap();
        assert!((t.value - 990.99).abs() < 1e-9, "{}", t.value);
        assert_eq!(t.beyond, 10);
        assert!(t.trusted());
        // 500 samples leave only 5 beyond the 99th percentile.
        let xs: Vec<f64> = (1..=500).map(f64::from).collect();
        let t = p99_tail(&xs).unwrap();
        assert_eq!(t.beyond, 5);
        assert!(!t.trusted());
        // Ties at the top do not count as beyond.
        let mut xs = vec![1.0; 2000];
        xs.extend([5.0; 5]);
        assert_eq!(p99_tail(&xs).unwrap().beyond, 5);
    }

    #[test]
    fn fnv_reference_vectors() {
        let mut h = Fnv::default();
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
        h.bytes(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv::default();
        h.bytes(b"foobar");
        assert_eq!(h.finish(), 0x8594_4171_f739_67e8);
    }
}

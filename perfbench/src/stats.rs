//! Sample summaries, digests and the seeded generator every workload draws
//! its inputs from.

/// A set of timing (or size) samples. Timings are reported as a median plus
/// the highest percentile that still has at least ten samples beyond it,
/// together with the sample count.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

/// The percentiles [`Samples::tail`] considers, highest first.
const TAIL_PERCENTILES: [f64; 4] = [99.99, 99.9, 99.0, 90.0];

impl Samples {
    pub fn new() -> Self {
        Samples::default()
    }

    pub fn with_capacity(n: usize) -> Self {
        Samples {
            values: Vec::with_capacity(n),
            sorted: false,
        }
    }

    pub fn push(&mut self, v: f64) {
        self.values.push(v);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// The samples, in insertion order until the first percentile query.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.sum() / self.values.len() as f64
        }
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.values
                .sort_unstable_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
            self.sorted = true;
        }
    }

    /// Nearest-rank percentile `p` (0..=100); 0 for an empty set.
    pub fn percentile(&mut self, p: f64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.sort();
        self.values[Self::rank(self.values.len(), p)]
    }

    fn rank(n: usize, p: f64) -> usize {
        let r = (p / 100.0 * n as f64).ceil() as usize;
        r.clamp(1, n) - 1
    }

    pub fn median(&mut self) -> f64 {
        self.percentile(50.0)
    }

    pub fn max(&mut self) -> f64 {
        self.percentile(100.0)
    }

    /// The highest of p99.99, p99.9, p99 and p90 with at least ten samples
    /// above its rank, as `(percentile, value)`; `None` below 100 samples.
    pub fn tail(&mut self) -> Option<(f64, f64)> {
        let n = self.values.len();
        if n == 0 {
            return None;
        }
        let p = TAIL_PERCENTILES
            .into_iter()
            .find(|&p| n - 1 - Self::rank(n, p) >= 10)?;
        Some((p, self.percentile(p)))
    }

    /// One human-readable line: count, median and tail.
    pub fn describe(&mut self, name: &str, unit: &str) -> String {
        let n = self.len();
        let median = self.median();
        match self.tail() {
            Some((p, v)) => format!("{name}: n={n} p50={median:.6} p{p}={v:.6} {unit}"),
            None => format!("{name}: n={n} p50={median:.6} {unit} (too few samples for a tail)"),
        }
    }
}

/// FNV-1a over bytes, in the order they are folded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn fold(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn of(bytes: &[u8]) -> u64 {
        let mut d = Digest::default();
        d.fold(bytes);
        d.0
    }

    pub fn value(&self) -> u64 {
        self.0
    }
}

/// SplitMix64: the benchmark's own input generator, so inputs depend only on
/// `--seed` and never on the program under test.
#[derive(Clone, Debug)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed ^ 0x005e_ed0f_5c00_b000)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let mut s = Samples::new();
        for i in 0..99 {
            s.push(i as f64);
        }
        assert_eq!(s.tail(), None);
        s.push(99.0);
        assert_eq!(s.tail(), Some((90.0, 89.0)));
        let mut big = Samples::new();
        for i in 0..1000 {
            big.push(i as f64);
        }
        // p99 has exactly ten samples above rank 989.
        assert_eq!(big.tail(), Some((99.0, 989.0)));
        assert_eq!(big.median(), 499.0);
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<u32> = (0..50).collect();
        let mut b = a.clone();
        SplitMix::new(7).shuffle(&mut a);
        SplitMix::new(7).shuffle(&mut b);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }
}

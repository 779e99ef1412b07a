//! A log-linear histogram of durations, so a run's memory does not grow
//! with the number of calls it times (peak RSS is a metric).

/// Sub-buckets per power of two: relative bucket width under 0.8 %.
const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;

#[derive(Debug, Default, Clone)]
pub struct Hist {
    counts: Vec<u32>,
    total: u64,
}

fn index(v: u64) -> usize {
    if v < SUB {
        v as usize
    } else {
        let shift = 63 - v.leading_zeros() - SUB_BITS;
        ((u64::from(shift) + 1) * SUB + ((v >> shift) - SUB)) as usize
    }
}

/// The lower bound and width of bucket `i`.
fn bounds(i: usize) -> (f64, f64) {
    let i = i as u64;
    if i < SUB {
        (i as f64, 1.0)
    } else {
        let shift = i / SUB - 1;
        (((i % SUB + SUB) << shift) as f64, (1u64 << shift) as f64)
    }
}

impl Hist {
    pub fn record(&mut self, v: u64) {
        let i = index(v);
        if self.counts.len() <= i {
            self.counts.resize(i + 1, 0);
        }
        self.counts[i] += 1;
        self.total += 1;
    }

    pub fn merge(&mut self, other: &Hist) {
        if self.counts.len() < other.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.total += other.total;
    }

    /// The `q`-quantile (0..=1) by nearest rank, interpolated linearly
    /// inside its bucket; 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (i, &n) in self.counts.iter().enumerate() {
            let n = u64::from(n);
            if seen + n >= rank {
                let (lo, width) = bounds(i);
                return lo + width * ((rank - seen) as f64 - 0.5) / n as f64;
            }
            seen += n;
        }
        unreachable!("rank is at most the total count")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_cover_values_in_order() {
        let mut prev = 0;
        for v in [0, 1, 127, 128, 129, 255, 256, 1000, 123_456, 9_876_543_210] {
            let i = index(v);
            assert!(i >= prev);
            prev = i;
            let (lo, width) = bounds(i);
            assert!(
                lo <= v as f64 && (v as f64) < lo + width,
                "{v} outside bucket {i}"
            );
        }
    }

    #[test]
    fn quantiles_are_within_a_bucket_of_exact() {
        let mut h = Hist::default();
        for v in 1..=10_000u64 {
            h.record(v * 37);
        }
        for q in [0.5, 0.9, 0.99] {
            let exact = (q * 10_000.0) * 37.0;
            assert!((h.quantile(q) - exact).abs() / exact < 0.01, "q{q}");
        }
    }
}

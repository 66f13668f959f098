//! The arithmetic every reported number rests on: a log-linear duration
//! histogram with interpolated quantiles, and the segment quantile used
//! for rates.

/// Mantissa bits per octave: buckets are exact below `2^(M+1)` ns and at
/// most 1/1024 (0.1 %) wide relative to their value above it.
const M: u32 = 10;
const EXACT: u64 = 1 << (M + 1);
/// Highest octave kept; `2^41` ns is 36 minutes, beyond any run.
const MAX_EXP: u32 = 40;
const BUCKETS: usize = EXACT as usize + ((MAX_EXP - M) as usize) * (1 << M);

/// Nanosecond durations, bucketed. Quantiles interpolate inside a bucket,
/// so a median of integer-nanosecond samples is still a continuous value
/// and two runs never read identical by quantisation alone.
pub struct Histogram {
    counts: Vec<u32>,
    n: u64,
    sum: u64,
}

fn index(ns: u64) -> usize {
    if ns < EXACT {
        return ns as usize;
    }
    let e = (63 - ns.leading_zeros()).min(MAX_EXP);
    let mantissa = ((ns >> (e - M)) as usize).min((2 << M) - 1) - (1 << M);
    EXACT as usize + ((e - M - 1) as usize) * (1 << M) + mantissa
}

/// Lower edge and width of bucket `i`, in ns.
fn bounds(i: usize) -> (u64, u64) {
    if i < EXACT as usize {
        return (i as u64, 1);
    }
    let j = i - EXACT as usize;
    let e = (j >> M) as u32 + M + 1;
    let mantissa = (j & ((1 << M) - 1)) as u64 + (1 << M);
    (mantissa << (e - M), 1 << (e - M))
}

impl Histogram {
    pub fn new() -> Self {
        Histogram {
            counts: vec![0; BUCKETS],
            n: 0,
            sum: 0,
        }
    }

    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.counts[index(ns)] += 1;
        self.n += 1;
        self.sum += ns;
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    /// Exact sum of the recorded durations, in ns.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
        self.sum += other.sum;
    }

    /// The `q` quantile (0..=1) in ns; 0 when nothing was recorded.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let target = q.clamp(0.0, 1.0) * self.n as f64;
        let mut below = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if (below + c as u64) as f64 >= target {
                let (lo, width) = bounds(i);
                let frac = (target - below as f64) / c as f64;
                return lo as f64 + width as f64 * frac;
            }
            below += c as u64;
        }
        unreachable!("cumulative count reaches n")
    }

    /// Median in microseconds.
    pub fn p50_us(&self) -> f64 {
        self.quantile(0.5) / 1e3
    }
}

/// The `q` quantile (0..=1) of a small sample, interpolating linearly
/// between neighbours.
pub fn quantile_of(values: &mut [f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    values.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in a sample"));
    let at = q.clamp(0.0, 1.0) * (values.len() - 1) as f64;
    let (lo, frac) = (at.floor() as usize, at.fract());
    let hi = (lo + 1).min(values.len() - 1);
    values[lo] + (values[hi] - values[lo]) * frac
}

pub fn median(values: &mut [f64]) -> f64 {
    quantile_of(values, 0.5)
}

/// Length of one rate segment.
pub const SEGMENT_NS: u64 = 100_000_000;

/// Completions per second as the **upper quartile** over the interval's
/// 100 ms segments. Every segment holds hundreds to thousands of
/// messages, so each carries the full per-message and per-byte cost; what
/// differs between segments is how much of it the host's scheduler took
/// away, and that only ever subtracts. On the 2-core host this was
/// written on, the median of ten 3 s segments spread 8–10 % from run to
/// run of one binary, the upper quartile of 100 ms segments 2–6 %.
pub fn segment_rate(counts: &[f64]) -> f64 {
    quantile_of(&mut segment_rates(counts), 0.75)
}

/// Per-segment completion counts as completions per second.
pub fn segment_rates(counts: &[f64]) -> Vec<f64> {
    let seg_s = SEGMENT_NS as f64 / 1e9;
    counts.iter().map(|&c| c / seg_s).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_tile_the_range_without_gaps() {
        let mut next = 0u64;
        for i in 0..BUCKETS {
            let (lo, width) = bounds(i);
            assert_eq!(
                lo,
                next,
                "bucket {i} starts where {} ended",
                i.wrapping_sub(1)
            );
            assert_eq!(index(lo), i);
            assert_eq!(index(lo + width - 1), i);
            next = lo + width;
        }
        assert_eq!(
            index(u64::MAX),
            BUCKETS - 1,
            "overflow clamps to the last bucket"
        );
    }

    #[test]
    fn quantiles_match_a_sorted_sample() {
        // 1..=100_000 ns, shuffled by a multiplicative walk.
        let n = 100_000u64;
        let mut h = Histogram::new();
        let mut x = 1u64;
        for _ in 0..n {
            x = x * 48_271 % 2_147_483_647;
            h.record(x % n + 1);
        }
        let mut exact: Vec<u64> = Vec::new();
        let mut x = 1u64;
        for _ in 0..n {
            x = x * 48_271 % 2_147_483_647;
            exact.push(x % n + 1);
        }
        exact.sort_unstable();
        for q in [0.01, 0.5, 0.9, 0.99] {
            let want = exact[(q * n as f64) as usize - 1] as f64;
            let got = h.quantile(q);
            assert!(
                (got - want).abs() / want < 2e-3,
                "q{q}: histogram {got} vs sorted {want}"
            );
        }
        assert_eq!(h.count(), n);
        assert_eq!(h.sum(), exact.iter().sum::<u64>());
    }

    #[test]
    fn median_interpolates_inside_an_exact_bucket() {
        // 10 samples of 980 ns, 10 of 981: the median sits on the edge
        // between the two 1-ns buckets, not on either integer.
        let mut h = Histogram::new();
        for _ in 0..10 {
            h.record(980);
            h.record(981);
        }
        assert_eq!(h.quantile(0.5), 981.0);
        h.record(981);
        let m = h.quantile(0.5);
        assert!(m > 981.0 && m < 981.1, "{m}");
    }

    #[test]
    fn quantiles_of_small_samples() {
        assert_eq!(median(&mut [3.0]), 3.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(quantile_of(&mut [4.0, 1.0, 3.0, 2.0, 5.0], 0.75), 4.0);
        assert_eq!(quantile_of(&mut [1.0, 2.0], 0.75), 1.75);
    }

    #[test]
    fn segment_rate_ignores_stalled_segments() {
        // 100 completions per 100 ms segment is 1000/s; a third of the
        // segments lost most of their time to something else.
        let mut counts = [100.0; 9];
        counts[1] = 10.0;
        counts[4] = 35.5;
        counts[7] = 60.0;
        assert_eq!(segment_rate(&counts), 1000.0);
        let mean = counts.iter().sum::<f64>() / 0.9;
        assert!(mean < 800.0, "the plain mean would have moved: {mean}");
        // A slowdown that every segment sees moves the rate in full.
        assert_eq!(segment_rate(&[90.0; 9]), 900.0);
    }
}

//! The benchmark's own arithmetic: order statistics, the percentile rule,
//! the round-time attribution and the serving ladder's rung selection.

/// Percentiles the benchmark may report, lowest first.
pub const PERCENTILES: [f64; 5] = [0.5, 0.9, 0.99, 0.999, 0.9999];

/// Samples a percentile needs beyond it before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Number of samples strictly beyond percentile `p` of `n` samples under
/// the nearest-rank rule of [`Histogram::percentile`].
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - nearest_rank(n, p)
}

/// The highest of [`PERCENTILES`] with at least [`MIN_BEYOND`] samples
/// beyond it, or `None` when even the median has fewer.
pub fn highest_reportable(n: usize) -> Option<f64> {
    PERCENTILES.iter().rev().copied().find(|&p| n > 0 && samples_beyond(n, p) >= MIN_BEYOND)
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn nearest_rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// Values below this are counted exactly, one bucket per nanosecond.
const LINEAR: u64 = 1024;
/// Sub-buckets per power of two above [`LINEAR`]: 1/128 relative width.
const SUB_BITS: u32 = 7;

/// A fixed-size log-linear histogram of nanosecond durations. Recording
/// never allocates, so timing millions of requests adds no allocator or
/// page-fault stalls to the run it measures. A reported value is the low
/// edge of its bucket: exact below 1024 ns, within 1/128 above.
#[derive(Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        let buckets = LINEAR as usize + ((64 - LINEAR.ilog2()) << SUB_BITS) as usize;
        Self { counts: vec![0; buckets], total: 0 }
    }
}

impl Histogram {
    fn bucket(v: u64) -> usize {
        if v < LINEAR {
            return v as usize;
        }
        let exp = v.ilog2();
        let sub = (v >> (exp - SUB_BITS)) & ((1 << SUB_BITS) - 1);
        LINEAR as usize + (((exp - LINEAR.ilog2()) << SUB_BITS) as u64 + sub) as usize
    }

    fn low_edge(b: usize) -> u64 {
        if b < LINEAR as usize {
            return b as u64;
        }
        let k = (b - LINEAR as usize) as u64;
        let exp = (k >> SUB_BITS) as u32 + LINEAR.ilog2();
        let sub = k & ((1 << SUB_BITS) - 1);
        (1 << exp) | (sub << (exp - SUB_BITS))
    }

    pub fn record(&mut self, v: u64) {
        self.counts[Self::bucket(v)] += 1;
        self.total += 1;
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    /// Nearest-rank percentile `p`, or 0 when empty.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = nearest_rank(self.total as usize, p) as u64;
        let mut seen = 0;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::low_edge(b);
            }
        }
        unreachable!("rank is at most the total count")
    }
}

/// Median of `values` (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Fastest reading of each round over repeats of one deterministic
/// schedule, where `repeats[k][i]` is round `i` of repeat `k`. Every repeat
/// does the same arithmetic and host interference only ever adds time, so
/// the fastest repeat of a round is the closest reading of the round itself.
pub fn fastest_per_round(repeats: &[Vec<f64>]) -> Vec<f64> {
    let n = repeats.first().map_or(0, Vec::len);
    assert!(repeats.iter().all(|r| r.len() == n), "repeats of one schedule differ in rounds");
    (0..n).map(|i| repeats.iter().map(|r| r[i]).fold(f64::INFINITY, f64::min)).collect()
}

/// Round wall time the phase spans do not cover. By construction the
/// phases plus this remainder add up to the measured round time exactly.
pub fn unattributed(round_ms: f64, phases_ms: &[f64]) -> f64 {
    round_ms - phases_ms.iter().sum::<f64>()
}

/// What one rung of the open-loop serving ladder measured.
#[derive(Debug, Clone, Copy)]
pub struct RungOutcome {
    /// Offered request rate (requests per second).
    pub offered: f64,
    /// 99th-percentile latency from due time to wave return, in µs.
    pub p99_us: f64,
    /// Requests refused by admission control.
    pub rejected: u64,
    /// Requests still queued when the rung's last arrival was due.
    pub backlog: u64,
}

impl RungOutcome {
    /// A rung meets the latency limit when its p99 is within the limit,
    /// nothing was refused (a refused request misses any limit), and the
    /// queue left at the last arrival takes no longer than the limit to
    /// serve at the offered rate (no growing backlog).
    pub fn meets(&self, limit_us: f64) -> bool {
        self.p99_us <= limit_us
            && self.rejected == 0
            && (self.backlog as f64) <= self.offered * limit_us * 1e-6
    }
}

/// Highest offered rate among `rungs` that meets `limit_us`, or `None`
/// when no rung does.
pub fn slo_rate(rungs: &[RungOutcome], limit_us: f64) -> Option<f64> {
    rungs.iter().filter(|r| r.meets(limit_us)).map(|r| r.offered).max_by(f64::total_cmp)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(highest_reportable(0), None);
        assert_eq!(highest_reportable(19), None);
        assert_eq!(highest_reportable(20), Some(0.5));
        assert_eq!(highest_reportable(99), Some(0.5));
        assert_eq!(highest_reportable(100), Some(0.9));
        assert_eq!(highest_reportable(999), Some(0.9));
        assert_eq!(highest_reportable(1000), Some(0.99));
        assert_eq!(highest_reportable(10_000), Some(0.999));
        assert_eq!(highest_reportable(10_000_000), Some(0.9999));
        for n in [20, 100, 1000, 12_345] {
            let p = highest_reportable(n).unwrap();
            assert!(samples_beyond(n, p) >= MIN_BEYOND, "n={n}");
        }
    }

    #[test]
    fn nearest_rank_percentiles() {
        let mut h = Histogram::default();
        assert_eq!(h.percentile(0.5), 0);
        for v in 1..=100 {
            h.record(v);
        }
        assert_eq!(h.percentile(0.5), 50);
        assert_eq!(h.percentile(0.99), 99);
        assert_eq!(h.percentile(1.0), 100);
        assert_eq!(samples_beyond(100, 0.9), 10);
    }

    #[test]
    fn histogram_buckets_are_within_one_128th() {
        let mut last = 0;
        for v in (0..40).map(|e| 1u64 << e).flat_map(|b| [b, b + b / 3, b * 2 - 1]) {
            let lo = Histogram::low_edge(Histogram::bucket(v));
            assert!(lo <= v && (v - lo) as f64 <= v as f64 / 128.0, "{v} -> {lo}");
            assert!(Histogram::bucket(v) >= last, "buckets ascend");
            last = Histogram::bucket(v);
        }
        assert!(Histogram::bucket(u64::MAX) < Histogram::default().counts.len());
        let (mut a, mut b) = (Histogram::default(), Histogram::default());
        (0..500).for_each(|v| a.record(v));
        (500..1000).for_each(|v| b.record(v));
        a.merge(&b);
        assert_eq!((a.count(), a.percentile(0.5), a.percentile(0.99)), (1000, 499, 989));
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn fastest_round_is_taken_per_round_not_per_repeat() {
        let repeats = vec![vec![5.0, 9.0, 4.0], vec![6.0, 7.0, 8.0], vec![9.0, 8.0, 4.5]];
        assert_eq!(fastest_per_round(&repeats), [5.0, 7.0, 4.0]);
        assert_eq!(fastest_per_round(&repeats[..1]), repeats[0]);
        assert!(fastest_per_round(&[]).is_empty());
    }

    #[test]
    fn phases_plus_unattributed_is_the_round() {
        let phases = [812.5, 0.75, 3.25, 1.5, 0.5];
        let round = 830.0;
        let rest = unattributed(round, &phases);
        assert_eq!(rest, 11.5);
        assert_eq!(phases.iter().sum::<f64>() + rest, round);
        // Phases that cover more than the round read as negative, not 0.
        assert!(unattributed(1.0, &[0.75, 0.5]) < 0.0);
    }

    fn rung(offered: f64, p99_us: f64, rejected: u64, backlog: u64) -> RungOutcome {
        RungOutcome { offered, p99_us, rejected, backlog }
    }

    #[test]
    fn slo_rate_picks_the_highest_passing_rung() {
        let limit = 2000.0;
        let rungs = [
            rung(100e3, 40.0, 0, 3),
            rung(200e3, 80.0, 0, 10),
            rung(400e3, 1900.0, 0, 50),
            rung(800e3, 2100.0, 0, 40),
            rung(1.2e6, 30_000.0, 12, 9000),
        ];
        assert_eq!(slo_rate(&rungs, limit), Some(400e3));
        // A refused request fails the rung even with a fast p99.
        assert_eq!(slo_rate(&[rung(100e3, 10.0, 1, 0)], limit), None);
        // A backlog longer than the limit at the offered rate fails it:
        // 200k/s × 2 ms = 400 requests.
        assert!(rung(200e3, 10.0, 0, 400).meets(limit));
        assert!(!rung(200e3, 10.0, 0, 401).meets(limit));
        // The ladder order does not matter, only the rates.
        let mut rev = rungs;
        rev.reverse();
        assert_eq!(slo_rate(&rev, limit), Some(400e3));
        assert_eq!(slo_rate(&[], limit), None);
    }
}

//! Seeded inputs the benchmark generates for the program: the open-loop
//! arrival schedule and the held-out windows sessions replay.

/// SplitMix64: a small, fast generator whose stream is fixed by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }
}

/// Mixes a label into a seed, so each input stream of a run is distinct.
pub fn mix(seed: u64, label: u64) -> u64 {
    Rng::new(seed ^ label.wrapping_mul(0xd6e8_feb8_6659_fd93)).next_u64()
}

/// An open-loop Poisson arrival stream: requests arrive at `rate` per
/// second regardless of how fast they are served, each addressed to a
/// uniformly random one of `sessions` sessions.
#[derive(Debug, Clone)]
pub struct Arrivals {
    rng: Rng,
    mean_gap_ns: f64,
    sessions: usize,
    due_ns: f64,
}

impl Arrivals {
    pub fn new(rate: f64, sessions: usize, seed: u64) -> Self {
        assert!(rate > 0.0 && sessions > 0, "need a positive rate and at least one session");
        Self { rng: Rng::new(seed), mean_gap_ns: 1e9 / rate, sessions, due_ns: 0.0 }
    }
}

impl Iterator for Arrivals {
    /// `(due time in ns from the start of the rung, session index)`.
    type Item = (u64, usize);

    fn next(&mut self) -> Option<(u64, usize)> {
        self.due_ns += -self.rng.unit().ln() * self.mean_gap_ns;
        Some((self.due_ns as u64, self.rng.below(self.sessions)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrivals_repeat_for_a_seed() {
        let a: Vec<_> = Arrivals::new(200e3, 128, 7).take(5000).collect();
        let b: Vec<_> = Arrivals::new(200e3, 128, 7).take(5000).collect();
        let c: Vec<_> = Arrivals::new(200e3, 128, 8).take(5000).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.windows(2).all(|w| w[0].0 <= w[1].0), "due times ascend");
    }

    #[test]
    fn arrivals_have_the_offered_rate_and_cover_sessions() {
        let n = 200_000;
        let last = Arrivals::new(400e3, 16, 3).take(n).last().unwrap().0;
        let rate = n as f64 / (last as f64 * 1e-9);
        assert!((rate / 400e3 - 1.0).abs() < 0.01, "rate {rate}");
        let mut hits = [0usize; 16];
        for (_, s) in Arrivals::new(400e3, 16, 3).take(n) {
            hits[s] += 1;
        }
        let expect = n as f64 / 16.0;
        assert!(hits.iter().all(|&h| (h as f64 / expect - 1.0).abs() < 0.05), "{hits:?}");
    }

    #[test]
    fn mixed_seeds_differ_by_label() {
        assert_ne!(mix(1, 0), mix(1, 1));
        assert_eq!(mix(5, 9), mix(5, 9));
    }
}

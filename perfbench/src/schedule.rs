//! Seeded load generation: the only source of randomness in the
//! benchmark. Every workload input — weights, digits, arrival times,
//! tenant choices — derives from the `--seed` argument through
//! [`Rng`], so one seed always yields the same inputs.

/// SplitMix64: small, fast, and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and a `stream` label, so independent
    /// inputs of one run draw from independent sequences.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }
}

/// One scheduled request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// When the request is due, in nanoseconds after the phase starts.
    pub due_ns: u64,
    /// Which tenant it is for.
    pub tenant: usize,
    /// Which pre-generated input it carries.
    pub input: usize,
}

/// Poisson arrivals at `rate_per_s` for `duration_s` seconds, each for a
/// uniformly chosen tenant and input. Deterministic in `seed`.
pub fn poisson_schedule(
    seed: u64,
    rate_per_s: f64,
    duration_s: f64,
    tenants: usize,
    inputs: usize,
) -> Vec<Arrival> {
    assert!(rate_per_s > 0.0 && tenants > 0 && inputs > 0);
    let mut rng = Rng::new(seed, 0x5C4E_D01E);
    let horizon_ns = duration_s * 1e9;
    let mut t_ns = 0.0f64;
    let mut out = Vec::with_capacity((rate_per_s * duration_s * 1.1) as usize + 16);
    loop {
        // Exponential gap; 1 - u is in (0, 1], so the log is finite.
        t_ns += -(1.0 - rng.next_f64()).ln() / rate_per_s * 1e9;
        if t_ns >= horizon_ns {
            return out;
        }
        out.push(Arrival {
            due_ns: t_ns as u64,
            tenant: rng.below(tenants),
            input: rng.below(inputs),
        });
    }
}

/// The request sequence of a saturation phase: tenants and inputs drawn
/// uniformly, with no due times (the generator submits as fast as the
/// backlog bound allows). Deterministic in `seed`; cycled if a run
/// outlasts it.
pub fn uniform_sequence(seed: u64, len: usize, tenants: usize, inputs: usize) -> Vec<Arrival> {
    let mut rng = Rng::new(seed, 0x5A7_0BAD);
    (0..len)
        .map(|_| Arrival {
            due_ns: 0,
            tenant: rng.below(tenants),
            input: rng.below(inputs),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        let a = poisson_schedule(7, 1500.0, 2.0, 6, 64);
        let b = poisson_schedule(7, 1500.0, 2.0, 6, 64);
        assert_eq!(a, b);
        assert_ne!(a, poisson_schedule(8, 1500.0, 2.0, 6, 64));
        assert_eq!(
            uniform_sequence(7, 100, 6, 64),
            uniform_sequence(7, 100, 6, 64)
        );
    }

    #[test]
    fn schedule_is_ordered_and_bounded() {
        let s = poisson_schedule(3, 400.0, 1.5, 2, 8);
        assert!(s.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        assert!(s.iter().all(|a| a.due_ns < 1_500_000_000));
        assert!(s.iter().all(|a| a.tenant < 2 && a.input < 8));
    }

    #[test]
    fn schedule_has_the_nominal_rate_and_uniform_tenants() {
        let s = poisson_schedule(11, 2000.0, 20.0, 4, 16);
        let rate = s.len() as f64 / 20.0;
        assert!((rate - 2000.0).abs() < 2000.0 * 0.03, "rate {rate}");
        for t in 0..4 {
            let share = s.iter().filter(|a| a.tenant == t).count() as f64 / s.len() as f64;
            assert!((share - 0.25).abs() < 0.02, "tenant {t} share {share}");
        }
        // Exponential gaps: the mean equals the standard deviation.
        let gaps: Vec<f64> = s
            .windows(2)
            .map(|w| (w[1].due_ns - w[0].due_ns) as f64)
            .collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        assert!((var.sqrt() / mean - 1.0).abs() < 0.05);
    }
}

//! Multi-tenant interference.
//!
//! Shared testbeds are not quiet: co-located tenants contend for memory
//! bandwidth, disk queues, and switch ports. The model is simple and
//! composable — with some probability a run is "contended" and picks up
//! an extra multiplicative penalty — but it reproduces the operationally
//! important effect: interference widens distributions asymmetrically and
//! inflates exactly the repetition counts CONFIRM reports.

use varstats::rng::Rng;

use crate::distributions::Dist;
use crate::hardware::Subsystem;

/// An interference model: per-subsystem contention probability and
/// penalty.
#[derive(Debug, Clone, PartialEq)]
pub struct InterferenceModel {
    /// Probability that any given run is contended.
    pub contention_prob: f64,
    /// Multiplicative penalty on a contended run (applied to latency
    /// directly; inverted internally for throughput subsystems so that
    /// contention always *hurts*).
    pub penalty: Dist,
    /// Which subsystems contention touches (empty = all).
    pub subsystems: Vec<Subsystem>,
}

impl InterferenceModel {
    /// A neighborly model: 15% of runs contended, 5–40% penalty, all
    /// subsystems.
    pub fn noisy_neighbor() -> Self {
        Self {
            contention_prob: 0.15,
            penalty: Dist::Uniform { lo: 1.05, hi: 1.4 },
            subsystems: Vec::new(),
        }
    }

    /// Whether this model touches `subsystem`.
    fn affects(&self, subsystem: Subsystem) -> bool {
        self.subsystems.is_empty() || self.subsystems.contains(&subsystem)
    }

    /// Applies interference to a measured `value` for one run.
    ///
    /// `stream_seed` must be unique per run (the cluster passes its
    /// derived per-run seed) so contention is reproducible.
    pub(crate) fn apply(&self, value: f64, subsystem: Subsystem, stream_seed: u64) -> f64 {
        if !self.affects(subsystem) || self.contention_prob <= 0.0 {
            return value;
        }
        let mut rng = Rng::seed_from_u64(stream_seed ^ 0xD00D_F00D_5EED_BEEF);
        if rng.f64() >= self.contention_prob {
            return value;
        }
        let penalty = self.penalty.sample(&mut rng).max(1.0);
        if subsystem.higher_is_better() {
            value / penalty
        } else {
            value * penalty
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contention_always_hurts() {
        let model = InterferenceModel::noisy_neighbor();
        let mut contended_lat = 0usize;
        let mut contended_bw = 0usize;
        for seed in 0..2000u64 {
            let lat = model.apply(100.0, Subsystem::NetworkLatency, seed);
            let bw = model.apply(100.0, Subsystem::MemoryBandwidth, seed);
            assert!(lat >= 100.0, "latency improved under contention: {lat}");
            assert!(bw <= 100.0, "throughput improved under contention: {bw}");
            if lat > 100.0 {
                contended_lat += 1;
            }
            if bw < 100.0 {
                contended_bw += 1;
            }
        }
        // ~15% contended.
        assert!((200..400).contains(&contended_lat), "{contended_lat}");
        assert!((200..400).contains(&contended_bw), "{contended_bw}");
    }

    #[test]
    fn deterministic_per_seed() {
        let model = InterferenceModel::noisy_neighbor();
        let a = model.apply(50.0, Subsystem::DiskSequential, 42);
        let b = model.apply(50.0, Subsystem::DiskSequential, 42);
        assert_eq!(a, b);
    }

    #[test]
    fn subsystem_scoping() {
        let model = InterferenceModel {
            contention_prob: 1.0,
            penalty: Dist::Uniform { lo: 2.0, hi: 2.0 },
            subsystems: vec![Subsystem::NetworkLatency],
        };
        assert!(model.affects(Subsystem::NetworkLatency));
        assert!(!model.affects(Subsystem::DiskRandom));
        assert_eq!(model.apply(10.0, Subsystem::NetworkLatency, 1), 20.0);
        assert_eq!(model.apply(10.0, Subsystem::DiskRandom, 1), 10.0);
    }

    #[test]
    fn zero_probability_is_identity() {
        let model = InterferenceModel {
            contention_prob: 0.0,
            penalty: Dist::Uniform { lo: 10.0, hi: 10.0 },
            subsystems: Vec::new(),
        };
        for seed in 0..100 {
            assert_eq!(model.apply(7.0, Subsystem::MemoryLatency, seed), 7.0);
        }
    }
}

//! Per-subsystem variability models.
//!
//! The paper's central empirical facts, encoded as distributions:
//!
//! * **Disks vary most** — lognormal run noise with CoV of several
//!   percent on HDDs (seek/rotational nondeterminism), plus occasional
//!   large outliers; random I/O is worse than sequential; SSDs are
//!   tighter but suffer GC-pause outliers.
//! * **Memory varies little per run but is multimodal across machines** —
//!   per-unit "lottery" (DIMM placement, vendor mix, NUMA asymmetry)
//!   forms clusters a few percent apart, so same-type machines disagree
//!   even though each machine alone is tight.
//! * **Network throughput is the most stable subsystem**; latency is
//!   right-skewed with a heavy tail (queueing).
//!
//! Every factor is multiplicative around 1.0 so it can scale any
//! baseline. All parameters live in one place so ablations can sweep
//! them.

use varstats::rng::Rng;

use crate::distributions::Dist;
use crate::hardware::{DiskKind, Subsystem};

/// The variability model of one subsystem on one machine type.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SubsystemVariation {
    /// Per-unit multiplicative factor, sampled once when a machine is
    /// provisioned (the "hardware lottery").
    pub unit_lottery: Dist,
    /// Per-run multiplicative noise.
    pub run_noise: Dist,
    /// Probability that a run is an outlier.
    pub outlier_prob: f64,
    /// Multiplicative factor applied to outlier runs (relative to the
    /// normal value; `> 1` hurts throughput-style metrics too because the
    /// sign convention is handled by the caller via the subsystem's
    /// direction).
    pub outlier_factor: Dist,
    /// Multiplicative drift per simulated day (aging / fragmentation).
    pub drift_per_day: f64,
}

impl SubsystemVariation {
    /// Samples the per-run factor (noise plus possible outlier) at a
    /// given `day`.
    pub(crate) fn run_factor(&self, day: f64, rng: &mut Rng) -> f64 {
        let mut f = self.run_noise.sample(rng).max(1e-6);
        if self.outlier_prob > 0.0 && rng.f64() < self.outlier_prob {
            f *= self.outlier_factor.sample(rng).max(1e-6);
        }
        f * (1.0 + self.drift_per_day * day)
    }
}

/// Default variability model for a subsystem on a machine with the given
/// disk technology.
///
/// The parameters are calibrated to the magnitudes the paper reports:
/// CoV(disk, HDD) in the several-percent range and far above
/// CoV(network throughput); memory lotteries spreading same-type machines
/// by up to ~10%; latency tails heavy.
pub(crate) fn default_variation(subsystem: Subsystem, disk: DiskKind) -> SubsystemVariation {
    match subsystem {
        Subsystem::MemoryBandwidth => SubsystemVariation {
            // Most machines cluster at nominal; ~20% drew a worse DIMM
            // configuration ~3.5% down; a few percent are ~8% down. This
            // produces the multimodal cross-machine histograms (F2).
            unit_lottery: Dist::Mixture(vec![
                (
                    0.77,
                    Dist::Normal {
                        mean: 1.0,
                        std: 0.006,
                    },
                ),
                (
                    0.20,
                    Dist::Normal {
                        mean: 0.965,
                        std: 0.006,
                    },
                ),
                (
                    0.03,
                    Dist::Normal {
                        mean: 0.92,
                        std: 0.008,
                    },
                ),
            ]),
            run_noise: Dist::rel_normal(0.004),
            outlier_prob: 0.002,
            outlier_factor: Dist::Uniform { lo: 0.93, hi: 0.97 },
            drift_per_day: 0.0,
        },
        Subsystem::MemoryLatency => SubsystemVariation {
            unit_lottery: Dist::Mixture(vec![
                (
                    0.8,
                    Dist::Normal {
                        mean: 1.0,
                        std: 0.008,
                    },
                ),
                (
                    0.2,
                    Dist::Normal {
                        mean: 1.04,
                        std: 0.008,
                    },
                ),
            ]),
            run_noise: Dist::rel_lognormal(0.006),
            outlier_prob: 0.004,
            outlier_factor: Dist::Uniform { lo: 1.05, hi: 1.2 },
            drift_per_day: 0.0,
        },
        Subsystem::DiskSequential => match disk {
            DiskKind::Hdd => SubsystemVariation {
                unit_lottery: Dist::Normal {
                    mean: 1.0,
                    std: 0.035,
                },
                run_noise: Dist::rel_lognormal(0.045),
                outlier_prob: 0.02,
                outlier_factor: Dist::Uniform { lo: 0.55, hi: 0.85 },
                drift_per_day: -4e-5,
            },
            DiskKind::Ssd | DiskKind::Nvme => SubsystemVariation {
                unit_lottery: Dist::Normal {
                    mean: 1.0,
                    std: 0.015,
                },
                run_noise: Dist::rel_lognormal(0.012),
                outlier_prob: 0.01,
                outlier_factor: Dist::Uniform { lo: 0.7, hi: 0.9 },
                drift_per_day: -1.5e-5,
            },
        },
        Subsystem::DiskRandom => match disk {
            DiskKind::Hdd => SubsystemVariation {
                unit_lottery: Dist::Normal {
                    mean: 1.0,
                    std: 0.05,
                },
                run_noise: Dist::rel_lognormal(0.09),
                outlier_prob: 0.03,
                outlier_factor: Dist::Uniform { lo: 0.4, hi: 0.8 },
                drift_per_day: -6e-5,
            },
            DiskKind::Ssd | DiskKind::Nvme => SubsystemVariation {
                unit_lottery: Dist::Normal {
                    mean: 1.0,
                    std: 0.02,
                },
                run_noise: Dist::rel_lognormal(0.025),
                outlier_prob: 0.02,
                outlier_factor: Dist::Uniform { lo: 0.5, hi: 0.85 },
                drift_per_day: -2e-5,
            },
        },
        Subsystem::NetworkLatency => SubsystemVariation {
            unit_lottery: Dist::Normal {
                mean: 1.0,
                std: 0.01,
            },
            // Right-skewed base noise plus a Pareto queueing tail.
            run_noise: Dist::rel_lognormal(0.03),
            outlier_prob: 0.03,
            outlier_factor: Dist::Pareto {
                scale: 1.2,
                shape: 2.5,
            },
            drift_per_day: 0.0,
        },
        Subsystem::NetworkBandwidth => SubsystemVariation {
            unit_lottery: Dist::Normal {
                mean: 1.0,
                std: 0.002,
            },
            run_noise: Dist::rel_normal(0.003),
            outlier_prob: 0.001,
            outlier_factor: Dist::Uniform { lo: 0.93, hi: 0.98 },
            drift_per_day: 0.0,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cov_of_run_factors(subsystem: Subsystem, disk: DiskKind, seed: u64) -> f64 {
        let v = default_variation(subsystem, disk);
        let mut rng = Rng::seed_from_u64(seed);
        let xs: Vec<f64> = (0..20_000).map(|_| v.run_factor(0.0, &mut rng)).collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / xs.len() as f64;
        var.sqrt() / mean
    }

    #[test]
    fn disk_is_most_variable_network_bw_least() {
        let disk_rand = cov_of_run_factors(Subsystem::DiskRandom, DiskKind::Hdd, 1);
        let disk_seq = cov_of_run_factors(Subsystem::DiskSequential, DiskKind::Hdd, 2);
        let mem = cov_of_run_factors(Subsystem::MemoryBandwidth, DiskKind::Hdd, 3);
        let net_bw = cov_of_run_factors(Subsystem::NetworkBandwidth, DiskKind::Hdd, 4);
        assert!(disk_rand > disk_seq, "rand {disk_rand} vs seq {disk_seq}");
        assert!(disk_seq > mem, "seq {disk_seq} vs mem {mem}");
        assert!(mem > net_bw, "mem {mem} vs net {net_bw}");
        // Magnitudes in the paper's ballpark.
        assert!(disk_rand > 0.05, "{disk_rand}");
        assert!(net_bw < 0.01, "{net_bw}");
    }

    #[test]
    fn hdd_noisier_than_ssd() {
        let hdd = cov_of_run_factors(Subsystem::DiskSequential, DiskKind::Hdd, 5);
        let ssd = cov_of_run_factors(Subsystem::DiskSequential, DiskKind::Ssd, 6);
        assert!(hdd > 2.0 * ssd, "hdd {hdd} vs ssd {ssd}");
    }

    #[test]
    fn latency_tail_is_heavy() {
        let v = default_variation(Subsystem::NetworkLatency, DiskKind::Ssd);
        let mut rng = Rng::seed_from_u64(7);
        let xs: Vec<f64> = (0..50_000).map(|_| v.run_factor(0.0, &mut rng)).collect();
        let mut sorted = xs.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = sorted[sorted.len() / 2];
        let p999 = sorted[(sorted.len() as f64 * 0.999) as usize];
        assert!(p999 / median > 1.3, "tail ratio {}", p999 / median);
    }

    #[test]
    fn memory_lottery_is_multimodal() {
        let v = default_variation(Subsystem::MemoryBandwidth, DiskKind::Hdd);
        let mut rng = Rng::seed_from_u64(8);
        let lots: Vec<f64> = (0..5_000)
            .map(|_| v.unit_lottery.sample(&mut rng))
            .collect();
        let near_nominal = lots.iter().filter(|&&x| x > 0.985).count() as f64;
        let degraded = lots.iter().filter(|&&x| x <= 0.985).count() as f64;
        let frac_degraded = degraded / (near_nominal + degraded);
        assert!(
            (0.15..0.35).contains(&frac_degraded),
            "degraded fraction {frac_degraded}"
        );
    }

    #[test]
    fn drift_moves_the_run_factor() {
        let v = default_variation(Subsystem::DiskSequential, DiskKind::Hdd);
        let mut rng = Rng::seed_from_u64(9);
        let day0: f64 = (0..5000).map(|_| v.run_factor(0.0, &mut rng)).sum::<f64>() / 5000.0;
        let day300: f64 = (0..5000)
            .map(|_| v.run_factor(300.0, &mut rng))
            .sum::<f64>()
            / 5000.0;
        assert!(day300 < day0, "aging should reduce throughput factors");
    }

    #[test]
    fn run_factors_are_positive() {
        for s in Subsystem::ALL {
            for disk in [DiskKind::Hdd, DiskKind::Ssd, DiskKind::Nvme] {
                let v = default_variation(s, disk);
                let mut rng = Rng::seed_from_u64(10);
                for _ in 0..2000 {
                    assert!(v.run_factor(10.0, &mut rng) > 0.0);
                }
            }
        }
    }
}

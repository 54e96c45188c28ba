//! Hand-rolled sampling distributions.
//!
//! The testbed needs the distribution families the paper observed in real
//! hardware — lognormal disk noise, mixture-of-normals memory lotteries,
//! heavy (Pareto) latency tails — and the workspace generator
//! ([`varstats::rng`]) only provides uniform draws. Everything else is
//! built here (Box–Muller, inverse-CDF Pareto, weighted mixtures),
//! deterministic under a seeded [`Rng`].

use varstats::rng::Rng;

/// A sampleable distribution over `f64`.
#[derive(Debug, Clone, PartialEq)]
pub enum Dist {
    /// Uniform on `[lo, hi)`.
    Uniform {
        /// Lower bound.
        lo: f64,
        /// Upper bound.
        hi: f64,
    },
    /// Normal (Gaussian) via Box–Muller.
    Normal {
        /// Mean.
        mean: f64,
        /// Standard deviation.
        std: f64,
    },
    /// Lognormal: `exp(N(mu, sigma))`.
    LogNormal {
        /// Mean of the underlying normal.
        mu: f64,
        /// Standard deviation of the underlying normal.
        sigma: f64,
    },
    /// Pareto with minimum `scale` and tail index `shape` (heavier tail
    /// for smaller `shape`).
    Pareto {
        /// Minimum value.
        scale: f64,
        /// Tail index.
        shape: f64,
    },
    /// Weighted mixture of component distributions.
    Mixture(Vec<(f64, Dist)>),
}

impl Dist {
    /// Draws one sample.
    pub fn sample(&self, rng: &mut Rng) -> f64 {
        match self {
            Dist::Uniform { lo, hi } => lo + (hi - lo) * rng.f64(),
            Dist::Normal { mean, std } => {
                let u1: f64 = rng.f64().max(1e-300);
                let u2: f64 = rng.f64();
                mean + std * (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
            }
            Dist::LogNormal { mu, sigma } => {
                let n = Dist::Normal {
                    mean: *mu,
                    std: *sigma,
                };
                n.sample(rng).exp()
            }
            Dist::Pareto { scale, shape } => {
                let u: f64 = rng.f64().max(1e-300);
                scale / u.powf(1.0 / shape)
            }
            Dist::Mixture(components) => {
                let total: f64 = components.iter().map(|(w, _)| *w).sum();
                let mut pick = rng.f64() * total;
                for (w, d) in components {
                    if pick < *w {
                        return d.sample(rng);
                    }
                    pick -= w;
                }
                components
                    .last()
                    .map(|(_, d)| d.sample(rng))
                    .unwrap_or(f64::NAN)
            }
        }
    }

    /// A multiplicative-noise helper: a normal centered on 1.0 with
    /// relative standard deviation `rel_std`.
    pub(crate) fn rel_normal(rel_std: f64) -> Dist {
        Dist::Normal {
            mean: 1.0,
            std: rel_std,
        }
    }

    /// A multiplicative lognormal centered (in median) on 1.0 with shape
    /// `sigma`.
    pub(crate) fn rel_lognormal(sigma: f64) -> Dist {
        Dist::LogNormal { mu: 0.0, sigma }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn draw(d: &Dist, n: usize, seed: u64) -> Vec<f64> {
        let mut rng = Rng::seed_from_u64(seed);
        (0..n).map(|_| d.sample(&mut rng)).collect()
    }

    fn mean(v: &[f64]) -> f64 {
        v.iter().sum::<f64>() / v.len() as f64
    }

    #[test]
    fn uniform_bounds_and_mean() {
        let d = Dist::Uniform { lo: 2.0, hi: 4.0 };
        let xs = draw(&d, 5000, 2);
        assert!(xs.iter().all(|&x| (2.0..4.0).contains(&x)));
        assert!((mean(&xs) - 3.0).abs() < 0.05);
    }

    #[test]
    fn normal_mean_and_spread() {
        let d = Dist::Normal {
            mean: 100.0,
            std: 5.0,
        };
        let xs = draw(&d, 20000, 3);
        assert!((mean(&xs) - 100.0).abs() < 0.2);
        let var = xs.iter().map(|x| (x - 100.0) * (x - 100.0)).sum::<f64>() / xs.len() as f64;
        assert!((var.sqrt() - 5.0).abs() < 0.2);
    }

    #[test]
    fn lognormal_median_and_positivity() {
        let d = Dist::LogNormal {
            mu: 0.0,
            sigma: 0.5,
        };
        let mut xs = draw(&d, 20001, 4);
        assert!(xs.iter().all(|&x| x > 0.0));
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = xs[xs.len() / 2];
        assert!((median - 1.0).abs() < 0.05, "median {median}");
        // E[exp(N(0, 0.5))] = exp(0.5^2 / 2).
        assert!((mean(&xs) - 0.125f64.exp()).abs() < 0.05);
    }

    #[test]
    fn pareto_minimum_and_tail() {
        let d = Dist::Pareto {
            scale: 1.0,
            shape: 3.0,
        };
        let xs = draw(&d, 20000, 6);
        assert!(xs.iter().all(|&x| x >= 1.0));
        assert!((mean(&xs) - 1.5).abs() < 0.1);
    }

    #[test]
    fn mixture_weights_respected() {
        let d = Dist::Mixture(vec![
            (0.9, Dist::Uniform { lo: 0.0, hi: 0.0 }),
            (0.1, Dist::Uniform { lo: 1.0, hi: 1.0 }),
        ]);
        let xs = draw(&d, 20000, 7);
        let frac_ones = xs.iter().filter(|&&x| x == 1.0).count() as f64 / xs.len() as f64;
        assert!((frac_ones - 0.1).abs() < 0.01, "{frac_ones}");
    }

    #[test]
    fn mixture_creates_bimodality() {
        let d = Dist::Mixture(vec![
            (
                0.5,
                Dist::Normal {
                    mean: 0.0,
                    std: 0.5,
                },
            ),
            (
                0.5,
                Dist::Normal {
                    mean: 10.0,
                    std: 0.5,
                },
            ),
        ]);
        let xs = draw(&d, 2000, 8);
        let near_zero = xs.iter().filter(|&&x| x.abs() < 2.0).count();
        let near_ten = xs.iter().filter(|&&x| (x - 10.0).abs() < 2.0).count();
        assert!(near_zero > 800 && near_ten > 800);
    }

    #[test]
    fn deterministic_given_seed() {
        let d = Dist::LogNormal {
            mu: 1.0,
            sigma: 0.3,
        };
        assert_eq!(draw(&d, 100, 9), draw(&d, 100, 9));
        assert_ne!(draw(&d, 100, 9), draw(&d, 100, 10));
    }

    #[test]
    fn helpers_center_on_one() {
        let xs = draw(&Dist::rel_normal(0.01), 10000, 11);
        assert!((mean(&xs) - 1.0).abs() < 0.01);
        let xs = draw(&Dist::rel_lognormal(0.05), 10000, 12);
        assert!((mean(&xs) - 1.0).abs() < 0.02);
    }
}

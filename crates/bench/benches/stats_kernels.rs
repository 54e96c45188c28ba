//! Benches for the statistics kernels, including the exact-vs-approximate
//! median CI ablation and the bootstrap flavors.

use std::hint::black_box;

use bench::{skewed_data, Suite};
use varstats::ci::bootstrap::{Bootstrap, BootstrapKind};
use varstats::ci::nonparametric::{median_ci_approx, median_ci_exact};
use varstats::ci::parametric::mean_ci_t;
use varstats::descriptive::Moments;
use varstats::histogram::{BinRule, Histogram};
use varstats::normality::{shapiro_wilk, NormalScores};
use varstats::quantile::{quantile, QuantileMethod};

fn median_ci(s: &mut Suite) {
    // Iterations per sample for exact, approx and mean_t at each n.
    for (n, exact, approx, mean_t) in [
        (50usize, 50, 2000, 500),
        (500, 10, 200, 200),
        (5000, 1, 10, 50),
    ] {
        let data = skewed_data(n, 1);
        s.bench(&format!("median_ci/exact/{n}"), exact, || {
            median_ci_exact(black_box(&data), 0.95).unwrap()
        });
        s.bench(&format!("median_ci/approx/{n}"), approx, || {
            median_ci_approx(black_box(&data), 0.95).unwrap()
        });
        s.bench(&format!("median_ci/mean_t/{n}"), mean_t, || {
            mean_ci_t(black_box(&data), 0.95).unwrap()
        });
    }
}

fn bootstrap(s: &mut Suite) {
    let data = skewed_data(100, 2);
    let median_stat = |xs: &[f64]| varstats::quantile::median(xs).expect("non-empty replicate");
    let boot = Bootstrap::new(500, 3);
    for kind in [
        BootstrapKind::Percentile,
        BootstrapKind::Basic,
        BootstrapKind::Bca,
    ] {
        s.bench(&format!("bootstrap/{kind:?}"), 2, || {
            boot.ci(black_box(&data), median_stat, 0.95, kind).unwrap()
        });
    }
}

fn normality(s: &mut Suite) {
    // Iterations per sample without and with the table at each n.
    for (n, plain, table) in [(50usize, 500, 2000), (500, 50, 200), (2000, 10, 50)] {
        let data = skewed_data(n, 4);
        s.bench(&format!("normality/shapiro_wilk/{n}"), plain, || {
            shapiro_wilk(black_box(&data)).unwrap()
        });
        // A census's per-set cost: the per-n table built once, reused.
        let scores = NormalScores::new(n);
        s.bench(&format!("normality/shapiro_wilk_table/{n}"), table, || {
            scores.shapiro_wilk(black_box(&data)).unwrap()
        });
    }
}

fn descriptive(s: &mut Suite) {
    let data = skewed_data(10_000, 5);
    s.bench("descriptive/quantile_p99_10k", 10, || {
        quantile(black_box(&data), 0.99, QuantileMethod::Linear).unwrap()
    });
    s.bench("descriptive/moments_10k", 10, || {
        black_box(&data).iter().copied().collect::<Moments>()
    });
    s.bench("descriptive/histogram_fd_10k", 5, || {
        Histogram::new(black_box(&data), BinRule::FreedmanDiaconis).unwrap()
    });
}

fn changepoint(s: &mut Suite) {
    let mut series = skewed_data(500, 6);
    for v in series.iter_mut().skip(250) {
        *v *= 1.1;
    }
    s.bench("changepoint/pelt_500", 10, || {
        varstats::changepoint::pelt_mean(black_box(&series), None).unwrap()
    });
}

fn main() {
    let mut s = Suite::new("stats_kernels");
    median_ci(&mut s);
    bootstrap(&mut s);
    normality(&mut s);
    descriptive(&mut s);
    changepoint(&mut s);
    s.finish();
}

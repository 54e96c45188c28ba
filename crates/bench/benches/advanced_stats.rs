//! Benches for the second-wave statistics kernels: the Hodges–Lehmann
//! estimator, stationarity, QQ analytics, and the speedup-ratio
//! bootstrap.

use std::hint::black_box;

use bench::{skewed_data, Suite};
use varstats::comparison::speedup_ci;
use varstats::qq::normal_qq;
use varstats::robust::hodges_lehmann;
use varstats::stationarity::adf_test;

fn robust(s: &mut Suite) {
    let data = skewed_data(200, 2);
    s.bench("robust/hodges_lehmann_200", 2, || {
        hodges_lehmann(black_box(&data)).unwrap()
    });
}

fn series_diagnostics(s: &mut Suite) {
    let series = skewed_data(500, 6);
    s.bench("series_diagnostics/adf_lags4_500", 50, || {
        adf_test(black_box(&series), 4).unwrap()
    });
    s.bench("series_diagnostics/normal_qq_500", 50, || {
        normal_qq(black_box(&series)).unwrap()
    });
}

fn speedup(s: &mut Suite) {
    let a = skewed_data(100, 7);
    let b = skewed_data(100, 8);
    s.bench("speedup_ci/bootstrap_1000_resamples", 1, || {
        speedup_ci(black_box(&a), black_box(&b), 0.95, 1000, 9).unwrap()
    });
}

fn main() {
    let mut s = Suite::new("advanced_stats");
    robust(&mut s);
    series_diagnostics(&mut s);
    speedup(&mut s);
    s.finish();
}

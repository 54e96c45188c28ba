//! Special functions used throughout the library.
//!
//! Everything here is implemented from first principles (Lanczos ln-gamma,
//! rational erfc, Lentz continued fractions for the incomplete beta/gamma
//! functions, Acklam's inverse normal with a Halley refinement step). There
//! is no canonical statistics crate to lean on, and the accuracy of every
//! p-value in this library bottoms out in these routines, so each one is
//! validated against published reference values in the tests below.

use crate::error::{invalid, Result, StatsError};

/// Natural logarithm of `sqrt(2 * pi)`.
const LN_SQRT_2PI: f64 = 0.918_938_533_204_672_8;

/// Lanczos coefficients (g = 7, n = 9).
const LANCZOS: [f64; 9] = [
    0.999_999_999_999_809_9,
    676.520_368_121_885_1,
    -1_259.139_216_722_402_8,
    771.323_428_777_653_1,
    -176.615_029_162_140_6,
    12.507_343_278_686_905,
    -0.138_571_095_265_720_12,
    9.984_369_578_019_572e-6,
    1.505_632_735_149_311_6e-7,
];

/// Returns `ln(Gamma(x))` for `x > 0` (and via reflection for `x < 0`,
/// excluding the poles at non-positive integers).
///
/// Accuracy is about 15 significant digits over the tested range.
///
/// # Examples
///
/// ```
/// let lg = varstats::special::ln_gamma(5.0);
/// assert!((lg - 24.0f64.ln()).abs() < 1e-12);
/// ```
pub fn ln_gamma(x: f64) -> f64 {
    if x < 0.5 {
        // Reflection formula: Gamma(x) Gamma(1-x) = pi / sin(pi x).
        let pi = std::f64::consts::PI;
        (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x)
    } else {
        let x = x - 1.0;
        let mut acc = LANCZOS[0];
        for (i, c) in LANCZOS.iter().enumerate().skip(1) {
            acc += c / (x + i as f64);
        }
        let t = x + 7.5;
        LN_SQRT_2PI + (x + 0.5) * t.ln() - t + acc.ln()
    }
}

/// Returns the complementary error function `erfc(x)`.
///
/// Uses the Chebyshev-fitted rational approximation with fractional error
/// below `1.2e-7` everywhere (Numerical Recipes style), which is ample for
/// p-values.
fn erfc(x: f64) -> f64 {
    let z = x.abs();
    let t = 1.0 / (1.0 + 0.5 * z);
    let ans = t
        * (-z * z - 1.265_512_23
            + t * (1.000_023_68
                + t * (0.374_091_96
                    + t * (0.096_784_18
                        + t * (-0.186_288_06
                            + t * (0.278_868_07
                                + t * (-1.135_203_98
                                    + t * (1.488_515_87
                                        + t * (-0.822_152_23 + t * 0.170_872_77)))))))))
            .exp();
    if x >= 0.0 {
        ans
    } else {
        2.0 - ans
    }
}

/// Cumulative distribution function of the standard normal distribution.
///
/// # Examples
///
/// ```
/// assert!((varstats::special::normal_cdf(0.0) - 0.5).abs() < 1e-7);
/// assert!((varstats::special::normal_cdf(1.96) - 0.975).abs() < 1e-4);
/// ```
pub fn normal_cdf(x: f64) -> f64 {
    0.5 * erfc(-x / std::f64::consts::SQRT_2)
}

// Acklam's coefficients for the inverse normal CDF.
const ACKLAM_A: [f64; 6] = [
    -3.969_683_028_665_376e1,
    2.209_460_984_245_205e2,
    -2.759_285_104_469_687e2,
    1.383_577_518_672_69e2,
    -3.066_479_806_614_716e1,
    2.506_628_277_459_239,
];
const ACKLAM_B: [f64; 5] = [
    -5.447_609_879_822_406e1,
    1.615_858_368_580_409e2,
    -1.556_989_798_598_866e2,
    6.680_131_188_771_972e1,
    -1.328_068_155_288_572e1,
];
const ACKLAM_C: [f64; 6] = [
    -7.784_894_002_430_293e-3,
    -3.223_964_580_411_365e-1,
    -2.400_758_277_161_838,
    -2.549_732_539_343_734,
    4.374_664_141_464_968,
    2.938_163_982_698_783,
];
const ACKLAM_D: [f64; 4] = [
    7.784_695_709_041_462e-3,
    3.224_671_290_700_398e-1,
    2.445_134_137_142_996,
    3.754_408_661_907_416,
];

/// Quantile (inverse CDF) of the standard normal distribution.
///
/// Uses Acklam's rational approximation followed by one Halley refinement
/// step; the result is accurate to roughly the accuracy of [`normal_cdf`].
///
/// # Errors
///
/// Returns [`StatsError::InvalidParameter`] unless `0 < p < 1`.
///
/// # Examples
///
/// ```
/// let z = varstats::special::normal_quantile(0.975).unwrap();
/// assert!((z - 1.959_964).abs() < 1e-4);
/// ```
pub fn normal_quantile(p: f64) -> Result<f64> {
    if !(p > 0.0 && p < 1.0) {
        return Err(invalid("p", format!("must be in (0, 1), got {p}")));
    }
    let p_low = 0.024_25;
    let p_high = 1.0 - p_low;
    let x = if p < p_low {
        let q = (-2.0 * p.ln()).sqrt();
        (((((ACKLAM_C[0] * q + ACKLAM_C[1]) * q + ACKLAM_C[2]) * q + ACKLAM_C[3]) * q
            + ACKLAM_C[4])
            * q
            + ACKLAM_C[5])
            / ((((ACKLAM_D[0] * q + ACKLAM_D[1]) * q + ACKLAM_D[2]) * q + ACKLAM_D[3]) * q + 1.0)
    } else if p <= p_high {
        let q = p - 0.5;
        let r = q * q;
        (((((ACKLAM_A[0] * r + ACKLAM_A[1]) * r + ACKLAM_A[2]) * r + ACKLAM_A[3]) * r
            + ACKLAM_A[4])
            * r
            + ACKLAM_A[5])
            * q
            / (((((ACKLAM_B[0] * r + ACKLAM_B[1]) * r + ACKLAM_B[2]) * r + ACKLAM_B[3]) * r
                + ACKLAM_B[4])
                * r
                + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((ACKLAM_C[0] * q + ACKLAM_C[1]) * q + ACKLAM_C[2]) * q + ACKLAM_C[3]) * q
            + ACKLAM_C[4])
            * q
            + ACKLAM_C[5])
            / ((((ACKLAM_D[0] * q + ACKLAM_D[1]) * q + ACKLAM_D[2]) * q + ACKLAM_D[3]) * q + 1.0)
    };
    // One Halley refinement step sharpens the approximation toward the
    // accuracy of the CDF itself.
    let e = normal_cdf(x) - p;
    let u = e * (2.0 * std::f64::consts::PI).sqrt() * (x * x / 2.0).exp();
    Ok(x - u / (1.0 + x * u / 2.0))
}

const MAX_CF_ITER: usize = 300;
const CF_EPS: f64 = 1e-14;
const CF_FPMIN: f64 = 1e-300;

/// Continued-fraction kernel for the incomplete beta function
/// (modified Lentz's method).
fn beta_cf(a: f64, b: f64, x: f64) -> Result<f64> {
    let qab = a + b;
    let qap = a + 1.0;
    let qam = a - 1.0;
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < CF_FPMIN {
        d = CF_FPMIN;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..=MAX_CF_ITER {
        let m = m as f64;
        let m2 = 2.0 * m;
        let aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if d.abs() < CF_FPMIN {
            d = CF_FPMIN;
        }
        c = 1.0 + aa / c;
        if c.abs() < CF_FPMIN {
            c = CF_FPMIN;
        }
        d = 1.0 / d;
        h *= d * c;
        let aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if d.abs() < CF_FPMIN {
            d = CF_FPMIN;
        }
        c = 1.0 + aa / c;
        if c.abs() < CF_FPMIN {
            c = CF_FPMIN;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < CF_EPS {
            return Ok(h);
        }
    }
    Err(StatsError::NoConvergence { routine: "beta_cf" })
}

/// Regularized incomplete beta function `I_x(a, b)`.
///
/// # Errors
///
/// Returns an error for `a <= 0`, `b <= 0`, or `x` outside `[0, 1]`, or if
/// the continued fraction fails to converge.
///
/// # Examples
///
/// ```
/// // I_x(1, 1) is the identity on [0, 1].
/// let v = varstats::special::incomplete_beta(1.0, 1.0, 0.3).unwrap();
/// assert!((v - 0.3).abs() < 1e-12);
/// ```
pub fn incomplete_beta(a: f64, b: f64, x: f64) -> Result<f64> {
    if a <= 0.0 {
        return Err(invalid("a", format!("must be > 0, got {a}")));
    }
    if b <= 0.0 {
        return Err(invalid("b", format!("must be > 0, got {b}")));
    }
    if !(0.0..=1.0).contains(&x) {
        return Err(invalid("x", format!("must be in [0, 1], got {x}")));
    }
    if x == 0.0 {
        return Ok(0.0);
    }
    if x == 1.0 {
        return Ok(1.0);
    }
    let ln_bt = ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln();
    let bt = ln_bt.exp();
    if x < (a + 1.0) / (a + b + 2.0) {
        Ok(bt * beta_cf(a, b, x)? / a)
    } else {
        Ok(1.0 - bt * beta_cf(b, a, 1.0 - x)? / b)
    }
}

/// Regularized lower incomplete gamma function `P(a, x)`.
///
/// # Errors
///
/// Returns an error for `a <= 0` or `x < 0`, or on non-convergence.
pub fn incomplete_gamma_p(a: f64, x: f64) -> Result<f64> {
    if a <= 0.0 {
        return Err(invalid("a", format!("must be > 0, got {a}")));
    }
    if x < 0.0 {
        return Err(invalid("x", format!("must be >= 0, got {x}")));
    }
    if x == 0.0 {
        return Ok(0.0);
    }
    if x < a + 1.0 {
        // Series representation.
        let mut ap = a;
        let mut sum = 1.0 / a;
        let mut del = sum;
        for _ in 0..MAX_CF_ITER {
            ap += 1.0;
            del *= x / ap;
            sum += del;
            if del.abs() < sum.abs() * CF_EPS {
                let ln_pref = -x + a * x.ln() - ln_gamma(a);
                return Ok(sum * ln_pref.exp());
            }
        }
        Err(StatsError::NoConvergence {
            routine: "incomplete_gamma_series",
        })
    } else {
        // Continued-fraction representation of Q(a, x).
        let mut b = x + 1.0 - a;
        let mut c = 1.0 / CF_FPMIN;
        let mut d = 1.0 / b;
        let mut h = d;
        for i in 1..=MAX_CF_ITER {
            let an = -(i as f64) * (i as f64 - a);
            b += 2.0;
            d = an * d + b;
            if d.abs() < CF_FPMIN {
                d = CF_FPMIN;
            }
            c = b + an / c;
            if c.abs() < CF_FPMIN {
                c = CF_FPMIN;
            }
            d = 1.0 / d;
            let del = d * c;
            h *= del;
            if (del - 1.0).abs() < CF_EPS {
                let ln_pref = -x + a * x.ln() - ln_gamma(a);
                return Ok(1.0 - h * ln_pref.exp());
            }
        }
        Err(StatsError::NoConvergence {
            routine: "incomplete_gamma_cf",
        })
    }
}

/// CDF of the chi-squared distribution with `df` degrees of freedom.
///
/// # Errors
///
/// Returns an error for `df <= 0` or `x < 0`.
pub fn chi_squared_cdf(x: f64, df: f64) -> Result<f64> {
    if df <= 0.0 {
        return Err(invalid("df", format!("must be > 0, got {df}")));
    }
    if x < 0.0 {
        return Err(invalid("x", format!("must be >= 0, got {x}")));
    }
    incomplete_gamma_p(df / 2.0, x / 2.0)
}

/// CDF of Student's t distribution with `df` degrees of freedom.
///
/// # Errors
///
/// Returns an error for `df <= 0`.
///
/// # Examples
///
/// ```
/// // With large df the t distribution approaches the normal.
/// let p = varstats::special::student_t_cdf(1.96, 1.0e6).unwrap();
/// assert!((p - 0.975).abs() < 1e-3);
/// ```
pub fn student_t_cdf(t: f64, df: f64) -> Result<f64> {
    if df <= 0.0 {
        return Err(invalid("df", format!("must be > 0, got {df}")));
    }
    let x = df / (df + t * t);
    let p = 0.5 * incomplete_beta(df / 2.0, 0.5, x)?;
    Ok(if t >= 0.0 { 1.0 - p } else { p })
}

/// Density of Student's t distribution with `df` degrees of freedom.
fn student_t_pdf(t: f64, df: f64) -> f64 {
    let ln_c =
        ln_gamma((df + 1.0) / 2.0) - ln_gamma(df / 2.0) - 0.5 * (df * std::f64::consts::PI).ln();
    (ln_c - (df + 1.0) / 2.0 * (1.0 + t * t / df).ln()).exp()
}

/// Quantile (inverse CDF) of Student's t distribution.
///
/// Starts from the normal quantile and polishes with safeguarded Newton
/// iterations; falls back to bisection when Newton leaves the bracket.
///
/// # Errors
///
/// Returns an error unless `0 < p < 1` and `df > 0`, or on non-convergence.
///
/// # Examples
///
/// ```
/// // t_{0.975} with 10 degrees of freedom is about 2.228.
/// let t = varstats::special::student_t_quantile(0.975, 10.0).unwrap();
/// assert!((t - 2.228_14).abs() < 1e-3);
/// ```
pub fn student_t_quantile(p: f64, df: f64) -> Result<f64> {
    if !(p > 0.0 && p < 1.0) {
        return Err(invalid("p", format!("must be in (0, 1), got {p}")));
    }
    if df <= 0.0 {
        return Err(invalid("df", format!("must be > 0, got {df}")));
    }
    if (p - 0.5).abs() < 1e-15 {
        return Ok(0.0);
    }
    // Bracket the root. The t quantile is farther in the tail than the
    // normal quantile, so widen multiplicatively from the normal start.
    let z = normal_quantile(p)?;
    let (mut lo, mut hi);
    if z >= 0.0 {
        lo = 0.0;
        hi = z.max(1.0);
        while student_t_cdf(hi, df)? < p {
            hi *= 2.0;
            if hi > 1e12 {
                return Err(StatsError::NoConvergence {
                    routine: "student_t_quantile_bracket",
                });
            }
        }
    } else {
        hi = 0.0;
        lo = z.min(-1.0);
        while student_t_cdf(lo, df)? > p {
            lo *= 2.0;
            if lo < -1e12 {
                return Err(StatsError::NoConvergence {
                    routine: "student_t_quantile_bracket",
                });
            }
        }
    }
    let mut x = z;
    if x < lo || x > hi {
        x = (lo + hi) / 2.0;
    }
    for _ in 0..200 {
        let f = student_t_cdf(x, df)? - p;
        if f.abs() < 1e-14 {
            return Ok(x);
        }
        if f > 0.0 {
            hi = x;
        } else {
            lo = x;
        }
        let deriv = student_t_pdf(x, df);
        let newton = x - f / deriv;
        x = if deriv > 0.0 && newton > lo && newton < hi {
            newton
        } else {
            (lo + hi) / 2.0
        };
        if hi - lo < 1e-13 * (1.0 + x.abs()) {
            return Ok(x);
        }
    }
    Ok(x)
}

/// CDF of the binomial distribution: `P(X <= k)` for `X ~ Binomial(n, p)`.
///
/// Computed exactly through the regularized incomplete beta function.
///
/// # Errors
///
/// Returns an error unless `0 <= p <= 1`.
pub(crate) fn binomial_cdf(k: i64, n: u64, p: f64) -> Result<f64> {
    if !(0.0..=1.0).contains(&p) {
        return Err(invalid("p", format!("must be in [0, 1], got {p}")));
    }
    if k < 0 {
        return Ok(0.0);
    }
    let k = k as u64;
    if k >= n {
        return Ok(1.0);
    }
    if p == 0.0 {
        return Ok(1.0);
    }
    if p == 1.0 {
        return Ok(0.0);
    }
    // P(X <= k) = I_{1-p}(n - k, k + 1).
    incomplete_beta((n - k) as f64, (k + 1) as f64, 1.0 - p)
}

/// CDF of the F distribution with `d1` and `d2` degrees of freedom.
///
/// Computed through the regularized incomplete beta function:
/// `F(x) = I_{d1 x / (d1 x + d2)}(d1/2, d2/2)`.
///
/// # Errors
///
/// Returns an error for non-positive degrees of freedom or `x < 0`.
///
/// # Examples
///
/// ```
/// // The 95th percentile of F(2, 20) is about 3.49.
/// let p = varstats::special::f_cdf(3.4928, 2.0, 20.0).unwrap();
/// assert!((p - 0.95).abs() < 1e-3);
/// ```
pub fn f_cdf(x: f64, d1: f64, d2: f64) -> Result<f64> {
    if d1 <= 0.0 || d2 <= 0.0 {
        return Err(invalid("df", format!("must be > 0, got ({d1}, {d2})")));
    }
    if x < 0.0 {
        return Err(invalid("x", format!("must be >= 0, got {x}")));
    }
    if x == 0.0 {
        return Ok(0.0);
    }
    incomplete_beta(d1 / 2.0, d2 / 2.0, d1 * x / (d1 * x + d2))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "expected {b}, got {a} (tol {tol})");
    }

    #[test]
    fn ln_gamma_matches_factorials() {
        // Gamma(n) = (n-1)! for integer n.
        let mut fact = 1.0f64;
        for n in 1..15u32 {
            close(ln_gamma(n as f64), fact.ln(), 1e-10);
            fact *= n as f64;
        }
    }

    #[test]
    fn ln_gamma_half_integer() {
        // Gamma(1/2) = sqrt(pi).
        close(ln_gamma(0.5), std::f64::consts::PI.sqrt().ln(), 1e-12);
        // Gamma(3/2) = sqrt(pi)/2.
        close(
            ln_gamma(1.5),
            (std::f64::consts::PI.sqrt() / 2.0).ln(),
            1e-12,
        );
    }

    #[test]
    fn erfc_reference_values() {
        close(erfc(0.0), 1.0, 1e-7);
        close(erfc(1.0), 1.0 - 0.842_700_79, 2e-7);
        close(erfc(2.0), 1.0 - 0.995_322_27, 2e-7);
        close(erfc(-1.0), 1.0 + 0.842_700_79, 2e-7);
    }

    #[test]
    fn normal_cdf_reference_values() {
        close(normal_cdf(0.0), 0.5, 1e-7);
        close(normal_cdf(1.0), 0.841_344_75, 1e-6);
        close(normal_cdf(-1.0), 0.158_655_25, 1e-6);
        close(normal_cdf(1.959_963_985), 0.975, 1e-6);
        close(normal_cdf(2.575_829_3), 0.995, 1e-6);
    }

    #[test]
    fn normal_quantile_round_trips() {
        for &p in &[0.001, 0.01, 0.025, 0.1, 0.5, 0.9, 0.975, 0.99, 0.999] {
            let x = normal_quantile(p).unwrap();
            close(normal_cdf(x), p, 1e-7);
        }
    }

    #[test]
    fn normal_quantile_reference_values() {
        close(normal_quantile(0.975).unwrap(), 1.959_964, 1e-5);
        close(normal_quantile(0.995).unwrap(), 2.575_829, 1e-5);
        close(normal_quantile(0.5).unwrap(), 0.0, 1e-7);
        close(normal_quantile(0.025).unwrap(), -1.959_964, 1e-5);
    }

    #[test]
    fn normal_quantile_rejects_bad_p() {
        assert!(normal_quantile(0.0).is_err());
        assert!(normal_quantile(1.0).is_err());
        assert!(normal_quantile(-0.5).is_err());
        assert!(normal_quantile(f64::NAN).is_err());
    }

    #[test]
    fn incomplete_beta_identity_parameters() {
        for &x in &[0.0, 0.1, 0.5, 0.9, 1.0] {
            close(incomplete_beta(1.0, 1.0, x).unwrap(), x, 1e-12);
        }
    }

    #[test]
    fn incomplete_beta_symmetry() {
        // I_x(a, b) = 1 - I_{1-x}(b, a).
        let v1 = incomplete_beta(2.5, 3.5, 0.3).unwrap();
        let v2 = incomplete_beta(3.5, 2.5, 0.7).unwrap();
        close(v1, 1.0 - v2, 1e-12);
    }

    #[test]
    fn incomplete_beta_known_value() {
        // I_{0.5}(2, 2) = 0.5 by symmetry; I_{0.25}(2, 2) = 5/32 + ... =
        // 3x^2 - 2x^3 evaluated at 0.25 = 0.15625.
        close(incomplete_beta(2.0, 2.0, 0.25).unwrap(), 0.156_25, 1e-12);
        close(incomplete_beta(2.0, 2.0, 0.5).unwrap(), 0.5, 1e-12);
    }

    #[test]
    fn incomplete_gamma_known_values() {
        // P(1, x) = 1 - exp(-x).
        for &x in &[0.1, 1.0, 3.0, 10.0] {
            close(incomplete_gamma_p(1.0, x).unwrap(), 1.0 - (-x).exp(), 1e-12);
        }
        close(incomplete_gamma_p(0.5, 0.0).unwrap(), 0.0, 1e-15);
    }

    #[test]
    fn chi_squared_reference_values() {
        // Chi-squared with 2 df: CDF(x) = 1 - exp(-x/2).
        close(chi_squared_cdf(5.991_46, 2.0).unwrap(), 0.95, 1e-5);
        // Chi-squared 95th percentile with 1 df is 3.8415.
        close(chi_squared_cdf(3.841_46, 1.0).unwrap(), 0.95, 1e-5);
    }

    #[test]
    fn student_t_cdf_reference_values() {
        // t = 2.228, df = 10 gives 0.975.
        close(student_t_cdf(2.228_139, 10.0).unwrap(), 0.975, 1e-5);
        // Symmetry.
        let p = student_t_cdf(-1.3, 7.0).unwrap();
        let q = student_t_cdf(1.3, 7.0).unwrap();
        close(p + q, 1.0, 1e-12);
        close(student_t_cdf(0.0, 3.0).unwrap(), 0.5, 1e-12);
    }

    #[test]
    fn student_t_quantile_reference_values() {
        close(student_t_quantile(0.975, 10.0).unwrap(), 2.228_139, 1e-4);
        close(student_t_quantile(0.975, 1.0).unwrap(), 12.706_2, 1e-2);
        close(student_t_quantile(0.95, 5.0).unwrap(), 2.015_048, 1e-4);
        close(student_t_quantile(0.025, 10.0).unwrap(), -2.228_139, 1e-4);
    }

    #[test]
    fn student_t_quantile_round_trips() {
        for &df in &[1.0, 2.0, 5.0, 30.0, 200.0] {
            for &p in &[0.01, 0.1, 0.5, 0.9, 0.99] {
                let t = student_t_quantile(p, df).unwrap();
                close(student_t_cdf(t, df).unwrap(), p, 1e-8);
            }
        }
    }

    #[test]
    fn binomial_cdf_small_exact() {
        // Binomial(4, 0.5): P(X <= 1) = (1 + 4) / 16.
        close(binomial_cdf(1, 4, 0.5).unwrap(), 5.0 / 16.0, 1e-12);
        close(binomial_cdf(4, 4, 0.5).unwrap(), 1.0, 1e-15);
        close(binomial_cdf(-1, 4, 0.5).unwrap(), 0.0, 1e-15);
        // P(X <= 2) for Binomial(5, 0.3) = 0.83692.
        close(binomial_cdf(2, 5, 0.3).unwrap(), 0.836_92, 1e-5);
    }

    #[test]
    fn binomial_cdf_degenerate_p() {
        close(binomial_cdf(3, 10, 0.0).unwrap(), 1.0, 1e-15);
        close(binomial_cdf(3, 10, 1.0).unwrap(), 0.0, 1e-15);
        close(binomial_cdf(10, 10, 1.0).unwrap(), 1.0, 1e-15);
    }

    #[test]
    fn f_cdf_reference_values() {
        // F(1, n) = t(n)^2: P(F <= t^2) = P(|T| <= t).
        let t = 2.228_139; // t_{0.975, 10}
        let p = f_cdf(t * t, 1.0, 10.0).unwrap();
        close(p, 0.95, 1e-4);
        // Median of F(d, d) is 1 for equal dfs.
        close(f_cdf(1.0, 7.0, 7.0).unwrap(), 0.5, 1e-10);
        close(f_cdf(0.0, 3.0, 3.0).unwrap(), 0.0, 1e-15);
        assert!(f_cdf(-1.0, 2.0, 2.0).is_err());
        assert!(f_cdf(1.0, 0.0, 2.0).is_err());
    }
}

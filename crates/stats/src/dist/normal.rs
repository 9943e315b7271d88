//! Normal distribution, with the error-function machinery behind its CDF.

use super::Distribution;
use crate::CdfFn;

const SQRT_2: f64 = std::f64::consts::SQRT_2;

/// The normal distribution `N(mean, std²)`.
///
/// The reported [`CdfFn::domain`] is `mean ± 8·std`; the probability mass
/// outside it (≈ 1.2e-15) is below f64 noise, so the untruncated analytic
/// `cdf`/`pdf` are used directly. Wrap in [`super::Truncated`] to restrict to
/// a data domain exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mean: f64,
    std: f64,
}

impl Normal {
    /// Creates `N(mean, std²)`.
    ///
    /// # Panics
    /// Panics if `std <= 0` or parameters are non-finite.
    pub fn new(mean: f64, std: f64) -> Self {
        assert!(mean.is_finite() && std.is_finite() && std > 0.0, "bad N({mean}, {std}²)");
        Self { mean, std }
    }

    /// The mean parameter.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// The standard deviation parameter.
    pub fn std(&self) -> f64 {
        self.std
    }
}

impl CdfFn for Normal {
    fn cdf(&self, x: f64) -> f64 {
        std_norm_cdf((x - self.mean) / self.std)
    }

    fn domain(&self) -> (f64, f64) {
        (self.mean - 8.0 * self.std, self.mean + 8.0 * self.std)
    }

    fn inv_cdf(&self, u: f64) -> f64 {
        self.mean + self.std * inv_norm_cdf(u)
    }
}

impl Distribution for Normal {
    fn pdf(&self, x: f64) -> f64 {
        let z = (x - self.mean) / self.std;
        (-0.5 * z * z).exp() / (self.std * (2.0 * std::f64::consts::PI).sqrt())
    }

    fn name(&self) -> &'static str {
        "normal"
    }
}

/// The standard normal CDF `Φ(z)`.
pub fn std_norm_cdf(z: f64) -> f64 {
    0.5 * (1.0 + erf(z / SQRT_2))
}

/// The error function, accurate to ~1e-15 (Cody-style rational minimax
/// approximations in three ranges, as in W. J. Cody, *Rational Chebyshev
/// approximation for the error function*, Math. Comp. 1969).
#[allow(
    clippy::excessive_precision,
    reason = "Cody's published coefficients, kept digit for digit"
)]
fn erf(x: f64) -> f64 {
    let ax = x.abs();
    if ax < 0.46875 {
        // erf(x) = x * P(x²)/Q(x²)
        const P: [f64; 5] = [
            3.209377589138469472562e3,
            3.774852376853020208137e2,
            1.138641541510501556495e2,
            3.161123743870565596947e0,
            1.857777061846031526730e-1,
        ];
        const Q: [f64; 4] = [
            2.844236833439170622273e3,
            1.282616526077372275645e3,
            2.440246379344441733056e2,
            2.360129095234412093499e1,
        ];
        let t = x * x;
        let num = ((((P[4] * t + P[3]) * t + P[2]) * t + P[1]) * t + P[0]) * x;
        let den = (((t + Q[3]) * t + Q[2]) * t + Q[1]) * t + Q[0];
        num / den
    } else if ax < 4.0 {
        // erfc(x) = exp(-x²) * P(x)/Q(x)
        const P: [f64; 9] = [
            1.23033935479799725272e3,
            2.05107837782607146532e3,
            1.71204761263407058314e3,
            8.81952221241769090411e2,
            2.98635138197400131132e2,
            6.61191906371416294775e1,
            8.88314979438837594118e0,
            5.64188496988670089180e-1,
            2.15311535474403846343e-8,
        ];
        const Q: [f64; 8] = [
            1.23033935480374942043e3,
            3.43936767414372163696e3,
            4.36261909014324715820e3,
            3.29079923573345962678e3,
            1.62138957456669018874e3,
            5.37181101862009857509e2,
            1.17693950891312499305e2,
            1.57449261107098347253e1,
        ];
        let num = (((((((P[8] * ax + P[7]) * ax + P[6]) * ax + P[5]) * ax + P[4]) * ax + P[3])
            * ax
            + P[2])
            * ax
            + P[1])
            * ax
            + P[0];
        let den = (((((((ax + Q[7]) * ax + Q[6]) * ax + Q[5]) * ax + Q[4]) * ax + Q[3]) * ax
            + Q[2])
            * ax
            + Q[1])
            * ax
            + Q[0];
        let erfc = (-x * x).exp() * num / den;
        let e = 1.0 - erfc;
        if x >= 0.0 {
            e
        } else {
            -e
        }
    } else {
        // erfc(x) = exp(-x²)/(x·√π) * [1 + P(1/x²)/Q(1/x²)/x²-ish]; for
        // |x| >= 4, erf is 1 to within 1.5e-8 of f64::MAX precision margin —
        // use the asymptotic tail form.
        const P: [f64; 6] = [
            -6.58749161529837803157e-4,
            -1.60837851487422766278e-2,
            -1.25781726111229246204e-1,
            -3.60344899949804439429e-1,
            -3.05326634961232344035e-1,
            -1.63153871373020978498e-2,
        ];
        const Q: [f64; 5] = [
            2.33520497626869185443e-3,
            6.05183413124413191178e-2,
            5.27905102951428412248e-1,
            1.87295284992346047209e0,
            2.56852019228982242072e0,
        ];
        let t = 1.0 / (x * x);
        let num = ((((P[5] * t + P[4]) * t + P[3]) * t + P[2]) * t + P[1]) * t + P[0];
        let den = ((((t + Q[4]) * t + Q[3]) * t + Q[2]) * t + Q[1]) * t + Q[0];
        let frac = t * num / den;
        let erfc = ((-x * x).exp() / ax) * (1.0 / std::f64::consts::PI.sqrt() + frac);
        let e = 1.0 - erfc;
        if x >= 0.0 {
            e
        } else {
            -e
        }
    }
}

/// The standard normal quantile function `Φ⁻¹(u)`.
///
/// Acklam's rational approximation (relative error < 1.15e-9) followed by one
/// Halley refinement step against the high-accuracy [`std_norm_cdf`], giving
/// near machine precision over `(0, 1)`.
#[allow(
    clippy::excessive_precision,
    reason = "Acklam's published coefficients, kept digit for digit"
)]
pub fn inv_norm_cdf(u: f64) -> f64 {
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383577518672690e+02,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const U_LOW: f64 = 0.02425;

    if u <= 0.0 {
        return f64::NEG_INFINITY;
    }
    if u >= 1.0 {
        return f64::INFINITY;
    }
    let x = if u < U_LOW {
        let q = (-2.0 * u.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if u <= 1.0 - U_LOW {
        let q = u - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - u).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };

    // One Halley step: x' = x - f/f' · (1 + f·f''/(2 f'²))⁻¹-ish, where
    // f = Φ(x) - u, f' = φ(x), f''/f' = -x.
    let e = std_norm_cdf(x) - u;
    let phi = (-0.5 * x * x).exp() / (2.0 * std::f64::consts::PI).sqrt();
    if phi > 0.0 {
        let d = e / phi;
        x - d / (1.0 + 0.5 * x * d)
    } else {
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::test_util::check_distribution;

    #[test]
    fn erf_reference_values() {
        // Reference values from Abramowitz & Stegun tables.
        let cases = [
            (0.0, 0.0),
            (0.5, 0.5204998778130465),
            (1.0, 0.8427007929497149),
            (1.5, 0.9661051464753107),
            (2.0, 0.9953222650189527),
            (3.0, 0.9999779095030014),
            (-1.0, -0.8427007929497149),
        ];
        for (x, want) in cases {
            let got = erf(x);
            assert!((got - want).abs() < 1e-12, "erf({x}) = {got}, want {want}");
        }
    }

    #[test]
    fn inv_norm_cdf_round_trips() {
        for &u in &[1e-9, 1e-6, 0.001, 0.025, 0.2, 0.5, 0.8, 0.975, 0.999, 1.0 - 1e-9] {
            let z = inv_norm_cdf(u);
            let back = std_norm_cdf(z);
            assert!((back - u).abs() < 1e-12, "u={u} z={z} back={back}");
        }
    }

    #[test]
    fn inv_norm_cdf_known_quantiles() {
        assert!((inv_norm_cdf(0.5)).abs() < 1e-12);
        assert!((inv_norm_cdf(0.975) - 1.959963984540054).abs() < 1e-9);
        assert!((inv_norm_cdf(0.025) + 1.959963984540054).abs() < 1e-9);
    }

    #[test]
    fn analytic_invariants() {
        check_distribution(&Normal::new(0.0, 1.0), 1e-6);
        check_distribution(&Normal::new(50.0, 7.5), 1e-6);
    }

    #[test]
    fn cdf_symmetry() {
        let n = Normal::new(10.0, 2.0);
        for d in [0.5, 1.0, 2.5, 4.0] {
            let s = n.cdf(10.0 - d) + n.cdf(10.0 + d);
            assert!((s - 1.0).abs() < 1e-12, "asymmetric at ±{d}: {s}");
        }
    }
}

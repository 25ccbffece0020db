//! SPH smoothing kernels (3D): cubic spline (M4) and Wendland C6.
//!
//! SPH-EXA uses sinc-family kernels; the cubic spline and Wendland C6 span
//! the same qualitative range (compact support `2h`, normalized, monotone)
//! and are the standard choices in the codes the paper cites (\[5\]–\[8\]).
//!
//! Each evaluation exists in two forms that agree bit for bit per value:
//! the scalar [`Kernel`] methods, which `crate::reference` calls once per
//! visited pair, and the `RowKernel` batch evaluators the production sweeps
//! run over a whole CSR row.

use serde::{Deserialize, Serialize};

/// Kernel selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Kernel {
    /// Monaghan & Lattanzio M4 cubic spline.
    CubicSpline,
    /// Wendland C6 — higher order, resistant to pairing instability.
    WendlandC6,
    /// Sinc^5 kernel — the harmonic (sinc-family) kernel SPH-EXA actually
    /// ships (Cabezón et al.), exponent n = 5.
    Sinc5,
}

/// Normalization of the sinc^5 kernel: `1 / (4 pi I)` with
/// `I = integral_0^2 q^2 sinc(pi q / 2)^5 dq` (computed numerically).
const SINC5_SIGMA: f64 = 0.617_012_654_222_673_5;

#[inline]
fn sinc(x: f64) -> f64 {
    if x.abs() < 1e-8 {
        1.0 - x * x / 6.0
    } else {
        x.sin() / x
    }
}

/// d/dx sinc(x) = (x cos x - sin x) / x^2.
#[inline]
fn dsinc(x: f64) -> f64 {
    if x.abs() < 1e-6 {
        -x / 3.0
    } else {
        (x * x.cos() - x.sin()) / (x * x)
    }
}

/// `(sinc(x), dsinc(x))` sharing one `sin` + one `cos` call. Each output
/// reproduces its standalone function bit-for-bit: the branch thresholds
/// and every arithmetic expression are kept verbatim (`sin`/`cos` are
/// correctly rounded for a given input, so hoisting the calls cannot
/// change the result) — only the redundant second `sin` is eliminated.
#[inline]
fn sinc_dsinc(x: f64) -> (f64, f64) {
    let ax = x.abs();
    if ax < 1e-8 {
        // Both series branches: |x| < 1e-8 implies |x| < 1e-6.
        return (1.0 - x * x / 6.0, -x / 3.0);
    }
    let sin_x = x.sin();
    let s = sin_x / x;
    let ds = if ax < 1e-6 {
        -x / 3.0
    } else {
        (x * x.cos() - sin_x) / (x * x)
    };
    (s, ds)
}

impl Kernel {
    /// Kernel value `W(r, h)`. Support radius is `2h`: zero at and beyond.
    pub fn w(self, r: f64, h: f64) -> f64 {
        debug_assert!(h > 0.0);
        let q = r / h;
        match self {
            Kernel::CubicSpline => {
                // sigma_3D = 1/(pi h^3), support q in [0, 2].
                let sigma = 1.0 / (std::f64::consts::PI * h * h * h);
                if q < 1.0 {
                    sigma * (1.0 - 1.5 * q * q + 0.75 * q * q * q)
                } else if q < 2.0 {
                    let t = 2.0 - q;
                    sigma * 0.25 * t * t * t
                } else {
                    0.0
                }
            }
            Kernel::WendlandC6 => {
                // 3D Wendland C6 on support q in [0, 2]:
                // W = sigma (1-q/2)^8 (4q^3 + 6.25q^2 + 4q + 1),
                // sigma = 1365/(512 pi h^3).
                if q >= 2.0 {
                    return 0.0;
                }
                let sigma = 1365.0 / (512.0 * std::f64::consts::PI * h * h * h);
                let om = 1.0 - 0.5 * q;
                let om2 = om * om;
                let om8 = om2 * om2 * om2 * om2;
                sigma * om8 * (4.0 * q * q * q + 6.25 * q * q + 4.0 * q + 1.0)
            }
            Kernel::Sinc5 => {
                if q >= 2.0 {
                    return 0.0;
                }
                let s = sinc(std::f64::consts::FRAC_PI_2 * q);
                SINC5_SIGMA / (h * h * h) * s.powi(5)
            }
        }
    }

    /// Radial derivative `dW/dr` (non-positive everywhere).
    pub fn dw_dr(self, r: f64, h: f64) -> f64 {
        debug_assert!(h > 0.0);
        let q = r / h;
        match self {
            Kernel::CubicSpline => {
                let sigma = 1.0 / (std::f64::consts::PI * h * h * h);
                let dq = 1.0 / h;
                if q < 1.0 {
                    sigma * (-3.0 * q + 2.25 * q * q) * dq
                } else if q < 2.0 {
                    let t = 2.0 - q;
                    sigma * (-0.75 * t * t) * dq
                } else {
                    0.0
                }
            }
            Kernel::WendlandC6 => {
                if q >= 2.0 {
                    return 0.0;
                }
                let sigma = 1365.0 / (512.0 * std::f64::consts::PI * h * h * h);
                let om = 1.0 - 0.5 * q;
                let om2 = om * om;
                let om7 = om2 * om2 * om2 * om;
                let poly = 4.0 * q * q * q + 6.25 * q * q + 4.0 * q + 1.0;
                let dpoly = 12.0 * q * q + 12.5 * q + 4.0;
                let om8 = om7 * om;
                sigma * (om8 * dpoly - 4.0 * om7 * poly) / h
            }
            Kernel::Sinc5 => {
                if q >= 2.0 {
                    return 0.0;
                }
                let a = std::f64::consts::FRAC_PI_2;
                let s = sinc(a * q);
                // dW/dr = sigma/h^3 * 5 s^4 * dsinc(a q) * a / h
                SINC5_SIGMA / (h * h * h) * 5.0 * s.powi(4) * dsinc(a * q) * a / h
            }
        }
    }

    /// Derivative with respect to `h` at fixed `r` — the grad-h correction
    /// term. Obtained from the scaling identity `W = h^-3 f(r/h)`:
    /// `dW/dh = -(3 W + r dW/dr) / h`.
    pub fn dw_dh(self, r: f64, h: f64) -> f64 {
        -(3.0 * self.w(r, h) + r * self.dw_dr(r, h)) / h
    }

    /// Fused `(W, dW/dr)` — bit-identical to the separate calls, sharing
    /// the normalization, the `q` polynomials' common subterms, and (for
    /// [`Kernel::Sinc5`]) a single `sin` evaluation.
    ///
    /// Bit-identity discipline: every expression below is copied verbatim
    /// from [`Kernel::w`] / [`Kernel::dw_dr`], including Wendland's two
    /// *different* `om^8` association orders (`w` builds it from `om2`
    /// squarings, `dw_dr` as `om7 * om`) — only values that are exactly
    /// shared (same expression, same inputs) are hoisted.
    pub fn w_and_dw_dr(self, r: f64, h: f64) -> (f64, f64) {
        debug_assert!(h > 0.0);
        let q = r / h;
        match self {
            Kernel::CubicSpline => {
                let sigma = 1.0 / (std::f64::consts::PI * h * h * h);
                let dq = 1.0 / h;
                if q < 1.0 {
                    (
                        sigma * (1.0 - 1.5 * q * q + 0.75 * q * q * q),
                        sigma * (-3.0 * q + 2.25 * q * q) * dq,
                    )
                } else if q < 2.0 {
                    let t = 2.0 - q;
                    (sigma * 0.25 * t * t * t, sigma * (-0.75 * t * t) * dq)
                } else {
                    (0.0, 0.0)
                }
            }
            Kernel::WendlandC6 => {
                if q >= 2.0 {
                    return (0.0, 0.0);
                }
                let sigma = 1365.0 / (512.0 * std::f64::consts::PI * h * h * h);
                let om = 1.0 - 0.5 * q;
                let om2 = om * om;
                let poly = 4.0 * q * q * q + 6.25 * q * q + 4.0 * q + 1.0;
                // `w`'s association order for om^8:
                let om8_w = om2 * om2 * om2 * om2;
                // `dw_dr`'s: om^7 then * om.
                let om7 = om2 * om2 * om2 * om;
                let dpoly = 12.0 * q * q + 12.5 * q + 4.0;
                let om8_d = om7 * om;
                (
                    sigma * om8_w * poly,
                    sigma * (om8_d * dpoly - 4.0 * om7 * poly) / h,
                )
            }
            Kernel::Sinc5 => {
                if q >= 2.0 {
                    return (0.0, 0.0);
                }
                let a = std::f64::consts::FRAC_PI_2;
                let (s, ds) = sinc_dsinc(a * q);
                (
                    SINC5_SIGMA / (h * h * h) * s.powi(5),
                    SINC5_SIGMA / (h * h * h) * 5.0 * s.powi(4) * ds * a / h,
                )
            }
        }
    }

    /// Fused `(W, dW/dh)` — bit-identical to the separate calls; see
    /// [`Kernel::w_and_dw_dr`] for the sharing discipline. The density sweep
    /// evaluates both per pair; fusing halves the kernel work (and for
    /// [`Kernel::Sinc5`] cuts four trig calls to two).
    pub fn w_and_dw_dh(self, r: f64, h: f64) -> (f64, f64) {
        let (w, dw_dr) = self.w_and_dw_dr(r, h);
        (w, -(3.0 * w + r * dw_dr) / h)
    }

    /// Support radius: the distance beyond which the kernel is exactly zero.
    pub fn support(self, h: f64) -> f64 {
        2.0 * h
    }
}

/// A kernel with its per-`h` normalization hoisted, evaluating whole
/// distance buffers at once — the sweeps' row-level evaluator.
///
/// Every scalar kernel call recomputes `sigma = f(h)` and `1/h` (two
/// divisions); within one CSR row all evaluations against particle `i`
/// share the same `h`, so those divisions are paid once per row here. The
/// hoisted values are computed by the *verbatim* expressions the scalar
/// functions use (same inputs, same operations → same bits), and the
/// per-lane bodies below are written in branch-free select form: both
/// polynomial branches are evaluated and the scalar functions' strict
/// comparisons pick one. Selection never alters a value, and the remaining
/// per-lane division `q = r/h` is IEEE-correctly rounded whether issued
/// scalar or SIMD — so every lane reproduces the scalar call bit-for-bit
/// while the loop auto-vectorizes (no branches, no calls) for the
/// polynomial kernels. `Sinc5` keeps its `libm` calls per lane (exact, not
/// vectorizable).
pub(crate) struct RowKernel {
    kernel: Kernel,
    h: f64,
    /// Hoisted normalization (`sigma`), per the scalar expression.
    sigma: f64,
    /// Hoisted `1/h` (the cubic spline's `dq` factor).
    dq: f64,
}

/// The per-`h` normalization `(sigma, 1/h)` of `kernel`, each by the
/// verbatim expression the scalar functions evaluate per call. Hoisted once
/// per row by [`RowKernel::new`], and once per particle into the momentum
/// sweep's neighbour records for [`dw_dr_over_r_varh_into`].
pub(crate) fn kernel_norm(kernel: Kernel, h: f64) -> (f64, f64) {
    debug_assert!(h > 0.0);
    let sigma = match kernel {
        Kernel::CubicSpline => 1.0 / (std::f64::consts::PI * h * h * h),
        Kernel::WendlandC6 => 1365.0 / (512.0 * std::f64::consts::PI * h * h * h),
        Kernel::Sinc5 => SINC5_SIGMA / (h * h * h),
    };
    (sigma, 1.0 / h)
}

impl RowKernel {
    pub fn new(kernel: Kernel, h: f64) -> Self {
        let (sigma, dq) = kernel_norm(kernel, h);
        RowKernel {
            kernel,
            h,
            sigma,
            dq,
        }
    }

    /// `out[k] = W(r[k], h)` — bit-identical to [`Kernel::w`] per lane.
    /// Dispatched through an AVX2 clone when available (`cornerstone::simd`).
    pub fn w_into(&self, r: &[f64], out: &mut Vec<f64>) {
        #[cfg(target_arch = "x86_64")]
        if cornerstone::simd::avx2() {
            // SAFETY: AVX2 support was just checked; the clone has no other
            // precondition (portable body under different codegen).
            return unsafe { self.w_into_avx2(r, out) };
        }
        self.w_into_impl(r, out)
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn w_into_avx2(&self, r: &[f64], out: &mut Vec<f64>) {
        self.w_into_impl(r, out)
    }

    #[inline(always)]
    fn w_into_impl(&self, r: &[f64], out: &mut Vec<f64>) {
        let n = r.len();
        out.clear();
        out.resize(n, 0.0);
        match self.kernel {
            Kernel::CubicSpline => {
                for k in 0..n {
                    let q = r[k] / self.h;
                    let w1 = self.sigma * (1.0 - 1.5 * q * q + 0.75 * q * q * q);
                    let t = 2.0 - q;
                    let w2 = self.sigma * 0.25 * t * t * t;
                    out[k] = if q < 1.0 {
                        w1
                    } else if q < 2.0 {
                        w2
                    } else {
                        0.0
                    };
                }
            }
            Kernel::WendlandC6 => {
                for k in 0..n {
                    let q = r[k] / self.h;
                    let om = 1.0 - 0.5 * q;
                    let om2 = om * om;
                    let om8 = om2 * om2 * om2 * om2;
                    let w = self.sigma * om8 * (4.0 * q * q * q + 6.25 * q * q + 4.0 * q + 1.0);
                    out[k] = if q < 2.0 { w } else { 0.0 };
                }
            }
            Kernel::Sinc5 => {
                let a = std::f64::consts::FRAC_PI_2;
                for k in 0..n {
                    let q = r[k] / self.h;
                    out[k] = if q < 2.0 {
                        let s = sinc(a * q);
                        self.sigma * s.powi(5)
                    } else {
                        0.0
                    };
                }
            }
        }
    }

    /// `(w[k], dwdh[k]) = (W, dW/dh)(r[k], h)` — bit-identical to
    /// [`Kernel::w_and_dw_dh`] per lane.
    /// Dispatched through an AVX2 clone when available (`cornerstone::simd`).
    pub fn w_and_dw_dh_into(&self, r: &[f64], w_out: &mut Vec<f64>, dwdh_out: &mut Vec<f64>) {
        // The bodies take the outputs as slices: two slice parameters are
        // known not to overlap each other or `r`, two `Vec`s behind
        // references are not, and with two output streams to tell apart the
        // optimiser left this loop — alone among the evaluators — scalar.
        w_out.resize(r.len(), 0.0);
        dwdh_out.resize(r.len(), 0.0);
        let (w_out, dwdh_out) = (&mut w_out[..], &mut dwdh_out[..]);
        #[cfg(target_arch = "x86_64")]
        if cornerstone::simd::avx2() {
            // SAFETY: AVX2 support was just checked; the clone has no other
            // precondition (portable body under different codegen).
            return unsafe { self.w_and_dw_dh_into_avx2(r, w_out, dwdh_out) };
        }
        self.w_and_dw_dh_into_impl(r, w_out, dwdh_out)
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn w_and_dw_dh_into_avx2(&self, r: &[f64], w_out: &mut [f64], dwdh_out: &mut [f64]) {
        self.w_and_dw_dh_into_impl(r, w_out, dwdh_out)
    }

    #[inline(always)]
    fn w_and_dw_dh_into_impl(&self, r: &[f64], w_out: &mut [f64], dwdh_out: &mut [f64]) {
        let n = r.len();
        let (w_out, dwdh_out) = (&mut w_out[..n], &mut dwdh_out[..n]);
        match self.kernel {
            Kernel::CubicSpline => {
                for k in 0..n {
                    let q = r[k] / self.h;
                    let w1 = self.sigma * (1.0 - 1.5 * q * q + 0.75 * q * q * q);
                    let d1 = self.sigma * (-3.0 * q + 2.25 * q * q) * self.dq;
                    let t = 2.0 - q;
                    let w2 = self.sigma * 0.25 * t * t * t;
                    let d2 = self.sigma * (-0.75 * t * t) * self.dq;
                    let (w, dw) = if q < 1.0 {
                        (w1, d1)
                    } else if q < 2.0 {
                        (w2, d2)
                    } else {
                        (0.0, 0.0)
                    };
                    w_out[k] = w;
                    dwdh_out[k] = -(3.0 * w + r[k] * dw) / self.h;
                }
            }
            Kernel::WendlandC6 => {
                for k in 0..n {
                    let q = r[k] / self.h;
                    let om = 1.0 - 0.5 * q;
                    let om2 = om * om;
                    let poly = 4.0 * q * q * q + 6.25 * q * q + 4.0 * q + 1.0;
                    let om8_w = om2 * om2 * om2 * om2;
                    let om7 = om2 * om2 * om2 * om;
                    let dpoly = 12.0 * q * q + 12.5 * q + 4.0;
                    let om8_d = om7 * om;
                    let wv = self.sigma * om8_w * poly;
                    let dv = self.sigma * (om8_d * dpoly - 4.0 * om7 * poly) / self.h;
                    let (w, dw) = if q < 2.0 { (wv, dv) } else { (0.0, 0.0) };
                    w_out[k] = w;
                    dwdh_out[k] = -(3.0 * w + r[k] * dw) / self.h;
                }
            }
            Kernel::Sinc5 => {
                let a = std::f64::consts::FRAC_PI_2;
                for k in 0..n {
                    let q = r[k] / self.h;
                    let (w, dw) = if q < 2.0 {
                        let (s, ds) = sinc_dsinc(a * q);
                        (
                            self.sigma * s.powi(5),
                            self.sigma * 5.0 * s.powi(4) * ds * a / self.h,
                        )
                    } else {
                        (0.0, 0.0)
                    };
                    w_out[k] = w;
                    dwdh_out[k] = -(3.0 * w + r[k] * dw) / self.h;
                }
            }
        }
    }

    /// `out[k] = dW/dr(r[k], h) / r[k]` — the momentum equation's gradient
    /// prefactor. Bit-identical to `Kernel::dw_dr(r, h) / r` per lane. A
    /// lane with `r[k] == 0` (the self pair) comes out NaN or infinite; the
    /// momentum sweep masks it.
    /// Dispatched through an AVX2 clone when available (`cornerstone::simd`).
    pub fn dw_dr_over_r_into(&self, r: &[f64], out: &mut Vec<f64>) {
        #[cfg(target_arch = "x86_64")]
        if cornerstone::simd::avx2() {
            // SAFETY: AVX2 support was just checked; the clone has no other
            // precondition (portable body under different codegen).
            return unsafe { self.dw_dr_over_r_into_avx2(r, out) };
        }
        self.dw_dr_over_r_into_impl(r, out)
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn dw_dr_over_r_into_avx2(&self, r: &[f64], out: &mut Vec<f64>) {
        self.dw_dr_over_r_into_impl(r, out)
    }

    #[inline(always)]
    fn dw_dr_over_r_into_impl(&self, r: &[f64], out: &mut Vec<f64>) {
        let n = r.len();
        out.clear();
        out.resize(n, 0.0);
        match self.kernel {
            Kernel::CubicSpline => {
                for k in 0..n {
                    let q = r[k] / self.h;
                    let d1 = self.sigma * (-3.0 * q + 2.25 * q * q) * self.dq;
                    let t = 2.0 - q;
                    let d2 = self.sigma * (-0.75 * t * t) * self.dq;
                    let dw = if q < 1.0 {
                        d1
                    } else if q < 2.0 {
                        d2
                    } else {
                        0.0
                    };
                    out[k] = dw / r[k];
                }
            }
            Kernel::WendlandC6 => {
                for k in 0..n {
                    let q = r[k] / self.h;
                    let om = 1.0 - 0.5 * q;
                    let om2 = om * om;
                    let om7 = om2 * om2 * om2 * om;
                    let poly = 4.0 * q * q * q + 6.25 * q * q + 4.0 * q + 1.0;
                    let dpoly = 12.0 * q * q + 12.5 * q + 4.0;
                    let om8 = om7 * om;
                    let dv = self.sigma * (om8 * dpoly - 4.0 * om7 * poly) / self.h;
                    let dw = if q < 2.0 { dv } else { 0.0 };
                    out[k] = dw / r[k];
                }
            }
            Kernel::Sinc5 => {
                let a = std::f64::consts::FRAC_PI_2;
                for k in 0..n {
                    let q = r[k] / self.h;
                    let dw = if q < 2.0 {
                        let s = sinc(a * q);
                        self.sigma * 5.0 * s.powi(4) * dsinc(a * q) * a / self.h
                    } else {
                        0.0
                    };
                    out[k] = dw / r[k];
                }
            }
        }
    }
}

/// `out[k] = dW/dr(r[k], h[k]) / r[k]` with a *per-lane* smoothing length —
/// the momentum equation's neighbor-side gradient. The per-lane
/// normalization arrives precomputed (`sigma[k]`, `dq[k]` =
/// [`kernel_norm`]`(kernel, h[k])`, the scalar functions' own expressions on
/// the same `h`, hence the same bits), and the select-form body keeps the
/// loop branch-free so the remaining divisions issue as SIMD divides —
/// which are IEEE-correctly rounded per lane, hence still bit-identical to
/// `Kernel::dw_dr(r, h) / r`. A lane with `r[k] == 0` (the self pair) comes
/// out NaN or infinite; the momentum sweep masks it.
/// Dispatched through an AVX2 clone when available (`cornerstone::simd`).
pub(crate) fn dw_dr_over_r_varh_into(
    kernel: Kernel,
    r: &[f64],
    h: &[f64],
    sigma: &[f64],
    dq: &[f64],
    out: &mut Vec<f64>,
) {
    #[cfg(target_arch = "x86_64")]
    if cornerstone::simd::avx2() {
        // SAFETY: AVX2 support was just checked; the clone has no other
        // precondition (portable body under different codegen).
        return unsafe { dw_dr_over_r_varh_into_avx2(kernel, r, h, sigma, dq, out) };
    }
    dw_dr_over_r_varh_into_impl(kernel, r, h, sigma, dq, out)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn dw_dr_over_r_varh_into_avx2(
    kernel: Kernel,
    r: &[f64],
    h: &[f64],
    sigma: &[f64],
    dq: &[f64],
    out: &mut Vec<f64>,
) {
    dw_dr_over_r_varh_into_impl(kernel, r, h, sigma, dq, out)
}

#[inline(always)]
fn dw_dr_over_r_varh_into_impl(
    kernel: Kernel,
    r: &[f64],
    h: &[f64],
    sigma: &[f64],
    dq: &[f64],
    out: &mut Vec<f64>,
) {
    let n = r.len();
    let (h, sigma, dq) = (&h[..n], &sigma[..n], &dq[..n]);
    out.clear();
    out.resize(n, 0.0);
    match kernel {
        Kernel::CubicSpline => {
            for k in 0..n {
                let q = r[k] / h[k];
                let d1 = sigma[k] * (-3.0 * q + 2.25 * q * q) * dq[k];
                let t = 2.0 - q;
                let d2 = sigma[k] * (-0.75 * t * t) * dq[k];
                let dw = if q < 1.0 {
                    d1
                } else if q < 2.0 {
                    d2
                } else {
                    0.0
                };
                out[k] = dw / r[k];
            }
        }
        Kernel::WendlandC6 => {
            for k in 0..n {
                let hk = h[k];
                let q = r[k] / hk;
                let om = 1.0 - 0.5 * q;
                let om2 = om * om;
                let om7 = om2 * om2 * om2 * om;
                let poly = 4.0 * q * q * q + 6.25 * q * q + 4.0 * q + 1.0;
                let dpoly = 12.0 * q * q + 12.5 * q + 4.0;
                let om8 = om7 * om;
                let dv = sigma[k] * (om8 * dpoly - 4.0 * om7 * poly) / hk;
                let dw = if q < 2.0 { dv } else { 0.0 };
                out[k] = dw / r[k];
            }
        }
        Kernel::Sinc5 => {
            let a = std::f64::consts::FRAC_PI_2;
            for k in 0..n {
                let hk = h[k];
                let q = r[k] / hk;
                let dw = if q < 2.0 {
                    let s = sinc(a * q);
                    sigma[k] * 5.0 * s.powi(4) * dsinc(a * q) * a / hk
                } else {
                    0.0
                };
                out[k] = dw / r[k];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KERNELS: [Kernel; 3] = [Kernel::CubicSpline, Kernel::WendlandC6, Kernel::Sinc5];

    /// Numeric radial integral of `4 pi r^2 W(r)` — must be ~1.
    fn norm(k: Kernel, h: f64) -> f64 {
        let n = 20_000;
        let rmax = k.support(h);
        let dr = rmax / n as f64;
        (0..n)
            .map(|i| {
                let r = (i as f64 + 0.5) * dr;
                4.0 * std::f64::consts::PI * r * r * k.w(r, h) * dr
            })
            .sum()
    }

    #[test]
    fn kernels_are_normalized() {
        for k in KERNELS {
            for h in [0.5, 1.0, 2.3] {
                let m = norm(k, h);
                assert!((m - 1.0).abs() < 1e-3, "{k:?} h={h}: integral {m}");
            }
        }
    }

    #[test]
    fn compact_support_at_2h() {
        for k in KERNELS {
            assert_eq!(k.w(2.0, 1.0), 0.0);
            assert_eq!(k.w(2.5, 1.0), 0.0);
            assert_eq!(k.dw_dr(2.0, 1.0), 0.0);
            assert!(k.w(1.999, 1.0) >= 0.0);
        }
    }

    #[test]
    fn kernel_maximum_at_center() {
        for k in KERNELS {
            let w0 = k.w(0.0, 1.0);
            assert!(w0 > 0.0);
            assert!(k.w(0.5, 1.0) < w0);
        }
    }

    #[test]
    fn derivative_matches_finite_difference() {
        for k in KERNELS {
            for r in [0.1, 0.5, 0.9, 1.1, 1.7] {
                let h = 1.0;
                let eps = 1e-6;
                let fd = (k.w(r + eps, h) - k.w(r - eps, h)) / (2.0 * eps);
                let an = k.dw_dr(r, h);
                assert!((fd - an).abs() < 1e-5, "{k:?} r={r}: fd {fd} vs {an}");
            }
        }
    }

    #[test]
    fn dh_derivative_matches_finite_difference() {
        for k in KERNELS {
            for (r, h) in [(0.3, 1.0), (1.2, 1.0), (0.7, 0.8)] {
                let eps = 1e-6;
                let fd = (k.w(r, h + eps) - k.w(r, h - eps)) / (2.0 * eps);
                let an = k.dw_dh(r, h);
                assert!((fd - an).abs() < 1e-4, "{k:?} r={r} h={h}: fd {fd} vs {an}");
            }
        }
    }

    #[test]
    fn fused_evaluations_are_bit_identical_to_separate_calls() {
        // The sweeps depend on this: fusing W with its derivatives must not
        // change a single bit vs the separate scalar calls.
        for k in KERNELS {
            for h in [0.05, 0.5, 1.0, 2.3] {
                for i in 0..=400 {
                    let r = 2.2 * h * i as f64 / 400.0; // crosses both branches + support edge
                    let (w, dw_dr) = k.w_and_dw_dr(r, h);
                    assert_eq!(w.to_bits(), k.w(r, h).to_bits(), "{k:?} w at r={r} h={h}");
                    assert_eq!(
                        dw_dr.to_bits(),
                        k.dw_dr(r, h).to_bits(),
                        "{k:?} dw_dr at r={r} h={h}"
                    );
                    let (w2, dw_dh) = k.w_and_dw_dh(r, h);
                    assert_eq!(w2.to_bits(), w.to_bits());
                    assert_eq!(
                        dw_dh.to_bits(),
                        k.dw_dh(r, h).to_bits(),
                        "{k:?} dw_dh at r={r} h={h}"
                    );
                }
            }
        }
    }

    #[test]
    fn batch_evaluators_are_bit_identical_to_scalar_calls() {
        // The sweeps' row evaluators: hoisted normalization and select-form
        // bodies must reproduce the scalar calls bit-for-bit.
        for k in KERNELS {
            for h in [0.05, 0.5, 1.0, 2.3] {
                let r: Vec<f64> = (1..=401).map(|i| 2.2 * h * i as f64 / 401.0).collect();
                let hs: Vec<f64> = (0..r.len())
                    .map(|i| h * (0.9 + 0.2 * (i % 7) as f64))
                    .collect();
                let rk = RowKernel::new(k, h);
                let (mut w, mut dwdh, mut dwr) = (Vec::new(), Vec::new(), Vec::new());
                rk.w_into(&r, &mut w);
                let mut w2 = Vec::new();
                rk.w_and_dw_dh_into(&r, &mut w2, &mut dwdh);
                rk.dw_dr_over_r_into(&r, &mut dwr);
                let mut dwr_var = Vec::new();
                let (sigma, dq): (Vec<f64>, Vec<f64>) =
                    hs.iter().map(|&h| kernel_norm(k, h)).unzip();
                dw_dr_over_r_varh_into(k, &r, &hs, &sigma, &dq, &mut dwr_var);
                for (i, &ri) in r.iter().enumerate() {
                    assert_eq!(w[i].to_bits(), k.w(ri, h).to_bits(), "{k:?} w at r={ri}");
                    assert_eq!(w2[i].to_bits(), w[i].to_bits());
                    assert_eq!(
                        dwdh[i].to_bits(),
                        k.dw_dh(ri, h).to_bits(),
                        "{k:?} dw_dh at r={ri}"
                    );
                    assert_eq!(
                        dwr[i].to_bits(),
                        (k.dw_dr(ri, h) / ri).to_bits(),
                        "{k:?} dw_dr/r at r={ri}"
                    );
                    assert_eq!(
                        dwr_var[i].to_bits(),
                        (k.dw_dr(ri, hs[i]) / ri).to_bits(),
                        "{k:?} varh dw_dr/r at r={ri} h={}",
                        hs[i]
                    );
                }
            }
        }
    }

    // Properties: 256 generated cases each, failing case index printed.
    #[test]
    fn prop_kernel_nonnegative_and_derivative_nonpositive() {
        rng::cases(256, |g| {
            let r = g.f64(0.0..3.0);
            let h = g.f64(0.1..3.0);
            for k in KERNELS {
                assert!(k.w(r, h) >= 0.0);
                assert!(k.dw_dr(r, h) <= 1e-12);
            }
        });
    }

    #[test]
    fn prop_kernel_scales_as_h_cubed() {
        rng::cases(256, |g| {
            let r = g.f64(0.0..1.9);
            let s = g.f64(0.5..2.0);
            // W(s r, s h) = W(r, h) / s^3
            for k in KERNELS {
                let lhs = k.w(r * s, s);
                let rhs = k.w(r, 1.0) / (s * s * s);
                assert!((lhs - rhs).abs() < 1e-9 * rhs.abs().max(1.0));
            }
        });
    }
}

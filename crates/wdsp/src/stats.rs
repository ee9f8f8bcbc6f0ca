//! Descriptive and circular statistics.
//!
//! Phase data lives on the circle, so the WiMi pipeline needs circular
//! moments (mean direction, circular variance) alongside ordinary linear
//! statistics; both live here.

/// Arithmetic mean. Returns `NaN` for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Population variance (divides by `n`). Returns `NaN` for an empty slice.
pub fn variance(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64
}

/// Sample variance (divides by `n − 1`). Returns `NaN` for slices with
/// fewer than two elements.
pub fn sample_variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return f64::NAN;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64
}

/// Population standard deviation.
pub fn std_dev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// Root mean square.
pub fn rms(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    (xs.iter().map(|x| x * x).sum::<f64>() / xs.len() as f64).sqrt()
}

/// Median (interpolated for even lengths). Returns `NaN` for an empty
/// slice. `O(n log n)`.
pub fn median(xs: &[f64]) -> f64 {
    median_in_place(&mut xs.to_vec())
}

/// Median computed through a caller-owned scratch buffer — identical to
/// [`median`] but with no allocation once `buf` has grown to the series
/// length.
pub fn median_in(xs: &[f64], buf: &mut Vec<f64>) -> f64 {
    buf.clear();
    buf.extend_from_slice(xs);
    median_in_place(buf)
}

/// [`median`] of a buffer the caller no longer needs in its original
/// order: sorts `xs` in place. Returns `NaN` for an empty slice.
// wlint: allow(panic-reach) — n/2 and n/2-1 are in bounds: the slice is non-empty and the n%2 branch guards the even case
pub fn median_in_place(xs: &mut [f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Median absolute deviation (unscaled).
pub fn mad(xs: &[f64]) -> f64 {
    mad_in(xs, &mut Vec::new())
}

/// [`mad`] through a caller-owned scratch buffer, with one sort.
///
/// Over the sorted series `s`, `s_i − med` rounds monotonically, so the
/// absolute deviations form two sorted runs that meet at the median: the
/// negative ones descending, the rest ascending. Merging the two runs up
/// to the middle yields the same order statistics, so the same bits, as
/// sorting the deviations. Input with a non-finite value (where `∞ − ∞`
/// can make a deviation NaN) takes the sort of the deviations instead.
// wlint: hot
// wlint: allow(panic-reach) — the merge cursors stay inside buf: lo < split ≤ hi, and it takes at most n/2 + 1 < n + 1 steps
fn mad_in(xs: &[f64], buf: &mut Vec<f64>) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let med = median_in(xs, buf);
    if !xs.iter().all(|x| x.is_finite()) {
        buf.clear();
        buf.extend(xs.iter().map(|x| (x - med).abs()));
        return median_in_place(buf);
    }
    let n = buf.len();
    let split = buf.partition_point(|&x| x - med < 0.0);
    // `lo` walks the negative run down from the median, `hi` the rest up.
    let (mut lo, mut hi) = (split, split);
    let mut next = || {
        let below = (lo > 0).then(|| (buf[lo - 1] - med).abs());
        let above = (hi < n).then(|| (buf[hi] - med).abs());
        match (below, above) {
            (Some(b), Some(a)) if b <= a => {
                lo -= 1;
                b
            }
            (_, Some(a)) => {
                hi += 1;
                a
            }
            (Some(b), None) => {
                lo -= 1;
                b
            }
            (None, None) => f64::NAN,
        }
    };
    let mut lower = next();
    for _ in 0..(n - 1) / 2 {
        lower = next();
    }
    if n % 2 == 1 {
        lower
    } else {
        (lower + next()) / 2.0
    }
}

/// Robust standard-deviation estimate from the MAD of `xs`:
/// `σ̂ = MAD / 0.6745` (consistent for Gaussian data). This is the robust
/// median estimator the paper's wavelet denoiser uses for its noise
/// threshold (citing Xu et al. 1994).
pub fn robust_std(xs: &[f64]) -> f64 {
    mad(xs) / 0.6745
}

/// [`robust_std`] through a caller-owned scratch buffer — same bits, no
/// allocation once `buf` has grown to the series length.
pub fn robust_std_in(xs: &[f64], buf: &mut Vec<f64>) -> f64 {
    mad_in(xs, buf) / 0.6745
}

/// Linear Pearson correlation of two equal-length series.
///
/// Returns 0 when either series is constant (or so nearly constant that
/// the product of squared deviations underflows): a constant series
/// carries no linear association, and the denominator would otherwise
/// divide by zero and return NaN.
///
/// # Panics
///
/// Panics if lengths differ or are below 2.
pub fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "series must have equal length");
    assert!(xs.len() >= 2, "correlation needs at least two points");
    let mx = mean(xs);
    let my = mean(ys);
    let mut num = 0.0;
    let mut dx2 = 0.0;
    let mut dy2 = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        num += (x - mx) * (y - my);
        dx2 += (x - mx) * (x - mx);
        dy2 += (y - my) * (y - my);
    }
    if dx2 * dy2 <= 0.0 {
        return 0.0;
    }
    num / (dx2 * dy2).sqrt()
}

/// Wraps an angle to `(−π, π]`.
pub fn wrap_to_pi(theta: f64) -> f64 {
    let tau = std::f64::consts::TAU;
    let mut t = theta % tau;
    if t > std::f64::consts::PI {
        t -= tau;
    } else if t <= -std::f64::consts::PI {
        t += tau;
    }
    t
}

/// Mean resultant length `R ∈ [0, 1]` of a set of angles: 1 for perfectly
/// aligned angles, ~0 for uniformly spread ones.
pub fn circular_resultant(angles: &[f64]) -> f64 {
    if angles.is_empty() {
        return f64::NAN;
    }
    let (s, c) = angles
        .iter()
        .fold((0.0, 0.0), |(s, c), &a| (s + a.sin(), c + a.cos()));
    (s * s + c * c).sqrt() / angles.len() as f64
}

/// Circular mean direction in `(−π, π]`.
pub fn circular_mean(angles: &[f64]) -> f64 {
    if angles.is_empty() {
        return f64::NAN;
    }
    let (s, c) = angles
        .iter()
        .fold((0.0, 0.0), |(s, c), &a| (s + a.sin(), c + a.cos()));
    s.atan2(c)
}

/// Circular variance `1 − R ∈ [0, 1]`.
pub fn circular_variance(angles: &[f64]) -> f64 {
    1.0 - circular_resultant(angles)
}

/// Circular standard deviation `√(−2·ln R)` (radians). Returns `NaN` for
/// an empty slice.
///
/// The resultant is clamped to `[1e-300, 1.0]`: float rounding can push
/// `R` infinitesimally above 1 for perfectly aligned angles, which would
/// make `−2·ln R` negative and the square root NaN.
pub fn circular_std(angles: &[f64]) -> f64 {
    if angles.is_empty() {
        return f64::NAN;
    }
    let r = circular_resultant(angles).clamp(1e-300, 1.0);
    (-2.0 * r.ln()).sqrt()
}

/// Angular spread in degrees: the circular std dev expressed in degrees,
/// the unit the paper quotes ("around 18 degrees", Fig. 12).
pub fn angular_spread_deg(angles: &[f64]) -> f64 {
    circular_std(angles).to_degrees()
}

/// Robust circular mean: computes the circular mean, drops the
/// `trim_fraction` of samples most deviant from it (impulse-noise hits),
/// and recomputes on the survivors.
///
/// # Panics
///
/// Panics if `trim_fraction` is not within `[0, 0.5]`.
pub fn trimmed_circular_mean(angles: &[f64], trim_fraction: f64) -> f64 {
    assert!(
        (0.0..=0.5).contains(&trim_fraction),
        "trim fraction must be within [0, 0.5]"
    );
    if angles.is_empty() {
        return f64::NAN;
    }
    let first = circular_mean(angles);
    let n_drop = ((angles.len() as f64) * trim_fraction).floor() as usize;
    if n_drop == 0 || angles.len() - n_drop < 2 {
        return first;
    }
    let mut dev: Vec<(f64, f64)> = angles
        .iter()
        .map(|&a| (wrap_to_pi(a - first).abs(), a))
        .collect();
    dev.sort_by(|x, y| x.0.total_cmp(&y.0));
    let kept: Vec<f64> = dev[..angles.len() - n_drop]
        .iter()
        .map(|&(_, a)| a)
        .collect();
    circular_mean(&kept)
}

/// Variance of phase readings computed the paper's way (Eq. 7): linear
/// variance of the angle series after referencing each angle to the
/// circular mean (so wrap-around does not inflate it).
pub fn phase_variance(angles: &[f64]) -> f64 {
    if angles.is_empty() {
        return f64::NAN;
    }
    let m = circular_mean(angles);
    let centered: Vec<f64> = angles.iter().map(|&a| wrap_to_pi(a - m)).collect();
    centered.iter().map(|d| d * d).sum::<f64>() / centered.len() as f64
}

/// One angle of a [`phase_summary`] series: its sine and cosine and its
/// wrapped deviation from the series' circular mean.
#[derive(Debug, Clone, Copy)]
struct AngleSample {
    sin: f64,
    cos: f64,
    dev: f64,
}

/// Caller-owned scratch for [`phase_summary`]: one [`AngleSample`] per
/// angle, grown once and reused across calls.
#[derive(Debug, Clone, Default)]
pub struct PhaseSummaryScratch {
    samples: Vec<AngleSample>,
}

/// Computes [`trimmed_circular_mean`] and [`phase_variance`] of one angle
/// series in a single pass over the shared circular mean, through a
/// caller-owned scratch.
///
/// Each angle's `sin`/`cos` and its wrapped deviation from the mean are
/// evaluated once and carried through the stable deviation sort into the
/// trimmed sum, returning exactly the bits the two separate calls would:
/// every sum runs in the same order over the same values.
///
/// # Panics
///
/// Panics if `trim_fraction` is not within `[0, 0.5]`.
// wlint: hot
pub fn phase_summary(
    angles: &[f64],
    trim_fraction: f64,
    scratch: &mut PhaseSummaryScratch,
) -> (f64, f64) {
    assert!(
        (0.0..=0.5).contains(&trim_fraction),
        "trim fraction must be within [0, 0.5]"
    );
    if angles.is_empty() {
        return (f64::NAN, f64::NAN);
    }
    let samples = &mut scratch.samples;
    samples.clear();
    samples.reserve(angles.len());
    let (mut s, mut c) = (0.0, 0.0);
    for &a in angles {
        let (sin, cos) = (a.sin(), a.cos());
        s += sin;
        c += cos;
        samples.push(AngleSample { sin, cos, dev: 0.0 });
    }
    let first = s.atan2(c);
    for (sample, &a) in samples.iter_mut().zip(angles) {
        sample.dev = wrap_to_pi(a - first);
    }
    let variance = samples.iter().map(|x| x.dev * x.dev).sum::<f64>() / angles.len() as f64;
    let n_drop = ((angles.len() as f64) * trim_fraction).floor() as usize;
    if n_drop == 0 || angles.len() - n_drop < 2 {
        return (first, variance);
    }
    samples.sort_by(|x, y| x.dev.abs().total_cmp(&y.dev.abs()));
    let (s, c) = samples
        .iter()
        .take(angles.len() - n_drop)
        .fold((0.0, 0.0), |(s, c), x| (s + x.sin, c + x.cos));
    (s.atan2(c), variance)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    #[test]
    fn basic_moments() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert!((mean(&xs) - 2.5).abs() < 1e-12);
        assert!((variance(&xs) - 1.25).abs() < 1e-12);
        assert!((sample_variance(&xs) - 5.0 / 3.0).abs() < 1e-12);
        assert!((std_dev(&xs) - 1.25f64.sqrt()).abs() < 1e-12);
        assert!((rms(&[3.0, 4.0]) - (12.5f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn empty_inputs_yield_nan() {
        assert!(mean(&[]).is_nan());
        assert!(variance(&[]).is_nan());
        assert!(median(&[]).is_nan());
        assert!(mad(&[]).is_nan());
        assert!(circular_mean(&[]).is_nan());
    }

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn mad_is_robust_to_one_outlier() {
        let clean = [1.0, 1.1, 0.9, 1.05, 0.95];
        let dirty = [1.0, 1.1, 0.9, 1.05, 100.0];
        assert!((mad(&clean) - mad(&dirty)).abs() < 0.2);
    }

    #[test]
    fn robust_std_matches_gaussian_scale() {
        // Approximate Gaussian samples via the central limit theorem (sum
        // of 12 uniforms, variance 1): MAD/0.6745 must track the std dev.
        let mut state: u64 = 12345;
        let mut uniform = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state as f64 / u64::MAX as f64
        };
        let xs: Vec<f64> = (0..2000)
            .map(|_| (0..12).map(|_| uniform()).sum::<f64>() - 6.0)
            .collect();
        let ratio = robust_std(&xs) / std_dev(&xs);
        assert!(ratio > 0.9 && ratio < 1.1, "ratio = {ratio}");
    }

    #[test]
    fn pearson_limits() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson(&xs, &ys) - 1.0).abs() < 1e-12);
        let neg: Vec<f64> = ys.iter().map(|y| -y).collect();
        assert!((pearson(&xs, &neg) + 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn pearson_rejects_mismatched() {
        let _ = pearson(&[1.0, 2.0], &[1.0]);
    }

    #[test]
    fn pearson_constant_series_is_zero_not_nan() {
        // Regression: a constant series made the denominator zero and the
        // correlation NaN.
        assert_eq!(pearson(&[5.0, 5.0, 5.0], &[1.0, 2.0, 3.0]), 0.0);
        assert_eq!(pearson(&[1.0, 2.0, 3.0], &[-2.5, -2.5, -2.5]), 0.0);
        assert_eq!(pearson(&[0.0, 0.0], &[0.0, 0.0]), 0.0);
        // Near-constant series whose squared deviations underflow the
        // product to zero must take the guard, not divide by 0.
        let tiny_x = [0.0, 1e-200];
        let tiny_y = [0.0, 1e-200];
        assert!(pearson(&tiny_x, &tiny_y).is_finite());
    }

    #[test]
    fn circular_std_perfect_alignment_is_zero_not_nan() {
        // Regression: rounding could push the resultant above 1, making
        // −2·ln R negative and the square root NaN.
        let aligned = [1.234567; 500];
        let s = circular_std(&aligned);
        assert!(s.is_finite() && (0.0..1e-6).contains(&s), "std = {s}");
        assert!(circular_std(&[]).is_nan());
    }

    #[test]
    fn wrapping() {
        assert!((wrap_to_pi(3.0 * PI) - PI).abs() < 1e-12);
        assert!((wrap_to_pi(-3.0 * PI) - PI).abs() < 1e-12);
        assert!((wrap_to_pi(0.5) - 0.5).abs() < 1e-15);
        assert!(wrap_to_pi(PI + 0.1) < 0.0);
    }

    #[test]
    fn circular_stats_on_concentrated_angles() {
        let angles = [0.1, 0.12, 0.09, 0.11];
        assert!(circular_resultant(&angles) > 0.999);
        assert!((circular_mean(&angles) - 0.105).abs() < 0.01);
        assert!(circular_variance(&angles) < 0.001);
        assert!(angular_spread_deg(&angles) < 2.0);
    }

    #[test]
    fn circular_stats_on_uniform_angles() {
        let angles: Vec<f64> = (0..36).map(|k| k as f64 * PI / 18.0).collect();
        assert!(circular_resultant(&angles) < 1e-10);
        assert!(circular_variance(&angles) > 0.999);
    }

    #[test]
    fn circular_mean_handles_wraparound() {
        // Angles clustered around ±π: linear mean would say ~0, circular
        // mean must say ~π.
        let angles = [PI - 0.05, -PI + 0.05, PI - 0.02, -PI + 0.02];
        let m = circular_mean(&angles);
        assert!(m.abs() > 3.0, "mean = {m}");
    }

    #[test]
    fn phase_variance_is_wrap_safe() {
        let wrapped = [PI - 0.01, -PI + 0.01, PI - 0.02, -PI + 0.02];
        // Near-identical directions → tiny variance despite ±π values.
        assert!(phase_variance(&wrapped) < 1e-3);
        let spread = [0.0, 1.0, 2.0, 3.0];
        assert!(phase_variance(&spread) > 0.5);
    }

    #[test]
    fn scratch_variants_match_allocating_versions_bitwise() {
        let xs: Vec<f64> = (0..97).map(|i| ((i as f64) * 1.7).sin() * 3.0).collect();
        let mut buf = Vec::new();
        assert_eq!(median_in(&xs, &mut buf).to_bits(), median(&xs).to_bits());
        assert_eq!(
            robust_std_in(&xs, &mut buf).to_bits(),
            robust_std(&xs).to_bits()
        );
        assert_eq!(
            median_in(&xs[..96], &mut buf).to_bits(),
            median(&xs[..96]).to_bits()
        );
        assert!(median_in(&[], &mut buf).is_nan());
        assert!(robust_std_in(&[], &mut buf).is_nan());
    }

    /// Verbatim copy of the two-sort `mad`: sort the series for its
    /// median, then sort the absolute deviations for theirs.
    fn reference_mad(xs: &[f64]) -> f64 {
        if xs.is_empty() {
            return f64::NAN;
        }
        let med = median(xs);
        let dev: Vec<f64> = xs.iter().map(|x| (x - med).abs()).collect();
        median(&dev)
    }

    #[test]
    fn one_sort_mad_matches_two_sort_reference_bitwise() {
        let mut buf = Vec::new();
        let mut check = |xs: &[f64], what: &str| {
            let want = reference_mad(xs);
            assert_eq!(mad(xs).to_bits(), want.to_bits(), "mad: {what} {xs:?}");
            assert_eq!(
                robust_std_in(xs, &mut buf).to_bits(),
                (want / 0.6745).to_bits(),
                "robust_std_in: {what} {xs:?}"
            );
            assert_eq!(
                robust_std(xs).to_bits(),
                (want / 0.6745).to_bits(),
                "robust_std: {what}"
            );
        };
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut uniform = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        // Odd and even lengths, from one sample up.
        for n in 1..=41 {
            for _ in 0..20 {
                let xs: Vec<f64> = (0..n).map(|_| uniform() * 4.0 - 2.0).collect();
                check(&xs, "random");
                // Coarse values make many ties among samples and deviations.
                let ties: Vec<f64> = xs.iter().map(|x| (x * 2.0).round() / 2.0).collect();
                check(&ties, "ties");
            }
        }
        check(&[0.0, -0.0, 0.0, -0.0], "signed zeros even");
        check(&[-0.0, 0.0, -0.0], "signed zeros odd");
        check(&[-0.0, 1.0, 0.0, -1.0, 2.0], "zeros around the median");
        check(&[3.5; 7], "all equal odd");
        check(&[-2.25; 8], "all equal even");
        check(&[1e308, 1e308, -1e308, 5.0], "overflowing deviations");
        check(&[1.0, f64::INFINITY, 2.0], "+inf");
        check(&[f64::NEG_INFINITY, 1.0, 2.0, 3.0], "-inf");
        check(&[f64::INFINITY, f64::NEG_INFINITY], "both infinities");
        check(&[f64::INFINITY, f64::INFINITY, 1.0], "infinite median");
        check(&[1.0, f64::NAN, 2.0, 0.5], "NaN");
        check(&[f64::NAN], "lone NaN");
        assert!(mad(&[]).is_nan());
    }

    /// Verbatim copy of `phase_summary` before the per-angle `sin`/`cos`
    /// and deviations were carried through the sort: it wrapped every
    /// angle twice and re-evaluated `sin`/`cos` for the kept angles.
    fn reference_phase_summary(
        angles: &[f64],
        trim_fraction: f64,
        dev: &mut Vec<(f64, f64)>,
    ) -> (f64, f64) {
        if angles.is_empty() {
            return (f64::NAN, f64::NAN);
        }
        let first = circular_mean(angles);
        let variance = angles
            .iter()
            .map(|&a| {
                let d = wrap_to_pi(a - first);
                d * d
            })
            .sum::<f64>()
            / angles.len() as f64;
        let n_drop = ((angles.len() as f64) * trim_fraction).floor() as usize;
        if n_drop == 0 || angles.len() - n_drop < 2 {
            return (first, variance);
        }
        dev.clear();
        dev.extend(angles.iter().map(|&a| (wrap_to_pi(a - first).abs(), a)));
        dev.sort_by(|x, y| x.0.total_cmp(&y.0));
        let (s, c) = dev[..angles.len() - n_drop]
            .iter()
            .fold((0.0, 0.0), |(s, c), &(_, a)| (s + a.sin(), c + a.cos()));
        (s.atan2(c), variance)
    }

    #[test]
    fn phase_summary_matches_separate_calls_bitwise() {
        let mut scratch = PhaseSummaryScratch::default();
        for n in [0usize, 1, 3, 4, 10, 57] {
            let angles: Vec<f64> = (0..n).map(|i| wrap_to_pi((i as f64) * 2.9)).collect();
            for trim in [0.0, 0.2, 0.5] {
                let (m, v) = phase_summary(&angles, trim, &mut scratch);
                let m_ref = trimmed_circular_mean(&angles, trim);
                let v_ref = phase_variance(&angles);
                assert_eq!(m.to_bits(), m_ref.to_bits(), "mean n={n} trim={trim}");
                assert_eq!(v.to_bits(), v_ref.to_bits(), "var n={n} trim={trim}");
            }
        }
    }

    #[test]
    fn phase_summary_matches_reference_bitwise() {
        let mut scratch = PhaseSummaryScratch::default();
        let mut dev = Vec::new();
        let mut check = |angles: &[f64], trim: f64, what: &str| {
            let (m, v) = phase_summary(angles, trim, &mut scratch);
            let (m_ref, v_ref) = reference_phase_summary(angles, trim, &mut dev);
            assert_eq!(m.to_bits(), m_ref.to_bits(), "mean: {what} trim={trim}");
            assert_eq!(v.to_bits(), v_ref.to_bits(), "variance: {what} trim={trim}");
        };
        // Deviation ties: mirrored angles sit at equal |deviation| from a
        // zero mean, so the stable sort must keep their input order.
        let ties = [0.3, -0.3, 0.3, -0.3, 1.1, -1.1, 0.0, 0.7, -0.7, 1.1];
        // Repeated identical angles: every deviation ties at zero.
        let flat = [0.42; 9];
        // Wrap-around cluster with one impulse-noise outlier.
        let wrapped = [3.1, -3.1, 3.05, -3.12, 0.2, 3.13, -3.08, 3.0];
        for trim in [0.0, 0.1, 0.2, 0.5] {
            check(&ties, trim, "ties");
            check(&flat, trim, "flat");
            check(&wrapped, trim, "wrapped");
            // n_drop = 0 at 20% trim for n < 5; n < 3 keeps fewer than two.
            for n in 0..5 {
                check(&wrapped[..n], trim, "short");
            }
        }
        // Series like the pipeline's: 8 and 20 packets, 20% trim.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..200 {
            for n in [8usize, 20] {
                let angles: Vec<f64> = (0..n)
                    .map(|_| {
                        state = state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        wrap_to_pi((state >> 11) as f64 / (1u64 << 53) as f64 * 7.0 - 3.5)
                    })
                    .collect();
                check(&angles, 0.2, "random");
            }
        }
    }

    #[test]
    fn angular_spread_deg_for_18_degree_cluster() {
        // A cluster with ~18° spread, as the paper's Fig. 12 reports after
        // phase differencing.
        let sigma = 18f64.to_radians();
        let angles: Vec<f64> = (0..200).map(|i| sigma * ((i as f64 * 0.7).sin())).collect();
        let spread = angular_spread_deg(&angles);
        assert!(spread > 8.0 && spread < 25.0, "spread = {spread}");
    }
}

//! Descriptive and circular statistics.
//!
//! Phase data lives on the circle, so the WiMi pipeline needs circular
//! moments (mean direction, resultant length, circular spread) alongside ordinary linear
//! statistics; both live here.

#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

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

/// Longest slice the sorting networks take; [`sort_total`] hands longer
/// ones to the standard library, where a network's `O(n log² n)`
/// comparators stop paying for their missing branches.
const NETWORK_MAX: usize = 64;

/// Writes the comparators of Batcher's merge-exchange network for `n`
/// inputs (Knuth, TAOCP §5.2.2, Algorithm M) into `out`, starting at
/// position `at`, and returns the position after the last one. A
/// comparator `[i, j]` has `i < j` and leaves the smaller key at `i`.
/// Positions past the end of `out` are counted but not written.
#[expect(
    clippy::indexing_slicing,
    reason = "the write is guarded by at < out.len(), and the fn runs only in const evaluation, where a bad index fails the build"
)]
const fn merge_exchange(n: usize, out: &mut [[u8; 2]], mut at: usize) -> usize {
    if n < 2 {
        return at;
    }
    let top = 1usize << (usize::BITS - (n - 1).leading_zeros() - 1);
    let mut p = top;
    while p > 0 {
        let (mut q, mut r, mut d) = (top, 0, p);
        loop {
            let mut i = 0;
            while i + d < n {
                if i & p == r {
                    if at < out.len() {
                        out[at] = [i as u8, (i + d) as u8];
                    }
                    at += 1;
                }
                i += 1;
            }
            if q == p {
                break;
            }
            d = q - p;
            q >>= 1;
            r = p;
        }
        p >>= 1;
    }
    at
}

/// Comparators of every network up to [`NETWORK_MAX`] inputs together.
const COMPARATORS: usize = {
    let (mut at, mut n) = (0, 0);
    while n <= NETWORK_MAX {
        at = merge_exchange(n, &mut [], at);
        n += 1;
    }
    at
};

/// The merge-exchange networks for 0..=[`NETWORK_MAX`] inputs, back to
/// back, built at compile time: the network for `n` inputs is
/// `pairs[start[n]..start[n + 1]]`.
struct Networks {
    pairs: [[u8; 2]; COMPARATORS],
    start: [u16; NETWORK_MAX + 2],
}

#[expect(
    clippy::indexing_slicing,
    reason = "const-evaluated: n + 1 ≤ NETWORK_MAX + 1 indexes start, and a bad index fails the build rather than a run"
)]
static NETWORKS: Networks = {
    let mut nets = Networks {
        pairs: [[0; 2]; COMPARATORS],
        start: [0; NETWORK_MAX + 2],
    };
    let mut n = 0;
    while n <= NETWORK_MAX {
        let at = nets.start[n] as usize;
        nets.start[n + 1] = merge_exchange(n, &mut nets.pairs, at) as u16;
        n += 1;
    }
    nets
};

/// The comparators of the merge-exchange network for `n ≤ NETWORK_MAX`
/// inputs.
#[expect(
    clippy::indexing_slicing,
    reason = "callers pass n ≤ NETWORK_MAX, so n + 1 indexes start and start[n] ≤ start[n + 1] ≤ COMPARATORS"
)]
fn network(n: usize) -> &'static [[u8; 2]] {
    &NETWORKS.pairs[usize::from(NETWORKS.start[n])..usize::from(NETWORKS.start[n + 1])]
}

/// One comparator: the smaller key to `i`, the larger to `j`, with no
/// data-dependent branch.
#[inline(always)]
#[expect(
    clippy::indexing_slicing,
    reason = "every comparator of a network for k.len() inputs indexes below k.len()"
)]
fn exchange<T: Ord + Copy>(k: &mut [T], i: usize, j: usize) {
    let (a, b) = (k[i], k[j]);
    k[i] = a.min(b);
    k[j] = a.max(b);
}

/// Defines a sorter for exactly `$n` keys that runs the listed
/// comparators straight-line, plus the comparator list for the test that
/// pins it to [`network`]`($n)`.
macro_rules! unrolled_network {
    ($sort:ident, $pairs:ident, $n:literal: $(($i:literal $j:literal))*) => {
        fn $sort<T: Ord + Copy>(k: &mut [T; $n]) {
            $(exchange(k, $i, $j);)*
        }

        #[cfg(test)]
        const $pairs: &[[u8; 2]] = &[$([$i, $j]),*];
    };
}

// The merge-exchange networks for the capture lengths the pipeline sees
// most: 8, 10 and 20 packets.
unrolled_network!(sort_8, PAIRS_8, 8:
    (0 4) (1 5) (2 6) (3 7)
    (0 2) (1 3) (4 6) (5 7)
    (2 4) (3 5)
    (0 1) (2 3) (4 5) (6 7)
    (1 4) (3 6)
    (1 2) (3 4) (5 6)
);
unrolled_network!(sort_10, PAIRS_10, 10:
    (0 8) (1 9)
    (0 4) (1 5) (2 6) (3 7) (4 8) (5 9)
    (0 2) (1 3) (4 6) (5 7)
    (2 8) (3 9)
    (2 4) (3 5) (6 8) (7 9)
    (0 1) (2 3) (4 5) (6 7) (8 9)
    (1 8)
    (1 4) (3 6) (5 8)
    (1 2) (3 4) (5 6) (7 8)
);
unrolled_network!(sort_20, PAIRS_20, 20:
    (0 16) (1 17) (2 18) (3 19)
    (0 8) (1 9) (2 10) (3 11) (4 12) (5 13) (6 14) (7 15)
    (8 16) (9 17) (10 18) (11 19)
    (0 4) (1 5) (2 6) (3 7) (8 12) (9 13) (10 14) (11 15)
    (4 16) (5 17) (6 18) (7 19)
    (4 8) (5 9) (6 10) (7 11) (12 16) (13 17) (14 18) (15 19)
    (0 2) (1 3) (4 6) (5 7) (8 10) (9 11) (12 14) (13 15) (16 18) (17 19)
    (2 16) (3 17)
    (2 8) (3 9) (6 12) (7 13) (10 16) (11 17)
    (2 4) (3 5) (6 8) (7 9) (10 12) (11 13) (14 16) (15 17)
    (0 1) (2 3) (4 5) (6 7) (8 9) (10 11) (12 13) (14 15) (16 17) (18 19)
    (1 16) (3 18)
    (1 8) (3 10) (5 12) (7 14) (9 16) (11 18)
    (1 4) (3 6) (5 8) (7 10) (9 12) (11 14) (13 16) (15 18)
    (1 2) (3 4) (5 6) (7 8) (9 10) (11 12) (13 14) (15 16) (17 18)
);

/// Sorts at most [`NETWORK_MAX`] keys ascending: straight-line for the
/// unrolled lengths, through the comparator table otherwise.
fn sort_keys<T: Ord + Copy>(k: &mut [T]) {
    if let Ok(k) = <&mut [T; 20]>::try_from(&mut *k) {
        sort_20(k);
    } else if let Ok(k) = <&mut [T; 10]>::try_from(&mut *k) {
        sort_10(k);
    } else if let Ok(k) = <&mut [T; 8]>::try_from(&mut *k) {
        sort_8(k);
    } else {
        for &[i, j] in network(k.len()) {
            exchange(k, usize::from(i), usize::from(j));
        }
    }
}

/// The integer [`f64::total_cmp`] compares: the bits as a signed
/// integer, with the magnitude bits of negative values flipped. It is its
/// own inverse (see [`from_total_key`]).
#[inline]
fn total_key(x: f64) -> i64 {
    let b = x.to_bits() as i64;
    b ^ ((((b >> 63) as u64) >> 1) as i64)
}

/// Inverse of [`total_key`]: the map keeps the sign bit, so applying it
/// again restores the bits.
#[inline]
fn from_total_key(k: i64) -> f64 {
    f64::from_bits((k ^ ((((k >> 63) as u64) >> 1) as i64)) as u64)
}

/// Sorts `xs` into exactly the order `xs.sort_by(f64::total_cmp)` gives,
/// without allocating.
///
/// `total_cmp` is a total order under which two values are equal only
/// when their bits are, so every correct sort, stable or not, yields the
/// same sequence. Up to 64 values are mapped to the integers `total_cmp`
/// compares, on the stack, and sorted by a merge-exchange network of
/// branch-free `min`/`max`; longer slices take `sort_unstable_by`.
#[expect(
    clippy::indexing_slicing,
    reason = "the early return leaves xs.len() ≤ NETWORK_MAX, the length of keys"
)]
fn sort_total(xs: &mut [f64]) {
    if xs.len() > NETWORK_MAX {
        xs.sort_unstable_by(f64::total_cmp);
        return;
    }
    let mut keys = [0i64; NETWORK_MAX];
    let keys = &mut keys[..xs.len()];
    for (k, &x) in keys.iter_mut().zip(xs.iter()) {
        *k = total_key(x);
    }
    sort_keys(keys);
    for (x, &k) in xs.iter_mut().zip(keys.iter()) {
        *x = from_total_key(k);
    }
}

/// Fills `order` with the indices of `devs` in the order a stable
/// `sort_by` on `|dev|` under [`f64::total_cmp`] puts them, and returns
/// that prefix; `None` (with `order` untouched) for more than
/// [`NETWORK_MAX`] values.
///
/// `|dev|` has a clear sign bit, so the unsigned order of its bits is the
/// `total_cmp` order. The network sorts those bits with the low six
/// replaced by the sample's index, so keys that tie there come out in
/// index order. A run of such ties is then put in order of the full bits,
/// by an insertion sort that keeps equal bits in index order: the stable
/// sort's order.
#[expect(
    clippy::indexing_slicing,
    reason = "n ≤ NETWORK_MAX bounds keys[..n] and order[..n]; k & INDEX < NETWORK_MAX indexes bits; run ≤ j − 1 < j < end ≤ n in the fix-up"
)]
fn stable_abs_order(
    devs: impl ExactSizeIterator<Item = f64>,
    order: &mut [u8; NETWORK_MAX],
) -> Option<&[u8]> {
    const INDEX: u64 = NETWORK_MAX as u64 - 1;
    let n = devs.len();
    if n > NETWORK_MAX {
        return None;
    }
    let (mut bits, mut keys) = ([0u64; NETWORK_MAX], [0u64; NETWORK_MAX]);
    for (i, ((b, k), d)) in bits.iter_mut().zip(keys.iter_mut()).zip(devs).enumerate() {
        *b = d.abs().to_bits();
        *k = (*b & !INDEX) | i as u64;
    }
    let keys = &mut keys[..n];
    sort_keys(keys);
    let full = |k: u64| bits[(k & INDEX) as usize];
    let mut run = 0;
    for end in 1..=n {
        if end < n && keys[end] | INDEX == keys[run] | INDEX {
            continue;
        }
        for i in run + 1..end {
            let mut j = i;
            while j > run && full(keys[j - 1]) > full(keys[j]) {
                keys.swap(j - 1, j);
                j -= 1;
            }
        }
        run = end;
    }
    for (o, &k) in order.iter_mut().zip(keys.iter()) {
        *o = (k & INDEX) as u8;
    }
    Some(&order[..n])
}

/// Median (interpolated for even lengths). Returns `NaN` for an empty
/// slice. Sorts a copy with [`median_in_place`].
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
/// order: sorts `xs` in place into the order `xs.sort_by(f64::total_cmp)`
/// gives, without allocating. Returns `NaN` for an empty slice.
#[expect(
    clippy::indexing_slicing,
    reason = "n/2 and n/2 − 1 are in bounds: the slice is non-empty and the n % 2 branch guards the even case"
)]
pub fn median_in_place(xs: &mut [f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    sort_total(xs);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Median absolute deviation (unscaled).
fn mad(xs: &[f64]) -> f64 {
    mad_in(xs, &mut Vec::new())
}

/// [`mad`] through a caller-owned scratch buffer: the median of the
/// series, then the median of the absolute deviations from it.
fn mad_in(xs: &[f64], buf: &mut Vec<f64>) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let med = median_in(xs, buf);
    buf.clear();
    buf.extend(xs.iter().map(|x| (x - med).abs()));
    median_in_place(buf)
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
///
/// Within one turn `theta % τ` is exact and returns `theta` itself, sign
/// of zero included, so the remainder is taken only outside it.
pub fn wrap_to_pi(theta: f64) -> f64 {
    let tau = std::f64::consts::TAU;
    let mut t = if theta.abs() < tau {
        theta
    } else {
        theta % tau
    };
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

/// One direction of a [`phase_summary`] series: its unit phasor
/// `(cos θ, sin θ)` and its deviation from the series' circular mean.
#[derive(Debug, Clone, Copy)]
struct AngleSample {
    sin: f64,
    cos: f64,
    dev: f64,
}

/// The sums of `sin` and of `cos` over `samples`, in their order.
fn sin_cos_sums<'a>(samples: impl IntoIterator<Item = &'a AngleSample>) -> (f64, f64) {
    samples
        .into_iter()
        .fold((0.0, 0.0), |(s, c), x| (s + x.sin, c + x.cos))
}

/// Caller-owned scratch for [`phase_summary`]: one `AngleSample` per
/// direction, grown once and reused across calls.
#[derive(Debug, Clone, Default)]
pub struct PhaseSummaryScratch {
    samples: Vec<AngleSample>,
}

/// The robust circular mean and the paper's wrap-safe variance (Eq. 7)
/// of one series of directions, given as unit phasors `(cos θ, sin θ)`,
/// through a caller-owned scratch.
///
/// The circular mean is `atan2(Σ sin, Σ cos)`. Each deviation is the
/// angle of the phasor turned back by that mean, `∠(p·e^{−j·mean})`, in
/// `[−π, π]`; the variance is the mean square deviation. The robust mean
/// drops the `trim_fraction` of phasors that deviate most (impulse-noise
/// hits) and takes `atan2` of the survivors' sums, added in the order a
/// stable sort by `|deviation|` leaves them: a sorting network for up to
/// 64 phasors, `sort_by` above. That order decides the sums' bits, since
/// two phasors at deviations `+x` and `−x` tie on `|x|` but differ in
/// `sin`.
///
/// From phasors this costs one arctangent per sample, where the angle
/// form it replaced took an `atan2` to make the angle and a `sin` and a
/// `cos` to undo it. A turned-back phasor `(dx, dy)` with `dx > 0` (a
/// deviation inside ±π/2) takes `atan(dy/dx)`, any other `atan2(dy, dx)`.
/// Given the phasors of angles `θ`, both forms agree up to rounding.
///
/// # Panics
///
/// Panics if `trim_fraction` is not within `[0, 0.5]`.
#[expect(
    clippy::indexing_slicing,
    reason = "keep = n − n_drop ≤ n = samples.len(), and every index stable_abs_order returns is below n"
)]
pub fn phase_summary(
    phasors: impl IntoIterator<Item = (f64, f64)>,
    trim_fraction: f64,
    scratch: &mut PhaseSummaryScratch,
) -> (f64, f64) {
    assert!(
        (0.0..=0.5).contains(&trim_fraction),
        "trim fraction must be within [0, 0.5]"
    );
    let samples = &mut scratch.samples;
    samples.clear();
    samples.extend(
        phasors
            .into_iter()
            .map(|(cos, sin)| AngleSample { sin, cos, dev: 0.0 }),
    );
    let n = samples.len();
    if n == 0 {
        return (f64::NAN, f64::NAN);
    }
    let (s, c) = sin_cos_sums(samples.iter());
    let first = s.atan2(c);
    // The mean direction as a unit phasor: the normalised resultant, and
    // still defined where the resultant is zero.
    let (us, uc) = first.sin_cos();
    for x in samples.iter_mut() {
        let (dy, dx) = (x.sin * uc - x.cos * us, x.cos * uc + x.sin * us);
        // In the right half-plane the angle is `atan` of the slope, which
        // costs about half an `atan2`; elsewhere, and for NaN, `atan2`.
        x.dev = if dx > 0.0 {
            (dy / dx).atan()
        } else {
            dy.atan2(dx)
        };
    }
    let variance = samples.iter().map(|x| x.dev * x.dev).sum::<f64>() / n as f64;
    let n_drop = ((n as f64) * trim_fraction).floor() as usize;
    if n_drop == 0 || n - n_drop < 2 {
        return (first, variance);
    }
    let keep = n - n_drop;
    let mut order = [0; NETWORK_MAX];
    let (s, c) = match stable_abs_order(samples.iter().map(|x| x.dev), &mut order) {
        Some(order) => sin_cos_sums(order[..keep].iter().map(|&i| &samples[usize::from(i)])),
        None => {
            samples.sort_by(|x, y| x.dev.abs().total_cmp(&y.dev.abs()));
            sin_cos_sums(&samples[..keep])
        }
    };
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
        assert!(angular_spread_deg(&angles) < 2.0);
    }

    #[test]
    fn circular_stats_on_uniform_angles() {
        let angles: Vec<f64> = (0..36).map(|k| k as f64 * PI / 18.0).collect();
        assert!(circular_resultant(&angles) < 1e-10);
    }

    #[test]
    fn circular_mean_handles_wraparound() {
        // Angles clustered around ±π: linear mean would say ~0, circular
        // mean must say ~π.
        let angles = [PI - 0.05, -PI + 0.05, PI - 0.02, -PI + 0.02];
        let m = circular_mean(&angles);
        assert!(m.abs() > 3.0, "mean = {m}");
    }

    /// The unit phasors `(cos θ, sin θ)` of `angles`.
    fn phasors(angles: &[f64]) -> impl Iterator<Item = (f64, f64)> + '_ {
        angles.iter().map(|a| (a.cos(), a.sin()))
    }

    #[test]
    fn phase_summary_variance_is_wrap_safe() {
        let mut scratch = PhaseSummaryScratch::default();
        let wrapped = [PI - 0.01, -PI + 0.01, PI - 0.02, -PI + 0.02];
        // Near-identical directions → tiny variance despite ±π values.
        let (m, v) = phase_summary(phasors(&wrapped), 0.0, &mut scratch);
        assert!(m.abs() > 3.1 && v < 1e-3, "mean {m}, variance {v}");
        let spread = [0.0, 1.0, 2.0, 3.0];
        assert!(phase_summary(phasors(&spread), 0.0, &mut scratch).1 > 0.5);
        let (m, v) = phase_summary(std::iter::empty(), 0.2, &mut scratch);
        assert!(m.is_nan() && v.is_nan());
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

    /// The median through the standard library's `sort_by(total_cmp)`.
    fn reference_median(xs: &[f64]) -> f64 {
        let mut s = xs.to_vec();
        s.sort_by(f64::total_cmp);
        let n = s.len();
        match n {
            0 => f64::NAN,
            _ if n % 2 == 1 => s[n / 2],
            _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
        }
    }

    /// The two-sort MAD through the standard library: sort the series for
    /// its median, then sort the absolute deviations for theirs.
    fn reference_mad(xs: &[f64]) -> f64 {
        if xs.is_empty() {
            return f64::NAN;
        }
        let med = reference_median(xs);
        let dev: Vec<f64> = xs.iter().map(|x| (x - med).abs()).collect();
        reference_median(&dev)
    }

    #[test]
    fn mad_matches_two_sort_reference_bitwise() {
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

    /// The angle form of `phase_summary` the phasor form replaced, as it
    /// was first written: it wrapped every angle twice and re-evaluated
    /// `sin`/`cos` for the kept angles. The replaced code returned these
    /// bits exactly.
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

    /// Asserts that a phasor summary matches its angle reference within
    /// rounding: the mean to 1e-14 rad around the circle, the variance to
    /// 1e-12 of itself plus 1e-18.
    fn assert_within_rounding(got: (f64, f64), want: (f64, f64), what: &str) {
        let ((m, v), (m_ref, v_ref)) = (got, want);
        assert_eq!(m.is_nan(), m_ref.is_nan(), "mean: {what}: {m} vs {m_ref}");
        assert_eq!(
            v.is_nan(),
            v_ref.is_nan(),
            "variance: {what}: {v} vs {v_ref}"
        );
        if !m_ref.is_nan() {
            assert!(
                wrap_to_pi(m - m_ref).abs() <= 1e-14,
                "mean: {what}: {m} vs {m_ref}"
            );
            assert!(
                (v - v_ref).abs() <= 1e-12 * v_ref + 1e-18,
                "variance: {what}: {v} vs {v_ref}"
            );
        }
    }

    #[test]
    fn phase_summary_matches_angle_reference_within_rounding() {
        let mut scratch = PhaseSummaryScratch::default();
        let mut dev = Vec::new();
        let mut check = |angles: &[f64], trim: f64, what: &str| {
            assert_within_rounding(
                phase_summary(phasors(angles), trim, &mut scratch),
                reference_phase_summary(angles, trim, &mut dev),
                &format!("{what} trim={trim}"),
            );
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
        // Series like the pipeline's: 8, 20 and 70 packets (past the
        // sorting network), 20% trim.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..200 {
            for n in [8usize, 20, 70] {
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

    #[test]
    fn unrolled_networks_are_the_table_networks() {
        assert_eq!(PAIRS_8, network(8));
        assert_eq!(PAIRS_10, network(10));
        assert_eq!(PAIRS_20, network(20));
        assert!(network(0).is_empty() && network(1).is_empty());
        assert_eq!(network(NETWORK_MAX).len(), 543);
        assert_eq!(COMPARATORS, 14_691);
    }

    #[test]
    fn networks_sort_every_zero_one_input() {
        // By the 0-1 principle a comparator network sorts every input iff
        // it sorts every sequence of zeros and ones.
        for n in (0..=14).chain([20]) {
            let mut keys = vec![0u8; n];
            for bits in 0u32..1 << n {
                for (i, k) in keys.iter_mut().enumerate() {
                    *k = ((bits >> i) & 1) as u8;
                }
                sort_keys(&mut keys);
                assert!(keys.is_sorted(), "n={n} input {bits:#b}");
            }
        }
    }

    /// Values built to break a sort that is not exactly `total_cmp`'s: NaN
    /// of both signs with several payloads, signed zeros, infinities,
    /// subnormals, extremes, and a small pool that repeats so runs of
    /// duplicates form.
    struct Adversarial;

    impl proptest::strategy::Strategy for Adversarial {
        type Value = f64;

        fn sample(&self, rng: &mut proptest::TestRng) -> f64 {
            const SPECIAL: [f64; 14] = [
                0.0,
                -0.0,
                f64::INFINITY,
                f64::NEG_INFINITY,
                f64::MIN_POSITIVE,
                -f64::MIN_POSITIVE,
                f64::MAX,
                f64::MIN,
                1.0,
                -1.0,
                0.5,
                -2.5,
                f64::EPSILON,
                -f64::EPSILON,
            ];
            let word = rng.next_u64();
            match rng.next_u64() % 8 {
                // NaN: random sign and a payload from a small set, so equal
                // NaNs repeat too.
                0 => f64::from_bits((word & (1 << 63)) | 0x7FF0_0000_0000_0000 | (word % 5 + 1)),
                // Subnormals of either sign.
                1 => f64::from_bits((word & (1 << 63)) | (word % 9 + 1)),
                2 | 3 => SPECIAL[(word % SPECIAL.len() as u64) as usize],
                // Raw bit patterns: any finite value, NaN or infinity.
                4 => f64::from_bits(word),
                _ => (rng.unit_f64() * 8.0).round() / 2.0 - 2.0,
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn sort_total_matches_total_cmp_sort(
            xs in proptest::collection::vec(Adversarial, 0..81),
        ) {
            let mut got = xs.clone();
            sort_total(&mut got);
            let mut want = xs.clone();
            want.sort_by(f64::total_cmp);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            proptest::prop_assert_eq!(bits(&got), bits(&want), "input {:?}", xs);
            let (mut buf, mut sorted) = (Vec::new(), xs.clone());
            let want = reference_median(&xs).to_bits();
            proptest::prop_assert_eq!(median_in(&xs, &mut buf).to_bits(), want);
            proptest::prop_assert_eq!(median_in_place(&mut sorted).to_bits(), want);
            proptest::prop_assert_eq!(mad(&xs).to_bits(), reference_mad(&xs).to_bits());
        }

        #[test]
        fn stable_abs_order_matches_stable_sort(
            devs in proptest::collection::vec(Adversarial, 0..81),
        ) {
            let mut order = [0u8; NETWORK_MAX];
            let got = stable_abs_order(devs.iter().copied(), &mut order);
            if devs.len() > NETWORK_MAX {
                proptest::prop_assert!(got.is_none());
            } else {
                let mut want: Vec<usize> = (0..devs.len()).collect();
                want.sort_by(|&i, &j| devs[i].abs().total_cmp(&devs[j].abs()));
                let got: Vec<usize> = got.unwrap_or_default().iter().map(|&i| i.into()).collect();
                proptest::prop_assert_eq!(got, want, "input {:?}", devs);
            }
        }
    }

    #[test]
    fn phase_summary_keeps_mirrored_ties_in_stable_order() {
        // Adjacent ±x pairs cancel exactly in the sine sum, so the circular
        // mean is exactly 0 and every deviation is exactly ±atan2(sin x,
        // cos x): |dev| ties across each pair and across the repeated
        // 0.9s, and at 20% trim the kept count ends inside the run of
        // 0.9s. Only the stable order keeps the right two and sums them in
        // the right order, which the reference's bits then show.
        let mut scratch = PhaseSummaryScratch::default();
        let mut dev = Vec::new();
        let pairs = [0.1, -0.4, 0.2, -0.7, 0.3, 0.5, -0.6, 0.9, -0.9, 0.9];
        for n_pairs in [4usize, 5, 6, 10] {
            let angles: Vec<f64> = pairs[pairs.len() - n_pairs..]
                .iter()
                .flat_map(|&x| [x, -x])
                .collect();
            assert_eq!(circular_mean(&angles).to_bits(), 0.0f64.to_bits());
            for trim in [0.1, 0.2, 0.3] {
                let (m, v) = phase_summary(phasors(&angles), trim, &mut scratch);
                let (m_ref, v_ref) = reference_phase_summary(&angles, trim, &mut dev);
                let what = format!("{} angles, trim {trim}", angles.len());
                assert_eq!(m.to_bits(), m_ref.to_bits(), "mean: {what}");
                assert_within_rounding((m, v), (m_ref, v_ref), &what);
            }
        }
    }

    /// `wrap_to_pi` before it skipped the remainder within one turn.
    fn reference_wrap_to_pi(theta: f64) -> f64 {
        let tau = std::f64::consts::TAU;
        let mut t = theta % tau;
        if t > PI {
            t -= tau;
        } else if t <= -PI {
            t += tau;
        }
        t
    }

    #[test]
    fn wrap_to_pi_matches_remainder_form_bitwise() {
        let tau = std::f64::consts::TAU;
        let check = |theta: f64| {
            assert_eq!(
                wrap_to_pi(theta).to_bits(),
                reference_wrap_to_pi(theta).to_bits(),
                "theta = {theta:e} ({:#x})",
                theta.to_bits()
            );
        };
        for theta in [
            0.0,
            -0.0,
            PI,
            -PI,
            tau,
            -tau,
            tau.next_down(),
            -tau.next_down(),
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
        ] {
            check(theta);
        }
        let mut state = 0x0DDB_1A5E_5BAD_5EEDu64;
        for _ in 0..100_000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // Uniform in (−2π, 2π]: 1 − u with u in [0, 1) lies in (0, 1].
            let u = 1.0 - (state >> 11) as f64 / (1u64 << 53) as f64;
            check(2.0 * tau * u - tau);
        }
    }
}

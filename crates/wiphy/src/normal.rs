//! Standard normal sampling for every Gaussian draw of the simulator.
//!
//! A 256-layer ziggurat (Marsaglia & Tsang 2000, in the layout
//! `rand_distr` uses), so the workspace depends on nothing but `rand`'s
//! uniform words. The sampler is exact: the layers tile the density
//! `e^{−x²/2}` in equal areas, the wedge test and the tail beyond
//! [`ZIG_R`] are exact rejection steps. On the fast path (≈98.5 % of
//! draws) one normal costs one `u64`, one multiply and one compare.

#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

use rand::distributions::Distribution;
use rand::Rng;
use std::sync::OnceLock;

/// Number of ziggurat layers; the low 8 bits of a draw pick one.
const LAYERS: usize = 256;

/// Right edge of the base layer's rectangle: draws beyond it come from
/// the exact tail sampler.
const ZIG_R: f64 = 3.654_152_885_361_009;

/// Area of every layer under the unnormalised density `e^{−x²/2}`.
const ZIG_V: f64 = 0.004_928_673_233_99;

/// `2^-52`: scales the 53-bit odd integer `2k + 1` into `(0, 2)`.
const TWO_POW_M52: f64 = 1.0 / (1u64 << 52) as f64;

/// `2^-53`: the spacing of the open-interval uniforms the tail uses.
const TWO_POW_M53: f64 = 1.0 / (1u64 << 53) as f64;

/// The unnormalised standard normal density `e^{−x²/2}`.
fn density(x: f64) -> f64 {
    (-0.5 * x * x).exp()
}

/// Layer edges `x[i]` (decreasing, `x[0] = V/f(R)`, `x[1] = R`,
/// `x[256] = 0`) and the density at each edge, `f[i] = e^{−x[i]²/2}`.
pub(crate) struct Tables {
    x: [f64; LAYERS + 1],
    f: [f64; LAYERS + 1],
}

/// The ziggurat tables. They depend on nothing but [`ZIG_R`] and
/// [`ZIG_V`], so they are built once per process: each layer's upper
/// edge is the abscissa where the layer below it reaches area `V`.
/// A loop drawing many normals takes them once and calls [`draw`], so
/// it pays this `OnceLock` check once rather than once per draw.
#[expect(
    clippy::indexing_slicing,
    reason = "constant indices and 2..LAYERS into arrays of LAYERS + 1 entries"
)]
pub(crate) fn tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut x = [0.0; LAYERS + 1];
        x[0] = ZIG_V / density(ZIG_R);
        x[1] = ZIG_R;
        for i in 2..LAYERS {
            x[i] = (-2.0 * (ZIG_V / x[i - 1] + density(x[i - 1])).ln()).sqrt();
        }
        Tables {
            x,
            f: x.map(density),
        }
    })
}

/// A uniform in the open interval `(0, 1)`, from 53 bits of one draw.
fn open01<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    ((rng.next_u64() >> 11) as f64 + 0.5) * TWO_POW_M53
}

/// Marsaglia's exact sampler of the normal tail beyond [`ZIG_R`], with
/// the sign of the base-layer draw that fell into it.
fn tail<R: Rng + ?Sized>(rng: &mut R, negative: bool) -> f64 {
    loop {
        let x = -open01(rng).ln() / ZIG_R;
        let y = -open01(rng).ln();
        if y + y >= x * x {
            return if negative { -(ZIG_R + x) } else { ZIG_R + x };
        }
    }
}

/// One standard normal draw from the ziggurat tables `t` — the whole of
/// [`StandardNormal::sample`], for loops that take [`tables`] once.
#[expect(
    clippy::indexing_slicing,
    reason = "i is the low 8 bits of a draw, so i + 1 ≤ LAYERS indexes tables of LAYERS + 1 entries"
)]
#[inline]
pub(crate) fn draw<R: Rng + ?Sized>(t: &Tables, rng: &mut R) -> f64 {
    loop {
        let bits = rng.next_u64();
        let i = (bits & 0xff) as usize;
        // The 52 high bits k give u = (2k + 1)/2^52 − 1: exact,
        // symmetric about 0, and never 0 or ±1.
        let u = ((bits >> 12) * 2 + 1) as f64 * TWO_POW_M52 - 1.0;
        let x = u * t.x[i];
        if x.abs() < t.x[i + 1] {
            return x;
        }
        if i == 0 {
            return tail(rng, u < 0.0);
        }
        if t.f[i + 1] + (t.f[i] - t.f[i + 1]) * rng.gen::<f64>() < density(x) {
            return x;
        }
    }
}

/// Standard normal distribution N(0, 1).
#[derive(Debug, Clone, Copy, Default)]
pub struct StandardNormal;

impl Distribution<f64> for StandardNormal {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        draw(tables(), rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Draws per distribution test.
    const N: usize = 1_000_000;

    /// The sampler this one replaced, kept as an independent reference:
    /// Box–Muller on two uniforms, cosine half only.
    fn box_muller<R: Rng + ?Sized>(rng: &mut R) -> f64 {
        let u1: f64 = 1.0 - rng.gen::<f64>();
        let u2: f64 = rng.gen::<f64>();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    fn draws(seed: u64, n: usize) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| rng.sample(StandardNormal)).collect()
    }

    /// `P(X > a)` for `X ~ N(0, 1)` (that is, `erfc(a/√2)/2`), by
    /// composite Simpson over `[a, a + 14]`; the rest is below 1e-40.
    fn upper_tail(a: f64) -> f64 {
        let (n, h) = (20_000, 14.0 / 20_000.0);
        let g = |t: f64| density(t) / (2.0 * std::f64::consts::PI).sqrt();
        let inner: f64 = (1..n)
            .map(|j| {
                let w = if j % 2 == 1 { 4.0 } else { 2.0 };
                w * g(a + j as f64 * h)
            })
            .sum();
        (g(a) + inner + g(a + 14.0)) * h / 3.0
    }

    /// Verbatim copy of `StandardNormal::sample` before its body moved
    /// into [`draw`]: it took the tables once per draw.
    fn reference_sample<R: Rng + ?Sized>(rng: &mut R) -> f64 {
        let t = tables();
        loop {
            let bits = rng.next_u64();
            let i = (bits & 0xff) as usize;
            let u = ((bits >> 12) * 2 + 1) as f64 * TWO_POW_M52 - 1.0;
            let x = u * t.x[i];
            if x.abs() < t.x[i + 1] {
                return x;
            }
            if i == 0 {
                return tail(rng, u < 0.0);
            }
            if t.f[i + 1] + (t.f[i] - t.f[i + 1]) * rng.gen::<f64>() < density(x) {
                return x;
            }
        }
    }

    #[test]
    fn draw_with_hoisted_tables_matches_sample_bitwise() {
        let t = tables();
        let mut hoisted = StdRng::seed_from_u64(99);
        let mut sampled = StdRng::seed_from_u64(99);
        let mut reference = StdRng::seed_from_u64(99);
        for n in 0..N {
            let got = draw(t, &mut hoisted);
            let via_sample = sampled.sample(StandardNormal);
            let want = reference_sample(&mut reference);
            assert_eq!(got.to_bits(), want.to_bits(), "draw {n}");
            assert_eq!(via_sample.to_bits(), want.to_bits(), "sample {n}");
        }
        let next = reference.gen::<u64>();
        assert_eq!(hoisted.gen::<u64>(), next, "RNG state after draw");
        assert_eq!(sampled.gen::<u64>(), next, "RNG state after sample");
    }

    #[test]
    fn tables_tile_the_density_in_equal_areas() {
        let t = tables();
        assert_eq!(t.x[1], ZIG_R);
        assert_eq!(t.x[LAYERS], 0.0);
        assert_eq!(t.f[LAYERS], 1.0);
        assert!(t.x.windows(2).all(|w| w[0] > w[1]), "edges must decrease");
        // Base strip: rectangle to x[0] at height f(R) has area V.
        assert!((t.x[0] * t.f[1] - ZIG_V).abs() < 1e-15);
        // Every other layer, the top one included, has area V.
        for i in 1..LAYERS {
            let area = t.x[i] * (t.f[i + 1] - t.f[i]);
            assert!((area - ZIG_V).abs() < 1e-9 * ZIG_V, "layer {i}: {area}");
        }
        // The base strip's overhang beyond R matches the exact tail.
        let overhang = (t.x[0] - ZIG_R) * t.f[1];
        let tail_area = upper_tail(ZIG_R) * (2.0 * std::f64::consts::PI).sqrt();
        assert!((overhang - tail_area).abs() < 1e-9 * tail_area);
    }

    #[test]
    fn moments_match_the_standard_normal() {
        let xs = draws(42, N);
        let n = N as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        let m4 = xs.iter().map(|x| (x - mean).powi(4)).sum::<f64>() / n;
        let kurtosis = m4 / (var * var);
        // Standard errors at n = 1e6: mean 0.001, variance 0.0014,
        // kurtosis 0.0049; the bounds are five of them.
        assert!(mean.abs() < 0.005, "mean = {mean}");
        assert!((var - 1.0).abs() < 0.007, "var = {var}");
        assert!((kurtosis - 3.0).abs() < 0.025, "kurtosis = {kurtosis}");
    }

    #[test]
    fn two_sided_tails_match_erfc() {
        let xs = draws(7, N);
        let n = N as f64;
        for k in 1..=4 {
            let a = f64::from(k);
            let p = 2.0 * upper_tail(a);
            let hits = xs.iter().filter(|x| x.abs() > a).count() as f64;
            let sigma = (p * (1.0 - p) / n).sqrt();
            assert!(
                (hits / n - p).abs() < 4.0 * sigma,
                "P(|x| > {k}) = {} vs erfc {p} (σ {sigma})",
                hits / n
            );
        }
    }

    #[test]
    fn two_sample_ks_against_box_muller() {
        let mut a = draws(11, N);
        let mut rng = StdRng::seed_from_u64(12);
        let mut b: Vec<f64> = (0..N).map(|_| box_muller(&mut rng)).collect();
        a.sort_unstable_by(f64::total_cmp);
        b.sort_unstable_by(f64::total_cmp);
        let (mut i, mut j, mut d) = (0, 0, 0.0_f64);
        while i < N && j < N {
            if a[i] <= b[j] {
                i += 1;
            } else {
                j += 1;
            }
            d = d.max((i as f64 - j as f64).abs() / N as f64);
        }
        // The two-sample critical value at α = 0.001 for n = m = 1e6.
        let critical = 1.949 * (2.0 / N as f64).sqrt();
        assert!(d < critical, "KS D = {d} ≥ {critical}");
    }

    #[test]
    fn tail_branch_is_reached_and_exact() {
        let xs = draws(3, N);
        let beyond: Vec<f64> = xs.iter().map(|x| x.abs()).filter(|&x| x > ZIG_R).collect();
        // Expected 2·Q(R)·N ≈ 258 draws beyond R.
        let expected = 2.0 * upper_tail(ZIG_R) * N as f64;
        assert!(
            (beyond.len() as f64 - expected).abs() < 4.0 * expected.sqrt(),
            "{} draws beyond R, expected {expected}",
            beyond.len()
        );
        // The tail sampler alone: E[X | X > R] = φ(R)/Q(R), and both signs.
        let mut rng = StdRng::seed_from_u64(5);
        let m = 100_000;
        let pos: Vec<f64> = (0..m).map(|_| tail(&mut rng, false)).collect();
        assert!(pos.iter().all(|&x| x > ZIG_R));
        assert!(tail(&mut rng, true) < -ZIG_R);
        let phi = density(ZIG_R) / (2.0 * std::f64::consts::PI).sqrt();
        let want = phi / upper_tail(ZIG_R);
        let mean = pos.iter().sum::<f64>() / m as f64;
        let var = pos.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / m as f64;
        let se = (var / m as f64).sqrt();
        assert!(
            (mean - want).abs() < 5.0 * se,
            "tail mean {mean} vs {want} (se {se})"
        );
    }
}

//! Stationary (undecimated) wavelet transform.
//!
//! The paper's amplitude denoiser (§III-C) multiplies wavelet coefficients
//! of *adjacent scales* pointwise, which requires coefficients of every
//! scale to be aligned sample-by-sample with the input — exactly what the
//! undecimated (à trous / stationary) transform provides. For orthonormal
//! filter pairs the transform implemented here is perfectly invertible for
//! any signal length (circular extension).

#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

pub mod denoise;

pub use denoise::{
    correlation_denoise, soft_threshold_denoise, CorrelationDenoiser, DenoiseScratch,
};

/// Orthonormal wavelet families available for the transform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Wavelet {
    /// Haar (2 taps): sharpest in time, used for impulse localisation.
    Haar,
    /// Daubechies-2 (4 taps).
    #[default]
    Db2,
    /// Daubechies-4 (8 taps): the default of the WiMi denoiser.
    Db4,
    /// Symlet-4 (8 taps): near-symmetric variant.
    Sym4,
}

impl Wavelet {
    /// All families, for ablation sweeps.
    pub const ALL: [Wavelet; 4] = [Wavelet::Haar, Wavelet::Db2, Wavelet::Db4, Wavelet::Sym4];

    /// Orthonormal low-pass decomposition filter `h` (`Σh = √2`,
    /// `‖h‖ = 1`).
    pub fn lowpass(self) -> &'static [f64] {
        match self {
            Wavelet::Haar => &[
                std::f64::consts::FRAC_1_SQRT_2,
                std::f64::consts::FRAC_1_SQRT_2,
            ],
            Wavelet::Db2 => &[
                0.482_962_913_144_690_25,
                0.836_516_303_737_469,
                0.224_143_868_041_857_35,
                -0.129_409_522_550_921_45,
            ],
            Wavelet::Db4 => &[
                0.230_377_813_308_855_23,
                0.714_846_570_552_541_5,
                0.630_880_767_929_590_4,
                -0.027_983_769_416_983_85,
                -0.187_034_811_718_881_14,
                0.030_841_381_835_986_965,
                0.032_883_011_666_982_945,
                -0.010_597_401_784_997_278,
            ],
            Wavelet::Sym4 => &[
                -0.075_765_714_789_273_33,
                -0.029_635_527_645_998_51,
                0.497_618_667_632_015_45,
                0.803_738_751_805_916_1,
                0.297_857_795_605_277_36,
                -0.099_219_543_576_847_22,
                -0.012_603_967_262_037_833,
                0.032_223_100_604_042_7,
            ],
        }
    }

    /// Quadrature-mirror high-pass filter `g[k] = (−1)^k · h[L−1−k]`.
    pub fn highpass(self) -> Vec<f64> {
        let mut out = Vec::new();
        self.highpass_into(&mut out);
        out
    }

    /// [`Self::highpass`] written into a caller-owned buffer.
    #[expect(
        clippy::indexing_slicing,
        reason = "k < l = h.len(), so l − 1 − k indexes h"
    )]
    pub fn highpass_into(self, out: &mut Vec<f64>) {
        let h = self.lowpass();
        let l = h.len();
        out.clear();
        out.extend((0..l).map(|k| {
            let sign = if k % 2 == 0 { 1.0 } else { -1.0 };
            sign * h[l - 1 - k]
        }));
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            Wavelet::Haar => "haar",
            Wavelet::Db2 => "db2",
            Wavelet::Db4 => "db4",
            Wavelet::Sym4 => "sym4",
        }
    }
}

impl std::fmt::Display for Wavelet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A multilevel stationary wavelet decomposition.
///
/// `details[l]` holds the scale-`l+1` detail coefficients (finest first);
/// every band has the same length as the input.
#[derive(Debug, Clone, PartialEq)]
pub struct SwtDecomposition {
    /// Detail bands, finest scale first; each has the input's length.
    pub details: Vec<Vec<f64>>,
    /// Approximation band at the coarsest scale.
    pub approx: Vec<f64>,
    wavelet: Wavelet,
}

impl SwtDecomposition {
    /// The wavelet family used.
    pub fn wavelet(&self) -> Wavelet {
        self.wavelet
    }

    /// Number of decomposition levels.
    pub fn levels(&self) -> usize {
        self.details.len()
    }

    /// Signal length.
    pub fn len(&self) -> usize {
        self.approx.len()
    }

    /// Returns `true` if the decomposition is of an empty signal.
    pub fn is_empty(&self) -> bool {
        self.approx.is_empty()
    }
}

/// Circular filter of every column of a sample-major plane:
/// `y[i·cols + c] = Σ_k h[k]·x[((i + shift(k)) mod n)·cols + c]` over the
/// `n = x.len() / cols` rows, written into `out`.
///
/// Taps run outermost, then rows, then the contiguous columns, so every
/// element starts from `0.0` and adds its taps in order `k = 0..L` — the
/// same sum, in the same order, as the naive per-series loop: each column
/// is bit for bit the one-column result. The source row walks from
/// `shift(k)` and wraps to row 0 once, with no modulo per row.
#[expect(
    clippy::indexing_slicing,
    reason = "shift(k) < n and src wraps to 0 at n, so every source row lies inside x"
)]
fn filter_rows(
    x: &[f64],
    cols: usize,
    h: &[f64],
    shift: impl Fn(usize) -> usize,
    out: &mut Vec<f64>,
) {
    let n = x.len() / cols;
    out.clear();
    out.resize(x.len(), 0.0);
    for (k, &hk) in h.iter().enumerate() {
        let mut src = shift(k);
        for row in out.chunks_exact_mut(cols) {
            for (y, &v) in row.iter_mut().zip(&x[src * cols..(src + 1) * cols]) {
                *y += hk * v;
            }
            src += 1;
            if src == n {
                src = 0;
            }
        }
    }
}

/// Circular correlation of every column of the sample-major plane `x`
/// (`cols` series of `x.len() / cols` samples, sample `i` of series `c` at
/// `i·cols + c`) with filter `h` upsampled by `stride`:
/// `y[i] = Σ_k h[k]·x[(i + k·stride) mod n]` per column, written into `out`.
pub(crate) fn analyze_into(x: &[f64], cols: usize, h: &[f64], stride: usize, out: &mut Vec<f64>) {
    let n = x.len() / cols;
    filter_rows(x, cols, h, |k| (k * stride) % n, out);
}

/// Adjoint of [`analyze_into`]: circular convolution
/// `y[i] = Σ_k h[k]·x[(i − k·stride) mod n]` per column, written into `out`.
pub(crate) fn synthesize_into(
    x: &[f64],
    cols: usize,
    h: &[f64],
    stride: usize,
    out: &mut Vec<f64>,
) {
    let n = x.len() / cols;
    filter_rows(x, cols, h, |k| (n - (k * stride) % n) % n, out);
}

fn analyze(x: &[f64], h: &[f64], stride: usize) -> Vec<f64> {
    let mut out = Vec::new();
    analyze_into(x, 1, h, stride, &mut out);
    out
}

fn synthesize(x: &[f64], h: &[f64], stride: usize) -> Vec<f64> {
    let mut out = Vec::new();
    synthesize_into(x, 1, h, stride, &mut out);
    out
}

/// Multilevel stationary wavelet decomposition.
///
/// # Panics
///
/// Panics if `levels` is zero or the signal is shorter than 2 samples.
///
/// # Examples
///
/// ```
/// use wimi_dsp::wavelet::{swt_decompose, swt_reconstruct, Wavelet};
///
/// let x: Vec<f64> = (0..64).map(|i| (i as f64 * 0.2).sin()).collect();
/// let dec = swt_decompose(&x, Wavelet::Db4, 3);
/// let y = swt_reconstruct(&dec);
/// let err: f64 = x.iter().zip(&y).map(|(a, b)| (a - b).abs()).fold(0.0, f64::max);
/// assert!(err < 1e-10);
/// ```
pub fn swt_decompose(x: &[f64], wavelet: Wavelet, levels: usize) -> SwtDecomposition {
    assert!(levels > 0, "need at least one decomposition level");
    assert!(x.len() >= 2, "signal must have at least 2 samples");
    let h = wavelet.lowpass();
    let g = wavelet.highpass();
    let mut approx = x.to_vec();
    let mut details = Vec::with_capacity(levels);
    for l in 0..levels {
        let stride = 1usize << l;
        let d = analyze(&approx, &g, stride);
        let a = analyze(&approx, h, stride);
        details.push(d);
        approx = a;
    }
    SwtDecomposition {
        details,
        approx,
        wavelet,
    }
}

/// Inverse stationary wavelet transform (perfect reconstruction for
/// orthonormal families).
#[expect(
    clippy::indexing_slicing,
    reason = "l < dec.levels() = dec.details.len()"
)]
pub fn swt_reconstruct(dec: &SwtDecomposition) -> Vec<f64> {
    let h = dec.wavelet.lowpass();
    let g = dec.wavelet.highpass();
    let mut approx = dec.approx.clone();
    for l in (0..dec.levels()).rev() {
        let stride = 1usize << l;
        let from_a = synthesize(&approx, h, stride);
        let from_d = synthesize(&dec.details[l], &g, stride);
        approx = from_a
            .iter()
            .zip(&from_d)
            .map(|(a, d)| 0.5 * (a + d))
            .collect();
    }
    approx
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chirp(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let t = i as f64 / n as f64;
                (2.0 * std::f64::consts::PI * (3.0 + 10.0 * t) * t).sin()
            })
            .collect()
    }

    fn energy(xs: &[f64]) -> f64 {
        xs.iter().map(|v| v * v).sum()
    }

    /// Naive modular-index reference for one column of [`analyze_into`]:
    /// each output starts from `0.0` and adds its taps in order — the sum
    /// the batched kernel must match bit for bit.
    fn analyze_ref(x: &[f64], h: &[f64], stride: usize) -> Vec<f64> {
        let n = x.len();
        (0..n)
            .map(|i| {
                h.iter()
                    .enumerate()
                    .fold(0.0, |acc, (k, &hk)| acc + hk * x[(i + k * stride) % n])
            })
            .collect()
    }

    /// Naive reference for one column of [`synthesize_into`].
    fn synthesize_ref(x: &[f64], h: &[f64], stride: usize) -> Vec<f64> {
        let n = x.len();
        (0..n)
            .map(|i| {
                h.iter().enumerate().fold(0.0, |acc, (k, &hk)| {
                    acc + hk * x[(i + n * h.len() * stride - k * stride) % n]
                })
            })
            .collect()
    }

    #[test]
    fn wrap_split_kernels_match_naive_reference_bitwise() {
        for &n in &[2usize, 7, 13, 15, 20, 33, 64, 101] {
            for cols in [1usize, 3, 90] {
                // Column c is a chirp scaled and offset by c, so no two
                // columns coincide; a zero column checks signed zeros.
                let series: Vec<Vec<f64>> = (0..cols)
                    .map(|c| {
                        chirp(n)
                            .iter()
                            .map(|v| {
                                if c == 2 {
                                    -0.0
                                } else {
                                    v * (1.0 + c as f64 * 0.01) + c as f64
                                }
                            })
                            .collect()
                    })
                    .collect();
                let plane: Vec<f64> = (0..n * cols).map(|j| series[j % cols][j / cols]).collect();
                for w in Wavelet::ALL {
                    let h = w.lowpass();
                    let g = w.highpass();
                    for level in 0..5 {
                        let stride = 1usize << level;
                        for f in [h, &g[..]] {
                            let mut a = Vec::new();
                            let mut s = Vec::new();
                            analyze_into(&plane, cols, f, stride, &mut a);
                            synthesize_into(&plane, cols, f, stride, &mut s);
                            for (c, x) in series.iter().enumerate() {
                                let what = format!("{w} n={n} cols={cols} c={c} s={stride}");
                                let want_a = analyze_ref(x, f, stride);
                                let want_s = synthesize_ref(x, f, stride);
                                for i in 0..n {
                                    let j = i * cols + c;
                                    assert_eq!(
                                        a[j].to_bits(),
                                        want_a[i].to_bits(),
                                        "analyze {what}"
                                    );
                                    assert_eq!(
                                        s[j].to_bits(),
                                        want_s[i].to_bits(),
                                        "synthesize {what}"
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn filters_are_orthonormal() {
        for w in Wavelet::ALL {
            let h = w.lowpass();
            let norm: f64 = h.iter().map(|x| x * x).sum();
            assert!((norm - 1.0).abs() < 1e-12, "{w} norm = {norm}");
            let sum: f64 = h.iter().sum();
            assert!(
                (sum - std::f64::consts::SQRT_2).abs() < 1e-10,
                "{w} sum = {sum}"
            );
        }
    }

    #[test]
    fn highpass_is_orthogonal_to_lowpass() {
        for w in Wavelet::ALL {
            let h = w.lowpass();
            let g = w.highpass();
            let dot: f64 = h.iter().zip(&g).map(|(a, b)| a * b).sum();
            assert!(dot.abs() < 1e-12, "{w} <h,g> = {dot}");
            let gsum: f64 = g.iter().sum();
            assert!(gsum.abs() < 1e-10, "{w} Σg = {gsum}");
        }
    }

    #[test]
    fn perfect_reconstruction_all_families() {
        let x = chirp(100);
        for w in Wavelet::ALL {
            let dec = swt_decompose(&x, w, 4);
            let y = swt_reconstruct(&dec);
            let err = x
                .iter()
                .zip(&y)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max);
            assert!(err < 1e-10, "{w}: max reconstruction error {err}");
        }
    }

    #[test]
    fn perfect_reconstruction_odd_lengths() {
        // Stationary transform must not care about divisibility.
        for &n in &[7usize, 13, 33, 101] {
            let x = chirp(n);
            let dec = swt_decompose(&x, Wavelet::Db4, 3);
            let y = swt_reconstruct(&dec);
            let err = x
                .iter()
                .zip(&y)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max);
            assert!(err < 1e-10, "n = {n}: error {err}");
        }
    }

    #[test]
    fn bands_have_input_length() {
        let x = chirp(50);
        let dec = swt_decompose(&x, Wavelet::Db2, 3);
        assert_eq!(dec.levels(), 3);
        assert_eq!(dec.len(), 50);
        for d in &dec.details {
            assert_eq!(d.len(), 50);
        }
        assert_eq!(dec.approx.len(), 50);
    }

    #[test]
    fn energy_is_preserved() {
        // Parseval for the union of bands, accounting for the 2× redundancy
        // per level: ‖a_l‖² + ‖d_l‖² = 2·‖a_{l−1}‖² in the undecimated
        // transform with unit-norm filters... verified empirically: the
        // level-1 split preserves energy doubled.
        let x = chirp(64);
        let dec = swt_decompose(&x, Wavelet::Haar, 1);
        let in_e = energy(&x);
        let out_e = energy(&dec.details[0]) + energy(&dec.approx);
        assert!(
            (out_e - 2.0 * in_e).abs() / in_e < 1e-9,
            "in {in_e}, out {out_e}"
        );
    }

    #[test]
    fn smooth_signal_energy_concentrates_in_approx() {
        let x: Vec<f64> = (0..128)
            .map(|i| (2.0 * std::f64::consts::PI * i as f64 / 128.0).sin())
            .collect();
        let dec = swt_decompose(&x, Wavelet::Db4, 4);
        let approx_e = energy(&dec.approx);
        let detail_e: f64 = dec.details.iter().map(|d| energy(d)).sum();
        assert!(approx_e > 10.0 * detail_e);
    }

    #[test]
    fn impulse_is_localised_in_fine_details() {
        let mut x = vec![0.0; 128];
        x[64] = 1.0;
        let dec = swt_decompose(&x, Wavelet::Haar, 4);
        // The finest band's largest coefficient sits at the impulse.
        let (argmax, _) = dec.details[0]
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.abs().partial_cmp(&b.1.abs()).unwrap())
            .unwrap();
        assert!((argmax as i64 - 64).abs() <= 2, "argmax = {argmax}");
        // And the band is sparse: few non-negligible coefficients.
        let active = dec.details[0].iter().filter(|w| w.abs() > 1e-9).count();
        assert!(active <= 4, "active = {active}");
    }

    #[test]
    #[should_panic(expected = "at least one decomposition level")]
    fn zero_levels_rejected() {
        let _ = swt_decompose(&[1.0, 2.0], Wavelet::Haar, 0);
    }

    #[test]
    fn display_names() {
        assert_eq!(Wavelet::Db4.to_string(), "db4");
        assert_eq!(Wavelet::default(), Wavelet::Db2);
    }
}

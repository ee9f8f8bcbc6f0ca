//! CSI amplitude denoising and the cross-antenna amplitude ratio
//! (paper §III-C).
//!
//! The pipeline per (antenna, subcarrier) amplitude time series:
//!
//! 1. 3σ outlier rejection (repair by interpolation),
//! 2. spatially-selective wavelet-correlation denoising,
//! 3. cross-antenna ratio `|H_a|/|H_b|`, whose common AGC/multipath
//!    variation cancels (paper Fig. 8).

#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

use wimi_dsp::outlier::{reject_outliers_into, OutlierScratch};
use wimi_dsp::stats::{median_in, variance};
use wimi_dsp::wavelet::denoise::DenoiseScratch;
use wimi_dsp::wavelet::CorrelationDenoiser;
use wimi_phy::csi::{magnitude, CsiCapture};

/// Configuration of the amplitude stage.
#[derive(Debug, Clone, PartialEq)]
pub struct AmplitudeConfig {
    /// Apply 3σ outlier rejection.
    pub reject_outliers: bool,
    /// Apply the wavelet-correlation denoiser.
    pub wavelet_denoise: bool,
    /// Denoiser settings.
    pub denoiser: CorrelationDenoiser,
}

impl Default for AmplitudeConfig {
    fn default() -> Self {
        AmplitudeConfig {
            reject_outliers: true,
            wavelet_denoise: true,
            denoiser: CorrelationDenoiser::default(),
        }
    }
}

impl AmplitudeConfig {
    /// A configuration with every cleaning step off (the paper's
    /// "w/o noise removed" ablation of Fig. 14).
    pub fn raw() -> Self {
        AmplitudeConfig {
            reject_outliers: false,
            wavelet_denoise: false,
            denoiser: CorrelationDenoiser::default(),
        }
    }

    /// Cleans one amplitude time series according to the configuration.
    pub fn clean_series(&self, series: &[f64]) -> Vec<f64> {
        let mut out = Vec::new();
        self.clean_series_into(series, &mut CleanScratch::default(), &mut out);
        out
    }

    /// [`Self::clean_series`] through caller-owned buffers — the
    /// one-column case of the batched cleaning chain.
    pub fn clean_series_into(
        &self,
        series: &[f64],
        scratch: &mut CleanScratch,
        out: &mut Vec<f64>,
    ) {
        out.clear();
        out.extend_from_slice(series);
        self.clean_columns(out, 1, scratch);
    }

    /// Cleans, in place, every column of a sample-major plane holding
    /// `cols` series (sample `m` of series `c` at `m·cols + c`): the 3σ
    /// repair per column, then the denoiser over all columns at once.
    /// Each column comes out bit for bit as its series cleaned alone.
    ///
    /// The 3σ statistics of every column run row by row
    /// ([`sigma_screen`]); only a column with a sample outside its
    /// `[μ − 3σ, μ + 3σ]` is gathered and repaired. Any other column is
    /// one the repair leaves as it is.
    #[expect(
        clippy::indexing_slicing,
        reason = "sigma_screen leaves 2·cols statistics, so cols + c < 2·cols and the gathered series starts at 2·cols"
    )]
    fn clean_columns(&self, plane: &mut [f64], cols: usize, scratch: &mut CleanScratch) {
        if self.reject_outliers {
            let stats = &mut scratch.column;
            sigma_screen(plane, cols, stats);
            for c in 0..cols {
                if stats[cols + c] >= 0.0 {
                    continue;
                }
                stats.truncate(2 * cols);
                stats.extend(plane.iter().skip(c).step_by(cols));
                reject_outliers_into(
                    &stats[2 * cols..],
                    3.0,
                    &mut scratch.outlier,
                    &mut scratch.rejected,
                );
                for (x, &v) in plane
                    .iter_mut()
                    .skip(c)
                    .step_by(cols)
                    .zip(&scratch.rejected)
                {
                    *x = v;
                }
            }
        }
        if self.wavelet_denoise {
            self.denoiser
                .denoise_columns(plane, cols, &mut scratch.denoise);
        }
    }
}

/// The 3σ statistics of every column of a sample-major plane, in
/// row-major passes: `stats[..cols]` gets each column's mean and
/// `stats[cols..2·cols]` its bound `3σ`, or `−∞` when a sample `x` of the
/// column fails `|x − μ| ≤ 3σ` (a NaN bound fails every sample).
///
/// Each column's sums start from `-0.0` and add its samples in row order,
/// as `Iterator::sum` does over the gathered series, so `μ`, `σ` and the
/// flags are the bits `reject_outliers_into` computes for that column.
fn sigma_screen(plane: &[f64], cols: usize, stats: &mut Vec<f64>) {
    let rows = plane.len() / cols;
    let n = rows as f64;
    stats.clear();
    // Room for the gathered series too, so a repair does not regrow it.
    stats.reserve(2 * cols + rows);
    stats.resize(2 * cols, -0.0);
    let (mean, bound) = stats.split_at_mut(cols);
    for row in plane.chunks_exact(cols) {
        for (m, &x) in mean.iter_mut().zip(row) {
            *m += x;
        }
    }
    for m in mean.iter_mut() {
        *m /= n;
    }
    for row in plane.chunks_exact(cols) {
        for ((q, &m), &x) in bound.iter_mut().zip(&*mean).zip(row) {
            *q += (x - m) * (x - m);
        }
    }
    for q in bound.iter_mut() {
        *q = 3.0 * (*q / n).sqrt();
    }
    for row in plane.chunks_exact(cols) {
        for ((b, &m), &x) in bound.iter_mut().zip(&*mean).zip(row) {
            *b = if (x - m).abs() <= *b {
                *b
            } else {
                f64::NEG_INFINITY
            };
        }
    }
}

/// Scratch buffers for [`AmplitudeConfig::clean_series_into`], shared by
/// every series a measurement cleans.
#[derive(Debug, Clone, Default)]
pub struct CleanScratch {
    /// The per-column 3σ statistics of [`sigma_screen`] followed by one
    /// flagged series gathered out of the plane for repair, and
    /// (`rejected`) its repaired copy.
    column: Vec<f64>,
    rejected: Vec<f64>,
    outlier: OutlierScratch,
    denoise: DenoiseScratch,
}

/// The cleaned per-(antenna, subcarrier) amplitude time series of one
/// capture — of every antenna, or of those a measurement's pairs read —
/// computed once and shared across antenna pairs.
///
/// The amplitude cleaning chain (outlier repair + wavelet denoise) is a
/// function of a single antenna's series, yet each antenna participates in
/// several pairs — computing the cleaned series per *pair* repeats the
/// most expensive stage of the pipeline. Building this cache up front
/// de-duplicates that work; [`AmplitudeRatioProfile::from_cleaned`] then
/// forms ratios from the cached series.
///
/// The plane keeps the capture's own sample-major layout: packet `m` of
/// series `(a, k)` sits at `m · cols + a · n_subcarriers + k`, with
/// `cols = n_antennas · n_subcarriers`. The cleaning kernels run over all
/// `cols` series at once, row by row.
#[derive(Debug, Clone)]
pub struct CleanedAmplitudes {
    n_antennas: usize,
    n_subcarriers: usize,
    plane: Vec<f64>,
}

impl CleanedAmplitudes {
    /// Cleans every (antenna, subcarrier) series of the capture.
    ///
    /// # Panics
    ///
    /// Panics if the capture is empty.
    pub fn compute(capture: &CsiCapture, config: &AmplitudeConfig) -> Self {
        Self::compute_antennas_with(capture, |_| true, config, &mut CleanScratch::default())
    }

    /// [`Self::compute`] over the antennas `keep` accepts alone, through
    /// caller-owned scratch: the `j`-th kept antenna of the capture, in
    /// ascending order, is antenna `j` of the result. Every column is
    /// cleaned on its own, so each kept series carries the bits `compute`
    /// gives it, without the work on the antennas left out, and the
    /// baseline and target captures of one measurement share one set of
    /// cleaning buffers.
    ///
    /// # Panics
    ///
    /// Panics if the capture is empty.
    pub(crate) fn compute_antennas_with(
        capture: &CsiCapture,
        keep: impl Fn(usize) -> bool,
        config: &AmplitudeConfig,
        scratch: &mut CleanScratch,
    ) -> Self {
        assert!(!capture.is_empty(), "capture holds no packets");
        let n_subcarriers = capture.n_subcarriers();
        let n_antennas = (0..capture.n_antennas()).filter(|&a| keep(a)).count();
        let cols = capture.n_antennas() * n_subcarriers;
        let (re, im) = capture.planes();
        let mut plane = Vec::with_capacity(capture.len() * n_antennas * n_subcarriers);
        for (row_re, row_im) in re.chunks_exact(cols).zip(im.chunks_exact(cols)) {
            let antennas = row_re
                .chunks_exact(n_subcarriers)
                .zip(row_im.chunks_exact(n_subcarriers));
            for (a, (ant_re, ant_im)) in antennas.enumerate() {
                if keep(a) {
                    plane.extend(ant_re.iter().zip(ant_im).map(|(&r, &i)| magnitude(r, i)));
                }
            }
        }
        config.clean_columns(&mut plane, n_antennas * n_subcarriers, scratch);
        CleanedAmplitudes {
            n_antennas,
            n_subcarriers,
            plane,
        }
    }

    /// The cleaned series of one (antenna, subcarrier), in packet order.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    #[expect(
        clippy::indexing_slicing,
        reason = "both indices are asserted in range, and the plane holds at least one row of n_antennas·n_subcarriers values"
    )]
    pub fn series(&self, antenna: usize, subcarrier: usize) -> impl Iterator<Item = f64> + '_ {
        assert!(antenna < self.n_antennas, "antenna index out of range");
        assert!(subcarrier < self.n_subcarriers, "subcarrier out of range");
        let cols = self.n_antennas * self.n_subcarriers;
        self.plane[antenna * self.n_subcarriers + subcarrier..]
            .iter()
            .step_by(cols)
            .copied()
    }

    /// Number of antennas covered.
    pub fn n_antennas(&self) -> usize {
        self.n_antennas
    }

    /// Number of subcarriers covered.
    pub fn n_subcarriers(&self) -> usize {
        self.n_subcarriers
    }

    /// Number of packets per series.
    pub fn n_packets(&self) -> usize {
        self.plane.len() / (self.n_antennas * self.n_subcarriers)
    }
}

/// Per-subcarrier amplitude-ratio summary for one antenna pair over a
/// capture.
#[derive(Debug, Clone, PartialEq)]
pub struct AmplitudeRatioProfile {
    /// Antenna pair (a, b).
    pub pair: (usize, usize),
    /// Median cleaned ratio `|H_a|/|H_b|` per subcarrier. The median (not
    /// the arithmetic mean) because the per-packet ratio is heavy-tailed:
    /// a single packet catching the denominator antenna in a deep fade
    /// skews the mean of a 20-packet capture enough to corrupt `ln ΔΨ`
    /// for low-loss liquids.
    pub mean: Vec<f64>,
    /// Variance of the cleaned per-packet ratio per subcarrier.
    pub variance: Vec<f64>,
}

impl AmplitudeRatioProfile {
    /// Computes the profile: cleans each antenna's amplitude series, then
    /// forms the per-packet ratio and summarises it.
    ///
    /// # Panics
    ///
    /// Panics if the capture is empty, indices are out of range or equal.
    pub fn compute(capture: &CsiCapture, a: usize, b: usize, config: &AmplitudeConfig) -> Self {
        Self::from_cleaned(&CleanedAmplitudes::compute(capture, config), a, b)
    }

    /// Builds the profile from pre-cleaned series, without repeating the
    /// per-antenna cleaning for every pair the antenna appears in.
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range or equal.
    pub fn from_cleaned(cleaned: &CleanedAmplitudes, a: usize, b: usize) -> Self {
        Self::from_cleaned_with(cleaned, a, b, &mut RatioScratch::default())
    }

    /// [`Self::from_cleaned`] through caller-owned ratio and sort buffers,
    /// reused across the profiles of one measurement — same bits.
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range or equal.
    pub fn from_cleaned_with(
        cleaned: &CleanedAmplitudes,
        a: usize,
        b: usize,
        scratch: &mut RatioScratch,
    ) -> Self {
        assert!(a != b, "amplitude ratio needs two distinct antennas");
        let n_ant = cleaned.n_antennas();
        assert!(a < n_ant && b < n_ant, "antenna index out of range");

        let n_sub = cleaned.n_subcarriers();
        let mut mean = Vec::with_capacity(n_sub);
        let mut var = Vec::with_capacity(n_sub);
        let RatioScratch { ratio, sort } = scratch;
        for k in 0..n_sub {
            ratio.clear();
            ratio.reserve(cleaned.n_packets());
            ratio.extend(
                cleaned
                    .series(a, k)
                    .zip(cleaned.series(b, k))
                    .map(|(x, y)| if y > 0.0 { x / y } else { f64::NAN })
                    .filter(|r| r.is_finite()),
            );
            if ratio.is_empty() {
                mean.push(f64::NAN);
                var.push(f64::NAN);
            } else {
                mean.push(median_in(ratio, sort));
                var.push(variance(ratio));
            }
        }
        AmplitudeRatioProfile {
            pair: (a, b),
            mean,
            variance: var,
        }
    }

    /// Number of subcarriers.
    pub fn len(&self) -> usize {
        self.mean.len()
    }

    /// Returns `true` for an empty profile (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.mean.is_empty()
    }

    /// Mean ratio variance across subcarriers — the pair-stability score
    /// for antenna selection (paper Fig. 10b).
    pub fn mean_variance(&self) -> f64 {
        let finite = || self.variance.iter().filter(|v| v.is_finite());
        match finite().count() {
            0 => f64::NAN,
            n => finite().sum::<f64>() / n as f64,
        }
    }
}

/// Ratio and sort buffers for
/// [`AmplitudeRatioProfile::from_cleaned_with`].
#[derive(Debug, Clone, Default)]
pub struct RatioScratch {
    ratio: Vec<f64>,
    sort: Vec<f64>,
}

/// Per-antenna amplitude variance per subcarrier (uncleaned) — used for
/// the Fig. 8 comparison of single-antenna amplitude vs. the ratio.
pub fn per_antenna_amplitude_variance(capture: &CsiCapture, antenna: usize) -> Vec<f64> {
    assert!(!capture.is_empty(), "capture holds no packets");
    (0..capture.n_subcarriers())
        .map(|k| variance(&capture.amplitude_series(antenna, k)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wimi_dsp::stats::mean;
    use wimi_phy::csi::CsiSource;
    use wimi_phy::scenario::{Scenario, Simulator};

    fn capture() -> CsiCapture {
        let mut sim = Simulator::new(Scenario::builder().build(), 17);
        sim.capture(120)
    }

    #[test]
    fn profile_dimensions() {
        let cap = capture();
        let prof = AmplitudeRatioProfile::compute(&cap, 0, 1, &AmplitudeConfig::default());
        assert_eq!(prof.len(), 30);
        assert_eq!(prof.pair, (0, 1));
        assert!(!prof.is_empty());
        assert!(prof.mean.iter().all(|m| m.is_finite() && *m > 0.0));
    }

    #[test]
    fn ratio_is_more_stable_than_single_antenna() {
        // Reproduces the paper's Fig. 8 observation: AGC wobble and common
        // multipath cancel in the ratio.
        let cap = capture();
        let prof = AmplitudeRatioProfile::compute(&cap, 0, 1, &AmplitudeConfig::raw());
        let ant0 = per_antenna_amplitude_variance(&cap, 0);
        // Compare normalised variation (variance / mean²) averaged over
        // subcarriers.
        let mean_amp: Vec<f64> = (0..30).map(|k| mean(&cap.amplitude_series(0, k))).collect();
        let cv_ant: f64 = (0..30)
            .map(|k| ant0[k] / (mean_amp[k] * mean_amp[k]))
            .sum::<f64>()
            / 30.0;
        let cv_ratio: f64 = (0..30)
            .map(|k| prof.variance[k] / (prof.mean[k] * prof.mean[k]))
            .sum::<f64>()
            / 30.0;
        assert!(
            cv_ratio < cv_ant,
            "ratio CV ({cv_ratio:.5}) should beat single-antenna CV ({cv_ant:.5})"
        );
    }

    #[test]
    fn cached_profiles_match_direct_compute_bitwise() {
        let cap = capture();
        for config in [AmplitudeConfig::default(), AmplitudeConfig::raw()] {
            let cleaned = CleanedAmplitudes::compute(&cap, &config);
            for (a, b) in [(0usize, 1usize), (0, 2), (1, 2), (2, 0)] {
                let direct = AmplitudeRatioProfile::compute(&cap, a, b, &config);
                let cached = AmplitudeRatioProfile::from_cleaned(&cleaned, a, b);
                assert_eq!(direct.pair, cached.pair);
                assert_eq!(direct.mean.len(), cached.mean.len());
                for (x, y) in direct.mean.iter().zip(&cached.mean) {
                    assert_eq!(x.to_bits(), y.to_bits());
                }
                for (x, y) in direct.variance.iter().zip(&cached.variance) {
                    assert_eq!(x.to_bits(), y.to_bits());
                }
            }
        }
    }

    #[test]
    fn kept_antennas_clean_to_the_same_bits() {
        let mut scratch = CleanScratch::default();
        for (seed, packets) in [(3u64, 20usize), (4, 5), (6, 33)] {
            let cap = Simulator::new(Scenario::builder().build(), seed).capture(packets);
            for config in &flag_configs() {
                let all = CleanedAmplitudes::compute(&cap, config);
                for keep in [[0usize, 1usize], [0, 2], [1, 2]] {
                    let kept = CleanedAmplitudes::compute_antennas_with(
                        &cap,
                        |a| keep.contains(&a),
                        config,
                        &mut scratch,
                    );
                    assert_eq!(kept.n_antennas(), 2);
                    assert_eq!(kept.n_packets(), packets);
                    for (j, &a) in keep.iter().enumerate() {
                        for k in 0..cap.n_subcarriers() {
                            let want: Vec<f64> = all.series(a, k).collect();
                            let got: Vec<f64> = kept.series(j, k).collect();
                            assert_eq!(got.len(), want.len());
                            for (x, y) in got.iter().zip(&want) {
                                assert_eq!(x.to_bits(), y.to_bits(), "{keep:?} ({a}, {k})");
                            }
                        }
                    }
                }
            }
        }
    }

    fn flag_configs() -> [AmplitudeConfig; 4] {
        [
            AmplitudeConfig::default(),
            AmplitudeConfig::raw(),
            AmplitudeConfig {
                reject_outliers: true,
                wavelet_denoise: false,
                denoiser: CorrelationDenoiser::default(),
            },
            AmplitudeConfig {
                reject_outliers: false,
                wavelet_denoise: true,
                denoiser: CorrelationDenoiser::default(),
            },
        ]
    }

    #[test]
    fn flat_cleaned_series_match_clean_series_bitwise() {
        // One scratch shared across captures of different lengths (short
        // ones skip the denoiser) and configurations, as `measure` shares
        // it between the baseline and target captures.
        let mut scratch = CleanScratch::default();
        let mut ratio = RatioScratch::default();
        for (seed, packets) in [(3u64, 20usize), (4, 5), (5, 8), (6, 33), (7, 1)] {
            let cap = Simulator::new(Scenario::builder().build(), seed).capture(packets);
            for config in &flag_configs() {
                let flat =
                    CleanedAmplitudes::compute_antennas_with(&cap, |_| true, config, &mut scratch);
                assert_eq!(flat.n_packets(), packets);
                for a in 0..cap.n_antennas() {
                    for k in 0..cap.n_subcarriers() {
                        let reference = config.clean_series(&cap.amplitude_series(a, k));
                        let got: Vec<f64> = flat.series(a, k).collect();
                        assert_eq!(got.len(), reference.len(), "{packets} packets ({a}, {k})");
                        for (x, y) in got.iter().zip(&reference) {
                            assert_eq!(x.to_bits(), y.to_bits(), "{packets} packets ({a}, {k})");
                        }
                    }
                }
                for (a, b) in [(0usize, 1usize), (2, 0)] {
                    let shared = AmplitudeRatioProfile::from_cleaned_with(&flat, a, b, &mut ratio);
                    let direct = AmplitudeRatioProfile::compute(&cap, a, b, config);
                    for (x, y) in shared.mean.iter().zip(&direct.mean) {
                        assert_eq!(x.to_bits(), y.to_bits());
                    }
                    for (x, y) in shared.variance.iter().zip(&direct.variance) {
                        assert_eq!(x.to_bits(), y.to_bits());
                    }
                }
            }
        }
    }

    /// Largest `|batched − reference|` over the raw series' peak magnitude
    /// that the residual-form denoiser may leave (`tests/exact_rewrites.rs`
    /// explains the bound).
    const DENOISE_TOLERANCE: f64 = 5e-12;

    /// Verbatim copy of the per-series cleaning chain the batched kernels
    /// replaced: 3σ repair, then the correlation denoiser with its
    /// wrap-split SWT kernels, two-sort robust σ and full round-trip
    /// reconstruction, one series at a time.
    mod per_series_reference {
        use wimi_dsp::outlier::reject_outliers_3sigma;
        use wimi_dsp::stats::median;
        use wimi_dsp::wavelet::CorrelationDenoiser;

        pub fn clean_series(
            series: &[f64],
            reject_outliers: bool,
            wavelet_denoise: bool,
            cfg: &CorrelationDenoiser,
        ) -> Vec<f64> {
            let mut xs = series.to_vec();
            if reject_outliers {
                xs = reject_outliers_3sigma(&xs);
            }
            if wavelet_denoise {
                xs = denoise(cfg, &xs);
            }
            xs
        }

        fn accumulate_rotated(y: &mut [f64], x: &[f64], hk: f64, off: usize) {
            let n = x.len();
            let split = n - off;
            for (yi, &xi) in y[..split].iter_mut().zip(&x[off..]) {
                *yi += hk * xi;
            }
            for (yi, &xi) in y[split..].iter_mut().zip(&x[..off]) {
                *yi += hk * xi;
            }
        }

        fn analyze(x: &[f64], h: &[f64], stride: usize) -> Vec<f64> {
            let n = x.len();
            let mut out = vec![0.0; n];
            for (k, &hk) in h.iter().enumerate() {
                accumulate_rotated(&mut out, x, hk, (k * stride) % n);
            }
            out
        }

        fn synthesize(x: &[f64], h: &[f64], stride: usize) -> Vec<f64> {
            let n = x.len();
            let mut out = vec![0.0; n];
            for (k, &hk) in h.iter().enumerate() {
                accumulate_rotated(&mut out, x, hk, (n - (k * stride) % n) % n);
            }
            out
        }

        fn robust_std(xs: &[f64]) -> f64 {
            let med = median(xs);
            let dev: Vec<f64> = xs.iter().map(|x| (x - med).abs()).collect();
            median(&dev) / 0.6745
        }

        fn denoise(cfg: &CorrelationDenoiser, xs: &[f64]) -> Vec<f64> {
            if xs.len() < 8 {
                return xs.to_vec();
            }
            let taps = cfg.wavelet.lowpass().len();
            let mut max_levels = 1usize;
            while (taps - 1) * (1usize << max_levels) < xs.len() {
                max_levels += 1;
            }
            let levels = cfg.levels.min(max_levels);
            if levels < 2 {
                return xs.to_vec();
            }
            let h = cfg.wavelet.lowpass();
            let g = cfg.wavelet.highpass();
            let mut approx = xs.to_vec();
            let mut details = Vec::new();
            for l in 0..levels {
                details.push(analyze(&approx, &g, 1 << l));
                approx = analyze(&approx, h, 1 << l);
            }
            let sigma = robust_std(&details[0]);
            let n = xs.len() as f64;
            for l in 0..levels - 1 {
                let threshold = cfg.threshold_scale * n * sigma * sigma;
                let coarser = details[l + 1].clone();
                let w = &mut details[l];
                for _ in 0..cfg.max_iterations {
                    let pw: f64 = w.iter().map(|v| v * v).sum();
                    if pw <= threshold {
                        break;
                    }
                    let corr: Vec<f64> = w.iter().zip(&coarser).map(|(a, b)| a * b).collect();
                    let pcorr: f64 = corr.iter().map(|c| c * c).sum();
                    if pcorr <= 0.0 {
                        w.iter_mut().for_each(|v| *v = 0.0);
                        break;
                    }
                    let norm = (pw / pcorr).sqrt();
                    let mut zeroed = 0usize;
                    for m in 0..w.len() {
                        if w[m].abs() > 0.0 && w[m].abs() >= (corr[m] * norm).abs() {
                            w[m] = 0.0;
                            zeroed += 1;
                        }
                    }
                    if zeroed == 0 {
                        break;
                    }
                }
            }
            for l in (0..levels).rev() {
                let from_a = synthesize(&approx, h, 1 << l);
                let from_d = synthesize(&details[l], &g, 1 << l);
                approx = from_a
                    .iter()
                    .zip(&from_d)
                    .map(|(a, d)| 0.5 * (a + d))
                    .collect();
            }
            approx
        }
    }

    #[test]
    fn batched_cleaning_matches_lone_series_and_per_series_reference() {
        use wimi_phy::fault::FaultPlan;
        let mut scratch = CleanScratch::default();
        let (mut repaired, mut worst) = (0usize, 0.0f64);
        for packets in [8usize, 10, 14, 15, 20, 40] {
            for (seed, faulted) in [(11u64, false), (12, true), (13, true)] {
                let mut cap = Simulator::new(Scenario::builder().build(), seed).capture(packets);
                if faulted {
                    // Interference and AGC jumps put outliers into the
                    // amplitude series for the 3σ repair to fix.
                    let plan = FaultPlan::new(seed)
                        .with_interference(0.2)
                        .with_agc_jump(0.15, 6.0)
                        .with_saturation(0.1, 0.35);
                    cap = plan.apply(&cap, seed);
                }
                for config in &flag_configs() {
                    let batched = CleanedAmplitudes::compute_antennas_with(
                        &cap,
                        |_| true,
                        config,
                        &mut scratch,
                    );
                    for a in 0..cap.n_antennas() {
                        for k in 0..cap.n_subcarriers() {
                            let what =
                                format!("{packets} packets seed {seed} {config:?} ({a}, {k})");
                            let raw = cap.amplitude_series(a, k);
                            let got: Vec<f64> = batched.series(a, k).collect();
                            // Bit for bit the series cleaned alone.
                            let lone = config.clean_series(&raw);
                            assert_eq!(got.len(), lone.len());
                            for (m, (x, y)) in got.iter().zip(&lone).enumerate() {
                                assert_eq!(x.to_bits(), y.to_bits(), "{what} m={m}");
                            }
                            let want = per_series_reference::clean_series(
                                &raw,
                                config.reject_outliers,
                                config.wavelet_denoise,
                                &config.denoiser,
                            );
                            if config.reject_outliers && !config.wavelet_denoise {
                                repaired += usize::from(
                                    want.iter()
                                        .zip(&raw)
                                        .any(|(x, y)| x.to_bits() != y.to_bits()),
                                );
                            }
                            // The repair is bitwise; the residual-form
                            // denoiser agrees with the round trip within
                            // the filter taps' orthonormality defect.
                            let scale = raw.iter().fold(0.0f64, |s, x| s.max(x.abs()));
                            assert_eq!(got.len(), want.len());
                            for (m, (x, y)) in got.iter().zip(&want).enumerate() {
                                let err = (x - y).abs() / scale;
                                if !config.wavelet_denoise {
                                    assert_eq!(x.to_bits(), y.to_bits(), "{what} m={m}");
                                }
                                assert!(err <= DENOISE_TOLERANCE, "{what} m={m}: {x} vs {y}");
                                worst = worst.max(err);
                            }
                        }
                    }
                }
            }
        }
        println!("worst relative error {worst:e}");
        assert!(repaired > 0, "no faulted series had an outlier repaired");
    }

    #[test]
    fn clean_series_into_matches_allocating_variant_bitwise() {
        let mut series: Vec<f64> = (0..64)
            .map(|i| 1.0 + 0.01 * (i as f64 * 0.4).sin())
            .collect();
        series[30] = 50.0;
        let mut scratch = CleanScratch::default();
        let mut out = Vec::new();
        for config in flag_configs() {
            config.clean_series_into(&series, &mut scratch, &mut out);
            let reference = config.clean_series(&series);
            assert_eq!(out.len(), reference.len());
            for (x, y) in out.iter().zip(&reference) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn cleaning_reduces_ratio_variance() {
        // One capture can go either way, so the claim is pooled: over
        // seeds 1..=40, cleaning cuts the summed variance to at most 0.6×
        // the raw one and shrinks it on at least 28 seeds.
        let (mut raw_sum, mut cleaned_sum, mut shrunk) = (0.0, 0.0, 0);
        for seed in 1..=40 {
            let cap = Simulator::new(Scenario::builder().build(), seed).capture(120);
            let raw =
                AmplitudeRatioProfile::compute(&cap, 0, 1, &AmplitudeConfig::raw()).mean_variance();
            let cleaned = AmplitudeRatioProfile::compute(&cap, 0, 1, &AmplitudeConfig::default())
                .mean_variance();
            raw_sum += raw;
            cleaned_sum += cleaned;
            shrunk += usize::from(cleaned < raw);
        }
        assert!(
            cleaned_sum <= 0.6 * raw_sum,
            "cleaning should shrink variance: raw {raw_sum} vs cleaned {cleaned_sum}"
        );
        assert!(
            shrunk >= 28,
            "cleaning shrank variance on {shrunk}/40 seeds"
        );
    }

    #[test]
    fn clean_series_respects_flags() {
        let mut series: Vec<f64> = (0..64)
            .map(|i| 1.0 + 0.01 * (i as f64 * 0.4).sin())
            .collect();
        series[30] = 50.0;
        let raw = AmplitudeConfig::raw().clean_series(&series);
        assert_eq!(raw, series);
        let cleaned = AmplitudeConfig::default().clean_series(&series);
        assert!(cleaned[30] < 2.0, "outlier survived: {}", cleaned[30]);
    }

    #[test]
    #[should_panic(expected = "distinct antennas")]
    fn rejects_same_antenna() {
        let cap = capture();
        let _ = AmplitudeRatioProfile::compute(&cap, 2, 2, &AmplitudeConfig::default());
    }

    #[test]
    fn sigma_screen_matches_per_column_statistics_bitwise() {
        use wimi_dsp::outlier::sigma_mask;
        let rows = 20;
        let mut columns: Vec<Vec<f64>> = (0..6)
            .map(|c| {
                (0..rows)
                    .map(|m| 1.0 + 0.01 * ((m * 7 + c * 3) as f64 * 0.37).sin())
                    .collect()
            })
            .collect();
        columns[1][4] = 9.0; // one outlier
        columns[2] = vec![-0.0; rows]; // constant, σ = 0
        columns[3][0] = f64::NAN;
        columns[4][9] = f64::INFINITY;
        columns[5][rows - 1] = -1e300; // overflowing squares
        let cols = columns.len();
        let plane: Vec<f64> = (0..rows)
            .flat_map(|m| columns.iter().map(move |col| col[m]))
            .collect();
        let mut stats = Vec::new();
        sigma_screen(&plane, cols, &mut stats);
        assert_eq!(stats.len(), 2 * cols);
        for (c, col) in columns.iter().enumerate() {
            assert_eq!(
                stats[c].to_bits(),
                mean(col).to_bits(),
                "mean of column {c}"
            );
            let flagged = sigma_mask(col, 3.0).iter().any(|&keep| !keep);
            assert_eq!(stats[cols + c] < 0.0, flagged, "flag of column {c}");
            if !flagged {
                let bound = 3.0 * wimi_dsp::stats::std_dev(col);
                assert_eq!(
                    stats[cols + c].to_bits(),
                    bound.to_bits(),
                    "bound of column {c}"
                );
            }
        }
        assert!(stats[cols + 1] < 0.0 && stats[cols + 2] >= 0.0);
    }

    #[test]
    fn mean_variance_matches_collected_form_bitwise() {
        /// `mean_variance` before it stopped collecting the finite entries.
        fn reference(variance: &[f64]) -> f64 {
            let finite: Vec<f64> = variance.iter().copied().filter(|v| v.is_finite()).collect();
            if finite.is_empty() {
                f64::NAN
            } else {
                finite.iter().sum::<f64>() / finite.len() as f64
            }
        }
        let cap = capture();
        let mut profiles = vec![
            AmplitudeRatioProfile::compute(&cap, 0, 1, &AmplitudeConfig::default()),
            AmplitudeRatioProfile::compute(&cap, 2, 0, &AmplitudeConfig::raw()),
        ];
        for variance in [
            vec![0.5, f64::NAN, 0.25, f64::INFINITY, 1e-3, f64::NEG_INFINITY],
            vec![-0.0],
            vec![-0.0, f64::NAN],
            vec![f64::NAN, f64::NAN],
            Vec::new(),
        ] {
            profiles.push(AmplitudeRatioProfile {
                pair: (0, 1),
                mean: vec![1.0; variance.len()],
                variance,
            });
        }
        for prof in &profiles {
            assert_eq!(
                prof.mean_variance().to_bits(),
                reference(&prof.variance).to_bits(),
                "{:?}",
                prof.variance
            );
        }
    }

    #[test]
    fn mean_variance_skips_nans() {
        let prof = AmplitudeRatioProfile {
            pair: (0, 1),
            mean: vec![1.0, 1.0],
            variance: vec![0.5, f64::NAN],
        };
        assert!((prof.mean_variance() - 0.5).abs() < 1e-15);
    }
}

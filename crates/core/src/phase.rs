//! CSI phase calibration via cross-antenna differencing (paper §III-B).
//!
//! Raw per-packet CSI phase is useless: CFO/SFO/PBD randomise it across
//! packets (paper Eq. 5, Fig. 2). Antennas of one NIC share the sampling
//! and oscillator clocks, so the *difference* of phases between two
//! antennas cancels those errors (Eq. 6), leaving only a Gaussian residual
//! that time-averaging removes.

use wimi_dsp::stats::{phase_summary, PhaseSummaryScratch};
use wimi_phy::csi::CsiCapture;

/// Fraction of most-deviant packets dropped from the per-subcarrier phase
/// aggregation — impulse-noise hits corrupt phase as well as amplitude.
const PHASE_TRIM_FRACTION: f64 = 0.2;

/// Per-subcarrier calibrated phase differences between one antenna pair,
/// summarised over a capture.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseDifferenceProfile {
    /// Antenna pair (a, b) the differences were computed over.
    pub pair: (usize, usize),
    /// Circular mean of `∠(H_a·H_b*)` per subcarrier, radians.
    pub mean: Vec<f64>,
    /// Wrap-safe variance per subcarrier (the paper's Eq. 7 statistic).
    pub variance: Vec<f64>,
}

impl PhaseDifferenceProfile {
    /// Computes the profile of antenna pair `(a, b)` over a capture.
    ///
    /// # Panics
    ///
    /// Panics if the capture is empty, either antenna index is out of
    /// range, or `a == b`.
    pub fn compute(capture: &CsiCapture, a: usize, b: usize) -> Self {
        Self::compute_with(capture, a, b, &mut PhaseScratch::default())
    }

    /// [`Self::compute`] through caller-owned scratch, reused across the
    /// profiles of one measurement — same bits.
    ///
    /// # Panics
    ///
    /// Same contract as [`Self::compute`].
    pub fn compute_with(
        capture: &CsiCapture,
        a: usize,
        b: usize,
        scratch: &mut PhaseScratch,
    ) -> Self {
        assert!(!capture.is_empty(), "capture holds no packets");
        assert!(a != b, "phase difference needs two distinct antennas");
        let n_ant = capture.n_antennas();
        assert!(a < n_ant && b < n_ant, "antenna index out of range");

        let n_sub = capture.n_subcarriers();
        let mut mean = Vec::with_capacity(n_sub);
        let mut variance = Vec::with_capacity(n_sub);
        for k in 0..n_sub {
            let phasors = capture.phase_difference_phasors(a, b, k);
            let (m, v) = phase_summary(phasors, PHASE_TRIM_FRACTION, &mut scratch.summary);
            mean.push(m);
            variance.push(v);
        }
        PhaseDifferenceProfile {
            pair: (a, b),
            mean,
            variance,
        }
    }

    /// Number of subcarriers.
    pub fn len(&self) -> usize {
        self.mean.len()
    }

    /// Returns `true` for a profile over zero subcarriers (never, by
    /// construction).
    pub fn is_empty(&self) -> bool {
        self.mean.is_empty()
    }

    /// Mean variance across all subcarriers — the pair-stability score
    /// used for antenna-pair selection (paper §III-F, Fig. 10a).
    pub fn mean_variance(&self) -> f64 {
        self.variance.iter().sum::<f64>() / self.variance.len() as f64
    }
}

/// Scratch for [`PhaseDifferenceProfile::compute_with`]: the
/// [`phase_summary`] buffer each subcarrier's phasors pass through.
#[derive(Debug, Clone, Default)]
pub struct PhaseScratch {
    summary: PhaseSummaryScratch,
}

/// Summary statistics of raw (uncalibrated) phase across a capture —
/// used to demonstrate why calibration is necessary (Fig. 2/12).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RawPhaseSpread {
    /// Mean resultant length of the raw phase across packets (≈0 for the
    /// uniform spread commodity NICs exhibit).
    pub resultant: f64,
    /// Angular spread in degrees.
    pub spread_deg: f64,
}

/// Measures raw-phase spread of one (antenna, subcarrier) across packets.
///
/// # Panics
///
/// Panics if the capture is empty or indices are out of range.
pub fn raw_phase_spread(capture: &CsiCapture, antenna: usize, subcarrier: usize) -> RawPhaseSpread {
    assert!(!capture.is_empty(), "capture holds no packets");
    let series = capture.phase_series(antenna, subcarrier);
    RawPhaseSpread {
        resultant: wimi_dsp::stats::circular_resultant(&series),
        spread_deg: wimi_dsp::stats::angular_spread_deg(&series),
    }
}

/// Measures the calibrated phase-difference spread (degrees) of one
/// antenna pair and subcarrier — the number the paper quotes as "around
/// 18 degrees" after differencing (Fig. 12).
pub fn phase_difference_spread_deg(
    capture: &CsiCapture,
    a: usize,
    b: usize,
    subcarrier: usize,
) -> f64 {
    assert!(!capture.is_empty(), "capture holds no packets");
    let series = capture.phase_difference_series(a, b, subcarrier);
    wimi_dsp::stats::angular_spread_deg(&series)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wimi_phy::csi::CsiSource;
    use wimi_phy::scenario::{Scenario, Simulator};

    fn capture() -> CsiCapture {
        let mut sim = Simulator::new(Scenario::builder().build(), 42);
        sim.capture(100)
    }

    #[test]
    fn raw_phase_is_uniform_but_difference_is_stable() {
        let cap = capture();
        let raw = raw_phase_spread(&cap, 0, 15);
        assert!(raw.resultant < 0.25, "raw resultant = {}", raw.resultant);
        let diff_spread = phase_difference_spread_deg(&cap, 0, 1, 15);
        assert!(
            diff_spread < 60.0,
            "calibrated spread should collapse, got {diff_spread}°"
        );
        assert!(raw.spread_deg > 2.0 * diff_spread);
    }

    #[test]
    fn profile_has_one_entry_per_subcarrier() {
        let cap = capture();
        let prof = PhaseDifferenceProfile::compute(&cap, 0, 1);
        assert_eq!(prof.len(), 30);
        assert_eq!(prof.pair, (0, 1));
        assert!(!prof.is_empty());
        assert!(prof.mean.iter().all(|m| m.is_finite()));
        assert!(prof.variance.iter().all(|v| *v >= 0.0));
    }

    #[test]
    fn shared_scratch_matches_fresh_compute_bitwise() {
        // One scratch across captures of different lengths, as a
        // measurement shares it between baseline and target.
        let mut scratch = PhaseScratch::default();
        for (seed, packets) in [(1u64, 20usize), (2, 8), (3, 3), (4, 31)] {
            let cap = Simulator::new(Scenario::builder().build(), seed).capture(packets);
            for (a, b) in [(0usize, 1usize), (1, 2), (2, 0)] {
                let shared = PhaseDifferenceProfile::compute_with(&cap, a, b, &mut scratch);
                let fresh = PhaseDifferenceProfile::compute(&cap, a, b);
                assert_eq!(shared.pair, fresh.pair);
                for (x, y) in shared.mean.iter().zip(&fresh.mean) {
                    assert_eq!(x.to_bits(), y.to_bits());
                }
                for (x, y) in shared.variance.iter().zip(&fresh.variance) {
                    assert_eq!(x.to_bits(), y.to_bits());
                }
            }
        }
    }

    #[test]
    fn mean_variance_aggregates() {
        let cap = capture();
        let prof = PhaseDifferenceProfile::compute(&cap, 0, 2);
        let manual: f64 = prof.variance.iter().sum::<f64>() / 30.0;
        assert!((prof.mean_variance() - manual).abs() < 1e-15);
    }

    #[test]
    fn variance_differs_across_subcarriers() {
        // Frequency-selective multipath must make some subcarriers cleaner
        // than others — the premise of good-subcarrier selection (Fig. 6).
        let cap = capture();
        let prof = PhaseDifferenceProfile::compute(&cap, 0, 1);
        let min = prof.variance.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = prof.variance.iter().cloned().fold(0.0, f64::max);
        assert!(
            max > 2.0 * min.max(1e-9),
            "variance should vary across subcarriers: min {min}, max {max}"
        );
    }

    #[test]
    #[should_panic(expected = "distinct antennas")]
    fn profile_rejects_same_antenna() {
        let cap = capture();
        let _ = PhaseDifferenceProfile::compute(&cap, 1, 1);
    }

    #[test]
    #[should_panic(expected = "no packets")]
    fn profile_rejects_empty_capture() {
        let _ = PhaseDifferenceProfile::compute(&CsiCapture::new(), 0, 1);
    }
}

//! Antenna-pair enumeration and selection (paper §III-F, Fig. 10/21).
//!
//! With `p` receive antennas there are `p(p−1)/2` usable pairs, and their
//! phase-difference / amplitude-ratio stability differs (each pair sees
//! different multipath). [`score_pairs`] reports that stability per pair
//! (the paper's Fig. 10); it is a report, not a selector. The pipeline
//! does not pick one pair by score: with three or more antennas
//! [`WiMi::measure`](crate::pipeline::WiMi::measure) resolves γ jointly
//! over every pair and keeps the pair with the strongest phase
//! differential, with two it measures the one pair there is, and
//! [`PairSelection::Fixed`] names the pair outright.

use crate::amplitude::{AmplitudeConfig, AmplitudeRatioProfile, CleanedAmplitudes};
use crate::phase::PhaseDifferenceProfile;
use wimi_phy::csi::CsiCapture;

/// How the pipeline chooses which antenna pair to report the feature of.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum PairSelection {
    /// Let the antennas screening leaves decide: three or more go to
    /// joint γ resolution over every pair, two to the single-pair
    /// extractor.
    #[default]
    Best,
    /// Use one explicit pair; the order of the two antennas does not
    /// matter.
    Fixed(usize, usize),
}

/// Stability score of one antenna pair.
#[derive(Debug, Clone, PartialEq)]
pub struct PairScore {
    /// The antenna pair (a, b), `a < b`.
    pub pair: (usize, usize),
    /// Mean phase-difference variance over subcarriers.
    pub phase_variance: f64,
    /// Mean amplitude-ratio variance over subcarriers.
    pub amplitude_variance: f64,
}

impl PairScore {
    /// Combined score (lower is better): phase variance plus amplitude
    /// variance, both already on comparable scales (rad², ratio²).
    pub fn combined(&self) -> f64 {
        self.phase_variance + self.amplitude_variance
    }
}

/// Enumerates all antenna pairs `(a, b)` with `a < b` of a capture.
pub fn enumerate_pairs(n_antennas: usize) -> Vec<(usize, usize)> {
    let mut pairs = Vec::with_capacity(n_antennas * n_antennas.saturating_sub(1) / 2);
    for a in 0..n_antennas {
        for b in (a + 1)..n_antennas {
            pairs.push((a, b));
        }
    }
    pairs
}

/// Scores every pair on a capture (paper Fig. 10).
///
/// # Panics
///
/// Panics if the capture is empty or has fewer than two antennas.
pub fn score_pairs(capture: &CsiCapture, amp_config: &AmplitudeConfig) -> Vec<PairScore> {
    assert!(!capture.is_empty(), "capture holds no packets");
    assert!(
        capture.n_antennas() >= 2,
        "pair scoring needs at least two antennas"
    );
    let cleaned = CleanedAmplitudes::compute(capture, amp_config);
    enumerate_pairs(capture.n_antennas())
        .into_iter()
        .map(|(a, b)| {
            let phase = PhaseDifferenceProfile::compute(capture, a, b);
            let amp = AmplitudeRatioProfile::from_cleaned(&cleaned, a, b);
            PairScore {
                pair: (a, b),
                phase_variance: phase.mean_variance(),
                amplitude_variance: amp.mean_variance(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wimi_phy::csi::CsiSource;
    use wimi_phy::scenario::{Scenario, Simulator};

    fn capture() -> CsiCapture {
        let mut sim = Simulator::new(Scenario::builder().build(), 5);
        sim.capture(80)
    }

    #[test]
    fn enumerate_three_antennas() {
        assert_eq!(enumerate_pairs(3), vec![(0, 1), (0, 2), (1, 2)]);
        assert_eq!(enumerate_pairs(1), vec![]);
        assert_eq!(enumerate_pairs(4).len(), 6);
    }

    #[test]
    fn scores_cover_all_pairs() {
        let cap = capture();
        let scores = score_pairs(&cap, &AmplitudeConfig::default());
        assert_eq!(scores.len(), 3);
        for s in &scores {
            assert!(s.phase_variance.is_finite() && s.phase_variance >= 0.0);
            assert!(s.amplitude_variance.is_finite() && s.amplitude_variance >= 0.0);
            assert!(s.combined() >= s.phase_variance);
        }
    }

    #[test]
    fn default_is_best() {
        assert_eq!(PairSelection::default(), PairSelection::Best);
    }
}

//! Antenna-pair enumeration and selection (paper §III-F, Fig. 10/21).
//!
//! With `p` receive antennas there are `p(p−1)/2` usable pairs, and their
//! phase-difference / amplitude-ratio stability differs (each pair sees
//! different multipath). WiMi scores each pair on the baseline capture
//! and uses the most stable one.

use crate::amplitude::{AmplitudeConfig, AmplitudeRatioProfile, CleanedAmplitudes};
use crate::phase::PhaseDifferenceProfile;
use wimi_phy::csi::CsiCapture;

/// How the pipeline chooses which antenna pair(s) to use.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum PairSelection {
    /// Score all pairs on the baseline capture and use the most stable
    /// (the paper's method).
    #[default]
    Best,
    /// Use one explicit pair.
    Fixed(usize, usize),
    /// Use every pair and concatenate their features (ablation).
    All,
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

impl PairSelection {
    /// Resolves the strategy to the concrete list of pairs to use.
    ///
    /// # Panics
    ///
    /// Panics if a fixed pair is invalid (equal or out of range) or the
    /// capture has fewer than two antennas.
    pub fn resolve(
        &self,
        capture: &CsiCapture,
        amp_config: &AmplitudeConfig,
    ) -> Vec<(usize, usize)> {
        let n = capture.n_antennas();
        assert!(n >= 2, "pair selection needs at least two antennas");
        match self {
            PairSelection::Best => {
                let mut scores = score_pairs(capture, amp_config);
                scores.sort_by(|x, y| x.combined().total_cmp(&y.combined()));
                vec![scores[0].pair]
            }
            PairSelection::Fixed(a, b) => {
                assert!(a != b, "fixed pair must use distinct antennas");
                assert!(*a < n && *b < n, "fixed pair out of range");
                vec![(*a.min(b), *a.max(b))]
            }
            PairSelection::All => enumerate_pairs(n),
        }
    }
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
    fn best_picks_lowest_combined() {
        let cap = capture();
        let cfg = AmplitudeConfig::default();
        let best = PairSelection::Best.resolve(&cap, &cfg);
        assert_eq!(best.len(), 1);
        let scores = score_pairs(&cap, &cfg);
        let min = scores
            .iter()
            .map(PairScore::combined)
            .fold(f64::INFINITY, f64::min);
        let best_score = scores.iter().find(|s| s.pair == best[0]).unwrap();
        assert!((best_score.combined() - min).abs() < 1e-15);
    }

    #[test]
    fn fixed_normalises_order() {
        let cap = capture();
        let cfg = AmplitudeConfig::default();
        assert_eq!(PairSelection::Fixed(2, 0).resolve(&cap, &cfg), vec![(0, 2)]);
    }

    #[test]
    fn all_returns_every_pair() {
        let cap = capture();
        let cfg = AmplitudeConfig::default();
        assert_eq!(PairSelection::All.resolve(&cap, &cfg).len(), 3);
    }

    #[test]
    #[should_panic(expected = "distinct antennas")]
    fn fixed_rejects_equal() {
        let cap = capture();
        let _ = PairSelection::Fixed(1, 1).resolve(&cap, &AmplitudeConfig::default());
    }

    #[test]
    fn default_is_best() {
        assert_eq!(PairSelection::default(), PairSelection::Best);
    }
}

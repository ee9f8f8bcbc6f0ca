//! "Good" subcarrier selection (paper §III-B, Eq. 7, Fig. 6).
//!
//! Frequency diversity means multipath hits some subcarriers harder than
//! others. Subcarriers whose cross-antenna phase difference has the
//! smallest variance across packets are the least multipath-contaminated;
//! WiMi selects the `P` best and uses only those for material sensing
//! (the paper uses P = 4 and shows subcarriers 5, 20, 23, 24 winning in
//! its Fig. 6 example).

use crate::phase::PhaseDifferenceProfile;

/// Strategy for choosing which subcarriers feed the material feature.
#[derive(Debug, Clone, PartialEq)]
pub enum SubcarrierSelection {
    /// Pick the `P` subcarriers with smallest phase-difference variance
    /// (the paper's method).
    BestByVariance(usize),
    /// Use an explicit fixed set (for the Fig. 13 random-vs-good
    /// comparison and for ablations).
    Fixed(Vec<usize>),
}

impl Default for SubcarrierSelection {
    fn default() -> Self {
        SubcarrierSelection::BestByVariance(4)
    }
}

impl SubcarrierSelection {
    /// Resolves the strategy to concrete subcarrier indices (ascending),
    /// given variance profiles from the baseline and target captures.
    /// Variances of the two phases of the measurement are summed so a
    /// subcarrier must be clean in *both* to win. Subcarriers in
    /// `rejected` (indices triage found unusable — e.g. a zeroed
    /// subcarrier on a surviving antenna) are excluded from
    /// [`SubcarrierSelection::BestByVariance`] ranking; pass `&[]` to rank
    /// every subcarrier.
    ///
    /// The exclusion matters because an unusable subcarrier can *win* the
    /// variance ranking: a zeroed subcarrier has constant (zero) phase,
    /// hence zero phase-difference variance, and would be picked first —
    /// only to fail downstream with a degenerate amplitude.
    ///
    /// Panic-free fallback: when fewer than `P` subcarriers survive the
    /// exclusion, every survivor is taken and the remainder is filled
    /// from the rejected set in variance order, keeping the feature
    /// vector's length fixed (the classifier's input layout must not
    /// change with capture quality). [`SubcarrierSelection::Fixed`] is an
    /// explicit operator choice (ablations, Fig. 13 comparisons) and
    /// ignores `rejected`.
    ///
    /// # Panics
    ///
    /// Panics if the profiles disagree in length, a fixed index is out of
    /// range, or the requested count is zero or exceeds the subcarrier
    /// count.
    pub fn resolve_excluding(
        &self,
        baseline: &PhaseDifferenceProfile,
        target: &PhaseDifferenceProfile,
        rejected: &[usize],
    ) -> Vec<usize> {
        assert_eq!(
            baseline.len(),
            target.len(),
            "profiles must cover the same subcarriers"
        );
        let n = baseline.len();
        match self {
            SubcarrierSelection::BestByVariance(p) => {
                assert!(*p > 0, "must select at least one subcarrier");
                assert!(*p <= n, "cannot select more subcarriers than exist");
                let mut scored: Vec<(usize, f64)> = (0..n)
                    .map(|k| (k, baseline.variance[k] + target.variance[k]))
                    .collect();
                scored.sort_by(|a, b| a.1.total_cmp(&b.1));
                let clean = scored.iter().filter(|(k, _)| !rejected.contains(k));
                // Fallback fill, best rejected first.
                let bad = scored.iter().filter(|(k, _)| rejected.contains(k));
                let mut chosen: Vec<usize> = clean.chain(bad).take(*p).map(|&(k, _)| k).collect();
                chosen.sort_unstable();
                chosen
            }
            SubcarrierSelection::Fixed(set) => {
                assert!(!set.is_empty(), "must select at least one subcarrier");
                assert!(
                    set.iter().all(|&k| k < n),
                    "fixed subcarrier index out of range"
                );
                let mut chosen = set.clone();
                chosen.sort_unstable();
                chosen.dedup();
                chosen
            }
        }
    }
}

/// Ranks all subcarriers by combined variance, cleanest first (useful for
/// reporting Fig. 6-style tables).
pub fn rank_subcarriers(
    baseline: &PhaseDifferenceProfile,
    target: &PhaseDifferenceProfile,
) -> Vec<(usize, f64)> {
    assert_eq!(
        baseline.len(),
        target.len(),
        "profiles must cover the same subcarriers"
    );
    let mut scored: Vec<(usize, f64)> = (0..baseline.len())
        .map(|k| (k, baseline.variance[k] + target.variance[k]))
        .collect();
    scored.sort_by(|a, b| a.1.total_cmp(&b.1));
    scored
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(variances: Vec<f64>) -> PhaseDifferenceProfile {
        PhaseDifferenceProfile {
            pair: (0, 1),
            mean: vec![0.0; variances.len()],
            variance: variances,
        }
    }

    #[test]
    fn best_by_variance_picks_smallest() {
        let base = profile(vec![0.5, 0.1, 0.9, 0.05, 0.3]);
        let tar = profile(vec![0.4, 0.1, 0.8, 0.05, 0.3]);
        let chosen = SubcarrierSelection::BestByVariance(2).resolve_excluding(&base, &tar, &[]);
        assert_eq!(chosen, vec![1, 3]);
    }

    #[test]
    fn selection_requires_cleanliness_in_both_captures() {
        // Subcarrier 0 is clean in baseline but filthy in target → must
        // lose to subcarrier 2 which is decent in both.
        let base = profile(vec![0.01, 0.5, 0.10]);
        let tar = profile(vec![0.90, 0.5, 0.12]);
        let chosen = SubcarrierSelection::BestByVariance(1).resolve_excluding(&base, &tar, &[]);
        assert_eq!(chosen, vec![2]);
    }

    #[test]
    fn fixed_selection_passes_through_sorted_dedup() {
        let base = profile(vec![0.0; 10]);
        let tar = profile(vec![0.0; 10]);
        let chosen =
            SubcarrierSelection::Fixed(vec![7, 2, 7, 5]).resolve_excluding(&base, &tar, &[]);
        assert_eq!(chosen, vec![2, 5, 7]);
    }

    #[test]
    fn excluded_subcarrier_loses_even_with_zero_variance() {
        // A zeroed subcarrier has constant phase → zero variance → would
        // win the ranking; triage rejection must override that.
        let base = profile(vec![0.0, 0.3, 0.1, 0.2]);
        let tar = profile(vec![0.0, 0.3, 0.1, 0.2]);
        let chosen = SubcarrierSelection::BestByVariance(2).resolve_excluding(&base, &tar, &[0]);
        assert_eq!(chosen, vec![2, 3]);
    }

    #[test]
    fn exclusion_falls_back_when_too_few_survive() {
        // Only one clean subcarrier for P = 3: take it, then fill from
        // the rejected set in variance order — never panic, and keep the
        // selection length fixed.
        let base = profile(vec![0.4, 0.1, 0.3, 0.2]);
        let tar = profile(vec![0.0; 4]);
        let sel = SubcarrierSelection::BestByVariance(3);
        let chosen = sel.resolve_excluding(&base, &tar, &[0, 2, 3]);
        assert_eq!(chosen.len(), 3);
        assert!(chosen.contains(&1));
        assert_eq!(chosen, vec![1, 2, 3]); // 0.2 and 0.3 beat 0.4
                                           // Everything rejected: still a full-length, panic-free answer.
        let all_bad = sel.resolve_excluding(&base, &tar, &[0, 1, 2, 3]);
        assert_eq!(all_bad, vec![1, 2, 3]);
    }

    #[test]
    fn fixed_selection_ignores_rejections() {
        let base = profile(vec![0.0; 6]);
        let tar = profile(vec![0.0; 6]);
        let chosen = SubcarrierSelection::Fixed(vec![1, 4]).resolve_excluding(&base, &tar, &[1]);
        assert_eq!(chosen, vec![1, 4]);
    }

    #[test]
    fn rank_is_total_and_sorted() {
        let base = profile(vec![0.3, 0.1, 0.2]);
        let tar = profile(vec![0.0, 0.0, 0.0]);
        let ranked = rank_subcarriers(&base, &tar);
        assert_eq!(ranked.len(), 3);
        assert_eq!(ranked[0].0, 1);
        assert!(ranked.windows(2).all(|w| w[0].1 <= w[1].1));
    }

    #[test]
    fn default_is_paper_p4() {
        assert_eq!(
            SubcarrierSelection::default(),
            SubcarrierSelection::BestByVariance(4)
        );
    }

    #[test]
    #[should_panic(expected = "more subcarriers than exist")]
    fn rejects_oversized_p() {
        let base = profile(vec![0.0; 3]);
        let tar = profile(vec![0.0; 3]);
        let _ = SubcarrierSelection::BestByVariance(4).resolve_excluding(&base, &tar, &[]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_fixed_index() {
        let base = profile(vec![0.0; 3]);
        let tar = profile(vec![0.0; 3]);
        let _ = SubcarrierSelection::Fixed(vec![5]).resolve_excluding(&base, &tar, &[]);
    }
}

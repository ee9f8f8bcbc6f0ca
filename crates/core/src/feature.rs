//! The size-independent material feature Ω̄ (paper §III-D/E).
//!
//! From the calibrated cross-antenna phase difference and amplitude ratio
//! of a baseline (empty beaker) and target (liquid poured in) capture:
//!
//! - `ΔΘ = (D₁ − D₂)(β_tar − β_free)`   (Eq. 18)
//! - `ΔΨ = e^{−(D₁ − D₂)(α_tar − α_free)}`   (Eq. 19)
//! - `Ω̄ = −ln ΔΨ / (ΔΘ + 2γπ) = (α_tar − α_free)/(β_tar − β_free)`   (Eq. 20–21)
//!
//! The unknown path-length difference `D₁ − D₂` cancels, so Ω̄ depends on
//! the material constants only — target size drops out. The integer γ
//! accounts for phase wrapping of `ΔΘ`; it is resolved by searching the
//! small candidate range for the value that makes Ω̄ consistent across
//! the selected subcarriers (Ω̄ is essentially frequency-flat over one
//! Wi-Fi channel) and sign-consistent with the amplitude ratio.
//!
//! Sign convention: a propagating field accumulates phase as `e^{−jβd}`,
//! so a longer in-material path *lowers* the measured phase while raising
//! the attenuation — `ΔΘ + 2γπ = −(D₁−D₂)(β_tar−β_free)` and
//! `−ln ΔΨ = (D₁−D₂)(α_tar−α_free)` carry opposite signs. We therefore
//! define the feature as `Ω̄ = −(−ln ΔΨ)/(ΔΘ + 2γπ)`, which is positive
//! for every passive liquid (`α_tar > α_free`, `β_tar > β_free`).

use crate::amplitude::AmplitudeRatioProfile;
use crate::error::FeatureError;
use crate::phase::PhaseDifferenceProfile;
use wimi_dsp::stats::{mean, std_dev, wrap_to_pi};

/// Physically plausible range for Ω̄ of liquids at 5 GHz: oil ≈ 0.04,
/// honey ≈ 0.3, brines up to ≈ 0.8. Per-subcarrier values get loose
/// bounds — for near-lossless liquids the amplitude term is tiny and
/// noise can flip an individual subcarrier's sign — while the *mean* must
/// sit in the physical range, which rejects the near-zero junk clusters
/// that large wrong |γ| values produce.
const OMEGA_SUBCARRIER_FLOOR: f64 = -0.10;
const OMEGA_SUBCARRIER_MAX: f64 = 2.5;
const OMEGA_MEAN_FLOOR: f64 = -0.015;
const OMEGA_MEAN_MAX: f64 = 2.0;
/// Absolute floor used when normalising dispersion/spread statistics so
/// legitimately-small Ω̄ (low-loss liquids) is not unfairly penalised.
const OMEGA_NORM_FLOOR: f64 = 0.03;

/// Configuration for feature extraction.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureConfig {
    /// Half-width of the γ search range (candidates `−g..=g`).
    pub gamma_search: i32,
    /// Maximum accepted relative dispersion (std/|mean|) of Ω̄ across
    /// subcarriers; above this the feature is rejected as inconsistent
    /// (blocked LoS, moving liquid, ...).
    pub max_dispersion: f64,
}

impl Default for FeatureConfig {
    fn default() -> Self {
        FeatureConfig {
            gamma_search: 3,
            max_dispersion: 0.8,
        }
    }
}

/// The extracted material feature for one antenna pair.
#[derive(Debug, Clone, PartialEq)]
pub struct MaterialFeature {
    /// Antenna pair the feature was computed over.
    pub pair: (usize, usize),
    /// Subcarriers used (indices into the capture's subcarrier axis).
    pub subcarriers: Vec<usize>,
    /// Ω̄ per selected subcarrier.
    pub omega: Vec<f64>,
    /// Wrapped phase change `ΔΘ` per selected subcarrier, radians.
    pub delta_theta: Vec<f64>,
    /// Amplitude ratio change `ΔΨ` per selected subcarrier.
    pub delta_psi: Vec<f64>,
    /// Resolved phase-wrap count γ.
    pub gamma: i32,
    /// Relative dispersion of Ω̄ across subcarriers (quality indicator).
    pub dispersion: f64,
}

impl MaterialFeature {
    /// Mean Ω̄ over the selected subcarriers.
    pub fn omega_mean(&self) -> f64 {
        mean(&self.omega)
    }

    /// The classifier input: per-subcarrier Ω̄ values (fixed length = the
    /// configured subcarrier count).
    pub fn as_vector(&self) -> Vec<f64> {
        self.omega.clone()
    }

    /// Extracts the feature of one antenna pair — the single-pair
    /// extractor the pipeline uses when screening leaves two antennas or
    /// the configuration names one pair.
    ///
    /// Subcarriers in `m.rejected` (triage-found unusable: zero amplitude
    /// on a surviving antenna; `&[]` for none) are excluded from the
    /// *band-level* estimates — the band-median `ln ΔΨ` and the
    /// frequency-slope phase-unwrap anchor. A zeroed subcarrier reads a
    /// bogus constant phase (the argument of complex zero), which would
    /// otherwise corrupt the unwrap chain running across the band.
    ///
    /// # Errors
    ///
    /// - [`FeatureError::DegenerateAmplitude`] if any amplitude ratio is
    ///   non-positive or non-finite.
    /// - [`FeatureError::NoConsistentFeature`] if no γ candidate yields a
    ///   sign-consistent, frequency-consistent Ω̄ — the physical signature
    ///   of a target the signal cannot penetrate.
    ///
    /// # Panics
    ///
    /// Panics if the profiles cover different antenna pairs or subcarrier
    /// counts, or `m.subcarriers` is empty.
    pub fn extract(
        m: &PairMeasurement<'_>,
        config: &FeatureConfig,
    ) -> Result<MaterialFeature, FeatureError> {
        assert_eq!(
            m.phase_base.pair, m.phase_tar.pair,
            "phase profiles pair mismatch"
        );
        assert_eq!(
            m.amp_base.pair, m.amp_tar.pair,
            "amplitude profiles pair mismatch"
        );
        assert_eq!(
            m.phase_base.pair, m.amp_base.pair,
            "phase/amplitude pair mismatch"
        );
        assert!(!m.subcarriers.is_empty(), "need at least one subcarrier");
        let p = PairData::prepare(m).map_err(|_| FeatureError::DegenerateAmplitude)?;

        // γ resolution for a single pair: a low-loss liquid cannot have
        // wrapped (γ = 0); a lossy one picks the γ whose unwrapped phase
        // best matches the frequency-slope estimate, or the smallest |γ|
        // when the band gives no slope (`min_by` keeps the first of equal
        // distances). The joint multi-pair extraction in
        // [`Self::extract_joint_with_diag`] is more robust; this path
        // serves a measurement of one pair.
        let (gammas, mean_bounds) = if p.ln_psi_band.abs() < LOW_LOSS_LN_PSI {
            (0..=0, (LOW_LOSS_MEAN_FLOOR, OMEGA_MEAN_MAX))
        } else {
            let g = config.gamma_search;
            (-g..=g, (0.004, OMEGA_MEAN_MAX))
        };
        let dt_mean = mean(&p.delta_theta);
        let distance = |gamma: i32| {
            if p.unwrapped_est.is_finite() {
                (dt_mean + gamma as f64 * std::f64::consts::TAU - p.unwrapped_est).abs()
            } else {
                gamma.abs() as f64
            }
        };
        let mut best_dispersion = f64::INFINITY;
        let best = gammas
            .filter_map(|gamma| gamma_candidate(&p.delta_theta, p.ln_psi_band, gamma, mean_bounds))
            .inspect(|cand| best_dispersion = best_dispersion.min(cand.dispersion))
            .filter(|cand| cand.dispersion <= config.max_dispersion)
            .map(|cand| (distance(cand.gamma), cand))
            .min_by(|(a, _), (b, _)| a.total_cmp(b));
        match best {
            Some((_, cand)) => Ok(p.feature(cand)),
            None => Err(FeatureError::NoConsistentFeature { best_dispersion }),
        }
    }

    /// Jointly extracts the feature over several antenna pairs, using the
    /// smallest-differential pair as a wrap-free anchor to resolve the
    /// phase-wrap count γ of the others.
    ///
    /// A single pair cannot disambiguate γ: when `ΔΘ` is nearly
    /// frequency-flat, every γ gives an equally self-consistent Ω̄ (they
    /// are scaled copies of each other). The physics offers two anchors:
    ///
    /// 1. `|ln ΔΨ|` is unambiguous (no wrapping) and proportional to
    ///    `|D₁ − D₂|`, so the pair with the smallest `|ln ΔΨ|` has the
    ///    smallest path differential — small enough that its `ΔΘ` cannot
    ///    have wrapped (γ = 0). Its Ω̄ estimate, though noisy, is within a
    ///    factor ~2 of the truth, which is all that is needed to pick the
    ///    right γ for the strong pairs (adjacent γ change Ω̄ by ≥ 2×).
    /// 2. If even the *largest* `|ln ΔΨ|` is tiny, the liquid is low-loss;
    ///    Debye liquids with low loss also have low permittivity, hence a
    ///    small `β` contrast, and no pair wraps: γ = 0 everywhere.
    ///
    /// This is the multi-antenna leverage the paper's §III-F points to.
    ///
    /// Returns the extraction result together with how many pairs were
    /// attempted, usable, and resolved — the pipeline's
    /// [quality report](crate::pipeline::QualityReport) is built from the
    /// latter.
    ///
    /// # Errors
    ///
    /// The result is [`FeatureError::NoConsistentFeature`] when fewer than
    /// two pairs resolve or the resolved pairs still disagree (blocked
    /// LoS, moving liquid), and [`FeatureError::DegenerateAmplitude`] when
    /// every pair's amplitudes are unusable. A lone pair therefore never
    /// yields a feature here: it has nothing to check its wrap count
    /// against, so one pair goes to [`Self::extract`] instead.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is empty.
    pub fn extract_joint_with_diag(
        inputs: &[PairMeasurement<'_>],
        config: &FeatureConfig,
    ) -> (Result<MaterialFeature, FeatureError>, JointDiagnostics) {
        let mut diag = JointDiagnostics {
            pairs_attempted: inputs.len(),
            ..JointDiagnostics::default()
        };
        let result = Self::extract_joint_inner(inputs, config, &mut diag);
        (result, diag)
    }

    fn extract_joint_inner(
        inputs: &[PairMeasurement<'_>],
        config: &FeatureConfig,
        diag: &mut JointDiagnostics,
    ) -> Result<MaterialFeature, FeatureError> {
        assert!(!inputs.is_empty(), "need at least one pair measurement");

        let mut per_pair: Vec<PairData<'_>> = Vec::with_capacity(inputs.len());
        for m in inputs {
            match PairData::prepare(m) {
                Ok(p) => per_pair.push(p),
                Err(PairSkip::Degenerate) => diag.pairs_skipped_degenerate += 1,
                Err(PairSkip::BandUnusable) => diag.pairs_skipped_band_unusable += 1,
            }
        }
        diag.pairs_usable = per_pair.len();
        if per_pair.is_empty() {
            return Err(FeatureError::DegenerateAmplitude);
        }

        let strongest = per_pair
            .iter()
            .map(|p| p.ln_psi_band.abs())
            .fold(0.0f64, f64::max);

        // Resolve γ per pair.
        let mut resolved: Vec<(usize, GammaCandidate)> = Vec::new(); // (pair idx, cand)
        if strongest < LOW_LOSS_LN_PSI {
            // Low-loss liquid: nothing wraps, and slightly negative means
            // (pure amplitude noise on a near-zero contrast) are
            // tolerated. Pairs with a near-zero phase differential carry
            // no information for such liquids — their Ω̄ is noise over
            // noise — and are skipped.
            for (i, p) in per_pair.iter().enumerate() {
                if mean(&p.delta_theta).abs() < LOW_LOSS_MIN_PHASE {
                    continue;
                }
                if let Some(c) = gamma_candidate(
                    &p.delta_theta,
                    p.ln_psi_band,
                    0,
                    (LOW_LOSS_MEAN_FLOOR, OMEGA_MEAN_MAX),
                ) {
                    resolved.push((i, c));
                }
            }
        } else {
            // Multi-baseline unwrapping. All pairs share the material's
            // Ω̄, and each pair's wrap-free `−ln ΔΨ` predicts its
            // *unwrapped* phase change: `ΔΘ_true = −lnΔΨ_band / Ω̄`
            // (with the e^{−jβd} sign convention, phase drops as
            // attenuation grows). A 1-D search over Ω̄ scores how well
            // each candidate explains every pair's *wrapped* measurement;
            // pairs with different |D₁−D₂| alias at different rates, so
            // only the true Ω̄ reconciles them — the same principle as
            // multi-baseline interferometric phase unwrapping.
            let dt_band: Vec<f64> = per_pair
                .iter()
                .map(|p| wimi_dsp::stats::circular_mean(&p.delta_theta))
                .collect();
            let best_gammas = resolve_omega(&per_pair, &dt_band, config.gamma_search)?;
            // Materialise the per-pair candidates implied by Ω̄*.
            for (i, (p, &gamma)) in per_pair.iter().zip(&best_gammas).enumerate() {
                if gamma.abs() > config.gamma_search {
                    continue;
                }
                let shifted: Vec<f64> = p
                    .delta_theta
                    .iter()
                    .map(|d| d + gamma as f64 * std::f64::consts::TAU)
                    .collect();
                if let Some(mut c) = gamma_candidate(
                    &shifted,
                    p.ln_psi_band,
                    0,
                    (OMEGA_MEAN_FLOOR, OMEGA_MEAN_MAX),
                ) {
                    c.gamma = gamma;
                    resolved.push((i, c));
                }
            }
        }
        // Fewer than two resolved pairs leave the cross-pair agreement
        // gate below with nothing to check: a single noise-dominated pair
        // (tiny ΔΘ and ln ΔΨ both near the noise floor) would sail through
        // with a fabricated Ω̄, and a lone input's wrap count would go
        // unchecked. Refuse instead — the operator re-seats the beaker and
        // retakes. The pipeline hands one-pair measurements to
        // [`Self::extract`].
        diag.pairs_resolved = resolved.len();
        if resolved.len() < 2 {
            return Err(FeatureError::NoConsistentFeature {
                best_dispersion: f64::INFINITY,
            });
        }

        // Consistency gate: the resolved pairs' Ω̄ means must agree. This
        // is what rejects blocked (metal) or churning (flowing) targets.
        let means: Vec<f64> = resolved.iter().map(|(_, c)| mean(&c.omegas)).collect();
        let grand = mean(&means);
        let max = means.iter().cloned().fold(f64::MIN, f64::max);
        let min = means.iter().cloned().fold(f64::MAX, f64::min);
        let spread = (max - min) / grand.abs().max(OMEGA_NORM_FLOOR);
        if spread > JOINT_SPREAD_GATE * config.max_dispersion {
            return Err(FeatureError::NoConsistentFeature {
                best_dispersion: spread,
            });
        }

        // Primary pair: the strongest phase differential among the
        // resolved (largest unwrapped |ΔΘ| → highest phase SNR; for lossy
        // liquids this coincides with the largest |lnΨ|, while for
        // low-loss liquids |lnΨ| is pure noise and must not decide).
        let denom_mag = |cand: &GammaCandidate, p: &PairData<'_>| -> f64 {
            let shift = cand.gamma as f64 * std::f64::consts::TAU;
            shifted_mean(&p.delta_theta, shift).abs()
        };
        let best = resolved.into_iter().max_by(|(ia, ca), (ib, cb)| {
            denom_mag(ca, &per_pair[*ia]).total_cmp(&denom_mag(cb, &per_pair[*ib]))
        });
        // `resolved` passed the two-pair gate above, so this branch is
        // unreachable; degrade to the no-feature error rather than panic.
        let Some((idx, cand)) = best else {
            return Err(FeatureError::NoConsistentFeature {
                best_dispersion: f64::INFINITY,
            });
        };
        if cand.dispersion > config.max_dispersion {
            return Err(FeatureError::NoConsistentFeature {
                best_dispersion: cand.dispersion,
            });
        }
        Ok(per_pair.swap_remove(idx).feature(cand))
    }
}

/// One usable pair's per-pair quantities (Eqs. 18–19), which both γ
/// routes resolve.
struct PairData<'a> {
    pair: (usize, usize),
    subcarriers: &'a [usize],
    /// Wrapped `ΔΘ` per selected subcarrier.
    delta_theta: Vec<f64>,
    /// `ΔΨ` per selected subcarrier (reported, not used: Ω̄ takes the
    /// band median `ln_psi_band`).
    delta_psi: Vec<f64>,
    /// Band-median `−ln ΔΨ` over every kept subcarrier.
    ln_psi_band: f64,
    /// Coarse unwrapped-ΔΘ estimate from the frequency slope.
    unwrapped_est: f64,
}

/// Why a pair yields no [`PairData`].
enum PairSkip {
    /// A *selected* subcarrier's amplitude ratio is non-finite or
    /// non-positive.
    Degenerate,
    /// Fewer than half the kept subcarriers give a usable band median.
    BandUnusable,
}

impl<'a> PairData<'a> {
    /// Reads `ΔΘ` and `ΔΨ` on the selected subcarriers, then the band
    /// median and the slope estimate. A degenerate selected amplitude is
    /// known before the band median is paid for, and the two skip
    /// reasons stay apart so diagnostics can tell a bad selection from a
    /// bad band.
    ///
    /// `ΔΨ` is reported per selected subcarrier but *used* as a
    /// band-median over every subcarrier: Ω̄ is frequency-flat over one
    /// Wi-Fi channel, and the median over the full band suppresses
    /// per-subcarrier amplitude noise far better than the handful of
    /// phase-selected subcarriers could.
    fn prepare(m: &PairMeasurement<'a>) -> Result<Self, PairSkip> {
        let mut delta_theta = Vec::with_capacity(m.subcarriers.len());
        let mut delta_psi = Vec::with_capacity(m.subcarriers.len());
        for &k in m.subcarriers {
            let dt = wrap_to_pi(m.phase_tar.mean[k] - m.phase_base.mean[k]);
            let br = m.amp_base.mean[k];
            let tr = m.amp_tar.mean[k];
            if !br.is_finite() || !tr.is_finite() || br <= 0.0 || tr <= 0.0 {
                return Err(PairSkip::Degenerate);
            }
            delta_theta.push(dt);
            delta_psi.push(tr / br);
        }
        let ln_psi_band =
            band_ln_psi(m.amp_base, m.amp_tar, m.rejected).ok_or(PairSkip::BandUnusable)?;
        Ok(PairData {
            pair: m.phase_base.pair,
            subcarriers: m.subcarriers,
            delta_theta,
            delta_psi,
            ln_psi_band,
            unwrapped_est: slope_unwrapped_estimate(m.phase_base, m.phase_tar, m.rejected),
        })
    }

    /// The feature this pair gives under the resolved candidate.
    fn feature(self, cand: GammaCandidate) -> MaterialFeature {
        MaterialFeature {
            pair: self.pair,
            subcarriers: self.subcarriers.to_vec(),
            omega: cand.omegas,
            delta_theta: self.delta_theta,
            delta_psi: self.delta_psi,
            gamma: cand.gamma,
            dispersion: cand.dispersion,
        }
    }
}

/// Number of points of the multi-baseline Ω̄ search grid.
const OMEGA_GRID_POINTS: usize = 600;

/// The multi-baseline Ω̄ search grid: [`OMEGA_GRID_POINTS`] values
/// log-spaced from [`OMEGA_GRID_MIN`] to [`OMEGA_MEAN_MAX`]. It depends on
/// nothing but those constants, so it is built once per process.
fn omega_grid() -> &'static [f64; OMEGA_GRID_POINTS] {
    static GRID: std::sync::OnceLock<[f64; OMEGA_GRID_POINTS]> = std::sync::OnceLock::new();
    GRID.get_or_init(|| {
        let (lo, hi) = (OMEGA_GRID_MIN, OMEGA_MEAN_MAX);
        std::array::from_fn(|i| lo * (hi / lo).powf(i as f64 / (OMEGA_GRID_POINTS - 1) as f64))
    })
}

/// Multi-baseline Ω̄ resolution over the search grid: the phase-wrap count
/// the best-scoring Ω̄* implies for every pair.
///
/// # Errors
///
/// [`FeatureError::NoConsistentFeature`] when no Ω̄ explains the pairs
/// (the best score exceeds [`UNWRAP_SCORE_GATE`]), or when a distant Ω̄
/// implying different wrap counts scores within [`AMBIGUITY_MARGIN`] of
/// the best.
fn resolve_omega(
    per_pair: &[PairData<'_>],
    dt_band: &[f64],
    gamma_search: i32,
) -> Result<Vec<i32>, FeatureError> {
    let mut scores = [0.0; OMEGA_GRID_POINTS];
    let (best_omega, best_score) = score_omega_grid(per_pair, dt_band, gamma_search, &mut scores);
    if !best_omega.is_finite() || best_score > UNWRAP_SCORE_GATE {
        return Err(FeatureError::NoConsistentFeature {
            best_dispersion: best_score,
        });
    }
    // Ambiguity detection: at certain beaker placements two pairs' path
    // differentials coincide and a *different wrap hypothesis* explains
    // the data almost as well. Refusing such measurements (→ retake with
    // the beaker nudged) beats silently picking one. An Ω̄ rival only
    // counts if it implies a different γ vector — a smooth score ridge
    // around the same wraps (small-phase liquids) is not ambiguity.
    let best_gammas: Vec<i32> = per_pair
        .iter()
        .zip(dt_band)
        .map(|(p, &dt)| wrap_count(p, dt, best_omega))
        .collect();
    let rival = rival_score(per_pair, dt_band, best_omega, &best_gammas, &scores);
    if rival - best_score < AMBIGUITY_MARGIN {
        return Err(FeatureError::NoConsistentFeature {
            best_dispersion: rival - best_score,
        });
    }
    Ok(best_gammas)
}

/// Scores every Ω̄ of the search grid into `scores` and returns the best
/// `(Ω̄, score)`; `(NaN, ∞)` when no score is finite.
///
/// With the `e^{−jβd}` sign convention each pair's wrap-free `−ln ΔΨ`
/// predicts its *unwrapped* phase change `ΔΘ_true = −lnΔΨ_band / Ω̄`. A
/// candidate's score is how well that prediction explains every pair's
/// wrapped measurement `dt_band` and its frequency-slope estimate.
fn score_omega_grid(
    per_pair: &[PairData<'_>],
    dt_band: &[f64],
    gamma_search: i32,
    scores: &mut [f64; OMEGA_GRID_POINTS],
) -> (f64, f64) {
    // The largest unwrapped phase change `gamma_search` wraps can reach.
    let max_phase = (2 * gamma_search as usize + 1) as f64 * std::f64::consts::PI;
    let mut best_omega = f64::NAN;
    let mut best_score = f64::INFINITY;
    for (&omega, slot) in omega_grid().iter().zip(scores.iter_mut()) {
        let mut score = 0.0;
        let mut wsum: f64 = 0.0;
        for (p, &dt) in per_pair.iter().zip(dt_band) {
            let predicted = -p.ln_psi_band / omega;
            if predicted.abs() > max_phase {
                // This Ω̄ would need more wraps than the geometry
                // allows; penalise it heavily.
                score += 10.0;
                wsum += 1.0;
                continue;
            }
            // Wrapped-phase residual (precise but 2π-ambiguous)…
            let r = wrap_to_pi(predicted - dt);
            score += r * r / (PHASE_RESIDUAL_STD * PHASE_RESIDUAL_STD);
            // …plus the frequency-slope estimate of the unwrapped
            // phase (coarse but unambiguous): `ΔΘ_true(f)` scales
            // with `f`, so its slope across the band, extrapolated
            // to the carrier, estimates the total unwrapped value.
            if p.unwrapped_est.is_finite() {
                let rs = predicted - p.unwrapped_est;
                score += rs * rs / (SLOPE_RESIDUAL_STD * SLOPE_RESIDUAL_STD);
            }
            wsum += 1.0;
        }
        score /= wsum.max(1e-9);
        *slot = score;
        if score < best_score {
            best_score = score;
            best_omega = omega;
        }
    }
    (best_omega, best_score)
}

/// The phase-wrap count pair `p` needs if the material's feature is
/// `omega`: the whole turns between the predicted unwrapped phase change
/// and the wrapped measurement `dt`.
fn wrap_count(p: &PairData<'_>, dt: f64, omega: f64) -> i32 {
    ((-p.ln_psi_band / omega - dt) / std::f64::consts::TAU).round() as i32
}

/// The best score among grid points distant from `best_omega` (more than
/// [`AMBIGUITY_LOG_SEPARATION`] apart in log space) that imply a
/// different wrap count than `best_gammas` for at least one pair; `∞` when
/// there is none. Wrap counts are compared pair by pair in place.
fn rival_score(
    per_pair: &[PairData<'_>],
    dt_band: &[f64],
    best_omega: f64,
    best_gammas: &[i32],
    scores: &[f64; OMEGA_GRID_POINTS],
) -> f64 {
    omega_grid()
        .iter()
        .zip(scores)
        .filter(|&(&o, _)| {
            (o / best_omega).ln().abs() > AMBIGUITY_LOG_SEPARATION
                && per_pair
                    .iter()
                    .zip(dt_band)
                    .zip(best_gammas)
                    .any(|((p, &dt), &g)| wrap_count(p, dt, o) != g)
        })
        .map(|(_, &s)| s)
        .fold(f64::INFINITY, f64::min)
}

/// [`mean`] of `xs` shifted by `shift`, without materialising the shifted
/// series: the same sum over the same values in the same order.
fn shifted_mean(xs: &[f64], shift: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.iter().map(|d| d + shift).sum::<f64>() / xs.len() as f64
}

/// Largest-pair `|ln ΔΨ|` below which the liquid is treated as low-loss
/// (γ = 0 everywhere; see [`MaterialFeature::extract_joint_with_diag`]).
const LOW_LOSS_LN_PSI: f64 = 0.25;
/// Mean-Ω̄ floor used in the low-loss branch, where the amplitude term is
/// pure noise around zero.
const LOW_LOSS_MEAN_FLOOR: f64 = -0.25;
/// Minimum |ΔΘ| (radians) for a pair to count in the low-loss branch.
const LOW_LOSS_MIN_PHASE: f64 = 0.15;
/// Multiplier on `max_dispersion` for the joint cross-pair agreement gate.
const JOINT_SPREAD_GATE: f64 = 1.5;
/// Lower edge of the multi-baseline Ω̄ search grid.
const OMEGA_GRID_MIN: f64 = 0.01;
/// Assumed std dev of the wrapped-phase residual (radians).
const PHASE_RESIDUAL_STD: f64 = 0.20;
/// Assumed std dev of the frequency-slope unwrapped-phase estimate
/// (radians). Coarse — it only gently tilts the score between otherwise
/// tied wrap hypotheses.
const SLOPE_RESIDUAL_STD: f64 = 8.0;
/// Minimum score gap between the best Ω̄ and the best *distant* Ω̄
/// hypothesis; smaller gaps mean the geometry is wrap-ambiguous for this
/// placement and the measurement should be retaken.
const AMBIGUITY_MARGIN: f64 = 4.0;
/// Two Ω̄ hypotheses are "distant" when they differ by more than this in
/// log space (≈ 28 %).
const AMBIGUITY_LOG_SEPARATION: f64 = 0.25;
/// Maximum accepted normalised residual of the multi-baseline unwrapping;
/// larger means the pairs cannot be reconciled (blocked or churning
/// target).
const UNWRAP_SCORE_GATE: f64 = 12.0;

/// Estimates the *unwrapped* cross-antenna phase change from its slope
/// across the band: `ΔΘ_true(f) ∝ f`, so a least-squares slope over the
/// subcarriers, extrapolated to the carrier frequency, recovers the total
/// including any whole 2π turns the per-subcarrier measurement wraps away.
fn slope_unwrapped_estimate(
    phase_base: &PhaseDifferenceProfile,
    phase_tar: &PhaseDifferenceProfile,
    rejected: &[usize],
) -> f64 {
    let n = phase_base.mean.len().min(phase_tar.mean.len());
    let kept = || (0..n).filter(|k| !rejected.contains(k));
    let n_kept = kept().count();
    if n_kept < 4 {
        return f64::NAN;
    }
    // Wrapped ΔΘ per kept subcarrier, then unwrap along the band
    // (adjacent kept subcarriers differ by far less than π). A rejected
    // (zeroed) subcarrier reads the argument of complex zero — a bogus
    // constant — and would corrupt the whole chain if left in.
    let mut series = Vec::with_capacity(n_kept);
    let mut prev = 0.0f64;
    for (i, k) in kept().enumerate() {
        let dt = wrap_to_pi(phase_tar.mean[k] - phase_base.mean[k]);
        let un = if i == 0 {
            dt
        } else {
            prev + wrap_to_pi(dt - prev)
        };
        series.push(un);
        prev = un;
    }
    // Least-squares slope against subcarrier position (uniform index is a
    // good proxy: the Intel 5300 map is nearly uniform). The abscissa is
    // the original index so exclusion gaps keep their true spacing.
    let xs = || kept().map(|k| k as f64);
    let mx = xs().sum::<f64>() / n_kept as f64;
    let my = mean(&series);
    let mut num = 0.0;
    let mut den = 0.0;
    for (x, y) in xs().zip(&series) {
        num += (x - mx) * (y - my);
        den += (x - mx) * (x - mx);
    }
    // A sum of squared deviations is non-negative; non-positive means the
    // abscissa is constant and no slope exists.
    if den <= 0.0 {
        return f64::NAN;
    }
    let slope_per_index = num / den;
    // The reported band spans ~56 subcarrier spacings of 312.5 kHz over a
    // carrier of 5.24 GHz; per reported index the fractional frequency
    // step is (56/29)·312.5 kHz / 5.24 GHz.
    let frac_per_index = (56.0 / (n as f64 - 1.0)) * 312_500.0 / 5.24e9;
    slope_per_index / frac_per_index
}

/// Band-median `−ln ΔΨ` over every finite, positive subcarrier ratio.
/// Returns `None` when fewer than half the subcarriers are usable.
fn band_ln_psi(
    amp_base: &AmplitudeRatioProfile,
    amp_tar: &AmplitudeRatioProfile,
    rejected: &[usize],
) -> Option<f64> {
    let n = amp_base.mean.len().min(amp_tar.mean.len());
    let considered = || (0..n).filter(|k| !rejected.contains(k));
    let mut lps: Vec<f64> = considered()
        .filter_map(|k| {
            let b = amp_base.mean[k];
            let t = amp_tar.mean[k];
            if b.is_finite() && t.is_finite() && b > 0.0 && t > 0.0 {
                Some(-(t / b).ln())
            } else {
                None
            }
        })
        .collect();
    // The half-band quorum is judged over the subcarriers triage kept:
    // rejected ones carry no signal and must not dilute the vote.
    if lps.len() * 2 < considered().count() || lps.is_empty() {
        None
    } else {
        Some(wimi_dsp::stats::median_in_place(&mut lps))
    }
}

/// Joint-extraction pair accounting from
/// [`MaterialFeature::extract_joint_with_diag`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct JointDiagnostics {
    /// Pairs handed to the extractor.
    pub pairs_attempted: usize,
    /// Pairs whose amplitudes were usable (finite, positive, band-median
    /// computable).
    pub pairs_usable: usize,
    /// Pairs for which a phase-wrap count was resolved.
    pub pairs_resolved: usize,
    /// Pairs skipped because a *selected* subcarrier's amplitude was
    /// degenerate (non-finite or non-positive).
    pub pairs_skipped_degenerate: usize,
    /// Pairs skipped because the whole-band amplitude median was
    /// unusable (fewer than half the kept subcarriers finite/positive).
    pub pairs_skipped_band_unusable: usize,
}

/// One antenna pair's measurement inputs for [`MaterialFeature::extract`]
/// and [`MaterialFeature::extract_joint_with_diag`].
#[derive(Debug, Clone, Copy)]
pub struct PairMeasurement<'a> {
    /// Baseline phase-difference profile.
    pub phase_base: &'a PhaseDifferenceProfile,
    /// Target phase-difference profile.
    pub phase_tar: &'a PhaseDifferenceProfile,
    /// Baseline amplitude-ratio profile.
    pub amp_base: &'a AmplitudeRatioProfile,
    /// Target amplitude-ratio profile.
    pub amp_tar: &'a AmplitudeRatioProfile,
    /// Selected subcarriers.
    pub subcarriers: &'a [usize],
    /// Subcarriers screening triage rejected (excluded from band-level
    /// estimates; selection already avoids them).
    pub rejected: &'a [usize],
}

#[derive(Debug, Clone)]
struct GammaCandidate {
    gamma: i32,
    omegas: Vec<f64>,
    dispersion: f64,
}

/// The candidate for one wrap count `gamma`, when its Ω̄ values are finite
/// and within the plausible range on every subcarrier and their mean is
/// within `mean_bounds`. `ln_psi_band` is the band-median `−ln ΔΨ`;
/// `mean_bounds` gates the mean Ω̄ (tighter for lossy liquids, looser for
/// the low-loss branch).
fn gamma_candidate(
    delta_theta: &[f64],
    ln_psi_band: f64,
    gamma: i32,
    mean_bounds: (f64, f64),
) -> Option<GammaCandidate> {
    let tau = std::f64::consts::TAU;
    let sub_floor = OMEGA_SUBCARRIER_FLOOR.min(mean_bounds.0 * 2.5);
    let mut omegas = Vec::with_capacity(delta_theta.len());
    for dt in delta_theta {
        let denom = dt + gamma as f64 * tau;
        // A zero denominator yields ±inf or NaN, which the finiteness
        // gate below rejects — no explicit zero test needed.
        let omega = -ln_psi_band / denom;
        if !omega.is_finite() || !(sub_floor..=OMEGA_SUBCARRIER_MAX).contains(&omega) {
            return None;
        }
        omegas.push(omega);
    }
    let m = mean(&omegas);
    if !(mean_bounds.0..=mean_bounds.1).contains(&m) {
        return None;
    }
    let dispersion = std_dev(&omegas) / m.abs().max(OMEGA_NORM_FLOOR);
    Some(GammaCandidate {
        gamma,
        omegas,
        dispersion,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Baseline and target phase, then baseline and target amplitude
    /// profiles of one pair.
    type Profiles = (
        PhaseDifferenceProfile,
        PhaseDifferenceProfile,
        AmplitudeRatioProfile,
        AmplitudeRatioProfile,
    );

    /// The pair measurement of `p` on `subcarriers`, nothing rejected.
    fn input<'a>(p: &'a Profiles, subcarriers: &'a [usize]) -> PairMeasurement<'a> {
        PairMeasurement {
            phase_base: &p.0,
            phase_tar: &p.1,
            amp_base: &p.2,
            amp_tar: &p.3,
            subcarriers,
            rejected: &[],
        }
    }

    /// Builds synthetic profiles implementing the paper's equations
    /// exactly: ΔΘ_k = ΔD·(β−β₀), ΔΨ_k = e^{−ΔD·α}.
    fn synthetic(delta_d: f64, alpha: f64, beta_contrast: f64, n_sub: usize) -> Profiles {
        // Per-index fractional frequency step matching the slope
        // estimator's model of the band (see slope_unwrapped_estimate).
        let frac = (56.0 / (n_sub as f64 - 1.0)) * 312_500.0 / 5.24e9;
        let base_phase = vec![0.3; n_sub];
        let tar_phase: Vec<f64> = (0..n_sub)
            .map(|k| {
                // Physical frequency dependence across subcarriers; phase
                // drops with in-material path (e^{−jβd} convention).
                let scale = 1.0 + frac * k as f64;
                wrap_to_pi(0.3 - delta_d * beta_contrast * scale)
            })
            .collect();
        let base_amp = vec![1.2; n_sub];
        let tar_amp: Vec<f64> = (0..n_sub)
            .map(|k| {
                let scale = 1.0 + 0.002 * k as f64;
                1.2 * (-delta_d * alpha * scale).exp()
            })
            .collect();
        (
            PhaseDifferenceProfile {
                pair: (0, 1),
                mean: base_phase,
                variance: vec![0.0; n_sub],
            },
            PhaseDifferenceProfile {
                pair: (0, 1),
                mean: tar_phase,
                variance: vec![0.0; n_sub],
            },
            AmplitudeRatioProfile {
                pair: (0, 1),
                mean: base_amp,
                variance: vec![0.0; n_sub],
            },
            AmplitudeRatioProfile {
                pair: (0, 1),
                mean: tar_amp,
                variance: vec![0.0; n_sub],
            },
        )
    }

    /// Verbatim copy of the multi-baseline Ω̄ scan before the grid was
    /// hoisted: 600 `powf` per call and one allocated γ vector per grid
    /// point in the ambiguity scan. Returns the wrap counts the pipeline
    /// then materialised, computed the way it did.
    fn reference_resolve_omega(
        per_pair: &[PairData<'_>],
        dt_band: &[f64],
        config: &FeatureConfig,
    ) -> Result<Vec<i32>, FeatureError> {
        let mut best_omega = f64::NAN;
        let mut best_score = f64::INFINITY;
        let n_grid = 600usize;
        let (lo, hi) = (OMEGA_GRID_MIN, OMEGA_MEAN_MAX);
        let mut grid_scores = Vec::with_capacity(n_grid);
        for i in 0..n_grid {
            let omega = lo * (hi / lo).powf(i as f64 / (n_grid - 1) as f64);
            let mut score = 0.0;
            let mut wsum: f64 = 0.0;
            for (p, &dt) in per_pair.iter().zip(dt_band) {
                let predicted = -p.ln_psi_band / omega;
                if predicted.abs()
                    > (2 * config.gamma_search as usize + 1) as f64 * std::f64::consts::PI
                {
                    score += 10.0;
                    wsum += 1.0;
                    continue;
                }
                let r = wrap_to_pi(predicted - dt);
                score += r * r / (PHASE_RESIDUAL_STD * PHASE_RESIDUAL_STD);
                if p.unwrapped_est.is_finite() {
                    let rs = predicted - p.unwrapped_est;
                    score += rs * rs / (SLOPE_RESIDUAL_STD * SLOPE_RESIDUAL_STD);
                }
                wsum += 1.0;
            }
            score /= wsum.max(1e-9);
            grid_scores.push((omega, score));
            if score < best_score {
                best_score = score;
                best_omega = omega;
            }
        }
        if !best_omega.is_finite() || best_score > UNWRAP_SCORE_GATE {
            return Err(FeatureError::NoConsistentFeature {
                best_dispersion: best_score,
            });
        }
        let gamma_vector = |omega: f64| -> Vec<i32> {
            per_pair
                .iter()
                .zip(dt_band)
                .map(|(p, &dt)| {
                    ((-p.ln_psi_band / omega - dt) / std::f64::consts::TAU).round() as i32
                })
                .collect()
        };
        let best_gammas = gamma_vector(best_omega);
        let rival = grid_scores
            .iter()
            .filter(|(o, _)| {
                (o / best_omega).ln().abs() > AMBIGUITY_LOG_SEPARATION
                    && gamma_vector(*o) != best_gammas
            })
            .map(|&(_, s)| s)
            .fold(f64::INFINITY, f64::min);
        if rival - best_score < AMBIGUITY_MARGIN {
            return Err(FeatureError::NoConsistentFeature {
                best_dispersion: rival - best_score,
            });
        }
        Ok(per_pair
            .iter()
            .zip(dt_band)
            .map(|(p, &dt)| {
                let predicted = -p.ln_psi_band / best_omega;
                let gamma_f = (predicted - dt) / std::f64::consts::TAU;
                gamma_f.round() as i32
            })
            .collect())
    }

    /// Scan inputs of a target with feature `omega` seen by pairs with
    /// path differentials `diffs` (metres) through a phase contrast of
    /// `contrast` rad/m: wrapped phases with noise, band `−ln ΔΨ`, and a
    /// slope estimate off by `slope_err` (NaN when `slope_err` is NaN).
    fn scan_inputs(
        omega: f64,
        contrast: f64,
        diffs: &[f64],
        noise: &[f64],
        slope_err: f64,
    ) -> (Vec<PairData<'static>>, Vec<f64>) {
        let mut pairs = Vec::new();
        let mut dt_band = Vec::new();
        for (i, &d) in diffs.iter().enumerate() {
            let unwrapped = -d * contrast;
            pairs.push(PairData {
                pair: (0, i + 1),
                subcarriers: &[],
                delta_theta: Vec::new(),
                delta_psi: Vec::new(),
                ln_psi_band: -unwrapped * omega,
                unwrapped_est: unwrapped + slope_err,
            });
            dt_band.push(wrap_to_pi(unwrapped + noise[i % noise.len()]));
        }
        (pairs, dt_band)
    }

    /// Bitwise equality of two resolutions, error payloads included.
    fn same_resolution(
        a: &Result<Vec<i32>, FeatureError>,
        b: &Result<Vec<i32>, FeatureError>,
    ) -> bool {
        match (a, b) {
            (Ok(x), Ok(y)) => x == y,
            (
                Err(FeatureError::NoConsistentFeature { best_dispersion: x }),
                Err(FeatureError::NoConsistentFeature { best_dispersion: y }),
            ) => x.to_bits() == y.to_bits(),
            _ => false,
        }
    }

    proptest::proptest! {
        #[test]
        fn omega_scan_matches_allocating_reference(
            omega in 0.01f64..2.2,
            contrast in 40.0f64..900.0,
            diffs in proptest::collection::vec(-0.02f64..0.02, 1..5),
            noise in proptest::collection::vec(-1.2f64..1.2, 1..5),
            slope_err in -9.0f64..9.0,
            slope_known in 0usize..4,
            gamma_search in 0i32..5,
        ) {
            let slope_err = if slope_known == 0 { f64::NAN } else { slope_err };
            let (pairs, dt_band) = scan_inputs(omega, contrast, &diffs, &noise, slope_err);
            let config = FeatureConfig { gamma_search, ..FeatureConfig::default() };
            let got = resolve_omega(&pairs, &dt_band, gamma_search);
            let want = reference_resolve_omega(&pairs, &dt_band, &config);
            proptest::prop_assert!(same_resolution(&got, &want), "{got:?} vs {want:?}");
        }
    }

    #[test]
    fn omega_scan_matches_reference_through_every_gate() {
        // A deterministic sweep that must reach all three outcomes: a
        // resolution, the score gate, and the ambiguity (rival) gate.
        let config = FeatureConfig::default();
        let (mut resolved, mut score_gate, mut rival_gate) = (0, 0, 0);
        let mut state = 0x0BAD_5EED_u64;
        let mut uniform = |lo: f64, hi: f64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            lo + (hi - lo) * ((state >> 11) as f64 / (1u64 << 53) as f64)
        };
        for case in 0..600 {
            let omega = uniform(0.02, 1.6);
            let contrast = uniform(60.0, 850.0);
            let base = uniform(-0.012, 0.012);
            // Every third case puts two pairs at nearly the same path
            // differential: the placement that makes wraps ambiguous.
            let second = if case % 3 == 0 {
                base * uniform(0.97, 1.03)
            } else {
                uniform(-0.012, 0.012)
            };
            let diffs = [base, second, base - second];
            let noise = [uniform(-0.9, 0.9), uniform(-0.9, 0.9), uniform(-0.9, 0.9)];
            let slope_err = if case % 5 == 0 {
                f64::NAN
            } else {
                uniform(-8.0, 8.0)
            };
            let (pairs, dt_band) = scan_inputs(omega, contrast, &diffs, &noise, slope_err);
            let got = resolve_omega(&pairs, &dt_band, config.gamma_search);
            let want = reference_resolve_omega(&pairs, &dt_band, &config);
            assert!(
                same_resolution(&got, &want),
                "case {case}: {got:?} vs {want:?}"
            );
            match got {
                Ok(_) => resolved += 1,
                Err(FeatureError::NoConsistentFeature { best_dispersion })
                    if best_dispersion > UNWRAP_SCORE_GATE =>
                {
                    score_gate += 1
                }
                Err(_) => rival_gate += 1,
            }
        }
        assert!(resolved > 0 && score_gate > 0 && rival_gate > 0,
            "sweep missed a branch: {resolved} resolved, {score_gate} score-gated, {rival_gate} rival-gated");
    }

    #[test]
    fn omega_grid_matches_per_call_powf() {
        let (lo, hi) = (OMEGA_GRID_MIN, OMEGA_MEAN_MAX);
        for (i, &o) in omega_grid().iter().enumerate() {
            let want = lo * (hi / lo).powf(i as f64 / (600 - 1) as f64);
            assert_eq!(o.to_bits(), want.to_bits(), "grid point {i}");
        }
    }

    #[test]
    fn recovers_omega_without_wrapping() {
        // Oil-like: ΔΘ < π, γ = 0.
        let p = synthetic(0.007, 2.8, 65.0, 4);
        let feat =
            MaterialFeature::extract(&input(&p, &[0, 1, 2, 3]), &FeatureConfig::default()).unwrap();
        assert_eq!(feat.gamma, 0);
        let expect = 2.8 / 65.0;
        assert!(
            (feat.omega_mean() - expect).abs() / expect < 0.05,
            "omega = {}, expect {expect}",
            feat.omega_mean()
        );
    }

    #[test]
    fn recovers_omega_with_phase_wrap() {
        // Water-like: ΔD·(β−β₀) ≈ 6.1 rad of phase *drop* → the wrapped
        // measurement needs γ = −1 to recover the true −6.1 rad.
        let p = synthetic(0.0073, 110.0, 830.0, 4);
        let feat =
            MaterialFeature::extract(&input(&p, &[0, 1, 2, 3]), &FeatureConfig::default()).unwrap();
        assert_eq!(feat.gamma, -1);
        let expect = 110.0 / 830.0;
        assert!(
            (feat.omega_mean() - expect).abs() / expect < 0.05,
            "omega = {}, expect {expect}",
            feat.omega_mean()
        );
    }

    #[test]
    fn feature_is_size_independent() {
        // Two different ΔD (container sizes/positions) must give the same Ω̄.
        let p1 = synthetic(0.004, 110.0, 830.0, 4);
        let p2 = synthetic(0.009, 110.0, 830.0, 4);
        let cfg = FeatureConfig::default();
        let f1 = MaterialFeature::extract(&input(&p1, &[0, 1, 2, 3]), &cfg).unwrap();
        let f2 = MaterialFeature::extract(&input(&p2, &[0, 1, 2, 3]), &cfg).unwrap();
        assert!(
            (f1.omega_mean() - f2.omega_mean()).abs() / f1.omega_mean() < 0.05,
            "size leak: {} vs {}",
            f1.omega_mean(),
            f2.omega_mean()
        );
    }

    #[test]
    fn negative_delta_d_works() {
        // Antenna 2's chord longer than antenna 1's: both ΔΘ and ln ΔΨ flip
        // sign; Ω̄ must come out the same.
        let p = synthetic(-0.006, 110.0, 830.0, 4);
        let feat =
            MaterialFeature::extract(&input(&p, &[0, 1, 2, 3]), &FeatureConfig::default()).unwrap();
        let expect = 110.0 / 830.0;
        assert!(
            (feat.omega_mean() - expect).abs() / expect < 0.05,
            "omega = {}",
            feat.omega_mean()
        );
        assert!(feat.gamma >= 0);
    }

    /// Uncorrelated phase/amplitude (blocked LoS) over four subcarriers.
    fn random_phases() -> Profiles {
        let n = 4;
        (
            PhaseDifferenceProfile {
                pair: (0, 1),
                mean: vec![0.0; n],
                variance: vec![0.0; n],
            },
            PhaseDifferenceProfile {
                pair: (0, 1),
                mean: vec![2.9, -1.3, 0.4, -2.2],
                variance: vec![0.0; n],
            },
            AmplitudeRatioProfile {
                pair: (0, 1),
                mean: vec![1.0; n],
                variance: vec![0.0; n],
            },
            AmplitudeRatioProfile {
                pair: (0, 1),
                mean: vec![0.8, 1.4, 0.7, 1.2],
                variance: vec![0.0; n],
            },
        )
    }

    /// The gate that refuses [`random_phases`].
    const TIGHT: FeatureConfig = FeatureConfig {
        gamma_search: 3,
        max_dispersion: 0.3,
    };

    #[test]
    fn rejects_random_phases_as_inconsistent() {
        // No γ can reconcile the subcarriers.
        let res = MaterialFeature::extract(&input(&random_phases(), &[0, 1, 2, 3]), &TIGHT);
        assert!(matches!(res, Err(FeatureError::NoConsistentFeature { .. })));
    }

    /// [`synthetic`] with one selected subcarrier's target ratio zeroed.
    fn degenerate() -> Profiles {
        let mut p = synthetic(0.007, 2.8, 65.0, 4);
        p.3.mean[2] = 0.0;
        p
    }

    #[test]
    fn rejects_degenerate_amplitude() {
        let res = MaterialFeature::extract(
            &input(&degenerate(), &[0, 1, 2, 3]),
            &FeatureConfig::default(),
        );
        assert_eq!(res, Err(FeatureError::DegenerateAmplitude));
    }

    #[test]
    fn as_vector_matches_omega() {
        let p = synthetic(0.007, 2.8, 65.0, 3);
        let feat =
            MaterialFeature::extract(&input(&p, &[0, 1, 2]), &FeatureConfig::default()).unwrap();
        assert_eq!(feat.as_vector(), feat.omega);
        assert_eq!(feat.as_vector().len(), 3);
        assert!(feat.dispersion < 0.1);
    }

    #[test]
    fn distinguishes_materials() {
        // Water-like vs oil-like targets must yield clearly different Ω̄.
        let cfg = FeatureConfig::default();
        let p = synthetic(0.007, 110.0, 830.0, 4);
        let water = MaterialFeature::extract(&input(&p, &[0, 1, 2, 3]), &cfg).unwrap();
        let p = synthetic(0.007, 2.8, 65.0, 4);
        let oil = MaterialFeature::extract(&input(&p, &[0, 1, 2, 3]), &cfg).unwrap();
        assert!((water.omega_mean() - oil.omega_mean()).abs() > 0.05);
    }

    /// The profiles of `pair` over a real Lab capture of 20 baseline and
    /// 20 target packets, with the pipeline's default subcarrier
    /// selection.
    fn captured(
        liquid: wimi_phy::material::Liquid,
        seed: u64,
        n_antennas: usize,
        (a, b): (usize, usize),
    ) -> (Profiles, Vec<usize>) {
        use crate::pipeline::WiMiConfig;
        use wimi_phy::channel::Environment;
        use wimi_phy::csi::CsiSource;
        use wimi_phy::scenario::{Scenario, Simulator};
        use wimi_phy::units::Meters;

        let cfg = WiMiConfig::default();
        let mut builder = Scenario::builder();
        builder.environment(Environment::Lab);
        builder.antennas(n_antennas, Meters::from_cm(2.9));
        let mut sim = Simulator::new(builder.build(), seed);
        let base = sim.capture(20);
        sim.set_liquid(Some(liquid.into()));
        let tar = sim.capture(20);
        let pb = PhaseDifferenceProfile::compute(&base, a, b);
        let pt = PhaseDifferenceProfile::compute(&tar, a, b);
        let selected = cfg.subcarriers.resolve_excluding(&pb, &pt, &[]);
        let ab = AmplitudeRatioProfile::compute(&base, a, b, &cfg.amplitude);
        let at = AmplitudeRatioProfile::compute(&tar, a, b, &cfg.amplitude);
        ((pb, pt, ab, at), selected)
    }

    /// Verbatim copy of the seven-argument single-pair extractor that
    /// [`MaterialFeature::extract`] replaced, with its candidate
    /// enumeration inlined: its own ΔΘ/ΔΨ loop, the slope estimate on the
    /// lossy branch only, and a comparator that recomputes the
    /// incumbent's distance for every candidate.
    fn reference_extract(
        phase_base: &PhaseDifferenceProfile,
        phase_tar: &PhaseDifferenceProfile,
        amp_base: &AmplitudeRatioProfile,
        amp_tar: &AmplitudeRatioProfile,
        subcarriers: &[usize],
        rejected: &[usize],
        config: &FeatureConfig,
    ) -> Result<MaterialFeature, FeatureError> {
        assert_eq!(
            phase_base.pair, phase_tar.pair,
            "phase profiles pair mismatch"
        );
        assert_eq!(
            amp_base.pair, amp_tar.pair,
            "amplitude profiles pair mismatch"
        );
        assert_eq!(
            phase_base.pair, amp_base.pair,
            "phase/amplitude pair mismatch"
        );
        assert!(!subcarriers.is_empty(), "need at least one subcarrier");

        let mut delta_theta = Vec::with_capacity(subcarriers.len());
        let mut delta_psi = Vec::with_capacity(subcarriers.len());
        for &k in subcarriers {
            let dt = wrap_to_pi(phase_tar.mean[k] - phase_base.mean[k]);
            let base_ratio = amp_base.mean[k];
            let tar_ratio = amp_tar.mean[k];
            if !base_ratio.is_finite()
                || !tar_ratio.is_finite()
                || base_ratio <= 0.0
                || tar_ratio <= 0.0
            {
                return Err(FeatureError::DegenerateAmplitude);
            }
            delta_theta.push(dt);
            delta_psi.push(tar_ratio / base_ratio);
        }
        let ln_psi_band =
            band_ln_psi(amp_base, amp_tar, rejected).ok_or(FeatureError::DegenerateAmplitude)?;

        let mut best_dispersion_any = f64::INFINITY;
        let mut best: Option<GammaCandidate> = None;
        if ln_psi_band.abs() < LOW_LOSS_LN_PSI {
            if let Some(cand) = gamma_candidate(
                &delta_theta,
                ln_psi_band,
                0,
                (LOW_LOSS_MEAN_FLOOR, OMEGA_MEAN_MAX),
            ) {
                best_dispersion_any = best_dispersion_any.min(cand.dispersion);
                if cand.dispersion <= config.max_dispersion {
                    best = Some(cand);
                }
            }
        } else {
            let slope_est = slope_unwrapped_estimate(phase_base, phase_tar, rejected);
            let dt_mean = mean(&delta_theta);
            let candidates: Vec<GammaCandidate> = (-config.gamma_search..=config.gamma_search)
                .filter_map(|gamma| {
                    gamma_candidate(&delta_theta, ln_psi_band, gamma, (0.004, OMEGA_MEAN_MAX))
                })
                .collect();
            for cand in candidates {
                best_dispersion_any = best_dispersion_any.min(cand.dispersion);
                if cand.dispersion > config.max_dispersion {
                    continue;
                }
                let unwrapped = dt_mean + cand.gamma as f64 * std::f64::consts::TAU;
                let dist = if slope_est.is_finite() {
                    (unwrapped - slope_est).abs()
                } else {
                    cand.gamma.abs() as f64
                };
                let better = match &best {
                    None => true,
                    Some(b) => {
                        let b_unwrapped = dt_mean + b.gamma as f64 * std::f64::consts::TAU;
                        let b_dist = if slope_est.is_finite() {
                            (b_unwrapped - slope_est).abs()
                        } else {
                            b.gamma.abs() as f64
                        };
                        dist < b_dist
                    }
                };
                if better {
                    best = Some(cand);
                }
            }
        }

        match best {
            Some(cand) => Ok(MaterialFeature {
                pair: phase_base.pair,
                subcarriers: subcarriers.to_vec(),
                omega: cand.omegas.clone(),
                delta_theta,
                delta_psi,
                gamma: cand.gamma,
                dispersion: cand.dispersion,
            }),
            None => Err(FeatureError::NoConsistentFeature {
                best_dispersion: best_dispersion_any,
            }),
        }
    }

    /// Bitwise equality of two extractions, every `f64` of a feature and
    /// the `NoConsistentFeature` payload included.
    fn same_extraction(
        a: &Result<MaterialFeature, FeatureError>,
        b: &Result<MaterialFeature, FeatureError>,
    ) -> bool {
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        match (a, b) {
            (Ok(x), Ok(y)) => {
                x.pair == y.pair
                    && x.subcarriers == y.subcarriers
                    && x.gamma == y.gamma
                    && x.dispersion.to_bits() == y.dispersion.to_bits()
                    && bits(&x.omega) == bits(&y.omega)
                    && bits(&x.delta_theta) == bits(&y.delta_theta)
                    && bits(&x.delta_psi) == bits(&y.delta_psi)
            }
            (
                Err(FeatureError::NoConsistentFeature { best_dispersion: x }),
                Err(FeatureError::NoConsistentFeature { best_dispersion: y }),
            ) => x.to_bits() == y.to_bits(),
            (Err(x), Err(y)) => x == y,
            _ => false,
        }
    }

    #[test]
    fn single_pair_extract_matches_seven_argument_reference() {
        // Returns the resolved γ, if any.
        let check = |p: &Profiles, subcarriers: &[usize], cfg: &FeatureConfig, what: &str| {
            let got = MaterialFeature::extract(&input(p, subcarriers), cfg);
            let want = reference_extract(&p.0, &p.1, &p.2, &p.3, subcarriers, &[], cfg);
            assert!(same_extraction(&got, &want), "{what}: {got:?} vs {want:?}");
            got.ok().map(|f| f.gamma)
        };
        let all4 = [0, 1, 2, 3];
        let default = FeatureConfig::default();
        let water = synthetic(0.0073, 110.0, 830.0, 4);
        let far_water = synthetic(-0.006, 110.0, 830.0, 4);
        let oil = synthetic(0.007, 2.8, 65.0, 4);
        assert_eq!(check(&oil, &all4, &default, "no wrap"), Some(0));
        assert_eq!(check(&water, &all4, &default, "γ = −1"), Some(-1));
        assert_eq!(check(&far_water, &all4, &default, "negative ΔD"), Some(1));
        assert_eq!(check(&random_phases(), &all4, &TIGHT, "random"), None);
        assert_eq!(check(&degenerate(), &all4, &default, "degenerate"), None);
        // Three subcarriers leave the slope estimate NaN, so a lossy
        // liquid's candidates are ranked by |γ|.
        let short = synthetic(0.0073, 110.0, 830.0, 3);
        assert_eq!(check(&short, &[0, 1, 2], &default, "no slope"), Some(-1));

        // Real captures: every liquid, every pair, many wrap counts.
        let liquids = wimi_phy::material::LIQUIDS;
        let mut gammas = std::collections::BTreeSet::new();
        for seed in 1000..1040u64 {
            let liquid = liquids[seed as usize % liquids.len()];
            for pair in [(0, 1), (0, 2), (1, 2)] {
                let (p, selected) = captured(liquid, seed, 3, pair);
                let what = format!("{liquid:?} seed {seed} pair {pair:?}");
                gammas.insert(check(&p, &selected, &default, &what));
            }
        }
        assert!(gammas.len() >= 3, "resolved only {gammas:?}");
    }

    #[test]
    fn joint_extraction_refuses_a_lone_pair() {
        // One pair from a real two-antenna capture that the single-pair
        // extractor measures: joint resolution has no second pair to check
        // its wrap count against, so it must refuse rather than answer.
        let (p, selected) = captured(wimi_phy::material::Liquid::Oil, 0, 2, (0, 1));
        let cfg = FeatureConfig::default();
        let input = input(&p, &selected);
        assert!(
            MaterialFeature::extract(&input, &cfg).is_ok(),
            "the single-pair extractor measures this pair"
        );
        let (result, diag) = MaterialFeature::extract_joint_with_diag(&[input], &cfg);
        assert!(
            matches!(result, Err(FeatureError::NoConsistentFeature { .. })),
            "a lone pair must not yield a joint feature: {result:?}"
        );
        assert_eq!(diag.pairs_attempted, 1);
    }
}

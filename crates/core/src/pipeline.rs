//! The end-to-end WiMi identification pipeline.
//!
//! Ties together every stage of the paper's Fig. 5 workflow: data
//! collection (baseline + target captures), CSI pre-processing (phase
//! calibration, good-subcarrier selection, amplitude denoising), material
//! feature extraction (Ω̄), and SVM classification against the material
//! database.

use crate::amplitude::{
    AmplitudeConfig, AmplitudeRatioProfile, CleanScratch, CleanedAmplitudes, RatioScratch,
};
use crate::antenna::{enumerate_pairs, PairSelection};
use crate::database::MaterialDatabase;
use crate::error::{FeatureError, IdentifyError, IssueKind, StageIssue};
use crate::feature::{FeatureConfig, MaterialFeature, PairMeasurement};
use crate::phase::{PhaseDifferenceProfile, PhaseScratch};
use crate::subcarrier::SubcarrierSelection;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::borrow::Cow;
use wimi_ml::dataset::Dataset;
use wimi_ml::multiclass::MulticlassSvm;
use wimi_ml::scale::StandardScaler;
use wimi_ml::svm::SvmParams;
use wimi_obs::{CounterId, IssueId, StageId};
use wimi_phy::csi::CsiCapture;
use wimi_trace::{Ctx, Observer, SalvageAction, TraceEvent};

/// An antenna whose rows are all-zero in more than this fraction of a
/// capture's finite packets is treated as dead and dropped for the whole
/// measurement (rather than poisoning every pair it appears in).
const DEAD_ANTENNA_FRACTION: f64 = 0.3;
/// Minimum packets per capture the extractor accepts after screening.
const MIN_SCREENED_PACKETS: usize = 4;

/// Configuration of the full pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct WiMiConfig {
    /// Subcarrier selection strategy (default: best 4 by variance).
    pub subcarriers: SubcarrierSelection,
    /// Amplitude cleaning configuration.
    pub amplitude: AmplitudeConfig,
    /// Feature extraction (γ search, consistency gate).
    pub feature: FeatureConfig,
    /// Antenna pair strategy.
    pub pairs: PairSelection,
    /// SVM hyperparameters.
    pub svm: SvmParams,
    /// RNG seed for SMO's random second-choice heuristic (training is
    /// deterministic given this seed).
    pub train_seed: u64,
}

impl Default for WiMiConfig {
    fn default() -> Self {
        WiMiConfig {
            subcarriers: SubcarrierSelection::default(),
            amplitude: AmplitudeConfig::default(),
            feature: FeatureConfig::default(),
            pairs: PairSelection::default(),
            svm: SvmParams::default(),
            train_seed: 0x5EED,
        }
    }
}

/// Per-measurement quality accounting: what screening kept, what it
/// dropped, and every issue any stage reported. A measurement can succeed
/// with a non-empty issue list — that is graceful degradation, and the
/// report is how callers (the experiment harness, a deployment monitor)
/// see how close to the edge a measurement ran.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QualityReport {
    /// Baseline packets before screening.
    pub baseline_packets_total: usize,
    /// Baseline packets surviving screening.
    pub baseline_packets_kept: usize,
    /// Target packets before screening.
    pub target_packets_total: usize,
    /// Target packets surviving screening.
    pub target_packets_kept: usize,
    /// Antennas in the original captures.
    pub antennas_total: usize,
    /// Antennas dropped as dead (original indices).
    pub antennas_dropped: Vec<usize>,
    /// Antenna pairs the extractor attempted.
    pub pairs_attempted: usize,
    /// Antenna pairs that resolved a phase-wrap count.
    pub pairs_resolved: usize,
    /// Subcarriers rejected as unusable across the capture.
    pub subcarriers_rejected: usize,
    /// Everything any stage reported, in detection order.
    pub issues: Vec<StageIssue>,
}

impl QualityReport {
    /// `true` when screening had to discard packets or antennas to make
    /// the measurement work.
    pub fn salvaged(&self) -> bool {
        self.baseline_packets_kept < self.baseline_packets_total
            || self.target_packets_kept < self.target_packets_total
            || !self.antennas_dropped.is_empty()
    }

    /// `true` when nothing was dropped and no stage reported an issue.
    pub fn is_clean(&self) -> bool {
        !self.salvaged() && self.issues.is_empty()
    }
}

/// One measurement: the extraction outcome plus its quality report. This
/// is what [`WiMi::measure`] returns instead of a bare `Result` — the
/// report is populated whether or not extraction succeeded.
#[derive(Debug, Clone, PartialEq)]
pub struct Measurement {
    /// The extracted feature, or why extraction failed.
    pub feature: Result<MaterialFeature, FeatureError>,
    /// Quality accounting for the measurement.
    pub quality: QualityReport,
}

impl Measurement {
    /// `true` when a feature was extracted.
    pub fn is_ok(&self) -> bool {
        self.feature.is_ok()
    }
}

/// One identification outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct Identification {
    /// Predicted material name.
    pub material: String,
    /// Predicted label id in the database.
    pub label: usize,
    /// The feature the decision was based on.
    pub feature: MaterialFeature,
}

/// The WiMi system: feature extractor plus trained classifier.
///
/// # Examples
///
/// See the crate-level documentation of `wimi-core` for the end-to-end
/// train/identify flow.
#[derive(Debug, Clone)]
pub struct WiMi {
    config: WiMiConfig,
    class_names: Vec<String>,
    scaler: Option<StandardScaler>,
    model: Option<MulticlassSvm>,
    /// Where stage spans, counters and ordered events go. A measurement
    /// starts no thread, so its events land in the caller's task scope in
    /// program order; training's per-machine events carry their own task
    /// keys. Traces are thus the same under any `WIMI_THREADS` setting,
    /// and observing never changes any output.
    obs: Observer,
}

impl WiMi {
    /// Creates an untrained system.
    pub fn new(config: WiMiConfig) -> Self {
        WiMi {
            config,
            class_names: Vec::new(),
            scaler: None,
            model: None,
            obs: Observer::default(),
        }
    }

    /// Attaches an observer (the default observes nothing). Measurements,
    /// training, and classification then report stage spans, counters,
    /// histograms and quality issues to its recorder, and ordered events
    /// to its sink in the caller's current [`wimi_trace::TaskKey`]
    /// scope; outputs stay bit-identical.
    pub fn set_observer(&mut self, obs: Observer) {
        self.obs = obs;
    }

    /// The active configuration.
    pub fn config(&self) -> &WiMiConfig {
        &self.config
    }

    /// Whether [`WiMi::train`] has been called.
    pub fn is_trained(&self) -> bool {
        self.model.is_some()
    }

    /// Extracts the material feature from a baseline/target capture pair
    /// (see [`WiMi::measure`] for how the antenna pair is chosen).
    ///
    /// # Errors
    ///
    /// Propagates [`FeatureError`] values: empty/mismatched captures, too
    /// few antennas, an invalid fixed pair, degenerate amplitudes, or no
    /// physically consistent feature (blocked/moving target).
    pub fn extract_feature(
        &self,
        baseline: &CsiCapture,
        target: &CsiCapture,
    ) -> Result<MaterialFeature, FeatureError> {
        self.measure(baseline, target).feature
    }

    /// Full measurement: screening, salvage, extraction, and a
    /// [`QualityReport`] — the graceful-degradation entry point that
    /// [`WiMi::extract_feature`] wraps. It runs start to end on the
    /// caller's thread.
    ///
    /// Screening discards packets holding NaN/Inf CSI, drops antennas
    /// whose rows are all-zero in too many packets (a dead RF chain), and
    /// then discards remaining packets with all-zero rows on a surviving
    /// antenna. On clean captures screening is a strict no-op: the
    /// extracted feature is bit-identical to what the pre-salvage
    /// pipeline produced. Extraction then measures one pair list: the
    /// [`PairSelection::Fixed`] pair, or every pair of the antennas
    /// screening leaves. Each pair becomes one [`PairMeasurement`], and
    /// the list's length picks how γ is resolved:
    ///
    /// - several pairs (three or more antennas): joint γ resolution
    ///   ([`MaterialFeature::extract_joint_with_diag`]), which reports the
    ///   pair with the strongest phase differential;
    /// - one pair — a fixed pair, native two-antenna hardware, or three
    ///   antennas with one dead chain: the single-pair extractor
    ///   ([`MaterialFeature::extract`]).
    ///
    /// A fixed pair's order does not matter, and a pair naming one
    /// antenna twice or an antenna the capture lacks fails with
    /// [`FeatureError::InvalidPair`] before screening.
    pub fn measure(&self, baseline: &CsiCapture, target: &CsiCapture) -> Measurement {
        let m = self.measure_inner(baseline, target);
        observe_measurement(&self.obs, &m);
        m
    }

    fn measure_inner(&self, baseline: &CsiCapture, target: &CsiCapture) -> Measurement {
        let mut quality = QualityReport {
            baseline_packets_total: baseline.len(),
            baseline_packets_kept: baseline.len(),
            target_packets_total: target.len(),
            target_packets_kept: target.len(),
            antennas_total: baseline.n_antennas(),
            ..QualityReport::default()
        };
        if baseline.is_empty() || target.is_empty() {
            return failed(quality, FeatureError::EmptyCapture);
        }
        if baseline.n_antennas() != target.n_antennas()
            || baseline.n_subcarriers() != target.n_subcarriers()
        {
            return failed(quality, FeatureError::DimensionMismatch);
        }
        if baseline.n_antennas() < 2 {
            return failed(quality, FeatureError::NeedTwoAntennas);
        }

        // A fixed pair is checked against the capture before screening,
        // in ascending order: the feature of (b, a) is that of (a, b).
        let fixed = match self.config.pairs {
            PairSelection::Fixed(a, b) => {
                let pair = (a.min(b), a.max(b));
                if pair.0 == pair.1 || pair.1 >= baseline.n_antennas() {
                    return failed(
                        quality,
                        FeatureError::InvalidPair {
                            pair,
                            antennas: baseline.n_antennas(),
                        },
                    );
                }
                Some(pair)
            }
            PairSelection::Best => None,
        };

        let screened = {
            let _span = self.obs.span(StageId::Screening);
            match screen(baseline, target, &mut quality) {
                Ok(s) => s,
                Err(e) => return failed(quality, e),
            }
        };
        let base = screened.baseline.as_ref();
        let tar = screened.target.as_ref();
        let survivors = &screened.survivors;

        // A fixed pair is measured alone, in the screened numbering;
        // otherwise every pair of survivors is, and two survivors give
        // exactly the pair (0, 1).
        let fixed = match fixed
            .map(|(a, b)| remap_fixed_pair(a, b, survivors))
            .transpose()
        {
            Ok(fixed) => fixed,
            Err(e) => {
                quality.pairs_attempted = 1;
                return failed(quality, e);
            }
        };
        let all_pairs;
        let pairs = match &fixed {
            Some(pair) => std::slice::from_ref(pair),
            None => {
                all_pairs = enumerate_pairs(base.n_antennas());
                &all_pairs[..]
            }
        };
        let rejected = &screened.rejected_subcarriers;
        match self.extract(base, tar, pairs, rejected, &mut quality) {
            Ok(mut f) => {
                // Report the pair in the original capture's antenna
                // numbering even when screening dropped antennas.
                f.pair = (survivors[f.pair.0], survivors[f.pair.1]);
                Measurement {
                    feature: Ok(f),
                    quality,
                }
            }
            Err(e) => failed(quality, e),
        }
    }

    /// Extracts the feature over `pairs` (ascending, in the screened
    /// captures' numbering) and books their accounting into `quality`.
    /// One pair goes to the single-pair extractor; several go to joint γ
    /// resolution, whose cross-pair gate would have nothing to compare a
    /// lone pair against.
    fn extract(
        &self,
        baseline: &CsiCapture,
        target: &CsiCapture,
        pairs: &[(usize, usize)],
        rejected: &[usize],
        quality: &mut QualityReport,
    ) -> Result<MaterialFeature, FeatureError> {
        // Cleaning is the most expensive per-pair stage, and each column
        // is cleaned on its own: only the antennas the pairs read are
        // cleaned, once however many pairs read them. Antenna `x` of the
        // capture is antenna `rank(x)` of the cleaned planes. One span
        // covers the cleaning and every pair's ratios.
        let reads = |x: usize| pairs.iter().any(|&(a, b)| a == x || b == x);
        let rank = |x: usize| (0..x).filter(|&y| reads(y)).count();
        let amplitude_span = self.obs.stage(StageId::AmplitudeDenoising);
        let (config, mut clean_scratch) = (&self.config.amplitude, CleanScratch::default());
        let amps = [baseline, target].map(|cap| {
            CleanedAmplitudes::compute_antennas_with(cap, reads, config, &mut clean_scratch)
        });
        let mut ratio_scratch = RatioScratch::default();
        let mut ratios = |&(a, b): &(usize, usize)| {
            amps.each_ref().map(|cleaned| {
                let mut profile = AmplitudeRatioProfile::from_cleaned_with(
                    cleaned,
                    rank(a),
                    rank(b),
                    &mut ratio_scratch,
                );
                profile.pair = (a, b);
                profile
            })
        };
        let mut phase_scratch = PhaseScratch::default();
        let mut phases = |&(a, b): &(usize, usize)| {
            self.phase_profiles(baseline, target, a, b, rejected, &mut phase_scratch)
        };

        if let [pair] = pairs {
            let amp = ratios(pair);
            drop(amplitude_span);
            let phase = phases(pair);
            quality.pairs_attempted = 1;
            let _span = self.obs.stage(StageId::GammaResolution);
            let result = MaterialFeature::extract(
                &pair_measurement(&amp, &phase, rejected),
                &self.config.feature,
            );
            quality.pairs_resolved = result.is_ok() as usize;
            return result;
        }
        let amps: Vec<_> = pairs.iter().map(ratios).collect();
        drop(amplitude_span);
        let phases: Vec<_> = pairs.iter().map(phases).collect();
        let inputs: Vec<_> = amps
            .iter()
            .zip(&phases)
            .map(|(amp, phase)| pair_measurement(amp, phase, rejected))
            .collect();
        let (result, diag) = {
            let _span = self.obs.span(StageId::GammaResolution);
            MaterialFeature::extract_joint_with_diag(&inputs, &self.config.feature)
        };
        quality.pairs_attempted = diag.pairs_attempted;
        quality.pairs_resolved = diag.pairs_resolved;
        if let Some(rec) = self.obs.recorder() {
            rec.add(CounterId::PairsUsable, diag.pairs_usable as u64);
            rec.add(
                CounterId::PairsSkippedDegenerate,
                diag.pairs_skipped_degenerate as u64,
            );
            rec.add(
                CounterId::PairsSkippedBandUnusable,
                diag.pairs_skipped_band_unusable as u64,
            );
        }
        if diag.pairs_resolved < diag.pairs_attempted {
            quality.issues.push(StageIssue::new(
                StageId::GammaResolution,
                IssueKind::PairsUnresolved {
                    attempted: diag.pairs_attempted,
                    resolved: diag.pairs_resolved,
                },
            ));
        }
        result
    }

    /// Per-pair phase work: phase calibration through the measurement's
    /// one phase scratch, then good-subcarrier selection, each under its
    /// stage span when a recorder is attached.
    fn phase_profiles(
        &self,
        baseline: &CsiCapture,
        target: &CsiCapture,
        a: usize,
        b: usize,
        rejected: &[usize],
        scratch: &mut PhaseScratch,
    ) -> PhaseProfiles {
        let phase = {
            let _span = self.obs.stage(StageId::PhaseCalibration);
            [baseline, target].map(|cap| PhaseDifferenceProfile::compute_with(cap, a, b, scratch))
        };
        let selected = {
            let _span = self.obs.stage(StageId::SubcarrierSelection);
            self.config
                .subcarriers
                .resolve_excluding(&phase[0], &phase[1], rejected)
        };
        (phase, selected)
    }

    /// Trains the SVM on a material database.
    ///
    /// # Panics
    ///
    /// Panics if the database is empty or holds fewer than two materials.
    pub fn train(&mut self, database: &MaterialDatabase) {
        let ds = database.to_dataset();
        self.train_on_dataset(&ds);
    }

    /// Trains directly on a prepared dataset (used by the evaluation
    /// harness to reuse extracted features).
    ///
    /// # Panics
    ///
    /// Panics if the dataset has fewer than two populated classes.
    pub fn train_on_dataset(&mut self, ds: &Dataset) {
        let scaler = StandardScaler::fit(ds.features());
        let scaled = scaler.transform_dataset(ds);
        let mut rng = StdRng::seed_from_u64(self.config.train_seed);
        let model = MulticlassSvm::train_observed(&scaled, &self.config.svm, &mut rng, &self.obs);
        self.class_names = ds.class_names().to_vec();
        self.scaler = Some(scaler);
        self.model = Some(model);
    }

    /// Identifies the target material from a baseline/target capture pair.
    ///
    /// # Errors
    ///
    /// [`IdentifyError::NotTrained`] before [`WiMi::train`];
    /// [`IdentifyError::Feature`] when extraction fails.
    pub fn identify(
        &self,
        baseline: &CsiCapture,
        target: &CsiCapture,
    ) -> Result<Identification, IdentifyError> {
        let model = self.model.as_ref().ok_or(IdentifyError::NotTrained)?;
        let scaler = self.scaler.as_ref().ok_or(IdentifyError::NotTrained)?;
        let feature = self.extract_feature(baseline, target)?;
        let _span = self.obs.span(StageId::Classification);
        let label = model.predict(&scaler.transform_one(&feature.as_vector()));
        Ok(Identification {
            material: self.class_names[label].clone(),
            label,
            feature,
        })
    }

    /// Classifies an already-extracted feature.
    ///
    /// # Errors
    ///
    /// [`IdentifyError::NotTrained`] before training.
    pub fn classify_feature(&self, feature: &MaterialFeature) -> Result<usize, IdentifyError> {
        let model = self.model.as_ref().ok_or(IdentifyError::NotTrained)?;
        let scaler = self.scaler.as_ref().ok_or(IdentifyError::NotTrained)?;
        let _span = self.obs.span(StageId::Classification);
        Ok(model.predict(&scaler.transform_one(&feature.as_vector())))
    }

    /// Classifies a batch of already-extracted features in one call:
    /// one classification span and one model dispatch amortised over the
    /// whole batch. This is the inference path the `wimi-serve` engine
    /// coalesces concurrent session requests onto; labels come back in
    /// input order, identical to calling [`WiMi::classify_feature`] per
    /// feature.
    ///
    /// # Errors
    ///
    /// [`IdentifyError::NotTrained`] before training.
    pub fn classify_features(
        &self,
        features: &[MaterialFeature],
    ) -> Result<Vec<usize>, IdentifyError> {
        let model = self.model.as_ref().ok_or(IdentifyError::NotTrained)?;
        let scaler = self.scaler.as_ref().ok_or(IdentifyError::NotTrained)?;
        let _span = self.obs.span(StageId::Classification);
        let scaled: Vec<Vec<f64>> = features
            .iter()
            .map(|f| scaler.transform_one(&f.as_vector()))
            .collect();
        Ok(model.predict_batch(&scaled))
    }
}

/// Folds one finished measurement into the observer: outcome counters,
/// packet/antenna/pair accounting, per-issue tallies, and the γ and Ω̄
/// dispersion histograms on success — plus, as *ordered* events, the
/// locating context the aggregates throw away (which antenna died, how
/// many packets a triage decision dropped, where extraction failed).
///
/// Runs once per measurement, after extraction, on the caller's thread
/// — as all of [`WiMi::measure`] does — so every event lands in the
/// caller's current task scope in a deterministic order regardless of
/// `WIMI_THREADS`. The per-pair seams inside extraction book aggregate
/// spans only ([`Observer::stage`]): an event there would add to every
/// trace artifact.
fn observe_measurement(obs: &Observer, m: &Measurement) {
    let q = &m.quality;
    let rec = obs.recorder();
    obs.count(CounterId::MeasurementsAttempted, 1);
    obs.count(
        if m.is_ok() {
            CounterId::MeasurementsOk
        } else {
            CounterId::MeasurementsFailed
        },
        1,
    );
    if q.salvaged() {
        obs.count(CounterId::MeasurementsSalvaged, 1);
    }
    let total = (q.baseline_packets_total + q.target_packets_total) as u64;
    let kept = (q.baseline_packets_kept + q.target_packets_kept) as u64;
    let dropped = total.saturating_sub(kept);
    obs.count(CounterId::PacketsKept, kept);
    if let Some(rec) = rec {
        rec.add(CounterId::PacketsDropped, dropped);
        rec.add(CounterId::AntennasDropped, q.antennas_dropped.len() as u64);
        rec.add(
            CounterId::SubcarriersRejected,
            q.subcarriers_rejected as u64,
        );
    }
    if dropped > 0 {
        obs.emit(TraceEvent::Salvage {
            action: SalvageAction::DropBadPackets,
            count: dropped,
        });
    }
    if !q.antennas_dropped.is_empty() {
        obs.emit(TraceEvent::Salvage {
            action: SalvageAction::DropDeadAntenna,
            count: q.antennas_dropped.len() as u64,
        });
    }
    obs.count(CounterId::PairsAttempted, q.pairs_attempted as u64);
    obs.count(CounterId::PairsResolved, q.pairs_resolved as u64);
    for issue in &q.issues {
        let id = issue_id(&issue.kind);
        if let Some(rec) = rec {
            rec.issue(id, 1);
        }
        let (count, ctx) = issue_detail(&issue.kind);
        obs.emit(TraceEvent::Issue {
            issue: id,
            count,
            ctx,
        });
    }
    match &m.feature {
        Ok(f) => {
            if let Some(rec) = rec {
                rec.record_gamma(f.gamma);
                rec.record_dispersion(f.dispersion);
            }
            obs.emit(TraceEvent::Feature {
                pairs: q.pairs_resolved as u32,
                gamma_min: f.gamma,
                gamma_max: f.gamma,
                dispersion: f.dispersion,
            });
        }
        Err(e) => obs.emit(TraceEvent::Failed {
            stage: stage_of(e),
            issue: IssueId::Extraction,
        }),
    }
}

/// The occurrence count and locating context a [`QualityReport`] issue
/// carries into its trace event.
fn issue_detail(kind: &IssueKind) -> (u64, Ctx) {
    match kind {
        IssueKind::NonFinitePackets { dropped } | IssueKind::PartialDropout { dropped } => {
            (*dropped as u64, Ctx::NONE)
        }
        IssueKind::DeadAntenna { antenna } => (1, Ctx::antenna(*antenna as u32)),
        IssueKind::ShortCapture { kept, .. } => (1, Ctx::packet(*kept as u32)),
        IssueKind::RejectedSubcarriers { count } => (*count as u64, Ctx::NONE),
        IssueKind::PairsUnresolved {
            attempted,
            resolved,
        } => (attempted.saturating_sub(*resolved) as u64, Ctx::NONE),
        IssueKind::Extraction(FeatureError::AntennaFailed { antenna }) => {
            (1, Ctx::antenna(*antenna as u32))
        }
        IssueKind::Extraction(_) => (1, Ctx::NONE),
    }
}

/// The recorder bucket a [`QualityReport`] issue tallies under.
fn issue_id(kind: &IssueKind) -> IssueId {
    match kind {
        IssueKind::NonFinitePackets { .. } => IssueId::NonFinitePackets,
        IssueKind::DeadAntenna { .. } => IssueId::DeadAntenna,
        IssueKind::PartialDropout { .. } => IssueId::PartialDropout,
        IssueKind::ShortCapture { .. } => IssueId::ShortCapture,
        IssueKind::RejectedSubcarriers { .. } => IssueId::RejectedSubcarriers,
        IssueKind::PairsUnresolved { .. } => IssueId::PairsUnresolved,
        IssueKind::Extraction(_) => IssueId::Extraction,
    }
}

/// Baseline and target phase-difference profiles of one pair, with the
/// subcarriers selected on them.
type PhaseProfiles = ([PhaseDifferenceProfile; 2], Vec<usize>);

/// One pair's extractor input from its baseline and target ratio
/// profiles and its [`PhaseProfiles`].
fn pair_measurement<'a>(
    [amp_base, amp_tar]: &'a [AmplitudeRatioProfile; 2],
    ([phase_base, phase_tar], selected): &'a PhaseProfiles,
    rejected: &'a [usize],
) -> PairMeasurement<'a> {
    PairMeasurement {
        phase_base,
        phase_tar,
        amp_base,
        amp_tar,
        subcarriers: selected,
        rejected,
    }
}

/// Finalises a failed measurement, filing the error under the stage that
/// produced it.
fn failed(mut quality: QualityReport, err: FeatureError) -> Measurement {
    quality.issues.push(StageIssue::new(
        stage_of(&err),
        IssueKind::Extraction(err.clone()),
    ));
    Measurement {
        feature: Err(err),
        quality,
    }
}

/// The pipeline stage a [`FeatureError`] originates from.
fn stage_of(err: &FeatureError) -> StageId {
    match err {
        FeatureError::EmptyCapture
        | FeatureError::DimensionMismatch
        | FeatureError::NeedTwoAntennas
        | FeatureError::InsufficientPackets { .. }
        | FeatureError::AntennaFailed { .. }
        | FeatureError::InvalidPair { .. } => StageId::Screening,
        FeatureError::DegenerateAmplitude => StageId::AmplitudeDenoising,
        FeatureError::NoConsistentFeature { .. } => StageId::GammaResolution,
    }
}

/// Maps a fixed pair's original antenna indices into the post-screening
/// numbering, or reports which antenna screening found dead.
fn remap_fixed_pair(
    a: usize,
    b: usize,
    survivors: &[usize],
) -> Result<(usize, usize), FeatureError> {
    let find = |x: usize| {
        survivors
            .iter()
            .position(|&s| s == x)
            .ok_or(FeatureError::AntennaFailed { antenna: x })
    };
    Ok((find(a)?, find(b)?))
}

/// Screened captures: possibly rebuilt (bad packets/antennas removed),
/// borrowed untouched when the input was clean.
struct Screened<'a> {
    baseline: Cow<'a, CsiCapture>,
    target: Cow<'a, CsiCapture>,
    /// Original indices of the surviving antennas, ascending. Survivor
    /// `i` of the screened captures is original antenna `survivors[i]`.
    survivors: Vec<usize>,
    /// Subcarrier indices triage found unusable (zero amplitude median on
    /// a surviving antenna); selection must not pick them.
    rejected_subcarriers: Vec<usize>,
}

/// Per-capture scan: finite mask, per-packet/per-antenna all-zero rows,
/// and whether any individual channel estimate was exactly zero.
struct CapScan {
    finite: Vec<bool>,
    /// Packet-major all-zero flags: entry `m · n_ant + a`.
    zero_rows: Vec<bool>,
    n_ant: usize,
    n_finite: usize,
    saw_zero: bool,
}

impl CapScan {
    /// Whether antenna `a`'s row of packet `m` is all-zero.
    fn row_is_zero(&self, m: usize, a: usize) -> bool {
        self.zero_rows[m * self.n_ant + a]
    }
}

fn scan_capture(cap: &CsiCapture, n_ant: usize) -> CapScan {
    let mut finite = Vec::with_capacity(cap.len());
    let mut zero_rows = Vec::with_capacity(cap.len() * n_ant);
    let mut n_finite = 0usize;
    let mut saw_zero = false;
    for m in 0..cap.len() {
        let fin = cap.packet_is_finite(m);
        n_finite += fin as usize;
        finite.push(fin);
        zero_rows.extend((0..n_ant).map(|a| cap.antenna_row_is_zero(m, a)));
        if !saw_zero {
            // `packet_has_zero` uses `norm_sqr <= 0.0` as the zero test.
            saw_zero = cap.packet_has_zero(m);
        }
    }
    CapScan {
        finite,
        zero_rows,
        n_ant,
        n_finite,
        saw_zero,
    }
}

/// Screens a baseline/target pair: drops non-finite packets, dead
/// antennas, and partial-dropout packets, recording everything in the
/// quality report. Clean captures pass through untouched (borrowed).
fn screen<'a>(
    baseline: &'a CsiCapture,
    target: &'a CsiCapture,
    quality: &mut QualityReport,
) -> Result<Screened<'a>, FeatureError> {
    let n_ant = baseline.n_antennas();
    let scan_b = scan_capture(baseline, n_ant);
    let scan_t = scan_capture(target, n_ant);

    let non_finite = (baseline.len() - scan_b.n_finite) + (target.len() - scan_t.n_finite);
    if non_finite > 0 {
        quality.issues.push(StageIssue::new(
            StageId::Screening,
            IssueKind::NonFinitePackets {
                dropped: non_finite,
            },
        ));
    }
    if scan_b.n_finite == 0 || scan_t.n_finite == 0 {
        quality.baseline_packets_kept = scan_b.n_finite;
        quality.target_packets_kept = scan_t.n_finite;
        return Err(FeatureError::InsufficientPackets {
            kept: scan_b.n_finite.min(scan_t.n_finite),
            needed: MIN_SCREENED_PACKETS,
        });
    }

    // Dead-antenna triage: the worst fraction of all-zero rows either
    // capture shows for the antenna, over its finite packets.
    let zero_fraction = |scan: &CapScan, a: usize| -> f64 {
        let zeros = scan
            .finite
            .iter()
            .enumerate()
            .filter(|&(m, &fin)| fin && scan.row_is_zero(m, a))
            .count();
        zeros as f64 / scan.n_finite as f64
    };
    let mut candidates: Vec<(usize, f64)> = (0..n_ant)
        .map(|a| {
            let f = zero_fraction(&scan_b, a).max(zero_fraction(&scan_t, a));
            (a, f)
        })
        .filter(|&(_, f)| f > DEAD_ANTENNA_FRACTION)
        .collect();
    // Worst first; never drop below the two antennas a pair needs.
    candidates.sort_by(|x, y| y.1.total_cmp(&x.1));
    candidates.truncate(n_ant.saturating_sub(2));
    let mut dropped_antennas: Vec<usize> = candidates.iter().map(|&(a, _)| a).collect();
    dropped_antennas.sort_unstable();
    for &a in &dropped_antennas {
        quality.issues.push(StageIssue::new(
            StageId::Screening,
            IssueKind::DeadAntenna { antenna: a },
        ));
    }
    let survivors: Vec<usize> = (0..n_ant)
        .filter(|a| !dropped_antennas.contains(a))
        .collect();

    // Packet retention on the survivors: finite and no all-zero row.
    let keep_mask = |scan: &CapScan| -> Vec<bool> {
        scan.finite
            .iter()
            .enumerate()
            .map(|(m, &fin)| fin && survivors.iter().all(|&a| !scan.row_is_zero(m, a)))
            .collect()
    };
    let keep_b = keep_mask(&scan_b);
    let keep_t = keep_mask(&scan_t);
    let kept_b = keep_b.iter().filter(|&&k| k).count();
    let kept_t = keep_t.iter().filter(|&&k| k).count();
    let dropout_dropped = (scan_b.n_finite - kept_b) + (scan_t.n_finite - kept_t);
    if dropout_dropped > 0 {
        quality.issues.push(StageIssue::new(
            StageId::Screening,
            IssueKind::PartialDropout {
                dropped: dropout_dropped,
            },
        ));
    }
    quality.baseline_packets_kept = kept_b;
    quality.target_packets_kept = kept_t;
    quality.antennas_dropped = dropped_antennas;

    let salvaged = quality.salvaged();
    let kept_min = kept_b.min(kept_t);
    if salvaged && kept_min < MIN_SCREENED_PACKETS {
        return Err(FeatureError::InsufficientPackets {
            kept: kept_min,
            needed: MIN_SCREENED_PACKETS,
        });
    }
    if !salvaged && kept_min < MIN_SCREENED_PACKETS {
        // A deliberately short clean capture is the caller's choice;
        // note it and let extraction decide.
        quality.issues.push(StageIssue::new(
            StageId::Screening,
            IssueKind::ShortCapture {
                kept: kept_min,
                needed: MIN_SCREENED_PACKETS,
            },
        ));
    }

    let rebuild = |cap: &CsiCapture, keep: &[bool]| -> CsiCapture {
        cap.select_packets_antennas(keep, &survivors)
    };
    let (base, tar) = if salvaged {
        (
            Cow::Owned(rebuild(baseline, &keep_b)),
            Cow::Owned(rebuild(target, &keep_t)),
        )
    } else {
        (Cow::Borrowed(baseline), Cow::Borrowed(target))
    };

    // Subcarrier triage, only worth the scan when something was zero or
    // dropped: a subcarrier whose amplitude median is zero on a surviving
    // antenna in either capture carries no usable signal. The *set* (not
    // just the count) flows into subcarrier selection: a zeroed
    // subcarrier has constant phase, so its phase-difference variance is
    // zero and `BestByVariance` would otherwise pick it first.
    let mut rejected_subcarriers: Vec<usize> = Vec::new();
    if salvaged || scan_b.saw_zero || scan_t.saw_zero {
        let n_sub = base.n_subcarriers();
        rejected_subcarriers = (0..n_sub)
            .filter(|&k| {
                [base.as_ref(), tar.as_ref()].into_iter().any(|cap| {
                    (0..cap.n_antennas()).any(|a| {
                        let amps = cap.amplitude_series(a, k);
                        let m = wimi_dsp::stats::median(&amps);
                        // Amplitude medians are non-negative.
                        !m.is_finite() || m <= 0.0
                    })
                })
            })
            .collect();
        if !rejected_subcarriers.is_empty() {
            quality.subcarriers_rejected = rejected_subcarriers.len();
            quality.issues.push(StageIssue::new(
                StageId::SubcarrierSelection,
                IssueKind::RejectedSubcarriers {
                    count: rejected_subcarriers.len(),
                },
            ));
        }
    }

    Ok(Screened {
        baseline: base,
        target: tar,
        survivors,
        rejected_subcarriers,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use wimi_phy::csi::CsiSource;
    use wimi_phy::material::Liquid;
    use wimi_phy::scenario::{Scenario, Simulator};

    fn capture_pair(liquid: Liquid, seed: u64, n: usize) -> (CsiCapture, CsiCapture) {
        capture_pair_at(liquid, seed, n, 1.0)
    }

    fn capture_pair_at(
        liquid: Liquid,
        seed: u64,
        n: usize,
        offset_cm: f64,
    ) -> (CsiCapture, CsiCapture) {
        let mut builder = Scenario::builder();
        builder.target_offset(wimi_phy::units::Meters::from_cm(offset_cm));
        let mut sim = Simulator::new(builder.build(), seed);
        let baseline = sim.capture(n);
        sim.set_liquid(Some(liquid.into()));
        let target = sim.capture(n);
        (baseline, target)
    }

    /// The one-shot 40-packet Milk pair at the default 1 cm offset that
    /// the salvage tests corrupt: the first seed from 1 whose unfaulted
    /// pair measures Ok. Every such test then starts from a measurable
    /// pair, and only its own corruption can take that away.
    fn measurable_milk_pair() -> (CsiCapture, CsiCapture) {
        let wimi = WiMi::new(WiMiConfig::default());
        (1..=20)
            .map(|seed| capture_pair(Liquid::Milk, seed, 40))
            .find(|(base, tar)| wimi.measure(base, tar).feature.is_ok())
            .expect("precondition: a seed in 1..=20 gives a measurable Milk pair")
    }

    /// Extracts a feature, retrying with fresh captures and a nudged
    /// beaker when the pipeline reports an ambiguous/inconsistent
    /// measurement (the operator's "re-seat and re-measure" move).
    fn extract_with_retry(
        wimi: &WiMi,
        liquid: Liquid,
        seed: u64,
        n: usize,
    ) -> Option<MaterialFeature> {
        for (attempt, &offset_cm) in [1.2, 0.9, 1.5, 1.0, 1.35].iter().enumerate() {
            let (base, tar) = capture_pair_at(liquid, seed + 1000 * attempt as u64, n, offset_cm);
            if let Ok(f) = wimi.extract_feature(&base, &tar) {
                return Some(f);
            }
        }
        None
    }

    #[test]
    fn extract_feature_produces_finite_omega() {
        let (base, tar) = measurable_milk_pair();
        let wimi = WiMi::new(WiMiConfig::default());
        let feat = wimi.extract_feature(&base, &tar).expect("feature");
        assert_eq!(feat.omega.len(), 4);
        assert!(feat.omega.iter().all(|o| o.is_finite()));
        assert!(feat.omega_mean().abs() > 1e-3);
    }

    #[test]
    fn water_and_oil_features_differ() {
        let wimi = WiMi::new(WiMiConfig::default());
        let water = extract_with_retry(&wimi, Liquid::PureWater, 2, 40).expect("water");
        let oil = extract_with_retry(&wimi, Liquid::Oil, 3, 40).expect("oil");
        assert!(
            (water.omega_mean() - oil.omega_mean()).abs() > 0.02,
            "water {} vs oil {}",
            water.omega_mean(),
            oil.omega_mean()
        );
    }

    #[test]
    fn empty_capture_is_rejected() {
        let wimi = WiMi::new(WiMiConfig::default());
        let (base, _) = capture_pair(Liquid::Milk, 4, 10);
        let err = wimi.extract_feature(&base, &CsiCapture::new());
        assert_eq!(err, Err(FeatureError::EmptyCapture));
    }

    #[test]
    fn identify_before_training_fails() {
        let wimi = WiMi::new(WiMiConfig::default());
        let (base, tar) = capture_pair(Liquid::Milk, 5, 10);
        assert_eq!(wimi.identify(&base, &tar), Err(IdentifyError::NotTrained));
    }

    #[test]
    fn train_and_identify_two_liquids() {
        // Trials whose every placement is refused are dropped, exactly as
        // the measurement protocol would skip them; the classifier only
        // needs a handful of good measurements per class.
        let mut db = MaterialDatabase::new();
        let wimi_extractor = WiMi::new(WiMiConfig::default());
        for trial in 0..10 {
            for &liquid in &[Liquid::PureWater, Liquid::Oil] {
                if let Some(feat) = extract_with_retry(&wimi_extractor, liquid, 100 + trial, 30) {
                    db.add(liquid.name(), feat);
                }
            }
        }
        assert!(
            db.samples_of("Pure water").len() >= 5,
            "too few water samples"
        );
        assert!(db.samples_of("Oil").len() >= 5, "too few oil samples");
        let mut wimi = WiMi::new(WiMiConfig::default());
        wimi.train(&db);
        assert!(wimi.is_trained());

        let mut correct = 0;
        let mut total = 0;
        for trial in 0..8 {
            for &liquid in &[Liquid::PureWater, Liquid::Oil] {
                if let Some(feat) = extract_with_retry(&wimi, liquid, 900 + trial, 30) {
                    let label = wimi.classify_feature(&feat).expect("classify");
                    total += 1;
                    if db.name(label) == liquid.name() {
                        correct += 1;
                    }
                }
            }
        }
        assert!(total >= 10, "too many refused test measurements: {total}");
        assert!(
            correct as f64 >= 0.9 * total as f64,
            "water-vs-oil should be nearly perfect: {correct}/{total}"
        );
    }

    /// Returns a copy of the capture with `antenna`'s rows zeroed in every
    /// packet from `start` on — a dead RF chain.
    fn kill_antenna(cap: &CsiCapture, antenna: usize, start: usize) -> CsiCapture {
        cap.packets()
            .enumerate()
            .map(|(m, mut p)| {
                if m >= start {
                    for k in 0..p.n_subcarriers() {
                        *p.get_mut(antenna, k) = wimi_phy::complex::Complex::ZERO;
                    }
                }
                p
            })
            .collect()
    }

    /// Returns a copy of the capture with one `subcarrier` zeroed on
    /// `antenna` in every packet — a dead tone on a surviving RF chain.
    fn kill_subcarrier(cap: &CsiCapture, antenna: usize, subcarrier: usize) -> CsiCapture {
        cap.packets()
            .map(|mut p| {
                *p.get_mut(antenna, subcarrier) = wimi_phy::complex::Complex::ZERO;
                p
            })
            .collect()
    }

    #[test]
    fn zeroed_subcarrier_is_rejected_not_selected_fixed_pair() {
        // Regression for the triage/selection disconnect: a subcarrier
        // zeroed on a surviving antenna has constant phase → zero
        // phase-difference variance → BestByVariance used to pick it
        // *first*, and the measurement failed with DegenerateAmplitude
        // despite 29 clean subcarriers being available.
        let (base, tar) = measurable_milk_pair();
        let base = kill_subcarrier(&base, 0, 5);
        let tar = kill_subcarrier(&tar, 0, 5);
        let wimi = WiMi::new(WiMiConfig {
            pairs: PairSelection::Fixed(0, 1),
            ..WiMiConfig::default()
        });
        let m = wimi.measure(&base, &tar);
        assert_eq!(m.quality.subcarriers_rejected, 1);
        assert!(m
            .quality
            .issues
            .iter()
            .any(|i| matches!(i.kind, IssueKind::RejectedSubcarriers { count: 1 })));
        let f = m
            .feature
            .expect("pre-fix this was Err(DegenerateAmplitude)");
        assert!(!f.subcarriers.contains(&5), "selected {:?}", f.subcarriers);
        assert_eq!(f.omega.len(), 4);
        assert!(f.omega.iter().all(|o| o.is_finite()));
    }

    #[test]
    fn zeroed_subcarrier_is_rejected_not_selected_best_pairs() {
        // Same regression through the default joint (Best) path: the
        // zeroed subcarrier poisoned both pairs touching antenna 0,
        // leaving fewer consistent pairs than the ambiguity gate needs.
        let (base, tar) = measurable_milk_pair();
        let base = kill_subcarrier(&base, 0, 5);
        let tar = kill_subcarrier(&tar, 0, 5);
        let wimi = WiMi::new(WiMiConfig::default());
        let m = wimi.measure(&base, &tar);
        assert_eq!(m.quality.subcarriers_rejected, 1);
        let f = m.feature.expect("joint extraction over clean subcarriers");
        assert!(!f.subcarriers.contains(&5), "selected {:?}", f.subcarriers);
        // The clean-capture feature over the same scenario uses the same
        // pipeline; zeroing one rejected tone must not panic or distort
        // the Ω̄ count.
        assert_eq!(f.omega.len(), 4);
    }

    #[test]
    fn measure_on_clean_captures_is_clean_and_matches_extract_feature() {
        let (base, tar) = measurable_milk_pair();
        let wimi = WiMi::new(WiMiConfig::default());
        let m = wimi.measure(&base, &tar);
        assert!(m.quality.is_clean(), "issues: {:?}", m.quality.issues);
        assert!(!m.quality.salvaged());
        assert_eq!(m.quality.baseline_packets_kept, 40);
        assert_eq!(m.quality.target_packets_kept, 40);
        assert_eq!(m.quality.antennas_dropped, Vec::<usize>::new());
        assert_eq!(m.quality.pairs_attempted, 3);
        assert_eq!(m.feature, wimi.extract_feature(&base, &tar));
    }

    #[test]
    fn dead_antenna_is_dropped_and_measurement_survives() {
        let (base, tar) = measurable_milk_pair();
        let base = kill_antenna(&base, 2, 0);
        let tar = kill_antenna(&tar, 2, 0);
        let wimi = WiMi::new(WiMiConfig::default());
        let m = wimi.measure(&base, &tar);
        assert_eq!(m.quality.antennas_dropped, vec![2]);
        assert!(m.quality.salvaged());
        let f = m.feature.expect("salvaged measurement should extract");
        // The reported pair uses original antenna numbering; antenna 2 is
        // dead, so the surviving pair must be (0, 1).
        assert_eq!(f.pair, (0, 1));
        // The salvaged feature matches a genuine two-antenna fixed-pair
        // measurement on the surviving antennas.
        let fixed = WiMi::new(WiMiConfig {
            pairs: PairSelection::Fixed(0, 1),
            ..WiMiConfig::default()
        });
        let two = fixed
            .extract_feature(
                &base.select_antennas(&[0, 1]),
                &tar.select_antennas(&[0, 1]),
            )
            .expect("two-antenna extraction");
        assert_eq!(f.omega, two.omega);
    }

    #[test]
    fn partial_dropout_packets_are_dropped_not_fatal() {
        let (base, tar) = measurable_milk_pair();
        // Antenna 1 dies for the last 8 packets of the target capture:
        // 20 % zero rows, below the dead threshold, so the packets go
        // instead of the antenna.
        let tar = kill_antenna(&tar, 1, 32);
        let wimi = WiMi::new(WiMiConfig::default());
        let m = wimi.measure(&base, &tar);
        assert_eq!(m.quality.antennas_dropped, Vec::<usize>::new());
        assert_eq!(m.quality.target_packets_kept, 32);
        assert_eq!(m.quality.baseline_packets_kept, 40);
        assert!(m
            .quality
            .issues
            .iter()
            .any(|i| matches!(i.kind, IssueKind::PartialDropout { dropped: 8 })));
        assert!(m.feature.is_ok());
    }

    #[test]
    fn fixed_pair_naming_dead_antenna_reports_antenna_failed() {
        let (base, tar) = measurable_milk_pair();
        let base = kill_antenna(&base, 1, 0);
        let tar = kill_antenna(&tar, 1, 0);
        let cfg = WiMiConfig {
            pairs: PairSelection::Fixed(0, 1),
            ..WiMiConfig::default()
        };
        let wimi = WiMi::new(cfg);
        let m = wimi.measure(&base, &tar);
        assert_eq!(m.feature, Err(FeatureError::AntennaFailed { antenna: 1 }));
        assert!(m
            .quality
            .issues
            .iter()
            .any(|i| matches!(i.kind, IssueKind::DeadAntenna { antenna: 1 })));
    }

    fn fixed(a: usize, b: usize) -> WiMi {
        WiMi::new(WiMiConfig {
            pairs: PairSelection::Fixed(a, b),
            ..WiMiConfig::default()
        })
    }

    #[test]
    fn fixed_pair_order_does_not_matter() {
        let (base, tar) = measurable_milk_pair();
        let ordered = fixed(0, 2).measure(&base, &tar);
        let swapped = fixed(2, 0).measure(&base, &tar);
        let f = ordered.feature.as_ref().expect("pair (0, 2) measures");
        assert_eq!(f.pair, (0, 2));
        // Debug prints every f64 in its shortest round-trip form, so equal
        // renderings mean equal bits.
        assert_eq!(format!("{swapped:?}"), format!("{ordered:?}"));
    }

    #[test]
    fn fixed_pair_naming_one_antenna_twice_is_an_error() {
        let (base, tar) = measurable_milk_pair();
        let m = fixed(1, 1).measure(&base, &tar);
        let err = FeatureError::InvalidPair {
            pair: (1, 1),
            antennas: 3,
        };
        assert_eq!(m.feature, Err(err.clone()));
        assert_eq!(
            m.quality.issues,
            vec![StageIssue::new(
                StageId::Screening,
                IssueKind::Extraction(err)
            )]
        );
    }

    #[test]
    fn fixed_pair_beyond_the_capture_is_invalid_not_a_dead_antenna() {
        let (base, tar) = measurable_milk_pair();
        let m = fixed(0, 7).measure(&base, &tar);
        assert_eq!(
            m.feature,
            Err(FeatureError::InvalidPair {
                pair: (0, 7),
                antennas: 3
            })
        );
        assert_eq!(m.quality.issues[0].stage, StageId::Screening);
        assert!(m.feature.unwrap_err().to_string().contains("(0, 7)"));
    }

    #[test]
    fn non_finite_packets_are_dropped_and_reported() {
        let (base, mut tar_src) = measurable_milk_pair();
        let mut packets: Vec<_> = tar_src.packets().collect();
        *packets[5].get_mut(0, 0) = wimi_phy::complex::Complex::new(f64::NAN, 0.0);
        *packets[17].get_mut(2, 3) = wimi_phy::complex::Complex::new(0.0, f64::INFINITY);
        tar_src = CsiCapture::from_packets(packets);
        let wimi = WiMi::new(WiMiConfig::default());
        let m = wimi.measure(&base, &tar_src);
        assert_eq!(m.quality.target_packets_kept, 38);
        assert!(m
            .quality
            .issues
            .iter()
            .any(|i| matches!(i.kind, IssueKind::NonFinitePackets { dropped: 2 })));
        assert!(m.feature.is_ok());
    }

    #[test]
    fn too_few_survivors_is_insufficient_packets() {
        let (base, tar) = capture_pair(Liquid::Milk, 1, 10);
        // Every target packet goes non-finite.
        let packets: Vec<_> = tar
            .packets()
            .map(|mut p| {
                *p.get_mut(0, 0) = wimi_phy::complex::Complex::new(f64::NAN, 0.0);
                p
            })
            .collect();
        let tar = CsiCapture::from_packets(packets);
        let wimi = WiMi::new(WiMiConfig::default());
        let m = wimi.measure(&base, &tar);
        assert_eq!(
            m.feature,
            Err(FeatureError::InsufficientPackets { kept: 0, needed: 4 })
        );
        assert_eq!(m.quality.target_packets_kept, 0);
    }

    #[test]
    fn config_accessors() {
        let wimi = WiMi::new(WiMiConfig::default());
        assert!(!wimi.is_trained());
        assert_eq!(
            wimi.config().subcarriers,
            SubcarrierSelection::BestByVariance(4)
        );
    }
}

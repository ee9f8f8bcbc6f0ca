//! Shared experiment harness: measurement collection, training/testing,
//! and per-figure reporting.

use std::ops::Range;
use std::sync::Arc;
use wimi_core::{MaterialFeature, WiMi, WiMiConfig};
use wimi_ml::dataset::Dataset;
use wimi_ml::metrics::ConfusionMatrix;
use wimi_obs::Recorder;
use wimi_phy::channel::Environment;
use wimi_phy::fault::FaultPlan;
use wimi_phy::material::{Liquid, SaltwaterConcentration, LIQUIDS};
use wimi_phy::scenario::{LiquidSpec, ScenarioBuilder};
use wimi_serve::{measure_trials, MeasureOutcome, RetryPolicy, Trial};
use wimi_trace::{Observer, TraceSink};

/// A material under test: display name plus its dielectric spec.
#[derive(Debug, Clone)]
pub struct Material {
    /// Display name (and class label).
    pub name: String,
    /// Dielectric specification.
    pub spec: LiquidSpec,
}

impl Material {
    /// Wraps a catalog liquid.
    pub fn catalog(liquid: Liquid) -> Self {
        Material {
            name: liquid.name().to_owned(),
            spec: liquid.into(),
        }
    }

    /// Wraps a saltwater concentration under a short label.
    pub fn saltwater(label: &str, c: SaltwaterConcentration) -> Self {
        Material {
            name: label.to_owned(),
            spec: LiquidSpec::saltwater(c),
        }
    }
}

/// The paper's ten-liquid set (Fig. 15).
pub fn paper_liquids() -> Vec<Material> {
    LIQUIDS.iter().copied().map(Material::catalog).collect()
}

/// Options of one identification run.
pub struct RunOptions {
    /// Deployment environment.
    pub environment: Environment,
    /// Packets per capture (the paper's default is 20).
    pub packets: usize,
    /// Training measurements per material.
    pub n_train: usize,
    /// Test measurements per material.
    pub n_test: usize,
    /// Base RNG seed (runs are deterministic given the seed).
    pub seed: u64,
    /// Pipeline configuration.
    pub config: WiMiConfig,
    /// Extra scenario customisation applied after the defaults. `Send +
    /// Sync` so measurements can fan out across worker threads.
    pub modify: Box<dyn Fn(&mut ScenarioBuilder) + Send + Sync>,
    /// Retry policy for the re-seat-and-retry protocol (the operator
    /// re-seats the beaker when the pipeline flags a bad measurement).
    pub retry: RetryPolicy,
    /// Fault plan injected into every capture (`None` = healthy
    /// deployment). Each measurement derives an independent fault stream
    /// from the plan's seed and its own, so runs stay deterministic and
    /// thread-count invariant.
    pub fault: Option<FaultPlan>,
    /// Optional observability recorder shared by the simulator, the
    /// pipeline, and the harness itself (`None` = no recording). All
    /// recorded aggregates are order-independent, so runs stay
    /// thread-count invariant with a recorder attached.
    pub recorder: Option<Arc<Recorder>>,
    /// Optional flight-recorder trace sink shared the same way (`None` =
    /// no tracing). Each measurement's events are scoped to a
    /// [`wimi_trace::TaskKey`] derived from its seed, so rendered traces
    /// are byte-identical for any `WIMI_THREADS` setting.
    pub trace: Option<Arc<TraceSink>>,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            environment: Environment::Lab,
            packets: 20,
            n_train: 20,
            n_test: 20,
            seed: 0xACC0,
            config: WiMiConfig::default(),
            modify: Box::new(|_| {}),
            retry: RetryPolicy::default(),
            fault: None,
            recorder: None,
            trace: None,
        }
    }
}

impl RunOptions {
    /// The handle over `recorder` and `trace` that the run's pipeline,
    /// simulators and retry protocol report to.
    fn observer(&self) -> Observer {
        Observer::new(self.recorder.clone(), self.trace.clone())
    }

    /// The trial measuring `spec` under these options (`None` measures
    /// the empty scenario, as campaign `target removed` windows do).
    pub fn trial<'a>(&'a self, spec: Option<&'a LiquidSpec>) -> Trial<'a> {
        Trial {
            spec,
            environment: self.environment,
            packets: self.packets,
            retry: &self.retry,
            fault: self.fault.as_ref(),
            modify: self.modify.as_ref(),
            obs: self.observer(),
        }
    }

    /// Measures `trials` of every class in `phase`, in trial-major order:
    /// class `label` measures `specs[label]` at its [`trial_seed`]. The
    /// list fans out through [`measure_trials`]; outcomes come back as
    /// `(label, outcome)` in list order.
    pub(crate) fn measure_phase(
        &self,
        extractor: &WiMi,
        phase: Phase,
        trials: Range<usize>,
        specs: &[Option<&LiquidSpec>],
    ) -> Vec<(usize, MeasureOutcome)> {
        let mut list = Vec::new();
        for trial in trials {
            for (label, &spec) in specs.iter().enumerate() {
                list.push((trial_seed(self.seed, phase, trial, label), self.trial(spec)));
            }
        }
        let labels = (0..specs.len()).cycle();
        labels
            .zip(measure_trials(extractor, &list, |out| out))
            .collect()
    }
}

/// Result of an identification run.
pub struct RunResult {
    /// Pooled test confusion matrix.
    pub confusion: ConfusionMatrix,
    /// Trials (train + test) whose every measurement attempt failed.
    pub dropped_trials: usize,
    /// Total measurement attempts that were rejected by the pipeline.
    pub rejected_measurements: usize,
    /// Successful measurements that needed salvage (dropped packets or
    /// antennas) on the way.
    pub salvaged_measurements: usize,
}

impl RunResult {
    /// Overall test accuracy.
    pub fn accuracy(&self) -> f64 {
        self.confusion.accuracy()
    }
}

/// Which half of the train/test protocol a trial belongs to.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Phase {
    /// Measurements the classifier trains on.
    Train,
    /// Measurements the trained classifier is scored on.
    Test,
}

/// The one trial-seed schedule: the measurement seed of trial `trial` of
/// class `label` in `phase` of a run seeded `seed`. Training trials start
/// 1,000 past `seed` and step 131 per trial, test trials start 900,000
/// past it and step 137, and the classes of one trial take consecutive
/// seeds. The arithmetic wraps, so every `u64` run seed is valid.
pub(crate) fn trial_seed(seed: u64, phase: Phase, trial: usize, label: usize) -> u64 {
    let (offset, stride) = match phase {
        Phase::Train => (1_000, 131),
        Phase::Test => (900_000, 137),
    };
    seed.wrapping_add(offset)
        .wrapping_add((trial as u64).wrapping_mul(stride))
        .wrapping_add(label as u64)
}

/// Drop, reject and salvage counts folded over measurement outcomes.
#[derive(Debug, Default)]
pub(crate) struct Tally {
    /// Trials whose every measurement attempt failed.
    pub(crate) dropped: usize,
    /// Measurement attempts the pipeline rejected.
    pub(crate) rejected: usize,
    /// Successful measurements that needed salvage.
    pub(crate) salvaged: usize,
}

impl Tally {
    /// Folds `out` in and hands back its feature; a trial without one
    /// counts as dropped.
    pub(crate) fn take(&mut self, out: MeasureOutcome) -> Option<MaterialFeature> {
        self.rejected += out.rejected;
        self.salvaged += usize::from(out.salvaged);
        self.dropped += usize::from(out.feature.is_none());
        out.feature
    }
}

/// Runs a full train/test identification experiment.
///
/// Both phases measure through `RunOptions::measure_phase`, so every seed
/// comes from the one `trial_seed` schedule and every (trial × material)
/// measurement fans out over [`wimi_core::par`] worker threads
/// (`WIMI_THREADS`). Outcomes fold back in trial-major order, which makes
/// the confusion matrix bitwise identical for any thread count. An
/// untrainable run (fewer than two classes with a training feature)
/// skips its test phase and counts every test trial as dropped.
pub fn run_identification(materials: &[Material], opts: &RunOptions) -> RunResult {
    let mut extractor = WiMi::new(opts.config.clone());
    extractor.set_observer(opts.observer());
    let class_names: Vec<String> = materials.iter().map(|m| m.name.clone()).collect();
    let specs: Vec<_> = materials.iter().map(|m| Some(&m.spec)).collect();
    let mut tally = Tally::default();

    let mut train = Dataset::new(class_names.clone());
    for (label, out) in opts.measure_phase(&extractor, Phase::Train, 0..opts.n_train, &specs) {
        if let Some(f) = tally.take(out) {
            train.push(f.as_vector(), label);
        }
    }

    let mut wimi = WiMi::new(opts.config.clone());
    wimi.set_observer(opts.observer());
    let measured = if train.is_trainable() {
        wimi.train_on_dataset(&train);
        opts.measure_phase(&extractor, Phase::Test, 0..opts.n_test, &specs)
    } else {
        tally.dropped += opts.n_test * specs.len();
        Vec::new()
    };
    let mut truth = Vec::new();
    let mut pred = Vec::new();
    for (label, out) in measured {
        if let Some(f) = tally.take(out) {
            truth.push(label);
            pred.push(wimi.classify_feature(&f).expect("trained"));
        }
    }

    RunResult {
        confusion: ConfusionMatrix::from_predictions(&truth, &pred, &class_names),
        dropped_trials: tally.dropped,
        rejected_measurements: tally.rejected,
        salvaged_measurements: tally.salvaged,
    }
}

/// Formats a percentage for report rows.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

/// Prints a report header for one figure.
pub fn heading(id: &str, title: &str) {
    println!();
    println!("=== {id}: {title}");
    println!("{}", "-".repeat(64));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_liquids_has_ten() {
        let mats = paper_liquids();
        assert_eq!(mats.len(), 10);
        assert_eq!(mats[0].name, "Vinegar");
    }

    #[test]
    fn untrainable_run_skips_its_test_phase() {
        let materials = vec![
            Material::catalog(Liquid::PureWater),
            Material::catalog(Liquid::Oil),
        ];
        let opts = RunOptions {
            n_train: 0,
            n_test: 3,
            packets: 10,
            ..RunOptions::default()
        };
        let r = run_identification(&materials, &opts);
        let names: Vec<String> = materials.iter().map(|m| m.name.clone()).collect();
        let nothing = ConfusionMatrix::from_predictions(&[], &[], &names);
        assert_eq!(r.confusion, nothing);
        assert_eq!(r.dropped_trials, 6);
        assert_eq!(r.rejected_measurements, 0);
    }

    #[test]
    fn run_identification_is_deterministic() {
        let materials = vec![
            Material::catalog(Liquid::PureWater),
            Material::catalog(Liquid::Oil),
        ];
        let opts = RunOptions {
            n_train: 4,
            n_test: 3,
            packets: 10,
            ..RunOptions::default()
        };
        let a = run_identification(&materials, &opts);
        let b = run_identification(&materials, &opts);
        assert_eq!(a.confusion, b.confusion);
        assert_eq!(a.dropped_trials, b.dropped_trials);
        assert_eq!(a.rejected_measurements, b.rejected_measurements);
    }

    #[test]
    fn run_identification_is_thread_count_invariant() {
        // Seeds are drawn per measurement (not from a shared stream) and
        // results fold back in trial-major order, so 1 worker and 4
        // workers must produce the same confusion matrix bit for bit.
        let materials = vec![
            Material::catalog(Liquid::PureWater),
            Material::catalog(Liquid::Honey),
        ];
        let opts = RunOptions {
            n_train: 4,
            n_test: 3,
            packets: 10,
            ..RunOptions::default()
        };
        wimi_core::par::set_thread_override(Some(1));
        let serial = run_identification(&materials, &opts);
        wimi_core::par::set_thread_override(Some(4));
        let parallel = run_identification(&materials, &opts);
        wimi_core::par::set_thread_override(None);
        assert_eq!(serial.confusion, parallel.confusion);
        assert_eq!(serial.dropped_trials, parallel.dropped_trials);
        assert_eq!(serial.rejected_measurements, parallel.rejected_measurements);
    }

    #[test]
    fn small_run_identification_works() {
        let materials = vec![
            Material::catalog(Liquid::PureWater),
            Material::catalog(Liquid::Honey),
        ];
        let opts = RunOptions {
            n_train: 6,
            n_test: 4,
            ..RunOptions::default()
        };
        let result = run_identification(&materials, &opts);
        // Water vs honey is an easy pair; expect high accuracy.
        assert!(result.accuracy() > 0.8, "accuracy = {}", result.accuracy());
    }

    #[test]
    fn run_identification_retry_counters_conserve() {
        // Every measurement runs through the one retry protocol, so the
        // recorder's attempts equal retries plus runs, and each exhausted
        // run is one dropped trial.
        let recorder = Arc::new(Recorder::enabled());
        let materials = vec![
            Material::catalog(Liquid::PureWater),
            Material::catalog(Liquid::Honey),
        ];
        let opts = RunOptions {
            n_train: 4,
            n_test: 4,
            packets: 10,
            fault: Some(FaultPlan::hostile(0xD20B)),
            recorder: Some(Arc::clone(&recorder)),
            ..RunOptions::default()
        };
        let result = run_identification(&materials, &opts);
        let snap = recorder.snapshot();
        let counter = |name| snap.counter(name).unwrap_or(0);
        let runs: u64 = snap.attempts.counts.iter().sum();
        assert_eq!(runs, 16, "one histogram entry per trial");
        assert_eq!(counter("measurements_attempted"), counter("retries") + runs);
        assert!(
            result.dropped_trials > 0,
            "the hostile plan must exhaust a trial"
        );
        assert_eq!(counter("trials_dropped"), result.dropped_trials as u64);
    }
}

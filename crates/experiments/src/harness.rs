//! Shared experiment harness: measurement collection, training/testing,
//! and per-figure reporting.

use std::sync::Arc;
use wimi_core::{WiMi, WiMiConfig};
use wimi_ml::dataset::Dataset;
use wimi_ml::metrics::ConfusionMatrix;
use wimi_obs::Recorder;
use wimi_phy::channel::Environment;
use wimi_phy::fault::FaultPlan;
use wimi_phy::material::{Liquid, SaltwaterConcentration, LIQUIDS};
use wimi_phy::scenario::{LiquidSpec, ScenarioBuilder};
use wimi_serve::{measure_with_retry, RetryPolicy, Trial};
use wimi_trace::{TaskKey, TraceSink};

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
            recorder: self.recorder.as_ref(),
            trace: self.trace.as_ref(),
        }
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

/// Runs a full train/test identification experiment.
///
/// Every (trial × material) measurement is independent — its seed is a
/// pure function of `opts.seed`, the trial, and the material label — so
/// both phases fan out over [`wimi_core::par`] worker threads
/// (`WIMI_THREADS`). Results are folded back in trial-major order, which
/// makes the confusion matrix bitwise identical for any thread count.
pub fn run_identification(materials: &[Material], opts: &RunOptions) -> RunResult {
    let mut extractor = WiMi::new(opts.config.clone());
    extractor.set_recorder(opts.recorder.clone());
    extractor.set_trace(opts.trace.clone());
    let class_names: Vec<String> = materials.iter().map(|m| m.name.clone()).collect();

    let mut dropped = 0usize;
    let mut rejected = 0usize;
    let mut salvaged = 0usize;

    let jobs = |base: u64, trials: usize, stride: u64| -> Vec<(usize, u64)> {
        let mut v = Vec::with_capacity(trials * materials.len());
        for trial in 0..trials {
            for label in 0..materials.len() {
                v.push((label, base + trial as u64 * stride + label as u64));
            }
        }
        v
    };

    // Training set.
    let train_jobs = jobs(opts.seed + 1_000, opts.n_train, 131);
    let measure = |&(label, seed): &(usize, u64)| {
        let setup = opts.trial(Some(&materials[label].spec));
        (
            label,
            measure_with_retry(&extractor, &setup, seed, TaskKey::measurement(seed)),
        )
    };
    let measured = wimi_core::par::map(&train_jobs, |_, job| measure(job));
    let mut train = Dataset::new(class_names.clone());
    for (label, out) in measured {
        rejected += out.rejected;
        salvaged += out.salvaged as usize;
        match out.feature {
            Some(f) => train.push(f.as_vector(), label),
            None => dropped += 1,
        }
    }

    let mut wimi = WiMi::new(opts.config.clone());
    wimi.set_recorder(opts.recorder.clone());
    wimi.set_trace(opts.trace.clone());
    wimi.train_on_dataset(&train);

    // Test set.
    let test_jobs = jobs(opts.seed + 900_000, opts.n_test, 137);
    let measured = wimi_core::par::map(&test_jobs, |_, job| measure(job));
    let mut truth = Vec::new();
    let mut pred = Vec::new();
    for (label, out) in measured {
        rejected += out.rejected;
        salvaged += out.salvaged as usize;
        match out.feature {
            Some(f) => {
                let p = wimi.classify_feature(&f).expect("trained");
                truth.push(label);
                pred.push(p);
            }
            None => dropped += 1,
        }
    }

    RunResult {
        confusion: ConfusionMatrix::from_predictions(&truth, &pred, &class_names),
        dropped_trials: dropped,
        rejected_measurements: rejected,
        salvaged_measurements: salvaged,
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

//! Ablations beyond the paper: design-choice sweeps called out in
//! DESIGN.md §5.

use crate::accuracy::Effort;
use crate::harness::{heading, pct, run_identification, Material, RunOptions};
use wimi_core::subcarrier::SubcarrierSelection;
use wimi_core::WiMiConfig;
use wimi_dsp::wavelet::{CorrelationDenoiser, Wavelet};
use wimi_ml::dataset::Dataset;
use wimi_ml::knn::KnnClassifier;
use wimi_ml::scale::StandardScaler;
use wimi_ml::svm::{Kernel, SvmParams};
use wimi_phy::material::Liquid;
use wimi_phy::scenario::LiquidSpec;
use wimi_serve::{measure_with_retry, RetryPolicy};
use wimi_trace::TaskKey;

fn subset() -> Vec<Material> {
    [
        Liquid::PureWater,
        Liquid::Milk,
        Liquid::Honey,
        Liquid::Oil,
        Liquid::Soy,
    ]
    .iter()
    .copied()
    .map(Material::catalog)
    .collect()
}

/// Ablation 1: number of good subcarriers P.
pub fn ablation_subcarrier_count(effort: Effort) {
    heading("Ablation", "good-subcarrier count P");
    for p in [1usize, 2, 4, 6, 8] {
        let config = WiMiConfig {
            subcarriers: SubcarrierSelection::BestByVariance(p),
            ..WiMiConfig::default()
        };
        let opts = RunOptions {
            config,
            n_train: effort.n_train,
            n_test: effort.n_test,
            ..RunOptions::default()
        };
        let acc = run_identification(&subset(), &opts).accuracy();
        println!("  P = {p}: accuracy {}", pct(acc));
    }
}

/// Ablation 2: wavelet family of the amplitude denoiser.
pub fn ablation_wavelet_family(effort: Effort) {
    heading("Ablation", "denoiser wavelet family");
    for wavelet in Wavelet::ALL {
        let mut config = WiMiConfig::default();
        config.amplitude.denoiser = CorrelationDenoiser::new(wavelet, 4);
        let opts = RunOptions {
            config,
            n_train: effort.n_train,
            n_test: effort.n_test,
            ..RunOptions::default()
        };
        let acc = run_identification(&subset(), &opts).accuracy();
        println!("  {wavelet}: accuracy {}", pct(acc));
    }
}

/// Ablation 3: classifier — SVM kernels vs kNN.
pub fn ablation_classifier(effort: Effort) {
    heading("Ablation", "classifier choice (SVM kernels vs kNN)");
    // SVM variants.
    for (name, kernel) in [
        ("SVM rbf γ=0.5", Kernel::Rbf { gamma: 0.5 }),
        ("SVM rbf γ=2.0", Kernel::Rbf { gamma: 2.0 }),
        ("SVM linear", Kernel::Linear),
    ] {
        let config = WiMiConfig {
            svm: SvmParams {
                kernel,
                ..SvmParams::default()
            },
            ..WiMiConfig::default()
        };
        let opts = RunOptions {
            config,
            n_train: effort.n_train,
            n_test: effort.n_test,
            ..RunOptions::default()
        };
        let acc = run_identification(&subset(), &opts).accuracy();
        println!("  {name:<14}: accuracy {}", pct(acc));
    }
    // kNN baseline on the same features.
    let materials = subset();
    let opts = RunOptions {
        n_train: effort.n_train,
        n_test: effort.n_test,
        ..RunOptions::default()
    };
    let extractor = wimi_core::WiMi::new(opts.config.clone());
    let class_names: Vec<String> = materials.iter().map(|m| m.name.clone()).collect();
    let mut train = Dataset::new(class_names.clone());
    for trial in 0..opts.n_train {
        for (label, m) in materials.iter().enumerate() {
            let seed = opts.seed + 1_000 + trial as u64 * 131 + label as u64;
            let setup = opts.trial(Some(&m.spec));
            let out = measure_with_retry(&extractor, &setup, seed, TaskKey::measurement(seed));
            if let Some(f) = out.feature {
                train.push(f.as_vector(), label);
            }
        }
    }
    let scaler = StandardScaler::fit(train.features());
    let mut scaled = Dataset::new(class_names);
    for i in 0..train.len() {
        let (x, y) = train.sample(i);
        scaled.push(scaler.transform_one(x), y);
    }
    let knn = KnnClassifier::fit(scaled, 5);
    let mut correct = 0usize;
    let mut total = 0usize;
    for trial in 0..opts.n_test {
        for (label, m) in materials.iter().enumerate() {
            let seed = opts.seed + 900_000 + trial as u64 * 137 + label as u64;
            let setup = opts.trial(Some(&m.spec));
            let out = measure_with_retry(&extractor, &setup, seed, TaskKey::measurement(seed));
            if let Some(f) = out.feature {
                total += 1;
                if knn.predict(&scaler.transform_one(&f.as_vector())) == label {
                    correct += 1;
                }
            }
        }
    }
    println!(
        "  kNN (k = 5)   : accuracy {}",
        pct(correct as f64 / total.max(1) as f64)
    );
}

/// Robustness: flowing liquid (paper §VI limitation) — the pipeline should
/// mostly refuse rather than misclassify.
pub fn robustness_flowing_liquid() {
    heading("Robustness", "flowing liquid (paper §VI limitation)");
    let extractor = wimi_core::WiMi::new(WiMiConfig::default());
    let milk: LiquidSpec = Liquid::Milk.into();
    for flow in [0.0, 0.4, 0.8] {
        let opts = RunOptions {
            retry: RetryPolicy::attempts(1),
            modify: Box::new(move |b| {
                b.flow_noise(flow);
            }),
            ..RunOptions::default()
        };
        let mut refused = 0usize;
        let total = 12usize;
        for trial in 0..total as u64 {
            let seed = 50_000 + trial;
            let setup = opts.trial(Some(&milk));
            let out = measure_with_retry(&extractor, &setup, seed, TaskKey::measurement(seed));
            if out.feature.is_none() {
                refused += 1;
            }
        }
        println!("  flow level {flow:.1}: {refused}/{total} measurements refused");
    }
}

/// The shipped environments campaign file (one cell per deployment
/// environment), embedded so the experiment runs from any directory.
pub const ENVIRONMENTS_CAMPAIGN: &str = include_str!(concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../campaigns/environments.campaign"
));

/// Ten-liquid run in all three environments (paper's headline claim:
/// ≥95% in all three). Since PR 7 the grid is declared in
/// `campaigns/environments.campaign` and executed by the campaign
/// runner — the report prints one row per campaign cell.
pub fn environments(effort: Effort) {
    heading("Environments", "ten liquids in hall / lab / library");
    let mut c =
        wimi_campaign::parse(ENVIRONMENTS_CAMPAIGN).expect("shipped environments campaign parses");
    c.train = c.train.min(effort.n_train);
    c.test = c.test.min(effort.n_test);
    let outcome = crate::campaign::run_campaign(&c);
    for (env, cell) in c.axes.environments.iter().zip(&outcome.cells) {
        println!(
            "  {:<8}: accuracy {}  (dropped {})",
            env.name(),
            pct(cell.accuracy),
            cell.dropped
        );
    }
}

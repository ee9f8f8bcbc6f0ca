//! Identification-accuracy figures (paper Figs. 13–21).

use crate::harness::{heading, paper_liquids, pct, run_identification, Material, RunOptions};
use wimi_core::amplitude::AmplitudeConfig;
use wimi_core::antenna::PairSelection;
use wimi_core::subcarrier::SubcarrierSelection;
use wimi_core::WiMiConfig;
use wimi_phy::channel::Environment;
use wimi_phy::material::{ContainerMaterial, Liquid, SaltwaterConcentration};
use wimi_phy::scenario::Beaker;
use wimi_phy::units::Meters;
use wimi_serve::{measure_with_retry, RetryPolicy};
use wimi_trace::TaskKey;

/// A quick/full switch: quick mode shrinks trial counts ~3× for smoke runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Effort {
    /// Training measurements per material.
    pub n_train: usize,
    /// Test measurements per material.
    pub n_test: usize,
}

impl Effort {
    /// The paper's protocol: 20 measurements per material.
    pub fn full() -> Self {
        Effort {
            n_train: 20,
            n_test: 20,
        }
    }

    /// Reduced counts for smoke runs.
    pub fn quick() -> Self {
        Effort {
            n_train: 8,
            n_test: 6,
        }
    }
}

fn five_liquids() -> Vec<Material> {
    [
        Liquid::Pepsi,
        Liquid::Oil,
        Liquid::Vinegar,
        Liquid::Soy,
        Liquid::Milk,
    ]
    .iter()
    .copied()
    .map(Material::catalog)
    .collect()
}

/// Fig. 13: good subcarriers vs randomly chosen ones.
pub fn fig13(effort: Effort) {
    heading("Fig. 13", "identification with random vs good subcarriers");
    let materials = five_liquids();
    let cases: [(&str, SubcarrierSelection); 4] = [
        (
            "random {2, 7, 12}",
            SubcarrierSelection::Fixed(vec![2, 7, 12]),
        ),
        ("good, 1 subcarrier", SubcarrierSelection::BestByVariance(1)),
        (
            "good, 2 subcarriers",
            SubcarrierSelection::BestByVariance(2),
        ),
        ("good, 4 (combined)", SubcarrierSelection::BestByVariance(4)),
    ];
    let mut accs = Vec::new();
    for (name, sel) in cases {
        let config = WiMiConfig {
            subcarriers: sel,
            ..WiMiConfig::default()
        };
        let opts = RunOptions {
            config,
            n_train: effort.n_train,
            n_test: effort.n_test,
            ..RunOptions::default()
        };
        let result = run_identification(&materials, &opts);
        println!("  {name:<20}: accuracy {}", pct(result.accuracy()));
        accs.push(result.accuracy());
    }
    println!(
        "paper shape: good > random, combining helps → {}",
        if accs[3] > accs[0] {
            "REPRODUCED"
        } else {
            "NOT reproduced"
        }
    );
}

/// Fig. 14: with vs without amplitude denoising.
pub fn fig14(effort: Effort) {
    heading("Fig. 14", "identification with/without amplitude denoising");
    let materials = five_liquids();
    let mut rows = Vec::new();
    for (name, amp) in [
        ("w/o noise removed", AmplitudeConfig::raw()),
        ("w noise removed", AmplitudeConfig::default()),
    ] {
        let config = WiMiConfig {
            amplitude: amp,
            ..WiMiConfig::default()
        };
        let opts = RunOptions {
            config,
            n_train: effort.n_train,
            n_test: effort.n_test,
            ..RunOptions::default()
        };
        let result = run_identification(&materials, &opts);
        println!(
            "  {name:<20}: accuracy {}  (per class: {})",
            pct(result.accuracy()),
            result
                .confusion
                .per_class_accuracy()
                .iter()
                .map(|a| pct(*a))
                .collect::<Vec<_>>()
                .join(" ")
        );
        rows.push(result.accuracy());
    }
    println!(
        "paper shape: denoising consistently better → {}",
        if rows[1] >= rows[0] {
            "REPRODUCED"
        } else {
            "NOT reproduced"
        }
    );
}

/// Fig. 15: the headline ten-liquid confusion matrix.
pub fn fig15(effort: Effort) {
    heading("Fig. 15", "ten-liquid identification (lab)");
    let opts = RunOptions {
        n_train: effort.n_train,
        n_test: effort.n_test,
        ..RunOptions::default()
    };
    let result = run_identification(&paper_liquids(), &opts);
    println!("{}", result.confusion);
    println!(
        "average accuracy = {} (paper: 96%)",
        pct(result.confusion.mean_per_class_accuracy())
    );
    println!(
        "dropped trials = {}, rejected measurements = {}",
        result.dropped_trials, result.rejected_measurements
    );
    let pepsi_coke_ok = result.confusion.rate(4, 4) >= 0.5 && result.confusion.rate(8, 8) >= 0.5;
    println!(
        "paper shape: high average, Pepsi/Coke hardest pair but >50% → {}",
        if pepsi_coke_ok {
            "REPRODUCED"
        } else {
            "NOT reproduced"
        }
    );
}

/// Fig. 16: saltwater concentrations.
pub fn fig16(effort: Effort) {
    heading("Fig. 16", "saltwater concentration identification");
    let mut materials = vec![Material::catalog(Liquid::PureWater)];
    for (i, c) in SaltwaterConcentration::PAPER_SET.iter().enumerate() {
        materials.push(Material::saltwater(&format!("Saltwater {}", i + 1), *c));
    }
    let opts = RunOptions {
        n_train: effort.n_train,
        n_test: effort.n_test,
        ..RunOptions::default()
    };
    let result = run_identification(&materials, &opts);
    println!("{}", result.confusion);
    println!(
        "average accuracy = {} (paper: ≥95%)",
        pct(result.confusion.mean_per_class_accuracy())
    );
}

/// Fig. 17: accuracy vs transmitter–receiver distance.
pub fn fig17(effort: Effort) {
    heading("Fig. 17", "identification vs link distance");
    let materials = five_liquids();
    println!(
        "distance : {}",
        Environment::ALL
            .map(|e| format!("{:>8}", e.name()))
            .join(" ")
    );
    let mut first = None;
    let mut last = None;
    let distances = [1.0, 1.5, 2.0, 2.5, 3.0];
    let last_idx = distances.len() - 1;
    for (di, dist_m) in distances.into_iter().enumerate() {
        let mut row = format!("  {dist_m:.1} m  :");
        for env in Environment::ALL {
            let opts = RunOptions {
                environment: env,
                n_train: effort.n_train,
                n_test: effort.n_test,
                modify: Box::new(move |b| {
                    b.link_distance(Meters(dist_m));
                }),
                ..RunOptions::default()
            };
            let acc = run_identification(&materials, &opts).accuracy();
            row.push_str(&format!(" {:>8}", pct(acc)));
            if env == Environment::Lab {
                if di == 0 {
                    first = Some(acc);
                }
                if di == last_idx {
                    last = Some(acc);
                }
            }
        }
        println!("{row}");
    }
    println!(
        "paper shape: accuracy decays with distance (98% → 87%) → {}",
        match (first, last) {
            (Some(f), Some(l)) if l <= f => "REPRODUCED",
            _ => "NOT reproduced",
        }
    );
}

/// Fig. 18: accuracy vs packets per capture.
pub fn fig18(effort: Effort) {
    heading("Fig. 18", "identification vs packet count");
    let materials = five_liquids();
    println!(
        "packets : {}",
        Environment::ALL
            .map(|e| format!("{:>8}", e.name()))
            .join(" ")
    );
    let mut lab_accs = Vec::new();
    for packets in [3usize, 5, 10, 20, 30] {
        let mut row = format!("  {packets:>3}   :");
        for env in Environment::ALL {
            let opts = RunOptions {
                environment: env,
                packets,
                n_train: effort.n_train,
                n_test: effort.n_test,
                ..RunOptions::default()
            };
            let acc = run_identification(&materials, &opts).accuracy();
            row.push_str(&format!(" {:>8}", pct(acc)));
            if env == Environment::Lab {
                lab_accs.push(acc);
            }
        }
        println!("{row}");
    }
    println!(
        "paper shape: rises with packets, saturates by ~20 → {}",
        if lab_accs.last() >= lab_accs.first() {
            "REPRODUCED"
        } else {
            "NOT reproduced"
        }
    );
}

/// Fig. 19: accuracy vs beaker diameter (size independence until the
/// diameter drops below the wavelength).
pub fn fig19(effort: Effort) {
    heading("Fig. 19", "identification vs container size");
    let materials: Vec<Material> = [Liquid::PureWater, Liquid::Pepsi, Liquid::Vinegar]
        .iter()
        .copied()
        .map(Material::catalog)
        .collect();
    let mut accs = Vec::new();
    for (i, diameter_cm) in Beaker::PAPER_DIAMETERS_CM.iter().enumerate() {
        let d = *diameter_cm;
        let opts = RunOptions {
            n_train: effort.n_train,
            n_test: effort.n_test,
            modify: Box::new(move |b| {
                b.beaker(Beaker::paper_default().with_diameter(Meters::from_cm(d)));
            }),
            ..RunOptions::default()
        };
        let result = run_identification(&materials, &opts);
        println!(
            "  size {} (⌀ {d:>4.1} cm): accuracy {}  (dropped {})",
            i + 1,
            pct(result.accuracy()),
            result.dropped_trials
        );
        accs.push(result.accuracy());
    }
    println!(
        "paper shape: stable for large sizes, collapses below λ (3.2 cm) → {}",
        if accs[4] < accs[0] {
            "REPRODUCED"
        } else {
            "NOT reproduced"
        }
    );
}

/// Fig. 20: container material (glass vs plastic; metal blocks).
pub fn fig20(effort: Effort) {
    heading("Fig. 20", "identification vs container material");
    let materials: Vec<Material> = [Liquid::PureWater, Liquid::Pepsi, Liquid::Vinegar]
        .iter()
        .copied()
        .map(Material::catalog)
        .collect();
    let mut accs = Vec::new();
    for container in [ContainerMaterial::Glass, ContainerMaterial::Plastic] {
        let opts = RunOptions {
            n_train: effort.n_train,
            n_test: effort.n_test,
            modify: Box::new(move |b| {
                b.beaker(Beaker::paper_default().with_material(container));
            }),
            ..RunOptions::default()
        };
        let result = run_identification(&materials, &opts);
        println!("  {container:<8}: accuracy {}", pct(result.accuracy()));
        accs.push(result.accuracy());
    }
    // Metal: the pipeline must *refuse* rather than misclassify.
    let opts = RunOptions {
        n_train: 2,
        n_test: 4,
        retry: RetryPolicy::attempts(1),
        modify: Box::new(|b| {
            b.beaker(Beaker::paper_default().with_material(ContainerMaterial::Metal));
        }),
        ..RunOptions::default()
    };
    let extractor = wimi_core::WiMi::new(opts.config.clone());
    let mut refused = 0;
    let mut total = 0;
    for trial in 0..6u64 {
        for m in &materials {
            total += 1;
            let seed = 777 + trial;
            let setup = opts.trial(Some(&m.spec));
            let out = measure_with_retry(&extractor, &setup, seed, TaskKey::measurement(seed));
            if out.feature.is_none() {
                refused += 1;
            }
        }
    }
    println!("  Metal   : {refused}/{total} measurements refused (no penetration)");
    println!(
        "paper shape: glass ≈ plastic, metal breaks the system → {}",
        if (accs[0] - accs[1]).abs() < 0.25 && refused * 2 > total {
            "REPRODUCED"
        } else {
            "NOT reproduced"
        }
    );
}

/// Fig. 21: per-antenna-pair accuracy.
pub fn fig21(effort: Effort) {
    heading("Fig. 21", "identification per antenna combination");
    let materials: Vec<Material> = [Liquid::PureWater, Liquid::Pepsi, Liquid::Vinegar]
        .iter()
        .copied()
        .map(Material::catalog)
        .collect();
    let mut accs = Vec::new();
    for (a, b) in [(0usize, 1usize), (0, 2), (1, 2)] {
        let config = WiMiConfig {
            pairs: PairSelection::Fixed(a, b),
            ..WiMiConfig::default()
        };
        let opts = RunOptions {
            config,
            n_train: effort.n_train,
            n_test: effort.n_test,
            ..RunOptions::default()
        };
        let result = run_identification(&materials, &opts);
        println!(
            "  antennas {}&{}: accuracy {}",
            a + 1,
            b + 1,
            pct(result.accuracy())
        );
        accs.push(result.accuracy());
    }
    // Joint (Best) selection for reference.
    let opts = RunOptions {
        n_train: effort.n_train,
        n_test: effort.n_test,
        ..RunOptions::default()
    };
    let joint = run_identification(&materials, &opts).accuracy();
    println!("  joint (all)  : accuracy {}", pct(joint));
    let spread = accs.iter().cloned().fold(f64::MIN, f64::max)
        - accs.iter().cloned().fold(f64::MAX, f64::min);
    println!(
        "paper shape: pairs differ slightly → {}",
        if spread > 0.0 {
            "REPRODUCED"
        } else {
            "identical pairs"
        }
    );
}

//! Feature-space figures: the material feature Ω̄ and antenna-pair
//! selection evidence (paper Figs. 9, 10).

use crate::harness::{heading, Material, RunOptions};
use wimi_core::amplitude::{AmplitudeConfig, AmplitudeRatioProfile};
use wimi_core::antenna::score_pairs;
use wimi_core::phase::PhaseDifferenceProfile;
use wimi_core::{WiMi, WiMiConfig};
use wimi_dsp::stats::{mean, std_dev};
use wimi_phy::channel::Environment;
use wimi_phy::material::Liquid;
use wimi_phy::scenario::LiquidSpec;
use wimi_serve::{measure_trials, Trial};

/// Fig. 9: Ω̄ clusters for five liquids.
pub fn fig9() {
    heading("Fig. 9", "material feature Ω̄ for five liquids (office)");
    let materials = [
        Material {
            name: "Saltwater".into(),
            spec: LiquidSpec::saltwater(wimi_phy::material::SaltwaterConcentration::new(2.7)),
        },
        Material::catalog(Liquid::Vinegar),
        Material::catalog(Liquid::Pepsi),
        Material::catalog(Liquid::Milk),
        Material::catalog(Liquid::PureWater),
    ];
    let opts = RunOptions::default();
    let extractor = WiMi::new(WiMiConfig::default());
    println!("material    : Ω̄ mean ± std over 15 measurements");
    let trials: Vec<(u64, Trial)> = (0u64..)
        .zip(&materials)
        .flat_map(|(i, m)| (0..15).map(move |trial| (90_000 + i * 97 + trial, &m.spec)))
        .map(|(seed, spec)| (seed, opts.trial(Some(spec))))
        .collect();
    let omegas = measure_trials(&extractor, &trials, |out| {
        out.feature.map(|f| f.omega_mean())
    });
    let mut means = Vec::new();
    for (m, omegas) in materials.iter().zip(omegas.chunks(15)) {
        let omegas: Vec<f64> = omegas.iter().flatten().copied().collect();
        println!(
            "  {:<10}: {:.4} ± {:.4}  (n = {})",
            m.name,
            mean(&omegas),
            std_dev(&omegas),
            omegas.len()
        );
        means.push(mean(&omegas));
    }
    let mut sorted = means.clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let min_gap = sorted
        .windows(2)
        .map(|w| w[1] - w[0])
        .fold(f64::INFINITY, f64::min);
    println!(
        "paper shape: distinct per-material clusters → {}",
        if min_gap > 0.005 {
            "REPRODUCED"
        } else {
            "clusters overlap"
        }
    );
}

/// Fig. 10: phase-difference and amplitude-ratio variance per antenna pair.
pub fn fig10() {
    heading("Fig. 10", "variance per antenna combination");
    let milk: LiquidSpec = Liquid::Milk.into();
    let (_, tar) = Trial::clean(Some(&milk), Environment::Lab, 200).capture_pair(10, 1.0);
    println!("pair : phase-diff variance : amplitude-ratio variance");
    for score in score_pairs(&tar, &AmplitudeConfig::default()) {
        println!(
            "  ({}, {}) : {:.5} rad²        : {:.5}",
            score.pair.0 + 1,
            score.pair.1 + 1,
            score.phase_variance,
            score.amplitude_variance
        );
    }
    // Verify the variances actually differ across pairs.
    let scores = score_pairs(&tar, &AmplitudeConfig::default());
    let phases: Vec<f64> = scores.iter().map(|s| s.phase_variance).collect();
    let distinct = phases.iter().cloned().fold(f64::MIN, f64::max)
        > 1.2 * phases.iter().cloned().fold(f64::MAX, f64::min);
    println!(
        "paper shape: combinations differ → {}",
        if distinct {
            "REPRODUCED"
        } else {
            "similar pairs"
        }
    );
}

/// Sanity report on the measured ΔΘ/ΔΨ of one pair (not a paper figure;
/// useful context for readers of the report).
pub fn feature_anatomy() {
    heading("Anatomy", "ΔΘ / ΔΨ / Ω̄ of one milk measurement");
    let milk: LiquidSpec = Liquid::Milk.into();
    let (base, tar) = Trial::clean(Some(&milk), Environment::Lab, 20).capture_pair(42, 1.0);
    let pb = PhaseDifferenceProfile::compute(&base, 0, 1);
    let pt = PhaseDifferenceProfile::compute(&tar, 0, 1);
    let ab = AmplitudeRatioProfile::compute(&base, 0, 1, &AmplitudeConfig::default());
    let at = AmplitudeRatioProfile::compute(&tar, 0, 1, &AmplitudeConfig::default());
    let wimi = WiMi::new(WiMiConfig::default());
    match wimi.extract_feature(&base, &tar) {
        Ok(f) => {
            println!("selected subcarriers: {:?}", f.subcarriers);
            println!("gamma (phase wraps):  {}", f.gamma);
            println!(
                "Ω̄ per subcarrier:     {:?}",
                f.omega
                    .iter()
                    .map(|o| (o * 1e4).round() / 1e4)
                    .collect::<Vec<_>>()
            );
            println!("Ω̄ mean:               {:.4}", f.omega_mean());
            println!("dispersion:           {:.4}", f.dispersion);
        }
        Err(e) => println!("extraction failed: {e}"),
    }
    let k = 15;
    println!(
        "subcarrier {k}: phase diff base {:.3} → target {:.3} rad; ratio base {:.3} → target {:.3}",
        pb.mean[k], pt.mean[k], ab.mean[k], at.mean[k]
    );
}

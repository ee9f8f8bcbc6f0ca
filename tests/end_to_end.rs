//! End-to-end integration tests: the full capture → preprocess → feature →
//! classify pipeline across all crates.

use rand::{Rng, SeedableRng};
use wimi::core::{FeatureError, MaterialDatabase, MaterialFeature, WiMi, WiMiConfig};
use wimi::phy::channel::Environment;
use wimi::phy::csi::CsiSource;
use wimi::phy::material::{ContainerMaterial, Liquid};
use wimi::phy::scenario::{Beaker, LiquidSpec, Scenario, ScenarioBuilder, Simulator};
use wimi::phy::units::Meters;
use wimi::serve::{measure_with_retry, Trial};
use wimi::trace::TaskKey;
use wimi_experiments::harness::{run_identification, Material, RunOptions};

/// One 20-packet Lab measurement through the shared re-seat-and-retry
/// protocol, everything derived from `seed`.
fn measure(
    extractor: &WiMi,
    spec: &LiquidSpec,
    seed: u64,
    modify: &(dyn Fn(&mut ScenarioBuilder) + Sync),
) -> Option<MaterialFeature> {
    let trial = Trial {
        modify,
        ..Trial::clean(Some(spec), Environment::Lab, 20)
    };
    measure_with_retry(extractor, &trial, seed, TaskKey::measurement(seed)).feature
}

#[test]
fn three_distinct_liquids_classify_reliably() {
    let liquids = [Liquid::PureWater, Liquid::Honey, Liquid::Oil];
    let extractor = WiMi::new(WiMiConfig::default());

    let mut db = MaterialDatabase::new();
    for trial in 0..10u64 {
        for liquid in liquids {
            if let Some(f) = measure(&extractor, &liquid.into(), 100 + trial, &|_| {}) {
                db.add(liquid.name(), f);
            }
        }
    }
    let mut wimi = WiMi::new(WiMiConfig::default());
    wimi.train(&db);

    let mut correct = 0usize;
    let mut total = 0usize;
    for trial in 0..8u64 {
        for liquid in liquids {
            if let Some(f) = measure(&extractor, &liquid.into(), 9_000 + trial, &|_| {}) {
                total += 1;
                let label = wimi.classify_feature(&f).expect("trained");
                correct += (db.name(label) == liquid.name()) as usize;
            }
        }
    }
    assert!(total >= 18, "too many dropped measurements: {total}");
    let acc = correct as f64 / total as f64;
    assert!(acc >= 0.9, "easy-triplet accuracy only {acc}");
}

#[test]
fn feature_is_size_independent_across_beakers() {
    // The headline claim: the same liquid in different beakers yields the
    // same feature. Compare 14.3 cm against 11 cm beakers (the paper's
    // size 1 vs size 2); medians guard against the occasional wrong-wrap
    // accept that slips past the consistency gates.
    let extractor = WiMi::new(WiMiConfig::default());

    let mut big = Vec::new();
    let mut small = Vec::new();
    for trial in 0..12u64 {
        if let Some(f) = measure(&extractor, &Liquid::Milk.into(), 50 + trial, &|_| {}) {
            big.push(f.omega_mean());
        }
        if let Some(f) = measure(&extractor, &Liquid::Milk.into(), 500 + trial, &|b| {
            b.beaker(Beaker::paper_default().with_diameter(Meters::from_cm(11.0)));
        }) {
            small.push(f.omega_mean());
        }
    }
    assert!(big.len() >= 6 && small.len() >= 6);
    let m_big = wimi::dsp::stats::median(&big);
    let m_small = wimi::dsp::stats::median(&small);
    let rel = (m_big - m_small).abs() / m_big;
    assert!(
        rel < 0.15,
        "size leaked into the feature: 14.3 cm → {m_big:.4}, 11 cm → {m_small:.4}"
    );
}

#[test]
fn metal_container_is_refused_not_misclassified() {
    let extractor = WiMi::new(WiMiConfig::default());
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let mut refused = 0usize;
    let total = 8usize;
    for trial in 0..total as u64 {
        let mut builder = Scenario::builder();
        builder.beaker(Beaker::paper_default().with_material(ContainerMaterial::Metal));
        builder.target_offset(Meters::from_cm(1.0 + rng.gen_range(-0.3..0.3)));
        let mut sim = Simulator::new(builder.build(), 40 + trial);
        let baseline = sim.capture(20);
        sim.set_liquid(Some(Liquid::PureWater.into()));
        let target = sim.capture(20);
        if extractor.extract_feature(&baseline, &target).is_err() {
            refused += 1;
        }
    }
    assert!(
        refused * 2 > total,
        "metal containers should usually be refused: {refused}/{total}"
    );
}

#[test]
fn untrained_identifier_reports_not_trained() {
    let wimi = WiMi::new(WiMiConfig::default());
    let mut sim = Simulator::new(Scenario::builder().build(), 7);
    let baseline = sim.capture(10);
    sim.set_liquid(Some(Liquid::Milk.into()));
    let target = sim.capture(10);
    let err = wimi.identify(&baseline, &target).unwrap_err();
    assert_eq!(err.to_string(), "identifier has not been trained");
}

#[test]
fn empty_captures_are_rejected_cleanly() {
    let wimi = WiMi::new(WiMiConfig::default());
    let empty = wimi::phy::csi::CsiCapture::new();
    let err = wimi.extract_feature(&empty, &empty).unwrap_err();
    assert_eq!(err, FeatureError::EmptyCapture);
}

#[test]
fn flowing_liquid_degrades_or_refuses() {
    // Paper §VI: moving liquid breaks the measurement. The pipeline should
    // refuse far more often than for a static liquid.
    let extractor = WiMi::new(WiMiConfig::default());
    let mut rng = rand::rngs::StdRng::seed_from_u64(4);
    let mut refusals = [0usize; 2];
    for (i, flow) in [0.0f64, 0.9].iter().enumerate() {
        for trial in 0..8u64 {
            let mut builder = Scenario::builder();
            builder.flow_noise(*flow);
            builder.target_offset(Meters::from_cm(1.0 + rng.gen_range(-0.3..0.3)));
            let mut sim = Simulator::new(builder.build(), 60 + trial);
            let baseline = sim.capture(20);
            sim.set_liquid(Some(Liquid::Milk.into()));
            let target = sim.capture(20);
            if extractor.extract_feature(&baseline, &target).is_err() {
                refusals[i] += 1;
            }
        }
    }
    assert!(
        refusals[1] > refusals[0],
        "flow should cause more refusals: static {} vs flowing {}",
        refusals[0],
        refusals[1]
    );
}

#[test]
fn two_antenna_receiver_still_works() {
    // A two-antenna capture takes the single-pair route under the
    // default configuration too, so it measures exactly what the fixed
    // pair (0, 1) does.
    let fixed = WiMi::new(WiMiConfig {
        pairs: wimi::core::PairSelection::Fixed(0, 1),
        ..WiMiConfig::default()
    });
    let default = WiMi::new(WiMiConfig::default());
    let two_antennas = |b: &mut ScenarioBuilder| {
        b.antennas(2, Meters::from_cm(2.9));
    };
    let mut got = 0usize;
    for trial in 0..8u64 {
        let seed = 80 + trial;
        let f = measure(&fixed, &Liquid::Honey.into(), seed, &two_antennas);
        assert_eq!(
            measure(&default, &Liquid::Honey.into(), seed, &two_antennas),
            f,
            "trial {trial}: the default configuration measured differently"
        );
        if let Some(f) = f {
            assert!(f.omega_mean().is_finite());
            got += 1;
        }
    }
    assert!(got >= 4, "two-antenna extraction too fragile: {got}/8");
}

#[test]
fn identification_runs_from_every_seed() {
    // The trial-seed schedule wraps, so a run seeded near `u64::MAX`
    // measures like any other instead of overflowing its seed arithmetic.
    let materials = [
        Material::catalog(Liquid::PureWater),
        Material::catalog(Liquid::Honey),
    ];
    let opts = RunOptions {
        seed: u64::MAX - 5,
        n_train: 1,
        n_test: 1,
        ..RunOptions::default()
    };
    let r = run_identification(&materials, &opts);
    let classified: usize = (0..2)
        .flat_map(|t| (0..2).map(move |p| (t, p)))
        .map(|(t, p)| r.confusion.count(t, p))
        .sum();
    assert!(
        classified + r.dropped_trials >= 2,
        "every test trial is classified or dropped"
    );
}

//! End-to-end integration tests: the full capture → preprocess → feature →
//! classify pipeline across all crates.

use rand::{Rng, SeedableRng};
use wimi::core::{FeatureError, MaterialDatabase, MaterialFeature, WiMi, WiMiConfig};
use wimi::phy::csi::CsiSource;
use wimi::phy::material::{ContainerMaterial, Liquid};
use wimi::phy::scenario::{Beaker, LiquidSpec, Scenario, Simulator};
use wimi::phy::units::Meters;
use wimi::serve::RetryPolicy;

fn measure(
    extractor: &WiMi,
    spec: &LiquidSpec,
    seed: u64,
    rng: &mut rand::rngs::StdRng,
    modify: impl Fn(&mut wimi::phy::scenario::ScenarioBuilder),
) -> Option<MaterialFeature> {
    // Bounded by the shared retry policy (its default packet budget allows
    // the same four attempts the old hard-coded loop made at 20 packets).
    for attempt in 0..RetryPolicy::default().allowed_attempts(20) as u64 {
        let mut builder = Scenario::builder();
        builder.target_offset(Meters::from_cm(1.0 + rng.gen_range(-0.5..0.5)));
        modify(&mut builder);
        let mut sim = Simulator::new(builder.build(), seed * 127 + attempt * 7919);
        let baseline = sim.capture(20);
        sim.set_liquid(Some(spec.clone()));
        let target = sim.capture(20);
        if let Ok(f) = extractor.extract_feature(&baseline, &target) {
            return Some(f);
        }
    }
    None
}

#[test]
fn three_distinct_liquids_classify_reliably() {
    let liquids = [Liquid::PureWater, Liquid::Honey, Liquid::Oil];
    let extractor = WiMi::new(WiMiConfig::default());
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);

    let mut db = MaterialDatabase::new();
    for trial in 0..10u64 {
        for liquid in liquids {
            if let Some(f) = measure(&extractor, &liquid.into(), 100 + trial, &mut rng, |_| {}) {
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
            if let Some(f) = measure(&extractor, &liquid.into(), 9_000 + trial, &mut rng, |_| {}) {
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
    let mut rng = rand::rngs::StdRng::seed_from_u64(2);

    let mut big = Vec::new();
    let mut small = Vec::new();
    for trial in 0..12u64 {
        if let Some(f) = measure(
            &extractor,
            &Liquid::Milk.into(),
            50 + trial,
            &mut rng,
            |_| {},
        ) {
            big.push(f.omega_mean());
        }
        if let Some(f) = measure(
            &extractor,
            &Liquid::Milk.into(),
            500 + trial,
            &mut rng,
            |b| {
                b.beaker(Beaker::paper_default().with_diameter(Meters::from_cm(11.0)));
            },
        ) {
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
    // The Fixed-pair path serves two-antenna hardware.
    let config = WiMiConfig {
        pairs: wimi::core::PairSelection::Fixed(0, 1),
        ..WiMiConfig::default()
    };
    let extractor = WiMi::new(config);
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let mut got = 0usize;
    for trial in 0..8u64 {
        if let Some(f) = measure(
            &extractor,
            &Liquid::Honey.into(),
            80 + trial,
            &mut rng,
            |b| {
                b.antennas(2, Meters::from_cm(2.9));
            },
        ) {
            assert!(f.omega_mean().is_finite());
            got += 1;
        }
    }
    assert!(got >= 4, "two-antenna extraction too fragile: {got}/8");
}

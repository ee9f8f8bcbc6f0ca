//! The measurement's truth, held against the `fidelity_budgets` section of
//! `BENCH.json`.
//!
//! Ten liquids × 40 seeds of the Lab scenario, 20-packet captures, each
//! baseline/target pair captured once and measured on four routes: joint
//! γ resolution over all three antennas (`Best`) and the single-pair
//! extractor on each fixed pair. Every route gets three integer ceilings:
//! the RMS over liquids of the relative Ω̄ error against the Debye truth
//! (basis points, rounded up), the count of features more than 25% off
//! that truth, and the count of measurements refused. A change that
//! lowers a row re-records it downward; one that raises a row fails here.

use wimi::core::fidelity::{reduce, Fidelity};
use wimi::core::{Measurement, PairSelection, WiMi, WiMiConfig};
use wimi::phy::csi::CsiSource;
use wimi::phy::material::LIQUIDS;
use wimi::phy::scenario::{LiquidSpec, Scenario, Simulator};
use wimi::trace::analyze::{budget_table, check_budgets};

/// The four routes, by the prefix of their budget names.
const ROUTES: [(&str, PairSelection); 4] = [
    ("joint", PairSelection::Best),
    ("fixed_01", PairSelection::Fixed(0, 1)),
    ("fixed_02", PairSelection::Fixed(0, 2)),
    ("fixed_12", PairSelection::Fixed(1, 2)),
];

const SEEDS: std::ops::Range<u64> = 1000..1040;
const PACKETS: usize = 20;

/// Every route's scores over the grid, in [`ROUTES`] order.
fn route_fidelity() -> Vec<Fidelity> {
    let scenario = Scenario::builder().build();
    let routes: Vec<WiMi> = ROUTES
        .iter()
        .map(|(_, pairs)| {
            WiMi::new(WiMiConfig {
                pairs: pairs.clone(),
                ..WiMiConfig::default()
            })
        })
        .collect();
    let specs: Vec<LiquidSpec> = LIQUIDS.iter().map(|&l| l.into()).collect();
    // measured[route][liquid][seed]
    let mut measured: Vec<Vec<Vec<Measurement>>> =
        vec![vec![Vec::new(); specs.len()]; ROUTES.len()];
    for (i, spec) in specs.iter().enumerate() {
        for seed in SEEDS {
            let mut sim = Simulator::new(scenario.clone(), seed);
            let base = sim.capture(PACKETS);
            sim.set_liquid(Some(spec.clone()));
            let tar = sim.capture(PACKETS);
            for (route, wimi) in measured.iter_mut().zip(&routes) {
                route[i].push(wimi.measure(&base, &tar));
            }
        }
    }
    let center = scenario.channel().center;
    measured
        .iter()
        .map(|route| reduce(center, specs.iter().zip(route).map(|(s, m)| (s, &m[..]))))
        .collect()
}

/// The budget value of `name` (`<route>_<metric>`), if it names one.
fn gated_total(fidelity: &[Fidelity], name: &str) -> Option<u64> {
    let (i, metric) = ROUTES
        .iter()
        .enumerate()
        .find_map(|(i, (route, _))| Some((i, name.strip_prefix(route)?.strip_prefix('_')?)))?;
    let f = &fidelity[i];
    match metric {
        // A NaN RMS (no liquid kept a feature) must fail, not read 0.
        "rms_bp" => {
            let bp = (f.rms_rel() * 1e4).ceil();
            Some(if bp.is_finite() { bp as u64 } else { u64::MAX })
        }
        "far_off" => Some(f.far_off() as u64),
        "refused" => Some(f.refused() as u64),
        _ => None,
    }
}

#[test]
fn measurement_truth_stays_within_fidelity_budgets() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH.json");
    let text = std::fs::read_to_string(path).expect("BENCH.json is readable");
    let fidelity = route_fidelity();
    for ((route, _), f) in ROUTES.iter().zip(&fidelity) {
        println!(
            "{route}: RMS rel {:.4}, {} far off, {} refused",
            f.rms_rel(),
            f.far_off(),
            f.refused()
        );
        for m in &f.materials {
            println!(
                "  {:<12} truth {:.4} mean {:.4} bias {:+.4} rms {:.4} kept {} far {}",
                m.name, m.truth, m.mean, m.bias, m.rms_rel, m.kept, m.far_off
            );
        }
    }
    let rows = check_budgets(&text, "fidelity_budgets", |name| {
        gated_total(&fidelity, name)
    })
    .expect("BENCH.json holds a well-formed fidelity_budgets section");
    print!("{}", budget_table(&rows));
    for row in &rows {
        assert!(
            row.ok,
            "{} is now {} (ceiling {}); the measurement moved away from the truth",
            row.name, row.actual, row.budget
        );
    }
}

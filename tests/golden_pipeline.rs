//! Golden fingerprint of the simulator and the measurement pipeline.
//!
//! One 64-bit hash covers the `to_bits` of every capture plane and every
//! [`Measurement`] (feature values, quality counts, error kind) over a
//! fixed grid: three environments × {8, 20} packets × three liquids ×
//! {no fault, hostile faults at intensity 0.2}. The constant below was
//! recorded before the realisation, capture and extraction hot paths were
//! restructured; a refactor that claims to be bit-identical must leave it
//! unchanged. A deliberate change to the physics or the pipeline's
//! numerics re-records it and says so. It was re-recorded when the
//! simulator's Gaussian sampler went from Box–Muller to an exact ziggurat
//! (DESIGN §12.6): the same distribution, a different random stream.

use wimi::core::{FeatureError, Measurement, WiMi, WiMiConfig};
use wimi::phy::channel::Environment;
use wimi::phy::csi::{CsiCapture, CsiSource};
use wimi::phy::fault::FaultPlan;
use wimi::phy::material::Liquid;
use wimi::phy::scenario::{Scenario, Simulator};
use wimi::phy::units::Meters;

/// The fingerprint of [`grid_fingerprint`].
const GOLDEN: u64 = 0x044e_f997_ce47_45e8;

/// FNV-1a over 64-bit words.
struct Fingerprint(u64);

impl Fingerprint {
    fn new() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, x: u64) {
        for byte in x.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn float(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    fn floats(&mut self, xs: &[f64]) {
        self.word(xs.len() as u64);
        for &x in xs {
            self.float(x);
        }
    }

    fn count(&mut self, n: usize) {
        self.word(n as u64);
    }

    fn text(&mut self, s: &str) {
        self.count(s.len());
        for byte in s.bytes() {
            self.word(u64::from(byte));
        }
    }

    fn capture(&mut self, cap: &CsiCapture) {
        self.count(cap.len());
        self.count(cap.n_antennas());
        self.count(cap.n_subcarriers());
        let (re, im) = cap.planes();
        self.floats(re);
        self.floats(im);
    }

    fn measurement(&mut self, m: &Measurement) {
        let q = &m.quality;
        for n in [
            q.baseline_packets_total,
            q.baseline_packets_kept,
            q.target_packets_total,
            q.target_packets_kept,
            q.antennas_total,
            q.pairs_attempted,
            q.pairs_resolved,
            q.subcarriers_rejected,
        ] {
            self.count(n);
        }
        self.count(q.antennas_dropped.len());
        for &a in &q.antennas_dropped {
            self.count(a);
        }
        self.count(q.issues.len());
        for issue in &q.issues {
            self.text(&format!("{issue:?}"));
        }
        match &m.feature {
            Ok(f) => {
                self.word(0);
                self.count(f.pair.0);
                self.count(f.pair.1);
                self.count(f.subcarriers.len());
                for &k in &f.subcarriers {
                    self.count(k);
                }
                self.floats(&f.omega);
                self.floats(&f.delta_theta);
                self.floats(&f.delta_psi);
                self.word(f.gamma as u64);
                self.float(f.dispersion);
            }
            Err(e) => {
                self.word(1);
                match e {
                    FeatureError::NoConsistentFeature { best_dispersion } => {
                        self.text("NoConsistentFeature");
                        self.float(*best_dispersion);
                    }
                    other => self.text(&format!("{other:?}")),
                }
            }
        }
    }
}

/// Captures and measures every cell of the grid and folds the bits into
/// one hash. Each cell gets its own seed and beaker offset, so the grid
/// reaches both the low-loss and the multi-baseline γ branches as well as
/// salvage under faults.
fn grid_fingerprint() -> u64 {
    let wimi = WiMi::new(WiMiConfig::default());
    let mut fp = Fingerprint::new();
    let mut cell = 0u64;
    for env in Environment::ALL {
        for packets in [8usize, 20] {
            for liquid in [Liquid::PureWater, Liquid::Oil, Liquid::Milk] {
                for fault in [None, Some(0.2)] {
                    cell += 1;
                    let seed = 0x601D_u64 ^ (cell * 0x9E37_79B9);
                    let mut builder = Scenario::builder();
                    builder.environment(env);
                    builder.target_offset(Meters::from_cm(0.6 + 0.05 * cell as f64));
                    let mut sim = Simulator::new(builder.build(), seed);
                    if let Some(intensity) = fault {
                        sim.set_fault_plan(Some(FaultPlan::hostile(seed).scaled(intensity)));
                    }
                    let base = sim.capture(packets);
                    sim.set_liquid(Some(liquid.into()));
                    let tar = sim.capture(packets);
                    fp.capture(&base);
                    fp.capture(&tar);
                    fp.measurement(&wimi.measure(&base, &tar));
                }
            }
        }
    }
    fp.0
}

#[test]
fn pipeline_outputs_match_the_golden_fingerprint() {
    let got = grid_fingerprint();
    assert_eq!(
        got, GOLDEN,
        "capture or measurement bits changed: fingerprint {got:#018x}, golden {GOLDEN:#018x}"
    );
}

//! Golden fingerprints of the simulator and the measurement pipeline.
//!
//! Two 64-bit hashes cover a fixed grid: three environments × {8, 20}
//! packets × three liquids × {no fault, hostile faults at intensity 0.2}.
//! [`GOLDEN_CAPTURE`] folds the `to_bits` of every capture plane;
//! [`GOLDEN_MEASURE`] folds every [`Measurement`] (feature values, quality
//! counts, error kind). A refactor that claims to be bit-identical must
//! leave both unchanged. A deliberate change to the physics re-records
//! both; one to the pipeline's numerics alone re-records only
//! [`GOLDEN_MEASURE`], and either says so. The pair was last one hash,
//! re-recorded when the simulator's Gaussian sampler went from Box–Muller
//! to an exact ziggurat (DESIGN §12.6): the same distribution, a different
//! random stream.

use wimi::core::{FeatureError, Measurement, WiMi, WiMiConfig};
use wimi::phy::channel::Environment;
use wimi::phy::csi::{CsiCapture, CsiSource};
use wimi::phy::fault::FaultPlan;
use wimi::phy::material::Liquid;
use wimi::phy::scenario::{Scenario, Simulator};
use wimi::phy::units::Meters;

/// The capture half of [`grid_fingerprints`].
const GOLDEN_CAPTURE: u64 = 0x7eb6_3f6c_71d0_150d;

/// The measurement half of [`grid_fingerprints`].
const GOLDEN_MEASURE: u64 = 0x0615_dcf4_8188_8e8d;

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

/// Captures and measures every cell of the grid and folds the capture
/// bits into one hash and the measurement bits into another. Each cell gets its own seed and beaker offset, so the grid
/// reaches both the low-loss and the multi-baseline γ branches as well as
/// salvage under faults.
fn grid_fingerprints() -> (u64, u64) {
    let wimi = WiMi::new(WiMiConfig::default());
    let (mut captures, mut measurements) = (Fingerprint::new(), Fingerprint::new());
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
                    captures.capture(&base);
                    captures.capture(&tar);
                    measurements.measurement(&wimi.measure(&base, &tar));
                }
            }
        }
    }
    (captures.0, measurements.0)
}

#[test]
fn pipeline_outputs_match_the_golden_fingerprint() {
    let (capture, measure) = grid_fingerprints();
    assert_eq!(
        capture, GOLDEN_CAPTURE,
        "capture bits changed: fingerprint {capture:#018x}, golden {GOLDEN_CAPTURE:#018x}"
    );
    assert_eq!(
        measure, GOLDEN_MEASURE,
        "measurement bits changed: fingerprint {measure:#018x}, golden {GOLDEN_MEASURE:#018x}"
    );
}

//! # wimi-core
//!
//! The WiMi material-identification pipeline (Feng et al., ICDCS 2019):
//! contactless target material identification from commodity Wi-Fi CSI.
//!
//! The pipeline mirrors the paper's Fig. 5 workflow:
//!
//! 1. **Data collection** — a baseline capture with the empty container on
//!    the LoS path, then a target capture with the liquid poured in
//!    (any [`wimi_phy::csi::CsiSource`] works; the bundled simulator or a
//!    real Intel 5300 driver).
//! 2. **Phase calibration** ([`phase`]) — cross-antenna phase differencing
//!    cancels CFO/SFO/PBD, then [`subcarrier`] selection keeps the least
//!    multipath-contaminated subcarriers.
//! 3. **Amplitude denoising** ([`amplitude`]) — 3σ outlier rejection,
//!    wavelet-correlation denoising, cross-antenna amplitude ratio.
//! 4. **Feature extraction** ([`feature`]) — the size-independent material
//!    feature `Ω̄ = −ln ΔΨ / (ΔΘ + 2γπ)`.
//! 5. **Classification** ([`pipeline`]) — an SVM over the material
//!    database ([`database`]).
//!
//! [`fidelity`] scores measurements against the simulator's true Ω̄.
//!
//! # End-to-end example
//!
//! ```
//! use wimi_core::{MaterialDatabase, WiMi, WiMiConfig};
//! use wimi_phy::csi::CsiSource;
//! use wimi_phy::material::Liquid;
//! use wimi_phy::scenario::{Scenario, Simulator};
//!
//! // Collect training features for two liquids. Measurements the
//! // pipeline refuses (ambiguous placement) are simply retaken — here we
//! // just skip to the next trial.
//! let extractor = WiMi::new(WiMiConfig::default());
//! let mut db = MaterialDatabase::new();
//! for trial in 0..8 {
//!     for liquid in [Liquid::PureWater, Liquid::Oil] {
//!         let mut sim = Simulator::new(Scenario::builder().build(), 10 + trial);
//!         let baseline = sim.capture(20);
//!         sim.set_liquid(Some(liquid.into()));
//!         let target = sim.capture(20);
//!         if let Ok(feature) = extractor.extract_feature(&baseline, &target) {
//!             db.add(liquid.name(), feature);
//!         }
//!     }
//! }
//!
//! // Train, then identify unseen captures; count the hits. A refused
//! // identification means "re-seat the beaker and measure again".
//! let mut wimi = WiMi::new(WiMiConfig::default());
//! wimi.train(&db);
//! let mut correct = 0;
//! let mut total = 0;
//! for trial in 0..10u64 {
//!     let mut builder = Scenario::builder();
//!     // Each re-measurement places the beaker slightly differently.
//!     builder.target_offset(wimi_phy::units::Meters::from_cm(0.8 + 0.05 * trial as f64));
//!     let mut sim = Simulator::new(builder.build(), 77 + trial);
//!     let baseline = sim.capture(20);
//!     sim.set_liquid(Some(Liquid::PureWater.into()));
//!     let target = sim.capture(20);
//!     if let Ok(id) = wimi.identify(&baseline, &target) {
//!         total += 1;
//!         correct += (id.material == "Pure water") as usize;
//!     }
//! }
//! assert!(total >= 2 && correct * 3 >= total * 2, "{correct}/{total}");
//! ```

#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::float_cmp
    )
)]

pub mod amplitude;
pub mod antenna;
pub mod database;
pub mod error;
pub mod feature;
pub mod fidelity;
pub mod phase;
pub mod pipeline;
pub mod subcarrier;

/// Scoped-thread parallel fan-out (worker count from `WIMI_THREADS`).
///
/// The implementation lives in `wimi_ml::par` so the SVM trainer below
/// this crate in the dependency graph can share it; it is re-exported
/// here for the layers above, which fan whole measurements out over it
/// (the experiment harness, the campaign runner, the serving engine).
/// [`WiMi::measure`] itself starts no thread: it runs start to end on
/// its caller's thread.
pub use wimi_ml::par;

pub use amplitude::{AmplitudeConfig, AmplitudeRatioProfile};
pub use antenna::{PairScore, PairSelection};
pub use database::MaterialDatabase;
pub use error::{FeatureError, IdentifyError, IssueKind, StageIssue};
pub use feature::{FeatureConfig, JointDiagnostics, MaterialFeature};
pub use phase::PhaseDifferenceProfile;
pub use pipeline::{Identification, Measurement, QualityReport, WiMi, WiMiConfig};
pub use subcarrier::SubcarrierSelection;

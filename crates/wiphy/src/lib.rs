//! # wimi-phy
//!
//! Wi-Fi PHY, channel, material and hardware-impairment simulator — the
//! substrate of the WiMi reproduction (Feng et al., ICDCS 2019).
//!
//! The paper's evaluation uses an Intel 5300 NIC measuring real liquids;
//! this crate substitutes that hardware with a physics-grounded simulator:
//!
//! - [`material`]: Debye dielectric models for the ten paper liquids and
//!   the propagation constants (α, β) the WiMi feature is built on.
//! - [`geometry`]: the link/beaker layout producing the per-antenna chord
//!   lengths `D_i`.
//! - [`channel`]: environment-dependent indoor multipath.
//! - [`hardware`]: CFO/SFO/PBD phase corruption, AGC wobble, impulse
//!   noise, outliers and Intel 5300 quantisation.
//! - [`scenario`]: the end-to-end [`scenario::Simulator`], a
//!   [`csi::CsiSource`] producing baseline/target [`csi::CsiCapture`]s.
//!
//! # Quick example
//!
//! ```
//! use wimi_phy::csi::CsiSource;
//! use wimi_phy::material::Liquid;
//! use wimi_phy::scenario::{Scenario, Simulator};
//!
//! let mut sim = Simulator::new(Scenario::builder().build(), 7);
//! let baseline = sim.capture(20);
//! sim.set_liquid(Some(Liquid::Pepsi.into()));
//! let target = sim.capture(20);
//! assert_eq!(baseline.n_subcarriers(), target.n_subcarriers());
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

pub mod channel;
pub mod complex;
pub mod constants;
pub mod csi;
pub mod fault;
pub mod geometry;
pub mod hardware;
pub mod material;
mod normal;
pub mod ofdm;
pub mod scenario;
pub mod units;

pub use complex::Complex;
pub use csi::{CsiCapture, CsiPacket, CsiSource};
pub use fault::FaultPlan;
pub use scenario::{Beaker, LiquidSpec, Scenario, Simulator};

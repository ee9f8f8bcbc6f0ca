//! WiMi facade crate: re-exports the full WiMi stack.

#![cfg_attr(not(test), deny(clippy::float_cmp))]

pub use wimi_campaign as campaign;
pub use wimi_core as core;
pub use wimi_dsp as dsp;
pub use wimi_ml as ml;
pub use wimi_obs as obs;
pub use wimi_phy as phy;
pub use wimi_serve as serve;
pub use wimi_serve::metrics;
pub use wimi_trace as trace;

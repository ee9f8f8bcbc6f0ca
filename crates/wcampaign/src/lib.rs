//! Declarative scenario campaigns for the WiMi reproduction.
//!
//! A `.campaign` file describes a scenario *grid* — cartesian sweeps over
//! materials, containers, distances, environments, packet counts and
//! fault intensities — plus per-cell *schedules*: ordered condition
//! changes at test-trial boundaries (fault ramps, environment swaps,
//! target swap/removal, antenna-dropout windows). This crate owns the
//! format: the hand-rolled lexer/parser/validator ([`parse()`]), the
//! canonical renderer ([`Campaign::render`]), deterministic grid
//! expansion ([`expand`]) with derived per-cell seeds
//! ([`derive_cell_seed`]), and schedule lowering onto the wiphy
//! [`FaultPlan`](wimi_phy::fault::FaultPlan) seam ([`schedule`]).
//!
//! The campaign *runner* lives in `wimi-experiments` (it needs the
//! measurement harness); this crate stays std-only with `wimi-phy` as its
//! single dependency, so the format can be parsed and validated anywhere.
//!
//! # Determinism contract
//!
//! Everything downstream of a campaign file is a pure function of its
//! text: cells expand in a fixed order, per-cell seeds derive from the
//! root seed and cell index (never ambient state), and schedule lowering
//! is data-to-data. Re-running any single cell from its recorded seed
//! reproduces the campaign's artifact for that cell byte for byte, at any
//! `WIMI_THREADS` setting.

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

pub mod ast;
pub mod grid;
pub mod parse;
pub mod schedule;

pub use ast::{
    Axes, Campaign, MaterialRef, MaterialSet, ScheduleChange, ScheduleEntry, TargetMode,
};
pub use grid::{cell_count, derive_cell_seed, expand, CellPlan};
pub use parse::{parse, CampaignError, DiagKind, MAX_CELLS};
pub use schedule::{fault_plan, lower, state_at, StepState};

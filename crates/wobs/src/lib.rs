//! # wimi-obs
//!
//! Structured observability for the WiMi pipeline: stage spans, counters,
//! fixed-bucket histograms and a JSON snapshot export, all std-only and
//! deterministic.
//!
//! The WiMi paper's evaluation (three rooms, ten liquids) works because
//! degraded measurements are *detected* — bad subcarriers rejected, bad
//! antenna pairs excluded, ambiguous γ resolutions refused. This crate is
//! the measurement surface for that machinery: a [`Recorder`] sink is
//! threaded through capture, screening, extraction, γ resolution, retry
//! and training, and a [`Snapshot`] of it tells the whole story of a run.
//!
//! ## Design constraints
//!
//! * **Deterministic.** WiMi results must be bitwise identical under any
//!   `WIMI_THREADS` setting. The recorder therefore keeps only
//!   order-independent aggregates — monotone counters and fixed-bucket
//!   histograms updated with commutative atomic adds — never ordered event
//!   logs. A snapshot taken after the parallel fan-out joins is identical
//!   for any worker count.
//! * **No ambient wall clock.** The root `clippy.toml` bans
//!   `Instant::now`/`SystemTime::now` in every crate, this one included.
//!   Span timing goes through an *injected* [`Clock`] trait; the default
//!   [`NullClock`] reads nothing, so library code never touches the wall
//!   clock. A real clock implementation lives in the (non-library)
//!   experiments binary and is opt-in.
//! * **~Zero cost when disabled.** Every recording method is a single
//!   branch on [`Recorder::is_enabled`] before any atomic traffic; the
//!   pipeline holds the recorder as an option inside one
//!   `wimi_trace::Observer`, so the common path is a `None` check.
//! * **Panic-free.** This crate's root denies clippy's `unwrap_used`,
//!   `expect_used` and `panic` family outside tests; the JSON validator
//!   returns `Result` all the way down.
//!
//! ## Example
//!
//! ```
//! use wimi_obs::{CounterId, Recorder, StageId};
//!
//! let rec = Recorder::enabled();
//! {
//!     let _span = rec.span(StageId::Screening);
//!     rec.add(CounterId::PacketsKept, 38);
//!     rec.incr(CounterId::AntennasDropped);
//! }
//! let snap = rec.snapshot();
//! assert_eq!(snap.counter("packets_kept"), Some(38));
//! wimi_obs::validate_json(&snap.to_json()).unwrap();
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

pub mod clock;
pub mod json;
pub mod recorder;
pub mod snapshot;

pub use clock::{Clock, NullClock, TickClock};
pub use recorder::{CounterId, GaugeId, IssueId, Recorder, Span, StageId};
pub use snapshot::{validate_json, validate_value, Hist, Snapshot, StageStat, SCHEMA};

//! # wimi-serve
//!
//! Fleet-scale measurement service for the WiMi reproduction: many
//! long-lived measurement links ([`Session`]s) served by one engine with
//! sharded workers, bounded queues with load shedding, batched SVM
//! inference, and a shared single-flight trained-model cache.
//!
//! The paper evaluates one link at a time; a deployment has many —
//! different rooms, different catalogs, different capture lengths — and
//! most of the cost at that scale is *training* and *inference*, both of
//! which amortise across links. This crate provides the serving layer:
//!
//! * [`measure_with_retry`] — the one re-seat-and-retry measurement
//!   protocol (a [`Trial`] under a [`RetryPolicy`]), and
//!   [`measure_trials`], its fan-out over a trial list, through which
//!   model training, campaign cells and the experiment harness measure.
//! * [`Session`] — one link: scenario, ground truth, [`RetryPolicy`],
//!   and its own per-session observability sinks.
//! * [`Engine`] — tick-structured service: [`Engine::submit`] requests
//!   into bounded per-shard queues (excess is shed, never blocked on),
//!   [`Engine::drain`] fans shards out over the `wimi_core::par` seam
//!   and classifies measured features in model-keyed batches.
//! * [`ModelCache`] — `(catalog, scenario class)`-keyed cache where
//!   concurrent first requests train exactly once (single flight).
//! * [`run_fleet`] / [`run_campaign_fleet`] — the deterministic
//!   synthetic-fleet driver behind the fleet benchmark, rendering the
//!   byte-stable `wimi-serve/1` summary ([`summary_json`]).
//! * [`metrics`] — the fleet's tick-resolved telemetry: the ordered
//!   per-tick timeline the driver samples, its byte-stable
//!   `wimi-metrics/1` artifact, SLO gates and the cross-fleet report.
//!
//! # Determinism contract
//!
//! Everything observable — responses, summaries, all counters — is a
//! pure function of the request stream and configuration. Requests shard
//! by session id (never thread count), shards are processed serially
//! inside `par` workers, counters are commutative sums, and training
//! seeds derive from model keys. The fleet summary and the telemetry
//! timeline are byte-identical under any `WIMI_THREADS` setting, and CI
//! diffs both.

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

pub mod cache;
pub mod engine;
pub mod fleet;
pub mod metrics;
pub mod queue;
pub mod retry;
pub mod session;
pub mod summary;

pub use cache::{ModelCache, ModelKey};
pub use engine::{Engine, ServeConfig, ServeResponse};
pub use fleet::{run_campaign_fleet, run_fleet, FleetConfig, FleetReport};
pub use queue::BoundedQueues;
pub use retry::{
    attempt_capture_seed, measure_trials, measure_with_retry, MeasureOutcome, RetryPolicy, Trial,
};
pub use session::{MeasureRequest, Session, SessionSpec};
pub use summary::{parse_summary, summary_json, SUMMARY_SCHEMA};

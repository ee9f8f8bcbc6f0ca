//! `wimi-metrics` — tick-resolved fleet telemetry for the WiMi serve
//! engine: deterministic timelines, SLO gates, and cross-fleet report
//! synthesis.
//!
//! The serve engine's observability so far is run-cumulative: the
//! `wimi-obs` recorder's counters say *how much* happened, never *when*.
//! This crate adds the time axis without giving up the repo's
//! determinism contract. A [`timeline::TickCollector`] accumulates one
//! [`timeline::TickSample`] per fleet tick — service deltas, model-cache
//! deltas, retry outcomes, the per-shard queue breakdown, and a
//! deterministic work-cost "latency" proxy (air-time packets per
//! session-tick) — into a bounded [`window::RingWindow`], and
//! [`artifact::render`] serializes the window as a byte-stable
//! `wimi-metrics/1` JSONL artifact that is identical under any
//! `WIMI_THREADS` / `WIMI_CHUNK` setting. Wall-clock time never enters
//! the artifact; it stays behind the `wimi-obs` `Clock` seam.
//!
//! On top of the timeline sit two consumers:
//!
//! * [`slo`] — a declarative policy layer (shed fraction, queue-peak
//!   bound, retry-exhaustion budget, per-environment accuracy floors)
//!   evaluated fail-closed, each breach naming the first breaching tick;
//! * [`report`] — a synthesizer joining the `wimi-serve/1` summary's
//!   session rows with the timeline into per-environment × per-material
//!   accuracy / shed / work-cost tables.

#![warn(missing_docs)]

pub mod artifact;
pub mod report;
pub mod slo;
pub mod timeline;
pub mod window;

pub use artifact::{parse_and_validate, render, SCHEMA};
pub use report::{render_report, SessionRow};
pub use slo::{parse_policy, Breach, SloPolicy};
pub use timeline::{ShardSample, TickCollector, TickSample, Timeline, SERIES};
pub use window::{RingWindow, WindowStats};

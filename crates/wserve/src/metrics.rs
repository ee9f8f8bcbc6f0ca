//! Tick-resolved fleet telemetry: deterministic timelines, SLO gates,
//! and cross-fleet report synthesis.
//!
//! The serve engine's recorder counters say *how much* happened, never
//! *when*; `wimi-obs` keeps only order-independent aggregates. This
//! module adds the ordered time axis next to its one producer, the fleet
//! driver, without giving up the determinism contract. The driver pushes
//! one [`TickSample`] per fleet tick — service deltas, model-cache
//! deltas, retry outcomes, the per-shard [`ShardSample`]s the queues
//! accumulate, and a deterministic work-cost "latency" proxy (air-time
//! packets per session-tick) — into a [`TickCollector`] bounded by a
//! [`RingWindow`], and [`render`] serializes the window as a byte-stable
//! `wimi-metrics/1` JSONL artifact that is identical under any
//! `WIMI_THREADS` setting. Wall-clock time never enters
//! the artifact; it stays behind the `wimi-obs` `Clock` seam.
//!
//! On top of the timeline sit two consumers:
//!
//! * [`slo`] — a declarative policy layer (shed fraction, queue-peak
//!   bound, retry-exhaustion budget, per-environment accuracy floors)
//!   evaluated fail-closed, each breach naming the first breaching tick;
//! * [`report`] — a synthesizer joining the `wimi-serve/1` summary's
//!   [`SessionRow`]s with the timeline into per-environment ×
//!   per-material accuracy / shed / work-cost tables.

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

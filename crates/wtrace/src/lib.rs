//! # wimi-trace
//!
//! A deterministic flight-recorder event layer on top of `wimi-obs`.
//!
//! Where a `wimi_obs::Recorder` keeps order-independent aggregates, a
//! [`TraceSink`] keeps *ordered* per-task event streams — which packet
//! was dropped, which antenna pair failed, which retry attempt gave up —
//! in bounded ring buffers, and still renders byte-identical artifacts
//! under any `WIMI_THREADS` setting.
//!
//! ## How determinism survives ordering
//!
//! Wall-clock timestamps and global sequence numbers are both
//! schedule-dependent, so neither appears anywhere. Instead:
//!
//! * every event belongs to a **task** with a deterministic identity
//!   ([`TaskKey`]): the run itself, one measurement (keyed by its seed),
//!   or one SVM machine (keyed by its class pair);
//! * within a task, events carry a monotone **logical clock** (`seq`),
//!   assigned in emission order — and each task runs entirely on one
//!   worker thread of the deterministic fan-out, so that order is fixed;
//! * the artifact orders events by `(task, seq)`, never by arrival.
//!
//! The thread-local current task is installed with [`task_scope`] at the
//! top of each fan-out job. A `par::map` nested inside a job runs
//! serially on the job's thread, so it stays inside the job's scope; a
//! top-level `par::map`'s workers do *not* inherit it. Code that may run
//! under either (an inner map of `WiMi::measure`) lets the caller emit
//! per-item events after the join, in deterministic item order.
//!
//! ## Artifact
//!
//! [`artifact::render`] writes the `wimi-trace/1` JSONL format: a header
//! line, one line per event, and a final line embedding the run's
//! `wimi-obs/1` snapshot. [`artifact::parse_and_validate`] checks the
//! whole contract; [`analyze`] adds summaries and work-counter budget
//! gates. The experiments binary's `artifact validate|diff|summary` verb
//! and `trace-report --check` expose them.
//!
//! ## Example
//!
//! ```
//! use wimi_trace::{task_scope, TaskKey, TraceEvent, TraceSink};
//! use wimi_obs::CounterId;
//!
//! let sink = TraceSink::enabled();
//! {
//!     let _task = task_scope(TaskKey::measurement(42));
//!     sink.emit(TraceEvent::Count {
//!         counter: CounterId::PacketsKept,
//!         delta: 38,
//!     });
//! }
//! let text = wimi_trace::artifact::render(&sink.flush(), None);
//! wimi_trace::artifact::parse_and_validate(&text).unwrap();
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

pub mod analyze;
pub mod artifact;
pub mod event;
pub mod sink;

pub use event::{Ctx, SalvageAction, TaskKey, TraceEvent};
pub use sink::{task_scope, TaskScope, TraceLog, TraceSink, TraceSpan};

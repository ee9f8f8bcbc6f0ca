//! The [`TraceSink`]: bounded per-task event rings behind one shared,
//! thread-safe handle, with a thread-local *current task* so pipeline
//! code can emit without threading a key through every call.
//!
//! ## Determinism model
//!
//! The deterministic fan-out (`wml::par::map`) runs each job entirely on
//! one worker thread, so a thread-local task key installed at the top of
//! a job scopes every emission inside it. Each task carries its own
//! monotone sequence number — the logical clock — and the flushed log
//! orders events by `(task, seq)`. Neither depends on scheduling, so the
//! rendered artifact is byte-identical under any `WIMI_THREADS`.
//!
//! Two bounds keep memory flat without breaking that guarantee:
//!
//! * each task ring holds at most [`DEFAULT_RING_CAPACITY`] events,
//!   dropping the *oldest* first (per-task streams are deterministic, so
//!   what gets dropped is too; the first retained `seq` records the gap);
//! * [`TraceSink::flush`] emits at most [`DEFAULT_MAX_TASKS`] task streams, the
//!   smallest keys first (a sort-then-truncate at flush time — unlike
//!   insert-time eviction, it cannot depend on arrival order).

use std::cell::Cell;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::event::{TaskKey, TraceEvent};

/// Default per-task ring capacity (events).
pub const DEFAULT_RING_CAPACITY: usize = 256;

/// Default maximum task streams in a flushed log.
pub const DEFAULT_MAX_TASKS: usize = 1024;

thread_local! {
    static CURRENT_TASK: Cell<TaskKey> = const { Cell::new(TaskKey::RUN) };
}

/// Installs `key` as the current task for this thread until the guard
/// drops; the previous key is restored (scopes nest).
///
/// Worker threads spawned by a `par::map` do **not** inherit the key:
/// install the scope inside each job. A map nested inside another map's
/// job spawns nothing: it runs serially on that job's thread, inside its
/// scope, so its items emit against the job's task in item order.
pub fn task_scope(key: TaskKey) -> TaskScope {
    let prev = CURRENT_TASK.with(|c| c.replace(key));
    TaskScope { prev }
}

/// RAII guard returned by [`task_scope`].
#[must_use = "the task scope ends when this guard drops"]
pub struct TaskScope {
    prev: TaskKey,
}

impl Drop for TaskScope {
    fn drop(&mut self) {
        CURRENT_TASK.with(|c| c.set(self.prev));
    }
}

struct TaskRing {
    events: VecDeque<TraceEvent>,
    /// Sequence number the *next* emission gets; events in the ring
    /// cover `next_seq - events.len() .. next_seq`.
    next_seq: u64,
}

/// One task's retained event stream in a flushed [`TraceLog`].
#[derive(Debug, Clone, PartialEq)]
pub struct TaskStream {
    /// The task identity.
    pub key: TaskKey,
    /// Sequence number of the first retained event (> 0 when the ring
    /// dropped older events).
    pub first_seq: u64,
    /// Retained events, oldest first.
    pub events: Vec<TraceEvent>,
}

/// A point-in-time, deterministic flush of a [`TraceSink`].
#[derive(Debug, Clone, PartialEq)]
pub struct TraceLog {
    /// Retained task streams, sorted by key; at most [`DEFAULT_MAX_TASKS`].
    pub tasks: Vec<TaskStream>,
    /// Total emissions attempted (including ring-dropped events).
    pub events_emitted: u64,
    /// Measurements marked as hard failures (retry budget exhausted).
    pub failures: u64,
    /// Task streams cut by the flush-time [`DEFAULT_MAX_TASKS`] bound.
    pub tasks_truncated: u64,
}

/// The flight-recorder sink. Shared via `Arc`, thread-safe, and
/// zero-cost when disabled: [`TraceSink::emit`] is one branch before any
/// thread-local read or lock.
pub struct TraceSink {
    enabled: bool,
    events_emitted: AtomicU64,
    failures: AtomicU64,
    tasks: Mutex<BTreeMap<TaskKey, TaskRing>>,
}

impl std::fmt::Debug for TraceSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceSink")
            .field("enabled", &self.enabled)
            .field("events_emitted", &self.events_emitted())
            .field("failures", &self.failures())
            .finish_non_exhaustive()
    }
}

impl TraceSink {
    /// A disabled sink: every emission is a no-op, nothing allocates.
    pub fn disabled() -> Arc<TraceSink> {
        TraceSink::new(false)
    }

    /// An enabled sink, bounded by [`DEFAULT_RING_CAPACITY`] events per
    /// task and [`DEFAULT_MAX_TASKS`] flushed task streams.
    pub fn enabled() -> Arc<TraceSink> {
        TraceSink::new(true)
    }

    fn new(enabled: bool) -> Arc<TraceSink> {
        Arc::new(TraceSink {
            enabled,
            events_emitted: AtomicU64::new(0),
            failures: AtomicU64::new(0),
            tasks: Mutex::new(BTreeMap::new()),
        })
    }

    /// Whether emissions are recorded.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Emits `event` against the calling thread's current task (see
    /// [`task_scope`]).
    #[inline]
    pub fn emit(&self, event: TraceEvent) {
        if !self.enabled {
            return;
        }
        let key = CURRENT_TASK.with(|c| c.get());
        self.emit_for(key, event);
    }

    /// Emits `event` against an explicit task.
    fn emit_for(&self, key: TaskKey, event: TraceEvent) {
        if !self.enabled {
            return;
        }
        self.events_emitted.fetch_add(1, Ordering::Relaxed);
        let Ok(mut tasks) = self.tasks.lock() else {
            // A poisoned lock means another emitter panicked; tracing is
            // best-effort, so drop the event rather than propagate.
            return;
        };
        let ring = tasks.entry(key).or_insert_with(|| TaskRing {
            events: VecDeque::new(),
            next_seq: 0,
        });
        if ring.events.len() >= DEFAULT_RING_CAPACITY {
            ring.events.pop_front();
        }
        ring.events.push_back(event);
        ring.next_seq += 1;
    }

    /// Records that a measurement failed for good (its retry budget is
    /// exhausted). Harnesses use a nonzero count to trigger
    /// dump-on-failure.
    pub fn mark_failure(&self) {
        if self.enabled {
            self.failures.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Hard failures marked so far.
    pub fn failures(&self) -> u64 {
        self.failures.load(Ordering::Relaxed)
    }

    /// Total emissions attempted so far (schedule-independent).
    pub fn events_emitted(&self) -> u64 {
        self.events_emitted.load(Ordering::Relaxed)
    }

    /// Flushes a deterministic snapshot of the recorded streams: tasks
    /// sorted by key, truncated to the [`DEFAULT_MAX_TASKS`] smallest, per-task
    /// events oldest-first. Does not clear the sink.
    pub fn flush(&self) -> TraceLog {
        let Ok(tasks) = self.tasks.lock() else {
            return TraceLog {
                tasks: Vec::new(),
                events_emitted: self.events_emitted(),
                failures: self.failures(),
                tasks_truncated: 0,
            };
        };
        let total = tasks.len();
        let kept = total.min(DEFAULT_MAX_TASKS);
        let streams = tasks
            .iter()
            .take(kept)
            .map(|(&key, ring)| TaskStream {
                key,
                first_seq: ring.next_seq - ring.events.len() as u64,
                events: ring.events.iter().cloned().collect(),
            })
            .collect();
        TraceLog {
            tasks: streams,
            events_emitted: self.events_emitted(),
            failures: self.failures(),
            tasks_truncated: (total - kept) as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wimi_obs::CounterId;

    fn count(n: u64) -> TraceEvent {
        TraceEvent::Count {
            counter: CounterId::PacketsKept,
            delta: n,
        }
    }

    #[test]
    fn disabled_sink_records_nothing() {
        let sink = TraceSink::disabled();
        sink.emit(count(1));
        sink.emit_for(TaskKey::measurement(1), count(2));
        sink.mark_failure();
        let log = sink.flush();
        assert!(log.tasks.is_empty());
        assert_eq!(log.events_emitted, 0);
        assert_eq!(log.failures, 0);
        assert_eq!(sink.events_emitted(), 0);
    }

    #[test]
    fn task_scope_routes_and_restores() {
        let sink = TraceSink::enabled();
        sink.emit(count(1)); // run task
        {
            let _scope = task_scope(TaskKey::measurement(9));
            sink.emit(count(2));
            {
                let _inner = task_scope(TaskKey::svm_machine(0, 1));
                sink.emit(count(3));
            }
            sink.emit(count(4));
        }
        sink.emit(count(5)); // back on run
        let log = sink.flush();
        let keys: Vec<TaskKey> = log.tasks.iter().map(|t| t.key).collect();
        assert_eq!(
            keys,
            vec![
                TaskKey::RUN,
                TaskKey::measurement(9),
                TaskKey::svm_machine(0, 1)
            ]
        );
        assert_eq!(log.tasks[0].events, vec![count(1), count(5)]);
        assert_eq!(log.tasks[1].events, vec![count(2), count(4)]);
        assert_eq!(log.tasks[2].events, vec![count(3)]);
    }

    #[test]
    fn flush_order_is_independent_of_emission_interleaving() {
        // Simulate two thread schedules of the same three tasks by
        // interleaving emit_for calls differently; the flushed logs
        // must be identical.
        let run = |order: &[(u64, u64)]| {
            let sink = TraceSink::enabled();
            for &(task, v) in order {
                sink.emit_for(TaskKey::measurement(task), count(v));
            }
            sink.flush()
        };
        // Per-task subsequences are equal; global interleaving differs.
        let a = run(&[(1, 10), (2, 20), (1, 11), (3, 30), (2, 21)]);
        let b = run(&[(3, 30), (1, 10), (1, 11), (2, 20), (2, 21)]);
        assert_eq!(a, b);
    }

    #[test]
    fn ring_drops_oldest_and_tracks_first_seq() {
        let sink = TraceSink::enabled();
        let key = TaskKey::measurement(5);
        let emitted = DEFAULT_RING_CAPACITY as u64 + 1;
        for v in 0..emitted {
            sink.emit_for(key, count(v));
        }
        let log = sink.flush();
        assert_eq!(log.tasks.len(), 1);
        assert_eq!(log.tasks[0].first_seq, 1);
        assert_eq!(log.tasks[0].events.len(), DEFAULT_RING_CAPACITY);
        assert_eq!(log.tasks[0].events[0], count(1));
        assert_eq!(log.tasks[0].events.last(), Some(&count(emitted - 1)));
        assert_eq!(log.events_emitted, emitted);
    }

    #[test]
    fn flush_truncates_to_smallest_task_keys() {
        let sink = TraceSink::enabled();
        let tasks = DEFAULT_MAX_TASKS as u64 + 1;
        // Emit in descending key order so insertion order cannot be what
        // decides which stream is cut.
        for id in (0..tasks).rev() {
            sink.emit_for(TaskKey::measurement(id), count(id));
        }
        let log = sink.flush();
        let keys: Vec<TaskKey> = log.tasks.iter().map(|t| t.key).collect();
        let expected: Vec<TaskKey> = (0..tasks - 1).map(TaskKey::measurement).collect();
        assert_eq!(keys, expected);
        assert_eq!(log.tasks_truncated, 1);
        assert_eq!(log.events_emitted, tasks);
    }

    #[test]
    fn failures_accumulate_only_when_enabled() {
        let sink = TraceSink::enabled();
        sink.mark_failure();
        sink.mark_failure();
        assert_eq!(sink.failures(), 2);
    }
}

//! The [`Observer`]: one handle on both observability views of a run.
//!
//! A `wimi_obs::Recorder` keeps order-independent aggregates and a
//! [`TraceSink`] keeps ordered per-task events. Every instrumented type
//! (the pipeline, the simulator, a retry trial) carries one `Observer`
//! holding either, both or neither, so a seam that feeds both views makes
//! one call: [`Observer::span`] opens the stage span and its
//! `Enter`/`Exit` events, [`Observer::count`] bumps the counter and emits
//! its `Count`. Observing never changes any pipeline output.

use std::sync::Arc;

use wimi_obs::{CounterId, Recorder, Span, StageId};

use crate::{TraceEvent, TraceSink};

/// An optional recorder plus an optional trace sink. Cloning shares both;
/// the default observes nothing and costs one branch per seam.
#[derive(Debug, Clone, Default)]
pub struct Observer {
    recorder: Option<Arc<Recorder>>,
    sink: Option<Arc<TraceSink>>,
}

impl Observer {
    /// A handle over `recorder` and `sink` (either may be absent).
    pub fn new(recorder: Option<Arc<Recorder>>, sink: Option<Arc<TraceSink>>) -> Observer {
        Observer { recorder, sink }
    }

    /// The attached recorder, if any.
    #[inline]
    pub fn recorder(&self) -> Option<&Recorder> {
        self.recorder.as_deref()
    }

    /// The attached trace sink, if any.
    #[inline]
    pub fn sink(&self) -> Option<&TraceSink> {
        self.sink.as_deref()
    }

    /// Opens a span over `stage` in both views: the recorder books one
    /// call and its clock delta when the guard drops, and the sink gets
    /// `Enter` now and `Exit` on drop, against the current task.
    #[inline]
    pub fn span(&self, stage: StageId) -> ObservedSpan<'_> {
        let span = self.stage(stage);
        self.emit(TraceEvent::Enter { stage });
        ObservedSpan {
            _span: span,
            sink: self.sink(),
            stage,
        }
    }

    /// Opens an aggregate-only span over `stage`: the recorder books it,
    /// the sink sees nothing. For seams where a trace event would change
    /// artifact bytes, such as the per-pair stages inside extraction.
    #[inline]
    pub fn stage(&self, stage: StageId) -> Option<Span<'_>> {
        self.recorder().map(|r| r.span(stage))
    }

    /// Adds `n` to `counter` in the recorder and emits the matching
    /// `Count` event.
    #[inline]
    pub fn count(&self, counter: CounterId, n: u64) {
        if let Some(r) = self.recorder() {
            r.add(counter, n);
        }
        self.emit(TraceEvent::Count { counter, delta: n });
    }

    /// Emits `event` into the sink (only) against the current task.
    #[inline]
    pub fn emit(&self, event: TraceEvent) {
        if let Some(t) = self.sink() {
            t.emit(event);
        }
    }
}

/// An open [`Observer::span`]; dropping it emits `Exit` and then books
/// the recorder span.
#[must_use = "a span records on drop; binding it to `_` drops immediately"]
pub struct ObservedSpan<'a> {
    _span: Option<Span<'a>>,
    sink: Option<&'a TraceSink>,
    stage: StageId,
}

impl Drop for ObservedSpan<'_> {
    #[inline]
    fn drop(&mut self) {
        if let Some(t) = self.sink {
            t.emit(TraceEvent::Exit { stage: self.stage });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn both() -> (Arc<Recorder>, Arc<TraceSink>, Observer) {
        let rec = Arc::new(Recorder::enabled());
        let sink = TraceSink::enabled();
        let obs = Observer::new(Some(Arc::clone(&rec)), Some(Arc::clone(&sink)));
        (rec, sink, obs)
    }

    #[test]
    fn span_feeds_the_recorder_and_emits_enter_and_exit_in_order() {
        let (rec, sink, obs) = both();
        {
            let _span = obs.span(StageId::Screening);
            obs.count(CounterId::PacketsKept, 1);
        }
        assert_eq!(
            sink.flush().tasks[0].events,
            vec![
                TraceEvent::Enter {
                    stage: StageId::Screening
                },
                TraceEvent::Count {
                    counter: CounterId::PacketsKept,
                    delta: 1
                },
                TraceEvent::Exit {
                    stage: StageId::Screening
                },
            ]
        );
        let snap = rec.snapshot();
        assert_eq!(snap.stages[StageId::Screening as usize].calls, 1);
        assert_eq!(snap.counter("packets_kept"), Some(1));
    }

    #[test]
    fn aggregate_only_spans_and_sink_only_events_stay_in_their_view() {
        let (rec, sink, obs) = both();
        drop(obs.stage(StageId::GammaResolution));
        assert_eq!(sink.events_emitted(), 0);
        obs.emit(TraceEvent::RetriesExhausted { attempts: 2 });
        assert_eq!(sink.events_emitted(), 1);
        let snap = rec.snapshot();
        assert_eq!(snap.stages[StageId::GammaResolution as usize].calls, 1);
        assert!(snap.counters.iter().all(|&(_, v)| v == 0));
    }
}

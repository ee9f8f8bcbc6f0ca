//! Tick samples, per-shard samples, and the bounded collector that
//! turns a serve run into a [`Timeline`].

use super::window::{RingWindow, WindowStats};

/// One shard's telemetry for one tick. Gauges (`depth`) are sampled at
/// the drain point; everything else is a per-tick delta, reset when the
/// engine hands the tick's stats over.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardSample {
    /// Requests queued on this shard when the drain began (gauge).
    pub depth: u64,
    /// Highest depth this shard reached during the tick.
    pub peak: u64,
    /// Requests accepted onto this shard this tick.
    pub submitted: u64,
    /// Responses this shard produced this tick.
    pub completed: u64,
    /// Requests shed at this shard's bound this tick.
    pub shed: u64,
}

/// One tick of fleet telemetry: service deltas, model-cache deltas,
/// retry outcomes, the deterministic work-cost "latency" proxy
/// (`packets_processed`, air-time packets spent per session-tick), and
/// the per-shard breakdown.
///
/// `exhausted` lists the session ids whose measurement exhausted its
/// retry budget this tick, in ascending order — rendered as
/// `sess:<id>` task labels so timeline entries cross-link to the same
/// `wimi-trace` tasks the flight recorder groups events under.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TickSample {
    /// Tick index (the fleet driver's measurement sequence number).
    pub tick: u64,
    /// Requests submitted this tick.
    pub requests: u64,
    /// Responses produced this tick (`requests - shed`).
    pub completed: u64,
    /// Requests shed this tick.
    pub shed: u64,
    /// Model-cache hits this tick.
    pub cache_hits: u64,
    /// Model-cache misses (trainings) this tick.
    pub cache_misses: u64,
    /// Measurement attempts consumed across this tick's responses.
    pub retry_attempts: u64,
    /// Responses whose retry budget was exhausted this tick.
    pub retries_exhausted: u64,
    /// Classification batch calls issued this tick.
    pub svm_batches: u64,
    /// Air-time packets spent across this tick's responses (the
    /// deterministic work-cost latency proxy).
    pub packets_processed: u64,
    /// Session ids that exhausted retries this tick, ascending.
    pub exhausted: Vec<u64>,
    /// Per-shard breakdown, shard order.
    pub shards: Vec<ShardSample>,
}

/// The aggregatable series every timeline carries, canonical order.
/// `queue_peak` is derived per tick: the highest per-shard peak.
pub const SERIES: [&str; 10] = [
    "requests",
    "completed",
    "shed",
    "cache_hits",
    "cache_misses",
    "retry_attempts",
    "retries_exhausted",
    "svm_batches",
    "packets_processed",
    "queue_peak",
];

impl TickSample {
    /// The highest single-shard queue depth this tick reached.
    pub fn queue_peak(&self) -> u64 {
        self.shards.iter().map(|s| s.peak).max().unwrap_or(0)
    }

    /// Reads one named series value; `None` for unknown names.
    pub fn series(&self, name: &str) -> Option<u64> {
        match name {
            "requests" => Some(self.requests),
            "completed" => Some(self.completed),
            "shed" => Some(self.shed),
            "cache_hits" => Some(self.cache_hits),
            "cache_misses" => Some(self.cache_misses),
            "retry_attempts" => Some(self.retry_attempts),
            "retries_exhausted" => Some(self.retries_exhausted),
            "svm_batches" => Some(self.svm_batches),
            "packets_processed" => Some(self.packets_processed),
            "queue_peak" => Some(self.queue_peak()),
            _ => None,
        }
    }
}

/// A bounded, tick-indexed view of one fleet run: the retained
/// [`TickSample`]s plus how much history the window dropped. Everything
/// here is a pure function of the request stream and configuration —
/// byte-identical artifacts under any `WIMI_THREADS`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Timeline {
    /// Shard count every tick's `shards` vector has.
    pub shards: usize,
    /// Window capacity the collector ran with.
    pub window: usize,
    /// Ticks evicted by the window bound.
    pub evicted: u64,
    /// Retained ticks, oldest first.
    pub ticks: Vec<TickSample>,
}

impl Timeline {
    /// Windowed aggregate of one named series over the retained ticks;
    /// `None` for unknown series or an empty timeline.
    pub fn aggregate(&self, series: &str) -> Option<WindowStats> {
        if !SERIES.contains(&series) {
            return None;
        }
        WindowStats::over(self.ticks.iter().filter_map(|t| t.series(series)))
    }

    /// The first retained tick index (equals `evicted` by construction).
    pub fn first_tick(&self) -> Option<u64> {
        self.ticks.first().map(|t| t.tick)
    }
}

/// Accumulates tick samples into a bounded window as the driver runs.
#[derive(Debug)]
pub struct TickCollector {
    shards: usize,
    window: RingWindow<TickSample>,
}

impl TickCollector {
    /// A collector for `shards`-wide samples, retaining at most
    /// `window.max(1)` ticks.
    pub fn new(shards: usize, window: usize) -> TickCollector {
        TickCollector {
            shards,
            window: RingWindow::new(window),
        }
    }

    /// Appends one tick (evicting the oldest past the window bound).
    pub fn push(&mut self, sample: TickSample) {
        self.window.push(sample);
    }

    /// Snapshots the collector into a [`Timeline`].
    pub fn finish(&self) -> Timeline {
        Timeline {
            shards: self.shards,
            window: self.window.capacity(),
            evicted: self.window.evicted(),
            ticks: self.window.iter().cloned().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tick(n: u64, shed: u64) -> TickSample {
        TickSample {
            tick: n,
            requests: 4 + shed,
            completed: 4,
            shed,
            shards: vec![
                ShardSample {
                    depth: 2,
                    peak: 2,
                    submitted: 2,
                    completed: 2,
                    shed,
                },
                ShardSample {
                    depth: 2,
                    peak: 3,
                    submitted: 2,
                    completed: 2,
                    shed: 0,
                },
            ],
            ..TickSample::default()
        }
    }

    #[test]
    fn queue_peak_is_the_hot_shard() {
        assert_eq!(tick(0, 0).queue_peak(), 3);
        assert_eq!(TickSample::default().queue_peak(), 0);
    }

    #[test]
    fn aggregates_cover_the_retained_window_only() {
        let mut c = TickCollector::new(2, 2);
        for n in 0..4 {
            c.push(tick(n, n)); // shed grows with the tick index
        }
        let tl = c.finish();
        assert_eq!(tl.evicted, 2);
        assert_eq!(tl.first_tick(), Some(2));
        let shed = tl.aggregate("shed").unwrap();
        // Only ticks 2 and 3 remain.
        assert_eq!((shed.min, shed.max, shed.last), (2, 3, 3));
        assert!(tl.aggregate("no_such_series").is_none());
        assert!(Timeline::default().aggregate("shed").is_none());
    }

    #[test]
    fn every_named_series_reads_back() {
        let t = tick(0, 1);
        for name in SERIES {
            assert!(t.series(name).is_some(), "{name}");
        }
    }
}

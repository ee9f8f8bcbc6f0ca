//! Serve-layer integration tests (ISSUE PR9 acceptance):
//!
//! - the synthetic fleet's `wimi-serve/1` summary is byte-identical
//!   across worker counts (the override seam stands in for the
//!   `WIMI_THREADS` processes CI compares);
//! - a tiny queue bound degrades to counted sheds, never a panic or a
//!   deadlock, and the accounting stays conserved;
//! - the shared model cache single-flights training under contention;
//! - a panic inside a worker is forwarded to the caller, not swallowed.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use wimi::obs::Recorder;
use wimi::phy::channel::Environment;
use wimi::phy::material::Liquid;
use wimi::phy::scenario::LiquidSpec;
use wimi::serve::{
    parse_summary, run_fleet, summary_json, Engine, FleetConfig, MeasureRequest, ModelCache,
    ModelKey, RetryPolicy, ServeConfig, Session, SessionSpec,
};

/// Serialises tests that twiddle the process-global fan-out overrides.
static FANOUT_LOCK: Mutex<()> = Mutex::new(());

fn tiny_fleet() -> FleetConfig {
    FleetConfig {
        sessions: 6,
        measurements: 2,
        packets: 8,
        serve: ServeConfig {
            shards: 3,
            train_per_class: 2,
            ..ServeConfig::default()
        },
        ..FleetConfig::default()
    }
}

#[test]
fn fleet_summary_is_byte_identical_across_fanout_shapes() {
    let _guard = match FANOUT_LOCK.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    };
    let mut summaries = Vec::new();
    for threads in 1..=4 {
        wimi::core::par::set_thread_override(Some(threads));
        summaries.push(summary_json(&run_fleet(&tiny_fleet())));
    }
    wimi::core::par::set_thread_override(None);
    parse_summary(&summaries[0]).expect("summary validates");
    for s in &summaries[1..] {
        assert_eq!(
            &summaries[0], s,
            "fleet summary must not depend on the worker count"
        );
    }
}

#[test]
fn tiny_queue_bound_degrades_to_counted_sheds() {
    // One shard bounded to a single slot: each 6-request tick keeps one
    // request and sheds five — deterministically, with no panic and no
    // blocking.
    let cfg = FleetConfig {
        serve: ServeConfig {
            shards: 1,
            queue_bound: 1,
            train_per_class: 2,
            ..ServeConfig::default()
        },
        ..tiny_fleet()
    };
    let report = run_fleet(&cfg);
    assert_eq!(report.requests, 12);
    assert_eq!(report.shed, 10, "5 of 6 requests shed per tick");
    assert_eq!(report.responses, 2);
    assert_eq!(report.responses + report.shed, report.requests);
    assert_eq!(report.queue_peak, 1);
    let shed_counter = report
        .counters
        .iter()
        .find(|&&(n, _)| n == "serve_shed")
        .map(|&(_, v)| v);
    assert_eq!(shed_counter, Some(10));
    let summary = summary_json(&report);
    parse_summary(&summary).expect("shedding summary still validates");
}

#[test]
fn model_cache_single_flights_concurrent_training() {
    let cache = ModelCache::new();
    let key = ModelKey {
        catalog: vec!["Milk".into(), "Pure water".into()],
        environment: "Lab".into(),
        packets: 10,
    };
    let trainings = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..8 {
            scope.spawn(|| {
                cache.get_or_train(&key, None, || {
                    trainings.fetch_add(1, Ordering::Relaxed);
                    wimi::core::WiMi::new(wimi::core::WiMiConfig::default())
                });
            });
        }
    });
    assert_eq!(trainings.load(Ordering::Relaxed), 1, "trained exactly once");
    assert_eq!(cache.len(), 1);
}

#[test]
fn fleet_cache_misses_match_model_keys() {
    let report = run_fleet(&tiny_fleet());
    let misses = report
        .counters
        .iter()
        .find(|&&(n, _)| n == "model_cache_misses")
        .map(|&(_, v)| v);
    assert_eq!(misses, Some(report.model_keys as u64));
}

#[test]
fn queue_peaks_are_tracked_per_shard_and_globally() {
    // The global queue peak, the serve_queue_peak counter, and the
    // timeline's per-tick per-shard peaks must all tell the same story:
    // the global figure is exactly the hottest shard sample.
    let report = run_fleet(&tiny_fleet());
    let timeline_max = report
        .timeline
        .ticks
        .iter()
        .map(|t| t.queue_peak())
        .max()
        .unwrap_or(0);
    assert_eq!(timeline_max, report.queue_peak as u64);
    let counter = report
        .counters
        .iter()
        .find(|&&(n, _)| n == "serve_queue_peak")
        .map(|&(_, v)| v);
    assert_eq!(counter, Some(report.queue_peak as u64));
    for tick in &report.timeline.ticks {
        assert_eq!(tick.shards.len(), 3, "one sample per shard per tick");
        for shard in &tick.shards {
            assert!(shard.peak <= report.queue_peak as u64);
        }
    }
    // 6 sessions round-robin over 3 shards: every shard queues exactly 2
    // requests per tick, so each per-shard peak is 2 — strictly finer
    // than a single global gauge could record.
    let last = report.timeline.ticks.last().expect("at least one tick");
    assert!(last.shards.iter().all(|s| s.peak == 2), "{:?}", last.shards);
}

#[test]
fn worker_panic_is_forwarded_not_swallowed() {
    let catalog: Vec<(String, LiquidSpec)> = [Liquid::Milk, Liquid::PureWater]
        .iter()
        .map(|&l| (l.name().to_owned(), l.into()))
        .collect();
    let names: Vec<String> = catalog.iter().map(|(n, _)| n.clone()).collect();
    let sessions: Vec<Session> = (0..4)
        .map(|i| {
            Session::new(SessionSpec {
                id: i,
                seed: 1000 + i,
                truth: 0,
                catalog: names.clone(),
                spec: catalog[0].1.clone(),
                environment: Environment::Lab,
                packets: 8,
                retry: RetryPolicy::default(),
                fault: None,
                config: wimi::core::WiMiConfig::default(),
                trace: false,
            })
        })
        .collect();
    let mut engine = Engine::new(
        ServeConfig::default(),
        sessions,
        catalog,
        Arc::new(Recorder::enabled()),
    );
    engine.set_request_probe(Box::new(|session_id| {
        assert!(session_id != 2, "probe panic inside a worker");
    }));
    let requests: Vec<MeasureRequest> = (0..4)
        .map(|s| MeasureRequest { session: s, seq: 0 })
        .collect();
    engine.submit(&requests);
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| engine.drain()));
    assert!(
        outcome.is_err(),
        "a worker panic must surface at the drain call"
    );
}

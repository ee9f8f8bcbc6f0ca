//! Telemetry integration tests (ISSUE PR10 acceptance):
//!
//! - the rendered `wimi-metrics/1` timeline is byte-identical across
//!   worker counts (the override seam stands in for the `WIMI_THREADS`
//!   processes CI compares), both for the
//!   plain synthetic fleet and for a fault-injected campaign fleet;
//! - the ring-buffer window evicts the oldest ticks deterministically
//!   and the artifact records the eviction count;
//! - the SLO layer names the first breaching tick and fails closed on
//!   environments it has never seen;
//! - the fleet report joins per-session stats with the timeline into
//!   per-environment × per-material rows.

use std::sync::Mutex;
use wimi::metrics::{parse_and_validate, parse_policy, render, render_report, slo};
use wimi::serve::{run_campaign_fleet, run_fleet, FleetConfig, FleetReport, ServeConfig};

/// Serialises tests that twiddle the process-global fan-out overrides.
static FANOUT_LOCK: Mutex<()> = Mutex::new(());

fn tiny_fleet() -> FleetConfig {
    FleetConfig {
        sessions: 6,
        measurements: 3,
        packets: 8,
        serve: ServeConfig {
            shards: 3,
            train_per_class: 2,
            ..ServeConfig::default()
        },
        ..FleetConfig::default()
    }
}

/// Renders the report's timeline exactly the way the CLI does: with the
/// engine's obs snapshot embedded as the final cross-check line.
fn render_timeline(report: &FleetReport) -> String {
    render(&report.timeline, Some(&report.engine_snapshot.to_json()))
}

/// Runs `f` under each worker count and asserts the rendered
/// timeline never changes by a byte.
fn assert_shape_independent<F: Fn() -> FleetReport>(f: F) {
    let _guard = match FANOUT_LOCK.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    };
    let mut timelines = Vec::new();
    for threads in 1..=4 {
        wimi::core::par::set_thread_override(Some(threads));
        timelines.push(render_timeline(&f()));
    }
    wimi::core::par::set_thread_override(None);
    parse_and_validate(&timelines[0]).expect("timeline validates");
    for t in &timelines[1..] {
        assert_eq!(
            &timelines[0], t,
            "timeline must not depend on the worker count"
        );
    }
}

#[test]
fn fleet_timeline_is_byte_identical_across_fanout_shapes() {
    assert_shape_independent(|| run_fleet(&tiny_fleet()));
}

#[test]
fn faulted_campaign_timeline_is_byte_identical_across_fanout_shapes() {
    // The degradation campaign injects hostile fault plans, which drive
    // retries and exhaustions through the timeline's retry series — the
    // byte-identity contract must hold under that traffic too.
    let text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/campaigns/degradation.campaign"
    ))
    .expect("read shipped campaign");
    let campaign = wimi::campaign::parse(&text).expect("shipped campaign parses");
    let cfg = FleetConfig {
        measurements: 2,
        ..tiny_fleet()
    };
    assert_shape_independent(move || run_campaign_fleet(&campaign, &cfg));
}

#[test]
fn metrics_window_evicts_the_oldest_ticks_deterministically() {
    let cfg = FleetConfig {
        measurements: 5,
        metrics_window: 2,
        ..tiny_fleet()
    };
    let report = run_fleet(&cfg);
    assert_eq!(report.timeline.ticks.len(), 2, "window keeps newest 2");
    assert_eq!(report.timeline.evicted, 3);
    assert_eq!(report.timeline.first_tick(), Some(3));
    let rendered = render_timeline(&report);
    assert!(rendered.contains("\"evicted\":3"), "{rendered}");
    let parsed = parse_and_validate(&rendered).expect("windowed timeline validates");
    assert_eq!(parsed.evicted, 3);

    // The same run with an unbounded window retains every tick, and its
    // retained tail matches the windowed run tick for tick.
    let full = run_fleet(&FleetConfig {
        metrics_window: 1024,
        ..cfg
    });
    assert_eq!(full.timeline.evicted, 0);
    assert_eq!(full.timeline.ticks.len(), 5);
    assert_eq!(full.timeline.ticks[3..], report.timeline.ticks[..]);
}

#[test]
fn slo_breaches_name_the_first_breaching_tick() {
    // One shard bounded to a single slot sheds five of six requests on
    // every tick, so any shed budget breaches immediately at tick 0.
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
    let rows = &report.per_session;

    let policy = parse_policy("max_shed_fraction 0.1\nmax_queue_peak 64\n").expect("policy");
    let breaches = slo::evaluate(&policy, &report.timeline, rows);
    assert_eq!(breaches.len(), 1, "{breaches:?}");
    assert_eq!(breaches[0].rule, "max_shed_fraction");
    assert_eq!(breaches[0].tick, Some(0), "first breaching tick");

    // A policy the run satisfies reports no breaches at all.
    let policy = parse_policy("max_shed_fraction 1.0\nmax_queue_peak 64\n").expect("policy");
    assert!(slo::evaluate(&policy, &report.timeline, rows).is_empty());

    // An accuracy floor for an environment the fleet never ran is a
    // breach, not a silent pass: the gate fails closed.
    let policy = parse_policy("min_accuracy Cellar 0.5\n").expect("policy");
    let breaches = slo::evaluate(&policy, &report.timeline, rows);
    assert_eq!(breaches.len(), 1);
    assert_eq!(breaches[0].rule, "min_accuracy");
}

#[test]
fn fleet_report_joins_sessions_and_timeline() {
    let report = run_fleet(&tiny_fleet());
    let rows = &report.per_session;
    let rendered = render_report(rows, Some(&report.timeline));
    assert!(rendered.contains("environment/material"), "{rendered}");
    assert!(rendered.contains("Lab/"), "{rendered}");
    assert!(rendered.contains("Hall/"), "{rendered}");
    assert!(rendered.contains("total"), "{rendered}");
    assert!(rendered.contains("queue_peak"), "timeline join: {rendered}");
    // Synthesis is a pure function of its inputs.
    assert_eq!(rendered, render_report(rows, Some(&report.timeline)));
}

//! Deterministic synthetic-fleet driver: N sessions × M measurements
//! through one [`Engine`], either from a [`FleetConfig`] grid or from a
//! parsed `.campaign` file.
//!
//! This is the headline serve benchmark: the driver submits one request
//! per session per tick (session order) and drains between ticks, so the
//! whole run — which requests shed, which keys train, every counter —
//! is a pure function of the configuration. The resulting
//! [`FleetReport`] renders to the byte-stable `wimi-serve/1` summary and
//! must be identical under any `WIMI_THREADS` setting.

use std::collections::BTreeMap;
use std::sync::Arc;

use wimi_campaign::{derive_cell_seed, expand, fault_plan, lower, state_at, Campaign};
use wimi_obs::{CounterId, Recorder, Snapshot};
use wimi_phy::channel::Environment;
use wimi_phy::material::LIQUIDS;
use wimi_phy::scenario::LiquidSpec;

use crate::engine::{Engine, ServeConfig, ServeResponse};
use crate::metrics::{SessionRow, TickCollector, TickSample, Timeline};
use crate::retry::RetryPolicy;
use crate::session::{MeasureRequest, Session, SessionSpec};

/// Shape of a synthetic fleet run.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of sessions (links) in the fleet.
    pub sessions: usize,
    /// Measurements requested per session.
    pub measurements: u64,
    /// Fleet root seed; session `i` gets `derive_cell_seed(seed, i)`.
    pub seed: u64,
    /// Packets per capture on every session.
    pub packets: usize,
    /// Catalog size: the first `catalog_size` paper liquids.
    pub catalog_size: usize,
    /// Environments assigned round-robin across sessions (so a fleet
    /// with more than one exercises more than one model key).
    pub environments: Vec<Environment>,
    /// Retry policy shared by every session.
    pub retry: RetryPolicy,
    /// Whether sessions carry per-session trace sinks.
    pub trace: bool,
    /// Telemetry window: how many of the newest ticks the report's
    /// timeline retains (older ticks are evicted and counted).
    pub metrics_window: usize,
    /// Engine shape (shards, queue bound, batching, training).
    pub serve: ServeConfig,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            sessions: 12,
            measurements: 5,
            seed: 0xF1EE7,
            packets: 10,
            catalog_size: 3,
            environments: vec![Environment::Lab, Environment::EmptyHall],
            retry: RetryPolicy::default(),
            trace: false,
            metrics_window: 1024,
            serve: ServeConfig::default(),
        }
    }
}

/// Everything a fleet run produced, ready for summary rendering.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Number of sessions driven.
    pub sessions: usize,
    /// Measurements requested per session.
    pub measurements: u64,
    /// Fleet root seed.
    pub seed: u64,
    /// Requests submitted (sessions × measurements).
    pub requests: u64,
    /// Responses produced (requests − shed): the rows' `ok + failed`.
    pub responses: u64,
    /// Responses with a predicted label, summed over the rows.
    pub ok: u64,
    /// Responses without one, summed over the rows.
    pub failed: u64,
    /// Requests shed at the queue bound, summed over the rows.
    pub shed: u64,
    /// Correct predictions among `ok`, summed over the rows.
    pub correct: u64,
    /// Distinct model keys trained.
    pub model_keys: usize,
    /// Highest single-shard queue depth observed.
    pub queue_peak: usize,
    /// Per-session tallies, session order: the `wimi-serve/1` rows.
    pub per_session: Vec<SessionRow>,
    /// Fleet-wide counters (engine + every session, summed), canonical
    /// [`CounterId::ALL`] order.
    pub counters: Vec<(&'static str, u64)>,
    /// Tick-resolved telemetry over the run (bounded to the configured
    /// window).
    pub timeline: Timeline,
    /// The engine recorder's final snapshot — the one the telemetry
    /// artifact embeds and cross-checks against the tick sums.
    pub engine_snapshot: Snapshot,
}

/// Builds the synthetic fleet's sessions and its material catalog.
fn build_sessions(cfg: &FleetConfig) -> (Vec<Session>, Vec<(String, LiquidSpec)>) {
    let n = cfg.catalog_size.clamp(2, LIQUIDS.len());
    let catalog: Vec<(String, LiquidSpec)> = LIQUIDS[..n]
        .iter()
        .map(|&l| (l.name().to_owned(), l.into()))
        .collect();
    let names: Vec<String> = catalog.iter().map(|(name, _)| name.clone()).collect();
    let environments = if cfg.environments.is_empty() {
        vec![Environment::Lab]
    } else {
        cfg.environments.clone()
    };
    let sessions = (0..cfg.sessions)
        .map(|i| {
            let truth = i % names.len();
            Session::new(SessionSpec {
                id: i as u64,
                seed: derive_cell_seed(cfg.seed, i as u64),
                truth,
                catalog: names.clone(),
                spec: catalog[truth].1.clone(),
                environment: environments[i % environments.len()],
                packets: cfg.packets,
                retry: cfg.retry.clone(),
                fault: None,
                config: cfg.serve.config.clone(),
                trace: cfg.trace,
            })
        })
        .collect();
    (sessions, catalog)
}

/// Folds one drain's responses into the session rows. `pos_of` maps
/// session *ids* (what responses carry) to positions in `rows` — the
/// two differ whenever ids are sparse (campaign fleets with skipped
/// cells), and indexing by id silently misattributed tallies before the
/// summary grew its per-session conservation check.
fn fold(responses: &[ServeResponse], pos_of: &BTreeMap<u64, usize>, rows: &mut [SessionRow]) {
    for r in responses {
        let Some(row) = pos_of.get(&r.session).and_then(|&p| rows.get_mut(p)) else {
            continue;
        };
        row.rejected += r.rejected as u64;
        row.packets_spent += r.packets_spent as u64;
        if r.salvaged {
            row.salvaged += 1;
        }
        match r.label {
            Some(label) => {
                row.ok += 1;
                if label == r.truth {
                    row.correct += 1;
                }
            }
            None => row.failed += 1,
        }
    }
}

/// Reads one named counter out of a snapshot (0 when absent).
fn counter_of(snap: &Snapshot, name: &str) -> u64 {
    snap.counter(name).unwrap_or(0)
}

/// Runs a fleet over an already-built engine. `measurements` requests per
/// session are submitted one per tick in session order, draining between
/// ticks. Each tick's service, cache and retry deltas are sampled into
/// the report's timeline (bounded to `metrics_window` ticks).
fn drive(mut engine: Engine, measurements: u64, seed: u64, metrics_window: usize) -> FleetReport {
    let mut rows: Vec<SessionRow> = engine
        .sessions()
        .iter()
        .map(|s| SessionRow {
            id: s.id,
            truth: s.truth as u64,
            environment: s.environment.name().to_owned(),
            material: s.catalog.get(s.truth).cloned().unwrap_or_default(),
            ..SessionRow::default()
        })
        .collect();
    let pos_of: BTreeMap<u64, usize> = rows.iter().enumerate().map(|(p, s)| (s.id, p)).collect();
    let mut collector = TickCollector::new(engine.shard_count(), metrics_window);
    // Every session submits once per tick.
    let tick_requests = rows.len() as u64;
    for seq in 0..measurements {
        let before = engine.recorder().snapshot();
        for (session, row) in rows.iter_mut().enumerate() {
            if engine.submit(&[MeasureRequest { session, seq }]) == 0 {
                row.shed += 1;
            }
        }
        let responses = engine.drain();
        let after = engine.recorder().snapshot();
        fold(&responses, &pos_of, &mut rows);

        // One TickSample per tick: cache/batch deltas come from the
        // engine recorder (serial snapshot diff), retry and work-cost
        // deltas fold over this tick's responses, the shard breakdown
        // comes from the queues. All deterministic — no wall clock.
        let delta = |name: &str| counter_of(&after, name) - counter_of(&before, name);
        collector.push(TickSample {
            tick: seq,
            requests: tick_requests,
            completed: responses.len() as u64,
            shed: tick_requests - responses.len() as u64,
            cache_hits: delta("model_cache_hits"),
            cache_misses: delta("model_cache_misses"),
            retry_attempts: responses.iter().map(|r| r.attempts as u64).sum(),
            retries_exhausted: responses.iter().filter(|r| !r.measured).count() as u64,
            svm_batches: delta("serve_batches"),
            packets_processed: responses.iter().map(|r| r.packets_spent as u64).sum(),
            // Responses are sorted by (session, seq) and each session
            // submits once per tick, so these ids are already ascending.
            exhausted: responses
                .iter()
                .filter(|r| !r.measured)
                .map(|r| r.session)
                .collect(),
            shards: engine.take_tick(),
        });
    }
    // Queue peak is monotone across the run; record it once so the
    // snapshot carries it.
    engine
        .recorder()
        .add(CounterId::ServeQueuePeak, engine.queue_peak() as u64);
    let engine_snapshot = engine.recorder().snapshot();

    // Fleet-wide counters: the engine's (serve/cache/training) plus every
    // per-session recorder, summed in canonical order.
    let mut counters: Vec<(&'static str, u64)> = engine_snapshot.counters.clone();
    for session in engine.sessions() {
        let snap = session.recorder.snapshot();
        for (slot, &(_, v)) in counters.iter_mut().zip(snap.counters.iter()) {
            slot.1 += v;
        }
    }

    let total = |field: fn(&SessionRow) -> u64| rows.iter().map(field).sum::<u64>();
    let (ok, failed) = (total(|r| r.ok), total(|r| r.failed));
    FleetReport {
        sessions: rows.len(),
        measurements,
        seed,
        requests: tick_requests * measurements,
        responses: ok + failed,
        ok,
        failed,
        shed: total(|r| r.shed),
        correct: total(|r| r.correct),
        model_keys: engine.cache().len(),
        queue_peak: engine.queue_peak(),
        per_session: rows,
        counters,
        timeline: collector.finish(),
        engine_snapshot,
    }
}

/// Runs the synthetic fleet described by `cfg` and reports totals.
pub fn run_fleet(cfg: &FleetConfig) -> FleetReport {
    let (sessions, catalog) = build_sessions(cfg);
    let engine = Engine::new(
        cfg.serve.clone(),
        sessions,
        catalog,
        Arc::new(Recorder::enabled()),
    );
    drive(engine, cfg.measurements, cfg.seed, cfg.metrics_window)
}

/// Runs a fleet where each campaign grid cell becomes one session: the
/// cell's seed, materials, environment, packets and (initial-segment)
/// fault plan carry over, and the cell's ground truth cycles through its
/// material set by cell index. The engine's training catalog is the union
/// of all cells' materials. Scheduled condition *changes* are a per-trial
/// concept that doesn't map onto long-lived links, so only each cell's
/// first segment state is used.
pub fn run_campaign_fleet(campaign: &Campaign, cfg: &FleetConfig) -> FleetReport {
    let cells = expand(campaign);
    let mut union: BTreeMap<String, LiquidSpec> = BTreeMap::new();
    let mut sessions = Vec::with_capacity(cells.len());
    for cell in &cells {
        let refs = cell.materials.resolve();
        if refs.is_empty() {
            continue;
        }
        let names: Vec<String> = refs.iter().map(|r| r.label()).collect();
        for (name, r) in names.iter().zip(refs.iter()) {
            union.entry(name.clone()).or_insert_with(|| r.spec());
        }
        let truth = (cell.index as usize) % refs.len();
        let steps = lower(campaign, cell);
        let fault = fault_plan(state_at(&steps, 0), campaign.fault_seed);
        sessions.push(Session::new(SessionSpec {
            id: cell.index,
            seed: cell.seed,
            truth,
            catalog: names,
            spec: refs[truth].spec(),
            environment: cell.environment,
            packets: cell.packets,
            retry: cfg.retry.clone(),
            fault,
            config: cfg.serve.config.clone(),
            trace: cfg.trace,
        }));
    }
    let engine = Engine::new(
        cfg.serve.clone(),
        sessions,
        union.into_iter().collect(),
        Arc::new(Recorder::enabled()),
    );
    drive(engine, cfg.measurements, campaign.seed, cfg.metrics_window)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> FleetConfig {
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
    fn fleet_accounting_is_conserved() {
        let report = run_fleet(&tiny());
        assert_eq!(report.requests, 12);
        assert_eq!(report.responses + report.shed, report.requests);
        assert_eq!(report.ok + report.failed, report.responses);
        assert!(report.correct <= report.ok);
        assert_eq!(report.per_session.len(), 6);
        // Two environments round-robin over one catalog → two model keys.
        assert_eq!(report.model_keys, 2);
        let per: u64 = report.per_session.iter().map(|s| s.ok + s.failed).sum();
        assert_eq!(per, report.responses);
    }

    #[test]
    fn fleet_timeline_validates_as_a_metrics_artifact() {
        let report = run_fleet(&tiny());
        assert_eq!(report.timeline.ticks.len(), 2, "one sample per tick");
        assert_eq!(report.timeline.shards, 3);
        assert_eq!(report.timeline.evicted, 0);
        // Render with the embedded engine snapshot and run the full
        // fail-closed validation, including the counter cross-checks.
        let text =
            crate::metrics::render(&report.timeline, Some(&report.engine_snapshot.to_json()));
        let parsed = crate::metrics::parse_and_validate(&text)
            .unwrap_or_else(|e| panic!("fleet timeline must validate: {e}"));
        assert_eq!(parsed, report.timeline);
        // The timeline's queue peak is the report's (and the counter's).
        let peak = report
            .timeline
            .aggregate("queue_peak")
            .map(|s| s.max)
            .unwrap_or(0);
        assert_eq!(peak, report.queue_peak as u64);
    }

    #[test]
    fn session_rows_carry_environment_and_material() {
        let report = run_fleet(&tiny());
        for (i, row) in report.per_session.iter().enumerate() {
            let want_env = if i % 2 == 0 { "Lab" } else { "Hall" };
            assert_eq!(row.environment, want_env);
            assert!(!row.material.is_empty());
        }
    }

    #[test]
    fn metrics_window_bounds_the_timeline() {
        let report = run_fleet(&FleetConfig {
            measurements: 5,
            metrics_window: 2,
            ..tiny()
        });
        assert_eq!(report.timeline.ticks.len(), 2);
        assert_eq!(report.timeline.evicted, 3);
        assert_eq!(report.timeline.first_tick(), Some(3));
        // Windowed timelines still validate (the counter cross-check
        // self-gates on eviction).
        let text =
            crate::metrics::render(&report.timeline, Some(&report.engine_snapshot.to_json()));
        crate::metrics::parse_and_validate(&text).unwrap_or_else(|e| panic!("{e}"));
    }

    #[test]
    fn fleet_runs_are_reproducible() {
        let a = run_fleet(&tiny());
        let b = run_fleet(&tiny());
        assert_eq!(a.counters, b.counters);
        assert_eq!(a.per_session, b.per_session);
        assert_eq!(a.correct, b.correct);
    }

    #[test]
    fn campaign_cells_become_sessions() {
        let campaign = wimi_campaign::parse(
            "campaign serve\nseed 7\naxis materials = Milk+PureWater\naxis environment = lab, hall\naxis packets = 8\n",
        )
        .unwrap_or_else(|e| panic!("campaign must parse: {e:?}"));
        let report = run_campaign_fleet(
            &campaign,
            &FleetConfig {
                measurements: 2,
                ..tiny()
            },
        );
        assert_eq!(report.sessions, wimi_campaign::cell_count(&campaign));
        assert_eq!(report.seed, 7);
        assert_eq!(report.requests, report.sessions as u64 * 2);
    }
}

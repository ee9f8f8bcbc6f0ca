//! `fleet` subcommand: runs the deterministic synthetic fleet through
//! `wimi-serve` and writes/gates its `wimi-serve/1` summary; and
//! `fleet-report`, which joins a written summary with its
//! `wimi-metrics/1` timeline.
//!
//! This is the CLI surface CI drives: one run at `WIMI_THREADS=1` and one
//! at `WIMI_THREADS=4` must produce byte-identical summaries (`cmp`), and
//! `--check BENCH.json` gates the run's deterministic totals against the
//! committed `fleet_budgets` and `metrics_budgets` ceilings, fail-closed
//! like the campaign gate.

use wimi_serve::metrics::{self, Timeline};
use wimi_serve::{parse_summary, run_campaign_fleet, run_fleet, summary_json, FleetConfig};
use wimi_trace::analyze;

/// A fleet report's gated total of `name`: a service total, else a
/// fleet-wide counter.
fn fleet_total(report: &wimi_serve::FleetReport, name: &str) -> Option<u64> {
    Some(match name {
        "requests" => report.requests,
        "responses" => report.responses,
        "ok" => report.ok,
        "failed" => report.failed,
        "shed" => report.shed,
        "correct" => report.correct,
        "model_keys" => report.model_keys as u64,
        "queue_peak" => report.queue_peak as u64,
        _ => {
            return report
                .counters
                .iter()
                .find(|&&(n, _)| n == name)
                .map(|&(_, v)| v)
        }
    })
}

/// Gates a fleet report's deterministic totals against the
/// `fleet_budgets` section of `BENCH.json`.
fn check_fleet_budgets(
    bench_json: &str,
    report: &wimi_serve::FleetReport,
) -> Result<Vec<analyze::BudgetRow>, String> {
    analyze::check_budgets(bench_json, "fleet_budgets", |name| {
        fleet_total(report, name)
    })
}

/// Gates a fleet timeline against the `metrics_budgets` section of
/// `BENCH.json`: each name is a timeline series, gated on its windowed
/// per-tick `max`.
fn check_metrics_budgets(
    bench_json: &str,
    timeline: &Timeline,
) -> Result<Vec<analyze::BudgetRow>, String> {
    analyze::check_budgets(bench_json, "metrics_budgets", |name| {
        timeline.aggregate(name).map(|s| s.max)
    })
}

/// `fleet [--sessions N] [--measurements M] [--campaign PATH]
/// [--fleet-out PATH] [--metrics-out PATH] [--slo POLICY] [--check BENCH]`:
/// runs the synthetic fleet (or one session per cell of a campaign file),
/// prints totals, writes the summary and the `wimi-metrics/1` timeline,
/// gates the declared SLOs, and optionally gates budget ceilings. Exit 1
/// on SLO breaches, budget violations or an invalid artifact, exit 2 on
/// I/O errors.
pub fn fleet_run(
    sessions: Option<usize>,
    measurements: Option<u64>,
    campaign_path: Option<&str>,
    out: Option<&str>,
    metrics_out: Option<&str>,
    slo: Option<&str>,
    check: Option<&str>,
) {
    let mut cfg = FleetConfig::default();
    if let Some(n) = sessions {
        cfg.sessions = n;
    }
    if let Some(m) = measurements {
        cfg.measurements = m;
    }

    let report = match campaign_path {
        Some(path) => run_campaign_fleet(&crate::campaign::read_campaign("fleet", path), &cfg),
        None => run_fleet(&cfg),
    };

    let summary = summary_json(&report);
    // The renderer and validator are independent implementations; running
    // the validator here means a malformed summary can never reach CI's
    // byte-compare silently.
    if let Err(e) = parse_summary(&summary) {
        eprintln!("fleet: summary failed validation: {e}");
        std::process::exit(1);
    }

    eprintln!(
        "fleet: {} sessions x {} measurements: {} ok / {} failed / {} shed, {} correct, {} model keys",
        report.sessions,
        report.measurements,
        report.ok,
        report.failed,
        report.shed,
        report.correct,
        report.model_keys
    );

    match out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &summary) {
                eprintln!("fleet: cannot write {path}: {e}");
                std::process::exit(2);
            }
            eprintln!("fleet: summary written to {path}");
        }
        None => print!("{summary}"),
    }

    // The timeline artifact, self-validated like the summary: a render
    // the validator rejects must never reach CI's byte-compare.
    let timeline_text = metrics::render(&report.timeline, Some(&report.engine_snapshot.to_json()));
    if let Err(e) = metrics::parse_and_validate(&timeline_text) {
        eprintln!("fleet: timeline failed validation: {e}");
        std::process::exit(1);
    }
    if let Some(path) = metrics_out {
        if let Err(e) = std::fs::write(path, &timeline_text) {
            eprintln!("fleet: cannot write {path}: {e}");
            std::process::exit(2);
        }
        eprintln!("fleet: timeline written to {path}");
    }

    // SLO gate: every declared objective is evaluated; all breaches are
    // reported before the nonzero exit so the first breaching tick of
    // each rule is visible in one run.
    if let Some(policy_path) = slo {
        let policy_text = crate::read_or_exit("fleet", policy_path);
        let policy = match metrics::parse_policy(&policy_text) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("fleet: {policy_path}: {e}");
                std::process::exit(1);
            }
        };
        let breaches = metrics::slo::evaluate(&policy, &report.timeline, &report.per_session);
        if breaches.is_empty() {
            eprintln!("fleet: SLO check OK against {policy_path}");
        } else {
            for b in &breaches {
                eprintln!("fleet: SLO breach [{}]: {}", b.rule, b.message);
            }
            std::process::exit(1);
        }
    }

    if let Some(bench_path) = check {
        crate::enforce_budgets(
            "fleet",
            bench_path,
            &[&|bench| check_fleet_budgets(bench, &report), &|bench| {
                check_metrics_budgets(bench, &report.timeline)
            }],
        );
    }
}

/// `fleet-report SUMMARY [--metrics TIMELINE]`: joins a `wimi-serve/1`
/// summary's session rows (and optionally a timeline artifact) into the
/// per-environment × per-material table on stdout. Both inputs go
/// through their fail-closed readers: exit 1 when either is invalid,
/// 2 when either cannot be read.
pub fn fleet_report(summary_path: &str, metrics_path: Option<&str>) {
    let rows = match parse_summary(&crate::read_or_exit("fleet-report", summary_path)) {
        Ok(rows) => rows,
        Err(e) => {
            eprintln!("fleet-report: {summary_path}: {e}");
            std::process::exit(1);
        }
    };
    let timeline = metrics_path.map(|path| {
        match metrics::parse_and_validate(&crate::read_or_exit("fleet-report", path)) {
            Ok(tl) => tl,
            Err(e) => {
                eprintln!("fleet-report: {path}: {e}");
                std::process::exit(1);
            }
        }
    });
    print!("{}", metrics::render_report(&rows, timeline.as_ref()));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_report() -> wimi_serve::FleetReport {
        run_fleet(&FleetConfig {
            sessions: 4,
            measurements: 2,
            packets: 8,
            ..FleetConfig::default()
        })
    }

    #[test]
    fn budgets_gate_fleet_totals() {
        let report = tiny_report();
        let bench = format!(
            "{{\"fleet_budgets\": {{\"requests\": {}, \"failed\": {}, \"captures_taken\": 100000}}}}",
            report.requests, report.failed
        );
        let rows = check_fleet_budgets(&bench, &report)
            .unwrap_or_else(|e| panic!("budgets must parse: {e}"));
        assert!(rows.iter().all(|r| r.ok));

        let tight = "{\"fleet_budgets\": {\"requests\": 0}}";
        let rows = check_fleet_budgets(tight, &report)
            .unwrap_or_else(|e| panic!("budgets must parse: {e}"));
        assert!(rows.iter().any(|r| !r.ok), "zero ceiling must trip");
    }

    #[test]
    fn metrics_budgets_gate_windowed_maxima() {
        let report = tiny_report();
        let peak = report
            .timeline
            .aggregate("queue_peak")
            .map(|s| s.max)
            .unwrap_or(0);
        let bench = format!(
            "{{\"metrics_budgets\": {{\"queue_peak\": {peak}, \"shed\": 0, \"packets_processed\": 99999}}}}"
        );
        let rows = check_metrics_budgets(&bench, &report.timeline)
            .unwrap_or_else(|e| panic!("budgets must parse: {e}"));
        assert!(rows.iter().all(|r| r.ok), "{rows:?}");

        let tight = "{\"metrics_budgets\": {\"requests\": 0}}";
        let rows = check_metrics_budgets(tight, &report.timeline)
            .unwrap_or_else(|e| panic!("budgets must parse: {e}"));
        assert!(rows.iter().any(|r| !r.ok), "zero ceiling must trip");
    }
}

//! Cross-fleet report synthesis: joins the `wimi-serve/1` summary's
//! per-session rows with a `wimi-metrics/1` timeline into
//! per-environment × per-material accuracy / shed / work-cost tables.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use super::timeline::{Timeline, SERIES};

/// One session's outcome row: what the fleet driver tallies per session
/// and what the `wimi-serve/1` summary carries, field for field.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SessionRow {
    /// Session id.
    pub id: u64,
    /// Ground-truth label (an index into the session's catalog).
    pub truth: u64,
    /// Environment the session's captures were synthesized in.
    pub environment: String,
    /// Ground-truth material name (`catalog[truth]`).
    pub material: String,
    /// Responses with a predicted label.
    pub ok: u64,
    /// Responses without one (retries exhausted or key untrainable).
    pub failed: u64,
    /// Requests shed before reaching the session's shard.
    pub shed: u64,
    /// Correct predictions among `ok`.
    pub correct: u64,
    /// Attempts rejected across all measurements.
    pub rejected: u64,
    /// Measurements that needed salvage.
    pub salvaged: u64,
    /// Air-time packets spent across the session's measurements.
    pub packets_spent: u64,
}

#[derive(Debug, Default, Clone, Copy)]
struct Cell {
    sessions: u64,
    ok: u64,
    failed: u64,
    shed: u64,
    correct: u64,
    packets: u64,
}

impl Cell {
    fn absorb(&mut self, row: &SessionRow) {
        self.sessions += 1;
        self.ok += row.ok;
        self.failed += row.failed;
        self.shed += row.shed;
        self.correct += row.correct;
        self.packets += row.packets_spent;
    }

    fn accuracy(&self) -> f64 {
        if self.ok == 0 {
            0.0
        } else {
            self.correct as f64 / self.ok as f64
        }
    }

    fn packets_per_measurement(&self) -> f64 {
        let measured = self.ok + self.failed;
        if measured == 0 {
            0.0
        } else {
            self.packets as f64 / measured as f64
        }
    }
}

fn write_cell(out: &mut String, label: &str, c: &Cell) {
    let _ = writeln!(
        out,
        "{label:<24} {:>8} {:>6} {:>6} {:>6} {:>7} {:>9.6} {:>9.2}",
        c.sessions,
        c.ok,
        c.failed,
        c.shed,
        c.correct,
        c.accuracy(),
        c.packets_per_measurement()
    );
}

/// Renders the cross-fleet report: one table row per
/// environment × material cell (lexicographic order), a totals row, and
/// — when a timeline is supplied — the windowed min/max/mean/last of
/// every telemetry series. Deterministic: plain functions of the rows.
pub fn render_report(rows: &[SessionRow], timeline: Option<&Timeline>) -> String {
    let mut cells: BTreeMap<(String, String), Cell> = BTreeMap::new();
    let mut total = Cell::default();
    for row in rows {
        cells
            .entry((row.environment.clone(), row.material.clone()))
            .or_default()
            .absorb(row);
        total.absorb(row);
    }

    let mut out = String::new();
    out.push_str("fleet report (wimi-serve/1 x wimi-metrics/1)\n\n");
    let _ = writeln!(
        out,
        "{:<24} {:>8} {:>6} {:>6} {:>6} {:>7} {:>9} {:>9}",
        "environment/material",
        "sessions",
        "ok",
        "failed",
        "shed",
        "correct",
        "accuracy",
        "pkts/meas"
    );
    for ((env, material), cell) in &cells {
        write_cell(&mut out, &format!("{env}/{material}"), cell);
    }
    write_cell(&mut out, "total", &total);

    if let Some(tl) = timeline {
        let _ = writeln!(
            out,
            "\ntimeline: {} ticks retained (window {}, evicted {}), {} shards",
            tl.ticks.len(),
            tl.window,
            tl.evicted,
            tl.shards
        );
        let _ = writeln!(
            out,
            "{:<20} {:>8} {:>8} {:>12} {:>8}",
            "series", "min", "max", "mean", "last"
        );
        for name in SERIES {
            if let Some(s) = tl.aggregate(name) {
                let _ = writeln!(
                    out,
                    "{name:<20} {:>8} {:>8} {:>12.6} {:>8}",
                    s.min, s.max, s.mean, s.last
                );
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::timeline::{ShardSample, TickCollector, TickSample};

    fn row(id: u64, env: &str, material: &str, ok: u64, correct: u64, shed: u64) -> SessionRow {
        SessionRow {
            id,
            environment: env.to_owned(),
            material: material.to_owned(),
            ok,
            failed: 1,
            shed,
            correct,
            packets_spent: (ok + 1) * 10,
            ..SessionRow::default()
        }
    }

    #[test]
    fn report_groups_by_environment_then_material() {
        let rows = vec![
            row(0, "Lab", "Milk", 4, 3, 0),
            row(1, "Hall", "PureWater", 4, 4, 1),
            row(2, "Lab", "Milk", 4, 2, 0),
            row(3, "Lab", "PureWater", 4, 4, 0),
        ];
        let text = render_report(&rows, None);
        let lab_milk = text.lines().position(|l| l.starts_with("Lab/Milk"));
        let hall = text.lines().position(|l| l.starts_with("Hall/PureWater"));
        let total = text.lines().position(|l| l.starts_with("total"));
        assert!(hall < lab_milk && lab_milk < total, "{text}");
        // Lab/Milk: 8 ok, 5 correct → accuracy 0.625.
        let line = text
            .lines()
            .find(|l| l.starts_with("Lab/Milk"))
            .map(str::to_owned);
        assert!(
            line.as_deref().is_some_and(|l| l.contains("0.625000")),
            "{line:?}"
        );
        // Renders deterministically.
        assert_eq!(text, render_report(&rows, None));
    }

    #[test]
    fn timeline_join_lists_every_series() {
        let mut c = TickCollector::new(1, 4);
        c.push(TickSample {
            tick: 0,
            requests: 4,
            completed: 4,
            shards: vec![ShardSample {
                depth: 4,
                peak: 4,
                submitted: 4,
                completed: 4,
                shed: 0,
            }],
            ..TickSample::default()
        });
        let text = render_report(&[row(0, "Lab", "Milk", 4, 4, 0)], Some(&c.finish()));
        for name in SERIES {
            assert!(text.contains(name), "{name} missing from:\n{text}");
        }
    }
}

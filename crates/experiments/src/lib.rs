//! # wimi-experiments
//!
//! Reproduces every evaluation figure of the WiMi paper (Feng et al.,
//! ICDCS 2019) on the simulated substrate. See `DESIGN.md` for the
//! per-experiment index and `EXPERIMENTS.md` for paper-vs-measured notes.
//!
//! Run everything with:
//!
//! ```text
//! cargo run -p wimi-experiments --release -- all
//! ```
//!
//! or a single figure, e.g. `-- fig15`. Pass `--quick` for a reduced-trial
//! smoke run.

#![cfg_attr(not(test), deny(clippy::float_cmp))]

pub mod ablation;
pub mod accuracy;
pub mod artifact;
pub mod campaign;
pub mod degradation;
pub mod features;
pub mod fleet;
pub mod harness;
pub mod microbench;
pub mod obs;
pub mod trace;

pub use accuracy::Effort;

use wimi_trace::analyze::{budget_table, BudgetRow};

/// A budget gate: checks one section of the budget file's text.
type Gate<'a> = &'a dyn Fn(&str) -> Result<Vec<BudgetRow>, String>;

/// Reads `path` for the CLI subcommand `cmd`, exiting 2 with one stderr
/// line when it cannot be read.
pub(crate) fn read_or_exit(cmd: &str, path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("{cmd}: cannot read {path}: {e}");
        std::process::exit(2);
    })
}

/// `--check BENCH` for the CLI subcommands: reads the budget file, prints
/// each gate's table, and exits 1 at the first gate that errors or has a
/// total over its ceiling (exit 2 when the file cannot be read). `cmd`
/// prefixes the stderr lines.
pub(crate) fn enforce_budgets(cmd: &str, bench_path: &str, gates: &[Gate<'_>]) {
    let bench = read_or_exit(cmd, bench_path);
    for gate in gates {
        match gate(&bench) {
            Ok(rows) => {
                print!("{}", budget_table(&rows));
                if rows.iter().any(|r| !r.ok) {
                    eprintln!("{cmd}: budget check FAILED against {bench_path}");
                    std::process::exit(1);
                }
            }
            Err(e) => {
                eprintln!("{cmd}: {e}");
                std::process::exit(1);
            }
        }
    }
    eprintln!("{cmd}: budget check OK against {bench_path}");
}

/// An experiment's entry point, run at a given effort.
pub type Experiment = fn(Effort);

/// Every experiment, in report order: `all` runs them in this order.
pub const EXPERIMENTS: [(&str, Experiment); 26] = [
    ("fig2", |_| microbench::fig2()),
    ("fig3", |_| microbench::fig3()),
    ("fig6", |_| microbench::fig6()),
    ("fig7", |_| microbench::fig7()),
    ("fig8", |_| microbench::fig8()),
    ("fig9", |_| features::fig9()),
    ("fig10", |_| features::fig10()),
    ("fig12", |_| microbench::fig12()),
    ("fig13", accuracy::fig13),
    ("fig14", accuracy::fig14),
    ("fig15", accuracy::fig15),
    ("fig16", accuracy::fig16),
    ("fig17", accuracy::fig17),
    ("fig18", accuracy::fig18),
    ("fig19", accuracy::fig19),
    ("fig20", accuracy::fig20),
    ("fig21", accuracy::fig21),
    ("anatomy", |_| features::feature_anatomy()),
    ("ablation-p", ablation::ablation_subcarrier_count),
    ("ablation-wavelet", ablation::ablation_wavelet_family),
    ("ablation-classifier", ablation::ablation_classifier),
    ("flow", |_| ablation::robustness_flowing_liquid()),
    ("degradation", degradation::degradation),
    ("obs-report", |effort| obs::obs_report(effort, None, false)),
    ("trace-report", |effort| {
        trace::trace_report(effort, None, None)
    }),
    ("environments", ablation::environments),
];

/// Runs one named experiment; returns false for unknown names.
pub fn run_named(name: &str, effort: Effort) -> bool {
    match EXPERIMENTS.iter().find(|(n, _)| *n == name) {
        Some((_, run)) => {
            run(effort);
            true
        }
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_name_is_rejected() {
        assert!(!run_named("fig99", Effort::quick()));
    }

    #[test]
    fn microbenchmarks_run() {
        assert!(run_named("fig2", Effort::quick()));
        assert!(run_named("fig7", Effort::quick()));
    }
}

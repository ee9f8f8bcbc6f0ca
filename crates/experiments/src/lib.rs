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

/// Runs one named experiment; returns false for unknown names.
pub fn run_named(name: &str, effort: Effort) -> bool {
    match name {
        "fig2" => microbench::fig2(),
        "fig3" => microbench::fig3(),
        "fig6" => microbench::fig6(),
        "fig7" => microbench::fig7(),
        "fig8" => microbench::fig8(),
        "fig9" => features::fig9(),
        "fig10" => features::fig10(),
        "fig12" => microbench::fig12(),
        "fig13" => accuracy::fig13(effort),
        "fig14" => accuracy::fig14(effort),
        "fig15" => accuracy::fig15(effort),
        "fig16" => accuracy::fig16(effort),
        "fig17" => accuracy::fig17(effort),
        "fig18" => accuracy::fig18(effort),
        "fig19" => accuracy::fig19(effort),
        "fig20" => accuracy::fig20(effort),
        "fig21" => accuracy::fig21(effort),
        "anatomy" => features::feature_anatomy(),
        "ablation-p" => ablation::ablation_subcarrier_count(effort),
        "ablation-wavelet" => ablation::ablation_wavelet_family(effort),
        "ablation-classifier" => ablation::ablation_classifier(effort),
        "flow" => ablation::robustness_flowing_liquid(),
        "degradation" => degradation::degradation(effort),
        "obs-report" => obs::obs_report(effort, None, false),
        "trace-report" => trace::trace_report(effort, None, None),
        "environments" => ablation::environments(effort),
        _ => return false,
    }
    true
}

/// Every experiment name, in report order.
pub const ALL_EXPERIMENTS: [&str; 25] = [
    "fig2",
    "fig3",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "fig18",
    "fig19",
    "fig20",
    "fig21",
    "anatomy",
    "ablation-p",
    "ablation-wavelet",
    "ablation-classifier",
    "flow",
    "degradation",
    "obs-report",
    "trace-report",
];

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

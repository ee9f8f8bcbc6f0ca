//! The `wimi-trace` analyzer binary.
//!
//! ```text
//! wimi-trace validate <trace.jsonl>          # schema + invariants, exit 1 on any violation
//! wimi-trace summary  <trace.jsonl>          # deterministic human summary
//! wimi-trace diff     <a.jsonl> <b.jsonl>    # exit 0 iff byte-identical; else first divergence
//! wimi-trace budget   <BENCH.json> <trace.jsonl>  # gate work counters against `trace_budgets`
//! ```
//!
//! Exit codes: 0 success, 1 check failed, 2 usage or I/O error.

use std::process::ExitCode;

use wimi_trace::analyze::{self, DiffOutcome};
use wimi_trace::artifact;

const USAGE: &str =
    "usage: wimi-trace <validate FILE | summary FILE | diff A B | budget BENCH TRACE>";

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let cmd = args.first().map(String::as_str);
    match (cmd, args.len()) {
        (Some("validate"), 2) => {
            let text = read(&args[1])?;
            match artifact::parse_and_validate(&text) {
                Ok(a) => {
                    println!(
                        "ok: {} tasks, {} events, {} failures",
                        a.header.tasks, a.header.events, a.header.failures
                    );
                    Ok(ExitCode::SUCCESS)
                }
                Err(e) => {
                    eprintln!("invalid: {e}");
                    Ok(ExitCode::FAILURE)
                }
            }
        }
        (Some("summary"), 2) => {
            let text = read(&args[1])?;
            let report = analyze::summary(&text).map_err(|e| format!("{}: {e}", args[1]))?;
            print!("{report}");
            Ok(ExitCode::SUCCESS)
        }
        (Some("diff"), 3) => {
            let a = read(&args[1])?;
            let b = read(&args[2])?;
            match analyze::diff(&a, &b) {
                DiffOutcome::Identical => {
                    println!("identical: {} == {}", args[1], args[2]);
                    Ok(ExitCode::SUCCESS)
                }
                DiffOutcome::Diverged { report, .. } => {
                    eprint!("{report}");
                    Ok(ExitCode::FAILURE)
                }
            }
        }
        (Some("budget"), 3) => {
            let bench = read(&args[1])?;
            let trace = read(&args[2])?;
            // A gate that cannot run (no `trace_budgets`, an unknown
            // name, an invalid artifact) fails closed like an exceeded one.
            let rows = match analyze::check_trace_budgets(&bench, &trace) {
                Ok(rows) => rows,
                Err(e) => {
                    eprintln!("budget check: {e}");
                    return Ok(ExitCode::FAILURE);
                }
            };
            print!("{}", analyze::budget_table(&rows));
            if rows.iter().all(|r| r.ok) {
                Ok(ExitCode::SUCCESS)
            } else {
                eprintln!(
                    "budget check failed: deterministic work counters exceed {}",
                    args[1]
                );
                Ok(ExitCode::FAILURE)
            }
        }
        _ => Err(USAGE.to_string()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
    }
}

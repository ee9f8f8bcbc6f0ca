//! CLI entry point: `cargo run -p wimi-lint [-- <flags>]`.
//!
//! Exit code is 0 when the workspace is clean (no unsuppressed
//! violations), 1 otherwise, 2 on usage or I/O errors — so CI can gate on
//! it directly. `--sarif` emits SARIF 2.1.0 for code-scanning upload,
//! `--graph` dumps the resolved call graph, `--explain <rule>` prints a
//! rule's rationale and suppression contract.

#![cfg_attr(not(test), deny(clippy::float_cmp))]

use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> &'static str {
    "usage: wimi-lint [--json | --sarif | --graph] [--root <workspace-dir>] [--list-rules] [--explain <rule>]"
}

fn main() -> ExitCode {
    let mut json = false;
    let mut sarif = false;
    let mut graph = false;
    let mut list_rules = false;
    let mut explain: Option<String> = None;
    let mut root: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--sarif" => sarif = true,
            "--graph" => graph = true,
            "--list-rules" => list_rules = true,
            "--explain" => match args.next() {
                Some(rule) => explain = Some(rule),
                None => {
                    eprintln!("--explain needs a rule name\n{}", usage());
                    return ExitCode::from(2);
                }
            },
            "--root" => match args.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("--root needs a directory\n{}", usage());
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument `{other}`\n{}", usage());
                return ExitCode::from(2);
            }
        }
    }

    if list_rules {
        for rule in wimi_lint::Rule::ALL {
            println!("{:<18} {}", rule.name(), rule.description());
        }
        return ExitCode::SUCCESS;
    }

    if let Some(name) = explain {
        match wimi_lint::Rule::from_name(&name) {
            Some(rule) => {
                println!("{} — {}\n", rule.name(), rule.description());
                println!("{}", rule.explain());
                return ExitCode::SUCCESS;
            }
            None => {
                eprintln!("unknown rule `{name}`; try --list-rules");
                return ExitCode::from(2);
            }
        }
    }

    // Default root: the workspace that contains this crate when run via
    // `cargo run -p wimi-lint`, else the current directory.
    let root = root
        .or_else(|| std::env::var_os("CARGO_MANIFEST_DIR").map(|d| PathBuf::from(d).join("../..")))
        .unwrap_or_else(|| PathBuf::from("."));

    let (report, index, call_graph) = match wimi_lint::lint_workspace_full(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("wimi-lint: failed to walk {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    if graph {
        print!("{}", wimi_lint::graph_dump(&index, &call_graph));
    } else if sarif {
        print!("{}", wimi_lint::sarif::render_sarif(&report));
    } else if json {
        print!("{}", report.render_json());
    } else {
        print!("{}", report.render_text());
    }

    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

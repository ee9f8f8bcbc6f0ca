//! End-to-end tests of the `wimi-lint` binary: exit codes, `--explain`,
//! `--list-rules`, and the byte-stability contract of
//! `--sarif` output across repeated runs and thread settings.

use std::path::PathBuf;
use std::process::{Command, Output};

use wimi_lint::Rule;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_wimi-lint")
}

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn run(args: &[&str], threads: Option<&str>) -> Output {
    let mut cmd = Command::new(bin());
    cmd.args(args);
    match threads {
        Some(t) => {
            cmd.env("WIMI_THREADS", t);
        }
        None => {
            cmd.env_remove("WIMI_THREADS");
        }
    }
    cmd.output().expect("binary runs")
}

#[test]
fn explain_prints_rule_documentation() {
    let out = run(&["--explain", "unit-newtype"], None);
    assert!(out.status.success(), "exit: {:?}", out.status);
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.starts_with("unit-newtype — "), "got: {text}");
    assert!(
        text.len() > 120,
        "explain text should be substantial, got {} bytes",
        text.len()
    );
}

#[test]
fn explain_unknown_rule_exits_2() {
    let out = run(&["--explain", "no-such-rule"], None);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("unknown rule `no-such-rule`"), "got: {err}");
    assert!(err.contains("--list-rules"), "got: {err}");
}

#[test]
fn list_rules_prints_every_rule_and_each_explains() {
    let out = run(&["--list-rules"], None);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert_eq!(text.lines().count(), Rule::ALL.len(), "got: {text}");
    for (line, rule) in text.lines().zip(Rule::ALL) {
        let name = rule.name();
        assert!(line.starts_with(name), "missing {name} in: {text}");
        let explain = run(&["--explain", name], None);
        assert!(
            explain.status.success(),
            "--explain {name}: {:?}",
            explain.status
        );
    }
}

#[test]
fn sarif_is_byte_identical_across_runs_and_thread_settings() {
    let root = workspace_root();
    let root = root.to_str().unwrap();
    let first = run(&["--sarif", "--root", root], Some("1"));
    assert!(
        first.status.success(),
        "workspace should lint clean; stderr: {}",
        String::from_utf8_lossy(&first.stderr)
    );
    let second = run(&["--sarif", "--root", root], Some("1"));
    assert_eq!(first.stdout, second.stdout, "sarif differs run-to-run");
    let threaded = run(&["--sarif", "--root", root], Some("4"));
    assert_eq!(
        first.stdout, threaded.stdout,
        "sarif differs across WIMI_THREADS"
    );
    let text = String::from_utf8(first.stdout).unwrap();
    assert!(text.contains("https://json.schemastore.org/sarif-2.1.0.json"));
    assert!(text.contains("\"name\": \"wimi-lint\""));
}

#[test]
fn violating_fixture_tree_exits_1() {
    let fixture = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/tree");
    let out = run(&["--root", fixture.to_str().unwrap()], None);
    assert_eq!(out.status.code(), Some(1));
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(
        text.contains("crates/wiphy/src/lib.rs:1: [bad-pragma]"),
        "a leftover hot marker must fail the walk; got: {text}"
    );
    assert!(
        text.contains("crates/wiphy/src/lib.rs:2: [unit-newtype]"),
        "got: {text}"
    );
}

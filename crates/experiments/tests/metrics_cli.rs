//! End-to-end tests of the telemetry CLI surface (`fleet --metrics-out
//! --slo`, `artifact validate|diff` on timelines, `fleet-report`) through
//! the real binary: the SLO gate exits nonzero naming the first
//! breaching tick, validators fail closed with exit 1, I/O errors exit
//! 2, and the report renders the per-environment × per-material table.

use std::fs;
use std::path::PathBuf;
use std::process::{Command, Output};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_wimi-experiments"))
}

fn temp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("wimi-metrics-{}-{name}", std::process::id()))
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// One tiny fleet run shared by the tests: summary + timeline artifacts.
fn run_tiny_fleet(tag: &str) -> (PathBuf, PathBuf) {
    let summary = temp(&format!("{tag}-fleet.json"));
    let metrics = temp(&format!("{tag}-metrics.jsonl"));
    let out = bin()
        .args([
            "fleet",
            "--sessions",
            "4",
            "--measurements",
            "2",
            "--fleet-out",
            summary.to_str().unwrap_or_default(),
            "--metrics-out",
            metrics.to_str().unwrap_or_default(),
        ])
        .output()
        .expect("spawn fleet");
    assert!(out.status.success(), "{out:?}");
    (summary, metrics)
}

fn stdout_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn fleet_writes_a_timeline_that_validates_and_self_diffs() {
    let (summary, metrics) = run_tiny_fleet("roundtrip");
    let out = bin()
        .args(["artifact", "validate", metrics.to_str().unwrap_or_default()])
        .output()
        .expect("spawn validate");
    assert!(out.status.success(), "{out:?}");
    assert!(stdout_of(&out).contains("wimi-metrics/1"), "{out:?}");

    let out = bin()
        .args([
            "artifact",
            "diff",
            metrics.to_str().unwrap_or_default(),
            metrics.to_str().unwrap_or_default(),
        ])
        .output()
        .expect("spawn diff");
    assert!(out.status.success(), "{out:?}");
    assert!(stdout_of(&out).contains("identical"), "{out:?}");
    fs::remove_file(&summary).ok();
    fs::remove_file(&metrics).ok();
}

#[test]
fn metrics_validate_fails_closed_on_tampering() {
    let (summary, metrics) = run_tiny_fleet("tamper");
    let text = fs::read_to_string(&metrics).expect("read timeline");
    // Break per-tick conservation on the first tick line.
    let tampered = text.replacen("\"requests\":4", "\"requests\":5", 1);
    assert_ne!(tampered, text, "fixture must actually change");
    let bad = temp("tampered.jsonl");
    fs::write(&bad, tampered).expect("write tampered");

    let out = bin()
        .args(["artifact", "validate", bad.to_str().unwrap_or_default()])
        .output()
        .expect("spawn validate");
    assert_eq!(out.status.code(), Some(1), "{out:?}");

    // And the diff, which validates both sides first, fails too.
    let out = bin()
        .args([
            "artifact",
            "diff",
            metrics.to_str().unwrap_or_default(),
            bad.to_str().unwrap_or_default(),
        ])
        .output()
        .expect("spawn diff");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    fs::remove_file(&summary).ok();
    fs::remove_file(&metrics).ok();
    fs::remove_file(&bad).ok();
}

#[test]
fn metrics_validate_missing_file_exits_two() {
    let out = bin()
        .args(["artifact", "validate", "/nonexistent/nope.jsonl"])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert_eq!(stderr_of(&out).lines().count(), 1, "{out:?}");
}

#[test]
fn slo_breach_exits_nonzero_and_names_the_first_breaching_tick() {
    let policy = temp("breach.slo");
    // A satisfiable policy passes: the 4-session fleet sheds nothing.
    fs::write(&policy, "max_shed_fraction 0.5\n").expect("write policy");
    let out = bin()
        .args([
            "fleet",
            "--sessions",
            "4",
            "--measurements",
            "2",
            "--slo",
            policy.to_str().unwrap_or_default(),
        ])
        .output()
        .expect("spawn fleet");
    assert!(out.status.success(), "{out:?}");

    // An unsatisfiable queue-peak cap breaches deterministically at tick
    // 0: every tick's per-shard peak is at least 1 once anything queues.
    fs::write(&policy, "max_queue_peak 0\n").expect("rewrite policy");
    let out = bin()
        .args([
            "fleet",
            "--sessions",
            "4",
            "--measurements",
            "2",
            "--slo",
            policy.to_str().unwrap_or_default(),
        ])
        .output()
        .expect("spawn fleet");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let err = stderr_of(&out);
    assert!(
        err.contains("SLO breach [max_queue_peak]"),
        "breach must name its rule: {err}"
    );
    assert!(err.contains("tick 0"), "breach must name the tick: {err}");
    fs::remove_file(&policy).ok();
}

#[test]
fn malformed_slo_policy_exits_one() {
    let policy = temp("garbage.slo");
    fs::write(&policy, "frobnicate 7\n").expect("write policy");
    let out = bin()
        .args([
            "fleet",
            "--sessions",
            "2",
            "--measurements",
            "1",
            "--slo",
            policy.to_str().unwrap_or_default(),
        ])
        .output()
        .expect("spawn fleet");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(stderr_of(&out).contains("line 1"), "{out:?}");
    fs::remove_file(&policy).ok();
}

#[test]
fn fleet_report_renders_the_environment_material_table() {
    let (summary, metrics) = run_tiny_fleet("report");
    let out = bin()
        .args([
            "fleet-report",
            summary.to_str().unwrap_or_default(),
            "--metrics",
            metrics.to_str().unwrap_or_default(),
        ])
        .output()
        .expect("spawn report");
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("environment/material"), "{stdout}");
    assert!(stdout.contains("Lab/"), "{stdout}");
    assert!(stdout.contains("Hall/"), "{stdout}");
    assert!(stdout.contains("total"), "{stdout}");
    assert!(stdout.contains("queue_peak"), "timeline join: {stdout}");
    // Report synthesis is deterministic.
    let again = bin()
        .args([
            "fleet-report",
            summary.to_str().unwrap_or_default(),
            "--metrics",
            metrics.to_str().unwrap_or_default(),
        ])
        .output()
        .expect("spawn report again");
    assert_eq!(out.stdout, again.stdout);
    fs::remove_file(&summary).ok();
    fs::remove_file(&metrics).ok();
}

#[test]
fn fleet_report_rejects_a_summary_that_breaks_conservation() {
    let (summary, metrics) = run_tiny_fleet("unconserved");
    let text = fs::read_to_string(&summary).expect("read summary");
    let tampered = text.replacen("\"responses\": 8,", "\"responses\": 999,", 1);
    assert_ne!(tampered, text, "fixture must actually change");
    let bad = temp("unconserved.json");
    fs::write(&bad, tampered).expect("write tampered");
    let out = bin()
        .args(["fleet-report", bad.to_str().unwrap_or_default()])
        .output()
        .expect("spawn report");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(
        out.stdout.is_empty(),
        "no table for an invalid summary: {out:?}"
    );
    let err = stderr_of(&out);
    assert_eq!(err.lines().count(), 1, "{err}");
    assert!(err.contains("responses 999"), "{err}");
    fs::remove_file(&summary).ok();
    fs::remove_file(&metrics).ok();
    fs::remove_file(&bad).ok();
}

#[test]
fn shipped_slo_fixtures_behave_as_documented() {
    let repo = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let pass = repo.join("slo/fleet.slo");
    let breach = repo.join("slo/breach.slo");

    let out = bin()
        .args(["fleet", "--slo", pass.to_str().unwrap_or_default()])
        .output()
        .expect("spawn fleet");
    assert!(out.status.success(), "shipped policy must pass: {out:?}");
    assert!(stderr_of(&out).contains("SLO check OK"), "{out:?}");

    let out = bin()
        .args(["fleet", "--slo", breach.to_str().unwrap_or_default()])
        .output()
        .expect("spawn fleet");
    assert_eq!(
        out.status.code(),
        Some(1),
        "seeded breach must trip: {out:?}"
    );
    assert!(stderr_of(&out).contains("tick 0"), "{out:?}");
}

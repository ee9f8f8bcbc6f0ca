//! End-to-end tests of the campaign CLI surface (`campaign-validate`,
//! `campaign-run`, and `artifact validate|diff` over its output
//! directories) through the real binary, pinning the shared error
//! conventions: one-line stderr message, exit 1 for invalid campaigns,
//! exit 2 for I/O and usage errors.

use std::fs;
use std::path::PathBuf;
use std::process::{Command, Output};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_wimi-experiments"))
}

fn write_temp(name: &str, contents: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("wimi-cli-{}-{name}", std::process::id()));
    fs::write(&path, contents).expect("write temp campaign");
    path
}

fn stderr_lines(out: &Output) -> Vec<String> {
    String::from_utf8_lossy(&out.stderr)
        .lines()
        .map(str::to_owned)
        .collect()
}

#[test]
fn validate_accepts_shipped_campaigns() {
    let campaigns = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../campaigns");
    for name in ["degradation", "environments", "matrix"] {
        let path = campaigns.join(format!("{name}.campaign"));
        let out = bin()
            .args(["campaign-validate", path.to_str().unwrap()])
            .output()
            .expect("spawn");
        assert!(out.status.success(), "{name}: {out:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.starts_with("ok: "), "{name}: {stdout}");
        assert!(stdout.contains(&format!("campaign \"{name}\"")), "{stdout}");
    }
}

#[test]
fn validate_rejects_malformed_file_with_one_line_error() {
    let path = write_temp("bad.campaign", "campaign bad\naxis moon = 1\n");
    let out = bin()
        .args(["campaign-validate", path.to_str().unwrap()])
        .output()
        .expect("spawn");
    fs::remove_file(&path).ok();

    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let lines = stderr_lines(&out);
    assert_eq!(lines.len(), 1, "exactly one stderr line: {lines:?}");
    assert!(
        lines[0].contains("line 2, col 6: unknown axis `moon`"),
        "{lines:?}"
    );
    assert!(
        lines[0].starts_with(path.to_str().unwrap()),
        "error must name the file: {lines:?}"
    );
}

#[test]
fn validate_missing_file_exits_two() {
    let out = bin()
        .args(["campaign-validate", "/nonexistent/nope.campaign"])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert_eq!(stderr_lines(&out).len(), 1);
}

#[test]
fn run_rejects_malformed_file_with_one_line_error() {
    let path = write_temp("bad-run.campaign", "campaign bad\ntest 2\nat 7 fault 0.5\n");
    let out = bin()
        .args(["campaign-run", path.to_str().unwrap()])
        .output()
        .expect("spawn");
    fs::remove_file(&path).ok();

    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let lines = stderr_lines(&out);
    assert_eq!(lines.len(), 1, "exactly one stderr line: {lines:?}");
    assert!(lines[0].contains("line 3, col 4"), "{lines:?}");
}

#[test]
fn run_replays_one_cell_and_diff_detects_both_match_and_mismatch() {
    let text = "campaign clidemo\nseed 9\ntrain 2\ntest 2\n\
                axis materials = PureWater+Honey\naxis packets = 6\naxis intensity = 0, 0.2\n";
    let path = write_temp("clidemo.campaign", text);
    let base = std::env::temp_dir().join(format!("wimi-cli-out-{}", std::process::id()));
    let dir_a = base.join("a");
    let dir_b = base.join("b");

    for dir in [&dir_a, &dir_b] {
        let out = bin()
            .args([
                "campaign-run",
                path.to_str().unwrap(),
                "--campaign-out",
                dir.to_str().unwrap(),
            ])
            .output()
            .expect("spawn");
        assert!(out.status.success(), "{out:?}");
    }

    // Both output directories validate: two cell artifacts and the
    // summary each.
    let out = bin()
        .args([
            "artifact",
            "validate",
            dir_a.to_str().unwrap(),
            dir_b.to_str().unwrap(),
        ])
        .output()
        .expect("spawn");
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains(": 3 artifacts"), "{stdout}");

    // Identical runs diff clean.
    let out = bin()
        .args([
            "artifact",
            "diff",
            dir_a.to_str().unwrap(),
            dir_b.to_str().unwrap(),
        ])
        .output()
        .expect("spawn");
    assert!(out.status.success(), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("identical: 3 artifacts match"),
        "{out:?}"
    );

    // Replaying cell 1 in isolation reproduces the full run's artifact.
    let solo = base.join("solo");
    let out = bin()
        .args([
            "campaign-run",
            path.to_str().unwrap(),
            "--cell",
            "1",
            "--campaign-out",
            solo.to_str().unwrap(),
        ])
        .output()
        .expect("spawn");
    assert!(out.status.success(), "{out:?}");
    let replayed = fs::read(solo.join("clidemo-cell-0001.jsonl")).expect("replayed artifact");
    let original = fs::read(dir_a.join("clidemo-cell-0001.jsonl")).expect("original artifact");
    assert_eq!(replayed, original, "cell replay must be byte-identical");

    // A corrupted artifact makes the diff fail loudly.
    let target = dir_b.join("clidemo-cell-0000.jsonl");
    let mut tampered = fs::read_to_string(&target).expect("artifact");
    tampered.push('\n');
    fs::write(&target, tampered.replace("\"cell\":0", "\"cell\":0 ")).expect("tamper");
    let out = bin()
        .args([
            "artifact",
            "diff",
            dir_a.to_str().unwrap(),
            dir_b.to_str().unwrap(),
        ])
        .output()
        .expect("spawn");
    assert_eq!(
        out.status.code(),
        Some(1),
        "tampered diff must fail: {out:?}"
    );
    assert_eq!(stderr_lines(&out).len(), 1, "{out:?}");

    // A file present on one side only is a difference too.
    fs::remove_file(&target).expect("remove");
    let out = bin()
        .args([
            "artifact",
            "diff",
            dir_a.to_str().unwrap(),
            dir_b.to_str().unwrap(),
        ])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(
        stderr_lines(&out)[0].contains("clidemo-cell-0000.jsonl is in"),
        "{out:?}"
    );

    fs::remove_file(&path).ok();
    fs::remove_dir_all(&base).ok();
}

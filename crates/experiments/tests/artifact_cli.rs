//! End-to-end tests of `artifact validate|diff|summary` through the real
//! binary, over real rendered artifacts of all five schemas: each
//! validates and self-diffs clean, a one-field tamper fails closed with
//! one stderr line, and a one-field change is named by line and field
//! path. Byte mutations of each artifact are rejected in one line and
//! never panic a reader. Also pins the exit-2 convention for failed writes
//! and the `trace-report --check` budget gate.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::OnceLock;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wimi_experiments::artifact;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_wimi-experiments"))
}

fn run(args: &[&str]) -> Output {
    bin().args(args).output().expect("spawn wimi-experiments")
}

fn stdout_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn path_str(p: &Path) -> &str {
    p.to_str().expect("utf-8 temp path")
}

/// The shared scratch directory, holding one rendered artifact of each
/// schema: `obs.json`, `trace.jsonl`, `camp/demo-summary.json`,
/// `fleet.json` and `metrics.jsonl`.
fn rendered() -> &'static Path {
    static DIR: OnceLock<PathBuf> = OnceLock::new();
    DIR.get_or_init(|| {
        let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("artifact-cli-{}", std::process::id()));
        fs::create_dir_all(&dir).expect("create scratch dir");
        let at = |name: &str| dir.join(name);
        let campaign = at("demo.campaign");
        fs::write(
            &campaign,
            "campaign demo\nseed 9\ntrain 2\ntest 2\n\
             axis materials = PureWater+Honey\naxis packets = 6\naxis intensity = 0, 0.2\n\
             at 1 fault 0.4\n",
        )
        .expect("write campaign");
        for args in [
            vec![
                "--quick",
                "obs-report",
                "--obs-json",
                path_str(&at("obs.json")),
            ],
            vec![
                "--quick",
                "--trace-out",
                path_str(&at("trace.jsonl")),
                "trace-report",
            ],
            vec![
                "campaign-run",
                path_str(&campaign),
                "--campaign-out",
                path_str(&at("camp")),
            ],
            vec![
                "fleet",
                "--sessions",
                "4",
                "--measurements",
                "2",
                "--fleet-out",
                path_str(&at("fleet.json")),
                "--metrics-out",
                path_str(&at("metrics.jsonl")),
            ],
        ] {
            let out = run(&args);
            assert!(out.status.success(), "{args:?}: {out:?}");
        }
        dir
    })
}

fn write_variant(name: &str, text: &str) -> PathBuf {
    let path = rendered().join(name);
    fs::write(&path, text).expect("write variant");
    path
}

/// The 1-based number of the first line containing `needle`.
fn line_of(text: &str, needle: &str) -> usize {
    text.lines()
        .position(|l| l.contains(needle))
        .map(|i| i + 1)
        .unwrap_or_else(|| panic!("no line holds {needle:?}"))
}

/// Lowers (or, at zero, raises) the first shard depth of the first tick:
/// a field no conservation law or aggregate reads, so the timeline stays
/// valid. Returns the changed text and the old and new depth.
fn change_first_shard_depth(text: &str) -> (String, u64, u64) {
    let start = text.find("{\"depth\":").expect("a shard sample") + 9;
    let len = text[start..].find(',').expect("depth is followed by peak");
    let depth: u64 = text[start..start + len].parse().expect("integral depth");
    let peak_at = start + len + 8;
    let peak_len = text[peak_at..].find(',').expect("peak is followed by more");
    let peak: u64 = text[peak_at..peak_at + peak_len]
        .parse()
        .expect("integral peak");
    let new = if depth > 0 { depth - 1 } else { depth + 1 };
    assert!(new <= peak, "the change must keep depth <= peak");
    let mut changed = text.to_owned();
    changed.replace_range(start..start + len, &new.to_string());
    (changed, depth, new)
}

struct Case {
    schema: &'static str,
    file: PathBuf,
    /// Text that breaks one field's invariant.
    invalid: String,
    /// Text that changes one field and stays valid.
    changed: String,
    /// What the diff must report for `changed`.
    report: String,
}

fn cases() -> Vec<Case> {
    let dir = rendered();
    let read = |p: &Path| fs::read_to_string(p).expect("read artifact");
    let mut cases = Vec::new();

    let file = dir.join("obs.json");
    let obs = read(&file);
    cases.push(Case {
        schema: "wimi-obs/1",
        invalid: obs.replacen("\"captures_taken\": ", "\"captures_taken\": -", 1),
        changed: obs.replacen("\"total_ns\": 0", "\"total_ns\": 5", 1),
        report: format!(
            "line {}: $.stages[0].total_ns: 0 vs 5",
            line_of(&obs, "\"total_ns\"")
        ),
        file,
    });

    let file = dir.join("trace.jsonl");
    let trace = read(&file);
    let line = line_of(&trace, "\"delta\":1}");
    cases.push(Case {
        schema: "wimi-trace/1",
        invalid: trace.replacen("\"delta\":1}", "\"delta\":1,\"junk\":5}", 1),
        changed: trace.replacen("\"delta\":1}", "\"delta\":2}", 1),
        report: format!("line {line}: $.delta: 1 vs 2"),
        file,
    });

    let file = dir.join("camp").join("demo-summary.json");
    let campaign = read(&file);
    cases.push(Case {
        schema: "wimi-campaign/1",
        invalid: campaign.replacen("\"cells\": 2,", "\"cells\": 3,", 1),
        changed: campaign.replacen("\"seed\": 9,", "\"seed\": 10,", 1),
        report: format!("line {}: $.seed: 9 vs 10", line_of(&campaign, "\"seed\"")),
        file,
    });

    let file = dir.join("fleet.json");
    let fleet = read(&file);
    // The default fleet seed, 0xF1EE7.
    cases.push(Case {
        schema: "wimi-serve/1",
        invalid: fleet.replacen("\"responses\": 8,", "\"responses\": 999,", 1),
        changed: fleet.replacen("\"seed\": 990951", "\"seed\": 990952", 1),
        report: format!(
            "line {}: $.fleet.seed: 990951 vs 990952",
            line_of(&fleet, "\"seed\"")
        ),
        file,
    });

    let file = dir.join("metrics.jsonl");
    let metrics = read(&file);
    let (changed, old, new) = change_first_shard_depth(&metrics);
    cases.push(Case {
        schema: "wimi-metrics/1",
        invalid: metrics.replacen("\"requests\":4", "\"requests\":5", 1),
        changed,
        report: format!("line 2: $.shards[0].depth: {old} vs {new}"),
        file,
    });
    cases
}

#[test]
fn every_schema_validates_self_diffs_and_names_a_changed_field() {
    for case in cases() {
        let schema = case.schema;
        let file = path_str(&case.file);

        let out = run(&["artifact", "validate", file]);
        assert!(out.status.success(), "{schema}: {out:?}");
        assert!(stdout_of(&out).contains(schema), "{schema}: {out:?}");

        let out = run(&["artifact", "diff", file, file]);
        assert!(out.status.success(), "{schema}: {out:?}");
        assert!(
            stdout_of(&out).starts_with("identical"),
            "{schema}: {out:?}"
        );

        let tag = schema.replace('/', "-");
        assert_ne!(case.invalid, fs::read_to_string(file).expect("read"));
        let invalid = write_variant(&format!("{tag}-invalid"), &case.invalid);
        let out = run(&["artifact", "validate", path_str(&invalid)]);
        assert_eq!(out.status.code(), Some(1), "{schema}: {out:?}");
        assert_eq!(stderr_of(&out).lines().count(), 1, "{schema}: {out:?}");
        assert!(
            stderr_of(&out).starts_with("invalid: "),
            "{schema}: {out:?}"
        );

        let changed = write_variant(&format!("{tag}-changed"), &case.changed);
        let out = run(&["artifact", "validate", path_str(&changed)]);
        assert!(
            out.status.success(),
            "{schema}: the change stays valid: {out:?}"
        );
        let out = run(&["artifact", "diff", file, path_str(&changed)]);
        assert_eq!(out.status.code(), Some(1), "{schema}: {out:?}");
        let err = stderr_of(&out);
        assert_eq!(err.lines().count(), 1, "{schema}: {err}");
        assert!(
            err.contains(&case.report),
            "{schema}: want {:?} in {err}",
            case.report
        );
    }
}

#[test]
fn formatting_only_changes_are_differences() {
    let file = rendered().join("obs.json");
    let text = fs::read_to_string(&file).expect("read");
    let respaced = write_variant("obs-respaced.json", &text.replacen(": ", ":  ", 1));
    let out = run(&["artifact", "validate", path_str(&respaced)]);
    assert!(out.status.success(), "{out:?}");
    let out = run(&["artifact", "diff", path_str(&file), path_str(&respaced)]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(
        stderr_of(&out).contains("line 2: formatting differs"),
        "{out:?}"
    );
}

#[test]
fn tampered_traces_with_stray_or_duplicate_keys_are_rejected() {
    let text = fs::read_to_string(rendered().join("trace.jsonl")).expect("read");
    let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
    let event = line_of(&text, "\"ev\":\"count\"") - 1;
    let last = lines.len() - 1;
    let mut variants = Vec::new();
    let mut junk = lines.clone();
    let end = junk[event].len() - 1;
    junk[event].insert_str(end, ",\"junk\":5");
    variants.push(("junk", junk));
    let mut zzz = lines.clone();
    zzz[last].replace_range(0..1, "{\"zzz\":1,");
    variants.push(("zzz", zzz));
    let seq_at = lines[event].find(",\"ev\"").expect("seq precedes ev");
    let seq = lines[event][lines[event].find("\"seq\"").expect("seq")..seq_at].to_owned();
    lines[event].insert_str(seq_at, &format!(",{seq}"));
    variants.push(("dup-seq", lines));
    for (name, lines) in variants {
        let path = write_variant(&format!("trace-{name}.jsonl"), &(lines.join("\n") + "\n"));
        let out = run(&["artifact", "validate", path_str(&path)]);
        assert_eq!(out.status.code(), Some(1), "{name}: {out:?}");
        assert_eq!(stderr_of(&out).lines().count(), 1, "{name}: {out:?}");
    }
}

#[test]
fn trace_diff_names_the_first_diverging_event() {
    let file = rendered().join("trace.jsonl");
    let text = fs::read_to_string(&file).expect("read");
    let b = write_variant(
        "trace-attempt.jsonl",
        &text.replacen("\"attempt\":2,", "\"attempt\":3,", 1),
    );
    let out = run(&["artifact", "diff", path_str(&file), path_str(&b)]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let line = line_of(&text, "\"attempt\":2,");
    assert!(
        stderr_of(&out).contains(&format!("line {line}: $.attempt: 2 vs 3")),
        "{out:?}"
    );
    // A cut-short copy is invalid, so the diff fails before comparing.
    let head: String = text.lines().take(3).map(|l| format!("{l}\n")).collect();
    let short = write_variant("trace-short.jsonl", &head);
    let out = run(&["artifact", "diff", path_str(&file), path_str(&short)]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(stderr_of(&out).contains("truncated artifact"), "{out:?}");
}

#[test]
fn schema_mismatch_truncation_and_unknown_schemas_fail_in_one_line() {
    let text = fs::read_to_string(rendered().join("obs.json")).expect("read");
    let newer = write_variant("obs-newer.json", &text.replace("wimi-obs/1", "wimi-obs/2"));
    let out = run(&["artifact", "validate", path_str(&newer)]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let err = stderr_of(&out);
    assert_eq!(err.lines().count(), 1, "{err}");
    assert!(err.contains("schema version mismatch"), "{err}");
    assert!(
        err.contains("wimi-obs/2") && err.contains("wimi-obs/1"),
        "{err}"
    );

    let half = write_variant("obs-half.json", &text[..text.len() / 2]);
    let out = run(&["artifact", "validate", path_str(&half)]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let err = stderr_of(&out);
    assert_eq!(err.lines().count(), 1, "{err}");
    assert!(err.contains("truncated JSON"), "{err}");

    let alien = write_variant("alien.json", "{\"schema\": \"acme-widget/3\"}\n");
    let out = run(&["artifact", "validate", path_str(&alien)]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let err = stderr_of(&out);
    assert_eq!(err.lines().count(), 1, "{err}");
    assert!(err.contains("unknown schema \"acme-widget/3\""), "{err}");
}

#[test]
fn mixed_schema_diff_and_non_trace_summary_are_rejected() {
    let dir = rendered();
    let (trace, metrics) = (dir.join("trace.jsonl"), dir.join("metrics.jsonl"));
    let out = run(&["artifact", "diff", path_str(&trace), path_str(&metrics)]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let err = stderr_of(&out);
    assert_eq!(err.lines().count(), 1, "{err}");
    assert!(err.contains("wimi-trace/1 vs wimi-metrics/1"), "{err}");

    let out = run(&["artifact", "summary", path_str(&trace)]);
    assert!(out.status.success(), "{out:?}");
    assert!(stdout_of(&out).starts_with("wimi-trace/1: "), "{out:?}");
    let out = run(&["artifact", "summary", path_str(&metrics)]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert_eq!(stderr_of(&out).lines().count(), 1, "{out:?}");
}

#[test]
fn usage_and_io_errors_exit_two() {
    // Flags no chosen command reads are rejected before anything runs.
    let campaign = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../campaigns/degradation.campaign"
    );
    let tmp = rendered();
    let (t1, obs) = (tmp.join("unread-t1.jsonl"), tmp.join("unread-obs.json"));
    for args in [
        vec!["artifact"],
        vec!["artifact", "validate"],
        vec!["artifact", "diff", "only-one"],
        vec!["artifact", "frobnicate", "x"],
        vec!["artifact", "validate", "/nonexistent/nope.json"],
        vec!["artifact", "summary", "/nonexistent/nope.jsonl"],
        vec!["--bogus", "campaign-validate", campaign],
        vec!["--obs-json", path_str(&obs), "campaign-validate", campaign],
        vec![
            "--quick",
            "--trace-out",
            path_str(&t1),
            "--obs-json",
            path_str(&obs),
            "trace-report",
        ],
    ] {
        let out = run(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        assert_eq!(stderr_of(&out).lines().count(), 1, "{args:?}: {out:?}");
    }
    // A file against a directory is a usage error too.
    let dir = rendered();
    let out = run(&[
        "artifact",
        "diff",
        path_str(&dir.join("obs.json")),
        path_str(&dir.join("camp")),
    ]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}

#[test]
fn failed_writes_exit_two_with_one_line() {
    let out = run(&["--quick", "obs-report", "--obs-json", "/nonexistent/x.json"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = stderr_of(&out);
    assert_eq!(err.lines().count(), 1, "{err}");
    assert!(err.contains("cannot write /nonexistent/x.json"), "{err}");

    let out = run(&[
        "--quick",
        "--trace-out",
        "/nonexistent/t.jsonl",
        "trace-report",
    ]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = stderr_of(&out);
    assert_eq!(err.lines().count(), 1, "{err}");
    assert!(err.contains("cannot write /nonexistent/t.jsonl"), "{err}");
}

#[test]
fn trace_report_check_gates_the_committed_trace_budgets() {
    let bench = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH.json");
    let out = run(&["--quick", "trace-report", "--check", path_str(&bench)]);
    assert!(out.status.success(), "{out:?}");
    assert!(stdout_of(&out).contains("trace_events"), "{out:?}");
    assert!(stderr_of(&out).contains("budget check OK"), "{out:?}");

    let tight = write_variant(
        "tight-bench.json",
        "{\"trace_budgets\": {\"trace_events\": 1}}",
    );
    let out = run(&["--quick", "trace-report", "--check", path_str(&tight)]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(stdout_of(&out).contains("OVER BUDGET"), "{out:?}");
}

/// Seeded mutations tried on each artifact.
const MUTATIONS: usize = 200;

/// One seeded byte mutation of `bytes`: overwrite, delete, insert or
/// duplicate a byte, or cut the text short.
fn mutate(bytes: &mut Vec<u8>, rng: &mut StdRng) -> String {
    let at = rng.gen_range(0..bytes.len());
    let byte = rng.gen_range(0u32..256) as u8;
    match rng.gen_range(0..5) {
        0 => {
            bytes[at] = byte;
            format!("byte {at} := {byte:#04x}")
        }
        1 => {
            bytes.remove(at);
            format!("delete byte {at}")
        }
        2 => {
            bytes.insert(at, byte);
            format!("insert {byte:#04x} at {at}")
        }
        3 => {
            bytes.insert(at, bytes[at]);
            format!("duplicate byte {at}")
        }
        _ => {
            bytes.truncate(at);
            format!("truncate at {at}")
        }
    }
}

#[test]
fn mutated_artifacts_are_rejected_in_one_line_and_never_panic() {
    let dir = rendered();
    for name in [
        "obs.json",
        "trace.jsonl",
        "camp/demo-summary.json",
        "fleet.json",
        "metrics.jsonl",
    ] {
        let text = fs::read_to_string(dir.join(name)).expect("read artifact");
        assert!(
            artifact::validate_text(&text).is_ok(),
            "{name} must validate"
        );
        let mut rng = StdRng::seed_from_u64(0x5eed);
        for _ in 0..MUTATIONS {
            let mut bytes = text.clone().into_bytes();
            let what = mutate(&mut bytes, &mut rng);
            let Ok(mutated) = String::from_utf8(bytes) else {
                continue;
            };
            let verdict = std::panic::catch_unwind(|| artifact::validate_text(&mutated));
            match verdict {
                Err(_) => panic!("{name}: the reader panicked on `{what}`"),
                Ok(Err(e)) => assert!(
                    !e.is_empty() && !e.contains(['\n', '\r']),
                    "{name}: `{what}` was rejected with {e:?}"
                ),
                Ok(Ok(_)) => {}
            }
        }
    }
}

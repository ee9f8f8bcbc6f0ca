//! `artifact validate|diff|summary`: one entry point for the five
//! artifact schemas. It reads an artifact's `"schema"` tag and hands the
//! text to that schema's fail-closed reader, which stays in its crate:
//! `wimi_obs::validate_json`, `wimi_trace::artifact::parse_and_validate`,
//! `campaign::validate_summary`, `wimi_serve::parse_summary` or
//! `wimi_metrics::parse_and_validate`.
//!
//! `diff` validates both sides and calls them identical only when their
//! bytes are, the contract CI's `cmp` steps rely on. Otherwise it names
//! the first differing file, its line and the field path
//! [`wimi_obs::json::first_difference`] finds there. A directory argument
//! means every `*.json`/`*.jsonl` file in it.
//!
//! Exit codes: 0 valid or identical, 1 invalid or different, 2 usage or
//! I/O error. Every failure is one stderr line.

use std::path::Path;

use wimi_obs::json::{self, first_difference, Json};

const USAGE: &str = "usage: wimi-experiments artifact validate PATH... | diff A B | summary TRACE";

/// One artifact schema: its tag, its layout, and its reader, which
/// describes a valid artifact in a phrase.
struct Reader {
    /// The `"schema"` tag.
    tag: &'static str,
    /// One JSON value per line, rather than one pretty-printed document.
    jsonl: bool,
    check: fn(&str) -> Result<String, String>,
}

/// Every schema `artifact` reads.
const READERS: [Reader; 5] = [
    Reader {
        tag: wimi_obs::SCHEMA,
        jsonl: false,
        check: |text| wimi_obs::validate_json(text).map(|()| "snapshot".to_owned()),
    },
    Reader {
        tag: wimi_trace::artifact::SCHEMA,
        jsonl: true,
        check: |text| {
            let h = wimi_trace::artifact::parse_and_validate(text)?.header;
            Ok(format!(
                "{} tasks, {} events, {} failures",
                h.tasks, h.events, h.failures
            ))
        },
    },
    Reader {
        tag: crate::campaign::SUMMARY_SCHEMA,
        jsonl: false,
        check: |text| crate::campaign::validate_summary(text).map(|n| format!("{n} cells")),
    },
    Reader {
        tag: wimi_serve::SUMMARY_SCHEMA,
        jsonl: false,
        check: |text| wimi_serve::parse_summary(text).map(|r| format!("{} sessions", r.len())),
    },
    Reader {
        tag: wimi_metrics::SCHEMA,
        jsonl: true,
        check: |text| {
            let tl = wimi_metrics::parse_and_validate(text)?;
            Ok(format!(
                "{} ticks retained, {} evicted, {} shards",
                tl.ticks.len(),
                tl.evicted,
                tl.shards
            ))
        },
    },
];

/// Reads the `"schema"` tag — from the first line of a JSONL artifact,
/// from the whole text of a pretty-printed document — and finds its
/// reader. A known family at another version is a version mismatch.
fn reader_of(text: &str) -> Result<&'static Reader, String> {
    let holder = match json::parse(text.lines().next().unwrap_or_default()) {
        Ok(v) => v,
        Err(_) => json::parse(text)?,
    };
    let Some(tag) = holder.get("schema").and_then(Json::as_str) else {
        return Err("no \"schema\" tag".to_owned());
    };
    let family = |t: &str| t.split('/').next().unwrap_or_default().to_owned();
    match READERS.iter().find(|r| family(r.tag) == family(tag)) {
        Some(r) if r.tag == tag => Ok(r),
        Some(r) => Err(format!(
            "schema version mismatch: artifact declares \"{tag}\" but this tool understands \"{}\"",
            r.tag
        )),
        None => {
            let known: Vec<&str> = READERS.iter().map(|r| r.tag).collect();
            Err(format!(
                "unknown schema \"{tag}\" (this tool reads {})",
                known.join(", ")
            ))
        }
    }
}

/// Validates one artifact's text with the reader its `"schema"` tag names,
/// returning the tag and the reader's description, or a one-line error.
pub fn validate_text(text: &str) -> Result<(&'static str, String), String> {
    let reader = reader_of(text)?;
    Ok((reader.tag, (reader.check)(text)?))
}

/// A failed verb: its exit code (1 invalid or different, 2 usage or I/O)
/// and one-line message.
struct Fail(i32, String);

fn read(path: &Path) -> Result<String, Fail> {
    std::fs::read_to_string(path)
        .map_err(|e| Fail(2, format!("artifact: cannot read {}: {e}", path.display())))
}

/// Reads and validates one artifact: its reader, text and description.
fn load(path: &Path) -> Result<(&'static Reader, String, String), Fail> {
    let text = read(path)?;
    let invalid = |e: String| Fail(1, format!("invalid: {}: {e}", path.display()));
    let reader = reader_of(&text).map_err(invalid)?;
    let description = (reader.check)(&text).map_err(invalid)?;
    Ok((reader, text, description))
}

/// The names of every `*.json`/`*.jsonl` file directly in `dir`, sorted.
fn artifacts_in(dir: &Path) -> Result<Vec<String>, Fail> {
    let entries = std::fs::read_dir(dir)
        .map_err(|e| Fail(2, format!("artifact: cannot read {}: {e}", dir.display())))?;
    let mut names: Vec<String> = entries
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|n| n.ends_with(".json") || n.ends_with(".jsonl"))
        .collect();
    names.sort();
    if names.is_empty() {
        return Err(Fail(
            2,
            format!("artifact: no artifacts in {}", dir.display()),
        ));
    }
    Ok(names)
}

fn validate(paths: &[&str]) -> Result<(), Fail> {
    for &arg in paths {
        let path = Path::new(arg);
        if path.is_dir() {
            let names = artifacts_in(path)?;
            for name in &names {
                load(&path.join(name))?;
            }
            println!("ok: {arg}: {} artifacts", names.len());
        } else {
            let (reader, _, description) = load(path)?;
            println!("ok: {arg}: {}, {description}", reader.tag);
        }
    }
    Ok(())
}

/// Where two texts first differ: the 1-based line of the first differing
/// byte and, when the values differ, the field path. JSONL artifacts
/// compare that line's values; documents compare whole.
fn divergence(a: &str, b: &str, jsonl: bool) -> String {
    let (mut lines_a, mut lines_b) = (a.lines(), b.lines());
    let mut line = 1;
    let (x, y) = loop {
        match (lines_a.next(), lines_b.next()) {
            (Some(x), Some(y)) if x == y => line += 1,
            (x, y) => break (x.unwrap_or_default(), y.unwrap_or_default()),
        }
    };
    let (x, y) = if jsonl { (x, y) } else { (a, b) };
    let found = match (json::parse(x), json::parse(y)) {
        (Ok(x), Ok(y)) => first_difference(&x, &y),
        (Ok(_), Err(_)) => Some("a value vs <absent>".to_owned()),
        (Err(_), Ok(_)) => Some("<absent> vs a value".to_owned()),
        _ => None,
    };
    format!(
        "line {line}: {}",
        found.as_deref().unwrap_or("formatting differs")
    )
}

fn diff_files(a: &Path, b: &Path, label: &str) -> Result<(), Fail> {
    let ((ra, ta, _), (rb, tb, _)) = (load(a)?, load(b)?);
    if ra.tag != rb.tag {
        let msg = format!(
            "different: {label}: schemas differ: {} vs {}",
            ra.tag, rb.tag
        );
        return Err(Fail(1, msg));
    }
    if ta == tb {
        return Ok(());
    }
    let found = divergence(&ta, &tb, ra.jsonl);
    Err(Fail(1, format!("different: {label}: {found}")))
}

fn diff(a: &str, b: &str) -> Result<(), Fail> {
    let (pa, pb) = (Path::new(a), Path::new(b));
    match (pa.is_dir(), pb.is_dir()) {
        (false, false) => {
            diff_files(pa, pb, &format!("{a} vs {b}"))?;
            println!("identical: {a} == {b}");
        }
        (true, true) => {
            let (na, nb) = (artifacts_in(pa)?, artifacts_in(pb)?);
            let lone = |x: &[String], y: &[String]| x.iter().find(|n| !y.contains(n)).cloned();
            if let Some(name) = lone(&na, &nb).or_else(|| lone(&nb, &na)) {
                return Err(Fail(
                    1,
                    format!("different: {name} is in only one of {a} and {b}"),
                ));
            }
            for name in &na {
                diff_files(&pa.join(name), &pb.join(name), name)?;
            }
            println!(
                "identical: {} artifacts match between {a} and {b}",
                na.len()
            );
        }
        _ => return Err(Fail(2, format!("{USAGE} (two files or two directories)"))),
    }
    Ok(())
}

fn summary(path: &str) -> Result<(), Fail> {
    let text = read(Path::new(path))?;
    let invalid = |e: String| Fail(1, format!("invalid: {path}: {e}"));
    let tag = reader_of(&text).map_err(invalid)?.tag;
    if tag != wimi_trace::artifact::SCHEMA {
        return Err(invalid(format!(
            "summary reads wimi-trace/1 artifacts, not {tag}"
        )));
    }
    print!("{}", wimi_trace::analyze::summary(&text).map_err(invalid)?);
    Ok(())
}

/// Runs `artifact ARGS...` and returns the process exit code.
pub fn run(args: &[&str]) -> i32 {
    let result = match args {
        ["validate", paths @ ..] if !paths.is_empty() => validate(paths),
        ["diff", a, b] => diff(a, b),
        ["summary", path] => summary(path),
        _ => Err(Fail(2, USAGE.to_owned())),
    };
    match result {
        Ok(()) => 0,
        Err(Fail(code, msg)) => {
            eprintln!("{msg}");
            code
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wimi_metrics::{ShardSample, TickCollector, TickSample, Timeline};

    fn sample_timeline() -> Timeline {
        let mut c = TickCollector::new(2, 8);
        for tick in 0..3u64 {
            let shard = |shed| ShardSample {
                depth: 2,
                peak: 2,
                submitted: 2,
                completed: 2,
                shed,
            };
            c.push(TickSample {
                tick,
                requests: 5,
                completed: 4,
                shed: 1,
                retries_exhausted: 1,
                exhausted: vec![3],
                shards: vec![shard(1), shard(0)],
                ..TickSample::default()
            });
        }
        c.finish()
    }

    #[test]
    fn diff_names_the_first_differing_tick() {
        let a = sample_timeline();
        let mut b = a.clone();
        // Move tick 1's shed request to the other shard: every
        // conservation law still holds, so both sides validate.
        b.ticks[1].shards[0].shed = 0;
        b.ticks[1].shards[1].shed = 1;
        let (ta, tb) = (
            wimi_metrics::render(&a, None),
            wimi_metrics::render(&b, None),
        );
        for text in [&ta, &tb] {
            let reader = reader_of(text).unwrap();
            assert_eq!(reader.tag, wimi_metrics::SCHEMA);
            (reader.check)(text).unwrap();
        }
        assert_eq!(
            divergence(&ta, &tb, true),
            "line 3: $.shards[0].shed: 1 vs 0"
        );
    }

    #[test]
    fn documents_report_the_first_differing_line_and_path() {
        let a = "{\n  \"schema\": \"x\",\n  \"totals\": {\n    \"shed\": 1\n  }\n}\n";
        let b = a.replace("\"shed\": 1", "\"shed\": 2");
        assert_eq!(divergence(a, &b, false), "line 4: $.totals.shed: 1 vs 2");
        let c = a.replace("\"shed\": 1", "\"shed\":  1");
        assert_eq!(divergence(a, &c, false), "line 4: formatting differs");
        assert_eq!(
            divergence(a, a.trim_end(), false),
            "line 7: formatting differs"
        );
    }

    #[test]
    fn schema_tags_come_from_the_first_line_or_the_whole_document() {
        let tag = |text: &str| reader_of(text).map(|r| r.tag);
        let obs = wimi_obs::Recorder::enabled().snapshot().to_json();
        assert_eq!(tag(&obs), Ok(wimi_obs::SCHEMA));
        assert_eq!(
            tag("{\"schema\":\"wimi-trace/1\"}\n{\"obs\":null}\n"),
            Ok(wimi_trace::artifact::SCHEMA)
        );
        let err = tag("{\"schema\": \"wimi-serve/7\"}").unwrap_err();
        assert!(err.starts_with("schema version mismatch"), "{err}");
        assert!(err.contains("wimi-serve/1"), "{err}");
        let err = tag("{\"schema\": \"acme/1\"}").unwrap_err();
        assert!(err.starts_with("unknown schema"), "{err}");
        assert!(tag("{\"tag\": 1}").is_err());
        assert!(tag("").unwrap_err().starts_with("truncated JSON"));
    }
}

//! The byte-stable `wimi-metrics/1` JSONL timeline artifact.
//!
//! Layout, one JSON value per line:
//!
//! ```text
//! {"schema":"wimi-metrics/1","ticks":N,"shards":S,"window":W,"evicted":E}
//! {"tick":0,...,"exhausted":["sess:4"],"shards":[{...},...]}   × N
//! {"agg":{"requests":{"min":..,"max":..,"mean":..,"last":..},...}}
//! {"obs":{...embedded wimi-obs/1 snapshot...}}
//! ```
//!
//! Rendering is hand-rolled with fixed field order and fixed number
//! formatting (`mean` at six decimals), so equal [`Timeline`]s produce
//! byte-identical text — the artifact CI `cmp`s across `WIMI_THREADS`
//! shapes. Wall-clock readings never enter the artifact: span durations
//! live only in the embedded obs snapshot and stay zero under the
//! default `NullClock`, the same exclusion contract as `--obs-wall`.
//!
//! [`parse_and_validate`] is the fail-closed reader: schema tag, exact
//! key order, tick continuity (`first tick == evicted`), per-tick
//! conservation (`completed + shed == requests`, shard sums matching the
//! tick totals), `sess:<id>` cross-link labels that
//! [`wimi_trace::TaskKey::from_label`] accepts, a byte-exact aggregate
//! line, and — for complete (unevicted) timelines — agreement between
//! the tick sums and the embedded snapshot's `serve_*` counters.

use std::fmt::Write as _;

use wimi_obs::json::{self, Json};
use wimi_trace::TaskKey;

use crate::timeline::{ShardSample, TickSample, Timeline, SERIES};
use crate::window::WindowStats;

/// Schema tag stamped into every timeline artifact.
pub const SCHEMA: &str = "wimi-metrics/1";

fn render_shard(s: &ShardSample) -> String {
    format!(
        "{{\"depth\":{},\"peak\":{},\"submitted\":{},\"completed\":{},\"shed\":{}}}",
        s.depth, s.peak, s.submitted, s.completed, s.shed
    )
}

fn render_tick(t: &TickSample) -> String {
    let exhausted: Vec<String> = t
        .exhausted
        .iter()
        .map(|&id| format!("\"{}\"", TaskKey::session(id)))
        .collect();
    let shards: Vec<String> = t.shards.iter().map(render_shard).collect();
    format!(
        "{{\"tick\":{},\"requests\":{},\"completed\":{},\"shed\":{},\"cache_hits\":{},\
         \"cache_misses\":{},\"retry_attempts\":{},\"retries_exhausted\":{},\"svm_batches\":{},\
         \"packets_processed\":{},\"exhausted\":[{}],\"shards\":[{}]}}",
        t.tick,
        t.requests,
        t.completed,
        t.shed,
        t.cache_hits,
        t.cache_misses,
        t.retry_attempts,
        t.retries_exhausted,
        t.svm_batches,
        t.packets_processed,
        exhausted.join(","),
        shards.join(",")
    )
}

fn render_stats(s: &WindowStats) -> String {
    format!(
        "{{\"min\":{},\"max\":{},\"mean\":{:.6},\"last\":{}}}",
        s.min, s.max, s.mean, s.last
    )
}

fn render_agg(timeline: &Timeline) -> String {
    if timeline.ticks.is_empty() {
        return "{\"agg\":null}".to_owned();
    }
    let fields: Vec<String> = SERIES
        .iter()
        .filter_map(|name| {
            timeline
                .aggregate(name)
                .map(|s| format!("\"{name}\":{}", render_stats(&s)))
        })
        .collect();
    format!("{{\"agg\":{{{}}}}}", fields.join(","))
}

/// Renders a timeline to `wimi-metrics/1` JSONL text. `obs_json`, when
/// given, must be the engine recorder's `wimi-obs/1` snapshot export; it
/// is compacted onto the final line (`{"obs":null}` otherwise).
// wlint: artifact
pub fn render(timeline: &Timeline, obs_json: Option<&str>) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{{\"schema\":\"{SCHEMA}\",\"ticks\":{},\"shards\":{},\"window\":{},\"evicted\":{}}}",
        timeline.ticks.len(),
        timeline.shards,
        timeline.window,
        timeline.evicted
    );
    for tick in &timeline.ticks {
        let _ = writeln!(out, "{}", render_tick(tick));
    }
    let _ = writeln!(out, "{}", render_agg(timeline));
    match obs_json {
        Some(snapshot) => {
            let _ = writeln!(out, "{{\"obs\":{}}}", json::compact(snapshot));
        }
        None => out.push_str("{\"obs\":null}\n"),
    }
    out
}

// ---------------------------------------------------------------------------
// Fail-closed validation.
// ---------------------------------------------------------------------------

const TICK_KEYS: [&str; 12] = [
    "tick",
    "requests",
    "completed",
    "shed",
    "cache_hits",
    "cache_misses",
    "retry_attempts",
    "retries_exhausted",
    "svm_batches",
    "packets_processed",
    "exhausted",
    "shards",
];

const SHARD_KEYS: [&str; 5] = ["depth", "peak", "submitted", "completed", "shed"];

fn parse_tick(value: &Json, line_no: usize, shards: u64) -> Result<TickSample, String> {
    let what = format!("line {line_no}");
    value.expect_keys(&TICK_KEYS, &what)?;
    let int = |key| value.u64_field(key, &what);
    let mut t = TickSample {
        tick: int("tick")?,
        requests: int("requests")?,
        completed: int("completed")?,
        shed: int("shed")?,
        cache_hits: int("cache_hits")?,
        cache_misses: int("cache_misses")?,
        retry_attempts: int("retry_attempts")?,
        retries_exhausted: int("retries_exhausted")?,
        svm_batches: int("svm_batches")?,
        packets_processed: int("packets_processed")?,
        ..TickSample::default()
    };
    if t.completed + t.shed != t.requests {
        return Err(format!(
            "{what}: completed {} + shed {} != requests {}",
            t.completed, t.shed, t.requests
        ));
    }

    // Exhausted-session cross-links: every entry must be a label
    // `TaskKey::from_label` maps back to a session task, ids ascending.
    let labels = value.arr_field("exhausted", &what)?;
    if labels.len() as u64 != t.retries_exhausted {
        return Err(format!(
            "{what}: {} exhausted labels for retries_exhausted {}",
            labels.len(),
            t.retries_exhausted
        ));
    }
    for label in labels {
        let Some(text) = label.as_str() else {
            return Err(format!("{what}: exhausted entries must be strings"));
        };
        let Some(key) = TaskKey::from_label(text) else {
            return Err(format!("{what}: \"{text}\" is not a task label"));
        };
        if key != TaskKey::session(key.id) {
            return Err(format!("{what}: \"{text}\" is not a session task"));
        }
        if let Some(&prev) = t.exhausted.last() {
            if key.id < prev {
                return Err(format!("{what}: exhausted sessions out of order"));
            }
        }
        t.exhausted.push(key.id);
    }

    // Per-shard breakdown: the shard sums must reproduce the tick
    // totals (everything accepted this tick is drained this tick).
    let rows = value.arr_field("shards", &what)?;
    if rows.len() as u64 != shards {
        return Err(format!(
            "{what}: {} shard entries for {} shards",
            rows.len(),
            shards
        ));
    }
    for (i, row) in rows.iter().enumerate() {
        let swhat = format!("{what} shard {i}");
        row.expect_keys(&SHARD_KEYS, &swhat)?;
        let int = |key| row.u64_field(key, &swhat);
        let s = ShardSample {
            depth: int("depth")?,
            peak: int("peak")?,
            submitted: int("submitted")?,
            completed: int("completed")?,
            shed: int("shed")?,
        };
        if s.depth > s.peak {
            return Err(format!("{swhat}: depth {} > peak {}", s.depth, s.peak));
        }
        t.shards.push(s);
    }
    let submitted: u64 = t.shards.iter().map(|s| s.submitted).sum();
    if submitted != t.completed {
        return Err(format!(
            "{what}: shard submitted sum {submitted} != completed {}",
            t.completed
        ));
    }
    let shard_shed: u64 = t.shards.iter().map(|s| s.shed).sum();
    if shard_shed != t.shed {
        return Err(format!(
            "{what}: shard shed sum {shard_shed} != shed {}",
            t.shed
        ));
    }
    Ok(t)
}

fn check_obs(obs: &Json, timeline: &Timeline) -> Result<(), String> {
    wimi_obs::validate_value(obs).map_err(|e| format!("embedded obs snapshot: {e}"))?;
    // A windowed timeline lost history, so tick sums no longer cover the
    // run; only complete timelines are cross-checked against the
    // run-cumulative counters.
    if timeline.evicted > 0 {
        return Ok(());
    }
    let counter = |name: &str| -> Result<u64, String> {
        obs.get("counters")
            .and_then(|c| c.get(name))
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("embedded obs snapshot: missing counter \"{name}\""))
    };
    let sum =
        |series: &str| -> u64 { timeline.ticks.iter().filter_map(|t| t.series(series)).sum() };
    for (counter_name, series) in [
        ("serve_requests", "requests"),
        ("serve_shed", "shed"),
        ("serve_batches", "svm_batches"),
        ("model_cache_hits", "cache_hits"),
        ("model_cache_misses", "cache_misses"),
    ] {
        let have = counter(counter_name)?;
        let want = sum(series);
        if have != want {
            return Err(format!(
                "obs counter {counter_name} is {have} but the ticks sum to {want}"
            ));
        }
    }
    let peak = counter("serve_queue_peak")?;
    let tick_peak = timeline
        .ticks
        .iter()
        .map(TickSample::queue_peak)
        .max()
        .unwrap_or(0);
    if peak != tick_peak {
        return Err(format!(
            "obs counter serve_queue_peak is {peak} but the ticks peak at {tick_peak}"
        ));
    }
    Ok(())
}

/// Parses and validates a `wimi-metrics/1` artifact, returning the
/// timeline it carries. Fail-closed: anything unexpected — a stray key,
/// a broken conservation sum, a gap in the tick sequence, an aggregate
/// line that does not byte-match the recomputation, counters that
/// disagree with the embedded snapshot — is an error, not a skip.
pub fn parse_and_validate(text: &str) -> Result<Timeline, String> {
    let mut lines = text.lines().enumerate();

    let Some((_, header_line)) = lines.next() else {
        return Err("truncated artifact: missing header line".into());
    };
    let header = json::parse(header_line).map_err(|e| format!("line 1: {e}"))?;
    match header.get("schema").and_then(Json::as_str) {
        Some(SCHEMA) => {}
        Some(other) => {
            return Err(format!(
                "schema version mismatch: artifact declares \"{other}\" but this validator understands \"{SCHEMA}\""
            ))
        }
        None => return Err("line 1: missing schema field".into()),
    }
    header.expect_keys(
        &["schema", "ticks", "shards", "window", "evicted"],
        "header",
    )?;
    let tick_count = header.u64_field("ticks", "header")?;
    let shards = header.u64_field("shards", "header")?;
    let window = header.u64_field("window", "header")?;
    let evicted = header.u64_field("evicted", "header")?;
    if tick_count > window {
        return Err(format!(
            "header: {tick_count} ticks exceed the window capacity {window}"
        ));
    }

    let mut ticks = Vec::new();
    for i in 0..tick_count {
        let Some((idx, line)) = lines.next() else {
            return Err(format!(
                "truncated artifact: {} of {tick_count} tick lines",
                i
            ));
        };
        let line_no = idx + 1;
        let value = json::parse(line).map_err(|e| format!("line {line_no}: {e}"))?;
        let tick = parse_tick(&value, line_no, shards)?;
        let want = evicted + i;
        if tick.tick != want {
            return Err(format!(
                "line {line_no}: tick {} breaks continuity (expected {want})",
                tick.tick
            ));
        }
        ticks.push(tick);
    }

    let timeline = Timeline {
        shards: shards as usize,
        window: window as usize,
        evicted,
        ticks,
    };

    let Some((idx, agg_line)) = lines.next() else {
        return Err("truncated artifact: missing the {\"agg\": ...} line".into());
    };
    if agg_line != render_agg(&timeline) {
        return Err(format!(
            "line {}: the aggregate line does not match the recomputation from the ticks",
            idx + 1
        ));
    }

    let Some((idx, obs_line)) = lines.next() else {
        return Err("truncated artifact: missing the final {\"obs\": ...} line".into());
    };
    let obs_no = idx + 1;
    let value = json::parse(obs_line).map_err(|e| format!("line {obs_no}: {e}"))?;
    let Some(obs) = value.get("obs") else {
        return Err(format!("line {obs_no}: expected the {{\"obs\": ...}} line"));
    };
    value.expect_keys(&["obs"], "obs line")?;
    if !matches!(obs, Json::Null) {
        check_obs(obs, &timeline)?;
    }

    if let Some((idx, _)) = lines.next() {
        return Err(format!(
            "line {}: data after the final {{\"obs\": ...}} line",
            idx + 1
        ));
    }
    Ok(timeline)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeline::TickCollector;

    fn sample_timeline() -> Timeline {
        let mut c = TickCollector::new(2, 8);
        for tick in 0..3u64 {
            c.push(TickSample {
                tick,
                requests: 5,
                completed: 4,
                shed: 1,
                cache_hits: if tick == 0 { 0 } else { 2 },
                cache_misses: if tick == 0 { 2 } else { 0 },
                retry_attempts: 5,
                retries_exhausted: 1,
                svm_batches: 2,
                packets_processed: 64,
                exhausted: vec![3],
                shards: vec![
                    ShardSample {
                        depth: 2,
                        peak: 2,
                        submitted: 2,
                        completed: 2,
                        shed: 1,
                    },
                    ShardSample {
                        depth: 2,
                        peak: 3,
                        submitted: 2,
                        completed: 2,
                        shed: 0,
                    },
                ],
            });
        }
        c.finish()
    }

    #[test]
    fn artifact_round_trips_through_the_validator() {
        let tl = sample_timeline();
        let text = render(&tl, None);
        let parsed = parse_and_validate(&text).unwrap_or_else(|e| panic!("must validate: {e}"));
        assert_eq!(parsed, tl);
        assert_eq!(render(&parsed, None), text);
    }

    #[test]
    fn validator_fails_closed() {
        let text = render(&sample_timeline(), None);
        // Wrong schema names both versions.
        let err = parse_and_validate(&text.replace("wimi-metrics/1", "wimi-metrics/2"))
            .expect_err("schema");
        assert!(
            err.contains("wimi-metrics/2") && err.contains("wimi-metrics/1"),
            "{err}"
        );
        // Broken conservation.
        assert!(parse_and_validate(&text.replace("\"shed\":1,", "\"shed\":2,")).is_err());
        // A truncated artifact, and trailing garbage.
        let lines: Vec<&str> = text.lines().collect();
        assert!(parse_and_validate(&lines[..2].join("\n")).is_err());
        assert!(parse_and_validate(&format!("{text}{{}}\n")).is_err());
        // A gap in the tick sequence.
        assert!(parse_and_validate(&text.replacen("\"tick\":1", "\"tick\":7", 1)).is_err());
        // A label the trace layer would not accept.
        assert!(parse_and_validate(&text.replace("sess:3", "gremlin:3")).is_err());
        // An exhausted list shorter than its count.
        assert!(parse_and_validate(&text.replace("[\"sess:3\"]", "[]")).is_err());
        // A tampered aggregate line.
        assert!(parse_and_validate(&text.replacen(
            "\"agg\":{\"requests\":{\"min\":5",
            "\"agg\":{\"requests\":{\"min\":4",
            1
        ))
        .is_err());
        // A carriage return inside the aggregate line is named by line
        // number, not echoed into the one-line diagnostic.
        let err = parse_and_validate(&text.replacen("\"last\"", "\"l\rast\"", 1))
            .expect_err("mangled aggregate");
        assert_eq!(
            err,
            format!(
                "line {}: the aggregate line does not match the recomputation from the ticks",
                lines.len() - 1
            )
        );
    }

    #[test]
    fn empty_timelines_render_a_null_aggregate() {
        let tl = TickCollector::new(3, 4).finish();
        let text = render(&tl, None);
        assert!(text.contains("{\"agg\":null}"));
        let parsed = parse_and_validate(&text).unwrap_or_else(|e| panic!("{e}"));
        assert!(parsed.ticks.is_empty());
    }

    #[test]
    fn obs_cross_check_gates_complete_timelines() {
        let tl = sample_timeline();
        let rec = wimi_obs::Recorder::enabled();
        let add = |c, n| rec.add(c, n);
        add(wimi_obs::CounterId::ServeRequests, 15);
        add(wimi_obs::CounterId::ServeShed, 3);
        add(wimi_obs::CounterId::ServeBatches, 6);
        add(wimi_obs::CounterId::ModelCacheHits, 4);
        add(wimi_obs::CounterId::ModelCacheMisses, 2);
        add(wimi_obs::CounterId::ServeQueuePeak, 3);
        let obs = rec.snapshot().to_json();
        let text = render(&tl, Some(&obs));
        parse_and_validate(&text).unwrap_or_else(|e| panic!("must validate: {e}"));
        // A counter that disagrees with the tick sums fails closed.
        let bad = text.replace("\"serve_shed\":3", "\"serve_shed\":4");
        assert!(parse_and_validate(&bad).is_err());
    }
}

//! The `wimi-trace/1` reader's memory model, the byte round trip of what
//! it reads, and its rejection of unknown salvage actions.
//!
//! This file is its own test binary with a counting global allocator that
//! tracks live heap bytes and their high-water mark. Its tests run one at
//! a time (a mutex serialises them), so no other test allocates while the
//! reader is measured.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

use proptest::prelude::*;
use proptest::TestRng;
use wimi::obs::{CounterId, IssueId, StageId};
use wimi::trace::artifact::{parse_and_validate, render_cell, CampaignTag};
use wimi::trace::sink::TaskStream;
use wimi::trace::{Ctx, SalvageAction, TaskKey, TraceEvent, TraceLog};
use wimi_experiments::campaign::run_campaign;

/// A pass-through allocator that tracks live heap bytes and their peak.
struct TrackingAlloc;

/// Heap bytes currently allocated.
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// The highest `LIVE` reached since a test last reset it.
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

#[allow(unsafe_code)] // GlobalAlloc is an unsafe trait; this impl only delegates to System.
unsafe impl GlobalAlloc for TrackingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Count the new block before releasing the old one: a moving
        // realloc holds both for a moment.
        grow(new_size);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: TrackingAlloc = TrackingAlloc;

/// Serialises the tests of this binary, so a measurement sees only its
/// own allocations.
static SERIAL: Mutex<()> = Mutex::new(());

/// A hostile one-cell campaign: three liquids under screening salvage,
/// retries and refusals. Its seed makes one trial exhaust its retry
/// budget, so every event type the pipeline emits appears.
const CELL_CAMPAIGN: &str = "campaign reader\n\
                             seed 3\n\
                             fault_seed 0xFA17\n\
                             train 4\n\
                             test 10\n\
                             axis materials = PureWater+Milk+Oil\n\
                             axis packets = 20\n\
                             axis intensity = 0.4\n";

/// The rendered artifact of the campaign's one cell, run once.
fn cell_artifact() -> &'static str {
    static CELL: OnceLock<String> = OnceLock::new();
    CELL.get_or_init(|| {
        let campaign = wimi::campaign::parse(CELL_CAMPAIGN).expect("the campaign parses");
        let mut outcome = run_campaign(&campaign);
        assert_eq!(outcome.cells.len(), 1);
        outcome.cells.remove(0).artifact
    })
}

/// The payload of an artifact's final `{"obs": ...}` line, as
/// `render_cell` takes it.
fn obs_payload(text: &str) -> Option<&str> {
    let last = text.lines().last()?;
    let payload = last.strip_prefix("{\"obs\":")?.strip_suffix('}')?;
    (payload != "null").then_some(payload)
}

/// Reads `text` and renders what was read: the bytes must come back.
fn reread(text: &str) -> String {
    let artifact = parse_and_validate(text).unwrap_or_else(|e| panic!("{e}"));
    render_cell(
        &artifact.to_log(),
        obs_payload(text),
        artifact.campaign.as_ref(),
    )
}

#[test]
fn reader_peak_heap_stays_within_twice_the_text() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let text = cell_artifact();
    let live_before = LIVE.load(Ordering::Relaxed);
    PEAK.store(live_before, Ordering::Relaxed);
    let artifact = parse_and_validate(text).unwrap_or_else(|e| panic!("{e}"));
    let peak = PEAK.load(Ordering::Relaxed) - live_before;
    let events = artifact.events.len();
    drop(artifact);
    println!(
        "cell artifact: {} bytes, {events} events; reader peak {peak} bytes ({:.2}x the text)",
        text.len(),
        peak as f64 / text.len() as f64
    );
    assert!(
        events > 1000,
        "the cell must be big enough to measure: {events} events"
    );
    assert!(
        peak <= 2 * text.len(),
        "reading a {}-byte artifact peaked at {peak} live heap bytes (over 2x)",
        text.len()
    );
}

#[test]
fn a_read_campaign_cell_renders_back_to_its_bytes() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let text = cell_artifact();
    for ev in TraceEvent::NAMES {
        assert!(
            text.contains(&format!("\"ev\":\"{ev}\"")),
            "the cell emits no {ev} event"
        );
    }
    assert!(
        reread(text) == text,
        "re-rendering the read cell changed its bytes"
    );
}

#[test]
fn unknown_salvage_action_is_rejected() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let text = cell_artifact();
    for action in SalvageAction::ALL {
        let from = format!("\"action\":\"{}\"", action.name());
        let bad = text.replacen(&from, "\"action\":\"drop_everything\"", 1);
        assert_ne!(bad, text, "the cell has a {} event", action.name());
        let err = parse_and_validate(&bad).expect_err("an unknown action must fail");
        assert!(
            err.contains("\"action\" must be a salvage action name"),
            "{err}"
        );
        assert!(err.starts_with("line "), "{err}");
        assert!(!err.contains('\n'), "{err}");
    }
}

/// Draws flushed logs as a sink leaves them: distinct task keys in
/// order, each with a possibly ring-cut stream of any events, header
/// counts consistent with the streams, and sometimes campaign provenance.
struct Logs;

/// A uniform index below `n`.
fn pick(rng: &mut TestRng, n: usize) -> usize {
    (rng.next_u64() % n as u64) as usize
}

/// A count (or a campaign cell's derived seed): any `u64`, which the
/// reader must carry exactly, above 2^53 too.
fn count(rng: &mut TestRng) -> u64 {
    rng.next_u64()
}

fn small(rng: &mut TestRng) -> u32 {
    rng.next_u64() as u32
}

fn maybe(rng: &mut TestRng) -> Option<u32> {
    (rng.next_u64() & 1 == 1).then(|| small(rng))
}

fn event(rng: &mut TestRng) -> TraceEvent {
    let stage = |rng: &mut TestRng| StageId::ALL[pick(rng, StageId::ALL.len())];
    let issue = |rng: &mut TestRng| IssueId::ALL[pick(rng, IssueId::ALL.len())];
    match pick(rng, TraceEvent::NAMES.len()) {
        0 => TraceEvent::Enter { stage: stage(rng) },
        1 => TraceEvent::Exit { stage: stage(rng) },
        2 => TraceEvent::Count {
            counter: CounterId::ALL[pick(rng, CounterId::ALL.len())],
            delta: count(rng),
        },
        3 => TraceEvent::Issue {
            issue: issue(rng),
            count: count(rng),
            ctx: Ctx {
                packet: maybe(rng),
                subcarrier: maybe(rng),
                antenna: maybe(rng),
                pair: maybe(rng).map(|a| (a, small(rng))),
            },
        },
        4 => TraceEvent::Salvage {
            action: SalvageAction::ALL[pick(rng, SalvageAction::ALL.len())],
            count: count(rng),
        },
        5 => TraceEvent::Attempt {
            attempt: small(rng),
            max: small(rng),
        },
        6 => TraceEvent::RetriesExhausted {
            attempts: small(rng),
        },
        7 => TraceEvent::Feature {
            pairs: small(rng),
            gamma_min: small(rng) as i32,
            gamma_max: small(rng) as i32,
            dispersion: match pick(rng, 5) {
                0 => f64::NAN,
                1 => f64::INFINITY,
                2 => -0.0,
                3 => (rng.unit_f64() - 0.5) * 1e12,
                _ => f64::from_bits(rng.next_u64()),
            },
        },
        8 => TraceEvent::Failed {
            stage: stage(rng),
            issue: issue(rng),
        },
        _ => TraceEvent::SvmMachine {
            class_a: small(rng),
            class_b: small(rng),
            rounds: count(rng),
        },
    }
}

fn task_key(rng: &mut TestRng) -> TaskKey {
    match pick(rng, 4) {
        0 => TaskKey::RUN,
        1 => TaskKey::measurement(rng.next_u64()),
        2 => TaskKey::session(rng.next_u64()),
        _ => TaskKey::svm_machine(small(rng) as usize, small(rng) as usize),
    }
}

impl Strategy for Logs {
    type Value = (TraceLog, Option<CampaignTag>);

    fn sample(&self, rng: &mut TestRng) -> Self::Value {
        let mut tasks: Vec<TaskStream> = (0..pick(rng, 6))
            .map(|_| TaskStream {
                key: task_key(rng),
                first_seq: rng.next_u64() % 1000,
                events: (0..1 + pick(rng, 8)).map(|_| event(rng)).collect(),
            })
            .collect();
        tasks.sort_by_key(|t| t.key);
        tasks.dedup_by_key(|t| t.key);
        let events: u64 = tasks.iter().map(|t| t.events.len() as u64).sum();
        let log = TraceLog {
            tasks,
            events_emitted: events + rng.next_u64() % 5,
            failures: rng.next_u64() % 4,
            tasks_truncated: rng.next_u64() % 3,
        };
        let tag = (rng.next_u64() & 1 == 1).then(|| CampaignTag {
            campaign: "prop \"q\" \\ cell".to_owned(),
            cell: count(rng),
            cell_seed: count(rng),
        });
        (log, tag)
    }
}

// Reading a rendered log and rendering what was read gives back the same
// bytes, with and without campaign provenance.
proptest! {
    #[test]
    fn read_then_render_is_the_identity_on_bytes(case in Logs) {
        let (log, tag) = case;
        let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let text = render_cell(&log, None, tag.as_ref());
        prop_assert_eq!(reread(&text), text);
    }
}

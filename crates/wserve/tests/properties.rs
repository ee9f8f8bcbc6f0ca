//! Property tests for the `wimi-metrics/1` artifact:
//!
//! 1. render → parse_and_validate is the identity on arbitrary *valid*
//!    timelines, and re-rendering the parse is byte-identical (the
//!    canonical-form contract the CI `cmp` gate depends on);
//! 2. the validator is total — byte mutations of a valid artifact never
//!    panic, only `Err` (or validate, when the mutation is benign);
//! 3. windowed aggregates always agree with a direct recomputation over
//!    the retained ticks;
//! 4. the `.slo` parser is total too — byte mutations of the shipped
//!    policies never panic, and every rejection is one line.
//!
//! The vendored proptest shim has no struct strategies, so the timeline
//! generator draws a random valid run directly from the test RNG: shard
//! sums are constructed to satisfy the conservation invariants the
//! validator enforces (`completed + shed == requests`, shard submitted
//! summing to `completed`, exhausted lists sorted and sized).

use proptest::prelude::*;
use proptest::TestRng;

use wimi_serve::metrics::{
    parse_and_validate, parse_policy, render, ShardSample, TickCollector, TickSample, Timeline,
    WindowStats, SERIES,
};

fn sample_tick(rng: &mut TestRng, tick: u64, shards: usize) -> TickSample {
    let mut t = TickSample {
        tick,
        cache_hits: rng.next_u64() % 32,
        cache_misses: rng.next_u64() % 8,
        svm_batches: rng.next_u64() % 16,
        packets_processed: rng.next_u64() % 4096,
        ..TickSample::default()
    };
    for _ in 0..shards {
        let submitted = rng.next_u64() % 9;
        let shed = rng.next_u64() % 3;
        let depth = submitted;
        let peak = depth + rng.next_u64() % 4;
        t.shards.push(ShardSample {
            depth,
            peak,
            submitted,
            completed: submitted,
            shed,
        });
        t.completed += submitted;
        t.shed += shed;
    }
    t.requests = t.completed + t.shed;
    // A sorted, duplicate-free exhausted list with matching count.
    let n = (rng.next_u64() % 4) as usize;
    let mut ids: Vec<u64> = (0..n).map(|_| rng.next_u64() % 64).collect();
    ids.sort_unstable();
    ids.dedup();
    t.retries_exhausted = ids.len() as u64;
    t.retry_attempts = t.completed + 3 * t.retries_exhausted;
    t.exhausted = ids;
    t
}

fn sample_timeline(rng: &mut TestRng) -> Timeline {
    let shards = 1 + (rng.next_u64() as usize) % 4;
    let window = 1 + (rng.next_u64() as usize) % 12;
    let ticks = (rng.next_u64() as usize) % 20;
    let mut c = TickCollector::new(shards, window);
    for tick in 0..ticks {
        c.push(sample_tick(rng, tick as u64, shards));
    }
    c.finish()
}

/// Strategy producing arbitrary valid timelines.
struct ValidTimeline;

impl Strategy for ValidTimeline {
    type Value = Timeline;

    fn sample(&self, rng: &mut TestRng) -> Timeline {
        sample_timeline(rng)
    }
}

proptest! {
    // Canonical-form contract: parse(render(t)) == t, and the reparse
    // renders to the same bytes — this is what lets CI `cmp` timelines
    // across WIMI_THREADS shapes.
    #[test]
    fn render_parse_round_trip_is_identity(tl in ValidTimeline) {
        let text = render(&tl, None);
        let parsed = parse_and_validate(&text)
            .unwrap_or_else(|e| panic!("rendered timeline failed to validate: {e}\n{text}"));
        prop_assert_eq!(&parsed, &tl);
        prop_assert_eq!(render(&parsed, None), text);
    }

    // The validator is total over byte mutations: no panic, ever.
    #[test]
    fn mutated_artifacts_never_panic(
        tl in ValidTimeline,
        pos in 0usize..1 << 20,
        byte in 0u32..256,
    ) {
        let mut bytes = render(&tl, None).into_bytes();
        if !bytes.is_empty() {
            let i = pos % bytes.len();
            bytes[i] = byte as u8;
        }
        if let Ok(text) = String::from_utf8(bytes) {
            let _ = parse_and_validate(&text);
        }
    }

    // The policy parser is total over byte mutations of the shipped
    // policies: no panic, and a rejection never spans lines.
    #[test]
    fn mutated_slo_policies_never_panic(
        which in 0usize..2,
        pos in 0usize..1 << 20,
        byte in 0u32..256,
        kind in 0usize..3,
    ) {
        let policy = [
            include_str!("../../../slo/fleet.slo"),
            include_str!("../../../slo/breach.slo"),
        ][which];
        let mut bytes = policy.as_bytes().to_vec();
        let i = pos % bytes.len();
        match kind {
            0 => bytes[i] = byte as u8,
            1 => {
                bytes.remove(i);
            }
            _ => bytes.insert(i, byte as u8),
        }
        if let Ok(text) = String::from_utf8(bytes) {
            if let Err(e) = parse_policy(&text) {
                prop_assert!(!e.contains(['\n', '\r']), "{e:?}");
            }
        }
    }

    // Aggregate law: every series' windowed stats equal a direct
    // recomputation over the retained ticks.
    #[test]
    fn aggregates_match_direct_recomputation(tl in ValidTimeline) {
        for name in SERIES {
            let direct = WindowStats::over(tl.ticks.iter().filter_map(|t| t.series(name)));
            let via = tl.aggregate(name);
            match (direct, via) {
                (None, None) => prop_assert!(tl.ticks.is_empty()),
                (Some(d), Some(v)) => {
                    prop_assert_eq!((d.min, d.max, d.last), (v.min, v.max, v.last));
                    prop_assert!((d.mean - v.mean).abs() < 1e-12);
                }
                (d, v) => prop_assert!(false, "{name}: {d:?} vs {v:?}"),
            }
        }
    }

    // Eviction law: the collector retains the newest `window` ticks and
    // reports the rest as evicted; the first retained tick equals the
    // eviction count.
    #[test]
    fn eviction_accounting_is_exact(shards in 1usize..4, window in 1usize..8, n in 0usize..24) {
        let mut rng = TestRng::deterministic();
        let mut c = TickCollector::new(shards, window);
        for tick in 0..n {
            c.push(sample_tick(&mut rng, tick as u64, shards));
        }
        let tl = c.finish();
        prop_assert_eq!(tl.ticks.len(), n.min(window));
        prop_assert_eq!(tl.evicted, n.saturating_sub(window) as u64);
        if let Some(first) = tl.first_tick() {
            prop_assert_eq!(first, tl.evicted);
        }
    }
}

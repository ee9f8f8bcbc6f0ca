//! Steady-state allocation ceilings of the hot-path entry points —
//! scenario realisation, capture and measurement on both extraction
//! routes — held against the `alloc_budgets` section of `BENCH.json`.
//!
//! The ceilings are the exact counts, so one extra allocation anywhere on
//! the steady path (a `Vec` that now grows, a stray `.to_vec()`) fails the
//! test. The counter sees only the branches these calls take; a branch no
//! row reaches is not covered (DESIGN §12.4).
//!
//! This file is its own test binary with a counting global allocator and a
//! single test, so no other test allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use wimi::core::{PairSelection, WiMi, WiMiConfig};
use wimi::phy::csi::CsiSource;
use wimi::phy::material::Liquid;
use wimi::phy::scenario::{Scenario, Simulator};
use wimi::trace::analyze::{budget_table, check_budgets};

/// A pass-through allocator that counts heap acquisitions (`alloc` +
/// `realloc`). Counting is the only extra work — all placement decisions
/// stay with the system allocator.
struct CountingAlloc;

/// Total `alloc` + `realloc` calls since process start.
static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

#[allow(unsafe_code)] // GlobalAlloc is an unsafe trait; this impl only delegates to System.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Allocation count of one invocation of `f`.
fn count_allocs<F: FnMut()>(mut f: F) -> u64 {
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    f();
    ALLOC_CALLS.load(Ordering::Relaxed) - before
}

/// Steady-state allocation counts of one `Simulator::new` (`realise`,
/// scenario built outside), one `capture` of `packets` packets and one
/// `WiMi::measure` of a baseline/target pair on the joint route
/// (`measure`) and on the single-pair route through antennas 0 and 1
/// (`measure_pair`), under one worker thread so the counts are
/// schedule-independent. The first (warm-up) call of each entry point
/// grows scratch pools and lazy statics; the measured second call is the
/// steady state.
fn steady_state_allocs(packets: usize) -> [(&'static str, u64); 4] {
    wimi::core::par::set_thread_override(Some(1));
    let scenario = Scenario::builder().build();
    let _warm = Simulator::new(scenario.clone(), 7);
    let mut twin = Some(scenario.clone());
    let realise = count_allocs(|| {
        if let Some(s) = twin.take() {
            std::hint::black_box(Simulator::new(s, 7));
        }
    });
    let mut sim = Simulator::new(scenario, 7);
    sim.set_liquid(Some(Liquid::Milk.into()));
    let _warm = sim.capture(packets);
    let capture = count_allocs(|| {
        std::hint::black_box(sim.capture(packets));
    });

    let wimi = WiMi::new(WiMiConfig::default());
    let mut sim = Simulator::new(Scenario::builder().build(), 42);
    let base = sim.capture(packets);
    sim.set_liquid(Some(Liquid::Milk.into()));
    let tar = sim.capture(packets);
    let _warm = wimi.measure(&base, &tar);
    let measure = count_allocs(|| {
        std::hint::black_box(wimi.measure(&base, &tar));
    });

    let wimi = WiMi::new(WiMiConfig {
        pairs: PairSelection::Fixed(0, 1),
        ..WiMiConfig::default()
    });
    let _warm = wimi.measure(&base, &tar);
    let measure_pair = count_allocs(|| {
        std::hint::black_box(wimi.measure(&base, &tar));
    });
    wimi::core::par::set_thread_override(None);
    [
        ("realise", realise),
        ("capture", capture),
        ("measure", measure),
        ("measure_pair", measure_pair),
    ]
}

#[test]
fn hot_paths_stay_within_alloc_budgets() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH.json");
    let text = std::fs::read_to_string(path).expect("BENCH.json is readable");
    let allocs = steady_state_allocs(100);
    let rows = check_budgets(&text, "alloc_budgets", |name| {
        allocs.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    })
    .expect("BENCH.json holds a well-formed alloc_budgets section");
    print!("{}", budget_table(&rows));
    for row in &rows {
        assert!(
            row.ok,
            "steady-state {} now allocates {} times (budget {}); the hot path regressed",
            row.name, row.actual, row.budget
        );
    }
}

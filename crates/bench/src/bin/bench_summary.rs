//! The host gate: `bench_summary --check BENCH.json`.
//!
//! It counts the steady-state allocations of the three hot-path entry
//! points (scenario realisation, capture, measurement) under a counting
//! global allocator and gates them against the `alloc_budgets` section of
//! `BENCH.json`. On multi-core hosts it then holds the 4-thread fan-out
//! speedup floors of identification and of the serving fleet; both
//! self-skip on one CPU. Exit 1 on any failure, 2 on a usage error.
//!
//! Run from the workspace root with
//! `cargo run --release -p wimi-bench --bin bench_summary -- --check BENCH.json`.
//! Wall-clock throughput, end to end and per layer, is measured by the
//! benchmark in `wimibench/`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use wimi_bench::fixtures::capture_pair;
use wimi_core::{WiMi, WiMiConfig};
use wimi_experiments::harness::{paper_liquids, run_identification, RunOptions};
use wimi_phy::csi::CsiSource;
use wimi_phy::material::Liquid;
use wimi_phy::scenario::{Scenario, Simulator};
use wimi_serve::{run_fleet, FleetConfig};
use wimi_trace::analyze::{budget_table, check_budgets};

/// A pass-through allocator that counts heap acquisitions (`alloc` +
/// `realloc`), so the gate can see how many allocations the hot path
/// performs in steady state. Counting is the *only* extra work — all
/// placement decisions stay with the system allocator.
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
/// `WiMi::measure` of a baseline/target pair, under one worker thread so
/// the counts are schedule-independent. The first (warm-up) call of each
/// entry point grows scratch pools and lazy statics; the measured second
/// call is the steady state.
fn steady_state_allocs(packets: usize) -> [(&'static str, u64); 3] {
    wimi_core::par::set_thread_override(Some(1));
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
    let (base, tar) = capture_pair(packets);
    let _warm = wimi.measure(&base, &tar);
    let measure = count_allocs(|| {
        std::hint::black_box(wimi.measure(&base, &tar));
    });
    wimi_core::par::set_thread_override(None);
    [
        ("realise", realise),
        ("capture", capture),
        ("measure", measure),
    ]
}

/// Median wall-clock seconds of three runs of `work` under `threads`
/// workers.
fn median_seconds(threads: usize, work: &dyn Fn()) -> f64 {
    wimi_core::par::set_thread_override(Some(threads));
    let mut samples: Vec<f64> = (0..3)
        .map(|_| {
            let t0 = Instant::now();
            work();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    wimi_core::par::set_thread_override(None);
    samples.sort_by(f64::total_cmp);
    samples[1]
}

/// Holds `work`'s 4-thread speedup over one thread to a floor: the first
/// of `floors` on hosts with four or more cores, the second on two or
/// three.
fn fanout_floor(
    label: &str,
    floors: (f64, f64),
    cores: usize,
    work: &dyn Fn(),
) -> Result<(), String> {
    let floor = if cores >= 4 { floors.0 } else { floors.1 };
    let speedup = median_seconds(1, work) / median_seconds(4, work);
    println!(
        "bench check: {label} 4-thread fan-out speedup {speedup:.2} (floor {floor}, {cores} cpus)"
    );
    if speedup < floor {
        return Err(format!(
            "{label} 4-thread fan-out speedup {speedup:.2} fell below {floor} on a {cores}-cpu host"
        ));
    }
    Ok(())
}

fn check(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let allocs = steady_state_allocs(100);
    let rows = check_budgets(&text, "alloc_budgets", |name| {
        allocs.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    })?;
    print!("{}", budget_table(&rows));
    if let Some(bad) = rows.iter().find(|r| !r.ok) {
        return Err(format!(
            "steady-state {} now allocates {} times (budget {}); the hot path regressed",
            bad.name, bad.actual, bad.budget
        ));
    }

    // The floors need real cores; a single-CPU host serialises the
    // workers and measures only scheduling overhead.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores < 2 {
        println!("bench check: single-cpu host, fan-out floors skipped");
        return Ok(());
    }
    let materials = paper_liquids();
    let identification = || {
        let opts = RunOptions {
            n_train: 3,
            n_test: 2,
            packets: 10,
            ..RunOptions::default()
        };
        std::hint::black_box(run_identification(&materials, &opts).accuracy());
    };
    let fleet = || {
        std::hint::black_box(run_fleet(&FleetConfig::default()));
    };
    let failures: Vec<String> = [
        fanout_floor("identification", (1.5, 1.2), cores, &identification),
        fanout_floor("fleet", (1.3, 1.1), cores, &fleet),
    ]
    .into_iter()
    .filter_map(Result::err)
    .collect();
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("; "))
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let path = match args.as_slice() {
        [flag, path] if flag == "--check" => path,
        _ => {
            eprintln!("usage: bench_summary --check BENCH.json");
            std::process::exit(2);
        }
    };
    if let Err(msg) = check(path) {
        eprintln!("bench check FAILED: {msg}");
        std::process::exit(1);
    }
    println!("bench check OK");
}

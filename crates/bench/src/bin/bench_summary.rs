//! Writes `BENCH_PR6.json` at the repo root: wall-clock timings of the
//! hot pipeline stages (cached vs forced-recompute simulator, 1 vs 4
//! worker threads), the `throughput` section (measurements/second plus
//! steady-state allocation counts from a counting global allocator), and
//! the `work_budgets` section — deterministic work counters of the shared
//! trace campaign that `wimi-trace budget` gates CI against. The budgets
//! and allocation counts are schedule-independent, so they hold exactly
//! on any host; only the `*_s` timings and `meas_per_s_*` rates vary.
//!
//! Run from the workspace root with
//! `cargo run --release -p wimi-bench --bin bench_summary`.
//!
//! `--check [path]` re-measures the schedule-independent numbers and
//! fails (exit 1) if the workspace now allocates more in steady state
//! than the committed artifact records, or if the 4-thread fan-out
//! speedup collapses on a multi-core host. CI runs this gate on every
//! push.
//!
//! JSON is hand-rolled because the workspace deliberately has no serde
//! dependency.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use wimi_bench::fixtures::capture_pair;
use wimi_core::{WiMi, WiMiConfig};
use wimi_experiments::harness::{run_identification, Material, RunOptions};
use wimi_experiments::trace::{render_artifact, trace_campaign};
use wimi_experiments::Effort;
use wimi_phy::csi::CsiSource;
use wimi_phy::material::Liquid;
use wimi_phy::scenario::{Scenario, Simulator};

/// A pass-through allocator that counts heap acquisitions (`alloc` +
/// `realloc`), so the summary can record how many allocations the hot
/// path performs in steady state. Counting is the *only* extra work —
/// all placement decisions stay with the system allocator.
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

/// Median wall-clock seconds of `runs` invocations of `f`.
fn time_median<F: FnMut()>(runs: usize, mut f: F) -> f64 {
    let mut samples: Vec<f64> = (0..runs)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

fn json_field(out: &mut String, indent: &str, key: &str, value: f64, last: bool) {
    out.push_str(&format!(
        "{indent}\"{key}\": {value:.6}{}\n",
        if last { "" } else { "," }
    ));
}

/// Extracts `"key": <number>` from hand-rolled JSON text. Good enough for
/// the flat artifacts this binary writes; not a general parser.
fn json_number(text: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = text.find(&needle)? + needle.len();
    let rest = text[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The bench identification workload: the paper's ten-liquid lab preset
/// scaled down to bench-friendly trial counts. Returns median seconds per
/// full run under `threads` workers.
fn ident_seconds(materials: &[Material], threads: usize) -> f64 {
    wimi_core::par::set_thread_override(Some(threads));
    let t = time_median(3, || {
        let opts = RunOptions {
            n_train: 3,
            n_test: 2,
            packets: 10,
            ..RunOptions::default()
        };
        std::hint::black_box(run_identification(materials, &opts).accuracy());
    });
    wimi_core::par::set_thread_override(None);
    t
}

/// Steady-state allocation counts of the three hot-path entry points,
/// under one worker thread so the counts are schedule-independent.
struct SteadyAllocs {
    /// One `Simulator::new` (scenario realisation), scenario built outside.
    realise: u64,
    /// One `capture` of the measured packet count.
    capture: u64,
    /// One `WiMi::measure` of a baseline/target pair.
    measure: u64,
}

/// Counts [`SteadyAllocs`]. The first (warm-up) call of each entry point
/// grows scratch pools and lazy statics; the measured second call is the
/// steady state.
fn steady_state_allocs(packets: usize) -> SteadyAllocs {
    wimi_core::par::set_thread_override(Some(1));
    let scenario = Scenario::builder().build();
    let _warm = Simulator::new(scenario.clone(), 7);
    let mut twin = Some(scenario.clone());
    let realise_allocs = count_allocs(|| {
        if let Some(s) = twin.take() {
            std::hint::black_box(Simulator::new(s, 7));
        }
    });
    let mut sim = Simulator::new(scenario, 7);
    sim.set_liquid(Some(Liquid::Milk.into()));
    let _warm = sim.capture(packets);
    let capture_allocs = count_allocs(|| {
        std::hint::black_box(sim.capture(packets));
    });

    let wimi = WiMi::new(WiMiConfig::default());
    let (base, tar) = capture_pair(packets);
    let _warm = wimi.measure(&base, &tar);
    let measure_allocs = count_allocs(|| {
        std::hint::black_box(wimi.measure(&base, &tar));
    });
    wimi_core::par::set_thread_override(None);
    SteadyAllocs {
        realise: realise_allocs,
        capture: capture_allocs,
        measure: measure_allocs,
    }
}

/// Measurements per identification run: (train + test) trials × materials.
const BENCH_MEASUREMENTS: usize = 10 * (3 + 2);

fn check(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let recorded_capture = json_number(&text, "capture_allocs_steady")
        .ok_or("artifact lacks throughput.capture_allocs_steady")?;
    let recorded_measure = json_number(&text, "measure_allocs_steady")
        .ok_or("artifact lacks throughput.measure_allocs_steady")?;
    let recorded_realise = json_number(&text, "realise_allocs_steady")
        .ok_or("artifact lacks throughput.realise_allocs_steady")?;

    let SteadyAllocs {
        realise: realise_allocs,
        capture: capture_allocs,
        measure: measure_allocs,
    } = steady_state_allocs(100);
    // A tenth of headroom absorbs allocator-internal noise without letting
    // a real per-packet allocation regression (hundreds of extra calls)
    // slip through.
    let limit = |recorded: f64| recorded + (recorded / 10.0).max(8.0);
    let (cap_limit, meas_limit) = (limit(recorded_capture), limit(recorded_measure));
    let real_limit = limit(recorded_realise);
    println!(
        "bench check: realise allocs {realise_allocs} (recorded {recorded_realise}, limit {real_limit:.0})"
    );
    println!(
        "bench check: capture allocs {capture_allocs} (recorded {recorded_capture}, limit {cap_limit:.0})"
    );
    println!(
        "bench check: measure allocs {measure_allocs} (recorded {recorded_measure}, limit {meas_limit:.0})"
    );
    if capture_allocs as f64 > cap_limit {
        return Err(format!(
            "steady-state capture now allocates {capture_allocs} times (recorded {recorded_capture}); the hot path regressed"
        ));
    }
    if measure_allocs as f64 > meas_limit {
        return Err(format!(
            "steady-state measure now allocates {measure_allocs} times (recorded {recorded_measure}); the hot path regressed"
        ));
    }
    if realise_allocs as f64 > real_limit {
        return Err(format!(
            "Simulator::new now allocates {realise_allocs} times (recorded {recorded_realise}); realisation regressed"
        ));
    }

    // The fan-out gate needs real cores; a single-CPU host serialises the
    // workers and measures only scheduling overhead.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores >= 2 {
        let materials: Vec<Material> = wimi_experiments::harness::paper_liquids();
        let t1 = ident_seconds(&materials, 1);
        let t4 = ident_seconds(&materials, 4);
        let speedup = t1 / t4;
        let floor = if cores >= 4 { 1.5 } else { 1.2 };
        println!(
            "bench check: 4-thread fan-out speedup {speedup:.2} (floor {floor}, {cores} cpus)"
        );
        if speedup < floor {
            return Err(format!(
                "4-thread fan-out speedup {speedup:.2} fell below {floor} on a {cores}-cpu host"
            ));
        }
    } else {
        println!("bench check: single-cpu host, fan-out gate skipped");
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--check") {
        let path = args.get(1).map(String::as_str).unwrap_or("BENCH_PR6.json");
        if let Err(msg) = check(path) {
            eprintln!("bench check FAILED: {msg}");
            std::process::exit(1);
        }
        println!("bench check OK");
        return;
    }

    let packets = 100usize;
    let capture_runs = 30usize;

    // Stage 1: simulator capture, cached vs forced-recompute.
    let mut sim = Simulator::new(Scenario::builder().build(), 7);
    sim.set_liquid(Some(Liquid::Milk.into()));
    let cached = time_median(capture_runs, || {
        std::hint::black_box(sim.capture(packets));
    });
    let uncached = time_median(capture_runs, || {
        for _ in 0..packets {
            sim.invalidate_caches();
            std::hint::black_box(sim.packet());
        }
    });

    // Stage 2: identification runs, 1 vs 4 worker threads.
    let materials: Vec<Material> = wimi_experiments::harness::paper_liquids();
    let ident_1 = ident_seconds(&materials, 1);
    let ident_4 = ident_seconds(&materials, 4);

    // Stage 3: steady-state allocation counts of the hot entry points.
    let allocs = steady_state_allocs(packets);
    let (capture_allocs, measure_allocs) = (allocs.capture, allocs.measure);

    // Deterministic work budgets: the exact counters the shared trace
    // campaign produces today. `wimi-trace budget` fails CI if any run
    // ever does MORE work than this — a silent perf/coverage regression.
    let campaign = trace_campaign(Effort::quick());
    render_artifact(&campaign).expect("trace artifact must self-validate");
    let snap = campaign.recorder.snapshot();
    let budget = |name: &str| -> u64 {
        snap.counter(name)
            .unwrap_or_else(|| panic!("campaign snapshot has no counter {name}"))
    };
    let budgets: Vec<(&str, u64)> = vec![
        ("trace_events", campaign.sink.events_emitted()),
        ("captures_taken", budget("captures_taken")),
        ("packets_simulated", budget("packets_simulated")),
        ("measurements_attempted", budget("measurements_attempted")),
        ("pairs_resolved", budget("pairs_resolved")),
        ("svm_machines_trained", budget("svm_machines_trained")),
    ];

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let mut out = String::from("{\n");
    out.push_str(&format!("  \"packets_per_capture\": {packets},\n"));
    out.push_str(&format!("  \"host_cpus\": {cores},\n"));
    out.push_str("  \"simulator_capture\": {\n");
    json_field(&mut out, "    ", "cached_s", cached, false);
    json_field(&mut out, "    ", "uncached_s", uncached, false);
    json_field(&mut out, "    ", "speedup", uncached / cached, true);
    out.push_str("  },\n");
    out.push_str("  \"run_identification_10_liquids\": {\n");
    json_field(&mut out, "    ", "threads_1_s", ident_1, false);
    json_field(&mut out, "    ", "threads_4_s", ident_4, false);
    json_field(&mut out, "    ", "speedup", ident_1 / ident_4, true);
    out.push_str("  },\n");
    out.push_str("  \"throughput\": {\n");
    out.push_str(&format!(
        "    \"measurements_per_run\": {BENCH_MEASUREMENTS},\n"
    ));
    json_field(
        &mut out,
        "    ",
        "meas_per_s_1t",
        BENCH_MEASUREMENTS as f64 / ident_1,
        false,
    );
    json_field(
        &mut out,
        "    ",
        "meas_per_s_4t",
        BENCH_MEASUREMENTS as f64 / ident_4,
        false,
    );
    json_field(
        &mut out,
        "    ",
        "fanout_speedup_4t",
        ident_1 / ident_4,
        false,
    );
    // The committed PR5 artifact was measured on this same workload, so
    // when present its single-thread time gives the refactor's speedup
    // multiple directly.
    if let Some(pr5) = std::fs::read_to_string("BENCH_PR5.json")
        .ok()
        .and_then(|t| json_number(&t, "threads_1_s"))
    {
        json_field(&mut out, "    ", "pr5_threads_1_s", pr5, false);
        json_field(&mut out, "    ", "speedup_vs_pr5_1t", pr5 / ident_1, false);
    }
    out.push_str(&format!(
        "    \"capture_allocs_steady\": {capture_allocs},\n"
    ));
    out.push_str(&format!(
        "    \"measure_allocs_steady\": {measure_allocs},\n"
    ));
    out.push_str(&format!(
        "    \"realise_allocs_steady\": {},\n",
        allocs.realise
    ));
    json_field(
        &mut out,
        "    ",
        "capture_allocs_per_packet",
        capture_allocs as f64 / packets as f64,
        true,
    );
    out.push_str("  },\n");
    out.push_str("  \"work_budgets\": {\n");
    for (i, (name, value)) in budgets.iter().enumerate() {
        let comma = if i + 1 == budgets.len() { "" } else { "," };
        out.push_str(&format!("    \"{name}\": {value}{comma}\n"));
    }
    out.push_str("  }\n}\n");

    std::fs::write("BENCH_PR6.json", &out).expect("write BENCH_PR6.json");
    print!("{out}");
}

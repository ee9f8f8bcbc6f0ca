//! The host gate: `bench_summary --check`.
//!
//! On multi-core hosts it holds the 4-thread fan-out speedup floors of
//! identification and of the serving fleet; both self-skip on one CPU.
//! Exit 1 on any failure, 2 on a usage error. The steady-state allocation
//! ceilings are a `cargo test` (`tests/alloc_budgets.rs`).
//!
//! Run from the workspace root with
//! `cargo run --release -p wimi-bench --bin bench_summary -- --check`.
//! Wall-clock throughput, end to end and per layer, is measured by the
//! benchmark in `wimibench/`.

#![cfg_attr(not(test), deny(clippy::float_cmp))]

use std::time::Instant;
use wimi_experiments::harness::{paper_liquids, run_identification, RunOptions};
use wimi_serve::{run_fleet, FleetConfig};

/// Median wall-clock seconds of three runs of `work` under `threads`
/// workers.
fn median_seconds(threads: usize, work: &dyn Fn()) -> f64 {
    wimi_core::par::set_thread_override(Some(threads));
    let mut samples: Vec<f64> = (0..3)
        .map(|_| {
            #[expect(
                clippy::disallowed_methods,
                reason = "the fan-out floors are wall-clock speedups by definition"
            )]
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

fn check() -> Result<(), String> {
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
    if args != ["--check"] {
        eprintln!("usage: bench_summary --check");
        std::process::exit(2);
    }
    if let Err(msg) = check() {
        eprintln!("bench check FAILED: {msg}");
        std::process::exit(1);
    }
    println!("bench check OK");
}

//! CLI entry point: `cargo run -p wimi-experiments --release -- all`.

#![cfg_attr(not(test), deny(clippy::float_cmp))]

use wimi_experiments::{artifact, campaign, fleet, obs, run_named, trace, Effort, ALL_EXPERIMENTS};

fn usage() -> ! {
    eprintln!(
        "usage: wimi-experiments [--quick] [--obs-json PATH] [--obs-wall] [--trace-out PATH] \
         [--check BENCH] all | environments | <name>...\n       \
         wimi-experiments artifact validate PATH... | diff A B | summary TRACE\n       \
         wimi-experiments campaign-run PATH [--campaign-out DIR] [--cell N] [--check BENCH]\n       \
         wimi-experiments campaign-validate PATH\n       \
         wimi-experiments fleet [--sessions N] [--measurements M] [--campaign PATH] \
[--fleet-out PATH] [--metrics-out PATH] [--slo POLICY] [--check BENCH]\n       \
         wimi-experiments fleet-report SUMMARY [--metrics TIMELINE]"
    );
    eprintln!("experiments: {}", ALL_EXPERIMENTS.join(", "));
    std::process::exit(2);
}

/// Splits `args` into value-flag assignments and positional names. The
/// obs and trace layers share this one surface: every `--flag PATH` pair
/// listed in `value_flags` is consumed uniformly.
fn parse_args<'a>(
    args: &'a [String],
    value_flags: &[&str],
) -> (Vec<(&'a str, &'a str)>, Vec<&'a str>) {
    let mut values = Vec::new();
    let mut names = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if value_flags.contains(&a.as_str()) {
            match it.next() {
                Some(v) => values.push((a.as_str(), v.as_str())),
                None => usage(),
            }
        } else if !a.starts_with("--") {
            names.push(a.as_str());
        }
    }
    (values, names)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let obs_wall = args.iter().any(|a| a == "--obs-wall");
    let effort = if quick {
        Effort::quick()
    } else {
        Effort::full()
    };

    let (values, names) = parse_args(
        &args,
        &[
            "--obs-json",
            "--trace-out",
            "--campaign-out",
            "--cell",
            "--check",
            "--sessions",
            "--measurements",
            "--campaign",
            "--fleet-out",
            "--metrics-out",
            "--slo",
            "--metrics",
        ],
    );
    let flag = |name: &str| values.iter().find(|(f, _)| *f == name).map(|&(_, v)| v);
    let obs_json = flag("--obs-json");
    let trace_out = flag("--trace-out");

    if names.is_empty() || names == ["help"] {
        usage();
    }

    // Subcommands that run no experiments.
    if names[0] == "artifact" {
        std::process::exit(artifact::run(&names[1..]));
    }
    if names[0] == "campaign-validate" {
        match names.get(1) {
            Some(path) => campaign::campaign_validate(path),
            None => usage(),
        }
        return;
    }
    if names[0] == "campaign-run" {
        let Some(path) = names.get(1) else { usage() };
        let cell = flag("--cell").map(|v| match v.parse::<u64>() {
            Ok(n) => n,
            Err(_) => usage(),
        });
        campaign::campaign_run(path, flag("--campaign-out"), cell, flag("--check"));
        return;
    }
    if names[0] == "fleet-report" {
        match names.get(1) {
            Some(path) => fleet::fleet_report(path, flag("--metrics")),
            None => usage(),
        }
        return;
    }
    if names[0] == "fleet" {
        let sessions = flag("--sessions").map(|v| match v.parse::<usize>() {
            Ok(n) => n,
            Err(_) => usage(),
        });
        let measurements = flag("--measurements").map(|v| match v.parse::<u64>() {
            Ok(n) => n,
            Err(_) => usage(),
        });
        fleet::fleet_run(
            sessions,
            measurements,
            flag("--campaign"),
            flag("--fleet-out"),
            flag("--metrics-out"),
            flag("--slo"),
            flag("--check"),
        );
        return;
    }

    #[expect(
        clippy::disallowed_methods,
        reason = "the closing \"completed in\" line goes to stderr, never into a result"
    )]
    let started = std::time::Instant::now();
    if names == ["all"] {
        for name in ALL_EXPERIMENTS {
            assert!(run_named(name, effort), "unknown experiment {name}");
        }
        assert!(run_named("environments", effort));
    } else {
        for name in &names {
            // The obs and trace reports take CLI-only options (export
            // paths, wall-clock timings) that `run_named` cannot carry.
            if *name == "obs-report" {
                obs::obs_report(effort, obs_json, obs_wall);
                continue;
            }
            if *name == "trace-report" {
                trace::trace_report(effort, trace_out, flag("--check"));
                continue;
            }
            if !run_named(name, effort) {
                eprintln!("unknown experiment: {name}");
                eprintln!("experiments: {}", ALL_EXPERIMENTS.join(", "));
                std::process::exit(2);
            }
        }
    }
    eprintln!("\ncompleted in {:.1}s", started.elapsed().as_secs_f64());
}

//! Campaign-level integration tests (ISSUE PR7 acceptance):
//!
//! - a scheduled fault ramp inside one cell reproduces the shape of the
//!   PR2 degradation curve (accuracy decays as the ramp climbs);
//! - per-cell artifacts are byte-identical across `WIMI_THREADS` settings
//!   and when a single cell is replayed in isolation from its seed;
//! - malformed campaign text fails with single-line errors, mirroring the
//!   `artifact validate` conventions.

use wimi_campaign::{expand, parse};
use wimi_experiments::campaign::{run_campaign, run_cell};

/// One cell, five materials, a fault ramp at measurement boundaries 4 and
/// 8. Trial counts are chosen so each segment holds 4 trials × 5
/// materials = 20 measurements.
const RAMP: &str = "campaign ramp\n\
                    seed 0xACC0\n\
                    fault_seed 0xFA17\n\
                    train 10\n\
                    test 12\n\
                    axis materials = PureWater+Milk+Honey+Oil+Soy\n\
                    axis packets = 20\n\
                    at 4 fault 0.2\n\
                    at 8 fault 0.5\n";

#[test]
fn scheduled_fault_ramp_reproduces_degradation_curve() {
    let c = parse(RAMP).expect("ramp campaign parses");
    let cells = expand(&c);
    assert_eq!(cells.len(), 1);
    let outcome = run_cell(&c, &cells[0]);

    assert_eq!(outcome.segments.len(), 3, "base + two ramp segments");
    let accs: Vec<f64> = outcome.segments.iter().map(|s| s.accuracy()).collect();
    assert!(
        accs[0] > 0.6,
        "clean segment should classify well, got {accs:?}"
    );
    // The PR2 degradation shape: accuracy decays as the ramp climbs, with
    // a small allowance for per-segment sampling noise.
    assert!(
        accs.windows(2).all(|w| w[1] <= w[0] + 0.05),
        "accuracy should decay along the ramp, got {accs:?}"
    );
    assert!(
        accs[2] < accs[0],
        "the hostile end of the ramp must cost accuracy, got {accs:?}"
    );
}

/// All `WIMI_THREADS` manipulation lives in this one test so no other
/// test in the binary races the environment. The determinism contract
/// makes the setting output-invariant anyway — that is what is asserted.
#[test]
fn cell_artifacts_are_byte_identical_across_thread_counts_and_replay() {
    const GRID: &str = "campaign grid\n\
                        seed 31337\n\
                        train 3\n\
                        test 3\n\
                        axis materials = PureWater+Honey, Milk+Oil\n\
                        axis intensity = 0, 0.4\n\
                        axis packets = 10\n\
                        at 1 dropout 0.5\n";
    let c = parse(GRID).expect("grid campaign parses");

    wimi::core::par::set_thread_override(Some(4));
    let parallel = run_campaign(&c);
    wimi::core::par::set_thread_override(Some(1));
    let serial = run_campaign(&c);
    wimi::core::par::set_thread_override(None);

    assert_eq!(parallel.cells.len(), 4);
    for (a, b) in serial.cells.iter().zip(&parallel.cells) {
        assert_eq!(a.index, b.index);
        assert_eq!(
            a.artifact, b.artifact,
            "cell {} artifact differs between WIMI_THREADS=1 and 4",
            a.index
        );
    }

    // Replaying one cell in isolation from its recorded seed reproduces
    // the full run's artifact byte for byte, with the cell's own trials
    // fanned out over four workers against the one-worker full run.
    let cells = expand(&c);
    wimi::core::par::set_thread_override(Some(4));
    let replayed = run_cell(&c, &cells[2]);
    wimi::core::par::set_thread_override(None);
    assert_eq!(replayed.seed, serial.cells[2].seed);
    assert_eq!(replayed.artifact, serial.cells[2].artifact);
}

#[test]
fn untrainable_cell_scores_nothing_and_drops_nothing() {
    // The parser insists on at least one training trial; zero of them
    // is the plainest untrainable cell.
    let mut c = parse(
        "campaign bare\ntest 3\naxis materials = PureWater+Honey\n\
         axis packets = 10\nat 1 fault 0.5\n",
    )
    .expect("campaign parses");
    c.train = 0;
    let outcome = run_cell(&c, &expand(&c)[0]);
    assert_eq!(outcome.accuracy, 0.0);
    assert_eq!(outcome.segments.len(), 2);
    assert!(outcome.segments.iter().all(|s| s.total == 0));
    // The skipped test phase is not counted as dropped, so the cell's
    // count and its recorder's agree (the rule the benchmark's campaign
    // conservation check reads).
    let recorded = outcome
        .counters
        .iter()
        .find(|(name, _)| *name == "trials_dropped")
        .map_or(0, |&(_, v)| v);
    assert_eq!(outcome.dropped, 0);
    assert_eq!(recorded, 0);
    wimi::trace::artifact::parse_and_validate(&outcome.artifact).expect("artifact validates");
}

#[test]
fn malformed_campaigns_fail_with_single_line_errors() {
    let cases = [
        "",
        "seed 4\n",
        "campaign x\nseed beef\n",
        "campaign x\naxis moon = 1\n",
        "campaign x\naxis materials = Vinegar\n",
        "campaign x\ntest 3\nat 9 fault 0.5\n",
        "campaign x\nat 0 explode 1\n",
        "campaign x\naxis intensity = 99\n",
    ];
    for text in cases {
        let err = parse(text).expect_err(text);
        let msg = err.to_string();
        assert!(!msg.contains('\n'), "multi-line error for {text:?}: {msg}");
        assert!(
            msg.starts_with("line ") && msg.contains(", col "),
            "error must carry a position: {msg}"
        );
    }
}

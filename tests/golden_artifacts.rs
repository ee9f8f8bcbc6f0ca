//! Golden bytes of every artifact renderer.
//!
//! Each of the five schemas — `wimi-obs/1`, `wimi-trace/1`,
//! `wimi-campaign/1` (summary plus one cell artifact), `wimi-serve/1` and
//! `wimi-metrics/1` — plus the canonical campaign file and the fleet
//! report is rendered from a small fixed run and hashed with FNV-1a over
//! its bytes. CI's `cmp` steps compare two runs of one binary, so they
//! cannot see a byte change between commits; these constants can. They
//! also catch a nondeterminism source reaching a renderer by any route,
//! `dyn` dispatch included.
//! A refactor that claims to keep every artifact's bytes must leave them
//! unchanged. A deliberate format or numerics change re-records the
//! affected constants and says so.

use std::sync::Arc;

use wimi::metrics::render_report;
use wimi::obs::Recorder;
use wimi::phy::material::Liquid;
use wimi::serve::{run_fleet, summary_json, FleetConfig, ServeConfig};
use wimi::trace::{artifact, TraceSink};
use wimi_experiments::campaign::{run_campaign, summary_json as campaign_summary_json};
use wimi_experiments::harness::{run_identification, Material, RunOptions};

const OBS: u64 = 0x0c4f_72d2_91df_a3fc;
const TRACE: u64 = 0x8e30_8acd_4e6b_833d;
const CAMPAIGN: u64 = 0xd957_1237_950f_e9e7;
const CELL: u64 = 0xad6a_6e4d_d866_95e4;
const SERVE: u64 = 0x466a_abc9_299c_8bf5;
const METRICS: u64 = 0x3926_cd91_15cc_cbe7;
const CAMPAIGN_FILE: u64 = 0xfd14_a5da_59a1_32f1;
const FLEET_REPORT: u64 = 0xc762_426d_c59f_b7de;

/// A four-cell campaign with a scheduled fault step.
const CAMPAIGN_TEXT: &str = "campaign golden\n\
                             seed 0x601D\n\
                             fault_seed 0xFA17\n\
                             train 2\n\
                             test 2\n\
                             axis materials = PureWater+Honey, Milk+Oil\n\
                             axis packets = 8\n\
                             axis intensity = 0, 0.2\n\
                             at 1 fault 0.4\n";

/// FNV-1a over bytes.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Every renderer's text, labelled with its pinned fingerprint.
fn rendered() -> Vec<(&'static str, String, u64)> {
    // One traced identification run gives the obs snapshot and the trace.
    let recorder = Arc::new(Recorder::enabled());
    let sink = TraceSink::enabled();
    let materials: Vec<Material> = [Liquid::PureWater, Liquid::Milk, Liquid::Oil]
        .into_iter()
        .map(Material::catalog)
        .collect();
    run_identification(
        &materials,
        &RunOptions {
            n_train: 2,
            n_test: 2,
            packets: 8,
            seed: 0x601D,
            recorder: Some(Arc::clone(&recorder)),
            trace: Some(Arc::clone(&sink)),
            ..RunOptions::default()
        },
    );
    let obs = recorder.snapshot().to_json();
    let trace = artifact::render(&sink.flush(), Some(&obs));

    let campaign = wimi::campaign::parse(CAMPAIGN_TEXT).expect("golden campaign parses");
    let outcome = run_campaign(&campaign);
    assert_eq!(outcome.cells.len(), 4);
    let cell = outcome.cells[3].artifact.clone();
    let summary = campaign_summary_json(&outcome);

    let report = run_fleet(&FleetConfig {
        sessions: 4,
        measurements: 3,
        packets: 8,
        serve: ServeConfig {
            shards: 2,
            queue_bound: 1,
            train_per_class: 2,
            ..ServeConfig::default()
        },
        ..FleetConfig::default()
    });
    let serve = summary_json(&report);
    let metrics = wimi::metrics::render(&report.timeline, Some(&report.engine_snapshot.to_json()));
    let fleet_report = render_report(&report.per_session, Some(&report.timeline));

    vec![
        ("wimi-obs/1", obs, OBS),
        ("wimi-trace/1", trace, TRACE),
        ("wimi-campaign/1", summary, CAMPAIGN),
        ("wimi-trace/1 campaign cell", cell, CELL),
        ("wimi-serve/1", serve, SERVE),
        ("wimi-metrics/1", metrics, METRICS),
        ("campaign file", campaign.render(), CAMPAIGN_FILE),
        ("fleet report", fleet_report, FLEET_REPORT),
    ]
}

#[test]
fn every_artifact_schema_matches_its_golden_fingerprint() {
    let mut changed = Vec::new();
    for (schema, text, golden) in rendered() {
        let tag = schema.split(' ').next().unwrap_or(schema);
        assert!(text.contains(tag), "{schema} artifact lacks its tag");
        let got = fnv1a(&text);
        if got != golden {
            changed.push(format!("{schema}: {got:#018x}, golden {golden:#018x}"));
        }
    }
    assert!(
        changed.is_empty(),
        "artifact bytes changed:\n{}",
        changed.join("\n")
    );
}

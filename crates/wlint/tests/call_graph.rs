//! Integration tests for the interprocedural rules over small fixture
//! workspaces under `tests/fixtures/graph/`. Each tree is a miniature
//! `crates/*/src` layout linted through the same entry point the CLI
//! uses, so resolution, BFS attribution, and path rendering are all
//! exercised end to end.

use std::path::PathBuf;

use wimi_lint::{lint_workspace, LintReport, Rule};

fn fixture_root(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/graph")
        .join(name)
}

fn lint(name: &str) -> LintReport {
    lint_workspace(&fixture_root(name)).expect("fixture tree lints")
}

#[test]
fn hot_path_alloc_crosses_crates_through_a_use_rename() {
    let report = lint("hot2");
    let hpa: Vec<_> = report
        .violations
        .iter()
        .filter(|v| v.rule == Rule::HotPathAlloc)
        .collect();
    assert_eq!(hpa.len(), 1, "violations: {:#?}", report.violations);
    let v = hpa[0];
    // The violation is attributed to the sink site, two hops from the root.
    assert_eq!(v.file, "crates/appb/src/helpers.rs");
    assert!(
        v.message.contains("hot `hot_entry` → `mid` → `grow`"),
        "full call path missing from: {}",
        v.message
    );
    assert!(v.message.contains("`vec!`"), "sink detail: {}", v.message);
}

#[test]
fn panic_reach_crosses_two_hops_from_a_hot_root() {
    let report = lint("panic2");
    let pr: Vec<_> = report
        .violations
        .iter()
        .filter(|v| v.rule == Rule::PanicReach)
        .collect();
    assert_eq!(pr.len(), 1, "violations: {:#?}", report.violations);
    let v = pr[0];
    assert!(
        v.message.contains("hot `hot_entry` → `step` → `pick`"),
        "full call path missing from: {}",
        v.message
    );
    assert!(
        v.message.contains("slice index"),
        "sink detail: {}",
        v.message
    );
}

#[test]
fn path_level_pragma_suppresses_the_whole_chain() {
    let report = lint("suppressed");
    assert!(
        report.violations.is_empty(),
        "expected clean tree, got: {:#?}",
        report.violations
    );
    let s: Vec<_> = report
        .suppressed
        .iter()
        .filter(|s| s.rule == Rule::HotPathAlloc)
        .collect();
    assert_eq!(s.len(), 1, "suppressed: {:#?}", report.suppressed);
    assert!(s[0].reason.contains("one-time pool growth"));
}

#[test]
fn trait_dispatch_over_approximates_and_cycles_terminate() {
    let report = lint("traits");
    let hpa: Vec<_> = report
        .violations
        .iter()
        .filter(|v| v.rule == Rule::HotPathAlloc)
        .collect();
    // One violation through the trait impl (the receiver-less method call
    // links to every `render_out`, so the allocating `Slow` impl is
    // reachable even though the root holds a `Fast`), one through the
    // mutually recursive ping/pong cycle.
    assert_eq!(hpa.len(), 2, "violations: {:#?}", report.violations);
    let via_trait = hpa
        .iter()
        .find(|v| v.message.contains("Slow::render_out"))
        .expect("trait-impl violation present");
    assert!(
        via_trait
            .message
            .contains("hot `hot_entry` → `Slow::render_out`"),
        "trait path: {}",
        via_trait.message
    );
    let via_cycle = hpa
        .iter()
        .find(|v| v.message.contains("`grow`"))
        .expect("cycle violation present");
    assert!(
        via_cycle
            .message
            .contains("hot `hot_cycle` → `ping` → `pong` → `grow`"),
        "cycle path: {}",
        via_cycle.message
    );
    assert!(via_cycle.message.contains(".to_vec()"));
}

#[test]
fn receiver_calls_never_reach_a_dependencys_private_method() {
    let report = lint("collide");
    let hpa: Vec<&str> = report
        .violations
        .iter()
        .filter(|v| v.rule == Rule::HotPathAlloc)
        .map(|v| v.message.as_str())
        .collect();
    // `.value()` names the caller's own accessor; the dependency's
    // private `Parser::value` shares the name but is not callable here.
    assert!(
        hpa.iter().all(|m| !m.contains("Parser::value")),
        "name-collision edge: {hpa:#?}"
    );
    // Public and trait methods stay over-approximated by name.
    assert_eq!(hpa.len(), 2, "violations: {:#?}", report.violations);
    assert!(
        hpa.iter()
            .any(|m| m.contains("hot `hot_entry` → `Shared::grow_shared`")),
        "{hpa:#?}"
    );
    assert!(
        hpa.iter()
            .any(|m| m.contains("hot `hot_entry` → `Shared::fill`")),
        "{hpa:#?}"
    );
}

//! Fixture-driven rule coverage: every rule has a known-bad snippet that
//! must fire and a clean (or pragma-suppressed) snippet that must pass.
//! (The fixtures of the rules clippy now enforces live in `tests/clippy/`
//! at the workspace root, checked by the CI clippy job.)

use wimi_lint::{lint_source, Rule};

/// Reads `tests/fixtures/<rule>/<kind>.rs`.
fn fixture(rule: &str, kind: &str) -> String {
    let path = format!(
        "{}/tests/fixtures/{}/{}.rs",
        env!("CARGO_MANIFEST_DIR"),
        rule,
        kind
    );
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"))
}

/// The virtual workspace path each rule's fixture is linted under (rules
/// are scoped by crate and file name).
fn virtual_path(rule: Rule) -> &'static str {
    match rule {
        // App crate: `panic-reach` leaves library panic sites to clippy.
        Rule::PanicReach => "crates/experiments/src/fixture.rs",
        _ => "crates/wiphy/src/fixture.rs",
    }
}

fn check_rule(rule: Rule) {
    let path = virtual_path(rule);

    let bad = lint_source(path, &fixture(rule.name(), "bad"));
    assert!(
        bad.violations.iter().any(|v| v.rule == rule),
        "{}/bad.rs must fire [{}]; got {:?}",
        rule.name(),
        rule.name(),
        bad.violations
    );

    let clean = lint_source(path, &fixture(rule.name(), "clean"));
    assert!(
        clean.violations.is_empty(),
        "{}/clean.rs must pass; got {:?}",
        rule.name(),
        clean.violations
    );
}

#[test]
fn bad_pragma_fires_on_an_unknown_rule_name() {
    let bad = lint_source(virtual_path(Rule::BadPragma), &fixture("bad-pragma", "bad"));
    let fired = |line: u32, text: &str| {
        bad.violations
            .iter()
            .any(|v| v.rule == Rule::BadPragma && v.line == line && v.message.contains(text))
    };
    assert!(
        fired(5, "panik"),
        "the `allow(panik)` typo must be reported; got {:?}",
        bad.violations
    );
    assert!(
        fired(8, "unrecognised wlint pragma"),
        "the retired artifact marker must be reported; got {:?}",
        bad.violations
    );
}

#[test]
fn unit_newtype_fixture() {
    check_rule(Rule::UnitNewtype);
}

#[test]
fn bad_pragma_fixture() {
    check_rule(Rule::BadPragma);
}

#[test]
fn hot_path_alloc_fixture() {
    check_rule(Rule::HotPathAlloc);
}

#[test]
fn panic_reach_fixture() {
    check_rule(Rule::PanicReach);
}

#[test]
fn panic_reach_message_carries_the_full_call_path() {
    let bad = lint_source(
        virtual_path(Rule::PanicReach),
        &fixture("panic-reach", "bad"),
    );
    let v = bad
        .violations
        .iter()
        .find(|v| v.rule == Rule::PanicReach)
        .expect("panic-reach fires");
    assert!(
        v.message.contains("hot `hot_entry` → `step` → `pick`"),
        "2-hop path missing from: {}",
        v.message
    );
    assert_eq!(v.line, 14, "violation anchors at the sink, not the root");
}

#[test]
fn hot_marker_before_impl_is_reported_unbound_not_rebound() {
    // Regression: the marker must not skip the `impl` line and silently
    // mark the method inside it hot.
    let report = lint_source(
        "crates/wiphy/src/fixture.rs",
        &fixture("hot-path-alloc", "impl_marker"),
    );
    assert_eq!(
        report.violations.len(),
        1,
        "exactly the unbound-marker finding; got {:?}",
        report.violations
    );
    let v = &report.violations[0];
    assert_eq!(v.rule, Rule::HotPathAlloc);
    assert_eq!(v.line, 6, "anchors at the marker line");
    assert!(v.message.contains("does not precede"), "got: {}", v.message);
    assert!(v.message.contains("`impl`"), "got: {}", v.message);
}

#[test]
fn pragma_suppressions_are_recorded_not_dropped() {
    // The pragma'd clean fixtures must report their suppressions so the
    // allow-list stays auditable.
    for rule in [Rule::HotPathAlloc, Rule::BadPragma] {
        let clean = lint_source(virtual_path(rule), &fixture(rule.name(), "clean"));
        assert!(
            !clean.suppressed.is_empty(),
            "{}/clean.rs should record a suppression",
            rule.name()
        );
        for s in &clean.suppressed {
            assert!(!s.reason.is_empty(), "suppression must carry a reason");
        }
    }
}

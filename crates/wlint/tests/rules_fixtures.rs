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

/// The virtual workspace path the fixtures are linted under: a unit-safe
/// crate, so `unit-newtype` applies.
const PATH: &str = "crates/wiphy/src/fixture.rs";

fn check_rule(rule: Rule) {
    let bad = lint_source(PATH, &fixture(rule.name(), "bad"));
    assert!(
        bad.violations.iter().any(|v| v.rule == rule),
        "{}/bad.rs must fire [{}]; got {:?}",
        rule.name(),
        rule.name(),
        bad.violations
    );

    let clean = lint_source(PATH, &fixture(rule.name(), "clean"));
    assert!(
        clean.violations.is_empty(),
        "{}/clean.rs must pass; got {:?}",
        rule.name(),
        clean.violations
    );
}

#[test]
fn bad_pragma_fires_on_an_unknown_rule_name() {
    let bad = lint_source(PATH, &fixture("bad-pragma", "bad"));
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
    assert!(
        fired(11, "unrecognised wlint pragma"),
        "the retired hot marker must be reported; got {:?}",
        bad.violations
    );
    for (line, rule) in [(13, "hot-path-alloc"), (15, "panic-reach")] {
        assert!(
            fired(line, &format!("`allow({rule})` names no wimi-lint rule")),
            "the retired `{rule}` pragma must be reported; got {:?}",
            bad.violations
        );
    }
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
fn pragma_suppressions_are_recorded_not_dropped() {
    // The pragma'd clean fixture must report its suppression so the
    // allow-list stays auditable.
    let clean = lint_source(PATH, &fixture("bad-pragma", "clean"));
    assert_eq!(clean.suppressed.len(), 1, "{:?}", clean.suppressed);
    assert!(!clean.suppressed[0].reason.is_empty());
}

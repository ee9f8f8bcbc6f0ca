//! The lint rules: the two per-file checks clippy cannot make
//! (`unit-newtype`, `bad-pragma`). The site-level determinism, panic,
//! index and float rules are clippy lints (root `clippy.toml`, crate-root
//! and per-file lint levels; DESIGN §9), and the steady-state allocation
//! ceilings are `tests/alloc_budgets.rs` (DESIGN §12.4).
//!
//! Every rule is named, documented and individually suppressable with an
//! inline pragma on (or immediately above) the offending line:
//!
//! ```text
//! // wlint: allow(<rule>) — <why this occurrence is sound>
//! ```
//!
//! The justification is mandatory; a pragma without one is itself reported.

use crate::lexer::{lex, LexOutput, Tok, Token};

/// The library crates whose non-test code must stay panic-free: errors flow
/// through the `wimi_core::error` taxonomy. Each crate root denies clippy's
/// panic-family lints (`tests/workspace_clean.rs` checks the wiring).
pub const LIBRARY_CRATES: [&str; 8] = [
    "wiphy",
    "wdsp",
    "wml",
    "core",
    "wobs",
    "wtrace",
    "wcampaign",
    "wserve",
];

/// Crates whose public `f64` parameters must use the `units.rs` newtypes
/// when dimensionally named.
pub const UNIT_SAFE_CRATES: [&str; 2] = ["wiphy", "core"];

/// Parameter-name segments (split on `_`) that denote a physical dimension
/// and therefore demand a `Meters`/`Hertz`/`Seconds` newtype over raw `f64`.
const DIMENSIONAL_SEGMENTS: [&str; 24] = [
    "freq",
    "freqs",
    "frequency",
    "dist",
    "distance",
    "delay",
    "delays",
    "len",
    "length",
    "d",
    "dur",
    "duration",
    "sec",
    "secs",
    "seconds",
    "wavelength",
    "spacing",
    "radius",
    "diameter",
    "height",
    "width",
    "depth",
    "offset",
    "time",
];

/// Every rule the linter enforces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// A public `fn` in a unit-safe crate taking a dimensionally named raw
    /// `f64` parameter instead of a `units.rs` newtype.
    UnitNewtype,
    /// A malformed `wlint:` pragma (bad syntax, an unknown rule name or a
    /// missing justification).
    BadPragma,
}

impl Rule {
    /// The rule's stable name, used in pragmas and reports.
    pub fn name(self) -> &'static str {
        match self {
            Rule::UnitNewtype => "unit-newtype",
            Rule::BadPragma => "bad-pragma",
        }
    }

    /// Looks a rule up by its stable name (for `--explain`).
    pub fn from_name(name: &str) -> Option<Rule> {
        Rule::ALL.into_iter().find(|r| r.name() == name)
    }

    /// All rules, for `--list-rules` style reporting.
    pub const ALL: [Rule; 2] = [Rule::UnitNewtype, Rule::BadPragma];

    /// One-line description of the invariant the rule protects.
    pub fn description(self) -> &'static str {
        match self {
            Rule::UnitNewtype => "dimensional public fn params must use unit newtypes, not f64",
            Rule::BadPragma => "wlint pragmas must name a rule and give a justification",
        }
    }

    /// The long-form rationale printed by `wimi-lint --explain <rule>`.
    pub fn explain(self) -> &'static str {
        match self {
            Rule::UnitNewtype => {
                "Public APIs in wiphy/core mix metres, hertz and seconds; a raw `f64` \
                 parameter named like a dimension (freq_hz, distance_m) invites silent \
                 unit swaps at call sites. Take the units.rs newtypes \
                 (Meters/Hertz/Seconds) instead."
            }
            Rule::BadPragma => {
                "Suppressions are part of the audit trail: every \
                 `// wlint: allow(<rule>)` must name a real rule and carry a \
                 justification after an em dash/hyphen/colon. A malformed pragma would \
                 otherwise silently suppress nothing (or the wrong thing). Clippy lints \
                 are not wlint rules: a sanctioned clippy site takes \
                 `#[expect(clippy::<lint>, reason = \"...\")]`, which fails once it goes \
                 stale. The retired `// wlint: hot` marker and `allow(hot-path-alloc)` / \
                 `allow(panic-reach)` pragmas are reported too: allocation is held by \
                 tests/alloc_budgets.rs and slice indexing by clippy::indexing_slicing."
            }
        }
    }
}

/// One rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which rule fired.
    pub rule: Rule,
    /// Workspace-relative path of the file.
    pub file: String,
    /// 1-based line number.
    pub line: u32,
    /// Human-readable detail.
    pub message: String,
}

/// One suppressed (pragma-allowed) occurrence, recorded for the report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Suppression {
    /// The rule that would have fired.
    pub rule: Rule,
    /// Workspace-relative path of the file.
    pub file: String,
    /// 1-based line of the suppressed occurrence.
    pub line: u32,
    /// The justification written in the pragma.
    pub reason: String,
    /// What the violation would have said.
    pub message: String,
}

/// Result of linting one file.
#[derive(Debug, Default)]
pub struct FileReport {
    /// Unsuppressed violations, sorted by (line, rule, message).
    pub violations: Vec<Violation>,
    /// Pragma-suppressed occurrences, same order.
    pub suppressed: Vec<Suppression>,
}

/// Lints one file. A finding is suppressed by a pragma naming its rule at
/// the site: a standalone pragma covers the next 3 lines, a trailing
/// pragma its own line. A clippy `#[expect]` vouches nothing here.
pub fn lint_source(rel_path: &str, source: &str) -> FileReport {
    let lexed = lex(source);
    let mut report = FileReport::default();
    'findings: for v in scan_file(rel_path, &lexed) {
        for p in &lexed.pragmas {
            let covers = if p.standalone {
                v.line > p.line && v.line <= p.line + 3
            } else {
                v.line == p.line
            };
            if covers && p.rule == v.rule.name() {
                report.suppressed.push(Suppression {
                    rule: v.rule,
                    file: v.file,
                    line: v.line,
                    reason: p.reason.clone(),
                    message: v.message,
                });
                continue 'findings;
            }
        }
        report.violations.push(v);
    }
    report.violations.sort_by(|a, b| {
        (a.line, a.rule.name(), &a.message).cmp(&(b.line, b.rule.name(), &b.message))
    });
    report.suppressed.sort_by(|a, b| {
        (a.line, a.rule.name(), &a.message).cmp(&(b.line, b.rule.name(), &b.message))
    });
    report
}

/// The per-file rules: malformed or unknown pragmas and `unit-newtype`.
/// The lexer does not know the rules, so pragma names are checked here.
fn scan_file(rel_path: &str, lexed: &LexOutput) -> Vec<Violation> {
    let bad_pragma = |line: u32, message: String| Violation {
        rule: Rule::BadPragma,
        file: rel_path.to_string(),
        line,
        message,
    };
    let mut found: Vec<Violation> = lexed
        .bad_pragmas
        .iter()
        .map(|(line, msg)| bad_pragma(*line, msg.clone()))
        .collect();
    for p in &lexed.pragmas {
        if Rule::from_name(&p.rule).is_none() {
            found.push(bad_pragma(
                p.line,
                format!(
                    "`allow({})` names no wimi-lint rule (see --list-rules); clippy lints take `#[expect(clippy::…, reason = \"…\")]`",
                    p.rule
                ),
            ));
        }
    }
    if UNIT_SAFE_CRATES.contains(&crate_of(rel_path)) {
        let regions = test_regions(&lexed.tokens);
        let in_test = |line: u32| regions.iter().any(|&(a, b)| line >= a && line <= b);
        scan_unit_newtype(rel_path, &lexed.tokens, &in_test, &mut found);
    }
    found
}

/// Derives the crate short name from a workspace-relative path
/// (`crates/wiphy/src/csi.rs` → `wiphy`; the facade `src/lib.rs` → `wimi`).
fn crate_of(rel_path: &str) -> &str {
    let parts: Vec<&str> = rel_path.split('/').collect();
    if parts.len() >= 2 && parts[0] == "crates" {
        parts[1]
    } else {
        "wimi"
    }
}

/// Inclusive line ranges covered by `#[test]` / `#[cfg(test)]` items.
fn test_regions(tokens: &[Token]) -> Vec<(u32, u32)> {
    let mut regions = Vec::new();
    let mut i = 0usize;
    while i + 1 < tokens.len() {
        if tokens[i].kind != Tok::Punct("#") || tokens[i + 1].kind != Tok::Punct("[") {
            i += 1;
            continue;
        }
        let attr_start_line = tokens[i].line;
        let mut depth = 0usize;
        let mut j = i + 1;
        let mut attr_idents: Vec<&str> = Vec::new();
        let mut attr_end = None;
        while j < tokens.len() {
            match &tokens[j].kind {
                Tok::Punct("[") => depth += 1,
                Tok::Punct("]") => {
                    depth -= 1;
                    if depth == 0 {
                        attr_end = Some(j);
                        break;
                    }
                }
                Tok::Ident(s) => attr_idents.push(s.as_str()),
                _ => {}
            }
            j += 1;
        }
        let Some(attr_end) = attr_end else { break };
        let is_test_attr = match attr_idents.first() {
            Some(&"test") => true,
            Some(&"cfg") => attr_idents.contains(&"test") && !attr_idents.contains(&"not"),
            _ => false,
        };
        if !is_test_attr {
            i = attr_end + 1;
            continue;
        }
        // Find the item body: the first `{` before a top-level `;`.
        let mut k = attr_end + 1;
        let mut body_open = None;
        while k < tokens.len() {
            match tokens[k].kind {
                Tok::Punct("{") => {
                    body_open = Some(k);
                    break;
                }
                Tok::Punct(";") => break,
                _ => k += 1,
            }
        }
        let Some(open) = body_open else {
            i = attr_end + 1;
            continue;
        };
        let close = match_brace(tokens, open);
        regions.push((attr_start_line, tokens[close].line));
        i = close + 1;
    }
    regions
}

/// Index of the `}` matching the `{` at `open` (or the last token when the
/// file is truncated mid-item).
fn match_brace(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0usize;
    for (n, t) in tokens.iter().enumerate().skip(open) {
        match t.kind {
            Tok::Punct("{") => depth += 1,
            Tok::Punct("}") => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return n;
                }
            }
            _ => {}
        }
    }
    tokens.len().saturating_sub(1)
}

/// Scans for `pub fn` signatures taking dimensionally named raw `f64`
/// parameters.
fn scan_unit_newtype(
    rel_path: &str,
    tokens: &[Token],
    in_test: &dyn Fn(u32) -> bool,
    found: &mut Vec<Violation>,
) {
    let mut i = 0usize;
    while i < tokens.len() {
        if !matches!(&tokens[i].kind, Tok::Ident(s) if s == "pub") {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        // Skip a `pub(crate)` / `pub(super)` visibility qualifier.
        if matches!(tokens.get(j).map(|t| &t.kind), Some(Tok::Punct("("))) {
            let mut depth = 0usize;
            while j < tokens.len() {
                match tokens[j].kind {
                    Tok::Punct("(") => depth += 1,
                    Tok::Punct(")") => {
                        depth -= 1;
                        if depth == 0 {
                            j += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
        }
        // Skip `const` / `async` / `unsafe` / `extern` qualifiers.
        while matches!(
            tokens.get(j).map(|t| &t.kind),
            Some(Tok::Ident(s)) if matches!(s.as_str(), "const" | "async" | "unsafe" | "extern")
        ) {
            j += 1;
        }
        if !matches!(tokens.get(j).map(|t| &t.kind), Some(Tok::Ident(s)) if s == "fn") {
            i += 1;
            continue;
        }
        let Some(Tok::Ident(fn_name)) = tokens.get(j + 1).map(|t| &t.kind) else {
            i = j + 1;
            continue;
        };
        let fn_name = fn_name.clone();
        let fn_line = tokens[j].line;
        // Skip generics (angle depth; `->`/`=>` are fused so `>` inside
        // them cannot miscount) to reach the parameter list.
        let mut k = j + 2;
        if matches!(tokens.get(k).map(|t| &t.kind), Some(Tok::Punct("<"))) {
            let mut angle = 0isize;
            while k < tokens.len() {
                match tokens[k].kind {
                    Tok::Punct("<") | Tok::Punct("<=") => angle += 1,
                    Tok::Punct(">") | Tok::Punct(">=") => {
                        angle -= 1;
                        if angle == 0 {
                            k += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                k += 1;
            }
        }
        if !matches!(tokens.get(k).map(|t| &t.kind), Some(Tok::Punct("("))) {
            i = k;
            continue;
        }
        // Walk the parameter list, splitting on top-level commas.
        let mut depth = 0usize;
        let mut param: Vec<&Token> = Vec::new();
        let mut params: Vec<Vec<&Token>> = Vec::new();
        while k < tokens.len() {
            let t = &tokens[k];
            match t.kind {
                Tok::Punct("(") | Tok::Punct("[") | Tok::Punct("{") => {
                    if depth > 0 {
                        param.push(t);
                    }
                    depth += 1;
                }
                Tok::Punct(")") | Tok::Punct("]") | Tok::Punct("}") => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                    param.push(t);
                }
                Tok::Punct(",") if depth == 1 => {
                    params.push(std::mem::take(&mut param));
                }
                _ => {
                    if depth >= 1 {
                        param.push(t);
                    }
                }
            }
            k += 1;
        }
        if !param.is_empty() {
            params.push(param);
        }
        if !in_test(fn_line) {
            for p in &params {
                check_param(rel_path, &fn_name, p, found);
            }
        }
        i = k + 1;
    }
}

/// Flags a single `name: f64` parameter whose name is dimensional.
fn check_param(rel_path: &str, fn_name: &str, param: &[&Token], found: &mut Vec<Violation>) {
    // Find the top-level `:` separating pattern from type.
    let colon = param.iter().position(|t| t.kind == Tok::Punct(":"));
    let Some(colon) = colon else { return };
    // The type must be exactly `f64`.
    let ty: Vec<&&Token> = param[colon + 1..].iter().collect();
    if ty.len() != 1 || !matches!(&ty[0].kind, Tok::Ident(s) if s == "f64") {
        return;
    }
    // The binding name is the last identifier before the colon.
    let Some(name_tok) = param[..colon]
        .iter()
        .rev()
        .find(|t| matches!(t.kind, Tok::Ident(_)))
    else {
        return;
    };
    let Tok::Ident(name) = &name_tok.kind else {
        return;
    };
    if name == "self" {
        return;
    }
    let dimensional = name
        .split('_')
        .any(|seg| DIMENSIONAL_SEGMENTS.contains(&seg));
    if dimensional {
        found.push(Violation {
            rule: Rule::UnitNewtype,
            file: rel_path.to_string(),
            line: name_tok.line,
            message: format!(
                "`pub fn {fn_name}` takes dimensional parameter `{name}: f64`; use a units.rs newtype (Meters/Hertz/Seconds)"
            ),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LIB: &str = "crates/wiphy/src/fake.rs";

    #[test]
    fn pragma_suppresses_and_is_recorded() {
        let src = "
// wlint: allow(unit-newtype) — mirrors a driver API that takes raw seconds
pub fn settle(delay_s: f64) {}
";
        let r = lint_source(LIB, src);
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        assert_eq!(r.suppressed.len(), 1);
        assert!(r.suppressed[0].reason.contains("raw seconds"));
    }

    #[test]
    fn pragma_without_reason_is_a_violation() {
        let src = "
// wlint: allow(unit-newtype)
pub fn settle(delay_s: f64) {}
";
        let r = lint_source(LIB, src);
        let rules: Vec<Rule> = r.violations.iter().map(|v| v.rule).collect();
        assert!(rules.contains(&Rule::BadPragma));
        assert!(rules.contains(&Rule::UnitNewtype));
    }

    #[test]
    fn pragma_naming_an_unknown_rule_is_a_violation() {
        // A typo, and a rule that moved to clippy: both suppress nothing.
        let src = "
// wlint: allow(panik) — typo
fn f() {}
// wlint: allow(float-eq) — exact sentinel
fn g() {}
";
        let r = lint_source(LIB, src);
        assert_eq!(r.violations.len(), 2, "{:?}", r.violations);
        assert!(r.violations.iter().all(|v| v.rule == Rule::BadPragma));
        assert_eq!(r.violations[0].line, 2);
        assert!(r.violations[0].message.contains("`allow(panik)`"));
        assert!(r.violations[1].message.contains("#[expect(clippy::"));
    }

    #[test]
    fn unit_newtype_flags_dimensional_f64() {
        let src = "pub fn los(freq_hz: f64, d_ref: f64, gain: f64) {}\n";
        let r = lint_source(LIB, src);
        assert_eq!(r.violations.len(), 2, "{:?}", r.violations);
        assert!(r.violations.iter().all(|v| v.rule == Rule::UnitNewtype));
        // Non-unit-safe crates are not scanned.
        assert!(lint_source("crates/wml/src/fake.rs", src)
            .violations
            .is_empty());
    }

    #[test]
    fn unit_newtype_skips_test_items() {
        let src = "
#[cfg(test)]
mod tests {
    pub fn helper(delay_s: f64) {}
}
#[test]
pub fn t(freq_hz: f64) {}
pub fn live(dist_m: f64) {}
";
        let r = lint_source(LIB, src);
        assert_eq!(r.violations.len(), 1, "{:?}", r.violations);
        assert_eq!(r.violations[0].line, 8);
    }

    #[test]
    fn explain_texts_exist_for_every_rule() {
        for rule in Rule::ALL {
            assert!(
                rule.explain().len() > 80,
                "{} explain too short",
                rule.name()
            );
            assert_eq!(Rule::from_name(rule.name()), Some(rule));
        }
        assert_eq!(Rule::from_name("nope"), None);
    }
}

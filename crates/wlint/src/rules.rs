//! The lint rules: the interprocedural rules that run over the workspace
//! call graph, plus the two per-file checks clippy cannot make
//! (`unit-newtype`, `bad-pragma`). The site-level determinism, panic and
//! float rules are clippy lints (root `clippy.toml`, crate-root lint
//! levels; DESIGN §9).
//!
//! Every rule is named, documented and individually suppressable with an
//! inline pragma on (or immediately above) the offending line:
//!
//! ```text
//! // wlint: allow(<rule>) — <why this occurrence is sound>
//! ```
//!
//! The justification is mandatory; a pragma without one is itself reported.
//! For the interprocedural rules (`hot-path-alloc`, `panic-reach`) a
//! pragma also suppresses by *path*: placed on the
//! line of (or immediately above) any function on the reported call path,
//! it vouches for every violation routed through that function.

use std::collections::BTreeMap;

use crate::graph::{fn_label, CallGraph, DepMap};
use crate::index::{crate_of, test_regions, WorkspaceIndex, MARKER_WINDOW};
use crate::lexer::{lex, LexOutput, Pragma, Tok, Token};

/// The library crates whose non-test code must stay panic-free: errors flow
/// through the `wimi_core::error` taxonomy. Each crate root denies clippy's
/// panic-family lints, so `panic-reach` leaves their panic sites to clippy.
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

/// The crates whose *public* functions count as library entry points for
/// `panic-reach`: anything a downstream caller can invoke directly.
pub const ENTRY_CRATES: [&str; 4] = ["wiphy", "wdsp", "wml", "core"];

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
    /// Heap allocation reachable from a `// wlint: hot` function: the hot
    /// path runs per packet/subcarrier and must reuse caller scratch.
    HotPathAlloc,
    /// A panic site (`panic!`-family, `.unwrap()`, `.expect(`, slice index)
    /// reachable from a hot fn or a public library entry point.
    PanicReach,
}

impl Rule {
    /// The rule's stable name, used in pragmas and reports.
    pub fn name(self) -> &'static str {
        match self {
            Rule::UnitNewtype => "unit-newtype",
            Rule::BadPragma => "bad-pragma",
            Rule::HotPathAlloc => "hot-path-alloc",
            Rule::PanicReach => "panic-reach",
        }
    }

    /// Looks a rule up by its stable name (for `--explain`).
    pub fn from_name(name: &str) -> Option<Rule> {
        Rule::ALL.into_iter().find(|r| r.name() == name)
    }

    /// All rules, for `--list-rules` style reporting.
    pub const ALL: [Rule; 4] = [
        Rule::UnitNewtype,
        Rule::BadPragma,
        Rule::HotPathAlloc,
        Rule::PanicReach,
    ];

    /// One-line description of the invariant the rule protects.
    pub fn description(self) -> &'static str {
        match self {
            Rule::UnitNewtype => "dimensional public fn params must use unit newtypes, not f64",
            Rule::BadPragma => "wlint pragmas must name a rule and give a justification",
            Rule::HotPathAlloc => {
                "no heap allocation reachable from a `// wlint: hot` function (transitive)"
            }
            Rule::PanicReach => {
                "no panic site reachable from hot fns or public library entry points"
            }
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
                 stale."
            }
            Rule::HotPathAlloc => {
                "Functions marked `// wlint: hot` run per packet/subcarrier in the \
                 steady-state identification path; PR6's scratch-arena work got them to \
                 ~2 allocations per capture, and CI gates on that budget. This rule is \
                 TRANSITIVE: an allocation site (Vec::new()/vec!/format!/.collect()/\
                 .to_vec()/.to_owned()/.to_string()) anywhere in the call graph reachable \
                 from a hot fn is flagged, with the full call path in the message. \
                 Constructor *paths* without a call (`resize_with(n, Vec::new)`) stay \
                 legal. Suppress at the site, or vouch for a whole path by placing\n\
                 `// wlint: allow(hot-path-alloc) — <reason>` on/above any fn on the \
                 reported path (e.g. a one-time pool-growth helper)."
            }
            Rule::PanicReach => {
                "A panic!-family macro, .unwrap()/.expect(), or slice-index site \
                 reachable from a `// wlint: hot` fn or a public entry point of \
                 wiphy/wdsp/wml/core can abort the pipeline from a caller that never sees \
                 the dangerous code. Sites inside library crates are already flagged (or \
                 vouched with #[expect]) by the clippy panic-family lints their crate \
                 roots deny, so this rule reports: panic sites that leak in through \
                 non-library helper crates, and slice-index sites reachable from hot fns \
                 (index panics in the per-packet path are both a crash and a bounds-check \
                 cost). A site pragma for `panic-reach` vouches the site; a \
                 `// wlint: allow(panic-reach) — <reason>` on/above any fn on the \
                 reported path vouches the whole path (use for kernels whose indices are \
                 pinned by asserted invariants at the fn boundary)."
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

/// Result of linting one file (kept for the single-file API).
#[derive(Debug, Default)]
pub struct FileReport {
    /// Unsuppressed violations.
    pub violations: Vec<Violation>,
    /// Pragma-suppressed occurrences.
    pub suppressed: Vec<Suppression>,
}

/// A raw finding before suppression: the violation plus the call path that
/// produced it (fn indices root→sink; empty for per-file findings).
struct Finding {
    v: Violation,
    path: Vec<usize>,
}

/// Aggregate result of linting a set of files together.
#[derive(Debug, Default)]
pub struct WorkspaceLint {
    /// Unsuppressed violations, sorted by (file, line, rule, message).
    pub violations: Vec<Violation>,
    /// Pragma-suppressed occurrences, same order.
    pub suppressed: Vec<Suppression>,
    /// The symbol index (for `--graph`).
    pub index: WorkspaceIndex,
    /// The resolved call graph (for `--graph`).
    pub graph: CallGraph,
}

/// Lints one file in isolation. The interprocedural rules still run (over
/// the single-file call graph), so intra-file transitive violations fire.
pub fn lint_source(rel_path: &str, source: &str) -> FileReport {
    let ws = lint_files(
        &[(rel_path.to_string(), source.to_string())],
        &DepMap::default(),
    );
    FileReport {
        violations: ws.violations,
        suppressed: ws.suppressed,
    }
}

/// Lints a set of files as one workspace: per-file token rules plus the
/// interprocedural rules over the shared call graph.
pub fn lint_files(files: &[(String, String)], deps: &DepMap) -> WorkspaceLint {
    let mut index = WorkspaceIndex::default();
    let mut findings: Vec<Finding> = Vec::new();
    for (rel_path, source) in files {
        let lexed = lex(source);
        for v in scan_file(rel_path, &lexed) {
            findings.push(Finding {
                v,
                path: Vec::new(),
            });
        }
        index.add_lexed(rel_path, &lexed);
    }
    let graph = CallGraph::build(&index, deps);
    findings.extend(interprocedural(&index, &graph));

    let (mut violations, mut suppressed) = apply_suppressions(&index, findings);
    violations.sort_by(|a, b| {
        (&a.file, a.line, a.rule.name(), &a.message).cmp(&(
            &b.file,
            b.line,
            b.rule.name(),
            &b.message,
        ))
    });
    suppressed.sort_by(|a, b| {
        (&a.file, a.line, a.rule.name(), &a.message).cmp(&(
            &b.file,
            b.line,
            b.rule.name(),
            &b.message,
        ))
    });
    WorkspaceLint {
        violations,
        suppressed,
        index,
        graph,
    }
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

/// Renders a call path as `` `a` → `b` → `c` `` using short fn labels.
fn render_path(ix: &WorkspaceIndex, path: &[usize]) -> String {
    path.iter()
        .map(|&v| format!("`{}`", fn_label(&ix.fns[v])))
        .collect::<Vec<_>>()
        .join(" → ")
}

/// A reachability root with its BFS results, computed once per root.
struct RootSearch {
    root: usize,
    hot: bool,
    dist: Vec<u32>,
    pred: Vec<usize>,
}

/// Runs the two graph rules and the marker-binding diagnostic.
fn interprocedural(ix: &WorkspaceIndex, graph: &CallGraph) -> Vec<Finding> {
    let mut findings: Vec<Finding> = Vec::new();

    // A hot marker that bound to no `fn` is a misplaced contract: report
    // rather than silently covering nothing (or the wrong item).
    for (file, line, found_kind) in &ix.unbound_markers {
        let found_what = if found_kind == "nothing" {
            String::new()
        } else {
            format!(" (next item is a `{found_kind}`)")
        };
        findings.push(Finding {
            v: Violation {
                rule: Rule::HotPathAlloc,
                file: file.clone(),
                line: *line,
                message: format!(
                    "`// wlint: hot` marker does not precede a `fn` within {MARKER_WINDOW} lines{found_what}"
                ),
            },
            path: Vec::new(),
        });
    }

    let hot_roots: Vec<usize> = (0..ix.fns.len()).filter(|&i| ix.fns[i].is_hot).collect();
    let pub_roots: Vec<usize> = (0..ix.fns.len())
        .filter(|&i| {
            let f = &ix.fns[i];
            f.is_pub && !f.in_test && !f.is_hot && ENTRY_CRATES.contains(&f.crate_dir.as_str())
        })
        .collect();

    let search = |roots: &[usize], hot: bool| -> Vec<RootSearch> {
        roots
            .iter()
            .map(|&root| {
                let (dist, pred) = graph.bfs(root);
                RootSearch {
                    root,
                    hot,
                    dist,
                    pred,
                }
            })
            .collect()
    };
    let hot_searches = search(&hot_roots, true);
    let pub_searches = search(&pub_roots, false);

    // --- hot-path-alloc (transitive) ---
    // One violation per allocation site, attributed to the best root:
    // smallest hop count, earliest root as the tiebreak. (A site on several
    // hot paths thus reports once; a path-level suppression of the reported
    // path vouches the site everywhere — acceptable over-suppression,
    // documented in DESIGN §14.)
    let mut alloc_best: BTreeMap<(usize, u32, &str), (u32, usize)> = BTreeMap::new();
    for (order, s) in hot_searches.iter().enumerate() {
        for (fn_idx, f) in ix.fns.iter().enumerate() {
            if s.dist[fn_idx] == u32::MAX || f.in_test {
                continue;
            }
            for site in &f.alloc_sites {
                let key = (fn_idx, site.line, site.what.as_str());
                let cand = (s.dist[fn_idx], order);
                let slot = alloc_best.entry(key).or_insert(cand);
                if cand < *slot {
                    *slot = cand;
                }
            }
        }
    }
    for ((fn_idx, line, what), (dist, order)) in &alloc_best {
        let s = &hot_searches[*order];
        let path = graph.path(s.root, *fn_idx, &s.pred);
        let f = &ix.fns[*fn_idx];
        let message = if *dist == 0 {
            format!(
                "`{what}` allocates inside hot-path fn `{}`; reuse caller-provided scratch",
                f.name
            )
        } else {
            format!(
                "hot {}: `{what}` allocates at {}:{line}; reuse caller-provided scratch",
                render_path(ix, &path),
                f.file
            )
        };
        findings.push(Finding {
            v: Violation {
                rule: Rule::HotPathAlloc,
                file: f.file.clone(),
                line: *line,
                message,
            },
            path,
        });
    }

    // --- panic-reach ---
    // Sinks: panic sites in non-library crates (library sites are governed
    // by clippy's panic-family lints), plus slice-index sites for hot roots
    // only. Hot roots win attribution over pub entry points.
    let mut panic_best: BTreeMap<(usize, u32, &str), (bool, u32, usize)> = BTreeMap::new();
    for (order, s) in hot_searches.iter().chain(pub_searches.iter()).enumerate() {
        for (fn_idx, f) in ix.fns.iter().enumerate() {
            if s.dist[fn_idx] == u32::MAX || f.in_test {
                continue;
            }
            let mut sites: Vec<(u32, &str)> = Vec::new();
            if !LIBRARY_CRATES.contains(&f.crate_dir.as_str()) {
                sites.extend(f.panic_sites.iter().map(|p| (p.line, p.what.as_str())));
            }
            if s.hot {
                sites.extend(f.index_sites.iter().map(|p| (p.line, p.what.as_str())));
            }
            for (line, what) in sites {
                let key = (fn_idx, line, what);
                // `!hot` sorts hot-rooted attributions first.
                let cand = (!s.hot, s.dist[fn_idx], order);
                let slot = panic_best.entry(key).or_insert(cand);
                if cand < *slot {
                    *slot = cand;
                }
            }
        }
    }
    let all_searches: Vec<&RootSearch> = hot_searches.iter().chain(pub_searches.iter()).collect();
    for ((fn_idx, line, what), (_, _, order)) in &panic_best {
        let s = all_searches[*order];
        let path = graph.path(s.root, *fn_idx, &s.pred);
        let f = &ix.fns[*fn_idx];
        let root_tag = if s.hot { "hot" } else { "pub" };
        let message = format!(
            "{root_tag} {}: `{what}` may panic at {}:{line}; return a taxonomy error or prove the bound",
            render_path(ix, &path),
            f.file
        );
        findings.push(Finding {
            v: Violation {
                rule: Rule::PanicReach,
                file: f.file.clone(),
                line: *line,
                message,
            },
            path,
        });
    }

    findings
}

/// Splits findings into suppressed and surviving sets.
///
/// A finding is suppressed by (a) a matching pragma at the site — a
/// standalone pragma covers the next 3 lines, a trailing pragma its own
/// line — or, for interprocedural findings, (b) a matching pragma bound to
/// any function on the reported call path (standalone immediately above the
/// fn item, or trailing on the `fn` line). A clippy `#[expect]` vouches
/// nothing here.
fn apply_suppressions(
    ix: &WorkspaceIndex,
    findings: Vec<Finding>,
) -> (Vec<Violation>, Vec<Suppression>) {
    let pragmas_of =
        |file: &str| -> &[Pragma] { ix.meta(file).map(|m| m.pragmas.as_slice()).unwrap_or(&[]) };

    let mut violations = Vec::new();
    let mut suppressed = Vec::new();
    'findings: for finding in findings {
        let v = finding.v;
        // (a) site-level.
        for p in pragmas_of(&v.file) {
            let covers = if p.standalone {
                v.line > p.line && v.line <= p.line + 3
            } else {
                v.line == p.line
            };
            if covers && p.rule == v.rule.name() {
                suppressed.push(Suppression {
                    rule: v.rule,
                    file: v.file,
                    line: v.line,
                    reason: p.reason.clone(),
                    message: v.message,
                });
                continue 'findings;
            }
        }
        // (b) path-level.
        for &fn_idx in &finding.path {
            let f = &ix.fns[fn_idx];
            for p in pragmas_of(&f.file) {
                let covers = if p.standalone {
                    f.item_line > p.line && f.item_line <= p.line + 3
                } else {
                    p.line == f.decl_line
                };
                if covers && p.rule == v.rule.name() {
                    suppressed.push(Suppression {
                        rule: v.rule,
                        file: v.file,
                        line: v.line,
                        reason: p.reason.clone(),
                        message: v.message,
                    });
                    continue 'findings;
                }
            }
        }
        violations.push(v);
    }
    (violations, suppressed)
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
    const APP: &str = "crates/experiments/src/fake.rs";

    #[test]
    fn pragma_suppresses_and_is_recorded() {
        let src = "
// wlint: hot
fn f(v: &[u32]) -> u32 {
    // wlint: allow(panic-reach) — slice is non-empty by construction
    v[0]
}
";
        let r = lint_source(APP, src);
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        assert_eq!(r.suppressed.len(), 1);
        assert!(r.suppressed[0].reason.contains("non-empty"));
    }

    #[test]
    fn pragma_without_reason_is_a_violation() {
        let src = "
// wlint: hot
fn f(v: &[u32]) -> u32 {
    // wlint: allow(panic-reach)
    v[0]
}
";
        let r = lint_source(APP, src);
        let rules: Vec<Rule> = r.violations.iter().map(|v| v.rule).collect();
        assert!(rules.contains(&Rule::BadPragma));
        assert!(rules.contains(&Rule::PanicReach));
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
    fn hot_path_alloc_fires_only_inside_marked_fn() {
        let src = "
// wlint: hot
fn hot(out: &mut Vec<f64>) {
    let v: Vec<f64> = Vec::new();
    let w = vec![0.0];
    let c: Vec<f64> = w.iter().map(|x| x + 1.0).collect();
    out.extend(c);
    let _ = v;
}
fn cold() -> Vec<f64> {
    Vec::new()
}
";
        let r = lint_source(LIB, src);
        let hot: Vec<&Violation> = r
            .violations
            .iter()
            .filter(|v| v.rule == Rule::HotPathAlloc)
            .collect();
        assert_eq!(hot.len(), 3, "{:?}", hot);
        assert!(hot.iter().all(|v| v.line >= 4 && v.line <= 6));
    }

    #[test]
    fn hot_path_alloc_is_transitive_with_path_in_message() {
        let src = "
// wlint: hot
fn hot(out: &mut Vec<f64>) {
    mid(out);
}
fn mid(out: &mut Vec<f64>) {
    leaf(out);
}
fn leaf(out: &mut Vec<f64>) {
    let v = vec![0.0];
    out.extend_from_slice(&v);
}
";
        let r = lint_source(LIB, src);
        let hot: Vec<&Violation> = r
            .violations
            .iter()
            .filter(|v| v.rule == Rule::HotPathAlloc)
            .collect();
        assert_eq!(hot.len(), 1, "{:?}", hot);
        assert_eq!(hot[0].line, 10, "violation sits at the allocation site");
        assert!(
            hot[0].message.contains("`hot` → `mid` → `leaf`"),
            "message must carry the full path: {}",
            hot[0].message
        );
    }

    #[test]
    fn path_level_pragma_vouches_whole_call_chain() {
        let src = "
// wlint: hot
fn hot(out: &mut Vec<f64>) {
    grow(out);
}
// wlint: allow(hot-path-alloc) — one-time pool growth, reused afterwards
fn grow(out: &mut Vec<f64>) {
    let v = vec![0.0];
    out.extend_from_slice(&v);
}
";
        let r = lint_source(LIB, src);
        assert!(
            !r.violations.iter().any(|v| v.rule == Rule::HotPathAlloc),
            "{:?}",
            r.violations
        );
        assert!(r
            .suppressed
            .iter()
            .any(|s| s.rule == Rule::HotPathAlloc && s.reason.contains("pool growth")));
    }

    #[test]
    fn hot_path_alloc_permits_constructor_paths_and_scratch_reuse() {
        // `Vec::new` as a *function reference* (no call parens) is how
        // `resize_with` grows a scratch pool once — that must stay legal.
        let src = "
// wlint: hot
fn hot(scratch: &mut Scratch, out: &mut Vec<f64>) {
    scratch.details.resize_with(4, Vec::new);
    out.clear();
    out.extend_from_slice(&scratch.tmp);
}
";
        let r = lint_source(LIB, src);
        assert!(
            !r.violations.iter().any(|v| v.rule == Rule::HotPathAlloc),
            "{:?}",
            r.violations
        );
    }

    #[test]
    fn hot_path_alloc_is_pragma_suppressable() {
        let src = "
// wlint: hot
fn hot(out: &mut Vec<Vec<f64>>) {
    // wlint: allow(hot-path-alloc) — one-time pool growth, reused after
    out.resize(4, Vec::new());
}
";
        let r = lint_source(LIB, src);
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        assert_eq!(r.suppressed.len(), 1);
        assert_eq!(r.suppressed[0].rule, Rule::HotPathAlloc);
    }

    #[test]
    fn hot_marker_must_precede_a_fn() {
        let src = "
// wlint: hot
const X: usize = 4;
";
        let r = lint_source(LIB, src);
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.violations[0].rule, Rule::HotPathAlloc);
        assert!(r.violations[0].message.contains("does not precede"));
    }

    #[test]
    fn hot_marker_does_not_bind_past_an_impl_line() {
        // Regression: the marker used to bind to the first `fn` token in
        // the window even when an `impl` (or other item) started first,
        // silently marking a method the author never pointed at.
        let src = "
// wlint: hot
impl Pool {
    fn grow(&mut self) {
        self.slots = Vec::new();
    }
}
";
        let r = lint_source(LIB, src);
        assert_eq!(r.violations.len(), 1, "{:?}", r.violations);
        assert!(r.violations[0].message.contains("does not precede"));
        assert!(
            r.violations[0].message.contains("impl"),
            "diagnostic names the intervening item: {}",
            r.violations[0].message
        );
    }

    #[test]
    fn panic_reach_traces_through_helpers() {
        let src = "
// wlint: hot
fn hot(v: &[f64]) -> f64 {
    step(v)
}
fn step(v: &[f64]) -> f64 {
    pick(v)
}
fn pick(v: &[f64]) -> f64 {
    v[0]
}
";
        let r = lint_source(APP, src);
        let pr: Vec<&Violation> = r
            .violations
            .iter()
            .filter(|v| v.rule == Rule::PanicReach)
            .collect();
        assert_eq!(pr.len(), 1, "{:?}", r.violations);
        assert_eq!(pr[0].line, 10);
        assert!(
            pr[0].message.contains("`hot` → `step` → `pick`"),
            "{}",
            pr[0].message
        );
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

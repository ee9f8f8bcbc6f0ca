//! `wimi-lint` — the workspace static-analysis pass.
//!
//! The repo's correctness story rests on conventions the compiler does not
//! check. The site-level ones — no wall clock, no ambient RNG, no hashed
//! iteration order, panic-free library crates, float hygiene — are clippy
//! lints (root `clippy.toml` and crate-root lint levels, DESIGN.md §9).
//! This crate enforces what clippy cannot see, as named, individually
//! suppressable rules over a hand-rolled token stream (std-only — no
//! registry access, so no `syn`): unit-safe public APIs, well-formed
//! pragmas, and three rules that trace *reachability* through a workspace
//! symbol index ([`index`]) and a conservative call graph ([`graph`]):
//! `hot-path-alloc`, `panic-reach` and `determinism-taint`, each printing
//! the full call path in its violations. See DESIGN.md §14.
//!
//! Run with `cargo run -p wimi-lint` (add `--json` or `--sarif` for
//! machine output, `--graph` for the resolved call graph, `--explain
//! <rule>` for a rule's rationale).

#![cfg_attr(not(test), deny(clippy::float_cmp))]

pub mod graph;
pub mod index;
pub mod lexer;
pub mod rules;
pub mod sarif;

pub use graph::{graph_dump, CallGraph, DepMap};
pub use index::WorkspaceIndex;
pub use rules::{lint_files, lint_source, FileReport, Rule, Suppression, Violation, WorkspaceLint};

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Aggregate result of linting the whole workspace.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Workspace-relative paths of every file scanned, in walk order.
    pub files: Vec<String>,
    /// Unsuppressed violations across all files, in (file, line) order.
    pub violations: Vec<Violation>,
    /// Pragma-suppressed occurrences across all files.
    pub suppressed: Vec<Suppression>,
}

impl LintReport {
    /// True when no unsuppressed violation was found.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Per-rule violation counts (deterministic order).
    pub fn counts_by_rule(&self) -> BTreeMap<&'static str, usize> {
        let mut m = BTreeMap::new();
        for v in &self.violations {
            *m.entry(v.rule.name()).or_insert(0) += 1;
        }
        m
    }

    /// Renders the human-readable report.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for v in &self.violations {
            out.push_str(&format!(
                "{}:{}: [{}] {}\n",
                v.file,
                v.line,
                v.rule.name(),
                v.message
            ));
        }
        if !self.suppressed.is_empty() {
            out.push_str(&format!(
                "\n{} suppressed occurrence(s):\n",
                self.suppressed.len()
            ));
            for s in &self.suppressed {
                out.push_str(&format!(
                    "  {}:{}: [{}] allowed — {}\n",
                    s.file,
                    s.line,
                    s.rule.name(),
                    s.reason
                ));
            }
        }
        out.push_str(&format!(
            "\nwimi-lint: {} file(s) scanned, {} violation(s), {} suppressed\n",
            self.files.len(),
            self.violations.len(),
            self.suppressed.len()
        ));
        out
    }

    /// Renders the machine-readable (`--json`) report.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"files_scanned\": {},\n", self.files.len()));
        out.push_str("  \"violations\": [\n");
        for (i, v) in self.violations.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"rule\": {}, \"file\": {}, \"line\": {}, \"message\": {}}}{}\n",
                json_str(v.rule.name()),
                json_str(&v.file),
                v.line,
                json_str(&v.message),
                if i + 1 < self.violations.len() {
                    ","
                } else {
                    ""
                }
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"suppressed\": [\n");
        for (i, s) in self.suppressed.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"rule\": {}, \"file\": {}, \"line\": {}, \"reason\": {}, \"message\": {}}}{}\n",
                json_str(s.rule.name()),
                json_str(&s.file),
                s.line,
                json_str(&s.reason),
                json_str(&s.message),
                if i + 1 < self.suppressed.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n");
        out.push_str(&format!("  \"clean\": {}\n", self.is_clean()));
        out.push('}');
        out.push('\n');
        out
    }
}

/// Escapes a string for JSON output.
pub(crate) fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Recursively collects `.rs` files under `dir`, sorted for determinism.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().and_then(|e| e.to_str()) == Some("rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// The source directories linted: every workspace crate's `src/` plus the
/// root facade crate. Vendored stand-ins under `vendor/` are third-party
/// idiom and are deliberately out of scope.
fn source_roots(workspace_root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut roots = Vec::new();
    let crates_dir = workspace_root.join("crates");
    if crates_dir.is_dir() {
        let mut members: Vec<PathBuf> = std::fs::read_dir(&crates_dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        members.sort();
        for m in members {
            let src = m.join("src");
            if src.is_dir() {
                roots.push(src);
            }
        }
    }
    let facade = workspace_root.join("src");
    if facade.is_dir() {
        roots.push(facade);
    }
    Ok(roots)
}

/// Parses the `[dependencies]` sections of every workspace member's
/// `Cargo.toml` into a [`DepMap`] keyed by crate directory. Line-oriented
/// on purpose: the manifests are ours, flat, and std has no TOML parser.
pub fn build_depmap(workspace_root: &Path) -> DepMap {
    let mut deps = DepMap::default();
    let import_to_dir = |key: &str| -> Option<String> {
        let import = key.replace('-', "_");
        graph::IMPORT_NAMES
            .iter()
            .find(|(n, _)| *n == import)
            .map(|(_, d)| d.to_string())
    };
    let mut add_manifest = |crate_dir: &str, manifest: &Path| {
        let Ok(text) = std::fs::read_to_string(manifest) else {
            return;
        };
        let mut in_deps = false;
        let mut direct: Vec<String> = Vec::new();
        for line in text.lines() {
            let line = line.trim();
            if let Some(section) = line.strip_prefix('[') {
                in_deps = section.trim_end_matches(']') == "dependencies";
                continue;
            }
            if !in_deps || line.is_empty() || line.starts_with('#') {
                continue;
            }
            let key: String = line
                .chars()
                .take_while(|c| !matches!(c, '.' | '=' | ' ' | '\t'))
                .collect();
            if let Some(dir) = import_to_dir(&key) {
                direct.push(dir);
            }
        }
        direct.sort();
        direct.dedup();
        deps.direct.insert(crate_dir.to_string(), direct);
    };

    if let Ok(members) = std::fs::read_dir(workspace_root.join("crates")) {
        let mut dirs: Vec<PathBuf> = members.filter_map(|e| e.ok().map(|e| e.path())).collect();
        dirs.sort();
        for m in dirs {
            let manifest = m.join("Cargo.toml");
            if let Some(name) = m.file_name().and_then(|n| n.to_str()) {
                if manifest.is_file() {
                    add_manifest(name, &manifest);
                }
            }
        }
    }
    let facade = workspace_root.join("Cargo.toml");
    if facade.is_file() {
        add_manifest("wimi", &facade);
    }
    deps
}

/// Lints every workspace source file under `workspace_root`, returning the
/// report plus the index and call graph (for `--graph`).
pub fn lint_workspace_full(
    workspace_root: &Path,
) -> std::io::Result<(LintReport, WorkspaceIndex, CallGraph)> {
    let mut sources: Vec<(String, String)> = Vec::new();
    for root in source_roots(workspace_root)? {
        let mut files = Vec::new();
        collect_rs(&root, &mut files)?;
        for path in files {
            let rel = path
                .strip_prefix(workspace_root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            let source = std::fs::read_to_string(&path)?;
            sources.push((rel, source));
        }
    }
    let deps = build_depmap(workspace_root);
    let ws = lint_files(&sources, &deps);
    let report = LintReport {
        files: sources.into_iter().map(|(rel, _)| rel).collect(),
        violations: ws.violations,
        suppressed: ws.suppressed,
    };
    Ok((report, ws.index, ws.graph))
}

/// Lints every workspace source file under `workspace_root`.
pub fn lint_workspace(workspace_root: &Path) -> std::io::Result<LintReport> {
    lint_workspace_full(workspace_root).map(|(report, _, _)| report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escaping_handles_special_chars() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn report_renders_counts() {
        let mut r = LintReport::default();
        r.files.push("crates/x/src/lib.rs".to_string());
        r.violations.push(Violation {
            rule: Rule::PanicReach,
            file: "crates/x/src/lib.rs".to_string(),
            line: 3,
            message: "m".to_string(),
        });
        assert!(!r.is_clean());
        assert_eq!(r.counts_by_rule().get("panic-reach"), Some(&1));
        assert!(r.render_text().contains("[panic-reach]"));
        assert!(r.render_json().contains("\"clean\": false"));
    }

    #[test]
    fn depmap_reflects_the_real_manifests() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let deps = build_depmap(&root);
        let wdsp = deps.direct.get("wdsp").expect("wdsp indexed");
        assert!(wdsp.is_empty(), "wdsp is a leaf: {wdsp:?}");
        let core = deps.direct.get("core").expect("core indexed");
        for dep in ["wiphy", "wdsp", "wml", "wobs", "wtrace"] {
            assert!(core.contains(&dep.to_string()), "core missing {dep}");
        }
        assert!(
            !core.contains(&"core".to_string()),
            "vendored rand must not map to a workspace member"
        );
        let closure = deps.closure("wcampaign").expect("wcampaign known");
        assert!(
            closure.contains("wobs"),
            "transitive via wiphy: {closure:?}"
        );
        assert!(!closure.contains("wml"));
    }
}

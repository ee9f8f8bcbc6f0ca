//! Workspace conventions the compiler and clippy do not check.
//!
//! - **Unit-safe signatures.** A `pub fn` in `wiphy` or `core` must not
//!   take a dimensionally named raw `f64` (`freq_hz`, `dist_m`,
//!   `delay_s`): metres, hertz and seconds travel as the `units.rs`
//!   newtypes, so a call site cannot swap them silently.
//! - **No leftover `wlint:` pragmas.** The pragma-driven linter that once
//!   read them is gone; a pragma would now suppress nothing.
//! - **Clippy wiring.** The lint levels that hold the panic, float and
//!   indexing rules stay set on the right crate roots and kernel files.
//!
//! The signature scan reads text, not tokens. It covers each file up to
//! its first column-0 `#[cfg(test)]` line and drops `//` comment text.
//! A `#[test]` item in the middle of a file is therefore scanned too: in
//! every scanned file the first column-0 `#[cfg(test)]` opens the trailing
//! test module, and a misread file over-reports rather than passing.

use std::path::{Path, PathBuf};

/// The crates whose public `f64` parameters must use the `units.rs`
/// newtypes when dimensionally named.
const UNIT_SAFE_CRATES: [&str; 2] = ["wiphy", "core"];

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

/// The library crates whose non-test code must stay panic-free: errors flow
/// through the `wimi_core::error` taxonomy. Each crate root denies clippy's
/// panic-family lints.
const LIBRARY_CRATES: [&str; 8] = [
    "wiphy",
    "wdsp",
    "wml",
    "core",
    "wobs",
    "wtrace",
    "wcampaign",
    "wserve",
];

/// Every dimensionally named raw `f64` parameter of a `pub fn` in
/// `source`, as (line, fn, parameter).
fn unit_newtype_findings(source: &str) -> Vec<(usize, String, String)> {
    let code = source
        .lines()
        .take_while(|line| !line.starts_with("#[cfg(test)]"))
        .map(|line| line.find("//").map_or(line, |at| &line[..at]))
        .collect::<Vec<_>>()
        .join("\n");
    let line_of = |at: usize| 1 + code[..at].matches('\n').count();
    let mut found = Vec::new();
    let mut line_start = 0;
    for line in code.split('\n') {
        let start = line_start;
        line_start += line.len() + 1;
        let trimmed = line.trim_start();
        if !trimmed.starts_with("pub") {
            continue;
        }
        let head = start + (line.len() - trimmed.len());
        let Some((func, open)) = fn_header(&code[head..]) else {
            continue;
        };
        for (at, param) in params(&code[head + open..]) {
            let Some((binding, ty)) = param.split_once(':') else {
                continue;
            };
            let name = binding
                .rsplit(|c: char| !(c.is_alphanumeric() || c == '_'))
                .find(|word| !word.is_empty())
                .unwrap_or("");
            let dimensional = name
                .split('_')
                .any(|segment| DIMENSIONAL_SEGMENTS.contains(&segment));
            if ty.trim() == "f64" && name != "self" && dimensional {
                let name_at = head + open + at + binding.rfind(name).unwrap_or(0);
                found.push((line_of(name_at), func.to_string(), name.to_string()));
            }
        }
    }
    found
}

/// Reads `pub[(…)] [const|async|unsafe|extern]* fn name[<…>]` at the start
/// of `text`; returns the name and the offset of the parameter list's `(`.
fn fn_header(text: &str) -> Option<(&str, usize)> {
    let ident_end = |s: &str| {
        s.find(|c: char| !(c.is_alphanumeric() || c == '_'))
            .unwrap_or(s.len())
    };
    let mut rest = text.strip_prefix("pub")?;
    if rest.starts_with('(') {
        rest = &rest[rest.find(')')? + 1..];
    } else if !rest.starts_with(char::is_whitespace) {
        return None;
    }
    loop {
        rest = rest.trim_start();
        let word = &rest[..ident_end(rest)];
        rest = &rest[word.len()..];
        match word {
            "const" | "async" | "unsafe" | "extern" => {}
            "fn" => break,
            _ => return None,
        }
    }
    rest = rest.trim_start();
    let name = &rest[..ident_end(rest)];
    rest = rest[name.len()..].trim_start();
    if rest.starts_with('<') {
        // Generics: `->` inside an `Fn(…) -> T` bound closes nothing.
        let mut depth = 0usize;
        let mut close = None;
        for (at, c) in rest.char_indices() {
            match c {
                '<' => depth += 1,
                '>' if !rest[..at].ends_with('-') => {
                    depth -= 1;
                    if depth == 0 {
                        close = Some(at);
                        break;
                    }
                }
                _ => {}
            }
        }
        rest = rest[close? + 1..].trim_start();
    }
    if name.is_empty() || !rest.starts_with('(') {
        return None;
    }
    Some((name, text.len() - rest.len()))
}

/// Splits the parameter list opening at `text`'s first byte on the commas
/// at depth 1 of `()[]{}`; returns each parameter with its offset.
fn params(text: &str) -> Vec<(usize, &str)> {
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut start = 1;
    for (at, c) in text.char_indices() {
        match c {
            '(' | '[' | '{' => depth += 1,
            ')' | ']' | '}' => {
                depth -= 1;
                if depth == 0 {
                    out.push((start, &text[start..at]));
                    break;
                }
            }
            ',' if depth == 1 => {
                out.push((start, &text[start..at]));
                start = at + 1;
            }
            _ => {}
        }
    }
    out
}

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Every file under `dir`, recursively, in sorted order.
fn files_under(dir: &Path, out: &mut Vec<PathBuf>) {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|e| e.expect("dir entry").path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            files_under(&path, out);
        } else {
            out.push(path);
        }
    }
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn unit_safe_crates_take_unit_newtypes() {
    let root = root();
    let mut files = Vec::new();
    for krate in UNIT_SAFE_CRATES {
        files_under(&root.join("crates").join(krate).join("src"), &mut files);
    }
    assert!(files.len() > 20, "walk looks truncated: {files:?}");
    let mut found = Vec::new();
    for path in &files {
        let rel = path.strip_prefix(&root).expect("under the root").display();
        for (line, func, param) in unit_newtype_findings(&read(path)) {
            found.push(format!(
                "{rel}:{line}: `pub fn {func}` takes `{param}: f64`; use a units.rs newtype (Meters/Hertz/Seconds)"
            ));
        }
    }
    assert!(
        found.is_empty(),
        "{} dimensional f64 parameter(s):\n{}",
        found.len(),
        found.join("\n")
    );
}

#[test]
fn no_wlint_pragma_is_left_in_the_sources() {
    let root = root();
    let mut files = Vec::new();
    files_under(&root.join("src"), &mut files);
    for member in std::fs::read_dir(root.join("crates")).expect("crates/") {
        let src = member.expect("dir entry").path().join("src");
        if src.is_dir() {
            files_under(&src, &mut files);
        }
    }
    let marker = "wlint:";
    let left: Vec<String> = files
        .iter()
        .flat_map(|path| {
            let text = read(path);
            text.lines()
                .enumerate()
                .filter(|(_, line)| line.contains(marker))
                .map(|(n, _)| format!("{}:{}", path.display(), n + 1))
                .collect::<Vec<_>>()
        })
        .collect();
    assert!(
        left.is_empty(),
        "`{marker}` pragmas suppress nothing now; remove them:\n{}",
        left.join("\n")
    );
}

/// `line: fn(param)` of each finding in `source`.
fn scan(source: &str) -> Vec<String> {
    unit_newtype_findings(source)
        .into_iter()
        .map(|(line, func, param)| format!("{line}: {func}({param})"))
        .collect()
}

#[test]
fn scan_flags_dimensional_f64_parameters() {
    let bad = "pub fn los_response(freq: f64, dist_m: f64, gain: f64) -> f64 {\n    freq * dist_m * gain\n}\n";
    assert_eq!(
        scan(bad),
        ["1: los_response(freq)", "1: los_response(dist_m)"]
    );
    let clean = "use crate::units::{Hertz, Meters};\n\n\
                 pub fn los_response(freq: Hertz, dist: Meters, gain: f64) -> f64 {\n    \
                 freq.value() * dist.value() * gain\n}\n";
    assert!(scan(clean).is_empty());
    // A pragma above the signature no longer suppresses anything.
    let pragma = "// wlint: allow(unit-newtype) — mirrors a C driver API that takes raw seconds\n\
                  pub fn settle(delay_s: f64) -> f64 {\n    delay_s\n}\n";
    assert_eq!(scan(pragma), ["2: settle(delay_s)"]);
}

#[test]
fn scan_reads_every_form_of_public_signature() {
    let multi_line = "\n\
        pub(crate) fn a<T: Into<f64>>(\n    \
            x: T,\n    \
            mut delay_s: f64,\n    \
            table: &[(f64, f64)],\n    \
            gain: f64,\n\
        ) {}\n";
    assert_eq!(scan(multi_line), ["4: a(delay_s)"]);
    assert_eq!(scan("    pub const fn c(len: f64) {}\n"), ["1: c(len)"]);
    assert_eq!(
        scan("pub unsafe extern fn e(time: f64) {}\n"),
        ["1: e(time)"]
    );
    let bound = "pub fn g<F: Fn(f64) -> f64>(f: F, depth_m: f64) {}\n";
    assert_eq!(scan(bound), ["1: g(depth_m)"]);
    // Not dimensional, not `f64`, or not a parameter.
    assert!(scan("pub fn h(&self, gain: f64, dist: Meters, delays: &[f64]) {}\n").is_empty());
    assert!(scan("pub struct S { pub delay_s: f64 }\n").is_empty());
}

#[test]
fn scan_skips_private_fns_comments_and_the_test_module() {
    assert!(scan("fn private(delay_s: f64) {}\n").is_empty());
    assert!(scan("/// pub fn doc(delay_s: f64) {}\n// pub fn c(delay_s: f64)\n").is_empty());
    let tail = "pub fn live(dist_m: f64) {}\n\
                #[cfg(test)]\n\
                mod tests {\n    pub fn helper(delay_s: f64) {}\n}\n\
                pub fn after(freq_hz: f64) {}\n";
    assert_eq!(scan(tail), ["1: live(dist_m)"]);
}

/// The clippy lint levels that hold the site-level rules are set per crate
/// root (DESIGN §9). `cargo clippy` enforces them; this test keeps the
/// wiring in place under plain `cargo test`, so a new library crate cannot
/// escape the panic rule unnoticed.
#[test]
fn clippy_lint_levels_are_wired_to_the_right_crate_roots() {
    let root = root();
    let read = |rel: &str| -> String {
        let text = std::fs::read_to_string(root.join(rel)).expect(rel);
        text.split_whitespace().collect()
    };
    const PANIC_FAMILY: &str =
        "#![cfg_attr(not(test),deny(clippy::unwrap_used,clippy::expect_used,\
         clippy::panic,clippy::unreachable,clippy::todo,clippy::unimplemented,clippy::float_cmp))]";
    const FLOAT_CMP: &str = "#![cfg_attr(not(test),deny(clippy::float_cmp))]";

    let mut crate_roots = vec!["src/lib.rs".to_string()];
    let mut dirs: Vec<_> = std::fs::read_dir(root.join("crates"))
        .expect("crates/")
        .map(|e| e.expect("dir entry").path())
        .collect();
    dirs.sort();
    for dir in dirs {
        let name = dir
            .file_name()
            .and_then(|n| n.to_str())
            .expect("utf-8 name");
        let mut files = vec![
            format!("crates/{name}/src/lib.rs"),
            format!("crates/{name}/src/main.rs"),
        ];
        if let Ok(bins) = std::fs::read_dir(dir.join("src/bin")) {
            for bin in bins {
                let file = bin.expect("bin entry").file_name();
                files.push(format!("crates/{name}/src/bin/{}", file.to_string_lossy()));
            }
        }
        crate_roots.extend(files.into_iter().filter(|f| root.join(f).is_file()));
    }
    let library_roots: Vec<String> = LIBRARY_CRATES
        .iter()
        .map(|lib| format!("crates/{lib}/src/lib.rs"))
        .collect();
    for rel in &library_roots {
        assert!(
            crate_roots.contains(rel),
            "library crate root {rel} is missing"
        );
    }
    for rel in &crate_roots {
        let text = read(rel);
        if library_roots.contains(rel) {
            assert!(
                text.contains(PANIC_FAMILY),
                "{rel} must deny the panic-family lints"
            );
        } else {
            assert!(
                !text.contains("clippy::unwrap_used"),
                "{rel} is not a library crate root"
            );
            assert!(
                text.contains(FLOAT_CMP),
                "{rel} must deny clippy::float_cmp"
            );
        }
    }
    for quant in ["crates/wiphy/src/csi.rs", "crates/wiphy/src/hardware.rs"] {
        assert!(
            read(quant).contains("#![deny(clippy::cast_possible_truncation)]"),
            "{quant} must deny lossy casts"
        );
    }
    // The per-packet kernels prove their index bounds in an
    // `#[expect(clippy::indexing_slicing, reason = …)]` per fn.
    for kernel in [
        "crates/core/src/amplitude.rs",
        "crates/wdsp/src/stats.rs",
        "crates/wdsp/src/outlier.rs",
        "crates/wdsp/src/filters.rs",
        "crates/wdsp/src/wavelet/mod.rs",
        "crates/wdsp/src/wavelet/denoise.rs",
        "crates/wiphy/src/channel.rs",
        "crates/wiphy/src/hardware.rs",
        "crates/wiphy/src/normal.rs",
        "crates/wiphy/src/scenario.rs",
    ] {
        assert!(
            read(kernel).contains("#![cfg_attr(not(test),deny(clippy::indexing_slicing))]"),
            "{kernel} must deny unproved indexing"
        );
    }

    let config = std::fs::read_to_string(root.join("clippy.toml")).expect("clippy.toml");
    for path in [
        "std::collections::HashMap",
        "std::collections::HashSet",
        "std::time::Instant::now",
        "std::time::SystemTime::now",
        "std::thread::spawn",
        "std::thread::current",
        "std::env::var",
    ] {
        assert!(
            config.contains(&format!("path = \"{path}\"")),
            "clippy.toml must ban {path}"
        );
    }
}

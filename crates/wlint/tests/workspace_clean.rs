//! Self-check: the workspace the linter ships in must itself be clean.
//!
//! This is the test-suite twin of the CI `lint` job — `cargo test` alone
//! catches a freshly introduced violation without needing the binary run.

use std::path::Path;

#[test]
fn workspace_has_zero_unsuppressed_violations() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = wimi_lint::lint_workspace(&root).expect("workspace walk");
    assert!(
        report.files.len() > 40,
        "walk looks truncated: only {} files",
        report.files.len()
    );
    assert!(
        report.is_clean(),
        "unsuppressed lint violations:\n{}",
        report.render_text()
    );
}

#[test]
fn every_suppression_carries_a_justification() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = wimi_lint::lint_workspace(&root).expect("workspace walk");
    for s in &report.suppressed {
        assert!(
            !s.reason.trim().is_empty(),
            "{}:{} [{}] suppressed without a reason",
            s.file,
            s.line,
            s.rule.name()
        );
    }
}

/// The clippy lint levels that replaced wlint's site-level rules are set
/// per crate root (DESIGN §9). `cargo clippy` enforces them; this test
/// keeps the wiring in place under plain `cargo test`, so a new library
/// crate cannot escape the panic rule unnoticed.
#[test]
fn clippy_lint_levels_are_wired_to_the_right_crate_roots() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
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
    let library_roots: Vec<String> = wimi_lint::rules::LIBRARY_CRATES
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

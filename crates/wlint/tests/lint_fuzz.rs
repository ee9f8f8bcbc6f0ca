//! Property tests: the lexer and the per-file rules must never panic on
//! hostile input. Sources here are arbitrary character soup — truncated
//! tokens, unbalanced brackets, stray pragmas — fed through the same
//! single-file entry the CLI uses.

use proptest::prelude::*;

proptest! {
    #[test]
    fn lint_source_never_panics_on_arbitrary_text(
        codes in proptest::collection::vec(0u32..0x11_0000u32, 0..400usize)
    ) {
        let src: String = codes.iter().filter_map(|&c| char::from_u32(c)).collect();
        let report = wimi_lint::lint_source("crates/wiphy/src/fuzz.rs", &src);
        // Line numbers in findings must point into the source.
        let lines = src.lines().count() as u32 + 1;
        for v in &report.violations {
            prop_assert!(v.line <= lines.max(1));
        }
    }

    #[test]
    fn lint_source_never_panics_on_rust_shaped_soup(
        pieces in proptest::collection::vec(0usize..16usize, 0..60usize)
    ) {
        const FRAGMENTS: [&str; 16] = [
            "fn f(", ") {", "}", "vec![", "]", "// wlint: hot\n",
            "// wlint: allow(panic) — x\n", "impl T {", "::", "x.unwrap()",
            "std::time::Instant::now()", "v[i]", "Vec::<f64>::new(",
            "use a::b as c;", "\"unterminated", "'a ",
        ];
        let src: String = pieces
            .iter()
            .map(|&i| FRAGMENTS[i])
            .collect::<Vec<_>>()
            .join(" ");
        let _ = wimi_lint::lint_source("crates/core/src/fuzz.rs", &src);
    }
}

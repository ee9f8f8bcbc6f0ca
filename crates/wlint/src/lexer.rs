//! A lightweight Rust tokenizer for static analysis.
//!
//! The build environment has no registry access, so `wimi-lint` cannot use
//! `syn`; instead it hand-rolls the small slice of lexing the rules need:
//! identifiers, punctuation, numeric literals, and —
//! crucially — *correct skipping* of strings, char literals, lifetimes and
//! comments, so a banned identifier inside a string or doc comment never
//! fires a rule. Line comments are additionally inspected for `wlint:`
//! suppression pragmas.

/// One lexical token of interest to the rules.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    /// An identifier or keyword (`unwrap`, `pub`, `f64`, ...).
    Ident(String),
    /// Punctuation; multi-character operators (`==`, `!=`, `::`, `->`,
    /// `=>`, `..`, `&&`, `||`, `<=`, `>=`) arrive as one token.
    Punct(&'static str),
    /// A numeric literal (`1`, `2.5`, `1e-9`, `3f64`, `0x1E`).
    Num,
    /// A string literal, carrying its raw content (escape sequences are
    /// left as written). The determinism-taint rule inspects `env::var`
    /// arguments through this token; no identifier rule matches inside it.
    Str(String),
    /// A lifetime such as `'a` (content irrelevant to the rules).
    Lifetime,
}

/// A token plus the 1-based source line it starts on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// What was lexed.
    pub kind: Tok,
    /// 1-based line number.
    pub line: u32,
}

/// A `// wlint: allow(<rule>) — <reason>` suppression pragma.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pragma {
    /// 1-based line the pragma comment sits on.
    pub line: u32,
    /// `true` when the pragma is the only thing on its line (it then
    /// suppresses the *next* code line); `false` for a trailing comment
    /// (suppresses its own line).
    pub standalone: bool,
    /// The rule name inside `allow(...)`.
    pub rule: String,
    /// The justification text after the rule; empty if missing.
    pub reason: String,
}

/// Everything the lexer extracts from one source file.
#[derive(Debug, Default)]
pub struct LexOutput {
    /// Code tokens in source order.
    pub tokens: Vec<Token>,
    /// Suppression pragmas found in line comments.
    pub pragmas: Vec<Pragma>,
    /// Lines holding a malformed `wlint:` pragma (bad syntax or no reason).
    pub bad_pragmas: Vec<(u32, String)>,
    /// Lines holding a `// wlint: hot` marker: the next `fn` is a hot-path
    /// function whose body must not allocate (see `hot-path-alloc`).
    pub hot_markers: Vec<u32>,
    /// Lines holding a `// wlint: artifact` marker: the next `fn` renders a
    /// byte-stable artifact (`wimi-obs/1`, `wimi-trace/1`, `wimi-campaign/1`)
    /// and must not reach ambient nondeterminism (see `determinism-taint`).
    pub artifact_markers: Vec<u32>,
}

/// Tokenizes `source`, folding away comments, strings and char literals.
pub fn lex(source: &str) -> LexOutput {
    let mut out = LexOutput::default();
    let bytes: Vec<char> = source.chars().collect();
    let mut i = 0usize;
    let mut line: u32 = 1;
    // Tracks whether any code token has been emitted on the current line,
    // so pragma comments can be classified standalone vs trailing.
    let mut line_has_code = false;

    while i < bytes.len() {
        let c = bytes[i];
        match c {
            '\n' => {
                line += 1;
                line_has_code = false;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if bytes.get(i + 1) == Some(&'/') => {
                // Line comment: scan to end of line, look for a pragma.
                let start = i + 2;
                let mut j = start;
                while j < bytes.len() && bytes[j] != '\n' {
                    j += 1;
                }
                let text: String = bytes[start..j].iter().collect();
                scan_pragma(&text, line, !line_has_code, &mut out);
                i = j;
            }
            '/' if bytes.get(i + 1) == Some(&'*') => {
                // Block comment, possibly nested.
                let mut depth = 1usize;
                let mut j = i + 2;
                while j < bytes.len() && depth > 0 {
                    if bytes[j] == '\n' {
                        line += 1;
                        line_has_code = false;
                        j += 1;
                    } else if bytes[j] == '/' && bytes.get(j + 1) == Some(&'*') {
                        depth += 1;
                        j += 2;
                    } else if bytes[j] == '*' && bytes.get(j + 1) == Some(&'/') {
                        depth -= 1;
                        j += 2;
                    } else {
                        j += 1;
                    }
                }
                i = j;
            }
            '"' => {
                let start_line = line;
                let end = skip_string(&bytes, i, &mut line);
                let lo = (i + 1).min(bytes.len());
                let hi = end.saturating_sub(1).clamp(lo, bytes.len());
                let content: String = bytes[lo..hi].iter().collect();
                out.tokens.push(Token {
                    kind: Tok::Str(content),
                    line: start_line,
                });
                i = end;
                line_has_code = true;
            }
            'r' | 'b' if starts_raw_or_byte_string(&bytes, i) => {
                let start_line = line;
                let end = skip_raw_or_byte_string(&bytes, i, &mut line);
                // Content fidelity only matters for the `env::var` allowlist
                // check, which never uses raw/byte strings; an empty payload
                // keeps the token present without delimiter bookkeeping.
                out.tokens.push(Token {
                    kind: Tok::Str(String::new()),
                    line: start_line,
                });
                i = end;
                line_has_code = true;
            }
            '\'' => {
                i = skip_char_or_lifetime(&bytes, i, line, &mut out);
                line_has_code = true;
            }
            c if c.is_ascii_digit() => {
                out.tokens.push(Token {
                    kind: Tok::Num,
                    line,
                });
                line_has_code = true;
                i = skip_number(&bytes, i);
            }
            c if c.is_alphabetic() || c == '_' => {
                let mut j = i;
                while j < bytes.len() && (bytes[j].is_alphanumeric() || bytes[j] == '_') {
                    j += 1;
                }
                let ident: String = bytes[i..j].iter().collect();
                out.tokens.push(Token {
                    kind: Tok::Ident(ident),
                    line,
                });
                line_has_code = true;
                i = j;
            }
            _ => {
                let two: Option<&'static str> = if i + 1 < bytes.len() {
                    match (c, bytes[i + 1]) {
                        ('=', '=') => Some("=="),
                        ('!', '=') => Some("!="),
                        (':', ':') => Some("::"),
                        ('-', '>') => Some("->"),
                        ('=', '>') => Some("=>"),
                        ('.', '.') => Some(".."),
                        ('&', '&') => Some("&&"),
                        ('|', '|') => Some("||"),
                        ('<', '=') => Some("<="),
                        ('>', '=') => Some(">="),
                        _ => None,
                    }
                } else {
                    None
                };
                if let Some(op) = two {
                    out.tokens.push(Token {
                        kind: Tok::Punct(op),
                        line,
                    });
                    i += 2;
                } else {
                    out.tokens.push(Token {
                        kind: Tok::Punct(single_punct(c)),
                        line,
                    });
                    i += 1;
                }
                line_has_code = true;
            }
        }
    }
    out
}

/// Maps a single punctuation char onto a static str (unknown chars fold to
/// `"?"`, which no rule matches).
fn single_punct(c: char) -> &'static str {
    match c {
        '(' => "(",
        ')' => ")",
        '{' => "{",
        '}' => "}",
        '[' => "[",
        ']' => "]",
        '<' => "<",
        '>' => ">",
        ',' => ",",
        ':' => ":",
        ';' => ";",
        '#' => "#",
        '.' => ".",
        '&' => "&",
        '|' => "|",
        '=' => "=",
        '!' => "!",
        '+' => "+",
        '-' => "-",
        '*' => "*",
        '/' => "/",
        '%' => "%",
        '?' => "?",
        '@' => "@",
        '^' => "^",
        '$' => "$",
        _ => "?",
    }
}

/// Recognises a `wlint:` pragma inside a line comment's text.
fn scan_pragma(text: &str, line: u32, standalone: bool, out: &mut LexOutput) {
    let trimmed = text.trim();
    let Some(rest) = trimmed.strip_prefix("wlint:") else {
        return;
    };
    let rest = rest.trim();
    if rest == "hot" {
        // `// wlint: hot` marks the next `fn` as a hot-path function:
        // the hot-path-alloc rule bans heap allocation inside its body.
        out.hot_markers.push(line);
        return;
    }
    if rest == "artifact" {
        // `// wlint: artifact` marks the next `fn` as an artifact renderer:
        // the determinism-taint rule bans reachable nondeterminism sources.
        out.artifact_markers.push(line);
        return;
    }
    let Some(inner) = rest.strip_prefix("allow(") else {
        out.bad_pragmas
            .push((line, format!("unrecognised wlint pragma: `{trimmed}`")));
        return;
    };
    let Some(close) = inner.find(')') else {
        out.bad_pragmas
            .push((line, "wlint pragma is missing `)`".to_string()));
        return;
    };
    let rule = inner[..close].trim().to_string();
    // The justification follows the closing paren, separated by an em dash,
    // hyphen or colon.
    let reason = inner[close + 1..]
        .trim_start_matches([' ', '\t'])
        .trim_start_matches(['\u{2014}', '\u{2013}', '-', ':'])
        .trim()
        .to_string();
    if rule.is_empty() {
        out.bad_pragmas
            .push((line, "wlint pragma names no rule".to_string()));
        return;
    }
    if reason.is_empty() {
        out.bad_pragmas.push((
            line,
            format!("wlint pragma for `{rule}` has no justification"),
        ));
        return;
    }
    out.pragmas.push(Pragma {
        line,
        standalone,
        rule,
        reason,
    });
}

/// Skips a `"..."` string starting at `i` (the opening quote).
fn skip_string(bytes: &[char], i: usize, line: &mut u32) -> usize {
    let mut j = i + 1;
    while j < bytes.len() {
        match bytes[j] {
            '\\' => j += 2,
            '"' => return j + 1,
            '\n' => {
                *line += 1;
                j += 1;
            }
            _ => j += 1,
        }
    }
    j
}

/// `true` when position `i` starts `r"`, `r#"`, `b"`, `br"`, `br#"` (a raw
/// or byte string) rather than an identifier beginning with `r`/`b`.
fn starts_raw_or_byte_string(bytes: &[char], i: usize) -> bool {
    let mut j = i;
    if bytes[j] == 'b' {
        j += 1;
    }
    if j < bytes.len() && bytes[j] == 'r' {
        j += 1;
        while j < bytes.len() && bytes[j] == '#' {
            j += 1;
        }
    }
    // b'x' byte char is handled by the '\'' arm via this same check.
    j < bytes.len() && (bytes[j] == '"' || (j == i + 1 && bytes[i] == 'b' && bytes[j] == '\''))
}

/// Skips a raw/byte string (or byte char) starting at `i`.
fn skip_raw_or_byte_string(bytes: &[char], i: usize, line: &mut u32) -> usize {
    let mut j = i;
    if bytes[j] == 'b' {
        j += 1;
    }
    if j < bytes.len() && bytes[j] == '\'' {
        // b'x' byte char literal.
        j += 1;
        while j < bytes.len() {
            match bytes[j] {
                '\\' => j += 2,
                '\'' => return j + 1,
                _ => j += 1,
            }
        }
        return j;
    }
    let mut hashes = 0usize;
    if j < bytes.len() && bytes[j] == 'r' {
        j += 1;
        while j < bytes.len() && bytes[j] == '#' {
            hashes += 1;
            j += 1;
        }
    }
    if j >= bytes.len() || bytes[j] != '"' {
        return j; // Not actually a string; resume after the prefix.
    }
    j += 1;
    while j < bytes.len() {
        if bytes[j] == '\n' {
            *line += 1;
            j += 1;
        } else if bytes[j] == '"' {
            let mut k = 0usize;
            while k < hashes && bytes.get(j + 1 + k) == Some(&'#') {
                k += 1;
            }
            if k == hashes {
                return j + 1 + hashes;
            }
            j += 1;
        } else {
            j += 1;
        }
    }
    j
}

/// Distinguishes a char literal (`'x'`, `'\n'`) from a lifetime (`'a`,
/// `'static`) at position `i` (the quote) and skips/records accordingly.
fn skip_char_or_lifetime(bytes: &[char], i: usize, line: u32, out: &mut LexOutput) -> usize {
    let next = bytes.get(i + 1).copied();
    match next {
        Some('\\') => {
            // Escaped char literal. The char after the backslash is consumed
            // unconditionally (it may itself be `\` or `'`), then everything
            // up to the closing quote (covers `\x41`, `\u{...}`).
            let mut j = i + 3;
            while j < bytes.len() && bytes[j] != '\'' {
                j += 1;
            }
            j + 1
        }
        Some(c) if c.is_alphabetic() || c == '_' => {
            // `'a'` is a char literal; `'a` followed by non-quote is a
            // lifetime.
            let mut j = i + 2;
            while j < bytes.len() && (bytes[j].is_alphanumeric() || bytes[j] == '_') {
                j += 1;
            }
            if bytes.get(j) == Some(&'\'') && j == i + 2 {
                j + 1 // Single-char literal like 'x'.
            } else {
                out.tokens.push(Token {
                    kind: Tok::Lifetime,
                    line,
                });
                j
            }
        }
        Some(_) => {
            // Something like '(' — a char literal of punctuation.
            if bytes.get(i + 2) == Some(&'\'') {
                i + 3
            } else {
                i + 2
            }
        }
        None => i + 1,
    }
}

/// Skips a numeric literal starting at `i`, returning the index after it.
fn skip_number(bytes: &[char], i: usize) -> usize {
    let is_word = |c: &char| c.is_alphanumeric() || *c == '_';
    let mut j = i;
    if bytes[j] == '0' && matches!(bytes.get(j + 1), Some('x' | 'o' | 'b' | 'X')) {
        j += 2;
        while bytes.get(j).is_some_and(is_word) {
            j += 1;
        }
        return j;
    }
    while bytes
        .get(j)
        .is_some_and(|c| c.is_ascii_digit() || *c == '_')
    {
        j += 1;
    }
    // Decimal point: only when followed by a digit (so `0..n` ranges and
    // `1.max(2)` method calls stay intact).
    if bytes.get(j) == Some(&'.') && bytes.get(j + 1).is_some_and(|c| c.is_ascii_digit()) {
        j += 1;
    }
    // The rest of the literal: fraction digits, exponent, type suffix.
    while let Some(c) = bytes.get(j) {
        let signed_exponent = matches!(c, '+' | '-')
            && matches!(bytes[j - 1], 'e' | 'E')
            && bytes[j - 2].is_ascii_digit();
        if !is_word(c) && !signed_exponent {
            break;
        }
        j += 1;
    }
    j
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter_map(|t| match t.kind {
                Tok::Ident(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn strings_and_comments_are_skipped() {
        let src = r##"
            // HashMap in a comment
            /* unwrap in /* a nested */ block */
            let s = "SystemTime::now()";
            let r = r#"thread_rng"#;
            let c = 'u';
            let real_ident = 1;
        "##;
        let ids = idents(src);
        assert!(ids.contains(&"real_ident".to_string()));
        assert!(!ids
            .iter()
            .any(|s| s == "HashMap" || s == "unwrap" || s == "SystemTime" || s == "thread_rng"));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let src = "fn f<'a>(x: &'a str) -> &'a str { x }";
        let out = lex(src);
        assert_eq!(
            out.tokens
                .iter()
                .filter(|t| t.kind == Tok::Lifetime)
                .count(),
            3
        );
        assert!(idents(src).contains(&"str".to_string()));
    }

    #[test]
    fn numbers_are_single_tokens() {
        let out = lex("a = 1; b = 2.5; c = 1e-9; d = 3f64; e = 0x1E; f = 1.max(2);");
        let nums = out.tokens.iter().filter(|t| t.kind == Tok::Num).count();
        assert_eq!(nums, 7);
        assert_eq!(idents("c = 1e-9; d = 3f64; g = 1usize-1;"), ["c", "d", "g"]);
        assert!(idents("f = 1.max(2);").contains(&"max".to_string()));
    }

    #[test]
    fn ranges_stay_ranges() {
        let out = lex("for i in 0..10 {}");
        assert_eq!(out.tokens.iter().filter(|t| t.kind == Tok::Num).count(), 2);
        assert!(out.tokens.iter().any(|t| t.kind == Tok::Punct("..")));
    }

    #[test]
    fn multi_char_operators_fuse() {
        let out = lex("a == b != c :: d");
        let ops: Vec<&str> = out
            .tokens
            .iter()
            .filter_map(|t| match t.kind {
                Tok::Punct(p) => Some(p),
                _ => None,
            })
            .collect();
        assert_eq!(ops, vec!["==", "!=", "::"]);
    }

    #[test]
    fn pragma_parsing() {
        let src = "
// wlint: allow(panic-reach) — provably infallible: len checked above
let x = v.pop(); // wlint: allow(hot-path-alloc) - exact sentinel comparison
// wlint: allow(panic-reach)
// wlint: bogus
";
        let out = lex(src);
        assert_eq!(out.pragmas.len(), 2);
        assert!(out.pragmas[0].standalone);
        assert_eq!(out.pragmas[0].rule, "panic-reach");
        assert!(out.pragmas[0].reason.contains("infallible"));
        assert!(!out.pragmas[1].standalone);
        assert_eq!(out.pragmas[1].rule, "hot-path-alloc");
        assert_eq!(out.bad_pragmas.len(), 2);
    }

    #[test]
    fn hot_marker_is_recorded_not_rejected() {
        let src = "
// wlint: hot
fn inner(x: &mut [f64]) {}
// wlint: hotter
";
        let out = lex(src);
        assert_eq!(out.hot_markers, vec![2]);
        assert_eq!(out.bad_pragmas.len(), 1, "`hotter` is not a marker");
        assert!(out.pragmas.is_empty());
    }

    #[test]
    fn line_numbers_track_newlines() {
        let out = lex("a\nb\n  c");
        let lines: Vec<u32> = out.tokens.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 2, 3]);
    }
}

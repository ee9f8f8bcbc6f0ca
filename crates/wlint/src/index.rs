//! Workspace symbol index: every `fn`/method with its crate + module path,
//! the calls and rule-relevant sites inside each body, and each file's
//! `use` imports.
//!
//! The index is built from the hand-rolled token stream (`lexer`), not a
//! real AST, so it is deliberately conservative: item boundaries are
//! recognised by keyword + brace matching, calls by `path(`/`.method(`
//! shapes, and anything unrecognised is skipped rather than guessed at.
//! The call graph (`graph`) over-approximates on top of this — a missing
//! edge is possible only for constructs the indexer cannot see (function
//! pointers, macro-generated calls), which the DESIGN §14 contract
//! documents.

use crate::lexer::{lex, LexOutput, Pragma, Tok, Token};

/// How many lines below a `// wlint: hot` / `// wlint: artifact` marker the
/// marked `fn` item may start (attributes and visibility sit in between).
pub const MARKER_WINDOW: u32 = 5;

/// One rule-relevant location inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Site {
    /// 1-based line of the occurrence.
    pub line: u32,
    /// Short description of what occurs there (`vec!`, `.unwrap()`, ...).
    pub what: String,
}

/// What kind of nondeterminism a taint site introduces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaintKind {
    /// `Instant::now()` / `SystemTime::now()` wall-clock read.
    WallClock,
    /// `env::var` outside the `WIMI_THREADS`/`WIMI_CHUNK` allowlist.
    EnvVar,
    /// `thread::current()` (thread IDs are scheduling-dependent).
    ThreadId,
    /// `HashMap`/`HashSet` (unspecified iteration order).
    HashIter,
}

/// A call reference found in a function body, before resolution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallKind {
    /// `f(...)` — resolved through imports, then module, then crate.
    Bare(String),
    /// `a::b::f(...)` — resolved through the qualified path.
    Qualified(Vec<String>),
    /// `.m(...)` — over-approximated to every known method named `m` in
    /// the caller's dependency closure.
    Method(String),
}

/// One call site inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallRef {
    /// 1-based line of the call.
    pub line: u32,
    /// The callee reference as written.
    pub kind: CallKind,
}

/// One indexed function or method definition.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Crate directory name (`wiphy`, `core`, ...; the facade is `wimi`).
    pub crate_dir: String,
    /// Module path inside the crate (file-derived plus inline `mod`s).
    pub module_path: Vec<String>,
    /// `Some(TypeName)` for methods (inherent, trait impl, or trait decl).
    pub self_ty: Option<String>,
    /// The function's own name.
    pub name: String,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line of the `fn` token.
    pub decl_line: u32,
    /// 1-based line where the item starts (first attribute/visibility
    /// token) — suppression pragmas bind to the lines just above this.
    pub item_line: u32,
    /// `pub` (including `pub(crate)` etc.) visibility.
    pub is_pub: bool,
    /// Declared in a `trait` or an `impl Trait for Type` block: callable
    /// wherever the trait is, with no `pub` of its own.
    pub in_trait: bool,
    /// Bound to a `// wlint: hot` marker.
    pub is_hot: bool,
    /// Bound to a `// wlint: artifact` marker.
    pub is_artifact: bool,
    /// Declared inside a `#[test]`/`#[cfg(test)]` region.
    pub in_test: bool,
    /// Calls found in the body, in source order.
    pub calls: Vec<CallRef>,
    /// Heap-allocation sites in the body.
    pub alloc_sites: Vec<Site>,
    /// Panic sites (`panic!`-family macros, `.unwrap()`, `.expect(`).
    pub panic_sites: Vec<Site>,
    /// Slice-index sites (`x[i]` — panics when out of bounds).
    pub index_sites: Vec<Site>,
    /// Nondeterminism sources in the body.
    pub taint_sites: Vec<(Site, TaintKind)>,
}

impl FnDef {
    /// `crate::module::Type::name`-style display path for messages.
    pub fn display_path(&self) -> String {
        let mut s = self.crate_dir.clone();
        for m in &self.module_path {
            s.push_str("::");
            s.push_str(m);
        }
        if let Some(ty) = &self.self_ty {
            s.push_str("::");
            s.push_str(ty);
        }
        s.push_str("::");
        s.push_str(&self.name);
        s
    }
}

/// Per-file metadata the resolver needs beyond the functions themselves.
#[derive(Debug, Clone, Default)]
pub struct FileMeta {
    /// Crate directory name of the file.
    pub crate_dir: String,
    /// `use` aliases: local name → absolute path segments as written
    /// (leading `crate`/`self`/`super` preserved).
    pub imports: Vec<(String, Vec<String>)>,
    /// Glob imports: module paths whose items are all in scope.
    pub globs: Vec<Vec<String>>,
    /// Module path the file itself roots at (from its path under `src/`).
    pub module_path: Vec<String>,
    /// Suppression pragmas in the file (used for path-level suppression).
    pub pragmas: Vec<Pragma>,
}

/// The whole-workspace symbol index.
#[derive(Debug, Default)]
pub struct WorkspaceIndex {
    /// Every indexed function, in (file, declaration) order.
    pub fns: Vec<FnDef>,
    /// Per-file metadata, in walk order.
    pub files: Vec<(String, FileMeta)>,
    /// `// wlint: hot`/`artifact` markers that did not bind to a `fn`:
    /// (file, marker line, marker kind, kind of the item actually found).
    pub unbound_markers: Vec<(String, u32, &'static str, String)>,
}

impl WorkspaceIndex {
    /// Adds one file to the index.
    pub fn add_file(&mut self, rel_path: &str, source: &str) {
        let lexed = lex(source);
        self.add_lexed(rel_path, &lexed);
    }

    /// Adds one already-lexed file (lets the lint driver lex each file
    /// exactly once for both the per-file rules and the index).
    pub fn add_lexed(&mut self, rel_path: &str, lexed: &LexOutput) {
        index_file(rel_path, lexed, self);
    }

    /// Metadata for `file`, if indexed.
    pub fn meta(&self, file: &str) -> Option<&FileMeta> {
        self.files.iter().find(|(f, _)| f == file).map(|(_, m)| m)
    }
}

/// Derives the crate short name from a workspace-relative path
/// (`crates/wiphy/src/csi.rs` → `wiphy`; the facade `src/lib.rs` → `wimi`).
pub fn crate_of(rel_path: &str) -> &str {
    let parts: Vec<&str> = rel_path.split('/').collect();
    if parts.len() >= 2 && parts[0] == "crates" {
        parts[1]
    } else {
        "wimi"
    }
}

/// Module path a file roots at, from its path under `src/`
/// (`crates/wdsp/src/wavelet/denoise.rs` → `["wavelet", "denoise"]`,
/// `.../wavelet/mod.rs` → `["wavelet"]`, `lib.rs`/`main.rs` → `[]`).
fn file_module_path(rel_path: &str) -> Vec<String> {
    let parts: Vec<&str> = rel_path.split('/').collect();
    let Some(src_at) = parts.iter().position(|p| *p == "src") else {
        return Vec::new();
    };
    let mut path: Vec<String> = parts[src_at + 1..]
        .iter()
        .map(|s| s.trim_end_matches(".rs").to_string())
        .collect();
    match path.last().map(String::as_str) {
        Some("lib") | Some("main") | Some("mod") => {
            path.pop();
        }
        _ => {}
    }
    path
}

/// Inclusive line ranges covered by `#[test]` / `#[cfg(test)]` items.
pub fn test_regions(tokens: &[Token]) -> Vec<(u32, u32)> {
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

/// Indexes one lexed file into `out`.
fn index_file(rel_path: &str, lexed: &LexOutput, out: &mut WorkspaceIndex) {
    let tokens = &lexed.tokens;
    let crate_dir = crate_of(rel_path).to_string();
    let regions = test_regions(tokens);
    let in_test = |line: u32| regions.iter().any(|&(a, b)| line >= a && line <= b);

    let mut meta = FileMeta {
        crate_dir: crate_dir.clone(),
        module_path: file_module_path(rel_path),
        pragmas: lexed.pragmas.clone(),
        ..FileMeta::default()
    };

    // (start line, item keyword, fn index in out.fns) for marker binding.
    let mut item_starts: Vec<(u32, String, Option<usize>)> = Vec::new();

    let mut walker = Walker {
        rel_path,
        crate_dir: &crate_dir,
        tokens,
        in_test: &in_test,
        meta: &mut meta,
        fns: &mut out.fns,
        item_starts: &mut item_starts,
        in_trait: false,
    };
    let file_mod = walker.meta.module_path.clone();
    walker.items(0, tokens.len(), &file_mod, None);

    // Bind hot/artifact markers to the first item starting after them.
    for (markers, marker_kind) in [
        (&lexed.hot_markers, "hot"),
        (&lexed.artifact_markers, "artifact"),
    ] {
        for &marker in markers.iter() {
            let hit = item_starts.iter().find(|(line, _, _)| *line > marker);
            match hit {
                Some((line, kw, Some(fn_idx))) if kw == "fn" && *line <= marker + MARKER_WINDOW => {
                    if marker_kind == "hot" {
                        out.fns[*fn_idx].is_hot = true;
                    } else {
                        out.fns[*fn_idx].is_artifact = true;
                    }
                }
                Some((line, kw, _)) if *line <= marker + MARKER_WINDOW => {
                    out.unbound_markers.push((
                        rel_path.to_string(),
                        marker,
                        marker_kind,
                        kw.clone(),
                    ));
                }
                _ => {
                    out.unbound_markers.push((
                        rel_path.to_string(),
                        marker,
                        marker_kind,
                        "nothing".to_string(),
                    ));
                }
            }
        }
    }

    out.files.push((rel_path.to_string(), meta));
}

/// The recursive item walker. Borrows the per-file state so helper methods
/// stay short.
struct Walker<'a> {
    rel_path: &'a str,
    crate_dir: &'a str,
    tokens: &'a [Token],
    in_test: &'a dyn Fn(u32) -> bool,
    meta: &'a mut FileMeta,
    fns: &'a mut Vec<FnDef>,
    item_starts: &'a mut Vec<(u32, String, Option<usize>)>,
    /// Walking the items of a `trait` or `impl Trait for` block.
    in_trait: bool,
}

impl Walker<'_> {
    fn kind(&self, i: usize) -> Option<&Tok> {
        self.tokens.get(i).map(|t| &t.kind)
    }

    fn line(&self, i: usize) -> u32 {
        self.tokens.get(i).map(|t| t.line).unwrap_or(0)
    }

    /// Walks items in `[i, end)` at one nesting level.
    fn items(&mut self, mut i: usize, end: usize, module_path: &[String], self_ty: Option<&str>) {
        while i < end {
            match self.kind(i) {
                Some(Tok::Punct("#")) => {
                    // Attribute: record as the item start, then skip it.
                    let start_line = self.line(i);
                    let mut j = i + 1;
                    if self.kind(j) == Some(&Tok::Punct("!")) {
                        j += 1;
                    }
                    if self.kind(j) == Some(&Tok::Punct("[")) {
                        let mut depth = 0usize;
                        while j < end {
                            match self.kind(j) {
                                Some(Tok::Punct("[")) => depth += 1,
                                Some(Tok::Punct("]")) => {
                                    depth -= 1;
                                    if depth == 0 {
                                        break;
                                    }
                                }
                                _ => {}
                            }
                            j += 1;
                        }
                        i = self.item(j + 1, end, module_path, self_ty, start_line);
                    } else {
                        i = j;
                    }
                }
                Some(Tok::Ident(_)) => {
                    let start_line = self.line(i);
                    i = self.item(i, end, module_path, self_ty, start_line);
                }
                _ => i += 1,
            }
        }
    }

    /// Parses one item starting at `i` (after any attributes); returns the
    /// index just past it.
    fn item(
        &mut self,
        mut i: usize,
        end: usize,
        module_path: &[String],
        self_ty: Option<&str>,
        item_line: u32,
    ) -> usize {
        // Visibility and qualifiers.
        let mut is_pub = false;
        loop {
            match self.kind(i) {
                Some(Tok::Ident(s)) if s == "pub" => {
                    is_pub = true;
                    i += 1;
                    if self.kind(i) == Some(&Tok::Punct("(")) {
                        i = self.match_paren(i) + 1;
                    }
                }
                Some(Tok::Ident(s))
                    if matches!(s.as_str(), "const" | "async" | "unsafe" | "default")
                        && matches!(self.kind(i + 1), Some(Tok::Ident(n)) if n == "fn")
                            | matches!(
                                self.kind(i + 1),
                                Some(Tok::Ident(n)) if matches!(n.as_str(), "const" | "async" | "unsafe" | "extern" | "fn")
                            ) =>
                {
                    // `const fn` / `async fn` / `unsafe fn` qualifier (but a
                    // `const NAME` item falls through below).
                    i += 1;
                }
                Some(Tok::Ident(s)) if s == "extern" => {
                    i += 1;
                    if matches!(self.kind(i), Some(Tok::Str(_))) {
                        i += 1;
                    }
                    // `extern "C" { ... }` block: skip wholesale.
                    if self.kind(i) == Some(&Tok::Punct("{")) {
                        self.item_starts
                            .push((item_line, "extern".to_string(), None));
                        return self.match_braces_from(i) + 1;
                    }
                }
                _ => break,
            }
        }
        let Some(Tok::Ident(kw)) = self.kind(i) else {
            return i + 1;
        };
        let kw = kw.clone();
        match kw.as_str() {
            "fn" => self.fn_item(i, module_path, self_ty, is_pub, item_line),
            "mod" => {
                self.item_starts.push((item_line, "mod".to_string(), None));
                let name = match self.kind(i + 1) {
                    Some(Tok::Ident(n)) => n.clone(),
                    _ => return i + 1,
                };
                let mut j = i + 2;
                while j < end {
                    match self.kind(j) {
                        Some(Tok::Punct(";")) => return j + 1,
                        Some(Tok::Punct("{")) => {
                            let close = self.match_braces_from(j);
                            let mut inner = module_path.to_vec();
                            inner.push(name);
                            self.items(j + 1, close, &inner, None);
                            return close + 1;
                        }
                        _ => j += 1,
                    }
                }
                j
            }
            "impl" | "trait" => {
                self.item_starts.push((item_line, kw.clone(), None));
                // Self type: for `impl`, the path after `for` if present,
                // else the first path after generics; for `trait`, the name.
                let mut j = i + 1;
                let mut angle = 0isize;
                let mut last_path_ident: Option<String> = None;
                let mut after_for: Option<String> = None;
                let mut saw_for = false;
                while j < end {
                    match self.kind(j) {
                        Some(Tok::Punct("{")) if angle <= 0 => break,
                        Some(Tok::Punct(";")) if angle <= 0 => return j + 1,
                        Some(Tok::Punct("<")) => angle += 1,
                        Some(Tok::Punct(">")) => angle -= 1,
                        Some(Tok::Punct("->")) => {}
                        Some(Tok::Ident(s)) if angle <= 0 => {
                            if s == "for" {
                                saw_for = true;
                            } else if s == "where" {
                                // Type position ends at the where clause.
                            } else if saw_for && after_for.is_none() {
                                after_for = Some(s.clone());
                            } else if !saw_for {
                                last_path_ident = Some(s.clone());
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
                if j >= end {
                    return j;
                }
                let ty = if kw == "trait" {
                    // `trait Name` — the first ident is the name.
                    self.tokens[i + 1..j].iter().find_map(|t| match &t.kind {
                        Tok::Ident(s) => Some(s.clone()),
                        _ => None,
                    })
                } else {
                    after_for.or(last_path_ident)
                };
                let close = self.match_braces_from(j);
                let outer = std::mem::replace(&mut self.in_trait, kw == "trait" || saw_for);
                self.items(j + 1, close, module_path, ty.as_deref());
                self.in_trait = outer;
                close + 1
            }
            "struct" | "enum" | "union" | "type" | "const" | "static" => {
                self.item_starts.push((item_line, kw.clone(), None));
                // Skip to the terminating `;` or brace group at depth 0.
                let mut j = i + 1;
                let mut depth = 0isize;
                while j < end {
                    match self.kind(j) {
                        Some(Tok::Punct("(")) | Some(Tok::Punct("[")) => depth += 1,
                        Some(Tok::Punct(")")) | Some(Tok::Punct("]")) => depth -= 1,
                        Some(Tok::Punct("{")) if depth == 0 => {
                            // Struct/enum body (or a const's value block).
                            return self.match_braces_from(j) + 1;
                        }
                        Some(Tok::Punct(";")) if depth == 0 => return j + 1,
                        _ => {}
                    }
                    j += 1;
                }
                j
            }
            "use" => {
                self.item_starts.push((item_line, "use".to_string(), None));
                let mut j = i + 1;
                while j < end && self.kind(j) != Some(&Tok::Punct(";")) {
                    j += 1;
                }
                self.parse_use(i + 1, j);
                j + 1
            }
            "macro_rules" => {
                self.item_starts
                    .push((item_line, "macro_rules".to_string(), None));
                let mut j = i + 1;
                while j < end && self.kind(j) != Some(&Tok::Punct("{")) {
                    j += 1;
                }
                if j < end {
                    self.match_braces_from(j) + 1
                } else {
                    j
                }
            }
            _ => i + 1,
        }
    }

    /// Parses a `fn` item at `i` (the `fn` token); returns the index past it.
    fn fn_item(
        &mut self,
        i: usize,
        module_path: &[String],
        self_ty: Option<&str>,
        is_pub: bool,
        item_line: u32,
    ) -> usize {
        let decl_line = self.line(i);
        let name = match self.kind(i + 1) {
            Some(Tok::Ident(n)) => n.clone(),
            _ => return i + 1,
        };
        // Find the body `{` or the `;` of a bodiless signature, skipping
        // generics/params/return type/where clause.
        let mut j = i + 2;
        let mut angle = 0isize;
        let mut paren = 0isize;
        let mut body_open = None;
        while j < self.tokens.len() {
            match self.kind(j) {
                Some(Tok::Punct("<")) => angle += 1,
                Some(Tok::Punct(">")) => angle -= 1,
                Some(Tok::Punct("(")) | Some(Tok::Punct("[")) => paren += 1,
                Some(Tok::Punct(")")) | Some(Tok::Punct("]")) => paren -= 1,
                Some(Tok::Punct("{")) if paren == 0 => {
                    body_open = Some(j);
                    break;
                }
                Some(Tok::Punct(";")) if paren == 0 => break,
                _ => {}
            }
            j += 1;
        }
        let _ = angle;
        let mut def = FnDef {
            crate_dir: self.crate_dir.to_string(),
            module_path: module_path.to_vec(),
            self_ty: self_ty.map(str::to_string),
            name,
            file: self.rel_path.to_string(),
            decl_line,
            item_line,
            is_pub,
            in_trait: self.in_trait,
            is_hot: false,
            is_artifact: false,
            in_test: (self.in_test)(decl_line),
            calls: Vec::new(),
            alloc_sites: Vec::new(),
            panic_sites: Vec::new(),
            index_sites: Vec::new(),
            taint_sites: Vec::new(),
        };
        let next = match body_open {
            Some(open) => {
                let close = match_brace(self.tokens, open);
                extract_body(self.tokens, open, close, &mut def);
                close + 1
            }
            None => j + 1,
        };
        let fn_idx = self.fns.len();
        self.item_starts
            .push((item_line, "fn".to_string(), Some(fn_idx)));
        self.fns.push(def);
        next
    }

    /// Parses the token span of one `use` item (without `use` and `;`) into
    /// the file's import and glob tables.
    fn parse_use(&mut self, i: usize, end: usize) {
        let mut prefix: Vec<String> = Vec::new();
        self.use_tree(i, end, &mut prefix);
    }

    /// Recursive `use` tree: `a::b::{c, d as e, f::*, self}`.
    /// Returns the index just past the parsed subtree.
    fn use_tree(&mut self, mut i: usize, end: usize, prefix: &mut Vec<String>) -> usize {
        let depth_at_entry = prefix.len();
        while i < end {
            match self.kind(i) {
                Some(Tok::Ident(s)) if s == "as" => {
                    let alias = match self.kind(i + 1) {
                        Some(Tok::Ident(a)) => a.clone(),
                        _ => break,
                    };
                    self.meta.imports.push((alias, prefix.clone()));
                    prefix.truncate(depth_at_entry);
                    return i + 2;
                }
                Some(Tok::Ident(s)) => {
                    if s == "self" && prefix.len() > depth_at_entry {
                        // `{self, ...}`: the prefix itself is imported.
                        // (Only meaningful inside a group; a leading `self`
                        // is a path qualifier and stays in the prefix.)
                    }
                    prefix.push(s.clone());
                    i += 1;
                }
                Some(Tok::Punct("::")) => i += 1,
                Some(Tok::Punct("*")) => {
                    self.meta.globs.push(prefix.clone());
                    prefix.truncate(depth_at_entry);
                    return i + 1;
                }
                Some(Tok::Punct("{")) => {
                    // Group: each sibling subtree restores the prefix to the
                    // group's path itself before returning.
                    i += 1;
                    loop {
                        let before = i;
                        i = self.use_tree(i, end, prefix);
                        match self.kind(i) {
                            Some(Tok::Punct(",")) => i += 1,
                            Some(Tok::Punct("}")) => {
                                i += 1;
                                break;
                            }
                            _ if i >= end || i == before => break,
                            _ => {}
                        }
                    }
                    prefix.truncate(depth_at_entry);
                    return i;
                }
                Some(Tok::Punct(",")) | Some(Tok::Punct("}")) => {
                    // End of this subtree: emit the accumulated path.
                    self.finish_use_leaf(prefix, depth_at_entry);
                    return i;
                }
                _ => i += 1,
            }
        }
        self.finish_use_leaf(prefix, depth_at_entry);
        i
    }

    /// Emits the leaf import for a finished subtree path.
    fn finish_use_leaf(&mut self, prefix: &mut Vec<String>, depth_at_entry: usize) {
        if prefix.len() > depth_at_entry {
            let alias = match prefix.last().map(String::as_str) {
                // `use a::b::{self}` imports `b`.
                Some("self") if prefix.len() >= 2 => prefix[prefix.len() - 2].clone(),
                Some(last) => last.to_string(),
                None => return,
            };
            let mut path = prefix.clone();
            if path.last().map(String::as_str) == Some("self") {
                path.pop();
            }
            self.meta.imports.push((alias, path));
            prefix.truncate(depth_at_entry);
        }
    }

    fn match_paren(&self, open: usize) -> usize {
        let mut depth = 0usize;
        let mut j = open;
        while j < self.tokens.len() {
            match self.kind(j) {
                Some(Tok::Punct("(")) => depth += 1,
                Some(Tok::Punct(")")) => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        return j;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        j.saturating_sub(1)
    }

    fn match_braces_from(&self, open: usize) -> usize {
        match_brace(self.tokens, open)
    }
}

/// Identifiers that look like calls (`kw (`) but are control flow or
/// bindings, never callees.
const NOT_CALLEES: [&str; 28] = [
    "if", "else", "match", "while", "for", "loop", "return", "break", "continue", "in", "as",
    "move", "ref", "mut", "let", "fn", "impl", "where", "unsafe", "async", "await", "dyn", "box",
    "pub", "use", "mod", "crate", "Self",
];

/// Constructors whose *call* allocates; a bare path (e.g. `Vec::new` passed
/// to `resize_with` as a constructor function) does not fire.
pub const ALLOC_CTOR_TYPES: [&str; 7] = [
    "Vec",
    "VecDeque",
    "Box",
    "String",
    "BTreeMap",
    "BTreeSet",
    "BinaryHeap",
];

/// Constructor method names that allocate when called on an
/// [`ALLOC_CTOR_TYPES`] type.
pub const ALLOC_CTOR_METHODS: [&str; 3] = ["new", "with_capacity", "from"];

/// Method calls that allocate a fresh buffer regardless of receiver.
pub const ALLOC_METHODS: [&str; 4] = ["collect", "to_vec", "to_owned", "to_string"];

/// Macros that unconditionally panic.
const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];

/// `env::var` keys that are part of the deterministic contract (they select
/// the fan-out shape, and CI diffs artifacts across their settings).
pub const ENV_ALLOWLIST: [&str; 2] = ["WIMI_THREADS", "WIMI_CHUNK"];

/// Extracts calls and rule-relevant sites from a body span `[open..=close]`.
fn extract_body(tokens: &[Token], open: usize, close: usize, def: &mut FnDef) {
    let kind = |i: usize| tokens.get(i).map(|t| &t.kind);
    for idx in open..=close.min(tokens.len().saturating_sub(1)) {
        let t = &tokens[idx];
        let line = t.line;
        match &t.kind {
            // ---- Call detection anchored at `(` ----
            Tok::Punct("(") => {
                if let Some(call) = call_before_paren(tokens, idx) {
                    def.calls.push(CallRef { line, kind: call });
                }
            }
            // ---- Allocation + panic macro sites ----
            Tok::Ident(s) if kind(idx + 1) == Some(&Tok::Punct("!")) => {
                if s == "vec" || s == "format" {
                    def.alloc_sites.push(Site {
                        line,
                        what: format!("{s}!"),
                    });
                } else if PANIC_MACROS.contains(&s.as_str()) {
                    def.panic_sites.push(Site {
                        line,
                        what: format!("{s}!"),
                    });
                }
            }
            Tok::Ident(s) if ALLOC_CTOR_TYPES.contains(&s.as_str()) => {
                if let (Some(Tok::Punct("::")), Some(Tok::Ident(m)), Some(Tok::Punct("("))) =
                    (kind(idx + 1), kind(idx + 2), kind(idx + 3))
                {
                    if ALLOC_CTOR_METHODS.contains(&m.as_str()) {
                        def.alloc_sites.push(Site {
                            line,
                            what: format!("{s}::{m}()"),
                        });
                    }
                }
            }
            // ---- Taint sources ----
            Tok::Ident(s) if s == "Instant" || s == "SystemTime" => {
                if let (Some(Tok::Punct("::")), Some(Tok::Ident(m))) =
                    (kind(idx + 1), kind(idx + 2))
                {
                    if m == "now" {
                        def.taint_sites.push((
                            Site {
                                line,
                                what: format!("{s}::now()"),
                            },
                            TaintKind::WallClock,
                        ));
                    }
                }
            }
            Tok::Ident(s) if s == "HashMap" || s == "HashSet" => {
                def.taint_sites.push((
                    Site {
                        line,
                        what: s.clone(),
                    },
                    TaintKind::HashIter,
                ));
            }
            Tok::Ident(s) if s == "env" => {
                if let (Some(Tok::Punct("::")), Some(Tok::Ident(m)), Some(Tok::Punct("("))) =
                    (kind(idx + 1), kind(idx + 2), kind(idx + 3))
                {
                    if m == "var" || m == "var_os" {
                        let allowed = matches!(
                            kind(idx + 4),
                            Some(Tok::Str(key)) if ENV_ALLOWLIST.contains(&key.as_str())
                        );
                        if !allowed {
                            let key = match kind(idx + 4) {
                                Some(Tok::Str(k)) => format!("\"{k}\""),
                                _ => "<dynamic>".to_string(),
                            };
                            def.taint_sites.push((
                                Site {
                                    line,
                                    what: format!("env::{m}({key})"),
                                },
                                TaintKind::EnvVar,
                            ));
                        }
                    }
                }
            }
            Tok::Ident(s) if s == "thread" => {
                if let (Some(Tok::Punct("::")), Some(Tok::Ident(m))) =
                    (kind(idx + 1), kind(idx + 2))
                {
                    if m == "current" {
                        def.taint_sites.push((
                            Site {
                                line,
                                what: "thread::current()".to_string(),
                            },
                            TaintKind::ThreadId,
                        ));
                    }
                }
            }
            // ---- `.method` allocation/panic sites ----
            Tok::Punct(".") => {
                if let Some(Tok::Ident(m)) = kind(idx + 1) {
                    if ALLOC_METHODS.contains(&m.as_str()) {
                        def.alloc_sites.push(Site {
                            line,
                            what: format!(".{m}()"),
                        });
                    } else if m == "unwrap" || m == "expect" {
                        def.panic_sites.push(Site {
                            line,
                            what: format!(".{m}()"),
                        });
                    }
                }
            }
            // ---- Slice-index sites: `[` directly after a value ----
            Tok::Punct("[") => {
                let value_before = matches!(
                    kind(idx.wrapping_sub(1)),
                    Some(Tok::Ident(prev)) if idx > open && !NOT_CALLEES.contains(&prev.as_str())
                ) || matches!(
                    kind(idx.wrapping_sub(1)),
                    Some(Tok::Punct(")")) | Some(Tok::Punct("]")) if idx > open
                );
                if value_before {
                    def.index_sites.push(Site {
                        line,
                        what: "slice index".to_string(),
                    });
                }
            }
            _ => {}
        }
    }
}

/// Reconstructs the callee reference ending just before the `(` at `idx`,
/// if the tokens form a call.
fn call_before_paren(tokens: &[Token], idx: usize) -> Option<CallKind> {
    let kind = |i: usize| tokens.get(i).map(|t| &t.kind);
    if idx == 0 {
        return None;
    }
    let mut j = idx - 1;
    // Turbofish: `name::<T>(` — step back over the angle group and `::`.
    if kind(j) == Some(&Tok::Punct(">")) {
        let mut angle = 0isize;
        loop {
            match kind(j) {
                Some(Tok::Punct(">")) => angle += 1,
                Some(Tok::Punct("<")) => {
                    angle -= 1;
                    if angle == 0 {
                        break;
                    }
                }
                None => return None,
                _ => {}
            }
            if j == 0 {
                return None;
            }
            j -= 1;
        }
        if j < 1 || kind(j - 1) != Some(&Tok::Punct("::")) {
            return None;
        }
        j -= 2;
    }
    let name = match kind(j) {
        Some(Tok::Ident(s)) => s.clone(),
        _ => return None,
    };
    if NOT_CALLEES.contains(&name.as_str()) {
        return None;
    }
    // Macro call `name!(` never reaches here (`!` sits before `(`), but a
    // `name !(` split across the turbofish path cannot occur either.
    // Walk the qualified path backwards: `a::b::name`.
    let mut segs = vec![name];
    while j >= 2 && kind(j - 1) == Some(&Tok::Punct("::")) {
        match kind(j - 2) {
            Some(Tok::Ident(s)) => {
                segs.insert(0, s.clone());
                j -= 2;
            }
            // Mid-path turbofish: `Vec::<f64>::new` — hop over `::<f64>`
            // back to the type segment the generics attach to.
            Some(Tok::Punct(">")) => {
                let mut k = j - 2;
                let mut angle = 0isize;
                loop {
                    match kind(k) {
                        Some(Tok::Punct(">")) => angle += 1,
                        Some(Tok::Punct("<")) => {
                            angle -= 1;
                            if angle == 0 {
                                break;
                            }
                        }
                        None => break,
                        _ => {}
                    }
                    if k == 0 {
                        break;
                    }
                    k -= 1;
                }
                if angle != 0 || k < 2 || kind(k - 1) != Some(&Tok::Punct("::")) {
                    break;
                }
                match kind(k - 2) {
                    Some(Tok::Ident(s)) => {
                        segs.insert(0, s.clone());
                        j = k - 2;
                    }
                    _ => break,
                }
            }
            _ => break,
        }
    }
    // What sits before the path start?
    let before = if j == 0 { None } else { kind(j - 1) };
    match before {
        // `fn name(` — a declaration, not a call (nested fn).
        Some(Tok::Ident(s)) if s == "fn" => None,
        // `.name(` — method call (single segment only).
        Some(Tok::Punct(".")) if segs.len() == 1 => Some(CallKind::Method(segs.pop()?)),
        // `.a::b(` cannot parse in Rust; treat as qualified anyway.
        _ if segs.len() > 1 => Some(CallKind::Qualified(segs)),
        _ => Some(CallKind::Bare(segs.pop()?)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn index_one(path: &str, src: &str) -> WorkspaceIndex {
        let mut ix = WorkspaceIndex::default();
        ix.add_file(path, src);
        ix
    }

    #[test]
    fn fns_get_crate_module_and_type_paths() {
        let src = "
pub fn free() {}
mod inner {
    impl Widget {
        pub(crate) fn method(&self) {}
    }
    trait Render {
        fn draw(&self) { helper(); }
    }
}
";
        let ix = index_one("crates/wdsp/src/wavelet/mod.rs", src);
        let paths: Vec<String> = ix.fns.iter().map(|f| f.display_path()).collect();
        assert_eq!(
            paths,
            vec![
                "wdsp::wavelet::free",
                "wdsp::wavelet::inner::Widget::method",
                "wdsp::wavelet::inner::Render::draw",
            ]
        );
        assert!(ix.fns[0].is_pub);
        assert!(ix.fns[1].is_pub, "pub(crate) counts as pub");
        assert_eq!(ix.fns[2].calls.len(), 1);
    }

    #[test]
    fn impl_for_binds_methods_to_the_implementing_type() {
        let src = "
impl std::fmt::Display for Report {
    fn fmt(&self, f: &mut std::fmt::Formatter) -> std::fmt::Result { write_it(f) }
}
";
        let ix = index_one("crates/core/src/error.rs", src);
        assert_eq!(ix.fns.len(), 1);
        assert_eq!(ix.fns[0].self_ty.as_deref(), Some("Report"));
    }

    #[test]
    fn calls_are_classified_bare_qualified_method() {
        let src = "
fn f() {
    helper();
    crate::m::helper2();
    wimi_dsp::stats::variance(&[1.0]);
    x.method_call();
    y.turbo::<f64>();
    Vec::<f64>::new();
    if (a) { return (b); }
}
";
        let ix = index_one("crates/core/src/x.rs", src);
        let calls = &ix.fns[0].calls;
        let shapes: Vec<String> = calls
            .iter()
            .map(|c| match &c.kind {
                CallKind::Bare(n) => format!("bare:{n}"),
                CallKind::Qualified(p) => format!("qual:{}", p.join("::")),
                CallKind::Method(n) => format!("method:{n}"),
            })
            .collect();
        assert!(shapes.contains(&"bare:helper".to_string()), "{shapes:?}");
        assert!(
            shapes.contains(&"qual:crate::m::helper2".to_string()),
            "{shapes:?}"
        );
        assert!(
            shapes.contains(&"qual:wimi_dsp::stats::variance".to_string()),
            "{shapes:?}"
        );
        assert!(
            shapes.contains(&"method:method_call".to_string()),
            "{shapes:?}"
        );
        assert!(shapes.contains(&"method:turbo".to_string()), "{shapes:?}");
        assert!(
            shapes.contains(&"qual:Vec::new".to_string()),
            "turbofish on a qualified path: {shapes:?}"
        );
        assert!(
            !shapes.iter().any(|s| s == "bare:if" || s == "bare:return"),
            "{shapes:?}"
        );
    }

    #[test]
    fn sites_are_extracted_per_fn() {
        let src = "
fn f(v: &[f64], i: usize) -> f64 {
    let a = vec![0.0];
    let b: Vec<f64> = v.iter().map(|x| x + 1.0).collect();
    let t = std::time::Instant::now();
    let k = std::env::var(\"HOSTNAME\");
    let ok = std::env::var(\"WIMI_THREADS\");
    let _ = (a, b, t, k, ok);
    v[i] + v.first().unwrap()
}
";
        let ix = index_one("crates/experiments/src/x.rs", src);
        let f = &ix.fns[0];
        assert_eq!(f.alloc_sites.len(), 2, "{:?}", f.alloc_sites);
        assert_eq!(f.panic_sites.len(), 1, "{:?}", f.panic_sites);
        assert_eq!(f.index_sites.len(), 1, "{:?}", f.index_sites);
        let taints: Vec<&str> = f.taint_sites.iter().map(|(s, _)| s.what.as_str()).collect();
        assert!(taints.contains(&"Instant::now()"), "{taints:?}");
        assert!(taints.contains(&"env::var(\"HOSTNAME\")"), "{taints:?}");
        assert_eq!(f.taint_sites.len(), 2, "allowlisted key exempt: {taints:?}");
    }

    #[test]
    fn use_imports_parse_groups_renames_and_globs() {
        let src = "
use wimi_dsp::stats::{median_in, variance as var};
use wimi_phy::csi::CsiCapture;
use crate::helpers as h;
use wimi_ml::dataset::*;
fn f() {}
";
        let ix = index_one("crates/core/src/x.rs", src);
        let meta = ix.meta("crates/core/src/x.rs").unwrap();
        let find = |alias: &str| {
            meta.imports
                .iter()
                .find(|(a, _)| a == alias)
                .map(|(_, p)| p.join("::"))
        };
        assert_eq!(
            find("median_in").as_deref(),
            Some("wimi_dsp::stats::median_in")
        );
        assert_eq!(find("var").as_deref(), Some("wimi_dsp::stats::variance"));
        assert_eq!(
            find("CsiCapture").as_deref(),
            Some("wimi_phy::csi::CsiCapture")
        );
        assert_eq!(find("h").as_deref(), Some("crate::helpers"));
        assert_eq!(meta.globs, vec![vec!["wimi_ml", "dataset"]]);
    }

    #[test]
    fn hot_marker_binds_only_to_the_next_fn_item() {
        let src = "
// wlint: hot
fn marked() {}

// wlint: hot
impl Foo {
    fn not_marked(&self) {}
}
";
        let ix = index_one("crates/wdsp/src/x.rs", src);
        let marked: Vec<&str> = ix
            .fns
            .iter()
            .filter(|f| f.is_hot)
            .map(|f| f.name.as_str())
            .collect();
        assert_eq!(marked, vec!["marked"]);
        assert_eq!(ix.unbound_markers.len(), 1);
        assert_eq!(ix.unbound_markers[0].1, 5);
        assert_eq!(ix.unbound_markers[0].2, "hot");
        assert_eq!(ix.unbound_markers[0].3, "impl");
    }

    #[test]
    fn marker_binds_through_attributes_and_visibility() {
        let src = "
// wlint: hot
#[inline]
pub fn fast() {}
";
        let ix = index_one("crates/wdsp/src/x.rs", src);
        assert!(ix.fns[0].is_hot);
        assert!(ix.unbound_markers.is_empty());
    }

    #[test]
    fn file_module_paths_derive_from_src_layout() {
        assert_eq!(
            file_module_path("crates/wdsp/src/wavelet/denoise.rs"),
            vec!["wavelet", "denoise"]
        );
        assert_eq!(
            file_module_path("crates/wdsp/src/wavelet/mod.rs"),
            vec!["wavelet"]
        );
        assert!(file_module_path("crates/wdsp/src/lib.rs").is_empty());
        assert!(file_module_path("src/lib.rs").is_empty());
    }

    #[test]
    fn indexer_survives_truncated_and_hostile_source() {
        for src in [
            "fn f( {",
            "impl {",
            "use ::{{{",
            "fn f() { x[ }",
            "pub pub pub",
            "mod m { fn g() { vec![ } ",
            "// wlint: hot",
            "trait T",
        ] {
            let mut ix = WorkspaceIndex::default();
            ix.add_file("crates/x/src/lib.rs", src);
        }
    }
}

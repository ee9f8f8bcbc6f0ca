//! Conservative call graph over the [`WorkspaceIndex`].
//!
//! Resolution is deliberately over-approximate: a call that *might* target
//! an indexed function produces an edge, and a call the resolver cannot
//! place (std paths, vendored crates, function pointers) produces none.
//! The interprocedural rules therefore err toward flagging — the
//! suppression-with-reason escape hatch covers the residue — while the
//! only silent gaps are constructs the indexer cannot see at all
//! (documented in DESIGN §14).

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::index::{CallKind, FnDef, WorkspaceIndex};

/// Cargo import name → crate directory for the workspace members. Fixture
/// crates not listed here resolve by identity (their directory name doubles
/// as the import name), which also keeps std's `core`/`std` from colliding
/// with the `crates/core` member (imported only as `wimi_core`).
pub const IMPORT_NAMES: [(&str, &str); 11] = [
    ("wimi", "wimi"),
    ("wimi_core", "core"),
    ("wimi_phy", "wiphy"),
    ("wimi_dsp", "wdsp"),
    ("wimi_ml", "wml"),
    ("wimi_obs", "wobs"),
    ("wimi_trace", "wtrace"),
    ("wimi_campaign", "wcampaign"),
    ("wimi_experiments", "experiments"),
    ("wimi_bench", "bench"),
    ("wimi_lint", "wlint"),
];

/// Path roots that always mean the standard library — never a workspace
/// crate, even when a directory shares the name (`crates/core`).
const STD_ROOTS: [&str; 3] = ["std", "core", "alloc"];

/// Direct workspace dependencies per crate directory. The method-call
/// over-approximation is restricted to the caller's transitive closure;
/// a crate absent from the map (fixtures, single-file lint) is assumed to
/// depend on everything.
#[derive(Debug, Default, Clone)]
pub struct DepMap {
    /// crate dir → direct dependency crate dirs.
    pub direct: BTreeMap<String, Vec<String>>,
}

impl DepMap {
    /// Transitive dependency closure of `crate_dir`, including itself.
    /// `None` means the crate is unknown and every edge target is allowed.
    pub fn closure(&self, crate_dir: &str) -> Option<BTreeSet<String>> {
        if !self.direct.contains_key(crate_dir) {
            return None;
        }
        let mut seen: BTreeSet<String> = BTreeSet::new();
        let mut queue = vec![crate_dir.to_string()];
        while let Some(c) = queue.pop() {
            if !seen.insert(c.clone()) {
                continue;
            }
            if let Some(deps) = self.direct.get(&c) {
                queue.extend(deps.iter().cloned());
            }
        }
        Some(seen)
    }
}

/// `Foo` / `CsiCapture` — a path segment naming a type rather than a module.
fn type_shaped(seg: &str) -> bool {
    seg.chars().next().is_some_and(|c| c.is_ascii_uppercase())
}

/// The resolved call graph: `edges[i]` lists the indexed functions the
/// body of `ix.fns[i]` may call, sorted and deduplicated.
#[derive(Debug, Default)]
pub struct CallGraph {
    pub edges: Vec<Vec<usize>>,
}

struct Resolver<'a> {
    ix: &'a WorkspaceIndex,
    deps: &'a DepMap,
    /// (crate dir, fn name) → free-fn indices.
    free_fns: BTreeMap<(&'a str, &'a str), Vec<usize>>,
    /// (crate dir, type, fn name) → method indices.
    methods: BTreeMap<(&'a str, &'a str, &'a str), Vec<usize>>,
    /// fn name → method indices (for receiver-less over-approximation).
    methods_by_name: BTreeMap<&'a str, Vec<usize>>,
    /// Crate dirs present in the index (identity import-name fallback).
    crate_dirs: BTreeSet<&'a str>,
}

impl<'a> Resolver<'a> {
    fn new(ix: &'a WorkspaceIndex, deps: &'a DepMap) -> Self {
        let mut r = Resolver {
            ix,
            deps,
            free_fns: BTreeMap::new(),
            methods: BTreeMap::new(),
            methods_by_name: BTreeMap::new(),
            crate_dirs: BTreeSet::new(),
        };
        for (i, f) in ix.fns.iter().enumerate() {
            r.crate_dirs.insert(&f.crate_dir);
            match &f.self_ty {
                None => r
                    .free_fns
                    .entry((&f.crate_dir, &f.name))
                    .or_default()
                    .push(i),
                Some(ty) => {
                    r.methods
                        .entry((&f.crate_dir, ty, &f.name))
                        .or_default()
                        .push(i);
                    r.methods_by_name.entry(&f.name).or_default().push(i);
                }
            }
        }
        r
    }

    /// Maps the first path segment to a crate directory, if it names one.
    fn import_name_to_dir(&self, name: &str) -> Option<&str> {
        if let Some((_, dir)) = IMPORT_NAMES.iter().find(|(n, _)| *n == name) {
            return Some(dir);
        }
        // Identity fallback for fixture crates, unless the name is claimed
        // by the import table or the standard library.
        if STD_ROOTS.contains(&name) || IMPORT_NAMES.iter().any(|(_, d)| *d == name) {
            return None;
        }
        self.crate_dirs.get(name).copied()
    }

    fn resolve(&self, caller: usize, kind: &CallKind) -> Vec<usize> {
        match kind {
            CallKind::Bare(name) => self.resolve_bare(caller, name),
            CallKind::Qualified(segs) => self.resolve_qualified(caller, segs),
            CallKind::Method(name) => self.resolve_method(caller, name),
        }
    }

    fn resolve_bare(&self, caller: usize, name: &str) -> Vec<usize> {
        let f = &self.ix.fns[caller];
        let meta = self.ix.meta(&f.file);
        // Tier 1: a `use` alias brings the name into scope.
        if let Some(meta) = meta {
            if let Some((_, path)) = meta.imports.iter().find(|(a, _)| a == name) {
                let hits = self.resolve_qualified(caller, path);
                if !hits.is_empty() {
                    return hits;
                }
            }
        }
        // Tier 2: a free fn in the caller's own module.
        if let Some(hits) = self.free_fns.get(&(f.crate_dir.as_str(), name)) {
            let same_module: Vec<usize> = hits
                .iter()
                .copied()
                .filter(|&i| self.ix.fns[i].module_path == f.module_path)
                .collect();
            if !same_module.is_empty() {
                return same_module;
            }
        }
        // Tier 3: glob imports.
        if let Some(meta) = meta {
            for glob in &meta.globs {
                let mut path = glob.clone();
                path.push(name.to_string());
                let hits = self.resolve_qualified(caller, &path);
                if !hits.is_empty() {
                    return hits;
                }
            }
        }
        // Tier 4: any free fn with the name in the caller's crate
        // (re-exports, parent-module `use super::*` idioms).
        self.free_fns
            .get(&(f.crate_dir.as_str(), name))
            .cloned()
            .unwrap_or_default()
    }

    fn resolve_qualified(&self, caller: usize, segs: &[String]) -> Vec<usize> {
        if segs.len() < 2 {
            return match segs.first() {
                Some(name) => self.resolve_bare(caller, name),
                None => Vec::new(),
            };
        }
        let f = &self.ix.fns[caller];
        // Alias substitution on the head segment (`use wimi_dsp::stats;`
        // then `stats::variance(..)`). A path re-starting with its own
        // alias (`use helpers::helpers;`) is skipped to avoid looping.
        if let Some(meta) = self.ix.meta(&f.file) {
            if let Some((_, path)) = meta
                .imports
                .iter()
                .find(|(a, p)| a == &segs[0] && p.first() != Some(&segs[0]))
            {
                let mut subst = path.clone();
                subst.extend(segs[1..].iter().cloned());
                return self.resolve_normalized(caller, &subst);
            }
        }
        self.resolve_normalized(caller, segs)
    }

    /// Resolves a path whose head is a keyword, crate name, or in-crate
    /// module/type.
    fn resolve_normalized(&self, caller: usize, segs: &[String]) -> Vec<usize> {
        let f = &self.ix.fns[caller];
        match segs[0].as_str() {
            "crate" => self.resolve_in_crate(&f.crate_dir, &segs[1..]),
            "self" => {
                let mut rel: Vec<String> = f.module_path.clone();
                rel.extend(segs[1..].iter().cloned());
                self.resolve_in_crate(&f.crate_dir, &rel)
            }
            "super" => {
                let mut module = f.module_path.clone();
                let mut rest = segs;
                while rest.first().map(String::as_str) == Some("super") {
                    module.pop();
                    rest = &rest[1..];
                }
                let mut rel = module;
                rel.extend(rest.iter().cloned());
                self.resolve_in_crate(&f.crate_dir, &rel)
            }
            "Self" => match (&f.self_ty, segs.len()) {
                (Some(ty), 2) => self.lookup_methods(&f.crate_dir, ty, &segs[1]),
                _ => Vec::new(),
            },
            head if STD_ROOTS.contains(&head) => Vec::new(),
            head => match self.import_name_to_dir(head) {
                Some(dir) => {
                    let dir = dir.to_string();
                    self.resolve_in_crate(&dir, &segs[1..])
                }
                // `module::f(..)` / `Type::m(..)` relative to the caller's
                // crate root or module.
                None => self.resolve_in_crate(&f.crate_dir, segs),
            },
        }
    }

    /// Resolves `rel` (module/type segments + fn name) inside one crate.
    fn resolve_in_crate(&self, crate_dir: &str, rel: &[String]) -> Vec<usize> {
        let Some((name, qual)) = rel.split_last() else {
            return Vec::new();
        };
        if let Some(ty) = qual.last() {
            if type_shaped(ty) {
                // `Type::method` — only an edge when the type is ours;
                // `Vec::with_capacity` and friends fall out here.
                return self.lookup_methods(crate_dir, ty, name);
            }
        }
        // Module-qualified or crate-root free fn. Module prefixes are not
        // matched exactly: re-exports (`pub use stats::variance`) make the
        // written path diverge from the defining module, so (crate, name)
        // is the over-approximation that never loses the edge.
        self.free_fns
            .get(&(crate_dir, name.as_str()))
            .cloned()
            .unwrap_or_default()
    }

    fn lookup_methods(&self, crate_dir: &str, ty: &str, name: &str) -> Vec<usize> {
        self.methods
            .get(&(crate_dir, ty, name))
            .cloned()
            .unwrap_or_default()
    }

    /// `.m(..)` with an unknown receiver: every method named `m` the
    /// caller can see, in the caller's crate or its transitive dependency
    /// closure. A private inherent method is visible only inside its own
    /// module, so a dependency's private helper never captures a call
    /// that merely shares its name.
    fn resolve_method(&self, caller: usize, name: &str) -> Vec<usize> {
        let f = &self.ix.fns[caller];
        let hits = match self.methods_by_name.get(name) {
            Some(h) => h,
            None => return Vec::new(),
        };
        let allowed = self.deps.closure(&f.crate_dir);
        hits.iter()
            .copied()
            .filter(|&i| {
                let m = &self.ix.fns[i];
                let visible = m.is_pub
                    || m.in_trait
                    || (m.crate_dir == f.crate_dir && f.module_path.starts_with(&m.module_path));
                visible && allowed.as_ref().is_none_or(|a| a.contains(&m.crate_dir))
            })
            .collect()
    }
}

impl CallGraph {
    /// Builds the graph by resolving every call in every indexed body.
    pub fn build(ix: &WorkspaceIndex, deps: &DepMap) -> CallGraph {
        let resolver = Resolver::new(ix, deps);
        let mut edges: Vec<Vec<usize>> = Vec::with_capacity(ix.fns.len());
        for (i, f) in ix.fns.iter().enumerate() {
            let mut out: Vec<usize> = Vec::new();
            for call in &f.calls {
                out.extend(resolver.resolve(i, &call.kind));
            }
            out.sort_unstable();
            out.dedup();
            out.retain(|&t| t != i); // self-loops add nothing to reachability
            edges.push(out);
        }
        CallGraph { edges }
    }

    /// Strongly connected components (iterative Tarjan). Each component is
    /// sorted ascending; components are ordered by their smallest member.
    pub fn sccs(&self) -> Vec<Vec<usize>> {
        let n = self.edges.len();
        let mut index_of = vec![usize::MAX; n];
        let mut low = vec![0usize; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<usize> = Vec::new();
        let mut next_index = 0usize;
        let mut comps: Vec<Vec<usize>> = Vec::new();

        for start in 0..n {
            if index_of[start] != usize::MAX {
                continue;
            }
            // Explicit DFS stack: (node, next-edge cursor).
            let mut dfs: Vec<(usize, usize)> = vec![(start, 0)];
            index_of[start] = next_index;
            low[start] = next_index;
            next_index += 1;
            stack.push(start);
            on_stack[start] = true;

            while let Some(&mut (v, ref mut cursor)) = dfs.last_mut() {
                if *cursor < self.edges[v].len() {
                    let w = self.edges[v][*cursor];
                    *cursor += 1;
                    if index_of[w] == usize::MAX {
                        index_of[w] = next_index;
                        low[w] = next_index;
                        next_index += 1;
                        stack.push(w);
                        on_stack[w] = true;
                        dfs.push((w, 0));
                    } else if on_stack[w] {
                        low[v] = low[v].min(index_of[w]);
                    }
                } else {
                    dfs.pop();
                    if let Some(&(parent, _)) = dfs.last() {
                        low[parent] = low[parent].min(low[v]);
                    }
                    if low[v] == index_of[v] {
                        let mut comp = Vec::new();
                        loop {
                            let w = stack.pop().expect("tarjan stack underflow");
                            on_stack[w] = false;
                            comp.push(w);
                            if w == v {
                                break;
                            }
                        }
                        comp.sort_unstable();
                        comps.push(comp);
                    }
                }
            }
        }
        comps.sort_by_key(|c| c[0]);
        comps
    }

    /// Which functions are reachable from `roots` (roots included),
    /// computed over the SCC condensation so cycles cost one visit.
    pub fn reachable(&self, roots: &[usize]) -> Vec<bool> {
        let n = self.edges.len();
        let comps = self.sccs();
        let mut comp_of = vec![0usize; n];
        for (c, comp) in comps.iter().enumerate() {
            for &v in comp {
                comp_of[v] = c;
            }
        }
        let mut comp_edges: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); comps.len()];
        for (v, outs) in self.edges.iter().enumerate() {
            for &w in outs {
                if comp_of[v] != comp_of[w] {
                    comp_edges[comp_of[v]].insert(comp_of[w]);
                }
            }
        }
        let mut comp_seen = vec![false; comps.len()];
        let mut queue: VecDeque<usize> = roots
            .iter()
            .filter(|&&r| r < n)
            .map(|&r| comp_of[r])
            .collect();
        while let Some(c) = queue.pop_front() {
            if comp_seen[c] {
                continue;
            }
            comp_seen[c] = true;
            queue.extend(comp_edges[c].iter().copied());
        }
        let mut seen = vec![false; n];
        for v in 0..n {
            seen[v] = comp_seen[comp_of[v]];
        }
        seen
    }

    /// BFS shortest-hop distances and predecessors from `root`. Neighbours
    /// expand in sorted order, so paths are deterministic.
    pub fn bfs(&self, root: usize) -> (Vec<u32>, Vec<usize>) {
        let n = self.edges.len();
        let mut dist = vec![u32::MAX; n];
        let mut pred = vec![usize::MAX; n];
        if root >= n {
            return (dist, pred);
        }
        let mut queue = VecDeque::new();
        dist[root] = 0;
        queue.push_back(root);
        while let Some(v) = queue.pop_front() {
            for &w in &self.edges[v] {
                if dist[w] == u32::MAX {
                    dist[w] = dist[v] + 1;
                    pred[w] = v;
                    queue.push_back(w);
                }
            }
        }
        (dist, pred)
    }

    /// Reconstructs the root→target node path from a [`CallGraph::bfs`]
    /// predecessor array. Empty when the target is unreachable.
    pub fn path(&self, root: usize, target: usize, pred: &[usize]) -> Vec<usize> {
        if target >= pred.len() {
            return Vec::new();
        }
        let mut path = vec![target];
        let mut v = target;
        while v != root {
            v = pred[v];
            if v == usize::MAX {
                return Vec::new();
            }
            path.push(v);
        }
        path.reverse();
        path
    }
}

/// Deterministic text dump of the index + graph for `--graph`.
pub fn graph_dump(ix: &WorkspaceIndex, graph: &CallGraph) -> String {
    let mut out = String::new();
    out.push_str("# wimi-lint call graph\n");
    out.push_str(&format!("# {} functions\n", ix.fns.len()));
    for (i, f) in ix.fns.iter().enumerate() {
        let mut tags: Vec<&str> = Vec::new();
        if f.is_hot {
            tags.push("hot");
        }
        if f.is_pub {
            tags.push("pub");
        }
        if f.in_test {
            tags.push("test");
        }
        let tag_str = if tags.is_empty() {
            String::new()
        } else {
            format!(" [{}]", tags.join(","))
        };
        out.push_str(&format!(
            "{} ({}:{}){}\n",
            f.display_path(),
            f.file,
            f.decl_line,
            tag_str
        ));
        for &t in &graph.edges[i] {
            out.push_str(&format!("  -> {}\n", ix.fns[t].display_path()));
        }
    }
    let cycles: Vec<Vec<usize>> = graph.sccs().into_iter().filter(|c| c.len() > 1).collect();
    out.push_str(&format!("# {} multi-node SCCs\n", cycles.len()));
    for comp in cycles {
        let names: Vec<String> = comp.iter().map(|&v| ix.fns[v].display_path()).collect();
        out.push_str(&format!("scc {{ {} }}\n", names.join(", ")));
    }
    out
}

/// Convenience for rules/messages: the display name of a fn for paths.
pub fn fn_label(f: &FnDef) -> String {
    match &f.self_ty {
        Some(ty) => format!("{}::{}", ty, f.name),
        None => f.name.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ix_of(files: &[(&str, &str)]) -> WorkspaceIndex {
        let mut ix = WorkspaceIndex::default();
        for (p, s) in files {
            ix.add_file(p, s);
        }
        ix
    }

    fn idx(ix: &WorkspaceIndex, name: &str) -> usize {
        ix.fns
            .iter()
            .position(|f| f.name == name)
            .unwrap_or_else(|| panic!("fn {name} not indexed"))
    }

    #[test]
    fn bare_calls_resolve_within_module_before_crate() {
        let ix = ix_of(&[
            (
                "crates/a/src/lib.rs",
                "fn helper() {}\nfn caller() { helper(); }",
            ),
            ("crates/a/src/other.rs", "fn helper() {}"),
        ]);
        let g = CallGraph::build(&ix, &DepMap::default());
        let caller = idx(&ix, "caller");
        // Same-module helper wins; the other-module shadow is not an edge.
        assert_eq!(g.edges[caller].len(), 1);
        assert_eq!(ix.fns[g.edges[caller][0]].file, "crates/a/src/lib.rs");
    }

    #[test]
    fn cross_crate_rename_resolves_through_use() {
        let ix = ix_of(&[
            (
                "crates/wdsp/src/stats.rs",
                "pub fn variance(v: &[f64]) -> f64 { 0.0 }",
            ),
            (
                "crates/core/src/lib.rs",
                "use wimi_dsp::stats::variance as var;\nfn caller() { var(&[]); }",
            ),
        ]);
        let g = CallGraph::build(&ix, &DepMap::default());
        let caller = idx(&ix, "caller");
        assert_eq!(g.edges[caller], vec![idx(&ix, "variance")]);
    }

    #[test]
    fn method_calls_over_approximate_within_dep_closure() {
        let ix = ix_of(&[
            ("crates/a/src/lib.rs", "impl T1 { pub fn go(&self) {} }"),
            (
                "crates/b/src/lib.rs",
                "impl T2 { pub fn go(&self) {} }\nfn caller(x: &T2) { x.go(); }",
            ),
            ("crates/c/src/lib.rs", "impl T3 { pub fn go(&self) {} }"),
        ]);
        let mut deps = DepMap::default();
        deps.direct.insert("a".into(), vec![]);
        deps.direct.insert("b".into(), vec!["a".into()]);
        deps.direct.insert("c".into(), vec![]);
        let g = CallGraph::build(&ix, &deps);
        let caller = idx(&ix, "caller");
        let crates: Vec<&str> = g.edges[caller]
            .iter()
            .map(|&t| ix.fns[t].crate_dir.as_str())
            .collect();
        // b depends on a but not c: T3::go is not a candidate.
        assert_eq!(crates, vec!["a", "b"]);
    }

    #[test]
    fn mutual_recursion_collapses_to_one_scc() {
        let ix = ix_of(&[(
            "crates/a/src/lib.rs",
            "fn even(n: u32) -> bool { odd(n - 1) }\nfn odd(n: u32) -> bool { even(n - 1) }\nfn lonely() {}",
        )]);
        let g = CallGraph::build(&ix, &DepMap::default());
        let comps = g.sccs();
        let multi: Vec<&Vec<usize>> = comps.iter().filter(|c| c.len() > 1).collect();
        assert_eq!(multi.len(), 1);
        assert_eq!(multi[0].len(), 2);
        // Reachability through the cycle terminates and includes both.
        let reach = g.reachable(&[idx(&ix, "even")]);
        assert!(reach[idx(&ix, "odd")]);
        assert!(!reach[idx(&ix, "lonely")]);
    }

    #[test]
    fn bfs_paths_are_shortest_and_deterministic() {
        let ix = ix_of(&[(
            "crates/a/src/lib.rs",
            "fn a() { b(); d(); }\nfn b() { c(); }\nfn c() { d(); }\nfn d() {}",
        )]);
        let g = CallGraph::build(&ix, &DepMap::default());
        let (dist, pred) = g.bfs(idx(&ix, "a"));
        assert_eq!(dist[idx(&ix, "d")], 1, "direct edge beats the b->c chain");
        let path = g.path(idx(&ix, "a"), idx(&ix, "c"), &pred);
        let names: Vec<&str> = path.iter().map(|&v| ix.fns[v].name.as_str()).collect();
        assert_eq!(names, vec!["a", "b", "c"]);
    }

    #[test]
    fn std_and_unknown_paths_produce_no_edges() {
        let ix = ix_of(&[(
            "crates/a/src/lib.rs",
            "fn caller() { std::mem::swap(&mut 1, &mut 2); Vec::<u8>::new(); rand::random(); }",
        )]);
        let g = CallGraph::build(&ix, &DepMap::default());
        assert!(g.edges[idx(&ix, "caller")].is_empty());
    }

    #[test]
    fn self_and_super_paths_resolve() {
        let ix = ix_of(&[(
            "crates/a/src/m.rs",
            "pub fn top() {}\nmod inner {\n fn f() { super::top(); self::g(); }\n fn g() {}\n}",
        )]);
        let g = CallGraph::build(&ix, &DepMap::default());
        let f = idx(&ix, "f");
        let mut targets: Vec<&str> = g.edges[f]
            .iter()
            .map(|&t| ix.fns[t].name.as_str())
            .collect();
        targets.sort_unstable();
        assert_eq!(targets, vec!["g", "top"]);
    }
}

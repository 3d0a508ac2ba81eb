//! The project rules: what `raw-analyze` enforces, and why.
//!
//! The engine's performance model leans on hand-rolled concurrency — an
//! `UnsafeCell`-backed single-writer file buffer, relaxed-atomic metrics,
//! per-worker trace sinks, SWAR kernels doing unaligned loads. Those are
//! exactly the constructs the compiler cannot check, so the project
//! compensates with conventions; this module turns the conventions into
//! machine-checked rules:
//!
//! - **U1 — every `unsafe` carries a justification.** An `unsafe` block,
//!   fn, or `unsafe impl` must have a `// SAFETY:` comment (or a
//!   `# Safety` doc section) on the same line or in the contiguous
//!   comment block immediately above it. Applies everywhere, including
//!   tests and vendored shims: unjustified `unsafe` is never fine.
//! - **A1 — every non-`Relaxed` atomic ordering carries a rationale.**
//!   `Ordering::{Acquire, Release, AcqRel, SeqCst}` must have an
//!   `// ORDERING:` comment adjacent (same placement rule as U1). The
//!   project's standard is `Relaxed` counters plus mutex/condvar
//!   happens-before edges (see CONCURRENCY.md); anything stronger is
//!   deliberate and must say why. Test code is exempt (tests routinely
//!   use `SeqCst` scaffolding for rendezvous).
//! - **H1 — hot-path modules stay panic-free and print-free.** The
//!   configured hot modules ([`HOT_PANIC_MODULES`]) ban `.unwrap()`,
//!   `.expect()`, `panic!`, `todo!`, `unimplemented!`, and the print
//!   macros. Invariant checks (`assert!`, `debug_assert!`,
//!   `unreachable!`) stay allowed: the ban targets lazy error handling
//!   and debug output, not invariants. A subset ([`HOT_ALLOC_MODULES`])
//!   additionally flags allocation calls inside loop bodies — these are
//!   the per-byte/per-row loops where an allocation is a performance bug.
//! - **L1 — no `std::sync::Mutex`/`RwLock`/`Condvar`, no `SeqCst`.** The
//!   project standard is the vendored `parking_lot` (no poisoning, the
//!   condvar the chunk protocol documents) and justified orderings;
//!   `SeqCst` in non-test code is always either too strong or hiding a
//!   protocol that should be stated in `Acquire`/`Release` terms.
//!   Vendored shims are exempt (the `parking_lot` shim *is* the
//!   sanctioned wrapper over `std::sync`), as is test code.
//!
//! Rules match the token stream from [`crate::lexer`], so code inside
//! strings, comments, and raw strings never trips them, and `#[cfg(test)]`
//! modules are recognized and scoped out where a rule exempts tests.

use std::collections::HashMap;

use crate::lexer::{lex, Tok, TokKind};

/// Modules on the per-row/per-byte hot path: panic-style error handling
/// and print macros are banned outright (H1). Paths are
/// workspace-relative with forward slashes.
pub const HOT_PANIC_MODULES: &[&str] = &[
    "crates/formats/src/csv/kernels.rs",
    "crates/formats/src/csv/tokenizer.rs",
    "crates/formats/src/rzb/codec.rs",
    "crates/formats/src/rzb/decode.rs",
    "crates/columnar/src/ops/filter.rs",
    "crates/columnar/src/ops/aggregate.rs",
    "crates/columnar/src/ops/hash_aggregate.rs",
    "crates/columnar/src/expr.rs",
    // The shared concurrent core (CONCURRENCY.md § "Sessions and the
    // shared cache layer"): every session's morsels flow through the
    // pool's dispatch, and every lookup/publish goes through the cache
    // wrappers — a panic while holding either's lock would poison the
    // whole engine, so panic-style error handling is banned. Both
    // allocate per-batch/per-publish (not per-row), so the alloc ban
    // does not apply.
    "crates/exec/src/pool.rs",
    "crates/core/src/shared.rs",
];

/// The subset of hot modules whose loop bodies must also be
/// allocation-free: the SWAR kernels, the tokenizer, and the filter inner
/// loop — the per-byte/per-row code. Pool dispatch and the aggregate
/// modules get the panic ban but not the alloc ban: the pool allocates
/// one thunk per job and one sink slot per worker for each batch, and the
/// aggregates build their *output* batches in per-group finish loops;
/// both are once-per-job/once-per-group, not per-row. The rzb block
/// codec's match/copy loops are per-byte and must not allocate (its
/// function-top-level hash tables are fine); `decode.rs` is per-block
/// orchestration — panic-banned, but its claim bookkeeping may allocate.
pub const HOT_ALLOC_MODULES: &[&str] = &[
    "crates/formats/src/csv/kernels.rs",
    "crates/formats/src/csv/tokenizer.rs",
    "crates/formats/src/rzb/codec.rs",
    "crates/columnar/src/ops/filter.rs",
];

/// Identifiers that, followed by `!`, are banned macros under H1.
const BANNED_MACROS: &[&str] =
    &["panic", "todo", "unimplemented", "println", "print", "eprintln", "eprint", "dbg"];

/// Method names that, called as `.name(` or `::name(`, are banned under H1.
const BANNED_METHODS: &[&str] = &["unwrap", "expect"];

/// Allocation constructors flagged inside loop bodies (H1, alloc modules).
const ALLOC_MACROS: &[&str] = &["vec", "format"];
const ALLOC_METHODS: &[&str] = &["to_vec", "to_string", "to_owned", "collect", "with_capacity"];
/// `Type::new(...)` constructors that allocate.
const ALLOC_TYPES: &[&str] = &["Vec", "String", "Box", "HashMap", "BTreeMap", "VecDeque"];

/// Non-`Relaxed` orderings (A1); `SeqCst` additionally violates L1.
const STRONG_ORDERINGS: &[&str] = &["Acquire", "Release", "AcqRel", "SeqCst"];

/// One rule violation at one source location.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Workspace-relative path (forward slashes).
    pub file: String,
    /// 1-based source line.
    pub line: u32,
    /// Rule id (`U1`, `A1`, `H1`, `L1`, `X1`, `X2`).
    pub rule: &'static str,
    /// Human-readable description of the violation.
    pub message: String,
}

/// How a file participates in the scan, derived from its path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileClass {
    /// Under `vendor/` — offline shim crates standing in for crates.io
    /// dependencies. Exempt from L1 (the shim wraps `std::sync`).
    pub vendor: bool,
    /// Test-only compilation unit: integration `tests/`, `benches/`, or
    /// `examples/`. Exempt from A1/L1/H1 (U1 still applies).
    pub test_file: bool,
}

/// Classify `rel` (workspace-relative, forward slashes).
pub fn classify(rel: &str) -> FileClass {
    let vendor = rel.starts_with("vendor/");
    let in_dir = |d: &str| rel.starts_with(&format!("{d}/")) || rel.contains(&format!("/{d}/"));
    FileClass { vendor, test_file: in_dir("tests") || in_dir("benches") || in_dir("examples") }
}

/// How each source line reads for comment-adjacency checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LineKind {
    /// No tokens start on the line (blank, or interior of a multi-line
    /// literal/comment).
    Blank,
    /// Only comment tokens start on the line.
    CommentOnly,
    /// The line starts an attribute (`#[…]`) and nothing but attribute
    /// tokens and comments.
    AttrOnly,
    /// Anything else.
    Code,
}

/// A lexed file plus the derived facts the rules need.
pub struct FileAnalysis {
    toks: Vec<Tok>,
    /// Parallel to `toks`: inside a `#[cfg(test)]`-gated item.
    in_test: Vec<bool>,
    line_kind: Vec<LineKind>,
    /// Concatenated comment text per line (same-line justifications).
    comments: HashMap<u32, String>,
}

impl FileAnalysis {
    /// Lex and pre-analyze one file.
    pub fn new(src: &str) -> FileAnalysis {
        let toks = lex(src);
        let in_test = mark_cfg_test(&toks);
        let last_line = toks.last().map_or(1, |t| t.line) as usize;
        let mut line_kind = vec![LineKind::Blank; last_line + 2];
        let mut comments: HashMap<u32, String> = HashMap::new();
        // First pass: what does each line start with / contain?
        let mut first_on_line: HashMap<u32, usize> = HashMap::new();
        for (i, t) in toks.iter().enumerate() {
            first_on_line.entry(t.line).or_insert(i);
            if t.is_comment() {
                comments.entry(t.line).or_default().push_str(&t.text);
            }
        }
        for (&line, &first) in &first_on_line {
            let on_line = toks.iter().skip(first).take_while(|t| t.line == line);
            let all_comments =
                toks[first..].iter().take_while(|t| t.line == line).all(|t| t.is_comment());
            let starts_attr = {
                let mut it = on_line.clone().filter(|t| !t.is_comment());
                matches!(it.next(), Some(t) if t.kind == TokKind::Punct && t.text == "#")
            };
            line_kind[line as usize] = if all_comments {
                LineKind::CommentOnly
            } else if starts_attr {
                LineKind::AttrOnly
            } else {
                LineKind::Code
            };
        }
        FileAnalysis { toks, in_test, line_kind, comments }
    }

    /// Whether `line` has an adjacent comment containing any of `markers`:
    /// on the line itself, or in the contiguous run of comment lines
    /// immediately above (attribute lines in between are skipped; a blank
    /// or code line ends the search).
    fn justified(&self, line: u32, markers: &[&str]) -> bool {
        let has = |l: u32| {
            self.comments.get(&l).is_some_and(|text| markers.iter().any(|m| text.contains(m)))
        };
        if has(line) {
            return true;
        }
        let mut l = line.saturating_sub(1);
        while l >= 1 {
            match self.line_kind.get(l as usize) {
                Some(LineKind::CommentOnly) => {
                    if has(l) {
                        return true;
                    }
                }
                Some(LineKind::AttrOnly) => {}
                _ => return false,
            }
            l -= 1;
        }
        false
    }

    /// Indices (into `toks`) of non-comment tokens.
    fn code_indices(&self) -> Vec<usize> {
        (0..self.toks.len()).filter(|&i| !self.toks[i].is_comment()).collect()
    }
}

/// Mark tokens covered by a `#[cfg(test)]`-gated item (in this workspace:
/// always a `mod tests { … }`, but any braced or `;`-terminated item
/// works). The attribute may be followed by further attributes before the
/// item.
fn mark_cfg_test(toks: &[Tok]) -> Vec<bool> {
    let mut in_test = vec![false; toks.len()];
    let code: Vec<usize> = (0..toks.len()).filter(|&i| !toks[i].is_comment()).collect();
    let is = |ci: usize, text: &str| code.get(ci).is_some_and(|&i| toks[i].text == text);
    let mut ci = 0usize;
    while ci < code.len() {
        // `#` `[` `cfg` `(` … `test` … `)` `]`
        if is(ci, "#") && is(ci + 1, "[") && is(ci + 2, "cfg") && is(ci + 3, "(") {
            // Scan the attribute's parenthesized args for the ident `test`.
            let mut depth = 0usize;
            let mut j = ci + 3;
            let mut saw_test = false;
            while j < code.len() {
                let t = &toks[code[j]];
                match t.text.as_str() {
                    "(" => depth += 1,
                    ")" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    "test" if t.kind == TokKind::Ident => saw_test = true,
                    _ => {}
                }
                j += 1;
            }
            if saw_test && is(j + 1, "]") {
                // Skip any further attribute groups, then mark the item.
                let mut k = j + 2;
                while is(k, "#") && is(k + 1, "[") {
                    let mut depth = 0usize;
                    while k < code.len() {
                        match toks[code[k]].text.as_str() {
                            "[" => depth += 1,
                            "]" => {
                                depth -= 1;
                                if depth == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        k += 1;
                    }
                    k += 1;
                }
                // Consume the item: to the first `;` at brace depth 0, or
                // through the balanced `{ … }` block.
                let item_start = k;
                let mut depth = 0usize;
                while k < code.len() {
                    match toks[code[k]].text.as_str() {
                        "{" => depth += 1,
                        "}" => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        ";" if depth == 0 => break,
                        _ => {}
                    }
                    k += 1;
                }
                for &i in code.iter().take((k + 1).min(code.len())).skip(item_start) {
                    in_test[i] = true;
                }
                ci = k + 1;
                continue;
            }
        }
        ci += 1;
    }
    in_test
}

/// Run every applicable rule over one file. `rel` is the
/// workspace-relative path used both for reporting and for rule scoping.
pub fn check_file(rel: &str, src: &str) -> Vec<Finding> {
    let class = classify(rel);
    let fa = FileAnalysis::new(src);
    let code = fa.code_indices();
    let tok = |ci: usize| -> Option<&Tok> { code.get(ci).map(|&i| &fa.toks[i]) };
    let text = |ci: usize| tok(ci).map(|t| t.text.as_str()).unwrap_or("");
    let is_ident = |ci: usize| tok(ci).is_some_and(|t| t.kind == TokKind::Ident);
    let in_test = |ci: usize| code.get(ci).is_some_and(|&i| fa.in_test[i]);

    let mut findings = Vec::new();
    let mut push = |rule: &'static str, line: u32, message: String| {
        findings.push(Finding { file: rel.to_string(), line, rule, message });
    };

    let hot_panic = HOT_PANIC_MODULES.contains(&rel);
    let hot_alloc = HOT_ALLOC_MODULES.contains(&rel);
    let loop_spans = if hot_alloc { loop_body_spans(&fa, &code) } else { Vec::new() };
    let in_loop = |ci: usize| loop_spans.iter().any(|&(start, end)| ci > start && ci < end);

    for ci in 0..code.len() {
        let t = match tok(ci) {
            Some(t) => t,
            None => break,
        };

        // U1: `unsafe` needs an adjacent SAFETY justification. Applies
        // everywhere — tests and vendor included.
        if t.kind == TokKind::Ident
            && t.text == "unsafe"
            && !fa.justified(t.line, &["SAFETY:", "# Safety"])
        {
            push("U1", t.line, "`unsafe` without an adjacent `// SAFETY:` justification (same line or the comment block directly above)".to_string());
        }

        // A1: non-Relaxed `Ordering::X` needs an ORDERING rationale.
        if !class.test_file
            && !in_test(ci)
            && t.kind == TokKind::Ident
            && t.text == "Ordering"
            && text(ci + 1) == ":"
            && text(ci + 2) == ":"
            && is_ident(ci + 3)
            && STRONG_ORDERINGS.contains(&text(ci + 3))
            && !fa.justified(t.line, &["ORDERING:"])
        {
            push("A1", t.line, format!("`Ordering::{}` without an adjacent `// ORDERING:` rationale — non-Relaxed orderings must state the happens-before edge they establish", text(ci + 3)));
        }

        // L1: std::sync primitives and SeqCst are banned outside vendor
        // shims and test code.
        if !class.vendor && !class.test_file && !in_test(ci) {
            if t.text == "std"
                && text(ci + 1) == ":"
                && text(ci + 2) == ":"
                && text(ci + 3) == "sync"
            {
                // `std::sync::Mutex` directly, or inside a use-group
                // `use std::sync::{Mutex, …}`.
                let banned = ["Mutex", "RwLock", "Condvar"];
                let mut hit: Option<&str> = None;
                if banned.contains(&text(ci + 6)) && text(ci + 4) == ":" && text(ci + 5) == ":" {
                    hit = Some(text(ci + 6));
                } else if text(ci + 6) == "{" {
                    let mut j = ci + 7;
                    while j < code.len() && text(j) != "}" {
                        if banned.contains(&text(j)) {
                            hit = Some(text(j));
                            break;
                        }
                        j += 1;
                    }
                }
                if let Some(name) = hit {
                    push("L1", t.line, format!("`std::sync::{name}` is banned — use the vendored `parking_lot` (no poisoning; the condvar semantics CONCURRENCY.md documents)"));
                }
            }
            if t.kind == TokKind::Ident && t.text == "SeqCst" {
                push("L1", t.line, "`SeqCst` is banned in non-test code — state the protocol in Acquire/Release terms with an `// ORDERING:` rationale, or use Relaxed counters".to_string());
            }
        }

        // H1: hot modules ban panic-style error handling and prints.
        if hot_panic && !in_test(ci) && t.kind == TokKind::Ident {
            if BANNED_MACROS.contains(&t.text.as_str()) && text(ci + 1) == "!" {
                push("H1", t.line, format!("`{}!` in hot-path module — hot paths return errors and stay print-free (assert!/debug_assert!/unreachable! remain allowed for invariants)", t.text));
            }
            if BANNED_METHODS.contains(&t.text.as_str())
                && text(ci + 1) == "("
                && (text(ci.wrapping_sub(1)) == "." || text(ci.wrapping_sub(1)) == ":")
            {
                push("H1", t.line, format!("`.{}()` in hot-path module — propagate the error or restructure so the invariant is checked with `let … else {{ unreachable!() }}`", t.text));
            }
        }

        // H1 (alloc modules): allocation constructors inside loop bodies.
        if hot_alloc && !in_test(ci) && in_loop(ci) && t.kind == TokKind::Ident {
            let mac = ALLOC_MACROS.contains(&t.text.as_str()) && text(ci + 1) == "!";
            let method = ALLOC_METHODS.contains(&t.text.as_str())
                && text(ci + 1) == "("
                && (text(ci.wrapping_sub(1)) == "." || text(ci.wrapping_sub(1)) == ":");
            let ctor = ALLOC_TYPES.contains(&t.text.as_str())
                && text(ci + 1) == ":"
                && text(ci + 2) == ":"
                && (text(ci + 3) == "new" || text(ci + 3) == "with_capacity");
            if mac || method || ctor {
                push("H1", t.line, format!("allocation (`{}`) inside a loop body in a hot-path module — hoist it out of the loop or reuse scratch storage", t.text));
            }
        }
    }
    findings
}

/// Token-index spans (into the code-index list) of loop bodies: for each
/// `for`/`while`/`loop` keyword, the span of its braced body. Returns
/// `(open, close)` pairs of code indices.
fn loop_body_spans(fa: &FileAnalysis, code: &[usize]) -> Vec<(usize, usize)> {
    let text = |ci: usize| code.get(ci).map(|&i| fa.toks[i].text.as_str()).unwrap_or("");
    let mut spans = Vec::new();
    for ci in 0..code.len() {
        // `for<'s> Fn(...)` in a higher-ranked trait bound is not a loop.
        if matches!(text(ci), "for" | "while" | "loop") && text(ci + 1) != "<" {
            // The loop body opens at the next `{` (loop headers in this
            // workspace contain no struct literals — checked by the
            // self-scan staying truthful).
            let mut open = ci + 1;
            while open < code.len() && text(open) != "{" {
                open += 1;
            }
            let mut depth = 0usize;
            let mut close = open;
            while close < code.len() {
                match text(close) {
                    "{" => depth += 1,
                    "}" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                close += 1;
            }
            spans.push((open, close));
        }
    }
    spans
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_hit(rel: &str, src: &str) -> Vec<&'static str> {
        check_file(rel, src).into_iter().map(|f| f.rule).collect()
    }

    #[test]
    fn u1_fires_without_safety_and_not_with() {
        let bad = "fn f() { unsafe { g() } }";
        assert_eq!(rules_hit("crates/x/src/a.rs", bad), vec!["U1"]);
        let good = "fn f() {\n    // SAFETY: g has no preconditions here.\n    unsafe { g() }\n}";
        assert!(rules_hit("crates/x/src/a.rs", good).is_empty());
        let same_line = "unsafe impl Send for T {} // SAFETY: T owns its data.";
        assert!(rules_hit("crates/x/src/a.rs", same_line).is_empty());
    }

    #[test]
    fn u1_accepts_doc_safety_section_and_attr_between() {
        let good = "/// # Safety\n/// Caller must hold the lock.\n#[allow(clippy::mut_from_ref)]\nunsafe fn f() {}";
        assert!(rules_hit("crates/x/src/a.rs", good).is_empty());
    }

    #[test]
    fn u1_comment_does_not_leak_across_code() {
        // The SAFETY comment blesses the first impl only; code in between
        // breaks adjacency for the second.
        let src = "// SAFETY: fine.\nunsafe impl Send for T {}\nunsafe impl Sync for T {}";
        let f = check_file("crates/x/src/a.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn u1_applies_in_tests_and_vendor() {
        let bad = "fn f() { unsafe { g() } }";
        assert_eq!(rules_hit("crates/x/tests/t.rs", bad), vec!["U1"]);
        assert_eq!(rules_hit("vendor/x/src/lib.rs", bad), vec!["U1"]);
    }

    #[test]
    fn a1_requires_ordering_rationale_for_strong_orderings() {
        let bad = "fn f() { x.store(1, Ordering::Release); }";
        assert_eq!(rules_hit("crates/x/src/a.rs", bad), vec!["A1"]);
        let good = "fn f() {\n    // ORDERING: pairs with the Acquire load in g(); publishes the buffer.\n    x.store(1, Ordering::Release);\n}";
        assert!(rules_hit("crates/x/src/a.rs", good).is_empty());
        // Relaxed needs no rationale.
        assert!(
            rules_hit("crates/x/src/a.rs", "fn f() { x.store(1, Ordering::Relaxed); }").is_empty()
        );
    }

    #[test]
    fn l1_bans_seqcst_and_std_mutex_outside_tests_and_vendor() {
        // SeqCst: A1 (no rationale) and L1 (banned outright).
        let seq = "fn f() { x.load(Ordering::SeqCst); }";
        let mut hits = rules_hit("crates/x/src/a.rs", seq);
        hits.sort_unstable();
        assert_eq!(hits, vec!["A1", "L1"]);
        // An ORDERING comment silences A1 but not L1.
        let seq_doc = "// ORDERING: needs total order.\nfn f() { x.load(Ordering::SeqCst); }";
        assert_eq!(rules_hit("crates/x/src/a.rs", seq_doc), vec!["L1"]);

        let mutex = "use std::sync::Mutex;";
        assert_eq!(rules_hit("crates/x/src/a.rs", mutex), vec!["L1"]);
        let group = "use std::sync::{Arc, Mutex};";
        assert_eq!(rules_hit("crates/x/src/a.rs", group), vec!["L1"]);
        let arc_only = "use std::sync::{Arc, atomic::AtomicU64};";
        assert!(rules_hit("crates/x/src/a.rs", arc_only).is_empty());

        // Exempt scopes.
        assert!(rules_hit("crates/x/tests/t.rs", seq).is_empty());
        assert!(rules_hit("vendor/parking_lot/src/lib.rs", mutex).is_empty());
    }

    #[test]
    fn cfg_test_mod_is_scoped_out_for_a1_l1_h1_but_not_u1() {
        let src = "fn f() {}\n#[cfg(test)]\nmod tests {\n    use std::sync::Mutex;\n    fn g() { x.load(Ordering::SeqCst); unsafe { h() } }\n}";
        assert_eq!(rules_hit("crates/x/src/a.rs", src), vec!["U1"]);
    }

    #[test]
    fn h1_bans_panics_and_prints_in_hot_modules_only() {
        let hot = HOT_PANIC_MODULES[0];
        let src = "fn f() { let x = y.unwrap(); panic!(\"no\"); println!(\"x\"); }";
        assert_eq!(rules_hit(hot, src), vec!["H1", "H1", "H1"]);
        assert!(rules_hit("crates/x/src/cold.rs", src).is_empty());
        // Invariant forms stay allowed.
        let ok = "fn f() { assert!(a); debug_assert_eq!(a, b); let Some(x) = o else { unreachable!() }; }";
        assert!(rules_hit(hot, ok).is_empty());
    }

    #[test]
    fn h1_flags_allocations_inside_loops_in_alloc_modules() {
        let hot = HOT_ALLOC_MODULES[0];
        let bad = "fn f() { for i in 0..n { let v = Vec::new(); let s = format!(\"x\"); } }";
        assert_eq!(rules_hit(hot, bad), vec!["H1", "H1"]);
        // Outside the loop body: fine.
        let ok = "fn f() { let mut v = Vec::new(); for i in 0..n { v.push(i); } }";
        assert!(rules_hit(hot, ok).is_empty());
        // Panic-only hot modules don't get the alloc rule.
        let panic_only = "crates/columnar/src/ops/aggregate.rs";
        assert!(rules_hit(panic_only, bad).is_empty());
    }

    #[test]
    fn hrtb_for_is_not_a_loop() {
        let hot = HOT_ALLOC_MODULES[0];
        // `for<'s>` in a where-clause must not turn the whole fn body
        // into a "loop body".
        let src =
            "fn f<F>(g: F) where F: for<'s> Fn(&'s u8) {\n    let v = Vec::new();\n    g(&0);\n}";
        assert!(rules_hit(hot, src).is_empty());
    }

    #[test]
    fn strings_and_comments_never_trip_rules() {
        let src = r##"
            fn f() {
                let a = "unsafe { } Ordering::SeqCst std::sync::Mutex";
                let b = r#"panic!() .unwrap()"#;
                // unsafe Ordering::SeqCst — just prose
            }
        "##;
        assert!(rules_hit("crates/x/src/a.rs", src).is_empty());
        assert!(rules_hit(HOT_PANIC_MODULES[0], src).is_empty());
    }
}

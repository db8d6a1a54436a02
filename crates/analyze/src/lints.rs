//! The token-level lint registry: each lint is a pure function from a
//! [`Scan`] to findings, with a stable ID and a path-prefix scope.
//!
//! Scopes are expressed as repo-relative path prefixes so the fixture
//! corpus under `crates/analyze/tests/fixtures/` (which deliberately
//! contains bad Rust) can never trip the real tree's analysis, and so
//! tests can run a lint against any file explicitly.

use crate::lexer::TokKind;
use crate::report::Finding;
use crate::scan::Scan;

/// All lint IDs the analyzer knows, in registry order. `bad-allow` is a
/// meta-lint produced by the driver rather than by a per-file pass, but
/// it is a valid ID for reporting purposes.
pub const LINT_IDS: &[&str] = &[
    "no-panic",
    "determinism",
    "exhaustiveness",
    "event-guard",
    "doc-coverage",
    "bad-allow",
];

/// Whether `id` names a known lint.
pub fn known_lint(id: &str) -> bool {
    LINT_IDS.contains(&id)
}

/// Path-prefix scopes for each per-file lint family.
pub mod scope {
    /// Crates where panicking is forbidden outside tests: the hot path,
    /// the compiler (`nbl-sched`, whose failures are `CompileError`s),
    /// the sweep layer that must survive one bad cell, the oracle gate,
    /// which reports failures through its exit status, and the
    /// `figures` binary (`nbl-bench`), whose exhibits fail as
    /// `ExhibitError`s.
    pub const NO_PANIC: &[&str] = &[
        "crates/core/src/",
        "crates/mem/src/",
        "crates/cpu/src/",
        "crates/trace/src/",
        "crates/sched/src/",
        "crates/sim/src/",
        "crates/oracle/src/",
        "crates/bench/src/",
    ];
    /// Crates feeding `RunResult`, JSON emitters or golden CSVs, where
    /// wall-clock reads and unordered iteration would break bit-identical
    /// goldens. `crates/bench` is deliberately excluded: wall-clock
    /// timing is its purpose.
    pub const DETERMINISM: &[&str] = &[
        "crates/core/src/",
        "crates/mem/src/",
        "crates/cpu/src/",
        "crates/trace/src/",
        "crates/sched/src/",
        "crates/sim/src/",
    ];
    /// Crates that may construct or record memory events.
    pub const EVENT_GUARD: &[&str] = &["crates/mem/src/", "crates/cpu/src/"];
    /// The event module itself defines the sink trait and recorders; the
    /// discipline applies everywhere else.
    pub const EVENT_GUARD_EXEMPT: &[&str] = &["crates/mem/src/event.rs"];
    /// Crates whose public API must be documented.
    pub const DOC_COVERAGE: &[&str] = &["crates/core/src/", "crates/mem/src/", "crates/sim/src/"];
}

/// Whether `rel_path` falls under any prefix in `prefixes`.
pub fn in_scope(rel_path: &str, prefixes: &[&str]) -> bool {
    prefixes.iter().any(|p| rel_path.starts_with(p))
}

/// Runs the given per-file lints on one scan, honoring test regions and
/// inline `nbl-allow` suppressions. `lints` uses the IDs in [`LINT_IDS`].
pub fn check_file(scan: &Scan<'_>, lints: &[&str]) -> Vec<Finding> {
    let mut out = Vec::new();
    for &lint in lints {
        match lint {
            "no-panic" => no_panic(scan, &mut out),
            "determinism" => determinism(scan, &mut out),
            "event-guard" => event_guard(scan, &mut out),
            "doc-coverage" => doc_coverage(scan, &mut out),
            _ => {}
        }
    }
    out
}

/// Pushes `finding` unless it is inside a test region or suppressed by a
/// reasoned `nbl-allow`.
fn push(
    scan: &Scan<'_>,
    out: &mut Vec<Finding>,
    lint: &'static str,
    off: usize,
    item: &str,
    message: String,
) {
    if scan.in_test(off) {
        return;
    }
    let pos = scan.file.pos(off);
    if scan.is_allowed(lint, pos.line) {
        return;
    }
    out.push(Finding {
        lint,
        file: scan.file.rel_path.clone(),
        line: pos.line,
        col: pos.col,
        item: item.to_string(),
        message,
    });
}

/// **no-panic**: forbids `panic!`/`todo!`/`unreachable!` macros and
/// `.unwrap()`/`.expect()` (plus their `_err` twins) in hot-path crates.
/// Errors must flow through `SimError`/`EngineError` so an 864-cell sweep
/// survives one bad cell.
fn no_panic(scan: &Scan<'_>, out: &mut Vec<Finding>) {
    let src = scan.src();
    let toks = &scan.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        let word = t.text(src);
        let next = toks.get(i + 1);
        match word {
            "panic" | "todo" | "unreachable" if next.is_some_and(|n| n.is_punct(src, '!')) => {
                push(
                    scan,
                    out,
                    "no-panic",
                    t.off,
                    word,
                    format!(
                        "`{word}!` in hot-path crate; return SimError/EngineError instead \
                             (or add `// nbl-allow(no-panic): <reason>`)"
                    ),
                );
            }
            "unwrap" | "expect" | "unwrap_err" | "expect_err" => {
                let is_method = i > 0
                    && toks[i - 1].is_punct(src, '.')
                    && next.is_some_and(|n| n.is_punct(src, '('));
                if is_method {
                    push(
                        scan,
                        out,
                        "no-panic",
                        t.off,
                        word,
                        format!(
                            "`.{word}()` in hot-path crate; propagate the error \
                             (or add `// nbl-allow(no-panic): <reason>`)"
                        ),
                    );
                }
            }
            _ => {}
        }
    }
}

/// **determinism**: forbids wall-clock reads (`Instant`, `SystemTime`)
/// and un-seeded hashed collections (`HashMap`, `HashSet`) in code that
/// feeds `RunResult`, JSON emitters or golden CSVs. Use `FastMap`
/// (fixed-seed) or `BTreeMap` where iteration order can surface.
fn determinism(scan: &Scan<'_>, out: &mut Vec<Finding>) {
    let src = scan.src();
    for t in &scan.tokens {
        if t.kind != TokKind::Ident {
            continue;
        }
        let word = t.text(src);
        let (item, msg): (&str, &str) = match word {
            "Instant" | "SystemTime" => (
                word,
                "wall-clock read on a result path breaks bit-identical goldens; \
                 timing belongs in nbl-bench",
            ),
            "HashMap" | "HashSet" => (
                word,
                "un-seeded std hashing has nondeterministic iteration order; \
                 use nbl_core::hash::FastMap or BTreeMap/BTreeSet",
            ),
            _ => continue,
        };
        push(scan, out, "determinism", t.off, item, msg.to_string());
    }
}

/// **event-guard**: every `MemEvent` emission must go through the
/// zero-cost-when-disabled guard (`MemorySystem::emit`, which null-checks
/// the sink). Constructing a `MemEvent` outside an `emit(...)` argument
/// list, or calling `.record(...)` directly, bypasses the guard and puts
/// allocation/tracing cost on the disabled path.
fn event_guard(scan: &Scan<'_>, out: &mut Vec<Finding>) {
    let src = scan.src();
    let toks = &scan.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        let word = t.text(src);
        if word == "MemEvent" {
            // Only constructions (`MemEvent::…`) count; `use` paths and
            // type positions are fine.
            let is_path = toks.get(i + 1).is_some_and(|n| n.is_punct(src, ':'))
                && toks.get(i + 2).is_some_and(|n| n.is_punct(src, ':'));
            if !is_path {
                continue;
            }
            // `use …::MemEvent::…` or a `match`-arm pattern would not be a
            // construction, but neither occurs at an expression position
            // with an enclosing call; the callee check below covers it.
            if scan.enclosing_callee(i) != Some("emit") {
                // Pattern positions (match arms) have no enclosing call
                // either — recognise them by the `=>` that follows the
                // variant's payload on the same arm. Cheap heuristic:
                // scan forward to the next `,`/`{`/`;`, and treat
                // `=>` before any of those as a pattern.
                let mut k = i + 3;
                let mut pattern = false;
                let mut depth = 0i32;
                while let Some(n) = toks.get(k) {
                    if n.kind == TokKind::Punct {
                        match n.text(src) {
                            "(" | "{" | "[" => depth += 1,
                            ")" | "}" | "]" => {
                                if depth == 0 {
                                    break;
                                }
                                depth -= 1;
                            }
                            ";" | "," if depth == 0 => break,
                            // `=>` (match arm) or `= expr` (if-let /
                            // while-let binding) after the payload means
                            // this was a pattern, not a construction.
                            "=" if depth == 0 => {
                                pattern = true;
                                break;
                            }
                            _ => {}
                        }
                    }
                    k += 1;
                }
                if !pattern {
                    push(
                        scan,
                        out,
                        "event-guard",
                        t.off,
                        "MemEvent",
                        "MemEvent constructed outside the `emit(…)` guard; route it \
                         through MemorySystem::emit so tracing stays zero-cost when disabled"
                            .to_string(),
                    );
                }
            }
        } else if word == "record" {
            let is_method = i > 0
                && toks[i - 1].is_punct(src, '.')
                && toks.get(i + 1).is_some_and(|n| n.is_punct(src, '('));
            if is_method {
                push(
                    scan,
                    out,
                    "event-guard",
                    t.off,
                    "record",
                    "direct `.record(…)` on an event sink bypasses the \
                     zero-cost-when-disabled guard; call MemorySystem::emit"
                        .to_string(),
                );
            }
        }
    }
}

/// **doc-coverage**: every `pub` item (fn/struct/enum/trait/type/const/
/// static/mod/macro) in the covered crates needs a doc comment.
/// `pub(...)`-restricted items and `pub use` re-exports are exempt.
fn doc_coverage(scan: &Scan<'_>, out: &mut Vec<Finding>) {
    let src = scan.src();
    let toks = &scan.tokens;
    for (i, t) in toks.iter().enumerate() {
        if !t.is_ident(src, "pub") {
            continue;
        }
        // Skip `pub(crate)` / `pub(super)` / `pub(in …)` — not public API.
        let mut j = i + 1;
        if toks.get(j).is_some_and(|n| n.is_punct(src, '(')) {
            continue;
        }
        // The item keyword, skipping `unsafe`/`const`/`async`/`extern`
        // qualifiers (e.g. `pub const fn`, `pub unsafe trait`).
        let mut kw = None;
        while let Some(n) = toks.get(j) {
            if n.kind != TokKind::Ident {
                break;
            }
            let w = n.text(src);
            match w {
                "unsafe" | "async" | "extern" => j += 1,
                "const" | "static" => {
                    // `pub const fn f` → keep scanning; `pub const N` → item.
                    if toks.get(j + 1).is_some_and(|m| m.is_ident(src, "fn")) {
                        j += 1;
                    } else {
                        kw = Some(w);
                        break;
                    }
                }
                "fn" | "struct" | "enum" | "trait" | "type" | "mod" | "union" | "macro" => {
                    kw = Some(w);
                    break;
                }
                "use" | "crate" | "impl" => break,
                _ => break,
            }
        }
        let Some(kw) = kw else { continue };
        let Some(name_tok) = toks.get(j + 1).filter(|n| n.kind == TokKind::Ident) else {
            continue;
        };
        let name = name_tok.text(src);
        // Walk backwards over attributes and ordinary comments looking
        // for a doc comment (or `#[doc…]`) attached to this item.
        let mut documented = false;
        let mut k = i;
        'back: while k > 0 {
            k -= 1;
            let p = toks[k];
            match p.kind {
                TokKind::Comment { doc } => {
                    // Only outer docs (`///`, `/**`) attach to the item;
                    // inner docs (`//!`, `/*!`) document the enclosing
                    // module and must not mask its first item.
                    let text = p.text(src);
                    if doc && !text.starts_with("//!") && !text.starts_with("/*!") {
                        documented = true;
                    }
                    // Ordinary comments between docs and the item are fine.
                    continue;
                }
                TokKind::Punct => {
                    // An attribute group ends with `]`; hop over it.
                    if p.is_punct(src, ']') {
                        let mut depth = 1i32;
                        while k > 0 && depth > 0 {
                            k -= 1;
                            if toks[k].is_punct(src, ']') {
                                depth += 1;
                            } else if toks[k].is_punct(src, '[') {
                                depth -= 1;
                            }
                        }
                        // Check for `#[doc = …]`.
                        if toks.get(k + 1).is_some_and(|n| n.is_ident(src, "doc")) {
                            documented = true;
                        }
                        // Skip the leading `#`.
                        if k > 0 && toks[k - 1].is_punct(src, '#') {
                            k -= 1;
                        }
                        continue;
                    }
                    break 'back;
                }
                _ => break 'back,
            }
        }
        if !documented {
            push(
                scan,
                out,
                "doc-coverage",
                t.off,
                name,
                format!("public {kw} `{name}` has no doc comment"),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;
    use std::path::Path;

    fn run(text: &str, lints: &[&str]) -> Vec<Finding> {
        let f = SourceFile::from_text(
            Path::new("/r"),
            Path::new("/r/crates/core/src/x.rs"),
            text.to_string(),
        );
        let s = Scan::new(&f);
        check_file(&s, lints)
    }

    #[test]
    fn no_panic_flags_macros_and_methods() {
        let found = run(
            "fn f(x: Option<u32>) -> u32 { if true { panic!(\"boom\") } x.unwrap() }",
            &["no-panic"],
        );
        assert_eq!(found.len(), 2);
        assert_eq!(found[0].item, "panic");
        assert_eq!(found[1].item, "unwrap");
    }

    #[test]
    fn no_panic_ignores_unwrap_or_variants() {
        let found = run(
            "fn f(x: Option<u32>) -> u32 { x.unwrap_or(0) + x.unwrap_or_else(|| 1) + x.unwrap_or_default() }",
            &["no-panic"],
        );
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn no_panic_ignores_tests_and_strings() {
        let found = run(
            "#[cfg(test)]\nmod t { fn g() { panic!() } }\nfn f() { let s = \"panic!\"; }",
            &["no-panic"],
        );
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn determinism_flags_hashmap_not_fastmap() {
        let found = run(
            "use std::collections::HashMap;\nfn f() { let m: FastMap<u32, u32> = FastMap::default(); }",
            &["determinism"],
        );
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].item, "HashMap");
        assert_eq!(found[0].line, 1);
    }

    #[test]
    fn event_guard_requires_emit() {
        let bad = run(
            "fn f(&mut self) { self.sink.record(&MemEvent::Issued { at: 0 }); }",
            &["event-guard"],
        );
        assert!(bad.iter().any(|f| f.item == "record"));
        let good = run(
            "fn f(&mut self) { self.emit(MemEvent::Issued { at: 0 }); }",
            &["event-guard"],
        );
        assert!(good.is_empty(), "{good:?}");
    }

    #[test]
    fn event_guard_skips_match_arms_and_use() {
        let found = run(
            "use nbl_mem::event::MemEvent;\nfn f(e: &MemEvent) { match e { MemEvent::Issued { .. } => {} _ => {} } }",
            &["event-guard"],
        );
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn doc_coverage_flags_undocumented_pub() {
        let found = run(
            "/// Documented.\npub fn a() {}\npub fn b() {}\npub(crate) fn c() {}\npub use other::Thing;\n#[derive(Debug)]\npub struct S;\n",
            &["doc-coverage"],
        );
        let items: Vec<&str> = found.iter().map(|f| f.item.as_str()).collect();
        assert_eq!(items, vec!["b", "S"]);
    }

    #[test]
    fn doc_coverage_sees_docs_past_attributes() {
        let found = run(
            "/// Documented.\n#[derive(Debug, Clone)]\npub struct S { pub x: u32 }\n",
            &["doc-coverage"],
        );
        // The struct is documented; the field `x` is flagged separately
        // only if undocumented — fields are `pub` + ident with no item
        // keyword, so they are skipped entirely.
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn allow_with_reason_suppresses() {
        let found = run(
            "fn f(x: Option<u32>) -> u32 { x.unwrap() /* nbl-allow(no-panic): invariant upheld by caller */ }",
            &["no-panic"],
        );
        assert!(found.is_empty(), "{found:?}");
    }
}

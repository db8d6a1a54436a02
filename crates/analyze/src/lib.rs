//! `nbl-analyze`: in-tree static analysis enforcing simulator invariants
//! the type system cannot see.
//!
//! The analyzer lexes the workspace's Rust sources with a hand-rolled
//! comment/string-aware lexer (std-only, offline-buildable) and runs a
//! registry of repo-specific lints — see [`lints::LINT_IDS`] and
//! DESIGN.md §13:
//!
//! | ID | invariant |
//! |----|-----------|
//! | `no-panic` | hot-path crates return `SimError`/`EngineError`, never panic |
//! | `determinism` | no wall clocks / un-seeded hashing on result paths |
//! | `exhaustiveness` | ledgered enum variants wired through every consumer surface |
//! | `event-guard` | `MemEvent` emission only via the zero-cost-when-disabled guard |
//! | `doc-coverage` | pub API documented |
//!
//! A finding is suppressed only inline, with `// nbl-allow(<id>): reason`
//! (the reason is mandatory — `bad-allow` flags empty or unknown ones).

pub mod ledger;
pub mod lexer;
pub mod lints;
pub mod report;
pub mod scan;
pub mod source;

use report::Finding;
use scan::Scan;
use source::SourceFile;
use std::path::{Path, PathBuf};

/// The outcome of a full-tree analysis.
#[derive(Debug)]
pub struct Analysis {
    /// Surviving findings, sorted by (file, line, col, lint).
    pub findings: Vec<Finding>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Inline `nbl-allow` directives that suppressed a finding.
    pub allows_used: usize,
}

/// Runs the full analysis rooted at `root` (the repo checkout).
pub fn run_analysis(root: &Path) -> std::io::Result<Analysis> {
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        for entry in std::fs::read_dir(&crates_dir)? {
            let dir = entry?.path();
            // The analyzer does not scan itself: its sources and fixture
            // corpus quote directive syntax and deliberately-bad code.
            if dir.file_name().is_some_and(|n| n == "analyze") {
                continue;
            }
            let src = dir.join("src");
            if src.is_dir() {
                collect_rs(&src, &mut files)?;
            }
        }
    }
    files.sort();

    let sources = files
        .iter()
        .map(|path| SourceFile::load(root, path))
        .collect::<std::io::Result<Vec<_>>>()?;
    let mut scans: Vec<Scan<'_>> = sources.iter().map(Scan::new).collect();
    let test_roots = test_module_roots(&files, &scans);
    for (path, scan) in files.iter().zip(&mut scans) {
        if test_roots.iter().any(|root| path.starts_with(root)) {
            scan.mark_test_only();
        }
    }

    let mut findings = Vec::new();
    let mut allows_used = 0usize;
    for scan in &scans {
        let file = scan.file;
        let mut active: Vec<&'static str> = Vec::new();
        if lints::in_scope(&file.rel_path, lints::scope::NO_PANIC) {
            active.push("no-panic");
        }
        if lints::in_scope(&file.rel_path, lints::scope::DETERMINISM) {
            active.push("determinism");
        }
        if lints::in_scope(&file.rel_path, lints::scope::EVENT_GUARD)
            && !lints::in_scope(&file.rel_path, lints::scope::EVENT_GUARD_EXEMPT)
        {
            active.push("event-guard");
        }
        if lints::in_scope(&file.rel_path, lints::scope::DOC_COVERAGE) {
            active.push("doc-coverage");
        }
        // Every file is still scanned for directive hygiene (bad-allow),
        // even when no token lint applies to it.
        findings.extend(lints::check_file(scan, &active));
        let (bad, used) = audit_allows(scan);
        findings.extend(bad);
        allows_used += used;
    }

    findings.extend(ledger::check_ledger(root));

    findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.col, a.lint).cmp(&(b.file.as_str(), b.line, b.col, b.lint))
    });
    Ok(Analysis {
        findings,
        files_scanned: files.len(),
        allows_used,
    })
}

/// Directive hygiene for one scan: reports `bad-allow` for directives
/// with an empty reason or an unknown lint ID. Returns the hygiene
/// findings plus the count of well-formed (reasoned, known-ID)
/// directives, which the report surfaces as `allows_used`.
pub fn audit_allows(scan: &Scan<'_>) -> (Vec<Finding>, usize) {
    let mut out = Vec::new();
    let mut used = 0usize;
    for a in &scan.allows {
        let pos = scan.file.pos(a.off);
        if !lints::known_lint(&a.id) {
            out.push(Finding {
                lint: "bad-allow",
                file: scan.file.rel_path.clone(),
                line: pos.line,
                col: pos.col,
                item: a.id.clone(),
                message: format!(
                    "`nbl-allow({})` names an unknown lint (known: {})",
                    a.id,
                    lints::LINT_IDS.join(", ")
                ),
            });
        } else if a.reason.is_empty() {
            out.push(Finding {
                lint: "bad-allow",
                file: scan.file.rel_path.clone(),
                line: pos.line,
                col: pos.col,
                item: a.id.clone(),
                message: format!(
                    "`nbl-allow({})` needs a non-empty reason: `// nbl-allow({}): why`",
                    a.id, a.id
                ),
            });
        } else {
            used += 1;
        }
    }
    (out, used)
}

/// Where the files of test-only modules live: for every out-of-line
/// module declared in test code ([`Scan::test_mod_decls`]), its
/// `name.rs` beside the declaring module and its `name/` directory.
/// Every file at or under one of these paths is test code.
fn test_module_roots(files: &[PathBuf], scans: &[Scan<'_>]) -> Vec<PathBuf> {
    let mut roots = Vec::new();
    for (path, scan) in files.iter().zip(scans) {
        let Some(parent) = path.parent() else {
            continue;
        };
        // `lib.rs`, `main.rs` and `mod.rs` own their directory; any other
        // file `foo.rs` keeps its submodules under `foo/`.
        let dir = match path.file_stem().and_then(|s| s.to_str()) {
            Some("lib" | "main" | "mod") | None => parent.to_path_buf(),
            Some(stem) => parent.join(stem),
        };
        for name in scan.test_mod_decls() {
            roots.push(dir.join(format!("{name}.rs")));
            roots.push(dir.join(name));
        }
    }
    roots
}

/// Recursively collects `.rs` files under `dir`.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

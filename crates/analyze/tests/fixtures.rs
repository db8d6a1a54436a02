//! Fixture-corpus integration tests: every lint family must fire on the
//! staged bad tree, with exact IDs and spans, and stay silent on the
//! clean tree — and on the real repository tree.

use nbl_analyze::report::Finding;
use nbl_analyze::{run_analysis, Analysis};
use std::path::{Path, PathBuf};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn of_lint<'a>(a: &'a Analysis, lint: &str) -> Vec<&'a Finding> {
    a.findings.iter().filter(|f| f.lint == lint).collect()
}

#[test]
fn bad_tree_fires_every_lint_family() {
    let a = run_analysis(&fixture("bad_tree")).expect("fixture tree readable");
    assert_eq!(a.files_scanned, 3);

    // no-panic: the panic! macro, the bare unwrap, and the two unwraps
    // whose suppressions are invalid (empty reason / unknown ID). The
    // reasoned suppression and the #[cfg(test)] unwrap stay silent.
    let np = of_lint(&a, "no-panic");
    let items: Vec<(&str, u32)> = np.iter().map(|f| (f.item.as_str(), f.line)).collect();
    assert_eq!(
        items,
        vec![("panic", 7), ("unwrap", 9), ("unwrap", 23), ("unwrap", 29)],
        "{np:#?}"
    );
    assert!(np.iter().all(|f| f.file == "crates/core/src/lib.rs"));

    // determinism: the single Instant read.
    let det = of_lint(&a, "determinism");
    assert_eq!(det.len(), 1, "{det:#?}");
    assert_eq!((det[0].item.as_str(), det[0].line), ("Instant", 16));

    // doc-coverage: the one undocumented pub fn.
    let doc = of_lint(&a, "doc-coverage");
    assert_eq!(doc.len(), 1, "{doc:#?}");
    assert_eq!((doc[0].item.as_str(), doc[0].line), ("undocumented", 12));

    // event-guard: the unguarded construction and the direct record call.
    let eg = of_lint(&a, "event-guard");
    let items: Vec<(&str, u32)> = eg.iter().map(|f| (f.item.as_str(), f.line)).collect();
    assert_eq!(items, vec![("MemEvent", 14), ("record", 15)], "{eg:#?}");
    assert!(eg.iter().all(|f| f.file == "crates/mem/src/lib.rs"));

    // exhaustiveness: the unwired Clock variant, once per surface.
    let ex = of_lint(&a, "exhaustiveness");
    assert_eq!(ex.len(), 2, "{ex:#?}");
    assert!(ex.iter().all(|f| f.item == "ReplacementKind::Clock"));
    let surfaces: Vec<&str> = ex.iter().map(|f| f.file.as_str()).collect();
    assert!(surfaces.contains(&"DESIGN.md"));
    assert!(surfaces.contains(&"tests/replacement_policies.rs"));

    // bad-allow: empty reason and unknown ID, each on its directive line.
    let ba = of_lint(&a, "bad-allow");
    let lines: Vec<u32> = ba.iter().map(|f| f.line).collect();
    assert_eq!(lines, vec![22, 28], "{ba:#?}");
    assert!(ba[0].message.contains("non-empty reason"));
    assert!(ba[1].message.contains("unknown lint"));

    // Only the reasoned directive counts as used.
    assert_eq!(a.allows_used, 1);
    assert_eq!(a.findings.len(), 12, "{:#?}", a.findings);
}

#[test]
fn empty_reason_does_not_suppress() {
    // The directive at line 22 has no reason: the unwrap it precedes must
    // still be reported, alongside the bad-allow for the directive.
    let a = run_analysis(&fixture("bad_tree")).expect("fixture tree readable");
    assert!(a
        .findings
        .iter()
        .any(|f| f.lint == "no-panic" && f.line == 23));
    assert!(a
        .findings
        .iter()
        .any(|f| f.lint == "bad-allow" && f.line == 22));
}

#[test]
fn clean_tree_is_silent() {
    let a = run_analysis(&fixture("clean_tree")).expect("fixture tree readable");
    assert!(a.findings.is_empty(), "{:#?}", a.findings);
    assert_eq!(a.files_scanned, 1);
    assert_eq!(a.allows_used, 1);
}

#[test]
fn findings_render_as_file_line_col() {
    let a = run_analysis(&fixture("bad_tree")).expect("fixture tree readable");
    // Positional findings render `file:line:col: [lint] …`; file-level
    // (ledger) findings render without a position.
    let pos = a
        .findings
        .iter()
        .find(|f| f.line > 0)
        .expect("positional finding");
    let rendered = pos.render();
    assert!(
        rendered.starts_with(&format!(
            "{}:{}:{}: [{}]",
            pos.file, pos.line, pos.col, pos.lint
        )),
        "{rendered}"
    );
    let file_level = a
        .findings
        .iter()
        .find(|f| f.line == 0)
        .expect("ledger finding");
    let rendered = file_level.render();
    assert!(
        rendered.starts_with(&format!("{}: [{}]", file_level.file, file_level.lint)),
        "{rendered}"
    );
}

#[test]
fn modules_declared_under_a_test_cfg_are_test_code() {
    // `prop.rs` is declared `#[cfg(all(test, feature = "prop"))] mod
    // prop;` and `prop/gen.rs` is its submodule: their unwrap and expect
    // stay silent. `live.rs`, declared without a cfg, is still linted.
    let a = run_analysis(&fixture("test_mod_tree")).expect("fixture tree readable");
    assert_eq!(a.files_scanned, 4);
    let np = of_lint(&a, "no-panic");
    let found: Vec<(&str, &str, u32)> = np
        .iter()
        .map(|f| (f.file.as_str(), f.item.as_str(), f.line))
        .collect();
    assert_eq!(
        found,
        vec![("crates/core/src/live.rs", "unwrap", 4)],
        "{np:#?}"
    );
    assert_eq!(a.findings.len(), 1, "{:#?}", a.findings);
}

/// The real tree must be clean: `cargo test` enforces the same zero-
/// findings bar as `nbl-analyze --deny` in scripts/verify.sh.
#[test]
fn real_tree_has_no_findings() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let a = run_analysis(&root).expect("repo tree readable");
    let rendered: Vec<String> = a.findings.iter().map(|f| f.render()).collect();
    assert!(a.findings.is_empty(), "{}", rendered.join("\n"));
}

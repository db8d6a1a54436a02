//! The exhaustiveness ledger: declared enums / registries whose variants
//! must appear in each of their consumer surfaces. Adding a
//! `ReplacementKind` policy, a `MemEvent` lifecycle stage, a `SimError`
//! case or a new exhibit without wiring its outputs (JSON emitter,
//! report table, docs, exhibit help) fails `nbl-analyze --deny`.
//!
//! The contract (documented in DESIGN.md §13): for every [`LedgerEntry`],
//! the analyzer lexes the declaring file, extracts the variant list (or
//! the `name: "…"` strings of the exhibit registry), and checks each
//! variant appears — as a word-boundary token — in every surface file.
//! Entries whose declaring file is absent under the analysis root are
//! skipped, so fixture trees exercise only what they stage.

use crate::lexer::{lex, TokKind};
use crate::report::Finding;
use crate::scan::match_brace;
use std::path::Path;

/// How variants are extracted from the declaring file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LedgerKind {
    /// `enum <name> { … }` — variant identifiers.
    Enum,
    /// The exhibit registry — every `name: "…"` string literal.
    ExhibitNames,
    /// A fixed list of entry-point identifiers. Each must exist in the
    /// declaring file (as a word-boundary token) and in every surface —
    /// used to pin the fused group-step API to its consumers and docs.
    EntryPoints(&'static [&'static str]),
}

/// One ledger entry: a declaration plus the surfaces that must mention
/// every variant.
#[derive(Debug, Clone, Copy)]
pub struct LedgerEntry {
    /// The enum name (or registry const name, for display).
    pub name: &'static str,
    /// Repo-relative path of the declaring file.
    pub decl_file: &'static str,
    /// Extraction mode.
    pub kind: LedgerKind,
    /// Repo-relative paths of the consumer surfaces.
    pub surfaces: &'static [&'static str],
}

/// The ledger itself. Surfaces are deliberately the places a reviewer
/// would check by hand: the policy test suite, the reference machine and
/// design doc for replacement policies, the emit sites and design doc for
/// events, the design doc's error table for `SimError`, the issue-policy
/// mapping, the reference machine and replay-penalty table for the
/// processor-model and replay-cause enums, the reference machine for the
/// hardware configurations and MSHR organizations,
/// the design doc's artifact-store section (§16) for the store and
/// codec error enums, the design doc's fusion section (§17) for the
/// group-step entry points, both cache levels and the design doc for the
/// tag port, and the experiments guide for the exhibit registry.
pub const LEDGER: &[LedgerEntry] = &[
    LedgerEntry {
        name: "ReplacementKind",
        decl_file: "crates/core/src/tag_array.rs",
        kind: LedgerKind::Enum,
        surfaces: &[
            "tests/replacement_policies.rs",
            "tests/reference/mod.rs",
            "DESIGN.md",
        ],
    },
    LedgerEntry {
        name: "MemEvent",
        decl_file: "crates/mem/src/event.rs",
        kind: LedgerKind::Enum,
        surfaces: &["crates/mem/src/system.rs", "DESIGN.md"],
    },
    LedgerEntry {
        name: "SimError",
        decl_file: "crates/sim/src/driver.rs",
        kind: LedgerKind::Enum,
        surfaces: &["DESIGN.md"],
    },
    LedgerEntry {
        name: "ProcessorKind",
        decl_file: "crates/sim/src/config.rs",
        kind: LedgerKind::Enum,
        surfaces: &[
            "crates/cpu/src/issue.rs",
            "tests/reference/mod.rs",
            "DESIGN.md",
        ],
    },
    // The independent reference machine models every organization and
    // write policy the sweeps can name: a new hardware configuration or
    // MSHR organization is a finding until the reference covers it.
    LedgerEntry {
        name: "HwConfig",
        decl_file: "crates/sim/src/config.rs",
        kind: LedgerKind::Enum,
        surfaces: &["tests/reference/mod.rs"],
    },
    LedgerEntry {
        name: "MshrConfig",
        decl_file: "crates/core/src/mshr/mod.rs",
        kind: LedgerKind::Enum,
        surfaces: &["tests/reference/mod.rs"],
    },
    LedgerEntry {
        name: "ReplayCause",
        decl_file: "crates/mem/src/event.rs",
        kind: LedgerKind::Enum,
        surfaces: &["crates/cpu/src/core_engine.rs", "DESIGN.md"],
    },
    LedgerEntry {
        name: "CodecError",
        decl_file: "crates/core/src/frame.rs",
        kind: LedgerKind::Enum,
        surfaces: &["DESIGN.md"],
    },
    LedgerEntry {
        name: "ArtifactError",
        decl_file: "crates/sim/src/store.rs",
        kind: LedgerKind::Enum,
        surfaces: &["DESIGN.md"],
    },
    // The fused group-step API, one entry per layer: each layer's entry
    // point must be consumed by the layer above it (and documented), so
    // renaming or orphaning a rung of the fusion ladder is a finding.
    LedgerEntry {
        name: "GroupStepMem",
        decl_file: "crates/mem/src/system.rs",
        kind: LedgerKind::EntryPoints(&["load_hit_decoded", "access_load_replay"]),
        surfaces: &["crates/cpu/src/core_engine.rs", "DESIGN.md"],
    },
    LedgerEntry {
        name: "GroupStepCpu",
        decl_file: "crates/cpu/src/core_engine.rs",
        kind: LedgerKind::EntryPoints(&["replay_fused"]),
        surfaces: &["crates/sim/src/driver.rs", "DESIGN.md"],
    },
    LedgerEntry {
        name: "GroupStepSim",
        decl_file: "crates/sim/src/driver.rs",
        kind: LedgerKind::EntryPoints(&["run_tape_fused"]),
        surfaces: &["crates/sim/src/sweep.rs", "DESIGN.md"],
    },
    // The one tag port: the L1 and the tag-only L2 answer a hit through
    // `hit_decoded` and fill through `install`, so a second probe path
    // in either level is a finding.
    LedgerEntry {
        name: "TagPort",
        decl_file: "crates/core/src/tag_array.rs",
        kind: LedgerKind::EntryPoints(&["hit_decoded", "install"]),
        surfaces: &[
            "crates/core/src/cache.rs",
            "crates/mem/src/system.rs",
            "DESIGN.md",
        ],
    },
    // The static cache oracle (DESIGN.md §18): its verdict enum, its
    // cross-check violation enum, its refusal enum, and the pipeline's
    // three entry points — tape projection, abstract walk, cross-check —
    // each pinned to the design doc so a renamed or added case without a
    // documented meaning is a finding.
    LedgerEntry {
        name: "Classification",
        decl_file: "crates/oracle/src/domain.rs",
        kind: LedgerKind::Enum,
        surfaces: &["crates/oracle/src/check.rs", "DESIGN.md"],
    },
    LedgerEntry {
        name: "CrossCheckViolation",
        decl_file: "crates/oracle/src/check.rs",
        kind: LedgerKind::Enum,
        surfaces: &["DESIGN.md"],
    },
    LedgerEntry {
        name: "OracleError",
        decl_file: "crates/oracle/src/lib.rs",
        kind: LedgerKind::Enum,
        surfaces: &["DESIGN.md"],
    },
    LedgerEntry {
        name: "OraclePipeline",
        decl_file: "crates/oracle/src/lib.rs",
        kind: LedgerKind::EntryPoints(&["mem_ops", "analyze_tape", "cross_check"]),
        surfaces: &["DESIGN.md"],
    },
    LedgerEntry {
        name: "EXHIBITS",
        decl_file: "crates/bench/src/experiments/mod.rs",
        kind: LedgerKind::ExhibitNames,
        surfaces: &["EXPERIMENTS.md"],
    },
];

/// Extracts the variant identifiers of `enum <name> { … }` from `src`.
/// Attributes, doc comments and variant payloads (tuple or struct) are
/// skipped; only depth-1 variant names are returned.
pub fn enum_variants(src: &str, name: &str) -> Option<Vec<String>> {
    let toks = lex(src);
    let mut i = 0;
    let open = loop {
        if i + 2 >= toks.len() {
            return None;
        }
        if toks[i].is_ident(src, "enum") && toks[i + 1].is_ident(src, name) {
            // Skip generics up to the opening brace.
            let mut j = i + 2;
            while j < toks.len() && !toks[j].is_punct(src, '{') {
                if toks[j].is_punct(src, ';') {
                    return None;
                }
                j += 1;
            }
            if j < toks.len() {
                break j;
            }
            return None;
        }
        i += 1;
    };
    let close = match_brace(src, &toks, open)?;
    let body = &toks[open + 1..close];
    let mut variants = Vec::new();
    let mut expect_variant = true;
    let mut k = 0;
    while k < body.len() {
        let t = body[k];
        match t.kind {
            TokKind::Comment { .. } => {}
            TokKind::Punct => match t.text(src) {
                // Attribute on the next variant: hop the group.
                "#" if body.get(k + 1).is_some_and(|n| n.is_punct(src, '[')) => {
                    let mut depth = 0i32;
                    k += 1;
                    while k < body.len() {
                        if body[k].is_punct(src, '[') {
                            depth += 1;
                        } else if body[k].is_punct(src, ']') {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        k += 1;
                    }
                }
                // Payload or discriminant: skip to the variant separator.
                "{" | "(" => {
                    let mut depth = 0i32;
                    while k < body.len() {
                        let u = body[k];
                        if u.is_punct(src, '{') || u.is_punct(src, '(') {
                            depth += 1;
                        } else if u.is_punct(src, '}') || u.is_punct(src, ')') {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        k += 1;
                    }
                }
                "," => expect_variant = true,
                _ => {}
            },
            TokKind::Ident if expect_variant => {
                variants.push(t.text(src).to_string());
                expect_variant = false;
            }
            _ => {}
        }
        k += 1;
    }
    Some(variants)
}

/// Extracts every `name: "…"` string from the exhibit registry source.
pub fn exhibit_names(src: &str) -> Vec<String> {
    let toks = lex(src);
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.is_ident(src, "name")
            && toks.get(i + 1).is_some_and(|n| n.is_punct(src, ':'))
            && toks.get(i + 2).is_some_and(|n| n.kind == TokKind::Str)
        {
            let lit = toks[i + 2].text(src);
            let inner = lit.trim_start_matches(|c| c != '"');
            let inner = inner.trim_start_matches('"').trim_end_matches('"');
            out.push(inner.to_string());
        }
    }
    out
}

/// Word-boundary containment: `needle` appears in `hay` not flanked by
/// identifier characters.
fn contains_word(hay: &str, needle: &str) -> bool {
    let mut from = 0;
    while let Some(rel) = hay[from..].find(needle) {
        let at = from + rel;
        let before_ok = at == 0
            || !hay.as_bytes()[at - 1].is_ascii_alphanumeric() && hay.as_bytes()[at - 1] != b'_';
        let end = at + needle.len();
        let after_ok = end >= hay.len()
            || !hay.as_bytes()[end].is_ascii_alphanumeric() && hay.as_bytes()[end] != b'_';
        if before_ok && after_ok {
            return true;
        }
        from = at + 1;
    }
    false
}

/// Checks the whole ledger against files under `root`. Missing declaring
/// files are skipped (fixture roots); missing surface files are findings
/// (a declared surface must exist).
pub fn check_ledger(root: &Path) -> Vec<Finding> {
    let mut out = Vec::new();
    for entry in LEDGER {
        let decl_path = root.join(entry.decl_file);
        let Ok(decl_src) = std::fs::read_to_string(&decl_path) else {
            continue;
        };
        let variants: Vec<String> = match entry.kind {
            LedgerKind::Enum => match enum_variants(&decl_src, entry.name) {
                Some(v) => v,
                None => {
                    out.push(Finding {
                        lint: "exhaustiveness",
                        file: entry.decl_file.to_string(),
                        line: 0,
                        col: 0,
                        item: entry.name.to_string(),
                        message: format!(
                            "ledger enum `{}` not found in its declaring file",
                            entry.name
                        ),
                    });
                    continue;
                }
            },
            LedgerKind::ExhibitNames => exhibit_names(&decl_src),
            LedgerKind::EntryPoints(names) => {
                let mut present = Vec::new();
                for n in names {
                    if contains_word(&decl_src, n) {
                        present.push((*n).to_string());
                    } else {
                        out.push(Finding {
                            lint: "exhaustiveness",
                            file: entry.decl_file.to_string(),
                            line: 0,
                            col: 0,
                            item: (*n).to_string(),
                            message: format!(
                                "ledger entry point `{n}` not found in its declaring file"
                            ),
                        });
                    }
                }
                present
            }
        };
        if variants.is_empty() {
            out.push(Finding {
                lint: "exhaustiveness",
                file: entry.decl_file.to_string(),
                line: 0,
                col: 0,
                item: entry.name.to_string(),
                message: format!("ledger entry `{}` yielded no variants", entry.name),
            });
            continue;
        }
        for surface in entry.surfaces {
            let Ok(surface_text) = std::fs::read_to_string(root.join(surface)) else {
                out.push(Finding {
                    lint: "exhaustiveness",
                    file: surface.to_string(),
                    line: 0,
                    col: 0,
                    item: entry.name.to_string(),
                    message: format!("declared consumer surface for `{}` is missing", entry.name),
                });
                continue;
            };
            for v in &variants {
                if !contains_word(&surface_text, v) {
                    out.push(Finding {
                        lint: "exhaustiveness",
                        file: surface.to_string(),
                        line: 0,
                        col: 0,
                        item: format!("{}::{v}", entry.name),
                        message: format!(
                            "`{}::{v}` is not mentioned in consumer surface `{surface}`; \
                             wire the new variant through (see DESIGN.md §13)",
                            entry.name
                        ),
                    });
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enum_variants_skip_payloads_and_attrs() {
        let src = r#"
            /// Policy selector.
            #[derive(Debug, Default)]
            pub enum ReplacementKind {
                /// Least recently used.
                #[default]
                Lru,
                Fifo,
                Random { seed: u64 },
                TreePlru,
            }
        "#;
        assert_eq!(
            enum_variants(src, "ReplacementKind").unwrap(),
            vec!["Lru", "Fifo", "Random", "TreePlru"]
        );
    }

    #[test]
    fn enum_variants_tuple_payloads() {
        let src = "enum E { A(u32, String), B, C { x: Vec<(u8, u8)> } }";
        assert_eq!(enum_variants(src, "E").unwrap(), vec!["A", "B", "C"]);
    }

    #[test]
    fn missing_enum_is_none() {
        assert!(enum_variants("struct S;", "E").is_none());
    }

    #[test]
    fn exhibit_names_extracts_strings() {
        let src = r#"
            pub const EXHIBITS: &[Exhibit] = &[
                Exhibit { name: "fig4", about: "x", run: fig4 },
                Exhibit { name: "replsens", about: "y", run: replsens },
            ];
        "#;
        assert_eq!(exhibit_names(src), vec!["fig4", "replsens"]);
    }

    #[test]
    fn word_boundaries_respected() {
        assert!(contains_word("uses Lru here", "Lru"));
        assert!(!contains_word("TreePlru only", "Lru"));
        assert!(contains_word("MemEvent::Filled,", "Filled"));
        assert!(!contains_word("Filled_x", "Filled"));
    }
}

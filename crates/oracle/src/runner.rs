//! The one oracle runner: the grid loop and the coverage writers behind
//! both front ends — the `nbl-oracle` CI gate (72 cells, with a verdict
//! store) and the `figures oracle` exhibit (80 cells, no store).
//!
//! [`run_grid`] compiles and records each benchmark's tape once and walks
//! {8 KB/32 B direct-mapped, 8 KB/32 B 4-way} × every [`ReplacementKind`]
//! × the given hardware configurations, in that nesting order. With a
//! [`DiskTier`], a clean stored verdict answers its cell and a clean
//! fresh verdict is written through; store trouble only costs
//! re-analysis (it shows in the tier's counters). [`OracleRun`] renders
//! the result as the coverage table, the CSV and the JSON — the only
//! place oracle rows are formatted.

use crate::check::{check_cell, CellReport};
use crate::store::{verdict_key, CellVerdict, VerdictArtifact};
use crate::{OracleConfig, OracleError};
use nbl_core::geometry::CacheGeometry;
use nbl_core::tag_array::ReplacementKind;
use nbl_sim::config::{HwConfig, SimConfig};
use nbl_sim::store::{compiled_fingerprint, ArtifactStore, DiskTier, KindStats};
use nbl_trace::workloads::{self, Scale};
use nbl_trace::TraceTape;
use std::io::Write;

/// The checked grid: one report per cell, in grid order, plus the
/// verdict tier's counters when the run had a store.
#[derive(Debug)]
pub struct OracleRun {
    /// Per-cell reports: benchmark-major, then geometry, policy, hw.
    pub reports: Vec<CellReport>,
    /// Verdict-store counters (`None` when the run had no store).
    pub store: Option<KindStats>,
}

/// Checks every cell of `benchmarks` (built at `scale`) × both 8 KB/32 B
/// geometries × every replacement policy × `hws`, answering clean cells
/// from `store` when one is given and writing clean fresh verdicts
/// through.
///
/// # Errors
///
/// [`OracleError::Compile`] for an unknown benchmark or a failed
/// compile, and any error of a cell's check (see `check_cell`).
pub fn run_grid(
    benchmarks: &[&str],
    scale: Scale,
    hws: &[HwConfig],
    store: Option<&DiskTier>,
) -> Result<OracleRun, OracleError> {
    // 8 KB / 32 B lines, direct-mapped and 4-way: both paper shapes.
    let geometries = [1, 4]
        .into_iter()
        .map(|ways| {
            CacheGeometry::new(8 * 1024, 32, ways)
                .map_err(|e| OracleError::Compile(format!("{ways}-way geometry: {e}")))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let artifacts = ArtifactStore::in_memory();
    let load_latency = SimConfig::baseline(HwConfig::Mc0).load_latency;
    let mut reports = Vec::new();
    for &bench in benchmarks {
        let program = workloads::build(bench, scale)
            .ok_or_else(|| OracleError::Compile(format!("unknown benchmark {bench}")))?;
        let compiled = artifacts
            .get_or_compile(&program, load_latency)
            .map_err(|e| OracleError::Compile(e.to_string()))?;
        let tape = artifacts.get_or_record(&compiled);
        let tape_fp = compiled_fingerprint(&compiled);
        for &geometry in &geometries {
            for policy in ReplacementKind::all() {
                for hw in hws {
                    let cfg = SimConfig::baseline(hw.clone())
                        .with_geometry(geometry)
                        .with_replacement(policy);
                    reports.push(run_cell(bench, &tape, tape_fp, &cfg, store)?);
                }
            }
        }
    }
    Ok(OracleRun {
        reports,
        store: store.map(|s| s.kind_stats::<VerdictArtifact>()),
    })
}

/// One cell: a clean stored verdict when `store` has one, else a fresh
/// check, written through when it is clean.
fn run_cell(
    bench: &str,
    tape: &TraceTape,
    tape_fp: u64,
    cfg: &SimConfig,
    store: Option<&DiskTier>,
) -> Result<CellReport, OracleError> {
    let Some(store) = store else {
        return check_cell(bench, tape, cfg);
    };
    let key = verdict_key(tape_fp, &OracleConfig::from_sim(cfg)?, &cfg.hw.label());
    if let Ok(Some(verdict)) = store.read::<VerdictArtifact>(&key) {
        if verdict.violations == 0 {
            return Ok(CellReport::new(bench, cfg, verdict.coverage, Vec::new()));
        }
    }
    let report = check_cell(bench, tape, cfg)?;
    if report.violations.is_empty() {
        let verdict = CellVerdict {
            coverage: report.coverage,
            violations: 0,
        };
        // A failed write is counted in `io_errors`; the cell is simply
        // re-analyzed next run.
        let _ = store.write::<VerdictArtifact>(&key, &verdict);
    }
    Ok(report)
}

fn pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        100.0 * part as f64 / whole as f64
    }
}

impl OracleRun {
    /// Cross-check violations over every cell.
    pub fn violations(&self) -> usize {
        self.reports.iter().map(|r| r.violations.len()).sum()
    }

    /// The coverage table: one row per cell with hit/miss/unknown
    /// percentages, then a summary line (which counts the cells answered
    /// from the store when the run had one).
    pub fn write_table(&self, out: &mut dyn Write) -> std::io::Result<()> {
        writeln!(
            out,
            "{:<9} {:<12} {:<7} {:<12} {:>9} {:>7} {:>7} {:>7} {:>5}",
            "bench", "geometry", "policy", "hw", "accesses", "hit%", "miss%", "unk%", "viol"
        )?;
        for r in &self.reports {
            let c = &r.coverage;
            writeln!(
                out,
                "{:<9} {:<12} {:<7} {:<12} {:>9} {:>6.1} {:>6.1} {:>6.1} {:>6}",
                r.benchmark,
                r.geometry,
                r.policy,
                r.hw,
                c.accesses,
                pct(c.must_hit, c.accesses),
                pct(c.must_miss, c.accesses),
                pct(c.unknown, c.accesses),
                r.violations.len()
            )?;
        }
        let (cells, violations) = (self.reports.len(), self.violations());
        match &self.store {
            Some(s) => writeln!(
                out,
                "{cells} cells, {violations} violation(s), {} from verdict store",
                s.hits
            ),
            None => writeln!(out, "{cells} cells, {violations} cross-check violation(s)"),
        }
    }

    /// Per-cell coverage rows as CSV, with a header line.
    pub fn csv(&self) -> String {
        let mut out = String::from(
            "bench,geometry,policy,hw,accesses,must_hit,must_miss,unknown,violations\n",
        );
        for r in &self.reports {
            let c = &r.coverage;
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{},{}\n",
                r.benchmark,
                r.geometry,
                r.policy,
                r.hw,
                c.accesses,
                c.must_hit,
                c.must_miss,
                c.unknown,
                r.violations.len()
            ));
        }
        out
    }

    /// The machine-readable report: cell and violation totals, the
    /// verdict tier's counters as a `"store"` object (only when the run
    /// had a store), and one row per cell.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\n  \"exhibit\": \"oracle\",\n  \"cells\": {},\n  \"violations\": {},\n",
            self.reports.len(),
            self.violations()
        );
        if let Some(s) = &self.store {
            out.push_str(&format!(
                "  \"store\": {{\"hits\": {}, \"misses\": {}, \"writes\": {}, \
                 \"corruptions\": {}, \"io_errors\": {}}},\n",
                s.hits, s.misses, s.writes, s.corruptions, s.io_errors
            ));
        }
        out.push_str("  \"rows\": [\n");
        for (i, r) in self.reports.iter().enumerate() {
            let c = &r.coverage;
            let comma = if i + 1 < self.reports.len() { "," } else { "" };
            out.push_str(&format!(
                "    {{\"bench\": \"{}\", \"geometry\": \"{}\", \"policy\": \"{}\", \
                 \"hw\": \"{}\", \"accesses\": {}, \"must_hit\": {}, \"must_miss\": {}, \
                 \"unknown\": {}, \"violations\": {}}}{comma}\n",
                r.benchmark,
                r.geometry,
                r.policy,
                r.hw,
                c.accesses,
                c.must_hit,
                c.must_miss,
                c.unknown,
                r.violations.len()
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

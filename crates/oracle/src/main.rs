//! `nbl-oracle` — the CI gate around the static cache oracle.
//!
//! Runs the golden grid — {eqntott, doduc, tomcatv} × {8 KB/32 B
//! direct-mapped, 8 KB/32 B 4-way} × every [`ReplacementKind`] ×
//! {`mc=0`, `fc=2`, `no restrict`} at quick scale, 72 cells — and
//! cross-validates the analyzer against the simulator cell by cell.
//!
//! Flags:
//!
//! * `--deny` — exit nonzero on any cross-check violation (CI mode);
//! * `--csv PATH` — write per-cell coverage rows;
//! * `--json PATH` — write the machine-readable report;
//! * `--store DIR` — persist / reuse verdicts keyed by
//!   `(format version, tape fingerprint, geometry, policy, window,
//!   hw config)`. Store trouble degrades to re-analysis and shows in the
//!   JSON report's `"store"` counters; it never fails the run.

use nbl_core::geometry::CacheGeometry;
use nbl_core::tag_array::ReplacementKind;
use nbl_oracle::{
    check_cell, verdict_key, CellReport, CellVerdict, OracleConfig, OracleError, VerdictArtifact,
};
use nbl_sim::config::{HwConfig, SimConfig};
use nbl_sim::store::{compiled_fingerprint, ArtifactStore, DiskTier, KindStats};
use nbl_trace::workloads::{self, Scale};
use std::io::Write as _;
use std::process::ExitCode;

/// Benchmarks of the golden grid (one integer-heavy, two float-heavy —
/// the cheap end of the detailed five, so the gate stays fast).
const BENCHMARKS: [&str; 3] = ["eqntott", "doduc", "tomcatv"];

struct Args {
    deny: bool,
    csv: Option<String>,
    json: Option<String>,
    store: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        deny: false,
        csv: None,
        json: None,
        store: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--deny" => args.deny = true,
            "--csv" => args.csv = Some(it.next().ok_or("--csv needs a path")?),
            "--json" => args.json = Some(it.next().ok_or("--json needs a path")?),
            "--store" => args.store = Some(it.next().ok_or("--store needs a directory")?),
            "--help" | "-h" => {
                println!(
                    "nbl-oracle [--deny] [--csv PATH] [--json PATH] [--store DIR]\n\
                     static must-hit/may-miss cache oracle, cross-validated against the simulator"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    Ok(args)
}

fn geometries() -> Result<Vec<CacheGeometry>, String> {
    // 8 KB / 32 B lines, direct-mapped and 4-way: both paper shapes.
    [1, 4]
        .into_iter()
        .map(|ways| {
            CacheGeometry::new(8 * 1024, 32, ways).map_err(|e| format!("{ways}-way geometry: {e}"))
        })
        .collect()
}

fn hw_configs() -> Vec<HwConfig> {
    // Blocking, bounded non-blocking, and unbounded non-blocking: the
    // three fill-timing regimes the window bound must cover.
    vec![HwConfig::Mc0, HwConfig::Fc(2), HwConfig::NoRestrict]
}

fn run() -> Result<ExitCode, String> {
    let args = parse_args()?;
    let geometries = geometries()?;
    let store = args.store.as_ref().map(DiskTier::new);
    let artifacts = ArtifactStore::in_memory();
    let mut reports: Vec<CellReport> = Vec::new();
    let mut total_violations = 0u64;

    for bench in BENCHMARKS {
        let program = workloads::build(bench, Scale::quick())
            .ok_or_else(|| format!("unknown benchmark {bench}"))?;
        let base = SimConfig::baseline(HwConfig::Mc0);
        let compiled = artifacts
            .get_or_compile(&program, base.load_latency)
            .map_err(|e| OracleError::Compile(e.to_string()).to_string())?;
        let tape = artifacts.get_or_record(&compiled);
        let tape_fp = compiled_fingerprint(&compiled);
        for &geometry in &geometries {
            for policy in ReplacementKind::all() {
                for hw in hw_configs() {
                    let cfg = SimConfig::baseline(hw.clone())
                        .with_geometry(geometry)
                        .with_replacement(policy);
                    let ocfg = OracleConfig::from_sim(&cfg).map_err(|e| e.to_string())?;
                    let key = verdict_key(tape_fp, &ocfg, &hw.label());
                    let cached = store
                        .as_ref()
                        .and_then(|s| s.read::<VerdictArtifact>(&key).ok()?);
                    let report = match cached {
                        Some(verdict) if verdict.violations == 0 => CellReport {
                            benchmark: bench.to_string(),
                            geometry: geometry_label(&geometry),
                            policy: policy.label(),
                            hw: hw.label(),
                            coverage: verdict.coverage,
                            violations: Vec::new(),
                        },
                        _ => {
                            let report =
                                check_cell(bench, &tape, &cfg).map_err(|e| e.to_string())?;
                            if let (Some(s), true) = (&store, report.violations.is_empty()) {
                                let verdict = CellVerdict {
                                    coverage: report.coverage,
                                    violations: 0,
                                };
                                // A failed write is counted in `io_errors`;
                                // the cell is simply re-analyzed next run.
                                let _ = s.write::<VerdictArtifact>(&key, &verdict);
                            }
                            report
                        }
                    };
                    total_violations += report.violations.len() as u64;
                    for v in report.violations.iter().take(5) {
                        eprintln!(
                            "violation: {bench} {} {} {}: {v}",
                            report.geometry, report.policy, report.hw
                        );
                    }
                    reports.push(report);
                }
            }
        }
    }

    let stats = store
        .map(|s| s.kind_stats::<VerdictArtifact>())
        .unwrap_or_default();
    print_table(&reports, stats.hits);
    if let Some(path) = &args.csv {
        write_csv(path, &reports).map_err(|e| format!("csv write failed: {e}"))?;
    }
    if let Some(path) = &args.json {
        write_json(path, &reports, total_violations, &stats)
            .map_err(|e| format!("json write failed: {e}"))?;
    }
    if total_violations > 0 {
        eprintln!("nbl-oracle: {total_violations} cross-check violation(s)");
        if args.deny {
            return Ok(ExitCode::FAILURE);
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn geometry_label(g: &CacheGeometry) -> String {
    format!(
        "{}KB/{}B {}",
        g.size_bytes() / 1024,
        g.line_bytes(),
        if g.ways() == 1 {
            "dm".to_string()
        } else {
            format!("{}-way", g.ways())
        }
    )
}

fn pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        100.0 * part as f64 / whole as f64
    }
}

fn print_table(reports: &[CellReport], cached: u64) {
    println!(
        "{:<9} {:<12} {:<7} {:<12} {:>9} {:>7} {:>7} {:>7} {:>5}",
        "bench", "geometry", "policy", "hw", "accesses", "hit%", "miss%", "unk%", "viol"
    );
    for r in reports {
        let c = &r.coverage;
        println!(
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
        );
    }
    let cells = reports.len();
    let violations: usize = reports.iter().map(|r| r.violations.len()).sum();
    println!("{cells} cells, {violations} violation(s), {cached} from verdict store");
}

fn write_csv(path: &str, reports: &[CellReport]) -> std::io::Result<()> {
    let mut out = String::new();
    out.push_str("bench,geometry,policy,hw,accesses,must_hit,must_miss,unknown,violations\n");
    for r in reports {
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
    std::fs::write(path, out)
}

fn write_json(
    path: &str,
    reports: &[CellReport],
    total_violations: u64,
    store: &KindStats,
) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    writeln!(f, "{{")?;
    writeln!(f, "  \"exhibit\": \"oracle\",")?;
    writeln!(f, "  \"cells\": {},", reports.len())?;
    writeln!(f, "  \"violations\": {total_violations},")?;
    writeln!(
        f,
        "  \"store\": {{\"hits\": {}, \"misses\": {}, \"writes\": {}, \
         \"corruptions\": {}, \"io_errors\": {}}},",
        store.hits, store.misses, store.writes, store.corruptions, store.io_errors
    )?;
    writeln!(f, "  \"rows\": [")?;
    for (i, r) in reports.iter().enumerate() {
        let c = &r.coverage;
        let comma = if i + 1 < reports.len() { "," } else { "" };
        writeln!(
            f,
            "    {{\"bench\": \"{}\", \"geometry\": \"{}\", \"policy\": \"{}\", \
             \"hw\": \"{}\", \"accesses\": {}, \"must_hit\": {}, \"must_miss\": {}, \
             \"unknown\": {}, \"violations\": {}}}{comma}",
            r.benchmark,
            r.geometry,
            r.policy,
            r.hw,
            c.accesses,
            c.must_hit,
            c.must_miss,
            c.unknown,
            r.violations.len()
        )?;
    }
    writeln!(f, "  ]")?;
    writeln!(f, "}}")?;
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("nbl-oracle: {e}");
            ExitCode::FAILURE
        }
    }
}

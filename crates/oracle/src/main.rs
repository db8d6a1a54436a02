//! `nbl-oracle` — the CI gate around the static cache oracle.
//!
//! Runs the golden grid — {eqntott, doduc, tomcatv} × {8 KB/32 B
//! direct-mapped, 8 KB/32 B 4-way} × every replacement policy ×
//! {`mc=0`, `fc=2`, `no restrict`} at quick scale, 72 cells — and
//! cross-validates the analyzer against the simulator cell by cell. The
//! grid loop and the table/CSV/JSON writers are the library's
//! [`run_grid`]; this binary adds the flags, the violation lines on
//! stderr and `--deny`.
//!
//! Flags:
//!
//! * `--deny` — exit nonzero on any cross-check violation (CI mode);
//! * `--csv PATH` — write per-cell coverage rows;
//! * `--json PATH` — write the machine-readable report;
//! * `--store DIR` — persist / reuse verdicts keyed by
//!   `(format version, tape fingerprint, geometry, policy, window,
//!   hw config)`. Store trouble degrades to re-analysis and shows in the
//!   JSON report's `"store"` counters (present only with `--store`); it
//!   never fails the run.

use nbl_oracle::run_grid;
use nbl_sim::config::HwConfig;
use nbl_sim::store::DiskTier;
use nbl_trace::workloads::Scale;
use std::process::ExitCode;

/// Benchmarks of the golden grid (one integer-heavy, two float-heavy —
/// the cheap end of the detailed five, so the gate stays fast).
const BENCHMARKS: [&str; 3] = ["eqntott", "doduc", "tomcatv"];

/// Blocking, bounded non-blocking, and unbounded non-blocking: the three
/// fill-timing regimes the window bound must cover.
const HW_CONFIGS: [HwConfig; 3] = [HwConfig::Mc0, HwConfig::Fc(2), HwConfig::NoRestrict];

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

fn run() -> Result<ExitCode, String> {
    let args = parse_args()?;
    let store = args.store.as_ref().map(DiskTier::new);
    let run = run_grid(&BENCHMARKS, Scale::quick(), &HW_CONFIGS, store.as_ref())
        .map_err(|e| e.to_string())?;
    for r in &run.reports {
        for v in r.violations.iter().take(5) {
            eprintln!(
                "violation: {} {} {} {}: {v}",
                r.benchmark, r.geometry, r.policy, r.hw
            );
        }
    }
    run.write_table(&mut std::io::stdout())
        .map_err(|e| format!("table write failed: {e}"))?;
    if let Some(path) = &args.csv {
        std::fs::write(path, run.csv()).map_err(|e| format!("csv write failed: {e}"))?;
    }
    if let Some(path) = &args.json {
        std::fs::write(path, run.json()).map_err(|e| format!("json write failed: {e}"))?;
    }
    let violations = run.violations();
    if violations > 0 {
        eprintln!("nbl-oracle: {violations} cross-check violation(s)");
        if args.deny {
            return Ok(ExitCode::FAILURE);
        }
    }
    Ok(ExitCode::SUCCESS)
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

//! `figures` — regenerates every table and figure of the paper's
//! evaluation section.
//!
//! ```text
//! cargo run -p nbl-bench --release -- all            # everything
//! cargo run -p nbl-bench --release -- fig5 fig13     # selected exhibits
//! cargo run -p nbl-bench --release -- list           # registered exhibits
//! cargo run -p nbl-bench --release -- all --quick    # smoke-scale
//! cargo run -p nbl-bench --release -- all --out results.txt
//! NBL_THREADS=4 cargo run -p nbl-bench --release -- all   # fixed pool
//! ```
//!
//! Exhibits live in the registry table [`experiments::EXHIBITS`];
//! `list`, `help`, `all`, and argument validation all derive from it, so
//! adding an exhibit is one table entry. Simulation cells run on the
//! parallel sweep engine (worker count from `NBL_THREADS` or the
//! machine); every exhibit is timed, and a throughput summary (wall
//! clock, simulated instructions per second, artifact-store counters)
//! prints at the end of the run.

mod experiments;

use experiments::{RunScale, EXHIBITS};
use nbl_sim::store::{DiskTier, ResultArtifact, TapeArtifact};
use nbl_sim::telemetry::{Telemetry, TelemetrySnapshot};
use std::io::Write;
use std::time::Instant;

const USAGE: &str = "usage: figures <exhibit ... | all | list> [--quick] [--out FILE] [--csv DIR] [--json DIR]\n                                                  [--store DIR] [--incremental]\n       run `figures list` for the registered exhibits";

/// One timed exhibit: name, wall-clock seconds, simulated work done.
struct Timing {
    name: &'static str,
    wall: f64,
    work: TelemetrySnapshot,
}

/// Runs one exhibit, recording its wall clock and simulated-work delta.
fn timed<T>(timings: &mut Vec<Timing>, name: &'static str, f: impl FnOnce() -> T) -> T {
    let before = Telemetry::global().snapshot();
    let t0 = Instant::now();
    let value = f();
    timings.push(Timing {
        name,
        wall: t0.elapsed().as_secs_f64(),
        work: Telemetry::global().snapshot().since(before),
    });
    value
}

fn print_summary(out: &mut dyn Write, timings: &[Timing]) {
    let threads = experiments::engine().pool().threads();
    let _ = writeln!(
        out,
        "== Throughput summary ({threads} worker thread{}) ==",
        if threads == 1 { "" } else { "s" }
    );
    let _ = writeln!(
        out,
        "{:>12} {:>9} {:>7} {:>10} {:>12}",
        "exhibit", "wall (s)", "runs", "Minst", "Minst/s"
    );
    let mut total_wall = 0.0;
    let mut total = TelemetrySnapshot::default();
    for t in timings {
        let _ = writeln!(
            out,
            "{:>12} {:>9.2} {:>7} {:>10.1} {:>12.2}",
            t.name,
            t.wall,
            t.work.runs,
            t.work.instructions as f64 / 1e6,
            t.work.inst_per_sec(t.wall) / 1e6,
        );
        total_wall += t.wall;
        total = TelemetrySnapshot {
            instructions: total.instructions + t.work.instructions,
            runs: total.runs + t.work.runs,
            events: total.events + t.work.events,
            policy_runs: total.policy_runs + t.work.policy_runs,
            arena_builds: total.arena_builds + t.work.arena_builds,
            arena_reuses: total.arena_reuses + t.work.arena_reuses,
        };
    }
    let _ = writeln!(
        out,
        "{:>12} {:>9.2} {:>7} {:>10.1} {:>12.2}",
        "total",
        total_wall,
        total.runs,
        total.instructions as f64 / 1e6,
        total.inst_per_sec(total_wall) / 1e6,
    );
    let (compiled, tapes) = experiments::engine().store().memory_stats();
    let _ = writeln!(
        out,
        "compile cache: {} compilations, {} reuses (each (benchmark, latency) pair compiled once)",
        compiled.derived, compiled.hits
    );
    let _ = writeln!(
        out,
        "tape cache: {} recordings, {} replays, {} evictions ({:.2} MiB resident)",
        tapes.derived,
        tapes.hits,
        tapes.evictions,
        tapes.resident_bytes as f64 / (1024.0 * 1024.0)
    );
    if let Some(disk) = experiments::engine().store().disk() {
        let s = disk.stats();
        let _ = writeln!(
            out,
            "artifact store ({}): tapes {} hits / {} misses / {} writes, results {} hits / {} misses / {} writes, {} corrupt, {} io errors",
            disk.root().display(),
            s.tape_hits,
            s.tape_misses,
            s.tape_writes,
            s.result_hits,
            s.result_misses,
            s.result_writes,
            s.corruptions,
            s.io_errors
        );
    }
    if total.arena_builds + total.arena_reuses > 0 {
        let _ = writeln!(
            out,
            "worker arena: {} processor builds, {} warm reuses",
            total.arena_builds, total.arena_reuses
        );
    }
    if total.events > 0 {
        let _ = writeln!(out, "miss-lifecycle events recorded: {}", total.events);
    }
    if total.policy_runs > 0 {
        let _ = writeln!(
            out,
            "non-LRU replacement-policy runs: {}",
            total.policy_runs
        );
    }
}

/// Prints the exhibit registry, one line per entry.
fn print_exhibits() {
    println!("exhibits:");
    for e in EXHIBITS {
        println!("  {:<12} {}", e.name, e.about);
    }
    println!("  {:<12} every exhibit above, in order", "all");
    println!("options:  --quick (smoke scale), --out FILE (tee), --csv DIR (sweep CSVs),");
    println!("          --json DIR (machine-readable results, e.g. results/),");
    println!(
        "          --store DIR (persist tapes/results in a content-addressed artifact store),"
    );
    println!(
        "          --incremental (serve unchanged grid cells from the store, skip simulation)"
    );
    println!("env:      NBL_THREADS=N overrides the worker count (default: all cores)");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = RunScale::Full;
    let mut out_path: Option<String> = None;
    let mut wanted: Vec<String> = Vec::new();
    let mut store_dir: Option<String> = None;
    let mut incremental = false;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => scale = RunScale::Quick,
            "--out" => {
                let Some(path) = it.next() else {
                    eprintln!("--out needs a file");
                    std::process::exit(2);
                };
                out_path = Some(path);
            }
            "--store" => {
                let Some(dir) = it.next() else {
                    eprintln!("--store needs a directory");
                    std::process::exit(2);
                };
                store_dir = Some(dir);
            }
            "--incremental" => incremental = true,
            "--csv" => {
                let Some(dir) = it.next() else {
                    eprintln!("--csv needs a directory");
                    std::process::exit(2);
                };
                if let Err(e) = experiments::enable_csv(dir.clone().into()) {
                    eprintln!("cannot create csv directory {dir}: {e}");
                    std::process::exit(2);
                }
            }
            "--json" => {
                let Some(dir) = it.next() else {
                    eprintln!("--json needs a directory");
                    std::process::exit(2);
                };
                if let Err(e) = experiments::enable_json(dir.clone().into()) {
                    eprintln!("cannot create json directory {dir}: {e}");
                    std::process::exit(2);
                }
            }
            "-h" | "--help" => {
                println!("{USAGE}");
                return;
            }
            other => wanted.push(other.to_string()),
        }
    }
    if wanted
        .iter()
        .any(|w| w == "list" || w == "--list" || w == "help")
    {
        print_exhibits();
        return;
    }
    if wanted.is_empty() {
        eprintln!("{USAGE}");
        std::process::exit(2);
    }
    for w in &wanted {
        if w != "all" && !EXHIBITS.iter().any(|e| e.name == *w) {
            eprintln!("unknown exhibit: {w}");
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    }
    let all = wanted.iter().any(|w| w == "all");
    let want = |name: &str| all || wanted.iter().any(|w| w == name);
    if let Some(dir) = &store_dir {
        // Artifacts of an older format version are never opened again.
        let tier = DiskTier::new(dir);
        let tapes = tier.prune_superseded::<TapeArtifact>();
        let results = tier.prune_superseded::<ResultArtifact>();
        eprintln!(
            "store {dir}: pruned {} superseded artifact(s) ({tapes} tapes, {results} results)",
            tapes + results
        );
    }
    if store_dir.is_some() || incremental {
        // Pinned before any exhibit builds the global engine.
        nbl_sim::configure_store(nbl_sim::StoreSettings {
            dir: store_dir.map(Into::into),
            incremental,
        });
    }

    let mut sinks: Vec<Box<dyn Write>> = vec![Box::new(std::io::stdout())];
    if let Some(path) = &out_path {
        match std::fs::File::create(path) {
            Ok(f) => sinks.push(Box::new(f)),
            Err(e) => {
                eprintln!("cannot create output file {path}: {e}");
                std::process::exit(2);
            }
        }
    }
    let mut out = Tee(sinks);
    let mut timings: Vec<Timing> = Vec::new();
    let mut failures: Vec<(&'static str, experiments::ExhibitError)> = Vec::new();
    for e in EXHIBITS {
        if want(e.name) {
            if let Err(err) = timed(&mut timings, e.name, || (e.run)(&mut out, scale)) {
                eprintln!("exhibit {} failed {err}", e.name);
                failures.push((e.name, err));
            }
        }
    }
    print_summary(&mut out, &timings);
    if !failures.is_empty() {
        eprintln!("{} exhibit(s) failed:", failures.len());
        for (name, err) in &failures {
            eprintln!("  {name}: {err}");
        }
        std::process::exit(1);
    }
}

/// Writes to every sink (stdout + optional file).
struct Tee(Vec<Box<dyn Write>>);

impl Write for Tee {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        for s in &mut self.0 {
            s.write_all(buf)?;
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        for s in &mut self.0 {
            s.flush()?;
        }
        Ok(())
    }
}

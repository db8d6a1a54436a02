//! One module per paper exhibit. Every `run` function prints its tables to
//! the given writer and asserts nothing — the shape checks live in the
//! workspace integration tests; this harness is for regenerating the
//! numbers in EXPERIMENTS.md.

pub mod ablations;
pub mod bench;
pub mod compare;
pub mod extensions;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig18;
pub mod fig19;
pub mod fig4;
pub mod fig6;
pub mod figs_baseline;
pub mod misslife;
pub mod oracle;
pub mod paper;
pub mod replaymodel;
pub mod replsens;

use nbl_sim::config::{HwConfig, SimConfig};
use nbl_sim::sweep::{Sweep, SweepEngine};
use nbl_trace::ir::Program;
use nbl_trace::workloads::{build, Scale};
use std::io::Write;
use std::path::PathBuf;
use std::sync::OnceLock;

/// One registered exhibit: CLI name, one-line description, entry point.
pub struct Exhibit {
    /// CLI name (`figures <name>`).
    pub name: &'static str,
    /// One-line description shown by `figures list`.
    pub about: &'static str,
    /// Entry point: prints tables to the writer at the given scale.
    /// On failure the error names the grid cell or phase that broke, so
    /// the harness can report it without aborting the other exhibits.
    pub run: fn(&mut dyn Write, RunScale) -> Result<(), ExhibitError>,
}

/// A failed exhibit: the grid cell or phase that broke, and why. The
/// harness prefixes the exhibit name when reporting, so one bad cell
/// prints `exhibit fig13 failed at compress @ latency 20: ...` instead
/// of panicking the whole `figures all` run.
#[derive(Debug)]
pub struct ExhibitError {
    /// Where it failed: benchmark / grid cell / phase.
    pub context: String,
    /// The underlying failure, rendered.
    pub cause: String,
}

impl ExhibitError {
    /// Builds an error for the given grid-cell/phase context.
    pub fn new(context: impl Into<String>, cause: impl std::fmt::Display) -> ExhibitError {
        ExhibitError {
            context: context.into(),
            cause: cause.to_string(),
        }
    }
}

impl std::fmt::Display for ExhibitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "at {}: {}", self.context, self.cause)
    }
}

impl std::error::Error for ExhibitError {}

/// Every exhibit the harness can regenerate, in presentation order.
/// Adding an exhibit is one entry here — `figures list`, `help`, `all`,
/// and argument validation all derive from this table.
pub const EXHIBITS: &[Exhibit] = &[
    Exhibit {
        name: "compare",
        about: "paper-vs-measured MCPI comparison for the headline cells",
        run: compare::run,
    },
    Exhibit {
        name: "fig4",
        about: "scheduled load latency vs achieved overlap",
        run: fig4::run,
    },
    Exhibit {
        name: "fig5",
        about: "baseline miss CPI vs latency for doduc",
        run: figs_baseline::fig5,
    },
    Exhibit {
        name: "fig6",
        about: "miss decomposition for doduc",
        run: fig6::run,
    },
    Exhibit {
        name: "fig7",
        about: "stall-cycle breakdown for doduc",
        run: figs_baseline::fig7,
    },
    Exhibit {
        name: "fig8",
        about: "baseline miss rate for doduc",
        run: figs_baseline::fig8,
    },
    Exhibit {
        name: "fig9",
        about: "baseline miss CPI vs latency for xlisp",
        run: figs_baseline::fig9,
    },
    Exhibit {
        name: "fig10",
        about: "xlisp on a fully associative 8KB cache",
        run: figs_baseline::fig10,
    },
    Exhibit {
        name: "fig11",
        about: "baseline miss CPI vs latency for eqntott",
        run: figs_baseline::fig11,
    },
    Exhibit {
        name: "fig12",
        about: "baseline miss CPI vs latency for tomcatv",
        run: figs_baseline::fig12,
    },
    Exhibit {
        name: "fig13",
        about: "MSHR organizations compared at equal cost",
        run: fig13::run,
    },
    Exhibit {
        name: "fig14",
        about: "in-cache MSHR variants",
        run: fig14::run,
    },
    Exhibit {
        name: "fig15",
        about: "victim buffering and write-miss policy",
        run: fig15::run,
    },
    Exhibit {
        name: "fig16",
        about: "doduc with a 64KB data cache",
        run: figs_baseline::fig16,
    },
    Exhibit {
        name: "fig17",
        about: "doduc with 16-byte lines",
        run: figs_baseline::fig17,
    },
    Exhibit {
        name: "fig18",
        about: "miss CPI vs miss penalty",
        run: fig18::run,
    },
    Exhibit {
        name: "fig19",
        about: "bandwidth-limited memory sensitivity",
        run: fig19::run,
    },
    Exhibit {
        name: "ablations",
        about: "mechanism ablation grid across benchmarks",
        run: ablations::run,
    },
    Exhibit {
        name: "extensions",
        about: "beyond-the-paper extension sweeps",
        run: extensions::run,
    },
    Exhibit {
        name: "misslife",
        about: "traced miss-lifecycle transaction summaries",
        run: misslife::run,
    },
    Exhibit {
        name: "oracle",
        about: "static must-hit/may-miss coverage, cross-checked against the simulator",
        run: oracle::run,
    },
    Exhibit {
        name: "replsens",
        about: "replacement policy x MSHR config x latency sensitivity",
        run: replsens::run,
    },
    Exhibit {
        name: "replaymodel",
        about: "stalling vs replay-cause pipeline x MSHR config x latency",
        run: replaymodel::run,
    },
    Exhibit {
        name: "bench",
        about: "record/replay pipeline gates on a pinned grid (bench.json with --json)",
        run: bench::run,
    },
];

/// The process-wide parallel sweep engine every exhibit runs on: its pool
/// fans `(benchmark, latency, configuration)` cells across threads
/// (`NBL_THREADS` overrides the count) and its cache compiles each
/// `(benchmark, latency)` pair at most once per invocation, however many
/// exhibits replay it.
pub fn engine() -> &'static SweepEngine {
    SweepEngine::global()
}

static CSV_DIR: OnceLock<PathBuf> = OnceLock::new();
static JSON_DIR: OnceLock<PathBuf> = OnceLock::new();

/// Enables CSV side-output: each sweep-producing exhibit also writes
/// `<dir>/<figN>.csv`. Call once, before running exhibits.
pub fn enable_csv(dir: PathBuf) -> std::io::Result<()> {
    std::fs::create_dir_all(&dir)?;
    let _ = CSV_DIR.set(dir);
    Ok(())
}

/// Writes `contents` to `<csv dir>/<name>.csv` if CSV output is enabled.
pub fn write_csv(name: &str, contents: &str) -> Result<(), ExhibitError> {
    if let Some(dir) = CSV_DIR.get() {
        let path = dir.join(format!("{name}.csv"));
        std::fs::write(&path, contents)
            .map_err(|e| ExhibitError::new(format!("writing {}", path.display()), e))?;
    }
    Ok(())
}

/// Enables JSON side-output: each sweep-producing exhibit also writes
/// `<dir>/<figN>.json` (machine-readable results, typically `results/`).
/// Call once, before running exhibits.
pub fn enable_json(dir: PathBuf) -> std::io::Result<()> {
    std::fs::create_dir_all(&dir)?;
    let _ = JSON_DIR.set(dir);
    Ok(())
}

/// Writes `contents` to `<json dir>/<name>.json` if JSON output is enabled.
pub fn write_json(name: &str, contents: &str) -> Result<(), ExhibitError> {
    if let Some(dir) = JSON_DIR.get() {
        let path = dir.join(format!("{name}.json"));
        std::fs::write(&path, contents)
            .map_err(|e| ExhibitError::new(format!("writing {}", path.display()), e))?;
    }
    Ok(())
}

/// The load latencies the paper sweeps.
pub const LATENCIES: [u32; 6] = [1, 2, 3, 6, 10, 20];

/// Experiment sizing selected on the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunScale {
    /// ~40 k instructions per run: seconds, for smoke checks.
    Quick,
    /// ~400 k instructions per run: the defaults used for EXPERIMENTS.md.
    Full,
}

impl RunScale {
    /// The workload scale for this run size.
    pub fn workload_scale(self) -> Scale {
        match self {
            RunScale::Quick => Scale::quick(),
            RunScale::Full => Scale::full(),
        }
    }
}

/// Builds a benchmark program; an unknown name is an [`ExhibitError`]
/// (the registry only names known benchmarks, so this marks a typo in
/// the exhibit itself, reported with its grid context).
pub fn program(name: &str, scale: RunScale) -> Result<Program, ExhibitError> {
    build(name, scale.workload_scale())
        .ok_or_else(|| ExhibitError::new(format!("benchmark {name}"), "unknown benchmark"))
}

/// Builds several benchmark programs.
pub fn programs_for(names: &[&str], scale: RunScale) -> Result<Vec<Program>, ExhibitError> {
    names.iter().map(|name| program(name, scale)).collect()
}

/// Runs a `benchmarks × configs` grid on the shared engine and returns
/// `mcpi[bench][config]`, rows in benchmark order — the workhorse behind
/// the ablation and extension tables.
pub fn mcpi_grid(programs: &[Program], cfgs: &[SimConfig]) -> Result<Vec<Vec<f64>>, ExhibitError> {
    let jobs: Vec<(&Program, SimConfig)> = programs
        .iter()
        .flat_map(|p| cfgs.iter().map(move |c| (p, c.clone())))
        .collect();
    let names: Vec<&str> = programs.iter().map(|p| p.name.as_str()).collect();
    let results = engine()
        .run_many(&jobs)
        .map_err(|e| ExhibitError::new(format!("grid over {}", names.join(", ")), e))?;
    Ok(results
        .chunks(cfgs.len())
        .map(|row| row.iter().map(|r| r.mcpi).collect())
        .collect())
}

/// The full baseline latency sweep (7 configurations × 6 latencies) for
/// one benchmark — the data behind Figs. 5–12 and 15–17. Runs on the
/// shared [`engine`], so the 42 cells execute in parallel and the six
/// compilations are shared with every other exhibit.
pub fn baseline_sweep(
    name: &str,
    scale: RunScale,
    base: &SimConfig,
) -> Result<Sweep, ExhibitError> {
    let p = program(name, scale)?;
    engine()
        .latency_sweep(&p, base, &HwConfig::baseline_seven(), &LATENCIES)
        .map_err(|e| ExhibitError::new(format!("{name} baseline latency sweep"), e))
}

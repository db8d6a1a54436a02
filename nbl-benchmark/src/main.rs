//! `nbl-benchmark`: the repository benchmark.
//!
//! ```text
//! nbl-benchmark --workload <name|all> [--seed N] [--seconds S] [--trace 0|1] [--spans FILE]
//! nbl-benchmark compare A.jsonl B.jsonl [--bounds BENCHMARK.json]
//! ```
//!
//! One run measures one workload for `--seconds` and prints, as its last
//! stdout line, one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` (every end-to-end metric with `--trace 0`, every per-layer
//! metric with `--trace 1`). `--workload all` runs each workload in a
//! fresh child process. See README.md for the workloads and metrics.

mod compare;
mod json;
mod spans;
mod stats;
mod traced;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use workloads::{
    Kind, PassOut, Plan, Res, ScratchDir, Workload, MAX_SETUPS, MIN_SETUPS, SETUP_GAP,
    SETUP_SECONDS,
};

const USAGE: &str = "usage:
  nbl-benchmark --workload <sweep-warm|sweep-cold|sweep-incremental|policy-model|all>
                [--seed N] [--seconds S] [--trace 0|1] [--spans FILE]
  nbl-benchmark compare A.jsonl B.jsonl [--bounds BENCHMARK.json]";

/// Scratch stores live under the working directory (the checkout).
const SCRATCH_ROOT: &str = ".bench_scratch";

/// One metric: name, value, unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (`[A-Za-z0-9_.-]+`).
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: String,
}

/// What one run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Every check passed.
    pub correct: bool,
    /// Cells answered.
    pub attempted: u64,
    /// Cells that errored or failed a check.
    pub failed: u64,
    /// Metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the JSON line.
    pub lines: Vec<String>,
}

impl Report {
    pub(crate) fn metric(&mut self, name: impl Into<String>, value: f64, unit: impl Into<String>) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit: unit.into(),
        });
    }

    /// The result line: one JSON object.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() {
                    format!("{}", m.value)
                } else {
                    "null".to_string()
                };
                format!("\"{}\":{{\"value\":{v},\"unit\":\"{}\"}}", m.name, m.unit)
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> Res<f64> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

pub(crate) fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Correctness bookkeeping shared by both modes.
#[derive(Default)]
pub(crate) struct Tally {
    pub(crate) attempted: u64,
    pub(crate) failed: u64,
    pub(crate) notes: Vec<String>,
}

impl Tally {
    pub(crate) fn fail(&mut self, cells: usize, why: String) {
        self.failed += cells as u64;
        self.notes.push(format!("FAILED: {why}"));
    }
}

/// Runs one pass of the sweep engine (untimed prep, timed pass, untimed
/// checks); returns the pass's wall seconds and output.
pub(crate) fn engine_pass(w: &mut Workload, pass: u64, tally: &mut Tally) -> Res<(f64, PassOut)> {
    w.prepare()?;
    let t0 = Instant::now();
    let out = w.pass(pass);
    let wall = secs(t0);
    let out = out?;
    tally.attempted += out.results.len() as u64;
    if w.reference.is_none() {
        w.reference = Some(out.results.clone());
    }
    let fresh = w.check_engine();
    let engine = w.engine(fresh.as_ref())?;
    let bad = w.check(pass, &out, &|i| w.engine_tape(engine, i))?;
    if !bad.is_empty() {
        tally.fail(bad.len(), format!("pass {pass}: cells {bad:?} differ"));
    }
    Ok((wall, out))
}

pub(crate) fn check_digests(w: &Workload, tally: &mut Tally) {
    match w.check_digests() {
        Ok(note) => tally.notes.push(note),
        Err(why) => tally.fail(w.cells.len(), why),
    }
}

/// The untraced run: end-to-end metrics. Set-up and pass times are sums
/// over their units of each unit's fastest repetition in the run.
fn run_untraced(kind: Kind, plan: &Plan) -> Res<Report> {
    let mut w = Workload::new(kind, plan.clone());
    let mut setups = Vec::new();
    let setting_up = Instant::now();
    while setups.len() < MIN_SETUPS
        || (setups.len() < MAX_SETUPS && secs(setting_up) < SETUP_SECONDS)
    {
        if !setups.is_empty() {
            w.teardown();
            std::thread::sleep(SETUP_GAP);
        }
        setups.push(w.setup(None)?);
    }
    let setup_wall = secs(setting_up);
    let mut tally = Tally::default();
    let (mut walls, mut units) = (Vec::new(), Vec::new());
    let (mut cells, mut insts) = (0, 0);
    let measure = Instant::now();
    let mut pass = 0u64;
    while pass == 0 || secs(measure) < plan.seconds {
        let (wall, out) = engine_pass(&mut w, pass, &mut tally)?;
        walls.push(wall);
        cells = out.results.len();
        insts = Workload::instructions(&out, &out.simulated);
        units.push(out.unit_secs);
        pass += 1;
    }
    check_digests(&w, &mut tally);
    let pass_s = stats::sum_of_minima(&units).ok_or("no timed pass")?;
    let setup_s = stats::sum_of_minima(&setups).ok_or("no set-up")?;
    let mut r = Report {
        correct: tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        ..Report::default()
    };
    r.metric("pass_s", pass_s, "s");
    r.metric("cells_per_s", cells as f64 / pass_s, "1/s");
    r.metric("sim_minst_per_s", insts as f64 / pass_s / 1e6, "Minst/s");
    r.metric("setup_s", setup_s, "s");
    r.metric("peak_rss_mib", peak_rss_mib()?, "MiB");
    r.lines.push(format!(
        "{}: {} workers, {} passes of {} units ({} cells), {} set-ups ({setup_wall:.3} s)",
        kind.name(),
        plan.threads,
        walls.len(),
        w.units.len(),
        w.cells.len(),
        setups.len(),
    ));
    r.lines.push(format!(
        "pass_s {pass_s:.6} = sum over units of each unit's fastest of {} passes (one worker)",
        walls.len()
    ));
    let sorted = stats::sorted(&walls);
    r.lines.push(format!(
        "pass wall on {} workers: median {:.6} s{}",
        plan.threads,
        stats::median(&walls).unwrap_or(0.0),
        stats::highest_tail(&sorted)
            .map(|(p, v)| format!(", p{p} {v:.6} s"))
            .unwrap_or_default()
    ));
    r.lines.push(format!("pass walls (s): {walls:.4?}"));
    r.lines.push(format!(
        "cells_failed_frac = {} ({} of {})",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        tally.failed,
        tally.attempted
    ));
    r.lines.extend(tally.notes);
    Ok(r)
}

/// Runs one workload in this process.
pub fn run(kind: Kind, plan: &Plan, trace: bool, spans_file: Option<&PathBuf>) -> Res<Report> {
    let _scratch = ScratchDir(plan.scratch.clone());
    if trace {
        traced::run(kind, plan, spans_file)
    } else {
        run_untraced(kind, plan)
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Res<Args> {
    let mut a = Args {
        workload: String::new(),
        seed: workloads::DEFAULT_SEED,
        seconds: 20.0,
        trace: false,
        spans: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds.is_finite() && a.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--spans" => a.spans = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if a.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(a)
}

/// `--workload all`: each workload in a fresh child process, each
/// child's result also printed as one `{"workload", "seed", "result"}`
/// line (the record format `compare` reads).
fn run_all(a: &Args) -> Res<bool> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let mut all_ok = true;
    let mut combined = Report {
        correct: true,
        ..Report::default()
    };
    for kind in Kind::ALL {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["--workload", kind.name()])
            .args(["--seed", &a.seed.to_string()])
            .args(["--seconds", &a.seconds.to_string()])
            .args(["--trace", if a.trace { "1" } else { "0" }]);
        if let Some(path) = &a.spans {
            cmd.arg("--spans")
                .arg(path.with_extension(format!("{}.jsonl", kind.name())));
        }
        let out = cmd
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("running {}: {e}", kind.name()))?;
        let text = String::from_utf8_lossy(&out.stdout);
        let mut lines: Vec<&str> = text.lines().collect();
        let last = lines.pop().unwrap_or("");
        for l in lines {
            println!("{l}");
        }
        all_ok &= out.status.success();
        let parsed = json::parse(last).map_err(|e| format!("{}: {e}", kind.name()))?;
        println!(
            "{{\"workload\":\"{}\",\"seed\":{},\"result\":{last}}}",
            kind.name(),
            a.seed
        );
        combined.correct &= parsed.get("correct") == Some(&json::Json::Bool(true));
        combined.attempted += parsed
            .get("attempted")
            .and_then(json::Json::num)
            .unwrap_or(0.0) as u64;
        combined.failed += parsed
            .get("failed")
            .and_then(json::Json::num)
            .unwrap_or(0.0) as u64;
        for (name, m) in parsed
            .get("metrics")
            .and_then(json::Json::obj)
            .into_iter()
            .flatten()
        {
            let value = m.get("value").and_then(json::Json::num).unwrap_or(f64::NAN);
            let unit = m.get("unit").and_then(json::Json::str).unwrap_or("");
            combined.metric(format!("{}.{name}", kind.name()), value, unit);
        }
    }
    println!("{}", combined.json());
    Ok(all_ok && combined.correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match compare::run(&args[1..]) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(e) => {
                eprintln!("{e}\n{USAGE}");
                ExitCode::from(2)
            }
        };
    }
    let a = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if a.workload == "all" {
        return match run_all(&a) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(e) => {
                eprintln!("{e}");
                ExitCode::from(1)
            }
        };
    }
    let Some(kind) = Kind::parse(&a.workload) else {
        eprintln!("unknown workload {}\n{USAGE}", a.workload);
        return ExitCode::from(2);
    };
    let scratch =
        PathBuf::from(SCRATCH_ROOT).join(format!("{}-{}", kind.name(), std::process::id()));
    let plan = Plan::full(a.seed, a.seconds, scratch);
    match run(kind, &plan, a.trace, a.spans.as_ref()) {
        Ok(report) => {
            for l in &report.lines {
                println!("{l}");
            }
            println!("{}", report.json());
            if report.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("{}: {e}", kind.name());
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbl_trace::workloads::Scale;
    use std::collections::BTreeMap;

    fn declared() -> Vec<(String, String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let mut out = Vec::new();
        for section in ["end_to_end", "per_layer"] {
            for m in doc.get(section).and_then(json::Json::arr).expect(section) {
                let field = |k: &str| m.get(k).and_then(json::Json::str).expect(k).to_string();
                out.push((section.to_string(), field("name"), field("unit")));
            }
        }
        out
    }

    #[test]
    fn metric_names_are_well_formed() {
        let ok = |n: &str| {
            !n.is_empty()
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let all = declared();
        assert!(all
            .iter()
            .any(|(s, n, _)| s == "end_to_end" && n == "setup_s"));
        for (_, name, unit) in &all {
            assert!(ok(name), "metric name {name}");
            assert!(!unit.is_empty(), "{name} has a unit");
        }
        for kind in Kind::ALL {
            assert!(ok(kind.name()));
        }
    }

    #[test]
    fn result_line_parses_back() {
        let mut r = Report {
            correct: true,
            attempted: 864,
            failed: 0,
            ..Report::default()
        };
        r.metric("pass_s_p50", 1.234_567_890_123, "s");
        r.metric("sim.cycles", 123_456_789.0, "count");
        r.metric("tiny", 1e-9, "s");
        let v = json::parse(&r.json()).expect("result line is JSON");
        assert_eq!(v.get("correct"), Some(&json::Json::Bool(true)));
        assert_eq!(v.get("attempted").and_then(json::Json::num), Some(864.0));
        let m = v.get("metrics").expect("metrics");
        for metric in &r.metrics {
            let got = m.get(&metric.name).expect("metric present");
            assert_eq!(
                got.get("value").and_then(json::Json::num),
                Some(metric.value)
            );
            assert_eq!(
                got.get("unit").and_then(json::Json::str),
                Some(metric.unit.as_str())
            );
        }
        assert_eq!(v.obj().map(BTreeMap::len), Some(4), "exactly four keys");
    }

    /// All four workloads and the traced mode at a tiny scale: every
    /// declared metric is printed with its unit, and nothing fails.
    #[test]
    fn smoke_all_workloads_tiny() {
        let declared = declared();
        let scratch =
            std::env::temp_dir().join(format!("nbl-benchmark-smoke-{}", std::process::id()));
        for kind in Kind::ALL {
            for trace in [false, true] {
                let plan = Plan {
                    scale: Scale {
                        instr_target: 4_000,
                    },
                    grid_benchmarks: vec!["doduc", "eqntott"],
                    policy_benchmarks: vec!["doduc", "eqntott"],
                    threads: 2,
                    seed: 5,
                    seconds: 0.0,
                    scratch: scratch.join(kind.name()),
                };
                assert!(!plan.pinned());
                let report = run(kind, &plan, trace, None).expect("workload runs");
                let v = json::parse(&report.json()).expect("result line parses");
                let section = if trace { "per_layer" } else { "end_to_end" };
                let metrics = v.get("metrics").and_then(json::Json::obj).expect("metrics");
                let want: Vec<_> = declared.iter().filter(|(s, _, _)| s == section).collect();
                assert_eq!(
                    metrics.len(),
                    want.len(),
                    "{}: exactly the declared metrics",
                    kind.name()
                );
                for (_, name, unit) in want {
                    let m = metrics
                        .get(name)
                        .unwrap_or_else(|| panic!("{} lacks {name}", kind.name()));
                    assert_eq!(m.get("unit").and_then(json::Json::str), Some(unit.as_str()));
                    assert!(m
                        .get("value")
                        .and_then(json::Json::num)
                        .is_some_and(f64::is_finite));
                }
                assert!(report.correct, "{}: {:?}", kind.name(), report.lines);
                assert_eq!(report.failed, 0, "cells_failed_frac == 0");
                assert!(report.attempted > 0);
            }
        }
        assert!(
            !scratch.join("sweep-cold").exists(),
            "scratch stores are removed"
        );
    }
}

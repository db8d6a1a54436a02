//! The traced run: the workload's passes re-executed layer by layer
//! under the span recorder, alternating with engine passes (tracing off),
//! then reduced to per-layer metrics.

use crate::spans::{self, Recorder, Span};
use crate::workloads::{self, Kind, Plan, Res, Workload, PROBE_PASS, SETUP_PASS};
use crate::{check_digests, engine_pass, secs, stats, Report, Tally};
use nbl_sim::telemetry::Telemetry;
use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::time::Instant;

/// Largest share of `threads × wall` that layer time plus idle time may
/// miss.
const RECONCILE_TOLERANCE: f64 = 0.10;

/// Spans that are not layer calls: the pass, the pool call, and the pool
/// job that wraps one row's (or cell's) layer calls.
const FRAME_SPANS: [&str; 3] = ["sweep.pass", "pool.call", "sweep.job"];

/// Per-pass numbers derived from the spans of one traced pass.
#[derive(Debug, Default)]
struct PassTrace {
    wall: f64,
    /// Worker time inside pool jobs.
    busy: f64,
    /// Worker time inside layer calls (`busy` minus the jobs' own time).
    layers: f64,
    /// Worker slot time outside every pool job.
    idle: f64,
    by_name: BTreeMap<&'static str, f64>,
    counts: BTreeMap<&'static str, usize>,
}

impl PassTrace {
    /// Share of `threads × wall` that neither a layer call nor idle time
    /// accounts for: the pool jobs' own time, outside every layer call.
    fn unaccounted(&self, threads: usize) -> f64 {
        let capacity = threads as f64 * self.wall;
        ((self.layers + self.idle - capacity) / capacity).abs()
    }
}

/// Busy time (worker self time by span name), layer time, idle time
/// (worker slots with no job running inside a pool call, plus every slot
/// outside pool calls) and wall of traced pass `pass`.
fn analyse_pass(spans: &[Span], selfs: &[u64], pass: u32, threads: usize) -> PassTrace {
    let ns = |v: u64| v as f64 * 1e-9;
    let mut t = PassTrace::default();
    let in_pass = |s: &Span| s.pass == pass;
    let Some(root) = spans.iter().find(|s| in_pass(s) && s.name == "sweep.pass") else {
        return t;
    };
    t.wall = ns(root.len());
    let mut calls_len = 0u64;
    for (c, call) in spans.iter().enumerate() {
        if !(in_pass(call) && call.name == "pool.call") {
            continue;
        }
        calls_len += call.len();
        let mut per_thread: HashMap<_, Vec<(u64, u64)>> = HashMap::new();
        for job in spans.iter().filter(|s| s.parent == Some(c)) {
            per_thread
                .entry(job.thread)
                .or_default()
                .push((job.start.max(call.start), job.end.min(call.end)));
        }
        let absent = threads.saturating_sub(per_thread.len()) as u64;
        let mut idle = absent * call.len();
        for jobs in per_thread.values_mut() {
            idle += call.len().saturating_sub(spans::union_len(jobs));
        }
        t.idle += ns(idle);
    }
    t.idle += ns((threads as u64) * root.len().saturating_sub(calls_len));
    for (s, &own) in spans.iter().zip(selfs) {
        if in_pass(s) && s.name != "sweep.pass" && s.name != "pool.call" {
            t.busy += ns(own);
            if !FRAME_SPANS.contains(&s.name) {
                t.layers += ns(own);
            }
            *t.by_name.entry(s.name).or_insert(0.0) += ns(own);
            *t.counts.entry(s.name).or_insert(0) += 1;
        }
    }
    t
}

/// Median over passes of `f(pass)`.
fn med(traces: &[PassTrace], f: impl Fn(&PassTrace) -> f64) -> f64 {
    stats::median(&traces.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
}

fn share(t: &PassTrace, prefix: &str) -> f64 {
    let part: f64 = t
        .by_name
        .iter()
        .filter(|(n, _)| n.starts_with(prefix))
        .fold(0.0, |acc, (_, v)| acc + v);
    if t.busy > 0.0 {
        part / t.busy
    } else {
        0.0
    }
}

/// Per-traced-pass facts not visible in the spans.
#[derive(Default)]
struct PassFacts {
    insts: u64,
    tape_bytes: u64,
    arena_builds: u64,
    arena_reuses: u64,
    written: u64,
    read: u64,
    hit_ratio: f64,
    corruptions: u64,
    io_errors: u64,
}

/// The traced run: per-layer metrics.
pub fn run(kind: Kind, plan: &Plan, spans_file: Option<&PathBuf>) -> Res<Report> {
    let rec = Recorder::default();
    let mut w = Workload::new(kind, plan.clone());
    w.setup(Some(&rec))?;
    let mut tally = Tally::default();
    let (mut untraced, mut traced, mut facts) = (Vec::new(), Vec::new(), Vec::new());
    let probe;
    let measure = Instant::now();
    let mut pass = 0u64;
    loop {
        // Alternate an engine pass (tracing off) with a traced pass so
        // both see the same machine state.
        let (wall, out) = engine_pass(&mut w, pass, &mut tally)?;
        untraced.push(wall);
        drop(out);
        pass += 1;
        w.prepare()?;
        let before = Telemetry::global().snapshot();
        let traced_id = u32::try_from(traced.len() + 1).map_err(|e| e.to_string())?;
        let t0 = Instant::now();
        let out = w.traced_pass(&rec, traced_id)?;
        traced.push(secs(t0));
        let tele = Telemetry::global().snapshot().since(before);
        tally.attempted += out.results.len() as u64;
        let bad = w.check(pass, &out, &|i| w.traced_tape(&out, i))?;
        if !bad.is_empty() {
            tally.fail(
                bad.len(),
                format!("traced pass {pass}: cells {bad:?} differ"),
            );
        }
        let lookups = out.store.result_hits + out.store.result_misses;
        facts.push(PassFacts {
            insts: Workload::instructions(&out, &out.simulated),
            tape_bytes: out.tapes.values().map(|t| t.bytes() as u64).sum(),
            arena_builds: tele.arena_builds,
            arena_reuses: tele.arena_reuses,
            written: workloads::artifact_bytes(&out.io, true),
            read: workloads::artifact_bytes(&out.io, false),
            hit_ratio: if lookups > 0 {
                out.store.result_hits as f64 / lookups as f64
            } else {
                0.0
            },
            corruptions: out.store.corruptions,
            io_errors: out.store.io_errors,
        });
        pass += 1;
        if secs(measure) >= plan.seconds {
            // The cpu/mem split and the codec share, on the last traced
            // pass's cells and tapes, outside every pass wall.
            let (counts, mismatched) = w.probe(&rec, &out)?;
            if !mismatched.is_empty() {
                tally.fail(
                    mismatched.len(),
                    format!("probe: cells {mismatched:?} disagree with the driver"),
                );
            }
            probe = Some(counts);
            break;
        }
    }
    check_digests(&w, &mut tally);
    let counts = probe.ok_or("no probe")?;
    let spans = rec.spans();
    let selfs = spans::self_times(&spans);
    let threads = plan.threads;
    let traces: Vec<PassTrace> = (1..=traced.len() as u32)
        .map(|p| analyse_pass(&spans, &selfs, p, threads))
        .collect();
    let sum_named = |pass: u32, name: &str| -> f64 {
        spans
            .iter()
            .zip(&selfs)
            .filter(|(s, _)| s.pass == pass && s.name == name)
            .fold(0.0, |acc, (_, &t)| acc + t as f64 * 1e-9)
    };
    let mut rows: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "driver.replay" && s.pass != SETUP_PASS && s.pass != PROBE_PASS)
        .map(|s| s.len() as f64 * 1e-9)
        .collect();
    rows = stats::sorted(&rows);
    let replay_total = traces.iter().fold(0.0, |acc, t| {
        acc + t.by_name.get("driver.replay").copied().unwrap_or(0.0)
    });
    let insts_total: u64 = facts.iter().map(|f| f.insts).sum();
    let cpu_s = sum_named(PROBE_PASS, "cpu.issue");
    let real_s = sum_named(PROBE_PASS, "mem.real_issue");
    let fmed = |f: &dyn Fn(&PassFacts) -> f64| {
        stats::median(&facts.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    let mib = 1.0 / (1024.0 * 1024.0);
    let untraced_med = stats::median(&untraced).unwrap_or(0.0);
    let traced_med = stats::median(&traced).unwrap_or(0.0);
    let reconcile = traces
        .iter()
        .map(|t| t.unaccounted(threads))
        .fold(0.0, f64::max);

    // Layer calls plus idle time must account for nearly every worker
    // slot of every pass; a gap is pool-job time no layer span covers.
    let reconciled = reconcile <= RECONCILE_TOLERANCE;
    let mut r = Report {
        correct: tally.failed == 0 && reconciled,
        attempted: tally.attempted,
        failed: tally.failed,
        ..Report::default()
    };
    r.metric("trace.build_s", sum_named(SETUP_PASS, "trace.build"), "s");
    r.metric(
        "sched.compile_frac",
        med(&traces, |t| share(t, "sched.compile")),
        "frac",
    );
    r.metric(
        "sched.compiles",
        med(&traces, |t| {
            t.counts.get("sched.compile").copied().unwrap_or(0) as f64
        }),
        "count",
    );
    r.metric(
        "trace.record_frac",
        med(&traces, |t| share(t, "trace.record")),
        "frac",
    );
    r.metric(
        "trace.records",
        med(&traces, |t| {
            t.counts.get("trace.record").copied().unwrap_or(0) as f64
        }),
        "count",
    );
    r.metric(
        "trace.tape_mib",
        fmed(&|f| f.tape_bytes as f64 * mib),
        "MiB",
    );
    r.metric("trace.sim_minsts", fmed(&|f| f.insts as f64 / 1e6), "Minst");
    r.metric(
        "store.busy_frac",
        med(&traces, |t| share(t, "store.")),
        "frac",
    );
    r.metric(
        "store.mib_written",
        fmed(&|f| f.written as f64 * mib),
        "MiB",
    );
    r.metric("store.mib_read", fmed(&|f| f.read as f64 * mib), "MiB");
    r.metric("store.result_hit_ratio", fmed(&|f| f.hit_ratio), "ratio");
    r.metric(
        "store.corruptions",
        facts.iter().map(|f| f.corruptions).sum::<u64>() as f64,
        "count",
    );
    r.metric(
        "store.io_errors",
        facts.iter().map(|f| f.io_errors).sum::<u64>() as f64,
        "count",
    );
    r.metric(
        "driver.replay_s",
        med(&traces, |t| {
            t.by_name.get("driver.replay").copied().unwrap_or(0.0)
        }),
        "s",
    );
    r.metric(
        "driver.row_s_p50",
        stats::nearest_rank(&rows, 50.0).unwrap_or(0.0),
        "s",
    );
    r.metric(
        "driver.row_s_p90",
        stats::nearest_rank(&rows, 90.0).unwrap_or(0.0),
        "s",
    );
    r.metric("driver.row_samples", rows.len() as f64, "count");
    r.metric(
        "driver.ns_per_sim_inst",
        replay_total / insts_total.max(1) as f64 * 1e9,
        "ns",
    );
    r.metric(
        "driver.arena_builds",
        fmed(&|f| f.arena_builds as f64),
        "count",
    );
    r.metric(
        "driver.arena_reuses",
        fmed(&|f| f.arena_reuses as f64),
        "count",
    );
    r.metric("cpu.issue_s", cpu_s, "s");
    r.metric(
        "cpu.ns_per_sim_inst",
        cpu_s / counts.instructions.max(1) as f64 * 1e9,
        "ns",
    );
    r.metric("mem.step_s", real_s - cpu_s, "s");
    r.metric("mem.loads", counts.loads as f64, "count");
    r.metric("mem.load_misses", counts.load_misses as f64, "count");
    r.metric(
        "mem.secondary_misses",
        counts.secondary_misses as f64,
        "count",
    );
    r.metric("mem.stall_cycles", counts.stall_cycles as f64, "count");
    r.metric("sim.cycles", counts.cycles as f64, "count");
    r.metric(
        "pool.busy_frac",
        med(&traces, |t| t.busy / (threads as f64 * t.wall)),
        "frac",
    );
    r.metric("pool.idle_s", med(&traces, |t| t.idle), "s");
    r.metric("sweep.residual_s", untraced_med - traced_med, "s");
    r.metric("sweep.reconcile_err_frac", reconcile, "frac");
    r.metric("sweep.passes", traced.len() as f64, "count");
    r.metric(
        "trace_overhead_frac",
        traced_med / untraced_med - 1.0,
        "frac",
    );

    r.lines.push(format!(
        "{} traced: {} threads, {} engine passes (median {untraced_med:.6} s), {} traced passes (median {traced_med:.6} s)",
        kind.name(),
        threads,
        untraced.len(),
        traced.len()
    ));
    r.lines.push(format!(
        "{:<22} {:>12} {:>14} {:>8}",
        "layer call", "setup s", "per-pass s", "share"
    ));
    let mut names: Vec<&'static str> = spans.iter().map(|s| s.name).collect();
    names.sort_unstable();
    names.dedup();
    for name in names {
        if name == "sweep.pass" || name == "pool.call" {
            continue;
        }
        let per_pass = med(&traces, |t| t.by_name.get(name).copied().unwrap_or(0.0));
        let probe_s = sum_named(PROBE_PASS, name);
        let note = if probe_s > 0.0 {
            format!("  (probe {probe_s:.6} s)")
        } else {
            String::new()
        };
        r.lines.push(format!(
            "{name:<22} {:>12.6} {per_pass:>14.6} {:>8.4}{note}",
            sum_named(SETUP_PASS, name),
            med(&traces, |t| share(t, name)),
        ));
    }
    r.lines.push(format!(
        "mem.step_s = mem.real_issue {real_s:.6} s - cpu.issue {cpu_s:.6} s (difference of two measured calls)"
    ));
    if let Some((p, v)) = stats::highest_tail(&rows) {
        r.lines
            .push(format!("driver row p{p} = {v:.6} s of {} rows", rows.len()));
    }
    r.lines.push(format!(
        "layer calls + idle vs threads x wall: worst error {reconcile:.6}{}",
        if reconciled {
            ""
        } else {
            " (FAILED: over 10%)"
        }
    ));
    r.lines.push(format!(
        "cells_failed_frac = {} ({} of {})",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        tally.failed,
        tally.attempted
    ));
    r.lines.extend(tally.notes);
    if let Some(path) = spans_file {
        std::fs::write(path, spans::to_json_lines(&spans))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        r.lines
            .push(format!("wrote {} spans to {}", spans.len(), path.display()));
    }
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread::ThreadId;

    fn span(
        name: &'static str,
        parent: Option<usize>,
        thread: ThreadId,
        start: u64,
        end: u64,
    ) -> Span {
        Span {
            name,
            parent,
            pass: 1,
            thread,
            start,
            end,
        }
    }

    #[test]
    fn job_time_outside_layer_calls_is_unaccounted() {
        let main = std::thread::current().id();
        let other = std::thread::spawn(|| std::thread::current().id())
            .join()
            .expect("thread id");
        // A 100 ns pass on two workers: one job spends 10 ns outside its
        // layer call, the other worker finishes at 50 ns and then idles.
        let spans = vec![
            span("sweep.pass", None, main, 0, 100),
            span("pool.call", Some(0), main, 0, 100),
            span("sweep.job", Some(1), main, 0, 100),
            span("driver.replay", Some(2), main, 0, 90),
            span("sweep.job", Some(1), other, 0, 50),
            span("driver.replay", Some(4), other, 0, 50),
        ];
        let t = analyse_pass(&spans, &spans::self_times(&spans), 1, 2);
        let ns = |v: f64| (v * 1e9).round();
        assert_eq!((ns(t.busy), ns(t.layers), ns(t.idle)), (150.0, 140.0, 50.0));
        assert!((t.unaccounted(2) - 0.05).abs() < 1e-9);
        // A third worker that ran nothing is idle for the whole call.
        let t3 = analyse_pass(&spans, &spans::self_times(&spans), 1, 3);
        assert_eq!(ns(t3.idle), 150.0);
    }
}

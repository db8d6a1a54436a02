//! Plain-text rendering of sweep results in the shape of the paper's
//! figures and tables.

use crate::compile_cache::CacheStats;
use crate::driver::RunResult;
use crate::store::StoreStats;
use crate::sweep::{LatencySweep, ModelSweep, PenaltySweep, ReplacementSweep};
use crate::tape_cache::TapeStats;
use nbl_cpu::stats::ReplayAttribution;
use nbl_mem::event::{MissLifecycleStats, ReplayCause, DEPTH_BUCKETS, FLIGHT_BUCKETS};
use std::fmt::Write as _;

/// Renders a latency sweep as a fixed-width table: one row per latency,
/// one MCPI column per configuration (the data behind Figs. 5, 9–12,
/// 15–17).
pub fn mcpi_vs_latency_table(sweep: &LatencySweep) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "miss CPI vs scheduled load latency — {}",
        sweep.benchmark
    );
    let _ = write!(out, "{:>8}", "lat");
    for c in &sweep.configs {
        let _ = write!(out, "{c:>14}");
    }
    out.push('\n');
    for (i, &lat) in sweep.latencies.iter().enumerate() {
        let _ = write!(out, "{lat:>8}");
        for r in &sweep.rows[i] {
            let _ = write!(out, "{:>14.4}", r.mcpi);
        }
        out.push('\n');
    }
    out
}

/// Renders the structural-stall share per latency (Fig. 7: "% MCPI due to
/// structural hazard stalls").
pub fn structural_share_table(sweep: &LatencySweep) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "%% MCPI from structural-hazard stalls — {}",
        sweep.benchmark
    );
    let _ = write!(out, "{:>8}", "lat");
    for c in &sweep.configs {
        let _ = write!(out, "{c:>14}");
    }
    out.push('\n');
    for (i, &lat) in sweep.latencies.iter().enumerate() {
        let _ = write!(out, "{lat:>8}");
        for r in &sweep.rows[i] {
            let _ = write!(out, "{:>13.1}%", 100.0 * r.structural_fraction);
        }
        out.push('\n');
    }
    out
}

/// Renders the load miss rates per latency (Fig. 8: primary+secondary and
/// secondary-only).
pub fn miss_rate_table(sweep: &LatencySweep) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "load miss rate (%% of loads) — {}", sweep.benchmark);
    let _ = write!(out, "{:>8}", "lat");
    for c in &sweep.configs {
        let _ = write!(out, "{:>13}+s", c);
        let _ = write!(out, "{:>8}s", "");
    }
    out.push('\n');
    for (i, &lat) in sweep.latencies.iter().enumerate() {
        let _ = write!(out, "{lat:>8}");
        for r in &sweep.rows[i] {
            let _ = write!(out, "{:>14.2}", 100.0 * r.load_miss_rate);
            let _ = write!(out, "{:>9.2}", 100.0 * r.secondary_miss_rate);
        }
        out.push('\n');
    }
    out
}

/// Renders the Fig. 6-style in-flight histogram table for a column of
/// results (one per latency).
pub fn inflight_table(benchmark: &str, rows: &[(u32, &RunResult)]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "in-flight misses and fetches — {benchmark}");
    let _ = writeln!(
        out,
        "{:>4} {:>8} {:>8} {:>5} {:>5} {:>5} {:>5} {:>5} {:>5} {:>5} {:>6}",
        "lat", "kind", "%MIF", "1", "2", "3", "4", "5", "6", "7+", "max"
    );
    for (lat, r) in rows {
        for (kind, dist, max) in [
            ("misses", r.inflight.miss_dist, r.inflight.max_misses),
            ("fetches", r.inflight.fetch_dist, r.inflight.max_fetches),
        ] {
            let _ = write!(
                out,
                "{lat:>4} {kind:>8} {:>7.0}%",
                100.0 * r.inflight.frac_time_with_misses
            );
            for d in dist {
                let _ = write!(out, " {:>4.0}%", 100.0 * d);
            }
            let _ = writeln!(out, " {max:>6}");
        }
    }
    out
}

/// One row of the Fig. 13-style table: MCPI and ratio-to-unrestricted for
/// each configuration, unrestricted last.
pub fn fig13_row(benchmark: &str, results: &[RunResult]) -> String {
    let unrestricted = results
        .last()
        .expect("at least the unrestricted column")
        .mcpi;
    let mut out = format!("{benchmark:>10}");
    for r in &results[..results.len() - 1] {
        let ratio = if unrestricted > 0.0 {
            r.mcpi / unrestricted
        } else {
            1.0
        };
        let _ = write!(out, " {:>7.3} {:>5.1}", r.mcpi, ratio);
    }
    let _ = write!(out, " {unrestricted:>7.3}");
    out
}

/// Renders a penalty sweep as the Fig. 18 table: one row per
/// configuration, one column per penalty.
pub fn mcpi_vs_penalty_table(sweep: &PenaltySweep) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "miss CPI vs miss penalty — {}", sweep.benchmark);
    let _ = write!(out, "{:>14}", "config");
    for &p in &sweep.penalties {
        let _ = write!(out, "{p:>10}");
    }
    out.push('\n');
    for (j, c) in sweep.configs.iter().enumerate() {
        let _ = write!(out, "{c:>14}");
        for row in &sweep.rows {
            let _ = write!(out, "{:>10.3}", row[j].mcpi);
        }
        out.push('\n');
    }
    out
}

/// Renders a latency sweep as an ASCII chart in the style of the paper's
/// figures: MCPI on the y axis, scheduled load latency on the x axis, one
/// letter per configuration (see the legend below the plot). Points that
/// coincide are drawn as `*`.
pub fn mcpi_vs_latency_chart(sweep: &LatencySweep) -> String {
    const HEIGHT: usize = 18;
    let mut max = f64::MIN;
    let mut min = f64::MAX;
    for row in &sweep.rows {
        for r in row {
            max = max.max(r.mcpi);
            min = min.min(r.mcpi);
        }
    }
    if !max.is_finite() || !min.is_finite() || sweep.rows.is_empty() {
        return String::new();
    }
    if (max - min).abs() < 1e-12 {
        max = min + 1.0;
    }
    let col_width = 6;
    let width = sweep.latencies.len() * col_width;
    let mut grid = vec![vec![' '; width]; HEIGHT];
    for (i, _) in sweep.latencies.iter().enumerate() {
        for (j, _) in sweep.configs.iter().enumerate() {
            let m = sweep.rows[i][j].mcpi;
            let y = ((max - m) / (max - min) * (HEIGHT - 1) as f64).round() as usize;
            let x = i * col_width + col_width / 2;
            let symbol = (b'a' + (j % 26) as u8) as char;
            let cell = &mut grid[y.min(HEIGHT - 1)][x];
            *cell = if *cell == ' ' { symbol } else { '*' };
        }
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "miss CPI vs load latency — {} (letters = configs)",
        sweep.benchmark
    );
    for (y, row) in grid.iter().enumerate() {
        let label = max - (max - min) * y as f64 / (HEIGHT - 1) as f64;
        let line: String = row.iter().collect();
        let _ = writeln!(out, "{label:>8.3} |{}", line.trim_end());
    }
    let _ = write!(out, "{:>8}  ", "");
    for lat in &sweep.latencies {
        let _ = write!(out, "{lat:^col_width$}");
    }
    out.push('\n');
    for (j, c) in sweep.configs.iter().enumerate() {
        let _ = writeln!(out, "{:>10} = {}", (b'a' + (j % 26) as u8) as char, c);
    }
    out
}

/// Escapes one CSV field (quotes fields containing commas or quotes).
fn csv_field(s: &str) -> String {
    if s.contains(',') || s.contains('"') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Serializes a latency sweep as CSV: one row per latency, one MCPI column
/// per configuration — ready for external plotting.
pub fn latency_sweep_csv(sweep: &LatencySweep) -> String {
    let mut out = String::from("load_latency");
    for c in &sweep.configs {
        let _ = write!(out, ",{}", csv_field(c));
    }
    out.push('\n');
    for (i, lat) in sweep.latencies.iter().enumerate() {
        let _ = write!(out, "{lat}");
        for r in &sweep.rows[i] {
            let _ = write!(out, ",{:.6}", r.mcpi);
        }
        out.push('\n');
    }
    out
}

/// Serializes a penalty sweep as CSV: one row per penalty, one MCPI column
/// per configuration.
pub fn penalty_sweep_csv(sweep: &PenaltySweep) -> String {
    let mut out = String::from("miss_penalty");
    for c in &sweep.configs {
        let _ = write!(out, ",{}", csv_field(c));
    }
    out.push('\n');
    for (i, pen) in sweep.penalties.iter().enumerate() {
        let _ = write!(out, "{pen}");
        for r in &sweep.rows[i] {
            let _ = write!(out, ",{:.6}", r.mcpi);
        }
        out.push('\n');
    }
    out
}

/// Renders a replacement sweep as one fixed-width table per MSHR
/// configuration: rows are load latencies, columns are policies — the
/// layout that makes the policy spread at each operating point visible
/// at a glance.
pub fn replacement_mcpi_table(sweep: &ReplacementSweep) -> String {
    let mut out = String::new();
    for (j, config) in sweep.configs.iter().enumerate() {
        let _ = writeln!(
            out,
            "miss CPI by replacement policy — {} [{config}]",
            sweep.benchmark
        );
        let _ = write!(out, "{:>8}", "lat");
        for p in &sweep.policies {
            let _ = write!(out, "{p:>12}");
        }
        out.push('\n');
        for (i, &lat) in sweep.latencies.iter().enumerate() {
            let _ = write!(out, "{lat:>8}");
            for plane in &sweep.rows {
                let _ = write!(out, "{:>12.4}", plane[i][j].mcpi);
            }
            out.push('\n');
        }
        out.push('\n');
    }
    out
}

/// Serializes a replacement sweep as long-format CSV —
/// `policy,config,load_latency,mcpi,cycles` — one row per cell, the
/// format external plotting (and the verify-script golden diff) wants.
pub fn replacement_sweep_csv(sweep: &ReplacementSweep) -> String {
    let mut out = String::from("policy,config,load_latency,mcpi,cycles\n");
    for (p, policy) in sweep.policies.iter().enumerate() {
        for (i, &lat) in sweep.latencies.iter().enumerate() {
            for (j, config) in sweep.configs.iter().enumerate() {
                let r = &sweep.rows[p][i][j];
                let _ = writeln!(
                    out,
                    "{},{},{lat},{:.6},{}",
                    csv_field(policy),
                    csv_field(config),
                    r.mcpi,
                    r.cycles
                );
            }
        }
    }
    out
}

/// Renders a model sweep as one fixed-width table per MSHR configuration:
/// rows are load latencies, columns are processor models — the layout
/// that shows whether the pipeline's reaction to a miss (stall vs.
/// replay) changes each configuration's standing.
pub fn model_mcpi_table(sweep: &ModelSweep) -> String {
    let mut out = String::new();
    for (j, config) in sweep.configs.iter().enumerate() {
        let _ = writeln!(
            out,
            "miss CPI by processor model — {} [{config}]",
            sweep.benchmark
        );
        let _ = write!(out, "{:>8}", "lat");
        for m in &sweep.models {
            let _ = write!(out, "{m:>12}");
        }
        out.push('\n');
        for (i, &lat) in sweep.latencies.iter().enumerate() {
            let _ = write!(out, "{lat:>8}");
            for plane in &sweep.rows {
                let _ = write!(out, "{:>12.4}", plane[i][j].mcpi);
            }
            out.push('\n');
        }
        out.push('\n');
    }
    out
}

/// Renders the per-cause replay attribution of a model sweep's replaying
/// plane: one row per `(latency, configuration)` cell, one
/// `count/stall-cycles` column pair per replay cause. Planes whose model
/// never replays (the stalling pipelines) are skipped.
pub fn replay_attribution_table(sweep: &ModelSweep) -> String {
    let mut out = String::new();
    for (m, model) in sweep.models.iter().enumerate() {
        let plane = &sweep.rows[m];
        if plane
            .iter()
            .flatten()
            .all(|r| r.replay.total_replays() == 0)
        {
            continue;
        }
        let _ = writeln!(
            out,
            "replay causes (count / stall cycles) — {} [{model}]",
            sweep.benchmark
        );
        let _ = write!(out, "{:>4} {:>14}", "lat", "config");
        for cause in ReplayCause::ALL {
            let _ = write!(out, "{:>20}", cause.label());
        }
        out.push('\n');
        for (i, &lat) in sweep.latencies.iter().enumerate() {
            for (j, config) in sweep.configs.iter().enumerate() {
                let r = &plane[i][j];
                let _ = write!(out, "{lat:>4} {config:>14}");
                for cause in ReplayCause::ALL {
                    let cell = format!("{}/{}", r.replay.count(cause), r.replay.stalls(cause));
                    let _ = write!(out, "{cell:>20}");
                }
                out.push('\n');
            }
        }
        out.push('\n');
    }
    out
}

/// Serializes a model sweep as long-format CSV —
/// `model,config,load_latency,mcpi,cycles` — one row per cell, the format
/// external plotting (and the verify-script golden diff) wants.
pub fn model_sweep_csv(sweep: &ModelSweep) -> String {
    let mut out = String::from("model,config,load_latency,mcpi,cycles\n");
    for (m, model) in sweep.models.iter().enumerate() {
        for (i, &lat) in sweep.latencies.iter().enumerate() {
            for (j, config) in sweep.configs.iter().enumerate() {
                let r = &sweep.rows[m][i][j];
                let _ = writeln!(
                    out,
                    "{},{},{lat},{:.6},{}",
                    csv_field(model),
                    csv_field(config),
                    r.mcpi,
                    r.cycles
                );
            }
        }
    }
    out
}

/// Renders the miss-lifecycle summary of a traced run: transaction
/// counts, merge-depth and fill-fan-out histograms, and the
/// time-in-flight distribution (the delayed-hits instrument the lifecycle
/// events exist for).
pub fn miss_lifecycle_table(benchmark: &str, config: &str, stats: &MissLifecycleStats) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "miss lifecycle — {benchmark} [{config}]");
    let _ = writeln!(
        out,
        "  issued {:>8}   merged {:>8}   rejected {:>8}",
        stats.issued, stats.merged, stats.rejected
    );
    let _ = writeln!(
        out,
        "  fetches {:>7}   l2-serviced {:>3}   fills {:>11}   targets woken {:>4}",
        stats.fetches, stats.l2_serviced, stats.fills, stats.targets_woken
    );
    let _ = writeln!(
        out,
        "  mean merge depth {:>6.3}   mean fan-out {:>6.3}   mean in-flight {:>6.1} cy (max {})",
        stats.mean_merge_depth(),
        stats.mean_fanout(),
        stats.mean_time_in_flight(),
        stats.max_flight
    );
    let histogram = |out: &mut String, label: &str, buckets: &[u64], saturated: &str| {
        let last = buckets.iter().rposition(|&v| v > 0).unwrap_or(0);
        let _ = write!(out, "  {label:<16}");
        for (i, &v) in buckets.iter().enumerate().take(last + 1) {
            if v == 0 {
                continue;
            }
            let tag = if i + 1 == buckets.len() {
                saturated
            } else {
                ""
            };
            let _ = write!(out, " {i}{tag}:{v}");
        }
        out.push('\n');
    };
    histogram(&mut out, "merge depth", &stats.merge_depth, "+");
    histogram(&mut out, "fill fan-out", &stats.fanout, "+");
    histogram(&mut out, "cycles in flight", &stats.time_in_flight, "+");
    out
}

/// Escapes one JSON string value (the emitters below are hand-rolled —
/// the workspace builds offline with no serialization dependency).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn json_u64_array(vals: &[u64]) -> String {
    let body: Vec<String> = vals.iter().map(u64::to_string).collect();
    format!("[{}]", body.join(","))
}

/// Serializes a [`ReplayAttribution`] as a JSON object: one
/// `{"count":…,"stall_cycles":…}` entry per replay cause, keyed by the
/// cause's label.
fn replay_json(a: &ReplayAttribution) -> String {
    let mut out = String::from("{");
    for (i, cause) in ReplayCause::ALL.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\"{}\":{{\"count\":{},\"stall_cycles\":{}}}",
            cause.label(),
            a.count(cause),
            a.stalls(cause)
        );
    }
    out.push('}');
    out
}

/// Serializes one [`RunResult`] as a JSON object (machine-readable sweep
/// output for `results/`).
pub fn run_result_json(r: &RunResult) -> String {
    let dist = |d: &[f64; 7]| {
        let body: Vec<String> = d.iter().map(|&v| json_f64(v)).collect();
        format!("[{}]", body.join(","))
    };
    format!(
        concat!(
            "{{\"benchmark\":{},\"config\":{},\"model\":{},\"replacement\":{},",
            "\"load_latency\":{},\"miss_penalty\":{},",
            "\"instructions\":{},\"loads\":{},\"stores\":{},\"cycles\":{},\"mcpi\":{},",
            "\"data_dep_stalls\":{},\"structural_stalls\":{},\"blocking_stalls\":{},",
            "\"structural_fraction\":{},\"structural_stall_misses\":{},",
            "\"load_miss_rate\":{},\"secondary_miss_rate\":{},\"static_spill_ops\":{},",
            "\"replays\":{},",
            "\"inflight\":{{\"frac_time_with_misses\":{},\"miss_dist\":{},\"fetch_dist\":{},",
            "\"max_misses\":{},\"max_fetches\":{}}}}}"
        ),
        json_str(&r.benchmark),
        json_str(&r.config),
        json_str(&r.model),
        json_str(&r.replacement),
        r.load_latency,
        r.miss_penalty,
        r.instructions,
        r.loads,
        r.stores,
        r.cycles,
        json_f64(r.mcpi),
        r.data_dep_stalls,
        r.structural_stalls,
        r.blocking_stalls,
        json_f64(r.structural_fraction),
        r.structural_stall_misses,
        json_f64(r.load_miss_rate),
        json_f64(r.secondary_miss_rate),
        r.static_spill_ops,
        replay_json(&r.replay),
        json_f64(r.inflight.frac_time_with_misses),
        dist(&r.inflight.miss_dist),
        dist(&r.inflight.fetch_dist),
        r.inflight.max_misses,
        r.inflight.max_fetches,
    )
}

/// Serializes the disk tier's [`StoreStats`] counters as one JSON object
/// (the `"store"` section of [`caches_json`]; all zeroes for a
/// memory-only store).
pub fn store_json(store: &StoreStats) -> String {
    format!(
        concat!(
            "{{\"tape_hits\":{},\"tape_misses\":{},\"tape_writes\":{},",
            "\"result_hits\":{},\"result_misses\":{},\"result_writes\":{},",
            "\"corruptions\":{},\"io_errors\":{}}}"
        ),
        store.tape_hits,
        store.tape_misses,
        store.tape_writes,
        store.result_hits,
        store.result_misses,
        store.result_writes,
        store.corruptions,
        store.io_errors,
    )
}

/// Serializes compile-cache, tape-cache and disk-store counters as one
/// JSON object, so any emitter can place artifact-store telemetry next
/// to its runs (`BENCH_sweep.json` embeds this under its `caches` key).
pub fn caches_json(compile: &CacheStats, tape: &TapeStats, store: &StoreStats) -> String {
    format!(
        concat!(
            "{{\"compile_cache\":{{\"compiles\":{},\"hits\":{}}},",
            "\"tape_cache\":{{\"records\":{},\"hits\":{},\"evictions\":{},",
            "\"resident_bytes\":{}}},\"store\":{}}}"
        ),
        compile.compiles,
        compile.hits,
        tape.records,
        tape.hits,
        tape.evictions,
        tape.resident_bytes,
        store_json(store),
    )
}

fn sweep_json(
    kind: &str,
    benchmark: &str,
    axis_name: &str,
    axis: &[u32],
    configs: &[String],
    rows: &[Vec<RunResult>],
) -> String {
    let mut out = String::from("{");
    let _ = write!(
        out,
        "\"kind\":{},\"benchmark\":{},\"configs\":[",
        json_str(kind),
        json_str(benchmark)
    );
    for (j, c) in configs.iter().enumerate() {
        if j > 0 {
            out.push(',');
        }
        out.push_str(&json_str(c));
    }
    let _ = write!(
        out,
        "],\"{axis_name}\":{},\"runs\":[",
        json_u64_array(&axis.iter().map(|&v| u64::from(v)).collect::<Vec<_>>())
    );
    let mut first = true;
    for row in rows {
        for r in row {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&run_result_json(r));
        }
    }
    out.push_str("]}");
    out
}

/// Serializes a latency sweep as one JSON document: the axes plus every
/// [`RunResult`] (row-major, latencies × configurations).
pub fn latency_sweep_json(sweep: &LatencySweep) -> String {
    sweep_json(
        "latency_sweep",
        &sweep.benchmark,
        "load_latencies",
        &sweep.latencies,
        &sweep.configs,
        &sweep.rows,
    )
}

/// Serializes a penalty sweep as one JSON document (row-major, penalties ×
/// configurations).
pub fn penalty_sweep_json(sweep: &PenaltySweep) -> String {
    sweep_json(
        "penalty_sweep",
        &sweep.benchmark,
        "miss_penalties",
        &sweep.penalties,
        &sweep.configs,
        &sweep.rows,
    )
}

/// Serializes a replacement sweep as one JSON document: the three axes
/// (policies, configs, latencies) plus every [`RunResult`], flattened in
/// policy-major, then latency, then configuration order.
pub fn replacement_sweep_json(sweep: &ReplacementSweep) -> String {
    let labels = |xs: &[String]| {
        let body: Vec<String> = xs.iter().map(|x| json_str(x)).collect();
        format!("[{}]", body.join(","))
    };
    let mut out = String::from("{");
    let _ = write!(
        out,
        "\"kind\":\"replacement_sweep\",\"benchmark\":{},\"policies\":{},\"configs\":{},\"load_latencies\":{},\"runs\":[",
        json_str(&sweep.benchmark),
        labels(&sweep.policies),
        labels(&sweep.configs),
        json_u64_array(&sweep.latencies.iter().map(|&v| u64::from(v)).collect::<Vec<_>>()),
    );
    let mut first = true;
    for plane in &sweep.rows {
        for row in plane {
            for r in row {
                if !first {
                    out.push(',');
                }
                first = false;
                out.push_str(&run_result_json(r));
            }
        }
    }
    out.push_str("]}");
    out
}

/// Serializes a model sweep as one JSON document: the three axes (models,
/// configs, latencies) plus every [`RunResult`], flattened in model-major,
/// then latency, then configuration order.
pub fn model_sweep_json(sweep: &ModelSweep) -> String {
    let labels = |xs: &[String]| {
        let body: Vec<String> = xs.iter().map(|x| json_str(x)).collect();
        format!("[{}]", body.join(","))
    };
    let mut out = String::from("{");
    let _ = write!(
        out,
        "\"kind\":\"model_sweep\",\"benchmark\":{},\"models\":{},\"configs\":{},\"load_latencies\":{},\"runs\":[",
        json_str(&sweep.benchmark),
        labels(&sweep.models),
        labels(&sweep.configs),
        json_u64_array(&sweep.latencies.iter().map(|&v| u64::from(v)).collect::<Vec<_>>()),
    );
    let mut first = true;
    for plane in &sweep.rows {
        for row in plane {
            for r in row {
                if !first {
                    out.push(',');
                }
                first = false;
                out.push_str(&run_result_json(r));
            }
        }
    }
    out.push_str("]}");
    out
}

/// Serializes a miss-lifecycle summary as a JSON object.
pub fn miss_lifecycle_json(benchmark: &str, config: &str, stats: &MissLifecycleStats) -> String {
    debug_assert_eq!(stats.merge_depth.len(), DEPTH_BUCKETS);
    debug_assert_eq!(stats.time_in_flight.len(), FLIGHT_BUCKETS);
    format!(
        concat!(
            "{{\"benchmark\":{},\"config\":{},\"issued\":{},\"merged\":{},",
            "\"rejected\":{},\"fetches\":{},\"l2_serviced\":{},\"fills\":{},",
            "\"targets_woken\":{},\"mean_merge_depth\":{},\"mean_fanout\":{},",
            "\"mean_time_in_flight\":{},\"max_flight\":{},",
            "\"merge_depth\":{},\"fanout\":{},\"time_in_flight\":{}}}"
        ),
        json_str(benchmark),
        json_str(config),
        stats.issued,
        stats.merged,
        stats.rejected,
        stats.fetches,
        stats.l2_serviced,
        stats.fills,
        stats.targets_woken,
        json_f64(stats.mean_merge_depth()),
        json_f64(stats.mean_fanout()),
        json_f64(stats.mean_time_in_flight()),
        stats.max_flight,
        json_u64_array(&stats.merge_depth),
        json_u64_array(&stats.fanout),
        json_u64_array(&stats.time_in_flight),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{HwConfig, SimConfig};
    use crate::sweep::{latency_sweep, penalty_sweep};
    use nbl_trace::workloads::{build, Scale};

    fn tiny_sweep() -> LatencySweep {
        let p = build("eqntott", Scale::quick()).unwrap();
        latency_sweep(
            &p,
            &SimConfig::baseline(HwConfig::Mc0),
            &[HwConfig::Mc0, HwConfig::NoRestrict],
            &[1, 10],
        )
        .unwrap()
    }

    #[test]
    fn latency_table_contains_labels_and_rows() {
        let t = mcpi_vs_latency_table(&tiny_sweep());
        assert!(t.contains("eqntott"));
        assert!(t.contains("mc=0"));
        assert!(t.contains("no restrict"));
        assert_eq!(t.lines().count(), 2 + 2);
    }

    #[test]
    fn auxiliary_tables_render() {
        let s = tiny_sweep();
        assert!(structural_share_table(&s).contains('%'));
        assert!(miss_rate_table(&s).contains("eqntott"));
        let rows: Vec<(u32, &RunResult)> = s
            .latencies
            .iter()
            .copied()
            .zip(s.rows.iter().map(|r| &r[1]))
            .collect();
        let t = inflight_table("eqntott", &rows);
        assert!(t.contains("fetches"));
    }

    #[test]
    fn fig13_row_shows_ratios() {
        let s = tiny_sweep();
        let row = fig13_row("eqntott", &s.rows[1]);
        assert!(row.contains("eqntott"));
        // one (mcpi, ratio) pair + the unrestricted column = 3 numbers.
        assert_eq!(row.split_whitespace().count(), 4);
    }

    #[test]
    fn chart_renders_with_legend_and_extremes() {
        let s = tiny_sweep();
        let chart = mcpi_vs_latency_chart(&s);
        assert!(chart.contains("a = mc=0"));
        assert!(chart.contains("b = no restrict"));
        // Every (latency, config) point appears somewhere.
        let plotted: usize = chart
            .chars()
            .filter(|c| *c == 'a' || *c == 'b' || *c == '*')
            .count()
            // legend letters appear once each
            - 2;
        assert!(plotted >= 2, "chart too empty:\n{chart}");
        // The y-axis spans the data.
        assert!(chart.lines().count() > 18);
    }

    #[test]
    fn csv_roundtrips_the_numbers() {
        let s = tiny_sweep();
        let csv = latency_sweep_csv(&s);
        let mut lines = csv.lines();
        assert_eq!(lines.next().unwrap(), "load_latency,mc=0,no restrict");
        let row: Vec<&str> = lines.next().unwrap().split(',').collect();
        assert_eq!(row[0], "1");
        let parsed: f64 = row[1].parse().unwrap();
        assert!((parsed - s.rows[0][0].mcpi).abs() < 1e-6);
        assert_eq!(csv.lines().count(), 1 + s.latencies.len());
    }

    #[test]
    fn csv_escapes_commas() {
        assert_eq!(csv_field("a,b"), "\"a,b\"");
        assert_eq!(csv_field("plain"), "plain");
        assert_eq!(csv_field("say \"hi\""), "\"say \"\"hi\"\"\"");
    }

    #[test]
    fn penalty_csv_renders() {
        let p = build("eqntott", Scale::quick()).unwrap();
        let s = penalty_sweep(
            &p,
            &SimConfig::baseline(HwConfig::Mc0),
            &[HwConfig::Mc0],
            &[8, 16],
        )
        .unwrap();
        let csv = penalty_sweep_csv(&s);
        assert!(csv.starts_with("miss_penalty,mc=0"));
        assert_eq!(csv.lines().count(), 3);
    }

    #[test]
    fn json_emitters_are_well_formed() {
        let s = tiny_sweep();
        let doc = latency_sweep_json(&s);
        assert!(doc.starts_with("{\"kind\":\"latency_sweep\""));
        assert!(doc.contains("\"benchmark\":\"eqntott\""));
        assert!(doc.contains("\"load_latencies\":[1,10]"));
        // 2 latencies x 2 configs = 4 embedded run objects.
        assert_eq!(doc.matches("\"mcpi\":").count(), 4);
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());

        let one = run_result_json(&s.rows[0][0]);
        assert!(one.contains("\"config\":\"mc=0\""));
        assert_eq!(one.matches('{').count(), one.matches('}').count());

        assert_eq!(json_str("say \"hi\"\n"), "\"say \\\"hi\\\"\\n\"");
        assert_eq!(json_f64(f64::NAN), "null");
    }

    #[test]
    fn replacement_renderers_cover_every_cell() {
        use crate::sweep::SweepEngine;
        use nbl_core::geometry::CacheGeometry;
        use nbl_core::tag_array::ReplacementKind;
        let p = build("eqntott", Scale::quick()).unwrap();
        let base = SimConfig::baseline(HwConfig::Mc0)
            .with_geometry(CacheGeometry::new(8 * 1024, 32, 4).unwrap());
        let s = SweepEngine::new(2)
            .replacement_sweep(
                &p,
                &base,
                &[ReplacementKind::Lru, ReplacementKind::Fifo],
                &[HwConfig::Mc(1), HwConfig::NoRestrict],
                &[1, 10],
            )
            .unwrap();
        let table = replacement_mcpi_table(&s);
        assert!(table.contains("[mc=1]") && table.contains("[no restrict]"));
        assert!(table.contains("lru") && table.contains("fifo"));

        let csv = replacement_sweep_csv(&s);
        let mut lines = csv.lines();
        assert_eq!(
            lines.next().unwrap(),
            "policy,config,load_latency,mcpi,cycles"
        );
        assert_eq!(csv.lines().count(), 1 + 2 * 2 * 2, "one row per cell");
        assert!(csv.contains("lru,mc=1,1,"));
        assert!(csv.contains("fifo,no restrict,10,"));

        let doc = replacement_sweep_json(&s);
        assert!(doc.starts_with("{\"kind\":\"replacement_sweep\""));
        assert!(doc.contains("\"policies\":[\"lru\",\"fifo\"]"));
        assert!(doc.contains("\"replacement\":\"fifo\""));
        assert_eq!(doc.matches("\"mcpi\":").count(), 8);
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
    }

    #[test]
    fn model_renderers_cover_every_cell() {
        use crate::config::ProcessorKind;
        use crate::sweep::SweepEngine;
        let p = build("eqntott", Scale::quick()).unwrap();
        let base = SimConfig::baseline(HwConfig::Mc0);
        let s = SweepEngine::new(2)
            .model_sweep(
                &p,
                &base,
                &[ProcessorKind::SingleInOrder, ProcessorKind::ReplayCause],
                &[HwConfig::Mc(1), HwConfig::NoRestrict],
                &[1, 10],
            )
            .unwrap();
        let table = model_mcpi_table(&s);
        assert!(table.contains("[mc=1]") && table.contains("[no restrict]"));
        assert!(table.contains("single") && table.contains("replay"));

        let causes = replay_attribution_table(&s);
        assert!(causes.contains("[replay]"));
        assert!(!causes.contains("[single]"), "stalling planes are skipped");
        for cause in ReplayCause::ALL {
            assert!(causes.contains(cause.label()), "missing {}", cause.label());
        }

        let csv = model_sweep_csv(&s);
        let mut lines = csv.lines();
        assert_eq!(
            lines.next().unwrap(),
            "model,config,load_latency,mcpi,cycles"
        );
        assert_eq!(csv.lines().count(), 1 + 2 * 2 * 2, "one row per cell");
        assert!(csv.contains("single,mc=1,1,"));
        assert!(csv.contains("replay,no restrict,10,"));

        let doc = model_sweep_json(&s);
        assert!(doc.starts_with("{\"kind\":\"model_sweep\""));
        assert!(doc.contains("\"models\":[\"single\",\"replay\"]"));
        assert!(doc.contains("\"model\":\"replay\""));
        assert!(doc.contains("\"replays\":{\"fwd_fail\":{\"count\":"));
        assert_eq!(doc.matches("\"mcpi\":").count(), 8);
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
    }

    #[test]
    fn miss_lifecycle_render_and_json() {
        use crate::driver::run_tape_traced;
        use crate::sweep::SweepEngine;
        let p = build("tomcatv", Scale::quick()).unwrap();
        let cfg = SimConfig::baseline(HwConfig::NoRestrict);
        let store = SweepEngine::global().store();
        let tape = store.get_or_record(&store.get_or_compile(&p, cfg.load_latency).unwrap());
        let (_r, trace) = run_tape_traced(&p.name, &tape, &cfg, 128).unwrap();
        let stats = &trace.stats;
        assert!(stats.fetches > 0, "tomcatv must miss");
        let table = miss_lifecycle_table("tomcatv", "no restrict", stats);
        assert!(table.contains("miss lifecycle — tomcatv"));
        assert!(table.contains("merge depth"));
        let doc = miss_lifecycle_json("tomcatv", "no restrict", stats);
        assert!(doc.contains("\"fetches\":"));
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
        // The histograms account for every filled fetch.
        let filled: u64 = stats.time_in_flight.iter().sum();
        assert_eq!(filled, stats.fills);
    }

    #[test]
    fn penalty_table_renders() {
        let p = build("eqntott", Scale::quick()).unwrap();
        let s = penalty_sweep(
            &p,
            &SimConfig::baseline(HwConfig::Mc0),
            &[HwConfig::Mc0],
            &[8, 16],
        )
        .unwrap();
        let t = mcpi_vs_penalty_table(&s);
        assert!(t.contains("mc=0"));
        assert!(t.lines().count() == 3);
    }
}

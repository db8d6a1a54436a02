//! `bench` exhibit: a gate-only smoke test of the record-once/replay-many
//! pipeline on a pinned grid sweep. Speed claims come from
//! `nbl-benchmark`; this exhibit measures only what its gates read.
//!
//! Every pass runs the same 18 benchmarks × 8 configurations × 6
//! latencies grid (the full Fig. 13 roster) at quick scale:
//!
//! 1. **cold** — a fresh [`SweepEngine`] on a disk-backed store with
//!    empty memory tiers: every `(benchmark, latency)` pair is compiled
//!    and its tape recorded (or, when a previous process populated the
//!    store, decoded from the disk tier), then all 864 cells replay,
//!    writing tapes and results through to the store;
//! 2. **warm** — the same sweep on the same engine with both memory
//!    tiers hot: pure fused replay, best of [`REPS`] passes;
//! 3. **disk-warm** — a *fresh* engine (modelling a fresh process: cold
//!    memory tiers) in incremental mode over the store the cold pass
//!    populated: every cell is answered from its content-addressed
//!    [`RunResult`] artifact without simulating (DESIGN.md §16);
//! 4. **fusion check** — fresh engines at each of
//!    [`FUSION_CHECK_THREADS`] on the populated store, an untimed
//!    warm-up pass, then fused and unfused passes interleaved, best of
//!    [`REPS`] each side: the fused-vs-unfused ratio at pinned worker
//!    counts, whatever `NBL_THREADS` says.
//!
//! Every pass is checked bit-for-bit against the cold pass. The exhibit
//! asserts nothing itself: with `--json DIR` it writes the gate inputs
//! to `DIR/bench.json` ([`Gates::json`]), which `scripts/verify.sh`
//! asserts on.

use super::{programs_for, write_json, ExhibitError, RunScale, LATENCIES};
use nbl_sim::config::{HwConfig, SimConfig};
use nbl_sim::driver::RunResult;
use nbl_sim::pool::available_threads;
use nbl_sim::report;
use nbl_sim::store::{store_settings, ArtifactStore, StoreStats, TierStats};
use nbl_sim::sweep::SweepEngine;
use nbl_trace::ir::Program;
use nbl_trace::workloads::ALL;
use std::io::Write;
use std::path::PathBuf;
use std::time::Instant;

/// Passes behind every best-of timing.
const REPS: usize = 2;

/// The worker counts the fusion check pins.
const FUSION_CHECK_THREADS: [usize; 2] = [1, 4];

/// The Fig. 13-style grid: the seven baseline configurations plus the
/// in-cache MSHR organization.
fn grid_configs() -> Vec<HwConfig> {
    let mut configs = HwConfig::baseline_seven();
    configs.push(HwConfig::InCache);
    configs
}

/// Runs the full grid once, fused (one tape walk per `(benchmark,
/// latency)` row) or unfused (one independent replay per cell); returns
/// wall seconds and the flat cell results.
fn grid_pass(
    engine: &SweepEngine,
    programs: &[Program],
    fused: bool,
) -> Result<(f64, Vec<RunResult>), ExhibitError> {
    let refs: Vec<&Program> = programs.iter().collect();
    let base = SimConfig::baseline(HwConfig::NoRestrict);
    let configs = grid_configs();
    let t0 = Instant::now();
    let sweeps = if fused {
        engine.grid_sweep(&refs, &base, &configs, &LATENCIES)
    } else {
        engine.grid_sweep_unfused(&refs, &base, &configs, &LATENCIES)
    }
    .map_err(|e| ExhibitError::new("bench grid sweep", e))?;
    let wall = t0.elapsed().as_secs_f64();
    let flat = sweeps
        .into_iter()
        .flat_map(|s| s.rows.into_iter().flatten())
        .collect();
    Ok((wall, flat))
}

/// What one invocation measures: the inputs of the `verify.sh` gates.
struct Gates {
    runs: usize,
    threads: usize,
    cold_wall_s: f64,
    warm_wall_s: f64,
    disk_warm_wall_s: f64,
    /// Unfused wall over fused wall at each of [`FUSION_CHECK_THREADS`].
    fused_vs_unfused: [f64; 2],
    bit_identical: bool,
    /// The main engine's memory tiers: compiled programs, then tapes.
    compiled: TierStats,
    tapes: TierStats,
    /// The main engine's disk counters.
    store: StoreStats,
    /// The disk-warm engine's disk counters, kept beside the main
    /// engine's rather than summed into them.
    disk_warm_store: StoreStats,
}

impl Gates {
    fn speedup_disk_warm_vs_cold(&self) -> f64 {
        self.cold_wall_s / self.disk_warm_wall_s
    }

    /// The `bench.json` snapshot.
    fn json(&self) -> String {
        let [fused_1t, fused_4t] = self.fused_vs_unfused;
        format!(
            concat!(
                "{{\"kind\":\"bench\",\"runs\":{},\"threads\":{},",
                "\"cold_wall_s\":{:.6},\"warm_wall_s\":{:.6},\"disk_warm_wall_s\":{:.6},",
                "\"warm_runs_per_sec\":{:.2},\"speedup_disk_warm_vs_cold\":{:.3},",
                "\"speedup_fused_vs_unfused_1t\":{:.3},\"speedup_fused_vs_unfused_4t\":{:.3},",
                "\"bit_identical\":{},\"caches\":{},\"disk_warm_store\":{}}}\n"
            ),
            self.runs,
            self.threads,
            self.cold_wall_s,
            self.warm_wall_s,
            self.disk_warm_wall_s,
            self.runs as f64 / self.warm_wall_s,
            self.speedup_disk_warm_vs_cold(),
            fused_1t,
            fused_4t,
            self.bit_identical,
            report::caches_json(&self.compiled, &self.tapes, &self.store),
            report::store_json(&self.disk_warm_store),
        )
    }
}

/// Prints the gate table and, with `--json`, writes `bench.json`.
///
/// Pinned to quick scale regardless of `--quick`: this exhibit checks
/// the harness rather than the workloads, and its gates are calibrated
/// on this grid, so the grid must not change shape with command-line
/// flags.
pub fn run(out: &mut dyn Write, _scale: RunScale) -> Result<(), ExhibitError> {
    let programs = programs_for(&ALL, RunScale::Quick)?;
    // The exhibit always runs on a disk-backed store (the configured one,
    // or the conventional default) so the disk-warm phase has artifacts
    // to read. Cross-process warm starts are the point: when a previous
    // process populated this store, the "cold" pass loads its tapes from
    // the disk tier instead of recording.
    let store_dir = store_settings()
        .dir
        .unwrap_or_else(|| PathBuf::from("results/store"));
    let engine = SweepEngine::with_store(
        available_threads(),
        ArtifactStore::with_disk(&store_dir, false),
    );
    let configs = grid_configs();
    let runs = ALL.len() * configs.len() * LATENCIES.len();
    let threads = engine.pool().threads();

    // Cold can only be timed once (the caches are warm afterwards); warm
    // takes the best of `REPS` passes to damp scheduler noise, after
    // checking every pass agrees bit-for-bit with cold.
    let (cold_wall_s, cold) = grid_pass(&engine, &programs, true)?;
    let mut identical = true;
    let mut warm_wall_s = f64::INFINITY;
    for _ in 0..REPS {
        let (wall, pass) = grid_pass(&engine, &programs, true)?;
        warm_wall_s = warm_wall_s.min(wall);
        identical &= pass == cold;
    }
    // Disk-warm: a fresh engine models a fresh process — empty memory
    // tiers, incremental mode, same (now populated) store. Every cell's
    // inputs are unchanged, so the whole grid is answered from stored
    // results; bit-identity against the simulated passes checks the
    // result codec round-trip end to end.
    let disk_engine = SweepEngine::with_store(
        available_threads(),
        ArtifactStore::with_disk(&store_dir, true),
    );
    let (disk_warm_wall_s, disk_warm) = grid_pass(&disk_engine, &programs, true)?;
    identical &= disk_warm == cold;
    // Fusion check: fresh engines on the populated store model each
    // pinned shape; their warm-up pass (loading tapes from the disk tier)
    // is untimed and bit-checked like every other pass, and the fused and
    // unfused passes interleave so both sides see the same machine state.
    let mut fused_vs_unfused = [0.0f64; 2];
    for (slot, &t) in fused_vs_unfused.iter_mut().zip(&FUSION_CHECK_THREADS) {
        let check_engine = SweepEngine::with_store(t, ArtifactStore::with_disk(&store_dir, false));
        let (_, warmup) = grid_pass(&check_engine, &programs, true)?;
        identical &= warmup == cold;
        let (mut fused_best, mut unfused_best) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..REPS {
            let (wall, pass) = grid_pass(&check_engine, &programs, true)?;
            fused_best = fused_best.min(wall);
            identical &= pass == cold;
            let (wall, pass) = grid_pass(&check_engine, &programs, false)?;
            unfused_best = unfused_best.min(wall);
            identical &= pass == cold;
        }
        *slot = unfused_best / fused_best;
    }
    let (compiled, tapes) = engine.store().memory_stats();
    let gates = Gates {
        runs,
        threads,
        cold_wall_s,
        warm_wall_s,
        disk_warm_wall_s,
        fused_vs_unfused,
        bit_identical: identical,
        compiled,
        tapes,
        store: engine.store().disk_stats(),
        disk_warm_store: disk_engine.store().disk_stats(),
    };

    let _ = writeln!(
        out,
        "== bench: record-once/replay-many pipeline gates (pinned quick scale) =="
    );
    let _ = writeln!(
        out,
        "{} cells: {} benchmarks x {} configs x {} latencies, {} worker thread{}, best of {REPS} passes",
        runs,
        ALL.len(),
        configs.len(),
        LATENCIES.len(),
        threads,
        if threads == 1 { "" } else { "s" },
    );
    let _ = writeln!(out, "{:>24} {:>9} {:>9}", "phase", "wall (s)", "runs/s");
    for (name, wall) in [
        ("cold (compile+record)", cold_wall_s),
        ("warm (fused replay)", warm_wall_s),
        ("disk-warm (incremental)", disk_warm_wall_s),
    ] {
        let _ = writeln!(
            out,
            "{:>24} {:>9.3} {:>9.1}",
            name,
            wall,
            runs as f64 / wall
        );
    }
    let _ = writeln!(
        out,
        "speedup: disk-warm vs cold {:.2}x (fresh process reading {})",
        gates.speedup_disk_warm_vs_cold(),
        store_dir.display()
    );
    let [fused_1t, fused_4t] = fused_vs_unfused;
    let _ = writeln!(
        out,
        "fusion check (best of {REPS} each side): 1 thread {fused_1t:.2}x, \
         4 threads {fused_4t:.2}x fused vs unfused"
    );
    let _ = writeln!(
        out,
        "caches: {} compiles + {} hits, {} tape records + {} replays ({:.2} MiB resident)",
        compiled.derived,
        compiled.hits,
        tapes.derived,
        tapes.hits,
        tapes.resident_bytes as f64 / (1024.0 * 1024.0)
    );
    let (store, disk_store) = (gates.store, gates.disk_warm_store);
    let _ = writeln!(
        out,
        "store:  tapes {}h/{}m/{}w, results {}h/{}m/{}w (main) + {}h/{}m (disk-warm), {} corrupt, {} io errors",
        store.tape_hits,
        store.tape_misses,
        store.tape_writes,
        store.result_hits,
        store.result_misses,
        store.result_writes,
        disk_store.result_hits,
        disk_store.result_misses,
        store.corruptions + disk_store.corruptions,
        store.io_errors + disk_store.io_errors,
    );
    let _ = writeln!(
        out,
        "results bit-identical across all passes (fused/unfused/disk-warm): {}",
        if identical { "yes" } else { "NO" }
    );
    let _ = writeln!(out);
    write_json("bench", &gates.json())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every object key in `json` as a dotted path, in document order.
    /// Enough for the snapshot, whose strings hold no quotes or braces.
    fn key_paths(json: &str) -> Vec<String> {
        let (mut open, mut paths) = (Vec::<&str>::new(), Vec::new());
        let mut rest = json;
        while let Some(at) = rest.find(['{', '}', '"']) {
            let (token, tail) = rest[at..].split_at(1);
            rest = tail;
            match token {
                "{" => open.push(""),
                "}" => {
                    open.pop();
                }
                _ => {
                    let end = rest.find('"').expect("closed string");
                    let (text, tail) = rest.split_at(end);
                    rest = &tail[1..];
                    if rest.starts_with(':') {
                        if let Some(key) = open.last_mut() {
                            *key = text;
                        }
                        paths.push(open.join("."));
                    }
                }
            }
        }
        paths
    }

    #[test]
    fn snapshot_pins_the_keys_verify_reads() {
        let gates = Gates {
            runs: 864,
            threads: 2,
            cold_wall_s: 0.5,
            warm_wall_s: 0.25,
            disk_warm_wall_s: 0.01,
            fused_vs_unfused: [1.5, 1.25],
            bit_identical: true,
            compiled: TierStats::default(),
            tapes: TierStats {
                derived: 66,
                ..TierStats::default()
            },
            store: StoreStats {
                tape_hits: 7,
                ..StoreStats::default()
            },
            disk_warm_store: StoreStats {
                result_hits: 864,
                ..StoreStats::default()
            },
        };
        let json = gates.json();
        let store_keys = [
            "tape_hits",
            "tape_misses",
            "tape_writes",
            "result_hits",
            "result_misses",
            "result_writes",
            "corruptions",
            "io_errors",
        ];
        let mut expected: Vec<String> = [
            "kind",
            "runs",
            "threads",
            "cold_wall_s",
            "warm_wall_s",
            "disk_warm_wall_s",
            "warm_runs_per_sec",
            "speedup_disk_warm_vs_cold",
            "speedup_fused_vs_unfused_1t",
            "speedup_fused_vs_unfused_4t",
            "bit_identical",
            "caches",
            "caches.compile_cache",
            "caches.compile_cache.compiles",
            "caches.compile_cache.hits",
            "caches.tape_cache",
            "caches.tape_cache.records",
            "caches.tape_cache.hits",
            "caches.tape_cache.evictions",
            "caches.tape_cache.resident_bytes",
            "caches.store",
        ]
        .map(String::from)
        .into();
        expected.extend(store_keys.map(|k| format!("caches.store.{k}")));
        expected.push("disk_warm_store".into());
        expected.extend(store_keys.map(|k| format!("disk_warm_store.{k}")));
        assert_eq!(key_paths(&json), expected);
        // Derived gate inputs, and the two engines' store counters
        // reported apart.
        for pair in [
            "\"warm_runs_per_sec\":3456.00",
            "\"speedup_disk_warm_vs_cold\":50.000",
            "\"speedup_fused_vs_unfused_4t\":1.250",
            "\"bit_identical\":true",
            "\"tape_cache\":{\"records\":66,",
            "\"store\":{\"tape_hits\":7,",
            "\"disk_warm_store\":{\"tape_hits\":0,",
            "\"result_hits\":864,",
        ] {
            assert!(json.contains(pair), "{pair} missing from {json}");
        }
        assert_eq!(json.matches("\"result_hits\":864").count(), 1);
    }
}

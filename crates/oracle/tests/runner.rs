//! The oracle runner over a verdict store: a cold run, a warm run and a
//! storeless run of one small grid must agree cell for cell and render
//! the same CSV and JSON rows — a verdict read back from the store is
//! indistinguishable from the same cell checked fresh.

use nbl_oracle::{run_grid, OracleRun};
use nbl_sim::config::HwConfig;
use nbl_sim::store::DiskTier;
use nbl_trace::workloads::Scale;

/// One benchmark × 2 geometries × 4 policies × 2 hw configs.
const CELLS: u64 = 16;

fn small_grid(store: Option<&DiskTier>) -> OracleRun {
    let scale = Scale {
        instr_target: 8_000,
    };
    run_grid(
        &["eqntott"],
        scale,
        &[HwConfig::Mc0, HwConfig::Fc(2)],
        store,
    )
    .expect("small grid runs")
}

/// The JSON report minus its `"store"` line, which differs between runs
/// by design (its counters).
fn json_rows(run: &OracleRun) -> String {
    run.json()
        .lines()
        .filter(|l| !l.trim_start().starts_with("\"store\""))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn warm_run_answers_every_cell_from_the_store_with_identical_rows() {
    let dir = std::env::temp_dir().join(format!("nbl-oracle-runner-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let fresh = small_grid(None);
    assert_eq!(fresh.store, None);
    assert_eq!(fresh.reports.len() as u64, CELLS);
    assert_eq!(fresh.violations(), 0);
    assert!(!fresh.json().contains("\"store\""));

    let cold = small_grid(Some(&DiskTier::new(&dir)));
    let cold_stats = cold.store.expect("cold run had a store");
    assert_eq!(
        (cold_stats.hits, cold_stats.misses, cold_stats.writes),
        (0, CELLS, CELLS)
    );

    // A new tier over the same directory: a fresh process's view.
    let warm = small_grid(Some(&DiskTier::new(&dir)));
    let warm_stats = warm.store.expect("warm run had a store");
    assert_eq!(
        (warm_stats.hits, warm_stats.misses, warm_stats.writes),
        (CELLS, 0, 0)
    );
    assert_eq!(warm_stats.corruptions + warm_stats.io_errors, 0);
    assert!(warm.json().contains("\"store\": {\"hits\": 16,"));

    // Stored cells report and render exactly as fresh checks do.
    assert_eq!(warm.reports, cold.reports);
    assert_eq!(warm.reports, fresh.reports);
    assert_eq!(warm.csv(), cold.csv());
    assert_eq!(warm.csv(), fresh.csv());
    assert_eq!(json_rows(&warm), json_rows(&cold));
    assert_eq!(json_rows(&warm), json_rows(&fresh));

    let _ = std::fs::remove_dir_all(&dir);
}

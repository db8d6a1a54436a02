//! End-to-end tests of the tiered artifact store (DESIGN.md §16): two
//! store instances over one directory model two processes sharing
//! `results/store/`, and every corruption scenario must degrade to a
//! transparent re-record/re-simulate with bit-identical results. The
//! per-kind suite at the end runs every codec and tier check over all
//! three artifact kinds: tapes, results and oracle verdicts.

use nbl_core::fingerprint::checksum_bytes;
use nbl_core::frame::CodecError;
use nbl_core::inst::DynInst;
use nbl_core::types::{Addr, LoadFormat, PhysReg};
use nbl_cpu::stats::ReplayAttribution;
use nbl_oracle::{CellVerdict, Coverage, VerdictArtifact};
use nbl_sim::driver::{InFlightSummary, RunResult};
use nbl_sim::store::{
    program_fingerprint, result_fingerprint, ArtifactError, ArtifactKind, ArtifactStore, CellKey,
    DiskTier, ResultArtifact, TapeArtifact, TapeKey,
};
use nbl_sim::{HwConfig, SimConfig, SweepEngine};
use nbl_trace::ir::Program;
use nbl_trace::tape::TraceTape;
use nbl_trace::workloads::{build, Scale};
use std::fmt::Debug;
use std::path::{Path, PathBuf};
use std::sync::Barrier;

/// A fresh per-test store directory under the system temp dir. Each test
/// passes a distinct tag, so the tests in this binary can run
/// concurrently; the process id keeps parallel `cargo test` invocations
/// apart.
fn temp_store(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nbl-artifact-store-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A small but heterogeneous grid: 2 benchmarks x 2 configs x 2
/// latencies = 8 cells and 4 `(benchmark, latency)` compile pairs, but
/// only 2 schedules: eqntott and compress each compile to one schedule
/// at latencies 6 and 10, so each records and stores one tape.
fn grid_programs() -> Vec<Program> {
    vec![
        build("eqntott", Scale::quick()).unwrap(),
        build("compress", Scale::quick()).unwrap(),
    ]
}

const GRID_CONFIGS: [HwConfig; 2] = [HwConfig::Mc0, HwConfig::Mc(4)];
const GRID_LATENCIES: [u32; 2] = [6, 10];
const CELLS: u64 = 8;
const PAIRS: u64 = 4;
const SCHEDULES: u64 = 2;

fn run_grid(engine: &SweepEngine, programs: &[Program]) -> Vec<RunResult> {
    let refs: Vec<&Program> = programs.iter().collect();
    let base = SimConfig::baseline(HwConfig::NoRestrict);
    engine
        .grid_sweep(&refs, &base, &GRID_CONFIGS, &GRID_LATENCIES)
        .unwrap()
        .into_iter()
        .flat_map(|s| s.rows.into_iter().flatten())
        .collect()
}

fn disk_engine(dir: &PathBuf, incremental: bool) -> SweepEngine {
    SweepEngine::with_store(2, ArtifactStore::with_disk(dir, incremental))
}

/// Artifact files of one kind currently in the store directory.
fn artifacts_with_extension(dir: &Path, ext: &str) -> Vec<PathBuf> {
    let mut found: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == ext))
        .collect();
    found.sort();
    found
}

#[test]
fn cross_process_warm_start_hits_the_disk_tier() {
    let dir = temp_store("warm");
    let programs = grid_programs();

    // "Process" A: empty store, so every schedule records and writes
    // through once; the pair that shares it is a memory-tier hit.
    let a = disk_engine(&dir, false);
    let baseline = run_grid(&a, &programs);
    let sa = a.store().disk_stats();
    assert_eq!(sa.tape_hits, 0);
    assert_eq!(sa.tape_misses, SCHEDULES);
    assert_eq!(sa.tape_writes, SCHEDULES);
    assert_eq!(sa.result_writes, CELLS);
    let (compiled, tapes) = a.store().memory_stats();
    assert_eq!(compiled.derived, PAIRS, "every pair compiles");
    assert_eq!((tapes.derived, tapes.hits), (SCHEDULES, PAIRS - SCHEDULES));
    assert_eq!(
        artifacts_with_extension(&dir, "nbt").len(),
        SCHEDULES as usize
    );

    // "Process" B: a fresh instance over the same directory. Every tape
    // request must be answered by decoding A's artifacts — no recording.
    let b = disk_engine(&dir, false);
    let again = run_grid(&b, &programs);
    assert_eq!(
        again, baseline,
        "disk-tier tapes must replay bit-identically"
    );
    let sb = b.store().disk_stats();
    assert_eq!(sb.tape_hits, SCHEDULES);
    assert_eq!(sb.tape_misses, 0);
    assert_eq!(sb.corruptions, 0);
    assert_eq!(
        b.store().memory_stats().1.derived,
        0,
        "warm start must not re-record"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn incremental_mode_answers_cells_from_stored_results() {
    let dir = temp_store("incremental");
    let programs = grid_programs();

    let a = disk_engine(&dir, false);
    let baseline = run_grid(&a, &programs);

    // Incremental "process": every cell's input fingerprints are
    // unchanged, so the whole grid comes back from result artifacts
    // without compiling, recording, or simulating anything.
    let b = disk_engine(&dir, true);
    assert!(b.store().incremental());
    let served = run_grid(&b, &programs);
    assert_eq!(served, baseline, "stored results must be bit-identical");
    let sb = b.store().disk_stats();
    assert_eq!(sb.result_hits, CELLS);
    assert_eq!(sb.result_misses, 0);
    let (compiled, tapes) = b.store().memory_stats();
    assert_eq!(compiled.derived, 0, "incremental hit skips compile");
    assert_eq!(tapes.derived, 0, "incremental hit skips recording");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_tape_is_quarantined_and_transparently_re_recorded() {
    let dir = temp_store("corrupt-tape");
    let programs = grid_programs();

    let a = disk_engine(&dir, false);
    let baseline = run_grid(&a, &programs);

    // Flip one bit in the middle of one tape artifact.
    let tapes = artifacts_with_extension(&dir, "nbt");
    assert_eq!(tapes.len(), SCHEDULES as usize);
    let victim = &tapes[1];
    let mut bytes = std::fs::read(victim).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(victim, &bytes).unwrap();

    // A fresh "process" must detect the damage, quarantine the file,
    // re-record the schedule, and finish the sweep with unperturbed
    // results.
    let b = disk_engine(&dir, false);
    let again = run_grid(&b, &programs);
    assert_eq!(again, baseline, "corruption must not perturb results");
    let sb = b.store().disk_stats();
    assert_eq!(sb.corruptions, 1);
    assert_eq!(sb.tape_hits, SCHEDULES - 1);
    assert_eq!(sb.tape_writes, 1, "the damaged schedule is re-recorded");
    assert_eq!(b.store().memory_stats().1.derived, 1);
    assert_eq!(
        artifacts_with_extension(&dir, "corrupt").len(),
        1,
        "the damaged file is kept aside as evidence"
    );
    assert!(victim.exists(), "the content address is repopulated");

    let _ = std::fs::remove_dir_all(&dir);
}

/// `bytes` (a current, version 3 tape artifact) in the version 2 layout:
/// the version field rewritten, the load latency version 2 carried after
/// the name length put back, and the checksum resealed — an intact
/// artifact of the previous format.
fn as_version_2(v3: &[u8], latency: u32) -> Vec<u8> {
    let mut bytes = v3[..12].to_vec();
    bytes[4..8].copy_from_slice(&2u32.to_le_bytes());
    bytes.extend_from_slice(&latency.to_le_bytes());
    bytes.extend_from_slice(&v3[12..]);
    let body = bytes.len() - 8;
    let sum = checksum_bytes(&bytes[..body]);
    bytes[body..].copy_from_slice(&sum.to_le_bytes());
    bytes
}

/// The name the tape at `v3` had under format version 2, where a tape
/// was addressed per latency: `tape-v2-<workload>-l<latency>-<fp>.nbt`.
fn version_2_name(v3: &Path, latency: u32) -> PathBuf {
    let name = v3.file_name().unwrap().to_str().unwrap();
    let rest = name.strip_prefix("tape-v3-").unwrap();
    let (workload, fp) = rest.rsplit_once('-').unwrap();
    v3.with_file_name(format!("tape-v2-{workload}-l{latency}-{fp}"))
}

#[test]
fn stale_version_2_tape_is_ignored_and_left_alone() {
    let dir = temp_store("stale-v2");
    let programs = grid_programs();

    // Learn the v3 addresses from a populated store, then start over
    // with only a v2-named, v2-framed file in the directory.
    let baseline = run_grid(&disk_engine(&dir, false), &programs);
    let v3 = artifacts_with_extension(&dir, "nbt");
    assert_eq!(v3.len(), SCHEDULES as usize);
    let stale = as_version_2(&std::fs::read(&v3[0]).unwrap(), 6);
    assert_eq!(
        TraceTape::from_bytes(&stale),
        Err(CodecError::UnsupportedVersion(2))
    );
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let v2_path = version_2_name(&v3[0], 6);
    std::fs::write(&v2_path, &stale).unwrap();

    // The store never asks for the v2 name: every schedule records
    // once, nothing counts as damage, and the old file is untouched.
    let b = disk_engine(&dir, false);
    let again = run_grid(&b, &programs);
    assert_eq!(again, baseline);
    let sb = b.store().disk_stats();
    assert_eq!(
        (sb.tape_hits, sb.tape_misses, sb.tape_writes),
        (0, SCHEDULES, SCHEDULES)
    );
    assert_eq!(sb.corruptions, 0);
    assert_eq!(b.store().memory_stats().1.derived, SCHEDULES);
    assert_eq!(std::fs::read(&v2_path).unwrap(), stale, "left alone");
    assert!(artifacts_with_extension(&dir, "corrupt").is_empty());
    assert!(v3[0].exists(), "the v3 address is populated beside it");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn version_2_frame_at_a_version_3_path_is_quarantined_and_re_recorded() {
    let dir = temp_store("v2-at-v3");
    let programs = grid_programs();

    let a = disk_engine(&dir, false);
    let baseline = run_grid(&a, &programs);

    // Overwrite one v3 tape with the same content in a v2 frame.
    let tapes = artifacts_with_extension(&dir, "nbt");
    let victim = &tapes[1];
    let original = std::fs::read(victim).unwrap();
    let stale = as_version_2(&original, 10);
    assert_eq!(
        TraceTape::from_bytes(&stale),
        Err(CodecError::UnsupportedVersion(2))
    );
    std::fs::write(victim, &stale).unwrap();

    let b = disk_engine(&dir, false);
    let again = run_grid(&b, &programs);
    assert_eq!(
        again, baseline,
        "the re-recorded tape replays bit-identically"
    );
    let sb = b.store().disk_stats();
    assert_eq!(sb.corruptions, 1);
    assert_eq!(sb.tape_hits, SCHEDULES - 1);
    assert_eq!(sb.tape_writes, 1, "the stale schedule is re-recorded");
    assert_eq!(b.store().memory_stats().1.derived, 1);
    let quarantined = artifacts_with_extension(&dir, "corrupt");
    assert_eq!(quarantined.len(), 1);
    assert_eq!(std::fs::read(&quarantined[0]).unwrap(), stale);
    assert_eq!(
        std::fs::read(victim).unwrap(),
        original,
        "the address is repopulated with the same v3 bytes"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_result_is_quarantined_and_the_cell_re_simulated() {
    let dir = temp_store("corrupt-result");
    let programs = grid_programs();

    let a = disk_engine(&dir, false);
    let baseline = run_grid(&a, &programs);

    let results = artifacts_with_extension(&dir, "nbr");
    assert_eq!(results.len(), CELLS as usize);
    let victim = &results[3];
    let mut bytes = std::fs::read(victim).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(victim, &bytes).unwrap();

    // Incremental sweep over the damaged store: 7 cells come back from
    // artifacts, the quarantined one is re-simulated, and the reassembled
    // grid is still bit-identical.
    let b = disk_engine(&dir, true);
    let served = run_grid(&b, &programs);
    assert_eq!(served, baseline, "re-simulated cell must be bit-identical");
    let sb = b.store().disk_stats();
    assert_eq!(sb.corruptions, 1);
    assert_eq!(sb.result_hits, CELLS - 1);
    assert_eq!(sb.result_writes, 1, "the re-simulated cell writes back");
    assert!(victim.exists(), "the content address is repopulated");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn result_fingerprints_separate_configs_and_programs() {
    let eqntott = build("eqntott", Scale::quick()).unwrap();
    let compress = build("compress", Scale::quick()).unwrap();
    let fp_e = program_fingerprint(&eqntott);
    let fp_c = program_fingerprint(&compress);
    assert_ne!(fp_e, fp_c);
    assert_eq!(
        fp_e,
        program_fingerprint(&eqntott),
        "fingerprints are deterministic"
    );

    let base = SimConfig::baseline(HwConfig::Mc0).at_latency(6);
    let key = result_fingerprint(fp_e, &base);
    assert_ne!(
        key,
        result_fingerprint(fp_c, &base),
        "different program, same config"
    );
    assert_ne!(
        key,
        result_fingerprint(fp_e, &base.clone().at_latency(10)),
        "same program, different latency"
    );
    assert_ne!(
        key,
        result_fingerprint(fp_e, &SimConfig::baseline(HwConfig::Mc(4)).at_latency(6)),
        "same program, different hardware"
    );

    // A changed fingerprint is a miss: the store never serves a stale
    // result for modified inputs.
    let dir = temp_store("fingerprints");
    let store = ArtifactStore::with_disk(&dir, true);
    let compiled = store.get_or_compile(&eqntott, 6).unwrap();
    let tape = store.get_or_record(&compiled);
    let result = nbl_sim::run_tape(&eqntott.name, &tape, &base).unwrap();
    store.store_result(&result, key);
    assert_eq!(store.load_result(&eqntott.name, 6, key), Some(result));
    assert_eq!(
        store.load_result(&eqntott.name, 6, key ^ 1),
        None,
        "a different input fingerprint must never hit"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// The per-kind suite
// ---------------------------------------------------------------------

/// One artifact kind under test: a fixed sample, its content address,
/// and the byte-format golden of the encoded sample (length and
/// `checksum_bytes`), pinned from the codecs before they shared one
/// frame — so a drift in any on-disk format fails here.
trait Fixture: ArtifactKind<Value: PartialEq + Debug> {
    const GOLDEN: (usize, u64);
    fn sample() -> Self::Value;
    /// A value whose publish takes long enough for concurrent writers to
    /// overlap.
    fn bulky() -> Self::Value {
        Self::sample()
    }
    fn key(value: &Self::Value, fingerprint: u64) -> Self::Key<'_>;
}

impl Fixture for TapeArtifact {
    const GOLDEN: (usize, u64) = (2954, 0xe4d5_785c_86dc_d043);

    fn sample() -> TraceTape {
        tape_of_len(300)
    }

    /// About 1 MB encoded.
    fn bulky() -> TraceTape {
        tape_of_len(100_000)
    }

    fn key(tape: &TraceTape, fingerprint: u64) -> TapeKey<'_> {
        (tape.name(), fingerprint)
    }
}

/// Loads, stores, ALU chains and branches, with barriers spanning more
/// than one flag word.
fn tape_of_len(len: u64) -> TraceTape {
    let mut tape = TraceTape::with_capacity("golden", 2, len as usize);
    for i in 0..len {
        let r = PhysReg::from_dense((i % 48) as usize);
        let r2 = PhysReg::from_dense(((i + 7) % 48) as usize);
        match i % 5 {
            0 => tape.push(DynInst::load(Addr(0x1000 + i * 8), r, LoadFormat::WORD)),
            1 => tape.push(DynInst::alu(r2, [Some(r), None])),
            2 => tape.push(DynInst::store(Addr(0x9000 + i * 4), Some(r2))),
            3 => tape.push(DynInst::branch([Some(r2), None])),
            _ => tape.push(DynInst::alu(r, [None, None])),
        }
    }
    tape
}

impl Fixture for ResultArtifact {
    const GOLDEN: (usize, u64) = (363, 0x7201_033d_61d8_f70d);

    /// `-0.0` among the floats pins them by bit pattern, not value.
    fn sample() -> RunResult {
        RunResult {
            benchmark: "golden".to_string(),
            config: "fc=2".to_string(),
            model: "single".to_string(),
            replacement: "lru".to_string(),
            load_latency: 6,
            miss_penalty: 16,
            instructions: 123_456,
            loads: 23_456,
            stores: 3_456,
            cycles: 234_567,
            mcpi: 0.8125,
            data_dep_stalls: 1_111,
            structural_stalls: 2_222,
            blocking_stalls: 0,
            structural_fraction: -0.0,
            structural_stall_misses: 33,
            load_miss_rate: 0.0625,
            secondary_miss_rate: 0.015625,
            inflight: InFlightSummary {
                frac_time_with_misses: 0.375,
                miss_dist: [0.5, 0.25, 0.125, 0.0625, 0.03125, 0.015625, 0.015625],
                fetch_dist: [0.75, 0.125, 0.0625, 0.03125, 0.015625, 0.0078125, 0.0078125],
                max_misses: 9,
                max_fetches: 4,
            },
            static_spill_ops: 5,
            replay: ReplayAttribution {
                counts: std::array::from_fn(|i| i as u64 + 1),
                stall_cycles: std::array::from_fn(|i| 10 * (i as u64 + 1)),
            },
        }
    }

    fn key(result: &RunResult, fingerprint: u64) -> CellKey<'_> {
        (&result.benchmark, result.load_latency, fingerprint)
    }
}

impl Fixture for VerdictArtifact {
    const GOLDEN: (usize, u64) = (56, 0x69ef_8ec1_ace5_eccb);

    fn sample() -> CellVerdict {
        CellVerdict {
            coverage: Coverage {
                accesses: 1000,
                must_hit: 600,
                must_miss: 300,
                unknown: 100,
            },
            violations: 0,
        }
    }

    fn key(_: &CellVerdict, fingerprint: u64) -> u64 {
        fingerprint
    }
}

/// Names of the files in `dir` that look like publish temp files.
fn temp_debris(dir: &Path) -> Vec<String> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| n.contains(".tmp"))
        .collect()
}

fn byte_format_matches_the_golden<K: Fixture>() {
    let bytes = K::encode(&K::sample());
    assert_eq!((bytes.len(), checksum_bytes(&bytes)), K::GOLDEN);
}

fn codec_and_tier_round_trip<K: Fixture>() {
    let sample = K::sample();
    let bytes = K::encode(&sample);
    let back = K::decode(&bytes).unwrap();
    assert_eq!(back, sample, "decode must invert encode exactly");
    assert_eq!(K::encode(&back), bytes, "encoding is a pure function");

    let dir = temp_store(&format!("{}-round-trip", K::PREFIX));
    let tier = DiskTier::new(&dir);
    let key = K::key(&sample, 0x1234);
    assert_eq!(tier.read::<K>(&key), Ok(None));
    tier.write::<K>(&key, &sample).unwrap();
    tier.write::<K>(&key, &sample).unwrap();
    assert_eq!(std::fs::read(tier.path::<K>(&key)).unwrap(), bytes);
    assert_eq!(tier.read::<K>(&key), Ok(Some(sample)));
    let stats = tier.kind_stats::<K>();
    assert_eq!((stats.hits, stats.misses, stats.writes), (1, 1, 1));
    let _ = std::fs::remove_dir_all(&dir);
}

fn every_bit_flip_is_rejected<K: Fixture>() {
    let bytes = K::encode(&K::sample());
    for byte in 0..bytes.len() {
        for bit in 0..8 {
            let mut damaged = bytes.clone();
            damaged[byte] ^= 1 << bit;
            assert!(
                K::decode(&damaged).is_err(),
                "bit flip at byte {byte} bit {bit} decoded silently"
            );
        }
    }
}

fn every_truncation_is_typed<K: Fixture>() {
    let bytes = K::encode(&K::sample());
    for len in 0..bytes.len() {
        let err = K::decode(&bytes[..len]).err();
        assert!(
            matches!(
                err,
                Some(CodecError::Truncated | CodecError::ChecksumMismatch)
            ),
            "prefix of {len} bytes: {err:?}"
        );
    }
    let mut padded = bytes.clone();
    padded.push(0);
    assert!(matches!(
        K::decode(&padded).err(),
        Some(CodecError::ChecksumMismatch | CodecError::TrailingBytes)
    ));
}

fn damage_is_quarantined_and_counted<K: Fixture>() {
    let dir = temp_store(&format!("{}-quarantine", K::PREFIX));
    let tier = DiskTier::new(&dir);
    let sample = K::sample();
    let key = K::key(&sample, 0x5678);
    tier.write::<K>(&key, &sample).unwrap();
    let path = tier.path::<K>(&key);
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&path, &bytes).unwrap();

    assert!(matches!(tier.read::<K>(&key), Err(ArtifactError::Codec(_))));
    assert!(!path.exists(), "the damaged file leaves its address");
    assert_eq!(
        artifacts_with_extension(&dir, "corrupt").len(),
        1,
        "the damaged file is kept aside as evidence"
    );
    assert_eq!(tier.read::<K>(&key), Ok(None), "then it is a plain miss");

    // The same tier republishes the address it had already written.
    tier.write::<K>(&key, &sample).unwrap();
    assert_eq!(tier.read::<K>(&key), Ok(Some(sample)));
    let stats = tier.kind_stats::<K>();
    assert_eq!(stats.corruptions, 1);
    assert_eq!((stats.hits, stats.misses, stats.writes), (1, 1, 2));
    assert_eq!(tier.stats().corruptions, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

fn failed_publish_is_counted_and_leaves_no_debris<K: Fixture>() {
    let dir = temp_store(&format!("{}-root-is-a-file", K::PREFIX));
    std::fs::create_dir_all(&dir).unwrap();
    let root = dir.join("not-a-directory");
    std::fs::write(&root, b"x").unwrap();
    let tier = DiskTier::new(&root);
    let sample = K::sample();
    let key = K::key(&sample, 0x9abc);
    assert!(matches!(tier.read::<K>(&key), Err(ArtifactError::Io(_))));
    assert!(matches!(
        tier.write::<K>(&key, &sample),
        Err(ArtifactError::Io(_))
    ));
    let stats = tier.kind_stats::<K>();
    assert_eq!((stats.writes, stats.io_errors), (0, 2));
    assert_eq!(tier.stats().io_errors, 2);
    assert!(temp_debris(&dir).is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

fn concurrent_writers_of_one_key_all_succeed<K: Fixture>() {
    const WRITERS: usize = 4;
    const ROUNDS: u64 = 8;
    let dir = temp_store(&format!("{}-two-writers", K::PREFIX));
    let barrier = Barrier::new(WRITERS);
    for round in 0..ROUNDS {
        std::thread::scope(|s| {
            let writers: Vec<_> = (0..WRITERS)
                .map(|_| {
                    s.spawn(|| {
                        let tier = DiskTier::new(&dir);
                        let sample = K::bulky();
                        barrier.wait();
                        tier.write::<K>(&K::key(&sample, round), &sample)
                    })
                })
                .collect();
            for w in writers {
                assert_eq!(w.join().unwrap(), Ok(()), "round {round}");
            }
        });
    }
    let tier = DiskTier::new(&dir);
    let sample = K::bulky();
    for round in 0..ROUNDS {
        let published = tier.read::<K>(&K::key(&sample, round));
        assert_eq!(published.ok().flatten().as_ref(), Some(&sample));
    }
    assert!(temp_debris(&dir).is_empty(), "{:?}", temp_debris(&dir));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A healthy artifact parked at another content address decodes fine
/// but fails the identity check. (Verdict files hold no copy of their
/// key, so the check applies to tapes and results only.)
fn mislabeled_artifact_fails_identity<K: Fixture>(alias: K::Key<'_>) {
    let dir = temp_store(&format!("{}-identity", K::PREFIX));
    let tier = DiskTier::new(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = tier.path::<K>(&alias);
    std::fs::write(&path, K::encode(&K::sample())).unwrap();
    assert_eq!(tier.read::<K>(&alias), Err(ArtifactError::Identity));
    assert!(!path.exists(), "mislabeled artifact is quarantined");
    assert_eq!(tier.kind_stats::<K>().corruptions, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn mislabeled_tape_fails_identity() {
    mislabeled_artifact_fails_identity::<TapeArtifact>(("compress", 1));
}

#[test]
fn mislabeled_result_fails_identity() {
    mislabeled_artifact_fails_identity::<ResultArtifact>(("golden", 10, 1));
}

/// Instantiates every generic check above once per artifact kind, as
/// `tape::<check>`, `result::<check>` and `verdict::<check>`.
macro_rules! per_kind {
    ($($check:ident),* $(,)?) => {
        mod tape {
            $(#[test] fn $check() { super::$check::<nbl_sim::store::TapeArtifact>() })*
        }
        mod result {
            $(#[test] fn $check() { super::$check::<nbl_sim::store::ResultArtifact>() })*
        }
        mod verdict {
            $(#[test] fn $check() { super::$check::<nbl_oracle::VerdictArtifact>() })*
        }
    };
}

per_kind!(
    byte_format_matches_the_golden,
    codec_and_tier_round_trip,
    every_bit_flip_is_rejected,
    every_truncation_is_typed,
    damage_is_quarantined_and_counted,
    failed_publish_is_counted_and_leaves_no_debris,
    concurrent_writers_of_one_key_all_succeed,
);

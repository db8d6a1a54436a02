//! The tiered artifact store: one abstraction over every cached
//! derivation of a workload (DESIGN.md §16).
//!
//! The memory tier is the existing pair of exactly-once caches —
//! [`CompileCache`](crate::compile_cache::CompileCache) for compiled
//! programs and [`TapeCache`](crate::tape_cache::TapeCache) for recorded
//! tapes — with unchanged semantics. This module adds the disk tier
//! ([`DiskTier`]): a directory (by convention `results/store/`) of
//! content-addressed artifacts that survive the process, so a fresh run
//! against a populated store skips straight past recording (tape
//! artifacts) or past simulation entirely (result artifacts, under
//! `--incremental`). The oracle's verdicts are a third kind of the same
//! tier.
//!
//! ## Content addressing
//!
//! Artifact filenames derive **only** from content fingerprints
//! ([`nbl_core::fingerprint`]) and format versions — never from clocks,
//! process ids or absolute paths — so two processes (or two machines
//! sharing the directory) agree byte-for-byte on where an artifact
//! lives:
//!
//! ```text
//! results/store/
//!   tape-v1-<workload>-l<latency>-<fp:016x>.nbt    recorded trace tape
//!   result-v1-<workload>-l<latency>-<fp:016x>.nbr  one RunResult
//!   oracle-v1-<key:016x>.nbo                       one oracle verdict
//!   <name>.corrupt                                 quarantined artifact
//! ```
//!
//! A tape's `<fp>` is the
//! [`fingerprint_of`](nbl_core::fingerprint::fingerprint_of) the
//! compiled program; a result's is the fingerprint of `(program-IR
//! fingerprint, SimConfig)`, so a result can be looked up *before*
//! compiling. Format versions are embedded in the name: a version bump
//! makes old files invisible instead of misread.
//!
//! ## One read, publish and quarantine path
//!
//! Each [`ArtifactKind`](crate::store::ArtifactKind) supplies naming, a
//! [`Frame`](nbl_core::frame::Frame)-based codec, an identity check and
//! its durability; the tier owns the rest. A file that fails to decode,
//! or describes another workload than its name claims, is counted,
//! quarantined as `<name>.corrupt` (the evidence survives, the path never
//! resolves again) and treated as a miss, so the caller re-derives it. A
//! publish renames a temp file named for its writer into place; a failed
//! one leaves nothing behind. Disk trouble therefore *degrades* the store
//! to the memory tier; it never fails a sweep and never perturbs results.

use crate::compile_cache::CompileCache;
use crate::config::SimConfig;
use crate::driver::RunResult;
use crate::tape_cache::TapeCache;
use nbl_core::fingerprint::fingerprint_of;
use nbl_core::frame::{CodecError, Frame};
use nbl_cpu::stats::ReplayAttribution;
use nbl_sched::compile::CompileError;
use nbl_trace::ir::Program;
use nbl_trace::machine::CompiledProgram;
use nbl_trace::tape::io::TAPE_FRAME;
use nbl_trace::tape::TraceTape;
use std::collections::{BTreeMap, BTreeSet};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Magic (`NBLR`) and format version of a serialized [`RunResult`].
/// Bump the version on any change to the result byte layout *or* to the
/// `RunResult` field set; it is embedded in filenames and result
/// fingerprints, so old artifacts are ignored, not misparsed.
pub const RESULT_FRAME: Frame = Frame {
    magic: *b"NBLR",
    version: 1,
};

/// Why a disk-tier operation failed. The store maps every variant to a
/// degraded-but-correct outcome (quarantine + miss, or skip the write),
/// so these surface in telemetry and tests rather than as run failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArtifactError {
    /// The filesystem refused a read, write or rename (permission,
    /// space, transient). The store counts it and falls back to the
    /// memory tier.
    Io(std::io::ErrorKind),
    /// The artifact's bytes fail decoding (bad magic, version skew,
    /// truncation, checksum mismatch, …). The file is quarantined.
    Codec(CodecError),
    /// The artifact decoded cleanly but describes a different
    /// `(workload, latency)` than its content address claims — a
    /// renamed or colliding file. Quarantined like corruption.
    Identity,
}

impl std::fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "artifact store error: {self:?}")
    }
}

impl std::error::Error for ArtifactError {}

/// One kind of artifact the [`DiskTier`] persists.
pub trait ArtifactKind {
    /// The decoded artifact.
    type Value;
    /// What a lookup names: the content address, and the identity a
    /// decoded value must match.
    type Key<'a>: Copy;
    /// Filename prefix; also names the kind's counters.
    const PREFIX: &'static str;
    /// Filename extension.
    const EXTENSION: &'static str;
    /// Magic and format version; the version is part of every filename.
    const FRAME: Frame;
    /// Whether a publish syncs the file (and its directory entry) to disk.
    const SYNC: bool;
    /// The key's part of the filename, between version and extension.
    fn address(key: &Self::Key<'_>) -> String;
    /// Serializes `value` on [`Self::FRAME`].
    fn encode(value: &Self::Value) -> Vec<u8>;
    /// Inverse of [`ArtifactKind::encode`]; [`CodecError`] on any damage.
    fn decode(bytes: &[u8]) -> Result<Self::Value, CodecError>;
    /// Whether a cleanly decoded `value` is what `key` addresses.
    fn describes(value: &Self::Value, key: &Self::Key<'_>) -> bool;
}

/// The address of a per-workload artifact: `(workload name, load
/// latency, content fingerprint)`. Name and latency are for human eyes
/// and the identity check, the fingerprint for correctness.
pub type CellKey<'a> = (&'a str, u32, u64);

/// `<name>-l<latency>-<fp:016x>`, the name kept portable: lowercase
/// alphanumerics, `_` and `-` pass through, everything else becomes `-`.
fn cell_address(&(name, latency, fingerprint): &CellKey<'_>) -> String {
    let name: String = name
        .chars()
        .map(|c| match c {
            'a'..='z' | '0'..='9' | '_' | '-' => c,
            'A'..='Z' => c.to_ascii_lowercase(),
            _ => '-',
        })
        .collect();
    format!("{name}-l{latency}-{fingerprint:016x}")
}

/// Recorded [`TraceTape`]s, keyed by the compiled program's fingerprint.
/// Unsynced: a cold sweep writes hundreds of MiB of tapes, and a torn
/// tape only costs a re-record.
pub struct TapeArtifact;

impl ArtifactKind for TapeArtifact {
    type Value = TraceTape;
    type Key<'a> = CellKey<'a>;
    const PREFIX: &'static str = "tape";
    const EXTENSION: &'static str = "nbt";
    const FRAME: Frame = TAPE_FRAME;
    const SYNC: bool = false;
    fn address(key: &CellKey<'_>) -> String {
        cell_address(key)
    }
    fn encode(tape: &TraceTape) -> Vec<u8> {
        tape.to_bytes()
    }
    fn decode(bytes: &[u8]) -> Result<TraceTape, CodecError> {
        TraceTape::from_bytes(bytes)
    }
    fn describes(tape: &TraceTape, &(name, latency, _): &CellKey<'_>) -> bool {
        tape.name() == name && tape.load_latency() == latency
    }
}

/// Simulated [`RunResult`]s, keyed by [`result_fingerprint`]. Unsynced,
/// like tapes.
pub struct ResultArtifact;

impl ArtifactKind for ResultArtifact {
    type Value = RunResult;
    type Key<'a> = CellKey<'a>;
    const PREFIX: &'static str = "result";
    const EXTENSION: &'static str = "nbr";
    const FRAME: Frame = RESULT_FRAME;
    const SYNC: bool = false;
    fn address(key: &CellKey<'_>) -> String {
        cell_address(key)
    }
    fn encode(result: &RunResult) -> Vec<u8> {
        encode_result(result)
    }
    fn decode(bytes: &[u8]) -> Result<RunResult, CodecError> {
        decode_result(bytes)
    }
    fn describes(result: &RunResult, &(name, latency, _): &CellKey<'_>) -> bool {
        result.benchmark == name && result.load_latency == latency
    }
}

/// Counters of one artifact kind in a [`DiskTier`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KindStats {
    /// Lookups answered from a decoded artifact.
    pub hits: u64,
    /// Lookups that found no artifact (the caller re-derives).
    pub misses: u64,
    /// Artifacts published.
    pub writes: u64,
    /// Artifacts that failed decoding or identity and were quarantined.
    pub corruptions: u64,
    /// Filesystem errors absorbed (reads and writes that gave up).
    pub io_errors: u64,
}

/// Counter snapshot from a [`DiskTier`]: how the disk tier served and
/// absorbed traffic. Surfaced in the throughput table and under
/// `"caches" → "store"` in the JSON exhibits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Tape lookups answered from a decoded artifact.
    pub tape_hits: u64,
    /// Tape lookups that found no artifact (the caller records).
    pub tape_misses: u64,
    /// Tape artifacts written through after a recording.
    pub tape_writes: u64,
    /// Result lookups answered from a decoded artifact.
    pub result_hits: u64,
    /// Result lookups that found no artifact (the caller simulates).
    pub result_misses: u64,
    /// Result artifacts written through after a simulation.
    pub result_writes: u64,
    /// Artifacts of any kind that failed decoding or identity.
    pub corruptions: u64,
    /// Filesystem errors absorbed (reads and writes that gave up).
    pub io_errors: u64,
}

/// Distinguishes the temp files of concurrent publishes in one process.
static NEXT_TMP: AtomicU64 = AtomicU64::new(0);

/// The on-disk tier: a directory of content-addressed, versioned,
/// checksummed artifacts of every [`ArtifactKind`], shared across
/// processes. All methods are `&self` and thread-safe.
#[derive(Debug)]
pub struct DiskTier {
    root: PathBuf,
    /// Paths this tier has already published (or found on disk):
    /// content addressing means an equal key carries equal bytes, so a
    /// repeated write is a no-op — this set answers it without the
    /// per-call `stat`. Benches that resimulate the same grid many times
    /// otherwise pay hundreds of filesystem probes per pass.
    published: Mutex<BTreeSet<PathBuf>>,
    /// Per-kind counters, by [`ArtifactKind::PREFIX`].
    counters: Mutex<BTreeMap<&'static str, KindStats>>,
}

impl DiskTier {
    /// A disk tier rooted at `root`. No filesystem access happens here;
    /// the directory is created on first write.
    pub fn new(root: impl Into<PathBuf>) -> DiskTier {
        DiskTier {
            root: root.into(),
            published: Mutex::new(BTreeSet::new()),
            counters: Mutex::new(BTreeMap::new()),
        }
    }

    /// The store directory this tier reads and writes.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn count<K: ArtifactKind>(&self, counter: fn(&mut KindStats) -> &mut u64) {
        if let Ok(mut counters) = self.counters.lock() {
            *counter(counters.entry(K::PREFIX).or_default()) += 1;
        }
    }

    /// Content address of the `K` artifact named by `key`.
    pub fn path<K: ArtifactKind>(&self, key: &K::Key<'_>) -> PathBuf {
        self.root.join(format!(
            "{}-v{}-{}.{}",
            K::PREFIX,
            K::FRAME.version,
            K::address(key),
            K::EXTENSION
        ))
    }

    /// Looks up the `K` artifact named by `key`.
    ///
    /// `Ok(None)` is a plain miss. A decodable artifact must also be
    /// what `key` describes; damage or disagreement quarantines the file
    /// and reports the typed cause.
    ///
    /// # Errors
    ///
    /// [`ArtifactError`] on filesystem trouble, damage, or identity
    /// mismatch — all of which the caller treats as "derive it again".
    pub fn read<K: ArtifactKind>(
        &self,
        key: &K::Key<'_>,
    ) -> Result<Option<K::Value>, ArtifactError> {
        let path = self.path::<K>(key);
        let bytes = match std::fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                self.count::<K>(|s| &mut s.misses);
                return Ok(None);
            }
            Err(e) => {
                self.count::<K>(|s| &mut s.io_errors);
                return Err(ArtifactError::Io(e.kind()));
            }
        };
        let err = match K::decode(&bytes) {
            Ok(value) if K::describes(&value, key) => {
                self.count::<K>(|s| &mut s.hits);
                return Ok(Some(value));
            }
            Ok(_) => ArtifactError::Identity,
            Err(e) => ArtifactError::Codec(e),
        };
        // Quarantine: move the damaged file aside as `<name>.corrupt`, so
        // the path never resolves again but the evidence survives.
        self.count::<K>(|s| &mut s.corruptions);
        if let Ok(mut published) = self.published.lock() {
            published.remove(&path);
        }
        let mut target = path.as_os_str().to_owned();
        target.push(".corrupt");
        if std::fs::rename(&path, &target).is_err() {
            // Removal is the fallback; if even that fails the next read
            // will just quarantine again.
            let _ = std::fs::remove_file(&path);
        }
        Err(err)
    }

    /// Writes `value` through to the content address `key`: a temp file
    /// unique to this writer, renamed into place, so readers never observe
    /// a partial artifact and concurrent writers never share a temp file.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Io`] if the filesystem refuses; the failure is
    /// counted, no temp file is left behind, and the store simply stays
    /// cold for this key.
    pub fn write<K: ArtifactKind>(
        &self,
        key: &K::Key<'_>,
        value: &K::Value,
    ) -> Result<(), ArtifactError> {
        let path = self.path::<K>(key);
        if self.published.lock().is_ok_and(|p| p.contains(&path)) {
            return Ok(());
        }
        // An artifact already at this path holds these exact bytes
        // (damage is quarantined away at read time), so the write would
        // be a byte-identical no-op — skip the disk traffic.
        if !path.exists() {
            let mut tmp = path.as_os_str().to_owned();
            let n = NEXT_TMP.fetch_add(1, Ordering::Relaxed);
            tmp.push(format!(".tmp-{}-{n}", std::process::id()));
            let tmp = PathBuf::from(tmp);
            let publish = || -> std::io::Result<()> {
                std::fs::create_dir_all(&self.root)?;
                let mut file = std::fs::File::create(&tmp)?;
                file.write_all(&K::encode(value))?;
                if K::SYNC {
                    file.sync_all()?;
                }
                std::fs::rename(&tmp, &path)?;
                if K::SYNC {
                    std::fs::File::open(&self.root)?.sync_all()?;
                }
                Ok(())
            };
            if let Err(e) = publish() {
                let _ = std::fs::remove_file(&tmp);
                self.count::<K>(|s| &mut s.io_errors);
                return Err(ArtifactError::Io(e.kind()));
            }
            self.count::<K>(|s| &mut s.writes);
        }
        if let Ok(mut published) = self.published.lock() {
            published.insert(path);
        }
        Ok(())
    }

    /// Content address of a tape artifact.
    pub fn tape_path(&self, name: &str, latency: u32, fingerprint: u64) -> PathBuf {
        self.path::<TapeArtifact>(&(name, latency, fingerprint))
    }

    /// Content address of a result artifact.
    pub fn result_path(&self, name: &str, latency: u32, fingerprint: u64) -> PathBuf {
        self.path::<ResultArtifact>(&(name, latency, fingerprint))
    }

    /// The stored tape recorded for `(name, latency, fingerprint)`, if a
    /// valid one exists: any failure of [`DiskTier::read`] is a miss.
    pub fn load_tape(&self, name: &str, latency: u32, fingerprint: u64) -> Option<TraceTape> {
        self.read::<TapeArtifact>(&(name, latency, fingerprint))
            .ok()
            .flatten()
    }

    /// Writes `tape` through to its content address, as [`DiskTier::write`].
    pub fn write_tape(&self, tape: &TraceTape, fingerprint: u64) -> Result<(), ArtifactError> {
        let key = (tape.name(), tape.load_latency(), fingerprint);
        self.write::<TapeArtifact>(&key, tape)
    }

    /// The stored [`RunResult`] for `(name, latency, fingerprint)` — the
    /// incremental-sweep fast path that answers a grid cell without
    /// compiling, recording or simulating.
    pub fn load_result(&self, name: &str, latency: u32, fingerprint: u64) -> Option<RunResult> {
        self.read::<ResultArtifact>(&(name, latency, fingerprint))
            .ok()
            .flatten()
    }

    /// Writes `result` through to its content address, as [`DiskTier::write`].
    pub fn write_result(&self, result: &RunResult, fingerprint: u64) -> Result<(), ArtifactError> {
        let key = (result.benchmark.as_str(), result.load_latency, fingerprint);
        self.write::<ResultArtifact>(&key, result)
    }

    fn snapshot(&self) -> BTreeMap<&'static str, KindStats> {
        self.counters.lock().map(|c| c.clone()).unwrap_or_default()
    }

    /// Current counters of one artifact kind.
    pub fn kind_stats<K: ArtifactKind>(&self) -> KindStats {
        self.snapshot().get(K::PREFIX).copied().unwrap_or_default()
    }

    /// Current hit/miss/write counters of tapes and results, with
    /// corruptions and io errors summed over every kind.
    pub fn stats(&self) -> StoreStats {
        let all = self.snapshot();
        let kind = |prefix| all.get(prefix).copied().unwrap_or_default();
        let (tape, result) = (kind(TapeArtifact::PREFIX), kind(ResultArtifact::PREFIX));
        StoreStats {
            tape_hits: tape.hits,
            tape_misses: tape.misses,
            tape_writes: tape.writes,
            result_hits: result.hits,
            result_misses: result.misses,
            result_writes: result.writes,
            corruptions: all.values().map(|s| s.corruptions).sum(),
            io_errors: all.values().map(|s| s.io_errors).sum(),
        }
    }
}

/// Stable fingerprint of a program's IR — half of a result artifact's
/// content address (the other half is the [`SimConfig`]).
pub fn program_fingerprint(program: &Program) -> u64 {
    fingerprint_of(program)
}

/// Stable fingerprint of a compiled program — a tape artifact's content
/// address.
pub fn compiled_fingerprint(compiled: &CompiledProgram) -> u64 {
    fingerprint_of(compiled)
}

/// Content address of one grid cell's [`RunResult`]: every input that
/// can change the result — the program's IR (which, with the config's
/// latency, determines the compiled form and the tape) and the complete
/// [`SimConfig`] — folded into one stable fingerprint.
pub fn result_fingerprint(program_fp: u64, cfg: &SimConfig) -> u64 {
    fingerprint_of(&(RESULT_FRAME.version, program_fp, cfg))
}

// ---------------------------------------------------------------------
// RunResult binary codec
// ---------------------------------------------------------------------

/// Serializes one [`RunResult`] on [`RESULT_FRAME`] (field order pinned
/// by its version). Floats serialize by bit pattern, so
/// decode → compare is exact equality with the simulated result.
pub fn encode_result(r: &RunResult) -> Vec<u8> {
    let mut w = RESULT_FRAME.writer(512);
    w.str(&r.benchmark);
    w.str(&r.config);
    w.str(&r.model);
    w.str(&r.replacement);
    w.u32(r.load_latency);
    w.u32(r.miss_penalty);
    w.u64(r.instructions);
    w.u64(r.loads);
    w.u64(r.stores);
    w.u64(r.cycles);
    w.f64(r.mcpi);
    w.u64(r.data_dep_stalls);
    w.u64(r.structural_stalls);
    w.u64(r.blocking_stalls);
    w.f64(r.structural_fraction);
    w.u64(r.structural_stall_misses);
    w.f64(r.load_miss_rate);
    w.f64(r.secondary_miss_rate);
    w.f64(r.inflight.frac_time_with_misses);
    for v in r
        .inflight
        .miss_dist
        .into_iter()
        .chain(r.inflight.fetch_dist)
    {
        w.f64(v);
    }
    w.u64(r.inflight.max_misses as u64);
    w.u64(r.inflight.max_fetches as u64);
    w.u64(r.static_spill_ops as u64);
    w.u64s(&r.replay.counts);
    w.u64s(&r.replay.stall_cycles);
    w.seal()
}

/// Decodes a [`RunResult`] artifact, verifying magic, version and the
/// trailing checksum.
///
/// # Errors
///
/// [`CodecError`] on any damage; the store quarantines and the sweep
/// re-simulates.
pub fn decode_result(bytes: &[u8]) -> Result<RunResult, CodecError> {
    let mut r = RESULT_FRAME.open(bytes)?;
    r.verify_checksum()?;
    let result = RunResult {
        benchmark: r.string()?,
        config: r.string()?,
        model: r.string()?,
        replacement: r.string()?,
        load_latency: r.u32()?,
        miss_penalty: r.u32()?,
        instructions: r.u64()?,
        loads: r.u64()?,
        stores: r.u64()?,
        cycles: r.u64()?,
        mcpi: r.f64()?,
        data_dep_stalls: r.u64()?,
        structural_stalls: r.u64()?,
        blocking_stalls: r.u64()?,
        structural_fraction: r.f64()?,
        structural_stall_misses: r.u64()?,
        load_miss_rate: r.f64()?,
        secondary_miss_rate: r.f64()?,
        inflight: crate::driver::InFlightSummary {
            frac_time_with_misses: r.f64()?,
            miss_dist: r.u64_array()?.map(f64::from_bits),
            fetch_dist: r.u64_array()?.map(f64::from_bits),
            max_misses: r.len_u64()?,
            max_fetches: r.len_u64()?,
        },
        static_spill_ops: r.len_u64()?,
        replay: ReplayAttribution {
            counts: r.u64_array()?,
            stall_cycles: r.u64_array()?,
        },
    };
    r.finish()?;
    Ok(result)
}

// ---------------------------------------------------------------------
// Store settings (process-wide configuration)
// ---------------------------------------------------------------------

/// How a process wires its [`ArtifactStore`]: where (and whether) the
/// disk tier lives, and whether sweeps run incrementally (answering
/// unchanged grid cells from stored results without simulating).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StoreSettings {
    /// Disk-tier directory; `None` keeps the store memory-only.
    pub dir: Option<PathBuf>,
    /// Incremental sweeps: serve grid cells from stored [`RunResult`]s
    /// when every input fingerprint is unchanged.
    pub incremental: bool,
}

impl StoreSettings {
    /// Settings from the environment: `NBL_STORE_DIR` names the disk
    /// tier, `NBL_INCREMENTAL=1` turns on incremental sweeps.
    pub fn from_env() -> StoreSettings {
        StoreSettings {
            dir: std::env::var_os("NBL_STORE_DIR")
                .filter(|v| !v.is_empty())
                .map(PathBuf::from),
            incremental: std::env::var("NBL_INCREMENTAL").is_ok_and(|v| v.trim() == "1"),
        }
    }
}

static SETTINGS: OnceLock<StoreSettings> = OnceLock::new();

/// Pins the process-wide store settings (the CLI calls this once from
/// `--store`/`--incremental` before any sweep). Returns `false` if the
/// settings were already pinned (first caller wins — same discipline as
/// the bench options).
pub fn configure_store(settings: StoreSettings) -> bool {
    SETTINGS.set(settings).is_ok()
}

/// The process-wide store settings: whatever [`configure_store`] pinned,
/// else [`StoreSettings::from_env`].
pub fn store_settings() -> StoreSettings {
    SETTINGS
        .get()
        .cloned()
        .unwrap_or_else(StoreSettings::from_env)
}

// ---------------------------------------------------------------------
// The tiered store facade
// ---------------------------------------------------------------------

/// The tiered artifact store the sweep engine runs on: the two
/// exactly-once memory caches, optionally backed by a shared
/// [`DiskTier`], plus the incremental-mode switch.
///
/// Tier order on a tape request: memory (`OnceLock` slot) → disk
/// (decode + verify) → record. Recordings write through to disk; the
/// memory tier's semantics (sharing, byte budget, eviction) are
/// unchanged from the pre-store caches.
#[derive(Debug)]
pub struct ArtifactStore {
    compile: CompileCache,
    tapes: TapeCache,
    disk: Option<Arc<DiskTier>>,
    incremental: bool,
}

impl Default for ArtifactStore {
    fn default() -> Self {
        ArtifactStore::in_memory()
    }
}

impl ArtifactStore {
    /// A memory-only store: exactly the pre-disk cache behavior.
    pub fn in_memory() -> ArtifactStore {
        ArtifactStore {
            compile: CompileCache::new(),
            tapes: TapeCache::new(),
            disk: None,
            incremental: false,
        }
    }

    /// A store with a disk tier rooted at `dir`.
    pub fn with_disk(dir: impl Into<PathBuf>, incremental: bool) -> ArtifactStore {
        let disk = Arc::new(DiskTier::new(dir));
        ArtifactStore {
            compile: CompileCache::new(),
            tapes: TapeCache::with_disk(Arc::clone(&disk)),
            disk: Some(disk),
            incremental,
        }
    }

    /// A store wired from [`store_settings`] (CLI flags or environment).
    pub fn from_settings() -> ArtifactStore {
        let settings = store_settings();
        match settings.dir {
            Some(dir) => ArtifactStore::with_disk(dir, settings.incremental),
            None => ArtifactStore::in_memory(),
        }
    }

    /// The memory-tier compile cache.
    pub fn compile_cache(&self) -> &CompileCache {
        &self.compile
    }

    /// The memory-tier tape cache (disk-backed when the store has a
    /// disk tier).
    pub fn tape_cache(&self) -> &TapeCache {
        &self.tapes
    }

    /// The disk tier, if this store has one.
    pub fn disk(&self) -> Option<&Arc<DiskTier>> {
        self.disk.as_ref()
    }

    /// `true` when sweeps should answer unchanged grid cells from
    /// stored results without simulating.
    pub fn incremental(&self) -> bool {
        self.incremental && self.disk.is_some()
    }

    /// Compiles through the memory tier (exactly-once per key).
    ///
    /// # Errors
    ///
    /// Propagates [`CompileError`] like
    /// [`CompileCache::get_or_compile`].
    pub fn get_or_compile(
        &self,
        program: &Program,
        latency: u32,
    ) -> Result<Arc<CompiledProgram>, CompileError> {
        self.compile.get_or_compile(program, latency)
    }

    /// Fetches the tape for `compiled` through all tiers (memory →
    /// disk → record), writing any fresh recording through to disk.
    pub fn get_or_record(&self, compiled: &CompiledProgram) -> Arc<TraceTape> {
        self.tapes.get_or_record(compiled)
    }

    /// The stored result for one grid cell, if the disk tier holds one
    /// under the exact input fingerprint (incremental mode's fast path).
    pub fn load_result(&self, name: &str, latency: u32, fingerprint: u64) -> Option<RunResult> {
        self.disk
            .as_ref()
            .and_then(|d| d.load_result(name, latency, fingerprint))
    }

    /// Writes one grid cell's result through to the disk tier (no-op
    /// for a memory-only store).
    pub fn store_result(&self, result: &RunResult, fingerprint: u64) {
        if let Some(d) = &self.disk {
            let _ = d.write_result(result, fingerprint);
        }
    }

    /// Disk-tier counters (zeroes for a memory-only store).
    pub fn disk_stats(&self) -> StoreStats {
        self.disk.as_ref().map(|d| d.stats()).unwrap_or_default()
    }
}

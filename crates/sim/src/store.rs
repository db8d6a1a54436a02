//! The tiered artifact store: one abstraction over every cached
//! derivation of a workload (DESIGN.md §16).
//!
//! Two tiers stand behind every lookup. The memory tier keeps one
//! exactly-once slot per compiled program, keyed `(name, latency, IR
//! fingerprint)`, and one per recorded tape, keyed `(name, schedule
//! fingerprint)`: each exists once per process and is shared by `Arc`.
//! Every scheduled latency whose compile lands on an already recorded
//! schedule is served that schedule's tape. The disk tier ([`DiskTier`])
//! is a directory (by convention `results/store/`) of content-addressed
//! artifacts that survive the process, so a fresh run against a populated
//! store skips straight past recording (tape artifacts) or past
//! simulation entirely (result artifacts, under `--incremental`). The
//! oracle's verdicts are a third kind of the same disk tier.
//! [`ArtifactStore`] is the one place that composes the tiers.
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
//!   tape-v3-<workload>-<fp:016x>.nbt               recorded trace tape
//!   result-v1-<workload>-l<latency>-<fp:016x>.nbr  one RunResult
//!   oracle-v1-<key:016x>.nbo                       one oracle verdict
//!   <name>.corrupt                                 quarantined artifact
//! ```
//!
//! A tape's `<fp>` is its schedule's
//! [`compiled_fingerprint`](crate::store::compiled_fingerprint): the
//! compiled program without its load latency, so every latency that
//! compiles to one schedule names one file. A result's is the
//! fingerprint of `(program-IR fingerprint, SimConfig)`, so a result can
//! be looked up *before* compiling. Format versions are embedded in the
//! name: a version bump makes old files invisible instead of misread (a
//! `tape-v2-` file, keyed by latency before tapes were shared across
//! schedules, is never opened, and stays where it is).
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

use crate::config::SimConfig;
use crate::driver::RunResult;
use nbl_core::fingerprint::fingerprint_of;
use nbl_core::frame::{CodecError, Frame};
use nbl_core::hash::FastMap;
use nbl_cpu::stats::ReplayAttribution;
use nbl_sched::compile::{compile, CompileError};
use nbl_trace::ir::Program;
use nbl_trace::machine::CompiledProgram;
use nbl_trace::tape::io::TAPE_FRAME;
use nbl_trace::tape::TraceTape;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

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
    /// The artifact decoded cleanly but describes a different workload
    /// (or, for a result, latency) than its content address claims — a
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

/// The address of a per-cell artifact: `(workload name, load latency,
/// content fingerprint)`. Name and latency are for human eyes and the
/// identity check, the fingerprint for correctness.
pub type CellKey<'a> = (&'a str, u32, u64);

/// The address of a tape: `(workload name, schedule fingerprint)`. A
/// tape belongs to a compiled schedule, not to one latency.
pub type TapeKey<'a> = (&'a str, u64);

/// `name`, kept portable: lowercase alphanumerics, `_` and `-` pass
/// through, everything else becomes `-`.
fn portable(name: &str) -> String {
    name.chars()
        .map(|c| match c {
            'a'..='z' | '0'..='9' | '_' | '-' => c,
            'A'..='Z' => c.to_ascii_lowercase(),
            _ => '-',
        })
        .collect()
}

/// Recorded [`TraceTape`]s, keyed by [`compiled_fingerprint`], at
/// `<name>-<fp:016x>`. Unsynced: a cold sweep writes hundreds of MiB of
/// tapes, and a torn tape only costs a re-record.
pub struct TapeArtifact;

impl ArtifactKind for TapeArtifact {
    type Value = TraceTape;
    type Key<'a> = TapeKey<'a>;
    const PREFIX: &'static str = "tape";
    const EXTENSION: &'static str = "nbt";
    const FRAME: Frame = TAPE_FRAME;
    const SYNC: bool = false;
    fn address(&(name, fingerprint): &TapeKey<'_>) -> String {
        format!("{}-{fingerprint:016x}", portable(name))
    }
    fn encode(tape: &TraceTape) -> Vec<u8> {
        tape.to_bytes()
    }
    fn decode(bytes: &[u8]) -> Result<TraceTape, CodecError> {
        TraceTape::from_bytes(bytes)
    }
    fn describes(tape: &TraceTape, &(name, _): &TapeKey<'_>) -> bool {
        tape.name() == name
    }
}

/// Simulated [`RunResult`]s, keyed by [`result_fingerprint`], at
/// `<name>-l<latency>-<fp:016x>`. Unsynced, like tapes.
pub struct ResultArtifact;

impl ArtifactKind for ResultArtifact {
    type Value = RunResult;
    type Key<'a> = CellKey<'a>;
    const PREFIX: &'static str = "result";
    const EXTENSION: &'static str = "nbr";
    const FRAME: Frame = RESULT_FRAME;
    const SYNC: bool = false;
    fn address(&(name, latency, fingerprint): &CellKey<'_>) -> String {
        format!("{}-l{latency}-{fingerprint:016x}", portable(name))
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

    /// Content address of the tape of schedule `fingerprint`. `_latency`
    /// is unused: a tape is addressed by its schedule alone. The argument
    /// stays until the per-kind forwarders are deleted in favour of the
    /// generic [`DiskTier::path`] and [`DiskTier::read`].
    pub fn tape_path(&self, name: &str, _latency: u32, fingerprint: u64) -> PathBuf {
        self.path::<TapeArtifact>(&(name, fingerprint))
    }

    /// Content address of a result artifact.
    pub fn result_path(&self, name: &str, latency: u32, fingerprint: u64) -> PathBuf {
        self.path::<ResultArtifact>(&(name, latency, fingerprint))
    }

    /// The stored tape of `name`'s schedule `fingerprint`, if a valid one
    /// exists: any failure of [`DiskTier::read`] is a miss. `_latency` is
    /// unused, as in [`DiskTier::tape_path`].
    pub fn load_tape(&self, name: &str, _latency: u32, fingerprint: u64) -> Option<TraceTape> {
        self.read::<TapeArtifact>(&(name, fingerprint))
            .ok()
            .flatten()
    }

    /// Writes `tape` through to its content address, as [`DiskTier::write`].
    pub fn write_tape(&self, tape: &TraceTape, fingerprint: u64) -> Result<(), ArtifactError> {
        self.write::<TapeArtifact>(&(tape.name(), fingerprint), tape)
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

/// Stable fingerprint of a compiled program's schedule — a tape's
/// identity, in memory and on disk, and half of an oracle verdict's key.
/// It covers every field that shapes the recorded stream (`name`,
/// `patterns`, `blocks`, `script`) and leaves out `load_latency`, so the
/// latencies that compile to one schedule share one fingerprint.
pub fn compiled_fingerprint(compiled: &CompiledProgram) -> u64 {
    let CompiledProgram {
        name,
        load_latency: _,
        patterns,
        blocks,
        script,
    } = compiled;
    fingerprint_of(&(name, patterns, blocks, script))
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

static SETTINGS: OnceLock<StoreSettings> = OnceLock::new();

/// Pins the process-wide store settings (the CLI calls this once from
/// `--store`/`--incremental` before any sweep). Returns `false` if the
/// settings were already pinned (first caller wins — same discipline as
/// the bench options).
pub fn configure_store(settings: StoreSettings) -> bool {
    SETTINGS.set(settings).is_ok()
}

/// The process-wide store settings: whatever [`configure_store`] pinned,
/// else the default (memory-only, not incremental).
pub fn store_settings() -> StoreSettings {
    SETTINGS.get().cloned().unwrap_or_default()
}

// ---------------------------------------------------------------------
// The memory tier
// ---------------------------------------------------------------------

/// Byte budget of the tape memory tier: comfortably holds every tape of
/// a full `figures all` run (66 schedules, ~211 MiB) while bounding
/// degenerate workloads.
const TAPE_BUDGET_BYTES: usize = 2048 * 1024 * 1024;

/// What files a compiled program's memory-tier slot: `(name, latency,
/// program IR fingerprint)`.
type CompiledSlotKey = (String, u32, u64);

/// What files a tape's memory-tier slot: the owned [`TapeKey`].
type TapeSlotKey = (String, u64);

/// Counter snapshot of one memory tier of an [`ArtifactStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TierStats {
    /// Requests served from an already filled slot.
    pub hits: u64,
    /// Requests that derived the artifact: ran the compiler, or ran the
    /// executor to record a tape. A tape decoded from the disk tier
    /// fills its slot without counting here.
    pub derived: u64,
    /// Artifacts dropped to stay inside the byte budget.
    pub evictions: u64,
    /// Bytes held by resident artifacts.
    pub resident_bytes: usize,
}

/// What the memory tier needs of a value it holds.
trait Resident: Clone {
    /// Bytes the value counts against the tier's budget.
    fn footprint(&self) -> usize;
    /// Whether the tier holds the only reference, so dropping the slot
    /// frees the value.
    fn idle(&self) -> bool;
}

impl Resident for Arc<TraceTape> {
    fn footprint(&self) -> usize {
        self.bytes()
    }
    fn idle(&self) -> bool {
        Arc::strong_count(self) == 1
    }
}

/// Compile outcomes, failures included, cost no budget and stay
/// resident for the life of the store.
impl Resident for Result<Arc<CompiledProgram>, CompileError> {
    fn footprint(&self) -> usize {
        0
    }
    fn idle(&self) -> bool {
        false
    }
}

/// How a memory-tier slot was filled.
enum Fill {
    /// Compiled or recorded here: counts as [`TierStats::derived`].
    Derived,
    /// Decoded from the disk tier.
    Loaded,
}

#[derive(Debug)]
struct TierState<K, V> {
    slots: FastMap<K, Arc<OnceLock<V>>>,
    /// Fill order, for FIFO eviction over the budget.
    order: VecDeque<K>,
    /// Footprint of the filled resident values.
    bytes: usize,
}

/// One exactly-once memory tier: a `OnceLock` slot per key, so
/// concurrent first requests for a key block on its single fill, plus
/// counters and an optional byte budget.
///
/// Over budget, the oldest idle values are dropped FIFO until the total
/// fits. A value still referenced outside the tier (a tape under replay)
/// is never evicted, and an evicted key is simply filled again on its
/// next request.
#[derive(Debug)]
struct MemoryTier<K, V> {
    state: Mutex<TierState<K, V>>,
    /// Byte budget; `None` never evicts.
    budget: Option<usize>,
    hits: AtomicU64,
    derived: AtomicU64,
    evictions: AtomicU64,
}

impl<K: Clone + Eq + std::hash::Hash, V: Resident> MemoryTier<K, V> {
    fn new(budget: Option<usize>) -> Self {
        MemoryTier {
            state: Mutex::new(TierState {
                slots: FastMap::default(),
                order: VecDeque::new(),
                bytes: 0,
            }),
            budget,
            hits: AtomicU64::new(0),
            derived: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Every critical section leaves the state consistent, so a lock
    /// poisoned by a panicking caller is still safe to use.
    fn lock(&self) -> MutexGuard<'_, TierState<K, V>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The value filed under `key`: the resident one (a hit), else what
    /// `fill` produces, which runs once per key even when first requests
    /// race.
    fn get_or_fill(&self, key: K, fill: impl FnOnce(&K) -> (V, Fill)) -> V {
        let slot = Arc::clone(self.lock().slots.entry(key.clone()).or_default());
        let mut filled_here = false;
        let value = slot
            .get_or_init(|| {
                filled_here = true;
                let (value, how) = fill(&key);
                if let Fill::Derived = how {
                    self.derived.fetch_add(1, Ordering::Relaxed);
                }
                value
            })
            .clone();
        if filled_here {
            let mut st = self.lock();
            st.bytes += value.footprint();
            st.order.push_back(key);
            self.evict_to_budget(&mut st);
        } else {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        value
    }

    /// Drops the oldest idle values until the resident total fits the
    /// budget. Slots still filling and values still referenced are
    /// skipped. One bounded pass: if everything old is busy, the tier
    /// stays over budget for now rather than block.
    fn evict_to_budget(&self, st: &mut TierState<K, V>) {
        let Some(budget) = self.budget else {
            return;
        };
        let mut scan = st.order.len();
        while st.bytes > budget && scan > 0 {
            scan -= 1;
            let Some(key) = st.order.pop_front() else {
                break;
            };
            let freed = st
                .slots
                .get(&key)
                .and_then(|slot| slot.get())
                .filter(|value| value.idle())
                .map(Resident::footprint);
            match freed {
                Some(bytes) => {
                    st.slots.remove(&key);
                    st.bytes = st.bytes.saturating_sub(bytes);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
                None => st.order.push_back(key),
            }
        }
    }

    /// `f` of the first resident value whose key `matches`. Never fills
    /// a slot and moves no counter.
    fn peek<R>(&self, matches: impl Fn(&K) -> bool, f: impl FnOnce(&V) -> R) -> Option<R> {
        let st = self.lock();
        st.slots
            .iter()
            .find_map(|(key, slot)| matches(key).then(|| slot.get()).flatten())
            .map(f)
    }

    fn stats(&self) -> TierStats {
        TierStats {
            hits: self.hits.load(Ordering::Relaxed),
            derived: self.derived.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            resident_bytes: self.lock().bytes,
        }
    }

    /// Number of keys resident.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.lock().slots.len()
    }
}

// ---------------------------------------------------------------------
// The tiered store
// ---------------------------------------------------------------------

/// The tiered artifact store the sweep engine runs on: the memory tier,
/// optionally backed by a shared [`DiskTier`], plus the incremental-mode
/// switch.
///
/// A compiled program comes from memory, else the compiler. A tape comes
/// from memory, else the disk tier (decode + verify), else a recording,
/// which writes through to disk.
#[derive(Debug)]
pub struct ArtifactStore {
    compiled: MemoryTier<CompiledSlotKey, Result<Arc<CompiledProgram>, CompileError>>,
    tapes: MemoryTier<TapeSlotKey, Arc<TraceTape>>,
    disk: Option<DiskTier>,
    incremental: bool,
}

impl Default for ArtifactStore {
    fn default() -> Self {
        ArtifactStore::in_memory()
    }
}

impl ArtifactStore {
    fn new(disk: Option<DiskTier>, incremental: bool, tape_budget: usize) -> ArtifactStore {
        ArtifactStore {
            compiled: MemoryTier::new(None),
            tapes: MemoryTier::new(Some(tape_budget)),
            disk,
            incremental,
        }
    }

    /// A memory-only store.
    pub fn in_memory() -> ArtifactStore {
        ArtifactStore::new(None, false, TAPE_BUDGET_BYTES)
    }

    /// A memory-only store whose tape tier holds at most `bytes` of idle
    /// tapes.
    #[cfg(test)]
    pub(crate) fn with_tape_budget(bytes: usize) -> ArtifactStore {
        ArtifactStore::new(None, false, bytes)
    }

    /// A store with a disk tier rooted at `dir`.
    pub fn with_disk(dir: impl Into<PathBuf>, incremental: bool) -> ArtifactStore {
        ArtifactStore::new(Some(DiskTier::new(dir)), incremental, TAPE_BUDGET_BYTES)
    }

    /// A store wired from [`store_settings`] (CLI flags or environment).
    pub fn from_settings() -> ArtifactStore {
        let settings = store_settings();
        match settings.dir {
            Some(dir) => ArtifactStore::with_disk(dir, settings.incremental),
            None => ArtifactStore::in_memory(),
        }
    }

    /// The disk tier, if this store has one.
    pub fn disk(&self) -> Option<&DiskTier> {
        self.disk.as_ref()
    }

    /// `true` when sweeps should answer unchanged grid cells from
    /// stored results without simulating.
    pub fn incremental(&self) -> bool {
        self.incremental && self.disk.is_some()
    }

    /// Compiles through the memory tier: once per `(name, latency,
    /// program fingerprint)`, shared by `Arc` thereafter. The IR
    /// fingerprint keeps quick- and full-scale builds of one benchmark
    /// apart.
    ///
    /// # Errors
    ///
    /// [`CompileError`] from the compiler model. A failed compile is
    /// cached too, so a bad pair fails fast on every later request.
    pub fn get_or_compile(
        &self,
        program: &Program,
        latency: u32,
    ) -> Result<Arc<CompiledProgram>, CompileError> {
        let key = (program.name.clone(), latency, program_fingerprint(program));
        self.compiled.get_or_fill(key, |_| {
            (compile(program, latency).map(Arc::new), Fill::Derived)
        })
    }

    /// Fetches the tape of `compiled`'s schedule through all tiers
    /// (memory → disk → record), writing any fresh recording through to
    /// disk. The slot is keyed by `(name, `[`compiled_fingerprint`]`)`,
    /// so every latency that compiles to one schedule gets the same
    /// `Arc`, recorded once. Disk damage of any kind is absorbed
    /// (quarantine + re-record), so the call is infallible.
    pub fn get_or_record(&self, compiled: &CompiledProgram) -> Arc<TraceTape> {
        let key = (compiled.name.clone(), compiled_fingerprint(compiled));
        self.tapes.get_or_fill(key, |(name, fingerprint)| {
            let key = (name.as_str(), *fingerprint);
            if let Some(disk) = &self.disk {
                if let Ok(Some(tape)) = disk.read::<TapeArtifact>(&key) {
                    return (Arc::new(tape), Fill::Loaded);
                }
            }
            let tape = TraceTape::record(compiled);
            if let Some(disk) = &self.disk {
                let _ = disk.write::<TapeArtifact>(&key, &tape);
            }
            (Arc::new(tape), Fill::Derived)
        })
    }

    /// Barrier count of the resident tape that `(name, latency)` replays,
    /// any program fingerprint: a scheduling hint, not a correctness
    /// input. The pair's resident compile names the schedule, and the
    /// schedule names the tape. Answers from memory only and moves no
    /// counter, so schedulers can weigh work without perturbing store
    /// telemetry.
    pub(crate) fn resident_barriers(&self, name: &str, latency: u32) -> Option<u64> {
        let compiled = self
            .compiled
            .peek(|(n, l, _)| n == name && *l == latency, Clone::clone)?
            .ok()?;
        let schedule = compiled_fingerprint(&compiled);
        self.tapes.peek(
            |(n, fp)| n == name && *fp == schedule,
            |tape| tape.barriers().len() as u64,
        )
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

    /// Memory-tier counters: compiled programs, then tapes.
    pub fn memory_stats(&self) -> (TierStats, TierStats) {
        (self.compiled.stats(), self.tapes.stats())
    }

    /// Disk-tier counters (zeroes for a memory-only store).
    pub fn disk_stats(&self) -> StoreStats {
        self.disk.as_ref().map(|d| d.stats()).unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::JobPool;
    use nbl_core::types::{RegClass, REGS_PER_CLASS};
    use nbl_trace::builder::ProgramBuilder;
    use nbl_trace::ir::ScriptNode;
    use nbl_trace::workloads::{build, Scale};

    fn compiled(
        store: &ArtifactStore,
        name: &str,
        latency: u32,
        scale: Scale,
    ) -> Arc<CompiledProgram> {
        store
            .get_or_compile(&build(name, scale).unwrap(), latency)
            .unwrap()
    }

    #[test]
    fn compiles_each_pair_exactly_once() {
        let store = ArtifactStore::in_memory();
        let p = build("doduc", Scale::quick()).unwrap();
        let a = store.get_or_compile(&p, 10).unwrap();
        let b = store.get_or_compile(&p, 10).unwrap();
        let c = store.get_or_compile(&p, 6).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "same pair must share one compilation");
        assert!(
            !Arc::ptr_eq(&a, &c),
            "different latency is a different pair"
        );
        assert_eq!(
            store.memory_stats().0,
            TierStats {
                hits: 1,
                derived: 2,
                evictions: 0,
                resident_bytes: 0,
            }
        );
        assert_eq!(store.compiled.len(), 2);
    }

    #[test]
    fn compiled_scale_variants_of_one_benchmark_do_not_alias() {
        let store = ArtifactStore::in_memory();
        let quick = build("eqntott", Scale::quick()).unwrap();
        let full = build("eqntott", Scale::full()).unwrap();
        let a = store.get_or_compile(&quick, 10).unwrap();
        let b = store.get_or_compile(&full, 10).unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(store.memory_stats().0.derived, 2);
    }

    #[test]
    fn concurrent_first_access_still_compiles_once() {
        // 16 workers race for 4 distinct (benchmark, latency) pairs; the
        // OnceLock slots must serialize each pair to a single compile.
        let store = ArtifactStore::in_memory();
        let doduc = build("doduc", Scale::quick()).unwrap();
        let eqntott = build("eqntott", Scale::quick()).unwrap();
        let programs = [&doduc, &eqntott];
        let latencies = [6u32, 10];
        let pool = JobPool::new(8);
        let out = pool.run(16, |i| {
            let p = programs[i % 2];
            let lat = latencies[(i / 2) % 2];
            store.get_or_compile(p, lat).unwrap().load_latency
        });
        assert_eq!(out.len(), 16);
        let s = store.memory_stats().0;
        assert_eq!(s.derived, 4, "one compile per distinct pair");
        assert_eq!(s.hits + s.derived, 16);
    }

    #[test]
    fn a_failed_compile_is_cached_and_never_retried() {
        // One more loop-carried integer register than the compiler
        // reserves for carried state.
        let mut pb = ProgramBuilder::new("overcarried");
        let mut b = pb.block();
        for _ in 0..=REGS_PER_CLASS / 2 {
            let r = b.carried(RegClass::Int);
            b.alu_into(r, Some(r), None);
        }
        let body = b.finish();
        pb.run(body, 4);
        let program = pb.build();

        let store = ArtifactStore::in_memory();
        let first = store.get_or_compile(&program, 6).unwrap_err();
        assert_eq!(first, CompileError::TooManyCarried(RegClass::Int));
        let second = store.get_or_compile(&program, 6).unwrap_err();
        assert_eq!(second, first, "the cached failure is returned again");
        let s = store.memory_stats().0;
        assert_eq!(s.derived, 1, "the failing pair compiles once");
        assert_eq!(s.hits, 1);
        assert_eq!(store.compiled.len(), 1);
    }

    #[test]
    fn records_each_pair_exactly_once() {
        let store = ArtifactStore::in_memory();
        let c = compiled(&store, "doduc", 10, Scale::quick());
        assert_eq!(store.resident_barriers("doduc", 10), None);
        let a = store.get_or_record(&c);
        let b = store.get_or_record(&c);
        let c6 = compiled(&store, "doduc", 6, Scale::quick());
        let d = store.get_or_record(&c6);
        assert!(Arc::ptr_eq(&a, &b), "same pair must share one recording");
        assert!(
            !Arc::ptr_eq(&a, &d),
            "different latency is a different pair"
        );
        let s = store.memory_stats().1;
        assert_eq!((s.hits, s.derived, s.evictions), (1, 2, 0));
        assert_eq!(s.resident_bytes, a.bytes() + d.bytes());
        assert_eq!(store.tapes.len(), 2);
        // The scheduling peek answers from memory and moves no counter.
        assert_eq!(
            store.resident_barriers("doduc", 10),
            Some(a.barriers().len() as u64)
        );
        assert_eq!(store.memory_stats().1, s);
    }

    #[test]
    fn tape_scale_variants_of_one_benchmark_do_not_alias() {
        let store = ArtifactStore::in_memory();
        let quick = compiled(&store, "eqntott", 10, Scale::quick());
        let full = compiled(&store, "eqntott", 10, Scale::full());
        let a = store.get_or_record(&quick);
        let b = store.get_or_record(&full);
        assert!(!Arc::ptr_eq(&a, &b));
        assert_ne!(a.len(), b.len());
        assert_eq!(store.memory_stats().1.derived, 2);
    }

    #[test]
    fn concurrent_first_access_still_records_once() {
        // 16 workers race for 4 (benchmark, latency) pairs with 3
        // schedules (eqntott compiles to one schedule at 6 and 10); the
        // OnceLock slots must serialize each schedule to a single
        // recording.
        let store = ArtifactStore::in_memory();
        let programs = [
            compiled(&store, "doduc", 6, Scale::quick()),
            compiled(&store, "doduc", 10, Scale::quick()),
            compiled(&store, "eqntott", 6, Scale::quick()),
            compiled(&store, "eqntott", 10, Scale::quick()),
        ];
        let pool = JobPool::new(8);
        let tapes = pool.run(16, |i| store.get_or_record(&programs[i % 4]));
        assert_eq!(tapes.len(), 16);
        assert!(Arc::ptr_eq(&tapes[2], &tapes[3]), "eqntott 6 and 10 share");
        let s = store.memory_stats().1;
        assert_eq!(s.derived, 3, "one recording per distinct schedule");
        assert_eq!(s.hits + s.derived, 16);
        assert_eq!(store.tapes.len(), 3);
    }

    #[test]
    fn latencies_sharing_a_schedule_share_one_tape() {
        let store = ArtifactStore::in_memory();
        let at6 = compiled(&store, "eqntott", 6, Scale::quick());
        let at10 = compiled(&store, "eqntott", 10, Scale::quick());
        let at3 = compiled(&store, "eqntott", 3, Scale::quick());
        assert_eq!(compiled_fingerprint(&at6), compiled_fingerprint(&at10));
        assert_ne!(compiled_fingerprint(&at6), compiled_fingerprint(&at3));
        let a = store.get_or_record(&at6);
        // Latency 10 was never recorded, yet its compile names the
        // resident schedule: the scheduling peek already sees its tape.
        assert_eq!(
            store.resident_barriers("eqntott", 10),
            Some(a.barriers().len() as u64)
        );
        assert_eq!(store.resident_barriers("eqntott", 3), None);
        assert_eq!(store.resident_barriers("eqntott", 20), None, "not compiled");
        let b = store.get_or_record(&at10);
        assert!(Arc::ptr_eq(&a, &b), "one schedule, one tape");
        let c = store.get_or_record(&at3);
        assert!(!Arc::ptr_eq(&a, &c));
        let s = store.memory_stats().1;
        assert_eq!((s.hits, s.derived), (1, 2));
        assert_eq!(s.resident_bytes, a.bytes() + c.bytes());
        assert_eq!(store.tapes.len(), 2);
        assert_eq!(store.memory_stats().0.derived, 3, "every pair compiles");
    }

    #[test]
    fn compiled_fingerprint_names_the_schedule_not_the_latency() {
        let store = ArtifactStore::in_memory();
        let base = (*compiled(&store, "tomcatv", 6, Scale::quick())).clone();
        let fp = compiled_fingerprint(&base);
        let variant = |edit: fn(&mut CompiledProgram)| {
            let mut c = base.clone();
            edit(&mut c);
            compiled_fingerprint(&c)
        };
        assert_eq!(variant(|c| c.load_latency = 10), fp, "latency alone");
        assert_ne!(variant(|c| c.name.push('x')), fp, "name");
        assert_ne!(variant(|c| c.patterns.push(c.patterns[0])), fp, "patterns");
        assert_ne!(variant(|c| c.blocks[0].ops.reverse()), fp, "blocks");
        assert_ne!(
            variant(|c| match &mut c.script[0] {
                ScriptNode::Run { times, .. } => *times += 1,
                ScriptNode::Loop { trips, .. } => *trips += 1,
            }),
            fp,
            "script"
        );
    }

    #[test]
    fn over_budget_idle_tapes_are_evicted_fifo() {
        let scratch = ArtifactStore::in_memory();
        // Two latencies with distinct schedules, so two distinct tapes.
        let c1 = compiled(&scratch, "eqntott", 10, Scale::quick());
        let c2 = compiled(&scratch, "eqntott", 3, Scale::quick());
        let t1 = TraceTape::record(&c1);
        let (t1_bytes, t1_len) = (t1.bytes(), t1.len());
        // Budget fits exactly one tape: inserting the second must evict
        // the (idle) first.
        let store = ArtifactStore::with_tape_budget(t1_bytes);
        drop(store.get_or_record(&c1));
        let t2 = store.get_or_record(&c2);
        let s = store.memory_stats().1;
        assert_eq!(s.evictions, 1);
        assert_eq!(s.resident_bytes, t2.bytes());
        assert_eq!(store.tapes.len(), 1);
        // The evicted pair re-records on its next request.
        let again = store.get_or_record(&c1);
        assert_eq!(store.memory_stats().1.derived, 3);
        assert_eq!(again.len(), t1_len);
    }

    #[test]
    fn tape_shared_by_concurrent_fused_replays_survives_budget_pressure() {
        use crate::config::{HwConfig, SimConfig};
        use crate::driver::{run_tape, run_tape_fused};

        // One tape walked by several fused replays at once, while another
        // worker churns the tier with insertions that each trigger an
        // eviction pass on a budget of one byte. The walked tape must be
        // served pointer-identical to every replay (never evicted and
        // re-recorded mid-walk), and the results must be unperturbed.
        let store = ArtifactStore::with_tape_budget(1);
        let shared = compiled(&store, "swm256", 6, Scale::quick());
        let tape = store.get_or_record(&shared);
        let cfgs: Vec<SimConfig> = [HwConfig::Mc0, HwConfig::Mc(1), HwConfig::NoRestrict]
            .into_iter()
            .map(|hw| SimConfig::baseline(hw).at_latency(6))
            .collect();
        let reference: Vec<_> = cfgs
            .iter()
            .map(|cfg| run_tape("swm256", &tape, cfg).unwrap())
            .collect();

        let pool = JobPool::new(4);
        let out = pool.run(4, |i| {
            if i == 0 {
                // Pressure: every insertion runs an eviction pass.
                for name in ["doduc", "eqntott", "tomcatv"] {
                    drop(store.get_or_record(&compiled(&store, name, 6, Scale::quick())));
                }
                None
            } else {
                let t = store.get_or_record(&shared);
                let identical = Arc::ptr_eq(&t, &tape);
                Some((identical, run_tape_fused("swm256", &t, &cfgs).unwrap()))
            }
        });
        for (identical, results) in out.into_iter().flatten() {
            assert!(identical, "a busy tape must never be evicted mid-walk");
            assert_eq!(results, reference, "pressure must not perturb results");
        }
        let s = store.memory_stats().1;
        assert_eq!(
            s.derived, 4,
            "the shared tape records once; only the 3 pressure tapes add"
        );
        assert!(s.resident_bytes >= tape.bytes());
    }

    #[test]
    fn in_use_tapes_survive_eviction_pressure() {
        let store = ArtifactStore::with_tape_budget(1); // everything is over budget
        let c1 = compiled(&store, "tomcatv", 10, Scale::quick());
        let c2 = compiled(&store, "tomcatv", 6, Scale::quick());
        let held = store.get_or_record(&c1); // kept alive by this Arc
        let second = store.get_or_record(&c2);
        assert!(
            store.memory_stats().1.resident_bytes >= held.bytes(),
            "a tape with a live replay reference must not be dropped"
        );
        assert!(store.tapes.len() > 0);
        // Once released, the next insertion can reclaim it.
        drop(held);
        drop(second);
        let _third = store.get_or_record(&compiled(&store, "tomcatv", 3, Scale::quick()));
        assert!(store.memory_stats().1.evictions >= 1);
    }
}

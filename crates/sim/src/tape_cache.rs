//! A shared tape cache: each compiled `(benchmark, latency)` pair is
//! recorded into a [`TraceTape`](nbl_trace::tape::TraceTape) exactly once
//! per process and the tape
//! shared by reference across every hardware configuration that replays
//! it — the record-once/replay-many half of the pipeline whose
//! compile-once half is [`crate::compile_cache::CompileCache`].
//!
//! The exactly-once mechanics mirror the compile cache (one
//! [`OnceLock`](std::sync::OnceLock)
//! slot per key, so concurrent first requests block on the single
//! in-flight recording), with one addition: tapes are bulk data (13 bytes
//! per dynamic instruction — megabytes per full-scale program), so the
//! cache enforces a byte budget. When an insertion pushes the resident
//! total over the cap, the oldest idle tapes (no `Arc` held outside the
//! cache) are dropped FIFO until the total fits; tapes still in use by a
//! replay are never evicted, and an evicted pair is simply re-recorded on
//! its next request.
//!
//! As the memory tier of the [`crate::store::ArtifactStore`] the cache
//! can sit in front of a [`DiskTier`]: a first request probes the store
//! for a previously persisted tape before paying for a recording, and
//! fresh recordings write through, which is what makes warm starts
//! survive the process (DESIGN.md §16).

use crate::store::DiskTier;
use nbl_core::hash::FastMap;
use nbl_trace::machine::CompiledProgram;
use nbl_trace::tape::TraceTape;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Default byte budget when `NBL_TAPE_CACHE_MB` is not set: comfortably
/// holds every (benchmark, latency) tape of a full `figures all` run
/// (~108 pairs × ~5 MiB) while bounding degenerate workloads.
const DEFAULT_CAP_BYTES: usize = 2048 * 1024 * 1024;

/// Structural fingerprint of a compiled program:
/// [`crate::store::compiled_fingerprint`], the *cross-process stable*
/// hash, because the same value is a tape artifact's content address in
/// the disk tier. It keeps quick- and full-scale compilations of one
/// benchmark at the same latency from aliasing.
fn fingerprint(compiled: &CompiledProgram) -> u64 {
    crate::store::compiled_fingerprint(compiled)
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Key {
    name: String,
    latency: u32,
    fingerprint: u64,
}

/// One slot per key: the `OnceLock` gives exactly-once recording even
/// under concurrent first access (recording is infallible, so the slot
/// holds the tape directly).
type Slot = Arc<OnceLock<Arc<TraceTape>>>;

#[derive(Debug, Default)]
struct State {
    map: FastMap<Key, Slot>,
    /// Insertion order, for FIFO eviction when over the byte budget.
    order: VecDeque<Key>,
    /// Bytes held by fully recorded resident tapes.
    bytes: usize,
}

/// Counter snapshot from a [`TapeCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TapeStats {
    /// Requests served from an already-recorded tape.
    pub hits: u64,
    /// Requests that ran the executor to record a tape.
    pub records: u64,
    /// Tapes dropped to stay inside the byte budget.
    pub evictions: u64,
    /// Bytes currently held by resident tapes.
    pub resident_bytes: usize,
}

/// The cache itself: the memory tape tier of an
/// [`ArtifactStore`](crate::store::ArtifactStore). The process shares one
/// through [`SweepEngine::global`](crate::sweep::SweepEngine::global)'s
/// store; isolated tests use a local instance.
#[derive(Debug)]
pub struct TapeCache {
    state: Mutex<State>,
    cap_bytes: usize,
    /// Disk tier behind the memory tier: probed before recording, and
    /// written through after. `None` keeps the cache memory-only.
    disk: Option<Arc<DiskTier>>,
    hits: AtomicU64,
    records: AtomicU64,
    evictions: AtomicU64,
}

impl Default for TapeCache {
    fn default() -> Self {
        Self::new()
    }
}

impl TapeCache {
    /// An empty cache with the byte budget from `NBL_TAPE_CACHE_MB`
    /// (default 2048).
    pub fn new() -> Self {
        let cap = std::env::var("NBL_TAPE_CACHE_MB")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .map_or(DEFAULT_CAP_BYTES, |mb| mb.saturating_mul(1024 * 1024));
        Self::with_capacity_bytes(cap)
    }

    /// An empty cache with an explicit byte budget (tests).
    pub fn with_capacity_bytes(cap_bytes: usize) -> Self {
        TapeCache {
            state: Mutex::new(State::default()),
            cap_bytes,
            disk: None,
            hits: AtomicU64::new(0),
            records: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// An empty cache (default byte budget) backed by a disk tier: first
    /// requests probe the store before recording, and fresh recordings
    /// write through to it.
    pub fn with_disk(disk: Arc<DiskTier>) -> Self {
        let mut cache = Self::new();
        cache.disk = Some(disk);
        cache
    }

    /// Returns the recorded tape of `compiled`: from the memory tier if
    /// already resident, else decoded from the disk tier (when one is
    /// attached and holds a valid artifact under this key), else by
    /// running the executor — sharing the result (by `Arc`) thereafter.
    /// Fresh recordings write through to the disk tier; disk damage of
    /// any kind is absorbed (quarantine + re-record), so the call stays
    /// infallible.
    pub fn get_or_record(&self, compiled: &CompiledProgram) -> Arc<TraceTape> {
        let key = Key {
            name: compiled.name.clone(),
            latency: compiled.load_latency,
            fingerprint: fingerprint(compiled),
        };
        let slot = {
            let mut st = self.state.lock().expect("tape cache lock poisoned");
            Arc::clone(st.map.entry(key.clone()).or_default())
        };
        let mut inserted_here = false;
        let tape = Arc::clone(slot.get_or_init(|| {
            inserted_here = true;
            if let Some(disk) = &self.disk {
                if let Some(loaded) = disk.load_tape(&key.name, key.latency, key.fingerprint) {
                    return Arc::new(loaded);
                }
            }
            self.records.fetch_add(1, Ordering::Relaxed);
            let recorded = TraceTape::record(compiled);
            if let Some(disk) = &self.disk {
                let _ = disk.write_tape(&recorded, key.fingerprint);
            }
            Arc::new(recorded)
        }));
        if inserted_here {
            let mut st = self.state.lock().expect("tape cache lock poisoned");
            st.bytes += tape.bytes();
            st.order.push_back(key);
            self.evict_to_cap(&mut st);
        } else {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        tape
    }

    /// Drops the oldest idle tapes until the resident total fits the
    /// budget. A tape is idle when the cache holds the only `Arc` to it;
    /// in-flight slots (not yet recorded) and tapes still referenced by a
    /// replay are skipped. One bounded pass: if everything old is busy,
    /// the cache stays temporarily over budget rather than blocking.
    fn evict_to_cap(&self, st: &mut State) {
        let mut scan = st.order.len();
        while st.bytes > self.cap_bytes && scan > 0 {
            scan -= 1;
            let Some(key) = st.order.pop_front() else {
                break;
            };
            let idle = st
                .map
                .get(&key)
                .is_some_and(|slot| slot.get().is_some_and(|tape| Arc::strong_count(tape) == 1));
            if idle {
                if let Some(slot) = st.map.remove(&key) {
                    if let Some(tape) = slot.get() {
                        st.bytes = st.bytes.saturating_sub(tape.bytes());
                        self.evictions.fetch_add(1, Ordering::Relaxed);
                    }
                }
            } else {
                st.order.push_back(key);
            }
        }
    }

    /// Barrier count of a resident tape for `(name, latency)`, any
    /// fingerprint — a scheduling hint, not a correctness input. Answers
    /// only from the memory tier (no disk probe, no recording) and does
    /// not touch the hit/record counters, so schedulers can weigh work
    /// units without perturbing cache telemetry. `None` when no recorded
    /// tape for the pair is resident.
    pub fn peek_barriers(&self, name: &str, latency: u32) -> Option<u64> {
        let st = self.state.lock().expect("tape cache lock poisoned");
        st.map.iter().find_map(|(key, slot)| {
            if key.name == name && key.latency == latency {
                slot.get().map(|tape| tape.barriers().len() as u64)
            } else {
                None
            }
        })
    }

    /// Current hit/record/eviction counters and resident footprint.
    pub fn stats(&self) -> TapeStats {
        TapeStats {
            hits: self.hits.load(Ordering::Relaxed),
            records: self.records.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            resident_bytes: self.state.lock().expect("tape cache lock poisoned").bytes,
        }
    }

    /// Number of distinct `(name, latency, fingerprint)` keys resident.
    pub fn len(&self) -> usize {
        self.state
            .lock()
            .expect("tape cache lock poisoned")
            .map
            .len()
    }

    /// `true` if no tape has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::JobPool;
    use crate::sweep::SweepEngine;
    use nbl_trace::workloads::{build, Scale};

    fn compiled(name: &str, latency: u32, scale: Scale) -> Arc<CompiledProgram> {
        let p = build(name, scale).unwrap();
        SweepEngine::global()
            .store()
            .get_or_compile(&p, latency)
            .unwrap()
    }

    #[test]
    fn records_each_pair_exactly_once() {
        let cache = TapeCache::new();
        let c = compiled("doduc", 10, Scale::quick());
        let a = cache.get_or_record(&c);
        let b = cache.get_or_record(&c);
        let c6 = compiled("doduc", 6, Scale::quick());
        let d = cache.get_or_record(&c6);
        assert!(Arc::ptr_eq(&a, &b), "same pair must share one recording");
        assert!(
            !Arc::ptr_eq(&a, &d),
            "different latency is a different pair"
        );
        let s = cache.stats();
        assert_eq!((s.hits, s.records, s.evictions), (1, 2, 0));
        assert_eq!(s.resident_bytes, a.bytes() + d.bytes());
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn scale_variants_of_one_benchmark_do_not_alias() {
        let cache = TapeCache::new();
        let quick = compiled("eqntott", 10, Scale::quick());
        let full = compiled("eqntott", 10, Scale::full());
        let a = cache.get_or_record(&quick);
        let b = cache.get_or_record(&full);
        assert!(!Arc::ptr_eq(&a, &b));
        assert_ne!(a.len(), b.len());
        assert_eq!(cache.stats().records, 2);
    }

    #[test]
    fn concurrent_first_access_still_records_once() {
        // 16 workers race for 4 distinct (benchmark, latency) pairs; the
        // OnceLock slots must serialize each pair to a single recording.
        let cache = TapeCache::new();
        let programs = [
            compiled("doduc", 6, Scale::quick()),
            compiled("doduc", 10, Scale::quick()),
            compiled("eqntott", 6, Scale::quick()),
            compiled("eqntott", 10, Scale::quick()),
        ];
        let pool = JobPool::new(8);
        let lens = pool.run(16, |i| cache.get_or_record(&programs[i % 4]).len());
        assert_eq!(lens.len(), 16);
        let s = cache.stats();
        assert_eq!(s.records, 4, "one recording per distinct pair");
        assert_eq!(s.hits + s.records, 16);
    }

    #[test]
    fn over_budget_idle_tapes_are_evicted_fifo() {
        let c1 = compiled("eqntott", 10, Scale::quick());
        let c2 = compiled("eqntott", 6, Scale::quick());
        let t1 = TraceTape::record(&c1);
        let (t1_bytes, t1_len) = (t1.bytes(), t1.len());
        // Budget fits exactly one tape: inserting the second must evict
        // the (idle) first.
        let cache = TapeCache::with_capacity_bytes(t1_bytes);
        drop(cache.get_or_record(&c1));
        let t2 = cache.get_or_record(&c2);
        let s = cache.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.resident_bytes, t2.bytes());
        assert_eq!(cache.len(), 1);
        // The evicted pair re-records on its next request.
        let again = cache.get_or_record(&c1);
        assert_eq!(cache.stats().records, 3);
        assert_eq!(again.len(), t1_len);
    }

    #[test]
    fn tape_shared_by_concurrent_fused_replays_survives_budget_pressure() {
        use crate::config::{HwConfig, SimConfig};
        use crate::driver::{run_tape, run_tape_fused};

        // One tape walked by several fused replays at once, while another
        // worker churns the cache with insertions that each trigger an
        // eviction pass on a budget of one byte. The walked tape must be
        // served pointer-identical to every replay (never evicted and
        // re-recorded mid-walk), and the results must be unperturbed.
        let shared = compiled("swm256", 6, Scale::quick());
        let cache = TapeCache::with_capacity_bytes(1);
        let tape = cache.get_or_record(&shared);
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
                    drop(cache.get_or_record(&compiled(name, 6, Scale::quick())));
                }
                None
            } else {
                let t = cache.get_or_record(&shared);
                let identical = Arc::ptr_eq(&t, &tape);
                Some((identical, run_tape_fused("swm256", &t, &cfgs).unwrap()))
            }
        });
        for slot in out.into_iter().flatten() {
            let (identical, results) = slot;
            assert!(identical, "a busy tape must never be evicted mid-walk");
            assert_eq!(results, reference, "pressure must not perturb results");
        }
        assert_eq!(
            cache.stats().records,
            4,
            "the shared tape records once; only the 3 pressure tapes add"
        );
        assert!(cache.stats().resident_bytes >= tape.bytes());
    }

    #[test]
    fn in_use_tapes_survive_eviction_pressure() {
        let c1 = compiled("tomcatv", 10, Scale::quick());
        let c2 = compiled("tomcatv", 6, Scale::quick());
        let cache = TapeCache::with_capacity_bytes(1); // everything is over budget
        let held = cache.get_or_record(&c1); // kept alive by this Arc
        let _second = cache.get_or_record(&c2);
        assert!(
            cache.stats().resident_bytes >= held.bytes(),
            "a tape with a live replay reference must not be dropped"
        );
        assert!(!cache.is_empty());
        // Once released, the next insertion can reclaim it.
        drop(held);
        drop(_second);
        let _third = cache.get_or_record(&compiled("tomcatv", 3, Scale::quick()));
        assert!(cache.stats().evictions >= 1);
    }
}

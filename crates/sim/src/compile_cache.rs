//! A shared compile cache: each `(benchmark, latency)` pair is compiled
//! exactly once per process and the
//! [`CompiledProgram`](nbl_trace::machine::CompiledProgram) shared by
//! reference, mirroring how the paper compiles one binary per latency and
//! replays it under every hardware configuration.
//!
//! The cache is safe to hit from many pool workers at once: each key maps
//! to a [`OnceLock`](std::sync::OnceLock) slot, so concurrent requests
//! for the same pair block
//! on the single in-flight compile instead of duplicating it. Keys include
//! a structural fingerprint of the IR, so two programs that share a name
//! (e.g. quick- and full-scale builds of one benchmark) never alias.

use nbl_core::hash::FastMap;
use nbl_sched::compile::{compile, CompileError};
use nbl_trace::ir::Program;
use nbl_trace::machine::CompiledProgram;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Structural fingerprint of a program's IR:
/// [`crate::store::program_fingerprint`], the cross-process stable hash.
/// These keys never leave the process, but the same fingerprint is half
/// of a result artifact's content address in the disk tier, so the two
/// must not drift apart.
fn fingerprint(program: &Program) -> u64 {
    crate::store::program_fingerprint(program)
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Key {
    name: String,
    latency: u32,
    fingerprint: u64,
}

/// One slot per key: the `OnceLock` gives exactly-once compilation even
/// under concurrent first access.
type Slot = Arc<OnceLock<Result<Arc<CompiledProgram>, CompileError>>>;

/// Counter snapshot from a [`CompileCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Requests served from an already-compiled slot.
    pub hits: u64,
    /// Requests that ran the compiler.
    pub compiles: u64,
}

/// The cache itself: the compile tier of an
/// [`ArtifactStore`](crate::store::ArtifactStore). The process shares one
/// through [`SweepEngine::global`](crate::sweep::SweepEngine::global)'s
/// store; isolated tests use a local instance.
#[derive(Debug, Default)]
pub struct CompileCache {
    slots: Mutex<FastMap<Key, Slot>>,
    hits: AtomicU64,
    compiles: AtomicU64,
}

impl CompileCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the compiled form of `program` at `latency`, compiling on
    /// first request and sharing the result (by `Arc`) thereafter.
    ///
    /// # Errors
    ///
    /// Propagates [`CompileError`]; a failed compile is cached too, so a
    /// bad `(benchmark, latency)` pair fails fast on every later request.
    pub fn get_or_compile(
        &self,
        program: &Program,
        latency: u32,
    ) -> Result<Arc<CompiledProgram>, CompileError> {
        let key = Key {
            name: program.name.clone(),
            latency,
            fingerprint: fingerprint(program),
        };
        let slot = {
            let mut map = self.slots.lock().expect("compile cache lock poisoned");
            Arc::clone(map.entry(key).or_default())
        };
        let mut compiled_here = false;
        let result = slot.get_or_init(|| {
            compiled_here = true;
            self.compiles.fetch_add(1, Ordering::Relaxed);
            compile(program, latency).map(Arc::new)
        });
        if !compiled_here {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        result.clone()
    }

    /// Current hit/compile counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            compiles: self.compiles.load(Ordering::Relaxed),
        }
    }

    /// Number of distinct `(name, latency, fingerprint)` keys resident.
    pub fn len(&self) -> usize {
        self.slots
            .lock()
            .expect("compile cache lock poisoned")
            .len()
    }

    /// `true` if no program has been compiled yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::JobPool;
    use nbl_trace::workloads::{build, Scale};

    #[test]
    fn compiles_each_pair_exactly_once() {
        let cache = CompileCache::new();
        let p = build("doduc", Scale::quick()).unwrap();
        let a = cache.get_or_compile(&p, 10).unwrap();
        let b = cache.get_or_compile(&p, 10).unwrap();
        let c = cache.get_or_compile(&p, 6).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "same pair must share one compilation");
        assert!(
            !Arc::ptr_eq(&a, &c),
            "different latency is a different pair"
        );
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                compiles: 2
            }
        );
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn scale_variants_of_one_benchmark_do_not_alias() {
        let cache = CompileCache::new();
        let quick = build("eqntott", Scale::quick()).unwrap();
        let full = build("eqntott", Scale::full()).unwrap();
        let a = cache.get_or_compile(&quick, 10).unwrap();
        let b = cache.get_or_compile(&full, 10).unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(cache.stats().compiles, 2);
    }

    #[test]
    fn concurrent_first_access_still_compiles_once() {
        // 16 workers race for 4 distinct (benchmark, latency) pairs; the
        // OnceLock slots must serialize each pair to a single compile.
        let cache = CompileCache::new();
        let doduc = build("doduc", Scale::quick()).unwrap();
        let eqntott = build("eqntott", Scale::quick()).unwrap();
        let programs = [&doduc, &eqntott];
        let latencies = [6u32, 10];
        let pool = JobPool::new(8);
        let out = pool.run(16, |i| {
            let p = programs[i % 2];
            let lat = latencies[(i / 2) % 2];
            cache.get_or_compile(p, lat).unwrap().load_latency
        });
        assert_eq!(out.len(), 16);
        let s = cache.stats();
        assert_eq!(s.compiles, 4, "one compile per distinct pair");
        assert_eq!(s.hits + s.compiles, 16);
    }
}

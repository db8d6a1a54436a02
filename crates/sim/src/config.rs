//! The paper's named hardware configurations and full simulation configs.

use nbl_core::cache::{CacheConfig, WriteMissPolicy};
use nbl_core::geometry::CacheGeometry;
use nbl_core::limit::Limit;
use nbl_core::mshr::inverted::InvertedConfig;
use nbl_core::mshr::{MshrConfig, RegisterFileConfig, TargetPolicy};
use nbl_core::tag_array::ReplacementKind;
use nbl_cpu::core_engine::{EngineConfig, EngineError, L2Params};
use std::fmt;

/// A named point in the paper's hardware design space — the legend entries
/// of Figs. 5–18.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum HwConfig {
    /// Lockup cache with write-miss allocate: loads *and* stores block
    /// (`mc=0 + wma`, the worst curve).
    Mc0Wma,
    /// Lockup cache with write-around stores (`mc=0`).
    Mc0,
    /// `mc=N`: at most `N` outstanding misses — N MSHRs with one explicitly
    /// addressed target field each. `Mc(1)` is hit-under-miss.
    Mc(u32),
    /// `fc=N`: at most `N` outstanding fetches, unlimited secondary misses
    /// per fetch (idealized unlimited target fields).
    Fc(u32),
    /// `fs=N`: unlimited fetches to the cache, at most `N` per cache set.
    Fs(u32),
    /// In-cache MSHR storage (transit bit; one fetch per cache line) with
    /// a full-line read port.
    InCache,
    /// In-cache MSHR storage whose read port needs the given extra cycles
    /// to recover MSHR state on each fill (§2.3's narrow-port caveat).
    InCacheNarrowPort(u32),
    /// Extension (paper §2.4's sketch, not evaluated there): `fc=N` MSHRs
    /// *plus* non-blocking write-miss allocation — store misses occupy an
    /// MSHR with a write-buffer destination instead of stalling.
    FcWma(u32),
    /// Unlimited MSHRs, one per fetch, each with the given target-field
    /// layout — the Fig. 14 implicit/explicit/hybrid sweep.
    Targets(TargetPolicy),
    /// The inverted MSHR: no restrictions ("no restrict").
    NoRestrict,
}

impl HwConfig {
    /// The seven configurations of the baseline MCPI figures
    /// (Figs. 5, 9, 11, 12, 16, 17), worst to best.
    pub fn baseline_seven() -> Vec<HwConfig> {
        vec![
            HwConfig::Mc0Wma,
            HwConfig::Mc0,
            HwConfig::Mc(1),
            HwConfig::Mc(2),
            HwConfig::Fc(1),
            HwConfig::Fc(2),
            HwConfig::NoRestrict,
        ]
    }

    /// The six configurations of the Fig. 13 table: `mc=0, mc=1, mc=2,
    /// fc=1, fc=2, ∞`.
    pub fn table13_six() -> Vec<HwConfig> {
        vec![
            HwConfig::Mc0,
            HwConfig::Mc(1),
            HwConfig::Mc(2),
            HwConfig::Fc(1),
            HwConfig::Fc(2),
            HwConfig::NoRestrict,
        ]
    }

    /// The paper's legend label.
    pub fn label(&self) -> String {
        match self {
            HwConfig::Mc0Wma => "mc=0 + wma".into(),
            HwConfig::Mc0 => "mc=0".into(),
            HwConfig::Mc(n) => format!("mc={n}"),
            HwConfig::Fc(n) => format!("fc={n}"),
            HwConfig::Fs(n) => format!("fs={n}"),
            HwConfig::FcWma(n) => format!("fc={n} + nb-wma"),
            HwConfig::InCache => "in-cache".into(),
            HwConfig::InCacheNarrowPort(k) => format!("in-cache +{k}cy read"),
            HwConfig::Targets(p) => format!("targets {p}"),
            HwConfig::NoRestrict => "no restrict".into(),
        }
    }

    /// The MSHR organization realizing this configuration.
    pub fn mshr_config(&self) -> MshrConfig {
        match self {
            HwConfig::Mc0Wma | HwConfig::Mc0 => MshrConfig::Blocking,
            HwConfig::Mc(n) => MshrConfig::Register(RegisterFileConfig {
                entries: Limit::Finite(*n),
                targets: TargetPolicy::explicit(Limit::Finite(1)),
                max_outstanding_misses: Limit::Finite(*n),
                max_fetches_per_set: Limit::Unlimited,
            }),
            HwConfig::Fc(n) | HwConfig::FcWma(n) => MshrConfig::Register(RegisterFileConfig {
                entries: Limit::Finite(*n),
                targets: TargetPolicy::explicit(Limit::Unlimited),
                max_outstanding_misses: Limit::Unlimited,
                max_fetches_per_set: Limit::Unlimited,
            }),
            HwConfig::Fs(n) => MshrConfig::Register(RegisterFileConfig {
                entries: Limit::Unlimited,
                targets: TargetPolicy::explicit(Limit::Unlimited),
                max_outstanding_misses: Limit::Unlimited,
                max_fetches_per_set: Limit::Finite(*n),
            }),
            HwConfig::InCache => MshrConfig::InCache {
                targets: TargetPolicy::explicit(Limit::Unlimited),
                read_extra_cycles: 0,
            },
            HwConfig::InCacheNarrowPort(k) => MshrConfig::InCache {
                targets: TargetPolicy::explicit(Limit::Unlimited),
                read_extra_cycles: *k,
            },
            HwConfig::Targets(p) => MshrConfig::Register(RegisterFileConfig {
                entries: Limit::Unlimited,
                targets: *p,
                max_outstanding_misses: Limit::Unlimited,
                max_fetches_per_set: Limit::Unlimited,
            }),
            HwConfig::NoRestrict => MshrConfig::Inverted(InvertedConfig::typical()),
        }
    }

    /// The store-miss policy (write-around everywhere except `mc=0+wma`).
    pub fn write_miss_policy(&self) -> WriteMissPolicy {
        match self {
            HwConfig::Mc0Wma | HwConfig::FcWma(_) => WriteMissPolicy::WriteAllocate,
            _ => WriteMissPolicy::WriteAround,
        }
    }

    /// Assembles the cache configuration over `geometry` (LRU replacement;
    /// [`SimConfig`] overrides the policy when sweeping it).
    pub fn cache_config(&self, geometry: CacheGeometry) -> CacheConfig {
        CacheConfig {
            geometry,
            write_miss: self.write_miss_policy(),
            mshr: self.mshr_config(),
            victim_entries: 0,
            replacement: ReplacementKind::default(),
        }
    }
}

impl fmt::Display for HwConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// Which processor model runs the workload — the sweep axis of the
/// `figures replaymodel` exhibit, and the only issue-width switch
/// ([`ProcessorKind::DualInOrder`] is the §6 machine). Maps one-to-one onto
/// [`nbl_cpu::issue::IssuePolicy`] via [`ProcessorKind::policy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ProcessorKind {
    /// The paper's stalling single-issue pipeline (§3.1).
    #[default]
    SingleInOrder,
    /// The dual-issue pipeline (§6 / Fig. 19).
    DualInOrder,
    /// The speculative pipeline that replays loads on XiangShan-style
    /// causes instead of stalling at issue (extension).
    ReplayCause,
}

impl ProcessorKind {
    /// Every model, in sweep order.
    pub const ALL: [ProcessorKind; 3] = [
        ProcessorKind::SingleInOrder,
        ProcessorKind::DualInOrder,
        ProcessorKind::ReplayCause,
    ];

    /// Stable short label for CSV/JSON emitters and CLI output.
    pub fn label(self) -> &'static str {
        match self {
            ProcessorKind::SingleInOrder => "single",
            ProcessorKind::DualInOrder => "dual",
            ProcessorKind::ReplayCause => "replay",
        }
    }

    /// The issue policy driving the shared engine for this model.
    pub fn policy(self) -> nbl_cpu::IssuePolicy {
        match self {
            ProcessorKind::SingleInOrder => nbl_cpu::IssuePolicy::SingleInOrder,
            ProcessorKind::DualInOrder => nbl_cpu::IssuePolicy::DualInOrder,
            ProcessorKind::ReplayCause => nbl_cpu::IssuePolicy::ReplayCause,
        }
    }
}

impl fmt::Display for ProcessorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A complete simulation configuration. `Hash` feeds the artifact
/// store's content-addressed result keys (via
/// [`nbl_core::fingerprint::fingerprint_of`]), so every field that can
/// change a [`crate::driver::RunResult`] must stay in the derive.
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct SimConfig {
    /// MSHR organization and write policy.
    pub hw: HwConfig,
    /// Cache geometry (baseline: 8 KB direct mapped, 32 B lines).
    pub geometry: CacheGeometry,
    /// Miss penalty in cycles (baseline: 16).
    pub miss_penalty: u32,
    /// Scheduled load latency the workload is compiled for (§3.3).
    pub load_latency: u32,
    /// Which processor model runs (`figures replaymodel` sweeps it; the paper's
    /// figures keep the default, Fig. 19 goes through
    /// [`crate::driver::run_dual`]).
    pub processor: ProcessorKind,
    /// Minimum cycles between fetch completions (0 = the paper's fully
    /// pipelined memory; nonzero only in the bandwidth ablation).
    pub memory_gap: u32,
    /// Optional second-level cache: `(size_bytes, hit_penalty)` with the
    /// L1's line size. `None` reproduces the paper's flat hierarchy; when
    /// set, `miss_penalty` becomes the L2-*miss* penalty (extension).
    pub l2: Option<(u64, u32)>,
    /// Entries in a fully associative victim buffer next to the L1
    /// (Jouppi 1990); 0 reproduces the paper (extension).
    pub victim_entries: usize,
    /// Replacement policy of the L1 (and any L2) tag array. LRU — the
    /// paper's policy — is the default; `figures replsens` sweeps it.
    pub replacement: ReplacementKind,
}

impl SimConfig {
    /// The paper's baseline system around the given hardware config:
    /// 8 KB direct-mapped cache, 32-byte lines, 16-cycle penalty,
    /// single issue, scheduled load latency 10.
    pub fn baseline(hw: HwConfig) -> SimConfig {
        SimConfig {
            hw,
            geometry: CacheGeometry::baseline(),
            miss_penalty: 16,
            load_latency: 10,
            processor: ProcessorKind::default(),
            memory_gap: 0,
            l2: None,
            victim_entries: 0,
            replacement: ReplacementKind::default(),
        }
    }

    /// Same configuration at a different scheduled load latency.
    #[must_use]
    pub fn at_latency(mut self, load_latency: u32) -> SimConfig {
        self.load_latency = load_latency;
        self
    }

    /// Same configuration with a different miss penalty.
    #[must_use]
    pub fn with_penalty(mut self, miss_penalty: u32) -> SimConfig {
        self.miss_penalty = miss_penalty;
        self
    }

    /// Same configuration over a different geometry.
    #[must_use]
    pub fn with_geometry(mut self, geometry: CacheGeometry) -> SimConfig {
        self.geometry = geometry;
        self
    }

    /// Same configuration with a bandwidth-limited memory (ablation).
    #[must_use]
    pub fn with_memory_gap(mut self, memory_gap: u32) -> SimConfig {
        self.memory_gap = memory_gap;
        self
    }

    /// Same configuration with a second-level cache of `size_bytes` and
    /// the given L1-miss/L2-hit penalty; `miss_penalty` then applies to
    /// L2 misses (extension).
    #[must_use]
    pub fn with_l2(mut self, size_bytes: u64, hit_penalty: u32) -> SimConfig {
        self.l2 = Some((size_bytes, hit_penalty));
        self
    }

    /// Same configuration with an `entries`-line victim buffer (extension).
    #[must_use]
    pub fn with_victim_buffer(mut self, entries: usize) -> SimConfig {
        self.victim_entries = entries;
        self
    }

    /// Same configuration under a different replacement policy (applies
    /// to the L1 and any configured L2).
    #[must_use]
    pub fn with_replacement(mut self, replacement: ReplacementKind) -> SimConfig {
        self.replacement = replacement;
        self
    }

    /// Same configuration under a different processor model.
    #[must_use]
    pub fn with_processor(mut self, processor: ProcessorKind) -> SimConfig {
        self.processor = processor;
        self
    }

    /// The issue-engine configuration this simulation runs on: the
    /// hardware config's cache over this geometry (with the victim buffer
    /// and replacement policy applied), the miss penalty, the memory gap,
    /// and any L2 as a direct-mapped cache with the L1's line size and
    /// replacement policy.
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidL2`] when the L2 size cannot form a cache
    /// geometry.
    pub fn engine_config(&self) -> Result<EngineConfig, EngineError> {
        let mut cache = self.hw.cache_config(self.geometry);
        cache.victim_entries = self.victim_entries;
        cache.replacement = self.replacement;
        let l2 = match self.l2 {
            Some((size_bytes, hit_penalty)) => Some(L2Params {
                geometry: CacheGeometry::direct_mapped(size_bytes, self.geometry.line_bytes())
                    .map_err(|reason| EngineError::InvalidL2 { size_bytes, reason })?,
                hit_penalty,
                replacement: self.replacement,
            }),
            None => None,
        };
        Ok(EngineConfig {
            cache,
            miss_penalty: self.miss_penalty,
            perfect_cache: false,
            memory_gap: self.memory_gap,
            l2,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper_legends() {
        assert_eq!(HwConfig::Mc0Wma.label(), "mc=0 + wma");
        assert_eq!(HwConfig::Mc0.label(), "mc=0");
        assert_eq!(HwConfig::Mc(1).label(), "mc=1");
        assert_eq!(HwConfig::Fc(2).label(), "fc=2");
        assert_eq!(HwConfig::Fs(1).label(), "fs=1");
        assert_eq!(HwConfig::NoRestrict.label(), "no restrict");
    }

    #[test]
    fn mc_configs_cap_misses() {
        match HwConfig::Mc(2).mshr_config() {
            MshrConfig::Register(c) => {
                assert_eq!(c.entries, Limit::Finite(2));
                assert_eq!(c.max_outstanding_misses, Limit::Finite(2));
                assert_eq!(c.targets.total_fields(), Limit::Finite(1));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn fc_configs_allow_unlimited_secondaries() {
        match HwConfig::Fc(1).mshr_config() {
            MshrConfig::Register(c) => {
                assert_eq!(c.entries, Limit::Finite(1));
                assert_eq!(c.max_outstanding_misses, Limit::Unlimited);
                assert_eq!(c.targets.total_fields(), Limit::Unlimited);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn only_wma_allocates_on_store_miss() {
        assert_eq!(
            HwConfig::Mc0Wma.write_miss_policy(),
            WriteMissPolicy::WriteAllocate
        );
        for hw in HwConfig::baseline_seven().into_iter().skip(1) {
            assert_eq!(hw.write_miss_policy(), WriteMissPolicy::WriteAround);
        }
    }

    #[test]
    fn baseline_sim_config() {
        let c = SimConfig::baseline(HwConfig::NoRestrict);
        assert_eq!(c.geometry.size_bytes(), 8192);
        assert_eq!(c.miss_penalty, 16);
        assert_eq!(c.load_latency, 10);
        let c2 = c.clone().at_latency(6).with_penalty(32);
        assert_eq!(c2.load_latency, 6);
        assert_eq!(c2.miss_penalty, 32);
    }

    #[test]
    fn config_sets_cover_the_figures() {
        assert_eq!(HwConfig::baseline_seven().len(), 7);
        assert_eq!(HwConfig::table13_six().len(), 6);
    }
}

//! Integration tests spanning the crates: the compiled instruction stream
//! seen by the processor matches the static program, simulation is
//! deterministic, and equivalent configurations produce equivalent
//! results.

use nonblocking_loads::cpu::core_engine::EngineConfig;
use nonblocking_loads::cpu::issue::{IssueEngine, IssuePolicy};
use nonblocking_loads::sched::compile::compile;
use nonblocking_loads::sim::config::{HwConfig, SimConfig};
use nonblocking_loads::sim::driver::{run_dual, run_program};
use nonblocking_loads::trace::exec::Executor;
use nonblocking_loads::trace::machine::CountingSink;
use nonblocking_loads::trace::workloads::{build, Scale, ALL};

fn scale() -> Scale {
    Scale {
        instr_target: 60_000,
    }
}

/// The dynamic stream the processor executes has exactly the statically
/// predicted instruction/load/store counts, for every benchmark.
#[test]
fn processor_sees_the_static_counts() {
    for name in ALL {
        let p = build(name, scale()).unwrap();
        let compiled = compile(&p, 10).unwrap();
        let mut counter = CountingSink::default();
        Executor::new(&compiled).run(&mut counter);
        let r = run_program(&p, &SimConfig::baseline(HwConfig::Mc(1)).at_latency(10)).unwrap();
        assert_eq!(r.instructions, counter.instructions, "{name}");
        assert_eq!(r.loads, counter.loads, "{name}");
        assert_eq!(r.stores, counter.stores, "{name}");
        let (l, s, o) = compiled.dynamic_mix();
        assert_eq!(
            (r.loads, r.stores, r.instructions),
            (l, s, l + s + o),
            "{name}"
        );
    }
}

/// Simulation is bit-deterministic: same program, same config, same MCPI.
#[test]
fn simulation_is_deterministic() {
    for name in ["doduc", "xlisp", "su2cor"] {
        let p = build(name, scale()).unwrap();
        let cfg = SimConfig::baseline(HwConfig::Fc(2));
        let r1 = run_program(&p, &cfg).unwrap();
        let r2 = run_program(&p, &cfg).unwrap();
        assert_eq!(r1, r2, "{name} must be deterministic");
    }
}

/// MCPI is invariant to the workload scale once warmed up (steady-state
/// ratio): doubling the instruction count moves tomcatv's MCPI by < 10%.
#[test]
fn mcpi_is_a_steady_state_ratio() {
    let cfg = SimConfig::baseline(HwConfig::NoRestrict);
    let small = run_program(
        &build(
            "tomcatv",
            Scale {
                instr_target: 150_000,
            },
        )
        .unwrap(),
        &cfg,
    )
    .unwrap()
    .mcpi;
    let large = run_program(
        &build(
            "tomcatv",
            Scale {
                instr_target: 300_000,
            },
        )
        .unwrap(),
        &cfg,
    )
    .unwrap()
    .mcpi;
    let rel = (small - large).abs() / large.max(1e-9);
    assert!(
        rel < 0.10,
        "MCPI should be scale-stable: {small} vs {large}"
    );
}

/// `mc=0` and `mc=0 + wma` run the same trace; `+wma` only adds store-miss
/// stalls, so their load-side metrics agree and the wma MCPI is at least
/// as large.
#[test]
fn wma_only_adds_store_stalls() {
    let p = build("tomcatv", scale()).unwrap();
    let mc0 = run_program(&p, &SimConfig::baseline(HwConfig::Mc0)).unwrap();
    let wma = run_program(&p, &SimConfig::baseline(HwConfig::Mc0Wma)).unwrap();
    assert!(wma.mcpi >= mc0.mcpi);
    assert!(wma.blocking_stalls > mc0.blocking_stalls);
    assert_eq!(wma.instructions, mc0.instructions);
}

/// `fc=N` with huge N converges to the per-destination inverted MSHR: with
/// more entries than the machine has registers, the register file itself
/// becomes the limit.
#[test]
fn many_fetch_mshrs_converge_to_inverted() {
    let p = build("su2cor", scale()).unwrap();
    let fc64 = run_program(&p, &SimConfig::baseline(HwConfig::Fc(64))).unwrap();
    let inverted = run_program(&p, &SimConfig::baseline(HwConfig::NoRestrict)).unwrap();
    let rel = (fc64.mcpi - inverted.mcpi).abs() / inverted.mcpi.max(1e-9);
    assert!(
        rel < 0.02,
        "fc=64 ({}) should equal inverted ({})",
        fc64.mcpi,
        inverted.mcpi
    );
}

/// The paper's ora anomaly: a fully serial miss chain makes every
/// organization equivalent (to within the one-cycle issue difference
/// between blocking service and use-stall).
#[test]
fn ora_is_flat_across_configs_and_latencies() {
    let p = build("ora", scale()).unwrap();
    let mut values = Vec::new();
    for hw in HwConfig::table13_six() {
        for lat in [1, 10, 20] {
            values.push(
                run_program(&p, &SimConfig::baseline(hw.clone()).at_latency(lat))
                    .unwrap()
                    .mcpi,
            );
        }
    }
    let max = values.iter().cloned().fold(0.0_f64, f64::max);
    let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
    assert!(max / min < 1.10, "ora must be flat: {min} .. {max}");
    assert!((0.8..1.1).contains(&max), "ora's MCPI sits near 1.0: {max}");
}

/// Dual-issue invariants across the detailed benchmarks: IPC ∈ (1, 2],
/// real cycles ≥ perfect cycles, and the dual MCPI never exceeds the
/// single-issue MCPI by more than the theoretical issue-compression bound.
#[test]
fn dual_issue_sanity() {
    for name in ["doduc", "eqntott", "tomcatv"] {
        let p = build(name, scale()).unwrap();
        let d = run_dual(&p, &SimConfig::baseline(HwConfig::Fc(2))).unwrap();
        assert!(d.ipc > 1.0 && d.ipc <= 2.0, "{name}: IPC {}", d.ipc);
        assert!(d.cycles >= d.perfect_cycles, "{name}");
        let s = run_program(&p, &SimConfig::baseline(HwConfig::Fc(2))).unwrap();
        // Dual-issue compresses compute, exposing *more* stall per
        // instruction, but never more than the full penalty would allow.
        assert!(
            d.mcpi <= s.mcpi * 2.5 + 0.5,
            "{name}: dual {} vs single {}",
            d.mcpi,
            s.mcpi
        );
    }
}

/// Fig. 6's bound: with single issue (at most one load per cycle) the
/// number of simultaneous fetches can never exceed the miss penalty.
#[test]
fn max_inflight_fetches_bounded_by_penalty() {
    for penalty in [4u32, 16] {
        let p = build("tomcatv", scale()).unwrap();
        let cfg = SimConfig::baseline(HwConfig::NoRestrict).with_penalty(penalty);
        let r = run_program(&p, &cfg).unwrap();
        assert!(
            r.inflight.max_fetches as u32 <= penalty,
            "penalty {penalty}: {} fetches in flight",
            r.inflight.max_fetches
        );
    }
}

/// Direct engine use (public API without the sim driver): the pieces
/// compose exactly as the examples show.
#[test]
fn engine_composes_from_parts() {
    use nonblocking_loads::core::cache::CacheConfig;
    use nonblocking_loads::core::inst::DynInst;
    use nonblocking_loads::core::mshr::MshrConfig;
    use nonblocking_loads::core::types::{Addr, LoadFormat, PhysReg};
    use nonblocking_loads::trace::tape::TraceTape;

    let p = build("eqntott", scale()).unwrap();
    let compiled = compile(&p, 10).unwrap();
    let mut cpu = IssueEngine::new(
        EngineConfig::with_cache(CacheConfig::baseline(MshrConfig::Blocking)),
        IssuePolicy::SingleInOrder,
    );
    // The executor's stream, recorded into a tape by hand.
    let mut tape = TraceTape::with_capacity("eqntott", 0, 0);
    Executor::new(&compiled).run(&mut tape);
    cpu.run_tape(&tape).unwrap();
    cpu.finish().unwrap();
    assert!(cpu.stats().instructions > 10_000);
    assert!(cpu.stats().mcpi() > 0.0);

    // A hand-rolled tape continues on the same engine.
    let mut more = TraceTape::with_capacity("hand", 0, 1);
    more.push(DynInst::load(
        Addr(0xdead00),
        PhysReg::int(3),
        LoadFormat::WORD,
    ));
    cpu.run_tape(&more).unwrap();
    cpu.finish().unwrap();
    assert!(cpu.stats().blocking_load_misses > 0);
}

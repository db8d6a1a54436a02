//! Integration tests asserting the paper's qualitative claims
//! (DESIGN.md §6) end to end: workload generation → compilation →
//! simulation under the named hardware configurations.
//!
//! These use a mid-size workload scale: big enough that steady-state
//! behaviour dominates, small enough to keep the suite fast.

use nonblocking_loads::core::geometry::CacheGeometry;
use nonblocking_loads::sim::config::{HwConfig, SimConfig};
use nonblocking_loads::sim::driver::{run_program, RunResult};
use nonblocking_loads::sim::sweep::SweepEngine;
use nonblocking_loads::trace::workloads::{build, Scale, INTEGER};

fn scale() -> Scale {
    Scale {
        instr_target: 120_000,
    }
}

fn run(bench: &str, cfg: &SimConfig) -> RunResult {
    let p = build(bench, scale()).expect("known benchmark");
    run_program(&p, cfg).expect("workloads compile")
}

fn baseline(hw: HwConfig) -> SimConfig {
    SimConfig::baseline(hw)
}

/// Claim 1: the configuration lattice is ordered at latency 10:
/// mc=0+wma ≥ mc=0 ≥ mc=1 ≥ fc=1 ≥ fc=2 ≥ unrestricted, and
/// mc=1 ≥ mc=2 ≥ unrestricted.
#[test]
fn config_lattice_ordering() {
    for bench in ["doduc", "tomcatv", "su2cor", "xlisp"] {
        let m = |hw: HwConfig| run(bench, &baseline(hw)).mcpi;
        let wma = m(HwConfig::Mc0Wma);
        let mc0 = m(HwConfig::Mc0);
        let mc1 = m(HwConfig::Mc(1));
        let mc2 = m(HwConfig::Mc(2));
        let fc1 = m(HwConfig::Fc(1));
        let fc2 = m(HwConfig::Fc(2));
        let inf = m(HwConfig::NoRestrict);
        let tol = 1.02; // hardware with strictly more capability may tie
        assert!(wma * tol >= mc0, "{bench}: wma {wma} < mc0 {mc0}");
        assert!(mc0 * tol >= mc1, "{bench}: mc0 {mc0} < mc1 {mc1}");
        assert!(mc1 * tol >= fc1, "{bench}: mc1 {mc1} < fc1 {fc1}");
        assert!(fc1 * tol >= fc2, "{bench}: fc1 {fc1} < fc2 {fc2}");
        assert!(fc2 * tol >= inf, "{bench}: fc2 {fc2} < inf {inf}");
        assert!(mc1 * tol >= mc2, "{bench}: mc1 {mc1} < mc2 {mc2}");
        assert!(mc2 * tol >= inf, "{bench}: mc2 {mc2} < inf {inf}");
    }
}

/// Claim 2: for doduc, two primary misses in flight (`mc=2`) beat one
/// fetch with unlimited secondaries (`fc=1`) — the paper's headline
/// observation about this benchmark.
#[test]
fn doduc_prefers_two_primaries_over_unlimited_secondaries() {
    let mc2 = run("doduc", &baseline(HwConfig::Mc(2))).mcpi;
    let fc1 = run("doduc", &baseline(HwConfig::Fc(1))).mcpi;
    assert!(mc2 < fc1, "mc=2 ({mc2}) should beat fc=1 ({fc1}) on doduc");
}

/// Claim 3: at a scheduled load latency of 1 the lockup-free
/// implementations nearly coincide (uses sit right after loads, so
/// there is rarely more than one outstanding miss to differentiate them).
#[test]
fn lockup_free_configs_converge_at_latency_one() {
    for bench in ["eqntott", "xlisp", "compress"] {
        let m = |hw: HwConfig| run(bench, &baseline(hw).at_latency(1)).mcpi;
        let mc1 = m(HwConfig::Mc(1));
        let inf = m(HwConfig::NoRestrict);
        assert!(
            mc1 <= inf * 1.20,
            "{bench}: at latency 1, mc=1 ({mc1}) should be within 20% of unrestricted ({inf})"
        );
    }
}

/// Claim 4: integer benchmarks get almost everything from hit-under-miss;
/// FP benchmarks do not.
#[test]
fn integer_benchmarks_are_satisfied_by_hit_under_miss() {
    for bench in INTEGER {
        let mc1 = run(bench, &baseline(HwConfig::Mc(1))).mcpi;
        let inf = run(bench, &baseline(HwConfig::NoRestrict)).mcpi;
        assert!(
            mc1 <= inf * 1.6,
            "{bench}: mc=1 ({mc1}) should be near unrestricted ({inf})"
        );
    }
    for bench in ["tomcatv", "su2cor", "fpppp"] {
        let mc1 = run(bench, &baseline(HwConfig::Mc(1))).mcpi;
        let inf = run(bench, &baseline(HwConfig::NoRestrict)).mcpi;
        assert!(
            mc1 >= inf * 3.0,
            "{bench}: hit-under-miss ({mc1}) should leave big gains vs unrestricted ({inf})"
        );
    }
}

/// Claim 5: the structural-hazard share of the MCPI grows with the
/// scheduled load latency (Fig. 7) for restricted organizations.
#[test]
fn structural_share_grows_with_latency() {
    let lo = run("doduc", &baseline(HwConfig::Mc(1)).at_latency(1));
    let hi = run("doduc", &baseline(HwConfig::Mc(1)).at_latency(10));
    assert!(
        hi.structural_fraction > lo.structural_fraction,
        "structural share should grow: {} -> {}",
        lo.structural_fraction,
        hi.structural_fraction
    );
    // And the unrestricted cache never stalls structurally.
    let inf = run("doduc", &baseline(HwConfig::NoRestrict).at_latency(10));
    assert_eq!(inf.structural_stalls, 0);
    assert_eq!(inf.structural_stall_misses, 0);
}

/// Claim 6: a fully associative cache removes xlisp's conflict misses —
/// lower MCPI, same configuration ordering.
#[test]
fn fully_associative_cache_helps_xlisp() {
    let fa = CacheGeometry::fully_associative(8 * 1024, 32).unwrap();
    let dm_mc1 = run("xlisp", &baseline(HwConfig::Mc(1))).mcpi;
    let fa_mc1 = run("xlisp", &baseline(HwConfig::Mc(1)).with_geometry(fa)).mcpi;
    let fa_inf = run("xlisp", &baseline(HwConfig::NoRestrict).with_geometry(fa)).mcpi;
    assert!(
        fa_mc1 < dm_mc1 / 1.5,
        "associativity should cut xlisp's MCPI: DM {dm_mc1} vs FA {fa_mc1}"
    );
    assert!(fa_mc1 >= fa_inf * 0.999, "ordering maintained under FA");
}

/// Claim 6b: a 64 KB cache scales doduc's MCPI down substantially while
/// preserving the curve ordering — the paper's "remarkably similar graphs"
/// observation (Fig. 16).
#[test]
fn large_cache_scales_but_preserves_ordering() {
    let big = CacheGeometry::direct_mapped(64 * 1024, 32).unwrap();
    let small_inf = run("doduc", &baseline(HwConfig::NoRestrict)).mcpi;
    let big_inf = run("doduc", &baseline(HwConfig::NoRestrict).with_geometry(big)).mcpi;
    let big_mc1 = run("doduc", &baseline(HwConfig::Mc(1)).with_geometry(big)).mcpi;
    let big_mc2 = run("doduc", &baseline(HwConfig::Mc(2)).with_geometry(big)).mcpi;
    assert!(
        big_inf < small_inf / 2.0,
        "64KB should cut MCPI: {small_inf} -> {big_inf}"
    );
    assert!(
        big_mc1 > big_mc2 && big_mc2 >= big_inf,
        "ordering preserved at 64KB"
    );
    assert!(
        big_mc1 > big_inf * 1.5,
        "aggressive organizations still pay off at 64KB: mc1 {big_mc1} vs inf {big_inf}"
    );
}

/// Claim 7: su2cor's same-set conflict fetches make per-set fetch limits
/// expensive: fs=1 ≫ fs=2 ≥ unrestricted (Fig. 15).
#[test]
fn su2cor_needs_multiple_fetches_per_set() {
    let fs1 = run("su2cor", &baseline(HwConfig::Fs(1))).mcpi;
    let fs2 = run("su2cor", &baseline(HwConfig::Fs(2))).mcpi;
    let inf = run("su2cor", &baseline(HwConfig::NoRestrict)).mcpi;
    assert!(
        fs1 > fs2 * 2.0,
        "fs=1 ({fs1}) should be far worse than fs=2 ({fs2})"
    );
    assert!(
        fs2 >= inf * 0.999,
        "fs=2 ({fs2}) at least unrestricted ({inf})"
    );
    // In-cache MSHR storage behaves like fs=1 (one fetch per line), plus
    // the extra misses of claiming the victim line at miss time.
    let incache = run("su2cor", &baseline(HwConfig::InCache)).mcpi;
    assert!(
        incache > fs2,
        "in-cache storage ({incache}) suffers like fs=1 ({fs1})"
    );
}

/// Claim 8: blocking MCPI is linear in the miss penalty; non-blocking
/// MCPI grows super-linearly as overlap capacity exhausts (Fig. 18).
#[test]
fn penalty_scaling_linear_for_blocking_superlinear_for_nonblocking() {
    let p = build("tomcatv", scale()).unwrap();
    let base = SimConfig::baseline(HwConfig::NoRestrict);
    let sweep = SweepEngine::global()
        .penalty_sweep(
            &p,
            &base,
            &[HwConfig::Mc0, HwConfig::NoRestrict],
            &[8, 16, 32],
        )
        .unwrap();
    let m = |c: &str, pen: u32| sweep.at(c, pen).unwrap().mcpi;
    // Blocking: strictly proportional.
    assert!((m("mc=0", 16) / m("mc=0", 8) - 2.0).abs() < 0.05);
    assert!((m("mc=0", 32) / m("mc=0", 16) - 2.0).abs() < 0.05);
    // Unrestricted: the 16 -> 32 doubling costs far more than 2x.
    let growth = m("no restrict", 32) / m("no restrict", 16).max(1e-9);
    assert!(growth > 2.5, "super-linear growth expected, got {growth}");
}

/// Claim 9: MCPI decreases (weakly) with scheduled load latency for the
/// unrestricted cache on a stream benchmark — the compiler's latency
/// scheduling is what unlocks the hardware (the paper's closing point).
#[test]
fn scheduling_for_misses_unlocks_the_hardware() {
    let p = build("tomcatv", scale()).unwrap();
    let base = SimConfig::baseline(HwConfig::NoRestrict);
    let sweep = SweepEngine::global()
        .latency_sweep(&p, &base, &[HwConfig::NoRestrict], &[1, 2, 3, 6, 10, 20])
        .unwrap();
    let curve = sweep.curve(0);
    assert!(
        curve[5] < curve[0] / 3.0,
        "latency-20 schedules should hide most of what latency-1 exposes: {curve:?}"
    );
    for w in curve.windows(2) {
        assert!(
            w[1] <= w[0] * 1.10,
            "tomcatv's curve decreases near-monotonically: {curve:?}"
        );
    }
}

/// Claim 10: the Fig. 14 target-layout gradient — one target field per
/// MSHR suffers on doduc's clustered misses; four explicit fields or
/// word-granular implicit fields recover the unrestricted MCPI.
#[test]
fn target_layout_gradient() {
    use nonblocking_loads::core::limit::Limit;
    use nonblocking_loads::core::mshr::TargetPolicy;
    let m = |p: TargetPolicy| run("doduc", &baseline(HwConfig::Targets(p))).mcpi;
    let one = m(TargetPolicy::explicit(Limit::Finite(1)));
    let four = m(TargetPolicy::explicit(Limit::Finite(4)));
    let implicit4 = m(TargetPolicy::implicit_sub_blocks(4));
    let inf = run("doduc", &baseline(HwConfig::NoRestrict)).mcpi;
    assert!(
        one > four,
        "a single target field must cost something: {one} vs {four}"
    );
    assert!(four <= inf * 1.05, "four explicit fields ≈ unrestricted");
    assert!(
        implicit4 <= inf * 1.05,
        "word-granular implicit fields ≈ unrestricted"
    );
}

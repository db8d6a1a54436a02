//! Seeded property cases: the workspace's one randomized-test harness.
//!
//! A property is a closure over a [`SplitMix64`](crate::rng::SplitMix64).
//! [`check`](crate::prop::check) runs it on `cases` generators whose seeds
//! are the successive outputs of `SplitMix64::new(seed)`, so a suite is
//! fully determined by its seed and case count. When a case panics,
//! `check` re-raises the panic with a message naming the suite, the case
//! index and the case seed, and [`replay`](crate::prop::replay) reruns
//! that one seed alone:
//!
//! ```
//! use nbl_core::prop;
//!
//! prop::check("addition commutes", 64, 0x5eed, |rng| {
//!     let (a, b) = (rng.next_below(1 << 20), rng.next_below(1 << 20));
//!     assert_eq!(a + b, b + a);
//! });
//! ```
//!
//! The harness never panics on its own account: it only propagates the
//! property's panic, with the case named.
//!
//! [`random_inst`](crate::prop::random_inst) is the one random instruction
//! generator the tape, codec and oracle suites share; an
//! [`InstMix`](crate::prop::InstMix) narrows its distribution.

use crate::inst::DynInst;
use crate::rng::SplitMix64;
use crate::types::{AccessSize, Addr, LoadFormat, PhysReg};
use std::any::Any;
use std::panic::{self, AssertUnwindSafe};

/// Runs `property` on `cases` seeded generators. Case `i` gets a fresh
/// [`SplitMix64`] seeded with the `i`-th output of `SplitMix64::new(seed)`.
///
/// # Panics
///
/// Re-raises the first failing case's panic with a message of the form
/// `"{suite}: case {i} of {cases} (seed {case_seed:#x}) failed: {cause}"`,
/// after printing it to stderr.
pub fn check(suite: &str, cases: u32, seed: u64, mut property: impl FnMut(&mut SplitMix64)) {
    let mut seeds = SplitMix64::new(seed);
    for index in 0..cases {
        let case_seed = seeds.next_u64();
        run_case(&mut property, case_seed, |cause| {
            format!("{suite}: case {index} of {cases} (seed {case_seed:#x}) failed: {cause}")
        });
    }
}

/// Reruns the one case of a suite whose generator seed is `case_seed`, as
/// named by a [`check`] failure.
///
/// # Panics
///
/// Re-raises the property's panic with the suite and seed named.
pub fn replay(suite: &str, case_seed: u64, property: impl FnOnce(&mut SplitMix64)) {
    run_case(property, case_seed, |cause| {
        format!("{suite}: replayed seed {case_seed:#x} failed: {cause}")
    });
}

fn run_case(
    property: impl FnOnce(&mut SplitMix64),
    case_seed: u64,
    describe: impl FnOnce(&str) -> String,
) {
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
        property(&mut SplitMix64::new(case_seed));
    }));
    if let Err(payload) = outcome {
        let message = describe(cause(payload.as_ref()));
        eprintln!("{message}");
        panic::resume_unwind(Box::new(message));
    }
}

/// The text of a panic payload (`panic!` with a literal or a format).
fn cause(payload: &(dyn Any + Send)) -> &str {
    payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&str>().copied())
        .unwrap_or("non-text panic payload")
}

/// The shape of a random instruction stream: how often an instruction
/// touches memory and how wide its addresses range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InstMix {
    /// Memory operations per thousand instructions (0 = none, 1000 = all);
    /// half of them are stores.
    pub mem_per_mille: u64,
    /// Addresses are drawn from `0..1 << addr_bits`; a narrow range forces
    /// set reuse.
    pub addr_bits: u32,
}

/// One random instruction of `mix`: a load of any format, a store with or
/// without a data register, a branch, or an ALU operation, over the 64
/// dense physical registers.
pub fn random_inst(rng: &mut SplitMix64, mix: InstMix) -> DynInst {
    let reg = |rng: &mut SplitMix64| PhysReg::from_dense(rng.next_below(64) as usize);
    let maybe_reg = |rng: &mut SplitMix64| (rng.next_below(2) == 1).then(|| reg(rng));
    if rng.next_below(1000) < mix.mem_per_mille {
        let addr = Addr(rng.next_below(1 << mix.addr_bits));
        if rng.next_below(2) == 0 {
            DynInst::load(addr, reg(rng), random_format(rng))
        } else {
            DynInst::store(addr, maybe_reg(rng))
        }
    } else if rng.next_below(4) == 0 {
        DynInst::branch([maybe_reg(rng), maybe_reg(rng)])
    } else {
        DynInst::alu(reg(rng), [maybe_reg(rng), maybe_reg(rng)])
    }
}

/// A random load format, so a tape's format bits take every value.
fn random_format(rng: &mut SplitMix64) -> LoadFormat {
    let size = match rng.next_below(4) {
        0 => AccessSize::B1,
        1 => AccessSize::B2,
        2 => AccessSize::B4,
        _ => AccessSize::B8,
    };
    LoadFormat {
        size,
        sign_extend: rng.next_below(2) == 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The seed of case 3 of the self-test suite below (`seed 0x5eed`).
    const CASE_3_SEED: u64 = 0x70d2_9b6c_7d22_528d;

    /// A property that fails only on the generator seeded with `bad`.
    fn fails_on(bad: u64) -> impl FnMut(&mut SplitMix64) {
        let first_draw = SplitMix64::new(bad).next_u64();
        move |rng| assert_ne!(rng.next_u64(), first_draw, "drew the bad value")
    }

    #[test]
    #[should_panic(expected = "harness self-test: case 3 of 8 (seed 0x70d29b6c7d22528d) failed")]
    fn a_failing_case_is_named_by_index_and_seed() {
        check("harness self-test", 8, 0x5eed, fails_on(CASE_3_SEED));
    }

    #[test]
    #[should_panic(expected = "harness self-test: replayed seed 0x70d29b6c7d22528d failed")]
    fn the_named_seed_alone_reproduces_the_failure() {
        replay("harness self-test", CASE_3_SEED, fails_on(CASE_3_SEED));
    }

    #[test]
    fn every_case_runs_on_its_own_seed() {
        let mut seeds = Vec::new();
        check("seeds", 100, 7, |rng| seeds.push(*rng));
        assert_eq!(seeds.len(), 100);
        let mut outputs = SplitMix64::new(7);
        for seen in seeds {
            assert_eq!(seen, SplitMix64::new(outputs.next_u64()));
        }
        // Another case's seed passes the property that fails on case 3.
        check("harness self-test", 3, 0x5eed, fails_on(CASE_3_SEED));
    }

    #[test]
    fn the_failure_message_carries_the_original_cause() {
        let outcome = panic::catch_unwind(|| {
            check("cause", 1, 0, |_| assert_eq!(1 + 1, 3, "arithmetic"));
        });
        let payload = outcome.expect_err("the property fails");
        let message = cause(payload.as_ref());
        assert!(
            message.starts_with("cause: case 0 of 1 (seed 0x"),
            "{message}"
        );
        assert!(message.contains("arithmetic"), "{message}");
    }

    #[test]
    fn inst_mix_bounds_the_stream() {
        let mut rng = SplitMix64::new(1);
        let mut stream = |mem_per_mille, addr_bits| -> Vec<DynInst> {
            let mix = InstMix {
                mem_per_mille,
                addr_bits,
            };
            (0..500).map(|_| random_inst(&mut rng, mix)).collect()
        };
        assert!(stream(0, 20).iter().all(|i| !i.is_mem()));
        let all = stream(1000, 11);
        assert!(all.iter().all(DynInst::is_mem));
        assert!(all.iter().any(DynInst::is_load) && all.iter().any(DynInst::is_store));
    }
}

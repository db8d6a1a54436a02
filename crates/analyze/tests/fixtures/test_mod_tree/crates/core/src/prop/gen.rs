//! A submodule of the test-only `prop`: test code too.

fn sample() -> u32 {
    Some(3).expect("fixture")
}

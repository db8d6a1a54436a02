//! Declared without a cfg: live code, still linted.

fn live() -> u32 {
    Some(2).unwrap()
}

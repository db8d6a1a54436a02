//! Declared `#[cfg(all(test, feature = "prop"))]`: test-only as a whole.

mod gen;

fn check() {
    let v: Option<u32> = Some(1);
    v.unwrap();
}

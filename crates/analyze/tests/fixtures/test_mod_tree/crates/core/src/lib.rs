//! Fixture: modules declared under a test cfg are test code, file and all.

#[cfg(all(test, feature = "prop"))]
mod prop;

mod live;

/// Documented public API.
pub fn api() {}

//! Fixture ledger declarations: `Clock` is deliberately unwired, and the
//! tag port's entry points are `hit_decoded` and `install`.

/// Replacement-policy selector (fixture copy).
pub enum ReplacementKind {
    /// Least recently used.
    Lru,
    /// First in, first out.
    Fifo,
    /// Seeded random.
    Random,
    /// Tree pseudo-LRU.
    TreePlru,
    /// Added but not wired through any consumer surface.
    Clock,
}

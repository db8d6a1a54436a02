//! Fixture surface: the reference machine models Lru, Fifo, Random and
//! TreePlru — but not the newly added variant.

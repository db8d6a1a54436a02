//! Fixture L1: fills through `install` but keeps a tag probe of its own,
//! the split the tag-port ledger entry reports.

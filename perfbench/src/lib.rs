//! The uavca benchmark: four seeded closed-loop workloads, an untraced
//! run that prints the end-to-end metrics and a traced run that prints
//! per-crate attribution. See `README.md` beside this crate.

#![forbid(unsafe_code)]
// A benchmark exists to read the wall clock (the workspace bench crate
// is carved out of audit rule A2 the same way).
#![allow(clippy::disallowed_methods)]

pub mod bench;
pub mod drive;
pub mod fleet;
pub mod ga;
pub mod multi;
pub mod paired;
pub mod replay;
pub mod trace;
pub mod wrap;

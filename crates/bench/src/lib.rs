//! Shared harness code for the benchmark and table-regeneration
//! binaries (`table2`, `figure1`, `ablations`).
//!
//! The binaries print the rows the paper reports. This library holds
//! the pieces they share: workload selection, accuracy metrics and
//! table formatting.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod accuracy;
pub mod table;
pub mod workload;

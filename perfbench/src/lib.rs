//! The fastbar benchmark: two workloads, their end-to-end metrics, and a
//! traced run that splits host cost by layer. `src/main.rs` is the
//! command; the library holds its parts so the tests can drive them.

pub mod counters;
pub mod host;
pub mod kernel;
pub mod pass;
pub mod report;
pub mod sink;
pub mod spans;
pub mod workload;

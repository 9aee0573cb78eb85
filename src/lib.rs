//! `fastbar` — a reproduction of *"Exploiting Fine-Grained Data Parallelism
//! with Chip Multiprocessors and Fast Barriers"* (Sampson, González, Collard,
//! Jouppi, Schlansker, Calder — MICRO 2006).
//!
//! This facade crate re-exports the workspace members:
//!
//! * [`sim_isa`] — the MiniRISC instruction set and assembler;
//! * [`cmp_sim`] — the event-driven cycle-level CMP simulator;
//! * [`barrier_filter`] — the paper's contribution: barrier filters, plus the
//!   software and dedicated-network baseline barrier mechanisms;
//! * [`kernels`] — the fine-grained data-parallel kernels the paper
//!   evaluates (Livermore loops 2/3/6, EEMBC-like autocorrelation and
//!   Viterbi);
//! * [`analyze`] — the static MiniRISC program verifier and the dynamic
//!   happens-before race detector for barrier kernels.
//!
//! See `examples/quickstart.rs` for the fastest route to a running
//! simulation, and the `bench-suite` crate for the `fastbar` binary that
//! regenerates every table and figure of the paper.

pub use analyze;
pub use barrier_filter;
pub use cmp_sim;
pub use kernels;
pub use sim_isa;

/// README.md's `rust` code blocks, compiled and run as doctests so the
/// API tour cannot rot.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;

/// Commonly needed items in one import: machine construction, the barrier
/// mechanisms, the shared [`Measurement`](cmp_sim::Measurement) record
/// every benchmark layer reports, the fault-injection surface, and the
/// [`RunSpec`](kernels::RunSpec) job description — the one serializable
/// value behind every run, from a single kernel call to the cells of the
/// `fastbar` experiment grids.
pub mod prelude {
    pub use barrier_filter::{BarrierMechanism, BarrierSystem};
    pub use cmp_sim::{
        fnv64, run_with_faults, FaultKind, FaultPlan, FaultReport, Json, Machine, MachineBuilder,
        Measurement, SimConfig, SimError,
    };
    pub use kernels::{
        run, run_with, ExecSpec, FaultSpec, KernelError, KernelOutcome, RunAttachments, RunOutput,
        RunSpec, WorkloadSpec,
    };
    pub use sim_isa::{Asm, FReg, Instr, MemWidth, Program, Reg};
}

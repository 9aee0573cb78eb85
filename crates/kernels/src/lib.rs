//! Fine-grained data-parallel kernels for the barrier-filter evaluation.
//!
//! These are the workloads of §4 of the paper, written in MiniRISC assembly
//! from the code the paper prints, each with
//!
//! * a seeded input generator,
//! * a host-Rust reference implementation,
//! * a *sequential* simulated version (the paper's baseline: the same
//!   kernel on a single core, no synchronization), and
//! * the paper's *parallel* decomposition, parameterized by any
//!   [`BarrierMechanism`](barrier_filter::BarrierMechanism),
//!
//! and every simulated run is validated against the host reference before a
//! cycle count is reported.
//!
//! | module | paper workload |
//! |---|---|
//! | [`livermore::Loop1`] | Livermore Kernel 1 (hydro — embarrassingly parallel contrast case) |
//! | [`livermore::Loop2`] | Livermore Kernel 2 (ICCG excerpt), Figure 7 |
//! | [`livermore::Loop3`] | Livermore Kernel 3 (inner product), Figure 8 |
//! | [`livermore::Loop6`] | Livermore Kernel 6 (linear recurrence), Figure 10 |
//! | [`autocorr::Autocorr`] | EEMBC-like fixed-point autocorrelation (lag 32), Figure 5 |
//! | [`viterbi::Viterbi`] | EEMBC-like K=7 rate-1/2 Viterbi decoder, Figure 6 |
//! | [`ocean::OceanProxy`] | §4.1 coarse-grained (SPLASH-2 Ocean-like) contrast case |
//!
//! Every run, whatever the kernel, is a [`RunSpec`] handed to [`run`] (or
//! to [`run_with`] with in-process [`RunAttachments`]).
//!
//! # Example
//!
//! ```
//! use barrier_filter::BarrierMechanism;
//! use kernels::{RunSpec, WorkloadSpec};
//!
//! # fn main() -> Result<(), kernels::KernelError> {
//! let loop3 = WorkloadSpec::Loop3 { n: 256 };
//! let seq = kernels::run(&RunSpec::sequential(loop3))?.outcome;
//! let par = kernels::run(&RunSpec::parallel(loop3, 16, BarrierMechanism::FilterI))?.outcome;
//! // at vector length 256 the filter barrier clearly beats sequential
//! assert!(par.cycles_per_rep < seq.cycles_per_rep);
//! # Ok(())
//! # }
//! ```

pub mod autocorr;
mod error;
pub mod fig4;
mod harness;
pub mod input;
pub mod livermore;
pub mod ocean;
pub mod spec;
pub mod viterbi;

pub use autocorr::Autocorr;
pub use error::KernelError;
pub use fig4::Fig4;
pub use harness::{KernelOutcome, CYCLE_LIMIT, REPS};
pub use ocean::OceanProxy;
pub use spec::{
    run, run_with, ExecSpec, FaultSpec, RunAttachments, RunOutput, RunSpec, WorkloadSpec,
    SPEC_SCHEMA,
};
pub use viterbi::Viterbi;

//! Chaos sweep: barrier recovery under deterministic fault injection.
//!
//! §3.3.3 claims the barrier filter tolerates OS interference — parked
//! threads can be context-switched out, delayed, or migrated (with the
//! filters re-armed through the reprogram path) and the barrier still
//! functions. This sweep measures that claim: every point is a
//! [`RunSpec`] that drives a real kernel (Viterbi, Livermore Loop 2)
//! through a seeded [`FaultSpec`](kernels::FaultSpec) and demands three
//! things of the run:
//!
//! 1. **Validated output** — the kernel's own host-reference check passes
//!    even with faults injected mid-episode.
//! 2. **Quiescent filters** — after the run, no filter table holds a
//!    parked fill (checked by the kernel harness).
//! 3. **Bit-identical replay** — the same spec reproduces the same
//!    [`Measurement`](cmp_sim::Measurement) and fault report, run for run.
//!
//! A zero-fault point is the plain (never-faulted) run itself; on the
//! barriers that never park, every faulted point must be bit-identical
//! to it, so the injector is proven to be a pure observer when it finds
//! nothing to do.

use barrier_filter::BarrierMechanism;
use cmp_sim::{FaultReport, Lcg};
use kernels::{RunOutput, RunSpec, WorkloadSpec};

use crate::kernel_runs::{run_specs, viterbi};
use crate::sweep::SweepRunner;

/// One kernel the chaos sweep drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosWorkload {
    /// EEMBC Viterbi (K=5): fine-grained episodes, filter-heavy.
    Viterbi,
    /// Livermore Loop 2: halving parallelism, idle threads at late stages.
    Loop2,
}

impl ChaosWorkload {
    /// Both workloads, in sweep order.
    pub const ALL: [ChaosWorkload; 2] = [ChaosWorkload::Viterbi, ChaosWorkload::Loop2];

    /// The fault-free spec of this workload under `mechanism` (`quick`
    /// shrinks it for smoke runs; at full size the Viterbi/FilterD spec
    /// is the committed `viterbi_k5_16t` throughput workload).
    pub fn spec(self, quick: bool, mechanism: BarrierMechanism) -> RunSpec {
        let (workload, threads) = match (self, quick) {
            (ChaosWorkload::Viterbi, true) => (viterbi(24), 8),
            (ChaosWorkload::Viterbi, false) => (viterbi(96), 16),
            (ChaosWorkload::Loop2, true) => (WorkloadSpec::Loop2 { n: 64 }, 8),
            (ChaosWorkload::Loop2, false) => (WorkloadSpec::Loop2 { n: 256 }, 16),
        };
        RunSpec::parallel(workload, threads, mechanism)
    }
}

/// Derive a per-point plan seed from the master seed and the point's grid
/// coordinates, so every point gets an independent (but replayable)
/// schedule.
fn plan_seed(
    seed: u64,
    workload: ChaosWorkload,
    mechanism: BarrierMechanism,
    faults: usize,
) -> u64 {
    let w = ChaosWorkload::ALL
        .iter()
        .position(|&x| x == workload)
        .expect("known workload") as u64;
    let m = BarrierMechanism::ALL
        .iter()
        .position(|&x| x == mechanism)
        .expect("known mechanism") as u64;
    Lcg::new(seed ^ (w << 48) ^ (m << 40) ^ faults as u64).next_u64()
}

/// Run the full sweep: `levels` fault counts × every [`BarrierMechanism`]
/// × both workloads, on `runner`, returning each point's spec and output
/// in workload × mechanism × fault-level order. A faulted point is its
/// workload's spec [`with_faults`](RunSpec::with_faults) spread over the
/// baseline's cycle count; it runs **twice** and the two outputs must
/// match bit-for-bit. A zero-fault level is the fault-free baseline run.
///
/// # Errors
///
/// Any run that fails to complete, validate or leave its filters
/// quiescent, a replay that diverges, or a fault that is not a no-op on a
/// barrier that never parks — each of those falsifies §3.3.3.
pub fn run_chaos(
    runner: &SweepRunner,
    quick: bool,
    levels: &[usize],
    seed: u64,
) -> Result<Vec<(RunSpec, RunOutput)>, String> {
    let grid: Vec<(ChaosWorkload, BarrierMechanism)> = ChaosWorkload::ALL
        .into_iter()
        .flat_map(|w| BarrierMechanism::ALL.into_iter().map(move |m| (w, m)))
        .collect();
    // Baselines first: they pin the fault horizon (events must land inside
    // the run, not after it) and the zero-fault points.
    let specs: Vec<RunSpec> = grid.iter().map(|&(w, m)| w.spec(quick, m)).collect();
    let baselines = run_specs(runner, &specs)?;

    let cells: Vec<(usize, usize)> = (0..grid.len())
        .flat_map(|i| levels.iter().map(move |&faults| (i, faults)))
        .collect();
    runner
        .run_all(&cells, |_, &(i, faults)| {
            let (w, m) = grid[i];
            let (spec, baseline) = &baselines[i];
            let label = format!("{} {m} x{faults}", spec.workload.kind());
            if faults == 0 {
                if baseline.faults != FaultReport::default() {
                    return Err(format!("{label}: the empty plan injected a fault"));
                }
                return Ok((*spec, baseline.clone()));
            }
            let ps = plan_seed(seed, w, m, faults);
            let faulted = spec.with_faults(ps, faults, baseline.outcome.sim.cycles);
            let run = || kernels::run(&faulted).map_err(|e| format!("{label}: {e}"));
            let (first, second) = (run()?, run()?);
            if (first.outcome.sim, first.faults) != (second.outcome.sim, second.faults) {
                return Err(format!("{label}: replay from seed {ps:#x} diverged"));
            }
            // Non-filter barriers never park, so every fault is a counted
            // no-op and the run must be bit-identical to the baseline.
            if !m.is_filter()
                && (first.faults.injected != 0 || first.outcome.sim != baseline.outcome.sim)
            {
                return Err(format!("{label}: faults must be no-ops"));
            }
            Ok((faulted, first))
        })?
        .into_iter()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_seeds_are_stable_and_distinct_per_cell() {
        let a = plan_seed(1, ChaosWorkload::Viterbi, BarrierMechanism::FilterD, 4);
        assert_eq!(
            a,
            plan_seed(1, ChaosWorkload::Viterbi, BarrierMechanism::FilterD, 4)
        );
        assert_ne!(
            a,
            plan_seed(1, ChaosWorkload::Loop2, BarrierMechanism::FilterD, 4)
        );
        assert_ne!(
            a,
            plan_seed(1, ChaosWorkload::Viterbi, BarrierMechanism::FilterI, 4)
        );
        assert_ne!(
            a,
            plan_seed(2, ChaosWorkload::Viterbi, BarrierMechanism::FilterD, 4)
        );
    }
}

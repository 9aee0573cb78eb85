//! The Figure 4 micro-benchmark machine: average time per barrier over a
//! loop of consecutive barriers with no work between them (the
//! methodology of §4.2, following Culler/Singh/Gupta).
//!
//! The workload itself lives in the kernels crate as [`Fig4`], addressed
//! — like every other workload — by a serializable [`RunSpec`]; a run
//! through [`kernels::run_with`] reports cycles per barrier as its
//! `cycles_per_rep`. This module only splits the build from the run, for
//! callers that time or step the simulation on its own.

use cmp_sim::Machine;
use kernels::{Fig4, KernelError, RunAttachments, RunSpec, WorkloadSpec};

/// Build (but do not run) the Figure 4 machine described by `spec`, with
/// attachments (trace selection, observer hooks, engine choice). Split
/// from the run so a benchmark can time only the simulation.
///
/// # Errors
///
/// [`KernelError::Spec`] if the workload is not `fig4` (or is sequential,
/// or would fall back); barrier/assembly/build failures otherwise.
pub fn fig4_machine_with(
    spec: &RunSpec,
    att: &mut RunAttachments<'_>,
) -> Result<Machine, KernelError> {
    spec.validate()?;
    match spec.workload {
        WorkloadSpec::Fig4 { inner, outer } => Fig4::new(inner, outer).build(&spec.exec, att),
        ref other => Err(KernelError::Spec(format!(
            "latency measurement wants a fig4 workload, got {}",
            other.kind()
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use barrier_filter::BarrierMechanism;

    #[test]
    fn latency_is_positive_and_scales() {
        let cycles_per_barrier = |cores| {
            let spec = RunSpec::fig4(BarrierMechanism::FilterD, cores, 8, 2);
            kernels::run(&spec).unwrap().outcome.cycles_per_rep
        };
        let (c4, c16) = (cycles_per_barrier(4), cycles_per_barrier(16));
        assert!(c4 > 0.0);
        assert!(c16 > c4, "more threads -> more work per episode");
    }

    #[test]
    fn fig4_machines_have_the_harness_cycle_limit() {
        let spec = RunSpec::fig4(BarrierMechanism::SwCentral, 4, 2, 1);
        let m = fig4_machine_with(&spec, &mut RunAttachments::default()).unwrap();
        assert_eq!(m.config().cycle_limit, kernels::CYCLE_LIMIT);
    }

    #[test]
    fn non_fig4_specs_are_rejected() {
        let spec = RunSpec::parallel(WorkloadSpec::Loop1 { n: 64 }, 4, BarrierMechanism::FilterD);
        let built = fig4_machine_with(&spec, &mut RunAttachments::default());
        assert!(matches!(built, Err(KernelError::Spec(_))));
    }
}

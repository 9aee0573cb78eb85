//! The Figure 4 barrier micro-benchmark as a kernel: `inner` consecutive
//! barriers with no work between them, repeated `outer` times (the
//! methodology of §4.2, following Culler/Singh/Gupta).
//!
//! As a [`WorkloadSpec`](crate::WorkloadSpec) workload it is addressable
//! by the same [`RunSpec`](crate::RunSpec) value as every other kernel,
//! so the Figure 4 table, the pinned `fig4_16core` workload and the
//! scaling sweep all share one description, and it builds its machine
//! through the same harness path as every other kernel.

use cmp_sim::{Machine, SimConfig};
use sim_isa::Reg;

use crate::harness::KernelBuild;
use crate::spec::{ExecSpec, RunAttachments, RunOutput};
use crate::KernelError;

/// The micro-benchmark shape: `inner` consecutive barriers, `outer`
/// repetitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fig4 {
    inner: u64,
    outer: u64,
}

impl Fig4 {
    /// `inner`×`outer` barrier episodes (the paper uses 64 × 64).
    pub fn new(inner: u64, outer: u64) -> Fig4 {
        Fig4 { inner, outer }
    }

    /// Total barrier episodes per run.
    pub fn episodes(&self) -> u64 {
        self.inner * self.outer
    }

    /// Build (but do not run) the micro-benchmark machine for `exec`.
    /// Split out from [`run_with`](Fig4::run_with) so a benchmark can
    /// time only the `run()` call.
    ///
    /// # Errors
    ///
    /// Spec/barrier/assembly/build failures; [`KernelError::Spec`] if the
    /// mechanism would fall back (a latency sweep of the fallback barrier
    /// would mislabel the measurement).
    pub fn build(
        &self,
        exec: &ExecSpec,
        att: &mut RunAttachments<'_>,
    ) -> Result<Machine, KernelError> {
        self.build_on(exec.config(), exec, att)
    }

    /// [`build`](Fig4::build) on `config` instead of `exec`'s topology
    /// preset, for machine parameters no preset varies (the ablations'
    /// cache latencies and bus bandwidths). `config` needs at least
    /// `exec.threads` cores.
    ///
    /// # Errors
    ///
    /// As for [`build`](Fig4::build).
    pub fn build_on(
        &self,
        config: SimConfig,
        exec: &ExecSpec,
        att: &mut RunAttachments<'_>,
    ) -> Result<Machine, KernelError> {
        if exec.mechanism.is_none() {
            return Err(KernelError::Spec(
                "fig4 measures a barrier; it has no sequential form".into(),
            ));
        }
        let (mut b, barrier) = KernelBuild::on(config, exec, att)?;
        let barrier = barrier.expect("mechanism checked above");
        if barrier.is_fallback() {
            return Err(KernelError::Spec(
                "fig4 must not measure a fallback barrier".into(),
            ));
        }
        let asm = &mut b.asm;
        asm.label("entry")?;
        asm.li(Reg::S0, self.outer as i64);
        asm.label("outer")?;
        asm.li(Reg::S1, self.inner as i64);
        asm.label("inner")?;
        barrier.emit_call(asm);
        asm.addi(Reg::S1, Reg::S1, -1);
        asm.bne(Reg::S1, Reg::ZERO, "inner");
        asm.addi(Reg::S0, Reg::S0, -1);
        asm.bne(Reg::S0, Reg::ZERO, "outer");
        asm.halt();
        b.finish(|_| {})
    }

    /// Build and run under `exec`, with per-repetition cost reported per
    /// barrier episode ([`cycles_per_rep`](crate::KernelOutcome) =
    /// cycles/barrier).
    ///
    /// # Errors
    ///
    /// Build or simulation failures.
    pub fn run_with(
        &self,
        exec: &ExecSpec,
        mut att: RunAttachments<'_>,
    ) -> Result<RunOutput, KernelError> {
        let mut m = self.build(exec, &mut att)?;
        let (outcome, faults) = crate::spec::run_spec_reps(&mut m, self.episodes(), exec)?;
        Ok(RunOutput {
            outcome,
            faults,
            program: m.program().clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RunSpec;
    use barrier_filter::BarrierMechanism;

    #[test]
    fn cycles_per_rep_is_cycles_per_barrier() {
        let spec = RunSpec::fig4(BarrierMechanism::FilterD, 4, 8, 2);
        let out = crate::run(&spec).unwrap();
        let per_barrier = out.outcome.sim.cycles as f64 / 16.0;
        assert!((out.outcome.cycles_per_rep - per_barrier).abs() < 1e-9);
        assert!(out.outcome.cycles_per_rep > 0.0);
    }

    #[test]
    fn sequential_fig4_is_rejected() {
        let err = Fig4::new(8, 2)
            .run_with(&ExecSpec::sequential(), RunAttachments::default())
            .unwrap_err();
        assert!(matches!(err, KernelError::Spec(_)));
    }
}

//! Kernel constructors and the model-checker's barrier emission, split
//! from the calls that run them so the benchmark can time set-up on its
//! own.

use barrier_filter::{BarrierMechanism, BarrierSystem, ProtocolSpec};
use cmp_sim::{AddressSpace, SimConfig};
use kernels::livermore::{Loop1, Loop2, Loop3, Loop4, Loop6};
use kernels::{
    Autocorr, ExecSpec, KernelError, OceanProxy, RunAttachments, RunOutput, Viterbi, WorkloadSpec,
};
use sim_isa::{Asm, Program};

/// A constructed kernel: its inputs and host reference, ready to run
/// under any `ExecSpec`. Kernel operations call the kernel's own
/// `run_with` (what `kernels::run_with` calls after the constructor) so
/// the constructor is timed on its own.
pub enum Kernel {
    /// Livermore Loop 1.
    Loop1(Loop1),
    /// Livermore Loop 2.
    Loop2(Loop2),
    /// Livermore Loop 3.
    Loop3(Loop3),
    /// Livermore Loop 4.
    Loop4(Loop4),
    /// Livermore Loop 6.
    Loop6(Loop6),
    /// Autocorrelation.
    Autocorr(Autocorr),
    /// Viterbi decoder.
    Viterbi(Viterbi),
    /// Ocean-like stencil.
    Ocean(OceanProxy),
}

impl Kernel {
    /// Run the kernel constructor for `w`.
    ///
    /// # Panics
    ///
    /// On the Figure 4 loop and Loop 5, which no kernel operation runs.
    pub fn new(w: WorkloadSpec) -> Kernel {
        match w {
            WorkloadSpec::Loop1 { n } => Kernel::Loop1(Loop1::new(n)),
            WorkloadSpec::Loop2 { n } => Kernel::Loop2(Loop2::new(n)),
            WorkloadSpec::Loop3 { n } => Kernel::Loop3(Loop3::new(n)),
            WorkloadSpec::Loop4 { n } => Kernel::Loop4(Loop4::new(n)),
            WorkloadSpec::Loop6 { n } => Kernel::Loop6(Loop6::new(n)),
            WorkloadSpec::Autocorr { n, lags } => Kernel::Autocorr(Autocorr::with_lags(n, lags)),
            WorkloadSpec::Viterbi {
                constraint,
                data_bits,
                noise_per_mille,
            } => Kernel::Viterbi(Viterbi::with_params(constraint, data_bits, noise_per_mille)),
            WorkloadSpec::Ocean { grid, sweeps } => Kernel::Ocean(OceanProxy::new(grid, sweeps)),
            WorkloadSpec::Fig4 { .. } | WorkloadSpec::Loop5 { .. } => {
                unreachable!("no kernel operation runs {}", w.kind())
            }
        }
    }

    /// Build, run and validate the kernel under `exec`.
    ///
    /// # Errors
    ///
    /// The kernel's build, simulation or validation failure.
    pub fn run_with(
        &self,
        exec: &ExecSpec,
        att: RunAttachments<'_>,
    ) -> Result<RunOutput, KernelError> {
        match self {
            Kernel::Loop1(k) => k.run_with(exec, att),
            Kernel::Loop2(k) => k.run_with(exec, att),
            Kernel::Loop3(k) => k.run_with(exec, att),
            Kernel::Loop4(k) => k.run_with(exec, att),
            Kernel::Loop6(k) => k.run_with(exec, att),
            Kernel::Autocorr(k) => k.run_with(exec, att),
            Kernel::Viterbi(k) => k.run_with(exec, att),
            Kernel::Ocean(k) => k.run_with(exec, att),
        }
    }
}

/// Emit `mechanism`'s barrier for `cores` flat cores through the real
/// registration path, as the verify grid's model-checker cells do.
///
/// # Errors
///
/// Why the flat topology cannot host the mechanism; the cell is then
/// skipped.
pub fn emit_mc_routine(
    mechanism: BarrierMechanism,
    cores: usize,
) -> Result<(Program, ProtocolSpec), String> {
    let config = SimConfig::with_cores(cores);
    let mut space = AddressSpace::new(&config);
    let mut asm = Asm::new();
    let mut sys =
        BarrierSystem::new(&config, cores, &mut space).map_err(|e| format!("topology: {e}"))?;
    let barrier = sys
        .create_barrier(&mut asm, &mut space, mechanism, cores)
        .map_err(|e| format!("topology: {e}"))?;
    if barrier.is_fallback() {
        return Err(format!("topology: {cores} flat cores fall back"));
    }
    asm.label("entry").map_err(|e| format!("assembly: {e}"))?;
    barrier.emit_call(&mut asm);
    asm.halt();
    let program = asm.assemble().map_err(|e| format!("assembly: {e}"))?;
    Ok((program, barrier.protocol().clone()))
}

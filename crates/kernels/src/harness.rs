//! Shared plumbing for building and timing kernel runs.

use barrier_filter::BarrierSystem;
use cmp_sim::{
    run_with_faults, AddressSpace, DecodeCacheStats, FaultPlan, FaultReport, FusedMemStats,
    Machine, MachineBuilder, Measurement, SimConfig, TraceSink,
};
use sim_isa::{Asm, Reg};

use crate::KernelError;

/// Repetitions of a kernel per measured run. The first repetition warms the
/// caches; the reported [`KernelOutcome::cycles_per_rep`] averages over all
/// of them (the paper's methodology runs each loop "many times", so the
/// steady-state cost must dominate cold misses).
pub const REPS: u64 = 24;

/// The cycle limit of every kernel machine: a livelocked barrier fails
/// with [`SimError::CycleLimitExceeded`](cmp_sim::SimError) instead of
/// spinning forever.
pub const CYCLE_LIMIT: u64 = 20_000_000_000;

/// Result of one validated kernel run: the shared [`Measurement`] record
/// (cycles, instructions, digest, episode metrics) plus the kernel-level
/// per-repetition figure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelOutcome {
    /// The simulated-run record shared with every other measurement layer.
    pub sim: Measurement,
    /// Cycles per kernel repetition.
    pub cycles_per_rep: f64,
    /// Instructions the run retired through core-step bursts
    /// ([`Machine::burst_retired`]). A host-side engine metric: it is zero
    /// on the reference engine
    /// ([`SimConfig::reference_engine`](cmp_sim::SimConfig::reference_engine))
    /// while `sim` stays bit-identical, so it lives outside
    /// [`Measurement`].
    pub bursts: u64,
    /// Always zero. Kept only so that the repository benchmark
    /// (`perfbench/`), which reads it, builds.
    pub decode: DecodeCacheStats,
    /// Always zero. Kept only so that the repository benchmark
    /// (`perfbench/`), which reads it, builds.
    pub fused: FusedMemStats,
    /// Mean wait on the more contended of the two shared buses
    /// (address/data), in cycles per access — the Figure 4 saturation
    /// signal, reported here so latency-style measurements can be read
    /// straight off a kernel outcome.
    pub bus_mean_wait: f64,
}

/// Everything a kernel needs while emitting itself.
pub(crate) struct KernelBuild {
    pub config: SimConfig,
    pub space: AddressSpace,
    pub asm: Asm,
    pub sys: Option<BarrierSystem>,
    /// The trace sink to attach, if any (e.g. the race detector). Sinks
    /// are observers: tracing a kernel never changes its outcome.
    pub sink: Option<Box<dyn TraceSink>>,
    pub threads: usize,
}

impl KernelBuild {
    /// Sequential build: one thread, no barrier system.
    pub fn sequential() -> KernelBuild {
        let config = SimConfig::with_cores(1);
        let space = AddressSpace::new(&config);
        KernelBuild {
            config,
            space,
            asm: Asm::new(),
            sys: None,
            sink: None,
            threads: 1,
        }
    }

    /// Assemble, initialize memory via `init`, add the threads at label
    /// `entry`, and build the machine.
    ///
    /// # Errors
    ///
    /// Assembly or machine-construction failures.
    pub fn finish(self, init: impl FnOnce(&mut MachineBuilder)) -> Result<Machine, KernelError> {
        let program = self.asm.assemble()?;
        let entry = program.require_symbol("entry")?;
        let mut config = self.config;
        config.cycle_limit = CYCLE_LIMIT;
        let mut mb = MachineBuilder::new(config, program)?;
        init(&mut mb);
        if let Some(sink) = self.sink {
            mb.with_trace_sink(sink);
        }
        for _ in 0..self.threads {
            mb.add_thread(entry);
        }
        if let Some(sys) = self.sys {
            sys.install(&mut mb)?;
        }
        Ok(mb.build()?)
    }
}

/// Run a machine for a kernel of `reps` repetitions through a
/// [`FaultPlan`] (possibly empty — an empty plan is bit-identical to a
/// plain run) and require the filter hooks to be quiescent afterwards — the chaos
/// harness's graceful-degradation contract (§3.3.3).
///
/// # Errors
///
/// Propagates simulator errors; [`KernelError::Validation`] if any filter
/// table still holds parked state after the run.
pub(crate) fn run_reps_faulted(
    machine: &mut Machine,
    reps: u64,
    plan: &FaultPlan,
) -> Result<(KernelOutcome, FaultReport), KernelError> {
    let (summary, report) = run_with_faults(machine, plan)?;
    if !machine.hooks_quiescent() {
        return Err(KernelError::Validation(
            "filter tables not quiescent after a faulted run".into(),
        ));
    }
    let stats = machine.stats();
    Ok((
        KernelOutcome {
            sim: Measurement::new(&summary, &stats),
            cycles_per_rep: summary.cycles as f64 / reps as f64,
            bursts: machine.burst_retired(),
            decode: DecodeCacheStats::default(),
            fused: FusedMemStats::default(),
            bus_mean_wait: stats.addr_bus.mean_wait().max(stats.data_bus.mean_wait()),
        },
        report,
    ))
}

/// Emit the standard repetition wrapper: `s5` counts down `reps`
/// repetitions of the code emitted by `body`. The body must leave `s5`
/// intact. Defines the `entry` label and ends with `halt`.
///
/// # Errors
///
/// Assembler label failures.
pub(crate) fn emit_rep_loop(
    a: &mut Asm,
    reps: u64,
    body: impl FnOnce(&mut Asm) -> Result<(), KernelError>,
) -> Result<(), KernelError> {
    a.label("entry")?;
    a.li(Reg::S5, reps as i64);
    a.label("rep_loop")?;
    body(a)?;
    a.addi(Reg::S5, Reg::S5, -1);
    a.bne(Reg::S5, Reg::ZERO, "rep_loop");
    a.halt();
    Ok(())
}

/// The paper partitions arrays "in chunks of at least 8 doubles, as that is
/// the size of a cache line" (§4.4): elements per thread, floored at one
/// cache line's worth.
pub(crate) fn chunk_for(n: usize, threads: usize, min: usize) -> usize {
    (n.div_ceil(threads)).max(min)
}

/// Compare two f64 slices with a relative tolerance, returning a
/// human-readable mismatch description.
pub(crate) fn check_f64(
    what: &str,
    got: &[f64],
    want: &[f64],
    rel_tol: f64,
) -> Result<(), KernelError> {
    assert_eq!(got.len(), want.len(), "validation length mismatch");
    for (i, (&g, &w)) in got.iter().zip(want).enumerate() {
        let scale = w.abs().max(1.0);
        if (g - w).abs() > rel_tol * scale {
            return Err(KernelError::Validation(format!(
                "{what}[{i}] = {g}, expected {w}"
            )));
        }
    }
    Ok(())
}

/// Compare two u64 slices exactly.
pub(crate) fn check_u64(what: &str, got: &[u64], want: &[u64]) -> Result<(), KernelError> {
    assert_eq!(got.len(), want.len(), "validation length mismatch");
    for (i, (&g, &w)) in got.iter().zip(want).enumerate() {
        if g != w {
            return Err(KernelError::Validation(format!(
                "{what}[{i}] = {g}, expected {w}"
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunking_honours_cache_line_floor() {
        assert_eq!(chunk_for(256, 16, 8), 16);
        assert_eq!(chunk_for(64, 16, 8), 8, "floored at 8 doubles");
        assert_eq!(chunk_for(17, 4, 8), 8);
        assert_eq!(chunk_for(1000, 16, 8), 63);
    }

    #[test]
    fn f64_check_tolerates_rounding() {
        check_f64("x", &[1.0 + 1e-12], &[1.0], 1e-9).unwrap();
        assert!(check_f64("x", &[1.1], &[1.0], 1e-9).is_err());
    }

    #[test]
    fn u64_check_is_exact() {
        check_u64("r", &[5], &[5]).unwrap();
        let err = check_u64("r", &[5], &[6]).unwrap_err();
        assert!(err.to_string().contains("r[0]"));
    }
}

//! Coarse-grained contrast case (§4.1): a SPLASH-2 Ocean-like iterative
//! stencil.
//!
//! The paper found that SPLASH-2 benchmarks "only took advantage of
//! coarse-grain barrier parallelism" — Ocean executes "only hundreds of
//! dynamic barriers versus tens of millions of instructions per thread",
//! so barriers are under 4% of execution time and a filter barrier improves
//! the whole program by only ≈3.5%. This proxy reproduces that regime: a
//! red-black Gauss–Seidel relaxation over a grid, row-partitioned, two
//! barriers per sweep, with per-barrier work that dwarfs barrier latency.

use barrier_filter::{Barrier, BarrierMechanism};
use sim_isa::{Asm, FReg, Reg};

use crate::harness::{check_f64, KernelBuild, KernelOutcome};
use crate::spec::{run_spec_reps, ExecSpec, RunAttachments, RunOutput};
use crate::{input, KernelError};

/// A red-black Gauss–Seidel stencil on a `g`×`g` grid for `sweeps` sweeps.
#[derive(Debug, Clone)]
pub struct OceanProxy {
    g: usize,
    sweeps: usize,
    u0: Vec<f64>,
}

impl OceanProxy {
    /// Grid of side `g` (≥ 4), `sweeps` relaxation sweeps.
    ///
    /// # Panics
    ///
    /// Panics if `g < 4`.
    pub fn new(g: usize, sweeps: usize) -> OceanProxy {
        assert!(g >= 4, "grid too small");
        OceanProxy {
            g,
            sweeps,
            u0: input::f64_vec(0x0c_01, g * g, 0.0, 1.0),
        }
    }

    /// Grid side.
    pub fn g(&self) -> usize {
        self.g
    }

    /// Number of dynamic barriers a parallel run executes.
    pub fn dynamic_barriers(&self) -> usize {
        2 * self.sweeps
    }

    /// Host reference (identical update order modulo the race-free
    /// red/black independence).
    pub fn reference(&self) -> Vec<f64> {
        let g = self.g;
        let mut u = self.u0.clone();
        for _ in 0..self.sweeps {
            for phase in 0..2usize {
                for i in 1..g - 1 {
                    let j0 = 1 + ((i + phase + 1) & 1);
                    let mut j = j0;
                    while j < g - 1 {
                        u[i * g + j] = 0.25
                            * (u[i * g + j - 1]
                                + u[i * g + j + 1]
                                + u[(i - 1) * g + j]
                                + u[(i + 1) * g + j]);
                        j += 2;
                    }
                }
            }
        }
        u
    }

    /// Run the sequential baseline and validate.
    ///
    /// # Errors
    ///
    /// Simulation or validation failures.
    pub fn run_sequential(&self) -> Result<KernelOutcome, KernelError> {
        Ok(self
            .run_with(&ExecSpec::sequential(), RunAttachments::default())?
            .outcome)
    }

    /// Run the row-partitioned parallel version and validate.
    ///
    /// # Errors
    ///
    /// Simulation, barrier-setup or validation failures.
    pub fn run_parallel(
        &self,
        threads: usize,
        mechanism: BarrierMechanism,
    ) -> Result<KernelOutcome, KernelError> {
        Ok(self
            .run_with(
                &ExecSpec::parallel(threads, mechanism),
                RunAttachments::default(),
            )?
            .outcome)
    }

    /// Run under a full [`ExecSpec`] (threads, mechanism, topology, seeded
    /// faults) with optional in-process [`RunAttachments`] (an observer
    /// hook that may attach a trace sink, the reference engine). The relaxed
    /// grid is always validated against the host reference; attachments are
    /// digest-invariant.
    ///
    /// # Errors
    ///
    /// Spec, simulation, barrier-setup or validation failures.
    pub fn run_with(
        &self,
        exec: &ExecSpec,
        mut att: RunAttachments<'_>,
    ) -> Result<RunOutput, KernelError> {
        let g = self.g;
        let (mut b, barrier) = KernelBuild::from_exec(exec, &mut att)?;
        let threads = b.threads;
        let u = b.space.alloc_f64((g * g) as u64)?;
        self.emit_body(&mut b.asm, barrier.as_ref(), u, threads)?;
        let us = self.u0.clone();
        let mut m = b.finish(move |mb| {
            mb.write_f64_slice(u, &us);
        })?;
        // One "rep" = the whole multi-sweep solve.
        let (outcome, faults) = run_spec_reps(&mut m, 1, exec)?;
        check_f64("u", &m.read_f64_slice(u, g * g), &self.reference(), 1e-9)?;
        Ok(RunOutput {
            outcome,
            faults,
            program: m.program().clone(),
        })
    }

    fn emit_body(
        &self,
        a: &mut Asm,
        barrier: Option<&Barrier>,
        u: u64,
        threads: usize,
    ) -> Result<(), KernelError> {
        let g = self.g as i64;
        let rows = self.g - 2; // interior rows
        let rows_per = rows.div_ceil(threads) as i64;
        let row_bytes = g * 8;
        a.label("entry")?;
        // my rows: lo = 1 + tid*rows_per, hi = min(lo + rows_per, g-1)
        a.li(Reg::S1, rows_per);
        a.mul(Reg::S1, Reg::TID, Reg::S1);
        a.addi(Reg::S1, Reg::S1, 1); // lo
        a.addi(Reg::S2, Reg::S1, rows_per);
        a.li(Reg::T0, g - 1);
        a.min(Reg::S2, Reg::S2, Reg::T0); // hi
        a.fli(FReg::F5, 0.25);
        a.li(Reg::S0, self.sweeps as i64);
        a.label("sweep_loop")?;
        for phase in 0..2i64 {
            let p = phase;
            let row_loop = format!("row_loop_{p}");
            let col_loop = format!("col_loop_{p}");
            let row_next = format!("row_next_{p}");
            let rows_done = format!("rows_done_{p}");
            a.bge(Reg::S1, Reg::S2, rows_done.as_str());
            a.mv(Reg::T0, Reg::S1); // i
            a.label(&row_loop)?;
            // j0 = 1 + ((i + phase + 1) & 1)
            a.addi(Reg::T1, Reg::T0, p + 1);
            a.andi(Reg::T1, Reg::T1, 1);
            a.addi(Reg::T1, Reg::T1, 1);
            // ptr = u + (i*g + j0)*8
            a.li(Reg::T2, g);
            a.mul(Reg::T2, Reg::T0, Reg::T2);
            a.add(Reg::T2, Reg::T2, Reg::T1);
            a.slli(Reg::T2, Reg::T2, 3);
            a.li(Reg::T3, u as i64);
            a.add(Reg::T3, Reg::T3, Reg::T2);
            // count = (g - 1 - j0 + 1) / 2 = (g - j0) / 2
            a.li(Reg::T4, g);
            a.sub(Reg::T4, Reg::T4, Reg::T1);
            a.srli(Reg::T4, Reg::T4, 1);
            a.beq(Reg::T4, Reg::ZERO, row_next.as_str());
            a.label(&col_loop)?;
            a.fld(FReg::F0, Reg::T3, -8);
            a.fld(FReg::F1, Reg::T3, 8);
            a.fadd(FReg::F0, FReg::F0, FReg::F1);
            a.fld(FReg::F1, Reg::T3, -row_bytes);
            a.fadd(FReg::F0, FReg::F0, FReg::F1);
            a.fld(FReg::F1, Reg::T3, row_bytes);
            a.fadd(FReg::F0, FReg::F0, FReg::F1);
            a.fmul(FReg::F0, FReg::F0, FReg::F5);
            a.fst(FReg::F0, Reg::T3, 0);
            a.addi(Reg::T3, Reg::T3, 16);
            a.addi(Reg::T4, Reg::T4, -1);
            a.bne(Reg::T4, Reg::ZERO, col_loop.as_str());
            a.label(&row_next)?;
            a.addi(Reg::T0, Reg::T0, 1);
            a.blt(Reg::T0, Reg::S2, row_loop.as_str());
            a.label(&rows_done)?;
            if let Some(bar) = barrier {
                bar.emit_call(a);
            }
        }
        a.addi(Reg::S0, Reg::S0, -1);
        a.bne(Reg::S0, Reg::ZERO, "sweep_loop");
        a.halt();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_matches_host() {
        OceanProxy::new(16, 3).run_sequential().unwrap();
    }

    #[test]
    fn parallel_matches_host() {
        OceanProxy::new(18, 3)
            .run_parallel(4, BarrierMechanism::FilterD)
            .unwrap();
    }

    #[test]
    fn parallel_sw_matches_host() {
        OceanProxy::new(16, 2)
            .run_parallel(8, BarrierMechanism::SwCentral)
            .unwrap();
    }

    #[test]
    fn reference_converges_toward_smoothness() {
        // relaxation drives interior values toward the mean of their
        // neighbourhood; after many sweeps the grid variance shrinks
        let o = OceanProxy::new(12, 50);
        let u = o.reference();
        let interior: Vec<f64> = (1..11)
            .flat_map(|i| {
                let u = &u;
                (1..11).map(move |j| u[i * 12 + j])
            })
            .collect();
        let mean = interior.iter().sum::<f64>() / interior.len() as f64;
        let var = interior.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / interior.len() as f64;
        assert!(var < 0.05, "variance {var} did not shrink");
    }
}

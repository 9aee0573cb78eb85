//! Livermore Loop 1: hydro fragment — the embarrassingly parallel contrast
//! case (§4.4 excludes it from the barrier study precisely because it needs
//! no synchronization; we keep it as a sanity check and example).
//!
//! ```c
//! for (k = 0; k < n; k++) {
//!     x[k] = q + y[k] * (r * z[k + 10] + t * z[k + 11]);
//! }
//! ```

use barrier_filter::{Barrier, BarrierMechanism};
use sim_isa::{Asm, FReg, Reg};

use crate::harness::{check_f64, chunk_for, emit_rep_loop, KernelBuild, KernelOutcome, REPS};
use crate::spec::{run_spec_reps, ExecSpec, RunAttachments, RunOutput};
use crate::{input, KernelError};

const Q: f64 = 0.5;
const R: f64 = 0.25;
const T: f64 = 0.125;

/// Livermore Loop 1 at vector length `n`.
#[derive(Debug, Clone)]
pub struct Loop1 {
    n: usize,
    y: Vec<f64>,
    z: Vec<f64>,
}

impl Loop1 {
    /// Kernel instance with the standard seeded input.
    pub fn new(n: usize) -> Loop1 {
        Loop1 {
            n,
            y: input::f64_vec(0x11_01, n, -1.0, 1.0),
            z: input::f64_vec(0x11_02, n + 11, -1.0, 1.0),
        }
    }

    /// Vector length.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Host reference.
    pub fn reference(&self) -> Vec<f64> {
        (0..self.n)
            .map(|k| Q + self.y[k] * (R * self.z[k + 10] + T * self.z[k + 11]))
            .collect()
    }

    fn emit_range_body(&self, a: &mut Asm, x: u64, y: u64, z: u64) -> Result<(), KernelError> {
        // On entry: t1 = lo, t2 = hi (t1 < t2). Clobbers t0-t5, f0-f5.
        a.slli(Reg::T4, Reg::T1, 3);
        a.li(Reg::T0, x as i64);
        a.add(Reg::T0, Reg::T0, Reg::T4); // &x[lo]
        a.li(Reg::T3, y as i64);
        a.add(Reg::T3, Reg::T3, Reg::T4); // &y[lo]
        a.li(Reg::T5, (z + 80) as i64);
        a.add(Reg::T5, Reg::T5, Reg::T4); // &z[lo + 10]
        a.sub(Reg::T4, Reg::T2, Reg::T1); // count
        a.fli(FReg::F3, R);
        a.fli(FReg::F4, T);
        a.fli(FReg::F5, Q);
        a.label("k_loop")?;
        a.fld(FReg::F0, Reg::T5, 0); // z[k+10]
        a.fld(FReg::F1, Reg::T5, 8); // z[k+11]
        a.fmul(FReg::F0, FReg::F0, FReg::F3);
        a.fmadd(FReg::F0, FReg::F1, FReg::F4, FReg::F0);
        a.fld(FReg::F2, Reg::T3, 0); // y[k]
        a.fmadd(FReg::F0, FReg::F2, FReg::F0, FReg::F5);
        a.fst(FReg::F0, Reg::T0, 0);
        a.addi(Reg::T0, Reg::T0, 8);
        a.addi(Reg::T3, Reg::T3, 8);
        a.addi(Reg::T5, Reg::T5, 8);
        a.addi(Reg::T4, Reg::T4, -1);
        a.bne(Reg::T4, Reg::ZERO, "k_loop");
        Ok(())
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

    /// Run the parallel version: pure chunked distribution, one barrier per
    /// repetition only to keep repetitions from overlapping.
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
    /// hook that may attach a trace sink, the reference engine). The output
    /// vector is always validated against the host reference; attachments are
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
        let (mut b, barrier) = KernelBuild::from_exec(exec, &mut att)?;
        let x = b.space.alloc_f64(self.n as u64)?;
        let y = b.space.alloc_f64(self.n as u64)?;
        let z = b.space.alloc_f64(self.n as u64 + 11)?;
        match &barrier {
            Some(bar) => {
                let chunk = chunk_for(self.n, b.threads, 8);
                self.emit_parallel_body(&mut b.asm, bar, x, y, z, chunk)?;
            }
            None => emit_rep_loop(&mut b.asm, REPS, |a| {
                a.li(Reg::T1, 0);
                a.li(Reg::T2, self.n as i64);
                self.emit_range_body(a, x, y, z)
            })?,
        }
        let (ys, zs) = (self.y.clone(), self.z.clone());
        let mut m = b.finish(move |mb| {
            mb.write_f64_slice(y, &ys);
            mb.write_f64_slice(z, &zs);
        })?;
        let (outcome, faults) = run_spec_reps(&mut m, REPS, exec)?;
        check_f64("x", &m.read_f64_slice(x, self.n), &self.reference(), 1e-9)?;
        Ok(RunOutput {
            outcome,
            faults,
            program: m.program().clone(),
        })
    }

    fn emit_parallel_body(
        &self,
        a: &mut Asm,
        barrier: &Barrier,
        x: u64,
        y: u64,
        z: u64,
        chunk: usize,
    ) -> Result<(), KernelError> {
        emit_rep_loop(a, REPS, |a| {
            a.li(Reg::T0, chunk as i64);
            a.mul(Reg::T1, Reg::TID, Reg::T0); // lo
            a.add(Reg::T2, Reg::T1, Reg::T0);
            a.li(Reg::T3, self.n as i64);
            a.min(Reg::T2, Reg::T2, Reg::T3); // hi
            a.bge(Reg::T1, Reg::T2, "chunk_done");
            self.emit_range_body(a, x, y, z)?;
            a.label("chunk_done")?;
            barrier.emit_call(a);
            Ok(())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_matches_host() {
        Loop1::new(64).run_sequential().unwrap();
    }

    #[test]
    fn parallel_matches_host() {
        Loop1::new(256)
            .run_parallel(8, BarrierMechanism::FilterIPingPong)
            .unwrap();
    }

    #[test]
    fn embarrassingly_parallel_speedup_is_large() {
        let k = Loop1::new(2048);
        let seq = k.run_sequential().unwrap();
        let par = k.run_parallel(16, BarrierMechanism::FilterI).unwrap();
        let speedup = seq.cycles_per_rep / par.cycles_per_rep;
        assert!(speedup > 6.0, "speedup {speedup} too small for loop 1");
    }
}

//! Livermore Loop 3: inner product (Figure 8).
//!
//! ```c
//! q = 0.0;
//! for (k = 0; k < n; k++) {
//!     q += z[k] * x[k];
//! }
//! ```
//!
//! The parallel version partitions the vectors in chunks of at least eight
//! doubles (one cache line), accumulates per-thread partial sums on private
//! lines, and reduces on thread 0 — two barriers per invocation.

use barrier_filter::Barrier;
use sim_isa::{Asm, FReg, Reg};

use crate::harness::{check_f64, chunk_for, emit_rep_loop, KernelBuild, REPS};
use crate::spec::{run_spec_reps, ExecSpec, RunAttachments, RunOutput};
use crate::{input, KernelError};

/// Livermore Loop 3 at vector length `n`.
#[derive(Debug, Clone)]
pub struct Loop3 {
    n: usize,
    x: Vec<f64>,
    z: Vec<f64>,
}

impl Loop3 {
    /// Kernel instance with the standard seeded input.
    pub fn new(n: usize) -> Loop3 {
        Loop3 {
            n,
            x: input::f64_vec(0x33_01, n, -1.0, 1.0),
            z: input::f64_vec(0x33_02, n, -1.0, 1.0),
        }
    }

    /// Vector length.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Host reference in sequential accumulation order.
    pub fn reference_sequential(&self) -> f64 {
        let mut q = 0.0f64;
        for k in 0..self.n {
            q = self.z[k].mul_add(self.x[k], q);
        }
        q
    }

    /// Host reference in the parallel (chunked partials, then reduction)
    /// accumulation order.
    pub fn reference_parallel(&self, threads: usize) -> f64 {
        let chunk = chunk_for(self.n, threads, 8);
        let mut q = 0.0f64;
        for t in 0..threads {
            let lo = (t * chunk).min(self.n);
            let hi = ((t + 1) * chunk).min(self.n);
            let mut partial = 0.0f64;
            for k in lo..hi {
                partial = self.z[k].mul_add(self.x[k], partial);
            }
            q += partial;
        }
        q
    }

    /// Run under a full [`ExecSpec`] (threads, mechanism, topology, seeded
    /// faults) with optional in-process [`RunAttachments`] (an observer
    /// hook that may attach a trace sink, the reference engine). The inner
    /// product is validated against the host reference in the matching
    /// accumulation order; attachments are digest-invariant.
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
        let threads = b.threads;
        let x = b.space.alloc_f64(self.n as u64)?;
        let z = b.space.alloc_f64(self.n as u64)?;
        let out;
        let expected;
        match &barrier {
            Some(bar) => {
                let partials = b.space.alloc_lines(threads as u64)?;
                out = b.space.alloc_lines(1)?;
                let chunk = chunk_for(self.n, threads, 8);
                self.emit_parallel_body(&mut b.asm, bar, x, z, partials, out, chunk)?;
                expected = self.reference_parallel(threads);
            }
            None => {
                out = b.space.alloc_lines(1)?;
                emit_rep_loop(&mut b.asm, REPS, |a| {
                    a.fli(FReg::F0, 0.0);
                    a.li(Reg::T0, x as i64);
                    a.li(Reg::T1, z as i64);
                    a.li(Reg::T3, self.n as i64);
                    a.label("k_loop")?;
                    a.fld(FReg::F1, Reg::T1, 0);
                    a.fld(FReg::F2, Reg::T0, 0);
                    a.fmadd(FReg::F0, FReg::F1, FReg::F2, FReg::F0);
                    a.addi(Reg::T0, Reg::T0, 8);
                    a.addi(Reg::T1, Reg::T1, 8);
                    a.addi(Reg::T3, Reg::T3, -1);
                    a.bne(Reg::T3, Reg::ZERO, "k_loop");
                    a.li(Reg::T2, out as i64);
                    a.fst(FReg::F0, Reg::T2, 0);
                    Ok(())
                })?;
                expected = self.reference_sequential();
            }
        }
        let (xs, zs) = (self.x.clone(), self.z.clone());
        let mut m = b.finish(move |mb| {
            mb.write_f64_slice(x, &xs);
            mb.write_f64_slice(z, &zs);
        })?;
        let (outcome, faults) = run_spec_reps(&mut m, REPS, exec)?;
        check_f64("q", &[m.read_f64(out)], &[expected], 1e-9)?;
        Ok(RunOutput {
            outcome,
            faults,
            program: m.program().clone(),
        })
    }

    #[allow(clippy::too_many_arguments)]
    fn emit_parallel_body(
        &self,
        a: &mut Asm,
        barrier: &Barrier,
        x: u64,
        z: u64,
        partials: u64,
        out: u64,
        chunk: usize,
    ) -> Result<(), KernelError> {
        let n = self.n as i64;
        emit_rep_loop(a, REPS, |a| {
            // my range: lo = tid * chunk, hi = min(lo + chunk, n)
            a.li(Reg::T0, chunk as i64);
            a.mul(Reg::T1, Reg::TID, Reg::T0); // lo
            a.add(Reg::T2, Reg::T1, Reg::T0);
            a.li(Reg::T3, n);
            a.min(Reg::T2, Reg::T2, Reg::T3); // hi
            a.fli(FReg::F0, 0.0);
            a.bge(Reg::T1, Reg::T2, "chunk_done");
            a.slli(Reg::T4, Reg::T1, 3);
            a.li(Reg::T5, x as i64);
            a.add(Reg::T5, Reg::T5, Reg::T4); // &x[lo]
            a.li(Reg::T0, z as i64);
            a.add(Reg::T0, Reg::T0, Reg::T4); // &z[lo]
            a.sub(Reg::T3, Reg::T2, Reg::T1); // count
            a.label("k_loop")?;
            a.fld(FReg::F1, Reg::T0, 0);
            a.fld(FReg::F2, Reg::T5, 0);
            a.fmadd(FReg::F0, FReg::F1, FReg::F2, FReg::F0);
            a.addi(Reg::T5, Reg::T5, 8);
            a.addi(Reg::T0, Reg::T0, 8);
            a.addi(Reg::T3, Reg::T3, -1);
            a.bne(Reg::T3, Reg::ZERO, "k_loop");
            a.label("chunk_done")?;
            // partials[tid] (one line per thread)
            a.slli(Reg::T4, Reg::TID, 6);
            a.li(Reg::T5, partials as i64);
            a.add(Reg::T5, Reg::T5, Reg::T4);
            a.fst(FReg::F0, Reg::T5, 0);
            barrier.emit_call(a);
            // thread 0 reduces
            a.bne(Reg::TID, Reg::ZERO, "after_reduce");
            a.fli(FReg::F0, 0.0);
            a.li(Reg::T0, partials as i64);
            a.li(Reg::T1, 0);
            a.label("red_loop")?;
            a.fld(FReg::F1, Reg::T0, 0);
            a.fadd(FReg::F0, FReg::F0, FReg::F1);
            a.addi(Reg::T0, Reg::T0, 64);
            a.addi(Reg::T1, Reg::T1, 1);
            a.blt(Reg::T1, Reg::NTID, "red_loop");
            a.li(Reg::T2, out as i64);
            a.fst(FReg::F0, Reg::T2, 0);
            a.label("after_reduce")?;
            barrier.emit_call(a);
            Ok(())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run, RunSpec, WorkloadSpec};
    use barrier_filter::BarrierMechanism;

    #[test]
    fn sequential_matches_host() {
        run(&RunSpec::sequential(WorkloadSpec::Loop3 { n: 64 })).unwrap();
    }

    #[test]
    fn parallel_filter_matches_host() {
        run(&RunSpec::parallel(
            WorkloadSpec::Loop3 { n: 128 },
            4,
            BarrierMechanism::FilterD,
        ))
        .unwrap();
    }

    #[test]
    fn parallel_software_matches_host() {
        run(&RunSpec::parallel(
            WorkloadSpec::Loop3 { n: 128 },
            4,
            BarrierMechanism::SwTree,
        ))
        .unwrap();
    }

    #[test]
    fn references_agree_up_to_reassociation() {
        let k = Loop3::new(200);
        let seq = k.reference_sequential();
        let par = k.reference_parallel(16);
        assert!((seq - par).abs() < 1e-9 * seq.abs().max(1.0));
    }

    #[test]
    fn short_vectors_leave_threads_idle_but_work() {
        // n = 16 with 16 threads: only 2 threads get work (chunk floor 8)
        run(&RunSpec::parallel(
            WorkloadSpec::Loop3 { n: 16 },
            16,
            BarrierMechanism::HwDedicated,
        ))
        .unwrap();
    }
}

//! Livermore Loop 6: general linear recurrence equation (Figure 10).
//!
//! ```c
//! for (i = 1; i < n; i++)
//!     for (k = 0; k < i; k++)
//!         w[i] += b[k][i] * w[(i-k)-1];
//! ```
//!
//! The parallel version is the paper's wavefront transformation: instances
//! with `i - k = t + 1` form a wavefront executable in parallel once
//! timestep `t` is reached, yielding
//!
//! ```c
//! for (t = 0; t <= n-2; t++) {
//!     for (k = MYID*CHUNK; k < (MYID+1)*CHUNK; k++)
//!         if (k < n-t-1) w[t+k+1] += b[k][t+k+1] * w[t];
//!     Barrier();
//! }
//! ```
//!
//! "The parallelism is very fine grained and could not be efficiently
//! exploited on a CMP without fast synchronization … the required
//! synchronizations have an irregular pattern … a global barrier is a
//! natural choice."

use barrier_filter::{Barrier, BarrierMechanism};
use sim_isa::{Asm, FReg, Reg};

use crate::harness::{check_f64, emit_rep_loop, KernelBuild, KernelOutcome, REPS};
use crate::spec::{run_spec_reps, ExecSpec, RunAttachments, RunOutput};
use crate::{input, KernelError};

/// Livermore Loop 6 at vector length `n` (matrix `b` is `n`×`n`).
#[derive(Debug, Clone)]
pub struct Loop6 {
    n: usize,
    w0: Vec<f64>,
    b: Vec<f64>,
}

impl Loop6 {
    /// Kernel instance with the standard seeded input.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn new(n: usize) -> Loop6 {
        assert!(n >= 2, "loop 6 needs n >= 2");
        // Scale b like the Netlib kernel does implicitly: keep the
        // recurrence from blowing up over repetitions.
        let scale = 1.0 / n as f64;
        let b = input::f64_vec(0x66_02, n * n, -1.0, 1.0)
            .into_iter()
            .map(|v| v * scale)
            .collect();
        Loop6 {
            n,
            w0: input::f64_vec(0x66_01, n, 0.0, 1.0),
            b,
        }
    }

    /// Vector length.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Host reference for the sequential order (`k` ascending within each
    /// `i`) after `REPS` applications.
    pub fn reference_sequential(&self) -> Vec<f64> {
        let n = self.n;
        let mut w = self.w0.clone();
        for _ in 0..REPS {
            for i in 1..n {
                for k in 0..i {
                    w[i] = self.b[k * n + i].mul_add(w[i - k - 1], w[i]);
                }
            }
        }
        w
    }

    /// Host reference for the wavefront order (`t` ascending) after `REPS`
    /// applications.
    pub fn reference_parallel(&self) -> Vec<f64> {
        let n = self.n;
        let mut w = self.w0.clone();
        for _ in 0..REPS {
            for t in 0..n - 1 {
                for k in 0..n - t - 1 {
                    let i = t + k + 1;
                    w[i] = self.b[k * n + i].mul_add(w[t], w[i]);
                }
            }
        }
        w
    }

    /// Run the sequential baseline (original loop order) and validate.
    ///
    /// # Errors
    ///
    /// Simulation or validation failures.
    pub fn run_sequential(&self) -> Result<KernelOutcome, KernelError> {
        Ok(self
            .run_with(&ExecSpec::sequential(), RunAttachments::default())?
            .outcome)
    }

    /// Run the paper's wavefront-parallel version and validate.
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
    /// hook that may attach a trace sink, the reference engine). The recurrence
    /// output is validated against the host reference in the matching
    /// evaluation order; attachments are digest-invariant.
    ///
    /// # Errors
    ///
    /// Spec, simulation, barrier-setup or validation failures.
    pub fn run_with(
        &self,
        exec: &ExecSpec,
        mut att: RunAttachments<'_>,
    ) -> Result<RunOutput, KernelError> {
        let n = self.n;
        let (mut bld, barrier) = KernelBuild::from_exec(exec, &mut att)?;
        let threads = bld.threads;
        let w = bld.space.alloc_f64(n as u64)?;
        let b = bld.space.alloc_f64((n * n) as u64)?;
        let expected = match &barrier {
            Some(bar) => {
                let chunk = (n - 1).div_ceil(threads);
                self.emit_parallel_body(&mut bld.asm, bar, w, b, chunk)?;
                self.reference_parallel()
            }
            None => {
                emit_rep_loop(&mut bld.asm, REPS, |a| {
                    a.li(Reg::S4, n as i64);
                    a.li(Reg::S3, (n * 8) as i64); // row stride
                    a.li(Reg::S0, 1); // i
                    a.label("i_loop")?;
                    // f0 = w[i]
                    a.slli(Reg::T0, Reg::S0, 3);
                    a.li(Reg::T1, w as i64);
                    a.add(Reg::T1, Reg::T1, Reg::T0); // &w[i]
                    a.fld(FReg::F0, Reg::T1, 0);
                    // b walker: b[0][i]; w walker: w[i-1] stepping down
                    a.li(Reg::T2, b as i64);
                    a.add(Reg::T2, Reg::T2, Reg::T0);
                    a.addi(Reg::T3, Reg::T1, -8);
                    a.mv(Reg::T4, Reg::S0); // count = i
                    a.label("k_loop")?;
                    a.fld(FReg::F1, Reg::T2, 0); // b[k][i]
                    a.fld(FReg::F2, Reg::T3, 0); // w[i-k-1]
                    a.fmadd(FReg::F0, FReg::F1, FReg::F2, FReg::F0);
                    a.add(Reg::T2, Reg::T2, Reg::S3);
                    a.addi(Reg::T3, Reg::T3, -8);
                    a.addi(Reg::T4, Reg::T4, -1);
                    a.bne(Reg::T4, Reg::ZERO, "k_loop");
                    a.fst(FReg::F0, Reg::T1, 0);
                    a.addi(Reg::S0, Reg::S0, 1);
                    a.blt(Reg::S0, Reg::S4, "i_loop");
                    Ok(())
                })?;
                self.reference_sequential()
            }
        };
        let (ws, bs) = (self.w0.clone(), self.b.clone());
        let mut m = bld.finish(move |mb| {
            mb.write_f64_slice(w, &ws);
            mb.write_f64_slice(b, &bs);
        })?;
        let (outcome, faults) = run_spec_reps(&mut m, REPS, exec)?;
        check_f64("w", &m.read_f64_slice(w, n), &expected, 1e-9)?;
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
        w: u64,
        b: u64,
        chunk: usize,
    ) -> Result<(), KernelError> {
        let n = self.n;
        emit_rep_loop(a, REPS, |a| {
            a.li(Reg::S4, n as i64);
            a.li(Reg::S3, (n * 8) as i64); // row stride
            a.li(Reg::S2, chunk as i64);
            a.li(Reg::S0, 0); // t
            a.label("t_loop")?;
            // k range: lo = tid*chunk, hi = min(lo+chunk, n-t-1)
            a.mul(Reg::T0, Reg::TID, Reg::S2);
            a.add(Reg::T1, Reg::T0, Reg::S2);
            a.sub(Reg::T2, Reg::S4, Reg::S0);
            a.addi(Reg::T2, Reg::T2, -1); // n - t - 1
            a.min(Reg::T1, Reg::T1, Reg::T2);
            a.bge(Reg::T0, Reg::T1, "stage_done");
            // f3 = w[t]
            a.slli(Reg::T3, Reg::S0, 3);
            a.li(Reg::T4, w as i64);
            a.add(Reg::T4, Reg::T4, Reg::T3);
            a.fld(FReg::F3, Reg::T4, 0);
            // i = t + lo + 1; w walker = &w[i]
            a.add(Reg::T5, Reg::S0, Reg::T0);
            a.addi(Reg::T5, Reg::T5, 1);
            a.slli(Reg::T5, Reg::T5, 3);
            a.li(Reg::T4, w as i64);
            a.add(Reg::T4, Reg::T4, Reg::T5);
            // b walker = &b[lo][i]
            a.mul(Reg::T3, Reg::T0, Reg::S3);
            a.li(Reg::T2, b as i64);
            a.add(Reg::T2, Reg::T2, Reg::T3);
            a.add(Reg::T2, Reg::T2, Reg::T5);
            a.sub(Reg::T3, Reg::T1, Reg::T0); // count
            a.label("k_loop")?;
            a.fld(FReg::F1, Reg::T2, 0); // b[k][i]
            a.fld(FReg::F0, Reg::T4, 0); // w[i]
            a.fmadd(FReg::F0, FReg::F1, FReg::F3, FReg::F0);
            a.fst(FReg::F0, Reg::T4, 0);
            a.addi(Reg::T4, Reg::T4, 8);
            a.add(Reg::T2, Reg::T2, Reg::S3);
            a.addi(Reg::T2, Reg::T2, 8);
            a.addi(Reg::T3, Reg::T3, -1);
            a.bne(Reg::T3, Reg::ZERO, "k_loop");
            a.label("stage_done")?;
            barrier.emit_call(a);
            a.addi(Reg::S0, Reg::S0, 1);
            a.addi(Reg::T0, Reg::S4, -1);
            a.blt(Reg::S0, Reg::T0, "t_loop");
            Ok(())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_matches_host() {
        Loop6::new(32).run_sequential().unwrap();
    }

    #[test]
    fn parallel_filter_matches_host() {
        Loop6::new(48)
            .run_parallel(4, BarrierMechanism::FilterIPingPong)
            .unwrap();
    }

    #[test]
    fn parallel_sw_matches_host() {
        Loop6::new(32)
            .run_parallel(8, BarrierMechanism::SwTree)
            .unwrap();
    }

    #[test]
    fn wavefront_and_original_orders_agree_numerically() {
        let k = Loop6::new(24);
        let a = k.reference_sequential();
        let b = k.reference_parallel();
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() <= 1e-9 * x.abs().max(1.0));
        }
    }

    #[test]
    fn tiny_n_works() {
        Loop6::new(2)
            .run_parallel(2, BarrierMechanism::HwDedicated)
            .unwrap();
    }
}

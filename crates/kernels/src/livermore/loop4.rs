//! Livermore Loop 4: banded linear equations.
//!
//! The paper excludes it from the study because "Kernels 3 and 4 are both
//! reductions" — it adds nothing beyond Loop 3's synchronization shape. We
//! include it to demonstrate exactly that: the same partial-sums +
//! reduction decomposition applies unchanged.
//!
//! ```c
//! m = (1001-7)/2;
//! for (k = 6; k < 1001; k += m) {
//!     lw = k - 6;
//!     temp = x[k-1];
//!     for (j = 4; j < n; j += 5) { temp -= x[lw] * y[j]; lw++; }
//!     x[k-1] = y[4] * temp;
//! }
//! ```

use barrier_filter::{Barrier, BarrierMechanism};
use sim_isa::{Asm, FReg, Reg};

use crate::harness::{check_f64, emit_rep_loop, KernelBuild, KernelOutcome, REPS};
use crate::spec::{run_spec_reps, ExecSpec, RunAttachments, RunOutput};
use crate::{input, KernelError};

/// Livermore Loop 4 with inner-reduction length `n` (the `j` loop runs
/// `(n-4)/5` terms).
#[derive(Debug, Clone)]
pub struct Loop4 {
    n: usize,
    x0: Vec<f64>,
    y: Vec<f64>,
}

const K_BASE: usize = 6;

impl Loop4 {
    /// Kernel instance with the standard seeded input.
    ///
    /// # Panics
    ///
    /// Panics if `n < 9`.
    pub fn new(n: usize) -> Loop4 {
        assert!(n >= 9, "loop 4 needs n >= 9");
        let terms = (n - 4).div_ceil(5);
        let m = (1001 - 7) / 2;
        let xlen = (K_BASE + 2 * m - 6 + terms).max(1001);
        Loop4 {
            n,
            x0: input::f64_vec(0x44_01, xlen, -1.0, 1.0),
            y: input::f64_vec(0x44_02, n, -0.1, 0.1),
        }
    }

    /// Inner-reduction parameter.
    pub fn n(&self) -> usize {
        self.n
    }

    fn terms(&self) -> usize {
        (self.n - 4).div_ceil(5)
    }

    fn ks() -> [usize; 2] {
        let m = (1001 - 7) / 2;
        [K_BASE, K_BASE + m]
    }

    /// Host reference (sequential accumulation order, mirrored by both
    /// simulated versions' per-chunk order up to reassociation).
    pub fn reference(&self, chunked: Option<usize>) -> Vec<f64> {
        let mut x = self.x0.clone();
        for _ in 0..REPS {
            for k in Self::ks() {
                let lw0 = k - 6;
                let mut temp = x[k - 1];
                match chunked {
                    None => {
                        for t in 0..self.terms() {
                            temp -= x[lw0 + t] * self.y[4 + 5 * t];
                        }
                    }
                    Some(threads) => {
                        let chunk = self.terms().div_ceil(threads).max(8);
                        for th in 0..threads {
                            let lo = (th * chunk).min(self.terms());
                            let hi = ((th + 1) * chunk).min(self.terms());
                            let mut partial = 0.0;
                            for t in lo..hi {
                                partial += x[lw0 + t] * self.y[4 + 5 * t];
                            }
                            temp -= partial;
                        }
                    }
                }
                x[k - 1] = self.y[4] * temp;
            }
        }
        x
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

    /// Run the parallel version — exactly Loop 3's shape: per-`k` parallel
    /// partial sums, a barrier, a reduction on thread 0, a second barrier.
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
    /// hook that may attach a trace sink, the reference engine). The banded
    /// solve is validated against the host reference in the matching
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
        let x = b.space.alloc_f64(self.x0.len() as u64)?;
        let y = b.space.alloc_f64(self.y.len() as u64)?;
        let expected = match &barrier {
            Some(bar) => {
                let partials = b.space.alloc_lines(threads as u64)?;
                self.emit_parallel(&mut b.asm, bar, x, y, partials, threads)?;
                self.reference(Some(threads))
            }
            None => {
                let terms = self.terms() as i64;
                emit_rep_loop(&mut b.asm, REPS, |a| {
                    for (ki, k) in Self::ks().into_iter().enumerate() {
                        let xk = x + 8 * (k as u64 - 1);
                        let lw = x + 8 * (k as u64 - 6);
                        let body = format!("k{ki}_loop");
                        a.li(Reg::T0, lw as i64); // &x[lw]
                        a.li(Reg::T1, (y + 32) as i64); // &y[4]
                        a.li(Reg::T2, terms);
                        a.li(Reg::T3, xk as i64);
                        a.fld(FReg::F0, Reg::T3, 0); // temp = x[k-1]
                        a.label(&body)?;
                        a.fld(FReg::F1, Reg::T0, 0);
                        a.fld(FReg::F2, Reg::T1, 0);
                        a.fmul(FReg::F1, FReg::F1, FReg::F2);
                        a.fsub(FReg::F0, FReg::F0, FReg::F1);
                        a.addi(Reg::T0, Reg::T0, 8);
                        a.addi(Reg::T1, Reg::T1, 40);
                        a.addi(Reg::T2, Reg::T2, -1);
                        a.bne(Reg::T2, Reg::ZERO, body.as_str());
                        a.li(Reg::T1, (y + 32) as i64);
                        a.fld(FReg::F2, Reg::T1, 0); // y[4]
                        a.fmul(FReg::F0, FReg::F0, FReg::F2);
                        a.fst(FReg::F0, Reg::T3, 0);
                    }
                    Ok(())
                })?;
                self.reference(None)
            }
        };
        let (xs, ys) = (self.x0.clone(), self.y.clone());
        let mut m = b.finish(move |mb| {
            mb.write_f64_slice(x, &xs);
            mb.write_f64_slice(y, &ys);
        })?;
        let (outcome, faults) = run_spec_reps(&mut m, REPS, exec)?;
        check_f64("x", &m.read_f64_slice(x, self.x0.len()), &expected, 1e-9)?;
        Ok(RunOutput {
            outcome,
            faults,
            program: m.program().clone(),
        })
    }

    fn emit_parallel(
        &self,
        a: &mut Asm,
        barrier: &Barrier,
        x: u64,
        y: u64,
        partials: u64,
        threads: usize,
    ) -> Result<(), KernelError> {
        let chunk = self.terms().div_ceil(threads).max(8) as i64;
        let terms = self.terms() as i64;
        emit_rep_loop(a, REPS, |a| {
            for (ki, k) in Self::ks().into_iter().enumerate() {
                let xk = x + 8 * (k as u64 - 1);
                let lw = x + 8 * (k as u64 - 6);
                let body = format!("k{ki}_loop");
                let store = format!("k{ki}_store");
                let reduce = format!("k{ki}_red");
                let red_loop = format!("k{ki}_red_loop");
                // my range over terms
                a.li(Reg::T0, chunk);
                a.mul(Reg::T1, Reg::TID, Reg::T0); // lo
                a.add(Reg::T2, Reg::T1, Reg::T0);
                a.li(Reg::T3, terms);
                a.min(Reg::T2, Reg::T2, Reg::T3); // hi
                a.fli(FReg::F0, 0.0);
                a.bge(Reg::T1, Reg::T2, store.as_str());
                a.slli(Reg::T4, Reg::T1, 3);
                a.li(Reg::T0, lw as i64);
                a.add(Reg::T0, Reg::T0, Reg::T4); // &x[lw + lo]
                a.li(Reg::T5, 40);
                a.mul(Reg::T5, Reg::T1, Reg::T5);
                a.li(Reg::T4, (y + 32) as i64);
                a.add(Reg::T4, Reg::T4, Reg::T5); // &y[4 + 5*lo]
                a.sub(Reg::T3, Reg::T2, Reg::T1);
                a.label(&body)?;
                a.fld(FReg::F1, Reg::T0, 0);
                a.fld(FReg::F2, Reg::T4, 0);
                a.fmadd(FReg::F0, FReg::F1, FReg::F2, FReg::F0);
                a.addi(Reg::T0, Reg::T0, 8);
                a.addi(Reg::T4, Reg::T4, 40);
                a.addi(Reg::T3, Reg::T3, -1);
                a.bne(Reg::T3, Reg::ZERO, body.as_str());
                a.label(&store)?;
                a.slli(Reg::T4, Reg::TID, 6);
                a.li(Reg::T5, partials as i64);
                a.add(Reg::T5, Reg::T5, Reg::T4);
                a.fst(FReg::F0, Reg::T5, 0);
                barrier.emit_call(a);
                a.bne(Reg::TID, Reg::ZERO, reduce.as_str());
                a.li(Reg::T3, xk as i64);
                a.fld(FReg::F0, Reg::T3, 0); // temp = x[k-1]
                a.li(Reg::T0, partials as i64);
                a.li(Reg::T1, 0);
                a.label(&red_loop)?;
                a.fld(FReg::F1, Reg::T0, 0);
                a.fsub(FReg::F0, FReg::F0, FReg::F1);
                a.addi(Reg::T0, Reg::T0, 64);
                a.addi(Reg::T1, Reg::T1, 1);
                a.blt(Reg::T1, Reg::NTID, red_loop.as_str());
                a.li(Reg::T1, (y + 32) as i64);
                a.fld(FReg::F2, Reg::T1, 0);
                a.fmul(FReg::F0, FReg::F0, FReg::F2);
                a.fst(FReg::F0, Reg::T3, 0);
                a.label(&reduce)?;
                barrier.emit_call(a);
            }
            Ok(())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_matches_host() {
        Loop4::new(200).run_sequential().unwrap();
    }

    #[test]
    fn parallel_matches_host() {
        Loop4::new(400)
            .run_parallel(4, BarrierMechanism::FilterD)
            .unwrap();
    }

    #[test]
    fn parallel_sw_matches_host() {
        Loop4::new(200)
            .run_parallel(8, BarrierMechanism::SwCentral)
            .unwrap();
    }
}

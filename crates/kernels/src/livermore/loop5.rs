//! Livermore Loop 5: tridiagonal elimination, below diagonal.
//!
//! ```c
//! for (i = 1; i < n; i++) {
//!     x[i] = z[i] * (y[i] - x[i-1]);
//! }
//! ```
//!
//! Every iteration reads the previous iteration's result: the loop-carried
//! dependence chain makes it **inherently serial**, which is exactly why
//! the paper excludes it ("they are either embarrassingly parallel, such as
//! Kernel 1, or serial, such as Kernels 5 and 20"). We include it as the
//! serial contrast case: it runs only sequentially, and
//! [`RunSpec::validate`](crate::RunSpec::validate) rejects a parallel
//! Loop 5.

use sim_isa::{FReg, Reg};

use crate::harness::{check_f64, emit_rep_loop, KernelBuild, REPS};
use crate::spec::{run_spec_reps, ExecSpec, RunAttachments, RunOutput};
use crate::{input, KernelError};

/// Livermore Loop 5 at vector length `n`.
#[derive(Debug, Clone)]
pub struct Loop5 {
    n: usize,
    x0: f64,
    y: Vec<f64>,
    z: Vec<f64>,
}

impl Loop5 {
    /// Kernel instance with the standard seeded input.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn new(n: usize) -> Loop5 {
        assert!(n >= 2, "loop 5 needs n >= 2");
        Loop5 {
            n,
            x0: 0.25,
            y: input::f64_vec(0x55_01, n, -1.0, 1.0),
            z: input::f64_vec(0x55_02, n, -0.9, 0.9),
        }
    }

    /// Vector length.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Host reference after `REPS` applications (`x[0]` is fixed).
    pub fn reference(&self) -> Vec<f64> {
        let mut x = vec![0.0f64; self.n];
        x[0] = self.x0;
        for _ in 0..REPS {
            for i in 1..self.n {
                x[i] = self.z[i] * (self.y[i] - x[i - 1]);
            }
        }
        x
    }

    /// Run under a full [`ExecSpec`]. The only accepted shape is
    /// sequential ([`KernelError::Spec`] otherwise — the recurrence is
    /// serial), but seeded faults and attachments apply like any other
    /// kernel.
    ///
    /// # Errors
    ///
    /// [`KernelError::Spec`] for a parallel spec; simulation or validation
    /// failures otherwise.
    pub fn run_with(
        &self,
        exec: &ExecSpec,
        mut att: RunAttachments<'_>,
    ) -> Result<RunOutput, KernelError> {
        if exec.mechanism.is_some() {
            return Err(KernelError::Spec(
                "loop5 is a serial recurrence; it has no parallel form".into(),
            ));
        }
        let n = self.n;
        let (mut b, _) = KernelBuild::from_exec(exec, &mut att)?;
        let x = b.space.alloc_f64(n as u64)?;
        let y = b.space.alloc_f64(n as u64)?;
        let z = b.space.alloc_f64(n as u64)?;
        emit_rep_loop(&mut b.asm, REPS, |a| {
            a.li(Reg::T0, (x + 8) as i64); // &x[1]
            a.li(Reg::T1, (y + 8) as i64);
            a.li(Reg::T2, (z + 8) as i64);
            a.li(Reg::T3, (n - 1) as i64);
            a.fld(FReg::F0, Reg::T0, -8); // x[0]
            a.label("i_loop")?;
            a.fld(FReg::F1, Reg::T1, 0); // y[i]
            a.fsub(FReg::F1, FReg::F1, FReg::F0);
            a.fld(FReg::F2, Reg::T2, 0); // z[i]
            a.fmul(FReg::F0, FReg::F2, FReg::F1); // x[i] (carried)
            a.fst(FReg::F0, Reg::T0, 0);
            a.addi(Reg::T0, Reg::T0, 8);
            a.addi(Reg::T1, Reg::T1, 8);
            a.addi(Reg::T2, Reg::T2, 8);
            a.addi(Reg::T3, Reg::T3, -1);
            a.bne(Reg::T3, Reg::ZERO, "i_loop");
            Ok(())
        })?;
        let (x0, ys, zs) = (self.x0, self.y.clone(), self.z.clone());
        let mut m = b.finish(move |mb| {
            mb.write_f64(x, x0);
            mb.write_f64_slice(y, &ys);
            mb.write_f64_slice(z, &zs);
        })?;
        let (outcome, faults) = run_spec_reps(&mut m, REPS, exec)?;
        check_f64("x", &m.read_f64_slice(x, n), &self.reference(), 1e-9)?;
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
    use crate::{run, RunSpec, WorkloadSpec};

    #[test]
    fn sequential_matches_host() {
        run(&RunSpec::sequential(WorkloadSpec::Loop5 { n: 128 })).unwrap();
    }

    #[test]
    fn recurrence_really_is_carried() {
        // flipping x[0] changes every element downstream — the dependence
        // chain the paper excludes this kernel for
        let k = Loop5::new(32);
        let mut other = k.clone();
        other.x0 = -0.5;
        let a = k.reference();
        let b = other.reference();
        assert!(a.iter().zip(&b).skip(1).all(|(p, q)| p != q));
    }
}

//! Livermore Loop 2: excerpt from an incomplete Cholesky conjugate gradient
//! (Figure 7).
//!
//! The sequential form (transcribed from Netlib, as printed in §4.4):
//!
//! ```c
//! ii = n; ipntp = 0;
//! do {
//!     ipnt = ipntp; ipntp += ii; ii /= 2; i = ipntp;
//!     for (k = ipnt + 1; k < ipntp; k += 2) {
//!         i++;
//!         x[i] = x[k] - v[k] * x[k-1] - v[k+1] * x[k+1];
//!     }
//! } while (ii > 1);
//! ```
//!
//! The parallel version is the paper's chunked decomposition: each
//! `do-while` stage's k-loop is split into per-thread chunks of at least 8
//! doubles, with a barrier after every stage. "The amount of data operated
//! upon, and thus the available parallelism, decreases by a factor of two
//! with successive iterations of the do-while loop" — which is why this
//! kernel has the latest crossover of the three (vector length 256).

use barrier_filter::Barrier;
use sim_isa::{Asm, FReg, Reg};

use crate::harness::{check_f64, emit_rep_loop, KernelBuild, REPS};
use crate::spec::{run_spec_reps, ExecSpec, RunAttachments, RunOutput};
use crate::{input, KernelError};

/// Livermore Loop 2 at vector length `n` (must be a power of two ≥ 4).
#[derive(Debug, Clone)]
pub struct Loop2 {
    n: usize,
    x0: Vec<f64>,
    v: Vec<f64>,
}

/// One host-side application of the ICCG transformation, element order
/// identical to both simulated versions.
fn host_step(x: &mut [f64], v: &[f64], n: usize) {
    let mut ii = n;
    let mut ipntp = 0usize;
    loop {
        let ipnt = ipntp;
        ipntp += ii;
        ii /= 2;
        let mut i = ipntp;
        let mut k = ipnt + 1;
        while k < ipntp {
            i += 1;
            x[i] = x[k] - v[k] * x[k - 1] - v[k + 1] * x[k + 1];
            k += 2;
        }
        if ii <= 1 {
            break;
        }
    }
}

impl Loop2 {
    /// Kernel instance with the standard seeded input.
    ///
    /// # Panics
    ///
    /// Panics unless `n` is a power of two of at least 4.
    pub fn new(n: usize) -> Loop2 {
        assert!(
            n.is_power_of_two() && n >= 4,
            "loop 2 needs a power-of-two n >= 4"
        );
        let total = 2 * n + 2;
        Loop2 {
            n,
            x0: input::f64_vec(0x22_01, total, -1.0, 1.0),
            v: input::f64_vec(0x22_02, total, -0.25, 0.25),
        }
    }

    /// Vector length.
    pub fn n(&self) -> usize {
        self.n
    }

    fn total(&self) -> usize {
        2 * self.n + 2
    }

    /// Host reference: the x array after `REPS` applications.
    pub fn reference(&self) -> Vec<f64> {
        let mut x = self.x0.clone();
        for _ in 0..REPS {
            host_step(&mut x, &self.v, self.n);
        }
        x
    }

    /// Emit the arithmetic body shared by both versions: computes
    /// `x[i] = x[k] - v[k]*x[k-1] - v[k+1]*x[k+1]` with `k` in `t4` and `i`
    /// in `t3`; clobbers t0–t2, f0–f2.
    fn emit_element(a: &mut Asm, x: u64, v: u64) {
        a.slli(Reg::T0, Reg::T4, 3);
        a.li(Reg::T1, x as i64);
        a.add(Reg::T1, Reg::T1, Reg::T0); // &x[k]
        a.li(Reg::T2, v as i64);
        a.add(Reg::T2, Reg::T2, Reg::T0); // &v[k]
        a.fld(FReg::F0, Reg::T1, 0); // x[k]
        a.fld(FReg::F1, Reg::T1, -8); // x[k-1]
        a.fld(FReg::F2, Reg::T2, 0); // v[k]
        a.fmul(FReg::F1, FReg::F2, FReg::F1);
        a.fsub(FReg::F0, FReg::F0, FReg::F1);
        a.fld(FReg::F1, Reg::T1, 8); // x[k+1]
        a.fld(FReg::F2, Reg::T2, 8); // v[k+1]
        a.fmul(FReg::F1, FReg::F2, FReg::F1);
        a.fsub(FReg::F0, FReg::F0, FReg::F1);
        a.slli(Reg::T0, Reg::T3, 3);
        a.li(Reg::T1, x as i64);
        a.add(Reg::T1, Reg::T1, Reg::T0);
        a.fst(FReg::F0, Reg::T1, 0); // x[i]
    }

    /// Run under a full [`ExecSpec`] (threads, mechanism, topology, seeded
    /// faults) with optional in-process [`RunAttachments`] (an observer
    /// hook that may attach a trace sink, the reference engine). The output is
    /// always validated against the host reference, and after a faulted run the
    /// filter tables must end quiescent (§3.3.3). Attachments are
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
        let x = b.space.alloc_f64(self.total() as u64)?;
        let v = b.space.alloc_f64(self.total() as u64)?;
        match &barrier {
            Some(bar) => self.emit_parallel_body(&mut b.asm, bar, x, v)?,
            None => emit_rep_loop(&mut b.asm, REPS, |a| {
                a.li(Reg::S0, self.n as i64); // ii
                a.li(Reg::S1, 0); // ipntp
                a.label("stage")?;
                a.mv(Reg::S2, Reg::S1); // ipnt
                a.add(Reg::S1, Reg::S1, Reg::S0);
                a.srai(Reg::S0, Reg::S0, 1);
                a.mv(Reg::T3, Reg::S1); // i = ipntp
                a.addi(Reg::T4, Reg::S2, 1); // k = ipnt + 1
                a.label("k_loop")?;
                a.bge(Reg::T4, Reg::S1, "stage_end");
                a.addi(Reg::T3, Reg::T3, 1);
                Self::emit_element(a, x, v);
                a.addi(Reg::T4, Reg::T4, 2);
                a.j("k_loop");
                a.label("stage_end")?;
                a.li(Reg::T0, 1);
                a.blt(Reg::T0, Reg::S0, "stage");
                Ok(())
            })?,
        }
        let (xs, vs) = (self.x0.clone(), self.v.clone());
        let mut m = b.finish(move |mb| {
            mb.write_f64_slice(x, &xs);
            mb.write_f64_slice(v, &vs);
        })?;
        let (outcome, faults) = run_spec_reps(&mut m, REPS, exec)?;
        check_f64(
            "x",
            &m.read_f64_slice(x, self.total()),
            &self.reference(),
            1e-9,
        )?;
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
        v: u64,
    ) -> Result<(), KernelError> {
        emit_rep_loop(a, REPS, |a| {
            a.li(Reg::S0, self.n as i64); // ii
            a.li(Reg::S1, 0); // ipntp
            a.label("stage")?;
            a.mv(Reg::S2, Reg::S1); // ipnt
            a.add(Reg::S1, Reg::S1, Reg::S0);
            a.srai(Reg::S0, Reg::S0, 1);
            // chunk = max(8, ceil(ceil(len/2) / THREADS))
            a.sub(Reg::T0, Reg::S1, Reg::S2); // len = ipntp - ipnt
            a.andi(Reg::T1, Reg::T0, 1);
            a.srai(Reg::T0, Reg::T0, 1);
            a.add(Reg::T0, Reg::T0, Reg::T1); // nhalf
            a.div(Reg::T1, Reg::T0, Reg::NTID);
            a.rem(Reg::T2, Reg::T0, Reg::NTID);
            a.sltu(Reg::T2, Reg::ZERO, Reg::T2);
            a.add(Reg::T1, Reg::T1, Reg::T2); // chunk
            a.li(Reg::T2, 8);
            a.max(Reg::T1, Reg::T1, Reg::T2);
            // i = ipntp + MYID * chunk
            a.mul(Reg::T2, Reg::TID, Reg::T1);
            a.add(Reg::T3, Reg::S1, Reg::T2);
            // k = ipnt + 1 + MYID * 2 * chunk
            a.slli(Reg::T4, Reg::T2, 1);
            a.add(Reg::T4, Reg::T4, Reg::S2);
            a.addi(Reg::T4, Reg::T4, 1);
            // bound = min(chunk*2*(MYID+1) + ipnt + 1, ipntp)
            a.addi(Reg::T5, Reg::TID, 1);
            a.mul(Reg::T5, Reg::T5, Reg::T1);
            a.slli(Reg::T5, Reg::T5, 1);
            a.add(Reg::T5, Reg::T5, Reg::S2);
            a.addi(Reg::T5, Reg::T5, 1);
            a.min(Reg::T5, Reg::T5, Reg::S1);
            a.label("k_loop")?;
            a.bge(Reg::T4, Reg::T5, "k_done");
            a.addi(Reg::T3, Reg::T3, 1);
            Self::emit_element(a, x, v);
            a.addi(Reg::T4, Reg::T4, 2);
            a.j("k_loop");
            a.label("k_done")?;
            barrier.emit_call(a);
            a.li(Reg::T0, 1);
            a.blt(Reg::T0, Reg::S0, "stage");
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
        run(&RunSpec::sequential(WorkloadSpec::Loop2 { n: 64 })).unwrap();
    }

    #[test]
    fn parallel_filter_matches_host() {
        run(&RunSpec::parallel(
            WorkloadSpec::Loop2 { n: 128 },
            4,
            BarrierMechanism::FilterD,
        ))
        .unwrap();
    }

    #[test]
    fn parallel_sw_matches_host() {
        run(&RunSpec::parallel(
            WorkloadSpec::Loop2 { n: 64 },
            16,
            BarrierMechanism::SwCentral,
        ))
        .unwrap();
    }

    #[test]
    fn parallelism_halves_per_stage() {
        // n = 16: stages of 8, 4, 2, 1 halved iterations; with 16 threads
        // most threads idle at every stage yet results stay correct.
        run(&RunSpec::parallel(
            WorkloadSpec::Loop2 { n: 16 },
            16,
            BarrierMechanism::HwDedicated,
        ))
        .unwrap();
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn rejects_non_power_of_two() {
        let _ = Loop2::new(100);
    }
}

//! EEMBC-like fixed-point autocorrelation (Figure 5).
//!
//! The paper hand-parallelizes the EEMBC Auto-Correlation kernel: "an outer
//! loop that iterates over a lag parameter wrapped around an accumulation
//! loop … we used a pair of barriers to transform the accumulation into a
//! set of parallel accumulations and a reduction." The `xspeech` input is
//! replaced by a seeded speech-like waveform (see DESIGN.md).
//!
//! ```c
//! for (k = 0; k < LAGS; k++) {
//!     acc = 0;
//!     for (i = 0; i < n - k; i++) acc += x[i] * x[i + k];
//!     r[k] = acc;
//! }
//! ```

use barrier_filter::Barrier;
use sim_isa::{Asm, Reg};

use crate::harness::{check_u64, emit_rep_loop, KernelBuild, REPS};
use crate::spec::{run_spec_reps, ExecSpec, RunAttachments, RunOutput};
use crate::{input, KernelError};

/// Autocorrelation over `n` samples with `lags` lags (the paper uses
/// lag = 32).
#[derive(Debug, Clone)]
pub struct Autocorr {
    n: usize,
    lags: usize,
    x: Vec<i64>,
}

impl Autocorr {
    /// The paper's configuration: lag 32 over a speech-like input.
    pub fn new(n: usize) -> Autocorr {
        Autocorr::with_lags(n, 32)
    }

    /// Custom lag count.
    ///
    /// # Panics
    ///
    /// Panics if `lags` is zero or `lags > n`.
    pub fn with_lags(n: usize, lags: usize) -> Autocorr {
        assert!(lags > 0 && lags <= n, "need 0 < lags <= n");
        Autocorr {
            n,
            lags,
            x: input::speech_like(0xac_01, n),
        }
    }

    /// Sample count.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Lag count.
    pub fn lags(&self) -> usize {
        self.lags
    }

    /// Host reference (exact integer arithmetic; order-independent).
    pub fn reference(&self) -> Vec<u64> {
        (0..self.lags)
            .map(|k| {
                (0..self.n - k)
                    .map(|i| self.x[i].wrapping_mul(self.x[i + k]))
                    .fold(0i64, i64::wrapping_add) as u64
            })
            .collect()
    }

    /// Run under a full [`ExecSpec`] (threads, mechanism, topology, seeded
    /// faults) with optional in-process [`RunAttachments`] (an observer
    /// hook that may attach a trace sink, the reference engine). The parallel
    /// shape is the paper's: per lag, a parallel partial accumulation, a
    /// barrier, a reduction on thread 0, and a second barrier. The integer
    /// results are exact, so both shapes validate against the same host
    /// reference; attachments are digest-invariant.
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
        let x = b.space.alloc_u64(self.n as u64)?;
        let r = b.space.alloc_u64(self.lags as u64)?;
        match &barrier {
            Some(bar) => {
                let partials = b.space.alloc_lines(threads as u64)?;
                self.emit_parallel_body(&mut b.asm, bar, x, r, partials)?;
            }
            None => emit_rep_loop(&mut b.asm, REPS, |a| {
                a.li(Reg::S0, 0); // k
                a.label("lag_loop")?;
                a.li(Reg::T0, x as i64); // &x[0]
                a.slli(Reg::T1, Reg::S0, 3);
                a.add(Reg::T1, Reg::T0, Reg::T1); // &x[k]
                a.li(Reg::T2, self.n as i64);
                a.sub(Reg::T2, Reg::T2, Reg::S0); // count = n - k
                a.li(Reg::T3, 0); // acc
                a.label("sum_loop")?;
                a.ldd(Reg::T4, Reg::T0, 0);
                a.ldd(Reg::T5, Reg::T1, 0);
                a.mul(Reg::T4, Reg::T4, Reg::T5);
                a.add(Reg::T3, Reg::T3, Reg::T4);
                a.addi(Reg::T0, Reg::T0, 8);
                a.addi(Reg::T1, Reg::T1, 8);
                a.addi(Reg::T2, Reg::T2, -1);
                a.bne(Reg::T2, Reg::ZERO, "sum_loop");
                a.slli(Reg::T4, Reg::S0, 3);
                a.li(Reg::T5, r as i64);
                a.add(Reg::T5, Reg::T5, Reg::T4);
                a.std(Reg::T3, Reg::T5, 0);
                a.addi(Reg::S0, Reg::S0, 1);
                a.li(Reg::T4, self.lags as i64);
                a.blt(Reg::S0, Reg::T4, "lag_loop");
                Ok(())
            })?,
        }
        let xs: Vec<u64> = self.x.iter().map(|&v| v as u64).collect();
        let mut m = b.finish(move |mb| {
            mb.write_u64_slice(x, &xs);
        })?;
        let (outcome, faults) = run_spec_reps(&mut m, REPS, exec)?;
        check_u64("r", &m.read_u64_slice(r, self.lags), &self.reference())?;
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
        r: u64,
        partials: u64,
    ) -> Result<(), KernelError> {
        emit_rep_loop(a, REPS, |a| {
            a.li(Reg::S0, 0); // k
            a.label("lag_loop")?;
            // cnt = n - k; chunk = max(8, ceil(cnt / NTID))
            a.li(Reg::T0, self.n as i64);
            a.sub(Reg::T0, Reg::T0, Reg::S0);
            a.div(Reg::T1, Reg::T0, Reg::NTID);
            a.rem(Reg::T2, Reg::T0, Reg::NTID);
            a.sltu(Reg::T2, Reg::ZERO, Reg::T2);
            a.add(Reg::T1, Reg::T1, Reg::T2);
            a.li(Reg::T2, 8);
            a.max(Reg::T1, Reg::T1, Reg::T2); // chunk
            a.mul(Reg::T2, Reg::TID, Reg::T1); // lo
            a.add(Reg::T3, Reg::T2, Reg::T1);
            a.min(Reg::T3, Reg::T3, Reg::T0); // hi
            a.li(Reg::T4, 0); // acc
            a.bge(Reg::T2, Reg::T3, "partial_store");
            a.slli(Reg::T5, Reg::T2, 3);
            a.li(Reg::T0, x as i64);
            a.add(Reg::T5, Reg::T0, Reg::T5); // &x[lo]
            a.slli(Reg::T0, Reg::S0, 3);
            a.add(Reg::T0, Reg::T5, Reg::T0); // &x[lo + k]
            a.sub(Reg::T3, Reg::T3, Reg::T2); // count
            a.label("sum_loop")?;
            a.ldd(Reg::T1, Reg::T5, 0);
            a.ldd(Reg::T2, Reg::T0, 0);
            a.mul(Reg::T1, Reg::T1, Reg::T2);
            a.add(Reg::T4, Reg::T4, Reg::T1);
            a.addi(Reg::T5, Reg::T5, 8);
            a.addi(Reg::T0, Reg::T0, 8);
            a.addi(Reg::T3, Reg::T3, -1);
            a.bne(Reg::T3, Reg::ZERO, "sum_loop");
            a.label("partial_store")?;
            a.slli(Reg::T5, Reg::TID, 6);
            a.li(Reg::T0, partials as i64);
            a.add(Reg::T0, Reg::T0, Reg::T5);
            a.std(Reg::T4, Reg::T0, 0);
            barrier.emit_call(a);
            a.bne(Reg::TID, Reg::ZERO, "red_done");
            a.li(Reg::T0, partials as i64);
            a.li(Reg::T1, 0);
            a.li(Reg::T2, 0);
            a.label("red_loop")?;
            a.ldd(Reg::T3, Reg::T0, 0);
            a.add(Reg::T2, Reg::T2, Reg::T3);
            a.addi(Reg::T0, Reg::T0, 64);
            a.addi(Reg::T1, Reg::T1, 1);
            a.blt(Reg::T1, Reg::NTID, "red_loop");
            a.slli(Reg::T3, Reg::S0, 3);
            a.li(Reg::T4, r as i64);
            a.add(Reg::T4, Reg::T4, Reg::T3);
            a.std(Reg::T2, Reg::T4, 0);
            a.label("red_done")?;
            barrier.emit_call(a);
            a.addi(Reg::S0, Reg::S0, 1);
            a.li(Reg::T0, self.lags as i64);
            a.blt(Reg::S0, Reg::T0, "lag_loop");
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
        run(&RunSpec::sequential(WorkloadSpec::Autocorr {
            n: 128,
            lags: 8,
        }))
        .unwrap();
    }

    #[test]
    fn parallel_filter_matches_host() {
        run(&RunSpec::parallel(
            WorkloadSpec::Autocorr { n: 256, lags: 8 },
            4,
            BarrierMechanism::FilterD,
        ))
        .unwrap();
    }

    #[test]
    fn parallel_sw_matches_host() {
        run(&RunSpec::parallel(
            WorkloadSpec::Autocorr { n: 128, lags: 4 },
            16,
            BarrierMechanism::SwTree,
        ))
        .unwrap();
    }

    #[test]
    fn reference_is_plausible() {
        // r[0] is the signal energy: strictly positive and the maximum
        let a = Autocorr::new(512);
        let r = a.reference();
        assert!(r[0] > 0);
        let r0 = r[0] as i64;
        assert!(r.iter().all(|&v| (v as i64) <= r0));
    }
}

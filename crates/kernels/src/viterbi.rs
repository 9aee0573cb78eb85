//! EEMBC-like Viterbi decoder (Figure 6).
//!
//! The paper parallelizes the EEMBC Viterbi Decoder kernel (IS-136 channel
//! decoding), using barriers "to enforce ordering between successive calls
//! to parallelized subroutines" — here, between the add-compare-select
//! (ACS) steps of successive trellis stages. With 16 states spread over 16
//! cores each thread owns a *single* ACS butterfly per stage: parallelism
//! doesn't get finer than this, which is exactly why the software-barrier
//! version is slower than sequential (Table 1: 0.76×).
//!
//! The decoder is a rate-1/2 convolutional Viterbi with *soft-decision*
//! branch metrics (3-bit soft symbols, like EEMBC's soft inputs): K=5
//! (16 states, generators 23/35 octal, the IS-136 flavour) or K=7
//! (64 states, 171/133 octal). The `getti.dat` input is replaced by a
//! seeded random bitstream transmitted over a noisy soft channel.

use barrier_filter::{Barrier, BarrierMechanism};
use sim_isa::{Asm, MemWidth, Reg};

use crate::harness::{check_u64, emit_rep_loop, KernelBuild, KernelOutcome, REPS};
use crate::spec::{run_spec_reps, ExecSpec, RunAttachments, RunOutput};
use crate::{input, KernelError};

const BIG: i64 = 1 << 20;
/// Full-scale soft level for a transmitted 1 bit.
const SOFT_ONE: i64 = 7;

/// A Viterbi decoding workload.
#[derive(Debug, Clone)]
pub struct Viterbi {
    constraint: u32,
    data_bits: usize,
    bits: Vec<u8>,
    /// Soft received levels for the first and second output bit per stage.
    recv0: Vec<i64>,
    recv1: Vec<i64>,
}

impl Viterbi {
    /// The EEMBC-like configuration: K=5 (16 states) over `data_bits`
    /// random bits with 1% soft-channel noise.
    pub fn new(data_bits: usize) -> Viterbi {
        Viterbi::with_params(5, data_bits, 10)
    }

    /// Custom constraint length (5 or 7) and noise rate (per mille of
    /// soft symbols perturbed).
    ///
    /// # Panics
    ///
    /// Panics if `constraint` is not 5 or 7.
    pub fn with_params(constraint: u32, data_bits: usize, noise_per_mille: u32) -> Viterbi {
        assert!(
            constraint == 5 || constraint == 7,
            "constraint length must be 5 or 7"
        );
        let bits = input::bits(0x7e_01, data_bits);
        let mut v = Viterbi {
            constraint,
            data_bits,
            bits,
            recv0: Vec::new(),
            recv1: Vec::new(),
        };
        v.transmit(noise_per_mille);
        v
    }

    /// Number of trellis states.
    pub fn states(&self) -> usize {
        1 << (self.constraint - 1)
    }

    /// Trellis stages (data bits plus the K-1 flush bits).
    pub fn stages(&self) -> usize {
        self.data_bits + self.constraint as usize - 1
    }

    fn generators(&self) -> (u32, u32) {
        match self.constraint {
            5 => (0o23, 0o35),
            _ => (0o171, 0o133),
        }
    }

    /// Expected output bits for register value `m`.
    fn outputs(&self, m: u32) -> (i64, i64) {
        let (g0, g1) = self.generators();
        let p = |x: u32| (x.count_ones() & 1) as i64;
        (p(m & g0), p(m & g1))
    }

    /// The expected soft levels for each register value `m` in
    /// `0..2*states`: `(SOFT_ONE * o0, SOFT_ONE * o1)`.
    pub fn level_tables(&self) -> (Vec<u64>, Vec<u64>) {
        let ms = 0..2 * self.states() as u32;
        let l0 = ms.clone().map(|m| (SOFT_ONE * self.outputs(m).0) as u64);
        let l1 = ms.map(|m| (SOFT_ONE * self.outputs(m).1) as u64);
        (l0.collect(), l1.collect())
    }

    fn transmit(&mut self, noise_per_mille: u32) {
        let mask = self.states() as u32 - 1;
        let mut noise = input::rng(0x7e_02);
        let mut p = 0u32;
        let mut soften = |bit: i64| -> i64 {
            let mut level = SOFT_ONE * bit;
            if noise.below(1000) < noise_per_mille as u64 {
                level += noise.range_i64(-3, 4);
            }
            level.clamp(0, SOFT_ONE)
        };
        let padded = self
            .bits
            .iter()
            .copied()
            .chain(std::iter::repeat_n(0, self.constraint as usize - 1));
        for u in padded {
            let m = (p << 1) | u as u32;
            let (o0, o1) = self.outputs(m);
            self.recv0.push(soften(o0));
            self.recv1.push(soften(o1));
            p = m & mask;
        }
    }

    /// Host reference decoder, an exact mirror of the simulated ACS and
    /// traceback (ties prefer the low-index predecessor / state).
    pub fn reference_decode(&self) -> Vec<u64> {
        let s_count = self.states();
        let t_count = self.stages();
        let mut pm: Vec<i64> = (0..s_count).map(|s| if s == 0 { 0 } else { BIG }).collect();
        let mut dec = vec![0u8; t_count * s_count];
        for t in 0..t_count {
            let (r0, r1) = (self.recv0[t], self.recv1[t]);
            let mut next = vec![0i64; s_count];
            for s in 0..s_count {
                let p0 = s >> 1;
                let p1 = p0 | (s_count >> 1);
                let bm = |m: u32| {
                    let (o0, o1) = self.outputs(m);
                    (SOFT_ONE * o0 - r0).abs() + (SOFT_ONE * o1 - r1).abs()
                };
                let c0 = pm[p0] + bm(s as u32);
                let c1 = pm[p1] + bm((s | s_count) as u32);
                let take1 = c1 < c0;
                dec[t * s_count + s] = take1 as u8;
                next[s] = c0.min(c1);
            }
            pm = next;
        }
        // best final state: lowest metric, lowest index on ties
        let mut best = 0usize;
        for s in 1..s_count {
            if pm[s] < pm[best] {
                best = s;
            }
        }
        let mut out = vec![0u64; t_count];
        let mut s = best;
        for t in (0..t_count).rev() {
            out[t] = (s & 1) as u64;
            let d = dec[t * s_count + s] as usize;
            s = (s >> 1) | (d << (self.constraint as usize - 2));
        }
        out
    }

    /// Run the sequential baseline and validate against the host decoder.
    ///
    /// # Errors
    ///
    /// Simulation or validation failures.
    pub fn run_sequential(&self) -> Result<KernelOutcome, KernelError> {
        Ok(self
            .run_with(&ExecSpec::sequential(), RunAttachments::default())?
            .outcome)
    }

    /// Run the parallel version (states partitioned across threads, one
    /// barrier per trellis stage) and validate.
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
    /// hook that may attach a trace sink, the reference engine). The decoded
    /// output is always validated against the host decoder, and after a faulted
    /// run the filter tables must end quiescent — the §3.3.3
    /// graceful-degradation contract. Attachments are digest-invariant: the
    /// outcome's [`Measurement`](cmp_sim::Measurement) is bit-identical across
    /// any combination.
    ///
    /// # Errors
    ///
    /// Spec, simulation, barrier-setup or validation failures.
    pub fn run_with(
        &self,
        exec: &ExecSpec,
        mut att: RunAttachments<'_>,
    ) -> Result<RunOutput, KernelError> {
        let s_count = self.states();
        let t_count = self.stages();
        let (mut b, barrier) = KernelBuild::from_exec(exec, &mut att)?;
        let threads = b.threads;
        let lvl0 = b.space.alloc_u64(2 * s_count as u64)?;
        let lvl1 = b.space.alloc_u64(2 * s_count as u64)?;
        let recv0 = b.space.alloc_u64(t_count as u64)?;
        let recv1 = b.space.alloc_u64(t_count as u64)?;
        // The path-metric and decision arrays are compact (8 bytes per
        // state), exactly like the EEMBC kernel's: adjacent states belong
        // to different threads, so every trellis stage ping-pongs shared
        // lines between cores. That false sharing is part of why this
        // kernel parallelizes so poorly (Figure 6).
        let pm_a = b.space.alloc_u64(s_count as u64)?;
        let pm_b = b.space.alloc_u64(s_count as u64)?;
        let dec = b.space.alloc_u64((t_count * s_count) as u64)?;
        let out = b.space.alloc_u64(t_count as u64)?;
        let chunk = s_count.div_ceil(threads);
        self.emit_body(
            &mut b.asm,
            barrier.as_ref(),
            Layout {
                lvl0,
                lvl1,
                recv0,
                recv1,
                pm_a,
                pm_b,
                dec,
                out,
                chunk,
            },
        )?;
        let (l0, l1) = self.level_tables();
        let r0: Vec<u64> = self.recv0.iter().map(|&v| v as u64).collect();
        let r1: Vec<u64> = self.recv1.iter().map(|&v| v as u64).collect();
        let mut m = b.finish(move |mb| {
            mb.write_u64_slice(lvl0, &l0);
            mb.write_u64_slice(lvl1, &l1);
            mb.write_u64_slice(recv0, &r0);
            mb.write_u64_slice(recv1, &r1);
        })?;
        let (outcome, faults) = run_spec_reps(&mut m, REPS, exec)?;
        check_u64(
            "decoded",
            &m.read_u64_slice(out, t_count),
            &self.reference_decode(),
        )?;
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
        l: Layout,
    ) -> Result<(), KernelError> {
        let s_count = self.states() as i64;
        let t_count = self.stages() as i64;
        let half_off = (self.states() / 2 * 8) as i64; // pm[p0] -> pm[p1]
        let hi_off = (self.states() * 8) as i64; // lvl[m0] -> lvl[m1]
        let dec_stride = s_count * 8;
        let shift_back = self.constraint as u8 - 2;
        let call_barrier = |a: &mut Asm| {
            if let Some(bar) = barrier {
                bar.emit_call(a);
            }
        };
        // |x| in a register: x = (x ^ (x >> 63)) - (x >> 63), into A2 using
        // A6 as scratch.
        let emit_abs_into_a2 = |a: &mut Asm| {
            a.srai(Reg::A6, Reg::A2, 63);
            a.xor(Reg::A2, Reg::A2, Reg::A6);
            a.sub(Reg::A2, Reg::A2, Reg::A6);
        };
        emit_rep_loop(a, REPS, |a| {
            // --- per-rep init: my chunk of pm_a; bases into s1/s2/a0 ---
            a.li(Reg::S1, l.pm_a as i64);
            a.li(Reg::S2, l.pm_b as i64);
            a.li(Reg::A0, l.dec as i64);
            a.li(Reg::A1, l.lvl0 as i64);
            a.li(Reg::A4, l.lvl1 as i64);
            a.li(Reg::A3, l.recv0 as i64);
            a.li(Reg::A7, l.recv1 as i64);
            a.li(Reg::T0, l.chunk as i64);
            a.mul(Reg::T1, Reg::TID, Reg::T0); // lo
            a.add(Reg::T2, Reg::T1, Reg::T0);
            a.li(Reg::T3, s_count);
            a.min(Reg::T2, Reg::T2, Reg::T3); // hi
            a.bge(Reg::T1, Reg::T2, "init_done");
            a.slli(Reg::T3, Reg::T1, 3);
            a.add(Reg::T3, Reg::S1, Reg::T3);
            a.mv(Reg::T4, Reg::T1);
            a.label("init_loop")?;
            a.li(Reg::T5, BIG);
            a.bne(Reg::T4, Reg::ZERO, "init_store");
            a.li(Reg::T5, 0);
            a.label("init_store")?;
            a.std(Reg::T5, Reg::T3, 0);
            a.addi(Reg::T3, Reg::T3, 8);
            a.addi(Reg::T4, Reg::T4, 1);
            a.blt(Reg::T4, Reg::T2, "init_loop");
            a.label("init_done")?;
            call_barrier(a);
            // --- trellis stages ---
            a.li(Reg::S0, 0); // t
            a.label("stage_loop")?;
            a.slli(Reg::T2, Reg::S0, 3);
            a.add(Reg::T3, Reg::A3, Reg::T2);
            a.ldd(Reg::S4, Reg::T3, 0); // r0
            a.add(Reg::T3, Reg::A7, Reg::T2);
            a.ldd(Reg::A5, Reg::T3, 0); // r1
            a.li(Reg::T1, l.chunk as i64);
            a.mul(Reg::T0, Reg::TID, Reg::T1); // s = lo
            a.add(Reg::T1, Reg::T0, Reg::T1);
            a.li(Reg::T2, s_count);
            a.min(Reg::T1, Reg::T1, Reg::T2); // hi
            a.bge(Reg::T0, Reg::T1, "acs_done");
            a.label("state_loop")?;
            // pm[p0], pm[p1]  (p1 = p0 + states/2)
            a.srli(Reg::T2, Reg::T0, 1);
            a.slli(Reg::T3, Reg::T2, 3);
            a.add(Reg::T3, Reg::S1, Reg::T3);
            a.ldd(Reg::T4, Reg::T3, 0);
            a.ld(Reg::T5, Reg::T3, half_off, MemWidth::D);
            a.slli(Reg::T2, Reg::T0, 3); // m0 table offset
                                         // c0: soft branch metric for m0 = s
            a.add(Reg::T3, Reg::A1, Reg::T2);
            a.ldd(Reg::A2, Reg::T3, 0);
            a.sub(Reg::A2, Reg::A2, Reg::S4);
            emit_abs_into_a2(a);
            a.add(Reg::T4, Reg::T4, Reg::A2);
            a.add(Reg::T3, Reg::A4, Reg::T2);
            a.ldd(Reg::A2, Reg::T3, 0);
            a.sub(Reg::A2, Reg::A2, Reg::A5);
            emit_abs_into_a2(a);
            a.add(Reg::T4, Reg::T4, Reg::A2); // c0
                                              // c1: soft branch metric for m1 = s + states
            a.add(Reg::T3, Reg::A1, Reg::T2);
            a.ld(Reg::A2, Reg::T3, hi_off, MemWidth::D);
            a.sub(Reg::A2, Reg::A2, Reg::S4);
            emit_abs_into_a2(a);
            a.add(Reg::T5, Reg::T5, Reg::A2);
            a.add(Reg::T3, Reg::A4, Reg::T2);
            a.ld(Reg::A2, Reg::T3, hi_off, MemWidth::D);
            a.sub(Reg::A2, Reg::A2, Reg::A5);
            emit_abs_into_a2(a);
            a.add(Reg::T5, Reg::T5, Reg::A2); // c1
            a.slt(Reg::A2, Reg::T5, Reg::T4); // dec = c1 < c0
            a.min(Reg::T4, Reg::T4, Reg::T5);
            a.slli(Reg::T5, Reg::T0, 3); // per-state offset
            a.add(Reg::T3, Reg::S2, Reg::T5);
            a.std(Reg::T4, Reg::T3, 0); // pm_next[s]
            a.add(Reg::T3, Reg::A0, Reg::T5);
            a.std(Reg::A2, Reg::T3, 0); // dec[t][s]
            a.addi(Reg::T0, Reg::T0, 1);
            a.blt(Reg::T0, Reg::T1, "state_loop");
            a.label("acs_done")?;
            call_barrier(a);
            // swap pm buffers, advance dec pointer
            a.mv(Reg::T2, Reg::S1);
            a.mv(Reg::S1, Reg::S2);
            a.mv(Reg::S2, Reg::T2);
            a.addi(Reg::A0, Reg::A0, dec_stride);
            a.addi(Reg::S0, Reg::S0, 1);
            a.li(Reg::T2, t_count);
            a.blt(Reg::S0, Reg::T2, "stage_loop");
            // --- traceback on thread 0 ---
            a.bne(Reg::TID, Reg::ZERO, "tb_done");
            // best final state (lowest metric, lowest index wins)
            a.li(Reg::T0, 1);
            a.li(Reg::T1, 0); // best state
            a.ldd(Reg::T2, Reg::S1, 0); // best metric
            a.label("tb_scan")?;
            a.slli(Reg::T3, Reg::T0, 3);
            a.add(Reg::T3, Reg::S1, Reg::T3);
            a.ldd(Reg::T4, Reg::T3, 0);
            a.bge(Reg::T4, Reg::T2, "tb_skip");
            a.mv(Reg::T2, Reg::T4);
            a.mv(Reg::T1, Reg::T0);
            a.label("tb_skip")?;
            a.addi(Reg::T0, Reg::T0, 1);
            a.li(Reg::T3, s_count);
            a.blt(Reg::T0, Reg::T3, "tb_scan");
            // walk back
            a.li(Reg::T0, t_count - 1);
            a.label("tb_loop")?;
            a.addi(Reg::A0, Reg::A0, -dec_stride);
            a.slli(Reg::T3, Reg::T1, 3);
            a.add(Reg::T3, Reg::A0, Reg::T3);
            a.ldd(Reg::T4, Reg::T3, 0); // dec bit
            a.andi(Reg::T5, Reg::T1, 1);
            a.slli(Reg::T3, Reg::T0, 3);
            a.li(Reg::T2, l.out as i64);
            a.add(Reg::T2, Reg::T2, Reg::T3);
            a.std(Reg::T5, Reg::T2, 0); // out[t] = s & 1
            a.srli(Reg::T1, Reg::T1, 1);
            a.slli(Reg::T4, Reg::T4, shift_back);
            a.or(Reg::T1, Reg::T1, Reg::T4);
            a.addi(Reg::T0, Reg::T0, -1);
            a.bge(Reg::T0, Reg::ZERO, "tb_loop");
            a.label("tb_done")?;
            call_barrier(a);
            Ok(())
        })
    }
}

struct Layout {
    lvl0: u64,
    lvl1: u64,
    recv0: u64,
    recv1: u64,
    pm_a: u64,
    pm_b: u64,
    dec: u64,
    out: u64,
    chunk: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noiseless_decode_recovers_the_bits() {
        let v = Viterbi::with_params(5, 64, 0);
        let decoded = v.reference_decode();
        for (i, &b) in v.bits.iter().enumerate() {
            assert_eq!(decoded[i], b as u64, "bit {i}");
        }
    }

    #[test]
    fn noisy_decode_mostly_recovers_the_bits() {
        let v = Viterbi::new(256); // 1% soft-channel noise
        let decoded = v.reference_decode();
        let errors: usize = v
            .bits
            .iter()
            .enumerate()
            .filter(|&(i, &b)| decoded[i] != b as u64)
            .count();
        assert!(errors <= 4, "too many residual errors: {errors}");
    }

    #[test]
    fn sequential_matches_host() {
        Viterbi::new(32).run_sequential().unwrap();
    }

    #[test]
    fn parallel_filter_matches_host() {
        Viterbi::new(48)
            .run_parallel(4, BarrierMechanism::FilterD)
            .unwrap();
    }

    #[test]
    fn parallel_sw_matches_host() {
        Viterbi::new(32)
            .run_parallel(8, BarrierMechanism::SwCentral)
            .unwrap();
    }

    #[test]
    fn k7_variant_works() {
        let v = Viterbi::with_params(7, 24, 0);
        assert_eq!(v.states(), 64);
        v.run_parallel(4, BarrierMechanism::HwDedicated).unwrap();
    }
}

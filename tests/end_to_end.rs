//! Cross-crate integration tests: the whole stack (ISA → simulator →
//! barrier filter → kernels) assembled through the public `fastbar` facade,
//! asserting the paper's headline *shape* claims at test-sized inputs.

use fastbar::cmp_sim;
use fastbar::prelude::*;

/// Cycles per repetition of `w`'s sequential baseline.
fn seq(w: WorkloadSpec) -> f64 {
    run(&RunSpec::sequential(w)).unwrap().outcome.cycles_per_rep
}

/// Cycles per repetition of `w` on `threads` threads under `mechanism`.
fn par(w: WorkloadSpec, threads: usize, mechanism: BarrierMechanism) -> f64 {
    run(&RunSpec::parallel(w, threads, mechanism))
        .unwrap()
        .outcome
        .cycles_per_rep
}

/// The EEMBC-like K=5 Viterbi decode of `data_bits` bits at 1% noise.
fn viterbi(data_bits: usize) -> WorkloadSpec {
    WorkloadSpec::Viterbi {
        constraint: 5,
        data_bits,
        noise_per_mille: 10,
    }
}

#[test]
fn prelude_builds_a_machine() {
    let config = SimConfig::with_cores(2);
    let mut asm = Asm::new();
    asm.label("entry").unwrap();
    asm.halt();
    let program = asm.assemble().unwrap();
    let entry = program.require_symbol("entry").unwrap();
    let mut mb = MachineBuilder::new(config, program).unwrap();
    mb.add_thread(entry);
    mb.add_thread(entry);
    let mut m = mb.build().unwrap();
    let summary = m.run().unwrap();
    assert_eq!(summary.instructions, 2);
}

#[test]
fn paper_claim_filters_beat_software_on_every_kernel() {
    // Reduced-size version of the Table 1 ordering claim.
    let threads = 8;
    let checks = [
        (
            "loop3",
            WorkloadSpec::Loop3 { n: 128 },
            BarrierMechanism::FilterI,
        ),
        ("viterbi", viterbi(48), BarrierMechanism::FilterD),
    ];
    for (name, w, filter) in checks {
        let seq = seq(w);
        let sw_speedup = seq / par(w, threads, BarrierMechanism::SwTree);
        let filter_speedup = seq / par(w, threads, filter);
        assert!(
            filter_speedup > sw_speedup,
            "{name}: filter {filter_speedup:.2}x must beat software {sw_speedup:.2}x"
        );
    }
}

#[test]
fn paper_claim_viterbi_software_slowdown_filter_speedup() {
    // Table 1 / Figure 6: at 16 cores the software-barrier Viterbi is
    // slower than sequential while the filter version is faster.
    let w = viterbi(96);
    let seq = seq(w);
    let sw = par(w, 16, BarrierMechanism::SwCentral);
    let filt = par(w, 16, BarrierMechanism::FilterI);
    assert!(sw > seq, "software-barrier viterbi must be a slowdown");
    assert!(filt < seq, "filter-barrier viterbi must be a speedup");
}

#[test]
fn paper_claim_loop2_crossover_is_later_than_loop3() {
    // Figures 7 vs 8: loop 2's halving parallelism pushes its filter
    // crossover to larger vector lengths than loop 3's.
    let crossover = |workload: fn(usize) -> WorkloadSpec| -> usize {
        [16usize, 32, 64, 128, 256, 512]
            .into_iter()
            .find(|&n| par(workload(n), 16, BarrierMechanism::FilterI) < seq(workload(n)))
            .unwrap_or(usize::MAX)
    };
    let loop3 = crossover(|n| WorkloadSpec::Loop3 { n });
    let loop2 = crossover(|n| WorkloadSpec::Loop2 { n });
    assert!(
        loop2 >= loop3,
        "loop2 crossover N={loop2} must not precede loop3's N={loop3}"
    );
    assert!(
        loop3 <= 256,
        "loop3 must cross over at modest vector lengths"
    );
}

#[test]
fn paper_claim_loop6_parallel_beats_sequential_by_3x_at_256() {
    // Figure 10: "more than a factor of 3 faster ... for vector lengths of
    // 256 elements." (Checked at 128 to keep the test fast; the full size
    // runs in `fastbar fig10`.)
    let w = WorkloadSpec::Loop6 { n: 128 };
    let speedup = seq(w) / par(w, 16, BarrierMechanism::FilterI);
    assert!(
        speedup > 3.0,
        "loop6 filter speedup {speedup:.2} must exceed 3x"
    );
}

#[test]
fn paper_claim_coarse_grained_barriers_barely_matter() {
    // §4.1: with hundreds of instructions per barrier, the mechanism choice
    // moves whole-program time by only a few percent.
    let w = WorkloadSpec::Ocean {
        grid: 66,
        sweeps: 6,
    };
    let sw = par(w, 16, BarrierMechanism::SwCentral);
    let filt = par(w, 16, BarrierMechanism::FilterI);
    let improvement = (sw - filt) / sw;
    assert!(
        improvement < 0.25,
        "coarse-grained improvement {:.1}% should be small",
        improvement * 100.0
    );
    assert!(filt <= sw, "filters never lose");
}

#[test]
fn embarrassingly_parallel_loop1_needs_no_fast_barrier() {
    // Loop 1 scales regardless of mechanism: the barrier is per-repetition
    // only, so even sw-central parallelizes it.
    let w = WorkloadSpec::Loop1 { n: 2048 };
    let speedup = seq(w) / par(w, 16, BarrierMechanism::SwCentral);
    assert!(speedup > 4.0, "speedup {speedup:.2} too small");
}

#[test]
fn autocorrelation_scales_with_filters() {
    let w = WorkloadSpec::Autocorr { n: 512, lags: 8 };
    let speedup = seq(w) / par(w, 16, BarrierMechanism::FilterD);
    assert!(speedup > 2.0, "speedup {speedup:.2} too small");
}

#[test]
fn whole_stack_is_deterministic() {
    let spec = RunSpec::parallel(
        WorkloadSpec::Loop6 { n: 24 },
        4,
        BarrierMechanism::FilterDPingPong,
    );
    let cycles = || run(&spec).unwrap().outcome.sim.cycles;
    assert_eq!(cycles(), cycles());
}

#[test]
fn sixty_four_core_machine_runs_a_kernel() {
    // The largest configuration the paper sweeps (Figure 4's right edge).
    let spec = RunSpec::parallel(
        WorkloadSpec::Loop3 { n: 1024 },
        64,
        BarrierMechanism::FilterIPingPong,
    );
    assert!(run(&spec).unwrap().outcome.sim.cycles > 0);
}

#[test]
fn layout_and_machine_agree_on_bank_homing() {
    // An arrival range allocated by the OS layer must be observed by the
    // single filter of its bank: cross-checked through the public APIs.
    let config = SimConfig::with_cores(4);
    let mut space = cmp_sim::AddressSpace::new(&config);
    for bank in 0..config.l2_banks {
        let base = space.alloc_bank_lines(bank, 4).unwrap();
        for t in 0..4u64 {
            assert_eq!(config.bank_of(base + 64 * t), bank);
        }
    }
}

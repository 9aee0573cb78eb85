//! End-to-end barrier tests: every mechanism of §4 must actually
//! synchronize threads on the simulated CMP, the relative latency ordering
//! of Figure 4 must hold, and the §3.3 OS behaviours (fallback, protocol
//! violations, hardware timeout) must be observable.

use barrier_filter::{Barrier, BarrierMechanism, BarrierSystem, FilterCapacity};
use cmp_sim::{AddressSpace, Machine, MachineBuilder, SimConfig, SimError, FILL_ERROR_SENTINEL};
use sim_isa::{Asm, Reg};

/// Emit a phase-consistency kernel: each thread publishes its phase number,
/// crosses the barrier, then checks that every other thread has published a
/// phase at least as large; a second barrier separates phases. Any
/// violation is recorded in a per-thread error slot.
fn emit_phase_kernel(a: &mut Asm, barrier: &Barrier, slots: u64, errs: u64, phases: u64) {
    a.label("entry").unwrap();
    a.li(Reg::S0, 0); // current phase
    a.li(Reg::S1, phases as i64);
    a.li(Reg::S2, slots as i64);
    a.li(Reg::S3, errs as i64);
    a.label("phase_loop").unwrap();
    a.addi(Reg::S0, Reg::S0, 1);
    // slots[tid] = phase
    a.slli(Reg::T0, Reg::TID, 6);
    a.add(Reg::T1, Reg::S2, Reg::T0);
    a.std(Reg::S0, Reg::T1, 0);
    barrier.emit_call(a);
    // for j in 0..NTID: slots[j] must be >= phase
    a.li(Reg::T2, 0);
    a.label("check").unwrap();
    a.slli(Reg::T3, Reg::T2, 6);
    a.add(Reg::T3, Reg::S2, Reg::T3);
    a.ldd(Reg::T4, Reg::T3, 0);
    a.bge(Reg::T4, Reg::S0, "slot_ok");
    // record the failing phase in errs[tid]
    a.slli(Reg::T5, Reg::TID, 6);
    a.add(Reg::T5, Reg::S3, Reg::T5);
    a.std(Reg::S0, Reg::T5, 0);
    a.label("slot_ok").unwrap();
    a.addi(Reg::T2, Reg::T2, 1);
    a.blt(Reg::T2, Reg::NTID, "check");
    // separate the read phase from the next write phase
    barrier.emit_call(a);
    a.blt(Reg::S0, Reg::S1, "phase_loop");
    a.halt();
}

fn run_phase_test(mechanism: BarrierMechanism, threads: usize, phases: u64) -> Machine {
    run_phase_test_on(SimConfig::with_cores(threads), mechanism, threads, phases)
}

fn run_phase_test_on(
    config: SimConfig,
    mechanism: BarrierMechanism,
    threads: usize,
    phases: u64,
) -> Machine {
    let mut space = AddressSpace::new(&config);
    let mut asm = Asm::new();
    let mut sys = BarrierSystem::new(&config, threads, &mut space).unwrap();
    let barrier = sys
        .create_barrier(&mut asm, &mut space, mechanism, threads)
        .unwrap();
    assert!(!barrier.is_fallback());
    let slots = space.alloc_lines(threads as u64).unwrap();
    let errs = space.alloc_lines(threads as u64).unwrap();
    emit_phase_kernel(&mut asm, &barrier, slots, errs, phases);
    let program = asm.assemble().unwrap();
    let entry = program.require_symbol("entry").unwrap();
    let mut cfg = config;
    cfg.cycle_limit = 50_000_000;
    let mut mb = MachineBuilder::new(cfg, program).unwrap();
    for _ in 0..threads {
        mb.add_thread(entry);
    }
    sys.install(&mut mb).unwrap();
    let mut m = mb.build().unwrap();
    m.run()
        .unwrap_or_else(|e| panic!("{mechanism} failed: {e}"));
    // no thread ever observed a stale phase
    for t in 0..threads {
        assert_eq!(
            m.read_u64(errs + 64 * t as u64),
            0,
            "{mechanism}: thread {t} observed a phase violation"
        );
        assert_eq!(m.read_u64(slots + 64 * t as u64), phases);
    }
    m
}

#[test]
fn sw_central_synchronizes_16_threads() {
    run_phase_test(BarrierMechanism::SwCentral, 16, 6);
}

#[test]
fn sw_tree_synchronizes_16_threads() {
    run_phase_test(BarrierMechanism::SwTree, 16, 6);
}

#[test]
fn filter_d_synchronizes_16_threads() {
    let m = run_phase_test(BarrierMechanism::FilterD, 16, 6);
    // 12 barrier episodes * 16 threads parked or serviced
    assert!(m.stats().fills_parked() > 0, "the filter must starve fills");
}

#[test]
fn filter_i_synchronizes_16_threads() {
    run_phase_test(BarrierMechanism::FilterI, 16, 6);
}

#[test]
fn filter_d_ping_pong_synchronizes_16_threads() {
    run_phase_test(BarrierMechanism::FilterDPingPong, 16, 6);
}

#[test]
fn filter_i_ping_pong_synchronizes_16_threads() {
    run_phase_test(BarrierMechanism::FilterIPingPong, 16, 6);
}

#[test]
fn hw_dedicated_synchronizes_16_threads() {
    run_phase_test(BarrierMechanism::HwDedicated, 16, 6);
}

#[test]
fn sw_hier_synchronizes_16_threads() {
    // Flat machine: the hierarchy degenerates to one 16-thread "cluster".
    run_phase_test(BarrierMechanism::SwHier, 16, 6);
}

#[test]
fn filter_d_hier_synchronizes_16_threads() {
    let m = run_phase_test(BarrierMechanism::FilterDHier, 16, 6);
    assert!(m.stats().fills_parked() > 0, "the filter must starve fills");
}

#[test]
fn hier_mechanisms_synchronize_on_a_clustered_64_core_machine() {
    let for_each = [BarrierMechanism::SwHier, BarrierMechanism::FilterDHier];
    for mechanism in for_each {
        run_phase_test_on(SimConfig::clustered(64, 4), mechanism, 64, 3);
    }
}

#[test]
fn all_mechanisms_work_on_odd_thread_counts() {
    // 5 threads exercises the unpaired-partner paths of the tree barrier
    // and non-power-of-two filter tables
    for m in BarrierMechanism::ALL {
        run_phase_test(m, 5, 3);
    }
}

#[test]
fn all_mechanisms_work_with_two_threads() {
    for m in BarrierMechanism::ALL {
        run_phase_test(m, 2, 4);
    }
}

/// Build a barrier-latency microbenchmark (§4.2 methodology): a loop of
/// `inner` consecutive barriers executed `outer` times with no work between
/// them, returning average cycles per barrier.
fn barrier_latency(mechanism: BarrierMechanism, threads: usize, inner: u64, outer: u64) -> f64 {
    let config = SimConfig::with_cores(threads);
    let mut space = AddressSpace::new(&config);
    let mut asm = Asm::new();
    let mut sys = BarrierSystem::new(&config, threads, &mut space).unwrap();
    let barrier = sys
        .create_barrier(&mut asm, &mut space, mechanism, threads)
        .unwrap();
    asm.label("entry").unwrap();
    asm.li(Reg::S0, outer as i64);
    asm.label("outer").unwrap();
    asm.li(Reg::S1, inner as i64);
    asm.label("inner").unwrap();
    barrier.emit_call(&mut asm);
    asm.addi(Reg::S1, Reg::S1, -1);
    asm.bne(Reg::S1, Reg::ZERO, "inner");
    asm.addi(Reg::S0, Reg::S0, -1);
    asm.bne(Reg::S0, Reg::ZERO, "outer");
    asm.halt();
    let program = asm.assemble().unwrap();
    let entry = program.require_symbol("entry").unwrap();
    let mut cfg = config;
    cfg.cycle_limit = 500_000_000;
    let mut mb = MachineBuilder::new(cfg, program).unwrap();
    for _ in 0..threads {
        mb.add_thread(entry);
    }
    sys.install(&mut mb).unwrap();
    let mut m = mb.build().unwrap();
    let summary = m.run().unwrap();
    summary.cycles as f64 / (inner * outer) as f64
}

#[test]
fn latency_ordering_matches_figure_4() {
    // 16 cores, 256 barriers: enough contention for the tree to beat the
    // centralized counter, and enough repetitions to amortize cold misses.
    let threads = 16;
    let lat = |m| barrier_latency(m, threads, 32, 8);
    let sw_central = lat(BarrierMechanism::SwCentral);
    let sw_tree = lat(BarrierMechanism::SwTree);
    let filter_d = lat(BarrierMechanism::FilterD);
    let filter_i = lat(BarrierMechanism::FilterI);
    let filter_d_pp = lat(BarrierMechanism::FilterDPingPong);
    let filter_i_pp = lat(BarrierMechanism::FilterIPingPong);
    let hw = lat(BarrierMechanism::HwDedicated);

    // dedicated network is fastest; filters beat software; centralized
    // software is worst at scale (Figure 4 ordering)
    assert!(hw < filter_i_pp, "hw {hw} vs filter-i-pp {filter_i_pp}");
    assert!(
        filter_i_pp < sw_tree,
        "i-pp {filter_i_pp} vs tree {sw_tree}"
    );
    assert!(
        filter_d_pp < sw_tree,
        "d-pp {filter_d_pp} vs tree {sw_tree}"
    );
    assert!(filter_i < sw_tree, "i {filter_i} vs tree {sw_tree}");
    assert!(filter_d < sw_tree, "d {filter_d} vs tree {sw_tree}");
    assert!(
        sw_tree < sw_central,
        "tree {sw_tree} vs central {sw_central}"
    );
    // I-cache variants execute one memory fence per invocation where the
    // D-cache variants execute two: "slightly better performance" (§4.2)
    assert!(filter_i <= filter_d * 1.02, "i {filter_i} vs d {filter_d}");
    // ping-pong halves the invalidation traffic (§3.5): faster in steady
    // state
    assert!(filter_i_pp < filter_i, "i-pp {filter_i_pp} vs i {filter_i}");
    assert!(filter_d_pp < filter_d, "d-pp {filter_d_pp} vs d {filter_d}");
}

#[test]
fn software_fallback_still_synchronizes() {
    let threads = 4;
    let config = SimConfig::with_cores(threads);
    let mut space = AddressSpace::new(&config);
    let mut asm = Asm::new();
    let cap = FilterCapacity {
        tables_per_bank: 0,
        max_threads: 64,
    };
    let mut sys = BarrierSystem::with_capacity(&config, threads, &mut space, cap).unwrap();
    let barrier = sys
        .create_barrier(&mut asm, &mut space, BarrierMechanism::FilterD, threads)
        .unwrap();
    assert!(barrier.is_fallback());
    let slots = space.alloc_lines(threads as u64).unwrap();
    let errs = space.alloc_lines(threads as u64).unwrap();
    emit_phase_kernel(&mut asm, &barrier, slots, errs, 3);
    let program = asm.assemble().unwrap();
    let entry = program.require_symbol("entry").unwrap();
    let mut mb = MachineBuilder::new(config, program).unwrap();
    for _ in 0..threads {
        mb.add_thread(entry);
    }
    sys.install(&mut mb).unwrap();
    let mut m = mb.build().unwrap();
    m.run().unwrap();
    for t in 0..threads {
        assert_eq!(m.read_u64(errs + 64 * t as u64), 0);
    }
}

#[test]
fn loading_an_arrival_address_without_invalidate_is_an_exception() {
    // §3.3.4: a fill for an arrival address whose thread is Waiting faults.
    let threads = 2;
    let config = SimConfig::with_cores(threads);
    let mut space = AddressSpace::new(&config);
    let mut asm = Asm::new();
    let mut sys = BarrierSystem::new(&config, threads, &mut space).unwrap();
    let barrier = sys
        .create_barrier(&mut asm, &mut space, BarrierMechanism::FilterD, threads)
        .unwrap();
    let arrival_base = barrier.arrival_base().unwrap();
    asm.label("entry").unwrap();
    asm.li(Reg::T0, arrival_base as i64);
    asm.ldd(Reg::T1, Reg::T0, 0); // rogue load: no dcbi first
    barrier.emit_call(&mut asm);
    asm.halt();
    let program = asm.assemble().unwrap();
    let entry = program.require_symbol("entry").unwrap();
    let mut mb = MachineBuilder::new(config, program).unwrap();
    for _ in 0..threads {
        mb.add_thread(entry);
    }
    sys.install(&mut mb).unwrap();
    let mut m = mb.build().unwrap();
    match m.run() {
        Err(SimError::Hook { violation, .. }) => {
            assert!(violation.to_string().contains("Waiting"));
        }
        other => panic!("expected a hook violation, got {other:?}"),
    }
}

#[test]
fn hardware_timeout_embeds_error_code_in_reply() {
    // One thread of a two-thread filter barrier never shows up; the parked
    // fill is completed with an error code after the timeout (§3.3.4).
    let threads = 2;
    let config = SimConfig::with_cores(threads);
    let mut space = AddressSpace::new(&config);
    let mut asm = Asm::new();
    let mut sys = BarrierSystem::new(&config, threads, &mut space).unwrap();
    sys.set_timeout(Some(2_000));
    let barrier = sys
        .create_barrier(&mut asm, &mut space, BarrierMechanism::FilterD, threads)
        .unwrap();
    let arrival_base = barrier.arrival_base().unwrap();
    let out = space.alloc_u64(1).unwrap();
    // Thread 0 performs the arrival sequence by hand and checks the loaded
    // value for the embedded error code; thread 1 just halts (never
    // arrives).
    asm.label("entry").unwrap();
    asm.bne(Reg::TID, Reg::ZERO, "absent");
    asm.li(Reg::T0, arrival_base as i64);
    asm.sync();
    asm.dcbi(Reg::T0, 0);
    asm.isync();
    asm.ldd(Reg::T1, Reg::T0, 0); // parked, then errored after 2000 cycles
    asm.li(Reg::T2, FILL_ERROR_SENTINEL as i64);
    asm.li(Reg::T3, 0);
    asm.bne(Reg::T1, Reg::T2, "store");
    asm.li(Reg::T3, 1);
    asm.label("store").unwrap();
    asm.li(Reg::T4, out as i64);
    asm.std(Reg::T3, Reg::T4, 0);
    asm.halt();
    asm.label("absent").unwrap();
    asm.halt();
    let program = asm.assemble().unwrap();
    let entry = program.require_symbol("entry").unwrap();
    let mut mb = MachineBuilder::new(config, program).unwrap();
    for _ in 0..threads {
        mb.add_thread(entry);
    }
    sys.install(&mut mb).unwrap();
    let mut m = mb.build().unwrap();
    let summary = m.run().unwrap();
    assert_eq!(m.read_u64(out), 1, "load must observe the error sentinel");
    assert!(
        summary.cycles >= 2_000,
        "the thread was starved until the timeout"
    );
}

#[test]
fn many_barriers_coexist_in_one_program() {
    // Two filter barriers plus a software barrier used in sequence.
    let threads = 4;
    let config = SimConfig::with_cores(threads);
    let mut space = AddressSpace::new(&config);
    let mut asm = Asm::new();
    let mut sys = BarrierSystem::new(&config, threads, &mut space).unwrap();
    let b1 = sys
        .create_barrier(&mut asm, &mut space, BarrierMechanism::FilterD, threads)
        .unwrap();
    let b2 = sys
        .create_barrier(
            &mut asm,
            &mut space,
            BarrierMechanism::FilterIPingPong,
            threads,
        )
        .unwrap();
    let b3 = sys
        .create_barrier(&mut asm, &mut space, BarrierMechanism::SwTree, threads)
        .unwrap();
    let slots = space.alloc_lines(threads as u64).unwrap();
    asm.label("entry").unwrap();
    asm.li(Reg::S0, 3);
    asm.label("loop").unwrap();
    b1.emit_call(&mut asm);
    b2.emit_call(&mut asm);
    b3.emit_call(&mut asm);
    asm.addi(Reg::S0, Reg::S0, -1);
    asm.bne(Reg::S0, Reg::ZERO, "loop");
    asm.slli(Reg::T0, Reg::TID, 6);
    asm.li(Reg::T1, slots as i64);
    asm.add(Reg::T1, Reg::T1, Reg::T0);
    asm.li(Reg::T2, 1);
    asm.std(Reg::T2, Reg::T1, 0);
    asm.halt();
    let program = asm.assemble().unwrap();
    let entry = program.require_symbol("entry").unwrap();
    let mut mb = MachineBuilder::new(config, program).unwrap();
    for _ in 0..threads {
        mb.add_thread(entry);
    }
    sys.install(&mut mb).unwrap();
    let mut m = mb.build().unwrap();
    m.run().unwrap();
    for t in 0..threads {
        assert_eq!(m.read_u64(slots + 64 * t as u64), 1);
    }
}

#[test]
fn filter_barriers_generate_no_coherence_upgrades() {
    // The paper: the filter mechanism "generates no spurious coherence
    // traffic", unlike software barriers that update shared state.
    let threads = 8;
    let run = |mechanism| {
        let config = SimConfig::with_cores(threads);
        let mut space = AddressSpace::new(&config);
        let mut asm = Asm::new();
        let mut sys = BarrierSystem::new(&config, threads, &mut space).unwrap();
        let barrier = sys
            .create_barrier(&mut asm, &mut space, mechanism, threads)
            .unwrap();
        asm.label("entry").unwrap();
        asm.li(Reg::S0, 8);
        asm.label("loop").unwrap();
        barrier.emit_call(&mut asm);
        asm.addi(Reg::S0, Reg::S0, -1);
        asm.bne(Reg::S0, Reg::ZERO, "loop");
        asm.halt();
        let program = asm.assemble().unwrap();
        let entry = program.require_symbol("entry").unwrap();
        let mut mb = MachineBuilder::new(config, program).unwrap();
        for _ in 0..threads {
            mb.add_thread(entry);
        }
        sys.install(&mut mb).unwrap();
        let mut m = mb.build().unwrap();
        m.run().unwrap();
        m.stats().directory.upgrade_invalidations
    };
    let filter_upgrades = run(BarrierMechanism::FilterD);
    let sw_upgrades = run(BarrierMechanism::SwCentral);
    assert_eq!(filter_upgrades, 0, "filter barriers never upgrade lines");
    assert!(sw_upgrades > 0, "software barriers ping-pong shared lines");
}

#[test]
fn checked_barrier_retries_through_hardware_timeouts() {
    // §3.3.4 retry path: thread 1 arrives very late, so thread 0's parked
    // fill is completed with an error code at least once; the checked
    // barrier re-issues the fill until the barrier genuinely opens, and
    // both threads proceed.
    let threads = 2;
    let config = SimConfig::with_cores(threads);
    let mut space = AddressSpace::new(&config);
    let mut asm = Asm::new();
    let mut sys = BarrierSystem::new(&config, threads, &mut space).unwrap();
    sys.set_timeout(Some(300));
    let barrier = sys
        .create_checked_filter_d(&mut asm, &mut space, threads)
        .unwrap();
    let out = space.alloc_lines(threads as u64).unwrap();
    asm.label("entry").unwrap();
    a_delay_then_barrier(&mut asm, &barrier, out);
    let program = asm.assemble().unwrap();
    let entry = program.require_symbol("entry").unwrap();
    let mut mb = MachineBuilder::new(config, program).unwrap();
    for _ in 0..threads {
        mb.add_thread(entry);
    }
    sys.install(&mut mb).unwrap();
    let mut m = mb.build().unwrap();
    let summary = m.run().unwrap();
    for t in 0..threads {
        assert_eq!(m.read_u64(out + 64 * t as u64), 1, "thread {t} completed");
    }
    assert!(
        summary.cycles > 2_000,
        "thread 0 must have waited through the straggler (cycles = {})",
        summary.cycles
    );
}

/// Thread 1 spins ~2000 iterations before entering the barrier; both store
/// a completion marker afterwards.
fn a_delay_then_barrier(asm: &mut Asm, barrier: &Barrier, out: u64) {
    asm.beq(Reg::TID, Reg::ZERO, "go");
    asm.li(Reg::T0, 2_000);
    asm.label("delay").unwrap();
    asm.addi(Reg::T0, Reg::T0, -1);
    asm.bne(Reg::T0, Reg::ZERO, "delay");
    asm.label("go").unwrap();
    barrier.emit_call(asm);
    asm.slli(Reg::T1, Reg::TID, 6);
    asm.li(Reg::T2, out as i64);
    asm.add(Reg::T2, Reg::T2, Reg::T1);
    asm.li(Reg::T3, 1);
    asm.std(Reg::T3, Reg::T2, 0);
    asm.halt();
}

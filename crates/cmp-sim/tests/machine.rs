//! End-to-end tests of the machine: functional correctness of the VM,
//! timing sanity of the memory hierarchy, synchronization primitives, the
//! bank-hook parking machinery, and error detection.

use cmp_sim::{
    AddressSpace, BankHook, FillDecision, HookOutcome, HookViolation, MachineBuilder, ParkToken,
    RingSink, RunState, SimConfig, SimError, TraceEvent,
};
use sim_isa::{line_of, Asm, FReg, Program, Reg};

fn build(config: SimConfig, program: Program, threads: usize) -> (cmp_sim::Machine, u64) {
    let entry = program.require_symbol("entry").unwrap();
    let mut b = MachineBuilder::new(config, program).unwrap();
    for _ in 0..threads {
        b.add_thread(entry);
    }
    (b.build().unwrap(), entry)
}

#[test]
fn arithmetic_loop_computes_correctly() {
    // sum of 1..=100 via a loop
    let mut a = Asm::new();
    let cfg = SimConfig::with_cores(1);
    let mut space = AddressSpace::new(&cfg);
    let out = space.alloc_u64(1).unwrap();
    a.label("entry").unwrap();
    a.li(Reg::T0, 100).li(Reg::T1, 0);
    a.label("loop").unwrap();
    a.add(Reg::T1, Reg::T1, Reg::T0);
    a.addi(Reg::T0, Reg::T0, -1);
    a.bne(Reg::T0, Reg::ZERO, "loop");
    a.li(Reg::T2, out as i64);
    a.std(Reg::T1, Reg::T2, 0);
    a.halt();
    let (mut m, _) = build(cfg, a.assemble().unwrap(), 1);
    let summary = m.run().unwrap();
    assert_eq!(m.read_u64(out), 5050);
    assert!(summary.instructions > 300);
    assert!(
        summary.cycles > summary.instructions,
        "loop has taken branches"
    );
}

#[test]
fn fp_kernel_matches_host() {
    // out = a*b + c with fmadd
    let cfg = SimConfig::with_cores(1);
    let mut space = AddressSpace::new(&cfg);
    let data = space.alloc_f64(3).unwrap();
    let out = space.alloc_f64(1).unwrap();
    let mut a = Asm::new();
    a.label("entry").unwrap();
    a.li(Reg::T0, data as i64);
    a.fld(FReg::F1, Reg::T0, 0);
    a.fld(FReg::F2, Reg::T0, 8);
    a.fld(FReg::F3, Reg::T0, 16);
    a.fmadd(FReg::F0, FReg::F1, FReg::F2, FReg::F3);
    a.li(Reg::T1, out as i64);
    a.fst(FReg::F0, Reg::T1, 0);
    a.halt();
    let program = a.assemble().unwrap();
    let entry = program.require_symbol("entry").unwrap();
    let mut b = MachineBuilder::new(cfg, program).unwrap();
    b.write_f64_slice(data, &[1.5, -2.0, 0.25]);
    b.add_thread(entry);
    let mut m = b.build().unwrap();
    m.run().unwrap();
    assert_eq!(m.read_f64(out), 1.5f64.mul_add(-2.0, 0.25));
}

#[test]
fn cold_miss_pays_full_memory_latency_and_second_access_hits() {
    let cfg = SimConfig::with_cores(1);
    let mut space = AddressSpace::new(&cfg);
    let data = space.alloc_u64(1).unwrap();
    let mut a = Asm::new();
    a.label("entry").unwrap();
    a.li(Reg::T0, data as i64);
    a.ldd(Reg::T1, Reg::T0, 0); // cold: L2+L3+mem
    a.ldd(Reg::T2, Reg::T0, 0); // hot: L1 hit
    a.halt();
    let (mut m, _) = build(cfg, a.assemble().unwrap(), 1);
    let summary = m.run().unwrap();
    // the cold load alone costs at least L2+L3+memory latency
    let floor = 14 + 38 + 138;
    assert!(
        summary.cycles > floor,
        "cycles {} should exceed {floor}",
        summary.cycles
    );
    let stats = m.stats();
    assert_eq!(stats.l1d[0].misses, 1);
    assert_eq!(stats.l1d[0].hits, 1);
    // one data miss plus one instruction-fetch miss reach memory
    assert_eq!(stats.l3.misses, 2);
}

#[test]
fn l2_hit_is_much_faster_than_memory() {
    // Two cores read the same line; the second core's miss hits in L2.
    let cfg = SimConfig::with_cores(2);
    let mut space = AddressSpace::new(&cfg);
    let data = space.alloc_u64(1).unwrap();
    let mut a = Asm::new();
    a.label("entry").unwrap();
    // thread 1 spins a while so thread 0's fill completes first
    a.beq(Reg::TID, Reg::ZERO, "load");
    a.li(Reg::T3, 200);
    a.label("delay").unwrap();
    a.addi(Reg::T3, Reg::T3, -1);
    a.bne(Reg::T3, Reg::ZERO, "delay");
    a.label("load").unwrap();
    a.li(Reg::T0, data as i64);
    a.ldd(Reg::T1, Reg::T0, 0);
    a.halt();
    let (mut m, _) = build(cfg, a.assemble().unwrap(), 2);
    m.run().unwrap();
    let stats = m.stats();
    // core 0's data miss and the shared code line go to memory once each;
    // core 1's code fetch and data load are both satisfied by the L2
    assert_eq!(stats.l3.misses, 2);
    assert_eq!(stats.l2.iter().map(|c| c.hits).sum::<u64>(), 2);
}

#[test]
fn stores_are_visible_to_other_cores() {
    // Core 0 stores 7 to a flag line, then spins on an ack; core 1 spins on
    // the flag, then stores the ack.
    let cfg = SimConfig::with_cores(2);
    let mut space = AddressSpace::new(&cfg);
    let flag = space.alloc_u64(1).unwrap();
    let ack = space.alloc_u64(1).unwrap();
    let mut a = Asm::new();
    a.label("entry").unwrap();
    a.li(Reg::T0, flag as i64);
    a.li(Reg::T1, ack as i64);
    a.li(Reg::T2, 7);
    a.bne(Reg::TID, Reg::ZERO, "consumer");
    a.std(Reg::T2, Reg::T0, 0);
    a.label("wait_ack").unwrap();
    a.ldd(Reg::T3, Reg::T1, 0);
    a.beq(Reg::T3, Reg::ZERO, "wait_ack");
    a.halt();
    a.label("consumer").unwrap();
    a.label("wait_flag").unwrap();
    a.ldd(Reg::T3, Reg::T0, 0);
    a.beq(Reg::T3, Reg::ZERO, "wait_flag");
    a.std(Reg::T2, Reg::T1, 0);
    a.halt();
    let (mut m, _) = build(cfg, a.assemble().unwrap(), 2);
    m.run().unwrap();
    assert_eq!(m.read_u64(flag), 7);
    assert_eq!(m.read_u64(ack), 7);
}

#[test]
fn ll_sc_fetch_and_add_is_atomic_across_16_cores() {
    let cfg = SimConfig::with_cores(16);
    let mut space = AddressSpace::new(&cfg);
    let counter = space.alloc_u64(1).unwrap();
    // each of 16 threads increments the counter 10 times with ll/sc
    let mut a = Asm::new();
    a.label("entry").unwrap();
    a.li(Reg::T0, counter as i64);
    a.li(Reg::T1, 10);
    a.label("again").unwrap();
    a.ll(Reg::T2, Reg::T0, 0);
    a.addi(Reg::T2, Reg::T2, 1);
    a.sc(Reg::T3, Reg::T2, Reg::T0, 0);
    a.beq(Reg::T3, Reg::ZERO, "again"); // sc failed: retry
    a.addi(Reg::T1, Reg::T1, -1);
    a.bne(Reg::T1, Reg::ZERO, "again");
    a.halt();
    let (mut m, _) = build(cfg, a.assemble().unwrap(), 16);
    m.run().unwrap();
    assert_eq!(m.read_u64(counter), 160);
}

#[test]
fn sc_without_reservation_fails() {
    let cfg = SimConfig::with_cores(1);
    let mut space = AddressSpace::new(&cfg);
    let data = space.alloc_u64(1).unwrap();
    let out = space.alloc_u64(1).unwrap();
    let mut a = Asm::new();
    a.label("entry").unwrap();
    a.li(Reg::T0, data as i64);
    a.li(Reg::T2, 99);
    a.sc(Reg::T3, Reg::T2, Reg::T0, 0); // no ll first
    a.li(Reg::T1, out as i64);
    a.std(Reg::T3, Reg::T1, 0);
    a.halt();
    let (mut m, _) = build(cfg, a.assemble().unwrap(), 1);
    m.run().unwrap();
    assert_eq!(m.read_u64(out), 0, "sc must fail");
    assert_eq!(m.read_u64(data), 0, "failed sc must not write");
}

#[test]
fn remote_store_breaks_reservation() {
    // Core 0: ll, wait for signal, sc (must fail, because core 1 stored to
    // the line in between).
    let cfg = SimConfig::with_cores(2);
    let mut space = AddressSpace::new(&cfg);
    let target = space.alloc_u64(1).unwrap();
    let signal = space.alloc_u64(1).unwrap();
    let out = space.alloc_u64(1).unwrap();
    let mut a = Asm::new();
    a.label("entry").unwrap();
    a.li(Reg::T0, target as i64);
    a.li(Reg::T1, signal as i64);
    a.bne(Reg::TID, Reg::ZERO, "intruder");
    a.ll(Reg::T2, Reg::T0, 0);
    a.li(Reg::T4, 1);
    a.std(Reg::T4, Reg::T1, 8); // tell intruder we have the reservation
    a.label("wait").unwrap();
    a.ldd(Reg::T3, Reg::T1, 0);
    a.beq(Reg::T3, Reg::ZERO, "wait");
    a.li(Reg::T2, 42);
    a.sc(Reg::T3, Reg::T2, Reg::T0, 0);
    a.li(Reg::T5, out as i64);
    a.std(Reg::T3, Reg::T5, 0);
    a.halt();
    a.label("intruder").unwrap();
    a.label("wait2").unwrap();
    a.ldd(Reg::T3, Reg::T1, 8);
    a.beq(Reg::T3, Reg::ZERO, "wait2");
    a.li(Reg::T2, 7);
    a.std(Reg::T2, Reg::T0, 0); // clobber the reserved line
    a.li(Reg::T4, 1);
    a.std(Reg::T4, Reg::T1, 0);
    a.halt();
    let (mut m, _) = build(cfg, a.assemble().unwrap(), 2);
    m.run().unwrap();
    assert_eq!(m.read_u64(out), 0, "sc must observe the broken reservation");
    assert_eq!(m.read_u64(target), 7, "intruder's store survives");
}

#[test]
fn fence_waits_for_store_buffer() {
    let cfg = SimConfig::with_cores(1);
    let mut space = AddressSpace::new(&cfg);
    let data = space.alloc_u64(8).unwrap();
    // back-to-back stores to distinct lines, then sync
    let mut with_fence = Asm::new();
    with_fence.label("entry").unwrap();
    with_fence.li(Reg::T0, data as i64);
    for i in 0..4 {
        with_fence.std(Reg::T0, Reg::T0, i * 64);
    }
    with_fence.sync();
    with_fence.halt();
    let (mut m_fence, _) = build(cfg.clone(), with_fence.assemble().unwrap(), 1);
    let cy_fence = m_fence.run().unwrap().cycles;

    let mut no_fence = Asm::new();
    no_fence.label("entry").unwrap();
    no_fence.li(Reg::T0, data as i64);
    for i in 0..4 {
        no_fence.std(Reg::T0, Reg::T0, i * 64);
    }
    no_fence.halt();
    let (mut m_plain, _) = build(cfg, no_fence.assemble().unwrap(), 1);
    let cy_plain = m_plain.run().unwrap().cycles;
    // Draining four write-allocate misses through the fence costs far more
    // than retiring the stores into the buffer.
    assert!(
        cy_fence > cy_plain + 100,
        "fence {cy_fence} vs plain {cy_plain}"
    );
}

#[test]
fn icbi_invalidates_instruction_cache_everywhere() {
    let cfg = SimConfig::with_cores(1);
    let mut a = Asm::new();
    a.label("entry").unwrap();
    a.li(Reg::T0, 2);
    a.label("loop").unwrap();
    // invalidate the line containing "loop" itself, then isync, then loop
    a.li(Reg::T1, 0); // will be patched to hold the loop pc
    a.icbi(Reg::T1, 0);
    a.isync();
    a.addi(Reg::T0, Reg::T0, -1);
    a.bne(Reg::T0, Reg::ZERO, "loop");
    a.halt();
    let program = a.assemble().unwrap();
    let loop_pc = program.require_symbol("loop").unwrap();
    // Rebuild with the correct immediate (simpler than label math in asm).
    let mut a = Asm::new();
    a.label("entry").unwrap();
    a.li(Reg::T0, 2);
    a.label("loop").unwrap();
    a.li(Reg::T1, loop_pc as i64);
    a.icbi(Reg::T1, 0);
    a.isync();
    a.addi(Reg::T0, Reg::T0, -1);
    a.bne(Reg::T0, Reg::ZERO, "loop");
    a.halt();
    let program = a.assemble().unwrap();
    let entry = program.require_symbol("entry").unwrap();
    let mut b = MachineBuilder::new(cfg, program).unwrap();
    b.add_thread(entry);
    b.with_trace_sink(Box::new(RingSink::new(1 << 16)));
    let mut m = b.build().unwrap();
    m.run().unwrap();
    let stats = m.stats();
    // first fetch misses; after each icbi the loop line must miss again
    assert!(
        stats.l1i[0].misses >= 3,
        "icbi must force refetch, misses = {}",
        stats.l1i[0].misses
    );
    assert!(m
        .trace_snapshot()
        .iter()
        .any(|(_, e)| matches!(e, TraceEvent::Invalidate { icache: true, .. })));
}

#[test]
fn spinning_on_a_cached_flag_generates_no_bus_traffic() {
    let cfg = SimConfig::with_cores(1);
    let mut space = AddressSpace::new(&cfg);
    let flag = space.alloc_u64(1).unwrap();
    let mut a = Asm::new();
    a.label("entry").unwrap();
    a.li(Reg::T0, flag as i64);
    a.li(Reg::T1, 100);
    a.label("spin").unwrap();
    a.ldd(Reg::T2, Reg::T0, 0);
    a.addi(Reg::T1, Reg::T1, -1);
    a.bne(Reg::T1, Reg::ZERO, "spin");
    a.halt();
    let (mut m, _) = build(cfg, a.assemble().unwrap(), 1);
    m.run().unwrap();
    let stats = m.stats();
    assert_eq!(stats.l1d[0].misses, 1, "only the first spin load misses");
    assert_eq!(stats.l1d[0].hits, 99);
    assert!(m.trace_snapshot().is_empty(), "no sink attached");
}

#[test]
fn hwbar_synchronizes_and_is_fast() {
    let cfg = SimConfig::with_cores(4);
    let mut space = AddressSpace::new(&cfg);
    let out = space.alloc_u64(4).unwrap();
    // All threads hwbar, then thread 0 checks nothing: we simply measure
    // that the barrier completes and every thread halts.
    let mut a = Asm::new();
    a.label("entry").unwrap();
    a.li(Reg::T0, 16);
    a.label("loop").unwrap();
    a.hwbar(0);
    a.addi(Reg::T0, Reg::T0, -1);
    a.bne(Reg::T0, Reg::ZERO, "loop");
    a.li(Reg::T1, out as i64);
    a.slli(Reg::T2, Reg::TID, 3);
    a.add(Reg::T1, Reg::T1, Reg::T2);
    a.li(Reg::T3, 1);
    a.std(Reg::T3, Reg::T1, 0);
    a.halt();
    let program = a.assemble().unwrap();
    let entry = program.require_symbol("entry").unwrap();
    let mut b = MachineBuilder::new(cfg, program).unwrap();
    for _ in 0..4 {
        b.add_thread(entry);
    }
    b.configure_hw_barrier(0, vec![0, 1, 2, 3]);
    let mut m = b.build().unwrap();
    m.run().unwrap();
    assert_eq!(m.read_u64_slice(out, 4), vec![1, 1, 1, 1]);
    assert_eq!(m.stats().hw_network.episodes, 16);
}

#[test]
fn hwbar_without_group_is_an_error() {
    let cfg = SimConfig::with_cores(1);
    let mut a = Asm::new();
    a.label("entry").unwrap();
    a.hwbar(3);
    a.halt();
    let (mut m, _) = build(cfg, a.assemble().unwrap(), 1);
    assert!(matches!(
        m.run(),
        Err(SimError::UnknownHwBarrier { core: 0, id: 3 })
    ));
}

#[test]
fn one_sided_hwbar_deadlocks_with_report() {
    let mut cfg = SimConfig::with_cores(2);
    cfg.cycle_limit = 1_000_000;
    let mut a = Asm::new();
    a.label("entry").unwrap();
    a.bne(Reg::TID, Reg::ZERO, "skip");
    a.hwbar(0);
    a.label("skip").unwrap();
    a.halt();
    let program = a.assemble().unwrap();
    let entry = program.require_symbol("entry").unwrap();
    let mut b = MachineBuilder::new(cfg, program).unwrap();
    b.add_thread(entry);
    b.add_thread(entry);
    b.configure_hw_barrier(0, vec![0, 1]);
    let mut m = b.build().unwrap();
    match m.run() {
        Err(SimError::Deadlock { blocked, .. }) => {
            assert_eq!(blocked.len(), 1);
            assert_eq!(blocked[0].0, 0);
            assert!(blocked[0].1.contains("barrier network"));
        }
        other => panic!("expected deadlock, got {other:?}"),
    }
}

#[test]
fn unaligned_access_faults() {
    let cfg = SimConfig::with_cores(1);
    let mut a = Asm::new();
    a.label("entry").unwrap();
    a.li(Reg::T0, 0x1000_0001);
    a.ldd(Reg::T1, Reg::T0, 0);
    a.halt();
    let (mut m, _) = build(cfg, a.assemble().unwrap(), 1);
    assert!(matches!(
        m.run(),
        Err(SimError::UnalignedAccess { width: 8, .. })
    ));
}

#[test]
fn store_to_code_region_faults() {
    let cfg = SimConfig::with_cores(1);
    let mut a = Asm::new();
    a.label("entry").unwrap();
    a.li(Reg::T0, sim_isa::CODE_BASE as i64);
    a.std(Reg::T0, Reg::T0, 0);
    a.halt();
    let (mut m, _) = build(cfg, a.assemble().unwrap(), 1);
    assert!(matches!(m.run(), Err(SimError::CodeRegionWrite { .. })));
}

#[test]
fn division_by_zero_faults() {
    let cfg = SimConfig::with_cores(1);
    let mut a = Asm::new();
    a.label("entry").unwrap();
    a.li(Reg::T0, 4);
    a.div(Reg::T1, Reg::T0, Reg::ZERO);
    a.halt();
    let (mut m, _) = build(cfg, a.assemble().unwrap(), 1);
    assert!(matches!(m.run(), Err(SimError::DivisionByZero { .. })));
}

#[test]
fn cycle_limit_guard_fires() {
    let mut cfg = SimConfig::with_cores(1);
    cfg.cycle_limit = 500;
    let mut a = Asm::new();
    a.label("entry").unwrap();
    a.label("forever").unwrap();
    a.j("forever");
    let (mut m, _) = build(cfg, a.assemble().unwrap(), 1);
    assert!(matches!(
        m.run(),
        Err(SimError::CycleLimitExceeded { limit: 500 })
    ));
}

#[test]
fn determinism_same_machine_same_cycles() {
    let mk = || {
        let cfg = SimConfig::with_cores(8);
        let mut space = AddressSpace::new(&cfg);
        let counter = space.alloc_u64(1).unwrap();
        let mut a = Asm::new();
        a.label("entry").unwrap();
        a.li(Reg::T0, counter as i64);
        a.li(Reg::T1, 20);
        a.label("again").unwrap();
        a.ll(Reg::T2, Reg::T0, 0);
        a.addi(Reg::T2, Reg::T2, 1);
        a.sc(Reg::T3, Reg::T2, Reg::T0, 0);
        a.beq(Reg::T3, Reg::ZERO, "again");
        a.addi(Reg::T1, Reg::T1, -1);
        a.bne(Reg::T1, Reg::ZERO, "again");
        a.halt();
        let (mut m, _) = build(cfg, a.assemble().unwrap(), 8);
        (m.run().unwrap(), m.read_u64(counter))
    };
    let (s1, v1) = mk();
    let (s2, v2) = mk();
    assert_eq!(s1, s2);
    assert_eq!(v1, 160);
    assert_eq!(v2, 160);
}

// ---------------------------------------------------------------------
// Bank-hook machinery (mock hook; the real filter lives in barrier-filter)
// ---------------------------------------------------------------------

/// Parks the first `park_n` fills for a watched line; releases them all when
/// an invalidation for the release line arrives.
struct MockHook {
    watched: u64,
    release_on: u64,
    parked: Vec<ParkToken>,
    park_n: usize,
    /// Once the release invalidate has been seen, later fills are serviced
    /// (like a filter whose threads are in the Servicing state).
    open: bool,
}

impl BankHook for MockHook {
    fn on_invalidate(
        &mut self,
        line: u64,
        _now: u64,
        out: &mut HookOutcome,
    ) -> Result<(), HookViolation> {
        if line == self.release_on {
            out.released.append(&mut self.parked);
            self.open = true;
        }
        Ok(())
    }

    fn on_fill_request(
        &mut self,
        line: u64,
        token: ParkToken,
        _now: u64,
        _out: &mut HookOutcome,
    ) -> Result<FillDecision, HookViolation> {
        if line == self.watched && !self.open && self.parked.len() < self.park_n {
            self.parked.push(token);
            return Ok(FillDecision::Park);
        }
        if line == self.watched {
            return Ok(FillDecision::Service);
        }
        Ok(FillDecision::NotMine)
    }

    fn on_cancel(&mut self, token: ParkToken) {
        self.parked.retain(|&t| t != token);
    }
}

#[test]
fn parked_fill_starves_until_release_invalidate() {
    let cfg = SimConfig::with_cores(2);
    let mut space = AddressSpace::new(&cfg);
    let watched = space.alloc_bank_lines(0, 1).unwrap();
    let release = space.alloc_bank_lines(0, 1).unwrap();
    let out = space.alloc_u64(1).unwrap();
    assert_eq!(line_of(watched), watched);

    // Thread 0 loads the watched line (gets parked). Thread 1 delays, then
    // dcbi's the release line, which frees thread 0.
    let mut a = Asm::new();
    a.label("entry").unwrap();
    a.bne(Reg::TID, Reg::ZERO, "releaser");
    a.li(Reg::T0, watched as i64);
    a.ldd(Reg::T1, Reg::T0, 0); // parked here
    a.li(Reg::T2, out as i64);
    a.li(Reg::T3, 1);
    a.std(Reg::T3, Reg::T2, 0);
    a.halt();
    a.label("releaser").unwrap();
    a.li(Reg::T3, 400);
    a.label("delay").unwrap();
    a.addi(Reg::T3, Reg::T3, -1);
    a.bne(Reg::T3, Reg::ZERO, "delay");
    a.li(Reg::T0, release as i64);
    a.dcbi(Reg::T0, 0);
    a.halt();
    let program = a.assemble().unwrap();
    let entry = program.require_symbol("entry").unwrap();
    let mut b = MachineBuilder::new(cfg, program).unwrap();
    b.add_thread(entry);
    b.add_thread(entry);
    b.install_hook(
        0,
        Box::new(MockHook {
            watched,
            release_on: release,
            parked: Vec::new(),
            park_n: 1,
            open: false,
        }),
    )
    .unwrap();
    b.with_trace_sink(Box::new(RingSink::new(1 << 16)));
    let mut m = b.build().unwrap();
    let summary = m.run().unwrap();
    assert_eq!(m.read_u64(out), 1, "thread 0 completed after release");
    // thread 0 was starved for roughly the releaser's delay loop
    // (400 iterations at >= 1 cycle each)
    assert!(summary.cycles > 400, "cycles = {}", summary.cycles);
    assert!(m
        .trace_snapshot()
        .iter()
        .any(|(_, e)| matches!(e, TraceEvent::Parked { core: 0, .. })));
    assert!(m
        .trace_snapshot()
        .iter()
        .any(|(_, e)| matches!(e, TraceEvent::Released { core: 0, .. })));
    assert_eq!(m.stats().fills_parked(), 1);
}

#[test]
fn parked_fill_with_no_release_deadlocks() {
    let mut cfg = SimConfig::with_cores(1);
    cfg.cycle_limit = 1_000_000;
    let mut space = AddressSpace::new(&cfg);
    let watched = space.alloc_bank_lines(0, 1).unwrap();
    let mut a = Asm::new();
    a.label("entry").unwrap();
    a.li(Reg::T0, watched as i64);
    a.ldd(Reg::T1, Reg::T0, 0);
    a.halt();
    let program = a.assemble().unwrap();
    let entry = program.require_symbol("entry").unwrap();
    let mut b = MachineBuilder::new(cfg, program).unwrap();
    b.add_thread(entry);
    b.install_hook(
        0,
        Box::new(MockHook {
            watched,
            release_on: 0,
            parked: Vec::new(),
            park_n: 1,
            open: false,
        }),
    )
    .unwrap();
    let mut m = b.build().unwrap();
    match m.run() {
        Err(SimError::Deadlock { blocked, .. }) => {
            assert!(blocked[0].1.contains("parked"));
        }
        other => panic!("expected deadlock, got {other:?}"),
    }
}

#[test]
fn context_switch_out_and_resume_reissues_fill() {
    let mut cfg = SimConfig::with_cores(2);
    cfg.cycle_limit = 1_000_000;
    let mut space = AddressSpace::new(&cfg);
    let watched = space.alloc_bank_lines(0, 1).unwrap();
    let release = space.alloc_bank_lines(0, 1).unwrap();
    let out = space.alloc_u64(1).unwrap();
    let mut a = Asm::new();
    a.label("entry").unwrap();
    a.bne(Reg::TID, Reg::ZERO, "releaser");
    a.li(Reg::T0, watched as i64);
    a.ldd(Reg::T1, Reg::T0, 0);
    a.li(Reg::T2, out as i64);
    a.li(Reg::T3, 1);
    a.std(Reg::T3, Reg::T2, 0);
    a.halt();
    a.label("releaser").unwrap();
    a.li(Reg::T3, 2000);
    a.label("delay").unwrap();
    a.addi(Reg::T3, Reg::T3, -1);
    a.bne(Reg::T3, Reg::ZERO, "delay");
    a.li(Reg::T0, release as i64);
    a.dcbi(Reg::T0, 0);
    a.halt();
    let program = a.assemble().unwrap();
    let entry = program.require_symbol("entry").unwrap();
    let mut b = MachineBuilder::new(cfg, program).unwrap();
    b.add_thread(entry);
    b.add_thread(entry);
    b.install_hook(
        0,
        Box::new(MockHook {
            watched,
            release_on: release,
            parked: Vec::new(),
            park_n: 2, // park the re-issued fill as well until release
            open: false,
        }),
    )
    .unwrap();
    let mut m = b.build().unwrap();
    // Run until thread 0 is parked, then model an OS context switch.
    assert_eq!(m.run_until(1000).unwrap(), RunState::Paused);
    assert!(m.context_switch_out(0), "thread 0 should be parked by now");
    assert!(!m.context_switch_out(0), "double switch-out is refused");
    // Re-schedule it; the barrier is still closed, so it parks again.
    m.resume_thread(0).unwrap();
    let summary = m.run();
    summary.unwrap();
    assert_eq!(m.read_u64(out), 1);
}

#[test]
fn resume_after_release_is_serviced_immediately() {
    let mut cfg = SimConfig::with_cores(2);
    cfg.cycle_limit = 1_000_000;
    let mut space = AddressSpace::new(&cfg);
    let watched = space.alloc_bank_lines(0, 1).unwrap();
    let release = space.alloc_bank_lines(0, 1).unwrap();
    let out = space.alloc_u64(1).unwrap();
    let mut a = Asm::new();
    a.label("entry").unwrap();
    a.bne(Reg::TID, Reg::ZERO, "releaser");
    a.li(Reg::T0, watched as i64);
    a.ldd(Reg::T1, Reg::T0, 0);
    a.li(Reg::T2, out as i64);
    a.li(Reg::T3, 1);
    a.std(Reg::T3, Reg::T2, 0);
    a.halt();
    a.label("releaser").unwrap();
    a.li(Reg::T3, 500);
    a.label("delay").unwrap();
    a.addi(Reg::T3, Reg::T3, -1);
    a.bne(Reg::T3, Reg::ZERO, "delay");
    a.li(Reg::T0, release as i64);
    a.dcbi(Reg::T0, 0);
    a.halt();
    let program = a.assemble().unwrap();
    let entry = program.require_symbol("entry").unwrap();
    let mut b = MachineBuilder::new(cfg, program).unwrap();
    b.add_thread(entry);
    b.add_thread(entry);
    b.install_hook(
        0,
        Box::new(MockHook {
            watched,
            release_on: release,
            parked: Vec::new(),
            park_n: 1,
            open: false,
        }),
    )
    .unwrap();
    let mut m = b.build().unwrap();
    // Park thread 0, switch it out, and let the release happen while it is
    // switched out. The mock then services the re-issued fill (park_n=1 and
    // nothing is parked, so the "barrier" is open).
    assert_eq!(m.run_until(400).unwrap(), RunState::Paused);
    assert!(m.context_switch_out(0));
    // The releaser finishes and the machine goes quiescent with thread 0
    // still switched out: that is Paused (waiting on the OS), not deadlock.
    match m.run_until(100_000).unwrap() {
        RunState::Paused => {}
        RunState::Finished(_) => panic!("thread 0 cannot finish while switched out"),
    }
    m.resume_thread(0).unwrap();
    m.run().unwrap();
    assert_eq!(m.read_u64(out), 1);
}

/// Build the self-modifying-code fixture: three passes over a patchable
/// payload instruction, each storing the payload's value into the next
/// `out` slot. When `with_icbi` is set, every pass ends with
/// `icbi payload; isync` — the architectural point where staged
/// [`patch_code`](cmp_sim::Machine::patch_code) patches become fetchable.
/// Returns the machine, the `out` base address, and the payload pc.
fn build_smc_machine(with_icbi: bool, reference_engine: bool) -> (cmp_sim::Machine, u64, u64) {
    let mut cfg = SimConfig::with_cores(1);
    cfg.reference_engine = reference_engine;
    let mut space = AddressSpace::new(&cfg);
    let out = space.alloc_u64(3).unwrap();
    let emit = |payload_pc: i64| {
        let mut a = Asm::new();
        a.label("entry").unwrap();
        a.li(Reg::S0, 3);
        a.li(Reg::T0, out as i64);
        a.label("payload").unwrap();
        a.li(Reg::T1, 111); // patched to li t1, 222
        a.std(Reg::T1, Reg::T0, 0);
        a.addi(Reg::T0, Reg::T0, 8);
        if with_icbi {
            a.li(Reg::T2, payload_pc);
            a.icbi(Reg::T2, 0);
            a.isync();
        }
        a.addi(Reg::S0, Reg::S0, -1);
        a.bne(Reg::S0, Reg::ZERO, "payload");
        a.halt();
        a
    };
    // Two-pass assembly: learn the payload pc, then re-emit with the
    // correct icbi target immediate.
    let payload_pc = emit(0)
        .assemble()
        .unwrap()
        .require_symbol("payload")
        .unwrap();
    let (m, _) = build(cfg, emit(payload_pc as i64).assemble().unwrap(), 1);
    (m, out, payload_pc)
}

/// The self-modifying-code contract: a patch staged with `patch_code`
/// lands exactly at the first `icbi` broadcast covering its line. The
/// first pass still executes the original payload (staging is invisible
/// to fetch), every later pass executes the patched one — and the whole
/// run is bit-identical on the production and the reference engine.
#[test]
fn staged_code_patch_lands_at_icbi_broadcast() {
    let mut reference = None;
    for reference_engine in [true, false] {
        let (mut m, out, payload_pc) = build_smc_machine(true, reference_engine);
        m.patch_code(payload_pc, sim_isa::Instr::Li(Reg::T1, 222))
            .unwrap();
        let summary = m.run().unwrap();
        assert_eq!(
            m.read_u64_slice(out, 3),
            vec![111, 222, 222],
            "reference_engine={reference_engine}: patch must land at the first icbi"
        );
        match &reference {
            None => reference = Some((summary, m.stats().clone())),
            Some((ref_sum, ref_stats)) => {
                assert_eq!(&summary, ref_sum, "RunSummary diverged across engines");
                assert_eq!(&m.stats(), ref_stats, "MachineStats diverged");
                assert_eq!(m.stats().digest(), ref_stats.digest());
            }
        }
    }
}

/// Without the `icbi`, a staged patch never becomes fetchable: every pass
/// architecturally sees the old payload word, exactly like the stale
/// window a real weakly-ordered ISA permits between a code store and the
/// `icbi`/`isync` sequence. The point of the test is that this staleness
/// is *deterministic* — same result on every run, on the production and
/// the reference engine.
#[test]
fn missing_icbi_keeps_stale_code_deterministic() {
    let mut reference = None;
    for reference_engine in [true, false] {
        for run in 0..2 {
            let (mut m, out, payload_pc) = build_smc_machine(false, reference_engine);
            m.patch_code(payload_pc, sim_isa::Instr::Li(Reg::T1, 222))
                .unwrap();
            let summary = m.run().unwrap();
            assert_eq!(
                m.read_u64_slice(out, 3),
                vec![111, 111, 111],
                "reference_engine={reference_engine} run={run}: no icbi, no patch"
            );
            match &reference {
                None => reference = Some((summary, m.stats().clone())),
                Some((ref_sum, ref_stats)) => {
                    assert_eq!(&summary, ref_sum, "stale window must be deterministic");
                    assert_eq!(&m.stats(), ref_stats);
                }
            }
        }
    }
}

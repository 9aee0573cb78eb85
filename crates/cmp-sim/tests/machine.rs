//! End-to-end tests of the machine: functional correctness of the VM,
//! timing sanity of the memory hierarchy, synchronization primitives, the
//! bank-hook parking machinery, and error detection.

use cmp_sim::{
    AddressSpace, BankHook, BuildError, FillDecision, HookOutcome, HookViolation, MachineBuilder,
    ParkToken, RingSink, RunState, SimConfig, SimError, TraceEvent, FILL_ERROR_SENTINEL,
};
use sim_isa::{line_of, Asm, FReg, MemWidth, Program, Reg};

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

/// `build`'s result for a 2-core machine whose dedicated-network group 3
/// is over `members`.
fn build_with_hw_group(members: Vec<usize>) -> Result<cmp_sim::Machine, BuildError> {
    let mut a = Asm::new();
    a.label("entry").unwrap();
    a.halt();
    let program = a.assemble().unwrap();
    let entry = program.require_symbol("entry").unwrap();
    let mut b = MachineBuilder::new(SimConfig::with_cores(2), program).unwrap();
    b.add_thread(entry);
    b.add_thread(entry);
    b.configure_hw_barrier(3, members);
    b.build()
}

#[test]
fn empty_hw_group_is_a_build_error() {
    assert_eq!(
        build_with_hw_group(Vec::new()).unwrap_err(),
        BuildError::BadHwGroup {
            id: 3,
            members: Vec::new(),
            cores: 2
        }
    );
}

#[test]
fn hw_group_member_beyond_the_cores_is_a_build_error() {
    // Core 7 never arrives, so the group could never fire.
    let err = build_with_hw_group(vec![0, 7]).unwrap_err();
    assert!(matches!(err, BuildError::BadHwGroup { id: 3, .. }), "{err}");
    assert!(err.to_string().contains("[0, 7]"), "{err}");
}

#[test]
fn hw_group_member_listed_twice_is_a_build_error() {
    let err = build_with_hw_group(vec![1, 1]).unwrap_err();
    assert!(matches!(err, BuildError::BadHwGroup { id: 3, .. }), "{err}");
    assert!(build_with_hw_group(vec![1, 0]).is_ok());
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

/// The words the narrow accesses load from and store into: every byte has
/// its top bit set, so a sign-extending narrow load would show.
const PATTERN: u64 = 0xf8f7_f6f5_f4f3_f2f1;

/// `PATTERN` with `bytes` written from byte `at` on: the word a narrow
/// store must leave behind.
fn spliced(at: usize, bytes: &[u8]) -> u64 {
    let mut word = PATTERN.to_le_bytes();
    word[at..at + bytes.len()].copy_from_slice(bytes);
    u64::from_le_bytes(word)
}

/// `t2 = 1` if `branch a3, a4` jumps, `0` if it falls through.
fn taken(a: &mut Asm, branch: fn(&mut Asm, Reg, Reg, u64) -> &mut Asm) -> &mut Asm {
    a.li(Reg::T2, 1);
    let over = a.here() + 2 * sim_isa::INSTR_BYTES;
    branch(a, Reg::A3, Reg::A4, over).li(Reg::T2, 0)
}

/// A case's name, the instruction it runs and the result host Rust
/// computes for the same operands.
type Case<T> = (&'static str, fn(&mut Asm) -> &mut Asm, T);

/// The instructions no kernel or barrier emits (`and`, `sra`, `slti`,
/// `bltu`, `bgeu`, `fdiv`, `fneg`, `fmov`, both conversions and the three
/// float compares) and loads and stores at byte, half and word width, each
/// checked against host Rust arithmetic on both engines, and a misaligned
/// narrow load. Every case reads the operands loaded below; integer cases
/// leave their result in `t2`, float cases in `f2`. The byte load is the
/// first memory access, so it completes on the fill; the others hit L1.
#[test]
fn rarely_emitted_instructions_match_host_arithmetic() {
    let (mask, nan, minus_one) = (0x0ff0_1234_5678_9abc_u64, f64::NAN, -1i64 as u64);
    let p = PATTERN.to_le_bytes();
    let int_cases: &[Case<u64>] = &[
        (
            "byte load, a miss, zero-extends",
            |a| a.ld(Reg::T2, Reg::S0, 1, MemWidth::B),
            u64::from(p[1]),
        ),
        (
            "half load zero-extends",
            |a| a.ld(Reg::T2, Reg::S0, 2, MemWidth::H),
            u64::from(u16::from_le_bytes([p[2], p[3]])),
        ),
        (
            "word load zero-extends",
            |a| a.ld(Reg::T2, Reg::S0, 4, MemWidth::W),
            u64::from(u32::from_le_bytes([p[4], p[5], p[6], p[7]])),
        ),
        (
            "and",
            |a| a.and(Reg::T2, Reg::A5, Reg::A0),
            mask & -1000i64 as u64,
        ),
        (
            "sra of a negative operand",
            |a| a.sra(Reg::T2, Reg::A0, Reg::A1),
            (-1000i64 >> 3) as u64,
        ),
        (
            "sra by 67, which shifts by 67 mod 64",
            |a| a.sra(Reg::T2, Reg::A0, Reg::A2),
            (-1000i64).wrapping_shr(67) as u64,
        ),
        (
            "slti -1000 < -3",
            |a| a.slti(Reg::T2, Reg::A0, -3),
            u64::from(-1000 < -3),
        ),
        (
            "slti 3 < -3 (true if unsigned)",
            |a| a.slti(Reg::T2, Reg::A1, -3),
            u64::from(3 < -3),
        ),
        (
            "bltu -1, 1 (blt would jump)",
            |a| taken(a, Asm::bltu),
            u64::from(minus_one < 1),
        ),
        (
            "bgeu -1, 1 (bge would not)",
            |a| taken(a, Asm::bgeu),
            u64::from(minus_one >= 1),
        ),
        (
            "fcvt.l.d truncates -2.75",
            |a| a.fcvtfi(Reg::T2, FReg::F3),
            -2.75f64 as i64 as u64,
        ),
        (
            "feq",
            |a| a.feq(Reg::T2, FReg::F0, FReg::F0),
            u64::from(1.0 == 1.0),
        ),
        (
            "feq NaN, NaN",
            |a| a.feq(Reg::T2, FReg::F4, FReg::F4),
            u64::from(nan == nan),
        ),
        (
            "flt",
            |a| a.flt(Reg::T2, FReg::F1, FReg::F0),
            u64::from(-3.0 < 1.0),
        ),
        (
            "flt NaN, 1",
            |a| a.flt(Reg::T2, FReg::F4, FReg::F0),
            u64::from(nan < 1.0),
        ),
        (
            "fle",
            |a| a.fle(Reg::T2, FReg::F0, FReg::F0),
            u64::from(1.0 <= 1.0),
        ),
        (
            "fle 1, NaN",
            |a| a.fle(Reg::T2, FReg::F0, FReg::F4),
            u64::from(1.0 <= nan),
        ),
    ];
    let float_cases: &[Case<f64>] = &[
        ("fdiv", |a| a.fdiv(FReg::F2, FReg::F0, FReg::F1), 1.0 / -3.0),
        ("fneg of zero", |a| a.fneg(FReg::F2, FReg::F5), -0.0),
        ("fmov", |a| a.fmov(FReg::F2, FReg::F3), -2.75),
        (
            "fcvt.d.l",
            |a| a.fcvtif(FReg::F2, Reg::A6),
            (-(1i64 << 53) - 1) as f64,
        ),
    ];
    // Each narrow store writes -1000's low bytes into its own PATTERN word.
    let low = (-1000i64).to_le_bytes();
    let stores = [
        (MemWidth::B, 3, spliced(3, &low[..1])),
        (MemWidth::H, 4, spliced(4, &low[..2])),
        (MemWidth::W, 4, spliced(4, &low[..4])),
    ];
    for (reference_engine, engine) in [(false, "production"), (true, "reference")] {
        let mut cfg = SimConfig::with_cores(1);
        cfg.reference_engine = reference_engine;
        // s0 points at the PATTERN word the loads read, then one PATTERN
        // word per store, then one word per case result.
        let words = 1 + stores.len() + int_cases.len() + float_cases.len();
        let base = AddressSpace::new(&cfg).alloc_u64(words as u64).unwrap();
        let result = |i: usize| 8 * (1 + stores.len() + i) as i64;
        let mut a = Asm::new();
        a.label("entry").unwrap();
        a.li(Reg::S0, base as i64);
        for (r, v) in [(Reg::A0, -1000), (Reg::A1, 3), (Reg::A2, 67), (Reg::A3, -1)] {
            a.li(r, v);
        }
        a.li(Reg::A4, 1)
            .li(Reg::A5, mask as i64)
            .li(Reg::A6, -(1 << 53) - 1);
        for (f, v) in [
            (FReg::F0, 1.0),
            (FReg::F1, -3.0),
            (FReg::F3, -2.75),
            (FReg::F4, nan),
            (FReg::F5, 0.0),
        ] {
            a.fli(f, v);
        }
        for (i, (_, emit, _)) in int_cases.iter().enumerate() {
            emit(&mut a).std(Reg::T2, Reg::S0, result(i));
        }
        for (i, (_, emit, _)) in float_cases.iter().enumerate() {
            emit(&mut a).fst(FReg::F2, Reg::S0, result(int_cases.len() + i));
        }
        for (k, &(width, at, _)) in stores.iter().enumerate() {
            a.st(Reg::A0, Reg::S0, 8 * (1 + k) as i64 + at, width);
        }
        // The run ends in a misaligned half load, after every result is in
        // memory.
        a.ld(Reg::T1, Reg::S0, 1, MemWidth::H);
        let program = a.assemble().unwrap();
        let entry = program.require_symbol("entry").unwrap();
        let mut b = MachineBuilder::new(cfg, program).unwrap();
        for k in 0..=stores.len() as u64 {
            b.write_u64(base + 8 * k, PATTERN);
        }
        b.add_thread(entry);
        let mut m = b.build().unwrap();
        let err = m.run().expect_err("the misaligned load faults");
        assert!(
            matches!(err, SimError::UnalignedAccess { addr, width: 2, .. } if addr == base + 1),
            "{err} ({engine})"
        );
        for (i, &(name, _, want)) in int_cases.iter().enumerate() {
            let got = m.read_u64(base + result(i) as u64);
            assert_eq!(got, want, "{name} ({engine})");
        }
        for (i, &(name, _, want)) in float_cases.iter().enumerate() {
            let got = m.read_f64(base + result(int_cases.len() + i) as u64);
            assert_eq!(got.to_bits(), want.to_bits(), "{name}: {got} ({engine})");
        }
        for (k, &(width, _, want)) in stores.iter().enumerate() {
            let got = m.read_u64(base + 8 * (1 + k) as u64);
            assert_eq!(got, want, "{width:?} store: {got:#x} ({engine})");
        }
    }
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
    /// Answer the parked fills with error replies (the §3.3.4 timeout
    /// path) instead of data.
    errored: bool,
}

impl BankHook for MockHook {
    fn on_invalidate(
        &mut self,
        line: u64,
        _now: u64,
        out: &mut HookOutcome,
    ) -> Result<(), HookViolation> {
        if line == self.release_on {
            let replies = if self.errored {
                &mut out.errored
            } else {
                &mut out.released
            };
            replies.append(&mut self.parked);
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
            errored: false,
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
            errored: false,
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
            errored: false,
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
            errored: false,
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

/// A migration swaps two switched-out threads' blocked accesses along with
/// their registers and pcs, whichever core is named first: each thread's
/// re-issued load still writes its own destination register.
#[test]
fn migrated_threads_take_their_blocked_loads_along() {
    for (x, y) in [(0, 1), (1, 0)] {
        let mut cfg = SimConfig::with_cores(3);
        cfg.cycle_limit = 1_000_000;
        let mut space = AddressSpace::new(&cfg);
        let watched = space.alloc_bank_lines(0, 1).unwrap();
        let release = space.alloc_bank_lines(0, 1).unwrap();
        let out = space.alloc_u64(2).unwrap();
        // Threads 0 and 1 park on loads of different words into different
        // registers; thread 2 releases them after a delay.
        let mut a = Asm::new();
        a.label("entry").unwrap();
        a.li(Reg::T0, watched as i64);
        a.li(Reg::T2, out as i64);
        a.li(Reg::T3, 1);
        a.beq(Reg::TID, Reg::ZERO, "first");
        a.beq(Reg::TID, Reg::T3, "second");
        a.li(Reg::T3, 2000);
        a.label("delay").unwrap();
        a.addi(Reg::T3, Reg::T3, -1);
        a.bne(Reg::T3, Reg::ZERO, "delay");
        a.li(Reg::T0, release as i64);
        a.dcbi(Reg::T0, 0);
        a.halt();
        a.label("first").unwrap();
        a.ldd(Reg::T1, Reg::T0, 0);
        a.std(Reg::T1, Reg::T2, 0);
        a.halt();
        a.label("second").unwrap();
        a.ldd(Reg::T4, Reg::T0, 8);
        a.std(Reg::T4, Reg::T2, 8);
        a.halt();
        let program = a.assemble().unwrap();
        let entry = program.require_symbol("entry").unwrap();
        let mut builder = MachineBuilder::new(cfg, program).unwrap();
        for _ in 0..3 {
            builder.add_thread(entry);
        }
        builder.write_u64(watched, 11).write_u64(watched + 8, 22);
        builder
            .install_hook(
                0,
                Box::new(MockHook {
                    watched,
                    release_on: release,
                    parked: Vec::new(),
                    park_n: 2,
                    open: false,
                    errored: false,
                }),
            )
            .unwrap();
        let mut m = builder.build().unwrap();
        assert_eq!(m.run_until(1000).unwrap(), RunState::Paused);
        assert_eq!(m.parked_cores(), vec![0, 1]);
        assert!(m.context_switch_out(0) && m.context_switch_out(1));
        m.migrate_thread(x, y).unwrap();
        m.resume_thread(0).unwrap();
        m.resume_thread(1).unwrap();
        m.run().unwrap();
        assert_eq!(
            [m.read_u64(out), m.read_u64(out + 8)],
            [11, 22],
            "migrate_thread({x}, {y})"
        );
        assert_eq!(m.core_reg(1, Reg::T1), 11, "thread 0 now runs on core 1");
        assert_eq!(m.core_reg(0, Reg::T4), 22, "thread 1 now runs on core 0");
    }
}

/// An error reply (§3.3.4) carries no data: a parked `fld` receives the
/// sentinel's bits in its FP register, and a parked narrow `ld` the
/// sentinel masked to its width, whatever the line holds.
#[test]
fn error_replies_reach_a_parked_fld_and_a_parked_narrow_ld() {
    let mut cfg = SimConfig::with_cores(3);
    cfg.cycle_limit = 1_000_000;
    let mut space = AddressSpace::new(&cfg);
    let watched = space.alloc_bank_lines(0, 1).unwrap();
    let release = space.alloc_bank_lines(0, 1).unwrap();
    let out = space.alloc_u64(2).unwrap();

    // Thread 0 parks on an `fld`, thread 1 on a 32-bit `ld` of the same
    // line; thread 2 delays, then dcbi's the release line, which errors
    // both parked fills.
    let mut a = Asm::new();
    a.label("entry").unwrap();
    a.li(Reg::T0, watched as i64);
    a.li(Reg::T2, out as i64);
    a.li(Reg::T3, 1);
    a.beq(Reg::TID, Reg::ZERO, "fp");
    a.beq(Reg::TID, Reg::T3, "narrow");
    a.li(Reg::T3, 400);
    a.label("delay").unwrap();
    a.addi(Reg::T3, Reg::T3, -1);
    a.bne(Reg::T3, Reg::ZERO, "delay");
    a.li(Reg::T0, release as i64);
    a.dcbi(Reg::T0, 0);
    a.halt();
    a.label("fp").unwrap();
    a.fld(FReg::F1, Reg::T0, 0); // parked, then errored
    a.fst(FReg::F1, Reg::T2, 0);
    a.halt();
    a.label("narrow").unwrap();
    a.ld(Reg::T1, Reg::T0, 0, MemWidth::W); // parked, then errored
    a.std(Reg::T1, Reg::T2, 8);
    a.halt();
    let program = a.assemble().unwrap();
    let entry = program.require_symbol("entry").unwrap();
    let mut b = MachineBuilder::new(cfg, program).unwrap();
    for _ in 0..3 {
        b.add_thread(entry);
    }
    b.write_u64(watched, 0x0123_4567_89ab_cdef);
    b.install_hook(
        0,
        Box::new(MockHook {
            watched,
            release_on: release,
            parked: Vec::new(),
            park_n: 2,
            open: false,
            errored: true,
        }),
    )
    .unwrap();
    b.with_trace_sink(Box::new(RingSink::new(1 << 16)));
    let mut m = b.build().unwrap();
    m.run().unwrap();
    assert_eq!(m.stats().fills_parked(), 2);
    for core in [0, 1] {
        assert!(
            m.trace_snapshot().iter().any(|(_, e)| *e
                == TraceEvent::Errored {
                    core,
                    line: watched
                }),
            "core {core}'s parked fill was not errored"
        );
    }
    assert_eq!(
        m.read_u64(out),
        FILL_ERROR_SENTINEL,
        "fld got the sentinel's bits"
    );
    assert_eq!(
        m.read_u64(out + 8),
        0xbad0_bad0,
        "ld.w got the masked sentinel"
    );
}

/// Build the two-thread release fixture: thread 0 loads the watched line
/// (value 77) and stores it to `out`; thread 1 delays, then dcbi's the
/// release line, which releases thread 0's parked fill. Returns the
/// machine, the watched line and `out`.
fn build_release_machine() -> (cmp_sim::Machine, u64, u64) {
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
    a.std(Reg::T1, Reg::T2, 0);
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
    b.write_u64(watched, 77);
    b.install_hook(
        0,
        Box::new(MockHook {
            watched,
            release_on: release,
            parked: Vec::new(),
            park_n: 1,
            open: false,
            errored: false,
        }),
    )
    .unwrap();
    b.with_trace_sink(Box::new(RingSink::new(1 << 16)));
    (b.build().unwrap(), watched, out)
}

/// Between the hook's release and the response's delivery, the core is
/// still blocked on its fill but no longer parked: `parked_cores` omits
/// it and `context_switch_out` refuses it, and the run then completes
/// with the released data.
#[test]
fn a_release_in_flight_is_neither_parked_nor_cancelable() {
    let released_at = |m: &mut cmp_sim::Machine, watched: u64| {
        m.trace_snapshot()
            .iter()
            .find(|(_, e)| {
                *e == TraceEvent::Released {
                    core: 0,
                    line: watched,
                }
            })
            .map(|&(cycle, _)| cycle)
    };
    let (mut probe, watched, _) = build_release_machine();
    probe.run().unwrap();
    let release = released_at(&mut probe, watched).expect("thread 0 was released");

    let (mut m, watched, out) = build_release_machine();
    assert_eq!(m.run_until(release + 1).unwrap(), RunState::Paused);
    assert_eq!(released_at(&mut m, watched), Some(release));
    assert_eq!(
        m.core_reg(0, Reg::T1),
        0,
        "the response has not delivered yet"
    );
    assert!(m.parked_cores().is_empty(), "a released core is not parked");
    assert!(
        !m.context_switch_out(0),
        "a release in flight cannot be cancelled"
    );
    m.run().unwrap();
    assert_eq!(m.core_reg(0, Reg::T1), 77);
    assert_eq!(m.read_u64(out), 77);
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

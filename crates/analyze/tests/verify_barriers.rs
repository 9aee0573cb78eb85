//! Static-verifier acceptance and rejection tests.
//!
//! Acceptance: every shipped barrier mechanism's emitted routine, checked
//! against the [`ProtocolSpec`] its own [`BarrierSystem`] registration
//! produced, must come back with nothing worse than `Info` (the discarded
//! arrival-fetch value is a deliberate dead store).
//!
//! Rejection: hand-assembled routines with one protocol mistake each —
//! a missing `isync`, a path that skips the fetch, no exit invalidate,
//! and so on — must be flagged with exactly the expected rule id.

use analyze::{analyze_program, has_errors, rules, Severity};
use barrier_filter::{
    BarrierMechanism, BarrierSystem, FilterTableConfig, ProtocolSpec, RegionKind, SyncRegion,
    ThreadState,
};
use cmp_sim::{AddressSpace, SimConfig};
use sim_isa::{Asm, Program, Reg};

const THREADS: usize = 4;

/// Emit a barrier via the real system plus a trivial caller kernel, and
/// return the assembled program with the registered protocol spec.
fn emitted(mechanism: BarrierMechanism) -> (Program, ProtocolSpec) {
    let config = SimConfig::with_cores(THREADS);
    let mut space = AddressSpace::new(&config);
    let mut asm = Asm::new();
    let mut sys = BarrierSystem::new(&config, THREADS, &mut space).unwrap();
    let barrier = sys
        .create_barrier(&mut asm, &mut space, mechanism, THREADS)
        .unwrap();
    assert!(!barrier.is_fallback());
    asm.label("entry").unwrap();
    barrier.emit_call(&mut asm);
    asm.halt();
    let spec = barrier.protocol().clone();
    (asm.assemble().unwrap(), spec)
}

fn assert_clean(mechanism: BarrierMechanism) {
    let (program, spec) = emitted(mechanism);
    let diags = analyze_program(&program, &[spec]);
    let bad: Vec<_> = diags
        .iter()
        .filter(|d| d.severity > Severity::Info)
        .collect();
    assert!(
        bad.is_empty(),
        "{mechanism} routine must verify clean, got: {bad:#?}"
    );
}

#[test]
fn sw_central_verifies_clean() {
    assert_clean(BarrierMechanism::SwCentral);
}

#[test]
fn sw_tree_verifies_clean() {
    assert_clean(BarrierMechanism::SwTree);
}

#[test]
fn filter_d_verifies_clean() {
    assert_clean(BarrierMechanism::FilterD);
}

#[test]
fn filter_d_ping_pong_verifies_clean() {
    assert_clean(BarrierMechanism::FilterDPingPong);
}

#[test]
fn filter_i_verifies_clean() {
    assert_clean(BarrierMechanism::FilterI);
}

#[test]
fn filter_i_ping_pong_verifies_clean() {
    assert_clean(BarrierMechanism::FilterIPingPong);
}

#[test]
fn hw_dedicated_verifies_clean() {
    assert_clean(BarrierMechanism::HwDedicated);
}

#[test]
fn sw_hier_verifies_clean() {
    assert_clean(BarrierMechanism::SwHier);
}

#[test]
fn filter_d_hier_verifies_clean() {
    assert_clean(BarrierMechanism::FilterDHier);
}

#[test]
fn hier_routines_verify_clean_on_a_clustered_machine() {
    // The clustered registration exercises the `tid >> k` addressing the
    // leaders use for the global phase, which the flat 4-core degenerate
    // form never emits.
    for mechanism in [BarrierMechanism::SwHier, BarrierMechanism::FilterDHier] {
        let config = SimConfig::clustered(64, 4);
        let mut space = AddressSpace::new(&config);
        let mut asm = Asm::new();
        let mut sys = BarrierSystem::new(&config, 64, &mut space).unwrap();
        let barrier = sys
            .create_barrier(&mut asm, &mut space, mechanism, 64)
            .unwrap();
        assert!(!barrier.is_fallback());
        asm.label("entry").unwrap();
        barrier.emit_call(&mut asm);
        asm.halt();
        let spec = barrier.protocol().clone();
        let program = asm.assemble().unwrap();
        let diags = analyze_program(&program, &[spec]);
        let bad: Vec<_> = diags
            .iter()
            .filter(|d| d.severity > Severity::Info)
            .collect();
        assert!(
            bad.is_empty(),
            "{mechanism} on the clustered machine must verify clean, got: {bad:#?}"
        );
    }
}

// ---------------------------------------------------------------------
// Broken fixtures
// ---------------------------------------------------------------------

const A_BASE: u64 = 0x2_0000;
const E_BASE: u64 = 0x2_0800;

fn filter_spec() -> ProtocolSpec {
    ProtocolSpec {
        mechanism: BarrierMechanism::FilterD,
        entry: "bar".into(),
        threads: THREADS,
        regions: vec![
            SyncRegion {
                kind: RegionKind::Arrival,
                base: A_BASE,
                bytes: THREADS as u64 * 64,
            },
            SyncRegion {
                kind: RegionKind::Exit,
                base: E_BASE,
                bytes: THREADS as u64 * 64,
            },
        ],
        tables: vec![FilterTableConfig::entry_exit(A_BASE, E_BASE, THREADS)],
        tls_offset: None,
        hw_id: None,
        episode_counter: None,
        wake_addrs: Vec::new(),
    }
}

/// `k0 = base + tid * 64`.
fn per_thread_line(a: &mut Asm, base: u64) {
    a.li(Reg::K0, base as i64);
    a.slli(Reg::K1, Reg::TID, 6);
    a.add(Reg::K0, Reg::K0, Reg::K1);
}

fn diags_for(spec: &ProtocolSpec, build: impl FnOnce(&mut Asm)) -> Vec<analyze::Diagnostic> {
    let mut a = Asm::new();
    build(&mut a);
    let program = a.assemble().unwrap();
    analyze_program(&program, std::slice::from_ref(spec))
}

fn assert_flags(diags: &[analyze::Diagnostic], rule: &str) {
    assert!(
        diags
            .iter()
            .any(|d| d.rule == rule && d.severity == Severity::Error),
        "expected an Error with rule {rule}, got: {diags:#?}"
    );
}

#[test]
fn missing_isync_is_flagged() {
    let spec = filter_spec();
    let diags = diags_for(&spec, |a| {
        a.label("bar").unwrap();
        a.sync();
        per_thread_line(a, A_BASE);
        a.dcbi(Reg::K0, 0);
        a.ldd(Reg::K1, Reg::K0, 0); // fetch with no isync in between
        a.sync();
        per_thread_line(a, E_BASE);
        a.dcbi(Reg::K0, 0);
        a.ret();
    });
    assert_flags(&diags, rules::BARRIER_ISYNC);
}

#[test]
fn missing_fetch_is_flagged() {
    let spec = filter_spec();
    let diags = diags_for(&spec, |a| {
        a.label("bar").unwrap();
        a.sync();
        per_thread_line(a, A_BASE);
        a.dcbi(Reg::K0, 0);
        a.isync();
        // never loads the arrival line: the thread would sail through
        per_thread_line(a, E_BASE);
        a.dcbi(Reg::K0, 0);
        a.ret();
    });
    assert_flags(&diags, rules::BARRIER_DCBI_FETCH);
}

#[test]
fn path_skipping_the_fetch_is_flagged() {
    let spec = filter_spec();
    let diags = diags_for(&spec, |a| {
        a.label("bar").unwrap();
        a.sync();
        per_thread_line(a, A_BASE);
        a.dcbi(Reg::K0, 0);
        a.isync();
        a.beq(Reg::TID, Reg::ZERO, "skip_fetch"); // thread 0 skips the stall
        a.ldd(Reg::K1, Reg::K0, 0);
        a.label("skip_fetch").unwrap();
        a.sync();
        per_thread_line(a, E_BASE);
        a.dcbi(Reg::K0, 0);
        a.ret();
    });
    assert_flags(&diags, rules::BARRIER_DCBI_FETCH);
}

#[test]
fn missing_exit_invalidate_is_flagged() {
    let spec = filter_spec();
    let diags = diags_for(&spec, |a| {
        a.label("bar").unwrap();
        a.sync();
        per_thread_line(a, A_BASE);
        a.dcbi(Reg::K0, 0);
        a.isync();
        a.ldd(Reg::K1, Reg::K0, 0);
        a.sync();
        a.ret(); // exit line never reset
    });
    assert_flags(&diags, rules::BARRIER_EXIT);
}

#[test]
fn missing_entry_sync_is_flagged() {
    let spec = filter_spec();
    let diags = diags_for(&spec, |a| {
        a.label("bar").unwrap();
        per_thread_line(a, A_BASE); // no `sync`: prior stores unpublished
        a.dcbi(Reg::K0, 0);
        a.isync();
        a.ldd(Reg::K1, Reg::K0, 0);
        a.sync();
        per_thread_line(a, E_BASE);
        a.dcbi(Reg::K0, 0);
        a.ret();
    });
    assert_flags(&diags, rules::BARRIER_SYNC);
}

#[test]
fn missing_release_fence_is_flagged() {
    let spec = filter_spec();
    let diags = diags_for(&spec, |a| {
        a.label("bar").unwrap();
        a.sync();
        per_thread_line(a, A_BASE);
        a.dcbi(Reg::K0, 0);
        a.isync();
        a.ldd(Reg::K1, Reg::K0, 0);
        // no post-fetch `sync`
        per_thread_line(a, E_BASE);
        a.dcbi(Reg::K0, 0);
        a.ret();
    });
    assert_flags(&diags, rules::BARRIER_SYNC);
}

#[test]
fn missing_entry_label_is_flagged() {
    let spec = filter_spec();
    let diags = diags_for(&spec, |a| {
        a.label("not_bar").unwrap();
        a.halt();
    });
    assert_flags(&diags, rules::BARRIER_ENTRY);
}

#[test]
fn ping_pong_stuck_on_one_range_is_flagged() {
    let mut spec = filter_spec();
    spec.mechanism = BarrierMechanism::FilterDPingPong;
    spec.regions = vec![
        SyncRegion {
            kind: RegionKind::Arrival,
            base: A_BASE,
            bytes: THREADS as u64 * 64,
        },
        SyncRegion {
            kind: RegionKind::ArrivalAlt,
            base: E_BASE,
            bytes: THREADS as u64 * 64,
        },
    ];
    spec.tables = vec![
        FilterTableConfig::entry_exit(A_BASE, E_BASE, THREADS),
        FilterTableConfig {
            initial_state: ThreadState::Servicing,
            ..FilterTableConfig::entry_exit(E_BASE, A_BASE, THREADS)
        },
    ];
    spec.tls_offset = Some(0);
    let diags = diags_for(&spec, |a| {
        a.label("bar").unwrap();
        a.sync();
        per_thread_line(a, A_BASE); // always range A: no alternation
        a.dcbi(Reg::K0, 0);
        a.isync();
        a.ldd(Reg::K1, Reg::K0, 0);
        a.sync();
        a.ret();
    });
    assert_flags(&diags, rules::BARRIER_PINGPONG);
    // ... and it never toggles its sense flag either.
    assert_flags(&diags, rules::BARRIER_SENSE);
}

#[test]
fn sc_without_retry_is_flagged() {
    let mut spec = filter_spec();
    spec.mechanism = BarrierMechanism::SwCentral;
    spec.regions = vec![SyncRegion {
        kind: RegionKind::Counter,
        base: A_BASE,
        bytes: 64,
    }];
    spec.tables = Vec::new();
    spec.tls_offset = Some(0);
    let diags = diags_for(&spec, |a| {
        a.label("bar").unwrap();
        a.ldd(Reg::T8, Reg::TLS, 0);
        a.xori(Reg::T8, Reg::T8, 1);
        a.std(Reg::T8, Reg::TLS, 0);
        a.li(Reg::K0, A_BASE as i64);
        a.ll(Reg::T9, Reg::K0, 0);
        a.addi(Reg::T9, Reg::T9, 1);
        a.sc(Reg::K1, Reg::T9, Reg::K0, 0);
        // no `beq k1, zero, retry`: a failed sc silently loses the arrival
        a.ret();
    });
    assert_flags(&diags, rules::BARRIER_LLSC);
}

#[test]
fn hwbar_with_wrong_id_or_memory_traffic_is_flagged() {
    let mut spec = filter_spec();
    spec.mechanism = BarrierMechanism::HwDedicated;
    spec.regions = Vec::new();
    spec.tables = Vec::new();
    spec.hw_id = Some(3);
    let diags = diags_for(&spec, |a| {
        a.label("bar").unwrap();
        a.hwbar(9); // not the registered group
        a.std(Reg::T0, Reg::SP, 0); // and it touches memory
        a.ret();
    });
    let hw: Vec<_> = diags
        .iter()
        .filter(|d| d.rule == rules::BARRIER_HWBAR && d.severity == Severity::Error)
        .collect();
    assert_eq!(hw.len(), 2, "wrong id and memory traffic: {diags:#?}");
}

#[test]
fn structural_defects_surface_through_the_full_pipeline() {
    let mut a = Asm::new();
    a.label("bar").unwrap();
    a.beq(Reg::T0, Reg::ZERO, 0xdead_0000u64); // bogus target
    a.li(Reg::T1, 1); // last instr falls off the end
    let program = a.assemble().unwrap();
    let diags = analyze_program(&program, &[]);
    assert!(has_errors(&diags));
    assert!(diags.iter().any(|d| d.rule == rules::CFG_TARGET));
    assert!(diags.iter().any(|d| d.rule == rules::CFG_FALLOFF));
}

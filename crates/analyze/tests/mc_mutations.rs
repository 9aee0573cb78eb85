//! Model-checker rejection tests: seeded protocol mutations.
//!
//! Each fixture is a hand-assembled barrier routine with exactly one
//! mistake a real port could make — a dropped `isync`, an off-by-one
//! arrival threshold, a forgotten counter reset. The model checker must
//! catch every one with the expected `R-MC-*` rule and attach a concrete
//! interleaving (the `schedule:` suffix) to the counterexample.
//!
//! Several of these mutants pass the *static* lints (the instruction
//! sequence looks right) and are only caught by exploring interleavings —
//! that is the point of having the checker.
//!
//! The mutants' and the clean fixtures' whole reports — state and
//! transition counts and each counterexample's full text, schedule
//! included — are pinned byte for byte in `golden/mc_mutations.txt`, one
//! `== name` section per fixture.

use analyze::{model_check, rules, McConfig, McReport};
use barrier_filter::{
    BarrierMechanism, FilterTableConfig, ProtocolSpec, RegionKind, SyncRegion, ThreadState,
};
use sim_isa::{Asm, Reg, LINE_BYTES};

const THREADS: usize = 2;
const CTR: u64 = 0x3_0000;
const FLG: u64 = 0x3_0040;
const A_BASE: u64 = 0x2_0000;
const E_BASE: u64 = 0x2_0800;

fn sw_spec() -> ProtocolSpec {
    ProtocolSpec {
        mechanism: BarrierMechanism::SwCentral,
        entry: "bar".into(),
        threads: THREADS,
        regions: vec![
            SyncRegion {
                kind: RegionKind::Counter,
                base: CTR,
                bytes: LINE_BYTES,
            },
            SyncRegion {
                kind: RegionKind::Flag,
                base: FLG,
                bytes: LINE_BYTES,
            },
        ],
        tables: Vec::new(),
        tls_offset: Some(0),
        hw_id: None,
        episode_counter: Some(CTR),
        wake_addrs: vec![FLG],
    }
}

fn filter_spec() -> ProtocolSpec {
    ProtocolSpec {
        mechanism: BarrierMechanism::FilterD,
        entry: "bar".into(),
        threads: THREADS,
        regions: vec![
            SyncRegion {
                kind: RegionKind::Arrival,
                base: A_BASE,
                bytes: THREADS as u64 * LINE_BYTES,
            },
            SyncRegion {
                kind: RegionKind::Exit,
                base: E_BASE,
                bytes: THREADS as u64 * LINE_BYTES,
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

fn check(spec: &ProtocolSpec, cfg: &McConfig, build: impl FnOnce(&mut Asm)) -> McReport {
    let mut a = Asm::new();
    build(&mut a);
    model_check(&a.assemble().unwrap(), spec, cfg)
}

/// The pinned reports: one `== name` line per fixture, then its report as
/// [`render`] prints it.
const GOLDEN: &str = include_str!("golden/mc_mutations.txt");

/// A report as text: its counts, then one line per diagnostic.
fn render(report: &McReport) -> String {
    let mut out = format!(
        "states {} transitions {} truncated {}\n",
        report.states, report.transitions, report.truncated
    );
    for d in &report.diagnostics {
        out.push_str(&format!("{d}\n"));
    }
    out
}

/// Assert `report` renders exactly as fixture `name`'s pinned section.
fn assert_golden(name: &str, report: &McReport) {
    let header = format!("== {name}\n");
    let start = GOLDEN
        .find(&header)
        .unwrap_or_else(|| panic!("golden/mc_mutations.txt has no `{name}` section"))
        + header.len();
    let end = GOLDEN[start..]
        .find("\n== ")
        .map_or(GOLDEN.len(), |i| start + i + 1);
    let actual = render(report);
    assert!(
        actual == GOLDEN[start..end],
        "`{name}` differs from golden/mc_mutations.txt; the checker now reports:\n{actual}"
    );
}

/// Assert [`assert_rules`] and that the report is fixture `name`'s pinned
/// one.
fn assert_caught(name: &str, report: &McReport, expect: &[&str]) {
    assert_rules(report, expect);
    assert_golden(name, report);
}

/// Assert the report's violations are exactly `rules` (order-free), and
/// that every one carries a concrete schedule.
fn assert_rules(report: &McReport, expect: &[&str]) {
    let mut got: Vec<&str> = report.diagnostics.iter().map(|d| d.rule).collect();
    got.sort_unstable();
    let mut expect: Vec<&str> = expect.to_vec();
    expect.sort_unstable();
    assert_eq!(got, expect, "rules mismatch: {:#?}", report.diagnostics);
    for d in &report.diagnostics {
        assert!(
            d.message.contains("schedule:"),
            "counterexample without a schedule: {d}"
        );
    }
}

/// The correct centralized barrier, with one labeled splice point per
/// mutant: sense toggle, LL/SC fetch-and-increment with retry, last
/// thread resets the counter and toggles the flag, others spin.
struct SwCentral {
    /// One instruction between the counter's `ll` and its `sc` (`k0`
    /// holds the counter address there).
    after_ll: Option<fn(&mut Asm)>,
    toggle_sense: bool,
    retry_on_sc_failure: bool,
    reset_counter: bool,
    write_flag: bool,
    threshold_off_by_one: bool,
}

impl Default for SwCentral {
    fn default() -> SwCentral {
        SwCentral {
            after_ll: None,
            toggle_sense: true,
            retry_on_sc_failure: true,
            reset_counter: true,
            write_flag: true,
            threshold_off_by_one: false,
        }
    }
}

impl SwCentral {
    fn build(&self, a: &mut Asm) {
        a.label("bar").unwrap();
        a.ldd(Reg::T8, Reg::TLS, 0);
        if self.toggle_sense {
            a.xori(Reg::T8, Reg::T8, 1);
            a.std(Reg::T8, Reg::TLS, 0);
        }
        a.li(Reg::K0, CTR as i64);
        a.label("retry").unwrap();
        a.ll(Reg::T9, Reg::K0, 0);
        a.addi(Reg::T9, Reg::T9, 1);
        if let Some(splice) = self.after_ll {
            splice(a);
        }
        a.sc(Reg::K1, Reg::T9, Reg::K0, 0);
        if self.retry_on_sc_failure {
            a.beq(Reg::K1, Reg::ZERO, "retry");
        }
        if self.threshold_off_by_one {
            a.addi(Reg::T7, Reg::NTID, -1);
            a.bne(Reg::T9, Reg::T7, "wait");
        } else {
            a.bne(Reg::T9, Reg::NTID, "wait");
        }
        if self.reset_counter {
            a.std(Reg::ZERO, Reg::K0, 0);
        }
        if self.write_flag {
            a.li(Reg::K0, FLG as i64);
            a.std(Reg::T8, Reg::K0, 0);
        }
        a.ret();
        a.label("wait").unwrap();
        a.li(Reg::K0, FLG as i64);
        a.label("spin").unwrap();
        a.ldd(Reg::K1, Reg::K0, 0);
        a.bne(Reg::K1, Reg::T8, "spin");
        a.ret();
    }
}

#[test]
fn unmutated_fixtures_pass() {
    // The mutants below must fail because of their seeded mistake, not
    // because the hand-written baseline is broken.
    let report = check(&sw_spec(), &McConfig::default(), |a| {
        SwCentral::default().build(a)
    });
    assert!(report.clean(), "{:#?}", report.diagnostics);
    assert_golden("unmutated_sw_central", &report);

    let report = check(&filter_spec(), &McConfig::default(), |a| {
        a.label("bar").unwrap();
        a.sync();
        per_thread_line(a, A_BASE);
        a.dcbi(Reg::K0, 0);
        a.isync();
        a.ldd(Reg::K1, Reg::K0, 0);
        a.sync();
        per_thread_line(a, E_BASE);
        a.dcbi(Reg::K0, 0);
        a.ret();
    });
    assert!(report.clean(), "{:#?}", report.diagnostics);
    assert_golden("unmutated_filter_d", &report);
}

#[test]
fn mutant_arrival_threshold_off_by_one() {
    // Releasing at NTID-1 arrivals lets one thread finish an episode a
    // peer has not entered. The instruction *shape* is identical to the
    // correct routine — only exploration catches this.
    let mutant = SwCentral {
        threshold_off_by_one: true,
        ..SwCentral::default()
    };
    let report = check(&sw_spec(), &McConfig::default(), |a| mutant.build(a));
    assert_caught(
        "mutant_arrival_threshold_off_by_one",
        &report,
        &[rules::MC_EPISODE_ATOMIC],
    );
}

#[test]
fn mutant_missing_sense_toggle() {
    let mutant = SwCentral {
        toggle_sense: false,
        ..SwCentral::default()
    };
    let report = check(&sw_spec(), &McConfig::default(), |a| mutant.build(a));
    assert_caught("mutant_missing_sense_toggle", &report, &[rules::MC_SENSE]);
}

#[test]
fn mutant_sc_without_retry_loses_an_arrival() {
    // When both threads LL the counter, one SC fails; without the retry
    // loop that arrival is silently dropped and nobody ever becomes the
    // last thread — the flag can no longer be written.
    let mutant = SwCentral {
        retry_on_sc_failure: false,
        ..SwCentral::default()
    };
    let report = check(&sw_spec(), &McConfig::default(), |a| mutant.build(a));
    assert_caught(
        "mutant_sc_without_retry_loses_an_arrival",
        &report,
        &[rules::MC_LOST_WAKEUP],
    );
    let d = &report.diagnostics[0];
    assert!(
        d.message.contains("release word"),
        "lost wakeup should sample the wake words: {d}"
    );
}

// LL/SC reservations follow the engine: a plain store breaks every
// reservation on its line, the writer's own included; `icbi` breaks none;
// a failed `sc` leaves its core's reservation as it was. Each fixture
// puts one instruction between the counter's `ll` and its `sc`.

#[test]
fn own_store_to_the_linked_line_breaks_the_reservation() {
    // The store to another word of the counter line breaks the core's
    // own reservation, so every `sc` fails and no thread ever arrives.
    let routine = SwCentral {
        after_ll: Some(|a| {
            a.std(Reg::ZERO, Reg::K0, 8);
        }),
        ..SwCentral::default()
    };
    let report = check(&sw_spec(), &McConfig::default(), |a| routine.build(a));
    assert_rules(&report, &[rules::MC_LOST_WAKEUP]);
}

#[test]
fn icbi_of_the_linked_line_keeps_the_reservation() {
    // An instruction-cache invalidate drops no data copy, so the
    // reservation on the counter line survives it.
    let routine = SwCentral {
        after_ll: Some(|a| {
            a.icbi(Reg::K0, 0);
        }),
        ..SwCentral::default()
    };
    let report = check(&sw_spec(), &McConfig::default(), |a| routine.build(a));
    assert!(report.clean(), "{:#?}", report.diagnostics);
}

#[test]
fn failed_sc_keeps_the_reservation() {
    // An `sc` to the flag word fails (the reservation is on the counter
    // line) and leaves that reservation for the counter's `sc`.
    let routine = SwCentral {
        after_ll: Some(|a| {
            a.sc(Reg::T7, Reg::ZERO, Reg::K0, (FLG - CTR) as i64);
        }),
        ..SwCentral::default()
    };
    let report = check(&sw_spec(), &McConfig::default(), |a| routine.build(a));
    assert!(report.clean(), "{:#?}", report.diagnostics);
}

#[test]
fn mutant_counter_never_reset() {
    // Episode 1 completes; episode 2's increments start from NTID and
    // never hit the threshold again.
    let mutant = SwCentral {
        reset_counter: false,
        ..SwCentral::default()
    };
    let report = check(&sw_spec(), &McConfig::default(), |a| mutant.build(a));
    assert_caught(
        "mutant_counter_never_reset",
        &report,
        &[rules::MC_LOST_WAKEUP],
    );
}

#[test]
fn mutant_release_flag_never_written() {
    // The last thread resets the counter but forgets the release store.
    // The deepest consequence is not the stuck spinner: with the flag
    // frozen at 0, the last thread's *second* episode spin (sense back
    // to 0) falls through instantly, so it finishes episode 2 while the
    // peer still spins in episode 1 — caught as an atomicity violation.
    let mutant = SwCentral {
        write_flag: false,
        ..SwCentral::default()
    };
    let report = check(&sw_spec(), &McConfig::default(), |a| mutant.build(a));
    assert_caught(
        "mutant_release_flag_never_written",
        &report,
        &[rules::MC_EPISODE_ATOMIC],
    );
}

#[test]
fn mutant_filter_missing_isync() {
    // Without `isync` between the arrival invalidate and the fetch, a
    // stale prefetched copy can satisfy the fetch: the thread sails into
    // the exit invalidate while its filter slot is still Blocking. The
    // static lint sees this too (R-BARRIER-ISYNC); the checker proves it
    // breaks episode atomicity with a concrete schedule.
    let report = check(&filter_spec(), &McConfig::default(), |a| {
        a.label("bar").unwrap();
        a.sync();
        per_thread_line(a, A_BASE);
        a.dcbi(Reg::K0, 0);
        // isync dropped
        a.ldd(Reg::K1, Reg::K0, 0);
        a.sync();
        per_thread_line(a, E_BASE);
        a.dcbi(Reg::K0, 0);
        a.ret();
    });
    assert_caught(
        "mutant_filter_missing_isync",
        &report,
        &[rules::MC_EPISODE_ATOMIC],
    );
    assert!(
        report.diagnostics[0].message.contains("(stale)"),
        "the schedule should show the stale-satisfied fetch: {}",
        report.diagnostics[0]
    );
}

#[test]
fn mutant_filter_missing_fetch() {
    // Signalling arrival without stalling on the fill: the thread
    // invalidates its exit line while the episode is still open.
    let report = check(&filter_spec(), &McConfig::default(), |a| {
        a.label("bar").unwrap();
        a.sync();
        per_thread_line(a, A_BASE);
        a.dcbi(Reg::K0, 0);
        a.isync();
        // fetch dropped
        a.sync();
        per_thread_line(a, E_BASE);
        a.dcbi(Reg::K0, 0);
        a.ret();
    });
    assert_caught(
        "mutant_filter_missing_fetch",
        &report,
        &[rules::MC_EPISODE_ATOMIC],
    );
}

#[test]
fn mutant_filter_missing_exit_invalidate() {
    // Episode 1 is fine; the slot is left in Servicing, so episode 2's
    // arrival invalidate hits a state the filter FSM rejects.
    let report = check(&filter_spec(), &McConfig::default(), |a| {
        a.label("bar").unwrap();
        a.sync();
        per_thread_line(a, A_BASE);
        a.dcbi(Reg::K0, 0);
        a.isync();
        a.ldd(Reg::K1, Reg::K0, 0);
        a.sync();
        // exit invalidate dropped
        a.ret();
    });
    assert_caught(
        "mutant_filter_missing_exit_invalidate",
        &report,
        &[rules::MC_EPISODE_ATOMIC],
    );
}

#[test]
fn mutant_ping_pong_stuck_on_one_range() {
    // A ping-pong routine that reuses the primary range every episode:
    // episode 1 completes, episode 2 invalidates a Servicing slot.
    let mut spec = filter_spec();
    spec.mechanism = BarrierMechanism::FilterDPingPong;
    spec.regions = vec![
        SyncRegion {
            kind: RegionKind::Arrival,
            base: A_BASE,
            bytes: THREADS as u64 * LINE_BYTES,
        },
        SyncRegion {
            kind: RegionKind::ArrivalAlt,
            base: E_BASE,
            bytes: THREADS as u64 * LINE_BYTES,
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
    let report = check(&spec, &McConfig::default(), |a| {
        a.label("bar").unwrap();
        a.sync();
        // sense ^= 1 (kept correct so only the range bug is seeded)
        a.ldd(Reg::T8, Reg::TLS, 0);
        a.xori(Reg::T8, Reg::T8, 1);
        a.std(Reg::T8, Reg::TLS, 0);
        per_thread_line(a, A_BASE); // always the primary range
        a.dcbi(Reg::K0, 0);
        a.isync();
        a.ldd(Reg::K1, Reg::K0, 0);
        a.sync();
        a.ret();
    });
    assert_caught(
        "mutant_ping_pong_stuck_on_one_range",
        &report,
        &[rules::MC_EPISODE_ATOMIC],
    );
}

#[test]
fn mutant_hwbar_with_wrong_group() {
    let mut spec = filter_spec();
    spec.mechanism = BarrierMechanism::HwDedicated;
    spec.regions = Vec::new();
    spec.tables = Vec::new();
    spec.hw_id = Some(3);
    let report = check(&spec, &McConfig::default(), |a| {
        a.label("bar").unwrap();
        a.hwbar(9); // not the armed group
        a.ret();
    });
    assert_caught(
        "mutant_hwbar_with_wrong_group",
        &report,
        &[rules::MC_HW_PAIRING],
    );
}

#[test]
fn mutant_deserter_thread_deadlocks_the_filter() {
    // Thread 1 skips the barrier body entirely: thread 0 parks on its
    // fill, slot 1 never blocks, the table never opens, and once thread
    // 1 retires nobody can take a step.
    let cfg = McConfig {
        episodes: 1,
        ..McConfig::default()
    };
    let report = check(&filter_spec(), &cfg, |a| {
        a.label("bar").unwrap();
        a.sync();
        a.bne(Reg::TID, Reg::ZERO, "out"); // thread 1 deserts
        per_thread_line(a, A_BASE);
        a.dcbi(Reg::K0, 0);
        a.isync();
        a.ldd(Reg::K1, Reg::K0, 0);
        a.sync();
        per_thread_line(a, E_BASE);
        a.dcbi(Reg::K0, 0);
        a.label("out").unwrap();
        a.ret();
    });
    assert_caught(
        "mutant_deserter_thread_deadlocks_the_filter",
        &report,
        &[rules::MC_DEADLOCK],
    );
    assert!(
        report.diagnostics[0].message.contains("parked on a fill"),
        "{}",
        report.diagnostics[0]
    );
}

#[test]
fn fault_injection_unparks_and_recovers_a_correct_filter() {
    // §3.3.3: a switched-out thread's parked fill is cancelled and
    // re-issued when it runs again. The correct routine must survive the
    // fault on every schedule...
    let cfg = McConfig {
        fault: true,
        ..McConfig::default()
    };
    let report = check(&filter_spec(), &cfg, |a| {
        a.label("bar").unwrap();
        a.sync();
        per_thread_line(a, A_BASE);
        a.dcbi(Reg::K0, 0);
        a.isync();
        a.ldd(Reg::K1, Reg::K0, 0);
        a.sync();
        per_thread_line(a, E_BASE);
        a.dcbi(Reg::K0, 0);
        a.ret();
    });
    assert!(report.clean(), "{:#?}", report.diagnostics);
    assert_golden("fault_injection_filter_d", &report);

    // ...and the fault dimension must add schedules, not replace them.
    let base = check(&filter_spec(), &McConfig::default(), |a| {
        a.label("bar").unwrap();
        a.sync();
        per_thread_line(a, A_BASE);
        a.dcbi(Reg::K0, 0);
        a.isync();
        a.ldd(Reg::K1, Reg::K0, 0);
        a.sync();
        per_thread_line(a, E_BASE);
        a.dcbi(Reg::K0, 0);
        a.ret();
    });
    assert!(report.states > base.states);
}

//! Fault-injection integration tests: the §3.3.3 recovery claims, held as
//! executable invariants.
//!
//! Mechanism families behave differently under the injector and both are
//! covered for every [`FaultKind`]:
//!
//! * **Filter barriers** (`FilterD`, `FilterI`) park arrival fills, so
//!   switch-out / delayed-resume / migration / reprogram faults find real
//!   targets. Every faulted run must finish, leave the filter tables
//!   quiescent, and satisfy `parks == releases + cancellations`.
//! * **Non-parking barriers** (`SwCentral`, `HwDedicated`) never park, so
//!   every fault is a counted no-op and the run must be bit-identical to
//!   the fault-free baseline.

use barrier_filter::BarrierMechanism;
use bench_suite::fig4_machine_with;
use cmp_sim::{run_with_faults, FaultEvent, FaultKind, FaultPlan, FaultReport, Machine, RunState};
use kernels::{RunAttachments, RunSpec, WorkloadSpec};

const FILTERS: [BarrierMechanism; 2] = [BarrierMechanism::FilterD, BarrierMechanism::FilterI];
const NON_PARKING: [BarrierMechanism; 2] =
    [BarrierMechanism::SwCentral, BarrierMechanism::HwDedicated];

/// The shared fixture: an 8-core barrier loop long enough for faults to
/// land mid-run.
fn machine(mechanism: BarrierMechanism) -> Machine {
    let spec = RunSpec::fig4(mechanism, 8, 8, 4);
    fig4_machine_with(&spec, &mut RunAttachments::default()).expect("fixture machine")
}

/// The K=5 Viterbi decoder over 24 bits (what `Viterbi::new(24)` builds).
const VITERBI_24: WorkloadSpec = WorkloadSpec::Viterbi {
    constraint: 5,
    data_bits: 24,
    noise_per_mille: 10,
};

/// Fault-free reference run of the fixture.
fn baseline(mechanism: BarrierMechanism) -> (u64, u64) {
    let mut m = machine(mechanism);
    let s = m.run().expect("baseline run");
    (s.cycles, m.stats().digest())
}

/// First pause cycle (a multiple of 25) at which at least `k` cores are
/// parked. Deterministic: the fixture machine is, so its parked sets at a
/// given cycle are too.
fn first_time_with_parked(mechanism: BarrierMechanism, k: usize) -> u64 {
    let mut m = machine(mechanism);
    let mut t = 0;
    loop {
        t += 25;
        match m.run_until(t).expect("probe run") {
            RunState::Finished(_) => panic!("{mechanism}: never saw {k} parked cores"),
            RunState::Paused => {
                if m.parked_cores().len() >= k {
                    return m.now();
                }
            }
        }
    }
}

fn plan(events: Vec<FaultEvent>) -> FaultPlan {
    let mut events = events;
    events.sort_by_key(|e| e.at);
    FaultPlan { seed: 0, events }
}

/// Run the fixture under `plan` and enforce the universal postconditions:
/// the run finishes, the filter tables are quiescent, and (no timeouts
/// configured) every park was either released or cancelled.
fn run_checked(mechanism: BarrierMechanism, plan: &FaultPlan) -> (u64, u64, FaultReport) {
    let mut m = machine(mechanism);
    let (summary, report) = run_with_faults(&mut m, plan).expect("faulted run");
    assert!(
        m.hooks_quiescent(),
        "{mechanism}: filter tables must be quiescent after the run"
    );
    if mechanism.is_filter() {
        let e = m.stats().episodes;
        assert_eq!(
            e.parks,
            e.releases + e.cancellations,
            "{mechanism}: every park must be released or cancelled"
        );
    }
    (summary.cycles, m.stats().digest(), report)
}

#[test]
fn switch_out_and_resume_round_trips_on_filter_barriers() {
    for mechanism in FILTERS {
        let start = first_time_with_parked(mechanism, 1);
        let (cycles, _) = baseline(mechanism);
        let events = (0..12)
            .map(|i| FaultEvent {
                at: start + (cycles.saturating_sub(start) * i) / 16,
                pick: 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i + 1),
                kind: FaultKind::SwitchOut { delay: 60 + 13 * i },
            })
            .collect();
        let (_, _, report) = run_checked(mechanism, &plan(events));
        assert!(report.injected > 0, "{mechanism}: no switch-out landed");
        assert_eq!(
            report.resumed, report.injected,
            "{mechanism}: every switched-out thread resumes exactly once"
        );
        // The round trip is visible in the episode accounting too.
        let mut m = machine(mechanism);
        let first = FaultEvent {
            at: start,
            pick: 7,
            kind: FaultKind::SwitchOut { delay: 80 },
        };
        let (_, r) = run_with_faults(&mut m, &plan(vec![first])).expect("single fault");
        assert_eq!(r.injected, 1);
        let e = m.stats().episodes;
        assert_eq!(e.cancellations, 1, "{mechanism}: the park was cancelled");
        assert_eq!(
            e.reparks + e.resumes_after_release,
            1,
            "{mechanism}: the resumed thread re-issued its arrival"
        );
    }
}

#[test]
fn faults_are_counted_noops_on_non_parking_barriers() {
    for mechanism in NON_PARKING {
        let (cycles, digest) = baseline(mechanism);
        let events = (0..16)
            .map(|i| FaultEvent {
                at: cycles * i / 16,
                pick: i,
                kind: match i % 4 {
                    0 => FaultKind::SwitchOut { delay: 50 },
                    1 => FaultKind::DelayResume { extra: 50 },
                    2 => FaultKind::Migrate { delay: 50 },
                    _ => FaultKind::Reprogram,
                },
            })
            .collect();
        let (faulted_cycles, faulted_digest, report) = run_checked(mechanism, &plan(events));
        assert_eq!(
            report.injected, 0,
            "{mechanism}: nothing parks, nothing to inject"
        );
        assert_eq!(report.skipped, 16, "{mechanism}: every event is a no-op");
        assert_eq!(
            (faulted_cycles, faulted_digest),
            (cycles, digest),
            "{mechanism}: a no-op plan must leave the run bit-identical"
        );
    }
}

#[test]
fn delayed_resume_stretches_the_run_on_filter_barriers() {
    for mechanism in FILTERS {
        let start = first_time_with_parked(mechanism, 1);
        let switch_out = FaultEvent {
            at: start,
            pick: 3,
            kind: FaultKind::SwitchOut { delay: 400 },
        };
        let (cycles_plain, _, r_plain) = run_checked(mechanism, &plan(vec![switch_out]));
        assert_eq!(r_plain.injected, 1, "{mechanism}: switch-out must land");
        let delay = FaultEvent {
            at: start + 100,
            pick: 0,
            kind: FaultKind::DelayResume { extra: 5_000 },
        };
        let (cycles_delayed, _, r) = run_checked(mechanism, &plan(vec![switch_out, delay]));
        assert_eq!(
            r.injected, 2,
            "{mechanism}: the delay found the pending resume"
        );
        assert_eq!(r.resumed, 1);
        assert!(
            cycles_delayed >= cycles_plain + 4_000,
            "{mechanism}: a 5000-cycle resume delay must stretch the run \
             ({cycles_plain} -> {cycles_delayed})"
        );
    }
}

#[test]
fn migration_swaps_parked_threads_and_rearms_filters() {
    for mechanism in FILTERS {
        let start = first_time_with_parked(mechanism, 2);
        let migrate = FaultEvent {
            at: start,
            pick: 0x5bd1_e995,
            kind: FaultKind::Migrate { delay: 120 },
        };
        let (_, _, report) = run_checked(mechanism, &plan(vec![migrate]));
        assert_eq!(report.injected, 1, "{mechanism}: migration must land");
        assert_eq!(
            report.resumed, 2,
            "{mechanism}: both migrated threads resume"
        );
    }
}

#[test]
fn reprogram_probe_surfaces_recoverable_violations_on_busy_filters() {
    for mechanism in FILTERS {
        let start = first_time_with_parked(mechanism, 1);
        // One probe per bank: hooked banks inject (busy ones violate),
        // hookless banks are counted skips — never a panic either way.
        let banks = machine(mechanism).config().l2_banks as u64;
        let events = (0..banks)
            .map(|b| FaultEvent {
                at: start,
                pick: b,
                kind: FaultKind::Reprogram,
            })
            .collect();
        let (_, _, report) = run_checked(mechanism, &plan(events));
        assert!(
            report.violations >= 1,
            "{mechanism}: reprogramming a filter holding parked fills must \
             surface a recoverable violation"
        );
        assert_eq!(report.injected + report.skipped, banks as usize);
    }
}

#[test]
fn zero_fault_plans_are_digest_invariant() {
    for mechanism in FILTERS.into_iter().chain(NON_PARKING) {
        let (cycles, digest) = baseline(mechanism);
        let mut m = machine(mechanism);
        let (summary, report) = run_with_faults(&mut m, &FaultPlan::none()).expect("run");
        assert_eq!(report, FaultReport::default());
        assert_eq!(
            (summary.cycles, m.stats().digest()),
            (cycles, digest),
            "{mechanism}: an empty plan must be exactly Machine::run"
        );
    }
    // Kernel level: a spec with a zero-event fault plan reproduces the
    // unfaulted spec bit-for-bit.
    let spec = RunSpec::parallel(VITERBI_24, 4, BarrierMechanism::FilterD);
    let plain = kernels::run(&spec).expect("plain viterbi").outcome;
    let out =
        kernels::run(&spec.with_faults(0x1e7b, 0, plain.sim.cycles)).expect("zero-fault viterbi");
    assert_eq!(out.faults, FaultReport::default());
    assert_eq!(out.outcome.sim, plain.sim);
}

#[test]
fn seeded_chaos_replays_bit_identically() {
    for mechanism in FILTERS {
        let (cycles, _) = baseline(mechanism);
        let chaos = FaultPlan::generate(0xc0ff_ee00 ^ cycles, 24, cycles);
        let (c1, d1, r1) = run_checked(mechanism, &chaos);
        let (c2, d2, r2) = run_checked(mechanism, &chaos);
        assert_eq!((c1, d1, r1), (c2, d2, r2), "{mechanism}: replay diverged");
    }
}

#[test]
fn faulted_kernels_still_validate_viterbi() {
    for mechanism in FILTERS {
        let spec = RunSpec::parallel(VITERBI_24, 4, mechanism);
        let probe = kernels::run(&spec).expect("probe run for the horizon");
        let spec = spec.with_faults(0x1e7b, 16, probe.outcome.sim.cycles);
        let out = kernels::run(&spec).expect("faulted viterbi must still validate");
        assert!(out.outcome.sim.cycles > 0);
        assert_eq!(out.faults.injected + out.faults.skipped, 16);
    }
}

#[test]
fn faulted_kernels_still_validate_loop2() {
    for mechanism in FILTERS {
        let spec = RunSpec::parallel(WorkloadSpec::Loop2 { n: 64 }, 4, mechanism);
        let probe = kernels::run(&spec).expect("probe run for the horizon");
        let spec = spec.with_faults(0x10072, 16, probe.outcome.sim.cycles);
        let out = kernels::run(&spec).expect("faulted loop2 must still validate");
        assert!(out.outcome.sim.cycles > 0);
        assert_eq!(out.faults.injected + out.faults.skipped, 16);
    }
}

/// The `RunSummary::cycles` monotonicity contract under faults: the
/// reported cycle count must equal `Machine::now()` at the moment the run
/// finishes and dominate every core's halt cycle. Fault-driven runs are
/// where the two can drift — switch-outs and delayed resumes push `now`
/// through quiescent-advance pauses and trailing hook timers that no
/// core's halt cycle reflects — so a summary that re-derived `cycles`
/// from halt cycles alone could roll time backwards. Non-vacuous: the
/// plan must actually round-trip switched-out threads.
#[test]
fn faulted_summaries_stay_monotone_with_now() {
    for mechanism in FILTERS {
        let start = first_time_with_parked(mechanism, 1);
        let (cycles, _) = baseline(mechanism);
        let events = (0..12)
            .map(|i| FaultEvent {
                at: start + (cycles.saturating_sub(start) * i) / 16,
                pick: 0x2545_f491_4f6c_dd1du64.wrapping_mul(i + 1),
                kind: FaultKind::SwitchOut { delay: 90 + 17 * i },
            })
            .collect();
        let mut m = machine(mechanism);
        let (summary, report) = run_with_faults(&mut m, &plan(events)).expect("faulted run");
        assert!(
            report.resumed > 0,
            "{mechanism}: no switched-out thread resumed — vacuous"
        );
        assert_eq!(
            summary.cycles,
            m.now(),
            "{mechanism}: summary cycles must match the machine clock"
        );
        for (core, stats) in m.stats().cores.iter().enumerate() {
            let halt = stats.halt_cycle.expect("every core halted");
            assert!(
                summary.cycles >= halt,
                "{mechanism}: summary ({}) behind core {core}'s halt ({halt})",
                summary.cycles
            );
        }
    }
}

/// The strongest form of the monotonicity contract: a quiescent-advance
/// pause jumps `Machine::now()` straight to the requested pause horizon
/// (so an OS resume scheduled for cycle T lands at cycle T), and the
/// final summary must carry that overshoot forward rather than report
/// the (much earlier) cycle the machine actually went idle at.
#[test]
fn quiescent_advance_overshoot_never_rolls_the_summary_back() {
    let mechanism = BarrierMechanism::FilterD;
    let start = first_time_with_parked(mechanism, 1);
    let mut m = machine(mechanism);
    assert!(matches!(m.run_until(start), Ok(RunState::Paused)));
    let victim = m.parked_cores()[0];
    assert!(m.context_switch_out(victim));
    // With the victim switched out, every other thread parks behind the
    // barrier and the event queue drains; the machine is then quiescent
    // (only the OS can make progress) and run_until jumps the clock to
    // the pause horizon.
    let horizon = m.now() + 100_000;
    match m.run_until(horizon).expect("quiescent pause") {
        RunState::Paused => {}
        RunState::Finished(_) => panic!("cannot finish with a switched-out thread"),
    }
    assert_eq!(m.now(), horizon, "quiescent-advance must reach the horizon");
    m.resume_thread(victim).expect("resume the victim");
    let summary = match m.run_until(u64::MAX).expect("finish the run") {
        RunState::Finished(s) => s,
        RunState::Paused => panic!("resumed machine must finish"),
    };
    assert_eq!(summary.cycles, m.now());
    assert!(
        summary.cycles >= horizon,
        "summary ({}) rolled back past the quiescent-advance horizon ({horizon})",
        summary.cycles
    );
}

//! Model-checker acceptance sweep and anti-rot wiring guard.
//!
//! Every shipped mechanism's emitted routine, explored exhaustively at
//! 2–4 cores with and without an injected fault, must satisfy all
//! `R-MC-*` properties. The anti-rot test pins the contract that adding
//! a [`BarrierMechanism`] without a protocol spec, a mechanism-specific
//! lint rule, and a model-checker run is a test failure.

use analyze::{mechanism_rules, model_check, McConfig};
use barrier_filter::{BarrierMechanism, BarrierSystem, ProtocolSpec};
use cmp_sim::{AddressSpace, SimConfig};
use sim_isa::{Asm, Program};

/// Emit `mechanism` for `threads` cores through the real registration
/// path. `None` when the flat topology cannot host the mechanism (the
/// hierarchical pair needs a power-of-two cluster split, so it falls
/// back at 3 cores).
fn emitted(mechanism: BarrierMechanism, threads: usize) -> Option<(Program, ProtocolSpec)> {
    let config = SimConfig::with_cores(threads);
    let mut space = AddressSpace::new(&config);
    let mut asm = Asm::new();
    let mut sys = BarrierSystem::new(&config, threads, &mut space).unwrap();
    // A topology that cannot host the mechanism surfaces either as a
    // registration error (hierarchical split of a non-power-of-two
    // cluster) or as a fallback barrier.
    let barrier = sys
        .create_barrier(&mut asm, &mut space, mechanism, threads)
        .ok()?;
    if barrier.is_fallback() {
        return None;
    }
    asm.label("entry").unwrap();
    barrier.emit_call(&mut asm);
    asm.halt();
    let spec = barrier.protocol().clone();
    Some((asm.assemble().unwrap(), spec))
}

#[test]
fn every_mechanism_passes_the_model_checker_at_2_to_4_cores() {
    for &mechanism in BarrierMechanism::EXTENDED.iter() {
        for threads in [2usize, 3, 4] {
            let Some((program, spec)) = emitted(mechanism, threads) else {
                continue; // topology cannot host this mechanism
            };
            for fault in [false, true] {
                let cfg = McConfig {
                    fault,
                    ..McConfig::default()
                };
                let report = model_check(&program, &spec, &cfg);
                assert!(
                    !report.truncated,
                    "{mechanism} x{threads} fault={fault}: exploration truncated \
                     at {} states",
                    report.states
                );
                assert!(
                    report.clean(),
                    "{mechanism} x{threads} fault={fault}: {:#?}",
                    report.diagnostics
                );
                assert!(
                    report.states > 1,
                    "{mechanism} x{threads}: explored nothing"
                );
            }
        }
    }
}

#[test]
fn every_mechanism_is_fully_wired() {
    for &mechanism in BarrierMechanism::EXTENDED.iter() {
        // 1. Registration must produce a usable protocol spec: sync
        //    regions for anything memory-based, a dedicated group id
        //    otherwise.
        let (program, spec) =
            emitted(mechanism, 4).expect("every mechanism must register on a flat 4-core machine");
        assert!(
            !spec.regions.is_empty() || spec.hw_id.is_some(),
            "{mechanism}: protocol spec has neither sync regions nor a hw group"
        );
        // 2. At least one mechanism-specific lint rule must be wired.
        assert!(
            !mechanism_rules(mechanism).is_empty(),
            "{mechanism}: no protocol lint rule registered"
        );
        // 3. The model checker must be able to run the emitted routine.
        let report = model_check(&program, &spec, &McConfig::default());
        assert!(
            report.states > 1,
            "{mechanism}: model checker explored nothing"
        );
        assert!(report.clean(), "{mechanism}: {:#?}", report.diagnostics);
    }
}

#[test]
fn filter_specs_name_their_tables() {
    // The checker steps exactly the tables a spec names, so a filter spec
    // without tables would model-check as a barrier with no filter, and a
    // software or dedicated spec with tables would check a filter the
    // machine never programs.
    for &mechanism in BarrierMechanism::EXTENDED.iter() {
        for threads in [2usize, 4] {
            let (_, spec) = emitted(mechanism, threads).unwrap();
            assert_eq!(
                !spec.tables.is_empty(),
                mechanism.is_filter(),
                "{mechanism} x{threads}: {:?}",
                spec.tables
            );
        }
    }
}

#[test]
fn software_specs_expose_episode_counter_and_wake_words() {
    // The lost-wakeup classifier needs to know which words can wake a
    // spinner; every software (LL/SC + spin) mechanism must export them.
    for mechanism in [
        BarrierMechanism::SwCentral,
        BarrierMechanism::SwTree,
        BarrierMechanism::SwHier,
    ] {
        let (_, spec) = emitted(mechanism, 4).unwrap();
        assert!(
            spec.episode_counter.is_some(),
            "{mechanism}: no episode counter registered"
        );
        assert!(
            !spec.wake_addrs.is_empty(),
            "{mechanism}: no wake words registered"
        );
    }
}

//! Exactness: two passes over each workload, in orders drawn from two
//! different seeds, must agree on simulated cycles, every operation's
//! digest and every per-layer counter. Only host times may differ.

use cmp_sim::Lcg;
use fastbar_perfbench::pass::run_pass;
use fastbar_perfbench::spans::Recorder;
use fastbar_perfbench::workload::{shuffled, Recorded, Workload};

fn repeats_exactly(name: &str) {
    let w = Workload::named(name).expect("a benchmark workload");
    let recorded = Recorded::load();
    let [(order_a, a), (order_b, b)] = [1, 2].map(|seed| {
        let order = shuffled(w.ops.len(), &mut Lcg::new(seed));
        let pass = run_pass(&w, &order, &recorded, true, &mut Recorder::new(true));
        (order, pass)
    });
    assert_ne!(
        order_a, order_b,
        "the seeds must order the operations differently"
    );
    assert_eq!(
        (a.failed, b.failed),
        (0, 0),
        "{:?} {:?}",
        a.failures,
        b.failures
    );
    assert!(a.counters.cycles > 0 && a.counters.observed_instructions > 0);
    assert_eq!(a.counters.cycles, b.counters.cycles, "sim_cycles");
    assert_eq!(a.digests, b.digests, "digests");
    assert_eq!(a.counters, b.counters, "per-layer counters");
}

#[test]
fn fig4_loop_repeats_exactly() {
    repeats_exactly("fig4_loop");
}

#[test]
fn kernels_verify_repeats_exactly() {
    repeats_exactly("kernels_verify");
}

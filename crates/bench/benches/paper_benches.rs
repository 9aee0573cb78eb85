//! Micro-benchmarks wrapping reduced-size versions of every paper
//! experiment, so `cargo bench` exercises each table/figure pipeline
//! end-to-end. (The full-size sweeps live in the `bench-suite` binaries;
//! see EXPERIMENTS.md.)
//!
//! These measure *host* time to run each simulation, which doubles as a
//! performance regression guard for the simulator itself; the simulated
//! cycle counts the binaries print are the paper-relevant output.
//!
//! The harness is std-only (min/median over a fixed sample count) so it
//! runs with no registry access.

use std::time::Instant;

use barrier_filter::BarrierMechanism;
use bench_suite::barrier_latency;
use kernels::autocorr::Autocorr;
use kernels::livermore::{Loop2, Loop3, Loop6};
use kernels::ocean::OceanProxy;
use kernels::viterbi::Viterbi;

const SAMPLES: usize = 5;

/// Time `f` SAMPLES times and report min/median wall time.
fn bench(group: &str, name: &str, mut f: impl FnMut()) {
    let mut times: Vec<u128> = (0..SAMPLES)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_micros()
        })
        .collect();
    times.sort_unstable();
    println!(
        "{group}/{name:<24} min {:>10.3} ms   median {:>10.3} ms",
        times[0] as f64 / 1e3,
        times[times.len() / 2] as f64 / 1e3,
    );
}

fn bench_fig4_latency() {
    for mechanism in BarrierMechanism::ALL {
        bench("fig4_barrier_latency", mechanism.name(), || {
            barrier_latency(mechanism, 8, 8, 2).expect("latency");
        });
    }
}

fn bench_table1_kernels() {
    let l2 = Loop2::new(64);
    bench("table1_kernels", "loop2_seq", || {
        l2.run_sequential().expect("ok");
    });
    bench("table1_kernels", "loop2_filter", || {
        l2.run_parallel(8, BarrierMechanism::FilterI).expect("ok");
    });
    let l3 = Loop3::new(128);
    bench("table1_kernels", "loop3_filter", || {
        l3.run_parallel(8, BarrierMechanism::FilterD).expect("ok");
    });
    let l6 = Loop6::new(32);
    bench("table1_kernels", "loop6_filter", || {
        l6.run_parallel(8, BarrierMechanism::FilterDPingPong)
            .expect("ok");
    });
}

fn bench_eembc_kernels() {
    let ac = Autocorr::with_lags(256, 8);
    bench("fig5_fig6_eembc", "autocorr_filter", || {
        ac.run_parallel(8, BarrierMechanism::FilterI).expect("ok");
    });
    let vit = Viterbi::new(32);
    bench("fig5_fig6_eembc", "viterbi_filter", || {
        vit.run_parallel(8, BarrierMechanism::FilterD).expect("ok");
    });
}

fn bench_ocean_proxy() {
    let ocean = OceanProxy::new(18, 4);
    bench("ocean_coarse", "ocean_filter", || {
        ocean
            .run_parallel(8, BarrierMechanism::FilterD)
            .expect("ok");
    });
}

fn main() {
    bench_fig4_latency();
    bench_table1_kernels();
    bench_eembc_kernels();
    bench_ocean_proxy();
}

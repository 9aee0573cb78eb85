//! `bench-suite`: the experiment harness that regenerates every table and
//! figure of the paper's evaluation (§4).
//!
//! One binary, `fastbar`, runs every experiment of the static
//! [`experiments`] registry; `fastbar <name> > results/<name>.txt`
//! regenerates each committed result:
//!
//! | `fastbar …` | artifact |
//! |---|---|
//! | `table1` | Table 1 — best software-barrier speedups on 16 cores |
//! | `fig4` | Figure 4 — average barrier latency vs core count |
//! | `fig5` | Figure 5 — Autocorrelation speedup by mechanism |
//! | `fig6` | Figure 6 — Viterbi speedup by mechanism |
//! | `fig7` | Figure 7 — Livermore Loop 2 time vs vector length |
//! | `fig8` | Figure 8 — Livermore Loop 3 time vs vector length |
//! | `fig10` | Figure 10 — Livermore Loop 6 time vs vector length |
//! | `ocean` | §4.1 — coarse-grained (Ocean-like) barrier overhead |
//! | `ablations` | design ablations called out in DESIGN.md |
//! | `fig_scale` | scaling sweep 16→1024 cores → `BENCH_scale.json` |
//! | `hotpath` | engine per-stage cost profile → `results/hotpath.txt` |
//! | `throughput` | pinned-digest gate on both engines → `BENCH_throughput.json` |
//! | `chaos` | fault-injection recovery sweep → `BENCH_chaos.json` |
//! | `verify` | verifier + race detector + model checker → `BENCH_verify.json` |
//!
//! Every JSON document has one schema, [`experiments::RUNS_SCHEMA`]: a
//! header, the experiment's own fields, and a `runs` list holding one
//! [`RunOutput::record`](kernels::RunOutput::record) per simulated run
//! (plus only what is not a property of the run, such as verify's
//! findings).
//!
//! The library holds the registry and the shared runners, so integration
//! tests (and the `perfbench` benchmark) reuse exactly the code the binary
//! runs.

pub mod chaos;
pub mod cli;
pub mod experiments;
pub mod hotpath;
pub mod kernel_runs;
pub mod latency;
pub mod report;
pub mod scale;
pub mod sweep;
pub mod throughput;
pub mod verify;

pub use chaos::{run_chaos, ChaosWorkload};
pub use cli::{BenchArgs, Cli};
pub use hotpath::{profile, HotpathPoint, HotpathReport};
pub use kernel_runs::{speedup_table, sweep_grid, SpeedupRow};
pub use latency::fig4_machine_with;
pub use scale::{
    run_scale, scale_clusters, scale_config, scale_grid, scale_mechanisms, scale_reps,
    SCALE_CORE_COUNTS,
};
pub use sweep::SweepRunner;
pub use throughput::{
    fig4_specs, fold_fig4_digests, EXPECTED_FIG4_16CORE_DIGEST, EXPECTED_VITERBI_K5_16T_DIGEST,
};
pub use verify::{run_verify, verify_case, VerifyCase, VerifyDoc, VerifyKernel};

//! Per-stage engine cost profile (see [`bench_suite::hotpath`]).
//!
//! Times single-core microbenches that isolate each engine stage
//! (exec/step ceiling, memory paths) on the production engine, the ALU
//! loop on the reference engine, and the fig4 reference workload, and
//! prints marginal ns-per-instruction stage costs. Commit the output as
//! `results/hotpath.txt` so future perf PRs start from a current profile:
//!
//! `cargo run --release -p bench-suite --bin hotpath > results/hotpath.txt`

fn main() {
    print!("{}", bench_suite::hotpath::profile().render());
}

//! The run's report: per-layer metrics of a traced run, the spans file
//! and the JSON result line.

use std::collections::BTreeMap;

use crate::counters::{ratio, Metric};
use crate::host::{summarize, Summary};
use crate::pass::{Pass, Times};
use crate::spans::{chrome_json, self_times, Span};

/// Span layers: the per-operation root, whose self time is the
/// benchmark's own work, and the calls into the program it times.
pub const LAYERS: [&str; 8] = [
    "op",
    "setup.input",
    "setup.build",
    "machine.run",
    "kernels.run",
    "race.run",
    "lint",
    "mc",
];

/// One host time over a run's passes.
///
/// The result line reports `best`: each operation's fastest time over
/// the passes, summed over the operations. The host is shared, and a
/// neighbour's load only ever adds time, for stretches from seconds to
/// minutes; the fastest repetition of each operation is what stays put
/// from run to run. Measured on a 2-CPU share of such a host, over five
/// 20 s runs per workload, the pass totals' median spread 18-31% between
/// quartiles and `best` 11-13%. The per-pass totals' median and tail are
/// reported beside it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// Sum over the operations of each one's fastest time.
    pub best: f64,
    /// The per-pass totals.
    pub passes: Summary,
}

impl Timing {
    /// `time` of every operation over `passes`, which must not be empty
    /// and must each hold every operation.
    pub fn of(passes: &[Pass], time: impl Fn(&Times) -> f64) -> Timing {
        let ops = passes[0].times.len();
        let best = (0..ops)
            .map(|i| {
                passes
                    .iter()
                    .map(|p| time(&p.times[i]))
                    .fold(f64::INFINITY, f64::min)
            })
            .sum();
        let totals: Vec<f64> = passes.iter().map(|p| p.total(&time)).collect();
        Timing {
            best,
            passes: summarize(&totals),
        }
    }
}

impl std::fmt::Display for Timing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "best {:.6}; per pass {}", self.best, self.passes)
    }
}

/// Per-layer metrics of a traced run, printed as they are computed.
///
/// Host times are each layer's self time per traced pass, as medians
/// over the passes; a layer's share divides its self time by the traced
/// operation time, so the shares sum to one. The tracing overhead
/// compares the traced passes' `wall_s` with the untraced passes' of the
/// same run, both as [`Timing::best`]. Counters come from the first
/// traced pass: every pass gives the same ones.
pub fn per_layer(plain: &[Pass], traced: &[Pass], spans: &[Span]) -> Vec<Metric> {
    let self_time = self_times(spans);
    let by_pass: Vec<BTreeMap<&str, f64>> = traced
        .iter()
        .map(|p| {
            let mut by_layer = BTreeMap::new();
            for i in p.spans.clone() {
                assert!(
                    LAYERS.contains(&spans[i].name),
                    "unlisted layer {}",
                    spans[i].name
                );
                *by_layer.entry(spans[i].name).or_insert(0.0) += self_time[i];
            }
            by_layer
        })
        .collect();
    let layer_s = |name: &str| {
        let per_pass: Vec<f64> = by_pass
            .iter()
            .map(|m| m.get(name).copied().unwrap_or(0.0))
            .collect();
        summarize(&per_pass).median
    };
    let op_s: Vec<f64> = traced
        .iter()
        .map(|p| {
            p.spans
                .clone()
                .filter(|&i| spans[i].parent.is_none())
                .map(|i| spans[i].end - spans[i].start)
                .sum()
        })
        .collect();
    let total_op_s: f64 = op_s.iter().sum();
    let untraced_wall = Timing::of(plain, |t| t.wall_s).best;
    let traced_wall = Timing::of(traced, |t| t.wall_s).best;
    let overhead = traced_wall - untraced_wall;
    println!(
        "  tracing overhead: wall_s {traced_wall:.6} s traced vs {untraced_wall:.6} s untraced, \
         {overhead:+.6} s ({:+.2}%)",
        100.0 * ratio(overhead, untraced_wall)
    );
    println!(
        "  layer self times sum to {:.6} s of {total_op_s:.6} s traced operation time over {} passes",
        self_time.iter().sum::<f64>(),
        traced.len()
    );
    let c = &traced[0].counters;
    let mut out = vec![
        Metric::new("setup.input_s", layer_s("setup.input"), "s"),
        Metric::new("setup.build_s", layer_s("setup.build"), "s"),
        Metric::new("machine.run_s", layer_s("machine.run"), "s"),
        Metric::new(
            "machine.ns_per_instr",
            ratio(1e9 * layer_s("machine.run"), c.machine.instructions as f64),
            "ns/instr",
        ),
        Metric::new("kernels.run_s", layer_s("kernels.run"), "s"),
        Metric::new(
            "kernels.ns_per_instr",
            ratio(1e9 * layer_s("kernels.run"), c.kernel_instructions as f64),
            "ns/instr",
        ),
        Metric::new("race.run_s", layer_s("race.run"), "s"),
        Metric::new("lint.s", layer_s("lint"), "s"),
        Metric::new("mc.s", layer_s("mc"), "s"),
        Metric::new(
            "mc.states_per_s",
            ratio(c.mc_states as f64, layer_s("mc")),
            "1/s",
        ),
        Metric::new("trace.wall_s", traced_wall, "s"),
        Metric::new(
            "trace.overhead_share",
            ratio(overhead, untraced_wall),
            "share",
        ),
        Metric::new("trace.ops_s", summarize(&op_s).median, "s"),
    ];
    for layer in LAYERS {
        let total: f64 = by_pass.iter().filter_map(|m| m.get(layer)).sum();
        out.push(Metric::new(
            format!("{layer}.self_share"),
            ratio(total, total_op_s),
            "share",
        ));
    }
    out.extend(c.metrics());
    for m in &out {
        println!("  {:<40} {} {}", m.name, m.value, m.unit);
    }
    out
}

/// Write the run's spans as a Chrome trace under the benchmark's own
/// directory.
pub fn write_spans(workload: &str, seed: u64, spans: &[Span]) {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    let path = format!("{dir}/{workload}-seed{seed}-spans.json");
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, chrome_json(spans))) {
        Ok(()) => println!("  spans: {} written to {path}", spans.len()),
        Err(e) => eprintln!("perfbench: cannot write {path}: {e}"),
    }
}

/// The result line: correctness, operation counts and every metric with
/// its unit.
pub fn result_json(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            assert!(m.value.is_finite(), "metric {} is not finite", m.name);
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::Counters;

    fn pass(walls: &[f64]) -> Pass {
        Pass {
            times: walls
                .iter()
                .map(|&wall_s| Times {
                    wall_s,
                    ..Times::default()
                })
                .collect(),
            counters: Counters::default(),
            digests: Vec::new(),
            chain: None,
            attempted: walls.len(),
            failed: 0,
            failures: Vec::new(),
            spans: 0..0,
        }
    }

    #[test]
    fn best_sums_each_operations_fastest_pass() {
        // No single pass is fastest at both operations.
        let passes = [pass(&[3.0, 1.0]), pass(&[2.0, 4.0]), pass(&[5.0, 2.0])];
        let t = Timing::of(&passes, |t| t.wall_s);
        assert_eq!(t.best, 3.0);
        assert_eq!((t.passes.median, t.passes.n), (6.0, 3));
        assert!(t
            .to_string()
            .starts_with("best 3.000000; per pass median 6.000000"));
    }
}

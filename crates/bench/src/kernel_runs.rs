//! The kernel speedup grid behind Table 1, Figures 5–8 and 10 and the
//! Ocean contrast.
//!
//! Every kernel figure is the same grid: workload rows (a kernel at some
//! size, as a [`WorkloadSpec`]) × variant columns (the sequential baseline
//! plus one parallel run per [`BarrierMechanism`]). [`sweep_grid`] turns
//! each cell into a [`RunSpec`], runs the cells as independent jobs on a
//! [`SweepRunner`] through [`kernels::run`], and reassembles them in
//! row-major, [`BarrierMechanism::ALL`]-column order no matter which job
//! finishes first. The sweeps that write result documents run their
//! specs through this module's `run_specs`, which keeps each spec with
//! its whole output.

use crate::sweep::SweepRunner;
use barrier_filter::BarrierMechanism;
use kernels::{RunOutput, RunSpec, WorkloadSpec};

/// Sequential baseline plus one parallel measurement per mechanism.
#[derive(Debug, Clone)]
pub struct SpeedupRow {
    /// Workload label.
    pub label: String,
    /// Sequential cycles per repetition.
    pub sequential: f64,
    /// `(mechanism, cycles_per_rep)` in [`BarrierMechanism::ALL`] order.
    pub parallel: Vec<(BarrierMechanism, f64)>,
}

impl SpeedupRow {
    /// Parallel cycles per repetition under `mechanism`.
    pub fn cycles(&self, mechanism: BarrierMechanism) -> f64 {
        let &(_, cycles) = self
            .parallel
            .iter()
            .find(|(m, _)| *m == mechanism)
            .expect("mechanism measured");
        cycles
    }

    /// Speedup of `mechanism` over sequential (>1 is faster).
    pub fn speedup(&self, mechanism: BarrierMechanism) -> f64 {
        self.sequential / self.cycles(mechanism)
    }

    /// The best speedup achieved by a software-only barrier — the quantity
    /// Table 1 reports.
    pub fn best_software_speedup(&self) -> f64 {
        BarrierMechanism::ALL
            .into_iter()
            .filter(|m| m.is_software())
            .map(|m| self.speedup(m))
            .fold(f64::MIN, f64::max)
    }

    /// The best speedup achieved by a filter barrier.
    pub fn best_filter_speedup(&self) -> f64 {
        BarrierMechanism::ALL
            .into_iter()
            .filter(|m| m.is_filter())
            .map(|m| self.speedup(m))
            .fold(f64::MIN, f64::max)
    }
}

/// Run the workload × variant grid on `runner` and fold the outcomes
/// into one [`SpeedupRow`] per `(label, workload)` row: the sequential
/// baseline ([`RunSpec::sequential`]) plus `workload` across `threads`
/// threads under every [`BarrierMechanism::ALL`] member
/// ([`RunSpec::parallel`]). Rows come back in input order with parallel
/// columns in `ALL` order, whatever order the jobs finish in.
///
/// # Errors
///
/// Collects every failed cell (kernel error or captured panic), labelled
/// with its row and variant, into one report; any failure fails the grid.
pub fn sweep_grid(
    runner: &SweepRunner,
    rows: &[(String, WorkloadSpec)],
    threads: usize,
) -> Result<Vec<SpeedupRow>, String> {
    let width = 1 + BarrierMechanism::ALL.len();
    let cells: Vec<RunSpec> = rows
        .iter()
        .flat_map(|&(_, w)| {
            std::iter::once(RunSpec::sequential(w)).chain(
                BarrierMechanism::ALL
                    .into_iter()
                    .map(move |m| RunSpec::parallel(w, threads, m)),
            )
        })
        .collect();
    let outcomes = runner.run_all(&cells, |i, spec| {
        kernels::run(spec)
            .map(|out| out.outcome.cycles_per_rep)
            .map_err(|e| {
                let label = &rows[i / width].0;
                match spec.exec.mechanism {
                    None => format!("{label} sequential: {e}"),
                    Some(m) => format!("{label} {m}: {e}"),
                }
            })
    })?;
    let failures: Vec<String> = outcomes
        .iter()
        .filter_map(|o| o.as_ref().err().cloned())
        .collect();
    if !failures.is_empty() {
        return Err(failures.join("; "));
    }
    let cycles: Vec<f64> = outcomes.into_iter().flatten().collect();
    Ok(rows
        .iter()
        .zip(cycles.chunks(width))
        .map(|((label, _), cells)| SpeedupRow {
            label: label.clone(),
            sequential: cells[0],
            parallel: BarrierMechanism::ALL
                .into_iter()
                .zip(cells[1..].iter().copied())
                .collect(),
        })
        .collect())
}

/// The K=5 Viterbi decoder over `data_bits` bits at 1% symbol noise
/// (what `Viterbi::new(data_bits)` builds).
pub(crate) fn viterbi(data_bits: usize) -> WorkloadSpec {
    WorkloadSpec::Viterbi {
        constraint: 5,
        data_bits,
        noise_per_mille: 10,
    }
}

/// Run every spec on `runner` through [`kernels::run`], returning each
/// spec with its output in input order — the runs a result document
/// records.
///
/// # Errors
///
/// Collects every failed run (kernel error or captured panic), labelled
/// with its spec, into one report; any failure fails the sweep.
pub(crate) fn run_specs(
    runner: &SweepRunner,
    specs: &[RunSpec],
) -> Result<Vec<(RunSpec, RunOutput)>, String> {
    let outputs = runner.run_all(specs, |_, spec| {
        kernels::run(spec).map_err(|e| format!("{}: {e}", spec.canonical_json()))
    })?;
    let mut runs = Vec::with_capacity(specs.len());
    let mut failures = Vec::new();
    for (spec, output) in specs.iter().zip(outputs) {
        match output {
            Ok(out) => runs.push((*spec, out)),
            Err(e) => failures.push(e),
        }
    }
    if failures.is_empty() {
        Ok(runs)
    } else {
        Err(failures.join("; "))
    }
}

/// Render rows as a speedup table (columns: workload, sequential cycles,
/// one speedup per mechanism).
pub fn speedup_table(rows: &[SpeedupRow]) -> String {
    let mut header = vec!["workload".to_string(), "seq cycles".to_string()];
    header.extend(BarrierMechanism::ALL.iter().map(|m| m.to_string()));
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let mut row = vec![r.label.clone(), crate::report::f1(r.sequential)];
            row.extend(
                BarrierMechanism::ALL
                    .iter()
                    .map(|&m| crate::report::f2(r.speedup(m))),
            );
            row
        })
        .collect();
    crate::report::table(&header, &body)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_row() -> SpeedupRow {
        SpeedupRow {
            label: "x".into(),
            sequential: 1000.0,
            parallel: BarrierMechanism::ALL
                .into_iter()
                .map(|m| {
                    let c = match m {
                        BarrierMechanism::SwCentral => 2000.0,
                        BarrierMechanism::SwTree => 800.0,
                        BarrierMechanism::HwDedicated => 200.0,
                        _ => 400.0,
                    };
                    (m, c)
                })
                .collect(),
        }
    }

    #[test]
    fn speedups_and_bests() {
        let r = fake_row();
        assert_eq!(r.speedup(BarrierMechanism::SwCentral), 0.5);
        assert_eq!(r.best_software_speedup(), 1.25);
        assert_eq!(r.best_filter_speedup(), 2.5);
    }

    #[test]
    fn table_renders() {
        let t = speedup_table(&[fake_row()]);
        assert!(t.contains("sw-central"));
        assert!(t.contains("0.50"));
    }

    fn small_rows() -> Vec<(String, WorkloadSpec)> {
        vec![
            ("loop3".to_string(), WorkloadSpec::Loop3 { n: 32 }),
            ("loop1".to_string(), WorkloadSpec::Loop1 { n: 32 }),
        ]
    }

    #[test]
    fn grid_rows_are_identical_across_job_counts() {
        let rows = small_rows();
        let serial = sweep_grid(&SweepRunner::new(1), &rows, 4).expect("serial grid");
        let parallel = sweep_grid(&SweepRunner::new(4), &rows, 4).expect("parallel grid");
        assert_eq!(serial.len(), rows.len());
        for ((s, p), (label, w)) in serial.iter().zip(&parallel).zip(&rows) {
            assert_eq!(&s.label, label);
            assert_eq!(s.label, p.label);
            assert_eq!(s.sequential, p.sequential);
            assert_eq!(s.parallel, p.parallel);
            // Each cell is exactly the run its spec describes: no
            // cross-slot mixup between rows or columns.
            let cycles = |spec: RunSpec| kernels::run(&spec).expect("cell").outcome.cycles_per_rep;
            assert_eq!(s.sequential, cycles(RunSpec::sequential(*w)));
            for (col, &(m, c)) in s.parallel.iter().enumerate() {
                assert_eq!(m, BarrierMechanism::ALL[col], "ALL-order columns");
                assert_eq!(c, cycles(RunSpec::parallel(*w, 4, m)), "{label} {m}");
            }
        }
    }

    #[test]
    fn grid_reports_every_failed_cell() {
        let mut rows = small_rows();
        // Loop 5 is a true recurrence: its baseline runs, but every
        // parallel cell is rejected by spec validation.
        rows.push(("recurrence".to_string(), WorkloadSpec::Loop5 { n: 32 }));
        let err = sweep_grid(&SweepRunner::new(2), &rows, 4)
            .expect_err("the parallel loop5 cells fail the grid");
        for m in BarrierMechanism::ALL {
            assert!(err.contains(&format!("recurrence {m}:")), "{err}");
        }
        assert!(!err.contains("recurrence sequential"), "{err}");
        assert!(!err.contains("loop3"), "{err}");
    }
}

//! The scaling sweep behind `fig_scale`: barrier latency as the machine
//! grows from the paper's 16-core bus to clustered 256- and 1024-core
//! topologies.
//!
//! The paper's evaluation stops at 16 cores on a single shared bus; the
//! hierarchical-topology extension asks how each mechanism behaves when
//! the interconnect is no longer flat. Every point reuses the Figure 4
//! micro-benchmark loop (a clustered `fig4` [`RunSpec`]) — `inner`
//! consecutive barriers repeated `outer` times with no work between
//! them — on the preset machine for that core count:
//!
//! | cores | machine |
//! |---|---|
//! | 16 | flat Table 2 bus (the paper's machine, 1-cluster degenerate) |
//! | 64 | 4 clusters × 16 cores |
//! | 256 | 16 clusters × 16 cores |
//! | 1024 | 16 clusters × 64 cores |
//!
//! Mechanism coverage pairs the flat baselines (centralized LL/SC,
//! combining tree, dedicated wires) with the two hierarchical variants
//! (`sw-hier`, `filter-d-hier`) whose tree-combining shape is the point
//! of the sweep. The flat `filter-d` barrier rides along at 16 cores
//! where its single-bank table still fits; beyond that its per-thread
//! lines outgrow a cluster bank granule and the hierarchical variant is
//! its successor.
//!
//! Barrier repetitions shrink as the machine grows (512 barriers at 16
//! cores down to 8 at 1024) so the full sweep stays tractable while each
//! point still averages over enough episodes to be stable — the engine
//! is deterministic, so repetitions smooth pipeline warm-up, not noise.

use crate::kernel_runs::run_specs;
use crate::sweep::SweepRunner;
use barrier_filter::BarrierMechanism;
use cmp_sim::SimConfig;
use kernels::{RunOutput, RunSpec};

/// Core counts of the full sweep, smallest first.
pub const SCALE_CORE_COUNTS: [usize; 4] = [16, 64, 256, 1024];

/// Cluster count of the preset machine for `cores` cores (the
/// [`RunSpec::clustered`] argument): 1 keeps the paper's flat bus,
/// anything larger selects the hierarchical interconnect.
pub fn scale_clusters(cores: usize) -> usize {
    match cores {
        c if c <= 16 => 1,
        64 => 4,
        _ => 16,
    }
}

/// The preset machine for `cores` cores: the paper's flat bus at 16,
/// hierarchical clusters beyond (see the module table). Identical to
/// what a [`RunSpec`] with [`scale_clusters`] clusters builds.
pub fn scale_config(cores: usize) -> SimConfig {
    SimConfig::clustered(cores, scale_clusters(cores))
}

/// Mechanisms measured at `cores` cores. Always includes the flat
/// baselines and both hierarchical variants; the single-bank `filter-d`
/// joins only while its per-thread table fits one flat bank.
pub fn scale_mechanisms(cores: usize) -> Vec<BarrierMechanism> {
    let mut mechanisms = vec![
        BarrierMechanism::SwCentral,
        BarrierMechanism::SwTree,
        BarrierMechanism::HwDedicated,
        BarrierMechanism::SwHier,
        BarrierMechanism::FilterDHier,
    ];
    if cores <= 16 {
        mechanisms.insert(2, BarrierMechanism::FilterD);
    }
    mechanisms
}

/// Barrier repetitions `(inner, outer)` for a point at `cores` cores.
/// The centralized LL/SC barrier's episode cost grows quadratically with
/// contenders (every arrival re-fights for one line), so at 1024 cores it
/// gets the minimum loop that still demonstrates the blowup — one
/// sw-central barrier at 1024 cores simulates ~4M cycles of bus fights.
pub fn scale_reps(cores: usize, mechanism: BarrierMechanism, quick: bool) -> (u64, u64) {
    if quick {
        return (8, 2);
    }
    match cores {
        c if c <= 16 => (64, 8),
        64 => (32, 4),
        256 => (16, 2),
        _ if mechanism == BarrierMechanism::SwCentral => (2, 1),
        _ => (4, 2),
    }
}

/// The sweep grid as `(cores, mechanism)` pairs, in report order.
/// `quick` restricts to the CI smoke: the 64-core clustered machine
/// under the centralized baseline and one hierarchical variant.
pub fn scale_grid(quick: bool) -> Vec<(usize, BarrierMechanism)> {
    if quick {
        return vec![
            (64, BarrierMechanism::SwCentral),
            (64, BarrierMechanism::SwHier),
        ];
    }
    SCALE_CORE_COUNTS
        .into_iter()
        .flat_map(|cores| {
            scale_mechanisms(cores)
                .into_iter()
                .map(move |mechanism| (cores, mechanism))
        })
        .collect()
}

/// Run the scaling sweep on `runner` (`quick` selects the smoke grid
/// and its short loops), returning each point's spec and output in grid
/// order.
///
/// # Errors
///
/// Reports every point that failed to run.
pub fn run_scale(runner: &SweepRunner, quick: bool) -> Result<Vec<(RunSpec, RunOutput)>, String> {
    let specs: Vec<RunSpec> = scale_grid(quick)
        .into_iter()
        .map(|(cores, mechanism)| {
            let (inner, outer) = scale_reps(cores, mechanism, quick);
            RunSpec::fig4(mechanism, cores, inner, outer).clustered(scale_clusters(cores))
        })
        .collect();
    run_specs(runner, &specs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_grid_covers_every_core_count_with_a_hierarchical_variant() {
        let grid = scale_grid(false);
        for cores in SCALE_CORE_COUNTS {
            let at: Vec<_> = grid.iter().filter(|(c, _)| *c == cores).collect();
            assert!(at.len() >= 4, "{cores} cores: need >= 4 mechanisms");
            assert!(
                at.iter().any(|(_, m)| m.is_hierarchical()),
                "{cores} cores: need a tree-combining variant"
            );
        }
        assert!(
            grid.iter()
                .any(|&(c, m)| c == 16 && m == BarrierMechanism::FilterD),
            "the paper's filter-d baseline rides along at 16 cores"
        );
    }

    #[test]
    fn quick_grid_is_the_64_core_smoke() {
        let grid = scale_grid(true);
        assert_eq!(grid.len(), 2);
        assert!(grid.iter().all(|&(c, _)| c == 64));
        assert!(grid.iter().any(|(_, m)| m.is_hierarchical()));
    }

    #[test]
    fn the_16_core_preset_is_the_paper_machine() {
        let config = scale_config(16);
        assert_eq!(config.topology.clusters, 1, "16 cores stay flat");
        assert_eq!(config, SimConfig::with_cores(16));
        assert_eq!(scale_config(256).topology.clusters, 16);
        assert_eq!(scale_config(1024).cores_per_cluster(), 64);
    }
}

//! Whole-machine statistics snapshots.

use crate::bus::ResourceStats;
use crate::cache::CacheStats;
use crate::coherence::DirectoryStats;
use crate::core::CoreStats;
use crate::hwnet::HwNetStats;
use crate::trace::EpisodeStats;

/// Result of a completed simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunSummary {
    /// Simulation clock at the end of the run: the cycle the last core
    /// halted, or [`Machine::now()`](crate::Machine::now) if later.
    /// Monotone with the clock — trailing events and quiescent-advance
    /// pauses that push `now` past the last halt (fault-driven runs do
    /// this) are carried forward, never rolled back; the regression tests
    /// in `bench/tests/chaos.rs` hold this line.
    pub cycles: u64,
    /// Total instructions retired across all cores.
    pub instructions: u64,
}

impl RunSummary {
    /// Aggregate instructions-per-cycle across the whole machine.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }
}

/// The simulated-outcome record shared by every measurement layer in the
/// workspace: every kernel harness outcome (and so every result-document
/// record) embeds one `Measurement`, so "what the simulation did" has a
/// single shape everywhere.
///
/// The digest is the determinism fingerprint
/// ([`MachineStats::digest`]); `episodes` carries the per-barrier-episode
/// decomposition including the §3.3.3 recovery counters (cancellations,
/// re-parks, resumes after release).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Measurement {
    /// Total simulated cycles.
    pub cycles: u64,
    /// Total simulated instructions retired.
    pub instructions: u64,
    /// [`MachineStats::digest`] fingerprint of the run.
    pub stats_digest: u64,
    /// Per-barrier-episode metrics of the run.
    pub episodes: EpisodeStats,
}

impl Measurement {
    /// Snapshot a finished run: the summary's totals plus the stats digest
    /// and episode decomposition.
    pub fn new(summary: &RunSummary, stats: &MachineStats) -> Measurement {
        Measurement {
            cycles: summary.cycles,
            instructions: summary.instructions,
            stats_digest: stats.digest(),
            episodes: stats.episodes,
        }
    }

    /// Aggregate instructions-per-cycle of the run.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }
}

/// Point-in-time snapshot of every counter in the machine.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineStats {
    /// Current simulation cycle.
    pub cycles: u64,
    /// Per-core retirement counters.
    pub cores: Vec<CoreStats>,
    /// Per-core L1 data cache counters.
    pub l1d: Vec<CacheStats>,
    /// Per-core L1 instruction cache counters.
    pub l1i: Vec<CacheStats>,
    /// Per-bank L2 counters.
    pub l2: Vec<CacheStats>,
    /// L3 counters.
    pub l3: CacheStats,
    /// Address/command network utilization.
    pub addr_bus: ResourceStats,
    /// Data network utilization.
    pub data_bus: ResourceStats,
    /// Per-bank hook-port utilization.
    pub hook_ports: Vec<ResourceStats>,
    /// Coherence directory counters.
    pub directory: DirectoryStats,
    /// Dedicated barrier network counters.
    pub hw_network: HwNetStats,
    /// Per-barrier-episode metrics (always collected). Deliberately *not*
    /// part of [`MachineStats::digest`], so the observability layer can
    /// grow without invalidating historical digests.
    pub episodes: EpisodeStats,
}

impl MachineStats {
    /// Total instructions retired across cores.
    pub fn instructions(&self) -> u64 {
        self.cores.iter().map(|c| c.instructions).sum()
    }

    /// Order-sensitive FNV-1a fingerprint over every counter in the
    /// snapshot. Two runs of the same machine must produce equal digests —
    /// this is the determinism contract the engine's event ordering
    /// guarantees, and what `fastbar throughput --check` pins across
    /// simulator optimizations (an optimization must not change *any*
    /// simulated behaviour, only host time).
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        h.u64(self.cycles);
        for c in &self.cores {
            h.u64(c.instructions);
            h.u64(c.loads);
            h.u64(c.stores);
            h.u64(c.invalidates);
            h.u64(c.fills_parked);
            h.u64(c.halt_cycle.map_or(u64::MAX, |v| v));
            h.u64(c.mshr_peak as u64);
        }
        for group in [&self.l1d, &self.l1i, &self.l2] {
            for c in group.iter() {
                h.cache(c);
            }
        }
        h.cache(&self.l3);
        for r in [&self.addr_bus, &self.data_bus]
            .into_iter()
            .chain(self.hook_ports.iter())
        {
            h.u64(r.grants);
            h.u64(r.busy_cycles);
            h.u64(r.wait_cycles);
        }
        h.u64(self.directory.upgrade_invalidations);
        h.u64(self.directory.copies_invalidated);
        h.u64(self.directory.dirty_transfers);
        h.u64(self.hw_network.arrivals);
        h.u64(self.hw_network.episodes);
        // NOTE: `self.episodes` and `CoreStats::fills_released` are
        // intentionally excluded — the digest fingerprints simulated
        // behaviour established before the observability layer existed,
        // and adding fields would break every recorded digest.
        h.0
    }

    /// Total L1D misses across cores.
    pub fn l1d_misses(&self) -> u64 {
        self.l1d.iter().map(|c| c.misses).sum()
    }

    /// Total fills parked at bank hooks (barrier filter starvations).
    pub fn fills_parked(&self) -> u64 {
        self.cores.iter().map(|c| c.fills_parked).sum()
    }
}

/// 64-bit FNV-1a accumulator for [`MachineStats::digest`].
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    fn cache(&mut self, c: &CacheStats) {
        self.u64(c.hits);
        self.u64(c.misses);
        self.u64(c.evictions);
        self.u64(c.dirty_evictions);
        self.u64(c.invalidations);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_handles_zero_cycles() {
        let s = RunSummary {
            cycles: 0,
            instructions: 0,
        };
        assert_eq!(s.ipc(), 0.0);
        let s = RunSummary {
            cycles: 100,
            instructions: 50,
        };
        assert_eq!(s.ipc(), 0.5);
    }
}

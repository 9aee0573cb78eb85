//! Whole-machine statistics snapshots.

use crate::bus::ResourceStats;
use crate::cache::CacheStats;
use crate::coherence::DirectoryStats;
use crate::core::CoreStats;
use crate::hwnet::HwNetStats;
use crate::json::fnv64;
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
        let mut words = vec![self.cycles];
        for c in &self.cores {
            words.extend([
                c.instructions,
                c.loads,
                c.stores,
                c.invalidates,
                c.fills_parked,
                c.halt_cycle.map_or(u64::MAX, |v| v),
                c.mshr_peak as u64,
            ]);
        }
        for c in self.l1d.iter().chain(&self.l1i).chain(&self.l2) {
            words.extend(cache_words(c));
        }
        words.extend(cache_words(&self.l3));
        for r in [&self.addr_bus, &self.data_bus]
            .into_iter()
            .chain(self.hook_ports.iter())
        {
            words.extend([r.grants, r.busy_cycles, r.wait_cycles]);
        }
        words.extend([
            self.directory.upgrade_invalidations,
            self.directory.copies_invalidated,
            self.directory.dirty_transfers,
            self.hw_network.arrivals,
            self.hw_network.episodes,
        ]);
        // NOTE: `self.episodes` is intentionally excluded — the digest
        // fingerprints simulated behaviour established before the
        // observability layer existed, and adding fields would break every
        // recorded digest.
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        fnv64(&bytes)
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

/// The digest-covered counters of one cache, in digest order.
fn cache_words(c: &CacheStats) -> [u64; 5] {
    [
        c.hits,
        c.misses,
        c.evictions,
        c.dirty_evictions,
        c.invalidations,
    ]
}

/// Decode-cache counters. Always zero: the engine has no decode cache.
/// Kept only so that the repository benchmark (`perfbench/`), which reads
/// [`Machine::decode_stats`](crate::Machine::decode_stats), builds.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DecodeCacheStats {
    /// Always zero.
    pub hits: u64,
    /// Always zero.
    pub builds: u64,
    /// Always zero.
    pub invalidations: u64,
}

/// Fused-memory-executor counters. Always zero: the engine has no fused
/// executor. Kept only so that the repository benchmark (`perfbench/`),
/// which reads [`Machine::fused_stats`](crate::Machine::fused_stats),
/// builds.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FusedMemStats {
    /// Always zero.
    pub loads: u64,
    /// Always zero.
    pub stores: u64,
    /// Always zero.
    pub memo_hits: u64,
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

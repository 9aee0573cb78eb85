//! Machine configuration. Defaults reproduce Table 2 of the paper.

/// Geometry and latency of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity.
    pub ways: u32,
    /// Access latency in cycles (tag + data).
    pub latency: u64,
}

impl CacheConfig {
    /// Number of 64-byte lines this cache holds.
    pub fn lines(&self) -> u64 {
        self.size_bytes / sim_isa::LINE_BYTES
    }

    /// Number of sets (lines / ways).
    pub fn sets(&self) -> u64 {
        (self.lines() / self.ways as u64).max(1)
    }
}

/// Shared-bus model parameters.
///
/// A single address/command + data bus connects all private L1 caches to the
/// shared L2 banks; it is the resource whose saturation bends the Figure 4
/// curves beyond 16 cores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusConfig {
    /// Cycles of bus occupancy for a command (request, invalidation, ack).
    pub cmd_cycles: u64,
    /// Cycles of bus occupancy to move one 64-byte line.
    pub data_cycles: u64,
}

/// Per-class instruction latencies for the in-order core timing model.
///
/// The paper simulated 4-wide out-of-order cores (Table 2). Reproducing a
/// full out-of-order pipeline is out of scope (see DESIGN.md §1); these
/// latencies are chosen so that scalar loop bodies retire at roughly the
/// IPC an out-of-order core would sustain on them, keeping the ratio of
/// compute time to barrier time — which is what the paper's crossover plots
/// measure — in the same regime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreTiming {
    /// Simple integer ALU op.
    pub int_op: u64,
    /// Integer multiply.
    pub mul: u64,
    /// Integer divide / remainder.
    pub div: u64,
    /// FP add/sub/mul/fma/compare/convert.
    pub fp_op: u64,
    /// FP divide.
    pub fp_div: u64,
    /// Not-taken branch (taken adds `branch_taken_penalty`).
    pub branch: u64,
    /// Extra cycles for a taken branch or jump.
    pub branch_taken_penalty: u64,
    /// Base cost of a load that hits in the L1 (Table 2: 1 cycle).
    pub load: u64,
    /// Cost to place a store into the store buffer.
    pub store_issue: u64,
    /// Base cost of `sync` once the store buffer has drained.
    pub fence: u64,
    /// Cost of `isync` (pipeline + prefetch discard).
    pub isync: u64,
    /// Issue cost of `icbi`/`dcbi` before bus arbitration.
    pub invalidate_issue: u64,
    /// Superscalar issue width approximation. The paper's cores are 4-wide
    /// fetch / 3-issue out-of-order (Table 2); a full out-of-order pipeline
    /// is out of scope, so simple ALU/FP instructions retire at up to
    /// `issue_width` per cycle (fractional-cycle accounting), and cache-hit
    /// memory operations at up to [`mem_ports`](CoreTiming::mem_ports) per
    /// cycle. Branches, misses, fences and cache-management instructions
    /// pay their full latency.
    pub issue_width: u64,
    /// Cache-hit loads/stores retired per cycle (load/store ports).
    pub mem_ports: u64,
}

impl Default for CoreTiming {
    fn default() -> CoreTiming {
        CoreTiming {
            int_op: 1,
            mul: 3,
            div: 20,
            fp_op: 2,
            fp_div: 20,
            branch: 1,
            // The modeled cores stand in for out-of-order cores with branch
            // prediction: taken branches carry no extra penalty by default.
            branch_taken_penalty: 0,
            load: 1,
            store_issue: 1,
            fence: 3,
            isync: 5,
            invalidate_issue: 1,
            issue_width: 3,
            mem_ports: 2,
        }
    }
}

/// Per-hop latencies of the hierarchical interconnect.
///
/// Every transaction pays one `intra_tile` hop at its core-side endpoint
/// and one `intra_cluster` hop per cluster bus it crosses; a transaction
/// that leaves its cluster additionally pays `cross_cluster` on the way to
/// the global segment and again on the way back down. The flat Table-2
/// machine is the degenerate case where every hop is zero, which makes
/// the hierarchical cost formulas collapse to the original single-bus
/// arithmetic bit-for-bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HopLatency {
    /// Core ↔ tile junction latency (cycles).
    pub intra_tile: u64,
    /// Tile junction ↔ cluster bus/bank latency (cycles).
    pub intra_cluster: u64,
    /// Cluster ↔ global segment latency (cycles, each direction).
    pub cross_cluster: u64,
}

impl HopLatency {
    /// All hops free — the flat shared-bus machine.
    pub const fn flat() -> HopLatency {
        HopLatency {
            intra_tile: 0,
            intra_cluster: 0,
            cross_cluster: 0,
        }
    }
}

/// Hierarchical machine topology: cores are grouped into clusters. Each
/// cluster owns a slice of the L2 banks (round-robin: bank `b` belongs to
/// cluster `b % clusters`) and a local address/data bus pair; clusters
/// communicate over a shared global segment. Every transaction pays one
/// [`HopLatency::intra_tile`] hop at its core-side endpoint.
///
/// Core `c` belongs to cluster `c / (num_cores / clusters)` — cores are
/// numbered cluster-contiguously, so barrier code can derive a thread's
/// cluster with a single shift when cores-per-cluster is a power of two.
///
/// [`Topology::flat`] (one cluster, zero hop latencies) is the
/// degenerate case that reproduces the paper's flat Table-2 machine
/// exactly: the pinned stats digests are bit-identical through this path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Topology {
    /// Number of clusters (1 = the flat machine).
    pub clusters: usize,
    /// Per-hop interconnect latencies.
    pub hop: HopLatency,
}

impl Topology {
    /// The degenerate single-cluster topology of the flat Table-2 machine.
    pub const fn flat() -> Topology {
        Topology {
            clusters: 1,
            hop: HopLatency::flat(),
        }
    }
}

impl Default for Topology {
    fn default() -> Topology {
        Topology::flat()
    }
}

/// Hard ceiling on `num_cores` (directory sharer sets and the scale sweep
/// are sized for this).
pub const MAX_CORES: usize = 1024;

/// Dedicated barrier-network model (the aggressive Beckmann &
/// Polychronopoulos baseline of §4): wire latency to and from the global
/// combining logic, and the cost of checking/resetting the local status
/// register on release.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HwBarrierConfig {
    /// Cycles from a core to the global logic ("two cycle latency to and
    /// from the global logic").
    pub wire_to: u64,
    /// Cycles from the global logic back to a core.
    pub wire_from: u64,
    /// Cost of checking and resetting the local status register.
    pub local_check: u64,
}

impl Default for HwBarrierConfig {
    fn default() -> HwBarrierConfig {
        HwBarrierConfig {
            wire_to: 2,
            wire_from: 2,
            local_check: 1,
        }
    }
}

/// Full machine configuration.
///
/// [`SimConfig::default`] reproduces Table 2 of the paper for a 16-core CMP:
/// 64 KB 2-way 1-cycle private L1 I/D caches, a 512 KB 2-way 14-cycle shared
/// banked L2, a 4 MB 2-way 38-cycle shared L3, 138-cycle memory, and a
/// filter/hook port that accepts one request per cycle.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Number of cores; the paper runs one thread per core.
    pub num_cores: usize,
    /// Private L1 data cache (per core).
    pub l1d: CacheConfig,
    /// Private L1 instruction cache (per core).
    pub l1i: CacheConfig,
    /// Shared unified L2 (total across banks).
    pub l2: CacheConfig,
    /// Number of L2 banks.
    pub l2_banks: usize,
    /// log2 of the bank-interleave granule in bytes. Lines within one
    /// granule map to the same bank, which is how the OS guarantees all of
    /// a barrier's arrival/exit lines reach the same filter (§3.3.2).
    pub bank_granule_log2: u32,
    /// Shared unified L3.
    pub l3: CacheConfig,
    /// Main-memory access latency in cycles.
    pub mem_latency: u64,
    /// Shared bus parameters.
    pub bus: BusConfig,
    /// Requests per cycle accepted by an L2 bank hook (Table 2: "Filter —
    /// 1 request per cycle"). Expressed as cycles per request.
    pub hook_cycles_per_request: u64,
    /// Cycles an S→M upgrade holds a line's coherence-serialization point
    /// (full ownership transfers hold it for the L2 latency instead). This
    /// is what a contended read-modify-write line costs per writer.
    pub upgrade_busy: u64,
    /// Miss-status holding registers per core (§3.2.1).
    pub mshrs_per_core: usize,
    /// Store-buffer entries per core.
    pub store_buffer_entries: usize,
    /// Instruction timing classes.
    pub timing: CoreTiming,
    /// Dedicated barrier network timing (baseline mechanism).
    pub hw_barrier: HwBarrierConfig,
    /// Abort the simulation if it exceeds this many cycles (deadlock guard
    /// for tests and the harness).
    pub cycle_limit: u64,
    /// Run the reference engine instead of the production one. Both
    /// engines execute every instruction through the same interpreter; the
    /// production engine also lets a core retire up to 64 consecutive
    /// instructions in place while every queued event lies strictly later
    /// (core-step bursts, see `Machine::run_until`). The reference engine
    /// turns bursts off: every instruction round-trips the event queue.
    /// The pinned digests were minted on the reference path, and the two
    /// engines must agree on every simulated number — this switch exists
    /// only so tests can hold the production engine to that.
    /// [`Machine::burst_retired`](crate::Machine::burst_retired) stays zero
    /// on it.
    pub reference_engine: bool,
    /// Hierarchical cluster topology. The default ([`Topology::flat`])
    /// reproduces the paper's flat shared-bus machine bit-identically.
    pub topology: Topology,
}

impl SimConfig {
    /// Table 2 configuration with `num_cores` cores.
    pub fn with_cores(num_cores: usize) -> SimConfig {
        SimConfig {
            num_cores,
            ..SimConfig::default()
        }
    }

    /// A clustered many-core preset scaled from the Table-2 baseline:
    /// `clusters` clusters of `num_cores / clusters` cores, L2/L3 capacity
    /// scaled with the core count, one bank-interleave granule per
    /// cluster-slice of filter lines (`cores_per_cluster * 64` bytes), and
    /// non-zero hop latencies (tile 1, cluster 2, cross-cluster 8).
    /// `clusters == 1` returns the flat Table-2 config unchanged.
    ///
    /// # Panics
    ///
    /// Panics if the resulting config does not validate (caller supplied a
    /// non-power-of-two split); use [`SimConfig::validate`] on hand-built
    /// configs instead.
    pub fn clustered(num_cores: usize, clusters: usize) -> SimConfig {
        if clusters <= 1 {
            return SimConfig::with_cores(num_cores);
        }
        let cpc = num_cores / clusters.max(1);
        let scale = (num_cores / 16).max(1) as u64;
        let mut c = SimConfig::with_cores(num_cores);
        c.topology = Topology {
            clusters,
            hop: HopLatency {
                intra_tile: 1,
                intra_cluster: 2,
                cross_cluster: 8,
            },
        };
        c.l2.size_bytes *= scale;
        c.l3.size_bytes *= scale;
        // One granule = one cluster-slice of line-per-thread filter lines,
        // so a contiguous arrival range stripes cluster k's slice into a
        // cluster-k bank (banks are round-robin across clusters).
        c.bank_granule_log2 = (cpc as u64 * sim_isa::LINE_BYTES).trailing_zeros();
        c.l2_banks = if clusters * 4 <= 64 {
            clusters * 4
        } else {
            clusters
        };
        if let Err(e) = c.validate() {
            panic!("SimConfig::clustered({num_cores}, {clusters}): {e}");
        }
        c
    }

    /// The L2 bank index servicing `addr`.
    pub fn bank_of(&self, addr: u64) -> usize {
        ((addr >> self.bank_granule_log2) % self.l2_banks as u64) as usize
    }

    /// Size in bytes of one bank-interleave granule.
    pub fn bank_granule(&self) -> u64 {
        1 << self.bank_granule_log2
    }

    /// Cores in each cluster.
    pub fn cores_per_cluster(&self) -> usize {
        self.num_cores / self.topology.clusters.max(1)
    }

    /// The cluster that owns core `core` (cores are numbered
    /// cluster-contiguously).
    pub fn cluster_of_core(&self, core: usize) -> usize {
        core / self.cores_per_cluster().max(1)
    }

    /// The cluster that owns L2 bank `bank` (round-robin interleave).
    pub fn cluster_of_bank(&self, bank: usize) -> usize {
        bank % self.topology.clusters.max(1)
    }

    /// Validate internal consistency (power-of-two geometries, nonzero
    /// sizes, topology divisibility).
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.num_cores == 0 {
            return Err("num_cores must be nonzero".into());
        }
        if self.num_cores > MAX_CORES {
            return Err(format!(
                "topology supports at most {MAX_CORES} cores (got {})",
                self.num_cores
            ));
        }
        let t = &self.topology;
        if t.clusters == 0 {
            return Err("topology: clusters must be nonzero".into());
        }
        if !self.num_cores.is_multiple_of(t.clusters) {
            return Err(format!(
                "topology: clusters ({}) must divide num_cores ({})",
                t.clusters, self.num_cores
            ));
        }
        let cpc = self.num_cores / t.clusters;
        if t.clusters > 1 && !(t.clusters.is_power_of_two() && cpc.is_power_of_two()) {
            return Err(format!(
                "topology: clusters ({}) and cores per cluster ({cpc}) must be \
                 powers of two so barrier code can derive a thread's cluster \
                 with a shift",
                t.clusters
            ));
        }
        if self.l2_banks == 0 || !self.l2_banks.is_power_of_two() {
            return Err("l2_banks must be a nonzero power of two".into());
        }
        if !self.l2_banks.is_multiple_of(t.clusters) {
            return Err(format!(
                "topology: l2_banks ({}) must be a multiple of clusters ({}) \
                 so every cluster owns the same number of banks",
                self.l2_banks, t.clusters
            ));
        }
        for (name, c) in [
            ("l1d", &self.l1d),
            ("l1i", &self.l1i),
            ("l2", &self.l2),
            ("l3", &self.l3),
        ] {
            if c.size_bytes == 0 || c.ways == 0 {
                return Err(format!("{name}: zero size or associativity"));
            }
            if c.lines() % c.ways as u64 != 0 || !c.sets().is_power_of_two() {
                return Err(format!("{name}: sets must be a power of two"));
            }
        }
        if self.bank_granule() < sim_isa::LINE_BYTES {
            return Err("bank granule smaller than a cache line".into());
        }
        if self.mshrs_per_core < 2 {
            return Err("need at least 2 MSHRs per core (load + store drain)".into());
        }
        if self.store_buffer_entries == 0 {
            return Err("store buffer must have at least one entry".into());
        }
        Ok(())
    }
}

impl Default for SimConfig {
    fn default() -> SimConfig {
        SimConfig {
            num_cores: 16,
            l1d: CacheConfig {
                size_bytes: 64 * 1024,
                ways: 2,
                latency: 1,
            },
            l1i: CacheConfig {
                size_bytes: 64 * 1024,
                ways: 2,
                latency: 1,
            },
            l2: CacheConfig {
                size_bytes: 512 * 1024,
                ways: 2,
                latency: 14,
            },
            l2_banks: 4,
            bank_granule_log2: 14,
            l3: CacheConfig {
                size_bytes: 4096 * 1024,
                ways: 2,
                latency: 38,
            },
            mem_latency: 138,
            bus: BusConfig {
                cmd_cycles: 1,
                data_cycles: 2,
            },
            hook_cycles_per_request: 1,
            upgrade_busy: 6,
            mshrs_per_core: 8,
            store_buffer_entries: 8,
            timing: CoreTiming::default(),
            hw_barrier: HwBarrierConfig::default(),
            cycle_limit: u64::MAX,
            reference_engine: false,
            topology: Topology::flat(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table2() {
        let c = SimConfig::default();
        assert_eq!(c.num_cores, 16);
        assert_eq!(c.l1d.size_bytes, 64 * 1024);
        assert_eq!(c.l1d.ways, 2);
        assert_eq!(c.l1d.latency, 1);
        assert_eq!(c.l1i.size_bytes, 64 * 1024);
        assert_eq!(c.l2.size_bytes, 512 * 1024);
        assert_eq!(c.l2.latency, 14);
        assert_eq!(c.l3.size_bytes, 4096 * 1024);
        assert_eq!(c.l3.latency, 38);
        assert_eq!(c.mem_latency, 138);
        assert_eq!(c.hook_cycles_per_request, 1);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn bank_mapping_keeps_granule_together() {
        let c = SimConfig::default();
        let base = 0x2000_0000;
        let granule = c.bank_granule();
        let b0 = c.bank_of(base);
        // every line inside the same granule maps to the same bank
        for off in (0..granule).step_by(64) {
            assert_eq!(c.bank_of(base + off), b0);
        }
        // the next granule maps to a different bank (4 banks)
        assert_ne!(c.bank_of(base + granule), b0);
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let c = SimConfig {
            num_cores: 0,
            ..SimConfig::default()
        };
        assert!(c.validate().is_err());

        let c = SimConfig {
            l2_banks: 3,
            ..SimConfig::default()
        };
        assert!(c.validate().is_err());

        let mut c = SimConfig::default();
        c.l1d.size_bytes = 48 * 1024; // 768 lines / 2 ways = 384 sets: not a power of two
        assert!(c.validate().is_err());

        let c = SimConfig {
            mshrs_per_core: 1,
            ..SimConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn core_counts_beyond_64_are_legal_up_to_the_topology_ceiling() {
        // The old directory bitmask hard-rejected > 64 cores; the widened
        // directory lifts that to the documented topology ceiling.
        assert!(SimConfig::with_cores(65).validate().is_ok());
        assert!(SimConfig::with_cores(MAX_CORES).validate().is_ok());
        let err = SimConfig::with_cores(MAX_CORES + 1).validate().unwrap_err();
        assert!(err.contains("at most 1024 cores"), "{err}");
    }

    #[test]
    fn topology_validation_messages() {
        let mut c = SimConfig::with_cores(64);
        c.topology.clusters = 0;
        assert!(c.validate().unwrap_err().contains("nonzero"));

        let mut c = SimConfig::with_cores(60);
        c.topology.clusters = 8;
        let err = c.validate().unwrap_err();
        assert!(err.contains("must divide num_cores"), "{err}");

        let mut c = SimConfig::with_cores(96);
        c.topology.clusters = 4; // cores per cluster = 24: not a power of two
        let err = c.validate().unwrap_err();
        assert!(err.contains("powers of two"), "{err}");

        let mut c = SimConfig::with_cores(64);
        c.topology.clusters = 8; // default 4 banks: not a multiple of 8
        let err = c.validate().unwrap_err();
        assert!(err.contains("multiple of clusters"), "{err}");
    }

    #[test]
    fn clustered_presets_validate_and_flat_is_degenerate() {
        assert_eq!(SimConfig::clustered(16, 1), SimConfig::with_cores(16));
        for (cores, clusters) in [(64, 4), (256, 16), (1024, 16)] {
            let c = SimConfig::clustered(cores, clusters);
            assert!(c.validate().is_ok(), "{cores}x{clusters}");
            assert_eq!(c.cores_per_cluster(), cores / clusters);
            assert_eq!(c.bank_granule(), (cores / clusters) as u64 * 64);
            assert_eq!(c.l2_banks % clusters, 0);
            // cluster k's slice of a bank-aligned granule run homes in a
            // cluster-k bank (the contiguous-arrival-range invariant).
            for k in 0..clusters {
                let bank = (c.bank_of(0x2000_0000) + k) % c.l2_banks;
                assert_eq!(c.cluster_of_bank(bank), k % clusters);
            }
        }
    }

    #[test]
    fn core_to_cluster_mapping_is_contiguous() {
        let c = SimConfig::clustered(64, 4);
        assert_eq!(c.cluster_of_core(0), 0);
        assert_eq!(c.cluster_of_core(15), 0);
        assert_eq!(c.cluster_of_core(16), 1);
        assert_eq!(c.cluster_of_core(63), 3);
    }

    #[test]
    fn cache_geometry() {
        let c = CacheConfig {
            size_bytes: 64 * 1024,
            ways: 2,
            latency: 1,
        };
        assert_eq!(c.lines(), 1024);
        assert_eq!(c.sets(), 512);
    }
}

//! Exact work counters of one pass over a workload, and the per-layer
//! metrics derived from them.
//!
//! Every counter is a deterministic function of the set of operations a
//! pass runs, whatever their order, so two passes (or two commits with
//! the same simulated behaviour) must agree on every field.

use barrier_filter::BarrierMechanism;
use cmp_sim::{DecodeCacheStats, EpisodeStats, FusedMemStats, MachineStats, Measurement};

use crate::sink::{EventCounts, KINDS};

/// Barrier classes of simulated instructions, in the order of
/// [`Counters::class_instructions`].
pub const CLASSES: [&str; 4] = ["software_spin", "filter", "dedicated", "sequential"];

fn class(mechanism: Option<BarrierMechanism>) -> usize {
    match mechanism {
        Some(m) if m.is_software() => 0,
        Some(m) if m.is_filter() => 1,
        Some(_) => 2,
        None => 3,
    }
}

/// Counters read from `Machine::stats()` and `Machine::burst_retired()`,
/// which exist only for machines the benchmark builds itself.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MachineCounters {
    /// Instructions retired by these machines.
    pub instructions: u64,
    /// Instructions retired through the core-step burst fast path.
    pub burst_retired: u64,
    /// L1 data cache hits.
    pub l1d_hits: u64,
    /// L1 data cache misses.
    pub l1d_misses: u64,
    /// L1 instruction cache misses.
    pub l1i_misses: u64,
    /// L2 misses, over all banks.
    pub l2_misses: u64,
    /// Loads retired.
    pub loads: u64,
    /// Stores retired.
    pub stores: u64,
    /// Shared copies the directory invalidated.
    pub copies_invalidated: u64,
    /// Dirty cache-to-cache transfers.
    pub dirty_transfers: u64,
    /// Address-network grants.
    pub addr_grants: u64,
    /// Simulated cycles requests waited for the address network.
    pub addr_wait: u64,
    /// Data-network grants.
    pub data_grants: u64,
    /// Simulated cycles requests waited for the data network.
    pub data_wait: u64,
    /// Bank-hook port grants.
    pub hook_grants: u64,
}

impl MachineCounters {
    /// Add one finished machine's counters.
    pub fn add(&mut self, s: &MachineStats, burst_retired: u64) {
        self.instructions += s.instructions();
        self.burst_retired += burst_retired;
        self.l1d_hits += s.l1d.iter().map(|c| c.hits).sum::<u64>();
        self.l1d_misses += s.l1d_misses();
        self.l1i_misses += s.l1i.iter().map(|c| c.misses).sum::<u64>();
        self.l2_misses += s.l2.iter().map(|c| c.misses).sum::<u64>();
        self.loads += s.cores.iter().map(|c| c.loads).sum::<u64>();
        self.stores += s.cores.iter().map(|c| c.stores).sum::<u64>();
        self.copies_invalidated += s.directory.copies_invalidated;
        self.dirty_transfers += s.directory.dirty_transfers;
        self.addr_grants += s.addr_bus.grants;
        self.addr_wait += s.addr_bus.wait_cycles;
        self.data_grants += s.data_bus.grants;
        self.data_wait += s.data_bus.wait_cycles;
        self.hook_grants += s.hook_ports.iter().map(|r| r.grants).sum::<u64>();
    }
}

/// Exact counters of one pass.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Counters {
    /// Simulated cycles, summed over the operations.
    pub cycles: u64,
    /// Simulated instructions, summed over the operations.
    pub instructions: u64,
    /// Instructions by barrier class, indexed like [`CLASSES`].
    pub class_instructions: [u64; 4],
    /// Instructions of the operations run through a kernel's `run_with`.
    pub kernel_instructions: u64,
    /// Counters of the machines the benchmark builds itself.
    pub machine: MachineCounters,
    /// Decoded-superblock cache counters.
    pub decode: DecodeCacheStats,
    /// Memory-op-fused executor counters.
    pub fused: FusedMemStats,
    /// Barrier-episode counters.
    pub episodes: EpisodeStats,
    /// Instructions of the machines the counting sink observed.
    pub observed_instructions: u64,
    /// Trace events the counting sink saw.
    pub events: EventCounts,
    /// Synchronization accesses the race detector observed.
    pub race_sync_accesses: u64,
    /// Ordinary reads the race detector checked.
    pub race_reads_checked: u64,
    /// Ordinary writes the race detector checked.
    pub race_writes_checked: u64,
    /// Model-checker states explored.
    pub mc_states: u64,
    /// Model-checker transitions executed.
    pub mc_transitions: u64,
}

impl Counters {
    /// Add one finished simulation under `mechanism` (`None`: the
    /// sequential baseline).
    pub fn add_run(
        &mut self,
        mechanism: Option<BarrierMechanism>,
        sim: &Measurement,
        decode: &DecodeCacheStats,
        fused: &FusedMemStats,
    ) {
        self.cycles += sim.cycles;
        self.instructions += sim.instructions;
        self.class_instructions[class(mechanism)] += sim.instructions;
        self.decode.hits += decode.hits;
        self.decode.builds += decode.builds;
        self.decode.invalidations += decode.invalidations;
        self.fused.loads += fused.loads;
        self.fused.stores += fused.stores;
        self.fused.memo_hits += fused.memo_hits;
        self.episodes.merge(&sim.episodes);
    }

    /// Share of simulated instructions in each class of [`CLASSES`].
    pub fn class_shares(&self) -> [f64; 4] {
        self.class_instructions
            .map(|n| ratio(n as f64, self.instructions as f64))
    }

    /// The per-layer metrics that are ratios of counters.
    ///
    /// The L1/memory and coherence metrics come from `MachineStats` when
    /// the workload's machines are the benchmark's own. A kernel run keeps
    /// its machine to itself, so there they come from the counting sink,
    /// over the instructions it observed: misses from miss events, loads
    /// and stores from data read and write events, invalidated copies
    /// from upgrade events and dirty transfers from cache-to-cache events.
    /// L2, bus, hook-port and burst counters have no such source and read
    /// 0 there.
    pub fn metrics(&self) -> Vec<Metric> {
        let m = &self.machine;
        let e = &self.events;
        let own = m.instructions > 0;
        let base = if own {
            m.instructions
        } else {
            self.observed_instructions
        };
        let kinstr = |n: u64| per_kinstr(n, base);
        let [l1d_hit_share, l1d_misses, l1i_misses, loads, stores, copies, dirty] = if own {
            [
                ratio(m.l1d_hits as f64, (m.l1d_hits + m.l1d_misses) as f64),
                kinstr(m.l1d_misses),
                kinstr(m.l1i_misses),
                kinstr(m.loads),
                kinstr(m.stores),
                kinstr(m.copies_invalidated),
                kinstr(m.dirty_transfers),
            ]
        } else {
            let accesses = e.get("data_read") + e.get("data_write");
            [
                ratio(
                    accesses.saturating_sub(e.get("d_miss")) as f64,
                    accesses as f64,
                ),
                kinstr(e.get("d_miss")),
                kinstr(e.get("i_miss")),
                kinstr(e.get("data_read")),
                kinstr(e.get("data_write")),
                kinstr(e.upgrade_copies),
                kinstr(e.get("c2c")),
            ]
        };
        let d = &self.decode;
        let f = &self.fused;
        let ep = &self.episodes;
        let count = |name: &str, n: u64| Metric::new(name, n as f64, "count");
        let mut out = vec![
            Metric::new(
                "machine.burst_share",
                ratio(m.burst_retired as f64, m.instructions as f64),
                "share",
            ),
            Metric::new(
                "decode.hit_share",
                ratio(d.hits as f64, (d.hits + d.builds) as f64),
                "share",
            ),
            count("decode.builds", d.builds),
            count("decode.invalidations", d.invalidations),
            Metric::new(
                "fused.loads_per_kinstr",
                per_kinstr(f.loads, self.instructions),
                "1/kinstr",
            ),
            Metric::new(
                "fused.memo_hit_share",
                ratio(f.memo_hits as f64, f.loads as f64),
                "share",
            ),
            Metric::new("l1d.hit_share", l1d_hit_share, "share"),
            Metric::new("l1d.misses_per_kinstr", l1d_misses, "1/kinstr"),
            Metric::new("l1i.misses_per_kinstr", l1i_misses, "1/kinstr"),
            Metric::new(
                "l2.misses_per_kinstr",
                per_kinstr(m.l2_misses, m.instructions),
                "1/kinstr",
            ),
            Metric::new("core.loads_per_kinstr", loads, "1/kinstr"),
            Metric::new("core.stores_per_kinstr", stores, "1/kinstr"),
            Metric::new(
                "directory.copies_invalidated_per_kinstr",
                copies,
                "1/kinstr",
            ),
            Metric::new("directory.dirty_transfers_per_kinstr", dirty, "1/kinstr"),
            Metric::new(
                "addr_bus.grants_per_kinstr",
                per_kinstr(m.addr_grants, m.instructions),
                "1/kinstr",
            ),
            Metric::new(
                "addr_bus.wait_per_grant",
                ratio(m.addr_wait as f64, m.addr_grants as f64),
                "cycles",
            ),
            Metric::new(
                "data_bus.wait_per_grant",
                ratio(m.data_wait as f64, m.data_grants as f64),
                "cycles",
            ),
            Metric::new(
                "hook.grants_per_kinstr",
                per_kinstr(m.hook_grants, m.instructions),
                "1/kinstr",
            ),
            count("episodes.count", ep.episodes),
            count("episodes.parks", ep.parks),
            count("episodes.releases", ep.releases),
            count("episodes.serviced", ep.serviced),
            Metric::new(
                "episodes.mean_arrival_spread",
                ep.mean_arrival_spread(),
                "cycles",
            ),
            Metric::new(
                "episodes.mean_release_fanout",
                ep.mean_release_fanout(),
                "cycles",
            ),
        ];
        for (kind, &n) in KINDS.iter().zip(&e.by_kind) {
            out.push(Metric::new(
                format!("trace.{kind}_per_kinstr"),
                per_kinstr(n, self.observed_instructions),
                "1/kinstr",
            ));
        }
        out.extend([
            count("race.sync_accesses", self.race_sync_accesses),
            count("race.reads_checked", self.race_reads_checked),
            count("race.writes_checked", self.race_writes_checked),
            count("mc.states", self.mc_states),
            count("mc.transitions", self.mc_transitions),
        ]);
        out
    }
}

/// A named metric with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as `BENCHMARK.json` lists it.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric named `name`.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// `a / b`, or 0 when there is nothing to divide by.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Events per thousand instructions, or 0 with no instructions.
pub fn per_kinstr(count: u64, instructions: u64) -> f64 {
    ratio(1000.0 * count as f64, instructions as f64)
}

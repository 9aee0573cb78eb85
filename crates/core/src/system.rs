//! The barrier "operating system" layer (§3.3) and high-level facade.
//!
//! [`BarrierSystem`] plays the role the paper assigns to the OS barrier
//! library:
//!
//! * it registers barriers — allocating arrival/exit cache-line ranges whose
//!   low bits index the thread and which all map to a single L2 bank/filter
//!   (§3.3.1, §3.3.2);
//! * it hands back a handle the program synchronizes through ([`Barrier`]);
//! * when no filter (or no filter capacity) is available it transparently
//!   falls back to a software barrier (§3.3.1: "a request for a new barrier
//!   will receive a handle to a filter barrier if one is available … if the
//!   request cannot be satisfied, the handle returned will be for the
//!   fall-back software barrier implementation");
//! * at machine-build time it programs the filter tables into the L2 bank
//!   controllers and initializes per-thread TLS (sense flags).

use std::fmt;

use cmp_sim::{AddressSpace, BuildError, LayoutError, MachineBuilder, SimConfig};
use sim_isa::{Asm, AsmError, Reg, LINE_BYTES};

use crate::bank::FilterBank;
use crate::emit;
use crate::fsm::ThreadState::{self, Servicing, Waiting};
use crate::mechanism::BarrierMechanism;
use crate::protocol::{ProtocolSpec, RegionKind, SyncRegion};
use crate::table::{FilterTable, FilterTableConfig};

/// Hardware provisioning: how many filter tables each L2 bank controller
/// holds (`B` in §3.2) and the per-barrier thread limit (`T`, the number of
/// entries in a table).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FilterCapacity {
    /// Filter tables per L2 bank.
    pub tables_per_bank: usize,
    /// Entries (threads) per table.
    pub max_threads: usize,
}

impl Default for FilterCapacity {
    fn default() -> FilterCapacity {
        FilterCapacity {
            tables_per_bank: 8,
            max_threads: 64,
        }
    }
}

/// Errors from barrier registration or installation.
#[derive(Debug, Clone, PartialEq)]
pub enum BarrierError {
    /// Address-space allocation failed.
    Layout(LayoutError),
    /// Label collision or other assembler failure.
    Asm(AsmError),
    /// More threads requested than a filter table holds entries.
    TooManyThreads {
        /// Threads requested.
        requested: usize,
        /// Table entry count.
        max: usize,
    },
    /// The per-thread TLS area ran out of sense slots.
    TlsExhausted,
    /// A hierarchical mechanism's topology requirements were not met:
    /// threads must fill whole power-of-two clusters, and the hierarchical
    /// filter additionally needs one bank granule per cluster slice.
    Hierarchy(String),
    /// Machine-build error while installing hooks.
    Build(BuildError),
    /// `install` found a different number of threads than the system was
    /// created for.
    ThreadCountMismatch {
        /// Threads the system was created for.
        expected: usize,
        /// Threads present in the builder.
        found: usize,
    },
}

impl fmt::Display for BarrierError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BarrierError::Layout(e) => write!(f, "address allocation failed: {e}"),
            BarrierError::Asm(e) => write!(f, "assembler error: {e}"),
            BarrierError::TooManyThreads { requested, max } => write!(
                f,
                "barrier requested for {requested} threads but filter tables hold {max} entries"
            ),
            BarrierError::TlsExhausted => f.write_str("per-thread TLS sense slots exhausted"),
            BarrierError::Hierarchy(why) => write!(f, "hierarchical barrier unavailable: {why}"),
            BarrierError::Build(e) => write!(f, "machine build failed: {e}"),
            BarrierError::ThreadCountMismatch { expected, found } => write!(
                f,
                "barrier system was created for {expected} threads but the builder has {found}"
            ),
        }
    }
}

impl std::error::Error for BarrierError {}

impl From<LayoutError> for BarrierError {
    fn from(e: LayoutError) -> BarrierError {
        BarrierError::Layout(e)
    }
}

impl From<AsmError> for BarrierError {
    fn from(e: AsmError) -> BarrierError {
        BarrierError::Asm(e)
    }
}

impl From<BuildError> for BarrierError {
    fn from(e: BuildError) -> BarrierError {
        BarrierError::Build(e)
    }
}

/// A registered barrier: the handle user code synchronizes through.
#[derive(Debug, Clone)]
pub struct Barrier {
    id: usize,
    mechanism: BarrierMechanism,
    requested: BarrierMechanism,
    label: String,
    threads: usize,
    arrival_base: Option<u64>,
    protocol: ProtocolSpec,
}

impl Barrier {
    /// Emit a call to this barrier at the current assembly position.
    /// The routine clobbers `ra`, `k0`, `k1` and `t6`–`t9` only.
    pub fn emit_call(&self, a: &mut Asm) {
        a.jal(Reg::RA, self.label.as_str());
    }

    /// The mechanism actually backing this barrier (after any fallback).
    pub fn mechanism(&self) -> BarrierMechanism {
        self.mechanism
    }

    /// The mechanism originally requested.
    pub fn requested(&self) -> BarrierMechanism {
        self.requested
    }

    /// Whether the OS fell back to a software barrier because the filter
    /// hardware was exhausted.
    pub fn is_fallback(&self) -> bool {
        self.mechanism != self.requested
    }

    /// Number of participating threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The routine's entry label (for direct jumps).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// This barrier's registration id.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Base address of the (first) arrival-line range, for filter-backed
    /// barriers: thread `t` signals through line `base + 64 * t`. `None`
    /// for software and dedicated-network barriers.
    pub fn arrival_base(&self) -> Option<u64> {
        self.arrival_base
    }

    /// The machine-readable protocol description: which address ranges
    /// this barrier synchronizes through and what role each plays. Static
    /// linters and the dynamic race detector consume this.
    pub fn protocol(&self) -> &ProtocolSpec {
        &self.protocol
    }
}

/// Bytes of thread-local storage per thread (sense flags live here).
const TLS_BYTES_PER_THREAD: u64 = 4 * LINE_BYTES;

/// The barrier library + OS interface. See the module docs.
#[derive(Debug)]
pub struct BarrierSystem {
    config: SimConfig,
    nthreads: usize,
    capacity: FilterCapacity,
    timeout: Option<u64>,
    tls_base: u64,
    next_tls_off: i64,
    per_bank: Vec<Vec<FilterTableConfig>>,
    hw_groups: Vec<(u16, usize)>,
    next_id: usize,
}

impl BarrierSystem {
    /// Create the barrier system for a machine with `nthreads` threads,
    /// with default filter capacity. Allocates the per-thread TLS area.
    ///
    /// # Errors
    ///
    /// Allocation failure for the TLS area.
    pub fn new(
        config: &SimConfig,
        nthreads: usize,
        space: &mut AddressSpace,
    ) -> Result<BarrierSystem, BarrierError> {
        BarrierSystem::with_capacity(config, nthreads, space, FilterCapacity::default())
    }

    /// Create the system with explicit filter provisioning (used by the
    /// fallback and capacity tests).
    ///
    /// # Errors
    ///
    /// Allocation failure for the TLS area.
    pub fn with_capacity(
        config: &SimConfig,
        nthreads: usize,
        space: &mut AddressSpace,
        capacity: FilterCapacity,
    ) -> Result<BarrierSystem, BarrierError> {
        let tls_base = space.alloc(nthreads as u64 * TLS_BYTES_PER_THREAD, LINE_BYTES)?;
        Ok(BarrierSystem {
            config: config.clone(),
            nthreads,
            capacity,
            timeout: None,
            tls_base,
            next_tls_off: 0,
            per_bank: vec![Vec::new(); config.l2_banks],
            hw_groups: Vec::new(),
            next_id: 0,
        })
    }

    /// Configure the hardware timeout (in cycles) after which a starved
    /// fill is completed with an embedded error code, on subsequently
    /// created filters.
    pub fn set_timeout(&mut self, timeout: Option<u64>) {
        self.timeout = timeout;
    }

    /// TLS base address of thread `tid`.
    pub fn tls_addr(&self, tid: usize) -> u64 {
        self.tls_base + tid as u64 * TLS_BYTES_PER_THREAD
    }

    /// Free filter-table slots remaining in bank `bank`.
    pub fn free_tables(&self, bank: usize) -> usize {
        self.capacity.tables_per_bank - self.per_bank[bank].len()
    }

    fn alloc_tls_slot(&mut self) -> Result<i64, BarrierError> {
        if self.next_tls_off as u64 + 8 > TLS_BYTES_PER_THREAD {
            return Err(BarrierError::TlsExhausted);
        }
        let off = self.next_tls_off;
        self.next_tls_off += 8;
        Ok(off)
    }

    /// Cluster geometry a hierarchical barrier over `threads` threads
    /// combines through: `(cluster_threads, clusters, log2 cluster
    /// threads)`. On the flat one-cluster topology the whole thread set is
    /// one "cluster" and the barrier degenerates to a single level.
    ///
    /// # Errors
    ///
    /// [`BarrierError::Hierarchy`] unless `threads` fills whole clusters
    /// whose thread count is a power of two (the routines compute the
    /// cluster index as `tid >> log2(cluster_threads)`).
    fn hier_geometry(&self, threads: usize) -> Result<(usize, usize, u32), BarrierError> {
        let topo_clusters = self.config.topology.clusters.max(1);
        let cpc = if topo_clusters == 1 {
            threads
        } else {
            self.config.cores_per_cluster()
        };
        if threads == 0 || cpc == 0 || !cpc.is_power_of_two() {
            return Err(BarrierError::Hierarchy(format!(
                "cluster thread count {cpc} is not a positive power of two"
            )));
        }
        if !threads.is_multiple_of(cpc) {
            return Err(BarrierError::Hierarchy(format!(
                "{threads} threads do not fill whole clusters of {cpc}"
            )));
        }
        let spanned = threads / cpc;
        if spanned > topo_clusters {
            return Err(BarrierError::Hierarchy(format!(
                "{threads} threads span {spanned} clusters but the topology has {topo_clusters}"
            )));
        }
        Ok((cpc, spanned, cpc.ilog2()))
    }

    /// The bank with the most free table slots that has at least `need`.
    fn pick_bank(&self, need: usize) -> Option<usize> {
        (0..self.per_bank.len())
            .filter(|&b| self.free_tables(b) >= need)
            .max_by_key(|&b| self.free_tables(b))
    }

    /// Program a table over `threads` threads into `bank` and record its
    /// configuration in `tables`, the barrier's [`ProtocolSpec::tables`].
    fn program_table(
        &mut self,
        tables: &mut Vec<FilterTableConfig>,
        bank: usize,
        arrival_base: u64,
        exit_base: u64,
        threads: usize,
        initial_state: ThreadState,
    ) {
        let cfg = FilterTableConfig {
            arrival_base,
            exit_base: Some(exit_base),
            num_threads: threads,
            initial_state,
            timeout: self.timeout,
        };
        self.per_bank[bank].push(cfg.clone());
        tables.push(cfg);
    }

    /// Register a new barrier over threads `0..threads` using `mechanism`,
    /// emitting its runtime routine (and, for I-cache variants, its arrival
    /// stub lines) into `asm`. Filter mechanisms fall back to the
    /// centralized software barrier when the filter hardware is exhausted;
    /// check [`Barrier::is_fallback`].
    ///
    /// Call this *before* emitting kernel code that uses the handle, and
    /// add all threads to the [`MachineBuilder`] before calling
    /// [`install`](BarrierSystem::install).
    ///
    /// # Errors
    ///
    /// Address-space exhaustion, assembler errors, or a thread count beyond
    /// the filter table size.
    pub fn create_barrier(
        &mut self,
        asm: &mut Asm,
        space: &mut AddressSpace,
        mechanism: BarrierMechanism,
        threads: usize,
    ) -> Result<Barrier, BarrierError> {
        self.create_inner(asm, space, mechanism, mechanism, threads)
    }

    fn create_inner(
        &mut self,
        asm: &mut Asm,
        space: &mut AddressSpace,
        actual: BarrierMechanism,
        requested: BarrierMechanism,
        threads: usize,
    ) -> Result<Barrier, BarrierError> {
        use BarrierMechanism::*;
        // The hierarchical filter shards threads across per-cluster tables,
        // so its per-table occupancy (checked in its arm) is the cluster
        // thread count, not the barrier-wide one.
        if actual.is_filter() && !actual.is_hierarchical() && threads > self.capacity.max_threads {
            return Err(BarrierError::TooManyThreads {
                requested: threads,
                max: self.capacity.max_threads,
            });
        }
        let id = self.next_id;
        self.next_id += 1;
        let granule = self.config.bank_granule();
        let mut arrival_base = None;
        let mut regions = Vec::new();
        let mut tables = Vec::new();
        let mut tls_offset = None;
        let mut hw_group = None;
        let mut episode_counter = None;
        let mut wake_addrs = Vec::new();
        let label = match actual {
            SwCentral => {
                let counter = space.alloc_lines(1)?;
                let flag = space.alloc_lines(1)?;
                let tls = self.alloc_tls_slot()?;
                episode_counter = Some(counter);
                wake_addrs.push(flag);
                regions.push(SyncRegion {
                    kind: RegionKind::Counter,
                    base: counter,
                    bytes: LINE_BYTES,
                });
                regions.push(SyncRegion {
                    kind: RegionKind::Flag,
                    base: flag,
                    bytes: LINE_BYTES,
                });
                tls_offset = Some(tls);
                emit::sw_central(asm, id, counter, flag, tls)?
            }
            SwTree => {
                let levels = usize::BITS as usize - (threads.max(2) - 1).leading_zeros() as usize;
                let lines = levels as u64 * threads as u64;
                let counters = space.alloc_lines(lines)?;
                let flags = space.alloc_lines(lines)?;
                let tls = self.alloc_tls_slot()?;
                regions.push(SyncRegion {
                    kind: RegionKind::Counter,
                    base: counters,
                    bytes: lines * LINE_BYTES,
                });
                regions.push(SyncRegion {
                    kind: RegionKind::Flag,
                    base: flags,
                    bytes: lines * LINE_BYTES,
                });
                tls_offset = Some(tls);
                // The root node of the combining tree closes the episode.
                episode_counter =
                    Some(counters + (levels as u64 - 1) * threads as u64 * LINE_BYTES);
                wake_addrs.extend((0..lines).map(|i| flags + i * LINE_BYTES));
                emit::sw_tree(asm, id, counters, flags, tls)?
            }
            FilterD => {
                let Some(bank) = self.pick_bank(1) else {
                    return self.create_inner(asm, space, SwCentral, requested, threads);
                };
                let a_base = space.alloc_bank_lines(bank, threads as u64)?;
                let e_base = space.alloc_bank_lines(bank, threads as u64)?;
                arrival_base = Some(a_base);
                regions.push(ProtocolSpec::thread_lines(
                    RegionKind::Arrival,
                    a_base,
                    threads,
                ));
                regions.push(ProtocolSpec::thread_lines(
                    RegionKind::Exit,
                    e_base,
                    threads,
                ));
                self.program_table(&mut tables, bank, a_base, e_base, threads, Waiting);
                emit::filter_d(asm, id, a_base, e_base)?
            }
            FilterDPingPong => {
                let Some(bank) = self.pick_bank(2) else {
                    return self.create_inner(asm, space, SwCentral, requested, threads);
                };
                let a0 = space.alloc_bank_lines(bank, threads as u64)?;
                let a1 = space.alloc_bank_lines(bank, threads as u64)?;
                arrival_base = Some(a0);
                let tls = self.alloc_tls_slot()?;
                regions.push(ProtocolSpec::thread_lines(RegionKind::Arrival, a0, threads));
                regions.push(ProtocolSpec::thread_lines(
                    RegionKind::ArrivalAlt,
                    a1,
                    threads,
                ));
                tls_offset = Some(tls);
                self.program_table(&mut tables, bank, a0, a1, threads, Waiting);
                self.program_table(&mut tables, bank, a1, a0, threads, Servicing);
                emit::filter_d_ping_pong(asm, id, a0, a1, tls)?
            }
            FilterI => {
                let a_base = emit::arrival_stubs(asm, threads, granule);
                let bank = self.config.bank_of(a_base);
                if self.free_tables(bank) < 1 {
                    return self.create_inner(asm, space, SwCentral, requested, threads);
                }
                let e_base = space.alloc_bank_lines(bank, threads as u64)?;
                arrival_base = Some(a_base);
                regions.push(ProtocolSpec::thread_lines(
                    RegionKind::Arrival,
                    a_base,
                    threads,
                ));
                regions.push(ProtocolSpec::thread_lines(
                    RegionKind::Exit,
                    e_base,
                    threads,
                ));
                self.program_table(&mut tables, bank, a_base, e_base, threads, Waiting);
                emit::filter_i(asm, id, a_base, e_base)?
            }
            FilterIPingPong => {
                let (a0, a1) = emit::arrival_stub_pair(asm, threads, granule);
                let bank = self.config.bank_of(a0);
                debug_assert_eq!(bank, self.config.bank_of(a1));
                if self.free_tables(bank) < 2 {
                    return self.create_inner(asm, space, SwCentral, requested, threads);
                }
                arrival_base = Some(a0);
                let tls = self.alloc_tls_slot()?;
                regions.push(ProtocolSpec::thread_lines(RegionKind::Arrival, a0, threads));
                regions.push(ProtocolSpec::thread_lines(
                    RegionKind::ArrivalAlt,
                    a1,
                    threads,
                ));
                tls_offset = Some(tls);
                self.program_table(&mut tables, bank, a0, a1, threads, Waiting);
                self.program_table(&mut tables, bank, a1, a0, threads, Servicing);
                emit::filter_i_ping_pong(asm, id, a0, a1, tls)?
            }
            HwDedicated => {
                let hw_id = self.hw_groups.len() as u16;
                self.hw_groups.push((hw_id, threads));
                hw_group = Some(hw_id);
                emit::hw_dedicated(asm, id, hw_id)?
            }
            SwHier => {
                let (_, nclusters, cpc_log2) = self.hier_geometry(threads)?;
                let local_counters = space.alloc_lines(nclusters as u64)?;
                let local_flags = space.alloc_lines(nclusters as u64)?;
                let global_counter = space.alloc_lines(1)?;
                let global_flag = space.alloc_lines(1)?;
                let tls = self.alloc_tls_slot()?;
                regions.push(SyncRegion {
                    kind: RegionKind::Counter,
                    base: local_counters,
                    bytes: nclusters as u64 * LINE_BYTES,
                });
                regions.push(SyncRegion {
                    kind: RegionKind::Flag,
                    base: local_flags,
                    bytes: nclusters as u64 * LINE_BYTES,
                });
                regions.push(SyncRegion {
                    kind: RegionKind::Counter,
                    base: global_counter,
                    bytes: LINE_BYTES,
                });
                regions.push(SyncRegion {
                    kind: RegionKind::Flag,
                    base: global_flag,
                    bytes: LINE_BYTES,
                });
                tls_offset = Some(tls);
                episode_counter = Some(global_counter);
                wake_addrs.push(global_flag);
                wake_addrs.extend((0..nclusters as u64).map(|k| local_flags + k * LINE_BYTES));
                emit::sw_hier(
                    asm,
                    id,
                    local_counters,
                    local_flags,
                    global_counter,
                    global_flag,
                    cpc_log2,
                    nclusters as u64,
                    tls,
                )?
            }
            FilterDHier => {
                let (cpc, nclusters, cpc_log2) = self.hier_geometry(threads)?;
                if cpc.max(nclusters) > self.capacity.max_threads {
                    return Err(BarrierError::TooManyThreads {
                        requested: cpc.max(nclusters),
                        max: self.capacity.max_threads,
                    });
                }
                let (a1, e1, ga, ge, a2, e2) = if nclusters == 1 {
                    // Degenerate: one cluster, so all three chained filter
                    // phases share a single bank.
                    let Some(bank) = self.pick_bank(3) else {
                        return self.create_inner(asm, space, SwHier, requested, threads);
                    };
                    let a1 = space.alloc_bank_lines(bank, threads as u64)?;
                    let e1 = space.alloc_bank_lines(bank, threads as u64)?;
                    let ga = space.alloc_bank_lines(bank, 1)?;
                    let ge = space.alloc_bank_lines(bank, 1)?;
                    let a2 = space.alloc_bank_lines(bank, threads as u64)?;
                    let e2 = space.alloc_bank_lines(bank, threads as u64)?;
                    self.program_table(&mut tables, bank, a1, e1, threads, Waiting);
                    self.program_table(&mut tables, bank, ga, ge, 1, Waiting);
                    self.program_table(&mut tables, bank, a2, e2, threads, Waiting);
                    (a1, e1, ga, ge, a2, e2)
                } else {
                    // Each cluster's slice of an arrival run must cover
                    // exactly its threads' lines, so slice k of every run is
                    // homed in cluster k's bank k.
                    if granule != cpc as u64 * LINE_BYTES {
                        return Err(BarrierError::Hierarchy(format!(
                            "bank granule is {granule} bytes but a cluster slice needs {} \
                             (cluster threads x line size)",
                            cpc as u64 * LINE_BYTES
                        )));
                    }
                    if nclusters > cpc {
                        return Err(BarrierError::Hierarchy(format!(
                            "{nclusters} leader lines do not fit one bank granule of {cpc} lines"
                        )));
                    }
                    // Banks 0..nclusters each host the cluster's b1 and b2
                    // tables; bank 0 additionally hosts the leaders' global
                    // filter.
                    let fits =
                        (0..nclusters).all(|k| self.free_tables(k) >= 2 + usize::from(k == 0));
                    if !fits {
                        return self.create_inner(asm, space, SwHier, requested, threads);
                    }
                    let a1 = space.alloc_granule_run(nclusters as u64)?;
                    let e1 = space.alloc_granule_run(nclusters as u64)?;
                    let a2 = space.alloc_granule_run(nclusters as u64)?;
                    let e2 = space.alloc_granule_run(nclusters as u64)?;
                    let ga = space.alloc_bank_lines(0, nclusters as u64)?;
                    let ge = space.alloc_bank_lines(0, nclusters as u64)?;
                    for k in 0..nclusters {
                        let off = k as u64 * granule;
                        self.program_table(&mut tables, k, a1 + off, e1 + off, cpc, Waiting);
                    }
                    self.program_table(&mut tables, 0, ga, ge, nclusters, Waiting);
                    for k in 0..nclusters {
                        let off = k as u64 * granule;
                        self.program_table(&mut tables, k, a2 + off, e2 + off, cpc, Waiting);
                    }
                    (a1, e1, ga, ge, a2, e2)
                };
                arrival_base = Some(a1);
                regions.push(ProtocolSpec::thread_lines(RegionKind::Arrival, a1, threads));
                regions.push(ProtocolSpec::thread_lines(RegionKind::Exit, e1, threads));
                regions.push(SyncRegion {
                    kind: RegionKind::Arrival,
                    base: ga,
                    bytes: nclusters as u64 * LINE_BYTES,
                });
                regions.push(SyncRegion {
                    kind: RegionKind::Exit,
                    base: ge,
                    bytes: nclusters as u64 * LINE_BYTES,
                });
                regions.push(ProtocolSpec::thread_lines(RegionKind::Arrival, a2, threads));
                regions.push(ProtocolSpec::thread_lines(RegionKind::Exit, e2, threads));
                emit::filter_d_hier(asm, id, a1, e1, ga, ge, a2, e2, cpc_log2)?
            }
        };
        let protocol = ProtocolSpec {
            mechanism: actual,
            entry: label.clone(),
            threads,
            regions,
            tables,
            tls_offset,
            hw_id: hw_group,
            episode_counter,
            wake_addrs,
        };
        Ok(Barrier {
            id,
            mechanism: actual,
            requested,
            label,
            threads,
            arrival_base,
            protocol,
        })
    }

    /// Register a *checked* D-cache filter barrier: like
    /// [`BarrierMechanism::FilterD`] but its runtime re-issues the arrival
    /// fill when the filter replies with the hardware-timeout error code
    /// (§3.3.4). Use together with [`set_timeout`](Self::set_timeout).
    /// Unlike [`create_barrier`](Self::create_barrier), exhaustion is an
    /// error rather than a software fallback (the caller asked for filter
    /// semantics specifically).
    ///
    /// # Errors
    ///
    /// Capacity exhaustion, allocation or assembler failures.
    pub fn create_checked_filter_d(
        &mut self,
        asm: &mut Asm,
        space: &mut AddressSpace,
        threads: usize,
    ) -> Result<Barrier, BarrierError> {
        if threads > self.capacity.max_threads {
            return Err(BarrierError::TooManyThreads {
                requested: threads,
                max: self.capacity.max_threads,
            });
        }
        let bank = self.pick_bank(1).ok_or(BarrierError::TooManyThreads {
            requested: threads,
            max: 0,
        })?;
        let id = self.next_id;
        self.next_id += 1;
        let a_base = space.alloc_bank_lines(bank, threads as u64)?;
        let e_base = space.alloc_bank_lines(bank, threads as u64)?;
        let mut tables = Vec::new();
        self.program_table(&mut tables, bank, a_base, e_base, threads, Waiting);
        let label = emit::filter_d_checked(asm, id, a_base, e_base)?;
        let protocol = ProtocolSpec {
            mechanism: BarrierMechanism::FilterD,
            entry: label.clone(),
            threads,
            regions: vec![
                ProtocolSpec::thread_lines(RegionKind::Arrival, a_base, threads),
                ProtocolSpec::thread_lines(RegionKind::Exit, e_base, threads),
            ],
            tables,
            tls_offset: None,
            hw_id: None,
            episode_counter: None,
            wake_addrs: Vec::new(),
        };
        Ok(Barrier {
            id,
            mechanism: BarrierMechanism::FilterD,
            requested: BarrierMechanism::FilterD,
            label,
            threads,
            arrival_base: Some(a_base),
            protocol,
        })
    }

    /// Program the filter tables into the L2 bank controllers, configure
    /// the dedicated network groups, and point every thread's `tls`
    /// register at its TLS block. Call after all threads have been added to
    /// the builder.
    ///
    /// # Errors
    ///
    /// [`BarrierError::ThreadCountMismatch`] or hook-installation failures.
    pub fn install(self, mb: &mut MachineBuilder) -> Result<(), BarrierError> {
        if mb.num_threads() != self.nthreads {
            return Err(BarrierError::ThreadCountMismatch {
                expected: self.nthreads,
                found: mb.num_threads(),
            });
        }
        for (bank, configs) in self.per_bank.iter().enumerate() {
            if configs.is_empty() {
                continue;
            }
            let tables = configs.iter().cloned().map(FilterTable::new).collect();
            mb.install_hook(bank, Box::new(FilterBank::new(tables)))?;
        }
        for &(hw_id, threads) in &self.hw_groups {
            mb.configure_hw_barrier(hw_id, (0..threads).collect());
        }
        for t in 0..self.nthreads {
            mb.set_thread_reg(t, Reg::TLS, self.tls_addr(t));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (SimConfig, AddressSpace, Asm) {
        let config = SimConfig::with_cores(4);
        let space = AddressSpace::new(&config);
        (config, space, Asm::new())
    }

    #[test]
    fn creates_every_mechanism() {
        let (config, mut space, mut asm) = setup();
        let mut sys = BarrierSystem::new(&config, 4, &mut space).unwrap();
        for m in BarrierMechanism::ALL {
            let b = sys.create_barrier(&mut asm, &mut space, m, 4).unwrap();
            assert_eq!(b.mechanism(), m);
            assert!(!b.is_fallback());
        }
        asm.halt();
        asm.assemble().unwrap();
    }

    #[test]
    fn filter_exhaustion_falls_back_to_software() {
        let (config, mut space, mut asm) = setup();
        let cap = FilterCapacity {
            tables_per_bank: 1,
            max_threads: 64,
        };
        let mut sys = BarrierSystem::with_capacity(&config, 4, &mut space, cap).unwrap();
        // one entry/exit filter per bank fits …
        for _ in 0..config.l2_banks {
            let b = sys
                .create_barrier(&mut asm, &mut space, BarrierMechanism::FilterD, 4)
                .unwrap();
            assert!(!b.is_fallback());
        }
        // … the next request falls back
        let b = sys
            .create_barrier(&mut asm, &mut space, BarrierMechanism::FilterD, 4)
            .unwrap();
        assert!(b.is_fallback());
        assert_eq!(b.mechanism(), BarrierMechanism::SwCentral);
        assert_eq!(b.requested(), BarrierMechanism::FilterD);
    }

    #[test]
    fn ping_pong_needs_two_slots() {
        let (config, mut space, mut asm) = setup();
        let cap = FilterCapacity {
            tables_per_bank: 1,
            max_threads: 64,
        };
        let mut sys = BarrierSystem::with_capacity(&config, 4, &mut space, cap).unwrap();
        let b = sys
            .create_barrier(&mut asm, &mut space, BarrierMechanism::FilterDPingPong, 4)
            .unwrap();
        assert!(b.is_fallback(), "one slot per bank cannot host a pair");
    }

    #[test]
    fn too_many_threads_is_an_error_not_a_fallback() {
        let (config, mut space, mut asm) = setup();
        let mut sys = BarrierSystem::new(&config, 4, &mut space).unwrap();
        let err = sys
            .create_barrier(&mut asm, &mut space, BarrierMechanism::FilterD, 65)
            .unwrap_err();
        assert!(matches!(err, BarrierError::TooManyThreads { .. }));
    }

    #[test]
    fn tls_blocks_are_disjoint_per_thread() {
        let (config, mut space, _) = setup();
        let sys = BarrierSystem::new(&config, 4, &mut space).unwrap();
        let addrs: Vec<u64> = (0..4).map(|t| sys.tls_addr(t)).collect();
        for w in addrs.windows(2) {
            assert!(w[1] - w[0] >= TLS_BYTES_PER_THREAD);
        }
    }

    #[test]
    fn hier_mechanisms_on_a_clustered_machine() {
        let config = SimConfig::clustered(64, 4);
        let mut space = AddressSpace::new(&config);
        let mut asm = Asm::new();
        let mut sys = BarrierSystem::new(&config, 64, &mut space).unwrap();
        for m in [BarrierMechanism::SwHier, BarrierMechanism::FilterDHier] {
            let b = sys.create_barrier(&mut asm, &mut space, m, 64).unwrap();
            assert_eq!(b.mechanism(), m);
            assert!(!b.is_fallback());
            assert_eq!(b.threads(), 64);
        }
        asm.halt();
        asm.assemble().unwrap();
    }

    #[test]
    fn hier_filter_shards_tables_across_cluster_banks() {
        let config = SimConfig::clustered(64, 4);
        let mut space = AddressSpace::new(&config);
        let mut asm = Asm::new();
        let mut sys = BarrierSystem::new(&config, 64, &mut space).unwrap();
        let b = sys
            .create_barrier(&mut asm, &mut space, BarrierMechanism::FilterDHier, 64)
            .unwrap();
        // b1 + b2 per cluster bank, plus the leaders' global table in bank 0.
        assert_eq!(sys.free_tables(0), sys.capacity.tables_per_bank - 3);
        for k in 1..4 {
            assert_eq!(sys.free_tables(k), sys.capacity.tables_per_bank - 2);
        }
        // Slice k of the arrival run is homed in cluster k's bank.
        let a1 = b.arrival_base().unwrap();
        for k in 0..4usize {
            let bank = config.bank_of(a1 + k as u64 * config.bank_granule());
            assert_eq!(config.cluster_of_bank(bank), k);
        }
    }

    #[test]
    fn hier_mechanisms_degenerate_on_the_flat_machine() {
        let (config, mut space, mut asm) = setup();
        let mut sys = BarrierSystem::new(&config, 4, &mut space).unwrap();
        for m in [BarrierMechanism::SwHier, BarrierMechanism::FilterDHier] {
            let b = sys.create_barrier(&mut asm, &mut space, m, 4).unwrap();
            assert_eq!(b.mechanism(), m);
            assert!(!b.is_fallback());
        }
        asm.halt();
        asm.assemble().unwrap();
    }

    #[test]
    fn hier_rejects_partial_clusters() {
        let config = SimConfig::clustered(64, 4);
        let mut space = AddressSpace::new(&config);
        let mut asm = Asm::new();
        let mut sys = BarrierSystem::new(&config, 64, &mut space).unwrap();
        for m in [BarrierMechanism::SwHier, BarrierMechanism::FilterDHier] {
            let err = sys.create_barrier(&mut asm, &mut space, m, 24).unwrap_err();
            assert!(matches!(err, BarrierError::Hierarchy(_)), "{err}");
            let msg = err.to_string();
            assert!(
                msg.contains("whole clusters"),
                "diagnostic names the rule: {msg}"
            );
        }
    }

    #[test]
    fn hier_filter_exhaustion_falls_back_to_sw_hier() {
        let config = SimConfig::clustered(64, 4);
        let mut space = AddressSpace::new(&config);
        let mut asm = Asm::new();
        let cap = FilterCapacity {
            tables_per_bank: 1,
            max_threads: 64,
        };
        let mut sys = BarrierSystem::with_capacity(&config, 64, &mut space, cap).unwrap();
        let b = sys
            .create_barrier(&mut asm, &mut space, BarrierMechanism::FilterDHier, 64)
            .unwrap();
        assert!(b.is_fallback());
        assert_eq!(b.mechanism(), BarrierMechanism::SwHier);
        assert_eq!(b.requested(), BarrierMechanism::FilterDHier);
    }

    #[test]
    fn specs_name_the_tables_the_system_programs() {
        // Every mechanism (the hierarchical pair degenerate) on the flat
        // machine, then the hierarchical pair on 4 clusters, each with a
        // 4-thread checked filter: each bank holds, in order, the tables the
        // specs name whose arrival lines it homes.
        let hier = [BarrierMechanism::SwHier, BarrierMechanism::FilterDHier];
        for (config, mechanisms) in [
            (SimConfig::with_cores(4), &BarrierMechanism::EXTENDED[..]),
            (SimConfig::clustered(64, 4), &hier[..]),
        ] {
            let threads = config.num_cores;
            let mut space = AddressSpace::new(&config);
            let mut asm = Asm::new();
            let mut sys = BarrierSystem::new(&config, threads, &mut space).unwrap();
            let mut barriers: Vec<Barrier> = mechanisms
                .iter()
                .map(|&m| sys.create_barrier(&mut asm, &mut space, m, threads))
                .collect::<Result<_, _>>()
                .unwrap();
            barriers.push(
                sys.create_checked_filter_d(&mut asm, &mut space, 4)
                    .unwrap(),
            );
            assert!(barriers.iter().all(|b| !b.is_fallback()));
            let mut named = vec![Vec::new(); sys.per_bank.len()];
            for cfg in barriers.iter().flat_map(|b| &b.protocol().tables) {
                named[config.bank_of(cfg.arrival_base)].push(cfg.clone());
            }
            assert_eq!(named, sys.per_bank, "{threads} cores");
        }
    }

    #[test]
    fn install_requires_matching_thread_count() {
        let (config, mut space, mut asm) = setup();
        let mut sys = BarrierSystem::new(&config, 4, &mut space).unwrap();
        sys.create_barrier(&mut asm, &mut space, BarrierMechanism::SwCentral, 4)
            .unwrap();
        asm.label("entry").unwrap();
        asm.halt();
        let program = asm.assemble().unwrap();
        let entry = program.require_symbol("entry").unwrap();
        let mut mb = MachineBuilder::new(config, program).unwrap();
        mb.add_thread(entry); // only one of four
        assert!(matches!(
            sys.install(&mut mb),
            Err(BarrierError::ThreadCountMismatch {
                expected: 4,
                found: 1
            })
        ));
    }
}

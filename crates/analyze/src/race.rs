//! Happens-before race detection over a simulator trace.
//!
//! [`RaceDetectorSink`] is a pure observer: it implements
//! [`TraceSink`], so it sees every event the machine emits but cannot
//! perturb timing or digests. It reconstructs a happens-before order
//! from the synchronization the trace shows actually happened, then
//! checks every ordinary data access against it (FastTrack-style: a
//! last-write epoch plus an epoch-or-vector read state per byte).
//!
//! Synchronization edges, per mechanism family:
//!
//! * **Filter barriers** — a `dcbi`/`icbi` of a line inside an arrival or
//!   exit region is a *release*: the issuing core's clock joins the
//!   region's clock. A `Released`/`Serviced`/`Errored` fill completion on
//!   such a line is the matching *acquire*. The simulator only completes
//!   those fills once every thread has invalidated, so each thread
//!   acquires every other thread's pre-barrier history — but the detector
//!   never assumes that: if a buggy mechanism released early, the region
//!   clock would be missing arrivals and downstream conflicts would
//!   surface as races.
//! * **Software barriers** — loads and stores whose address falls in a
//!   declared sync region (counter or flag lines) act as lock
//!   acquire/release on their 8-byte granule's clock. These accesses are
//!   synchronization, not data, so they are excluded from race candidacy.
//! * **Dedicated network** — `HwBarArrive` releases into the group's
//!   clock, `HwBarRelease` acquires from it.
//!
//! Region clocks are monotone (never reset between episodes). That is a
//! sound over-approximation of ordering — consecutive episodes really are
//! ordered through the barrier — so it can only suppress impossible
//! interleavings, never invent false races.
//!
//! Shadow layout: the per-byte state lives in one map entry per 8-byte
//! granule, so an aligned access costs one probe of an Fx-hashed map,
//! not one per byte. A spin loop that re-reads an unchanged sync word
//! skips its acquire: each granule clock carries a version, and a core
//! that already joined the current version has nothing left to learn.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use barrier_filter::{ProtocolSpec, SyncRegion};
use cmp_sim::{FxHashMap, TraceEvent, TraceSink};

/// Vector clock, indexed by core.
type Vc = Vec<u32>;

fn grown<T: Clone + Default>(v: &mut Vec<T>, n: usize) {
    if v.len() < n {
        v.resize(n, T::default());
    }
}

fn join(dst: &mut Vc, src: &Vc) {
    grown(dst, src.len());
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = (*d).max(s);
    }
}

fn at(vc: &Vc, core: usize) -> u32 {
    vc.get(core).copied().unwrap_or(0)
}

/// Create the running clock of `core` on first touch, with its own
/// component at 1 (so epochs are never the all-zero "no access yet").
fn touch(clocks: &mut Vec<Vc>, core: usize) {
    grown(clocks, core + 1);
    let vc = &mut clocks[core];
    grown(vc, core + 1);
    if vc[core] == 0 {
        vc[core] = 1;
    }
}

/// Release: join `core`'s (touched) clock into `dst`, then advance its
/// own component.
fn release_into(clocks: &mut [Vc], core: usize, dst: &mut Vc) {
    join(dst, &clocks[core]);
    clocks[core][core] += 1;
}

/// What kind of conflict a race is, named `previous access`/`current
/// access`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RaceKind {
    /// Two unordered writes.
    WriteWrite,
    /// A write unordered after a read.
    ReadWrite,
    /// A read unordered after a write.
    WriteRead,
}

impl RaceKind {
    /// Short human-readable name (`write-write`, ...).
    pub fn name(self) -> &'static str {
        match self {
            RaceKind::WriteWrite => "write-write",
            RaceKind::ReadWrite => "read-write",
            RaceKind::WriteRead => "write-read",
        }
    }
}

/// One detected race: two accesses to the same byte with no
/// happens-before path between them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Race {
    /// Byte address both accesses touch.
    pub addr: u64,
    /// Core performing the later (detected) access.
    pub core: usize,
    /// Core that performed the earlier conflicting access.
    pub prev_core: usize,
    /// Cycle of the detected access.
    pub cycle: u64,
    /// Conflict shape.
    pub kind: RaceKind,
}

/// Aggregate detector results, shared out through [`RaceHandle`].
#[derive(Debug, Clone, Default)]
pub struct RaceReport {
    /// First race per 8-byte granule, in detection order (capped).
    pub races: Vec<Race>,
    /// Total conflicting access pairs seen, including suppressed repeats.
    pub total_races: u64,
    /// Ordinary (non-synchronization) reads checked.
    pub reads_checked: u64,
    /// Ordinary writes checked.
    pub writes_checked: u64,
    /// Synchronization accesses observed (excluded from race candidacy).
    pub sync_accesses: u64,
}

impl RaceReport {
    /// Whether any race was detected.
    pub fn racy(&self) -> bool {
        self.total_races > 0
    }
}

/// The detector's results as its handles see them, current after every
/// event. The sink is the counters' only writer, so [`bump`] keeps them
/// exact without a locked read-modify-write; they publish no other data,
/// so `Relaxed` suffices.
#[derive(Debug, Default)]
struct Shared {
    races: Mutex<Vec<Race>>,
    total_races: AtomicU64,
    reads_checked: AtomicU64,
    writes_checked: AtomicU64,
    sync_accesses: AtomicU64,
}

/// Add one to a counter that only the sink writes.
fn bump(counter: &AtomicU64) {
    counter.store(counter.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
}

/// Cloneable handle onto a detector's results; read it after the run
/// while the sink itself stays owned by the machine.
#[derive(Debug, Clone)]
pub struct RaceHandle(Arc<Shared>);

impl RaceHandle {
    /// Snapshot the current report.
    pub fn report(&self) -> RaceReport {
        let s = &self.0;
        RaceReport {
            races: s.races.lock().expect("race list lock").clone(),
            total_races: s.total_races.load(Ordering::Relaxed),
            reads_checked: s.reads_checked.load(Ordering::Relaxed),
            writes_checked: s.writes_checked.load(Ordering::Relaxed),
            sync_accesses: s.sync_accesses.load(Ordering::Relaxed),
        }
    }
}

/// A FastTrack epoch: `core`'s clock component at an access. A core's own
/// component starts at 1, so the all-zero epoch means "no access yet".
#[derive(Debug, Clone, Copy, Default)]
struct Epoch {
    clock: u32,
    core: u32,
}

impl Epoch {
    /// Whether this access, by a core other than `core`, is not ordered
    /// before `core`'s clock `c`.
    fn unordered(self, core: usize, c: &Vc) -> bool {
        let by = self.core as usize;
        by != core && self.clock > at(c, by)
    }
}

/// FastTrack read state for one byte.
#[derive(Debug, Clone)]
enum ReadState {
    /// The last read epoch (all-zero: none since the last write).
    One(Epoch),
    /// Concurrent reads, as a full vector clock.
    Many(Vc),
}

impl Default for ReadState {
    fn default() -> ReadState {
        ReadState::One(Epoch::default())
    }
}

/// Per-byte shadow: last write epoch and read state.
#[derive(Debug, Clone, Default)]
struct Shadow {
    write: Epoch,
    read: ReadState,
}

impl Shadow {
    /// Apply a write by `epoch`'s core at clock `c`; return the core and
    /// shape of the conflict it makes, if any.
    fn write(&mut self, epoch: Epoch, c: &Vc) -> Option<(usize, RaceKind)> {
        let core = epoch.core as usize;
        let conflict = if self.write.unordered(core, c) {
            Some((self.write.core as usize, RaceKind::WriteWrite))
        } else {
            match &self.read {
                ReadState::One(r) => r
                    .unordered(core, c)
                    .then_some((r.core as usize, RaceKind::ReadWrite)),
                ReadState::Many(rv) => rv
                    .iter()
                    .enumerate()
                    .position(|(rt, &rc)| rt != core && rc > at(c, rt))
                    .map(|rt| (rt, RaceKind::ReadWrite)),
            }
        };
        self.write = epoch;
        self.read = ReadState::default();
        conflict
    }

    /// Apply a read by `epoch`'s core at clock `c`; return the conflict it
    /// makes, if any.
    fn read(&mut self, epoch: Epoch, c: &Vc) -> Option<(usize, RaceKind)> {
        let core = epoch.core as usize;
        let conflict = self
            .write
            .unordered(core, c)
            .then_some((self.write.core as usize, RaceKind::WriteRead));
        match &mut self.read {
            ReadState::One(r) if !r.unordered(core, c) => *r = epoch,
            ReadState::One(r) => {
                let (rc, rt) = (r.clock, r.core as usize);
                let mut rv = vec![0; rt.max(core) + 1];
                rv[rt] = rc;
                rv[core] = epoch.clock;
                self.read = ReadState::Many(rv);
            }
            ReadState::Many(rv) => {
                grown(rv, core + 1);
                rv[core] = epoch.clock;
            }
        }
        conflict
    }
}

/// The shadows of one 8-byte granule, byte `addr & 7` at index `addr & 7`.
type Granule = [Shadow; 8];

/// A software-sync granule's clock, versioned so a repeated acquire of an
/// unchanged clock can be skipped (join is idempotent).
#[derive(Debug, Default)]
struct LockClock {
    vc: Vc,
    /// Releases into `vc` so far.
    version: u64,
    /// `joined[core]`: the version `core` last acquired (0: none).
    joined: Vec<u64>,
}

const RACES_KEPT: usize = 64;
const GRANULE_MASK: u64 = !7;

/// Trace-sink race detector. Build it with the [`ProtocolSpec`]s of the
/// barriers installed in the machine (so synchronization addresses are
/// classified correctly), attach via
/// `MachineBuilder::with_trace_sink(Box::new(sink))`, and read results
/// through the [`RaceHandle`] from [`RaceDetectorSink::handle`].
pub struct RaceDetectorSink {
    regions: Vec<SyncRegion>,
    /// Per-core vector clocks.
    clocks: Vec<Vc>,
    /// Per-region release accumulators (indexed like `regions`).
    region_clocks: Vec<Vc>,
    /// Dedicated-network group clocks.
    hw_clocks: FxHashMap<u16, Vc>,
    /// Software-sync clocks, keyed by granule index (`addr >> 3`).
    lock_clocks: FxHashMap<u64, LockClock>,
    /// Data shadows, keyed by granule index (`addr >> 3`).
    shadow: FxHashMap<u64, Granule>,
    reported: HashSet<u64>,
    state: Arc<Shared>,
}

impl RaceDetectorSink {
    /// Build a detector that treats the regions of `specs` as
    /// synchronization state. An empty spec list means every access is an
    /// ordinary data access.
    pub fn new<'a>(specs: impl IntoIterator<Item = &'a ProtocolSpec>) -> Self {
        let regions = specs.into_iter().flat_map(|s| s.regions.clone()).collect();
        RaceDetectorSink {
            regions,
            clocks: Vec::new(),
            region_clocks: Vec::new(),
            hw_clocks: FxHashMap::default(),
            lock_clocks: FxHashMap::default(),
            shadow: FxHashMap::default(),
            reported: HashSet::new(),
            state: Arc::default(),
        }
    }

    /// Handle for reading results after the machine consumes the sink.
    pub fn handle(&self) -> RaceHandle {
        RaceHandle(Arc::clone(&self.state))
    }

    fn region_idx(&self, addr: u64) -> Option<usize> {
        self.regions.iter().position(|r| r.contains(addr))
    }

    fn release_region(&mut self, core: usize, idx: usize) {
        grown(&mut self.region_clocks, idx + 1);
        touch(&mut self.clocks, core);
        release_into(&mut self.clocks, core, &mut self.region_clocks[idx]);
    }

    fn acquire_region(&mut self, core: usize, idx: usize) {
        if let Some(rc) = self.region_clocks.get(idx) {
            touch(&mut self.clocks, core);
            join(&mut self.clocks[core], rc);
        }
    }

    /// Count one conflict; keep `race` in the list if it is its
    /// granule's first and the list has room.
    fn record_race(state: &Shared, reported: &mut HashSet<u64>, race: Race) {
        bump(&state.total_races);
        let mut races = state.races.lock().expect("race list lock");
        if races.len() < RACES_KEPT && reported.insert(race.addr & GRANULE_MASK) {
            races.push(race);
        }
    }

    /// Check an ordinary access byte by byte against the shadows of the
    /// granules it covers.
    fn data_access(&mut self, core: usize, addr: u64, bytes: u64, cycle: u64, write: bool) {
        bump(if write {
            &self.state.writes_checked
        } else {
            &self.state.reads_checked
        });
        touch(&mut self.clocks, core);
        let c = &self.clocks[core];
        let epoch = Epoch {
            clock: c[core],
            core: core as u32,
        };
        let end = addr + bytes;
        let mut b = addr;
        while b < end {
            let granule = self.shadow.entry(b >> 3).or_default();
            let stop = end.min((b | 7) + 1);
            for byte in b..stop {
                let sh = &mut granule[(byte & 7) as usize];
                let conflict = if write {
                    sh.write(epoch, c)
                } else {
                    sh.read(epoch, c)
                };
                if let Some((prev_core, kind)) = conflict {
                    let race = Race {
                        addr: byte,
                        core,
                        prev_core,
                        cycle,
                        kind,
                    };
                    Self::record_race(&self.state, &mut self.reported, race);
                }
            }
            b = stop;
        }
    }

    fn sync_write(&mut self, core: usize, addr: u64) {
        bump(&self.state.sync_accesses);
        touch(&mut self.clocks, core);
        let lock = self.lock_clocks.entry(addr >> 3).or_default();
        release_into(&mut self.clocks, core, &mut lock.vc);
        lock.version += 1;
    }

    fn sync_read(&mut self, core: usize, addr: u64) {
        bump(&self.state.sync_accesses);
        let Some(lock) = self.lock_clocks.get_mut(&(addr >> 3)) else {
            return;
        };
        if lock.joined.get(core) == Some(&lock.version) {
            return;
        }
        touch(&mut self.clocks, core);
        join(&mut self.clocks[core], &lock.vc);
        grown(&mut lock.joined, core + 1);
        lock.joined[core] = lock.version;
    }

    fn is_sync(&self, addr: u64) -> bool {
        self.regions.iter().any(|r| r.contains(addr))
    }
}

impl TraceSink for RaceDetectorSink {
    fn record(&mut self, cycle: u64, ev: &TraceEvent) {
        match *ev {
            TraceEvent::Invalidate { core, line, .. } => {
                if let Some(idx) = self.region_idx(line) {
                    self.release_region(core, idx);
                }
            }
            TraceEvent::Released { core, line }
            | TraceEvent::Serviced { core, line }
            | TraceEvent::Errored { core, line } => {
                if let Some(idx) = self.region_idx(line) {
                    self.acquire_region(core, idx);
                }
            }
            TraceEvent::HwBarArrive { core, id } => {
                touch(&mut self.clocks, core);
                release_into(
                    &mut self.clocks,
                    core,
                    self.hw_clocks.entry(id).or_default(),
                );
            }
            TraceEvent::HwBarRelease { core, id } => {
                if let Some(hc) = self.hw_clocks.get(&id) {
                    touch(&mut self.clocks, core);
                    join(&mut self.clocks[core], hc);
                }
            }
            TraceEvent::DataWrite { core, addr, bytes } => {
                if self.is_sync(addr) {
                    self.sync_write(core, addr);
                } else {
                    self.data_access(core, addr, bytes, cycle, true);
                }
            }
            TraceEvent::DataRead { core, addr, bytes } => {
                if self.is_sync(addr) {
                    self.sync_read(core, addr);
                } else {
                    self.data_access(core, addr, bytes, cycle, false);
                }
            }
            TraceEvent::DMiss { .. }
            | TraceEvent::IMiss { .. }
            | TraceEvent::Parked { .. }
            | TraceEvent::Upgrade { .. }
            | TraceEvent::CacheToCache { .. }
            | TraceEvent::EpisodeEnd { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use barrier_filter::{RegionKind, SyncRegion};

    fn spec_with(regions: Vec<SyncRegion>) -> ProtocolSpec {
        ProtocolSpec {
            mechanism: barrier_filter::BarrierMechanism::FilterD,
            entry: "entry".into(),
            threads: 2,
            regions,
            tables: Vec::new(),
            tls_offset: None,
            hw_id: None,
            episode_counter: None,
            wake_addrs: Vec::new(),
        }
    }

    fn write(sink: &mut RaceDetectorSink, cycle: u64, core: usize, addr: u64) {
        sink.record(
            cycle,
            &TraceEvent::DataWrite {
                core,
                addr,
                bytes: 8,
            },
        );
    }

    fn read(sink: &mut RaceDetectorSink, cycle: u64, core: usize, addr: u64) {
        sink.record(
            cycle,
            &TraceEvent::DataRead {
                core,
                addr,
                bytes: 8,
            },
        );
    }

    #[test]
    fn unsynchronized_writes_race() {
        let mut sink = RaceDetectorSink::new([]);
        let h = sink.handle();
        write(&mut sink, 10, 0, 0x8000);
        write(&mut sink, 20, 1, 0x8000);
        let r = h.report();
        assert!(r.racy());
        assert_eq!(r.races[0].kind, RaceKind::WriteWrite);
        assert_eq!(r.races[0].prev_core, 0);
        assert_eq!(r.races[0].core, 1);
    }

    #[test]
    fn same_core_never_races_with_itself() {
        let mut sink = RaceDetectorSink::new([]);
        let h = sink.handle();
        write(&mut sink, 10, 0, 0x8000);
        read(&mut sink, 20, 0, 0x8000);
        write(&mut sink, 30, 0, 0x8000);
        assert!(!h.report().racy());
    }

    #[test]
    fn barrier_orders_cross_core_accesses() {
        let arrival = SyncRegion {
            kind: RegionKind::Arrival,
            base: 0x2_0000,
            bytes: 128,
        };
        let spec = spec_with(vec![arrival]);
        let mut sink = RaceDetectorSink::new([&spec]);
        let h = sink.handle();
        write(&mut sink, 10, 0, 0x8000);
        // Both cores invalidate their arrival line (release) ...
        sink.record(
            11,
            &TraceEvent::Invalidate {
                core: 0,
                line: 0x2_0000,
                icache: false,
            },
        );
        sink.record(
            12,
            &TraceEvent::Invalidate {
                core: 1,
                line: 0x2_0040,
                icache: false,
            },
        );
        // ... and their fills complete (acquire).
        sink.record(
            20,
            &TraceEvent::Released {
                core: 0,
                line: 0x2_0000,
            },
        );
        sink.record(
            20,
            &TraceEvent::Released {
                core: 1,
                line: 0x2_0040,
            },
        );
        write(&mut sink, 30, 1, 0x8000);
        assert!(!h.report().racy(), "{:?}", h.report().races);
    }

    #[test]
    fn early_release_is_still_a_race() {
        // Core 1's fill completes *before* core 0 arrives: core 0's write
        // is not in the region clock yet, so the conflict must surface.
        let arrival = SyncRegion {
            kind: RegionKind::Arrival,
            base: 0x2_0000,
            bytes: 128,
        };
        let spec = spec_with(vec![arrival]);
        let mut sink = RaceDetectorSink::new([&spec]);
        let h = sink.handle();
        write(&mut sink, 10, 0, 0x8000);
        sink.record(
            11,
            &TraceEvent::Released {
                core: 1,
                line: 0x2_0040,
            },
        );
        write(&mut sink, 12, 1, 0x8000);
        sink.record(
            13,
            &TraceEvent::Invalidate {
                core: 0,
                line: 0x2_0000,
                icache: false,
            },
        );
        let r = h.report();
        assert!(r.racy());
        assert_eq!(r.races[0].kind, RaceKind::WriteWrite);
    }

    #[test]
    fn software_sync_granule_orders_accesses() {
        let flag = SyncRegion {
            kind: RegionKind::Flag,
            base: 0x3_0000,
            bytes: 64,
        };
        let spec = spec_with(vec![flag]);
        let mut sink = RaceDetectorSink::new([&spec]);
        let h = sink.handle();
        write(&mut sink, 10, 0, 0x8000);
        write(&mut sink, 11, 0, 0x3_0000); // release: store to the flag
        read(&mut sink, 20, 1, 0x3_0000); // acquire: spin load sees it
        write(&mut sink, 21, 1, 0x8000);
        let r = h.report();
        assert!(!r.racy(), "{:?}", r.races);
        assert_eq!(r.sync_accesses, 2);
    }

    #[test]
    fn hw_barrier_orders_accesses() {
        let mut sink = RaceDetectorSink::new([]);
        let h = sink.handle();
        write(&mut sink, 10, 0, 0x8000);
        sink.record(11, &TraceEvent::HwBarArrive { core: 0, id: 3 });
        sink.record(12, &TraceEvent::HwBarArrive { core: 1, id: 3 });
        sink.record(13, &TraceEvent::HwBarRelease { core: 0, id: 3 });
        sink.record(13, &TraceEvent::HwBarRelease { core: 1, id: 3 });
        write(&mut sink, 20, 1, 0x8000);
        assert!(!h.report().racy());
    }

    #[test]
    fn read_write_race_reports_the_reader() {
        let mut sink = RaceDetectorSink::new([]);
        let h = sink.handle();
        read(&mut sink, 10, 0, 0x8000);
        write(&mut sink, 20, 1, 0x8000);
        let r = h.report();
        assert!(r.racy());
        assert_eq!(r.races[0].kind, RaceKind::ReadWrite);
        assert_eq!(r.races[0].prev_core, 0);
    }

    #[test]
    fn mixed_width_accesses_within_a_granule_race_per_byte() {
        fn access(
            sink: &mut RaceDetectorSink,
            cycle: u64,
            core: usize,
            addr: u64,
            bytes: u64,
            write: bool,
        ) {
            let ev = if write {
                TraceEvent::DataWrite { core, addr, bytes }
            } else {
                TraceEvent::DataRead { core, addr, bytes }
            };
            sink.record(cycle, &ev);
        }
        let mut sink = RaceDetectorSink::new([]);
        let h = sink.handle();
        access(&mut sink, 1, 0, 0x8000, 4, true); // bytes 0-3 written by core 0
        access(&mut sink, 2, 0, 0x8006, 2, false); // bytes 6-7 read by core 0
        access(&mut sink, 3, 1, 0x8002, 1, false); // byte 2: write-read
        access(&mut sink, 4, 1, 0x8006, 2, true); // bytes 6-7: read-write, twice
        access(&mut sink, 5, 0, 0x8000, 8, true); // byte 2 read-write, 6-7 write-write
                                                  // Order the two cores through the dedicated network.
        for (cycle, core) in [(6, 0), (7, 1)] {
            sink.record(cycle, &TraceEvent::HwBarArrive { core, id: 0 });
        }
        for core in [0, 1] {
            sink.record(8, &TraceEvent::HwBarRelease { core, id: 0 });
        }
        access(&mut sink, 9, 0, 0x8004, 4, false); // ordered after every write
        access(&mut sink, 10, 1, 0x8004, 2, false); // bytes 4-5 now read concurrently
        access(&mut sink, 11, 1, 0x8007, 1, true); // byte 7: read-write against core 0
        access(&mut sink, 12, 0, 0x8004, 2, true); // bytes 4-5: read-write against core 1
                                                   // The neighbouring granule starts its own list entry.
        access(&mut sink, 13, 1, 0x800b, 1, true);
        access(&mut sink, 14, 0, 0x8008, 8, false); // byte 0x800b: write-read
        let r = h.report();
        let races: Vec<_> = r
            .races
            .iter()
            .map(|x| (x.addr, x.core, x.prev_core, x.kind))
            .collect();
        assert_eq!(
            races,
            [
                (0x8002, 1, 0, RaceKind::WriteRead),
                (0x800b, 0, 1, RaceKind::WriteRead),
            ]
        );
        assert_eq!(r.total_races, 10);
        assert_eq!((r.reads_checked, r.writes_checked), (5, 6));
        assert_eq!(r.sync_accesses, 0);
    }

    #[test]
    fn repeat_races_on_a_granule_are_counted_once_in_the_list() {
        let mut sink = RaceDetectorSink::new([]);
        let h = sink.handle();
        write(&mut sink, 10, 0, 0x8000);
        write(&mut sink, 20, 1, 0x8000);
        write(&mut sink, 30, 0, 0x8000);
        let r = h.report();
        assert_eq!(r.races.len(), 1);
        assert!(r.total_races >= 2);
    }
}

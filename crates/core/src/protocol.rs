//! Machine-readable description of a barrier's synchronization protocol.
//!
//! Every [`Barrier`](crate::Barrier) carries a [`ProtocolSpec`] recording
//! which memory ranges its runtime routine uses for synchronization and
//! what role each range plays. Static analyzers use it to check the
//! emitted routine against the mechanism's contract (e.g. "every `dcbi`
//! of an arrival line is followed by a fetch of that line"), and the
//! dynamic race detector uses it to tell synchronization traffic apart
//! from data traffic and to place happens-before edges at barrier
//! releases.
//!
//! The spec is purely descriptive: nothing in the simulator consults it.
//! Its [`tables`](ProtocolSpec::tables) are copies of the configurations
//! [`BarrierSystem`](crate::BarrierSystem) programs into the L2 banks.

use sim_isa::LINE_BYTES;

use crate::mechanism::BarrierMechanism;
use crate::table::FilterTableConfig;

/// The role a memory range plays in a barrier protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegionKind {
    /// Software arrival counter line(s), updated with LL/SC.
    Counter,
    /// Software release flag line(s), spun on by waiting threads.
    Flag,
    /// Filter arrival lines: thread `t` signals through
    /// `base + LINE_BYTES * t`. For I-cache filters this range lies in
    /// the code region (the arrival stubs).
    Arrival,
    /// The alternate arrival range of a ping-pong pair; episodes
    /// alternate between [`Arrival`](RegionKind::Arrival) and this.
    ArrivalAlt,
    /// Filter exit lines, invalidated on the way out so the next
    /// episode starts clean.
    Exit,
}

impl RegionKind {
    /// Short lowercase name for reports.
    pub fn name(self) -> &'static str {
        match self {
            RegionKind::Counter => "counter",
            RegionKind::Flag => "flag",
            RegionKind::Arrival => "arrival",
            RegionKind::ArrivalAlt => "arrival-alt",
            RegionKind::Exit => "exit",
        }
    }
}

/// One synchronization address range of a barrier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyncRegion {
    /// Role of the range.
    pub kind: RegionKind,
    /// First byte of the range (line-aligned).
    pub base: u64,
    /// Length in bytes (a multiple of [`LINE_BYTES`]).
    pub bytes: u64,
}

impl SyncRegion {
    /// Whether `addr` falls inside this range.
    pub fn contains(&self, addr: u64) -> bool {
        addr >= self.base && addr < self.base + self.bytes
    }
}

/// Everything an analyzer needs to know about one registered barrier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolSpec {
    /// The mechanism actually backing the barrier (after any fallback).
    pub mechanism: BarrierMechanism,
    /// Entry label of the emitted routine.
    pub entry: String,
    /// Participating threads.
    pub threads: usize,
    /// Synchronization ranges, in protocol order (arrival before exit,
    /// primary before alternate).
    pub regions: Vec<SyncRegion>,
    /// The filter tables the OS layer programs for this barrier, in
    /// programming order; empty for software and dedicated-network
    /// barriers. The model checker steps exactly these tables.
    pub tables: Vec<FilterTableConfig>,
    /// TLS slot offset holding this barrier's sense flag, when the
    /// protocol is sense-reversing.
    pub tls_offset: Option<i64>,
    /// Dedicated-network barrier id, for [`BarrierMechanism::HwDedicated`].
    pub hw_id: Option<u16>,
    /// Address of the word that counts arrivals for a whole episode (the
    /// top-level counter of a software barrier). The model checker samples
    /// it when rendering counterexample schedules; filter and dedicated
    /// mechanisms track arrivals in hardware and leave this `None`.
    pub episode_counter: Option<u64>,
    /// Words whose writes can wake a spinning thread (software release
    /// flags, in protocol order). The model checker classifies a stuck
    /// state as a *lost wakeup* (rather than a structural deadlock) when a
    /// thread is still spinning on one of these and no enabled transition
    /// can ever write it again.
    pub wake_addrs: Vec<u64>,
}

impl ProtocolSpec {
    /// The region containing `addr`, if any.
    pub fn region_of(&self, addr: u64) -> Option<&SyncRegion> {
        self.regions.iter().find(|r| r.contains(addr))
    }

    /// Whether `addr` lies in any synchronization range.
    pub fn is_sync_addr(&self, addr: u64) -> bool {
        self.region_of(addr).is_some()
    }

    /// The regions with role `kind`.
    pub fn regions_of_kind(&self, kind: RegionKind) -> impl Iterator<Item = &SyncRegion> {
        self.regions.iter().filter(move |r| r.kind == kind)
    }

    /// Convenience constructor for a line-per-thread filter range.
    pub(crate) fn thread_lines(kind: RegionKind, base: u64, threads: usize) -> SyncRegion {
        SyncRegion {
            kind,
            base,
            bytes: threads as u64 * LINE_BYTES,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn region_containment_is_half_open() {
        let r = SyncRegion {
            kind: RegionKind::Arrival,
            base: 0x1000,
            bytes: 2 * LINE_BYTES,
        };
        assert!(r.contains(0x1000));
        assert!(r.contains(0x1000 + 2 * LINE_BYTES - 1));
        assert!(!r.contains(0x1000 + 2 * LINE_BYTES));
        assert!(!r.contains(0xfff));
    }

    #[test]
    fn spec_lookup_finds_the_right_region() {
        let spec = ProtocolSpec {
            mechanism: BarrierMechanism::FilterD,
            entry: "bar0_filter_d".into(),
            threads: 4,
            regions: vec![
                ProtocolSpec::thread_lines(RegionKind::Arrival, 0x2000, 4),
                ProtocolSpec::thread_lines(RegionKind::Exit, 0x3000, 4),
            ],
            tables: Vec::new(),
            tls_offset: None,
            hw_id: None,
            episode_counter: None,
            wake_addrs: Vec::new(),
        };
        assert_eq!(spec.region_of(0x2040).unwrap().kind, RegionKind::Arrival);
        assert_eq!(spec.region_of(0x30ff).unwrap().kind, RegionKind::Exit);
        assert!(spec.region_of(0x4000).is_none());
        assert!(spec.is_sync_addr(0x2000));
        assert_eq!(spec.regions_of_kind(RegionKind::Exit).count(), 1);
    }
}

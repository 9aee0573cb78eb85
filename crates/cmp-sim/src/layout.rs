//! Physical address-space layout and allocation.
//!
//! The "operating system" responsibilities of §3.3 that concern addresses
//! live here: handing out data arrays, per-thread stacks/TLS, and — most
//! importantly — *bank-homed* line ranges for barrier arrival/exit
//! addresses, which must all map to the same L2 bank so one filter sees
//! every signal of a barrier (§3.3.2).

use std::fmt;

use sim_isa::LINE_BYTES;

use crate::config::SimConfig;

/// Base of the general data region (arrays, stacks, TLS).
pub const DATA_BASE: u64 = 0x1000_0000;

/// Base of the barrier-address region (bank-homed allocations).
pub const BARRIER_BASE: u64 = 0x2000_0000;

/// End of the barrier-address region.
pub const BARRIER_END: u64 = 0x3000_0000;

/// Allocation errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LayoutError {
    /// A bank-homed request wanted more contiguous lines than fit in one
    /// bank-interleave granule.
    RequestExceedsGranule {
        /// Lines requested.
        lines: u64,
        /// Lines per granule.
        granule_lines: u64,
    },
    /// The barrier region is exhausted.
    BarrierRegionFull,
    /// The data region collided with the barrier region.
    DataRegionFull,
    /// A granule run needs the first granule homed at a bank index that is
    /// a multiple of the run length, which requires the run length to
    /// divide the bank count.
    GranuleRunUnmappable {
        /// Granules requested.
        granules: u64,
        /// Banks in the machine.
        banks: u64,
    },
}

impl fmt::Display for LayoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LayoutError::RequestExceedsGranule {
                lines,
                granule_lines,
            } => write!(
                f,
                "requested {lines} contiguous same-bank lines but a bank granule holds {granule_lines}"
            ),
            LayoutError::BarrierRegionFull => f.write_str("barrier address region exhausted"),
            LayoutError::DataRegionFull => f.write_str("data address region exhausted"),
            LayoutError::GranuleRunUnmappable { granules, banks } => write!(
                f,
                "a run of {granules} consecutive bank granules cannot start bank-aligned: \
                 {granules} does not divide the bank count {banks}"
            ),
        }
    }
}

impl std::error::Error for LayoutError {}

/// Bump allocator over the machine's physical address space.
#[derive(Debug, Clone)]
pub struct AddressSpace {
    banks: u64,
    granule: u64,
    data_cursor: u64,
    /// Next untouched granule index in the barrier region.
    barrier_granule_cursor: u64,
    /// Per-bank partially-used granule: (next line addr, lines remaining).
    bank_open: Vec<Option<(u64, u64)>>,
}

impl AddressSpace {
    /// Allocator matching `config`'s bank interleave.
    pub fn new(config: &SimConfig) -> AddressSpace {
        AddressSpace {
            banks: config.l2_banks as u64,
            granule: config.bank_granule(),
            data_cursor: DATA_BASE,
            barrier_granule_cursor: 0,
            bank_open: vec![None; config.l2_banks],
        }
    }

    /// Allocate `bytes` bytes with the given alignment in the data region.
    ///
    /// # Errors
    ///
    /// [`LayoutError::DataRegionFull`] if the data region is exhausted.
    ///
    /// # Panics
    ///
    /// Panics if `align` is not a power of two.
    pub fn alloc(&mut self, bytes: u64, align: u64) -> Result<u64, LayoutError> {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        let base = (self.data_cursor + align - 1) & !(align - 1);
        let end = base.checked_add(bytes).ok_or(LayoutError::DataRegionFull)?;
        if end > BARRIER_BASE {
            return Err(LayoutError::DataRegionFull);
        }
        self.data_cursor = end;
        Ok(base)
    }

    /// Allocate a cache-line-aligned array of `count` f64 values.
    ///
    /// Line alignment keeps independently-owned arrays from false sharing,
    /// matching the paper's care to "place shared variables in separate
    /// cache lines to avoid generating useless coherence traffic" (§4).
    ///
    /// # Errors
    ///
    /// [`LayoutError::DataRegionFull`] if the data region is exhausted.
    pub fn alloc_f64(&mut self, count: u64) -> Result<u64, LayoutError> {
        self.alloc_array(count, 8)
    }

    /// Allocate a cache-line-aligned array of `count` u64 values.
    ///
    /// # Errors
    ///
    /// [`LayoutError::DataRegionFull`] if the data region is exhausted.
    pub fn alloc_u64(&mut self, count: u64) -> Result<u64, LayoutError> {
        self.alloc_array(count, 8)
    }

    /// Allocate `count` whole cache lines (returns a line-aligned address).
    ///
    /// # Errors
    ///
    /// [`LayoutError::DataRegionFull`] if the data region is exhausted.
    pub fn alloc_lines(&mut self, count: u64) -> Result<u64, LayoutError> {
        self.alloc_array(count, LINE_BYTES)
    }

    /// Allocate a line-aligned array of `count` elements of `size` bytes;
    /// a byte count that overflows a `u64` cannot fit either.
    fn alloc_array(&mut self, count: u64, size: u64) -> Result<u64, LayoutError> {
        let bytes = count.checked_mul(size).ok_or(LayoutError::DataRegionFull)?;
        self.alloc(bytes, LINE_BYTES)
    }

    /// The bank an address in the barrier region maps to, given granule `g`.
    fn granule_base(&self, granule_index: u64) -> u64 {
        BARRIER_BASE + granule_index * self.granule
    }

    /// Allocate `lines` contiguous cache lines that all map to L2 bank
    /// `bank`. This is the allocation the OS performs for a barrier's
    /// arrival (or exit) addresses: line `base + tid * 64` belongs to
    /// thread `tid`, and the whole range is observed by a single filter.
    ///
    /// # Errors
    ///
    /// * [`LayoutError::RequestExceedsGranule`] if `lines` cannot fit in one
    ///   bank-interleave granule (the architectural contiguity limit).
    /// * [`LayoutError::BarrierRegionFull`] if the region is exhausted.
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range or `lines` is zero.
    pub fn alloc_bank_lines(&mut self, bank: usize, lines: u64) -> Result<u64, LayoutError> {
        assert!(bank < self.bank_open.len(), "bank index out of range");
        assert!(lines > 0, "must allocate at least one line");
        let granule_lines = self.granule / LINE_BYTES;
        if lines > granule_lines {
            return Err(LayoutError::RequestExceedsGranule {
                lines,
                granule_lines,
            });
        }
        if let Some((addr, remaining)) = self.bank_open[bank] {
            if remaining >= lines {
                self.bank_open[bank] = Some((addr + lines * LINE_BYTES, remaining - lines));
                return Ok(addr);
            }
        }
        // Open a fresh granule homed at `bank`: granule index g maps to bank
        // (BARRIER_BASE/granule + g) % banks.
        let base_granule = BARRIER_BASE / self.granule;
        let mut g = self.barrier_granule_cursor;
        loop {
            let addr = self.granule_base(g);
            if addr + self.granule > BARRIER_END {
                return Err(LayoutError::BarrierRegionFull);
            }
            if (base_granule + g) % self.banks == bank as u64 {
                self.barrier_granule_cursor = g + 1;
                self.bank_open[bank] = Some((addr + lines * LINE_BYTES, granule_lines - lines));
                return Ok(addr);
            }
            g += 1;
        }
    }

    /// Allocate `granules` *consecutive* whole bank-interleave granules
    /// from the barrier region, starting at a granule homed at bank 0 —
    /// so granule `k` of the run is homed at bank `k`, for every run.
    ///
    /// This is the allocation a hierarchical filter barrier performs: with
    /// banks striped round-robin across clusters (`bank % clusters`) and a
    /// granule of `cores_per_cluster * 64` bytes, granule `k` of the run
    /// lands in a cluster-`k` bank — one contiguous `base + tid * 64`
    /// arrival range whose per-cluster slices are each watched by a single
    /// local filter. Because every run starts at bank 0, slice `k` of an
    /// arrival run and slice `k` of a matching exit run share a bank, the
    /// §3.3.2 requirement that one filter observe both signals.
    ///
    /// # Errors
    ///
    /// * [`LayoutError::GranuleRunUnmappable`] if `granules` exceeds the
    ///   bank count (the run would wrap past bank 0).
    /// * [`LayoutError::BarrierRegionFull`] if the region is exhausted.
    ///
    /// # Panics
    ///
    /// Panics if `granules` is zero.
    pub fn alloc_granule_run(&mut self, granules: u64) -> Result<u64, LayoutError> {
        assert!(granules > 0, "must allocate at least one granule");
        if granules > self.banks {
            return Err(LayoutError::GranuleRunUnmappable {
                granules,
                banks: self.banks,
            });
        }
        let base_granule = BARRIER_BASE / self.granule;
        let mut g = self.barrier_granule_cursor;
        loop {
            let addr = self.granule_base(g);
            if addr + granules * self.granule > BARRIER_END {
                return Err(LayoutError::BarrierRegionFull);
            }
            if (base_granule + g).is_multiple_of(self.banks) {
                self.barrier_granule_cursor = g + granules;
                return Ok(addr);
            }
            g += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> AddressSpace {
        AddressSpace::new(&SimConfig::default())
    }

    #[test]
    fn data_allocations_are_aligned_and_disjoint() {
        let mut s = space();
        let a = s.alloc(100, 64).unwrap();
        let b = s.alloc(8, 8).unwrap();
        assert_eq!(a % 64, 0);
        assert!(b >= a + 100);
        let c = s.alloc_f64(3).unwrap();
        assert_eq!(c % 64, 0);
        assert!(c >= b + 8);
    }

    #[test]
    fn bank_homed_lines_all_map_to_requested_bank() {
        let cfg = SimConfig::default();
        let mut s = AddressSpace::new(&cfg);
        for bank in 0..cfg.l2_banks {
            let base = s.alloc_bank_lines(bank, 16).unwrap();
            for i in 0..16u64 {
                assert_eq!(cfg.bank_of(base + i * 64), bank, "line {i} in bank {bank}");
            }
        }
    }

    #[test]
    fn sequential_same_bank_allocations_share_granules() {
        let cfg = SimConfig::default();
        let mut s = AddressSpace::new(&cfg);
        let a = s.alloc_bank_lines(0, 4).unwrap();
        let b = s.alloc_bank_lines(0, 4).unwrap();
        assert_eq!(b, a + 4 * 64, "second allocation packs into the granule");
    }

    #[test]
    fn oversized_bank_request_rejected() {
        let cfg = SimConfig::default();
        let granule_lines = cfg.bank_granule() / 64;
        let mut s = AddressSpace::new(&cfg);
        let err = s.alloc_bank_lines(0, granule_lines + 1).unwrap_err();
        assert!(matches!(err, LayoutError::RequestExceedsGranule { .. }));
    }

    #[test]
    fn granule_runs_stripe_consecutive_clusters() {
        let cfg = SimConfig::clustered(64, 4);
        let clusters = cfg.topology.clusters as u64;
        let mut s = AddressSpace::new(&cfg);
        let base = s.alloc_granule_run(clusters).unwrap();
        let granule = cfg.bank_granule();
        for k in 0..clusters {
            let bank = cfg.bank_of(base + k * granule);
            assert_eq!(
                cfg.cluster_of_bank(bank),
                k as usize,
                "granule {k} of the run is watched by a cluster-{k} bank"
            );
            // Every line of the granule shares that bank.
            for line in 0..granule / 64 {
                assert_eq!(cfg.bank_of(base + k * granule + line * 64), bank);
            }
        }
        // A second run starts at bank 0 again, so slice k of both runs
        // shares a bank (arrival/exit pairing).
        let next = s.alloc_granule_run(clusters).unwrap();
        assert!(next >= base + clusters * granule);
        for k in 0..clusters {
            assert_eq!(
                cfg.bank_of(next + k * granule),
                cfg.bank_of(base + k * granule),
                "slice {k} of paired runs shares its bank"
            );
        }
    }

    #[test]
    fn granule_run_longer_than_the_banks_is_rejected() {
        let cfg = SimConfig::default();
        let mut s = AddressSpace::new(&cfg);
        let banks = cfg.l2_banks as u64;
        let err = s.alloc_granule_run(banks + 1).unwrap_err();
        assert!(matches!(err, LayoutError::GranuleRunUnmappable { .. }));
    }

    #[test]
    fn data_region_exhaustion_detected() {
        let mut s = space();
        let err = s.alloc(BARRIER_BASE, 64).unwrap_err();
        assert_eq!(err, LayoutError::DataRegionFull);
        // Byte counts that overflow a u64 (and would wrap to 0) are full
        // too, not zero-byte allocations.
        assert_eq!(s.alloc_u64(1 << 61), Err(LayoutError::DataRegionFull));
        assert_eq!(s.alloc_f64(1 << 61), Err(LayoutError::DataRegionFull));
        assert_eq!(s.alloc_lines(1 << 58), Err(LayoutError::DataRegionFull));
    }

    #[test]
    fn granule_cursor_skips_other_banks() {
        let cfg = SimConfig::default();
        let mut s = AddressSpace::new(&cfg);
        let a = s.alloc_bank_lines(1, 1).unwrap();
        let b = s.alloc_bank_lines(2, 1).unwrap();
        assert_eq!(cfg.bank_of(a), 1);
        assert_eq!(cfg.bank_of(b), 2);
        assert_ne!(a, b);
    }
}

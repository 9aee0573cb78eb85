//! Timing-only set-associative cache model with true-LRU replacement.
//!
//! Caches track tags and coherence state, never data (data lives in
//! [`Memory`](crate::mem::Memory)), which is sufficient for a timing model
//! and keeps the functional result of a simulation independent of
//! replacement noise.
//!
//! ## Storage
//!
//! Every cache of a machine — its L1Ds, L1Is, L2 banks and L3 — keeps its
//! ways in one machine-wide arena ([`Caches`]); a [`Cache`] is a descriptor
//! (base slot, geometry, LRU clock, counters) into it. A way is 16 bytes,
//! `[tag, lru]`. The tag is the line-aligned address with the valid and
//! Modified flags in its always-zero offset bits, so an empty way is all
//! zero bits and the arena is allocated with `vec![[0; 2]; total]`, which
//! takes the allocator's zeroed path: pages of ways the run never touches
//! never become resident. One arena rather than one zeroed `Vec` per cache
//! matters at scale: the allocator clears small blocks it carves from the
//! heap, which would make every L1 of a 1024-core machine resident anyway.

use crate::config::CacheConfig;
use crate::SimConfig;
use sim_isa::LINE_BYTES;

/// Coherence/validity state of a cached line.
///
/// L1 instruction caches and the shared L2/L3 only use `Shared`; L1 data
/// caches use the full MSI set, with the directory (in
/// `coherence`) as the authority on who owns what.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineState {
    /// Clean, potentially replicated.
    Shared,
    /// Exclusive and dirty.
    Modified,
}

/// `[tag, lru]`. An array, not a struct: std allocates `vec![[0; 2]; n]`
/// zeroed without writing it, but clones any struct element into every
/// slot.
type Way = [u64; 2];
const TAG: usize = 0;
/// Higher = more recently used. Ticks are unique across a cache, so the
/// LRU victim in a set is always unambiguous.
const LRU: usize = 1;

/// Tag flag: the way holds a line.
const VALID: u64 = 1;
/// Tag flag: the line is Modified (else Shared).
const MODIFIED: u64 = 2;
/// A line address's offset bits, always zero, which carry the flags.
const FLAGS: u64 = LINE_BYTES - 1;

/// The tag a way holds for `line` in `state`.
fn tag_of(line: u64, state: LineState) -> u64 {
    debug_assert_eq!(line & FLAGS, 0, "cache lines are line-aligned");
    match state {
        LineState::Shared => line | VALID,
        LineState::Modified => line | VALID | MODIFIED,
    }
}

/// The state a valid tag records.
fn state_of(tag: u64) -> LineState {
    if tag & MODIFIED != 0 {
        LineState::Modified
    } else {
        LineState::Shared
    }
}

/// Hit/miss/eviction counters for one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found the line.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Lines displaced by fills.
    pub evictions: u64,
    /// Dirty lines displaced by fills (require writeback).
    pub dirty_evictions: u64,
    /// Lines removed by explicit invalidation (`icbi`/`dcbi`/coherence).
    pub invalidations: u64,
}

/// One set-associative, true-LRU, timing-only cache: its slots in the
/// machine's way arena, plus its LRU clock and counters.
///
/// Set `s` occupies arena slots `base + s*ways .. base + (s+1)*ways`, a
/// fixed stride with no per-set `Vec`, so a lookup touches one contiguous
/// run of ways — this sits on the simulator's per-memory-op hot path.
/// Within a set, way order carries no meaning: lines are unique per set and
/// LRU ticks are unique per cache, so hit, victim, and eviction decisions
/// are identical to any other layout.
#[derive(Debug)]
pub(crate) struct Cache {
    base: usize,
    ways: usize,
    set_mask: u64,
    tick: u64,
    stats: CacheStats,
}

impl Cache {
    /// A cache of geometry `config` whose slots start at arena slot `base`.
    fn new(config: CacheConfig, base: usize) -> Cache {
        Cache {
            base,
            ways: config.ways as usize,
            set_mask: config.sets() - 1,
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// Arena slots this cache occupies.
    fn slots(&self) -> usize {
        (self.set_mask as usize + 1) * self.ways
    }
}

/// Every cache of one machine over one shared, zero-initialised way arena
/// (module docs). [`l1d`](Caches::l1d), [`l1i`](Caches::l1i),
/// [`l2`](Caches::l2) and [`l3`](Caches::l3) lend out one cache at a time
/// as a [`CacheMut`] over its own arena range.
#[derive(Debug)]
pub(crate) struct Caches {
    arena: Vec<Way>,
    l1d: Vec<Cache>,
    l1i: Vec<Cache>,
    /// One per L2 bank, each a `1 / l2_banks` slice of the L2's capacity.
    l2: Vec<Cache>,
    l3: Cache,
}

impl Caches {
    /// The cache hierarchy `config` describes, every way empty.
    pub fn new(config: &SimConfig) -> Caches {
        let per_bank = CacheConfig {
            size_bytes: config.l2.size_bytes / config.l2_banks as u64,
            ..config.l2
        };
        let mut total = 0;
        let mut carve = |geometry: CacheConfig| {
            let cache = Cache::new(geometry, total);
            total += cache.slots();
            cache
        };
        let l1d = (0..config.num_cores).map(|_| carve(config.l1d)).collect();
        let l1i = (0..config.num_cores).map(|_| carve(config.l1i)).collect();
        let l2 = (0..config.l2_banks).map(|_| carve(per_bank)).collect();
        let l3 = carve(config.l3);
        Caches {
            arena: vec![[0; 2]; total],
            l1d,
            l1i,
            l2,
            l3,
        }
    }

    /// Core `core`'s L1 data cache.
    pub fn l1d(&mut self, core: usize) -> CacheMut<'_> {
        CacheMut::new(&mut self.l1d[core], &mut self.arena)
    }

    /// Core `core`'s L1 instruction cache.
    pub fn l1i(&mut self, core: usize) -> CacheMut<'_> {
        CacheMut::new(&mut self.l1i[core], &mut self.arena)
    }

    /// L2 bank `bank`.
    pub fn l2(&mut self, bank: usize) -> CacheMut<'_> {
        CacheMut::new(&mut self.l2[bank], &mut self.arena)
    }

    /// The shared L3.
    pub fn l3(&mut self) -> CacheMut<'_> {
        CacheMut::new(&mut self.l3, &mut self.arena)
    }

    /// Counter snapshots: the L1Ds and L1Is by core and the L2 banks by
    /// bank, then the L3.
    pub fn stats(&self) -> ([Vec<CacheStats>; 3], CacheStats) {
        let each = |caches: &[Cache]| caches.iter().map(|c| c.stats).collect();
        (
            [each(&self.l1d), each(&self.l1i), each(&self.l2)],
            self.l3.stats,
        )
    }
}

/// One cache of a [`Caches`], borrowed with its own slice of the arena.
pub(crate) struct CacheMut<'a> {
    cache: &'a mut Cache,
    /// This cache's slots only, so no operation can reach a neighbour's.
    ways: &'a mut [Way],
}

impl<'a> CacheMut<'a> {
    fn new(cache: &'a mut Cache, arena: &'a mut [Way]) -> CacheMut<'a> {
        let ways = &mut arena[cache.base..cache.base + cache.slots()];
        CacheMut { cache, ways }
    }

    /// The ways of the set `line` (a line-aligned byte address) maps to.
    fn set(&mut self, line: u64) -> &mut [Way] {
        // The set index comes from the line number, not the raw address.
        let set = ((line / LINE_BYTES) & self.cache.set_mask) as usize;
        let start = set * self.cache.ways;
        &mut self.ways[start..start + self.cache.ways]
    }

    /// The way holding `line` (in either state), if any. An empty way is
    /// all zero bits, so it never matches `line | VALID`, not even for
    /// line 0.
    fn find(&mut self, line: u64) -> Option<&mut Way> {
        let key = line | VALID;
        self.set(line)
            .iter_mut()
            .find(|w| w[TAG] & !MODIFIED == key)
    }

    /// Look up `line` (a line-aligned byte address). On a hit the LRU
    /// position is refreshed and the state returned.
    #[inline]
    pub fn lookup(&mut self, line: u64) -> Option<LineState> {
        self.cache.tick += 1;
        let tick = self.cache.tick;
        let hit = self.find(line).map(|w| {
            w[LRU] = tick;
            state_of(w[TAG])
        });
        match hit {
            Some(_) => self.cache.stats.hits += 1,
            None => self.cache.stats.misses += 1,
        }
        hit
    }

    /// Insert (fill) `line` in `state`, returning the evicted victim, if
    /// any, as `(line, state)`.
    pub fn insert(&mut self, line: u64, state: LineState) -> Option<(u64, LineState)> {
        self.cache.tick += 1;
        let filled = [tag_of(line, state), self.cache.tick];
        if let Some(w) = self.find(line) {
            // Fill of an already-present line just refreshes it.
            *w = filled;
            return None;
        }
        let set = self.set(line);
        if let Some(w) = set.iter_mut().find(|w| w[TAG] & VALID == 0) {
            *w = filled;
            return None;
        }
        // Every way occupied: evict the (unique) least recently used one.
        let victim_way = set
            .iter_mut()
            .min_by_key(|w| w[LRU])
            .expect("nonzero associativity");
        let victim = victim_way[TAG];
        *victim_way = filled;
        let victim_state = state_of(victim);
        self.cache.stats.evictions += 1;
        if victim_state == LineState::Modified {
            self.cache.stats.dirty_evictions += 1;
        }
        Some((victim & !FLAGS, victim_state))
    }

    /// Remove `line` if present, returning its state.
    pub fn invalidate(&mut self, line: u64) -> Option<LineState> {
        let w = self.find(line)?;
        let state = state_of(w[TAG]);
        *w = [0; 2];
        self.cache.stats.invalidations += 1;
        Some(state)
    }

    /// Change the state of a resident line (e.g. S→M on upgrade, M→S on a
    /// remote read). No-op if the line is absent.
    pub fn set_state(&mut self, line: u64, state: LineState) {
        if let Some(w) = self.find(line) {
            w[TAG] = tag_of(line, state);
        }
    }

    /// Counter snapshot.
    #[cfg(test)]
    fn stats(&self) -> CacheStats {
        self.cache.stats
    }

    /// Check for presence without disturbing LRU or counting stats.
    #[cfg(test)]
    fn probe(&mut self, line: u64) -> Option<LineState> {
        self.find(line).map(|w| state_of(w[TAG]))
    }

    /// Number of resident lines.
    #[cfg(test)]
    fn resident(&self) -> usize {
        self.ways.iter().filter(|w| w[TAG] & VALID != 0).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A one-core machine's caches whose L1D has geometry `l1d`.
    fn caches_with_l1d(l1d: CacheConfig) -> Caches {
        Caches::new(&SimConfig {
            num_cores: 1,
            l1d,
            ..SimConfig::default()
        })
    }

    fn tiny() -> Caches {
        // 4 lines, 2 ways => 2 sets
        caches_with_l1d(CacheConfig {
            size_bytes: 4 * 64,
            ways: 2,
            latency: 1,
        })
    }

    /// Line-aligned byte address of line number `i`.
    fn ln(i: u64) -> u64 {
        i * 64
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut caches = tiny();
        let mut c = caches.l1d(0);
        assert_eq!(c.lookup(ln(0)), None);
        assert_eq!(c.insert(ln(0), LineState::Shared), None);
        assert_eq!(c.lookup(ln(0)), Some(LineState::Shared));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn line_zero_is_cacheable_and_an_empty_way_never_hits_it() {
        let mut caches = tiny();
        let mut c = caches.l1d(0);
        // Every way of every set is all-zero bits here, and line 0's
        // address is zero too.
        assert_eq!(c.lookup(0), None);
        assert_eq!(c.probe(0), None);
        assert_eq!(c.invalidate(0), None);
        c.set_state(0, LineState::Modified);
        assert_eq!(c.resident(), 0, "set_state must not create line 0");
        assert_eq!(c.insert(0, LineState::Shared), None);
        assert_eq!(c.lookup(0), Some(LineState::Shared));
        assert_eq!(c.resident(), 1);
        assert_eq!(c.invalidate(0), Some(LineState::Shared));
        assert_eq!(c.lookup(0), None);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut caches = tiny();
        let mut c = caches.l1d(0);
        // lines 0, 2, 4 all map to set 0 (2 sets => even lines to set 0)
        c.insert(ln(0), LineState::Shared);
        c.insert(ln(2), LineState::Shared);
        c.lookup(ln(0)); // make line 2 the LRU
        let victim = c.insert(ln(4), LineState::Shared);
        assert_eq!(victim, Some((ln(2), LineState::Shared)));
        assert!(c.probe(ln(0)).is_some());
        assert!(c.probe(ln(4)).is_some());
        assert!(c.probe(ln(2)).is_none());
    }

    #[test]
    fn dirty_eviction_reported() {
        let mut caches = tiny();
        let mut c = caches.l1d(0);
        c.insert(ln(0), LineState::Modified);
        c.insert(ln(2), LineState::Shared);
        let victim = c.insert(ln(4), LineState::Shared);
        assert_eq!(victim, Some((ln(0), LineState::Modified)));
        assert_eq!(c.stats().dirty_evictions, 1);
    }

    #[test]
    fn modified_victim_comes_back_with_its_flag_bits_stripped() {
        let mut caches = tiny();
        let mut c = caches.l1d(0);
        // Lines 6, 8 and 10 share set 0; line 6 goes Modified through an
        // upgrade rather than a Modified fill.
        c.insert(ln(6), LineState::Shared);
        c.set_state(ln(6), LineState::Modified);
        c.insert(ln(8), LineState::Shared);
        let victim = c.insert(ln(10), LineState::Shared);
        assert_eq!(victim, Some((ln(6), LineState::Modified)));
        // A later Shared victim carries no stale Modified flag either.
        let victim = c.insert(ln(12), LineState::Shared);
        assert_eq!(victim, Some((ln(8), LineState::Shared)));
        assert_eq!(c.stats().dirty_evictions, 1);
    }

    #[test]
    fn invalidate_removes_line() {
        let mut caches = tiny();
        let mut c = caches.l1d(0);
        c.insert(ln(1), LineState::Shared);
        assert_eq!(c.invalidate(ln(1)), Some(LineState::Shared));
        assert_eq!(c.invalidate(ln(1)), None);
        assert_eq!(c.lookup(ln(1)), None);
        assert_eq!(c.stats().invalidations, 1);
    }

    #[test]
    fn set_state_transitions() {
        let mut caches = tiny();
        let mut c = caches.l1d(0);
        c.insert(ln(3), LineState::Shared);
        c.set_state(ln(3), LineState::Modified);
        assert_eq!(c.probe(ln(3)), Some(LineState::Modified));
        c.set_state(ln(3), LineState::Shared);
        assert_eq!(c.probe(ln(3)), Some(LineState::Shared));
        // absent line: no-op
        c.set_state(ln(5), LineState::Modified);
        assert_eq!(c.probe(ln(5)), None);
    }

    #[test]
    fn reinsert_refreshes_without_eviction() {
        let mut caches = tiny();
        let mut c = caches.l1d(0);
        c.insert(ln(0), LineState::Shared);
        c.insert(ln(2), LineState::Shared);
        assert_eq!(c.insert(ln(0), LineState::Modified), None);
        assert_eq!(c.probe(ln(0)), Some(LineState::Modified));
        assert_eq!(c.resident(), 2);
    }

    #[test]
    fn probe_does_not_touch_stats_or_lru() {
        let mut caches = tiny();
        let mut c = caches.l1d(0);
        c.insert(ln(0), LineState::Shared);
        c.insert(ln(2), LineState::Shared);
        let before = c.stats();
        c.probe(ln(0));
        assert_eq!(c.stats(), before);
        // line 0 is still LRU (insert order), so probing it must not save it
        let victim = c.insert(ln(4), LineState::Shared);
        assert_eq!(victim.map(|(l, _)| l), Some(ln(0)));
    }

    #[test]
    fn sets_are_independent() {
        let mut caches = tiny();
        let mut c = caches.l1d(0);
        c.insert(ln(0), LineState::Shared); // set 0
        c.insert(ln(1), LineState::Shared); // set 1
        c.insert(ln(2), LineState::Shared); // set 0
        c.insert(ln(3), LineState::Shared); // set 1
        assert_eq!(c.resident(), 4);
        assert_eq!(c.stats().evictions, 0);
    }

    #[test]
    fn consecutive_line_addresses_fill_distinct_sets() {
        // regression: the set index must come from the line number, so a
        // contiguous array larger than one set's worth of ways does not
        // thrash two ways forever
        let mut caches = caches_with_l1d(CacheConfig {
            size_bytes: 64 * 64, // 64 lines, 2-way, 32 sets
            ways: 2,
            latency: 1,
        });
        let mut c = caches.l1d(0);
        for i in 0..64u64 {
            c.insert(ln(i), LineState::Shared);
        }
        assert_eq!(c.resident(), 64, "all 64 lines must be resident");
        assert_eq!(c.stats().evictions, 0);
    }

    #[test]
    fn neighbouring_caches_in_the_arena_stay_separate() {
        let mut caches = Caches::new(&SimConfig::with_cores(2));
        // Fill every set of core 0's L1D, so both of its arena neighbours
        // (nothing below it, core 1's L1D above it) see a full range.
        let lines = SimConfig::default().l1d.lines();
        for i in 0..lines {
            caches.l1d(0).insert(ln(i), LineState::Modified);
        }
        assert_eq!(caches.l1d(0).resident(), lines as usize);
        for i in 0..lines {
            assert_eq!(caches.l1d(1).lookup(ln(i)), None, "line {i}");
            assert_eq!(caches.l1i(0).probe(ln(i)), None, "line {i}");
        }
        assert_eq!(caches.l1d(1).resident(), 0);
        assert_eq!(caches.l1d(1).stats().misses, lines);
        assert_eq!(caches.l1d(0).stats().misses, 0);
        // And the other way round: core 1's fill leaves core 0's untouched.
        caches.l1d(1).insert(ln(0), LineState::Shared);
        assert_eq!(caches.l1d(0).probe(ln(0)), Some(LineState::Modified));
        assert_eq!(caches.l3().resident(), 0);
    }
}

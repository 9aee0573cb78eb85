//! The engine's event queue: a calendar (bucketed) queue keyed by cycle.
//!
//! ## Ordering contract
//!
//! The queue is a strict priority queue over `(cycle, seq)`, where `seq` is
//! a monotonically increasing sequence number assigned at push time: events
//! at the same cycle drain in the order they were scheduled. This is the
//! exact order the old `BinaryHeap<Reverse<Scheduled>>` produced, and the
//! barrier filter's invalidate-before-fill guarantee (machine.rs module
//! docs) depends on it. `seq` is unique per event, so the order is *total*:
//! there are no unstable ties at equal `(cycle, seq)`, and bucket rotation
//! cannot reorder anything.
//!
//! ## Calendar structure ([`CalendarQueue`])
//!
//! Near-future events — the overwhelming majority: instruction retires a
//! handful of cycles out, bus grants, cache latencies — land in a ring of
//! `WINDOW` per-cycle buckets (`push` is an append + a bit set; `pop` is a
//! bitset scan + a front removal). Far-future events (deep bus backlogs,
//! hook deadlines, memory round trips past the window) go to a small
//! overflow heap and migrate into the ring as the cursor approaches:
//!
//! * every in-window event is in the ring, every event at
//!   `cycle >= base + WINDOW` is in the overflow heap;
//! * `base` never exceeds the earliest pending cycle, so a bucket holds
//!   events of exactly one cycle and append order within it is `seq` order;
//! * overflow events migrate via a binary insertion on `seq`, preserving
//!   the total order even though they arrive "late".

use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Ring capacity in cycles. Power of two; sized so that common latencies
/// (L1/L2/L3 hits, bus grants, the 138-cycle memory round trip, short hook
/// deadlines) stay in-window even under queueing backlogs, while keeping
/// the bucket-header array small enough to live in cache (the engine
/// touches a bucket per event; 512 deque headers are 16 KiB).
const WINDOW: u64 = 512;
const WORDS: usize = (WINDOW as usize) / 64;

/// A far-future event parked in the overflow heap, ordered by
/// `(cycle, seq)` — the same total order the ring drains in.
#[derive(Debug, PartialEq, Eq)]
struct Far<T: Eq> {
    cycle: u64,
    seq: u64,
    item: T,
}

impl<T: Eq> Ord for Far<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.cycle, self.seq).cmp(&(other.cycle, other.seq))
    }
}

impl<T: Eq> PartialOrd for Far<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Calendar queue over `(cycle, seq)` with FIFO semantics per cycle.
#[derive(Debug)]
pub(crate) struct CalendarQueue<T: Eq> {
    /// `WINDOW` per-cycle buckets; bucket `cycle % WINDOW` holds the events
    /// of one in-window cycle, sorted by (and in practice appended in)
    /// `seq` order. Deques, because the engine drains each bucket from the
    /// front one event at a time (`Vec::remove(0)` would shift the tail on
    /// every pop).
    buckets: Vec<VecDeque<(u64, T)>>,
    /// One bit per bucket: set iff the bucket is non-empty.
    occupied: [u64; WORDS],
    /// Lower edge of the ring window. Invariant: `base` never exceeds the
    /// earliest pending cycle, and only grows.
    base: u64,
    /// Events at `cycle >= base + WINDOW`.
    overflow: BinaryHeap<Reverse<Far<T>>>,
    /// Cycle of the earliest overflow event (`u64::MAX` when empty), so the
    /// per-pop migration check is a register compare instead of a heap
    /// peek.
    overflow_min: u64,
    /// Last assigned sequence number (0 = none yet).
    seq: u64,
    len: usize,
    /// Memoized [`next_cycle`](CalendarQueue::next_cycle) result (`None` =
    /// not computed). The engine peeks then pops every event; caching the
    /// scan halves the bitset walks. A push can only *lower* the minimum,
    /// so it folds into the memo; a pop invalidates it.
    next_memo: Cell<Option<u64>>,
}

impl<T: Eq> CalendarQueue<T> {
    pub fn new() -> CalendarQueue<T> {
        CalendarQueue {
            buckets: (0..WINDOW).map(|_| VecDeque::new()).collect(),
            occupied: [0; WORDS],
            base: 0,
            overflow: BinaryHeap::new(),
            overflow_min: u64::MAX,
            seq: 0,
            len: 0,
            next_memo: Cell::new(None),
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    /// Schedule `item` at `cycle`, after everything already scheduled for
    /// that cycle. `cycle` must not precede an already-popped cycle.
    pub fn push(&mut self, cycle: u64, item: T) {
        assert!(
            cycle >= self.base,
            "event scheduled at cycle {cycle} behind the queue cursor {}",
            self.base
        );
        self.seq += 1;
        let seq = self.seq;
        if cycle - self.base < WINDOW {
            let b = (cycle % WINDOW) as usize;
            self.buckets[b].push_back((seq, item));
            self.occupied[b / 64] |= 1 << (b % 64);
        } else {
            self.overflow.push(Reverse(Far { cycle, seq, item }));
            self.overflow_min = self.overflow_min.min(cycle);
        }
        self.len += 1;
        if let Some(memo) = self.next_memo.get() {
            if cycle < memo {
                self.next_memo.set(Some(cycle));
            }
        }
    }

    /// True iff every pending event lies strictly after `cycle` (vacuously
    /// true when empty). This is the burst-fast-path precondition
    /// (machine.rs): an event the engine would push at `cycle` and
    /// immediately pop — it would be the unique minimum, and same-cycle
    /// FIFO order gives queued events at `cycle` priority only when they
    /// exist — may instead be consumed in place.
    pub fn all_later_than(&self, cycle: u64) -> bool {
        self.next_cycle().is_none_or(|head| head > cycle)
    }

    /// Cycle of the earliest pending event.
    pub fn next_cycle(&self) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        if let Some(memo) = self.next_memo.get() {
            return Some(memo);
        }
        let ring = self.scan().map(|(cycle, _)| cycle);
        let over = (self.overflow_min != u64::MAX).then_some(self.overflow_min);
        let min = match (ring, over) {
            (Some(r), Some(o)) => Some(r.min(o)),
            (r, None) => r,
            (None, o) => o,
        };
        self.next_memo.set(min);
        min
    }

    /// Remove and return the earliest event *if* it is scheduled exactly
    /// at `cycle`; `None` once every pending event lies later (or the
    /// queue is empty). The run loop's same-cycle cohort drain:
    /// consecutive same-cycle pops ride the memoized minimum and the hot
    /// bucket, so a cohort costs one bitset scan total.
    pub fn pop_at(&mut self, cycle: u64) -> Option<T> {
        if self.next_cycle() != Some(cycle) {
            return None;
        }
        // The minimum is `cycle`; drain it directly instead of re-deriving
        // it through `pop` (one memoized peek per event, not two).
        self.base = cycle;
        if self.overflow_min < self.base + WINDOW {
            self.migrate_overflow();
        }
        let b = (cycle % WINDOW) as usize;
        let bucket = &mut self.buckets[b];
        let item = bucket.pop_front().map(|(_, item)| item);
        if bucket.is_empty() {
            self.occupied[b / 64] &= !(1 << (b % 64));
            self.next_memo.set(None);
        } else {
            self.next_memo.set(Some(cycle));
        }
        self.len -= 1;
        item
    }

    /// Remove and return the earliest event as `(cycle, item)`. The run
    /// loop drains through [`pop_at`](CalendarQueue::pop_at); this form
    /// remains for the queue-equivalence tests, which need the cycle back.
    #[cfg(test)]
    pub fn pop(&mut self) -> Option<(u64, T)> {
        let target = self.next_cycle()?;
        // Advance the cursor and pull every newly in-window overflow event
        // into the ring before draining the target bucket: an overflow
        // event *at* the target cycle must interleave by `seq` with the
        // bucket's direct pushes.
        self.base = target;
        if self.overflow_min < self.base + WINDOW {
            self.migrate_overflow();
        }
        let b = (target % WINDOW) as usize;
        let bucket = &mut self.buckets[b];
        let Some((_, item)) = bucket.pop_front() else {
            unreachable!("target bucket holds the minimum");
        };
        if bucket.is_empty() {
            self.occupied[b / 64] &= !(1 << (b % 64));
            self.next_memo.set(None);
        } else {
            // Bucket still holds events at `target`: it stays the minimum.
            self.next_memo.set(Some(target));
        }
        self.len -= 1;
        Some((target, item))
    }

    /// Earliest `(cycle, bucket)` in the ring, scanning the occupancy
    /// bitset circularly from the cursor.
    fn scan(&self) -> Option<(u64, usize)> {
        let start = (self.base % WINDOW) as usize;
        let (sw, sb) = (start / 64, start % 64);
        let hit = |word: usize, bits: u64| -> Option<(u64, usize)> {
            if bits == 0 {
                return None;
            }
            let b = word * 64 + bits.trailing_zeros() as usize;
            let delta = (b + WINDOW as usize - start) % WINDOW as usize;
            Some((self.base + delta as u64, b))
        };
        // The cursor's word, positions at/after the cursor.
        if let Some(found) = hit(sw, self.occupied[sw] & (!0u64 << sb)) {
            return Some(found);
        }
        // Remaining words, wrapping.
        for k in 1..WORDS {
            let w = (sw + k) % WORDS;
            if let Some(found) = hit(w, self.occupied[w]) {
                return Some(found);
            }
        }
        // The cursor's word, wrapped-around positions before the cursor.
        hit(sw, self.occupied[sw] & !(!0u64 << sb))
    }

    /// Move every overflow event that now fits the window into the ring,
    /// inserting by `seq` so late arrivals interleave correctly with the
    /// bucket's existing (seq-ordered) contents.
    fn migrate_overflow(&mut self) {
        while let Some(Reverse(head)) = self.overflow.peek() {
            if head.cycle - self.base >= WINDOW {
                break;
            }
            let Some(Reverse(f)) = self.overflow.pop() else {
                unreachable!("peeked above");
            };
            let b = (f.cycle % WINDOW) as usize;
            let bucket = &mut self.buckets[b];
            let pos = bucket.partition_point(|&(s, _)| s < f.seq);
            bucket.insert(pos, (f.seq, f.item));
            self.occupied[b / 64] |= 1 << (b % 64);
        }
        self.overflow_min = self.overflow.peek().map_or(u64::MAX, |Reverse(f)| f.cycle);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BinaryHeap;

    #[test]
    fn same_cycle_drains_in_push_order() {
        let mut q = CalendarQueue::new();
        q.push(5, "a");
        q.push(5, "b");
        q.push(3, "c");
        q.push(5, "d");
        let drained: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(drained, vec![(3, "c"), (5, "a"), (5, "b"), (5, "d")]);
    }

    #[test]
    fn overflow_events_interleave_by_push_order() {
        let mut q = CalendarQueue::new();
        // Scheduled while far future -> overflow heap.
        q.push(WINDOW + 10, 1u32);
        // Drain the queue forward so the window covers WINDOW + 10, then
        // schedule a same-cycle event directly into the ring.
        q.push(20, 0);
        assert_eq!(q.pop(), Some((20, 0)));
        q.push(WINDOW + 10, 2);
        assert_eq!(q.pop(), Some((WINDOW + 10, 1)), "earlier push first");
        assert_eq!(q.pop(), Some((WINDOW + 10, 2)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn matches_reference_heap_on_a_mixed_workload() {
        // Deterministic pseudo-random workload compared against the
        // reference semantics (a heap over (cycle, seq)).
        let mut q = CalendarQueue::new();
        let mut reference: BinaryHeap<Reverse<(u64, u64, u32)>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut rnd = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut now = 0u64;
        for i in 0..5000u32 {
            // Mostly near-future pushes, occasionally far past the window.
            let delta = match rnd() % 10 {
                0 => WINDOW + rnd() % (4 * WINDOW),
                1..=3 => rnd() % 600,
                _ => rnd() % 8,
            };
            q.push(now + delta, i);
            seq += 1;
            reference.push(Reverse((now + delta, seq, i)));
            if rnd() % 3 != 0 {
                let got = q.pop();
                let Some(Reverse((cycle, _, item))) = reference.pop() else {
                    panic!("reference empty while queue was not");
                };
                assert_eq!(got, Some((cycle, item)));
                now = cycle;
            }
        }
        while let Some(Reverse((cycle, _, item))) = reference.pop() {
            assert_eq!(q.pop(), Some((cycle, item)));
        }
        assert_eq!(q.pop(), None);
        assert_eq!(q.len(), 0);
    }

    #[test]
    #[should_panic(expected = "behind the queue cursor")]
    fn pushing_behind_the_cursor_is_a_bug() {
        let mut q = CalendarQueue::new();
        q.push(100, ());
        q.pop();
        q.push(99, ());
    }
}

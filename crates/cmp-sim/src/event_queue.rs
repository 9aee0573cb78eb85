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
//! * overflow events migrate in `(cycle, seq)` order the moment the cursor
//!   brings their cycle into the window, before anything can be pushed
//!   there directly, so a migrated event lands in an empty bucket or behind
//!   an earlier migrated one: appending it keeps the bucket in `seq` order.
//!
//! Ring events live in one slab of nodes: a bucket is a singly linked list
//! through the slab, and drained nodes go on an intrusive free list that
//! the next push reuses. The ring therefore holds as many nodes as the
//! most events it ever held at once (1,024–1,535 in a 1024-core Figure 4
//! run), not every bucket's own high-water mark.

use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Ring capacity in cycles. Power of two; sized so that common latencies
/// (L1/L2/L3 hits, bus grants, the 138-cycle memory round trip, short hook
/// deadlines) stay in-window even under queueing backlogs, while keeping
/// the bucket array small enough to live in cache (the engine touches a
/// bucket per event; 512 head/tail pairs are 4 KiB).
const WINDOW: u64 = 512;
const WORDS: usize = (WINDOW as usize) / 64;

/// No node: the end of a bucket's list, an empty bucket, or the end of the
/// free list.
const NIL: u32 = u32::MAX;

/// A slab slot: a ring event linked to the next event of its bucket, or a
/// free slot (`item` taken) linked to the next free slot.
#[derive(Debug)]
struct Node<T> {
    seq: u64,
    next: u32,
    item: Option<T>,
}

/// One cycle's events: the first and last node of its list (`NIL` when
/// empty).
#[derive(Debug)]
struct Bucket {
    head: u32,
    tail: u32,
}

const EMPTY_BUCKET: Bucket = Bucket {
    head: NIL,
    tail: NIL,
};

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
    /// `WINDOW` per-cycle buckets; bucket `cycle % WINDOW` lists the events
    /// of one in-window cycle in `seq` order.
    buckets: [Bucket; WINDOW as usize],
    /// Every ring event, plus the free slots drained events left behind.
    nodes: Vec<Node<T>>,
    /// Head of the free list threaded through `nodes` (`NIL` = none).
    free: u32,
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
            buckets: [EMPTY_BUCKET; WINDOW as usize],
            nodes: Vec::new(),
            free: NIL,
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
            self.append(cycle, seq, item);
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
        // Advance the cursor and pull every newly in-window overflow event
        // into the ring before draining the bucket: the minimum itself may
        // still sit in the overflow heap.
        self.base = cycle;
        if self.overflow_min < self.base + WINDOW {
            self.migrate_overflow();
        }
        let b = (cycle % WINDOW) as usize;
        let bucket = &mut self.buckets[b];
        let n = bucket.head as usize;
        let node = &mut self.nodes[n];
        let item = node.item.take().expect("the minimum's bucket holds it");
        bucket.head = node.next;
        node.next = self.free;
        self.free = n as u32;
        if bucket.head == NIL {
            bucket.tail = NIL;
            self.occupied[b / 64] &= !(1 << (b % 64));
            self.next_memo.set(None);
        } else {
            // The bucket still holds events at `cycle`: it stays the minimum.
            self.next_memo.set(Some(cycle));
        }
        self.len -= 1;
        Some(item)
    }

    /// Remove and return the earliest event as `(cycle, item)`. The run
    /// loop drains through [`pop_at`](CalendarQueue::pop_at); this form
    /// remains for the queue-equivalence tests, which need the cycle back.
    #[cfg(test)]
    pub fn pop(&mut self) -> Option<(u64, T)> {
        let cycle = self.next_cycle()?;
        self.pop_at(cycle).map(|item| (cycle, item))
    }

    /// Slab nodes allocated so far, free ones included: the ring's peak
    /// number of simultaneously pending events.
    #[cfg(test)]
    fn slab_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Append event `seq` to the bucket of in-window `cycle`, in a free
    /// slab node if there is one. `seq` must exceed every `seq` already in
    /// that bucket.
    fn append(&mut self, cycle: u64, seq: u64, item: T) {
        let node = Node {
            seq,
            next: NIL,
            item: Some(item),
        };
        let n = if self.free == NIL {
            self.nodes.push(node);
            u32::try_from(self.nodes.len() - 1).expect("fewer than 2^32 pending ring events")
        } else {
            let n = self.free;
            self.free = std::mem::replace(&mut self.nodes[n as usize], node).next;
            n
        };
        let b = (cycle % WINDOW) as usize;
        let bucket = &mut self.buckets[b];
        if bucket.tail == NIL {
            bucket.head = n;
            self.occupied[b / 64] |= 1 << (b % 64);
        } else {
            let tail = &mut self.nodes[bucket.tail as usize];
            debug_assert!(tail.seq < seq, "a bucket drains in seq order");
            tail.next = n;
        }
        bucket.tail = n;
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

    /// Move every overflow event that now fits the window into the ring.
    /// They leave the heap in `(cycle, seq)` order into buckets that no
    /// direct push has reached yet (module docs), so appending keeps every
    /// bucket in `seq` order.
    fn migrate_overflow(&mut self) {
        while let Some(Reverse(head)) = self.overflow.peek() {
            if head.cycle - self.base >= WINDOW {
                break;
            }
            let Some(Reverse(f)) = self.overflow.pop() else {
                unreachable!("peeked above");
            };
            self.append(f.cycle, f.seq, f.item);
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
    fn slab_holds_the_peak_of_live_events_not_every_buckets_peak() {
        // Each cycle pushes and drains 1,024 events, as a 1024-core machine
        // whose cores all step every cycle does. Per-bucket storage would
        // keep 1,024 entries in each of the 512 buckets the cycles pass
        // through; the slab reuses the same 1,024 nodes throughout.
        let mut q = CalendarQueue::new();
        for cycle in 0..WINDOW {
            for core in 0..1024u32 {
                q.push(cycle, core);
            }
            for core in 0..1024u32 {
                assert_eq!(q.pop_at(cycle), Some(core), "cycle {cycle}");
            }
            assert_eq!(q.pop_at(cycle), None);
            assert!(
                q.slab_nodes() <= 1024,
                "cycle {cycle}: {} nodes",
                q.slab_nodes()
            );
        }
        assert_eq!(q.len(), 0);
        assert_eq!(q.slab_nodes(), 1024);
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

//! The benchmark's counting trace sink.
//!
//! Attached to a machine through the `observe` hook of
//! `kernels::RunAttachments`, it counts every trace event by kind (and
//! the copies each upgrade invalidated), then forwards the event to an
//! optional inner sink such as the race detector. The counts live behind
//! a shared handle so they can be read after the machine consumed the
//! sink inside a kernel run.

use std::cell::RefCell;
use std::rc::Rc;

use cmp_sim::{TraceEvent, TraceSink};

/// Event kinds, in the order of [`EventCounts::by_kind`]; the names are
/// the `trace.<kind>_per_kinstr` metric stems.
pub const KINDS: [&str; 14] = [
    "d_miss",
    "i_miss",
    "invalidate",
    "park",
    "release",
    "error",
    "upgrade",
    "c2c",
    "hw_arrive",
    "hw_release",
    "episode_end",
    "data_read",
    "data_write",
    "serviced",
];

/// Index of `ev`'s kind in [`KINDS`].
fn kind(ev: &TraceEvent) -> usize {
    match ev {
        TraceEvent::DMiss { .. } => 0,
        TraceEvent::IMiss { .. } => 1,
        TraceEvent::Invalidate { .. } => 2,
        TraceEvent::Parked { .. } => 3,
        TraceEvent::Released { .. } => 4,
        TraceEvent::Errored { .. } => 5,
        TraceEvent::Upgrade { .. } => 6,
        TraceEvent::CacheToCache { .. } => 7,
        TraceEvent::HwBarArrive { .. } => 8,
        TraceEvent::HwBarRelease { .. } => 9,
        TraceEvent::EpisodeEnd { .. } => 10,
        TraceEvent::DataRead { .. } => 11,
        TraceEvent::DataWrite { .. } => 12,
        TraceEvent::Serviced { .. } => 13,
    }
}

/// Event counts of one or more observed machines.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct EventCounts {
    /// Events per kind, indexed like [`KINDS`].
    pub by_kind: [u64; KINDS.len()],
    /// Shared copies invalidated, summed over upgrade events.
    pub upgrade_copies: u64,
}

impl EventCounts {
    /// Add `other` into `self`.
    pub fn add(&mut self, other: &EventCounts) {
        for (a, b) in self.by_kind.iter_mut().zip(other.by_kind) {
            *a += b;
        }
        self.upgrade_copies += other.upgrade_copies;
    }

    /// Count of events of kind `name` (one of [`KINDS`]).
    ///
    /// # Panics
    ///
    /// Panics if `name` is not a kind.
    pub fn get(&self, name: &str) -> u64 {
        let i = KINDS.iter().position(|k| *k == name).expect("known kind");
        self.by_kind[i]
    }
}

/// Counts events into a shared [`EventCounts`] and forwards them.
pub struct CountingSink {
    counts: Rc<RefCell<EventCounts>>,
    inner: Option<Box<dyn TraceSink>>,
}

impl CountingSink {
    /// A sink counting into `counts`, forwarding to `inner` if given.
    pub fn new(counts: Rc<RefCell<EventCounts>>, inner: Option<Box<dyn TraceSink>>) -> Self {
        CountingSink { counts, inner }
    }
}

impl TraceSink for CountingSink {
    fn record(&mut self, cycle: u64, ev: &TraceEvent) {
        {
            let mut c = self.counts.borrow_mut();
            c.by_kind[kind(ev)] += 1;
            if let TraceEvent::Upgrade { copies, .. } = ev {
                c.upgrade_copies += u64::from(*copies);
            }
        }
        if let Some(inner) = self.inner.as_mut() {
            inner.record(cycle, ev);
        }
    }

    fn flush(&mut self) {
        if let Some(inner) = self.inner.as_mut() {
            inner.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmp_sim::RingSink;

    #[test]
    fn counts_by_kind_and_forwards() {
        let counts = Rc::new(RefCell::new(EventCounts::default()));
        let mut sink = CountingSink::new(Rc::clone(&counts), Some(Box::new(RingSink::new(8))));
        sink.record(1, &TraceEvent::DMiss { core: 0, line: 64 });
        for (core, copies) in [(1, 3), (2, 2)] {
            let ev = TraceEvent::Upgrade {
                core,
                line: 64,
                copies,
            };
            sink.record(2, &ev);
        }
        let c = *counts.borrow();
        assert_eq!(
            (c.get("d_miss"), c.get("upgrade"), c.upgrade_copies),
            (1, 2, 5)
        );
        assert_eq!(c.by_kind.iter().sum::<u64>(), 3);
        let inner = sink.inner.as_mut().expect("inner sink");
        assert_eq!(inner.snapshot().len(), 3, "every event is forwarded");

        let mut total = EventCounts::default();
        total.add(&c);
        total.add(&c);
        assert_eq!((total.get("upgrade"), total.upgrade_copies), (4, 10));
    }
}

//! Streaming trace sinks and per-barrier-episode metrics.
//!
//! The paper's entire argument rests on seeing *inside* barrier episodes:
//! Figure 4 is a latency decomposition and Table 1 an event-cost budget,
//! both observability artifacts. This module supplies that layer for the
//! simulator: a streaming [`TraceSink`] that the caller constructs and
//! attaches with [`MachineBuilder::with_trace_sink`](crate::MachineBuilder::with_trace_sink),
//! and that the engine pushes events through. A machine with no sink
//! attached records nothing. Two sinks ship here:
//!
//! * [`RingSink`] — keep the last *N* events in memory (bounded, for
//!   tests and post-mortem inspection of long runs);
//! * [`ChromeTraceSink`] — stream Chrome/Perfetto trace-event JSON to a
//!   file, viewable in `chrome://tracing` or <https://ui.perfetto.dev>.
//!
//! Independently of any sink, the engine aggregates a per-barrier-episode
//! metrics layer ([`EpisodeStats`]): arrival spread, park/release/service
//! counts, release fan-out latency and invalidation traffic, per episode
//! and in aggregate. Sinks and episode accounting are pure observers: they
//! never touch a simulated resource, so enabling them cannot change a
//! cycle count or a [`MachineStats`](crate::MachineStats) digest — the
//! determinism suite enforces exactly that.

use std::collections::VecDeque;
use std::fs::File;
use std::io::{self, BufWriter, Write};

use crate::fastmap::FxHashMap;
use crate::json::json_escape;

/// Memory-system and barrier trace events, streamed to the attached
/// [`TraceSink`], if any. Used by tests to assert
/// *mechanisms* (e.g. "spinning generates no bus traffic", "the filter
/// parked exactly one fill per thread per barrier") and by the Chrome
/// sink to render timelines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A data-side miss left core `core` for `line`.
    DMiss {
        /// Requesting core.
        core: usize,
        /// Line address.
        line: u64,
    },
    /// An instruction-side miss left core `core` for `line`.
    IMiss {
        /// Requesting core.
        core: usize,
        /// Line address.
        line: u64,
    },
    /// An `icbi`/`dcbi` invalidation message was sent for `line`.
    Invalidate {
        /// Issuing core.
        core: usize,
        /// Line address.
        line: u64,
        /// True for `icbi`.
        icache: bool,
    },
    /// A fill was parked at a bank hook.
    Parked {
        /// Requesting core.
        core: usize,
        /// Line address.
        line: u64,
    },
    /// A parked fill was released (serviced) by a bank hook.
    Released {
        /// Requesting core.
        core: usize,
        /// Line address.
        line: u64,
    },
    /// A parked fill was completed with the §3.3.4 error sentinel (the
    /// hardware-timeout path) instead of data.
    Errored {
        /// Requesting core.
        core: usize,
        /// Line address.
        line: u64,
    },
    /// An upgrade invalidated `copies` shared copies of `line`.
    Upgrade {
        /// Writing core.
        core: usize,
        /// Line address.
        line: u64,
        /// Number of remote copies invalidated.
        copies: u32,
    },
    /// A miss was satisfied by a remote dirty L1 (cache-to-cache
    /// transfer through the shared controller).
    CacheToCache {
        /// Requesting core.
        core: usize,
        /// Core that supplied the dirty line.
        owner: usize,
        /// Line address.
        line: u64,
    },
    /// A data value was read from memory (load, `fld` or `ll` retiring,
    /// whether it hit or came back from a miss). Carries the byte address
    /// and width so the race detector can compare overlapping accesses.
    DataRead {
        /// Reading core.
        core: usize,
        /// Byte address of the access.
        addr: u64,
        /// Access width in bytes.
        bytes: u64,
    },
    /// A data value was written to memory (store, `fst`, or a successful
    /// `sc`).
    DataWrite {
        /// Writing core.
        core: usize,
        /// Byte address of the access.
        addr: u64,
        /// Access width in bytes.
        bytes: u64,
    },
    /// A fill arrived at an open bank hook and was serviced straight
    /// through without parking (typically the last arriver of an episode).
    Serviced {
        /// Requesting core.
        core: usize,
        /// Line address.
        line: u64,
    },
    /// A core signalled the dedicated barrier network (`hwbar`).
    HwBarArrive {
        /// Arriving core.
        core: usize,
        /// Barrier group id.
        id: u16,
    },
    /// The dedicated barrier network released a stalled core (all members
    /// of group `id` had arrived).
    HwBarRelease {
        /// Resumed core.
        core: usize,
        /// Barrier group id.
        id: u16,
    },
    /// A barrier episode completed (at a filter bank or the dedicated
    /// network). Carries the full per-episode decomposition; the same
    /// numbers feed the [`EpisodeStats`] aggregate.
    EpisodeEnd {
        /// L2 bank of the hook that ran the episode, or `None` for the
        /// dedicated hardware network.
        bank: Option<usize>,
        /// Cycle the episode opened (first parked fill / first `hwbar`
        /// arrival).
        opened: u64,
        /// Cycle of the event that released the episode (last arrival).
        closed: u64,
        /// Fills parked during the episode.
        parks: u32,
        /// Parked fills released by the closing burst (or cores resumed,
        /// for the dedicated network).
        releases: u32,
        /// Parked fills completed with the error sentinel (timeouts).
        errors: u32,
        /// Invalidation messages the hook observed while the episode was
        /// open.
        invalidations: u32,
        /// Cycles from `closed` until the last released fill (or resumed
        /// core) was delivered — the release fan-out latency.
        fanout: u64,
    },
}

/// A streaming consumer of [`TraceEvent`]s.
///
/// Sinks are observers only: a `record` implementation must not fail and
/// must not feed anything back into the simulation. The engine calls
/// `record` once per event with the current cycle; it never buffers on
/// the sink's behalf.
pub trait TraceSink {
    /// Consume one event recorded at `cycle`.
    fn record(&mut self, cycle: u64, ev: &TraceEvent);

    /// The retained events, oldest first, for sinks that store any (the
    /// default stores none). Borrows instead of cloning: inspecting a
    /// long traced run costs nothing. Takes `&mut self` so ring-buffer
    /// sinks may linearize their storage in place.
    fn snapshot(&mut self) -> &[(u64, TraceEvent)] {
        &[]
    }

    /// Flush any buffered output (file sinks).
    fn flush(&mut self) {}
}

/// Bounded in-memory sink: keeps the most recent `capacity` events and
/// counts how many were dropped. The replacement for the unbounded
/// `Vec<TraceEvent>` the machine used to carry.
#[derive(Debug)]
pub struct RingSink {
    capacity: usize,
    buf: VecDeque<(u64, TraceEvent)>,
    dropped: u64,
}

impl RingSink {
    /// A ring retaining at most `capacity` events (at least one).
    pub fn new(capacity: usize) -> RingSink {
        RingSink {
            capacity: capacity.max(1),
            buf: VecDeque::new(),
            dropped: 0,
        }
    }

    /// Events dropped because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Number of events currently retained.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the ring holds no events.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

impl TraceSink for RingSink {
    fn record(&mut self, cycle: u64, ev: &TraceEvent) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back((cycle, *ev));
    }

    fn snapshot(&mut self) -> &[(u64, TraceEvent)] {
        self.buf.make_contiguous()
    }
}

/// Streams events as Chrome trace-event JSON (the "JSON Array Format"),
/// loadable in `chrome://tracing` and Perfetto. One simulated cycle is
/// rendered as one microsecond of trace time.
///
/// Most events become instant events (`ph: "i"`) on the issuing core's
/// row (pid 0); [`TraceEvent::EpisodeEnd`] becomes a duration event
/// (`ph: "X"`) spanning open → last delivery on a per-bank row of the
/// "barrier episodes" process (pid 1). The array is closed on drop; the
/// format explicitly tolerates a missing `]`, so a trace cut short by a
/// panic still loads.
pub struct ChromeTraceSink {
    w: BufWriter<File>,
    events: u64,
}

impl std::fmt::Debug for ChromeTraceSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChromeTraceSink")
            .field("events", &self.events)
            .finish_non_exhaustive()
    }
}

/// Process id used for per-core instant events.
const PID_CORES: u32 = 0;
/// Process id used for barrier-episode duration events.
const PID_EPISODES: u32 = 1;
/// Thread row for dedicated-network episodes under [`PID_EPISODES`].
const TID_HW_NETWORK: u32 = 999;

impl ChromeTraceSink {
    /// Create (truncate) `path` and write the trace header.
    ///
    /// # Errors
    ///
    /// File creation or write failures.
    pub fn create(path: &str) -> io::Result<ChromeTraceSink> {
        let mut w = BufWriter::new(File::create(path)?);
        w.write_all(b"[\n")?;
        for (pid, name) in [(PID_CORES, "cores"), (PID_EPISODES, "barrier episodes")] {
            writeln!(
                w,
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
                 \"args\":{{\"name\":\"{}\"}}}},",
                json_escape(name)
            )?;
        }
        Ok(ChromeTraceSink { w, events: 0 })
    }

    fn instant(&mut self, cycle: u64, name: &str, tid: usize, args: &str) {
        // Ignore write errors: a sink must never fail the simulation; a
        // torn tail is recovered by the format's missing-`]` tolerance.
        let _ = writeln!(
            self.w,
            "{{\"name\":\"{name}\",\"cat\":\"mem\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{cycle},\
             \"pid\":{PID_CORES},\"tid\":{tid},\"args\":{{{args}}}}},"
        );
        self.events += 1;
    }
}

impl TraceSink for ChromeTraceSink {
    fn record(&mut self, cycle: u64, ev: &TraceEvent) {
        match *ev {
            TraceEvent::DMiss { core, line } => {
                self.instant(cycle, "d-miss", core, &format!("\"line\":\"{line:#x}\""));
            }
            TraceEvent::IMiss { core, line } => {
                self.instant(cycle, "i-miss", core, &format!("\"line\":\"{line:#x}\""));
            }
            TraceEvent::Invalidate { core, line, icache } => {
                let name = if icache { "icbi" } else { "dcbi" };
                self.instant(cycle, name, core, &format!("\"line\":\"{line:#x}\""));
            }
            TraceEvent::Parked { core, line } => {
                self.instant(cycle, "park", core, &format!("\"line\":\"{line:#x}\""));
            }
            TraceEvent::Released { core, line } => {
                self.instant(cycle, "release", core, &format!("\"line\":\"{line:#x}\""));
            }
            TraceEvent::Errored { core, line } => {
                self.instant(
                    cycle,
                    "fill-error",
                    core,
                    &format!("\"line\":\"{line:#x}\""),
                );
            }
            TraceEvent::Upgrade { core, line, copies } => {
                self.instant(
                    cycle,
                    "upgrade",
                    core,
                    &format!("\"line\":\"{line:#x}\",\"copies\":{copies}"),
                );
            }
            TraceEvent::CacheToCache { core, owner, line } => {
                self.instant(
                    cycle,
                    "c2c-transfer",
                    core,
                    &format!("\"line\":\"{line:#x}\",\"owner\":{owner}"),
                );
            }
            TraceEvent::HwBarArrive { core, id } => {
                self.instant(cycle, "hwbar-arrive", core, &format!("\"group\":{id}"));
            }
            TraceEvent::HwBarRelease { core, id } => {
                self.instant(cycle, "hwbar-release", core, &format!("\"group\":{id}"));
            }
            TraceEvent::DataRead { core, addr, bytes } => {
                self.instant(
                    cycle,
                    "data-read",
                    core,
                    &format!("\"addr\":\"{addr:#x}\",\"bytes\":{bytes}"),
                );
            }
            TraceEvent::DataWrite { core, addr, bytes } => {
                self.instant(
                    cycle,
                    "data-write",
                    core,
                    &format!("\"addr\":\"{addr:#x}\",\"bytes\":{bytes}"),
                );
            }
            TraceEvent::Serviced { core, line } => {
                self.instant(cycle, "serviced", core, &format!("\"line\":\"{line:#x}\""));
            }
            TraceEvent::EpisodeEnd {
                bank,
                opened,
                closed,
                parks,
                releases,
                errors,
                invalidations,
                fanout,
            } => {
                let tid = bank.map_or(TID_HW_NETWORK, |b| b as u32);
                let dur = (closed - opened) + fanout;
                let _ = writeln!(
                    self.w,
                    "{{\"name\":\"barrier episode\",\"cat\":\"barrier\",\"ph\":\"X\",\
                     \"ts\":{opened},\"dur\":{dur},\"pid\":{PID_EPISODES},\"tid\":{tid},\
                     \"args\":{{\"parks\":{parks},\"releases\":{releases},\
                     \"errors\":{errors},\"invalidations\":{invalidations},\
                     \"arrival_spread\":{spread},\"release_fanout\":{fanout}}}}},",
                    spread = closed - opened,
                );
                self.events += 1;
            }
        }
    }

    fn flush(&mut self) {
        let _ = self.w.flush();
    }
}

impl Drop for ChromeTraceSink {
    fn drop(&mut self) {
        // Close the JSON array. The format tolerates a missing bracket,
        // so failure here only costs cosmetics.
        let _ = self.w.write_all(b"{}\n]\n");
        let _ = self.w.flush();
    }
}

// ---------------------------------------------------------------------
// Per-barrier-episode metrics
// ---------------------------------------------------------------------

/// Aggregate per-barrier-episode metrics, exposed through
/// [`MachineStats`](crate::MachineStats) (and from there through the
/// kernel harness). Always collected — episode-path events are rare next
/// to instruction retirement, so this costs nothing measurable — and
/// deliberately **excluded from [`MachineStats::digest`](crate::MachineStats::digest)**, so growing
/// this layer never invalidates historical digests.
///
/// An *episode* is one pass of a barrier: at a filter bank it opens with
/// the first parked fill and closes with the hook burst that releases
/// (or times out) the parked set; at the dedicated network it spans the
/// first to the last `hwbar` arrival of a group.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct EpisodeStats {
    /// Episodes completed (filter banks + dedicated network).
    pub episodes: u64,
    /// Fills parked at hooks (arrivals that blocked).
    pub parks: u64,
    /// Parked fills released with data / cores resumed by the network.
    pub releases: u64,
    /// Parked fills completed with the §3.3.4 error sentinel.
    pub errors: u64,
    /// Fills a hook serviced directly without parking (a thread whose
    /// fill arrived after its episode had already opened the barrier —
    /// typically the last arriver of every episode).
    pub serviced: u64,
    /// Invalidation messages observed by hooks (arrival + exit signals).
    pub invalidations: u64,
    /// Sum over episodes of the arrival spread (open → close cycles).
    pub arrival_spread_total: u64,
    /// Largest single-episode arrival spread.
    pub arrival_spread_max: u64,
    /// Sum over episodes of the release fan-out (close → last delivery).
    pub release_fanout_total: u64,
    /// Largest single-episode release fan-out.
    pub release_fanout_max: u64,
    /// Parked fills cancelled by a context-switch-out (§3.3.3 recovery).
    /// Invariant for timeout-free filter runs: `parks == releases +
    /// cancellations` (the dedicated network counts releases with no
    /// parks, so whole-machine stats only satisfy it when every release
    /// came from a filter).
    pub cancellations: u64,
    /// Resumed threads whose re-issued arrival fill parked again (the
    /// barrier was still closed when the thread was switched back in).
    pub reparks: u64,
    /// Resumed threads whose re-issued arrival fill was serviced
    /// immediately (the barrier released while they were switched out).
    pub resumes_after_release: u64,
}

impl EpisodeStats {
    /// Fold `other` into this aggregate (sums sum, maxima take the max) —
    /// for combining episode stats across machines of one workload.
    pub fn merge(&mut self, other: &EpisodeStats) {
        self.episodes += other.episodes;
        self.parks += other.parks;
        self.releases += other.releases;
        self.errors += other.errors;
        self.serviced += other.serviced;
        self.invalidations += other.invalidations;
        self.arrival_spread_total += other.arrival_spread_total;
        self.arrival_spread_max = self.arrival_spread_max.max(other.arrival_spread_max);
        self.release_fanout_total += other.release_fanout_total;
        self.release_fanout_max = self.release_fanout_max.max(other.release_fanout_max);
        self.cancellations += other.cancellations;
        self.reparks += other.reparks;
        self.resumes_after_release += other.resumes_after_release;
    }

    /// Mean arrival spread per episode (first arrival to the releasing
    /// event), in cycles.
    pub fn mean_arrival_spread(&self) -> f64 {
        if self.episodes == 0 {
            0.0
        } else {
            self.arrival_spread_total as f64 / self.episodes as f64
        }
    }

    /// Mean release fan-out per episode (release trigger to last
    /// delivery), in cycles.
    pub fn mean_release_fanout(&self) -> f64 {
        if self.episodes == 0 {
            0.0
        } else {
            self.release_fanout_total as f64 / self.episodes as f64
        }
    }
}

/// An episode a bank hook currently has open.
#[derive(Debug, Clone, Copy)]
struct OpenEpisode {
    opened: u64,
    parks: u32,
    invalidations: u32,
}

/// A dedicated-network episode currently accumulating arrivals.
#[derive(Debug, Clone, Copy)]
struct HwOpen {
    opened: u64,
    arrivals: u32,
}

/// Engine-side episode accounting: per-bank open-episode state, the
/// dedicated network's in-flight groups, and the running aggregate.
#[derive(Debug)]
pub(crate) struct EpisodeTracker {
    banks: Vec<Option<OpenEpisode>>,
    hw: FxHashMap<u16, HwOpen>,
    agg: EpisodeStats,
}

impl EpisodeTracker {
    pub(crate) fn new(banks: usize) -> EpisodeTracker {
        EpisodeTracker {
            banks: vec![None; banks],
            hw: FxHashMap::default(),
            agg: EpisodeStats::default(),
        }
    }

    /// An invalidation message reached a bank that has a hook.
    pub(crate) fn note_invalidate(&mut self, bank: usize) {
        self.agg.invalidations += 1;
        if let Some(e) = self.banks[bank].as_mut() {
            e.invalidations += 1;
        }
    }

    /// A fill parked at `bank`'s hook at cycle `now`; opens an episode if
    /// none is in flight.
    pub(crate) fn note_park(&mut self, bank: usize, now: u64) {
        self.agg.parks += 1;
        let e = self.banks[bank].get_or_insert(OpenEpisode {
            opened: now,
            parks: 0,
            invalidations: 0,
        });
        e.parks += 1;
    }

    /// A hook serviced a fill directly (no park).
    pub(crate) fn note_serviced(&mut self) {
        self.agg.serviced += 1;
    }

    /// A parked fill was cancelled by a context-switch-out (§3.3.3).
    pub(crate) fn note_cancel(&mut self) {
        self.agg.cancellations += 1;
    }

    /// A resumed thread's re-issued arrival fill parked again.
    pub(crate) fn note_repark(&mut self) {
        self.agg.reparks += 1;
    }

    /// A resumed thread's re-issued arrival fill was serviced immediately
    /// because its barrier had released while it was switched out.
    pub(crate) fn note_resume_after_release(&mut self) {
        self.agg.resumes_after_release += 1;
    }

    /// A hook burst released and/or errored parked fills at cycle `closed`,
    /// with the last response delivered at `last_delivery`. Closes the
    /// bank's open episode (or synthesizes a zero-length one, e.g. for a
    /// timeout burst whose parks were cancelled) and returns the
    /// per-episode record for the trace stream.
    pub(crate) fn close_bank(
        &mut self,
        bank: usize,
        closed: u64,
        releases: u32,
        errors: u32,
        last_delivery: u64,
    ) -> TraceEvent {
        let open = self.banks[bank].take().unwrap_or(OpenEpisode {
            opened: closed,
            parks: 0,
            invalidations: 0,
        });
        let spread = closed.saturating_sub(open.opened);
        let fanout = last_delivery.saturating_sub(closed);
        self.agg.episodes += 1;
        self.agg.releases += releases as u64;
        self.agg.errors += errors as u64;
        self.agg.arrival_spread_total += spread;
        self.agg.arrival_spread_max = self.agg.arrival_spread_max.max(spread);
        self.agg.release_fanout_total += fanout;
        self.agg.release_fanout_max = self.agg.release_fanout_max.max(fanout);
        TraceEvent::EpisodeEnd {
            bank: Some(bank),
            opened: open.opened,
            closed,
            parks: open.parks,
            releases,
            errors,
            invalidations: open.invalidations,
            fanout,
        }
    }

    /// A core signalled dedicated-network group `id` at cycle `now`.
    pub(crate) fn note_hw_arrival(&mut self, id: u16, now: u64) {
        let e = self.hw.entry(id).or_insert(HwOpen {
            opened: now,
            arrivals: 0,
        });
        e.arrivals += 1;
    }

    /// The last member of group `id` arrived at cycle `closed`; every
    /// member resumes at `resume`.
    pub(crate) fn close_hw(&mut self, id: u16, closed: u64, resume: u64) -> TraceEvent {
        let open = self.hw.remove(&id).unwrap_or(HwOpen {
            opened: closed,
            arrivals: 0,
        });
        let spread = closed.saturating_sub(open.opened);
        let fanout = resume.saturating_sub(closed);
        self.agg.episodes += 1;
        self.agg.releases += open.arrivals as u64;
        self.agg.arrival_spread_total += spread;
        self.agg.arrival_spread_max = self.agg.arrival_spread_max.max(spread);
        self.agg.release_fanout_total += fanout;
        self.agg.release_fanout_max = self.agg.release_fanout_max.max(fanout);
        TraceEvent::EpisodeEnd {
            bank: None,
            opened: open.opened,
            closed,
            parks: 0,
            releases: open.arrivals,
            errors: 0,
            invalidations: 0,
            fanout,
        }
    }

    pub(crate) fn stats(&self) -> EpisodeStats {
        self.agg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EV: TraceEvent = TraceEvent::Parked {
        core: 0,
        line: 0x40,
    };

    #[test]
    fn ring_sink_is_bounded_and_drops_oldest() {
        let mut r = RingSink::new(3);
        for cycle in 0..10u64 {
            r.record(cycle, &EV);
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 7);
        let cycles: Vec<u64> = r.snapshot().iter().map(|&(c, _)| c).collect();
        assert_eq!(cycles, vec![7, 8, 9]);
    }

    #[test]
    fn episode_tracker_aggregates_bank_episodes() {
        let mut t = EpisodeTracker::new(2);
        t.note_park(0, 100);
        t.note_invalidate(0);
        t.note_park(0, 110);
        t.note_invalidate(0);
        t.note_serviced();
        let ev = t.close_bank(0, 130, 2, 0, 145);
        match ev {
            TraceEvent::EpisodeEnd {
                bank,
                opened,
                closed,
                parks,
                releases,
                invalidations,
                fanout,
                ..
            } => {
                assert_eq!(bank, Some(0));
                assert_eq!((opened, closed), (100, 130));
                assert_eq!((parks, releases, invalidations), (2, 2, 2));
                assert_eq!(fanout, 15);
            }
            other => panic!("expected EpisodeEnd, got {other:?}"),
        }
        let s = t.stats();
        assert_eq!(s.episodes, 1);
        assert_eq!(s.parks, 2);
        assert_eq!(s.releases, 2);
        assert_eq!(s.serviced, 1);
        assert_eq!(s.arrival_spread_total, 30);
        assert_eq!(s.arrival_spread_max, 30);
        assert_eq!(s.release_fanout_max, 15);
        assert_eq!(s.mean_arrival_spread(), 30.0);
        assert_eq!(s.mean_release_fanout(), 15.0);
    }

    #[test]
    fn episode_tracker_handles_hw_network_groups() {
        let mut t = EpisodeTracker::new(1);
        t.note_hw_arrival(3, 50);
        t.note_hw_arrival(3, 60);
        t.note_hw_arrival(3, 70);
        let ev = t.close_hw(3, 70, 75);
        match ev {
            TraceEvent::EpisodeEnd {
                bank,
                opened,
                closed,
                releases,
                fanout,
                ..
            } => {
                assert_eq!(bank, None);
                assert_eq!((opened, closed), (50, 70));
                assert_eq!(releases, 3);
                assert_eq!(fanout, 5);
            }
            other => panic!("expected EpisodeEnd, got {other:?}"),
        }
        assert_eq!(t.stats().episodes, 1);
        assert_eq!(t.stats().releases, 3);
    }

    #[test]
    fn chrome_sink_writes_loadable_json() {
        let path = std::env::temp_dir().join("cmp_sim_trace_unit_test.json");
        let path_s = path.to_str().unwrap().to_string();
        {
            let mut s = ChromeTraceSink::create(&path_s).unwrap();
            s.record(5, &EV);
            s.record(
                9,
                &TraceEvent::EpisodeEnd {
                    bank: Some(1),
                    opened: 2,
                    closed: 9,
                    parks: 3,
                    releases: 3,
                    errors: 0,
                    invalidations: 4,
                    fanout: 6,
                },
            );
        }
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(text.starts_with("[\n"));
        assert!(text.trim_end().ends_with(']'));
        assert!(text.contains("\"ph\":\"i\""));
        assert!(text.contains("\"ph\":\"X\""));
        assert!(text.contains("\"arrival_spread\":7"));
        // every non-bracket line is one JSON object followed by a comma
        for line in text.lines() {
            if line == "[" || line == "]" || line == "{}" {
                continue;
            }
            assert!(
                line.starts_with('{') && (line.ends_with("},") || line.ends_with('}')),
                "malformed line: {line}"
            );
        }
    }
}

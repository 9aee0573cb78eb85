//! One barrier filter: the state table of Figure 2.
//!
//! A filter holds an arrival-address tag, an exit-address tag, a
//! `num-threads` field, an `arrived-counter`, a last-valid-entry pointer
//! used while registering threads, and `T` per-thread entries each carrying
//! a valid bit, a pending-fill bit (here: the parked token) and the two-bit
//! FSM state of Figure 3.
//!
//! The operating system allocates arrival/exit addresses so that the low
//! bits index the thread within the table and a single tag identifies the
//! whole range (§3.2): thread `t`'s arrival line is `arrival_tag + 64 * t`.

use cmp_sim::{HookViolation, ParkToken};
use sim_isa::LINE_BYTES;

use crate::fsm::{self, FsmAction, FsmEvent, FsmViolation, ThreadState};

/// Static configuration of one filter table, as the OS would program it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FilterTableConfig {
    /// Base line address of the arrival range (the arrival-address tag).
    pub arrival_base: u64,
    /// Base line address of the exit range (the exit-address tag), if this
    /// barrier uses explicit exit invalidations. Ping-pong pairs point this
    /// at the partner barrier's arrival range.
    pub exit_base: Option<u64>,
    /// Number of participating threads (`num-threads`).
    pub num_threads: usize,
    /// Initial per-thread state. Entry/exit barriers start `Waiting`; the
    /// second barrier of a ping-pong pair starts `Servicing` so that the
    /// first invocation's arrival invalidate (which doubles as this
    /// barrier's exit invalidate) is legal.
    pub initial_state: ThreadState,
    /// If set, a fill parked longer than this many cycles is completed with
    /// an error code embedded in the reply (§3.3.4 hardware timeout).
    pub timeout: Option<u64>,
}

impl FilterTableConfig {
    /// Entry/exit configuration with no timeout.
    pub fn entry_exit(arrival_base: u64, exit_base: u64, num_threads: usize) -> Self {
        FilterTableConfig {
            arrival_base,
            exit_base: Some(exit_base),
            num_threads,
            initial_state: ThreadState::Waiting,
            timeout: None,
        }
    }
}

/// One per-thread entry of Figure 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    valid: bool,
    state: ThreadState,
    /// The pending-fill bit, carrying the parked token and park time.
    pending: Option<(ParkToken, u64)>,
}

/// Counters for one filter table.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FilterTableStats {
    /// Arrival invalidations accepted.
    pub arrivals: u64,
    /// Exit invalidations accepted.
    pub exits: u64,
    /// Fills parked (starved).
    pub parked: u64,
    /// Fills serviced while open.
    pub serviced: u64,
    /// Barrier episodes completed (openings).
    pub episodes: u64,
    /// Fills completed with an embedded error code after a timeout.
    pub timeout_errors: u64,
}

/// Saved filter contents, produced by [`FilterTable::swap_out`] when the OS
/// reassigns the hardware to a different application (§3.3.3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SavedFilter {
    config: FilterTableConfig,
    entries: Vec<Entry>,
    arrived: usize,
    last_valid: usize,
}

/// What a table wants done with a fill request it owns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TableFill {
    /// Not an arrival address of this table.
    NotMine,
    /// Starve the request.
    Park,
    /// Service the request.
    Service,
}

/// Result of an invalidation the table owns.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TableInvalidate {
    /// Whether the address matched this table at all.
    pub matched: bool,
    /// Parked tokens to service because the barrier just opened.
    pub released: Vec<ParkToken>,
}

/// The barrier filter state table (Figure 2) plus its transition logic.
#[derive(Debug, Clone)]
pub struct FilterTable {
    config: FilterTableConfig,
    entries: Vec<Entry>,
    arrived: usize,
    /// Last-valid-entry pointer used when registering threads (§3.3.1).
    last_valid: usize,
    stats: FilterTableStats,
}

impl FilterTable {
    /// Build a table and register all `num_threads` threads immediately
    /// (the common case for a statically constructed machine).
    pub fn new(config: FilterTableConfig) -> FilterTable {
        let mut t = FilterTable::new_unregistered(config);
        while t.register_thread().is_some() {}
        t
    }

    /// Build a table with no threads registered yet; threads join one at a
    /// time via [`register_thread`](FilterTable::register_thread), modelling
    /// the OS interface of §3.3.1.
    pub fn new_unregistered(config: FilterTableConfig) -> FilterTable {
        let entries = vec![
            Entry {
                valid: false,
                state: config.initial_state,
                pending: None,
            };
            config.num_threads
        ];
        FilterTable {
            config,
            entries,
            arrived: 0,
            last_valid: 0,
            stats: FilterTableStats::default(),
        }
    }

    /// Register the next thread, returning its index within the barrier, or
    /// `None` if the barrier is fully populated.
    pub fn register_thread(&mut self) -> Option<usize> {
        if self.last_valid >= self.config.num_threads {
            return None;
        }
        let idx = self.last_valid;
        self.entries[idx].valid = true;
        self.last_valid += 1;
        Some(idx)
    }

    /// Whether every declared thread has registered.
    pub fn fully_registered(&self) -> bool {
        self.last_valid == self.config.num_threads
    }

    /// The table's configuration.
    pub fn config(&self) -> &FilterTableConfig {
        &self.config
    }

    /// Counter snapshot.
    pub fn stats(&self) -> FilterTableStats {
        self.stats
    }

    /// Current state of thread `t` (tests/diagnostics).
    pub fn thread_state(&self, t: usize) -> ThreadState {
        self.entries[t].state
    }

    /// Value of the arrived counter (tests/diagnostics).
    pub fn arrived(&self) -> usize {
        self.arrived
    }

    fn index_in(&self, base: u64, line: u64) -> Option<usize> {
        let end = base + self.config.num_threads as u64 * LINE_BYTES;
        if (base..end).contains(&line) {
            Some(((line - base) / LINE_BYTES) as usize)
        } else {
            None
        }
    }

    /// Which thread's arrival line `line` is, if any.
    pub fn arrival_thread(&self, line: u64) -> Option<usize> {
        self.index_in(self.config.arrival_base, line)
    }

    /// Which thread's exit line `line` is, if any.
    pub fn exit_thread(&self, line: u64) -> Option<usize> {
        self.config
            .exit_base
            .and_then(|base| self.index_in(base, line))
    }

    /// An invalidation message for `line` reached the filter.
    ///
    /// # Errors
    ///
    /// Propagates FSM violations (§3.3.4 error cases) for addresses this
    /// table owns.
    pub fn on_invalidate(&mut self, line: u64) -> Result<TableInvalidate, FsmViolation> {
        let mut out = TableInvalidate::default();
        if let Some(t) = self.arrival_thread(line) {
            out.matched = true;
            let entry = self.entries[t];
            match fsm::step(entry.state, FsmEvent::ArrivalInvalidate)? {
                FsmAction::Transition(next) => {
                    self.entries[t].state = next;
                    self.arrived += 1;
                    self.stats.arrivals += 1;
                    if self.arrived == self.config.num_threads {
                        self.open(&mut out.released);
                    }
                }
                FsmAction::Stay => {}
                _ => unreachable!("invalidate cannot produce a fill action"),
            }
        }
        if let Some(t) = self.exit_thread(line) {
            out.matched = true;
            match fsm::step(self.entries[t].state, FsmEvent::ExitInvalidate)? {
                FsmAction::Transition(next) => {
                    self.entries[t].state = next;
                    self.stats.exits += 1;
                }
                _ => unreachable!("exit invalidate can only transition"),
            }
        }
        Ok(out)
    }

    /// All threads have arrived: clear the counter, move everyone to
    /// Servicing and collect the pending fills for service (§3.2).
    fn open(&mut self, released: &mut Vec<ParkToken>) {
        self.arrived = 0;
        self.stats.episodes += 1;
        for e in &mut self.entries {
            e.state = ThreadState::Servicing;
            if let Some((token, _)) = e.pending.take() {
                released.push(token);
            }
        }
    }

    /// A fill request for `line` reached the filter at cycle `now`.
    ///
    /// # Errors
    ///
    /// Propagates FSM violations (a fill for a Waiting thread).
    pub fn on_fill(
        &mut self,
        line: u64,
        token: ParkToken,
        now: u64,
    ) -> Result<TableFill, FsmViolation> {
        let Some(t) = self.arrival_thread(line) else {
            // Exit-range fills are not owned: the content of an exit address
            // is never accessed by the barrier protocol, and in ping-pong
            // pairs the same line is the partner table's arrival address.
            return Ok(TableFill::NotMine);
        };
        match fsm::step(self.entries[t].state, FsmEvent::ArrivalFill)? {
            FsmAction::Park => {
                self.entries[t].pending = Some((token, now));
                self.stats.parked += 1;
                Ok(TableFill::Park)
            }
            FsmAction::Service => {
                self.stats.serviced += 1;
                Ok(TableFill::Service)
            }
            _ => unreachable!("fill can only park or service"),
        }
    }

    /// Forget a parked fill whose requester was context-switched out
    /// (§3.3.3). The thread stays Blocking; a re-issued fill parks again.
    pub fn cancel(&mut self, token: ParkToken) -> bool {
        for e in &mut self.entries {
            if e.pending.map(|(t, _)| t) == Some(token) {
                e.pending = None;
                return true;
            }
        }
        false
    }

    /// The earliest cycle at which a parked fill times out, if a timeout is
    /// configured.
    pub fn deadline(&self) -> Option<u64> {
        let timeout = self.config.timeout?;
        self.entries
            .iter()
            .filter_map(|e| e.pending.map(|(_, at)| at + timeout))
            .min()
    }

    /// Complete (with an embedded error code) every parked fill whose
    /// timeout expired at `now`. The affected threads stay Blocking: the
    /// barrier library retries or raises (§3.3.4).
    pub fn expire(&mut self, now: u64, errored: &mut Vec<ParkToken>) {
        let Some(timeout) = self.config.timeout else {
            return;
        };
        for e in &mut self.entries {
            if let Some((token, at)) = e.pending {
                if at + timeout <= now {
                    e.pending = None;
                    errored.push(token);
                    self.stats.timeout_errors += 1;
                }
            }
        }
    }

    /// Save the filter contents so the OS can reuse the hardware for a
    /// different application (§3.3.3). The table is reset to its initial,
    /// unregistered state.
    ///
    /// # Errors
    ///
    /// [`HookViolation`], with the table unchanged, if any fill is
    /// currently parked: the OS must not swap out a barrier whose threads
    /// are blocked in the hardware (it context switches them out first,
    /// which cancels their fills). Swapping anyway is the §3.3.4
    /// misprogramming case, which the fault harness counts as a
    /// recoverable violation.
    pub fn swap_out(&mut self) -> Result<SavedFilter, HookViolation> {
        if self.entries.iter().any(|e| e.pending.is_some()) {
            return Err(HookViolation::new(
                "cannot swap out a filter with parked fills",
            ));
        }
        let saved = SavedFilter {
            config: self.config.clone(),
            entries: self.entries.clone(),
            arrived: self.arrived,
            last_valid: self.last_valid,
        };
        *self = FilterTable::new_unregistered(self.config.clone());
        Ok(saved)
    }

    /// Restore previously swapped-out contents.
    pub fn swap_in(&mut self, saved: SavedFilter) {
        self.config = saved.config;
        self.entries = saved.entries;
        self.arrived = saved.arrived;
        self.last_valid = saved.last_valid;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: u64 = 0x2000_0000;
    const E: u64 = 0x2000_1000;

    fn table(n: usize) -> FilterTable {
        FilterTable::new(FilterTableConfig::entry_exit(A, E, n))
    }

    fn line(base: u64, t: usize) -> u64 {
        base + t as u64 * 64
    }

    #[test]
    fn address_decode_uses_low_bits() {
        let t = table(4);
        assert_eq!(t.arrival_thread(line(A, 0)), Some(0));
        assert_eq!(t.arrival_thread(line(A, 3)), Some(3));
        assert_eq!(t.arrival_thread(line(A, 4)), None, "past the table");
        assert_eq!(t.exit_thread(line(E, 2)), Some(2));
        assert_eq!(t.exit_thread(A), None);
    }

    #[test]
    fn full_barrier_episode() {
        let mut t = table(3);
        // threads 0 and 1 arrive and park
        for th in 0..2 {
            assert!(t.on_invalidate(line(A, th)).unwrap().released.is_empty());
            assert_eq!(
                t.on_fill(line(A, th), ParkToken(th as u64), 10).unwrap(),
                TableFill::Park
            );
            assert_eq!(t.thread_state(th), ThreadState::Blocking);
        }
        assert_eq!(t.arrived(), 2);
        // thread 2's arrival opens the barrier and releases both fills
        let out = t.on_invalidate(line(A, 2)).unwrap();
        assert_eq!(out.released, vec![ParkToken(0), ParkToken(1)]);
        assert_eq!(t.arrived(), 0, "counter cleared on open");
        for th in 0..3 {
            assert_eq!(t.thread_state(th), ThreadState::Servicing);
        }
        // thread 2's own fill arrives after the opening: serviced
        assert_eq!(
            t.on_fill(line(A, 2), ParkToken(9), 20).unwrap(),
            TableFill::Service
        );
        // exits return everyone to Waiting
        for th in 0..3 {
            t.on_invalidate(line(E, th)).unwrap();
            assert_eq!(t.thread_state(th), ThreadState::Waiting);
        }
        assert_eq!(t.stats().episodes, 1);
        assert_eq!(t.stats().parked, 2);
        assert_eq!(t.stats().serviced, 1);
    }

    #[test]
    fn reusable_across_episodes() {
        let mut t = table(2);
        for _ in 0..5 {
            t.on_invalidate(line(A, 0)).unwrap();
            assert_eq!(
                t.on_fill(line(A, 0), ParkToken(1), 0).unwrap(),
                TableFill::Park
            );
            let out = t.on_invalidate(line(A, 1)).unwrap();
            assert_eq!(out.released.len(), 1);
            t.on_invalidate(line(E, 0)).unwrap();
            t.on_invalidate(line(E, 1)).unwrap();
        }
        assert_eq!(t.stats().episodes, 5);
    }

    #[test]
    fn fill_while_waiting_is_a_violation() {
        let mut t = table(2);
        let err = t.on_fill(line(A, 0), ParkToken(0), 0).unwrap_err();
        assert_eq!(err.state, ThreadState::Waiting);
    }

    #[test]
    fn exit_invalidate_while_blocking_is_a_violation() {
        let mut t = table(2);
        t.on_invalidate(line(A, 0)).unwrap();
        assert!(t.on_invalidate(line(E, 0)).is_err());
    }

    #[test]
    fn unrelated_lines_do_not_match() {
        let mut t = table(2);
        let out = t.on_invalidate(0x5000_0000).unwrap();
        assert!(!out.matched);
        assert_eq!(
            t.on_fill(0x5000_0000, ParkToken(0), 0).unwrap(),
            TableFill::NotMine
        );
    }

    #[test]
    fn lenient_blocking_self_loop() {
        let mut t = table(2);
        t.on_invalidate(line(A, 0)).unwrap();
        // repeated arrival invalidate: Figure 3 self-loop
        assert!(t.on_invalidate(line(A, 0)).is_ok());
        assert_eq!(t.arrived(), 1, "self-loop must not double count");
    }

    #[test]
    fn registration_uses_last_valid_pointer() {
        let mut t = FilterTable::new_unregistered(FilterTableConfig::entry_exit(A, E, 2));
        assert!(!t.fully_registered());
        assert_eq!(t.register_thread(), Some(0));
        assert_eq!(t.register_thread(), Some(1));
        assert_eq!(t.register_thread(), None);
        assert!(t.fully_registered());
    }

    #[test]
    fn early_entry_before_full_registration_still_stalls() {
        // §3.3.1: "Threads entering the barrier before all threads have
        // registered will still stall, as the number of participating
        // threads was determined at the time of barrier creation."
        let mut t = FilterTable::new_unregistered(FilterTableConfig::entry_exit(A, E, 3));
        t.register_thread();
        t.on_invalidate(line(A, 0)).unwrap();
        assert_eq!(
            t.on_fill(line(A, 0), ParkToken(0), 0).unwrap(),
            TableFill::Park
        );
    }

    #[test]
    fn cancel_keeps_thread_blocking_and_reissue_parks_again() {
        let mut t = table(2);
        t.on_invalidate(line(A, 0)).unwrap();
        t.on_fill(line(A, 0), ParkToken(7), 0).unwrap();
        assert!(t.cancel(ParkToken(7)));
        assert!(!t.cancel(ParkToken(7)), "double cancel is refused");
        assert_eq!(t.thread_state(0), ThreadState::Blocking);
        assert_eq!(
            t.on_fill(line(A, 0), ParkToken(8), 5).unwrap(),
            TableFill::Park
        );
    }

    #[test]
    fn timeout_expires_parked_fills() {
        let mut cfg = FilterTableConfig::entry_exit(A, E, 2);
        cfg.timeout = Some(100);
        let mut t = FilterTable::new(cfg);
        t.on_invalidate(line(A, 0)).unwrap();
        t.on_fill(line(A, 0), ParkToken(3), 50).unwrap();
        assert_eq!(t.deadline(), Some(150));
        let mut errored = Vec::new();
        t.expire(149, &mut errored);
        assert!(errored.is_empty());
        t.expire(150, &mut errored);
        assert_eq!(errored, vec![ParkToken(3)]);
        assert_eq!(t.thread_state(0), ThreadState::Blocking, "stays blocked");
        assert_eq!(t.deadline(), None);
        assert_eq!(t.stats().timeout_errors, 1);
    }

    #[test]
    fn swap_out_and_in_round_trips() {
        let mut t = table(2);
        t.on_invalidate(line(A, 0)).unwrap();
        let before_state = t.thread_state(0);
        let saved = t.swap_out().expect("no fill is parked");
        // after swap-out the hardware is reusable for another barrier
        assert_eq!(t.thread_state(0), ThreadState::Waiting);
        assert!(!t.fully_registered());
        t.swap_in(saved);
        assert_eq!(t.thread_state(0), before_state);
        assert_eq!(t.arrived(), 1);
        assert!(t.fully_registered());
    }

    #[test]
    fn swap_out_with_parked_fill_is_refused() {
        let mut t = table(2);
        t.on_invalidate(line(A, 0)).unwrap();
        t.on_fill(line(A, 0), ParkToken(0), 0).unwrap();
        let before = format!("{t:?}");
        let err = t.swap_out().expect_err("a parked fill blocks the swap");
        assert!(err.to_string().contains("parked fills"), "{err}");
        assert_eq!(
            format!("{t:?}"),
            before,
            "a refused swap leaves the table unchanged"
        );
    }

    #[test]
    fn ping_pong_initial_servicing_accepts_exit_first() {
        // Second barrier of a ping-pong pair: its exit range is the
        // partner's arrival range, and the very first invocation invalidates
        // that range, so its threads must start in Servicing.
        let mut cfg = FilterTableConfig::entry_exit(E, A, 2);
        cfg.initial_state = ThreadState::Servicing;
        let mut t = FilterTable::new(cfg);
        // invalidate of A (this table's exit) while Servicing: legal
        let out = t.on_invalidate(line(A, 0)).unwrap();
        assert!(out.matched);
        assert_eq!(t.thread_state(0), ThreadState::Waiting);
    }
}

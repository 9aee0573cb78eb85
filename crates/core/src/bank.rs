//! A replicated filter bank: the `B` filter tables attached to one L2 bank
//! controller (Figure 1), wired into the simulator through
//! [`cmp_sim::BankHook`].
//!
//! "When an address invalidate is seen, an associative lookup is performed
//! in each barrier filter to see if the address matches the arrival or exit
//! address for any of the filters" (§3.2). A single invalidation may match
//! several tables at once — in a ping-pong pair one barrier's arrival range
//! is the other's exit range — so every table observes every message.

use std::collections::HashMap;

use cmp_sim::{BankHook, FillDecision, HookOutcome, HookViolation, ParkToken};

use crate::table::{FilterTable, TableFill};

/// The filter hardware of one L2 bank.
#[derive(Debug)]
pub struct FilterBank {
    tables: Vec<FilterTable>,
    /// Which table parked each outstanding token (for cancellation).
    owners: HashMap<ParkToken, usize>,
}

impl FilterBank {
    /// Assemble a bank from its programmed tables.
    pub fn new(tables: Vec<FilterTable>) -> FilterBank {
        FilterBank {
            tables,
            owners: HashMap::new(),
        }
    }

    /// Borrow a table (tests/diagnostics).
    pub fn table(&self, i: usize) -> &FilterTable {
        &self.tables[i]
    }
}

impl BankHook for FilterBank {
    fn on_invalidate(
        &mut self,
        line: u64,
        _now: u64,
        out: &mut HookOutcome,
    ) -> Result<(), HookViolation> {
        for (i, table) in self.tables.iter_mut().enumerate() {
            let r = table
                .on_invalidate(line)
                .map_err(|v| HookViolation::new(format!("filter table {i}: {v}")))?;
            for token in &r.released {
                self.owners.remove(token);
            }
            out.released.extend(r.released);
        }
        Ok(())
    }

    fn on_fill_request(
        &mut self,
        line: u64,
        token: ParkToken,
        now: u64,
        _out: &mut HookOutcome,
    ) -> Result<FillDecision, HookViolation> {
        for (i, table) in self.tables.iter_mut().enumerate() {
            match table
                .on_fill(line, token, now)
                .map_err(|v| HookViolation::new(format!("filter table {i}: {v}")))?
            {
                TableFill::NotMine => continue,
                TableFill::Park => {
                    self.owners.insert(token, i);
                    return Ok(FillDecision::Park);
                }
                TableFill::Service => return Ok(FillDecision::Service),
            }
        }
        Ok(FillDecision::NotMine)
    }

    fn on_cancel(&mut self, token: ParkToken) {
        if let Some(i) = self.owners.remove(&token) {
            self.tables[i].cancel(token);
        }
    }

    fn deadline(&self) -> Option<u64> {
        self.tables.iter().filter_map(FilterTable::deadline).min()
    }

    fn on_deadline(&mut self, now: u64, out: &mut HookOutcome) {
        for table in &mut self.tables {
            table.expire(now, &mut out.errored);
        }
        for token in &out.errored {
            self.owners.remove(token);
        }
    }

    /// §3.3.3 OS re-arm after a migration: save and restore every table
    /// through the swap path. A round trip is state-preserving, so a
    /// successful reprogram is observable only through this path's own
    /// refusal case — a table still holding parked fills, the §3.3.4
    /// misprogramming the fault harness counts as a recoverable violation.
    fn reprogram(&mut self) -> Result<(), HookViolation> {
        for (i, table) in self.tables.iter_mut().enumerate() {
            let saved = table
                .swap_out()
                .map_err(|v| HookViolation::new(format!("filter table {i}: {v}")))?;
            table.swap_in(saved);
        }
        Ok(())
    }

    fn pending_parks(&self) -> usize {
        self.owners.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fsm::ThreadState;
    use crate::table::FilterTableConfig;

    const A0: u64 = 0x2000_0000;
    const A1: u64 = 0x2000_1000;

    fn ping_pong_bank(n: usize) -> FilterBank {
        let t0 = FilterTable::new(FilterTableConfig {
            arrival_base: A0,
            exit_base: Some(A1),
            num_threads: n,
            initial_state: ThreadState::Waiting,
            timeout: None,
        });
        let t1 = FilterTable::new(FilterTableConfig {
            arrival_base: A1,
            exit_base: Some(A0),
            num_threads: n,
            initial_state: ThreadState::Servicing,
            timeout: None,
        });
        FilterBank::new(vec![t0, t1])
    }

    #[test]
    fn ping_pong_invalidate_matches_both_tables() {
        let mut bank = ping_pong_bank(2);
        let mut out = HookOutcome::default();
        // thread 0 invalidates its A0 line: arrival for table 0, exit for
        // table 1 (whose threads start Servicing)
        bank.on_invalidate(A0, 0, &mut out).unwrap();
        assert_eq!(bank.table(0).thread_state(0), ThreadState::Blocking);
        assert_eq!(bank.table(1).thread_state(0), ThreadState::Waiting);
    }

    #[test]
    fn ping_pong_alternates_episodes() {
        let mut bank = ping_pong_bank(2);
        let mut token = 0u64;
        for round in 0..4 {
            let (arr, _exit) = if round % 2 == 0 { (A0, A1) } else { (A1, A0) };
            let mut out = HookOutcome::default();
            bank.on_invalidate(arr, 0, &mut out).unwrap();
            token += 1;
            assert_eq!(
                bank.on_fill_request(arr, ParkToken(token), 0, &mut out)
                    .unwrap(),
                FillDecision::Park
            );
            let mut out = HookOutcome::default();
            bank.on_invalidate(arr + 64, 0, &mut out).unwrap();
            assert_eq!(out.released.len(), 1, "round {round} releases the fill");
            // the second thread's own fill is serviced
            token += 1;
            assert_eq!(
                bank.on_fill_request(arr + 64, ParkToken(token), 0, &mut out)
                    .unwrap(),
                FillDecision::Service
            );
        }
    }

    #[test]
    fn unknown_lines_fall_through() {
        let mut bank = ping_pong_bank(2);
        let mut out = HookOutcome::default();
        assert_eq!(
            bank.on_fill_request(0x7777_0000, ParkToken(1), 0, &mut out)
                .unwrap(),
            FillDecision::NotMine
        );
        bank.on_invalidate(0x7777_0000, 0, &mut out).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn cancel_routes_to_owning_table() {
        let mut bank = ping_pong_bank(2);
        let mut out = HookOutcome::default();
        bank.on_invalidate(A0, 0, &mut out).unwrap();
        bank.on_fill_request(A0, ParkToken(42), 0, &mut out)
            .unwrap();
        bank.on_cancel(ParkToken(42));
        // the re-issued fill parks again (thread still Blocking)
        assert_eq!(
            bank.on_fill_request(A0, ParkToken(43), 0, &mut out)
                .unwrap(),
            FillDecision::Park
        );
    }

    #[test]
    fn violation_names_the_table() {
        let mut bank = ping_pong_bank(2);
        let mut out = HookOutcome::default();
        let err = bank
            .on_fill_request(A0, ParkToken(1), 0, &mut out)
            .unwrap_err();
        assert!(err.to_string().contains("filter table 0"));
    }

    #[test]
    fn deadline_aggregates_tables() {
        let mut cfg = FilterTableConfig::entry_exit(A0, A1, 1);
        cfg.timeout = Some(100);
        let mut bank = FilterBank::new(vec![FilterTable::new(cfg)]);
        assert_eq!(BankHook::deadline(&bank), None);
        let mut out = HookOutcome::default();
        bank.on_invalidate(A0, 5, &mut out).unwrap();
        // a one-thread barrier opens immediately; force a parked state via a
        // two-thread table instead
        let mut cfg = FilterTableConfig::entry_exit(A0, A1, 2);
        cfg.timeout = Some(100);
        let mut bank = FilterBank::new(vec![FilterTable::new(cfg)]);
        bank.on_invalidate(A0, 5, &mut out).unwrap();
        bank.on_fill_request(A0, ParkToken(1), 7, &mut out).unwrap();
        assert_eq!(BankHook::deadline(&bank), Some(107));
        let mut out = HookOutcome::default();
        bank.on_deadline(107, &mut out);
        assert_eq!(out.errored, vec![ParkToken(1)]);
    }
}

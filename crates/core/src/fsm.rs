//! The per-thread finite state automaton of Figure 3.
//!
//! A thread is represented in a barrier filter by a two-bit state:
//! *Waiting-on-arrival* → *Blocked-until-release* → *Service-until-exit* →
//! back to *Waiting*. Invalid transitions are the architectural error cases
//! of §3.3.4 and surface as [`FsmViolation`]s, which the filter converts to
//! exceptions.

use std::fmt;

/// The two-bit per-thread state of Figure 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ThreadState {
    /// Waiting-on-arrival: the thread has not signalled this barrier yet.
    Waiting,
    /// Blocked-until-release: the thread invalidated its arrival address and
    /// (typically) has a starved fill request pending.
    Blocking,
    /// Service-until-exit: the barrier opened; fills for the arrival address
    /// are serviced until the thread invalidates its exit address.
    Servicing,
}

impl fmt::Display for ThreadState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ThreadState::Waiting => "Waiting",
            ThreadState::Blocking => "Blocking",
            ThreadState::Servicing => "Servicing",
        })
    }
}

/// An input symbol to the FSM: what the filter observed for a thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsmEvent {
    /// An invalidation of the thread's arrival address.
    ArrivalInvalidate,
    /// A fill request for the thread's arrival address.
    ArrivalFill,
    /// An invalidation of the thread's exit address.
    ExitInvalidate,
}

/// What the filter should do in response to a (state, event) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsmAction {
    /// Transition into the new state; for `Waiting + ArrivalInvalidate` the
    /// caller also increments the arrived counter.
    Transition(ThreadState),
    /// Stay in place (e.g. a repeated arrival invalidate while Blocking,
    /// which Figure 3 draws as a self-loop).
    Stay,
    /// Park the fill request (starve it until the barrier opens).
    Park,
    /// Service the fill request immediately (barrier already open).
    Service,
}

/// An invalid transition: the §3.3.4 error cases.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FsmViolation {
    /// State the thread was in.
    pub state: ThreadState,
    /// Event that arrived.
    pub event: FsmEvent,
}

impl fmt::Display for FsmViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let what = match self.event {
            FsmEvent::ArrivalInvalidate => "arrival-address invalidate",
            FsmEvent::ArrivalFill => "arrival-address fill request",
            FsmEvent::ExitInvalidate => "exit-address invalidate",
        };
        write!(
            f,
            "{what} while the thread is in the {} state (incorrect barrier \
             implementation or use, §3.3.4)",
            self.state
        )
    }
}

/// Evaluate the FSM of Figure 3.
///
/// A repeated arrival invalidate while Blocking is Figure 3's self-loop
/// ("the thread will stay in the Blocking state"), not an error, although
/// the debugging discussion of §3.3.4 lists it among the error cases.
///
/// # Errors
///
/// Returns the violation for any transition Figure 3 does not permit.
pub fn step(state: ThreadState, event: FsmEvent) -> Result<FsmAction, FsmViolation> {
    use FsmEvent::*;
    use ThreadState::*;
    match (state, event) {
        (Waiting, ArrivalInvalidate) => Ok(FsmAction::Transition(Blocking)),
        (Blocking, ArrivalInvalidate) => Ok(FsmAction::Stay),
        (Blocking, ArrivalFill) => Ok(FsmAction::Park),
        (Servicing, ArrivalFill) => Ok(FsmAction::Service),
        (Servicing, ExitInvalidate) => Ok(FsmAction::Transition(Waiting)),
        _ => Err(FsmViolation { state, event }),
    }
}

#[cfg(test)]
mod tests {
    use super::FsmAction::*;
    use super::FsmEvent::*;
    use super::ThreadState::*;
    use super::*;

    #[test]
    fn legal_cycle() {
        assert_eq!(step(Waiting, ArrivalInvalidate), Ok(Transition(Blocking)));
        assert_eq!(step(Blocking, ArrivalFill), Ok(Park));
        // (the table, not the FSM, performs the Blocking -> Servicing move
        // when the last thread arrives)
        assert_eq!(step(Servicing, ArrivalFill), Ok(Service));
        assert_eq!(step(Servicing, ExitInvalidate), Ok(Transition(Waiting)));
    }

    #[test]
    fn blocking_self_loop_stays_blocking() {
        assert_eq!(step(Blocking, ArrivalInvalidate), Ok(Stay));
    }

    #[test]
    fn error_cases_of_3_3_4() {
        // fill while Waiting
        assert!(step(Waiting, ArrivalFill).is_err());
        // arrival invalidate while Servicing
        assert!(step(Servicing, ArrivalInvalidate).is_err());
        // exit invalidate while Waiting or Blocking
        assert!(step(Waiting, ExitInvalidate).is_err());
        assert!(step(Blocking, ExitInvalidate).is_err());
    }

    #[test]
    fn violation_messages_name_the_state() {
        let v = step(Waiting, ArrivalFill).unwrap_err();
        let msg = v.to_string();
        assert!(msg.contains("Waiting"));
        assert!(msg.contains("fill request"));
    }

    #[test]
    fn display_of_states() {
        assert_eq!(Waiting.to_string(), "Waiting");
        assert_eq!(Blocking.to_string(), "Blocking");
        assert_eq!(Servicing.to_string(), "Servicing");
    }
}

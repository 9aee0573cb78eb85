//! Dedicated barrier-network baseline.
//!
//! Models the "very aggressive implementation of a barrier relying on
//! specialized hardware mechanisms based upon the work of Polychronopolous
//! et al." that the paper compares against (§4): a global bit-vector with
//! zero-detect (wired-NOR) logic reached over dedicated wires. The paper's
//! timing assumptions, reproduced by
//! [`HwBarrierConfig`](crate::config::HwBarrierConfig):
//!
//! * two-cycle latency to and from the global logic,
//! * the core stalls immediately after signalling,
//! * restart costs only a local status-register check and reset.

use crate::config::HwBarrierConfig;

/// State of one hardware barrier group.
#[derive(Debug)]
struct Group {
    members: Vec<usize>,
    arrived: Vec<usize>,
}

/// Outcome of a core signalling the network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HwBarResult {
    /// Not everyone has arrived; the core stalls.
    Stall,
    /// Everyone has arrived: each listed core (including the caller) resumes
    /// at the paired cycle.
    Release(Vec<(usize, u64)>),
}

/// Counters for the dedicated network.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct HwNetStats {
    /// Total arrival signals received.
    pub arrivals: u64,
    /// Barrier episodes completed.
    pub episodes: u64,
}

/// The dedicated barrier network: a set of independently configured barrier
/// groups, each a wired-AND over its member cores.
#[derive(Debug)]
pub struct DedicatedNetwork {
    config: HwBarrierConfig,
    groups: Vec<Option<Group>>,
    stats: HwNetStats,
}

impl DedicatedNetwork {
    /// An empty network with the given wire timing.
    pub fn new(config: HwBarrierConfig) -> DedicatedNetwork {
        DedicatedNetwork {
            config,
            groups: Vec::new(),
            stats: HwNetStats::default(),
        }
    }

    /// Configure barrier `id` over `members` (core indices). Replaces any
    /// previous group with that id. A group fires only once every member
    /// has arrived, so [`MachineBuilder::build`](crate::MachineBuilder::build)
    /// rejects a group that is empty or names a core twice or not at all.
    pub fn configure_group(&mut self, id: u16, members: Vec<usize>) {
        let idx = id as usize;
        if self.groups.len() <= idx {
            self.groups.resize_with(idx + 1, || None);
        }
        self.groups[idx] = Some(Group {
            members,
            arrived: Vec::new(),
        });
    }

    /// Whether group `id` exists.
    pub fn has_group(&self, id: u16) -> bool {
        self.groups.get(id as usize).is_some_and(Option::is_some)
    }

    /// Whether `core` belongs to group `id`.
    pub fn is_member(&self, id: u16, core: usize) -> bool {
        self.groups
            .get(id as usize)
            .and_then(Option::as_ref)
            .is_some_and(|g| g.members.contains(&core))
    }

    /// Core `core` executes `hwbar id` at cycle `now`. The arrival reaches
    /// the global logic `wire_to` cycles later; when the last member
    /// arrives, every member resumes `wire_from + local_check` cycles after
    /// that.
    ///
    /// # Panics
    ///
    /// Panics if the group does not exist or `core` is not a member (the
    /// engine validates both before calling).
    pub fn arrive(&mut self, id: u16, core: usize, now: u64) -> HwBarResult {
        let g = self.groups[id as usize]
            .as_mut()
            .expect("group existence checked by engine");
        assert!(g.members.contains(&core), "membership checked by engine");
        debug_assert!(!g.arrived.contains(&core), "double arrival without release");
        self.stats.arrivals += 1;
        g.arrived.push(core);
        if g.arrived.len() < g.members.len() {
            return HwBarResult::Stall;
        }
        // Last arrival: its signal reaches the global logic at
        // now + wire_to; the release propagates back from there.
        self.stats.episodes += 1;
        let fire = now + self.config.wire_to;
        let resume = fire + self.config.wire_from + self.config.local_check;
        let released = g.arrived.drain(..).map(|c| (c, resume)).collect();
        HwBarResult::Release(released)
    }

    /// Counter snapshot.
    pub fn stats(&self) -> HwNetStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net() -> DedicatedNetwork {
        DedicatedNetwork::new(HwBarrierConfig::default())
    }

    #[test]
    fn stalls_until_last_then_releases_all() {
        let mut n = net();
        n.configure_group(0, vec![0, 1, 2]);
        assert_eq!(n.arrive(0, 0, 10), HwBarResult::Stall);
        assert_eq!(n.arrive(0, 2, 12), HwBarResult::Stall);
        match n.arrive(0, 1, 20) {
            HwBarResult::Release(r) => {
                // fire at 22, resume at 22 + 2 + 1 = 25 for everyone
                assert_eq!(r.len(), 3);
                assert!(r.iter().all(|&(_, t)| t == 25));
                let cores: Vec<usize> = r.iter().map(|&(c, _)| c).collect();
                assert_eq!(cores, vec![0, 2, 1]);
            }
            other => panic!("expected release, got {other:?}"),
        }
        assert_eq!(n.stats().episodes, 1);
        assert_eq!(n.stats().arrivals, 3);
    }

    #[test]
    fn reusable_across_episodes() {
        let mut n = net();
        n.configure_group(1, vec![0, 1]);
        assert_eq!(n.arrive(1, 0, 0), HwBarResult::Stall);
        assert!(matches!(n.arrive(1, 1, 5), HwBarResult::Release(_)));
        assert_eq!(n.arrive(1, 1, 30), HwBarResult::Stall);
        assert!(matches!(n.arrive(1, 0, 40), HwBarResult::Release(_)));
        assert_eq!(n.stats().episodes, 2);
    }

    #[test]
    fn single_member_group_releases_immediately() {
        let mut n = net();
        n.configure_group(0, vec![7]);
        match n.arrive(0, 7, 100) {
            HwBarResult::Release(r) => assert_eq!(r, vec![(7, 105)]),
            other => panic!("expected release, got {other:?}"),
        }
    }

    #[test]
    fn membership_queries() {
        let mut n = net();
        assert!(!n.has_group(0));
        n.configure_group(0, vec![1, 2]);
        assert!(n.has_group(0));
        assert!(n.is_member(0, 1));
        assert!(!n.is_member(0, 0));
        assert!(!n.is_member(9, 1));
    }

    #[test]
    fn independent_groups() {
        let mut n = net();
        n.configure_group(0, vec![0, 1]);
        n.configure_group(1, vec![2, 3]);
        assert_eq!(n.arrive(0, 0, 0), HwBarResult::Stall);
        assert!(matches!(n.arrive(1, 2, 0), HwBarResult::Stall));
        assert!(matches!(n.arrive(1, 3, 0), HwBarResult::Release(_)));
        // group 0 still waiting
        assert!(matches!(n.arrive(0, 1, 9), HwBarResult::Release(_)));
    }
}

//! Declarative elastic-membership plans: mid-run joins of brand-new
//! sites and planned decommissions (drains), the membership half of the
//! nemesis vocabulary.
//!
//! A [`MembershipPlan`] is scheduled up front like a [`FaultPlan`]: the
//! runner spawns dormant actors for every planned joiner and fires the
//! join/drain events at their scheduled ticks. An empty plan is the
//! default everywhere and leaves every run byte-identical to a build
//! without the membership subsystem.
//!
//! [`FaultPlan`]: crate::FaultPlan

use repl_sim::{NodeId, SimTime};

use crate::faults::{FaultEvent, FaultPlan};

/// One scheduled membership change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MembershipEvent {
    /// A brand-new site (no prior state) comes up at `at` and starts the
    /// online join protocol against the current group.
    Join {
        /// When the joiner boots.
        at: SimTime,
        /// The joiner's node id (allocated past the initial servers).
        node: NodeId,
    },
    /// A planned decommission: the node stops taking new work, hands off
    /// any primary/sequencer role it holds, and leaves the view.
    Drain {
        /// When the drain starts.
        at: SimTime,
        /// The node being decommissioned.
        node: NodeId,
    },
}

impl MembershipEvent {
    /// The event's scheduled time.
    pub fn at(&self) -> SimTime {
        match self {
            MembershipEvent::Join { at, .. } | MembershipEvent::Drain { at, .. } => *at,
        }
    }

    /// The node the event applies to.
    pub fn node(&self) -> NodeId {
        match self {
            MembershipEvent::Join { node, .. } | MembershipEvent::Drain { node, .. } => *node,
        }
    }
}

/// Why a membership plan was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MembershipPlanError {
    /// A join names a node inside the initial server range (those are
    /// already members) or a duplicate joiner.
    BadJoiner(NodeId),
    /// Joiner ids must be dense: `initial`, `initial+1`, … (they become
    /// actor slots right after the initial servers).
    SparseJoiner(NodeId),
    /// A drain names a node that is never a member (neither initial nor
    /// joined), or is scheduled before the node's join.
    BadDrainee(NodeId),
    /// The same node is drained twice.
    DuplicateDrain(NodeId),
    /// An event is scheduled at or past the run deadline.
    PastDeadline(SimTime),
}

impl std::fmt::Display for MembershipPlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MembershipPlanError::BadJoiner(n) => write!(f, "join of existing/duplicate node {n}"),
            MembershipPlanError::SparseJoiner(n) => {
                write!(f, "joiner {n} leaves a gap in the node-id range")
            }
            MembershipPlanError::BadDrainee(n) => {
                write!(f, "drain of {n} which is never a member at that time")
            }
            MembershipPlanError::DuplicateDrain(n) => write!(f, "node {n} drained twice"),
            MembershipPlanError::PastDeadline(t) => {
                write!(f, "membership event at {t:?} is past the run deadline")
            }
        }
    }
}

impl std::error::Error for MembershipPlanError {}

/// A declarative elastic-membership plan (joins and drains).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MembershipPlan {
    events: Vec<MembershipEvent>,
}

impl MembershipPlan {
    /// An empty plan (static membership; byte-identical runs).
    pub fn new() -> Self {
        MembershipPlan::default()
    }

    /// Schedules a brand-new site `node` to join at `at` (builder form).
    pub fn join_at(mut self, at: SimTime, node: NodeId) -> Self {
        self.events.push(MembershipEvent::Join { at, node });
        self
    }

    /// Schedules node `node` to be drained (decommissioned) at `at`
    /// (builder form).
    pub fn drain_at(mut self, at: SimTime, node: NodeId) -> Self {
        self.events.push(MembershipEvent::Drain { at, node });
        self
    }

    /// The scheduled events, in insertion order.
    pub fn events(&self) -> &[MembershipEvent] {
        &self.events
    }

    /// True when no membership change is scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The nodes that join during the run, sorted by id.
    pub fn joined_nodes(&self) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = self
            .events
            .iter()
            .filter_map(|e| match e {
                MembershipEvent::Join { node, .. } => Some(*node),
                _ => None,
            })
            .collect();
        v.sort_unstable();
        v
    }

    /// The nodes that are drained during the run, sorted by id.
    pub fn drained_nodes(&self) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = self
            .events
            .iter()
            .filter_map(|e| match e {
                MembershipEvent::Drain { node, .. } => Some(*node),
                _ => None,
            })
            .collect();
        v.sort_unstable();
        v
    }

    /// The total server count the run reaches: initial servers plus every
    /// planned joiner (joiners occupy the slots right after the initial
    /// servers, drained nodes keep their slot).
    pub fn peak_servers(&self, initial: u32) -> u32 {
        initial + self.joined_nodes().len() as u32
    }

    /// Validates the plan against `initial` servers and the run deadline.
    ///
    /// Joiner ids must be dense starting at `initial` (they become actor
    /// slots right after the initial servers); a drain must name a node
    /// that is a member when it fires; no node is drained twice.
    pub fn validate(&self, initial: u32, max_time: SimTime) -> Result<(), MembershipPlanError> {
        let joiners = self.joined_nodes();
        for (i, &j) in joiners.iter().enumerate() {
            if j.index() < initial as usize {
                return Err(MembershipPlanError::BadJoiner(j));
            }
            if i > 0 && joiners[i - 1] == j {
                return Err(MembershipPlanError::BadJoiner(j));
            }
            if j.index() != initial as usize + i {
                return Err(MembershipPlanError::SparseJoiner(j));
            }
        }
        let mut drained: Vec<NodeId> = Vec::new();
        // Walk in time order so "member at that time" is well-defined.
        let mut ordered: Vec<&MembershipEvent> = self.events.iter().collect();
        ordered.sort_by_key(|e| (e.at(), e.node()));
        let mut joined_so_far: Vec<NodeId> = Vec::new();
        for ev in ordered {
            if ev.at() >= max_time {
                return Err(MembershipPlanError::PastDeadline(ev.at()));
            }
            match ev {
                MembershipEvent::Join { node, .. } => joined_so_far.push(*node),
                MembershipEvent::Drain { node, .. } => {
                    let is_initial = node.index() < initial as usize;
                    if !is_initial && !joined_so_far.contains(node) {
                        return Err(MembershipPlanError::BadDrainee(*node));
                    }
                    if drained.contains(node) {
                        return Err(MembershipPlanError::DuplicateDrain(*node));
                    }
                    drained.push(*node);
                }
            }
        }
        Ok(())
    }

    /// The number of undrained members at the end of the plan, starting
    /// from `initial` servers.
    pub fn final_members(&self, initial: u32) -> usize {
        let drained = self.drained_nodes().len();
        (initial as usize + self.joined_nodes().len()).saturating_sub(drained)
    }

    /// Survivability guardrail for composing this plan with a
    /// [`FaultPlan`]: at no point may the drained set plus the
    /// crashed-but-not-yet-recovered set reduce the live members below a
    /// majority of the *current* membership. Joining nodes are counted as
    /// members only after their join fires (a joiner mid-transfer is not
    /// yet a quorum participant).
    pub fn survivable_with(&self, faults: &FaultPlan, initial: u32) -> bool {
        // Collect every instant the composed schedule changes state.
        let mut times: Vec<SimTime> = self.events.iter().map(|e| e.at()).collect();
        for ev in faults.events() {
            match ev {
                FaultEvent::Crash { at, .. }
                | FaultEvent::Recover { at, .. }
                | FaultEvent::VolumeLoss { at, .. } => times.push(*at),
                FaultEvent::Net { at, .. } => times.push(*at),
            }
        }
        times.sort_unstable();
        times.dedup();
        for &t in &times {
            let mut members: Vec<NodeId> = (0..initial).map(NodeId::new).collect();
            let mut down: Vec<NodeId> = Vec::new();
            for ev in self.events() {
                if ev.at() > t {
                    continue;
                }
                match ev {
                    MembershipEvent::Join { node, .. } => members.push(*node),
                    MembershipEvent::Drain { node, .. } => members.retain(|m| m != node),
                }
            }
            for ev in faults.events() {
                match ev {
                    FaultEvent::Crash { at, node } | FaultEvent::VolumeLoss { at, node }
                        if *at <= t && !down.contains(node) =>
                    {
                        down.push(*node);
                    }
                    FaultEvent::Recover { at, node } if *at <= t => {
                        down.retain(|d| d != node);
                    }
                    _ => {}
                }
            }
            let live = members.iter().filter(|m| !down.contains(m)).count();
            if live < members.len() / 2 + 1 {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ticks: u64) -> SimTime {
        SimTime::from_ticks(ticks)
    }

    #[test]
    fn empty_plan_is_valid_and_empty() {
        let p = MembershipPlan::new();
        assert!(p.is_empty());
        assert!(p.validate(3, t(1_000)).is_ok());
        assert_eq!(p.peak_servers(3), 3);
        assert_eq!(p.final_members(3), 3);
    }

    #[test]
    fn grow_and_shrink_cycle_validates() {
        let p = MembershipPlan::new()
            .join_at(t(100), NodeId::new(3))
            .join_at(t(120), NodeId::new(4))
            .drain_at(t(500), NodeId::new(4))
            .drain_at(t(520), NodeId::new(3));
        assert!(p.validate(3, t(1_000)).is_ok());
        assert_eq!(p.peak_servers(3), 5);
        assert_eq!(p.final_members(3), 3);
        assert_eq!(p.joined_nodes(), vec![NodeId::new(3), NodeId::new(4)]);
        assert_eq!(p.drained_nodes(), vec![NodeId::new(3), NodeId::new(4)]);
    }

    #[test]
    fn joiner_inside_initial_range_is_rejected() {
        let p = MembershipPlan::new().join_at(t(100), NodeId::new(1));
        assert_eq!(
            p.validate(3, t(1_000)),
            Err(MembershipPlanError::BadJoiner(NodeId::new(1)))
        );
    }

    #[test]
    fn sparse_joiner_ids_are_rejected() {
        let p = MembershipPlan::new().join_at(t(100), NodeId::new(5));
        assert_eq!(
            p.validate(3, t(1_000)),
            Err(MembershipPlanError::SparseJoiner(NodeId::new(5)))
        );
    }

    #[test]
    fn drain_of_a_never_member_is_rejected() {
        let p = MembershipPlan::new().drain_at(t(100), NodeId::new(7));
        assert_eq!(
            p.validate(3, t(1_000)),
            Err(MembershipPlanError::BadDrainee(NodeId::new(7)))
        );
        // Draining a joiner before its join fires is also rejected.
        let p = MembershipPlan::new()
            .drain_at(t(50), NodeId::new(3))
            .join_at(t(100), NodeId::new(3));
        assert_eq!(
            p.validate(3, t(1_000)),
            Err(MembershipPlanError::BadDrainee(NodeId::new(3)))
        );
    }

    #[test]
    fn double_drain_and_deadline_are_rejected() {
        let p = MembershipPlan::new()
            .join_at(t(10), NodeId::new(3))
            .drain_at(t(20), NodeId::new(3))
            .drain_at(t(30), NodeId::new(3));
        assert_eq!(
            p.validate(3, t(1_000)),
            Err(MembershipPlanError::DuplicateDrain(NodeId::new(3)))
        );
        let p = MembershipPlan::new().join_at(t(2_000), NodeId::new(3));
        assert_eq!(
            p.validate(3, t(1_000)),
            Err(MembershipPlanError::PastDeadline(t(2_000)))
        );
    }

    #[test]
    fn survivability_composes_drains_and_crashes() {
        // 3 initial; drain one → 2 members, quorum 2. A crash of one of
        // the remaining two drops live below quorum.
        let m = MembershipPlan::new()
            .join_at(t(100), NodeId::new(3))
            .drain_at(t(200), NodeId::new(3));
        let safe = FaultPlan::new().crash_at(t(300), NodeId::new(2));
        assert!(m.survivable_with(&safe, 3));
        let unsafe_ = FaultPlan::new()
            .crash_at(t(300), NodeId::new(1))
            .crash_at(t(310), NodeId::new(2));
        assert!(!m.survivable_with(&unsafe_, 3));
    }
}

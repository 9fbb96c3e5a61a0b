//! The substrate network: switches, links, and their properties.
//!
//! Matches the paper's network model (§V-A): an undirected graph
//! `G = (V_G, E_G)` where each switch `u` has a programmability flag
//! `P(u)`, a stage count `C_stage`, a per-stage resource capacity `C_res`,
//! and a maximum transmission latency `t_s(u)`; each link has a
//! transmission latency `t_l(u, v)`.

use crate::target::{TargetKind, TargetModel};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;

/// Number of match-action pipeline stages of a Tofino-class switch.
pub const TOFINO_STAGES: usize = 12;

/// Identifier of a switch within one [`Network`]; a dense index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct SwitchId(pub(crate) usize);

impl SwitchId {
    /// The dense index of this switch.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for SwitchId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// One switch of the substrate network.
///
/// `Serialize`/`Deserialize` are hand-written: the two target-model fields
/// are emitted only when they differ from the paper defaults and default
/// when absent, so default (paper-model) switches round-trip byte-identically
/// to the pre-target wire format.
#[derive(Debug, Clone, PartialEq)]
pub struct Switch {
    /// Human-readable name (unique within the network).
    pub name: String,
    /// `P(u)` — whether the switch is programmable (can host MATs).
    pub programmable: bool,
    /// `C_stage` — number of pipeline stages (only meaningful when
    /// programmable).
    pub stages: usize,
    /// `C_res` — per-stage resource capacity in normalized units
    /// (1.0 = the capacity one "full stage" MAT consumes).
    pub stage_capacity: f64,
    /// `t_s(u)` — maximum transmission latency through the switch, in
    /// microseconds.
    pub latency_us: f64,
    /// Target-model family ([`TargetKind::Pipeline`] is the paper's default
    /// hardware model; the field is skipped in serialization so default
    /// switches round-trip byte-identically to the pre-target format).
    pub target: TargetKind,
    /// Per-switch total resource budget in normalized units; `INFINITY`
    /// (the default, skipped in serialization) means only the pipeline sum
    /// `C_stage × C_res` bounds the switch.
    pub total_budget: f64,
}

impl Serialize for Switch {
    fn serialize(&self, s: &mut serde::Serializer) -> Result<(), serde::Error> {
        let mut m = s.map()?;
        m.field("name", &self.name)?;
        m.field("programmable", &self.programmable)?;
        m.field("stages", &self.stages)?;
        m.field("stage_capacity", &self.stage_capacity)?;
        m.field("latency_us", &self.latency_us)?;
        if !self.target.is_pipeline() {
            m.field("target", &self.target)?;
        }
        if self.total_budget.is_finite() {
            m.field("total_budget", &self.total_budget)?;
        }
        m.end();
        Ok(())
    }
}

impl Deserialize for Switch {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        Ok(Switch {
            name: Deserialize::from_value(v.get_field("name")?)?,
            programmable: Deserialize::from_value(v.get_field("programmable")?)?,
            stages: Deserialize::from_value(v.get_field("stages")?)?,
            stage_capacity: Deserialize::from_value(v.get_field("stage_capacity")?)?,
            latency_us: Deserialize::from_value(v.get_field("latency_us")?)?,
            target: match v.get_field("target") {
                Ok(t) => Deserialize::from_value(t)?,
                Err(_) => TargetKind::Pipeline,
            },
            total_budget: match v.get_field("total_budget") {
                Ok(b) => Deserialize::from_value(b)?,
                Err(_) => f64::INFINITY,
            },
        })
    }
}

impl Switch {
    /// A Tofino-like programmable switch: 12 stages of unit capacity, 1 µs.
    pub fn tofino(name: impl Into<String>) -> Self {
        Switch {
            name: name.into(),
            programmable: true,
            stages: TOFINO_STAGES,
            stage_capacity: 1.0,
            latency_us: 1.0,
            target: TargetKind::Pipeline,
            total_budget: f64::INFINITY,
        }
    }

    /// A SmartNIC-like programmable switch: fewer, deeper stages plus a
    /// per-switch total-resource budget (see [`TargetModel::smartnic`]).
    pub fn smartnic(name: impl Into<String>) -> Self {
        let mut sw = Switch::tofino(name);
        TargetModel::smartnic().apply_to(&mut sw);
        sw
    }

    /// A software switch: no architectural stage limit (packing depth
    /// [`crate::target::SOFT_STAGES`]), a total budget, and a latency
    /// multiplier (see [`TargetModel::software`]).
    pub fn software(name: impl Into<String>) -> Self {
        let mut sw = Switch::tofino(name);
        TargetModel::software().apply_to(&mut sw);
        sw
    }

    /// A legacy (non-programmable) switch that only forwards, 1 µs.
    pub fn legacy(name: impl Into<String>) -> Self {
        Switch {
            name: name.into(),
            programmable: false,
            stages: 0,
            stage_capacity: 0.0,
            latency_us: 1.0,
            target: TargetKind::Pipeline,
            total_budget: f64::INFINITY,
        }
    }

    /// This switch's pipeline cost model — the one authority every
    /// capacity/fit decision routes through. A cheap `Copy` view; safe to
    /// construct inside hot loops.
    pub fn target_model(&self) -> TargetModel {
        let name = match self.target {
            TargetKind::SmartNic => "smartnic",
            TargetKind::Software => "soft",
            TargetKind::Pipeline if !self.programmable => "legacy",
            TargetKind::Pipeline
                if self.stages == TOFINO_STAGES
                    && self.stage_capacity == 1.0
                    && self.total_budget.is_infinite() =>
            {
                "tofino"
            }
            TargetKind::Pipeline => "pipeline",
        };
        TargetModel {
            name,
            kind: self.target,
            stages: self.stages,
            stage_capacity: self.stage_capacity,
            total_budget: self.total_budget,
            latency_us: self.latency_us,
        }
    }

    /// Total resource capacity across all stages: `C_stage * C_res`,
    /// clamped by the target budget when one is set (delegates to
    /// [`TargetModel::total_capacity`], the single definition of "fits").
    pub fn total_capacity(&self) -> f64 {
        self.target_model().total_capacity()
    }
}

/// An undirected link with a transmission latency `t_l(u, v)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Link {
    /// One endpoint.
    pub a: SwitchId,
    /// The other endpoint.
    pub b: SwitchId,
    /// Transmission latency in microseconds.
    pub latency_us: f64,
}

impl Link {
    /// The endpoint opposite `s`, or `None` if `s` is not an endpoint.
    pub fn other(&self, s: SwitchId) -> Option<SwitchId> {
        if s == self.a {
            Some(self.b)
        } else if s == self.b {
            Some(self.a)
        } else {
            None
        }
    }
}

/// Errors from network construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetworkError {
    /// A link endpoint referenced a switch id not in the network.
    UnknownSwitch {
        /// The invalid index.
        index: usize,
    },
    /// A link connects a switch to itself.
    SelfLoop {
        /// The switch in question.
        switch: usize,
    },
    /// The same unordered switch pair was linked twice.
    DuplicateLink {
        /// One endpoint.
        a: usize,
        /// The other endpoint.
        b: usize,
    },
}

impl fmt::Display for NetworkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetworkError::UnknownSwitch { index } => write!(f, "unknown switch index {index}"),
            NetworkError::SelfLoop { switch } => write!(f, "self-loop on switch {switch}"),
            NetworkError::DuplicateLink { a, b } => write!(f, "duplicate link {a} <-> {b}"),
        }
    }
}

impl std::error::Error for NetworkError {}

/// The substrate network `G = (V_G, E_G)`.
///
/// # Examples
///
/// ```
/// use hermes_net::{Network, Switch};
///
/// let mut net = Network::new();
/// let a = net.add_switch(Switch::tofino("a"));
/// let b = net.add_switch(Switch::tofino("b"));
/// net.add_link(a, b, 1000.0)?;
/// assert_eq!(net.switch_count(), 2);
/// assert!(net.is_connected());
/// # Ok::<(), hermes_net::NetworkError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Network {
    switches: Vec<Switch>,
    links: Vec<Link>,
    /// adjacency: per switch, indices into `links`.
    adjacency: Vec<Vec<usize>>,
    /// Failed switches (indices). Down switches keep their id (the id space
    /// stays dense) but disappear from `neighbors`, `programmable_switches`,
    /// `link_between`, and connectivity queries.
    down_switches: BTreeSet<usize>,
    /// Failed links (indices into `links`).
    down_links: BTreeSet<usize>,
}

impl Network {
    /// Creates an empty network.
    pub fn new() -> Self {
        Network::default()
    }

    /// Adds a switch, returning its id.
    pub fn add_switch(&mut self, switch: Switch) -> SwitchId {
        self.switches.push(switch);
        self.adjacency.push(Vec::new());
        SwitchId(self.switches.len() - 1)
    }

    /// Adds an undirected link with the given latency (µs).
    ///
    /// # Errors
    ///
    /// Rejects self-loops, unknown endpoints, and duplicate links.
    pub fn add_link(
        &mut self,
        a: SwitchId,
        b: SwitchId,
        latency_us: f64,
    ) -> Result<(), NetworkError> {
        if a.0 >= self.switches.len() {
            return Err(NetworkError::UnknownSwitch { index: a.0 });
        }
        if b.0 >= self.switches.len() {
            return Err(NetworkError::UnknownSwitch { index: b.0 });
        }
        if a == b {
            return Err(NetworkError::SelfLoop { switch: a.0 });
        }
        if self.link_slot_between(a, b).is_some() {
            return Err(NetworkError::DuplicateLink { a: a.0, b: b.0 });
        }
        self.links.push(Link { a, b, latency_us });
        let idx = self.links.len() - 1;
        self.adjacency[a.0].push(idx);
        self.adjacency[b.0].push(idx);
        Ok(())
    }

    /// Number of switches `Q = |V_G|`.
    pub fn switch_count(&self) -> usize {
        self.switches.len()
    }

    /// Number of links `N = |E_G|`.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// All switches, indexable by [`SwitchId::index`].
    pub fn switches(&self) -> &[Switch] {
        &self.switches
    }

    /// All links.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// The switch with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this network.
    pub fn switch(&self, id: SwitchId) -> &Switch {
        &self.switches[id.0]
    }

    /// Mutable access to a switch (e.g. to toggle programmability in tests).
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this network.
    pub fn switch_mut(&mut self, id: SwitchId) -> &mut Switch {
        &mut self.switches[id.0]
    }

    /// Iterator over all switch ids in index order.
    pub fn switch_ids(&self) -> impl Iterator<Item = SwitchId> + '_ {
        (0..self.switches.len()).map(SwitchId)
    }

    /// Ids of the programmable switches that are up.
    pub fn programmable_switches(&self) -> Vec<SwitchId> {
        self.switch_ids().filter(|&s| self.is_switch_up(s) && self.switch(s).programmable).collect()
    }

    /// Index of the link slot between `a` and `b`, ignoring down states
    /// (construction-time duplicate detection must see failed links too).
    fn link_slot_between(&self, a: SwitchId, b: SwitchId) -> Option<usize> {
        self.adjacency.get(a.0)?.iter().copied().find(|&i| self.links[i].other(a) == Some(b))
    }

    /// The *usable* link between `a` and `b`: `None` if no such link exists,
    /// if the link is down, or if either endpoint is down.
    pub fn link_between(&self, a: SwitchId, b: SwitchId) -> Option<&Link> {
        if !self.is_switch_up(a) || !self.is_switch_up(b) {
            return None;
        }
        let idx = self.link_slot_between(a, b)?;
        if self.down_links.contains(&idx) {
            return None;
        }
        Some(&self.links[idx])
    }

    /// Neighbors of `s` reachable over up links, with the connecting link
    /// latency. Empty if `s` itself is down.
    pub fn neighbors(&self, s: SwitchId) -> impl Iterator<Item = (SwitchId, f64)> + '_ {
        let s_up = self.is_switch_up(s);
        self.adjacency[s.0]
            .iter()
            .filter(move |_| s_up)
            .filter(|&&i| !self.down_links.contains(&i))
            .filter_map(move |&i| {
                let l = &self.links[i];
                l.other(s).filter(|&o| self.is_switch_up(o)).map(|o| (o, l.latency_us))
            })
    }

    /// Marks a switch as failed. Idempotent. All its links become unusable;
    /// the switch disappears from [`Network::programmable_switches`],
    /// [`Network::neighbors`], and connectivity queries but keeps its id.
    ///
    /// # Panics
    ///
    /// Panics if `s` does not belong to this network.
    pub fn fail_switch(&mut self, s: SwitchId) {
        assert!(s.0 < self.switches.len(), "unknown switch {s}");
        self.down_switches.insert(s.0);
    }

    /// Brings a failed switch back up. Idempotent.
    pub fn restore_switch(&mut self, s: SwitchId) {
        self.down_switches.remove(&s.0);
    }

    /// `true` iff the switch exists and is not failed.
    pub fn is_switch_up(&self, s: SwitchId) -> bool {
        s.0 < self.switches.len() && !self.down_switches.contains(&s.0)
    }

    /// Marks the link between `a` and `b` as failed. Returns `false` (and
    /// changes nothing) if no such link exists. Idempotent.
    pub fn fail_link(&mut self, a: SwitchId, b: SwitchId) -> bool {
        match self.link_slot_between(a, b) {
            Some(idx) => {
                self.down_links.insert(idx);
                true
            }
            None => false,
        }
    }

    /// Brings the link between `a` and `b` back up. Returns `false` if no
    /// such link exists. Idempotent.
    pub fn restore_link(&mut self, a: SwitchId, b: SwitchId) -> bool {
        match self.link_slot_between(a, b) {
            Some(idx) => {
                self.down_links.remove(&idx);
                true
            }
            None => false,
        }
    }

    /// `true` iff a link between `a` and `b` exists, is up, and both
    /// endpoints are up.
    pub fn is_link_up(&self, a: SwitchId, b: SwitchId) -> bool {
        self.link_between(a, b).is_some()
    }

    /// Ids of currently failed switches, ascending.
    pub fn down_switches(&self) -> Vec<SwitchId> {
        self.down_switches.iter().map(|&i| SwitchId(i)).collect()
    }

    /// Number of switches currently up.
    pub fn up_switch_count(&self) -> usize {
        self.switches.len() - self.down_switches.len()
    }

    /// Looks a switch up by name.
    pub fn switch_by_name(&self, name: &str) -> Option<SwitchId> {
        self.switches.iter().position(|s| s.name == name).map(SwitchId)
    }

    /// The switches of the largest connected component (ties: the one
    /// containing the smallest switch index). Deployment algorithms that
    /// fill switches in index order restrict themselves to this set so a
    /// disconnected WAN (e.g. Table III topology 5) stays deployable.
    pub fn largest_component(&self) -> Vec<SwitchId> {
        let n = self.switches.len();
        let mut component = vec![usize::MAX; n];
        let mut best: (usize, usize) = (0, usize::MAX); // (size, id)
        let mut next = 0usize;
        for start in 0..n {
            if component[start] != usize::MAX || !self.is_switch_up(SwitchId(start)) {
                continue;
            }
            let id = next;
            next += 1;
            let mut size = 0usize;
            let mut stack = vec![start];
            component[start] = id;
            while let Some(u) = stack.pop() {
                size += 1;
                for (v, _) in self.neighbors(SwitchId(u)) {
                    if component[v.0] == usize::MAX {
                        component[v.0] = id;
                        stack.push(v.0);
                    }
                }
            }
            if size > best.0 {
                best = (size, id);
            }
        }
        (0..n).filter(|&i| component[i] == best.1).map(SwitchId).collect()
    }

    /// `true` iff every *up* switch can reach every other up switch (or no
    /// switch is up).
    pub fn is_connected(&self) -> bool {
        let Some(first_up) = self.switch_ids().find(|&s| self.is_switch_up(s)) else {
            return true;
        };
        let mut seen = BTreeSet::from([first_up.0]);
        let mut stack = vec![first_up];
        while let Some(u) = stack.pop() {
            for (v, _) in self.neighbors(u) {
                if seen.insert(v.0) {
                    stack.push(v);
                }
            }
        }
        seen.len() == self.up_switch_count()
    }
}

impl fmt::Display for Network {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Network({} switches / {} programmable, {} links)",
            self.switch_count(),
            self.programmable_switches().len(),
            self.link_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> (Network, SwitchId, SwitchId, SwitchId) {
        let mut net = Network::new();
        let a = net.add_switch(Switch::tofino("a"));
        let b = net.add_switch(Switch::tofino("b"));
        let c = net.add_switch(Switch::legacy("c"));
        net.add_link(a, b, 10.0).unwrap();
        net.add_link(b, c, 20.0).unwrap();
        net.add_link(a, c, 30.0).unwrap();
        (net, a, b, c)
    }

    #[test]
    fn construction_and_lookup() {
        let (net, a, b, c) = triangle();
        assert_eq!(net.switch_count(), 3);
        assert_eq!(net.link_count(), 3);
        assert_eq!(net.switch_by_name("b"), Some(b));
        assert_eq!(net.programmable_switches(), vec![a, b]);
        assert!(net.switch(c).stages == 0);
    }

    #[test]
    fn self_loop_rejected() {
        let mut net = Network::new();
        let a = net.add_switch(Switch::tofino("a"));
        assert_eq!(net.add_link(a, a, 1.0), Err(NetworkError::SelfLoop { switch: 0 }));
    }

    #[test]
    fn duplicate_link_rejected() {
        let (mut net, a, b, _) = triangle();
        assert_eq!(net.add_link(a, b, 5.0), Err(NetworkError::DuplicateLink { a: 0, b: 1 }));
        assert_eq!(net.add_link(b, a, 5.0), Err(NetworkError::DuplicateLink { a: 1, b: 0 }));
    }

    #[test]
    fn unknown_switch_rejected() {
        let mut net = Network::new();
        let a = net.add_switch(Switch::tofino("a"));
        let ghost = SwitchId(7);
        assert_eq!(net.add_link(a, ghost, 1.0), Err(NetworkError::UnknownSwitch { index: 7 }));
    }

    #[test]
    fn neighbors_symmetric() {
        let (net, a, b, _) = triangle();
        let from_a: Vec<_> = net.neighbors(a).collect();
        assert_eq!(from_a.len(), 2);
        assert!(net.neighbors(b).any(|(n, lat)| n == a && lat == 10.0));
    }

    #[test]
    fn connectivity() {
        let (net, ..) = triangle();
        assert!(net.is_connected());
        let mut disconnected = Network::new();
        disconnected.add_switch(Switch::tofino("x"));
        disconnected.add_switch(Switch::tofino("y"));
        assert!(!disconnected.is_connected());
        assert!(Network::new().is_connected());
    }

    #[test]
    fn failed_switch_disappears_from_queries() {
        let (mut net, a, b, c) = triangle();
        net.fail_switch(b);
        assert!(!net.is_switch_up(b));
        assert_eq!(net.programmable_switches(), vec![a]);
        assert_eq!(net.up_switch_count(), 2);
        assert_eq!(net.down_switches(), vec![b]);
        assert!(net.neighbors(b).next().is_none(), "down switch has no neighbors");
        assert!(net.neighbors(a).all(|(n, _)| n != b));
        assert!(net.link_between(a, b).is_none());
        // a -- c still up: the triangle minus b stays connected.
        assert!(net.is_link_up(a, c));
        assert!(net.is_connected());
        net.restore_switch(b);
        assert_eq!(net.programmable_switches(), vec![a, b]);
        assert!(net.is_link_up(a, b));
    }

    #[test]
    fn failed_link_disconnects_and_restores() {
        let (mut net, a, b, c) = triangle();
        assert!(net.fail_link(a, b));
        assert!(net.fail_link(b, a), "direction-insensitive");
        assert!(!net.is_link_up(a, b));
        assert!(net.link_between(a, b).is_none());
        assert!(net.neighbors(a).all(|(n, _)| n != b));
        assert!(net.is_connected(), "detour via c remains");
        assert!(net.fail_link(b, c));
        assert!(!net.is_connected(), "b is now isolated");
        assert_eq!(net.largest_component(), vec![a, c]);
        assert!(net.restore_link(a, b));
        assert!(net.is_link_up(a, b));
        assert!(net.is_connected());
        // Unknown pairs are reported, not silently accepted.
        let ghost = SwitchId(9);
        assert!(!net.fail_link(a, ghost));
        assert!(!net.restore_link(a, ghost));
    }

    #[test]
    fn down_states_do_not_perturb_healthy_queries() {
        let (mut net, a, b, c) = triangle();
        let before: Vec<_> = net.neighbors(a).collect();
        net.fail_switch(b);
        net.restore_switch(b);
        net.fail_link(b, c);
        net.restore_link(b, c);
        assert_eq!(net.neighbors(a).collect::<Vec<_>>(), before);
        assert_eq!(net.largest_component(), vec![a, b, c]);
    }

    #[test]
    fn tofino_defaults() {
        let s = Switch::tofino("t");
        assert_eq!(s.stages, TOFINO_STAGES);
        assert_eq!(s.total_capacity(), 12.0);
        assert!(s.programmable);
    }
}

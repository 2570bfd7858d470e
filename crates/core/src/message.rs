//! Wire messages of the two algorithms.

use doorway::{DoorwayMsg, DoorwaySet};

/// Messages of the recoloring procedures (Algorithms 4 and 5).
#[derive(Clone, Debug, PartialEq, Hash)]
pub enum RecolorMsg {
    /// Greedy procedure: one iteration's view of the conflict graph, with
    /// the `finished` flag of Algorithm 4 (Line 65 / Line 71).
    Graph {
        /// Edges of the sender's collected graph `G` (vertex = node ID).
        edges: Vec<(u32, u32)>,
        /// True when this is the sender's final graph (its loop ended).
        finished: bool,
    },
    /// Linial procedure: the sender's temporary color for the current round
    /// (Algorithm 5, Line 65).
    TempColor(u64),
    /// Randomized procedure (the Kuhn–Wattenhofer-style extension suggested
    /// in the paper's Discussion): the sender's candidate color for the
    /// current round, and whether the sender has committed to it.
    Candidate {
        /// The proposed color.
        value: u64,
        /// True when the sender decided on this color (its final round).
        decided: bool,
    },
    /// Response by a node that is not participating in recoloring
    /// (Algorithm 2, Lines 40–43): the sender drops the responder from `R`.
    Nack,
}

/// All messages of Algorithm 1, multiplexed on one channel.
#[derive(Clone, Debug, PartialEq, Hash)]
pub enum A1Msg {
    /// Doorway crossing/exit/status traffic for the four doorways.
    Doorway(DoorwayMsg),
    /// Request for the shared fork (`req`).
    Req,
    /// The shared fork; `flag` asks for it back (Line 31).
    Fork {
        /// The sender wants this (low) fork returned once the receiver has
        /// all its low forks.
        flag: bool,
        /// Transfer generation on this link incarnation (strictly
        /// increasing per transfer); receivers discard stale generations,
        /// which makes fork transfer idempotent under the duplication
        /// fault adversary. Not part of the paper (its links never
        /// duplicate).
        gen: u64,
    },
    /// `update-color(c)`: the sender's color changed to `c`.
    UpdateColor(i64),
    /// The ⟨update-color, L⟩ message a static node sends to a newly arrived
    /// neighbor (Algorithm 3, Line 46): its color plus its position
    /// relative to every doorway.
    Hello {
        /// The sender's current color.
        color: i64,
        /// The doorways the sender is currently behind.
        behind: DoorwaySet,
    },
    /// Recoloring traffic.
    Recolor(RecolorMsg),
}

/// All messages of Algorithm 2.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum A2Msg {
    /// Request for the shared fork.
    Req,
    /// The shared fork; `flag` asks for it back.
    Fork {
        /// The sender wants this (low) fork returned once the receiver has
        /// all its low forks.
        flag: bool,
        /// Transfer generation on this link incarnation; see
        /// [`A1Msg::Fork`].
        gen: u64,
    },
    /// A newly hungry node announces itself (Algorithm 6, Line 2).
    Notification,
    /// The sender lowers its priority below the receiver (Line 8 / 25).
    Switch,
}

impl A1Msg {
    /// Coarse label for message-complexity accounting.
    pub fn kind(&self) -> &'static str {
        match self {
            A1Msg::Doorway(_) => "doorway",
            A1Msg::Req => "req",
            A1Msg::Fork { .. } => "fork",
            A1Msg::UpdateColor(_) => "update-color",
            A1Msg::Hello { .. } => "hello",
            A1Msg::Recolor(_) => "recolor",
        }
    }
}

impl A2Msg {
    /// Coarse label for message-complexity accounting.
    pub fn kind(&self) -> &'static str {
        match self {
            A2Msg::Req => "req",
            A2Msg::Fork { .. } => "fork",
            A2Msg::Notification => "notification",
            A2Msg::Switch => "switch",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_compare_structurally() {
        assert_eq!(A2Msg::Req, A2Msg::Req);
        assert_ne!(
            A2Msg::Fork { flag: true, gen: 1 },
            A2Msg::Fork {
                flag: false,
                gen: 1
            }
        );
        assert_ne!(
            A2Msg::Fork { flag: true, gen: 1 },
            A2Msg::Fork { flag: true, gen: 2 }
        );
        let g = RecolorMsg::Graph {
            edges: vec![(0, 1)],
            finished: false,
        };
        assert_eq!(g.clone(), g);
        assert_ne!(
            A1Msg::Req,
            A1Msg::Fork {
                flag: false,
                gen: 1
            }
        );
    }
}

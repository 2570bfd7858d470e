//! The single-doorway state machine.
//!
//! A doorway's view of its neighbours is two [`NeighborSet`]s — sorted
//! vectors of at most δ IDs. A doorway derives `Hash`, so it enters the
//! state digest of the algorithm embedding it field by field.

use manet_sim::{NeighborSet, NodeId};

use crate::message::DoorwayMsg;
use crate::tag::DoorwayTag;

/// Synchronous or asynchronous entry discipline (Figure 2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DoorwayKind {
    /// Cross when all neighbors are observed outside *simultaneously*.
    Synchronous,
    /// Cross once every neighbor has been observed outside *at least once*.
    Asynchronous,
}

/// One node's view of one doorway: its own position, the last known position
/// of each neighbor (the array `L[]` of Figure 2), and entry-code progress.
///
/// The machine is driven by the embedding protocol:
///
/// * [`Doorway::begin_entry`] starts the entry code,
/// * [`Doorway::note_cross`] / [`Doorway::note_exit`] record a received
///   `cross`/`exit` message from a neighbor,
/// * [`Doorway::neighbor_joined`] / [`Doorway::neighbor_left`] track
///   neighborhood changes,
/// * [`Doorway::ready`] evaluates the entry condition against the *current*
///   neighbor set,
/// * [`Doorway::cross`] / [`Doorway::exit`] complete the entry/exit code and
///   return the message to broadcast.
///
/// ```
/// use doorway::{Doorway, DoorwayKind, DoorwayTag, DoorwayMsg};
/// use manet_sim::NodeId;
///
/// let tag = DoorwayTag::new(0);
/// let mut d = Doorway::new(tag, DoorwayKind::Synchronous);
/// let n = [NodeId(1)];
/// d.begin_entry(&n);
/// assert!(d.ready(&n)); // neighbor initially outside
/// assert_eq!(d.cross(), DoorwayMsg::Cross(tag));
/// assert!(d.is_behind());
/// assert_eq!(d.exit(), DoorwayMsg::Exit(tag));
/// ```
#[derive(Clone, Debug, Hash)]
pub struct Doorway {
    tag: DoorwayTag,
    kind: DoorwayKind,
    /// Neighbors whose last message for this doorway was `cross`.
    behind: NeighborSet,
    /// Entry progress of the asynchronous discipline: neighbors observed
    /// outside at least once since `begin_entry`.
    seen_outside: NeighborSet,
    my_behind: bool,
    entering: bool,
}

impl Doorway {
    /// A fresh doorway; everyone (including this node) is outside.
    pub fn new(tag: DoorwayTag, kind: DoorwayKind) -> Doorway {
        Doorway {
            tag,
            kind,
            behind: NeighborSet::new(),
            seen_outside: NeighborSet::new(),
            my_behind: false,
            entering: false,
        }
    }

    /// This doorway's tag.
    pub fn tag(&self) -> DoorwayTag {
        self.tag
    }

    /// This doorway's entry discipline.
    pub fn kind(&self) -> DoorwayKind {
        self.kind
    }

    /// Whether this node is behind the doorway (crossed, not yet exited).
    pub fn is_behind(&self) -> bool {
        self.my_behind
    }

    /// Whether this node is currently executing the entry code.
    pub fn is_entering(&self) -> bool {
        self.entering
    }

    /// Whether, to this node's knowledge, neighbor `j` is behind the
    /// doorway.
    pub fn neighbor_behind(&self, j: NodeId) -> bool {
        self.behind.contains(j)
    }

    /// Start executing the entry code. `neighbors` is the current neighbor
    /// set; under the asynchronous discipline all currently-outside
    /// neighbors are immediately "observed outside".
    ///
    /// # Panics
    ///
    /// Panics if the node is already behind the doorway.
    pub fn begin_entry(&mut self, neighbors: &[NodeId]) {
        assert!(!self.my_behind, "entry while behind doorway {:?}", self.tag);
        self.entering = true;
        self.seen_outside.clear();
        for &j in neighbors {
            if !self.behind.contains(j) {
                self.seen_outside.insert(j);
            }
        }
    }

    /// Evaluate the entry condition against the current neighbor set.
    /// Always false unless the entry code is executing.
    pub fn ready(&self, neighbors: &[NodeId]) -> bool {
        if !self.entering {
            return false;
        }
        match self.kind {
            DoorwayKind::Synchronous => neighbors.iter().all(|&j| !self.behind.contains(j)),
            DoorwayKind::Asynchronous => neighbors.iter().all(|&j| self.seen_outside.contains(j)),
        }
    }

    /// Complete the entry code (the caller must have checked [`Doorway::ready`]):
    /// the node is now behind the doorway. Returns the `cross` broadcast.
    pub fn cross(&mut self) -> DoorwayMsg {
        debug_assert!(self.entering, "cross without entry");
        self.entering = false;
        self.my_behind = true;
        DoorwayMsg::Cross(self.tag)
    }

    /// Complete the exit code: the node is outside again. Returns the `exit`
    /// broadcast. Idempotent on an outside node (returns the broadcast
    /// anyway, which is harmless).
    pub fn exit(&mut self) -> DoorwayMsg {
        self.my_behind = false;
        self.entering = false;
        DoorwayMsg::Exit(self.tag)
    }

    /// Abandon the doorway without broadcasting (the caller broadcasts a
    /// combined [`DoorwayMsg::ExitAll`] instead). Also cancels a pending
    /// entry.
    pub fn abandon(&mut self) {
        self.my_behind = false;
        self.entering = false;
    }

    /// Record a `cross` message (or status bit) from neighbor `j`.
    pub fn note_cross(&mut self, j: NodeId) {
        self.behind.insert(j);
    }

    /// Record an `exit` message (or exit-all, or outside status) from
    /// neighbor `j`.
    pub fn note_exit(&mut self, j: NodeId) {
        self.behind.remove(j);
        if self.entering {
            self.seen_outside.insert(j);
        }
    }

    /// A new neighbor `j` appeared; `j_behind` is its true position if known
    /// from a status message (a brand-new neighbor defaults to outside).
    pub fn neighbor_joined(&mut self, j: NodeId, j_behind: bool) {
        if j_behind {
            self.behind.insert(j);
            self.seen_outside.remove(j);
        } else {
            self.note_exit(j);
        }
    }

    /// Neighbor `j` disappeared.
    pub fn neighbor_left(&mut self, j: NodeId) {
        self.behind.remove(j);
        self.seen_outside.remove(j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tag() -> DoorwayTag {
        DoorwayTag::new(0)
    }

    #[test]
    fn synchronous_requires_simultaneous_outside() {
        let mut d = Doorway::new(tag(), DoorwayKind::Synchronous);
        let n = [NodeId(1), NodeId(2)];
        d.note_cross(NodeId(1));
        d.begin_entry(&n);
        assert!(!d.ready(&n));
        d.note_exit(NodeId(1));
        assert!(d.ready(&n));
        // p2 crosses: no longer simultaneous.
        d.note_cross(NodeId(2));
        assert!(!d.ready(&n));
    }

    #[test]
    fn asynchronous_accumulates_observations() {
        let mut d = Doorway::new(tag(), DoorwayKind::Asynchronous);
        let n = [NodeId(1), NodeId(2)];
        d.note_cross(NodeId(1));
        d.note_cross(NodeId(2));
        d.begin_entry(&n);
        assert!(!d.ready(&n));
        d.note_exit(NodeId(1));
        assert!(!d.ready(&n));
        // p1 crosses again — but it was already observed outside once.
        d.note_cross(NodeId(1));
        d.note_exit(NodeId(2));
        assert!(d.ready(&n), "each neighbor was outside at least once");
    }

    #[test]
    fn cross_and_exit_produce_broadcasts() {
        let mut d = Doorway::new(tag(), DoorwayKind::Synchronous);
        d.begin_entry(&[]);
        assert!(d.ready(&[]));
        assert_eq!(d.cross(), DoorwayMsg::Cross(tag()));
        assert!(d.is_behind());
        assert_eq!(d.exit(), DoorwayMsg::Exit(tag()));
        assert!(!d.is_behind());
    }

    #[test]
    fn new_neighbor_defaults_outside_but_status_wins() {
        let mut d = Doorway::new(tag(), DoorwayKind::Synchronous);
        let n = [NodeId(1)];
        d.begin_entry(&n);
        d.neighbor_joined(NodeId(1), true);
        assert!(!d.ready(&n));
        d.neighbor_left(NodeId(1));
        assert!(d.ready(&n));
    }

    #[test]
    fn departed_neighbor_no_longer_blocks() {
        let mut d = Doorway::new(tag(), DoorwayKind::Asynchronous);
        let n = [NodeId(1), NodeId(2)];
        d.note_cross(NodeId(1));
        d.begin_entry(&n);
        assert!(!d.ready(&n));
        // p1 moves away: condition evaluated over the remaining neighbors.
        d.neighbor_left(NodeId(1));
        let n2 = [NodeId(2)];
        assert!(d.ready(&n2));
    }

    #[test]
    #[should_panic(expected = "entry while behind")]
    fn reentry_while_behind_panics() {
        let mut d = Doorway::new(tag(), DoorwayKind::Synchronous);
        d.begin_entry(&[]);
        d.cross();
        d.begin_entry(&[]);
    }

    #[test]
    fn abandon_cancels_everything_silently() {
        let mut d = Doorway::new(tag(), DoorwayKind::Synchronous);
        d.begin_entry(&[]);
        d.cross();
        d.abandon();
        assert!(!d.is_behind());
        assert!(!d.is_entering());
    }
}

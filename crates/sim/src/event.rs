//! Events delivered to protocols.

use crate::ids::NodeId;

/// Which side of a newly created link a node is on.
///
/// The paper assumes the link-level protocol breaks symmetry in favour of
/// static nodes: when a link forms between a static and a moving node the
/// notifications are "as expected"; when it forms between two moving nodes,
/// exactly one of them (here: the smaller ID) receives the notification *for
/// a static node*. The fork for the new link is owned by the `AsStatic` side.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LinkUpKind {
    /// This node is (treated as) the static endpoint of the new link. It
    /// owns the newly created fork.
    AsStatic,
    /// This node is the moving endpoint. It does not own the new fork and —
    /// in the paper's algorithms — must wait for the static side's state
    /// summary before competing again.
    AsMoving,
}

impl LinkUpKind {
    /// The kind delivered to the opposite endpoint of the same link.
    pub fn opposite(self) -> LinkUpKind {
        match self {
            LinkUpKind::AsStatic => LinkUpKind::AsMoving,
            LinkUpKind::AsMoving => LinkUpKind::AsStatic,
        }
    }
}

/// An event delivered to a [`crate::Protocol`].
///
/// `Hungry` and `ExitCs` originate from the application layer (the workload
/// driving the simulation); `Message`, `LinkUp`, `LinkDown` from the network
/// and link-level protocol; `MovementStarted`/`MovementEnded` inform a node
/// about its own motion (the paper assumes nodes are aware of their own
/// mobility, e.g. via start/stop beacons); `Timer` is a self-scheduled
/// wake-up.
#[derive(Clone, Debug, PartialEq, Hash)]
pub enum Event<M> {
    /// The application wants the critical section. Delivered only while the
    /// node is thinking.
    Hungry,
    /// The application is done with the critical section. Delivered only
    /// while the node is eating.
    ExitCs,
    /// A message arrived over a live link.
    Message {
        /// The sending neighbor.
        from: NodeId,
        /// The payload.
        msg: M,
    },
    /// A link to `peer` was created; `kind` says which side this node is on.
    LinkUp {
        /// The new neighbor.
        peer: NodeId,
        /// Which side of the symmetry-breaking this node is on.
        kind: LinkUpKind,
    },
    /// The link to `peer` failed (because one endpoint moved away).
    LinkDown {
        /// The lost neighbor.
        peer: NodeId,
    },
    /// This node started moving.
    MovementStarted,
    /// This node stopped moving (arrived at its destination).
    MovementEnded,
    /// A timer set through [`crate::Context::set_timer`] fired.
    Timer {
        /// The token passed when the timer was set.
        token: u64,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opposite_flips() {
        assert_eq!(LinkUpKind::AsStatic.opposite(), LinkUpKind::AsMoving);
        assert_eq!(LinkUpKind::AsMoving.opposite(), LinkUpKind::AsStatic);
    }

    #[test]
    fn events_are_comparable() {
        let a: Event<u8> = Event::Timer { token: 1 };
        assert_eq!(a, Event::Timer { token: 1 });
        assert_ne!(a, Event::Timer { token: 2 });
    }
}

//! External commands injected into a running simulation.

use std::hash::{Hash, Hasher};

use crate::ids::NodeId;
use crate::world::Position;

/// A scripted action applied to the simulation at a scheduled time.
///
/// Commands are how workloads, mobility scripts and fault injectors drive
/// the run: they model the *application* (hungry/exit transitions), the
/// *adversary* (crashes) and the *environment* (movement).
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// Make `node` hungry, if it is currently thinking (otherwise no-op).
    SetHungry(NodeId),
    /// Ask `node` to leave the critical section. Applied only if the node is
    /// still eating *and* still in eating session `session` — a node demoted
    /// to hungry by mobility invalidates the pending exit.
    ExitCs {
        /// The target node.
        node: NodeId,
        /// The eating session this exit was scheduled for.
        session: u64,
    },
    /// Crash `node`: it ceases all activity and never moves again.
    Crash(NodeId),
    /// Restart a crashed `node` as a *fresh incarnation*: its protocol
    /// state is rebuilt from scratch by the node factory, and every
    /// incident link flaps (down, then up with the surviving peer as the
    /// static side) so both ends re-synchronize shared state through the
    /// ordinary link-layer handshake. No-op unless the node is crashed.
    Recover(NodeId),
    /// Start smooth movement of `node` toward `dest` at `speed` distance
    /// units per tick. Ignored for crashed nodes; restarts motion if the
    /// node is already moving.
    StartMove {
        /// The moving node.
        node: NodeId,
        /// Destination position.
        dest: Position,
        /// Distance units per tick; must be > 0.
        speed: f64,
    },
    /// Instantaneously relocate `node` to `dest`. The node is treated as
    /// moving for the duration of the jump (it receives `MovementStarted`,
    /// the link-change notifications with itself as the moving side, then
    /// `MovementEnded`). Handy for scripted scenarios such as Figure 6.
    Teleport {
        /// The moving node.
        node: NodeId,
        /// Destination position.
        dest: Position,
    },
    /// Sever every link crossing the cut between `side` and the rest of
    /// the network (the fault adversary's scripted partition). Replaces
    /// any partition already in force. Links go down through the normal
    /// link-layer notifications; nodes cannot tell a partition from
    /// mobility-induced link failures.
    Partition {
        /// One side of the cut.
        side: Vec<NodeId>,
    },
    /// Lift the current partition, if any: links the connectivity rule
    /// implies across the former cut come back as *fresh incarnations*
    /// (LinkUp notifications, new epochs — exactly like a reconnect).
    Heal,
}

/// Field by field, the speed by its bits (see [`Position`]'s `Hash`).
impl Hash for Command {
    fn hash<H: Hasher>(&self, h: &mut H) {
        std::mem::discriminant(self).hash(h);
        match self {
            Command::SetHungry(n) | Command::Crash(n) | Command::Recover(n) => n.hash(h),
            Command::ExitCs { node, session } => (node, session).hash(h),
            Command::StartMove { node, dest, speed } => (node, dest, speed.to_bits()).hash(h),
            Command::Teleport { node, dest } => (node, dest).hash(h),
            Command::Partition { side } => side.hash(h),
            Command::Heal => {}
        }
    }
}

impl Command {
    /// The node this command addresses, if it addresses a single node
    /// (partition commands address a node *set*).
    pub fn node(&self) -> Option<NodeId> {
        match *self {
            Command::SetHungry(n)
            | Command::ExitCs { node: n, .. }
            | Command::Crash(n)
            | Command::Recover(n)
            | Command::StartMove { node: n, .. }
            | Command::Teleport { node: n, .. } => Some(n),
            Command::Partition { .. } | Command::Heal => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_accessor_covers_all_variants() {
        let n = NodeId(3);
        let cmds = [
            Command::SetHungry(n),
            Command::ExitCs {
                node: n,
                session: 1,
            },
            Command::Crash(n),
            Command::Recover(n),
            Command::StartMove {
                node: n,
                dest: Position { x: 1.0, y: 2.0 },
                speed: 0.5,
            },
            Command::Teleport {
                node: n,
                dest: Position { x: 1.0, y: 2.0 },
            },
        ];
        for c in cmds {
            assert_eq!(c.node(), Some(n));
        }
        assert_eq!(Command::Partition { side: vec![n] }.node(), None);
        assert_eq!(Command::Heal.node(), None);
    }
}

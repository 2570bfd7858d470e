//! Doorway wire messages.

use crate::tag::{DoorwaySet, DoorwayTag};

/// Messages exchanged by doorway state machines (Figure 2 of the paper).
///
/// `Cross`/`Exit` are the per-doorway broadcasts of the entry and exit code;
/// `ExitAll` is broadcast by a moving node that abandons every doorway it had
/// crossed (Algorithm 3, Line 52 and the "LinkUp while moving" handler of
/// Figure 2); `Status` carries a static node's position relative to all
/// doorways to a newly arrived neighbor (the `L[i]` part of Line 46).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DoorwayMsg {
    /// The sender crossed doorway `0` (completed its entry code).
    Cross(DoorwayTag),
    /// The sender exited doorway `0` (completed its exit code).
    Exit(DoorwayTag),
    /// The sender exited every doorway (it moved to a new neighborhood).
    ExitAll,
    /// The sender is currently behind exactly the doorways in `0`.
    Status(DoorwaySet),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_compare() {
        let t = DoorwayTag::new(1);
        assert_eq!(DoorwayMsg::Cross(t), DoorwayMsg::Cross(t));
        assert_ne!(DoorwayMsg::Cross(t), DoorwayMsg::Exit(t));
        assert_eq!(DoorwayMsg::ExitAll, DoorwayMsg::ExitAll);
    }
}

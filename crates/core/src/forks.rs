//! Fork bookkeeping shared by both algorithms and the baselines.
//!
//! A *fork* is the paper's metaphor for the shared resource on one link: at
//! any moment, each live link's fork is owned by exactly one endpoint or in
//! transit between them. Forks are destroyed when their link fails and
//! (re)created — owned by the static side — when a link forms. A node must
//! hold the forks of **all** its current links to eat.
//!
//! A node's whole per-neighbour state is **one [`Fork`] record per
//! neighbour** in a [`Neighbors`] vector: the fork bits of the paper plus
//! `ext`, the algorithm's own per-neighbour value (Algorithm 2's `higher`
//! flag, Algorithm 1's colour view). A link-up inserts one record, a
//! link-down removes it, and the request and release loops of both
//! algorithms walk the records in place, in ascending ID order, with
//! nothing allocated. The table derives `Hash` over the records, so the
//! state digest of an algorithm holding it covers every fork bit, every
//! transfer generation and every `ext`, whatever order the links came up
//! in.

use std::hash::{Hash, Hasher};

use manet_sim::{Fnv, KeysWhere, Neighbors, NodeId};

/// One neighbour's fork record.
#[derive(Clone, Debug, Default, Hash)]
pub struct Fork<T> {
    /// This node holds the fork (the paper's `at[j]`).
    pub have: bool,
    /// The neighbour's request is suspended (member of the paper's `S`).
    pub suspended: bool,
    /// This node has a request for the fork in flight (the paper leaves
    /// the guard implicit: never two requests for the same fork).
    pub requested: bool,
    /// Fork *transfer generation*: the highest generation this node has
    /// sent or accepted on the link's current incarnation; `None` on an
    /// initial link that has not transferred its fork yet. Every transfer
    /// carries `gen+1`, so a duplicated fork delivery — whose generation
    /// was already seen — is recognizably stale. Without it, a duplicate
    /// arriving after the fork was legitimately passed back would leave
    /// *both* endpoints believing they hold the fork (the one
    /// non-idempotent transition of either algorithm, and a direct safety
    /// hole under message-duplication faults).
    pub gen: Option<u64>,
    /// The algorithm's own per-neighbour value.
    pub ext: T,
}

/// One node's fork state: a [`Fork`] record per current neighbour.
///
/// ```
/// use local_mutex::forks::ForkTable;
/// use manet_sim::NodeId;
///
/// // Node 1 initially holds the forks toward larger IDs.
/// let mut t = ForkTable::new(NodeId(1), &[NodeId(0), NodeId(2)]);
/// assert!(!t.holds(NodeId(0)));
/// assert!(t.holds(NodeId(2)));
/// // Ask for every missing fork, once.
/// let mut asked = Vec::new();
/// t.request_where(|_| true, |j| asked.push(j));
/// t.request_where(|_| true, |j| asked.push(j));
/// assert_eq!(asked, [NodeId(0)]);
/// assert_eq!(t.records().get(NodeId(0)).map(|f| f.requested), Some(true));
/// ```
#[derive(Clone, Debug, Hash)]
pub struct ForkTable<T = ()> {
    links: Neighbors<Fork<T>>,
}

impl ForkTable {
    /// A table with no per-neighbour value; see [`ForkTable::with`].
    pub fn new(me: NodeId, neighbors: &[NodeId]) -> ForkTable {
        ForkTable::with(me, neighbors, |_| ())
    }
}

impl<T: Default> ForkTable<T> {
    /// Initial distribution: the fork of link `{i, j}` starts at the
    /// smaller ID (`at[j]` is true iff `ID[i] < ID[j]`, per the paper);
    /// `ext(j)` is the algorithm's initial value for `j`.
    pub fn with(me: NodeId, neighbors: &[NodeId], mut ext: impl FnMut(NodeId) -> T) -> Self {
        let mut fork = |j| Fork {
            have: me < j,
            ext: ext(j),
            ..Fork::default()
        };
        ForkTable {
            links: neighbors.iter().map(|&j| (j, fork(j))).collect(),
        }
    }

    /// A link to `j` came up; `own` says whether this node owns the new
    /// fork (true on the designated-static side). The record starts afresh,
    /// `ext` at its default and the transfer generation at 0: the engine
    /// guarantees no message of the old incarnation can still arrive.
    pub fn link_up(&mut self, j: NodeId, own: bool) {
        let fork = Fork {
            have: own,
            gen: Some(0),
            ..Fork::default()
        };
        self.links.insert(j, fork);
    }
}

impl<T> ForkTable<T> {
    /// The link to `j` failed: its fork and any pending bookkeeping die.
    pub fn link_down(&mut self, j: NodeId) {
        self.links.remove(j);
    }

    /// The records, ascending by neighbour ID (read-only: every transition
    /// goes through the table's methods).
    pub fn records(&self) -> &Neighbors<Fork<T>> {
        &self.links
    }

    /// Whether this node holds the fork shared with `j` (`at[j]`).
    pub fn holds(&self, j: NodeId) -> bool {
        self.links.get(j).is_some_and(|f| f.have)
    }

    /// Whether `j` is a current neighbor according to the fork table.
    pub fn knows(&self, j: NodeId) -> bool {
        self.links.contains(j)
    }

    /// The algorithm's value for neighbour `j`.
    pub fn ext(&self, j: NodeId) -> Option<&T> {
        self.links.get(j).map(|f| &f.ext)
    }

    /// The algorithm's value for neighbour `j`, for update.
    pub fn ext_mut(&mut self, j: NodeId) -> Option<&mut T> {
        self.links.get_mut(j).map(|f| &mut f.ext)
    }

    /// Every neighbour's algorithm value for update, ascending by ID.
    pub fn exts_mut(&mut self) -> impl Iterator<Item = (NodeId, &mut T)> {
        self.links.iter_mut().map(|(j, f)| (j, &mut f.ext))
    }

    /// Record that the fork shared with `j` was sent away; returns the
    /// transfer generation to stamp on the outgoing fork message. A no-op
    /// returning 0 — a generation no receiver accepts — for an unknown `j`.
    pub fn sent(&mut self, j: NodeId) -> u64 {
        self.links.get_mut(j).map_or(0, Fork::give)
    }

    /// Record receipt of the fork shared with `j` **iff** the delivery is
    /// fresh: `j` is a known neighbor and `gen` is newer than every
    /// transfer seen on this link incarnation. Returns false (ignore the
    /// message) for unknown links and for stale duplicates.
    pub fn receive_if_fresh(&mut self, j: NodeId, gen: u64) -> bool {
        match self.links.get_mut(j) {
            Some(f) if gen > f.gen.unwrap_or(0) => f.gen = Some(gen),
            // Unknown: the link died while the fork was in flight. Stale:
            // a duplicated (or reordered) delivery.
            _ => return false,
        }
        self.received(j);
        true
    }

    /// Record receipt of the fork shared with `j`.
    pub fn received(&mut self, j: NodeId) {
        if let Some(f) = self.links.get_mut(j) {
            f.have = true;
            f.requested = false;
        }
    }

    /// Suspend `j`'s request (the paper's `S := S ∪ {j}`).
    pub fn suspend(&mut self, j: NodeId) {
        if let Some(f) = self.links.get_mut(j) {
            f.suspended = true;
        }
    }

    /// Whether `j`'s request is suspended.
    pub fn is_suspended(&self, j: NodeId) -> bool {
        self.links.get(j).is_some_and(|f| f.suspended)
    }

    /// The suspended set `S`, ascending by ID.
    pub fn suspended(&self) -> KeysWhere<'_, Fork<T>> {
        self.links.keys_where(|f| f.suspended)
    }

    /// Mark a request for `j`'s fork as outstanding; returns false if one
    /// already is or `j` is not a neighbour (so callers send at most one
    /// `req` per missing fork).
    pub fn try_mark_requested(&mut self, j: NodeId) -> bool {
        self.links
            .get_mut(j)
            .is_some_and(|f| !std::mem::replace(&mut f.requested, true))
    }

    /// Deterministic fingerprint of the *behavioral* fork state — per
    /// neighbour, holding, suspension, outstanding request and `ext` —
    /// excluding the monotone transfer generations. Generations exist
    /// solely to reject duplicated deliveries and never repeat, so
    /// including them would make a node that returns to the same
    /// behavioral configuration digest differently forever; liveness
    /// (lasso) detection keys on this method instead.
    pub fn progress_digest(&self) -> u64
    where
        T: Hash,
    {
        let mut h = Fnv::new();
        for (j, f) in self.links.iter() {
            (j, f.have, f.suspended, f.requested, &f.ext).hash(&mut h);
        }
        h.finish()
    }

    /// Whether this node holds the forks of **all** neighbors whose value
    /// satisfies `pred` (`all-forks` with `pred ≡ true`, `all-low-forks`
    /// with `pred ≡ is_low`).
    pub fn all_where(&self, mut pred: impl FnMut(&T) -> bool) -> bool {
        self.links.iter().all(|(_, f)| f.have || !pred(&f.ext))
    }

    /// Request every missing fork whose neighbour's value satisfies `pred`
    /// and has no request in flight, ascending by ID: each is marked
    /// requested and handed to `request`, which sends the `req`.
    pub fn request_where(
        &mut self,
        mut pred: impl FnMut(&T) -> bool,
        mut request: impl FnMut(NodeId),
    ) {
        for (j, f) in self.links.iter_mut() {
            if !f.have && !f.requested && pred(&f.ext) {
                f.requested = true;
                request(j);
            }
        }
    }

    /// Grant every suspended request whose fork this node holds and whose
    /// neighbour's value satisfies `pred`, ascending by ID: each fork is
    /// recorded as sent and `grant(j, value, gen)` sends it.
    pub fn release_where(
        &mut self,
        mut pred: impl FnMut(&T) -> bool,
        mut grant: impl FnMut(NodeId, &T, u64),
    ) {
        for (j, f) in self.links.iter_mut() {
            if f.suspended && f.have && pred(&f.ext) {
                let gen = f.give();
                grant(j, &f.ext, gen);
            }
        }
    }
}

impl<T> Fork<T> {
    /// The fork leaves: no longer held, the request it answers no longer
    /// suspended, and the next transfer generation returned.
    fn give(&mut self) -> u64 {
        self.have = false;
        self.suspended = false;
        let gen = self.gen.unwrap_or(0) + 1;
        self.gen = Some(gen);
        gen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use manet_sim::digest_of;

    fn table() -> ForkTable {
        ForkTable::new(NodeId(2), &[NodeId(0), NodeId(1), NodeId(3), NodeId(4)])
    }

    #[test]
    fn initial_distribution_by_id() {
        let t = table();
        assert!(!t.holds(NodeId(0)));
        assert!(!t.holds(NodeId(1)));
        assert!(t.holds(NodeId(3)));
        assert!(t.holds(NodeId(4)));
    }

    #[test]
    fn no_two_endpoints_hold_the_same_fork_initially() {
        let a = ForkTable::new(NodeId(1), &[NodeId(2)]);
        let b = ForkTable::new(NodeId(2), &[NodeId(1)]);
        assert!(a.holds(NodeId(2)) ^ b.holds(NodeId(1)));
    }

    #[test]
    fn send_receive_roundtrip() {
        let mut t = table();
        t.sent(NodeId(3));
        assert!(!t.holds(NodeId(3)));
        t.received(NodeId(3));
        assert!(t.holds(NodeId(3)));
    }

    #[test]
    fn all_and_missing_respect_predicate() {
        // `ext` is the neighbour's own ID, so predicates can name nodes.
        let mut t = ForkTable::with(NodeId(2), &[NodeId(0), NodeId(1), NodeId(3)], |j| j.0);
        assert!(t.all_where(|&j| j > 2));
        assert!(!t.all_where(|_| true));
        let mut asked = Vec::new();
        t.request_where(|&j| j == 1, |j| asked.push(j));
        assert_eq!(asked, [NodeId(1)]);
        t.request_where(|_| true, |j| asked.push(j));
        assert_eq!(asked, [NodeId(1), NodeId(0)], "held and requested skipped");
    }

    #[test]
    fn link_down_clears_everything() {
        let mut t = table();
        t.suspend(NodeId(3));
        assert!(t.try_mark_requested(NodeId(0)));
        t.link_down(NodeId(3));
        t.link_down(NodeId(0));
        assert!(!t.knows(NodeId(3)));
        assert!(t.suspended().is_empty());
        // A fresh link restores request eligibility.
        t.link_up(NodeId(0), true);
        assert!(t.holds(NodeId(0)));
        assert!(t.try_mark_requested(NodeId(0)));
    }

    #[test]
    fn request_guard_blocks_duplicates() {
        let mut t = table();
        assert!(t.try_mark_requested(NodeId(0)));
        assert!(!t.try_mark_requested(NodeId(0)));
        t.received(NodeId(0));
        assert!(t.try_mark_requested(NodeId(0)));
        assert!(
            !t.try_mark_requested(NodeId(9)),
            "no phantom request for a non-neighbour"
        );
        let (r, held) = (t.records(), [NodeId(0), NodeId(3), NodeId(4)]);
        assert!(r.keys_where(|f| f.have).eq(held));
        assert!(r.keys_where(|f| f.requested).eq([NodeId(0)]));
        assert!(r.keys_where(|f| f.suspended || f.gen.is_some()).is_empty());
    }

    #[test]
    fn duplicate_fork_delivery_is_rejected_as_stale() {
        // The fork ABA scenario of message-duplication faults: receive a
        // fork, pass it back, then the duplicate of the first delivery
        // shows up. Accepting it would make both endpoints owners.
        let mut a = ForkTable::new(NodeId(1), &[NodeId(2)]);
        let mut b = ForkTable::new(NodeId(2), &[NodeId(1)]);
        // 1 holds the fork initially and sends it to 2.
        let g1 = a.sent(NodeId(2));
        assert!(b.receive_if_fresh(NodeId(1), g1));
        assert!(b.holds(NodeId(1)) && !a.holds(NodeId(2)));
        // Replay of the same delivery: stale.
        assert!(!b.receive_if_fresh(NodeId(1), g1));
        // 2 passes the fork back; 1 accepts (a fresh, higher generation).
        let g2 = b.sent(NodeId(1));
        assert!(g2 > g1);
        assert!(a.receive_if_fresh(NodeId(2), g2));
        // The old duplicate finally arrives at 2 — must NOT resurrect
        // ownership there.
        assert!(!b.receive_if_fresh(NodeId(1), g1));
        assert!(a.holds(NodeId(2)) && !b.holds(NodeId(1)), "fork duplicated");
    }

    #[test]
    fn link_flap_resets_the_transfer_generation() {
        let mut t = table();
        t.sent(NodeId(3));
        let g = t.sent(NodeId(3));
        assert_eq!(g, 2);
        t.link_down(NodeId(3));
        t.link_up(NodeId(3), false);
        // Fresh incarnation: generation restarts at 1 and is accepted.
        assert!(t.receive_if_fresh(NodeId(3), 1));
        assert!(t.holds(NodeId(3)));
        assert!(
            !t.receive_if_fresh(NodeId(9), 1),
            "unknown links never accept"
        );
        assert_eq!(t.sent(NodeId(9)), 0, "unknown links never send");
        let gens = t.records().iter().filter_map(|(j, f)| Some((j, f.gen?)));
        assert!(gens.eq([(NodeId(3), 1)]));
    }

    #[test]
    fn suspend_requires_known_neighbor() {
        let mut t = table();
        t.suspend(NodeId(9));
        assert!(t.suspended().is_empty());
        t.suspend(NodeId(3));
        t.suspend(NodeId(4));
        assert!(t.is_suspended(NodeId(3)));
        t.sent(NodeId(3));
        assert!(!t.is_suspended(NodeId(3)), "sending clears suspension");
        let mut granted = Vec::new();
        t.release_where(|_| true, |j, _, gen| granted.push((j, gen)));
        assert_eq!(granted, [(NodeId(4), 1)]);
        assert!(t.suspended().is_empty() && !t.holds(NodeId(4)));
    }

    #[test]
    fn equal_tables_digest_equal_however_they_were_reached() {
        let a = ForkTable::new(NodeId(2), &[NodeId(0), NodeId(4), NodeId(3)]);
        let b = ForkTable::new(NodeId(2), &[NodeId(4), NodeId(3), NodeId(0)]);
        assert_eq!(digest_of(&a), digest_of(&b), "insertion order");
        let (mut a, mut b) = (table(), table());
        a.link_down(NodeId(3));
        a.link_up(NodeId(5), true);
        a.link_up(NodeId(3), true);
        b.link_up(NodeId(5), true);
        b.sent(NodeId(3)); // history the flap below erases
        b.link_down(NodeId(3));
        b.link_up(NodeId(3), true);
        assert_eq!(digest_of(&a), digest_of(&b), "link down then up");
        assert_eq!(a.progress_digest(), b.progress_digest());
    }

    #[test]
    fn every_field_moves_the_digest_and_gen_only_the_state_digest() {
        let base = ForkTable::with(NodeId(2), &[NodeId(1), NodeId(3)], |j| j.0);
        for field in ["have", "suspended", "requested", "gen", "ext"] {
            let mut t = base.clone();
            let f = t.links.get_mut(NodeId(3)).expect("a neighbour");
            match field {
                "have" => f.have = !f.have,
                "suspended" => f.suspended = true,
                "requested" => f.requested = true,
                "gen" => f.gen = Some(7),
                _ => f.ext += 1,
            }
            assert_ne!(digest_of(&t), digest_of(&base), "{field}");
            let same_progress = t.progress_digest() == base.progress_digest();
            assert_eq!(same_progress, field == "gen", "{field}");
        }
    }
}

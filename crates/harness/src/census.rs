//! Message-complexity accounting.
//!
//! The paper names message complexity as future work (Chapter 7); the
//! census hook makes it measurable: it classifies every delivered message
//! with a caller-supplied labeler and counts per label.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use manet_sim::{Hook, NodeId, Sink, View};

/// Per-label delivery counts, shared via `Rc<RefCell<_>>`.
pub type CensusCounts = Rc<RefCell<BTreeMap<&'static str, u64>>>;

/// Hook counting delivered messages by kind.
///
/// ```
/// use harness::census::MessageCensus;
/// use local_mutex::A2Msg;
///
/// let (hook, counts) = MessageCensus::new(A2Msg::kind as fn(&A2Msg) -> &'static str);
/// // … engine.add_hook(Box::new(hook)); run …
/// assert!(counts.borrow().is_empty());
/// ```
pub struct MessageCensus<M> {
    classify: fn(&M) -> &'static str,
    counts: CensusCounts,
}

impl<M> MessageCensus<M> {
    /// Create the hook and the shared handle to its counters.
    pub fn new(classify: fn(&M) -> &'static str) -> (MessageCensus<M>, CensusCounts) {
        let counts: CensusCounts = Rc::new(RefCell::new(BTreeMap::new()));
        (
            MessageCensus {
                classify,
                counts: counts.clone(),
            },
            counts,
        )
    }
}

impl<M> Hook<M> for MessageCensus<M> {
    fn on_deliver(
        &mut self,
        _view: &View<'_>,
        _from: NodeId,
        _to: NodeId,
        msg: &M,
        _sink: &mut Sink,
    ) {
        *self
            .counts
            .borrow_mut()
            .entry((self.classify)(msg))
            .or_insert(0) += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use local_mutex::{A2Msg, Algorithm2};
    use manet_sim::{Engine, SimConfig, SimTime, Workload};

    #[test]
    fn census_counts_a2_traffic_by_kind() {
        let mut e: Engine<Algorithm2> =
            Engine::new(SimConfig::default(), vec![(0.0, 0.0), (1.0, 0.0)], |seed| {
                Algorithm2::new(&seed)
            });
        let (census, counts) = MessageCensus::new(A2Msg::kind as fn(&A2Msg) -> &'static str);
        e.add_hook(Box::new(census));
        e.add_hook(Box::new(Workload::one_shot(10..=10, 0)));
        e.set_hungry_at(SimTime(1), NodeId(0));
        e.set_hungry_at(SimTime(1), NodeId(1));
        e.run_until(SimTime(2_000));
        let counts = counts.borrow();
        assert!(counts.get("notification").copied().unwrap_or(0) >= 2);
        assert!(counts.get("fork").copied().unwrap_or(0) >= 1);
        let total: u64 = counts.values().sum();
        assert!(total >= 5, "{counts:?}");
    }
}

//! # `manet-sim` — a deterministic discrete-event simulator for mobile ad hoc networks
//!
//! This crate implements the system model of Attiya, Kogan and Welch,
//! *"Efficient and Robust Local Mutual Exclusion in Mobile Ad Hoc Networks"*
//! (ICDCS 2008 / Kogan's 2008 Technion thesis, Chapter 3):
//!
//! * a set of nodes with unique IDs executing asynchronously,
//! * bidirectional, reliable, FIFO communication links between nodes that are
//!   geographically close (unit-disk connectivity),
//! * a link-level protocol that notifies nodes of link creations and failures,
//!   with the paper's *mobility-biased symmetry breaking*: when a link forms,
//!   each endpoint is told whether it is the "static" or the "moving" side,
//!   and when both endpoints move, exactly one (the smaller ID) is designated
//!   static,
//! * links are created or destroyed **only** when at least one endpoint
//!   moves,
//! * crash faults: a crashed node ceases all activity and never moves again,
//! * an upper bound ν on message delay (configurable), used by experiments to
//!   report response times in the paper's time units.
//!
//! The simulator is single-threaded and fully deterministic: all randomness
//! flows from one seeded RNG, and events are totally ordered by
//! `(time, sequence-number)`. Running the same configuration twice produces
//! byte-identical traces.
//!
//! Two observers and the application layer live here because every host
//! links this crate: the simulator, the model checker and the live
//! runtime all count meals and response times with [`SessionFold`]
//! (behind the [`Metrics`] hook), all check local mutual exclusion with
//! [`SafetyCore`] (behind the [`SafetyMonitor`] hook), and all decide
//! every exit and every next hunger with [`Workload`].
//!
//! # Example
//!
//! ```
//! use manet_sim::{Engine, SimConfig, Protocol, Event, Context, DiningState, NodeId};
//!
//! /// A trivial protocol that eats immediately when told to become hungry.
//! /// (It is only safe when nodes have no neighbors!)
//! struct Greedy(DiningState);
//!
//! impl Protocol for Greedy {
//!     type Msg = ();
//!     fn on_event(&mut self, ev: Event<()>, _ctx: &mut Context<'_, ()>) {
//!         match ev {
//!             Event::Hungry => self.0 = DiningState::Eating,
//!             Event::ExitCs => self.0 = DiningState::Thinking,
//!             _ => {}
//!         }
//!     }
//!     fn dining_state(&self) -> DiningState { self.0 }
//! }
//!
//! let cfg = SimConfig::default();
//! // Two isolated nodes, far outside radio range of each other.
//! let mut engine = Engine::new(cfg, vec![(0.0, 0.0), (1000.0, 1000.0)], |_seed| {
//!     Greedy(DiningState::Thinking)
//! });
//! engine.set_hungry_at(manet_sim::SimTime(5), NodeId(0));
//! engine.run_until(manet_sim::SimTime(10));
//! assert_eq!(engine.dining_state(NodeId(0)), DiningState::Eating);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arq;
mod channel;
mod command;
mod config;
mod engine;
mod event;
mod fault;
mod geo;
mod hooks;
mod ids;
mod link;
mod links;
mod neighbors;
mod protocol;
pub mod rng;
mod safety;
mod sched;
mod session;
mod shim;
mod time;
mod trace;
mod wheel;
mod workload;
mod world;

pub use channel::{fair_share_rates, ChannelConfig, ChannelStats};
pub use command::Command;
pub use config::SimConfig;
pub use engine::{Engine, EngineStats, NodeSeed, RunAbort};
pub use event::{Event, LinkUpKind};
pub use fault::{
    Burst, CrashWave, DelayAdversary, FaultPlan, FaultStats, LinkFaults, PartitionWindow,
};
pub use geo::CsrAdjacency;
pub use hooks::{Hook, Sink, View};
pub use ids::NodeId;
pub use neighbors::{KeysWhere, NeighborSet, Neighbors};
pub use protocol::{Context, DiningState, Obs, Observed, Protocol};
pub use rng::SimRng;
pub use safety::{SafetyCore, SafetyMonitor, Violation};
pub use sched::{
    digest_of, DeliveryChoice, DigestMode, Fnv, ImportedSchedule, RandomDelays, Strategy,
};
pub use session::{Metrics, MetricsData, Sample, SessionFold};
pub use shim::{ArqConfig, ShimStats};
pub use time::SimTime;
pub use trace::{TraceEntry, TraceKind};
pub use wheel::TimingWheel;
pub use workload::Workload;
pub use world::{LinkChange, Position, World};

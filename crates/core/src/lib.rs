//! # `local-mutex` — local mutual exclusion for mobile ad hoc networks
//!
//! A faithful implementation of the two algorithms of Attiya, Kogan and
//! Welch, *"Efficient and Robust Local Mutual Exclusion in Mobile Ad Hoc
//! Networks"* (ICDCS 2008; full version: Kogan's 2008 Technion thesis).
//!
//! **The problem.** Each node cycles thinking → hungry → eating; no two
//! *current* neighbors (nodes in radio range) may eat simultaneously, even
//! as nodes move, links churn, and nodes crash. Two quality measures:
//! *failure locality* (how far a crash's damage reaches) and *response time*
//! (hungry → eating latency, given eating time ≤ τ and message delay ≤ ν).
//!
//! **The algorithms.**
//!
//! | | failure locality | response time (mobile) | response time (static) |
//! |---|---|---|---|
//! | [`Algorithm1`] + greedy recoloring | `n` | `O((n + δ³)δ)` | `O((n + δ²)δ)` |
//! | [`Algorithm1`] + Linial recoloring | `max(log* n, 4) + 2` | `O((log* n + δ⁴)δ)` | `O((log* n + δ³)δ)` |
//! | [`Algorithm2`] | **2 (optimal)** | `O(n²)` | **`O(n)`** |
//!
//! Both protocols plug into the [`manet_sim`] engine:
//!
//! ```
//! use local_mutex::Algorithm2;
//! use manet_sim::{Engine, Metrics, NodeId, SafetyMonitor, SimConfig, SimTime, Workload};
//!
//! // Three nodes in a line; everyone hungry at t = 1.
//! let mut engine = Engine::new(
//!     SimConfig::default(),
//!     vec![(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)],
//!     |seed| Algorithm2::new(&seed),
//! );
//! let (metrics, data) = Metrics::new(3);
//! engine.add_hook(Box::new(metrics)); // count meals
//! engine.add_hook(Box::new(Workload::one_shot(20..=20, 0))); // eat for 20 ticks
//! engine.add_hook(Box::new(SafetyMonitor::new(true).0)); // assert LME always
//! for i in 0..3 {
//!     engine.set_hungry_at(SimTime(1), NodeId(i));
//! }
//! engine.run_until(SimTime(10_000));
//! assert!(data.borrow().meals.iter().all(|&m| m >= 1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alg1;
pub mod alg2;
pub mod forks;
pub mod message;
pub mod recolor;

pub use alg1::{Algorithm1, Phase, RecolorConfig};
pub use alg2::Algorithm2;
pub use message::{A1Msg, A2Msg, RecolorMsg};

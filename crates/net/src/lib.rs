//! # `lme-net` — the live runtime
//!
//! Everything else in this workspace runs the paper's algorithms inside a
//! deterministic discrete-event simulator, where "time" is a counter and
//! "the network" is a priority queue. This crate runs the *same*
//! [`manet_sim::Protocol`] automata as real concurrent programs: a pool
//! of worker threads, real message passing, wall-clock time.
//!
//! The layering:
//!
//! * [`codec`] — hand-rolled length-prefixed wire format (version byte,
//!   algorithm tag, payload, FNV-1a checksum) for every protocol message;
//!   strict decoding, no panics on hostile bytes;
//! * [`transport`] — the envelope format and the selector between the two
//!   cross-shard carriers (in-process rings, UDP datagrams on loopback);
//! * [`runtime`] — run configuration, outcome, and the entry point
//!   ([`runtime::run_live`]);
//! * [`shard`] — the engine every live run executes on: a fixed worker
//!   pool owning contiguous node shards, per-shard timing wheels
//!   ([`manet_sim::TimingWheel`], the simulator's own), batched
//!   cross-shard frames over bounded SPSC rings or sockets, per-shard
//!   ticket ranges merged into one total order at export, and the driver
//!   that injects mobility, crashes and recoveries under the simulator's
//!   rules; it scales the same automata to tens of thousands of nodes.
//!   Under `LiveConfig::reliable` each node keeps one
//!   [`manet_sim::arq::GoBackN`] per neighbour — the simulator's own
//!   go-back-N machine, hosted on wall time;
//! * [`trace`] — totally-ordered capture of everything observable, safety
//!   validation by replaying the state, crash, recover and relocate
//!   records into [`manet_sim::SafetyCore`], meals and response times by
//!   the simulator's [`manet_sim::SessionFold`] on the same pass, and
//!   export of delivery timings as a simulator schedule;
//! * [`replay`] — the conformance bridge: re-run a live execution's
//!   timing shape inside the deterministic engine and check that safety
//!   and the eating census survive the crossing.
//!
//! What is *lost* relative to the simulator — and deliberately so — is
//! virtual-time determinism: a live run's interleaving comes from the OS
//! scheduler and real queues. What is *kept* is the model: the automata,
//! the ν-bounded-delay assumption (ticks map to wall time via
//! `tick_ns`), the crash and recovery semantics, and the safety
//! invariant, checked by the very same incremental core that audits
//! simulated runs — told what changed, it examines only the neighborhoods
//! that did.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod replay;
pub mod runtime;
pub mod shard;
pub mod trace;
pub mod transport;

pub use codec::{decode_frame, encode_frame, CodecError, WireMsg, WIRE_VERSION};
pub use replay::{conformance_replay, ConformanceReport};
pub use runtime::{run_live, LiveAlg, LiveConfig, LiveOutcome, LiveRuntime};
pub use shard::{merge_stamped, HybridClock, ShardAbort, ShardTuning, StampedRecord};
pub use trace::{LiveEventKind, LiveRecord, LiveTrace, NodeNetStats, SafetyAudit};
pub use transport::{decode_envelope, encode_envelope, TransportKind, ENV_ACK, ENV_DATA};

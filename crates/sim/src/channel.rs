//! Pluggable channel models: what maps a physical send to a delivery time.
//!
//! This module describes the models ([`ChannelConfig`], [`ChannelStats`],
//! [`fair_share_rates`]) and holds their runtime state, one
//! `Medium` variant per model. It decides nothing about order: the link
//! layer (`crate::link`) runs a frame through its medium, the fault
//! adversary and the FIFO clamp, in the order DESIGN.md §14 tabulates.
//!
//! The paper proves its bounds over clean FIFO links whose delay is an
//! i.i.d. draw in `[min_delay, ν]`. Real MANETs have finite link capacity,
//! shared-medium contention and correlated (bursty) loss. This module
//! supplies four models, selected by [`crate::SimConfig::channel`]:
//!
//! * [`ChannelConfig::Iid`] — the historical i.i.d. draw, the default.
//! * [`ChannelConfig::ConstantBandwidth`] — per-directed-link
//!   serialization: each frame occupies its link for a fixed transmit
//!   time, frames queue FIFO behind in-flight ones, and queueing delay is
//!   *emergent* (bounded by [`crate::RunAbort::ChannelQueueOverflow`]).
//! * [`ChannelConfig::SharedMedium`] — each node's radio neighborhood is
//!   a shared-rate resource: every in-flight frame is served at a
//!   fair-share rate, reallocated on the start and finish of each frame
//!   (in the style of dslab-network / queueing-party shared resources),
//!   so dense cliques contend while sparse rings barely do.
//! * [`ChannelConfig::GilbertElliott`] — a two-state burst-loss chain per
//!   directed link, stepped once per frame from a *dedicated* RNG stream.
//!
//! Determinism contract (mirrors the ARQ shim's):
//!
//! * With `channel: Iid` (the default) the engine's behavior — random
//!   streams, traces, digests, stats, JSONL — is bit-for-bit identical to
//!   a build without this module (pinned by `tests/channel_models.rs`).
//! * Non-default models draw only from a dedicated channel RNG stream
//!   seeded from the run seed; the engine's own stream and the fault
//!   adversary's stream are never perturbed. A Gilbert–Elliott chain whose
//!   parameters make it all-good therefore leaves traces unchanged.
//! * An injected schedule [`crate::sched::Strategy`] takes precedence
//!   over any channel model: the model checker and witness replays pick
//!   every delay themselves and must not contend with a channel.
//!
//! Per-link channel state (serialization queues, burst-loss chains) is
//! scoped to the link incarnation by [`crate::links::LinkStore`]: a flap
//! (mobility, partition, crash recovery) kills it with the incarnation.
//! Each store lives inside its model's variant, so a model that is not
//! configured owns nothing.

use std::collections::VecDeque;

use crate::ids::NodeId;
use crate::link::Frame;
use crate::links::LinkStore;
use crate::rng::SimRng;
use crate::time::SimTime;

/// Which channel model maps each physical frame to a delivery time (or a
/// loss). See the module docs for the semantics of each variant.
#[derive(Clone, Debug, Default, PartialEq)]
pub enum ChannelConfig {
    /// The paper's model and the historical default: every frame's delay
    /// is an independent uniform draw in `[min_delay, ν]` from the
    /// engine's own stream.
    #[default]
    Iid,
    /// Per-directed-link serialization delay with a FIFO transmit queue.
    ConstantBandwidth {
        /// Ticks one frame occupies the link (serialization time). Must
        /// lie inside the legal `[min_delay, ν]` window at runtime or the
        /// run aborts with [`crate::RunAbort::DelayOutOfWindow`].
        ticks_per_frame: u64,
        /// Maximum frames in flight or queued per directed link; overflow
        /// aborts with [`crate::RunAbort::ChannelQueueOverflow`].
        max_queue: usize,
    },
    /// Per-node radio neighborhood as a shared-rate resource with
    /// fair-share reallocation on every frame start/finish.
    SharedMedium {
        /// Ticks one frame takes at full (uncontended) rate. Must lie
        /// inside the legal `[min_delay, ν]` window at runtime.
        ticks_per_frame: u64,
        /// Maximum concurrent frames audible in any sender's neighborhood;
        /// overflow aborts with [`crate::RunAbort::ChannelQueueOverflow`].
        max_inflight: usize,
    },
    /// Two-state (good/bad) burst-loss chain per directed link, stepped
    /// once per frame; delay stays the i.i.d. draw.
    GilbertElliott {
        /// Per-frame probability of leaving the good state.
        p_good_to_bad: f64,
        /// Per-frame probability of leaving the bad state.
        p_bad_to_good: f64,
        /// Frame-loss probability while the chain is good.
        loss_good: f64,
        /// Frame-loss probability while the chain is bad.
        loss_bad: f64,
    },
}

impl ChannelConfig {
    /// Stable machine-readable name of the model (used in abort payloads,
    /// bench output and CLI specs).
    pub fn name(&self) -> &'static str {
        match self {
            ChannelConfig::Iid => "iid",
            ChannelConfig::ConstantBandwidth { .. } => "constant-bandwidth",
            ChannelConfig::SharedMedium { .. } => "shared-medium",
            ChannelConfig::GilbertElliott { .. } => "gilbert-elliott",
        }
    }

    /// Whether this is the default i.i.d. model (no channel state at all).
    pub fn is_iid(&self) -> bool {
        matches!(self, ChannelConfig::Iid)
    }

    /// The Gilbert–Elliott parameters the `chaos` burst-loss class uses:
    /// short bad bursts (mean 4 frames) that black the link out entirely,
    /// ≈ 17 % stationary loss — correlated where sustained loss is i.i.d.
    pub fn burst_loss_default() -> ChannelConfig {
        ChannelConfig::GilbertElliott {
            p_good_to_bad: 0.05,
            p_bad_to_good: 0.25,
            loss_good: 0.0,
            loss_bad: 1.0,
        }
    }

    /// Validate the invariants of the configuration.
    ///
    /// Deliberately *not* checked here: whether a transmit time fits the
    /// run's `[min_delay, ν]` window — that depends on the rest of the
    /// [`crate::SimConfig`] and is enforced at runtime with a structured
    /// [`crate::RunAbort::DelayOutOfWindow`] instead of a silent clamp.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated
    /// invariant.
    pub fn validate(&self) -> Result<(), String> {
        let prob = |name: &str, p: f64| -> Result<(), String> {
            if !(0.0..=1.0).contains(&p) || p.is_nan() {
                return Err(format!(
                    "channel.{name} ({p}) must be a probability in [0, 1]"
                ));
            }
            Ok(())
        };
        match *self {
            ChannelConfig::Iid => Ok(()),
            ChannelConfig::ConstantBandwidth {
                ticks_per_frame,
                max_queue,
            } => {
                if ticks_per_frame == 0 {
                    return Err("channel.ticks_per_frame must be ≥ 1".into());
                }
                if max_queue == 0 {
                    return Err("channel.max_queue must be ≥ 1".into());
                }
                Ok(())
            }
            ChannelConfig::SharedMedium {
                ticks_per_frame,
                max_inflight,
            } => {
                if ticks_per_frame == 0 {
                    return Err("channel.ticks_per_frame must be ≥ 1".into());
                }
                if max_inflight == 0 {
                    return Err("channel.max_inflight must be ≥ 1".into());
                }
                Ok(())
            }
            ChannelConfig::GilbertElliott {
                p_good_to_bad,
                p_bad_to_good,
                loss_good,
                loss_bad,
            } => {
                prob("p_good_to_bad", p_good_to_bad)?;
                prob("p_bad_to_good", p_bad_to_good)?;
                prob("loss_good", loss_good)?;
                prob("loss_bad", loss_bad)?;
                Ok(())
            }
        }
    }

    /// Parse a CLI channel spec:
    ///
    /// * `iid`
    /// * `bandwidth:<ticks_per_frame>[:<max_queue>]`
    /// * `shared:<ticks_per_frame>[:<max_inflight>]`
    /// * `gilbert:<p_good_to_bad>:<p_bad_to_good>[:<loss_good>:<loss_bad>]`
    ///
    /// # Errors
    ///
    /// Returns a diagnostic naming the malformed field.
    pub fn parse(spec: &str) -> Result<ChannelConfig, String> {
        let mut parts = spec.split(':');
        let head = parts.next().unwrap_or_default();
        let rest: Vec<&str> = parts.collect();
        let int = |s: &str, name: &str| -> Result<u64, String> {
            s.parse::<u64>()
                .map_err(|_| format!("channel spec: bad {name} '{s}'"))
        };
        let prob = |s: &str, name: &str| -> Result<f64, String> {
            s.parse::<f64>()
                .map_err(|_| format!("channel spec: bad {name} '{s}'"))
        };
        let cfg = match head {
            "iid" => {
                if !rest.is_empty() {
                    return Err("channel spec: iid takes no parameters".into());
                }
                ChannelConfig::Iid
            }
            "bandwidth" => {
                if rest.is_empty() || rest.len() > 2 {
                    return Err("channel spec: bandwidth:<ticks_per_frame>[:<max_queue>]".into());
                }
                ChannelConfig::ConstantBandwidth {
                    ticks_per_frame: int(rest[0], "ticks_per_frame")?,
                    max_queue: rest
                        .get(1)
                        .map_or(Ok(64), |s| int(s, "max_queue").map(|v| v as usize))?,
                }
            }
            "shared" => {
                if rest.is_empty() || rest.len() > 2 {
                    return Err("channel spec: shared:<ticks_per_frame>[:<max_inflight>]".into());
                }
                ChannelConfig::SharedMedium {
                    ticks_per_frame: int(rest[0], "ticks_per_frame")?,
                    max_inflight: rest
                        .get(1)
                        .map_or(Ok(64), |s| int(s, "max_inflight").map(|v| v as usize))?,
                }
            }
            "gilbert" => {
                if rest.len() != 2 && rest.len() != 4 {
                    return Err(
                        "channel spec: gilbert:<p_g2b>:<p_b2g>[:<loss_good>:<loss_bad>]".into(),
                    );
                }
                ChannelConfig::GilbertElliott {
                    p_good_to_bad: prob(rest[0], "p_good_to_bad")?,
                    p_bad_to_good: prob(rest[1], "p_bad_to_good")?,
                    loss_good: rest.get(2).map_or(Ok(0.0), |s| prob(s, "loss_good"))?,
                    loss_bad: rest.get(3).map_or(Ok(1.0), |s| prob(s, "loss_bad"))?,
                }
            }
            other => {
                return Err(format!(
                    "unknown channel model '{other}' (iid, bandwidth, shared, gilbert)"
                ))
            }
        };
        cfg.validate()?;
        Ok(cfg)
    }
}

/// Counters of channel-model activity over a run (all zero with the
/// default i.i.d. model). Lives inside [`crate::EngineStats`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChannelStats {
    /// Frames that had to wait behind other traffic before transmitting
    /// (constant-bandwidth: link busy at send; shared-medium: another
    /// frame already audible in the sender's neighborhood).
    pub frames_queued: u64,
    /// Largest number of frames ever simultaneously queued or in flight
    /// on one directed link (constant-bandwidth) or audible in one
    /// sender's neighborhood (shared-medium).
    pub queue_peak: u64,
    /// Gilbert–Elliott chain state changes (good→bad plus bad→good)
    /// across all directed links.
    pub burst_transitions: u64,
    /// Frames the channel itself lost (burst loss; distinct from the
    /// fault adversary's drops and from in-flight link deaths).
    pub frames_lost: u64,
}

/// Per-directed-link serialization state of the constant-bandwidth model,
/// valid for one link incarnation (a [`LinkStore`] payload).
#[derive(Clone, Debug, Default)]
struct CbSlot {
    /// Instant the link finishes its last accepted frame.
    busy_until: SimTime,
    /// Scheduled completion instants of accepted frames, oldest first;
    /// entries at or before `now` have left the link.
    inflight: VecDeque<SimTime>,
}

/// Per-directed-link Gilbert–Elliott chain state (same incarnation
/// scoping as [`CbSlot`]; a reconnected link restarts in the good state).
#[derive(Clone, Copy, Debug, Default)]
struct GeSlot {
    bad: bool,
}

/// Work below this threshold counts as complete (absorbs f64 rounding in
/// the fair-share integration).
const SM_EPS: f64 = 1e-9;

/// Fair-share service rates for a set of concurrent transmissions.
///
/// `spans[i]` is the set of nodes that hear transmission `i` (the
/// sender's closed neighborhood). Each node is a radio of capacity
/// `capacity` (work per tick); transmission `i` is served at
/// `capacity / max_load(i)` where `max_load(i)` is the largest number of
/// concurrent transmissions audible at any node in `spans[i]`.
///
/// This allocation conserves capacity *per neighborhood*: for every node
/// `x`, the instantaneous rates of all transmissions audible at `x` sum
/// to at most `capacity` (each such transmission is served no faster than
/// `capacity / load(x)`, and there are exactly `load(x)` of them). The
/// property battery in `tests/channel_models.rs` pins this, and the
/// shared medium runs exactly this allocation.
pub fn fair_share_rates(n: usize, spans: &[Vec<NodeId>], capacity: f64) -> Vec<f64> {
    fair_share(n, spans, Vec::as_slice, capacity)
}

/// [`fair_share_rates`] over any transmissions whose spans `span` reads.
fn fair_share<T>(n: usize, items: &[T], span: impl Fn(&T) -> &[NodeId], capacity: f64) -> Vec<f64> {
    let mut load = vec![0u32; n];
    for item in items {
        for x in span(item) {
            load[x.index()] += 1;
        }
    }
    items
        .iter()
        .map(|item| {
            let worst = span(item)
                .iter()
                .map(|x| load[x.index()])
                .max()
                .unwrap_or(1);
            capacity / worst.max(1) as f64
        })
        .collect()
}

/// The runtime state of the configured channel model: one variant per
/// [`ChannelConfig`], each holding only its own state, so a model that is
/// not configured allocates nothing. `W` is the wire frame of the shared
/// medium's flights.
#[derive(Clone)]
pub(crate) enum Medium<W> {
    /// The paper's model: no state (the delay is the link layer's i.i.d.
    /// draw).
    Iid,
    Bandwidth(Bandwidth),
    Shared(SharedMedium<W>),
    Gilbert(GilbertElliott),
}

impl<W> Medium<W> {
    /// The state of `cfg` for a run of `n` nodes seeded by `run_seed`.
    pub fn new(cfg: &ChannelConfig, run_seed: u64, n: usize) -> Medium<W> {
        match *cfg {
            ChannelConfig::Iid => Medium::Iid,
            ChannelConfig::ConstantBandwidth {
                ticks_per_frame,
                max_queue,
            } => Medium::Bandwidth(Bandwidth {
                ticks_per_frame,
                max_queue,
                queues: LinkStore::new(),
            }),
            ChannelConfig::SharedMedium {
                ticks_per_frame,
                max_inflight,
            } => Medium::Shared(SharedMedium {
                ticks_per_frame,
                max_inflight,
                n,
                flights: Vec::new(),
                last_update: SimTime::ZERO,
                gen: 0,
            }),
            ChannelConfig::GilbertElliott {
                p_good_to_bad,
                p_bad_to_good,
                loss_good,
                loss_bad,
            } => Medium::Gilbert(GilbertElliott {
                leave: [p_good_to_bad, p_bad_to_good],
                loss: [loss_good, loss_bad],
                rng: SimRng::seed_from_u64(channel_seed(run_seed)),
                chains: LinkStore::new(),
            }),
        }
    }

    /// The `a — b` link flapped: its per-link channel state goes stale
    /// with the incarnation.
    pub fn bump(&mut self, a: NodeId, b: NodeId) {
        match self {
            Medium::Bandwidth(m) => m.queues.bump(a, b),
            Medium::Gilbert(m) => m.chains.bump(a, b),
            Medium::Iid | Medium::Shared(_) => {}
        }
    }

    /// Records held by the model's per-link store.
    #[cfg(test)]
    pub fn records(&self) -> usize {
        match self {
            Medium::Bandwidth(m) => m.queues.len(),
            Medium::Gilbert(m) => m.chains.len(),
            Medium::Iid | Medium::Shared(_) => 0,
        }
    }
}

/// Constant bandwidth: one FIFO serialization queue per directed link.
#[derive(Clone)]
pub(crate) struct Bandwidth {
    pub ticks_per_frame: u64,
    max_queue: usize,
    queues: LinkStore<CbSlot>,
}

impl Bandwidth {
    /// Serialize a frame of `frame` ticks on `from → to` at `now`: frames
    /// whose completion has passed leave the link, then the frame queues
    /// behind the rest. Returns its delay — completion minus `now`, which
    /// exceeds ν under sustained load — or `Err(max_queue)` when the queue
    /// is full.
    pub fn admit(
        &mut self,
        now: SimTime,
        from: NodeId,
        to: NodeId,
        frame: u64,
        stats: &mut ChannelStats,
    ) -> Result<u64, usize> {
        let slot = self.queues.get_mut(from, to);
        while slot.inflight.front().is_some_and(|&t| t <= now) {
            slot.inflight.pop_front();
        }
        if slot.inflight.len() >= self.max_queue {
            return Err(self.max_queue);
        }
        let start = slot.busy_until.max(now);
        let done = start + frame;
        slot.busy_until = done;
        slot.inflight.push_back(done);
        stats.frames_queued += (start > now) as u64;
        stats.queue_peak = stats.queue_peak.max(slot.inflight.len() as u64);
        Ok(done.0 - now.0)
    }
}

/// Gilbert–Elliott burst loss: one two-state chain per directed link.
#[derive(Clone)]
pub(crate) struct GilbertElliott {
    /// Per-frame probability of leaving the state, indexed by `bad`.
    leave: [f64; 2],
    /// Frame-loss probability in the state, indexed by `bad`.
    loss: [f64; 2],
    /// Dedicated stream for chain steps, so the channel never perturbs
    /// the engine's or the fault adversary's streams.
    rng: SimRng,
    chains: LinkStore<GeSlot>,
}

impl GilbertElliott {
    /// Step the `from → to` chain one frame: maybe flip state, then draw
    /// the loss. Returns `(transitioned, lost)`. Both draws come from the
    /// dedicated channel stream and happen on every frame, so the stream's
    /// consumption is a pure function of the frame count — and an
    /// all-good chain changes nothing observable.
    pub fn step(&mut self, from: NodeId, to: NodeId) -> (bool, bool) {
        let slot = self.chains.get_mut(from, to);
        let flip = self.rng.gen_bool(self.leave[slot.bad as usize]);
        slot.bad ^= flip;
        (flip, self.rng.gen_bool(self.loss[slot.bad as usize]))
    }
}

/// One in-flight shared-medium frame: the frame it delivers on completion
/// plus its fair-share service state.
#[derive(Clone)]
pub(crate) struct Flight<W> {
    pub frame: Frame<W>,
    /// Remaining work in ticks-at-full-rate.
    remaining: f64,
    /// Current fair-share service rate (work per tick), recomputed on
    /// every frame start/finish.
    rate: f64,
    /// Delivery delay past completion that the fault adversary imposed at
    /// send (the max-delay adversary's ν, skew, a ghost's lag).
    pub extra_delay: u64,
    /// The nodes that hear this transmission: the sender's closed
    /// neighborhood at send time.
    span: Vec<NodeId>,
}

impl<W> Flight<W> {
    /// A flight of `work` full-rate ticks heard by `span`.
    pub fn new(frame: Frame<W>, work: u64, extra_delay: u64, span: Vec<NodeId>) -> Flight<W> {
        Flight {
            frame,
            remaining: work as f64,
            rate: 0.0,
            extra_delay,
            span,
        }
    }
}

/// An armed completion scan of the shared medium: due `at`, live while
/// the medium's generation is still `gen` (a later scan supersedes it).
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct Scan {
    pub at: SimTime,
    pub gen: u64,
}

/// The shared medium: every in-flight frame, served at its fair share of
/// the busiest radio neighborhood it is heard in.
#[derive(Clone)]
pub(crate) struct SharedMedium<W> {
    pub ticks_per_frame: u64,
    pub max_inflight: usize,
    /// Node count, for the fair-share load vector.
    n: usize,
    /// In-flight frames, in send order.
    flights: Vec<Flight<W>>,
    /// Instant the flights' `remaining` fields were last integrated to.
    last_update: SimTime,
    /// Generation of the armed completion scan; a scan carrying an older
    /// one was superseded by a reallocation and no-ops.
    gen: u64,
}

impl<W> SharedMedium<W> {
    /// Integrate every flight's remaining work up to `now` at the rates
    /// in force since the last event.
    fn advance(&mut self, now: SimTime) {
        let dt = now.0.saturating_sub(self.last_update.0) as f64;
        if dt > 0.0 {
            for f in &mut self.flights {
                f.remaining -= dt * f.rate;
            }
        }
        self.last_update = now;
    }

    /// Reallocate fair-share rates across all in-flight frames (on every
    /// start and finish). Work is measured in full-rate ticks, so the
    /// uncontended rate — the capacity — is one unit per tick.
    fn reallocate(&mut self) {
        let rates = fair_share(self.n, &self.flights, |f| &f.span, 1.0);
        for (f, rate) in self.flights.iter_mut().zip(rates) {
            f.rate = rate;
        }
    }

    /// Number of in-flight frames audible in the closed neighborhood
    /// `span` (its would-be contention level).
    pub fn audible(&self, span: &[NodeId]) -> usize {
        self.flights
            .iter()
            .filter(|f| span.contains(&f.frame.from))
            .count()
    }

    /// Integrate to `now`, add `flights` in order, reallocate.
    pub fn enqueue(&mut self, now: SimTime, flights: impl IntoIterator<Item = Flight<W>>) {
        self.advance(now);
        self.flights.extend(flights);
        self.reallocate();
    }

    /// Arm the completion scan at the earliest instant any flight could
    /// finish at current rates (ceilinged to whole ticks; a send in
    /// between reallocates and supersedes it), or `None` when the medium
    /// is idle. Every scan armed before is stale.
    pub fn scan(&mut self, now: SimTime) -> Option<Scan> {
        let at = self
            .flights
            .iter()
            .map(|f| {
                if f.remaining <= SM_EPS {
                    now
                } else {
                    now + (f.remaining / f.rate).ceil().max(1.0) as u64
                }
            })
            .min()?;
        self.gen += 1;
        Some(Scan { at, gen: self.gen })
    }

    /// The scan of generation `gen` fired at `now`: integrate and drain
    /// every completed flight in send order, reallocating if any finished.
    /// `None` for a stale scan.
    pub fn complete(&mut self, now: SimTime, gen: u64) -> Option<Vec<Flight<W>>> {
        if gen != self.gen {
            return None;
        }
        self.advance(now);
        let done: Vec<Flight<W>> = self
            .flights
            .extract_if(.., |f| f.remaining <= SM_EPS)
            .collect();
        if !done.is_empty() {
            self.reallocate();
        }
        Some(done)
    }
}

/// Seed of the dedicated channel RNG: a salt of the run seed, so distinct
/// runs explore distinct burst schedules with no extra configuration.
fn channel_seed(run_seed: u64) -> u64 {
    run_seed ^ 0x0C8A_77E1_C4A7_5EED
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_iid_and_valid() {
        let cfg = ChannelConfig::default();
        assert!(cfg.is_iid());
        assert_eq!(cfg.name(), "iid");
        cfg.validate().unwrap();
        assert!(matches!(Medium::<u64>::new(&cfg, 7, 2), Medium::Iid));
    }

    #[test]
    fn parse_round_trips_every_model() {
        assert_eq!(ChannelConfig::parse("iid").unwrap(), ChannelConfig::Iid);
        assert_eq!(
            ChannelConfig::parse("bandwidth:3").unwrap(),
            ChannelConfig::ConstantBandwidth {
                ticks_per_frame: 3,
                max_queue: 64,
            }
        );
        assert_eq!(
            ChannelConfig::parse("bandwidth:2:8").unwrap(),
            ChannelConfig::ConstantBandwidth {
                ticks_per_frame: 2,
                max_queue: 8,
            }
        );
        assert_eq!(
            ChannelConfig::parse("shared:4").unwrap(),
            ChannelConfig::SharedMedium {
                ticks_per_frame: 4,
                max_inflight: 64,
            }
        );
        assert_eq!(
            ChannelConfig::parse("gilbert:0.1:0.4").unwrap(),
            ChannelConfig::GilbertElliott {
                p_good_to_bad: 0.1,
                p_bad_to_good: 0.4,
                loss_good: 0.0,
                loss_bad: 1.0,
            }
        );
        for bad in [
            "warp",
            "bandwidth",
            "bandwidth:0",
            "bandwidth:2:0",
            "shared:x",
            "gilbert:0.1",
            "gilbert:2.0:0.5",
            "iid:3",
        ] {
            assert!(ChannelConfig::parse(bad).is_err(), "{bad} must not parse");
        }
    }

    #[test]
    fn validate_rejects_degenerate_parameters() {
        assert!(ChannelConfig::ConstantBandwidth {
            ticks_per_frame: 0,
            max_queue: 4,
        }
        .validate()
        .is_err());
        assert!(ChannelConfig::SharedMedium {
            ticks_per_frame: 2,
            max_inflight: 0,
        }
        .validate()
        .is_err());
        assert!(ChannelConfig::GilbertElliott {
            p_good_to_bad: f64::NAN,
            p_bad_to_good: 0.5,
            loss_good: 0.0,
            loss_bad: 1.0,
        }
        .validate()
        .is_err());
        ChannelConfig::burst_loss_default().validate().unwrap();
    }

    #[test]
    fn ge_chain_is_deterministic_and_counts_transitions() {
        let cfg = ChannelConfig::GilbertElliott {
            p_good_to_bad: 0.3,
            p_bad_to_good: 0.3,
            loss_good: 0.0,
            loss_bad: 1.0,
        };
        let run = || {
            let mut chain = gilbert(&cfg, 7);
            (0..200)
                .map(|_| chain.step(NodeId(0), NodeId(1)))
                .collect::<Vec<_>>()
        };
        let a = run();
        assert_eq!(a, run(), "chain must replay from its seed");
        let transitions = a.iter().filter(|(t, _)| *t).count();
        let losses = a.iter().filter(|(_, l)| *l).count();
        assert!(transitions > 0, "chain never moved");
        assert!(losses > 0, "bad state never lost a frame");
        // Good-state frames are never lost with loss_good = 0, so losses
        // only happen inside bursts.
        assert!(losses < 200);
    }

    #[test]
    fn all_good_chain_never_loses() {
        let cfg = ChannelConfig::GilbertElliott {
            p_good_to_bad: 0.0,
            p_bad_to_good: 1.0,
            loss_good: 0.0,
            loss_bad: 1.0,
        };
        let mut chain = gilbert(&cfg, 9);
        for _ in 0..500 {
            let (flip, lost) = chain.step(NodeId(0), NodeId(1));
            assert!(!flip && !lost);
        }
    }

    #[test]
    fn fair_share_conserves_capacity_per_neighborhood() {
        // Three overlapping transmissions on a 4-node line 0-1-2-3:
        // spans are closed neighborhoods of the senders.
        let spans = vec![
            vec![NodeId(0), NodeId(1)],            // 0 transmits
            vec![NodeId(0), NodeId(1), NodeId(2)], // 1 transmits
            vec![NodeId(1), NodeId(2), NodeId(3)], // 2 transmits
        ];
        let cap = 0.5;
        let rates = fair_share_rates(4, &spans, cap);
        assert_eq!(rates.len(), 3);
        for x in 0..4u32 {
            let audible: f64 = spans
                .iter()
                .zip(&rates)
                .filter(|(s, _)| s.contains(&NodeId(x)))
                .map(|(_, r)| *r)
                .sum();
            assert!(
                audible <= cap + 1e-12,
                "node {x} hears {audible} > capacity {cap}"
            );
        }
        // A lone transmission gets the full rate.
        assert_eq!(
            fair_share_rates(4, &[vec![NodeId(0), NodeId(1)]], cap),
            vec![cap]
        );
    }

    #[test]
    fn shared_medium_serves_and_completes_fairly() {
        let cfg = ChannelConfig::SharedMedium {
            ticks_per_frame: 4,
            max_inflight: 8,
        };
        let mut medium = shared(&cfg);
        let mk = |wire: u64| flight(0, wire, 4);
        // Lone frame: full rate, completes after ticks_per_frame.
        medium.enqueue(SimTime(0), [mk(1)]);
        let first = medium.scan(SimTime(0)).unwrap();
        assert_eq!(first.at, SimTime(4));
        // A second audible frame halves both rates.
        medium.enqueue(SimTime(2), [mk(2)]);
        let Scan { at: eta, gen } = medium.scan(SimTime(2)).unwrap();
        assert!(
            eta > SimTime(4),
            "contention must stretch completion: {eta:?}"
        );
        assert!(medium.complete(first.at, first.gen).is_none(), "superseded");
        assert!(medium.complete(SimTime(2), gen).unwrap().is_empty());
        let done = medium.complete(eta, gen).unwrap();
        assert_eq!(done.len(), 1);
        assert_eq!(
            done[0].frame.wire, 1,
            "FIFO: the older frame finishes first"
        );
        // The survivor speeds back up to the full rate and finishes.
        let Scan { at: eta2, gen } = medium.scan(eta).unwrap();
        let done = medium.complete(eta2, gen).unwrap();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].frame.wire, 2);
        assert!(medium.flights.is_empty());
        assert_eq!(medium.scan(eta2), None);
    }

    #[test]
    fn sm_audible_counts_only_overlapping_senders() {
        let cfg = ChannelConfig::SharedMedium {
            ticks_per_frame: 2,
            max_inflight: 8,
        };
        let mut medium = shared(&cfg);
        medium.enqueue(SimTime(0), [flight(0, 1, 2)]);
        assert_eq!(medium.audible(&[NodeId(0), NodeId(1)]), 1);
        assert_eq!(medium.audible(&[NodeId(2), NodeId(3)]), 0);
    }

    fn gilbert(cfg: &ChannelConfig, seed: u64) -> GilbertElliott {
        match Medium::<u64>::new(cfg, seed, 2) {
            Medium::Gilbert(chain) => chain,
            _ => unreachable!("not a Gilbert–Elliott config"),
        }
    }

    fn shared(cfg: &ChannelConfig) -> SharedMedium<u64> {
        match Medium::new(cfg, 7, 4) {
            Medium::Shared(medium) => medium,
            _ => unreachable!("not a shared-medium config"),
        }
    }

    /// A flight of `work` ticks from `from` to its right-hand neighbour,
    /// heard by both.
    fn flight(from: u32, wire: u64, work: u64) -> Flight<u64> {
        let (from, to) = (NodeId(from), NodeId(from + 1));
        let frame = Frame {
            from,
            to,
            link_epoch: 0,
            wire,
        };
        Flight::new(frame, work, 0, vec![from, to])
    }
}

//! Go-back-N reliable delivery for one node's end of one link, as a
//! sans-IO state machine.
//!
//! The paper gives every protocol reliable FIFO links with delay ≤ ν; a
//! lossy channel (the fault adversary, a burst-loss model, a UDP socket)
//! breaks that, and [`GoBackN`] restores it. This module alone decides
//! how; the simulator engine and the live runtime's shard node are two
//! hosts of it. One value holds both directions: the unacknowledged send
//! buffer with its retransmission timer, and the in-order receive filter
//! with its idle-ack timer.
//!
//! The machine never reads a clock, owns a queue, touches a socket or
//! calls back. The host passes the instant in, and every call *returns*
//! what changed — a frame's sequence number, the ack to put on the wire,
//! the deadline of a timer it armed. The host sends the frames, keeps the
//! timers however it keeps timers, and calls [`GoBackN::on_rto`] /
//! [`GoBackN::on_ack_idle`] when one passes.
//!
//! * **Time** is a bare `u64` in the host's unit (engine ticks, live wall
//!   nanoseconds); the machine only adds to it. Timeouts come from ν as an
//!   [`ArqTiming`].
//! * **Randomness** is the host's: jitter draws from the `&mut SimRng`
//!   passed in, once per armed retransmission timer and never otherwise,
//!   so a host with a stream dedicated to its links replays byte for byte.
//! * **Scope** is one link incarnation. `GoBackN::default()` *is* a fresh
//!   one — numbering restarts at 1 in both directions — and a host resets
//!   a link by replacing the value. Protocols own re-synchronization
//!   across incarnations (fork re-minting on `LinkUp`).
//!
//! The sender resends its whole buffer on a timeout (2ν, doubling per
//! silent timeout to a 16ν cap, plus up to 25 % jitter); a cumulative ack
//! releases a prefix and restarts the timer from 2ν; [`MAX_RETRIES`]
//! silent timeouts make it give up. The receiver delivers 1, 2, 3 …
//! exactly once, drops gaps and duplicates, and owes an ack for every
//! data frame: paid by piggyback on the next frame out, or by a frame of
//! its own once ν passes with the debt still open.

use std::collections::VecDeque;

use crate::rng::SimRng;

/// Consecutive timeouts without ack progress before the sender gives up on
/// a link and discards its buffered frames. Giving up is essential: a
/// crashed peer keeps its links up (crashes are silent in the model), and
/// retransmitting to it forever would turn every crash into an unbounded
/// timer load (in the simulator, an event-budget livelock abort).
pub const MAX_RETRIES: u32 = 16;

/// The shim's timeouts, resolved from ν in the host's time unit. There is
/// nothing to tune: every value is a fixed multiple of ν.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ArqTiming {
    /// Initial retransmission timeout: `2ν` (one frame plus one ack at
    /// worst-case delay).
    pub rto_initial: u64,
    /// Upper bound on the backed-off retransmission timeout: `16ν`.
    pub rto_cap: u64,
    /// Idle time after which a receiver owing an acknowledgment sends a
    /// standalone ack instead of waiting for reverse traffic: ν.
    pub ack_idle: u64,
}

impl ArqTiming {
    /// The timeouts for message-delay bound `nu` (at least 1).
    pub fn from_nu(nu: u64) -> ArqTiming {
        let nu = nu.max(1);
        ArqTiming {
            rto_initial: nu.saturating_mul(2),
            rto_cap: nu.saturating_mul(16),
            ack_idle: nu,
        }
    }

    /// Backed-off retransmission delay after `attempts` consecutive
    /// timeouts: `min(rto_cap, rto_initial · 2^attempts)` plus up to 25 %
    /// jitter (desynchronizes competing senders; the draw happens even at
    /// the cap, keeping the stream's consumption a pure function of the
    /// timeout count).
    fn backoff(self, attempts: u32, rng: &mut SimRng) -> u64 {
        // A shift that would push a set bit out is past any cap.
        let base = if attempts > self.rto_initial.leading_zeros() {
            self.rto_cap
        } else {
            (self.rto_initial << attempts).min(self.rto_cap)
        };
        base.saturating_add(rng.gen_range(0..=base / 4))
    }
}

/// What a fired retransmission timer asks of the host
/// ([`GoBackN::on_rto`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rto {
    /// Nothing is in flight; the timer is disarmed.
    Idle,
    /// [`MAX_RETRIES`] timeouts passed in silence: the buffer was
    /// discarded and the timer is disarmed.
    GaveUp,
    /// Resend every frame of [`GoBackN::unacked`], in order; the timer is
    /// re-armed, backed off, for `rto_at`.
    Resend {
        /// Deadline of the re-armed retransmission timer.
        rto_at: u64,
    },
}

/// Reliable-delivery state of one node's end of one link incarnation,
/// generic over the buffered frame `F`. See the module docs.
#[derive(Clone, Debug)]
pub struct GoBackN<F> {
    /// Sequence number of the first unacknowledged frame (the front of
    /// `buf`).
    base: u64,
    /// Unacknowledged frames, in sequence order starting at `base`.
    buf: VecDeque<F>,
    /// Consecutive timeouts since the last ack progress.
    attempts: u32,
    /// Deadline of the armed retransmission timer; armed exactly while
    /// `buf` is non-empty.
    rto_at: Option<u64>,
    /// Next in-order sequence number expected; `next - 1` is the
    /// cumulative ack value.
    next: u64,
    /// Whether an acknowledgment is owed (set on every data arrival,
    /// cleared when an ack goes out, piggybacked or standalone).
    ack_owed: bool,
    /// Deadline of the armed idle-ack timer. It stays armed when a
    /// piggyback pays the debt early, and then fires to find nothing owed.
    ack_at: Option<u64>,
}

impl<F> Default for GoBackN<F> {
    fn default() -> GoBackN<F> {
        GoBackN {
            base: 1,
            buf: VecDeque::new(),
            attempts: 0,
            rto_at: None,
            next: 1,
            ack_owed: false,
            ack_at: None,
        }
    }
}

impl<F> GoBackN<F> {
    /// Frames sent and not yet acknowledged. The machine sets no window;
    /// a host that wants one checks this before [`GoBackN::send`].
    pub fn in_flight(&self) -> usize {
        self.buf.len()
    }

    /// Deadline of the armed retransmission timer.
    pub fn rto_at(&self) -> Option<u64> {
        self.rto_at
    }

    /// Deadline of the armed idle-ack timer.
    pub fn ack_at(&self) -> Option<u64> {
        self.ack_at
    }

    /// The earlier of the two armed timers.
    pub fn next_deadline(&self) -> Option<u64> {
        self.rto_at.into_iter().chain(self.ack_at).min()
    }

    /// Arm the retransmission timer, backed off by the timeouts so far.
    fn arm_rto(&mut self, now: u64, timing: ArqTiming, rng: &mut SimRng) -> u64 {
        let at = now.saturating_add(timing.backoff(self.attempts, rng));
        self.rto_at = Some(at);
        at
    }

    /// Number `frame` and buffer it until it is acknowledged. Returns its
    /// sequence number and, if this send armed the retransmission timer,
    /// the timer's deadline. The data frame the host puts on the wire
    /// carries [`GoBackN::take_ack`].
    pub fn send(
        &mut self,
        now: u64,
        frame: F,
        timing: ArqTiming,
        rng: &mut SimRng,
    ) -> (u64, Option<u64>) {
        let seq = self.base + self.buf.len() as u64;
        self.buf.push_back(frame);
        let armed = self.rto_at.is_none();
        (seq, armed.then(|| self.arm_rto(now, timing, rng)))
    }

    /// The cumulative ack to carry on a frame toward the peer — how much
    /// of the peer's data has been received in order (0 on a fresh
    /// incarnation) — marking the debt paid.
    pub fn take_ack(&mut self) -> u64 {
        self.ack_owed = false;
        self.next - 1
    }

    /// Apply a cumulative ack from the peer (piggybacked or standalone):
    /// everything up to `ack` has arrived. Progress resets the backoff
    /// and, while frames remain in flight, restarts the timer from the
    /// initial timeout — the channel just proved it is moving — returning
    /// the new deadline. An ack that frees nothing changes nothing.
    pub fn on_ack(
        &mut self,
        now: u64,
        ack: u64,
        timing: ArqTiming,
        rng: &mut SimRng,
    ) -> Option<u64> {
        let before = self.buf.len();
        while self.base <= ack && self.buf.pop_front().is_some() {
            self.base += 1;
        }
        if self.buf.len() == before {
            return None;
        }
        self.attempts = 0;
        self.rto_at = None;
        (!self.buf.is_empty()).then(|| self.arm_rto(now, timing, rng))
    }

    /// The in-order filter for an arriving data frame. Returns whether to
    /// deliver it — only the next expected number passes; a gap or
    /// duplicate is dropped, go-back-N resends in order — and, if this
    /// arrival armed the idle-ack timer, the timer's deadline. Either way
    /// the peer is owed an ack, and the idle timer guarantees it is paid
    /// even on one-way traffic.
    pub fn on_data(&mut self, now: u64, seq: u64, timing: ArqTiming) -> (bool, Option<u64>) {
        self.ack_owed = true;
        let deliver = seq == self.next;
        if deliver {
            self.next += 1;
        }
        let armed = self.ack_at.is_none().then(|| {
            let at = now.saturating_add(timing.ack_idle);
            self.ack_at = Some(at);
            at
        });
        (deliver, armed)
    }

    /// The retransmission timer fired (the host decides when: the machine
    /// does not compare `now` with the deadline). A frame the host keeps
    /// off the wire after [`Rto::Resend`] is simply resent, further backed
    /// off, by the next timeout.
    pub fn on_rto(&mut self, now: u64, timing: ArqTiming, rng: &mut SimRng) -> Rto {
        self.rto_at = None;
        if self.buf.is_empty() {
            return Rto::Idle;
        }
        self.attempts += 1;
        if self.attempts > MAX_RETRIES {
            // The discarded numbers are not reused: the peer still expects
            // the first of them, so the link stays silent until a flap
            // starts its next incarnation.
            self.base += self.buf.len() as u64;
            self.buf.clear();
            self.attempts = 0;
            return Rto::GaveUp;
        }
        let rto_at = self.arm_rto(now, timing, rng);
        Rto::Resend { rto_at }
    }

    /// The unacknowledged frames with their sequence numbers, oldest
    /// first: what [`Rto::Resend`] asks the host to put on the wire.
    pub fn unacked(&self) -> impl Iterator<Item = (u64, &F)> {
        (self.base..).zip(&self.buf)
    }

    /// The idle-ack timer fired: the ack to send in a frame of its own if
    /// one is still owed (no reverse traffic carried it in time), marking
    /// the debt paid.
    pub fn on_ack_idle(&mut self) -> Option<u64> {
        self.ack_at = None;
        self.ack_owed.then(|| self.take_ack())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const NU: u64 = 1_000;
    const T: ArqTiming = ArqTiming {
        rto_initial: 2 * NU,
        rto_cap: 16 * NU,
        ack_idle: NU,
    };

    type Link = GoBackN<&'static str>;

    fn rng() -> SimRng {
        SimRng::seed_from_u64(7)
    }

    /// The retransmission timeout after `attempts` silent timeouts lies in
    /// `base ..= base + 25 %`.
    fn assert_backed_off(delay: u64, attempts: u32) {
        let base = ((2 * NU) << attempts.min(3)).min(16 * NU);
        assert!(
            (base..=base + base / 4).contains(&delay),
            "timeout {attempts}: delay {delay} outside {base}..={}",
            base + base / 4
        );
    }

    /// Fire the sender's retransmission timer at its own deadline; returns
    /// that instant, the verdict, and the sequence numbers to resend.
    fn fire_rto(link: &mut Link, rng: &mut SimRng) -> (u64, Rto, Vec<u64>) {
        let at = link.rto_at().expect("an armed retransmission timer");
        let verdict = link.on_rto(at, T, rng);
        let resend = match verdict {
            Rto::Resend { .. } => link.unacked().map(|(seq, _)| seq).collect(),
            _ => Vec::new(),
        };
        (at, verdict, resend)
    }

    #[test]
    fn backoff_grows_caps_and_never_overflows_the_shift() {
        let mut rng = rng();
        for attempts in 0..10 {
            assert_backed_off(T.backoff(attempts, &mut rng), attempts);
        }
        for attempts in [31, 32, 63, 64, 200, u32::MAX] {
            assert_backed_off(T.backoff(attempts, &mut rng), attempts);
        }
        // ν in wall nanoseconds can be large: the multiples of ν and the
        // doubling saturate instead of wrapping or shifting bits out, and
        // the deadline add cannot wrap.
        assert_eq!(ArqTiming::from_nu(0), ArqTiming::from_nu(1), "ν ≥ 1");
        let huge = ArqTiming::from_nu(u64::MAX / 3);
        assert_eq!(huge.rto_cap, u64::MAX);
        assert_eq!(huge.backoff(1, &mut rng), u64::MAX);
        let mut link = Link::default();
        assert_eq!(
            link.send(u64::MAX - 5, "a", huge, &mut rng).1,
            Some(u64::MAX)
        );
    }

    #[test]
    fn a_dropped_frame_is_resent_after_the_rto() {
        let mut rng = rng();
        let mut link = Link::default();
        assert_eq!(link.next_deadline(), None);
        let (seq, armed) = link.send(100, "a", T, &mut rng);
        assert_eq!(seq, 1, "numbering starts at 1");
        let rto = armed.expect("the first send arms the timer");
        assert_backed_off(rto - 100, 0);
        assert_eq!(link.send(150, "b", T, &mut rng), (2, None), "already armed");
        assert_eq!((link.rto_at(), link.in_flight()), (Some(rto), 2));

        assert!(matches!(link.on_rto(rto, T, &mut rng), Rto::Resend { rto_at } if rto_at > rto));
        assert_eq!(
            link.unacked().collect::<Vec<_>>(),
            vec![(1, &"a"), (2, &"b")],
            "go-back-N resends the whole window in order"
        );
    }

    #[test]
    fn backoff_doubles_up_to_the_cap_and_then_the_sender_gives_up() {
        let mut rng = rng();
        let mut link = Link::default();
        link.send(0, "a", T, &mut rng);
        for attempt in 1..=MAX_RETRIES {
            let (at, verdict, resend) = fire_rto(&mut link, &mut rng);
            assert_eq!(resend, vec![1], "timeout {attempt}");
            assert_eq!(
                verdict,
                Rto::Resend {
                    rto_at: link.rto_at().unwrap()
                }
            );
            assert_backed_off(link.rto_at().unwrap() - at, attempt);
        }
        let (_, verdict, _) = fire_rto(&mut link, &mut rng);
        assert_eq!(verdict, Rto::GaveUp, "the 17th silent timeout");
        assert_eq!((link.next_deadline(), link.in_flight()), (None, 0));
        assert_eq!(link.on_rto(0, T, &mut rng), Rto::Idle, "nothing in flight");

        // The give-up is per silence, not per link: the next send starts
        // over at the initial delay. The discarded number is not reused.
        let (seq, armed) = link.send(1_000_000, "b", T, &mut rng);
        assert_eq!(seq, 2);
        assert_backed_off(armed.expect("armed") - 1_000_000, 0);
    }

    #[test]
    fn a_dark_path_keeps_frames_buffered_and_backing_off() {
        // What a host does while the path is dark: let the timer run, send
        // nothing, and so never call `take_ack`.
        let mut rng = rng();
        let mut link = Link::default();
        link.send(0, "a", T, &mut rng);
        assert!(link.on_data(10, 1, T).0);
        let (at, _, resend) = fire_rto(&mut link, &mut rng);
        assert_eq!(resend, vec![1], "still buffered");
        assert_backed_off(link.rto_at().unwrap() - at, 1);
        let (at, _, resend) = fire_rto(&mut link, &mut rng);
        assert_eq!(resend, vec![1], "resent once the path is lit");
        assert_backed_off(link.rto_at().unwrap() - at, 2);
        assert_eq!(
            link.take_ack(),
            1,
            "the debt rides the frame that does go out"
        );
        assert_eq!(link.on_ack_idle(), None, "and is then paid");
    }

    #[test]
    fn a_cumulative_ack_pops_the_window_and_rearms_the_timer() {
        let mut rng = rng();
        let mut link = Link::default();
        for frame in ["x", "y", "z"] {
            link.send(0, frame, T, &mut rng);
        }
        fire_rto(&mut link, &mut rng); // one silent timeout: backoff now 4ν
        let stale = link.rto_at();
        assert_eq!(link.on_ack(5_000, 0, T, &mut rng), None);
        assert_eq!(link.rto_at(), stale, "an empty ack changes nothing");

        let rearmed = link.on_ack(5_000, 2, T, &mut rng).expect("seq 3 in flight");
        assert_eq!(link.rto_at(), Some(rearmed));
        assert_backed_off(rearmed - 5_000, 0); // progress resets the backoff
        let (_, _, resend) = fire_rto(&mut link, &mut rng);
        assert_eq!(resend, vec![3], "only the unacked tail");

        let armed = link.rto_at();
        assert_eq!(link.on_ack(9_000, 2, T, &mut rng), None);
        assert_eq!(link.rto_at(), armed, "a duplicate ack frees nothing");
        assert_eq!(link.on_ack(9_000, 3, T, &mut rng), None);
        assert_eq!(link.next_deadline(), None, "window empty, timer disarmed");
    }

    #[test]
    fn a_frame_that_overtakes_the_first_one_is_not_delivered_in_its_place() {
        // The live control-plane/data-plane race: the receiver drops frame
        // 1 because it has not processed its LinkUp yet, then sees frame 2.
        // A receiver that resynchronised on whatever arrives first would
        // deliver 2, ack it cumulatively, and frame 1 — on a fresh link,
        // Algorithm 1's Hello — would be popped unsent.
        let mut rng = rng();
        let (mut tx, mut rx) = (Link::default(), Link::default());
        assert_eq!(tx.send(0, "hello", T, &mut rng).0, 1);
        assert_eq!(tx.send(5, "req", T, &mut rng).0, 2);
        assert_eq!(rx.on_data(40, 2, T), (false, Some(40 + NU)), "a gap");
        assert_eq!(rx.take_ack(), 0, "nothing was received in order");
        assert_eq!(tx.on_ack(60, 0, T, &mut rng), None);
        assert_eq!(tx.in_flight(), 2, "so nothing is released");

        let (at, _, resend) = fire_rto(&mut tx, &mut rng);
        assert_eq!(resend, vec![1, 2]);
        let mut delivered = Vec::new();
        for round in 0..2 {
            // Deliver the resent window twice: the second copy is a
            // duplicate.
            for (seq, frame) in tx.unacked() {
                if rx.on_data(at + round, seq, T).0 {
                    delivered.push(*frame);
                }
            }
        }
        assert_eq!(delivered, vec!["hello", "req"], "in order, exactly once");
        assert_eq!(rx.take_ack(), 2);
        assert_eq!(tx.on_ack(at + 50, 2, T, &mut rng), None);
        assert_eq!(tx.in_flight(), 0);
    }

    #[test]
    fn a_gap_or_duplicate_is_dropped_but_still_owes_an_ack() {
        let mut link = Link::default();
        assert_eq!(link.on_data(100, 1, T), (true, Some(100 + NU)));
        assert_eq!(link.next_deadline(), Some(100 + NU), "idle-ack timer");
        assert_eq!(link.on_ack_idle(), Some(1), "standalone cumulative ack");
        assert_eq!(link.next_deadline(), None);

        assert_eq!(link.on_data(5_000, 3, T), (false, Some(5_000 + NU)), "gap");
        assert_eq!(link.on_data(5_001, 1, T), (false, None), "duplicate");
        assert_eq!(link.ack_at(), Some(5_000 + NU), "armed by the gap");
        assert_eq!(link.on_ack_idle(), Some(1), "re-acks what was delivered");
    }

    #[test]
    fn a_piggyback_pays_the_debt_and_leaves_the_idle_timer_to_find_nothing() {
        let mut rng = rng();
        let mut link = Link::default();
        assert_eq!(link.take_ack(), 0, "a fresh incarnation acks 0");
        for seq in 1..=4 {
            assert!(link.on_data(8_000, seq, T).0);
        }
        // Outgoing data carries the owed ack instead of a separate frame.
        link.send(8_100, "reply", T, &mut rng);
        assert_eq!(link.take_ack(), 4);
        assert_eq!(link.ack_at(), Some(8_000 + NU), "the timer is not recalled");
        assert_eq!(link.on_ack_idle(), None, "it fires and finds nothing owed");
        assert_eq!(link.ack_at(), None);
        assert!(link.rto_at().is_some(), "only the rto is left armed");
    }

    #[test]
    fn a_link_reset_forgets_both_directions() {
        let mut rng = rng();
        let mut link = Link::default();
        for frame in ["old", "older"] {
            link.send(0, frame, T, &mut rng);
        }
        assert!(link.on_data(0, 1, T).0);
        // The host resets a link by replacing its state.
        link = Link::default();
        assert_eq!(link.next_deadline(), None, "no timer survives");
        assert_eq!(link.unacked().count(), 0, "nothing old is resent");
        assert_eq!(link.send(10, "new", T, &mut rng).0, 1, "numbering restarts");
        assert!(!link.on_data(10, 2, T).0, "and so does the receiver:");
        assert!(link.on_data(11, 1, T).0, "it expects 1 again");
    }
}

//! Go-back-N reliable delivery for one neighbour link, as a sans-IO state
//! machine — the live mirror of `manet_sim::ArqConfig`.
//!
//! [`GoBackN`] holds both directions of one node's view of a link: the
//! unacknowledged send buffer with its retransmission timer, and the
//! in-order receive filter with its standalone-ack idle timer. It never
//! reads a clock, touches a socket or sleeps: the host passes `now_ns`
//! in, sends the frames it is handed, and wakes the link again at
//! [`GoBackN::next_deadline`]. A fresh value is a fresh link incarnation;
//! the host resets a link by dropping its state.
//!
//! Timing is derived from ν (the model's message-delay bound, in wall
//! nanoseconds): the first retransmission fires after 2ν, each silent
//! timeout doubles the delay up to a 16ν cap, every delay carries up to
//! ν/2 of jitter, and an owed ack waits ν for data to piggyback on
//! before it gets a frame of its own.

use std::collections::VecDeque;

use manet_sim::SimRng;

use crate::transport::{ENV_ACK, ENV_DATA};

/// Give up retransmitting to a silent peer after this many consecutive
/// timeouts (a crashed neighbour never acks; its links stay up).
const MAX_RETRIES: u32 = 16;

/// Reliable-delivery state of one neighbour link.
pub(crate) struct GoBackN {
    /// ν in wall nanoseconds.
    nu_ns: u64,
    /// Sent `(seq, frame)` pairs awaiting acknowledgment.
    buf: VecDeque<(u64, Vec<u8>)>,
    /// Deadline of the armed retransmission timer.
    rto_at: Option<u64>,
    /// Consecutive silent timeouts (drives the backoff and the give-up).
    attempts: u32,
    /// Next in-order sequence expected; 0 = resynchronize on the next
    /// frame (envelope sequence numbers start at 1, so 0 is free as the
    /// sentinel).
    next: u64,
    /// A cumulative ack is owed to the peer.
    ack_owed: bool,
    /// Deadline of the armed standalone-ack idle timer.
    ack_at: Option<u64>,
}

impl GoBackN {
    pub(crate) fn new(nu_ns: u64) -> GoBackN {
        GoBackN {
            nu_ns,
            buf: VecDeque::new(),
            rto_at: None,
            attempts: 0,
            next: 0,
            ack_owed: false,
            ack_at: None,
        }
    }

    /// Delay before the next retransmission after `attempts` silent
    /// timeouts, with jitter.
    fn backoff(&self, attempts: u32, rng: &mut SimRng) -> u64 {
        let init = self.nu_ns.saturating_mul(2).max(1);
        let cap = self.nu_ns.saturating_mul(16).max(init);
        let base = if attempts >= init.leading_zeros() {
            cap
        } else {
            (init << attempts).min(cap)
        };
        base.saturating_add(rng.gen_range(0..=init / 4))
    }

    /// The cumulative ack to piggyback on traffic toward the peer. It
    /// settles the owed ack, so the idle timer is disarmed.
    fn take_ack(&mut self) -> u64 {
        self.ack_owed = false;
        self.ack_at = None;
        self.next.saturating_sub(1)
    }

    /// Note that the peer is owed an ack within ν.
    fn owe_ack(&mut self, now_ns: u64) {
        self.ack_owed = true;
        if self.ack_at.is_none() {
            self.ack_at = Some(now_ns.saturating_add(self.nu_ns));
        }
    }

    /// Buffer an outgoing data frame until it is acknowledged. Returns
    /// the cumulative ack its envelope must carry.
    pub(crate) fn on_send(&mut self, now_ns: u64, seq: u64, frame: &[u8], rng: &mut SimRng) -> u64 {
        self.buf.push_back((seq, frame.to_vec()));
        if self.rto_at.is_none() {
            self.rto_at = Some(now_ns.saturating_add(self.backoff(0, rng)));
        }
        self.take_ack()
    }

    /// Apply a cumulative ack from the peer: everything up to `ack` has
    /// arrived. Progress resets the backoff and re-arms the timer for
    /// what is still in flight; an ack that frees nothing changes nothing.
    pub(crate) fn on_ack(&mut self, now_ns: u64, ack: u64, rng: &mut SimRng) {
        let before = self.buf.len();
        while self.buf.front().is_some_and(|&(seq, _)| seq <= ack) {
            self.buf.pop_front();
        }
        if self.buf.len() == before {
            return;
        }
        self.attempts = 0;
        self.rto_at = if self.buf.is_empty() {
            None
        } else {
            Some(now_ns.saturating_add(self.backoff(0, rng)))
        };
    }

    /// The in-order filter for an arriving data frame. Returns whether to
    /// deliver it: the first frame of a link incarnation and the expected
    /// sequence pass, a gap or duplicate is dropped (go-back-N resends in
    /// order). Either way the peer is owed an ack, so its window can move
    /// past what was delivered.
    pub(crate) fn on_data(&mut self, now_ns: u64, seq: u64) -> bool {
        let in_order = self.next == 0 || seq == self.next;
        if in_order {
            self.next = seq + 1;
        }
        self.owe_ack(now_ns);
        in_order
    }

    /// The earliest armed timer.
    pub(crate) fn next_deadline(&self) -> Option<u64> {
        match (self.rto_at, self.ack_at) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Fire whichever timers are due at `now_ns`, handing `send` each
    /// envelope to put on the wire as `(kind, seq, ack, frame)`.
    ///
    /// A due retransmission timer resends the whole buffer and doubles
    /// the backoff; after [`MAX_RETRIES`] silent timeouts the buffer is
    /// dropped instead, so the timer load toward a dead peer stays
    /// bounded. A due idle timer sends the owed ack in a frame of its
    /// own. While the path is `dark` (severed, or the peer is no longer a
    /// neighbour) nothing is sent: buffered frames keep backing off and
    /// the owed ack is forgotten.
    pub(crate) fn on_deadline(
        &mut self,
        now_ns: u64,
        dark: bool,
        rng: &mut SimRng,
        mut send: impl FnMut(u8, u64, u64, &[u8]),
    ) {
        if self.rto_at.is_some_and(|at| at <= now_ns) {
            self.rto_at = None;
            if !self.buf.is_empty() {
                self.attempts += 1;
                if self.attempts > MAX_RETRIES {
                    self.buf.clear();
                    self.attempts = 0;
                } else {
                    if !dark {
                        let ack = self.take_ack();
                        for (seq, frame) in &self.buf {
                            send(ENV_DATA, *seq, ack, frame);
                        }
                    }
                    self.rto_at = Some(now_ns.saturating_add(self.backoff(self.attempts, rng)));
                }
            }
        }
        if self.ack_at.is_some_and(|at| at <= now_ns) {
            self.ack_at = None;
            if self.ack_owed {
                let ack = self.take_ack();
                if !dark {
                    send(ENV_ACK, 0, ack, b"");
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const NU: u64 = 1_000;
    const JITTER: u64 = 2 * NU / 4;

    fn rng() -> SimRng {
        SimRng::seed_from_u64(7)
    }

    /// Fire the link at its own next deadline; returns that instant and
    /// the `(kind, seq, ack)` of every envelope it sent.
    fn fire(link: &mut GoBackN, dark: bool, rng: &mut SimRng) -> (u64, Vec<(u8, u64, u64)>) {
        let at = link.next_deadline().expect("an armed timer");
        let mut sent = Vec::new();
        link.on_deadline(at, dark, rng, |kind, seq, ack, _| {
            sent.push((kind, seq, ack))
        });
        (at, sent)
    }

    #[test]
    fn a_dropped_frame_is_resent_after_the_rto() {
        let mut rng = rng();
        let mut link = GoBackN::new(NU);
        assert_eq!(link.next_deadline(), None);
        assert_eq!(link.on_send(100, 1, b"a", &mut rng), 0);
        assert_eq!(link.on_send(150, 2, b"b", &mut rng), 0);
        let rto = link.next_deadline().expect("rto armed by the first send");
        assert!((100 + 2 * NU..=100 + 2 * NU + JITTER).contains(&rto));

        let mut sent = Vec::new();
        link.on_deadline(rto - 1, false, &mut rng, |k, s, a, f: &[u8]| {
            sent.push((k, s, a, f.to_vec()))
        });
        assert!(sent.is_empty(), "nothing is due before the deadline");
        link.on_deadline(rto, false, &mut rng, |k, s, a, f: &[u8]| {
            sent.push((k, s, a, f.to_vec()))
        });
        assert_eq!(
            sent,
            vec![
                (ENV_DATA, 1, 0, b"a".to_vec()),
                (ENV_DATA, 2, 0, b"b".to_vec())
            ],
            "go-back-N resends the whole window in order"
        );
        assert!(link.next_deadline().is_some_and(|d| d > rto), "re-armed");
    }

    #[test]
    fn backoff_doubles_up_to_the_cap_and_then_the_sender_gives_up() {
        let mut rng = rng();
        let mut link = GoBackN::new(NU);
        link.on_send(0, 1, b"a", &mut rng);
        let mut resends = 0;
        for attempt in 1..=MAX_RETRIES {
            let (at, sent) = fire(&mut link, false, &mut rng);
            assert_eq!(sent, vec![(ENV_DATA, 1, 0)], "timeout {attempt}");
            resends += sent.len();
            let base = ((2 * NU) << attempt).min(16 * NU);
            let delay = link.next_deadline().expect("still armed") - at;
            assert!(
                (base..=base + JITTER).contains(&delay),
                "timeout {attempt}: delay {delay} outside {base}..={}",
                base + JITTER
            );
        }
        assert_eq!(resends, MAX_RETRIES as usize);
        let (_, sent) = fire(&mut link, false, &mut rng);
        assert!(sent.is_empty(), "the give-up timeout sends nothing");
        assert_eq!(link.next_deadline(), None, "buffer cleared, timer gone");

        // The give-up is per silence, not per link: the next send starts
        // over at the initial delay.
        link.on_send(1_000_000, 2, b"b", &mut rng);
        let delay = link.next_deadline().expect("armed") - 1_000_000;
        assert!((2 * NU..=2 * NU + JITTER).contains(&delay));
    }

    #[test]
    fn a_dark_path_keeps_frames_buffered_and_backing_off() {
        let mut rng = rng();
        let mut link = GoBackN::new(NU);
        link.on_send(0, 1, b"a", &mut rng);
        let (_, sent) = fire(&mut link, true, &mut rng);
        assert!(sent.is_empty(), "nothing crosses a dark path");
        let (_, sent) = fire(&mut link, false, &mut rng);
        assert_eq!(sent, vec![(ENV_DATA, 1, 0)], "resent once the path is lit");
    }

    #[test]
    fn a_cumulative_ack_pops_the_window_and_rearms_the_timer() {
        let mut rng = rng();
        let mut link = GoBackN::new(NU);
        for seq in 1..=3 {
            link.on_send(0, seq, b"x", &mut rng);
        }
        fire(&mut link, false, &mut rng); // one silent timeout: backoff now 4ν
        let stale = link.next_deadline();
        link.on_ack(5_000, 0, &mut rng);
        assert_eq!(link.next_deadline(), stale, "an empty ack changes nothing");

        link.on_ack(5_000, 2, &mut rng);
        let delay = link.next_deadline().expect("seq 3 still in flight") - 5_000;
        assert!(
            (2 * NU..=2 * NU + JITTER).contains(&delay),
            "progress resets the backoff to the initial delay, got {delay}"
        );
        let (_, sent) = fire(&mut link, false, &mut rng);
        assert_eq!(sent, vec![(ENV_DATA, 3, 0)], "only the unacked tail");

        link.on_ack(9_000, 2, &mut rng);
        assert!(
            link.next_deadline().is_some(),
            "a duplicate ack frees nothing"
        );
        link.on_ack(9_000, 3, &mut rng);
        assert_eq!(link.next_deadline(), None, "window empty, timer disarmed");
    }

    #[test]
    fn the_first_frame_of_an_incarnation_resynchronises_the_receiver() {
        let mut link = GoBackN::new(NU);
        assert!(link.on_data(0, 41), "next == 0 accepts any sequence");
        assert!(link.on_data(1, 42), "and expects its successor");
        assert!(!link.on_data(2, 41), "the old frame is now a duplicate");
    }

    #[test]
    fn a_gap_or_duplicate_is_dropped_but_still_owes_an_ack() {
        let mut rng = rng();
        let mut link = GoBackN::new(NU);
        assert!(link.on_data(100, 1));
        assert_eq!(link.next_deadline(), Some(100 + NU), "idle-ack timer");
        let (_, sent) = fire(&mut link, false, &mut rng);
        assert_eq!(sent, vec![(ENV_ACK, 0, 1)], "standalone cumulative ack");
        assert_eq!(link.next_deadline(), None);

        assert!(!link.on_data(5_000, 3), "gap: 2 is missing");
        assert!(!link.on_data(5_001, 1), "duplicate");
        assert_eq!(link.next_deadline(), Some(5_000 + NU), "armed by the gap");
        let (_, sent) = fire(&mut link, false, &mut rng);
        assert_eq!(sent, vec![(ENV_ACK, 0, 1)], "re-acks what was delivered");

        // Outgoing data carries the owed ack instead of a separate frame.
        assert!(link.on_data(8_000, 2));
        assert_eq!(link.on_send(8_100, 1, b"reply", &mut rng), 2);
        let (_, sent) = fire(&mut link, false, &mut rng);
        assert_eq!(sent, vec![(ENV_DATA, 1, 2)], "only the rto is left armed");
    }

    #[test]
    fn a_link_reset_forgets_both_directions() {
        let mut rng = rng();
        let mut link = GoBackN::new(NU);
        link.on_send(0, 7, b"old", &mut rng);
        assert!(link.on_data(0, 20));
        // The host resets a link by replacing its state.
        link = GoBackN::new(NU);
        assert_eq!(link.next_deadline(), None, "no timer survives");
        assert!(link.on_data(10, 1), "the receiver resynchronises");
        link.on_ack(10, 7, &mut rng);
        let (_, sent) = fire(&mut link, false, &mut rng);
        assert_eq!(sent, vec![(ENV_ACK, 0, 1)], "nothing old is resent");
    }
}

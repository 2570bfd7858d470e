//! The cross-shard batch frame: one buffer per shard pair per flush
//! instead of one transport write per message.
//!
//! Layout (all little-endian):
//!
//! ```text
//! [from_shard u32][clock u64][count u32]
//! count × ( [to u32][len u32][envelope bytes] )
//! ```
//!
//! The `clock` is the sending shard's hybrid-clock stamp at seal time —
//! it is `witness`ed by the receiver before any contained envelope is
//! processed, which is what makes cross-shard deliveries causally later
//! than the records the sender took before transmitting. The same bytes
//! ride a ring slot on the in-process transport and a datagram on UDP.
//! [`batch_push`] hands its writer the buffer itself, so an envelope is
//! encoded straight into its batch, once; [`batch_decode`] lends out
//! slices of the received buffer.

use manet_sim::NodeId;

/// Fixed header size in bytes.
pub(crate) const BATCH_HEADER: usize = 16;

/// Start a batch buffer for `from_shard` with a zero clock and count.
pub(crate) fn batch_begin(from_shard: u32) -> Vec<u8> {
    let mut buf = Vec::with_capacity(256);
    buf.extend_from_slice(&from_shard.to_le_bytes());
    buf.extend_from_slice(&0u64.to_le_bytes());
    buf.extend_from_slice(&0u32.to_le_bytes());
    buf
}

/// Append one envelope addressed to `to`, its bytes written in place by
/// `write`.
pub(crate) fn batch_push(buf: &mut Vec<u8>, to: NodeId, write: impl FnOnce(&mut Vec<u8>)) {
    buf.extend_from_slice(&to.0.to_le_bytes());
    let len_at = buf.len();
    buf.extend_from_slice(&0u32.to_le_bytes());
    write(buf);
    let len = (buf.len() - len_at - 4) as u32;
    buf[len_at..len_at + 4].copy_from_slice(&len.to_le_bytes());
    let count = batch_count(buf) + 1;
    set_count(buf, count);
}

/// Move the batch's last entry, which starts at byte `at`, into a fresh
/// batch of its own and return that.
pub(crate) fn batch_split_last(buf: &mut Vec<u8>, at: usize) -> Vec<u8> {
    let from_shard = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]);
    let mut last = batch_begin(from_shard);
    last.extend_from_slice(&buf[at..]);
    set_count(&mut last, 1);
    buf.truncate(at);
    let count = batch_count(buf) - 1;
    set_count(buf, count);
    last
}

/// How many envelopes the batch carries.
pub(crate) fn batch_count(buf: &[u8]) -> u32 {
    u32::from_le_bytes([buf[12], buf[13], buf[14], buf[15]])
}

fn set_count(buf: &mut [u8], count: u32) {
    buf[12..16].copy_from_slice(&count.to_le_bytes());
}

/// Seal the batch with the sender's current clock stamp.
pub(crate) fn batch_seal(buf: &mut [u8], clock: u64) {
    buf[4..12].copy_from_slice(&clock.to_le_bytes());
}

/// A decoded batch: the sending shard, its sealed clock stamp, and the
/// addressed envelopes in send order.
pub(crate) type DecodedBatch<'a> = (u32, u64, Vec<(NodeId, &'a [u8])>);

/// Decode a batch into `(from_shard, clock, envelopes)`; `None` on any
/// malformed framing (short header, truncated entry, count mismatch).
pub(crate) fn batch_decode(buf: &[u8]) -> Option<DecodedBatch<'_>> {
    if buf.len() < BATCH_HEADER {
        return None;
    }
    let from_shard = u32::from_le_bytes(buf[0..4].try_into().ok()?);
    let clock = u64::from_le_bytes(buf[4..12].try_into().ok()?);
    let count = u32::from_le_bytes(buf[12..16].try_into().ok()?) as usize;
    let mut envelopes = Vec::with_capacity(count);
    let mut at = BATCH_HEADER;
    for _ in 0..count {
        if buf.len() < at + 8 {
            return None;
        }
        let to = u32::from_le_bytes(buf[at..at + 4].try_into().ok()?);
        let len = u32::from_le_bytes(buf[at + 4..at + 8].try_into().ok()?) as usize;
        at += 8;
        if buf.len() < at + len {
            return None;
        }
        envelopes.push((NodeId(to), &buf[at..at + len]));
        at += len;
    }
    if at != buf.len() {
        return None;
    }
    Some((from_shard, clock, envelopes))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A writer of the literal bytes `b`.
    fn bytes(b: &[u8]) -> impl FnOnce(&mut Vec<u8>) + '_ {
        move |out| out.extend_from_slice(b)
    }

    #[test]
    fn round_trip_preserves_order_clock_and_payloads() {
        let mut buf = batch_begin(3);
        batch_push(&mut buf, NodeId(7), bytes(b"alpha"));
        batch_push(&mut buf, NodeId(9), bytes(b""));
        batch_push(&mut buf, NodeId(7), bytes(b"bravo"));
        batch_seal(&mut buf, 0xDEAD_BEEF);
        assert_eq!(batch_count(&buf), 3);
        let (from, clock, envs) = batch_decode(&buf).expect("well-formed batch");
        assert_eq!(from, 3);
        assert_eq!(clock, 0xDEAD_BEEF);
        assert_eq!(
            envs,
            vec![
                (NodeId(7), b"alpha".as_slice()),
                (NodeId(9), b"".as_slice()),
                (NodeId(7), b"bravo".as_slice()),
            ]
        );
    }

    #[test]
    fn truncations_never_decode() {
        let mut buf = batch_begin(0);
        batch_push(&mut buf, NodeId(1), bytes(b"payload"));
        batch_seal(&mut buf, 42);
        for cut in 0..buf.len() {
            assert!(batch_decode(&buf[..cut]).is_none(), "cut at {cut}");
        }
        assert!(batch_decode(&buf).is_some());
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut buf = batch_begin(0);
        batch_push(&mut buf, NodeId(1), bytes(b"x"));
        batch_seal(&mut buf, 1);
        buf.push(0);
        assert!(batch_decode(&buf).is_none());
    }

    #[test]
    fn splitting_off_the_last_entry_leaves_two_whole_batches() {
        let mut buf = batch_begin(2);
        batch_push(&mut buf, NodeId(1), bytes(b"first"));
        let at = buf.len();
        batch_push(&mut buf, NodeId(4), bytes(b"second"));
        let mut last = batch_split_last(&mut buf, at);
        batch_seal(&mut buf, 5);
        batch_seal(&mut last, 6);
        let (from, _, envs) = batch_decode(&buf).expect("the kept batch");
        assert_eq!((from, envs), (2, vec![(NodeId(1), b"first".as_slice())]));
        let (from, _, envs) = batch_decode(&last).expect("the split-off batch");
        assert_eq!((from, envs), (2, vec![(NodeId(4), b"second".as_slice())]));
    }
}

//! The envelope format and the transport selector.
//!
//! Inside a shard an envelope is a typed [`Envelope`]: a same-shard
//! delivery hands the value over and never meets the codec. Only a
//! cross-shard envelope becomes bytes, written once straight into its
//! batch and decoded on arrival (see [`crate::shard`]); to the ring or
//! datagram that carries the batch those bytes are opaque.
//!
//! On the wire an envelope wraps one codec frame with routing metadata:
//!
//! ```text
//! ┌──────────┬─────────┬────────────┬────────────┬───────────────┬─────────┐
//! │ from u32 │ kind u8 │ seq u64 LE │ ack u64 LE │ sent_ns u64 LE│ frame … │
//! └──────────┴─────────┴────────────┴────────────┴───────────────┴─────────┘
//! ```
//!
//! `kind` separates protocol data ([`ENV_DATA`]) from the reliable shim's
//! standalone acknowledgments ([`ENV_ACK`], empty frame). `seq` numbers
//! the data frames of one directed link incarnation from 1 (FIFO witness
//! of the live trace; a reconnect restarts at 1), `ack` is the
//! cumulative acknowledgment piggybacked by the reliable shim
//! (0 when the shim is off), and `sent_ns` the sender's monotonic send
//! instant relative to the run's shared origin (what the conformance
//! replay quantizes into simulator delivery delays).

use manet_sim::NodeId;

use crate::codec::{decode_frame, write_frame, CodecError, Reader, WireMsg};

/// What carries cross-shard batches in a live run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransportKind {
    /// In-process bounded rings (the flag value keeps its historical
    /// name).
    Mpsc,
    /// `std::net::UdpSocket` datagrams on 127.0.0.1, one socket per shard.
    Udp,
}

impl TransportKind {
    /// Display name (also the `--transport` flag value).
    pub fn name(self) -> &'static str {
        match self {
            TransportKind::Mpsc => "mpsc",
            TransportKind::Udp => "udp",
        }
    }

    /// Parse a `--transport` flag value.
    pub fn parse(s: &str) -> Result<TransportKind, String> {
        match s {
            "mpsc" => Ok(TransportKind::Mpsc),
            "udp" => Ok(TransportKind::Udp),
            other => Err(format!("unknown transport '{other}'; try mpsc or udp")),
        }
    }
}

/// Envelope kind: a protocol data frame.
pub const ENV_DATA: u8 = 0;
/// Envelope kind: a standalone cumulative acknowledgment (empty frame).
pub const ENV_ACK: u8 = 1;

/// Bytes before an envelope's frame.
const ENVELOPE_HEAD: usize = 4 + 1 + 8 + 8 + 8;

/// Append an envelope's routing metadata to `out`: the one writer of the
/// envelope layout, behind [`encode_envelope`] and [`Envelope::write`].
fn write_head(out: &mut Vec<u8>, from: NodeId, kind: u8, seq: u64, ack: u64, sent_ns: u64) {
    out.extend_from_slice(&from.0.to_le_bytes());
    out.push(kind);
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&ack.to_le_bytes());
    out.extend_from_slice(&sent_ns.to_le_bytes());
}

/// Encode one envelope around an already-encoded frame.
pub fn encode_envelope(
    from: NodeId,
    kind: u8,
    seq: u64,
    ack: u64,
    sent_ns: u64,
    frame: &[u8],
) -> Vec<u8> {
    let mut out = Vec::with_capacity(ENVELOPE_HEAD + frame.len());
    write_head(&mut out, from, kind, seq, ack, sent_ns);
    out.extend_from_slice(frame);
    out
}

/// Split one envelope into `(from, kind, seq, ack, sent_ns, frame)`.
#[allow(clippy::type_complexity)]
pub fn decode_envelope(bytes: &[u8]) -> Result<(NodeId, u8, u64, u64, u64, &[u8]), CodecError> {
    let mut r = Reader::new(bytes);
    let from = NodeId(r.u32()?);
    let kind = r.u8()?;
    let seq = r.u64()?;
    let ack = r.u64()?;
    let sent_ns = r.u64()?;
    let frame = &bytes[bytes.len() - r.remaining()..];
    Ok((from, kind, seq, ack, sent_ns, frame))
}

/// One envelope in its decoded form. Its kind is `msg`: a data envelope
/// ([`ENV_DATA`]) carries its message, a standalone ack ([`ENV_ACK`])
/// none.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct Envelope<M> {
    pub(crate) from: NodeId,
    pub(crate) seq: u64,
    pub(crate) ack: u64,
    pub(crate) sent_ns: u64,
    pub(crate) msg: Option<M>,
}

impl<M: WireMsg> Envelope<M> {
    /// Append the envelope's bytes to `out`, its frame encoded in place.
    pub(crate) fn write(&self, out: &mut Vec<u8>) {
        let kind = if self.msg.is_some() {
            ENV_DATA
        } else {
            ENV_ACK
        };
        write_head(out, self.from, kind, self.seq, self.ack, self.sent_ns);
        if let Some(msg) = &self.msg {
            write_frame(msg, out);
        }
    }

    /// Decode one envelope and its frame. Strict like the codec: an
    /// unknown kind or an ack that carries bytes is an error.
    pub(crate) fn decode(bytes: &[u8]) -> Result<Envelope<M>, CodecError> {
        let (from, kind, seq, ack, sent_ns, frame) = decode_envelope(bytes)?;
        let msg = match kind {
            ENV_DATA => Some(decode_frame(frame)?),
            ENV_ACK if frame.is_empty() => None,
            ENV_ACK => return Err(CodecError::TrailingBytes(frame.len())),
            _ => return Err(CodecError::BadValue("envelope kind")),
        };
        Ok(Envelope {
            from,
            seq,
            ack,
            sent_ns,
            msg,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_round_trips() {
        let env = encode_envelope(NodeId(3), ENV_DATA, 42, 7, 1_000_000, b"frame");
        let (from, kind, seq, ack, sent, frame) = decode_envelope(&env).unwrap();
        assert_eq!(from, NodeId(3));
        assert_eq!(kind, ENV_DATA);
        assert_eq!(seq, 42);
        assert_eq!(ack, 7);
        assert_eq!(sent, 1_000_000);
        assert_eq!(frame, b"frame");
        assert!(decode_envelope(&env[..10]).is_err());
        let ack_env = encode_envelope(NodeId(1), ENV_ACK, 0, 9, 5, b"");
        let (_, kind, _, ack, _, frame) = decode_envelope(&ack_env).unwrap();
        assert_eq!(kind, ENV_ACK);
        assert_eq!(ack, 9);
        assert!(frame.is_empty());
    }

    #[test]
    fn a_typed_envelope_writes_the_bytes_encode_envelope_does() {
        use crate::codec::encode_frame;
        use local_mutex::A2Msg;

        let msg = A2Msg::Fork { flag: true, gen: 5 };
        let data = Envelope {
            from: NodeId(3),
            seq: 42,
            ack: 7,
            sent_ns: 1_000_000,
            msg: Some(msg),
        };
        let ack = Envelope::<A2Msg> {
            msg: None,
            ..data.clone()
        };
        for (env, kind, frame) in [
            (&data, ENV_DATA, encode_frame(&msg)),
            (&ack, ENV_ACK, vec![]),
        ] {
            let mut out = vec![0xAA];
            env.write(&mut out);
            assert_eq!(
                out[1..],
                encode_envelope(NodeId(3), kind, 42, 7, 1_000_000, &frame)
            );
            assert_eq!(Envelope::decode(&out[1..]).as_ref(), Ok(env));
        }

        let odd_kind = encode_envelope(NodeId(3), 9, 1, 0, 0, b"");
        let stuffed_ack = encode_envelope(NodeId(3), ENV_ACK, 0, 1, 0, b"x");
        let bad_frame = encode_envelope(NodeId(3), ENV_DATA, 1, 0, 0, b"junk");
        for bytes in [odd_kind, stuffed_ack, bad_frame] {
            assert!(Envelope::<A2Msg>::decode(&bytes).is_err());
        }
    }
}

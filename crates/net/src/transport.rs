//! The envelope format and the transport selector.
//!
//! Envelopes are opaque bytes to whatever carries them — a same-shard
//! queue, an in-process ring or a UDP datagram (see [`crate::shard`]).
//!
//! The envelope wraps one codec frame with routing metadata:
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

use crate::codec::{CodecError, Reader};

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

/// Encode one envelope around an already-encoded frame.
pub fn encode_envelope(
    from: NodeId,
    kind: u8,
    seq: u64,
    ack: u64,
    sent_ns: u64,
    frame: &[u8],
) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + 1 + 8 + 8 + 8 + frame.len());
    out.extend_from_slice(&from.0.to_le_bytes());
    out.push(kind);
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&ack.to_le_bytes());
    out.extend_from_slice(&sent_ns.to_le_bytes());
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
}

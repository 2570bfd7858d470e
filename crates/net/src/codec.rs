//! The hand-rolled wire codec.
//!
//! Every protocol message that crosses a live transport travels in one
//! *frame*:
//!
//! ```text
//! ┌────────────┬─────────┬────────┬────────────┬──────────────┐
//! │ u32 LE len │ version │ alg id │ payload …  │ u64 LE FNV   │
//! └────────────┴─────────┴────────┴────────────┴──────────────┘
//!               └──────── checksummed region ──┘
//! ```
//!
//! `len` counts everything after itself (version byte through checksum).
//! The version byte rejects frames from incompatible builds, the algorithm
//! id rejects cross-algorithm confusion (an `A2Msg` frame handed to an A1
//! node), and the FNV-1a checksum (the same [`Fnv`] the schedule explorer
//! uses for state digests) rejects truncation and bit flips. Decoding is
//! strict: trailing bytes after the payload are an error, not padding.
//!
//! There are **no panic paths**: [`decode_frame`] returns `Err` for every
//! malformed input, which the robustness suite exercises with seeded
//! corruption (see `tests/codec_robustness.rs`).

use std::hash::Hasher;

use baselines::CmMsg;
use doorway::{DoorwayMsg, DoorwaySet, DoorwayTag};
use local_mutex::{A1Msg, A2Msg, RecolorMsg};
use manet_sim::Fnv;

/// Wire-format version; bump on any frame-layout change.
pub const WIRE_VERSION: u8 = 1;

/// Why a frame failed to decode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before the announced frame did.
    Truncated,
    /// The length prefix disagrees with the buffer (short or trailing
    /// garbage after the frame).
    BadLength {
        /// Bytes the prefix announced.
        announced: usize,
        /// Bytes actually present after the prefix.
        present: usize,
    },
    /// Unknown wire-format version.
    BadVersion(u8),
    /// The frame carries another algorithm's messages.
    BadAlg {
        /// The algorithm id this decoder expected.
        expected: u8,
        /// The algorithm id found in the frame.
        got: u8,
    },
    /// The checksum did not match (bit flip or torn write).
    BadChecksum,
    /// An enum discriminant or field value was out of range.
    BadValue(&'static str),
    /// The payload decoded but left unconsumed bytes.
    TrailingBytes(usize),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "frame truncated"),
            CodecError::BadLength { announced, present } => {
                write!(f, "length prefix says {announced} bytes, found {present}")
            }
            CodecError::BadVersion(v) => write!(f, "unknown wire version {v}"),
            CodecError::BadAlg { expected, got } => {
                write!(f, "frame for algorithm id {got}, expected {expected}")
            }
            CodecError::BadChecksum => write!(f, "checksum mismatch"),
            CodecError::BadValue(what) => write!(f, "invalid {what}"),
            CodecError::TrailingBytes(n) => write!(f, "{n} trailing payload bytes"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Bounded cursor over a payload; every read checks remaining length.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wrap `buf` for reading from the start.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Read a little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64, CodecError> {
        Ok(self.u64()? as i64)
    }

    /// Read a strict boolean (`0` or `1`; anything else is an error, so a
    /// bit flip in a flag byte cannot decode).
    pub fn bool(&mut self) -> Result<bool, CodecError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError::BadValue("bool")),
        }
    }
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// A message type with a wire encoding — implemented for every message the
/// live runtime can carry ([`A1Msg`], [`A2Msg`], [`CmMsg`]).
pub trait WireMsg: Clone + std::fmt::Debug + Sized {
    /// Domain separator baked into every frame of this message family.
    const ALG_ID: u8;

    /// Append the payload bytes (excluding version/alg/checksum).
    fn encode_payload(&self, out: &mut Vec<u8>);

    /// Decode the payload previously written by [`WireMsg::encode_payload`].
    fn decode_payload(r: &mut Reader<'_>) -> Result<Self, CodecError>;
}

/// Encode one message as a complete length-prefixed frame.
pub fn encode_frame<M: WireMsg>(msg: &M) -> Vec<u8> {
    let mut out = Vec::with_capacity(32);
    write_frame(msg, &mut out);
    out
}

/// Append one message's frame to `out` in place: the one writer of the
/// frame layout, behind [`encode_frame`] and the cross-shard batches.
pub(crate) fn write_frame<M: WireMsg>(msg: &M, out: &mut Vec<u8>) {
    let len_at = out.len();
    put_u32(out, 0);
    let body_at = out.len();
    out.extend_from_slice(&[WIRE_VERSION, M::ALG_ID]);
    msg.encode_payload(out);
    let mut h = Fnv::new();
    h.write(&out[body_at..]);
    let len = (out.len() - body_at + 8) as u32;
    out[len_at..body_at].copy_from_slice(&len.to_le_bytes());
    put_u64(out, h.finish());
}

/// Decode one complete frame. Strict: the buffer must contain exactly one
/// frame, the checksum must match, and the payload must consume fully.
pub fn decode_frame<M: WireMsg>(bytes: &[u8]) -> Result<M, CodecError> {
    if bytes.len() < 4 {
        return Err(CodecError::Truncated);
    }
    let announced = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) as usize;
    let rest = &bytes[4..];
    if rest.len() != announced {
        return Err(CodecError::BadLength {
            announced,
            present: rest.len(),
        });
    }
    // version + alg + checksum is the smallest legal frame.
    if announced < 2 + 8 {
        return Err(CodecError::Truncated);
    }
    let (body, sum) = rest.split_at(announced - 8);
    let mut h = Fnv::new();
    h.write(body);
    let expect = u64::from_le_bytes([
        sum[0], sum[1], sum[2], sum[3], sum[4], sum[5], sum[6], sum[7],
    ]);
    if h.finish() != expect {
        return Err(CodecError::BadChecksum);
    }
    let mut r = Reader::new(body);
    let version = r.u8()?;
    if version != WIRE_VERSION {
        return Err(CodecError::BadVersion(version));
    }
    let alg = r.u8()?;
    if alg != M::ALG_ID {
        return Err(CodecError::BadAlg {
            expected: M::ALG_ID,
            got: alg,
        });
    }
    let msg = M::decode_payload(&mut r)?;
    if r.remaining() != 0 {
        return Err(CodecError::TrailingBytes(r.remaining()));
    }
    Ok(msg)
}

fn encode_set(set: DoorwaySet, out: &mut Vec<u8>) {
    let mut mask = 0u8;
    for tag in set.iter() {
        mask |= 1 << tag.index();
    }
    out.push(mask);
}

fn decode_set(r: &mut Reader<'_>) -> Result<DoorwaySet, CodecError> {
    let mask = r.u8()?;
    let mut set = DoorwaySet::EMPTY;
    for i in 0..8u8 {
        if mask & (1 << i) != 0 {
            set.insert(DoorwayTag::new(i));
        }
    }
    Ok(set)
}

fn decode_tag(r: &mut Reader<'_>) -> Result<DoorwayTag, CodecError> {
    let i = r.u8()?;
    if i >= 8 {
        return Err(CodecError::BadValue("doorway tag"));
    }
    Ok(DoorwayTag::new(i))
}

fn encode_doorway(msg: &DoorwayMsg, out: &mut Vec<u8>) {
    match *msg {
        DoorwayMsg::Cross(t) => {
            out.push(0);
            out.push(t.index());
        }
        DoorwayMsg::Exit(t) => {
            out.push(1);
            out.push(t.index());
        }
        DoorwayMsg::ExitAll => out.push(2),
        DoorwayMsg::Status(s) => {
            out.push(3);
            encode_set(s, out);
        }
    }
}

fn decode_doorway(r: &mut Reader<'_>) -> Result<DoorwayMsg, CodecError> {
    match r.u8()? {
        0 => Ok(DoorwayMsg::Cross(decode_tag(r)?)),
        1 => Ok(DoorwayMsg::Exit(decode_tag(r)?)),
        2 => Ok(DoorwayMsg::ExitAll),
        3 => Ok(DoorwayMsg::Status(decode_set(r)?)),
        _ => Err(CodecError::BadValue("doorway discriminant")),
    }
}

fn encode_recolor(msg: &RecolorMsg, out: &mut Vec<u8>) {
    match msg {
        RecolorMsg::Graph { edges, finished } => {
            out.push(0);
            put_u32(out, edges.len() as u32);
            for &(a, b) in edges {
                put_u32(out, a);
                put_u32(out, b);
            }
            out.push(*finished as u8);
        }
        RecolorMsg::TempColor(c) => {
            out.push(1);
            put_u64(out, *c);
        }
        RecolorMsg::Candidate { value, decided } => {
            out.push(2);
            put_u64(out, *value);
            out.push(*decided as u8);
        }
        RecolorMsg::Nack => out.push(3),
    }
}

fn decode_recolor(r: &mut Reader<'_>) -> Result<RecolorMsg, CodecError> {
    match r.u8()? {
        0 => {
            let count = r.u32()? as usize;
            // Each edge is 8 bytes; reject counts the buffer cannot hold
            // before allocating (a flipped length bit must not OOM).
            if count > r.remaining() / 8 {
                return Err(CodecError::BadValue("edge count"));
            }
            let mut edges = Vec::with_capacity(count);
            for _ in 0..count {
                let a = r.u32()?;
                let b = r.u32()?;
                edges.push((a, b));
            }
            let finished = r.bool()?;
            Ok(RecolorMsg::Graph { edges, finished })
        }
        1 => Ok(RecolorMsg::TempColor(r.u64()?)),
        2 => Ok(RecolorMsg::Candidate {
            value: r.u64()?,
            decided: r.bool()?,
        }),
        3 => Ok(RecolorMsg::Nack),
        _ => Err(CodecError::BadValue("recolor discriminant")),
    }
}

impl WireMsg for A1Msg {
    const ALG_ID: u8 = 1;

    fn encode_payload(&self, out: &mut Vec<u8>) {
        match self {
            A1Msg::Doorway(d) => {
                out.push(0);
                encode_doorway(d, out);
            }
            A1Msg::Req => out.push(1),
            A1Msg::Fork { flag, gen } => {
                out.push(2);
                out.push(*flag as u8);
                put_u64(out, *gen);
            }
            A1Msg::UpdateColor(c) => {
                out.push(3);
                put_u64(out, *c as u64);
            }
            A1Msg::Hello { color, behind } => {
                out.push(4);
                put_u64(out, *color as u64);
                encode_set(*behind, out);
            }
            A1Msg::Recolor(m) => {
                out.push(5);
                encode_recolor(m, out);
            }
        }
    }

    fn decode_payload(r: &mut Reader<'_>) -> Result<A1Msg, CodecError> {
        match r.u8()? {
            0 => Ok(A1Msg::Doorway(decode_doorway(r)?)),
            1 => Ok(A1Msg::Req),
            2 => Ok(A1Msg::Fork {
                flag: r.bool()?,
                gen: r.u64()?,
            }),
            3 => Ok(A1Msg::UpdateColor(r.i64()?)),
            4 => Ok(A1Msg::Hello {
                color: r.i64()?,
                behind: decode_set(r)?,
            }),
            5 => Ok(A1Msg::Recolor(decode_recolor(r)?)),
            _ => Err(CodecError::BadValue("a1 discriminant")),
        }
    }
}

impl WireMsg for A2Msg {
    const ALG_ID: u8 = 2;

    fn encode_payload(&self, out: &mut Vec<u8>) {
        match self {
            A2Msg::Req => out.push(0),
            A2Msg::Fork { flag, gen } => {
                out.push(1);
                out.push(*flag as u8);
                put_u64(out, *gen);
            }
            A2Msg::Notification => out.push(2),
            A2Msg::Switch => out.push(3),
        }
    }

    fn decode_payload(r: &mut Reader<'_>) -> Result<A2Msg, CodecError> {
        match r.u8()? {
            0 => Ok(A2Msg::Req),
            1 => Ok(A2Msg::Fork {
                flag: r.bool()?,
                gen: r.u64()?,
            }),
            2 => Ok(A2Msg::Notification),
            3 => Ok(A2Msg::Switch),
            _ => Err(CodecError::BadValue("a2 discriminant")),
        }
    }
}

impl WireMsg for CmMsg {
    const ALG_ID: u8 = 3;

    fn encode_payload(&self, out: &mut Vec<u8>) {
        match self {
            CmMsg::ReqToken => out.push(0),
            CmMsg::Fork => out.push(1),
        }
    }

    fn decode_payload(r: &mut Reader<'_>) -> Result<CmMsg, CodecError> {
        match r.u8()? {
            0 => Ok(CmMsg::ReqToken),
            1 => Ok(CmMsg::Fork),
            _ => Err(CodecError::BadValue("cm discriminant")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<M: WireMsg + PartialEq>(msg: M) {
        let frame = encode_frame(&msg);
        assert_eq!(decode_frame::<M>(&frame).unwrap(), msg);
    }

    #[test]
    fn representative_round_trips() {
        round_trip(A1Msg::Req);
        round_trip(A1Msg::Hello {
            color: -3,
            behind: {
                let mut s = DoorwaySet::EMPTY;
                s.insert(DoorwayTag::new(2));
                s
            },
        });
        round_trip(A1Msg::Recolor(RecolorMsg::Graph {
            edges: vec![(0, 1), (7, 9)],
            finished: true,
        }));
        round_trip(A2Msg::Fork { flag: true, gen: 9 });
        round_trip(CmMsg::ReqToken);
    }

    #[test]
    fn cross_algorithm_frames_are_rejected() {
        let frame = encode_frame(&A2Msg::Req);
        assert_eq!(
            decode_frame::<A1Msg>(&frame),
            Err(CodecError::BadAlg {
                expected: 1,
                got: 2
            })
        );
    }

    #[test]
    fn corruption_is_rejected_not_panicked() {
        let frame = encode_frame(&A1Msg::Fork { flag: true, gen: 7 });
        // Truncation at every prefix length.
        for cut in 0..frame.len() {
            assert!(decode_frame::<A1Msg>(&frame[..cut]).is_err(), "cut {cut}");
        }
        // Any single bit flip must fail (checksum or stricter field checks).
        for byte in 0..frame.len() {
            for bit in 0..8 {
                let mut bad = frame.clone();
                bad[byte] ^= 1 << bit;
                assert!(
                    decode_frame::<A1Msg>(&bad).is_err(),
                    "flip byte {byte} bit {bit} decoded"
                );
            }
        }
    }

    #[test]
    fn oversized_edge_count_is_rejected_without_allocating() {
        // A Graph frame whose length field claims 2^31 edges.
        let mut body = vec![WIRE_VERSION, A1Msg::ALG_ID, 5, 0];
        body.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut h = Fnv::new();
        h.write(&body);
        let mut frame = Vec::new();
        frame.extend_from_slice(&((body.len() + 8) as u32).to_le_bytes());
        frame.extend_from_slice(&body);
        frame.extend_from_slice(&h.finish().to_le_bytes());
        assert_eq!(
            decode_frame::<A1Msg>(&frame),
            Err(CodecError::BadValue("edge count"))
        );
    }
}

//! The live trace merge's memory slack, read off the process's own peak
//! RSS.
//!
//! `merge_stamped` drains its input streams back to front into an output
//! sized exactly to the trace, shrinking each stream whenever a 32nd of
//! its capacity is free, so a merge never holds much more than the
//! records themselves. This file holds a single test so that it runs in a
//! process of its own and `VmHWM` sees no other test's allocations. It
//! reads `/proc` and leans on glibc returning a shrunk large allocation's
//! tail pages to the kernel, so it only exists on Linux with glibc.

#![cfg(all(target_os = "linux", target_env = "gnu"))]

use lme_net::{merge_stamped, LiveEventKind, StampedRecord};
use manet_sim::{DiningState, NodeId};

/// Records per stream: 2¹⁸, so the two streams hold 20 MiB of records.
const PER_STREAM: u64 = 256 * 1024;

/// A `kB` field of `/proc/self/status`, in bytes.
fn status_bytes(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .unwrap_or_else(|| panic!("{field} missing from /proc/self/status"));
    let kb: u64 = line
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .expect("a kB count");
    kb * 1024
}

#[test]
fn merging_two_streams_grows_peak_rss_by_less_than_a_sixteenth_of_them() {
    // Stream s holds the stamps ≡ s (mod 2), so the merge alternates
    // between the two and both drain together; collecting an exact-size
    // iterator allocates exactly the records' bytes.
    let streams: Vec<Vec<StampedRecord>> = (0..2u64)
        .map(|s| {
            (0..PER_STREAM)
                .map(|i| StampedRecord {
                    clock: 2 * i + s,
                    at_ns: i,
                    kind: LiveEventKind::State {
                        node: NodeId(s as u32),
                        old: DiningState::Thinking,
                        new: DiningState::Hungry,
                        session: i,
                    },
                })
                .collect()
        })
        .collect();
    let bytes: u64 = streams
        .iter()
        .map(|s| (s.capacity() * std::mem::size_of::<StampedRecord>()) as u64)
        .sum();
    // Reset the peak to the current RSS where the kernel allows it; the
    // streams are the largest thing this process has allocated, so the
    // peak already sits at them otherwise.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
    let before = status_bytes("VmHWM");
    let merged = merge_stamped(streams);
    let growth = status_bytes("VmHWM").saturating_sub(before);
    assert_eq!(merged.len() as u64, 2 * PER_STREAM, "every record kept");
    assert!(
        merged.windows(2).all(|w| w[0].order + 1 == w[1].order),
        "a dense ticket order"
    );
    assert!(
        growth < bytes / 16,
        "peak RSS grew {growth} B merging {bytes} B of records (limit {} B)",
        bytes / 16
    );
}

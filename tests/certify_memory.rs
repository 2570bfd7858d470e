//! Regression gate for the checker's memory: the peak of live heap bytes
//! during one whole `certify` call.
//!
//! A counting `#[global_allocator]` (std only) keeps the calling thread's
//! live heap bytes and their high-water mark. With `jobs: 1` every run of
//! the search happens on that thread, in a fixed order, so the peak is
//! deterministic and the bound is exact, not a timing threshold.
//!
//! What the search holds at once is one wave of reduced runs (branch
//! choices and first-eat times; no trace, no delivery log), its frontier
//! of prefixes, and a seen-set of state digests that grows with the
//! digests recorded. Measured with this file on A2, `line:4`:
//!
//! | search | peak live heap, bytes |
//! |---|---|
//! | fixed 2^20-digest table, a full verdict (trace included) per run of a wave | 18 736 636 |
//! | growing seen-set, a wave keeps only what its merge reads | 451 291 |
//!
//! The first row's table alone is 16 MiB, for the 1 510 digests the
//! search records.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use harness::AlgKind;
use lme_check::{certify, CertifyConfig, CheckSpec};

/// The bound the peak must stay under.
const MAX_PEAK_BYTES: usize = 2 << 20;

thread_local! {
    /// Live heap bytes allocated minus freed by this thread, and their
    /// high-water mark. Const-initialised and without a destructor, so
    /// the allocator can touch them without allocating.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn track(delta: isize) {
    // `try_with`: never panic inside the allocator, even on a thread
    // that is shutting down.
    let _ = LIVE.try_with(|live| {
        let now = live.get() + delta;
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

/// The system allocator, tracking live bytes per thread so allocations of
/// the test harness's own threads are not counted.
struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the only addition is a
// thread-local counter update, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        track(layout.size() as isize);
        // SAFETY: forwarded with the caller's layout (see the impl).
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        track(layout.size() as isize);
        // SAFETY: forwarded with the caller's layout (see the impl).
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        track(new_size as isize - layout.size() as isize);
        // SAFETY: `ptr` and `layout` come from this allocator, i.e. from
        // `System` (see the impl).
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(-(layout.size() as isize));
        // SAFETY: `ptr` and `layout` come from this allocator, i.e. from
        // `System` (see the impl).
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Peak live heap bytes on this thread during `f`, above the live bytes
/// when it started.
fn peak_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(base));
    let out = f();
    let peak = PEAK.with(Cell::get) - base;
    (out, peak.max(0) as usize)
}

#[test]
fn certify_peak_heap_stays_small() {
    // The instance of the CI canary `lme check --certify --alg a2 --topo line:4`.
    let mut spec = CheckSpec::new(AlgKind::A2, "line:4", 4, vec![(0, 1), (1, 2), (2, 3)]);
    spec.horizon = 40_000;
    let cfg = CertifyConfig {
        jobs: 1,
        ..CertifyConfig::default()
    };
    let (cert, peak) = peak_during(|| certify(&spec, &cfg));
    println!("certify A2 line:4: peak live heap {peak} bytes");
    assert!(cert.holds(), "{cert:?}");
    assert_eq!(
        (cert.schedules, cert.dedup_prunes, cert.worst_rt),
        (1511, 9363, 52)
    );
    assert!(
        peak < MAX_PEAK_BYTES,
        "certify peaked at {peak} live heap bytes, over the {MAX_PEAK_BYTES}-byte bound"
    );
}

//! Counting global allocator: calls, bytes, live bytes and the live
//! high-water mark, read as snapshots around whatever the harness wants
//! to attribute (a timed pass, one traced stage).
//!
//! The harness is single-threaded, so the counters are updated with a
//! relaxed load + store rather than a locked read-modify-write: on this
//! box a `lock xadd` per counter would add several percent to the
//! smallest requests. With a second allocating thread the counts would
//! merely be inexact, never unsound.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

pub struct Counting;

static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);
static EXEMPT: AtomicBool = AtomicBool::new(false);

#[inline]
fn grow(bytes: u64) {
    CALLS.store(CALLS.load(Relaxed) + 1, Relaxed);
    BYTES.store(BYTES.load(Relaxed) + bytes, Relaxed);
    let live = LIVE.load(Relaxed) + bytes;
    LIVE.store(live, Relaxed);
    if live > PEAK.load(Relaxed) {
        PEAK.store(live, Relaxed);
    }
}

#[inline]
fn shrink(bytes: u64) {
    LIVE.store(LIVE.load(Relaxed).saturating_sub(bytes), Relaxed);
}

// SAFETY: every call is passed through to `System` unchanged; the
// counters are a side effect that never touches the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if !EXEMPT.load(Relaxed) {
            grow(layout.size() as u64);
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if !EXEMPT.load(Relaxed) {
            grow(layout.size() as u64);
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size() as u64);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        shrink(layout.size() as u64);
        grow(new_size as u64);
        System.realloc(ptr, layout, new_size)
    }
}

/// Counter values at one instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct Snapshot {
    /// `alloc` + `alloc_zeroed` + `realloc` calls so far.
    pub calls: u64,
    /// Bytes requested so far.
    pub bytes: u64,
    /// High-water mark of live bytes so far.
    pub peak: u64,
}

pub fn snapshot() -> Snapshot {
    Snapshot {
        calls: CALLS.load(Relaxed),
        bytes: BYTES.load(Relaxed),
        peak: PEAK.load(Relaxed),
    }
}

/// Builds a value for the harness's own bookkeeping (latency samples,
/// spans, the calibration kernel) that the counters never see, so
/// `peak_heap_mib` and `allocs_per_request` describe the system and not
/// the ruler. Leaked on purpose: an uncounted allocation must never
/// reach the counted `dealloc`; for the same reason the value must not
/// grow after it is built.
pub fn uncounted<T>(make: impl FnOnce() -> T) -> &'static mut T {
    EXEMPT.store(true, Relaxed);
    let value = Box::new(make());
    EXEMPT.store(false, Relaxed);
    Box::leak(value)
}

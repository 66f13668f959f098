//! A counting global allocator behind an on/off gate. It counts only
//! during the traced interval, so the untraced run — the one the
//! end-to-end metrics come from — pays one relaxed load per allocation
//! and nothing else.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call forwards unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter touches no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller's obligations are passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[inline]
fn note() {
    // Relaxed: a statistic, it publishes nothing.
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

/// Opens or closes the gate.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Allocations (incl. reallocations) seen while the gate was open.
pub fn allocations() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Pins glibc malloc's mmap and trim thresholds for the whole process.
///
/// Left alone, glibc adapts both at run time, and a run of
/// `wire_stream_large` then lands in one of two regimes for its 1 MiB
/// buffers — recycled from the heap, or mmap + page faults + munmap per
/// message (1.8 against 4.9 ms per op on the host this was written on) —
/// decided by heap layout at start-up, e.g. by whether the span recorder
/// had been allocated. Pinned, every run measures the recycled regime:
/// the warmed-up state, the same for every commit measured.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn pin_malloc_thresholds() {
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    // SAFETY: `mallopt` takes two plain integers and only updates
    // malloc's own tunables; it is called once, before any other thread
    // exists. 32 MiB is the largest mmap threshold glibc accepts.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 32 << 20);
        mallopt(M_TRIM_THRESHOLD, 1 << 30);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn pin_malloc_thresholds() {}

#[cfg(test)]
mod tests {
    use super::*;

    // The test binary installs the same allocator (see main.rs), and this
    // is the only test that opens the gate. Other tests allocate
    // concurrently, so the closed-gate check uses a window in which the
    // gate was never open; the open-gate check is a lower bound.
    #[test]
    fn gate_controls_counting() {
        set_counting(false);
        let before = allocations();
        let v: Vec<u64> = std::hint::black_box(Vec::with_capacity(32));
        drop(v);
        assert_eq!(allocations(), before, "closed gate counts nothing");

        set_counting(true);
        let v: Vec<u64> = std::hint::black_box(Vec::with_capacity(32));
        let mut s = std::hint::black_box(String::with_capacity(8));
        s.push_str("longer than eight bytes"); // realloc
        set_counting(false);
        assert!(
            allocations() >= before + 3,
            "open gate counts alloc and realloc"
        );
        drop((v, s));

        let after = allocations();
        drop(std::hint::black_box(vec![0u8; 64]));
        assert_eq!(allocations(), after, "closed again");
    }
}

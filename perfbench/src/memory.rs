//! Peak live heap of this process, counted at the global allocator.
//!
//! The resident set (`VmHWM`) of the same run varies by 50% from process
//! to process: every parallel phase spawns fresh worker threads (and the
//! service a thread per connection), and how many malloc arenas those
//! threads happen to create decides how much freed memory stays
//! resident. Capping the arena count removes the variation but slows the
//! allocation-heavy simulators severalfold, so it cannot be used while
//! timing. The benchmark therefore gates memory on the live heap, which
//! depends only on what the program allocates, and reports `VmHWM` in
//! the host record for information.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Blocks below this size are not counted. The simulators allocate small
/// vectors every simulated cycle; counting those through a shared atomic
/// would slow them measurably, while the memory that matters (traces,
/// counter series, cache models, corpora) lives in larger blocks.
pub const COUNTED_BYTES: usize = 4096;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, with live and peak bytes of counted blocks.
pub struct Counting;

fn grow(bytes: usize) {
    if bytes >= COUNTED_BYTES {
        let now = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
        PEAK.fetch_max(now, Ordering::Relaxed);
    }
}

fn shrink(bytes: usize) {
    if bytes >= COUNTED_BYTES {
        LIVE.fetch_sub(bytes, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and returns its result; the counters are plain statistics
// that publish no memory, so `Relaxed` suffices.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller passes a block this allocator returned.
        unsafe { System.dealloc(ptr, layout) };
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            shrink(layout.size());
            grow(new_size);
        }
        new
    }
}

/// Peak live heap in counted blocks since the process started, in MiB.
pub fn peak_heap_mb() -> f64 {
    PEAK.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
}

/// Peak resident set of the process (`VmHWM`), in MiB.
pub fn vm_hwm_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_large_blocks() {
        let before = LIVE.load(Ordering::Relaxed);
        let big = vec![1u8; 8 << 20];
        assert!(LIVE.load(Ordering::Relaxed) >= before + big.len());
        assert!(peak_heap_mb() >= 8.0);
    }
}

//! A counting global allocator that attributes every allocation to the
//! section the client is in.
//!
//! The client sets the tag around every section it times (see
//! [`crate::meter`]). The tag is process-wide, so threads the platform
//! spawns inside a call (the dataflow engines run steps on scoped
//! threads) are attributed to that call. Allocations made with no tag
//! land in [`Kind::Untagged`]; the coverage self-check requires that
//! bucket to stay empty during a timed phase.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

use crate::meter::{Kind, KINDS};

pub struct Counting;

static COUNTS: [AtomicU64; KINDS] = [const { AtomicU64::new(0) }; KINDS];
static BYTES: [AtomicU64; KINDS] = [const { AtomicU64::new(0) }; KINDS];
static TAG: AtomicU8 = AtomicU8::new(Kind::Untagged as u8);
/// Bytes currently allocated, whatever the tag.
static LIVE: AtomicU64 = AtomicU64::new(0);

#[inline]
fn count(size: usize) {
    let tag = usize::from(TAG.load(Ordering::Relaxed)).min(KINDS - 1);
    COUNTS[tag].fetch_add(1, Ordering::Relaxed);
    BYTES[tag].fetch_add(size as u64, Ordering::Relaxed);
    LIVE.fetch_add(size as u64, Ordering::Relaxed);
}

// SAFETY: every method delegates to `System` with the caller's
// arguments unchanged; the tag and counters are plain atomics, so
// counting never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

/// Attributes the allocations that follow to `kind`.
pub fn set_tag(kind: Kind) {
    TAG.store(kind as u8, Ordering::Relaxed);
}

/// Heap bytes `v` owns, measured as the bytes a clone of it allocates.
/// Call it while no other thread allocates.
pub fn heap_bytes_of<T: Clone>(v: &T) -> u64 {
    let before = LIVE.load(Ordering::Relaxed);
    let copy = v.clone();
    let bytes = LIVE.load(Ordering::Relaxed).wrapping_sub(before);
    drop(copy);
    bytes
}

/// A snapshot of the per-kind allocation counters.
#[derive(Debug, Clone, Copy)]
pub struct AllocSnapshot {
    pub counts: [u64; KINDS],
    pub bytes: [u64; KINDS],
}

impl AllocSnapshot {
    pub fn now() -> Self {
        AllocSnapshot {
            counts: std::array::from_fn(|i| COUNTS[i].load(Ordering::Relaxed)),
            bytes: std::array::from_fn(|i| BYTES[i].load(Ordering::Relaxed)),
        }
    }

    /// Counters accumulated since `earlier`.
    pub fn since(&self, earlier: &AllocSnapshot) -> AllocSnapshot {
        AllocSnapshot {
            counts: std::array::from_fn(|i| self.counts[i] - earlier.counts[i]),
            bytes: std::array::from_fn(|i| self.bytes[i] - earlier.bytes[i]),
        }
    }

    pub fn count(&self, kind: Kind) -> u64 {
        self.counts[kind as usize]
    }
}

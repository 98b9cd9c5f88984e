//! A scalar in-place upsert on a WAL-backed store allocates nothing on the
//! calling thread once the store has warmed up: the index probe, the
//! in-place write and the WAL append (the record encoded straight into the
//! log's staging buffer) all run on memory that already exists.
//!
//! The counting allocator counts only while the calling thread has switched
//! counting on around an upsert, so the group commits its durability waits
//! lead and the device threads' allocations never reach the total.

use faster_core::{CountStore, FasterKv, WalConfig};
use faster_integration_tests::fault_harness::harness_cfg;
use faster_storage::MemDevice;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        }
    });
}

struct CountingAlloc;

// SAFETY: every call is forwarded unchanged to `System`; the bookkeeping
// touches only const-initialised thread-locals, which never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f`, returning its result and the allocations it made on this thread.
fn allocs_in<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCS.with(Cell::get);
    COUNTING.with(|on| on.set(true));
    let r = f();
    COUNTING.with(|on| on.set(false));
    (r, ALLOCS.with(Cell::get) - before)
}

#[test]
fn in_place_upsert_allocates_nothing_after_warm_up() {
    const WARM_UP_GROUPS: u64 = 10;
    const GROUPS: u64 = 1_000;
    // Default (1 MiB) WAL segments: the run fits in a handful, so the log's
    // list of segment starts never grows past its first allocation.
    let cfg = harness_cfg().with_wal(WalConfig::default());
    let store: FasterKv<u64, u64, CountStore> =
        FasterKv::new_with_wal(cfg, CountStore, MemDevice::new(2), MemDevice::new(1));
    let session = store.start_session();
    for key in 0..64u64 {
        session.upsert(&key, &0).expect("writable store");
    }
    let in_place_before = store.metrics().sessions.totals.in_place;
    let mut counted = 0;
    for group in 0..WARM_UP_GROUPS + GROUPS {
        for key in 0..64u64 {
            let (upserted, allocs) = allocs_in(|| session.upsert(&key, &(group * 64 + key)));
            upserted.expect("writable store");
            if group >= WARM_UP_GROUPS {
                counted += allocs;
            }
        }
        session.wait_wal_durable().expect("commit on a healthy device");
    }
    let in_place = store.metrics().sessions.totals.in_place - in_place_before;
    assert_eq!(in_place, (WARM_UP_GROUPS + GROUPS) * 64, "every measured upsert ran in place");
    assert_eq!(counted, 0, "in-place upserts allocated {counted} times over 64 000 calls");
}

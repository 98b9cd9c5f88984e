//! An append allocates nothing on the appender's thread once the log has
//! warmed up: the record is encoded straight into the staging buffer, and
//! the commit thread swaps in a reused buffer when it takes a group.
//!
//! The counting allocator counts only while the calling thread has switched
//! counting on, so the commit thread's and the device threads' allocations
//! never reach the total.

use faster_storage::MemDevice;
use faster_wal::{Wal, WalConfig};
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
fn append_with_allocates_nothing_after_warm_up() {
    const WARM_UP_GROUPS: u64 = 10;
    let wal = Wal::new(MemDevice::new(1), WalConfig::default());
    let mut counted = 0;
    for group in 0..WARM_UP_GROUPS + 1_000 {
        let mut lsn = 0;
        for i in 0..64u64 {
            let seq = group * 64 + i;
            let (appended, allocs) = allocs_in(|| {
                wal.append_with(17, |out| out[1..9].copy_from_slice(&seq.to_le_bytes()))
            });
            lsn = appended.expect("append to a healthy log");
            if group >= WARM_UP_GROUPS {
                counted += allocs;
            }
        }
        wal.wait_durable(lsn).expect("commit on a healthy device");
    }
    assert_eq!(counted, 0, "append_with allocated {counted} times over 64 000 appends");
}

//! Unit and concurrency tests for the hybrid log.

use super::*;
use faster_storage::MemDevice;
use std::sync::atomic::AtomicBool;
use std::sync::Barrier;

fn test_log(cfg: HLogConfig) -> (HybridLog, Epoch, Arc<MemDevice>) {
    let epoch = Epoch::new(32);
    let dev = MemDevice::new(2);
    let log = HybridLog::new(cfg, epoch.clone(), dev.clone());
    (log, epoch, dev)
}

#[test]
fn fresh_log_markers() {
    let (log, _e, _d) = test_log(HLogConfig::small());
    let r = log.regions();
    assert_eq!(r.tail, Address::FIRST_VALID);
    assert_eq!(r.begin, Address::FIRST_VALID);
    assert_eq!(r.head, Address::new(0));
    assert_eq!(r.read_only, Address::new(0));
    assert_eq!(r.safe_read_only, Address::new(0));
}

#[test]
fn allocate_sequential_addresses() {
    let (log, epoch, _d) = test_log(HLogConfig::small());
    let g = epoch.acquire();
    let a = log.allocate(24, &g);
    let b = log.allocate(24, &g);
    let c = log.allocate(48, &g);
    assert_eq!(a, Address::new(64));
    assert_eq!(b, Address::new(88));
    assert_eq!(c, Address::new(112));
    assert_eq!(log.tail_address(), Address::new(160));
}

#[test]
fn write_read_through_pointer() {
    let (log, epoch, _d) = test_log(HLogConfig::small());
    let g = epoch.acquire();
    let addr = log.allocate(16, &g);
    let p = log.get(addr).expect("in memory");
    unsafe {
        std::ptr::write(p as *mut u64, 0xDEAD_BEEF);
        std::ptr::write((p as *mut u64).add(1), 42);
    }
    let p2 = log.get(addr).unwrap();
    unsafe {
        assert_eq!(std::ptr::read(p2 as *const u64), 0xDEAD_BEEF);
        assert_eq!(std::ptr::read((p2 as *const u64).add(1)), 42);
    }
    assert!(log.get(Address::new(1 << 30)).is_none(), "beyond tail");
}

#[test]
fn page_boundary_allocation_never_spans() {
    let cfg = HLogConfig { page_bits: 12, buffer_pages: 16, mutable_pages: 16, io_threads: 1 };
    let (log, epoch, _d) = test_log(cfg);
    let g = epoch.acquire();
    let size = 240u32; // does not divide 4096 evenly
    let mut prev = Address::new(0);
    for _ in 0..200 {
        let a = log.allocate(size, &g);
        assert!(a > prev, "addresses strictly increase");
        let page_of = |x: Address| x.raw() >> 12;
        assert_eq!(
            page_of(a),
            page_of(Address::new(a.raw() + size as u64 - 1)),
            "record must not span pages"
        );
        prev = a;
        g.refresh();
    }
}

#[test]
fn regions_progress_as_tail_grows() {
    // Small pages; mutable region = 2 pages.
    let cfg = HLogConfig { page_bits: 10, buffer_pages: 8, mutable_pages: 2, io_threads: 1 };
    let (log, epoch, _d) = test_log(cfg);
    let g = epoch.acquire();
    let first = log.allocate(64, &g);
    // Fill 4 pages worth.
    for _ in 0..((4 * 1024) / 64) {
        log.allocate(64, &g);
        g.refresh();
    }
    log.flush_barrier().unwrap();
    let r = log.regions();
    assert!(r.read_only.raw() > 0, "read-only advanced");
    assert!(r.safe_read_only <= r.read_only);
    assert!(r.head <= r.safe_read_only);
    assert!(r.read_only < r.tail);
    assert_eq!(log.classify(r.tail), Region::Mutable);
    assert_eq!(log.classify(first), log.classify(Address::new(64)));
}

#[test]
fn classification_matches_markers() {
    let cfg = HLogConfig { page_bits: 10, buffer_pages: 4, mutable_pages: 1, io_threads: 1 };
    let (log, epoch, _d) = test_log(cfg);
    let g = epoch.acquire();
    // Fill many pages to force eviction (buffer 4 pages, so page 0 must go
    // to disk once tail passes page 4).
    for _ in 0..((8 * 1024) / 64) {
        log.allocate(64, &g);
        g.refresh();
    }
    log.flush_barrier().unwrap();
    // Give head-advance triggers a chance (they fire on refresh).
    for _ in 0..4 {
        g.refresh();
    }
    let r = log.regions();
    assert!(r.head.raw() > 0, "eviction must have occurred: {r:?}");
    assert_eq!(log.classify(Address::new(r.head.raw().saturating_sub(1))), Region::OnDisk);
    if r.safe_read_only > r.head {
        assert_eq!(log.classify(r.head), Region::ReadOnly);
    }
    assert_eq!(log.classify(r.tail), Region::Mutable);
    if r.read_only > r.safe_read_only {
        assert_eq!(log.classify(r.safe_read_only), Region::Fuzzy);
    }
}

#[test]
fn evicted_pages_are_durable_and_readable() {
    let cfg = HLogConfig { page_bits: 10, buffer_pages: 4, mutable_pages: 1, io_threads: 1 };
    let (log, epoch, _d) = test_log(cfg);
    let g = epoch.acquire();
    // Write a recognizable record at the start.
    let first = log.allocate(64, &g);
    unsafe { std::ptr::write(log.get(first).unwrap() as *mut u64, 0xABCD_EF00) };
    for i in 0..((8 * 1024) / 64) {
        let a = log.allocate(64, &g);
        if let Some(p) = log.get(a) {
            unsafe { std::ptr::write(p as *mut u64, i as u64) };
        }
        g.refresh();
    }
    log.flush_barrier().unwrap();
    for _ in 0..4 {
        g.refresh();
    }
    assert_eq!(log.classify(first), Region::OnDisk, "first record evicted");
    // A device read returns the original bytes.
    let bytes = log.read_blocking(first, 64).expect("read evicted record");
    assert_eq!(u64::from_le_bytes(bytes[0..8].try_into().unwrap()), 0xABCD_EF00);
}

#[test]
fn append_only_mode_read_only_tracks_tail() {
    // mutable_pages = 0: the §5 append-only log.
    let cfg = HLogConfig { page_bits: 10, buffer_pages: 8, mutable_pages: 0, io_threads: 1 };
    let (log, epoch, _d) = test_log(cfg);
    let g = epoch.acquire();
    for _ in 0..((3 * 1024) / 64) {
        log.allocate(64, &g);
        g.refresh();
    }
    let r = log.regions();
    // In append-only mode the read-only offset sits at the last page
    // boundary: only the active tail page is mutable.
    assert_eq!(r.read_only.raw(), (r.tail.raw() >> 10) << 10);
}

#[test]
fn concurrent_allocations_unique_and_valid() {
    let cfg = HLogConfig { page_bits: 14, buffer_pages: 16, mutable_pages: 8, io_threads: 2 };
    let (log, epoch, _d) = test_log(cfg);
    let threads = 8;
    let per_thread = 2000;
    let barrier = Arc::new(Barrier::new(threads));
    let mut handles = Vec::new();
    for t in 0..threads {
        let log = log.clone();
        let epoch = epoch.clone();
        let barrier = barrier.clone();
        handles.push(std::thread::spawn(move || {
            let g = epoch.acquire();
            barrier.wait();
            let mut addrs = Vec::with_capacity(per_thread);
            for i in 0..per_thread {
                let a = log.allocate(32, &g);
                // Stamp the allocation to catch overlap.
                if let Some(p) = log.get(a) {
                    unsafe { std::ptr::write(p as *mut u64, (t * per_thread + i) as u64) };
                }
                addrs.push(a);
                if i % 64 == 0 {
                    g.refresh();
                }
            }
            addrs
        }));
    }
    let mut all: Vec<Address> = handles.into_iter().flat_map(|h| h.join().unwrap()).collect();
    let n = all.len();
    all.sort();
    all.dedup();
    assert_eq!(all.len(), n, "allocations must never overlap");
    for w in all.windows(2) {
        assert!(w[1].raw() - w[0].raw() >= 32 || w[1].raw() >> 14 != w[0].raw() >> 14);
    }
}

#[test]
fn shift_read_only_to_tail_flushes_everything() {
    let cfg = HLogConfig { page_bits: 10, buffer_pages: 8, mutable_pages: 8, io_threads: 1 };
    let (log, epoch, dev) = test_log(cfg);
    let g = epoch.acquire();
    for _ in 0..20 {
        let a = log.allocate(64, &g);
        if let Some(p) = log.get(a) {
            unsafe { std::ptr::write(p as *mut u64, a.raw()) };
        }
    }
    let t = log.shift_read_only_to_tail(None);
    g.refresh(); // let the safe-ro trigger fire
    log.flush_barrier().unwrap();
    assert_eq!(log.read_only_address(), t);
    assert_eq!(log.safe_read_only_address(), t);
    assert!(dev.stats().bytes_written > 0, "data was flushed");
}

#[test]
fn gc_shift_begin_truncates(){
    let cfg = HLogConfig { page_bits: 10, buffer_pages: 4, mutable_pages: 1, io_threads: 1 };
    let (log, epoch, dev) = test_log(cfg);
    let g = epoch.acquire();
    let first = log.allocate(64, &g);
    for _ in 0..((8 * 1024) / 64) {
        log.allocate(64, &g);
        g.refresh();
    }
    log.flush_barrier().unwrap();
    // Page 0's bytes sit at the start of the device.
    let physical = || dev.read_blocking(first.raw(), 64);
    assert!(physical().is_ok());
    // `begin` moves at once; the device truncation waits for `g`.
    log.shift_begin_address(Address::new(2048), None);
    assert_eq!(log.begin_address(), Address::new(2048));
    assert!(matches!(log.read_blocking(first, 64), Err(IoError::Truncated { .. })));
    assert!(physical().is_ok(), "a thread that has not refreshed may still read below begin");
    g.refresh();
    assert!(matches!(physical(), Err(IoError::Truncated { .. })));
    // With no guard alive the truncation runs inside the call.
    drop(g);
    log.shift_begin_address(Address::new(4096), None);
    assert!(matches!(dev.read_blocking(2 * checksum::stride(1024), 64), Err(IoError::Truncated { .. })));
}

#[test]
fn scanner_covers_memory_and_disk() {
    let cfg = HLogConfig { page_bits: 10, buffer_pages: 4, mutable_pages: 1, io_threads: 1 };
    let (log, epoch, _d) = test_log(cfg);
    let g = epoch.acquire();
    let mut written = Vec::new();
    for i in 0..((6 * 1024) / 64) {
        let a = log.allocate(64, &g);
        if let Some(p) = log.get(a) {
            unsafe { std::ptr::write(p as *mut u64, 1000 + i as u64) };
        }
        written.push((a, 1000 + i as u64));
        g.refresh();
    }
    log.flush_barrier().unwrap();
    for _ in 0..4 {
        g.refresh();
    }
    assert!(log.head_address().raw() > 0, "some pages evicted");
    // Scan the full log and recover every stamp.
    let mut found = std::collections::HashMap::new();
    for page in LogScanner::full(&log) {
        let page = page.expect("scan page");
        let mut off = page.start_offset;
        while off + 8 <= page.end_offset {
            let v = u64::from_le_bytes(page.bytes[off..off + 8].try_into().unwrap());
            if v >= 1000 {
                found.insert(page.base.raw() + off as u64, v);
            }
            off += 64;
        }
    }
    for (a, v) in written {
        assert_eq!(found.get(&a.raw()), Some(&v), "record at {a} in scan");
    }
}

#[test]
fn recover_resumes_past_old_tail() {
    let cfg = HLogConfig { page_bits: 10, buffer_pages: 8, mutable_pages: 8, io_threads: 1 };
    let epoch = Epoch::new(8);
    let dev = MemDevice::new(1);
    let old_tail;
    {
        let log = HybridLog::new(cfg, epoch.clone(), dev.clone());
        let g = epoch.acquire();
        for i in 0..40u64 {
            let a = log.allocate(64, &g);
            if let Some(p) = log.get(a) {
                unsafe { std::ptr::write(p as *mut u64, 7000 + i) };
            }
        }
        old_tail = log.shift_read_only_to_tail(None);
        g.refresh();
        log.flush_barrier().unwrap();
        drop(g);
    }
    let log2 = HybridLog::recover(cfg, epoch.clone(), dev.clone(), Address::FIRST_VALID, old_tail);
    assert!(log2.tail_address() >= old_tail);
    assert_eq!(log2.tail_address().raw() % 1024, 0, "resume at page boundary");
    // Old data is readable from the device.
    let bytes = log2.read_blocking(Address::new(64), 8).unwrap();
    assert_eq!(u64::from_le_bytes(bytes.try_into().unwrap()), 7000);
    // And new allocations work.
    let g = epoch.acquire();
    let a = log2.allocate(64, &g);
    assert!(a >= log2.head_address());
    assert_eq!(log2.classify(a), Region::Mutable);
}

#[test]
fn allocation_backpressure_does_not_deadlock() {
    // Tiny buffer + slow flushing would deadlock a blocking design; the
    // refresh-retry loop must make progress.
    let cfg = HLogConfig { page_bits: 9, buffer_pages: 2, mutable_pages: 1, io_threads: 1 };
    let epoch = Epoch::new(8);
    let dev = MemDevice::new(1);
    let log = HybridLog::new(cfg, epoch.clone(), dev);
    let done = Arc::new(AtomicBool::new(false));
    let d2 = done.clone();
    let l2 = log.clone();
    let e2 = epoch.clone();
    let h = std::thread::spawn(move || {
        let g = e2.acquire();
        for _ in 0..200 {
            l2.allocate(64, &g);
        }
        d2.store(true, Ordering::SeqCst);
    });
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    while !done.load(Ordering::SeqCst) {
        assert!(std::time::Instant::now() < deadline, "allocation deadlocked");
        std::thread::yield_now();
    }
    h.join().unwrap();
}

/// A write refused inline fails on the submitting thread, so the retry is
/// issued from inside the flush ring's waker and its own refusal re-enters
/// that waker. Both retries must land and every sealed page must flush.
#[test]
fn inline_write_failures_are_retried_from_the_waker() {
    let cfg = HLogConfig { page_bits: 10, buffer_pages: 4, mutable_pages: 1, io_threads: 1 };
    let epoch = Epoch::new(8);
    let dev = faster_storage::FaultDevice::wrap(MemDevice::new(1));
    let log = HybridLog::new(cfg, epoch.clone(), dev.clone());
    dev.domain().fail_next_writes(2);
    let worker = {
        let log = log.clone();
        std::thread::spawn(move || {
            let g = epoch.acquire();
            for _ in 0..((10 * 1024) / 64) {
                log.allocate(64, &g);
                g.refresh();
            }
            // Every page below the read-only offset has been sealed.
            let sealed = log.read_only_address();
            while log.flushed_until_address() < sealed {
                g.refresh();
                std::thread::yield_now();
            }
        })
    };
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    while !worker.is_finished() {
        assert!(std::time::Instant::now() < deadline, "flush retry wedged: {:?}", log.flush_debug());
        std::thread::yield_now();
    }
    worker.join().unwrap();
    assert!(log.flushed_until_address().raw() >= 8 * 1024, "at least 8 pages flushed");
    assert_eq!(log.metrics().flush_retries.get(), 2);
    assert_eq!(log.metrics().pages_quarantined.get(), 0);
    assert_eq!(log.flush_debug().inflight, 0);
}

/// Page-write CQEs are consumed inside the device's I/O job, so once the
/// barrier returns the frontier already covers every flush issued before it.
#[test]
fn frontier_has_moved_when_the_barrier_returns() {
    let cfg = HLogConfig { page_bits: 10, buffer_pages: 8, mutable_pages: 1, io_threads: 2 };
    let epoch = Epoch::new(8);
    let latency = faster_storage::LatencyModel {
        fixed: std::time::Duration::from_micros(200),
        bytes_per_sec: 0,
    };
    let log = HybridLog::new(cfg, epoch.clone(), MemDevice::with_latency(2, latency));
    let g = epoch.acquire();
    for _ in 0..100 {
        for _ in 0..(1024 / 64) {
            log.allocate(64, &g);
            g.refresh();
        }
        // Flushes are issued by the safe-read-only trigger, which ran on
        // this thread: every full page below it has been submitted.
        let issued = (log.safe_read_only_address().raw() >> 10) << 10;
        log.flush_barrier().unwrap();
        assert!(log.flushed_until_address().raw() >= issued, "{:?}", log.flush_debug());
    }
}

#[test]
fn config_validation() {
    let epoch = Epoch::new(4);
    let dev = MemDevice::new(1);
    let bad = HLogConfig { page_bits: 10, buffer_pages: 3, mutable_pages: 1, io_threads: 1 };
    assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        HybridLog::new(bad, epoch.clone(), dev.clone())
    }))
    .is_err());
    let bad2 = HLogConfig { page_bits: 10, buffer_pages: 4, mutable_pages: 9, io_threads: 1 };
    assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        HybridLog::new(bad2, epoch, dev)
    }))
    .is_err());
}

#[test]
fn mutable_fraction_helper() {
    let cfg = HLogConfig { page_bits: 10, buffer_pages: 16, mutable_pages: 0, io_threads: 1 }
        .with_mutable_fraction(0.9);
    assert_eq!(cfg.mutable_pages, 14); // round(16 * 0.9)
    let cfg0 = cfg.with_mutable_fraction(0.0);
    assert_eq!(cfg0.mutable_pages, 0);
}

#[test]
fn marker_order_invariant_under_concurrency() {
    // begin <= head <= flushed_until <= safe_ro <= ro <= tail, continuously.
    let cfg = HLogConfig { page_bits: 11, buffer_pages: 8, mutable_pages: 4, io_threads: 2 };
    let (log, epoch, _d) = test_log(cfg);
    let stop = Arc::new(AtomicBool::new(false));
    let checker = {
        let log = log.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                let r = log.regions();
                assert!(r.head <= r.safe_read_only, "{r:?}");
                assert!(r.safe_read_only <= r.read_only, "{r:?}");
                assert!(r.read_only <= r.tail, "{r:?}");
                assert!(r.flushed_until <= r.safe_read_only, "{r:?}");
            }
        })
    };
    let mut handles = Vec::new();
    for t in 0..3u64 {
        let log = log.clone();
        let epoch = epoch.clone();
        handles.push(std::thread::spawn(move || {
            let g = epoch.acquire();
            for i in 0..3000 {
                let a = log.allocate(64, &g);
                if let Some(p) = log.get(a) {
                    unsafe { std::ptr::write(p as *mut u64, t * 10_000 + i) };
                }
                if i % 32 == 0 {
                    g.refresh();
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    checker.join().unwrap();
}

/// The buffer is committed on first touch: a default-sized log (64 × 1 MiB)
/// holding a few records keeps nothing resident well past its tail page.
/// The 8 MiB of slack leaves room for a huge page around the tail frame.
#[test]
fn untouched_frames_stay_uncommitted() {
    let (log, epoch, _d) = test_log(HLogConfig::default());
    let g = epoch.acquire();
    for i in 0..100u64 {
        let a = log.allocate(64, &g);
        unsafe { std::ptr::write(log.get(a).unwrap() as *mut u64, i) };
    }
    let buffer = &log.inner.buffer;
    let tail_page = log.tail_address().raw() >> log.config().page_bits;
    let past = ((tail_page + 1) << log.config().page_bits) as usize + (8 << 20);
    assert!(buffer.resident_bytes() > 0, "the tail frame was touched");
    assert_eq!(buffer.resident_bytes_in(past..buffer.len()), 0);
}

/// Frames are reused as the log wraps the buffer; every allocation on a
/// recycled frame still reads as zero before its owner writes it.
#[test]
fn recycled_frames_read_as_zero() {
    let cfg = HLogConfig { page_bits: 10, buffer_pages: 4, mutable_pages: 1, io_threads: 1 };
    let (log, epoch, _d) = test_log(cfg);
    let g = epoch.acquire();
    for _ in 0..((12 * 1024) / 64) {
        let a = log.allocate(64, &g);
        let p = log.get(a).expect("a fresh allocation is resident");
        let rec = unsafe { std::slice::from_raw_parts_mut(p, 64) };
        assert!(rec.iter().all(|&b| b == 0), "stale bytes at {a:?}");
        rec.fill(0xFF);
        g.refresh();
    }
    assert!(log.metrics().frames_evicted.get() >= 8, "the log wrapped its buffer");
}

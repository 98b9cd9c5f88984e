//! Anonymous memory regions for the store's big buffers.
//!
//! The HybridLog's circular buffer (§5.1: "a linear array of fixed-size page
//! frames") and the hash index's bucket tables are large, zero-initialised
//! and touched unevenly: a store sized for its worst case may only ever use a
//! fraction of its log frames. A [`Region`] is one anonymous `mmap`, so the
//! kernel hands out zeroed pages on first touch and never commits a page the
//! store does not write. A region of [`HUGE_PAGE`] bytes or more starts on a
//! 2 MiB boundary and is advised `MADV_HUGEPAGE`, so random probes into it
//! miss the TLB once per 2 MiB rather than once per 4 KiB. With transparent
//! huge pages switched off the advice is a no-op and the lazy commit holds.

use std::ops::Range;

/// Base page size: the unit of `mmap` lengths and of `mincore` residency.
const PAGE: usize = 4096;

/// Transparent huge page size; regions this large are aligned to it.
pub const HUGE_PAGE: usize = 2 << 20;

/// An owned, zero-initialised, page-aligned anonymous mapping, unmapped on
/// drop. Pages are committed when first touched.
pub struct Region {
    base: *mut u8,
    len: usize,
}

// SAFETY: a region is plain memory owned by this value; it is unmapped only
// by `drop`, which needs the value itself. What threads may do with the bytes
// is the owner's discipline (epochs, atomics), not this type's.
unsafe impl Send for Region {}
// SAFETY: `&Region` hands out only the base pointer and the length, and
// `resident_bytes_in` only reads the page tables; see `Send` above.
unsafe impl Sync for Region {}

impl Region {
    /// Maps `len` zeroed bytes (rounded up to whole pages).
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero or the kernel refuses the mapping.
    pub fn new(len: usize) -> Self {
        assert!(len > 0, "an empty region maps nothing");
        let len = len.next_multiple_of(PAGE);
        if len < HUGE_PAGE {
            return Self { base: map(len), len };
        }
        // Over-map by one huge page, then unmap the slack on either side of
        // the first 2 MiB boundary.
        let raw = map(len + HUGE_PAGE);
        let lead = (raw as usize).next_multiple_of(HUGE_PAGE) - raw as usize;
        // SAFETY: `lead < HUGE_PAGE`, so `base..base + len` lies inside the
        // `len + HUGE_PAGE` bytes just mapped, as do the two slack ranges.
        let base = unsafe { raw.add(lead) };
        unmap(raw, lead);
        // SAFETY: the tail slack starts `len` past `base`, inside the mapping.
        unmap(unsafe { base.add(len) }, HUGE_PAGE - lead);
        // SAFETY: `base..base + len` is a live mapping owned by this call.
        // The advice is a hint: with THP off it fails or does nothing, and
        // the region works either way.
        unsafe { libc::madvise(base.cast(), len, libc::MADV_HUGEPAGE) };
        Self { base, len }
    }

    /// First byte of the region. The pointer is valid for reads and writes
    /// of [`Region::len`] bytes until the region drops.
    #[inline]
    pub fn as_ptr(&self) -> *mut u8 {
        self.base
    }

    /// Mapped length in bytes (a whole number of pages).
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Always false: a region maps at least one page.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Bytes of the whole region the kernel has committed.
    pub fn resident_bytes(&self) -> usize {
        self.resident_bytes_in(0..self.len)
    }

    /// Bytes of the pages overlapping `range` that the kernel has committed
    /// (`mincore`). A page reads as resident once it has been touched.
    ///
    /// # Panics
    ///
    /// Panics if `range` is not inside the region.
    pub fn resident_bytes_in(&self, range: Range<usize>) -> usize {
        assert!(range.start <= range.end && range.end <= self.len, "range inside the region");
        let start = range.start / PAGE * PAGE;
        let len = range.end - start;
        if len == 0 {
            return 0;
        }
        let mut vec = vec![0u8; len.div_ceil(PAGE)];
        // SAFETY: `start` is page-aligned and `start..start + len` lies inside
        // the live mapping; `vec` holds one byte per page of that span.
        let rc = unsafe { libc::mincore(self.base.add(start).cast(), len, vec.as_mut_ptr()) };
        assert_eq!(rc, 0, "mincore on a live region: {}", std::io::Error::last_os_error());
        vec.iter().filter(|&&b| b & 1 != 0).count() * PAGE
    }
}

impl Drop for Region {
    fn drop(&mut self) {
        unmap(self.base, self.len);
    }
}

/// A fresh private anonymous mapping of `len` bytes.
fn map(len: usize) -> *mut u8 {
    // SAFETY: a null hint with MAP_ANONYMOUS asks the kernel for new memory;
    // it touches nothing already mapped.
    let p = unsafe {
        libc::mmap(
            std::ptr::null_mut(),
            len,
            libc::PROT_READ | libc::PROT_WRITE,
            libc::MAP_PRIVATE | libc::MAP_ANONYMOUS,
            -1,
            0,
        )
    };
    assert!(p != libc::MAP_FAILED, "mmap of {len} bytes: {}", std::io::Error::last_os_error());
    p.cast()
}

/// Unmaps `len` bytes at `p`; a no-op for an empty range. Errors are
/// ignored: the range came from [`map`], so `munmap` can only fail on a bug,
/// and this runs inside `Drop`.
fn unmap(p: *mut u8, len: usize) {
    if len > 0 {
        // SAFETY: every caller passes a page-aligned range it owns inside a
        // mapping from `map`, and no pointer into it is used afterwards.
        unsafe { libc::munmap(p.cast(), len) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_as_zero_and_writes_stick() {
        let r = Region::new(3 * PAGE + 1);
        assert_eq!(r.len(), 4 * PAGE);
        // SAFETY: the region is live for the whole test and `len` bytes long.
        let bytes = unsafe { std::slice::from_raw_parts_mut(r.as_ptr(), r.len()) };
        assert!(bytes.iter().all(|&b| b == 0));
        bytes[PAGE + 7] = 0xAB;
        assert_eq!(bytes[PAGE + 7], 0xAB);
    }

    #[test]
    fn aligned_to_huge_pages_at_two_mib_and_above() {
        for len in [HUGE_PAGE, HUGE_PAGE + PAGE, 3 * HUGE_PAGE] {
            let r = Region::new(len);
            assert_eq!(r.as_ptr() as usize % HUGE_PAGE, 0, "{len}-byte region");
        }
        let small = Region::new(PAGE);
        assert_eq!(small.as_ptr() as usize % PAGE, 0);
    }

    #[test]
    fn committed_on_first_touch() {
        let r = Region::new(4 * HUGE_PAGE);
        assert_eq!(r.resident_bytes(), 0, "nothing committed before the first touch");
        // SAFETY: the offset is inside the live region.
        unsafe { r.as_ptr().add(HUGE_PAGE + 5).write(1) };
        let resident = r.resident_bytes();
        // One touched page, or the one huge page around it with THP on.
        assert!((PAGE..=HUGE_PAGE).contains(&resident), "resident {resident}");
        assert_eq!(r.resident_bytes_in(0..HUGE_PAGE), 0);
        assert_eq!(r.resident_bytes_in(2 * HUGE_PAGE..4 * HUGE_PAGE), 0);
        assert_eq!(r.resident_bytes_in(HUGE_PAGE + 5..HUGE_PAGE + 6), PAGE);
    }
}

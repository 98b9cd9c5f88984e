//! Software prefetch hints for the batched-operation pipeline.
//!
//! The batched read path (MICA-style, see DESIGN.md §3) hides DRAM latency by
//! issuing prefetches for every key's hash bucket before the first probe, and
//! for every resolved record address before the first dereference, so the
//! independent cache misses of a batch overlap instead of serializing.
//!
//! These are *hints*: they never fault (the hardware drops prefetches to
//! unmapped addresses), so callers may pass stale or even dangling pointers
//! that were merely valid at some point in the epoch. On architectures
//! without a stable intrinsic the functions compile to nothing.

/// Prefetches the cache line containing `p` into all cache levels for a read.
#[inline(always)]
pub fn prefetch_read<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: a prefetch is a hint that never dereferences `p` and never
    // faults, whatever `p` points at (module docs).
    unsafe {
        core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(p as *const i8);
    }
    #[cfg(target_arch = "aarch64")]
    // SAFETY: `prfm` is a hint that never faults and touches no register or
    // memory the compiler can see.
    unsafe {
        core::arch::asm!("prfm pldl1keep, [{0}]", in(reg) p, options(nostack, preserves_flags));
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        let _ = p;
    }
}

/// Prefetches the cache line containing `p` anticipating a write (RFO), so a
/// subsequent CAS or store does not pay a second ownership round-trip.
#[inline(always)]
pub fn prefetch_write<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: a prefetch is a hint that never dereferences `p` and never
    // faults, whatever `p` points at (module docs).
    unsafe {
        // T0 read prefetch: still overlaps the miss; PREFETCHW has no stable
        // Rust intrinsic and the ownership upgrade is cheap once resident.
        core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(p as *const i8);
    }
    #[cfg(target_arch = "aarch64")]
    // SAFETY: `prfm` is a hint that never faults and touches no register or
    // memory the compiler can see.
    unsafe {
        core::arch::asm!("prfm pstl1keep, [{0}]", in(reg) p, options(nostack, preserves_flags));
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        let _ = p;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefetch_never_faults() {
        let v = [0u64; 8];
        prefetch_read(v.as_ptr());
        prefetch_write(v.as_ptr());
        // Hints must be safe on null and wild addresses alike.
        prefetch_read::<u64>(std::ptr::null());
        prefetch_write::<u64>(0xDEAD_BEEFusize as *const u64);
    }
}

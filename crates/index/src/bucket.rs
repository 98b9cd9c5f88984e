//! Cache-line hash buckets and the overflow-bucket pool (§3.1).
//!
//! A bucket is exactly one 64-byte cache line: seven 8-byte entries plus one
//! 8-byte overflow pointer. Overflow buckets "have the size and alignment of
//! a cache line as well, and are allocated on demand using an in-memory
//! allocator" — here a pool that owns every overflow bucket it hands out, so
//! bucket references stay valid for the lifetime of the index (freed only
//! when the pool drops).
//!
//! Bucket tables and overflow slabs are [`Region`]s: an all-zero bucket is an
//! empty one, so the kernel's zeroed pages need no initialising pass, and the
//! tables, probed at random on every operation, sit on 2 MiB pages.

use crate::entry::HashBucketEntry;
use faster_util::region::HUGE_PAGE;
use faster_util::{Region, CACHE_LINE_SIZE};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};

/// Entries per bucket (the eighth word is the overflow pointer).
pub const ENTRIES_PER_BUCKET: usize = 7;

/// One cache-line bucket: 7 entries + overflow pointer.
#[repr(align(64))]
pub struct HashBucket {
    /// `entries[0..7]` hold [`HashBucketEntry`] words; `entries[7]` holds the
    /// overflow pointer (a raw `*const HashBucket` into the pool, or 0).
    words: [AtomicU64; 8],
}

const _: () = assert!(core::mem::size_of::<HashBucket>() == CACHE_LINE_SIZE);

impl HashBucket {
    pub fn new() -> Self {
        Self { words: Default::default() }
    }

    /// The seven entry words.
    #[inline]
    pub fn entries(&self) -> &[AtomicU64] {
        &self.words[..ENTRIES_PER_BUCKET]
    }

    /// Entry word `i` (`i < 7`).
    #[inline]
    pub fn entry(&self, i: usize) -> &AtomicU64 {
        debug_assert!(i < ENTRIES_PER_BUCKET);
        &self.words[i]
    }

    /// Decoded entry `i`.
    #[inline]
    pub fn load_entry(&self, i: usize) -> HashBucketEntry {
        HashBucketEntry(self.entry(i).load(Ordering::SeqCst))
    }

    /// The next overflow bucket in the chain, if any.
    ///
    /// # Safety contract (internal)
    ///
    /// The pointer stored in the overflow word always originates from
    /// [`OverflowPool::alloc`] of the pool owned by the same index, whose
    /// slabs stay mapped until the index drops.
    #[inline]
    pub fn overflow(&self) -> Option<&HashBucket> {
        let p = self.words[7].load(Ordering::SeqCst);
        if p == 0 {
            None
        } else {
            // SAFETY: a non-zero overflow word is a bucket of this index's
            // overflow pool (see above); the slab outlives every pointer
            // into it, and a bucket is never freed while the index lives.
            Some(unsafe { &*(p as *const HashBucket) })
        }
    }

    /// Installs `next` as this bucket's overflow bucket if none is present.
    /// Returns the bucket now in place (ours or a concurrent winner's).
    pub fn install_overflow<'a>(&self, next: &'a HashBucket) -> &'a HashBucket
    where
        Self: 'a,
    {
        let p = next as *const HashBucket as u64;
        debug_assert!(p < (1 << 48), "pointer exceeds 48 bits");
        match self.words[7].compare_exchange(0, p, Ordering::SeqCst, Ordering::SeqCst) {
            Ok(_) => next,
            // SAFETY: the winner was installed by this method on another
            // thread, from a pool bucket as long-lived as `next`.
            Err(winner) => unsafe { &*(winner as *const HashBucket) },
        }
    }

    /// Clears every word (single-threaded contexts: restore / tests).
    pub fn reset(&self) {
        for w in &self.words {
            w.store(0, Ordering::SeqCst);
        }
    }
}

impl Default for HashBucket {
    fn default() -> Self {
        Self::new()
    }
}

/// Buckets per overflow slab: one 2 MiB region.
const SLAB_BUCKETS: usize = HUGE_PAGE / CACHE_LINE_SIZE;

/// Owns all overflow buckets for one index.
///
/// Allocation takes a short mutex — overflow allocation is rare (it means a
/// bucket's 7 slots plus its chain are full) and never on the per-operation
/// fast path — and bumps an index into the newest 2 MiB slab. Slabs never
/// move or unmap before the pool drops, so `&HashBucket` references handed
/// out remain valid until the pool is dropped with the index.
#[derive(Default)]
pub struct OverflowPool {
    slabs: Mutex<Slabs>,
}

#[derive(Default)]
struct Slabs {
    regions: Vec<Region>,
    /// Buckets handed out so far; all but the last region are full.
    allocated: usize,
}

impl OverflowPool {
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates a fresh (empty) overflow bucket; the reference lives as
    /// long as the pool.
    pub fn alloc(&self) -> &HashBucket {
        let mut slabs = self.slabs.lock();
        let i = slabs.allocated % SLAB_BUCKETS;
        if i == 0 {
            slabs.regions.push(Region::new(HUGE_PAGE));
        }
        slabs.allocated += 1;
        let slab = slabs.regions.last().expect("the first bucket pushed a slab").as_ptr();
        // SAFETY: `i < SLAB_BUCKETS`, so the bucket lies inside the slab,
        // which is 64-byte aligned and zeroed (an empty bucket), and no
        // earlier call handed out index `i`. The region outlives every
        // pointer into it: the pool drops its slabs only when it drops.
        unsafe { &*slab.cast::<HashBucket>().add(i) }
    }

    /// Number of overflow buckets allocated so far.
    pub fn len(&self) -> usize {
        self.slabs.lock().allocated
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One version of the bucket table: `2^k_bits` primary buckets in one
/// zeroed region.
pub struct BucketArray {
    k_bits: u8,
    buckets: Region,
}

impl BucketArray {
    pub fn new(k_bits: u8) -> Self {
        assert!(k_bits as usize <= 40, "index size cap");
        let buckets = Region::new(CACHE_LINE_SIZE << k_bits);
        Self { k_bits, buckets }
    }

    #[inline]
    pub fn k_bits(&self) -> u8 {
        self.k_bits
    }

    #[inline]
    pub fn len(&self) -> usize {
        1 << self.k_bits
    }

    pub fn is_empty(&self) -> bool {
        false
    }

    #[inline]
    pub fn bucket(&self, idx: usize) -> &HashBucket {
        assert!(idx < self.len(), "bucket {idx} of {}", self.len());
        // SAFETY: a bucket index is below `2^k_bits` (checked above), and the
        // region holds `2^k_bits` zero-initialised (empty), 64-byte aligned
        // buckets. The region outlives the returned reference: it unmaps
        // only when `self` drops.
        unsafe { &*self.buckets.as_ptr().cast::<HashBucket>().add(idx) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faster_util::Address;

    #[test]
    fn bucket_is_one_cache_line() {
        assert_eq!(std::mem::size_of::<HashBucket>(), 64);
        assert_eq!(std::mem::align_of::<HashBucket>(), 64);
    }

    #[test]
    fn entry_store_load() {
        let b = HashBucket::new();
        let e = HashBucketEntry::new(Address::new(4096), 42, false);
        b.entry(3).store(e.0, Ordering::SeqCst);
        assert_eq!(b.load_entry(3), e);
        assert!(b.load_entry(0).is_empty());
    }

    #[test]
    fn overflow_chain() {
        let pool = OverflowPool::new();
        let b = HashBucket::new();
        assert!(b.overflow().is_none());
        let o1 = pool.alloc();
        let installed = b.install_overflow(o1);
        assert!(std::ptr::eq(installed, o1));
        assert!(std::ptr::eq(b.overflow().unwrap(), o1));
        // Second install loses and returns the winner.
        let o2 = pool.alloc();
        let winner = b.install_overflow(o2);
        assert!(std::ptr::eq(winner, o1));
        assert_eq!(pool.len(), 2);
    }

    #[test]
    fn concurrent_overflow_install_single_winner() {
        use std::sync::Arc;
        let pool = Arc::new(OverflowPool::new());
        let b = Arc::new(HashBucket::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let pool = pool.clone();
            let b = b.clone();
            handles.push(std::thread::spawn(move || {
                let mine = pool.alloc();
                b.install_overflow(mine) as *const HashBucket as usize
            }));
        }
        let results: Vec<usize> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(results.windows(2).all(|w| w[0] == w[1]), "all threads agree on the winner");
    }

    #[test]
    fn bucket_array_shape() {
        let a = BucketArray::new(4);
        assert_eq!(a.len(), 16);
        assert_eq!(a.k_bits(), 4);
        assert!((0..16).all(|i| (0..8).all(|w| a.bucket(i).words[w].load(Ordering::SeqCst) == 0)));
    }

    #[test]
    fn overflow_slabs_hand_out_distinct_empty_buckets() {
        let pool = OverflowPool::new();
        let buckets: Vec<&HashBucket> = (0..SLAB_BUCKETS + 1).map(|_| pool.alloc()).collect();
        assert_eq!(pool.len(), SLAB_BUCKETS + 1);
        let mut addrs: Vec<usize> =
            buckets.iter().map(|b| *b as *const HashBucket as usize).collect();
        assert!(addrs.iter().all(|a| a % CACHE_LINE_SIZE == 0), "64 B-aligned");
        addrs.sort_unstable();
        addrs.dedup();
        assert_eq!(addrs.len(), SLAB_BUCKETS + 1, "every bucket distinct");
        for b in &buckets {
            assert!(b.words.iter().all(|w| w.load(Ordering::SeqCst) == 0), "empty");
        }
    }
}

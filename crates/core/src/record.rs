//! Record layout in the log (Fig 2, §4).
//!
//! ```text
//!   [ header: u64 ][ key: K ][ value: V ]   (8-byte aligned total)
//! ```
//!
//! The header packs the previous-record address (48 bits) with status bits:
//!
//! | bit | name      | meaning                                              |
//! |-----|-----------|------------------------------------------------------|
//! | 48  | invalid   | CAS on the index entry failed; skip this record (§5.3)|
//! | 49  | tombstone | deletion marker (§5.3)                               |
//! | 50  | delta     | CRDT partial-value record (§6.3)                     |
//! | 51  | merge     | index-shrink meta record pointing at two chains (App B)|
//! | 52  | overwrite | superseded by a later record (GC hint, Appendix C)   |
//! | 53  | live      | always set on real records, so an all-zero header     |
//! |     |           | unambiguously marks page padding for log scans        |
//!
//! The header is a single `AtomicU64`: latch-free delete splices and invalid
//! markings are CAS/fetch-or operations on it, exactly as in the paper.

use faster_util::{align_up, Address, Pod};
use std::sync::atomic::{AtomicU64, Ordering};

const ADDR_MASK: u64 = Address::MASK;
pub const INVALID_BIT: u64 = 1 << 48;
pub const TOMBSTONE_BIT: u64 = 1 << 49;
pub const DELTA_BIT: u64 = 1 << 50;
pub const MERGE_BIT: u64 = 1 << 51;
pub const OVERWRITE_BIT: u64 = 1 << 52;
pub const LIVE_BIT: u64 = 1 << 53;

/// Decoded record header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordHeader(pub u64);

impl RecordHeader {
    pub fn new(prev: Address) -> Self {
        Self((prev.raw() & ADDR_MASK) | LIVE_BIT)
    }

    pub fn with(mut self, bits: u64) -> Self {
        self.0 |= bits;
        self
    }

    #[inline]
    pub fn prev(self) -> Address {
        Address::new(self.0 & ADDR_MASK)
    }

    #[inline]
    pub fn is_live(self) -> bool {
        self.0 & LIVE_BIT != 0
    }

    #[inline]
    pub fn is_invalid(self) -> bool {
        self.0 & INVALID_BIT != 0
    }

    #[inline]
    pub fn is_tombstone(self) -> bool {
        self.0 & TOMBSTONE_BIT != 0
    }

    #[inline]
    pub fn is_delta(self) -> bool {
        self.0 & DELTA_BIT != 0
    }

    #[inline]
    pub fn is_merge(self) -> bool {
        self.0 & MERGE_BIT != 0
    }

    #[inline]
    pub fn is_overwritten(self) -> bool {
        self.0 & OVERWRITE_BIT != 0
    }
}

/// Typed view over an in-memory record. Carries no lifetime of its own: the
/// caller's epoch guard is what keeps the underlying page frame alive (§4).
pub struct RecordRef<K: Pod, V: Pod> {
    base: *mut u8,
    _marker: std::marker::PhantomData<(K, V)>,
}

impl<K: Pod, V: Pod> Clone for RecordRef<K, V> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<K: Pod, V: Pod> Copy for RecordRef<K, V> {}

impl<K: Pod, V: Pod> RecordRef<K, V> {
    /// Byte offset of the key within a record.
    pub const KEY_OFFSET: usize = 8;

    /// Byte offset of the value within a record.
    pub const fn value_offset() -> usize {
        8 + align_up(std::mem::size_of::<K>(), 8)
    }

    /// Total record size, 8-byte aligned.
    pub const fn size() -> usize {
        align_up(Self::value_offset() + std::mem::size_of::<V>(), 8)
    }

    /// Wraps a raw pointer previously obtained from the log.
    ///
    /// # Safety
    ///
    /// `base` must point at `Self::size()` readable/writable bytes laid out
    /// as a record, and must stay valid for the caller's epoch-protected
    /// scope.
    #[inline]
    pub unsafe fn from_raw(base: *mut u8) -> Self {
        debug_assert!(!base.is_null());
        debug_assert_eq!(base as usize % 8, 0, "records are 8-byte aligned");
        Self { base, _marker: std::marker::PhantomData }
    }

    /// The header word as an atomic (shared mutation point).
    #[inline]
    pub fn header_atomic(&self) -> &AtomicU64 {
        // Safety: base is 8-aligned and valid; AtomicU64 has the same layout
        // as u64.
        unsafe { &*(self.base as *const AtomicU64) }
    }

    /// Decoded header snapshot.
    #[inline]
    pub fn header(&self) -> RecordHeader {
        RecordHeader(self.header_atomic().load(Ordering::SeqCst))
    }

    /// Stores a fresh header (record initialization only).
    #[inline]
    pub fn init_header(&self, h: RecordHeader) {
        self.header_atomic().store(h.0, Ordering::SeqCst);
    }

    /// Sets status bits with fetch-or (e.g. invalid after a failed CAS).
    #[inline]
    pub fn set_bits(&self, bits: u64) {
        self.header_atomic().fetch_or(bits, Ordering::SeqCst);
    }

    /// CAS the full header (delete splices, prev rewrites during resize).
    #[inline]
    pub fn cas_header(&self, expected: RecordHeader, new: RecordHeader) -> Result<(), RecordHeader> {
        self.header_atomic()
            .compare_exchange(expected.0, new.0, Ordering::SeqCst, Ordering::SeqCst)
            .map(|_| ())
            .map_err(RecordHeader)
    }

    /// Rewrites only the previous-address bits, preserving status bits.
    pub fn set_prev(&self, prev: Address) {
        let a = self.header_atomic();
        let mut cur = a.load(Ordering::SeqCst);
        loop {
            let new = (cur & !ADDR_MASK) | prev.raw();
            match a.compare_exchange(cur, new, Ordering::SeqCst, Ordering::SeqCst) {
                Ok(_) => return,
                Err(c) => cur = c,
            }
        }
    }

    /// Reads the key (immutable after initialization).
    #[inline]
    pub fn key(&self) -> K {
        // Safety: layout contract of from_raw.
        unsafe { std::ptr::read(self.base.add(Self::KEY_OFFSET) as *const K) }
    }

    /// Writes the key (record initialization only).
    #[inline]
    pub fn init_key(&self, key: &K) {
        // Safety: layout contract; exclusive during init.
        unsafe { std::ptr::write(self.base.add(Self::KEY_OFFSET) as *mut K, *key) }
    }

    /// Raw value pointer.
    #[inline]
    pub fn value_ptr(&self) -> *mut V {
        // Safety: layout contract.
        unsafe { self.base.add(Self::value_offset()) as *mut V }
    }

    /// Copies the value out (single-reader contexts: immutable regions).
    #[inline]
    pub fn read_value(&self) -> V {
        // Safety: layout contract.
        unsafe { std::ptr::read(self.value_ptr()) }
    }

    /// Exclusive value reference (record initialization / copy-update target).
    ///
    /// # Safety
    ///
    /// Caller must have exclusive access (freshly allocated, unpublished
    /// record).
    #[inline]
    #[allow(clippy::mut_from_ref)] // interior mutability; safety contract above
    pub unsafe fn value_mut(&self) -> &mut V {
        &mut *self.value_ptr()
    }

    /// Shared-mutation cell for the concurrent user functions.
    #[inline]
    pub fn value_cell(&self) -> &crate::functions::ValueCell<V> {
        // Safety: ValueCell is a #[repr(transparent)] UnsafeCell<V> view.
        unsafe { &*(self.value_ptr() as *const crate::functions::ValueCell<V>) }
    }

    /// The second-chain address of a merge record (Appendix B). Only
    /// meaningful when [`RecordHeader::is_merge`] is set.
    #[inline]
    pub(crate) fn second_address(&self) -> Address {
        // Safety: layout contract of from_raw; the key slot is >= 8 bytes.
        unsafe { MergeRecord::second_address(self.base) }
    }

    /// Parses a record image (a log page slice or a storage read) into its
    /// header, key and value; `None` for page padding or a short image.
    pub fn parse_bytes(bytes: &[u8]) -> Option<(RecordHeader, K, V)> {
        if bytes.len() < Self::size() {
            return None;
        }
        let raw = u64::from_le_bytes(bytes[0..8].try_into().ok()?);
        let header = RecordHeader(raw);
        if !header.is_live() {
            return None;
        }
        let key = faster_util::pod_from_bytes::<K>(
            &bytes[Self::KEY_OFFSET..Self::KEY_OFFSET + std::mem::size_of::<K>()],
        );
        let vo = Self::value_offset();
        let value = faster_util::pod_from_bytes::<V>(&bytes[vo..vo + std::mem::size_of::<V>()]);
        Some((header, key, value))
    }
}

/// A record as a chain walk sees it: resident in a log frame, or an image a
/// storage read returned. Either way the walk reads it through one
/// [`RecordRef`] ([`RecordView::get`]), so header, key, value and a merge
/// record's second-chain address decode the same way for both.
pub(crate) struct RecordView<K: Pod, V: Pod> {
    rec: RecordRef<K, V>,
    /// Owns the 8-byte-aligned copy `rec` points into, for a storage image
    /// (a `Vec`, not a `Box`: moving a `Box` would assert it is the only
    /// pointer to that copy).
    _image: Option<Vec<u64>>,
}

impl<K: Pod, V: Pod> RecordView<K, V> {
    /// Views a resident record.
    ///
    /// # Safety
    ///
    /// `p` comes from `HybridLog::get` under the caller's epoch guard, and
    /// the view must not outlive that guard's next refresh.
    #[inline]
    pub(crate) unsafe fn resident(p: *mut u8) -> Self {
        Self { rec: RecordRef::from_raw(p), _image: None }
    }

    /// Views the bytes of a completed storage read; `None` for page padding
    /// or a short read.
    pub(crate) fn parse(bytes: &[u8]) -> Option<Self> {
        let size = RecordRef::<K, V>::size();
        if bytes.len() < size {
            return None;
        }
        let mut image = vec![0u64; size / 8];
        // Safety: `image` holds exactly `size` bytes (sizes are 8-aligned).
        unsafe { std::ptr::copy_nonoverlapping(bytes.as_ptr(), image.as_mut_ptr().cast(), size) };
        // Safety: an aligned, owned copy of a whole record.
        let rec = unsafe { RecordRef::from_raw(image.as_mut_ptr().cast()) };
        rec.header().is_live().then_some(Self { rec, _image: Some(image) })
    }

    /// The record.
    #[inline]
    pub(crate) fn get(&self) -> &RecordRef<K, V> {
        &self.rec
    }
}

/// For merge meta-records (index shrink): the second chain address is stored
/// in the key slot. Only meaningful when [`RecordHeader::is_merge`] is set.
pub struct MergeRecord;

impl MergeRecord {
    /// Record size of a merge record for stores with key type `K`, value `V`
    /// (same as a normal record so log strides stay uniform).
    pub const fn size<K: Pod, V: Pod>() -> usize {
        RecordRef::<K, V>::size()
    }

    /// Reads the second chain address from the key slot.
    ///
    /// # Safety
    ///
    /// `base` must be a valid merge record.
    pub unsafe fn second_address(base: *mut u8) -> Address {
        Address::new(std::ptr::read(base.add(8) as *const u64) & Address::MASK)
    }

    /// Writes the second chain address.
    ///
    /// # Safety
    ///
    /// Exclusive access during initialization.
    pub unsafe fn set_second_address(base: *mut u8, addr: Address) {
        std::ptr::write(base.add(8) as *mut u64, addr.raw());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_bits_round_trip() {
        let h = RecordHeader::new(Address::new(0xABCD)).with(TOMBSTONE_BIT | DELTA_BIT);
        assert_eq!(h.prev(), Address::new(0xABCD));
        assert!(h.is_live());
        assert!(h.is_tombstone());
        assert!(h.is_delta());
        assert!(!h.is_invalid());
        assert!(!h.is_merge());
        assert!(!h.is_overwritten());
    }

    #[test]
    fn zero_header_is_padding() {
        assert!(!RecordHeader(0).is_live());
        assert!(RecordHeader::new(Address::INVALID).is_live());
    }

    #[test]
    fn record_size_is_aligned() {
        assert_eq!(RecordRef::<u64, u64>::size(), 24);
        assert_eq!(RecordRef::<u64, [u8; 100]>::size() % 8, 0);
        assert_eq!(RecordRef::<u64, [u8; 100]>::size(), 8 + 8 + 104);
        assert_eq!(RecordRef::<u32, u8>::size(), 24); // 8 + pad(4->8) + pad(1->8)
    }

    #[test]
    fn record_read_write() {
        let mut buf = vec![0u8; RecordRef::<u64, u64>::size()];
        let r = unsafe { RecordRef::<u64, u64>::from_raw(buf.as_mut_ptr()) };
        r.init_header(RecordHeader::new(Address::new(64)));
        r.init_key(&0xFEED);
        unsafe { *r.value_mut() = 777 };
        assert_eq!(r.header().prev(), Address::new(64));
        assert_eq!(r.key(), 0xFEED);
        assert_eq!(r.read_value(), 777);
        // Bit marking
        r.set_bits(INVALID_BIT);
        assert!(r.header().is_invalid());
        assert_eq!(r.header().prev(), Address::new(64), "prev survives bit sets");
        // Prev rewrite preserves bits
        r.set_prev(Address::new(128));
        assert!(r.header().is_invalid());
        assert_eq!(r.header().prev(), Address::new(128));
    }

    #[test]
    fn parse_bytes_matches_layout() {
        let mut buf = vec![0u8; RecordRef::<u64, u64>::size()];
        {
            let r = unsafe { RecordRef::<u64, u64>::from_raw(buf.as_mut_ptr()) };
            r.init_header(RecordHeader::new(Address::new(96)).with(TOMBSTONE_BIT));
            r.init_key(&11);
            unsafe { *r.value_mut() = 22 };
        }
        let (h, k, v) = RecordRef::<u64, u64>::parse_bytes(&buf).unwrap();
        assert_eq!(h.prev(), Address::new(96));
        assert!(h.is_tombstone());
        assert_eq!(k, 11);
        assert_eq!(v, 22);
        // Padding (all zero) is rejected.
        let zeros = vec![0u8; RecordRef::<u64, u64>::size()];
        assert!(RecordRef::<u64, u64>::parse_bytes(&zeros).is_none());
    }

    #[test]
    fn merge_record_second_address() {
        let mut buf = vec![0u8; MergeRecord::size::<u64, u64>()];
        unsafe {
            let r = RecordRef::<u64, u64>::from_raw(buf.as_mut_ptr());
            r.init_header(RecordHeader::new(Address::new(100)).with(MERGE_BIT));
            MergeRecord::set_second_address(buf.as_mut_ptr(), Address::new(200));
            assert!(r.header().is_merge());
            assert_eq!(r.header().prev(), Address::new(100));
            assert_eq!(MergeRecord::second_address(buf.as_mut_ptr()), Address::new(200));
        }
        // A storage image decodes the second chain exactly like the frame.
        let view = RecordView::<u64, u64>::parse(&buf).expect("live record");
        assert!(view.get().header().is_merge());
        assert_eq!(view.get().second_address(), Address::new(200));
        let resident = unsafe { RecordView::<u64, u64>::resident(buf.as_mut_ptr()) };
        assert_eq!(resident.get().second_address(), Address::new(200));
        // Padding and short reads are not records.
        assert!(RecordView::<u64, u64>::parse(&[0u8; 24]).is_none());
        assert!(RecordView::<u64, u64>::parse(&buf[..16]).is_none());
    }
}

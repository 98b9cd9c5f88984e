//! Log garbage collection (Appendix C).
//!
//! Two mechanisms, as in the paper:
//!
//! * **Expiration** — [`FasterKv::truncate_until`] drops a log prefix
//!   outright ("data stored in cloud providers often has a maximum time to
//!   live"). Index entries and record chains pointing below the new begin
//!   address are treated as dangling and lazily removed when encountered.
//! * **Roll to tail** — [`FasterKv::compact_until`] scans a prefix and
//!   copies *live* key-values to the tail before truncating. Liveness is
//!   exact: a record is copied only if no newer record for its key exists
//!   above it, checked by tracing the chain (with blocking device reads for
//!   the cold part — compaction is a maintenance path).

use crate::record::{RecordHeader, RecordRef, INVALID_BIT};
use crate::session::WriteKind;
use crate::{hash_key, FasterKv, Functions, Session};
use faster_hlog::LogScanner;
use faster_util::{Address, Pod};

impl<K: Pod + Eq, V: Pod, F: Functions<K, V>> FasterKv<K, V, F> {
    /// Expiration-based GC: invalidates everything below `addr`.
    ///
    /// When the store is checkpointed through a
    /// [`crate::ckpt_manager::CheckpointManager`], truncate through
    /// [`crate::ckpt_manager::CheckpointManager::gc_truncate`] instead: raw
    /// truncation can climb above the `begin` of a retained checkpoint
    /// generation and silently destroy its fallback replayability.
    pub fn truncate_until(&self, addr: Address) {
        self.inner.log.shift_begin_address(addr);
    }

    /// Roll-to-tail compaction: copies records in `[begin, until)` that are
    /// still live to the tail, then truncates. Returns the number of records
    /// rolled forward. Run from a maintenance thread with its own session.
    pub fn compact_until(&self, until: Address, session: &Session<K, V, F>) -> u64 {
        self.compact_until_clamped(until, until, session)
    }

    /// [`compact_until`](Self::compact_until) for checkpoint-aware callers:
    /// scans (and rolls) up to `until` but truncates only to `truncate_to`
    /// (≤ `until`). Rolling a live record to the tail is always safe;
    /// truncation is what can orphan a retained checkpoint generation, so
    /// only it takes the manager's clamp
    /// ([`crate::ckpt_manager::CheckpointManager::safe_truncation_bound`]).
    pub fn compact_until_clamped(
        &self,
        until: Address,
        truncate_to: Address,
        session: &Session<K, V, F>,
    ) -> u64 {
        let inner = &self.inner;
        let until = until.min(inner.log.safe_read_only_address());
        let rec_size = RecordRef::<K, V>::size();
        let mut rolled = 0u64;
        for page in LogScanner::new(&inner.log, inner.log.begin_address(), until) {
            let Ok(page) = page else { continue };
            let mut off = page.start_offset;
            while off + rec_size <= page.end_offset {
                let slice = &page.bytes[off..off + rec_size];
                let addr = Address::new(page.base.raw() + off as u64);
                off += rec_size;
                let Some((header, key, value)) = RecordRef::<K, V>::parse_bytes(slice) else {
                    break; // padding: rest of page is empty
                };
                if header.is_invalid() || header.is_merge() || header.is_tombstone() {
                    continue;
                }
                // Exact liveness: any newer record for this key above `addr`
                // supersedes it (deltas don't supersede their base).
                match self.newest_version_above(&key, addr, !header.is_delta(), session) {
                    Some(_) => {} // superseded
                    None => {
                        if self.copy_to_tail(&key, &value, header, session) {
                            rolled += 1;
                        }
                    }
                }
                session.refresh();
            }
        }
        self.truncate_until(truncate_to.min(until));
        rolled
    }

    /// Finds the newest record for `key` strictly above `bound`.
    /// `bases_only` ignores delta records (a delta above a base does not
    /// supersede the base). Blocking reads for the cold chain.
    fn newest_version_above(
        &self,
        key: &K,
        bound: Address,
        _bases_only: bool,
        session: &Session<K, V, F>,
    ) -> Option<Address> {
        let inner = &self.inner;
        let hash = hash_key(key);
        let slot = inner.index.find_tag(hash, Some(session.guard()))?;
        let mut addr = slot.observed().address();
        let mut fallbacks: Vec<Address> = Vec::new();
        loop {
            if crate::read_cache::is_rc(addr) {
                // Read-cache head: skip to the primary record it caches.
                match inner.rc.as_ref().and_then(|rc| rc.get(crate::read_cache::rc_untag(addr))) {
                    Some(p) => {
                        let rec = unsafe { RecordRef::<K, V>::from_raw(p) };
                        addr = rec.header().prev();
                        continue;
                    }
                    None => return None, // evicted mid-scan; compaction CAS will catch changes
                }
            }
            if !addr.is_valid() || addr <= bound || addr < inner.log.begin_address() {
                match fallbacks.pop() {
                    Some(a) => {
                        addr = a;
                        continue;
                    }
                    None => return None,
                }
            }
            let (header, rec_key) = match inner.log.get(addr) {
                Some(p) => {
                    let rec = unsafe { RecordRef::<K, V>::from_raw(p) };
                    (rec.header(), Some(rec.key()))
                }
                None => match self.read_record_blocking(addr) {
                    Some((h, k, _)) => (h, Some(k)),
                    None => (RecordHeader(INVALID_BIT | crate::record::LIVE_BIT), None),
                },
            };
            if header.is_merge() {
                if let Some(p) = inner.log.get(addr) {
                    fallbacks.push(unsafe { crate::record::MergeRecord::second_address(p) });
                }
                addr = header.prev();
                continue;
            }
            if !header.is_invalid() {
                if let Some(k) = rec_key {
                    if k == *key && !header.is_delta() {
                        return Some(addr);
                    }
                }
            }
            addr = header.prev();
        }
    }

    /// Synchronous record read (maintenance paths only).
    fn read_record_blocking(&self, addr: Address) -> Option<(RecordHeader, K, V)> {
        let bytes = self.inner.log.read_blocking(addr, RecordRef::<K, V>::size()).ok()?;
        RecordRef::<K, V>::parse_bytes(&bytes)
    }

    /// Re-appends `(key, value)` at the tail iff the entry is unchanged
    /// since the probe; a lost CAS means a fresh update superseded the old
    /// record anyway, so dropping it is correct.
    fn copy_to_tail(&self, key: &K, value: &V, header: RecordHeader, session: &Session<K, V, F>) -> bool {
        let at = self.inner.index.find_or_create_tag(hash_key(key), Some(session.guard()));
        session.publish(at, key, WriteKind::Roll { delta: header.is_delta() }, |v| *v = *value)
    }
}

//! Log garbage collection (Appendix C).
//!
//! Two mechanisms, as in the paper:
//!
//! * **Expiration** — [`FasterKv::truncate_until`] drops a log prefix
//!   outright ("data stored in cloud providers often has a maximum time to
//!   live"). The begin address moves at once; the device bytes below it go
//!   once every thread has seen the move. A walk that reaches below it
//!   re-probes the key's index entry: if the entry moved (compaction rolled
//!   the key above `begin` meanwhile) the walk restarts there, otherwise the
//!   chain ends. Dangling index entries are removed lazily, when a delete
//!   meets one.
//! * **Roll to tail** — [`FasterKv::compact_until`] scans a prefix and
//!   copies *live* key-values to the tail before truncating. Liveness is
//!   exact: a record is copied only if no newer base or tombstone for its
//!   key exists above it, checked by the same chain walk reads use — every
//!   merge fork followed, blocking device reads for the cold part
//!   (compaction is a maintenance path). The roll carries what the walk
//!   saw: a base folds the deltas above it (the copy lands above them),
//!   once they are read-only, and it publishes only over the entry the walk
//!   started from.

use crate::record::RecordRef;
use crate::session::{Step, Walk, WriteKind};
use crate::{hash_key, FasterKv, Functions, Session};
use faster_hlog::LogScanner;
use faster_index::CreateOutcome;
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
        self.inner.log.shift_begin_address(addr, None);
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
                if self.roll(&key, addr, value, header.is_delta(), session) {
                    rolled += 1;
                }
                session.refresh();
            }
        }
        inner.log.shift_begin_address(truncate_to.min(until), Some(session.guard()));
        rolled
    }

    /// Rolls the record at `bound`, holding `value`, to the tail if it is
    /// live (Appendix C): no newer base or tombstone for `key` sits above
    /// it (a delta does not supersede a base). The walk follows every merge
    /// fork, reading the chain's cold part from storage. The copy lands
    /// above the deltas the walk passed, so a base rolls with them folded
    /// in (§6.3); and it publishes only over the entry the walk started
    /// from — if a write moved the entry since, the record is judged again.
    fn roll(&self, key: &K, bound: Address, value: V, delta: bool, session: &Session<K, V, F>) -> bool {
        let (log, f, hash) = (&self.inner.log, &self.inner.functions, hash_key(key));
        let above = Address::new(bound.raw() + 1);
        loop {
            let Some(head) = session.entry_address(hash) else { return false };
            let mut walk = Walk::new(head);
            let mut mutable = false;
            while let Some(view) = session.resolve_blocking(hash, &mut walk, above) {
                let (at, rec) = (walk.at(), view.get());
                match walk.step(rec, key) {
                    Step::Base | Step::Tombstone => return false,
                    Step::Delta if !delta => {
                        mutable |= at >= log.safe_ipu_boundary();
                        walk.fold(f, rec.read_value());
                    }
                    _ => {}
                }
            }
            if mutable {
                // An RMW may still update a folded delta in place, which
                // moves no entry. Once every thread has seen it read-only,
                // an RMW appends instead, and the walk is taken again.
                let to = log.shift_read_only_to_tail(Some(session.guard()));
                while log.safe_ipu_boundary() < to {
                    session.refresh();
                    std::thread::yield_now();
                }
                continue;
            }
            let rolled = walk.fold_onto(f, value);
            let Some(slot) = self.inner.index.find_tag(hash, Some(session.guard())) else {
                return false;
            };
            let kind = WriteKind::Roll { delta };
            if slot.observed().address() == head
                && session.publish(CreateOutcome::Found(slot), key, kind, |v| *v = rolled).is_some()
            {
                return true;
            }
        }
    }
}

//! Checkpointing and recovery without a write-ahead log (§6.5).
//!
//! "The basic idea is that we can treat HybridLog as our WAL."
//!
//! A checkpoint records the tail offset **t1**, takes a *fuzzy* (lock-free,
//! non-quiescing) snapshot of the hash index, records the tail offset **t2**
//! after the snapshot completes, and then moves the read-only offset to t2 so
//! that everything up to t2 flushes to storage. All index mutations during
//! the fuzzy capture correspond only to records in `[t1, t2)` — in-place
//! updates never touch the index — so recovery replays exactly those records
//! over the restored index to make it consistent with log position t2.
//!
//! The resulting checkpoint is *incremental* by construction: only data
//! written since the previous checkpoint needs flushing, with no bitmap
//! bookkeeping — "FASTER achieves this by organizing data differently."
//!
//! ## One path per step
//!
//! [`FasterKv::checkpoint`] hands back a [`CheckpointData`] only once the log
//! through t2 is durable; a failed flush or barrier is an error, never a
//! checkpoint. [`FasterKv::recover`] goes through the same constructor as a
//! fresh store: it restores the index, reopens the log at t2, installs the
//! hooks the config asks for (read cache included), and replays `[t1, t2)`.
//! Committing the data atomically with a fallback chain is
//! [`crate::ckpt_manager`]'s job.
//!
//! ## Consistency caveat (verbatim from the paper)
//!
//! In-place updates can violate monotonicity across a checkpoint: an update
//! r1 may modify a location above t2 while a later r2 modifies one below.
//! The paper sketches epoch-coordinated version switching to restore
//! monotonicity and leaves it as future work; this implementation matches
//! the paper's delivered semantics and documents the caveat.

use crate::record::RecordRef;
use crate::{FasterKv, FasterKvConfig, Functions};
use faster_hlog::LogScanner;
use faster_index::{CreateOutcome, IndexCheckpoint};
use faster_storage::{Device, IoError};
use faster_util::{Address, Pod};
use std::sync::Arc;

const MAGIC: u64 = 0x4641_5354_4552_4B56; // "FASTERKV"

/// Why a checkpoint could not be persisted, parsed, or recovered. Typed so
/// callers (and the fault sweep) can distinguish "the newest generation was
/// corrupt and recovery fell back" from "nothing on this device is
/// recoverable".
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The byte stream is structurally truncated or inconsistent (shorter
    /// than a header, or its internal lengths disagree with its size): the
    /// signature of a torn or partially-persisted write.
    Torn,
    /// The magic number does not match: these bytes were never a checkpoint
    /// (or the region was overwritten wholesale).
    BadMagic,
    /// The layout is intact but the checksum disagrees: bit rot or a torn
    /// interior write.
    ChecksumMismatch,
    /// The device failed the read or write itself.
    Io(IoError),
    /// No manifest slot / generation chain yields a fully-valid checkpoint:
    /// there is nothing to recover from.
    NoValidGeneration,
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Torn => write!(f, "checkpoint bytes torn or truncated"),
            CheckpointError::BadMagic => write!(f, "checkpoint magic mismatch"),
            CheckpointError::ChecksumMismatch => write!(f, "checkpoint checksum mismatch"),
            CheckpointError::Io(e) => write!(f, "checkpoint I/O failed: {e}"),
            CheckpointError::NoValidGeneration => {
                write!(f, "no fully-valid checkpoint generation found")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<IoError> for CheckpointError {
    fn from(e: IoError) -> Self {
        CheckpointError::Io(e)
    }
}

/// A completed checkpoint: everything needed to rebuild the store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointData {
    /// Tail offset when the fuzzy index capture began.
    pub t1: Address,
    /// Tail offset when the fuzzy index capture completed; the recovered
    /// store is consistent with the log up to exactly this position.
    pub t2: Address,
    /// Log begin address (GC frontier) at checkpoint time.
    pub begin: Address,
    /// The fuzzy index snapshot.
    pub index: IndexCheckpoint,
}

impl CheckpointData {
    /// Serializes: magic | t1 | t2 | begin | index-bytes-len | index bytes |
    /// checksum. The trailing checksum covers every preceding byte, so any
    /// torn write, truncation, or bit rot of a persisted checkpoint is
    /// detected at [`CheckpointData::from_bytes`] instead of silently
    /// recovering a corrupt store.
    pub fn to_bytes(&self) -> Vec<u8> {
        let idx = self.index.to_bytes();
        let mut out = Vec::with_capacity(48 + idx.len());
        out.extend_from_slice(&MAGIC.to_le_bytes());
        out.extend_from_slice(&self.t1.raw().to_le_bytes());
        out.extend_from_slice(&self.t2.raw().to_le_bytes());
        out.extend_from_slice(&self.begin.raw().to_le_bytes());
        out.extend_from_slice(&(idx.len() as u64).to_le_bytes());
        out.extend_from_slice(&idx);
        let sum = faster_util::hash_bytes(&out);
        out.extend_from_slice(&sum.to_le_bytes());
        out
    }

    /// Parses serialized checkpoint bytes. Never panics, never yields a
    /// partially-parsed value; the error distinguishes truncation/tearing
    /// from overwrite from bit rot so recovery can report *why* a generation
    /// was skipped.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CheckpointError> {
        if bytes.len() < 48 {
            return Err(CheckpointError::Torn);
        }
        let (body, sum_bytes) = bytes.split_at(bytes.len() - 8);
        let stored = u64::from_le_bytes(sum_bytes.try_into().unwrap());
        let rd = |i: usize| u64::from_le_bytes(body[i..i + 8].try_into().unwrap());
        // Magic is checked before the checksum: a region that was never a
        // checkpoint reports BadMagic even though its checksum (of garbage)
        // also fails.
        if rd(0) != MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        if faster_util::hash_bytes(body) != stored {
            return Err(CheckpointError::ChecksumMismatch);
        }
        let len = rd(32) as usize;
        if body.len() != 40 + len {
            return Err(CheckpointError::Torn);
        }
        Ok(Self {
            t1: Address::new(rd(8) & Address::MASK),
            t2: Address::new(rd(16) & Address::MASK),
            begin: Address::new(rd(24) & Address::MASK),
            index: IndexCheckpoint::from_bytes(&body[40..]).ok_or(CheckpointError::Torn)?,
        })
    }
}

impl<K: Pod + Eq, V: Pod, F: Functions<K, V>> FasterKv<K, V, F> {
    /// Takes a checkpoint (§6.5). Runs in the background of concurrent
    /// operations — no quiescing — but does block until the log through t2
    /// is durable, which requires active sessions to keep refreshing their
    /// epochs (they do, automatically, every `refresh_interval` ops).
    ///
    /// `Ok` means `[begin, t2)` reached the device: a page flush that failed
    /// for good during the call, or a failed log barrier, is
    /// [`CheckpointError::Io`] — the log cannot back that data.
    ///
    /// Call from a maintenance thread that holds **no idle session**: the
    /// durability wait is epoch-gated, and this thread's own unrefreshed
    /// guard would stall it (see the `Session` liveness contract).
    pub fn checkpoint(&self) -> Result<CheckpointData, CheckpointError> {
        let inner = &self.inner;
        let failures_before = inner.log.flush_failures();
        let t1 = inner.log.tail_address();
        let mut index = inner.index.checkpoint();
        // Appendix D: "Index checkpoints need to overwrite these [read-cache]
        // addresses with addresses on the primary log." Resolve tagged
        // entries through the cache record's prev pointer.
        if let Some(rc) = &inner.rc {
            for (_bucket, raw) in index.entries.iter_mut() {
                let e = faster_index::HashBucketEntry(*raw);
                let addr = e.address();
                if crate::read_cache::is_rc(addr) {
                    let primary = rc
                        .get(crate::read_cache::rc_untag(addr))
                        .map(|p| {
                            let rec = unsafe { RecordRef::<K, V>::from_raw(p) };
                            rec.header().prev()
                        })
                        .unwrap_or(Address::INVALID);
                    *raw = if primary.is_valid() {
                        faster_index::HashBucketEntry::new(primary, e.tag(), false).0
                    } else {
                        // Evicted during capture: the hook already restored
                        // the live entry; recovery replay covers the rest.
                        0
                    };
                }
            }
            index.entries.retain(|&(_, raw)| raw != 0);
        }
        let t2 = inner.log.tail_address();
        // Flush through (at least) t2.
        inner.log.shift_read_only_to_tail(None);
        // Wait for the safe-read-only trigger to cover t2, then for the
        // device writes to land.
        while inner.log.safe_read_only_address() < t2 {
            // If no sessions are active the trigger fires via bump_with
            // immediately; otherwise their refreshes drive it.
            std::thread::yield_now();
        }
        // Flush-retry chains re-submit after a barrier they raced with;
        // quiesce first so the barrier actually covers every attempt (and no
        // stale partial-page retry can land after a later full-page flush).
        inner.log.wait_flush_quiesced();
        inner.log.flush_barrier()?;
        if inner.log.flush_failures() != failures_before {
            return Err(CheckpointError::Io(IoError::Failed(
                "log flush failed during checkpoint".into(),
            )));
        }
        Ok(CheckpointData { t1, t2, begin: inner.log.begin_address(), index })
    }

    /// Rebuilds a store from a checkpoint over the surviving `device`
    /// (§6.5 recovery).
    ///
    /// The fuzzy index snapshot is made consistent with log position t2 by
    /// scanning records in `[t1, t2)` in order and re-pointing each record's
    /// `(offset, tag)` entry at the newest such record — exactly the
    /// recovery rule of §6.5. Updates after t2 are lost (they were never
    /// durable), satisfying the monotonicity discussion of §6.5. The
    /// recovered store runs the read cache `cfg` asks for: the snapshot
    /// holds primary-log addresses only (Appendix D).
    ///
    /// Panics if `cfg.wal` is set; a WAL store recovers through
    /// [`crate::ckpt_manager::recover_store_with_wal`].
    pub fn recover(
        cfg: FasterKvConfig,
        functions: F,
        device: Arc<dyn Device>,
        data: &CheckpointData,
    ) -> Self {
        assert!(cfg.wal.is_none(), "cfg.wal set: use ckpt_manager::recover_store_with_wal");
        Self::build(cfg, functions, device, None, Some(data))
    }

    /// §6.5 replay: walk `[t1, t2)` and update the fuzzy index entries.
    pub(crate) fn replay(&self, t1: Address, t2: Address) {
        let inner = &self.inner;
        let rec_size = RecordRef::<K, V>::size();
        for page in LogScanner::new(&inner.log, t1, t2) {
            let page = match page {
                Ok(page) => page,
                // A checksum-failed page ends the trustworthy prefix:
                // records past it may depend on state the corrupt page held,
                // so replay truncates to the last-valid prefix rather than
                // skipping over the hole.
                Err(IoError::Corrupt { .. }) => break,
                Err(_) => continue,
            };
            let mut off = page.start_offset;
            while off + rec_size <= page.end_offset {
                let Some((header, key, _v)) =
                    RecordRef::<K, V>::parse_bytes(&page.bytes[off..off + rec_size])
                else {
                    // Zero header: page padding — nothing later on this page.
                    break;
                };
                off += rec_size;
                if header.is_invalid() || header.is_merge() {
                    continue;
                }
                let addr = Address::new(page.base.raw() + (off - rec_size) as u64);
                let hash = crate::hash_key(&key);
                match inner.index.find_or_create_tag(hash, None) {
                    CreateOutcome::Found(mut slot) => {
                        // Records scan in address order: the newest record in
                        // [t1, t2) for this tag wins.
                        if slot.observed().address() < addr {
                            let _ = slot.cas_address(addr);
                        }
                    }
                    CreateOutcome::Created(created) => {
                        created.finalize(addr);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faster_index::IndexCheckpoint;

    #[test]
    fn checkpoint_bytes_round_trip() {
        let data = CheckpointData {
            t1: Address::new(1000),
            t2: Address::new(2000),
            begin: Address::new(64),
            index: IndexCheckpoint { k_bits: 8, tag_bits: 15, entries: vec![(1, 2), (3, 4)] },
        };
        let bytes = data.to_bytes();
        assert_eq!(CheckpointData::from_bytes(&bytes).unwrap(), data);
        assert_eq!(CheckpointData::from_bytes(&bytes[..20]), Err(CheckpointError::Torn));
        // Flipping a magic byte reports BadMagic; flipping a payload byte
        // reports ChecksumMismatch.
        let mut bad = bytes.clone();
        bad[0] ^= 1;
        assert_eq!(CheckpointData::from_bytes(&bad), Err(CheckpointError::BadMagic));
        let mut bad = bytes.clone();
        bad[9] ^= 1;
        assert_eq!(CheckpointData::from_bytes(&bad), Err(CheckpointError::ChecksumMismatch));
        // Any truncation that still leaves a header must also fail.
        assert!(CheckpointData::from_bytes(&bytes[..bytes.len() - 4]).is_err());
    }
}

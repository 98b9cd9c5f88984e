//! Atomic multi-generation checkpoint commit with a recovery fallback chain.
//!
//! [`FasterKv::checkpoint`] produces a blob (§6.5); persisting that blob used
//! to be the caller's problem, and an in-place overwrite of "the" checkpoint
//! file dies to a crash mid-write: the torn newest blob fails
//! [`CheckpointData::from_bytes`] and nothing older survives. This module
//! makes checkpoint persistence atomic under arbitrary crash points and keeps
//! a configurable chain of older *generations* to fall back to.
//!
//! ## Device layout
//!
//! The manager owns a device (separate from the log device) laid out as:
//!
//! ```text
//! offset 0        : manifest slot 0   (MANIFEST_SLOT_SIZE bytes)
//! offset 4096     : manifest slot 1   (MANIFEST_SLOT_SIZE bytes)
//! offset 8192 ... : generation blobs  (sector-aligned, free-listed)
//! ```
//!
//! ## Commit protocol (crash-atomic, no rename dependence)
//!
//! 1. Ensure the log itself is durable through `t2`
//!    ([`FasterKv::checkpoint`] — a flush that failed must not produce a
//!    committed generation).
//! 2. Write the new generation's blob into fresh (or recycled) blob space —
//!    never over a live generation — and issue a flush barrier.
//! 3. Write the updated manifest (all retained generations + the new one,
//!    with seqno `n+1`) to slot `(n+1) % 2` — the slot the *previous* commit
//!    did **not** write — and issue a flush barrier.
//! 4. Only then update in-memory state and recycle blob space of generations
//!    that retention dropped.
//!
//! [`CheckpointManager::commit`] is steps 2–4 and the only writer of the
//! manifest; [`CheckpointManager::checkpoint_store`] is step 1 plus `commit`.
//! Retention always rides in that manifest write: the slot flip that adds
//! the new generation also drops the oldest beyond `retain`.
//!
//! A crash before step 3 completes leaves the previous manifest (and every
//! generation it lists) fully intact: the torn slot simply loses the
//! checksum arbitration. A crash after step 3's write persists is a
//! committed generation. There is no window in which both slots are torn
//! unless the device loses acknowledged writes, which is outside the fault
//! model (and the paper's).
//!
//! ## Recovery arbitration (last-valid-wins)
//!
//! Read both slots; a slot is valid iff it reads back, carries the manifest
//! magic, and checksum-verifies. Among valid slots the higher seqno wins.
//! Candidate generations are then tried newest-first (deduplicated across
//! slots); the first whose blob reads back, checksum-matches its manifest
//! record, and parses via [`CheckpointData::from_bytes`] is the recovery
//! point. Anything newer is reported as skipped ([`RecoveredGeneration`])
//! and dropped from the chain. If nothing survives:
//! [`CheckpointError::NoValidGeneration`].
//!
//! ## GC interaction
//!
//! Falling back to generation G replays the log from `G.t1`, and reads may
//! touch anything at or above `G.begin` — so the log must never be truncated
//! above the `begin` of the *oldest retained* generation. Use
//! [`CheckpointManager::gc_truncate`] instead of raw
//! [`FasterKv::truncate_until`]; it clamps to
//! [`CheckpointManager::safe_truncation_bound`] and debug-asserts the
//! invariant for every retained generation.

use crate::checkpoint::{CheckpointData, CheckpointError};
use crate::{FasterKv, FasterKvConfig, Functions};
use faster_storage::Device;
use faster_util::{Address, Pod};
use std::sync::{Arc, Mutex};

const MANIFEST_MAGIC: u64 = u64::from_le_bytes(*b"FASTERMF");
/// Size reserved for each of the two manifest slots.
pub const MANIFEST_SLOT_SIZE: u64 = 4096;
/// First byte of the generation-blob region.
pub const BLOB_REGION_BASE: u64 = 2 * MANIFEST_SLOT_SIZE;
const GEN_REC_SIZE: usize = 64;
const MANIFEST_HEADER: usize = 24; // magic | seqno | count
/// Hard cap on retained generations: what fits in one manifest slot.
pub const MAX_GENERATIONS: usize =
    (MANIFEST_SLOT_SIZE as usize - MANIFEST_HEADER - 8) / GEN_REC_SIZE;

/// Retention policy for the generation chain.
#[derive(Debug, Clone, Copy)]
pub struct CheckpointConfig {
    /// How many committed generations to keep recoverable (≥ 1, ≤
    /// [`MAX_GENERATIONS`]). Each commit drops the oldest beyond it in the
    /// same atomic manifest write that adds the new one.
    pub retain: usize,
}

impl Default for CheckpointConfig {
    fn default() -> Self {
        Self { retain: 4 }
    }
}

/// One committed generation as recorded in the manifest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GenerationMeta {
    /// Monotonic generation number (never reused).
    pub gen: u64,
    /// Byte offset of the blob on the checkpoint device.
    pub blob_offset: u64,
    /// Exact blob length in bytes.
    pub blob_len: u64,
    /// `hash_bytes` of the blob, recorded at commit; recovery re-verifies.
    pub blob_checksum: u64,
    /// Copied from the [`CheckpointData`] so GC clamping and fallback
    /// planning never need to read the blob.
    pub t1: Address,
    pub t2: Address,
    pub begin: Address,
    /// WAL truncation point: every WAL record with LSN ≤ this is already
    /// reflected in the generation's state, so recovery to this generation
    /// replays only the WAL suffix strictly above it. 0 = no WAL coverage
    /// (LSNs start at 1), meaning replay the whole surviving WAL.
    pub wal_lsn: u64,
}

/// What recovery arbitration decided.
#[derive(Debug, Clone)]
pub struct RecoveredGeneration {
    /// The generation recovered to.
    pub gen: u64,
    /// Its checkpoint payload, already parsed and verified.
    pub data: CheckpointData,
    /// WAL truncation point this generation recorded at commit: recovery
    /// replays only WAL records with LSN strictly above it (0 = replay
    /// everything / the store ran without a WAL).
    pub wal_lsn: u64,
    /// Newer generations that were visible but unrecoverable, newest first,
    /// with why each was skipped.
    pub skipped: Vec<(u64, CheckpointError)>,
    /// Total distinct generations visible across both manifest slots.
    pub candidates: usize,
}

impl RecoveredGeneration {
    /// Number of fallback steps taken (0 = newest generation recovered).
    pub fn fallbacks(&self) -> usize {
        self.skipped.len()
    }
}

struct ManagerState {
    /// Seqno of the last committed manifest (0 = none yet).
    seqno: u64,
    next_gen: u64,
    /// Retained generations, oldest first.
    generations: Vec<GenerationMeta>,
    /// Blob-region high-water mark.
    cursor: u64,
    /// Recycled blob extents `(offset, aligned_len)`, first-fit allocated.
    free: Vec<(u64, u64)>,
}

/// Manages checkpoint generations on a dedicated device. See module docs for
/// the commit protocol and arbitration rules.
pub struct CheckpointManager {
    device: Arc<dyn Device>,
    /// `CheckpointConfig::retain`, clamped to `1..=MAX_GENERATIONS`.
    retain: usize,
    state: Mutex<ManagerState>,
}

impl CheckpointManager {
    /// A fresh manager on an empty (or to-be-overwritten) device. Nothing is
    /// written until the first [`commit`](Self::commit).
    pub fn new(device: Arc<dyn Device>, cfg: CheckpointConfig) -> Self {
        Self {
            device,
            retain: cfg.retain.clamp(1, MAX_GENERATIONS),
            state: Mutex::new(ManagerState {
                seqno: 0,
                next_gen: 1,
                generations: Vec::new(),
                cursor: BLOB_REGION_BASE,
                free: Vec::new(),
            }),
        }
    }

    /// The checkpoint device this manager writes to.
    pub fn device(&self) -> &Arc<dyn Device> {
        &self.device
    }

    /// Retained generations, oldest first.
    pub fn generations(&self) -> Vec<GenerationMeta> {
        self.state.lock().unwrap().generations.clone()
    }

    /// Seqno of the newest committed manifest (0 if none).
    pub fn seqno(&self) -> u64 {
        self.state.lock().unwrap().seqno
    }

    /// Checkpoints `store` and atomically commits the result as a new
    /// generation. `Ok(gen)` means the generation is durable: the log is
    /// flushed through its `t2`, the blob is flushed, and the manifest write
    /// was acknowledged behind a flush barrier. On `Err` the previous
    /// generation chain is untouched (on disk and in memory).
    pub fn checkpoint_store<K: Pod + Eq, V: Pod, F: Functions<K, V>>(
        &self,
        store: &FasterKv<K, V, F>,
    ) -> Result<u64, CheckpointError> {
        // WAL cutoff, sampled BEFORE the fuzzy checkpoint begins: any op
        // appended at or below the cutoff was applied to memory first and
        // is therefore below the checkpoint's t2 — fully captured. Ops
        // racing the checkpoint land above the cutoff and get replayed on
        // recovery; a racer may be both captured and replayed, which is
        // safe because WAL records are idempotent post-images (§10).
        let wal_cutoff = store.wal().map(|w| w.last_appended_lsn()).unwrap_or(0);
        let data = store.checkpoint()?;
        // GC/checkpoint invariant at birth: the log frontier cannot already
        // be above the begin this generation records.
        debug_assert!(
            store.log().begin_address() <= data.begin,
            "log frontier above a generation's begin at commit time"
        );
        let gen = self.commit(&data, wal_cutoff)?;
        // Reclaim WAL segments no retained generation can ever replay:
        // recovery falls back at most to the oldest retained generation,
        // which replays strictly above its own recorded cutoff.
        if let Some(wal) = store.wal() {
            if let Some(min) = self.generations().iter().map(|g| g.wal_lsn).min() {
                if min > 0 {
                    wal.truncate_below_lsn(min);
                }
            }
        }
        Ok(gen)
    }

    /// Commits an already-taken checkpoint as a new generation, recording
    /// `wal_lsn` as the WAL truncation point in the same atomic manifest
    /// slot write: recovery to this generation replays only WAL records
    /// strictly above `wal_lsn` (0 = no WAL coverage). See
    /// [`checkpoint_store`](Self::checkpoint_store) for the durability
    /// contract; this call trusts the caller that the log is durable
    /// through `data.t2`.
    pub fn commit(&self, data: &CheckpointData, wal_lsn: u64) -> Result<u64, CheckpointError> {
        let blob = data.to_bytes();
        let blob_len = blob.len() as u64;
        let blob_checksum = faster_util::hash_bytes(&blob);
        let sector = self.device.sector_size() as u64;

        let mut st = self.state.lock().unwrap();
        let offset = st.alloc_blob(blob_len, sector);
        if let Err(e) = self.device.write_blocking(offset, blob) {
            st.free_blob(offset, blob_len, sector);
            return Err(CheckpointError::Io(e));
        }
        // A failed barrier means the blob's durability is unknown: the
        // generation must not reach the manifest, and the previous chain
        // stays untouched on disk and in memory.
        if let Err(e) = self.device.flush_barrier() {
            st.free_blob(offset, blob_len, sector);
            return Err(CheckpointError::Io(e));
        }

        let gen = st.next_gen;
        let mut gens = st.generations.clone();
        gens.push(GenerationMeta {
            gen,
            blob_offset: offset,
            blob_len,
            blob_checksum,
            t1: data.t1,
            t2: data.t2,
            begin: data.begin,
            wal_lsn,
        });
        // Retention rides in the same atomic manifest write: the slot flip
        // that commits the new generation also drops the superseded one.
        let dropped: Vec<GenerationMeta> =
            gens.drain(..gens.len().saturating_sub(self.retain)).collect();

        let seqno = st.seqno + 1;
        let manifest = encode_manifest(seqno, &gens);
        if let Err(e) = self.device.write_blocking((seqno % 2) * MANIFEST_SLOT_SIZE, manifest) {
            st.free_blob(offset, blob_len, sector);
            return Err(CheckpointError::Io(e));
        }
        // Until this barrier succeeds the manifest write may not be durable:
        // the commit cannot be acknowledged, so in-memory state is not
        // advanced. (A crash may still have persisted the slot — recovery
        // arbitration handles that, same as a crash between write and ack.)
        if let Err(e) = self.device.flush_barrier() {
            st.free_blob(offset, blob_len, sector);
            return Err(CheckpointError::Io(e));
        }

        st.seqno = seqno;
        st.next_gen = gen + 1;
        st.generations = gens;
        for d in &dropped {
            st.free_blob(d.blob_offset, d.blob_len, sector);
        }
        Ok(gen)
    }

    /// Reads and fully verifies one retained generation's blob.
    pub fn load_generation(&self, gen: u64) -> Result<CheckpointData, CheckpointError> {
        let meta = self
            .generations()
            .into_iter()
            .find(|g| g.gen == gen)
            .ok_or(CheckpointError::NoValidGeneration)?;
        load_blob(&self.device, &meta)
    }

    /// Walks the manifest slots on `device` and recovers the newest fully
    /// valid generation (module docs: arbitration). The returned manager
    /// continues the seqno/generation sequence, with the chain truncated to
    /// the recovered generation and older.
    pub fn recover_latest(
        device: Arc<dyn Device>,
        cfg: CheckpointConfig,
    ) -> Result<(Self, RecoveredGeneration), CheckpointError> {
        let sector = device.sector_size() as u64;
        let mut slots: Vec<(u64, Vec<GenerationMeta>)> = Vec::new();
        for slot in 0..2u64 {
            let bytes = match device.read_blocking(slot * MANIFEST_SLOT_SIZE, MANIFEST_SLOT_SIZE as usize)
            {
                Ok(b) => b,
                Err(_) => continue, // unreadable slot = invalid slot
            };
            if let Ok(parsed) = decode_manifest(&bytes) {
                slots.push(parsed);
            }
        }
        slots.sort_by_key(|s| std::cmp::Reverse(s.0));
        let max_seqno = slots.first().map(|s| s.0).unwrap_or(0);

        // Merge candidates across slots, newer slot's record wins per gen.
        let mut candidates: Vec<GenerationMeta> = Vec::new();
        for (_seq, gens) in &slots {
            for m in gens {
                if !candidates.iter().any(|c| c.gen == m.gen) {
                    candidates.push(*m);
                }
            }
        }
        candidates.sort_by_key(|c| std::cmp::Reverse(c.gen)); // newest first

        // Blob space must never be handed out below anything any surviving
        // slot references, recoverable or not.
        let mut cursor = BLOB_REGION_BASE;
        let mut max_gen = 0u64;
        for c in &candidates {
            let alen = align_up(c.blob_len, sector);
            cursor = cursor.max(c.blob_offset + alen);
            max_gen = max_gen.max(c.gen);
        }

        let mut skipped: Vec<(u64, CheckpointError)> = Vec::new();
        let total = candidates.len();
        for (i, meta) in candidates.iter().enumerate() {
            match load_blob(&device, meta) {
                Ok(data) => {
                    // Chain = the recovered generation and everything older.
                    let mut retained: Vec<GenerationMeta> =
                        candidates[i..].iter().rev().copied().collect();
                    retained.sort_by_key(|g| g.gen);
                    let mgr = Self {
                        device,
                        retain: cfg.retain.clamp(1, MAX_GENERATIONS),
                        state: Mutex::new(ManagerState {
                            seqno: max_seqno,
                            next_gen: max_gen + 1,
                            generations: retained,
                            cursor,
                            free: Vec::new(),
                        }),
                    };
                    let rec = RecoveredGeneration {
                        gen: meta.gen,
                        data,
                        wal_lsn: meta.wal_lsn,
                        skipped,
                        candidates: total,
                    };
                    return Ok((mgr, rec));
                }
                Err(e) => skipped.push((meta.gen, e)),
            }
        }
        Err(CheckpointError::NoValidGeneration)
    }

    /// The highest log address GC may truncate to without orphaning any
    /// retained generation: the minimum `begin` across the chain. `None`
    /// when no generation is retained (GC unconstrained).
    pub fn safe_truncation_bound(&self) -> Option<Address> {
        let st = self.state.lock().unwrap();
        st.generations.iter().map(|g| g.begin.raw()).min().map(Address::new)
    }

    /// Checkpoint-aware log GC: truncates `store`'s log at `addr`, clamped
    /// so every retained generation stays replayable. Returns the address
    /// actually truncated to.
    pub fn gc_truncate<K: Pod + Eq, V: Pod, F: Functions<K, V>>(
        &self,
        store: &FasterKv<K, V, F>,
        addr: Address,
    ) -> Address {
        let clamped = match self.safe_truncation_bound() {
            Some(bound) => Address::new(addr.raw().min(bound.raw())),
            None => addr,
        };
        store.truncate_until(clamped);
        #[cfg(debug_assertions)]
        {
            let frontier = store.log().begin_address();
            for g in self.generations() {
                debug_assert!(
                    frontier <= g.begin,
                    "GC frontier {frontier:?} above retained generation {}'s begin {:?}",
                    g.gen,
                    g.begin
                );
            }
        }
        clamped
    }
}

/// What [`recover_store_with_wal`] hands back.
pub struct RecoveredStoreWithWal<K: Pod, V: Pod, F: Functions<K, V>> {
    /// The rebuilt store, WAL attached and accepting new appends.
    pub store: FasterKv<K, V, F>,
    /// Manager continuing the generation sequence.
    pub manager: CheckpointManager,
    /// The arbitration verdict; `None` when no generation had ever
    /// committed (the store recovered from the WAL alone).
    pub generation: Option<RecoveredGeneration>,
    /// WAL records replayed on top of the recovered checkpoint.
    pub wal_replayed: usize,
}

/// Recover a WAL-enabled store end-to-end (DESIGN.md §10): arbitrate the
/// checkpoint device to the newest valid generation (or an empty store when
/// none ever committed), rebuild the store over the surviving log device,
/// then replay the WAL suffix — every valid record with LSN strictly above
/// the recovered generation's cutoff, in LSN order, stopping at the first
/// torn or checksum-failing record. The resumed WAL is attached only after
/// replay, so replayed mutations never re-append. `store_cfg.wal` must be
/// set, and `functions` must not be mergeable (as for
/// [`FasterKv::new_with_wal`]).
pub fn recover_store_with_wal<K: Pod + Eq, V: Pod, F: Functions<K, V>>(
    store_cfg: FasterKvConfig,
    functions: F,
    log_device: Arc<dyn Device>,
    ckpt_device: Arc<dyn Device>,
    wal_device: Arc<dyn Device>,
    ckpt_cfg: CheckpointConfig,
) -> Result<RecoveredStoreWithWal<K, V, F>, CheckpointError> {
    let wal_cfg = store_cfg.wal.expect("recover_store_with_wal requires cfg.wal");
    assert!(!functions.is_mergeable(), "a WAL store refuses mergeable functions");
    // Checkpoint arbitration first (fallback chain); a store that never
    // committed a generation recovers to empty and replays the whole WAL.
    let (manager, generation) =
        match CheckpointManager::recover_latest(ckpt_device.clone(), ckpt_cfg) {
            Ok((mgr, rec)) => (mgr, Some(rec)),
            Err(CheckpointError::NoValidGeneration) => {
                (CheckpointManager::new(ckpt_device, ckpt_cfg), None)
            }
            Err(e) => return Err(e),
        };
    let recovery = generation.as_ref().map(|rec| &rec.data);
    let store = FasterKv::build(store_cfg, functions, log_device, None, recovery);
    let skip = generation.as_ref().map(|r| r.wal_lsn).unwrap_or(0);
    let (wal, records) = faster_wal::Wal::recover(
        wal_device,
        wal_cfg,
        store.metrics_registry().wal.clone(),
        skip,
    );
    let wal_replayed = records.len();
    {
        // Replay through an ordinary session — the WAL is not attached
        // yet, so nothing re-appends. Unknown payloads (codec skew) are
        // skipped rather than trusted.
        let session = store.start_session();
        for r in records {
            if let Some(op) = crate::walrec::decode::<K, V>(&r.payload) {
                session.replay_wal_op(op);
            }
        }
        session.complete_pending(true);
    }
    store
        .inner
        .wal
        .set(wal)
        .unwrap_or_else(|_| unreachable!("freshly built store already had a WAL"));
    Ok(RecoveredStoreWithWal { store, manager, generation, wal_replayed })
}

impl ManagerState {
    fn alloc_blob(&mut self, len: u64, sector: u64) -> u64 {
        let alen = align_up(len, sector);
        if let Some(i) = self.free.iter().position(|&(_, flen)| flen >= alen) {
            let (off, flen) = self.free[i];
            if flen == alen {
                self.free.remove(i);
            } else {
                self.free[i] = (off + alen, flen - alen);
            }
            return off;
        }
        let off = self.cursor;
        self.cursor += alen;
        off
    }

    fn free_blob(&mut self, off: u64, len: u64, sector: u64) {
        self.free.push((off, align_up(len, sector)));
    }
}

fn align_up(v: u64, align: u64) -> u64 {
    v.div_ceil(align) * align
}

/// Serializes a manifest into a full slot-sized buffer:
/// `magic | seqno | count | count × GenRec | checksum | zero padding`.
/// The checksum covers every byte before it.
fn encode_manifest(seqno: u64, gens: &[GenerationMeta]) -> Vec<u8> {
    assert!(gens.len() <= MAX_GENERATIONS, "generation count exceeds manifest capacity");
    let mut out = Vec::with_capacity(MANIFEST_SLOT_SIZE as usize);
    out.extend_from_slice(&MANIFEST_MAGIC.to_le_bytes());
    out.extend_from_slice(&seqno.to_le_bytes());
    out.extend_from_slice(&(gens.len() as u64).to_le_bytes());
    for g in gens {
        out.extend_from_slice(&g.gen.to_le_bytes());
        out.extend_from_slice(&g.blob_offset.to_le_bytes());
        out.extend_from_slice(&g.blob_len.to_le_bytes());
        out.extend_from_slice(&g.blob_checksum.to_le_bytes());
        out.extend_from_slice(&g.t1.raw().to_le_bytes());
        out.extend_from_slice(&g.t2.raw().to_le_bytes());
        out.extend_from_slice(&g.begin.raw().to_le_bytes());
        out.extend_from_slice(&g.wal_lsn.to_le_bytes());
    }
    let sum = faster_util::hash_bytes(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out.resize(MANIFEST_SLOT_SIZE as usize, 0);
    out
}

/// Parses one manifest slot. Any structural or checksum problem invalidates
/// the whole slot — arbitration then relies on the other one.
fn decode_manifest(bytes: &[u8]) -> Result<(u64, Vec<GenerationMeta>), CheckpointError> {
    if bytes.len() < MANIFEST_HEADER + 8 {
        return Err(CheckpointError::Torn);
    }
    let rd = |i: usize| u64::from_le_bytes(bytes[i..i + 8].try_into().unwrap());
    if rd(0) != MANIFEST_MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let seqno = rd(8);
    let count = rd(16) as usize;
    if count > MAX_GENERATIONS {
        return Err(CheckpointError::Torn);
    }
    let body_len = MANIFEST_HEADER + count * GEN_REC_SIZE;
    if bytes.len() < body_len + 8 {
        return Err(CheckpointError::Torn);
    }
    if faster_util::hash_bytes(&bytes[..body_len]) != rd(body_len) {
        return Err(CheckpointError::ChecksumMismatch);
    }
    let mut gens = Vec::with_capacity(count);
    for i in 0..count {
        let base = MANIFEST_HEADER + i * GEN_REC_SIZE;
        gens.push(GenerationMeta {
            gen: rd(base),
            blob_offset: rd(base + 8),
            blob_len: rd(base + 16),
            blob_checksum: rd(base + 24),
            t1: Address::new(rd(base + 32) & Address::MASK),
            t2: Address::new(rd(base + 40) & Address::MASK),
            begin: Address::new(rd(base + 48) & Address::MASK),
            wal_lsn: rd(base + 56),
        });
    }
    Ok((seqno, gens))
}

/// Reads one generation's blob and verifies it end to end: manifest
/// checksum over the raw bytes, then full [`CheckpointData::from_bytes`].
fn load_blob(device: &Arc<dyn Device>, meta: &GenerationMeta) -> Result<CheckpointData, CheckpointError> {
    let bytes = device.read_blocking(meta.blob_offset, meta.blob_len as usize)?;
    if faster_util::hash_bytes(&bytes) != meta.blob_checksum {
        return Err(CheckpointError::ChecksumMismatch);
    }
    CheckpointData::from_bytes(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use faster_index::IndexCheckpoint;
    use faster_storage::MemDevice;

    fn data(t1: u64, t2: u64, begin: u64) -> CheckpointData {
        CheckpointData {
            t1: Address::new(t1),
            t2: Address::new(t2),
            begin: Address::new(begin),
            index: IndexCheckpoint {
                k_bits: 8,
                tag_bits: 15,
                entries: vec![(t1, t2), (begin, t2 ^ t1)],
            },
        }
    }

    #[test]
    fn manifest_round_trip_and_corruption() {
        let gens = vec![
            GenerationMeta {
                gen: 3,
                blob_offset: BLOB_REGION_BASE,
                blob_len: 100,
                blob_checksum: 7,
                t1: Address::new(64),
                t2: Address::new(128),
                begin: Address::new(64),
                wal_lsn: 17,
            },
            GenerationMeta {
                gen: 4,
                blob_offset: BLOB_REGION_BASE + 512,
                blob_len: 100,
                blob_checksum: 8,
                t1: Address::new(128),
                t2: Address::new(256),
                begin: Address::new(64),
                wal_lsn: 42,
            },
        ];
        let bytes = encode_manifest(9, &gens);
        assert_eq!(bytes.len() as u64, MANIFEST_SLOT_SIZE);
        let (seqno, back) = decode_manifest(&bytes).unwrap();
        assert_eq!(seqno, 9);
        assert_eq!(back, gens);

        // Every single-byte corruption of the checksummed body invalidates
        // the slot (padding bytes are outside the checksum and don't).
        let body_len = MANIFEST_HEADER + gens.len() * GEN_REC_SIZE + 8;
        for i in [0usize, 8, 16, 24, body_len - 1] {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            assert!(decode_manifest(&bad).is_err(), "corruption at {i} undetected");
        }
        assert!(decode_manifest(&bytes[..40]).is_err());
        // Absurd count must not panic or over-read.
        let mut bad = bytes.clone();
        bad[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(decode_manifest(&bad).is_err());
    }

    #[test]
    fn commit_then_recover_single_generation() {
        let dev: Arc<dyn Device> = MemDevice::new(1);
        let mgr = CheckpointManager::new(dev.clone(), CheckpointConfig::default());
        let d1 = data(64, 128, 64);
        assert_eq!(mgr.commit(&d1, 0).unwrap(), 1);
        let (mgr2, rec) =
            CheckpointManager::recover_latest(dev, CheckpointConfig::default()).unwrap();
        assert_eq!(rec.gen, 1);
        assert_eq!(rec.data, d1);
        assert_eq!(rec.fallbacks(), 0);
        assert_eq!(mgr2.generations().len(), 1);
        assert_eq!(mgr2.seqno(), 1);
    }

    #[test]
    fn corrupt_newest_blob_falls_back_one_generation() {
        let dev: Arc<dyn Device> = MemDevice::new(1);
        let mgr = CheckpointManager::new(dev.clone(), CheckpointConfig::default());
        let d1 = data(64, 128, 64);
        let d2 = data(128, 256, 64);
        mgr.commit(&d1, 0).unwrap();
        mgr.commit(&d2, 0).unwrap();
        // Smash one byte of generation 2's blob directly on the device.
        let g2 = mgr.generations().into_iter().find(|g| g.gen == 2).unwrap();
        let mut blob = dev.read_blocking(g2.blob_offset, g2.blob_len as usize).unwrap();
        blob[10] ^= 0xff;
        dev.write_blocking(g2.blob_offset, blob).unwrap();

        let (mgr2, rec) =
            CheckpointManager::recover_latest(dev, CheckpointConfig::default()).unwrap();
        assert_eq!(rec.gen, 1);
        assert_eq!(rec.data, d1);
        assert_eq!(rec.fallbacks(), 1);
        assert_eq!(rec.skipped[0].0, 2);
        assert!(matches!(rec.skipped[0].1, CheckpointError::ChecksumMismatch));
        // The unrecoverable generation left the chain.
        assert_eq!(mgr2.generations().iter().map(|g| g.gen).collect::<Vec<_>>(), vec![1]);
        // But its generation number is not reused.
        let d3 = data(256, 512, 64);
        assert_eq!(mgr2.commit(&d3, 0).unwrap(), 3);
    }

    #[test]
    fn retention_drops_oldest_and_recycles_blob_space() {
        let dev: Arc<dyn Device> = MemDevice::new(1);
        let mgr = CheckpointManager::new(dev.clone(), CheckpointConfig { retain: 2 });
        for i in 1..=4u64 {
            mgr.commit(&data(64 * i, 64 * i + 32, 64), 0).unwrap();
        }
        let gens: Vec<u64> = mgr.generations().iter().map(|g| g.gen).collect();
        assert_eq!(gens, vec![3, 4]);
        // Blob space of dropped generations is recycled: with equal-size
        // blobs the region never holds more than retain + 1 blobs' worth.
        let g = mgr.generations()[0];
        let alen = align_up(g.blob_len, 512);
        assert!(
            g.blob_offset < BLOB_REGION_BASE + 3 * alen,
            "blob space not recycled: offset {}",
            g.blob_offset
        );
        // Recovery sees only the retained chain.
        let (_m, rec) =
            CheckpointManager::recover_latest(dev, CheckpointConfig::default()).unwrap();
        assert_eq!(rec.gen, 4);
        assert_eq!(rec.candidates, 3); // slot seq 3 lists {2,3}, slot seq 4 lists {3,4}
    }

    #[test]
    fn empty_device_reports_no_valid_generation() {
        let dev: Arc<dyn Device> = MemDevice::new(1);
        let res = CheckpointManager::recover_latest(dev, CheckpointConfig::default());
        assert!(matches!(res, Err(CheckpointError::NoValidGeneration)));
    }

    #[test]
    fn load_generation_verifies_and_finds() {
        let dev: Arc<dyn Device> = MemDevice::new(1);
        let mgr = CheckpointManager::new(dev, CheckpointConfig::default());
        let d1 = data(64, 128, 64);
        let g = mgr.commit(&d1, 0).unwrap();
        assert_eq!(mgr.load_generation(g).unwrap(), d1);
        assert!(matches!(
            mgr.load_generation(99),
            Err(CheckpointError::NoValidGeneration)
        ));
    }
}

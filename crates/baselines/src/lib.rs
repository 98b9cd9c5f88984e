//! # faster-baselines
//!
//! From-scratch Rust stand-ins for the comparison systems of §7.1. The
//! originals are closed-form C/C++ codebases; each stand-in reimplements the
//! *algorithmic design class* that the paper's comparison exercises, so the
//! relative ordering of results is attributable to design, not binding
//! overheads. DESIGN.md documents each substitution.
//!
//! * [`ShardMap`] — Intel TBB `concurrent_hash_map` stand-in: a lock-striped
//!   in-memory hash map with in-place updates. Pure in-memory; no storage,
//!   no recovery — like TBB in the paper.
//! * [`BTreeIndex`] — Masstree stand-in: a concurrent B+-tree with
//!   hand-over-hand lock coupling. Point operations pay tree traversal +
//!   ordering overhead, the property the comparison is about.
//! * [`MiniLsm`] — RocksDB stand-in: a log-structured merge store with a
//!   memtable, sorted runs on a storage device, bloom filters, and
//!   read-copy-update semantics (no in-place updates) — the design FASTER's
//!   update-intensive workloads punish.
//! * [`RedisLike`] — Redis stand-in: a single-threaded command loop accessed
//!   through pipelined client channels (§7.2.4's comparison shape).

pub mod btree;
pub mod lsm;
pub mod redis_like;
pub mod shard_map;

pub use btree::BTreeIndex;
pub use lsm::{MiniLsm, MiniLsmConfig};
pub use redis_like::{RedisClient, RedisLike};
pub use shard_map::ShardMap;

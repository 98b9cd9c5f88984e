//! # faster-util
//!
//! Shared low-level building blocks for the FASTER (SIGMOD 2018) reproduction:
//!
//! * [`align`] — cache-line sized/aligned wrappers used for the epoch table and
//!   hash buckets (the paper lays both out at 64-byte granularity, §2.3/§3.1).
//! * [`hash`] — the 64-bit key hash and its decomposition into the index
//!   *offset* (first `k` bits) and *tag* (next 15 bits) described in §3.1.
//! * [`pod`] — the [`pod::Pod`] marker trait for fixed-size, plain-old-data
//!   keys and values that may live inside log pages.
//! * [`prefetch`] — software prefetch hints (with portable no-op fallback)
//!   used by the batched-operation pipeline to overlap independent misses.
//! * [`rng`] — a tiny, dependency-free xorshift generator for hot paths where
//!   pulling in `rand` would be overkill (e.g. insert back-off jitter).
//! * [`region`] — anonymous memory regions, committed on first touch and
//!   mapped with 2 MiB pages, that hold the log buffer and the index buckets.
//! * [`backoff`] — exponential spin/yield/sleep backoff for slow-path wait
//!   loops (resize migration waits, I/O completion waits).
//!
//! Everything in this crate is `no_std`-shaped in spirit (no I/O, no locks;
//! [`region`]'s only system calls are the `mmap` family) and is used from
//! latch-free code, so nothing here may block — with the one documented
//! exception of [`backoff::Backoff::snooze`], which is exclusively for
//! slow-path waits.

pub mod address;
pub mod align;
pub mod backoff;
pub mod hash;
pub mod pod;
pub mod prefetch;
pub mod region;
pub mod rng;

pub use address::Address;
pub use align::{align_down, align_up, CacheAligned, CACHE_LINE_SIZE};
pub use backoff::Backoff;
pub use hash::{hash_bytes, hash_u64, KeyHash};
pub use pod::{bytes_of, pod_from_bytes, Pod};
pub use prefetch::{prefetch_read, prefetch_write};
pub use region::Region;
pub use rng::XorShift64;

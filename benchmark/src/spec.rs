//! The four workloads. Their names are the contract later issues cite; the
//! `why` strings are the ones `BENCHMARK.json` records.

use faster_core::{FasterKvConfig, WalConfig};
use faster_hlog::HLogConfig;
use faster_ycsb::{Distribution, Mix, WorkloadConfig};
use std::time::Duration;

/// Which mutation the write share of the mix sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteKind {
    /// `SET key value`: a blind upsert.
    Set,
    /// `INCRBY key n`: an RMW plus the server's read-back.
    Incr,
}

/// One workload: a dataset, a traffic mix and a pipeline depth.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub keys: u64,
    pub read_pct: u32,
    pub write: WriteKind,
    pub distribution: Distribution,
    /// Commands per window, per connection.
    pub depth: usize,
    pub log: HLogConfig,
}

/// Connections the one client thread multiplexes (fixed: the host has two
/// cores, one for the client and one for the server worker).
pub const CONNS: usize = 2;

/// 8 MiB of 64 KiB pages: about a sixth of `cold_b_d64`'s 48 MB of records.
const COLD_LOG: HLogConfig = HLogConfig {
    page_bits: 16,
    buffer_pages: 128,
    mutable_pages: 115,
    io_threads: 2,
};
/// The hlog default (64 × 1 MiB pages, 58 mutable), spelled out so a change
/// of the default shows as a diff here and not as a silent resize.
const MEM_LOG: HLogConfig = HLogConfig {
    page_bits: 20,
    buffer_pages: 64,
    mutable_pages: 58,
    io_threads: 2,
};

pub const ALL: [Spec; 4] = [
    Spec {
        name: "mem_a_d1",
        why: "YCSB-A zipf 1M keys in memory, depth 1: every command pays a socket round trip, a poll wake and a WAL group commit (server + wal; latency)",
        keys: 1_000_000,
        read_pct: 50,
        write: WriteKind::Set,
        distribution: Distribution::Zipfian { theta: 0.99 },
        depth: 1,
        log: MEM_LOG,
    },
    Spec {
        name: "mem_a_d64",
        why: "same data and mix at depth 64: commit waits and syscalls amortise, so RESP parse/encode, execute_batch, index probes and in-place updates dominate (CPU)",
        keys: 1_000_000,
        read_pct: 50,
        write: WriteKind::Set,
        distribution: Distribution::Zipfian { theta: 0.99 },
        depth: 64,
        log: MEM_LOG,
    },
    Spec {
        name: "cold_b_d64",
        why: "95/5 GET/SET uniform over 2M keys with 1/6 resident, depth 64: most GETs go pending through the device ring while SET appends seal, flush and evict pages (hlog + storage)",
        keys: 2_000_000,
        read_pct: 95,
        write: WriteKind::Set,
        distribution: Distribution::Uniform,
        depth: 64,
        log: COLD_LOG,
    },
    Spec {
        name: "mem_f_d16",
        why: "YCSB-F shape 50/50 GET/INCR zipf in memory, depth 16: each INCR ends an execute_batch segment and reads back, so short segments and the scalar rmw path carry the load",
        keys: 1_000_000,
        read_pct: 50,
        write: WriteKind::Incr,
        distribution: Distribution::Zipfian { theta: 0.99 },
        depth: 16,
        log: MEM_LOG,
    },
];

pub fn by_name(name: &str) -> Option<&'static Spec> {
    ALL.iter().find(|s| s.name == name)
}

impl Spec {
    /// The op-stream description handed to `faster-ycsb`; `seed` is the
    /// benchmark's `--seed`.
    pub fn workload(&self, seed: u64) -> WorkloadConfig {
        let read = self.read_pct as f64 / 100.0;
        let mix = match self.write {
            WriteKind::Set => Mix {
                read,
                upsert: 1.0 - read,
                rmw: 0.0,
            },
            WriteKind::Incr => Mix {
                read,
                upsert: 0.0,
                rmw: 1.0 - read,
            },
        };
        let mut cfg = WorkloadConfig::new(self.keys, mix, self.distribution);
        cfg.seed = seed;
        cfg
    }

    /// Store configuration: WAL on with no batching window (durable acks pay
    /// the device's barrier, nothing else); read cache and maintenance off.
    pub fn store_config(&self) -> FasterKvConfig {
        FasterKvConfig::for_keys(self.keys)
            .with_log(self.log)
            .with_wal(WalConfig {
                batch_window: Duration::ZERO,
                segment_size: 1 << 20,
            })
    }

    /// Bytes of records the dataset occupies in the log.
    pub fn dataset_bytes(&self) -> u64 {
        self.keys * 24
    }
}

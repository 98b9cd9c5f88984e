//! File-backed device using positioned reads/writes.
//!
//! This is the "point FASTER to a file on SSD" configuration of §7.1. I/O is
//! still asynchronous — requests are queued to the worker pool, which issues
//! `pread`/`pwrite` style positioned operations so concurrent requests never
//! contend on a shared cursor.

use crate::ring::{CompletionRing, Sqe, SqeCompletion, SqeOp};
use crate::worker::IoPool;
use crate::{Device, DeviceStats, IoError, StatCells};
use std::fs::{File, OpenOptions};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

#[cfg(unix)]
use std::os::unix::fs::FileExt;

struct State {
    file: File,
    extent: AtomicU64,
    begin: AtomicU64,
    stats: StatCells,
}

/// An asynchronous device backed by a real file.
pub struct FileDevice {
    state: Arc<State>,
    pool: IoPool,
}

impl FileDevice {
    /// Creates (truncating) a file-backed device at `path`.
    pub fn create<P: AsRef<Path>>(path: P, io_threads: usize) -> std::io::Result<Arc<Self>> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(Arc::new(Self {
            state: Arc::new(State {
                file,
                extent: AtomicU64::new(0),
                begin: AtomicU64::new(0),
                stats: StatCells::default(),
            }),
            pool: IoPool::new(io_threads),
        }))
    }

    /// Opens an existing device file (recovery path).
    pub fn open<P: AsRef<Path>>(path: P, io_threads: usize) -> std::io::Result<Arc<Self>> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        let len = file.metadata()?.len();
        Ok(Arc::new(Self {
            state: Arc::new(State {
                file,
                extent: AtomicU64::new(len),
                begin: AtomicU64::new(0),
                stats: StatCells::default(),
            }),
            pool: IoPool::new(io_threads),
        }))
    }
}

impl Device for FileDevice {
    fn submit(&self, sqe: Sqe) {
        let (op, completion) = sqe.into_parts();
        let state = self.state.clone();
        match op {
            SqeOp::Write { offset, data } => {
                state.stats.record_write(data.len());
                self.pool.submit(move || {
                    let res = state
                        .file
                        .write_all_at(&data, offset)
                        .map_err(|e| IoError::Failed(e.to_string()));
                    if res.is_ok() {
                        state.extent.fetch_max(offset + data.len() as u64, Ordering::SeqCst);
                    }
                    completion.complete(res.map(|()| data));
                });
            }
            SqeOp::Read { offset, len } => {
                state.stats.record_read(len);
                self.pool.submit(move || {
                    if offset < state.begin.load(Ordering::SeqCst) {
                        completion.complete(Err(IoError::Truncated { offset }));
                        return;
                    }
                    if offset + len as u64 > state.extent.load(Ordering::SeqCst) {
                        completion.complete(Err(IoError::OutOfRange { offset, len }));
                        return;
                    }
                    let mut buf = vec![0u8; len];
                    let res = state
                        .file
                        .read_exact_at(&mut buf, offset)
                        .map(|()| buf)
                        .map_err(|e| IoError::Failed(e.to_string()));
                    completion.complete(res);
                });
            }
        }
    }

    fn flush_barrier(&self) -> Result<(), IoError> {
        self.pool.barrier();
        // A failed sync means previously acknowledged writes may not be on
        // stable storage; surface it so commit protocols refuse to ack.
        self.state.file.sync_data().map_err(|e| IoError::Failed(e.to_string()))
    }

    fn submit_sync(&self, id: u64, ring: &Arc<CompletionRing>) {
        let completion = SqeCompletion::new(id, ring);
        let state = self.state.clone();
        self.pool.submit_ordered(move || {
            let synced = state.file.sync_data().map_err(|e| IoError::Failed(e.to_string()));
            completion.complete(synced.map(|()| Vec::new()));
        });
    }

    fn truncate_below(&self, offset: u64) {
        // Files cannot cheaply punch holes portably; we just refuse reads
        // below `begin` (the space-reclaim aspect is a device detail).
        self.state.begin.fetch_max(offset, Ordering::SeqCst);
    }

    fn stats(&self) -> DeviceStats {
        self.state.stats.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("faster-storage-test-{}-{}", std::process::id(), name));
        p
    }

    #[test]
    fn round_trip_and_reopen() {
        let path = tmp_path("round-trip");
        {
            let d = FileDevice::create(&path, 2).unwrap();
            d.write_blocking(0, b"hello world!".to_vec()).unwrap();
            d.write_blocking(4096, vec![0xAB; 512]).unwrap();
            assert_eq!(d.read_blocking(0, 5).unwrap(), b"hello");
            d.flush_barrier().unwrap();
            let ring = Arc::new(CompletionRing::new());
            d.submit_sync(7, &ring);
            assert_eq!(ring.wait_one(), Ok(Vec::new()));
        }
        {
            let d = FileDevice::open(&path, 1).unwrap();
            assert_eq!(d.read_blocking(4096, 512).unwrap(), vec![0xAB; 512]);
            assert_eq!(d.read_blocking(6, 5).unwrap(), b"world");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn bounds_and_truncate() {
        let path = tmp_path("bounds");
        let d = FileDevice::create(&path, 1).unwrap();
        d.write_blocking(0, vec![1; 1024]).unwrap();
        assert!(matches!(d.read_blocking(1000, 100), Err(IoError::OutOfRange { .. })));
        d.truncate_below(512);
        assert!(matches!(d.read_blocking(0, 16), Err(IoError::Truncated { .. })));
        assert_eq!(d.read_blocking(512, 16).unwrap(), vec![1; 16]);
        std::fs::remove_file(&path).unwrap();
    }
}

//! Offline `libc` shim (Linux): exactly the POSIX surface the workspace
//! uses. The network front-end multiplexes socket readiness and completion
//! ring wake-ups in one `poll(2)` park, with a non-blocking self-pipe as
//! the wake-up channel — `std` exposes neither `poll` nor `pipe`, so these
//! go straight to the C library. The store's big buffers are anonymous
//! mappings (`faster_util::Region`): `mmap`/`munmap` own them, `madvise`
//! asks for 2 MiB pages, and `mincore` reports which pages are resident.
#![allow(non_camel_case_types)]

pub type c_int = i32;
pub type c_uchar = u8;
pub type c_short = i16;
pub type c_void = std::ffi::c_void;
pub type nfds_t = u64;
pub type off_t = i64;
pub type size_t = usize;
pub type ssize_t = isize;

/// One descriptor's interest set and readiness, as `poll(2)` consumes it.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct pollfd {
    pub fd: c_int,
    pub events: c_short,
    pub revents: c_short,
}

pub const POLLIN: c_short = 0x001;
pub const POLLOUT: c_short = 0x004;
pub const POLLERR: c_short = 0x008;
pub const POLLHUP: c_short = 0x010;
pub const POLLNVAL: c_short = 0x020;

/// `pipe2` flag: both ends non-blocking from birth (Linux, O_NONBLOCK).
pub const O_NONBLOCK: c_int = 0o4000;

/// `mmap` protection bits.
pub const PROT_READ: c_int = 0x1;
pub const PROT_WRITE: c_int = 0x2;
/// `mmap` flags: a private, zero-filled mapping with no backing file.
pub const MAP_PRIVATE: c_int = 0x02;
pub const MAP_ANONYMOUS: c_int = 0x20;
/// What `mmap` returns on failure (`(void *) -1`).
pub const MAP_FAILED: *mut c_void = !0usize as *mut c_void;
/// `madvise` advice: back the range with transparent huge pages.
pub const MADV_HUGEPAGE: c_int = 14;

extern "C" {
    pub fn mmap(
        addr: *mut c_void,
        len: size_t,
        prot: c_int,
        flags: c_int,
        fd: c_int,
        offset: off_t,
    ) -> *mut c_void;
    pub fn munmap(addr: *mut c_void, len: size_t) -> c_int;
    pub fn madvise(addr: *mut c_void, len: size_t, advice: c_int) -> c_int;
    pub fn mincore(addr: *mut c_void, len: size_t, vec: *mut c_uchar) -> c_int;
    pub fn poll(fds: *mut pollfd, nfds: nfds_t, timeout: c_int) -> c_int;
    pub fn pipe2(fds: *mut c_int, flags: c_int) -> c_int;
    pub fn read(fd: c_int, buf: *mut c_void, count: size_t) -> ssize_t;
    pub fn write(fd: c_int, buf: *const c_void, count: size_t) -> ssize_t;
    pub fn close(fd: c_int) -> c_int;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipe_wakes_poll() {
        let mut fds = [0 as c_int; 2];
        assert_eq!(unsafe { pipe2(fds.as_mut_ptr(), O_NONBLOCK) }, 0);
        let [rd, wr] = fds;

        // Nothing written yet: poll times out with no readiness.
        let mut pfd = pollfd { fd: rd, events: POLLIN, revents: 0 };
        let n = unsafe { poll(&mut pfd, 1, 0) };
        assert_eq!(n, 0, "empty pipe polled readable");

        // One byte in the pipe flips POLLIN.
        let byte = 1u8;
        let w = unsafe { write(wr, &byte as *const u8 as *const c_void, 1) };
        assert_eq!(w, 1);
        let n = unsafe { poll(&mut pfd, 1, 1000) };
        assert_eq!(n, 1);
        assert_ne!(pfd.revents & POLLIN, 0);

        // Drain; the pipe is non-blocking so the second read errors instead
        // of parking.
        let mut buf = [0u8; 8];
        let r = unsafe { read(rd, buf.as_mut_ptr() as *mut c_void, buf.len()) };
        assert_eq!(r, 1);
        let r = unsafe { read(rd, buf.as_mut_ptr() as *mut c_void, buf.len()) };
        assert_eq!(r, -1, "drained non-blocking pipe must not park");

        unsafe {
            close(rd);
            close(wr);
        }
    }
}

//! Audited epoll FFI: the only unsafe code in the serving crate.
//!
//! The workspace has no crates.io access, so the event loop talks to the
//! kernel directly: `epoll_create1` / `epoll_ctl` / `epoll_wait` / `close`
//! are declared here against the libc that `std` already links.  Everything
//! unsafe is confined to this file (the workspace denies `unsafe_code`
//! everywhere else) and wrapped
//! in the safe [`Epoll`] type, whose invariant is simple: it owns one live
//! epoll file descriptor from `new()` until `Drop`, and every syscall it
//! makes passes either that fd, a caller-provided fd (the kernel validates
//! fds — a stale one is `EBADF`, not UB), or a pointer to stack memory that
//! outlives the call.
//!
//! ## ABI notes
//!
//! `struct epoll_event` is declared `__attribute__((packed))` on x86-64 (a
//! kernel ABI fossil: 12 bytes there, aligned 16 bytes elsewhere), hence
//! the conditional `repr(packed)`.  Readiness is level-triggered — the loop
//! re-polls until `WouldBlock`, so a short read cannot strand data.

#![expect(
    unsafe_code,
    reason = "epoll FFI (epoll_create1 / epoll_ctl / epoll_wait / close): `Epoll` owns one live fd from new() to Drop, every syscall passes that fd, a caller fd the kernel validates, or a pointer to stack memory outliving the call (DESIGN.md unsafe inventory)"
)]
// `net.rs`'s concurrency exception stops at this file.
#![deny(clippy::disallowed_types, clippy::disallowed_methods)]

use std::io;
use std::os::fd::RawFd;
use std::time::Duration;

/// Readiness: the fd has bytes to read (or a pending accept).
pub const EPOLLIN: u32 = 0x001;
/// Readiness: the fd can accept writes without blocking.
pub const EPOLLOUT: u32 = 0x004;
/// Condition: error on the fd; always reported, never requested.
pub const EPOLLERR: u32 = 0x008;
/// Condition: peer hung up; always reported, never requested.
pub const EPOLLHUP: u32 = 0x010;

const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;
const EPOLL_CLOEXEC: i32 = 0o2000000;

/// Mirror of the kernel's `struct epoll_event`.  `data` carries the
/// caller's opaque token back out of [`Epoll::wait`].
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Debug, Clone, Copy, Default)]
pub struct EpollEvent {
    /// Ready/requested event mask (`EPOLLIN` | ...).
    pub events: u32,
    /// The token registered with the fd.
    pub data: u64,
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    fn close(fd: i32) -> i32;
}

/// Owned epoll instance.  Register fds with a `u64` token, then [`wait`]
/// for readiness; the token comes back in each ready event.
///
/// [`wait`]: Epoll::wait
#[derive(Debug)]
pub struct Epoll {
    fd: RawFd,
}

impl Epoll {
    /// Create a new epoll instance (close-on-exec).
    ///
    /// # Errors
    /// The kernel's refusal verbatim (fd limit, memory).
    pub fn new() -> io::Result<Epoll> {
        // SAFETY: epoll_create1 takes no pointers; it either returns a new
        // fd we now own or -1 with errno set.
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Epoll { fd })
    }

    /// Start watching `fd` for `events`, tagging readiness with `token`.
    ///
    /// # Errors
    /// `EEXIST` if already registered, `EBADF` for a dead fd, etc.
    pub fn add(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, events, token)
    }

    /// Change the event mask (and token) of an already-registered `fd`.
    ///
    /// # Errors
    /// `ENOENT` if the fd was never registered, `EBADF` for a dead fd.
    pub fn modify(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, events, token)
    }

    /// Stop watching `fd`.
    ///
    /// # Errors
    /// `ENOENT` if the fd was never registered.
    pub fn del(&self, fd: RawFd) -> io::Result<()> {
        // Pre-2.6.9 kernels required a non-null event pointer for DEL, and
        // passing one is harmless everywhere since: reuse the ctl path.
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    fn ctl(&self, op: i32, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        let mut ev = EpollEvent {
            events,
            data: token,
        };
        // SAFETY: `ev` is a live, initialized EpollEvent on our stack for
        // the whole call; the kernel copies it during the syscall and keeps
        // no reference.  `self.fd` is the epoll fd this struct owns; `fd`
        // is caller-supplied and merely *validated* by the kernel (a bad fd
        // is an EBADF error, not UB).
        let rc = unsafe { epoll_ctl(self.fd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Block until at least one registered fd is ready, `timeout` elapses
    /// (`None` = forever), or a signal arrives (retried internally).
    /// Returns the ready prefix of `events`.
    ///
    /// # Errors
    /// Kernel errors other than `EINTR` verbatim.
    pub fn wait<'a>(
        &self,
        events: &'a mut [EpollEvent],
        timeout: Option<Duration>,
    ) -> io::Result<&'a [EpollEvent]> {
        let max = i32::try_from(events.len()).unwrap_or(i32::MAX).max(1);
        let timeout_ms = match timeout {
            // Round up so a 100µs timeout polls at 1ms instead of spinning.
            Some(t) => i32::try_from(t.as_millis().max(u128::from(u32::from(!t.is_zero()))))
                .unwrap_or(i32::MAX),
            None => -1,
        };
        loop {
            // SAFETY: `events` is a live &mut slice of plain-old-data
            // EpollEvent for the whole call; `max` never exceeds its
            // length, so the kernel writes only inside the slice.
            // `self.fd` is the epoll fd this struct owns.
            let rc = unsafe { epoll_wait(self.fd, events.as_mut_ptr(), max, timeout_ms) };
            if rc < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    continue;
                }
                return Err(err);
            }
            // INVARIANT-free bound: the kernel returns at most `max` ready
            // events, but clamp defensively before slicing.
            let n = usize::try_from(rc).unwrap_or(0).min(events.len());
            return Ok(&events[..n]);
        }
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        // SAFETY: `self.fd` is the epoll fd created in `new()`; it is
        // closed exactly once, here, and never used again.
        unsafe {
            close(self.fd);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;

    #[test]
    fn readiness_round_trip_on_a_real_socket() {
        let ep = Epoll::new().expect("epoll_create1");
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        listener.set_nonblocking(true).expect("nonblocking");
        ep.add(listener.as_raw_fd(), EPOLLIN, 42).expect("add");

        // Nothing pending: a zero-ish timeout reports no events.
        let mut events = [EpollEvent::default(); 8];
        let ready = ep
            .wait(&mut events, Some(Duration::from_millis(1)))
            .expect("wait");
        assert!(ready.is_empty(), "no connection yet");

        // A connecting client makes the listener readable, with our token.
        let addr = listener.local_addr().expect("addr");
        let mut client = TcpStream::connect(addr).expect("connect");
        let ready = ep
            .wait(&mut events, Some(Duration::from_secs(5)))
            .expect("wait");
        assert_eq!(ready.len(), 1);
        assert_eq!({ ready[0].data }, 42);
        assert_ne!({ ready[0].events } & EPOLLIN, 0);

        // Accept, watch the peer, and see data-readiness with its token.
        let (peer, _) = listener.accept().expect("accept");
        peer.set_nonblocking(true).expect("nonblocking");
        ep.add(peer.as_raw_fd(), EPOLLIN, 7).expect("add peer");
        client.write_all(b"ping").expect("write");
        let ready = ep
            .wait(&mut events, Some(Duration::from_secs(5)))
            .expect("wait");
        assert!(ready
            .iter()
            .any(|e| e.data == 7 && { e.events } & EPOLLIN != 0));

        // modify/del are accepted for a registered fd.
        ep.modify(peer.as_raw_fd(), EPOLLIN | EPOLLOUT, 7)
            .expect("modify");
        ep.del(peer.as_raw_fd()).expect("del");
        assert!(ep.del(peer.as_raw_fd()).is_err(), "double-del is ENOENT");
    }
}

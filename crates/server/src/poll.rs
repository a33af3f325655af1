//! Readiness polling: a thin, std-only FFI shim over `epoll(7)` with a
//! portable `poll(2)` fallback, plus the self-pipe waker and the
//! best-effort core pinning the shard event loops use.
//!
//! This is the only module in the workspace that speaks to the OS
//! directly: four `epoll` calls, `poll`, `pipe2`, `fcntl`, `write`,
//! `read`, `close`, and `sched_setaffinity` — all symbols libc already
//! exports to every Rust program, declared here by hand so the
//! workspace keeps building with zero external crates. Everything
//! above this module (the server's event loops, `bso_client`'s swarm
//! driver) sees only the safe [`Poller`]/[`Waker`] surface.
//!
//! Both backends are **level-triggered**: a socket with unread bytes
//! (or writable space, when write interest is armed) reports ready on
//! every [`Poller::wait`] until drained, so a loop that caps its
//! per-iteration batch for fairness simply sees the remainder on the
//! next wait. `epoll` is O(ready) per wait and is the default on
//! Linux; `poll` is O(registered) but exists on every Unix, and the
//! event loops run identically on either — CI exercises both.

#![allow(unsafe_code)] // the FFI shim; the rest of the crate stays safe

use std::io;
use std::net::TcpStream;
use std::os::fd::{AsRawFd, RawFd};
use std::sync::Arc;
use std::time::Duration;

/// Which readiness backend a [`Poller`] uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum PollBackend {
    /// `epoll` where available (Linux), otherwise `poll`.
    #[default]
    Auto,
    /// Force `epoll(7)`; [`Poller::new`] fails off Linux.
    Epoll,
    /// Force the portable `poll(2)` backend.
    Poll,
}

impl PollBackend {
    /// Parses `auto` / `epoll` / `poll` (as the loadgen `--backend`
    /// flag and `BSO_POLL_BACKEND` spell them).
    pub fn parse(s: &str) -> Option<PollBackend> {
        match s {
            "auto" => Some(PollBackend::Auto),
            "epoll" => Some(PollBackend::Epoll),
            "poll" => Some(PollBackend::Poll),
            _ => None,
        }
    }
}

impl std::fmt::Display for PollBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            PollBackend::Auto => "auto",
            PollBackend::Epoll => "epoll",
            PollBackend::Poll => "poll",
        })
    }
}

/// What a registered fd wants to be woken for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the fd has bytes to read (or a pending accept/EOF).
    pub readable: bool,
    /// Wake when the fd can accept writes again.
    pub writable: bool,
}

impl Interest {
    /// Read interest only — the steady state of an idle connection.
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };

    /// Read and write interest — a connection with a backed-up
    /// write buffer.
    pub const READ_WRITE: Interest = Interest {
        readable: true,
        writable: true,
    };
}

/// One readiness report from [`Poller::wait`].
#[derive(Clone, Copy, Debug)]
pub struct Event {
    /// The token the fd was registered with.
    pub token: u64,
    /// Bytes (or EOF) are waiting to be read.
    pub readable: bool,
    /// The fd can accept writes.
    pub writable: bool,
    /// The fd is in an error or hangup state; read from it to learn
    /// which (the read will return the error or EOF).
    pub error: bool,
}

// ------------------------------------------------------------------ FFI

#[cfg(unix)]
mod sys {
    use std::os::fd::RawFd;

    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;
    pub const POLLERR: i16 = 0x008;
    pub const POLLHUP: i16 = 0x010;

    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct PollFd {
        pub fd: RawFd,
        pub events: i16,
        pub revents: i16,
    }

    extern "C" {
        pub fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
        pub fn pipe2(fds: *mut RawFd, flags: i32) -> i32;
        pub fn close(fd: RawFd) -> i32;
        pub fn read(fd: RawFd, buf: *mut u8, count: usize) -> isize;
        pub fn write(fd: RawFd, buf: *const u8, count: usize) -> isize;
    }

    pub const O_NONBLOCK: i32 = 0o4000;
    pub const O_CLOEXEC: i32 = 0o2000000;
}

#[cfg(target_os = "linux")]
mod sys_epoll {
    use std::os::fd::RawFd;

    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;

    pub const EPOLL_CTL_ADD: i32 = 1;
    pub const EPOLL_CTL_DEL: i32 = 2;
    pub const EPOLL_CTL_MOD: i32 = 3;
    pub const EPOLL_CLOEXEC: i32 = 0o2000000;

    /// The kernel's `epoll_event`. Packed on x86-64 (the kernel ABI
    /// there has no padding between `events` and `data`); naturally
    /// aligned everywhere else, matching glibc's declaration.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    extern "C" {
        pub fn epoll_create1(flags: i32) -> RawFd;
        pub fn epoll_ctl(epfd: RawFd, op: i32, fd: RawFd, event: *mut EpollEvent) -> i32;
        pub fn epoll_wait(
            epfd: RawFd,
            events: *mut EpollEvent,
            maxevents: i32,
            timeout: i32,
        ) -> i32;
    }
}

#[cfg(target_os = "linux")]
mod sys_affinity {
    extern "C" {
        pub fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
}

fn timeout_ms(timeout: Option<Duration>) -> i32 {
    match timeout {
        None => -1,
        // Round up so a 100µs request doesn't busy-spin as 0ms.
        Some(d) => i32::try_from(d.as_millis().max(1).min(i32::MAX as u128)).unwrap_or(i32::MAX),
    }
}

// ------------------------------------------------------------------ Poller

/// A readiness queue over one of the [`PollBackend`]s.
///
/// Register fds with a caller-chosen `token`; [`Poller::wait`] reports
/// which tokens are ready. Level-triggered on both backends.
pub struct Poller {
    imp: Imp,
}

enum Imp {
    #[cfg(target_os = "linux")]
    Epoll(Epoll),
    Poll(PollTable),
}

impl Poller {
    /// Opens a readiness queue on the requested backend.
    ///
    /// # Errors
    ///
    /// OS errors creating the epoll instance; `Unsupported` when
    /// `epoll` is forced on a platform without it.
    pub fn new(backend: PollBackend) -> io::Result<Poller> {
        match backend {
            #[cfg(target_os = "linux")]
            PollBackend::Auto | PollBackend::Epoll => Ok(Poller {
                imp: Imp::Epoll(Epoll::new()?),
            }),
            #[cfg(not(target_os = "linux"))]
            PollBackend::Epoll => Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "epoll backend requires Linux",
            )),
            _ => Ok(Poller {
                imp: Imp::Poll(PollTable::default()),
            }),
        }
    }

    /// The backend actually in use.
    pub fn backend(&self) -> &'static str {
        match self.imp {
            #[cfg(target_os = "linux")]
            Imp::Epoll(_) => "epoll",
            Imp::Poll(_) => "poll",
        }
    }

    /// Starts watching `fd` with the given interest.
    ///
    /// # Errors
    ///
    /// OS errors from `epoll_ctl` (the `poll` backend cannot fail).
    pub fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        match &mut self.imp {
            #[cfg(target_os = "linux")]
            Imp::Epoll(e) => e.ctl(sys_epoll::EPOLL_CTL_ADD, fd, token, interest),
            Imp::Poll(t) => {
                t.entries.push(PollEntry {
                    fd,
                    token,
                    interest,
                });
                Ok(())
            }
        }
    }

    /// Changes the interest set of an already-registered `fd`.
    ///
    /// # Errors
    ///
    /// As [`Poller::register`]; `NotFound` if the fd is unknown to the
    /// `poll` backend.
    pub fn reregister(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        match &mut self.imp {
            #[cfg(target_os = "linux")]
            Imp::Epoll(e) => e.ctl(sys_epoll::EPOLL_CTL_MOD, fd, token, interest),
            Imp::Poll(t) => {
                let entry =
                    t.entries.iter_mut().find(|e| e.fd == fd).ok_or_else(|| {
                        io::Error::new(io::ErrorKind::NotFound, "fd not registered")
                    })?;
                entry.token = token;
                entry.interest = interest;
                Ok(())
            }
        }
    }

    /// Stops watching `fd`. Must be called *before* the fd is closed
    /// (the `poll` backend would otherwise keep polling a dead slot).
    ///
    /// # Errors
    ///
    /// As [`Poller::register`].
    pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        match &mut self.imp {
            #[cfg(target_os = "linux")]
            Imp::Epoll(e) => e.ctl(sys_epoll::EPOLL_CTL_DEL, fd, 0, Interest::READ),
            Imp::Poll(t) => {
                t.entries.retain(|e| e.fd != fd);
                Ok(())
            }
        }
    }

    /// Blocks until at least one registered fd is ready (or the
    /// timeout passes), appending the ready set to `events` (cleared
    /// first). A `None` timeout blocks indefinitely.
    ///
    /// # Errors
    ///
    /// OS errors from the wait call; `EINTR` is retried internally.
    pub fn wait(&mut self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        events.clear();
        match &mut self.imp {
            #[cfg(target_os = "linux")]
            Imp::Epoll(e) => e.wait(events, timeout),
            Imp::Poll(t) => t.wait(events, timeout),
        }
    }
}

#[cfg(target_os = "linux")]
struct Epoll {
    epfd: RawFd,
    buf: Vec<sys_epoll::EpollEvent>,
}

#[cfg(target_os = "linux")]
impl Epoll {
    fn new() -> io::Result<Epoll> {
        // SAFETY: epoll_create1 takes a flags word and returns a new
        // fd or -1; no pointers are involved.
        let epfd = unsafe { sys_epoll::epoll_create1(sys_epoll::EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Epoll {
            epfd,
            buf: vec![sys_epoll::EpollEvent { events: 0, data: 0 }; 1024],
        })
    }

    fn ctl(&mut self, op: i32, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        let mut ev = sys_epoll::EpollEvent {
            events: (if interest.readable {
                sys_epoll::EPOLLIN
            } else {
                0
            }) | (if interest.writable {
                sys_epoll::EPOLLOUT
            } else {
                0
            }),
            data: token,
        };
        // SAFETY: `ev` outlives the call; DEL ignores the event
        // pointer on modern kernels but passing a valid one is always
        // allowed.
        if unsafe { sys_epoll::epoll_ctl(self.epfd, op, fd, &mut ev) } < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    fn wait(&mut self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        loop {
            // SAFETY: the buffer is valid for `len` events for the
            // duration of the call.
            let n = unsafe {
                sys_epoll::epoll_wait(
                    self.epfd,
                    self.buf.as_mut_ptr(),
                    self.buf.len() as i32,
                    timeout_ms(timeout),
                )
            };
            if n < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    continue;
                }
                return Err(err);
            }
            for ev in &self.buf[..n as usize] {
                let bits = ev.events;
                events.push(Event {
                    token: ev.data,
                    readable: bits & (sys_epoll::EPOLLIN | sys_epoll::EPOLLHUP) != 0,
                    writable: bits & sys_epoll::EPOLLOUT != 0,
                    error: bits & (sys_epoll::EPOLLERR | sys_epoll::EPOLLHUP) != 0,
                });
            }
            // A full buffer means more may be pending; the next wait
            // picks them up (level-triggered), so don't grow or loop.
            return Ok(());
        }
    }
}

#[cfg(target_os = "linux")]
impl Drop for Epoll {
    fn drop(&mut self) {
        // SAFETY: closing an fd we own exactly once.
        unsafe { sys::close(self.epfd) };
    }
}

struct PollEntry {
    fd: RawFd,
    token: u64,
    interest: Interest,
}

#[derive(Default)]
struct PollTable {
    entries: Vec<PollEntry>,
    fds: Vec<sys::PollFd>,
}

impl PollTable {
    fn wait(&mut self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        self.fds.clear();
        self.fds.extend(self.entries.iter().map(|e| sys::PollFd {
            fd: e.fd,
            events: (if e.interest.readable { sys::POLLIN } else { 0 })
                | (if e.interest.writable { sys::POLLOUT } else { 0 }),
            revents: 0,
        }));
        loop {
            // SAFETY: `fds` is valid for `len` entries for the call.
            let n = unsafe {
                sys::poll(
                    self.fds.as_mut_ptr(),
                    self.fds.len() as u64,
                    timeout_ms(timeout),
                )
            };
            if n < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    continue;
                }
                return Err(err);
            }
            break;
        }
        for (pfd, entry) in self.fds.iter().zip(&self.entries) {
            let r = pfd.revents;
            if r == 0 {
                continue;
            }
            events.push(Event {
                token: entry.token,
                readable: r & (sys::POLLIN | sys::POLLHUP) != 0,
                writable: r & sys::POLLOUT != 0,
                error: r & (sys::POLLERR | sys::POLLHUP) != 0,
            });
        }
        Ok(())
    }
}

// ------------------------------------------------------------------ Waker

/// The write end of a self-pipe: waking a sleeping event loop from
/// another thread. Cloneable and cheap; a wake while one is already
/// pending is coalesced by the pipe itself (the write end is
/// nonblocking, and a full pipe already guarantees a pending wakeup).
///
/// Every `Waker` shares ownership of the pipe, so its fds stay open
/// while any `Waker` can still write to them. A loop that has exited
/// drops its [`WakeReader`] while peers, the acceptor and the server
/// handle may still wake it; were the fd closed by then, its number
/// could name another socket of the process, and the wake byte would
/// land in that stream.
#[derive(Clone)]
pub struct Waker {
    pipe: Arc<Pipe>,
}

impl Waker {
    /// Wakes the paired [`WakeReader`]'s poller. Never blocks.
    pub fn wake(&self) {
        let byte = 1u8;
        // SAFETY: writing one byte from a valid stack buffer to an fd
        // the shared `Pipe` keeps open. EAGAIN (pipe full) means a
        // wakeup is already pending — success.
        unsafe { sys::write(self.pipe.write_fd, &byte, 1) };
    }
}

/// The read end of a self-pipe, registered in the owning loop's
/// [`Poller`].
pub struct WakeReader {
    pipe: Arc<Pipe>,
}

/// Both fds of a self-pipe, closed when the reader and the last
/// [`Waker`] are gone.
struct Pipe {
    read_fd: RawFd,
    write_fd: RawFd,
}

impl WakeReader {
    /// Creates a nonblocking self-pipe and hands out its write end.
    ///
    /// # Errors
    ///
    /// OS errors from `pipe2`.
    pub fn pair() -> io::Result<(WakeReader, Waker)> {
        let mut fds: [RawFd; 2] = [-1, -1];
        // SAFETY: pipe2 fills the 2-element array on success.
        if unsafe { sys::pipe2(fds.as_mut_ptr(), sys::O_NONBLOCK | sys::O_CLOEXEC) } < 0 {
            return Err(io::Error::last_os_error());
        }
        let pipe = Arc::new(Pipe {
            read_fd: fds[0],
            write_fd: fds[1],
        });
        Ok((
            WakeReader {
                pipe: Arc::clone(&pipe),
            },
            Waker { pipe },
        ))
    }

    /// The fd to register for read interest.
    pub fn raw_fd(&self) -> RawFd {
        self.pipe.read_fd
    }

    /// Consumes all pending wake bytes (level-triggered pollers would
    /// otherwise report the pipe ready forever).
    pub fn drain(&self) {
        let mut buf = [0u8; 64];
        loop {
            // SAFETY: reading into a valid stack buffer; the fd is
            // nonblocking so this cannot hang.
            let n = unsafe { sys::read(self.pipe.read_fd, buf.as_mut_ptr(), buf.len()) };
            if n < buf.len() as isize {
                return; // drained (or EAGAIN / EOF)
            }
        }
    }
}

impl Drop for Pipe {
    fn drop(&mut self) {
        // SAFETY: closing fds we own exactly once.
        unsafe {
            sys::close(self.read_fd);
            sys::close(self.write_fd);
        }
    }
}

// ------------------------------------------------------------------ misc

/// Marks a stream nonblocking (the std API, re-exported here so event
/// loop code reads as one vocabulary).
///
/// # Errors
///
/// OS errors from `fcntl`.
pub fn set_nonblocking(stream: &TcpStream) -> io::Result<()> {
    stream.set_nonblocking(true)
}

/// Best-effort: pins the calling thread to `core` (mod the machine's
/// CPU count is the caller's business). Returns whether the OS
/// accepted the mask; on non-Linux platforms this is always `false`
/// and harmless.
pub fn pin_to_core(core: usize) -> bool {
    #[cfg(target_os = "linux")]
    {
        if core >= 1024 {
            return false;
        }
        let mut mask = [0u64; 16]; // 1024 CPUs
        mask[core / 64] = 1u64 << (core % 64);
        // SAFETY: pid 0 = calling thread; the mask buffer is valid for
        // the declared size.
        let rc = unsafe {
            sys_affinity::sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr())
        };
        rc == 0
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = core;
        false
    }
}

/// The number of logical CPUs, used as the default shard count.
pub fn num_cpus() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// A stream's raw fd (narrowing the import surface of callers).
pub fn raw_fd(stream: &TcpStream) -> RawFd {
    stream.as_raw_fd()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};

    fn backends() -> Vec<PollBackend> {
        let mut b = vec![PollBackend::Poll];
        if cfg!(target_os = "linux") {
            b.push(PollBackend::Epoll);
        }
        b
    }

    #[test]
    fn readiness_round_trip_on_every_backend() {
        for backend in backends() {
            let mut poller = Poller::new(backend).unwrap();
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let mut client = TcpStream::connect(addr).unwrap();
            let (server, _) = listener.accept().unwrap();
            server.set_nonblocking(true).unwrap();
            poller.register(raw_fd(&server), 7, Interest::READ).unwrap();

            let mut events = Vec::new();
            // Nothing to read yet: a short wait times out empty.
            poller
                .wait(&mut events, Some(Duration::from_millis(10)))
                .unwrap();
            assert!(events.iter().all(|e| e.token != 7 || !e.readable));

            client.write_all(b"hi").unwrap();
            poller
                .wait(&mut events, Some(Duration::from_secs(5)))
                .unwrap();
            let ev = events.iter().find(|e| e.token == 7).expect("readable");
            assert!(ev.readable, "{backend}: {ev:?}");

            let mut buf = [0u8; 8];
            let n = (&server).read(&mut buf).unwrap();
            assert_eq!(&buf[..n], b"hi");

            poller.deregister(raw_fd(&server)).unwrap();
            poller
                .wait(&mut events, Some(Duration::from_millis(5)))
                .unwrap();
            assert!(events.iter().all(|e| e.token != 7));
        }
    }

    #[test]
    fn write_interest_reports_writable() {
        for backend in backends() {
            let mut poller = Poller::new(backend).unwrap();
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
            client.set_nonblocking(true).unwrap();
            poller
                .register(raw_fd(&client), 1, Interest::READ_WRITE)
                .unwrap();
            let mut events = Vec::new();
            poller
                .wait(&mut events, Some(Duration::from_secs(5)))
                .unwrap();
            assert!(
                events.iter().any(|e| e.token == 1 && e.writable),
                "{backend}: fresh socket must be writable"
            );
        }
    }

    #[test]
    fn waker_wakes_and_drains() {
        for backend in backends() {
            let (reader, waker) = WakeReader::pair().unwrap();
            let mut poller = Poller::new(backend).unwrap();
            poller
                .register(reader.raw_fd(), 99, Interest::READ)
                .unwrap();
            let waker2 = waker.clone();
            let t = std::thread::spawn(move || waker2.wake());
            let mut events = Vec::new();
            poller
                .wait(&mut events, Some(Duration::from_secs(5)))
                .unwrap();
            t.join().unwrap();
            assert!(events.iter().any(|e| e.token == 99 && e.readable));
            reader.drain();
            // Coalescing: many wakes still drain to quiet.
            for _ in 0..1000 {
                waker.wake();
            }
            reader.drain();
            poller
                .wait(&mut events, Some(Duration::from_millis(5)))
                .unwrap();
            assert!(events.iter().all(|e| e.token != 99));
        }
    }

    #[test]
    fn wakers_keep_the_pipe_open_after_the_reader_is_dropped() {
        let (reader, waker) = WakeReader::pair().unwrap();
        let old = [waker.pipe.read_fd, waker.pipe.write_fd];
        drop(reader);
        // Had dropping the reader closed the pipe, the next fds opened
        // could take its numbers, and the wake below would write into
        // whatever they now name.
        let (fresh, fresh_waker) = WakeReader::pair().unwrap();
        assert!(!old.contains(&fresh.raw_fd()));
        assert!(!old.contains(&fresh_waker.pipe.write_fd));
        waker.wake();
        let mut poller = Poller::new(PollBackend::Poll).unwrap();
        poller.register(fresh.raw_fd(), 7, Interest::READ).unwrap();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(5)))
            .unwrap();
        assert!(events.is_empty(), "another pipe's wake must not land here");
    }

    #[test]
    fn backend_parse_round_trips() {
        for b in [PollBackend::Auto, PollBackend::Epoll, PollBackend::Poll] {
            assert_eq!(PollBackend::parse(&b.to_string()), Some(b));
        }
        assert_eq!(PollBackend::parse("kqueue"), None);
    }

    #[test]
    fn pin_to_core_is_best_effort() {
        // Core 0 exists everywhere; the call may still be refused
        // (containers), so only the "absurd core" case is asserted.
        let _ = pin_to_core(0);
        assert!(!pin_to_core(usize::MAX));
    }
}

//! Readiness polling for the evented HTTP server.
//!
//! A thin FFI layer over `epoll(7)` on Linux with a portable `poll(2)`
//! fallback, plus a self-pipe [`Waker`] so worker threads can interrupt a
//! blocked [`Poller::wait`]. `std` already links the platform C library,
//! so the handful of symbols needed (`epoll_create1`, `epoll_ctl`,
//! `epoll_wait`, `poll`, `pipe2`, `read`, `write`, `close`) are declared
//! directly — no external crate.
//!
//! The API is deliberately small and level-triggered: callers register a
//! raw fd under a `u64` token with a read/write [`Interest`], and
//! [`Poller::wait`] reports [`Ready`] events until the interest is
//! changed or the fd deregistered. Level-triggered semantics keep the
//! connection state machines in `create-server` simple — an event is
//! re-reported until the socket is drained, so a short read never strands
//! buffered bytes.

use std::io;
use std::os::fd::RawFd;
use std::time::Duration;

/// What a registration wants to be woken for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the fd is readable (or the peer hung up).
    pub readable: bool,
    /// Wake when the fd is writable.
    pub writable: bool,
}

impl Interest {
    /// Read-only interest.
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// Write-only interest.
    pub const WRITE: Interest = Interest {
        readable: false,
        writable: true,
    };
    /// Neither direction — the fd stays registered but only error/hangup
    /// conditions are reported (the backpressure state).
    pub const NONE: Interest = Interest {
        readable: false,
        writable: false,
    };
}

/// One readiness event out of [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Ready {
    /// The token the fd was registered under.
    pub token: u64,
    /// Readable (includes peer hangup, so a read observes EOF).
    pub readable: bool,
    /// Writable.
    pub writable: bool,
    /// Error or hangup condition on the fd.
    pub hangup: bool,
}

mod sys {
    //! The raw C interfaces. Linux-first; the `poll(2)`/`pipe` calls are
    //! POSIX and back the fallback path.
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct PollFd {
        pub fd: i32,
        pub events: i16,
        pub revents: i16,
    }

    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;
    pub const POLLERR: i16 = 0x008;
    pub const POLLHUP: i16 = 0x010;

    extern "C" {
        pub fn poll(fds: *mut PollFd, nfds: core::ffi::c_ulong, timeout: i32) -> i32;
        pub fn close(fd: i32) -> i32;
        pub fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
        pub fn write(fd: i32, buf: *const u8, count: usize) -> isize;
        pub fn listen(fd: i32, backlog: i32) -> i32;
    }

    #[cfg(target_os = "linux")]
    pub mod epoll {
        pub const EPOLL_CLOEXEC: i32 = 0o2000000;
        pub const EPOLL_CTL_ADD: i32 = 1;
        pub const EPOLL_CTL_DEL: i32 = 2;
        pub const EPOLL_CTL_MOD: i32 = 3;
        pub const EPOLLIN: u32 = 0x001;
        pub const EPOLLOUT: u32 = 0x004;
        pub const EPOLLERR: u32 = 0x008;
        pub const EPOLLHUP: u32 = 0x010;
        pub const EPOLLRDHUP: u32 = 0x2000;

        /// Matches the kernel UAPI layout: packed on x86_64, naturally
        /// aligned elsewhere.
        #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
        #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
        #[derive(Clone, Copy)]
        pub struct EpollEvent {
            pub events: u32,
            pub data: u64,
        }

        extern "C" {
            pub fn epoll_create1(flags: i32) -> i32;
            pub fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
            pub fn epoll_wait(
                epfd: i32,
                events: *mut EpollEvent,
                maxevents: i32,
                timeout: i32,
            ) -> i32;
        }

        pub fn mask_for(interest: super::super::Interest) -> u32 {
            let mut mask = EPOLLRDHUP;
            if interest.readable {
                mask |= EPOLLIN;
            }
            if interest.writable {
                mask |= EPOLLOUT;
            }
            mask
        }
    }

    #[cfg(target_os = "linux")]
    extern "C" {
        pub fn pipe2(fds: *mut i32, flags: i32) -> i32;
    }
    #[cfg(target_os = "linux")]
    pub const O_NONBLOCK: i32 = 0o4000;
    #[cfg(target_os = "linux")]
    pub const O_CLOEXEC: i32 = 0o2000000;

    #[cfg(all(unix, not(target_os = "linux")))]
    extern "C" {
        pub fn pipe(fds: *mut i32) -> i32;
        pub fn fcntl(fd: i32, cmd: i32, ...) -> i32;
    }
}

fn last_error() -> io::Error {
    io::Error::last_os_error()
}

/// Milliseconds for the kernel wait call: `None` blocks forever, sub-ms
/// remainders round up so a near deadline never degenerates into a spin.
fn timeout_ms(timeout: Option<Duration>) -> i32 {
    match timeout {
        None => -1,
        Some(d) => {
            let ms = d.as_nanos().div_ceil(1_000_000);
            ms.min(i32::MAX as u128) as i32
        }
    }
}

struct Registration {
    fd: RawFd,
    token: u64,
    interest: Interest,
}

enum Backend {
    #[cfg(target_os = "linux")]
    Epoll {
        epfd: RawFd,
        buf: Vec<sys::epoll::EpollEvent>,
    },
    Poll {
        regs: Vec<Registration>,
        buf: Vec<sys::PollFd>,
    },
}

/// A readiness poller over raw fds.
pub struct Poller {
    backend: Backend,
}

impl std::fmt::Debug for Poller {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll { epfd, .. } => write!(f, "Poller(epoll fd {epfd})"),
            Backend::Poll { regs, .. } => write!(f, "Poller(poll, {} fds)", regs.len()),
        }
    }
}

impl Poller {
    /// The platform's best backend: epoll on Linux, `poll(2)` elsewhere.
    pub fn new() -> io::Result<Poller> {
        #[cfg(target_os = "linux")]
        {
            let epfd = unsafe { sys::epoll::epoll_create1(sys::epoll::EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(last_error());
            }
            Ok(Poller {
                backend: Backend::Epoll {
                    epfd,
                    buf: vec![sys::epoll::EpollEvent { events: 0, data: 0 }; 1024],
                },
            })
        }
        #[cfg(not(target_os = "linux"))]
        {
            Poller::with_poll_backend()
        }
    }

    /// The portable `poll(2)` backend, selectable everywhere (exercised
    /// by tests even on Linux).
    pub fn with_poll_backend() -> io::Result<Poller> {
        Ok(Poller {
            backend: Backend::Poll {
                regs: Vec::new(),
                buf: Vec::new(),
            },
        })
    }

    /// Starts watching `fd` under `token`.
    pub fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        match &mut self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll { epfd, .. } => {
                let mut ev = sys::epoll::EpollEvent {
                    events: sys::epoll::mask_for(interest),
                    data: token,
                };
                if unsafe { sys::epoll::epoll_ctl(*epfd, sys::epoll::EPOLL_CTL_ADD, fd, &mut ev) }
                    < 0
                {
                    return Err(last_error());
                }
                Ok(())
            }
            Backend::Poll { regs, .. } => {
                regs.push(Registration {
                    fd,
                    token,
                    interest,
                });
                Ok(())
            }
        }
    }

    /// Updates the interest (and token) of a registered fd.
    pub fn modify(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        match &mut self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll { epfd, .. } => {
                let mut ev = sys::epoll::EpollEvent {
                    events: sys::epoll::mask_for(interest),
                    data: token,
                };
                if unsafe { sys::epoll::epoll_ctl(*epfd, sys::epoll::EPOLL_CTL_MOD, fd, &mut ev) }
                    < 0
                {
                    return Err(last_error());
                }
                Ok(())
            }
            Backend::Poll { regs, .. } => match regs.iter_mut().find(|r| r.fd == fd) {
                Some(reg) => {
                    reg.token = token;
                    reg.interest = interest;
                    Ok(())
                }
                None => Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered")),
            },
        }
    }

    /// Stops watching `fd`. Call before closing the fd so the fallback
    /// backend's registration table stays consistent.
    pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        match &mut self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll { epfd, .. } => {
                let mut ev = sys::epoll::EpollEvent { events: 0, data: 0 };
                if unsafe { sys::epoll::epoll_ctl(*epfd, sys::epoll::EPOLL_CTL_DEL, fd, &mut ev) }
                    < 0
                {
                    return Err(last_error());
                }
                Ok(())
            }
            Backend::Poll { regs, .. } => {
                regs.retain(|r| r.fd != fd);
                Ok(())
            }
        }
    }

    /// Blocks until at least one registered fd is ready, the timeout
    /// elapses (`events` left empty), or a signal interrupts the wait
    /// (also empty — callers just loop).
    pub fn wait(&mut self, events: &mut Vec<Ready>, timeout: Option<Duration>) -> io::Result<()> {
        events.clear();
        let ms = timeout_ms(timeout);
        match &mut self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll { epfd, buf } => {
                let n = unsafe {
                    sys::epoll::epoll_wait(*epfd, buf.as_mut_ptr(), buf.len() as i32, ms)
                };
                if n < 0 {
                    let err = last_error();
                    if err.kind() == io::ErrorKind::Interrupted {
                        return Ok(());
                    }
                    return Err(err);
                }
                for ev in &buf[..n as usize] {
                    let bits = ev.events;
                    let hangup = bits
                        & (sys::epoll::EPOLLERR | sys::epoll::EPOLLHUP | sys::epoll::EPOLLRDHUP)
                        != 0;
                    events.push(Ready {
                        token: ev.data,
                        readable: bits & sys::epoll::EPOLLIN != 0 || hangup,
                        writable: bits & sys::epoll::EPOLLOUT != 0,
                        hangup,
                    });
                }
                Ok(())
            }
            Backend::Poll { regs, buf } => {
                buf.clear();
                buf.extend(regs.iter().map(|r| {
                    let mut mask = 0i16;
                    if r.interest.readable {
                        mask |= sys::POLLIN;
                    }
                    if r.interest.writable {
                        mask |= sys::POLLOUT;
                    }
                    sys::PollFd {
                        fd: r.fd,
                        events: mask,
                        revents: 0,
                    }
                }));
                let n = unsafe { sys::poll(buf.as_mut_ptr(), buf.len() as core::ffi::c_ulong, ms) };
                if n < 0 {
                    let err = last_error();
                    if err.kind() == io::ErrorKind::Interrupted {
                        return Ok(());
                    }
                    return Err(err);
                }
                for (pfd, reg) in buf.iter().zip(regs.iter()) {
                    let bits = pfd.revents;
                    if bits == 0 {
                        continue;
                    }
                    let hangup = bits & (sys::POLLERR | sys::POLLHUP) != 0;
                    events.push(Ready {
                        token: reg.token,
                        readable: bits & sys::POLLIN != 0 || hangup,
                        writable: bits & sys::POLLOUT != 0,
                        hangup,
                    });
                }
                Ok(())
            }
        }
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        #[cfg(target_os = "linux")]
        if let Backend::Epoll { epfd, .. } = &self.backend {
            unsafe { sys::close(*epfd) };
        }
    }
}

/// Write half of the self-pipe: threads call [`Waker::wake`] to interrupt
/// a poller blocked in [`Poller::wait`]. Share via `Arc`.
#[derive(Debug)]
pub struct Waker {
    fd: RawFd,
}

// SAFETY: `write(2)` on a pipe fd is thread-safe.
unsafe impl Send for Waker {}
unsafe impl Sync for Waker {}

impl Waker {
    /// Queues a wakeup. A full pipe means a wake is already pending, so
    /// `EAGAIN` is success; other errors are ignored (the loop also
    /// wakes on its own timeouts).
    pub fn wake(&self) {
        let byte = [1u8];
        unsafe { sys::write(self.fd, byte.as_ptr(), 1) };
    }
}

impl Drop for Waker {
    fn drop(&mut self) {
        unsafe { sys::close(self.fd) };
    }
}

/// Read half of the self-pipe; register [`WakeRx::fd`] with the poller
/// and [`WakeRx::drain`] on readiness.
#[derive(Debug)]
pub struct WakeRx {
    fd: RawFd,
}

unsafe impl Send for WakeRx {}
unsafe impl Sync for WakeRx {}

impl WakeRx {
    /// The fd to register for read interest.
    pub fn fd(&self) -> RawFd {
        self.fd
    }

    /// Consumes every pending wake byte.
    pub fn drain(&self) {
        let mut buf = [0u8; 64];
        loop {
            let n = unsafe { sys::read(self.fd, buf.as_mut_ptr(), buf.len()) };
            if n <= 0 {
                break;
            }
        }
    }
}

impl Drop for WakeRx {
    fn drop(&mut self) {
        unsafe { sys::close(self.fd) };
    }
}

/// Re-arms `listen(2)` on an already-listening socket with a larger
/// backlog. `std::net::TcpListener` hardcodes 128, which a connection
/// storm overflows — overflowed SYNs are dropped and retransmit seconds
/// later. POSIX permits calling `listen` again to resize the queue.
pub fn set_listen_backlog(fd: RawFd, backlog: usize) -> io::Result<()> {
    let backlog = backlog.min(i32::MAX as usize) as i32;
    if unsafe { sys::listen(fd, backlog) } < 0 {
        return Err(last_error());
    }
    Ok(())
}

/// Builds a nonblocking self-pipe pair.
pub fn wake_pipe() -> io::Result<(WakeRx, Waker)> {
    let mut fds = [0i32; 2];
    #[cfg(target_os = "linux")]
    {
        if unsafe { sys::pipe2(fds.as_mut_ptr(), sys::O_NONBLOCK | sys::O_CLOEXEC) } < 0 {
            return Err(last_error());
        }
    }
    #[cfg(all(unix, not(target_os = "linux")))]
    {
        const F_SETFL: i32 = 4;
        const O_NONBLOCK_BSD: i32 = 0x4;
        if unsafe { sys::pipe(fds.as_mut_ptr()) } < 0 {
            return Err(last_error());
        }
        for fd in fds {
            unsafe { sys::fcntl(fd, F_SETFL, O_NONBLOCK_BSD) };
        }
    }
    Ok((WakeRx { fd: fds[0] }, Waker { fd: fds[1] }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;

    fn backends() -> Vec<Poller> {
        vec![Poller::new().unwrap(), Poller::with_poll_backend().unwrap()]
    }

    #[test]
    fn reports_tcp_readability() {
        for mut poller in backends() {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
            let (server, _) = listener.accept().unwrap();
            server.set_nonblocking(true).unwrap();
            poller
                .register(server.as_raw_fd(), 7, Interest::READ)
                .unwrap();
            let mut events = Vec::new();
            // Nothing to read yet.
            poller
                .wait(&mut events, Some(Duration::from_millis(10)))
                .unwrap();
            assert!(events.is_empty(), "{poller:?} reported a phantom event");
            client.write_all(b"x").unwrap();
            poller
                .wait(&mut events, Some(Duration::from_secs(2)))
                .unwrap();
            assert_eq!(events.len(), 1, "{poller:?}");
            assert_eq!(events[0].token, 7);
            assert!(events[0].readable);
        }
    }

    #[test]
    fn write_interest_and_modify() {
        for mut poller in backends() {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
            let (server, _) = listener.accept().unwrap();
            server.set_nonblocking(true).unwrap();
            // Registered with no interest: stays silent.
            poller
                .register(server.as_raw_fd(), 1, Interest::NONE)
                .unwrap();
            let mut events = Vec::new();
            poller
                .wait(&mut events, Some(Duration::from_millis(10)))
                .unwrap();
            assert!(events.is_empty(), "{poller:?}");
            // Flip to write interest: an idle socket is writable at once.
            poller
                .modify(server.as_raw_fd(), 2, Interest::WRITE)
                .unwrap();
            poller
                .wait(&mut events, Some(Duration::from_secs(2)))
                .unwrap();
            assert_eq!(events.len(), 1, "{poller:?}");
            assert_eq!(events[0].token, 2, "modify retags the token");
            assert!(events[0].writable);
            poller.deregister(server.as_raw_fd()).unwrap();
            poller
                .wait(&mut events, Some(Duration::from_millis(10)))
                .unwrap();
            assert!(events.is_empty(), "{poller:?} after deregister");
        }
    }

    #[test]
    fn hangup_reported_as_readable() {
        for mut poller in backends() {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
            let (server, _) = listener.accept().unwrap();
            server.set_nonblocking(true).unwrap();
            poller
                .register(server.as_raw_fd(), 9, Interest::READ)
                .unwrap();
            drop(client);
            let mut events = Vec::new();
            poller
                .wait(&mut events, Some(Duration::from_secs(2)))
                .unwrap();
            assert_eq!(events.len(), 1, "{poller:?}");
            assert!(events[0].readable, "EOF must surface as readable");
        }
    }

    #[test]
    fn waker_interrupts_wait() {
        for mut poller in backends() {
            let (rx, waker) = wake_pipe().unwrap();
            poller.register(rx.fd(), 0, Interest::READ).unwrap();
            let waker = std::sync::Arc::new(waker);
            let remote = std::sync::Arc::clone(&waker);
            let t = std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(50));
                remote.wake();
            });
            let mut events = Vec::new();
            let started = std::time::Instant::now();
            poller
                .wait(&mut events, Some(Duration::from_secs(10)))
                .unwrap();
            assert!(
                started.elapsed() < Duration::from_secs(5),
                "{poller:?} wake did not interrupt the wait"
            );
            assert_eq!(events.len(), 1);
            rx.drain();
            // Drained: the next wait times out quietly.
            poller
                .wait(&mut events, Some(Duration::from_millis(10)))
                .unwrap();
            assert!(events.is_empty(), "{poller:?}");
            t.join().unwrap();
        }
    }

    #[test]
    fn repeated_wakes_coalesce() {
        let (rx, waker) = wake_pipe().unwrap();
        for _ in 0..100_000 {
            waker.wake(); // never blocks, even with the pipe full
        }
        rx.drain();
        let mut poller = Poller::new().unwrap();
        poller.register(rx.fd(), 0, Interest::READ).unwrap();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.is_empty(), "drain cleared every pending byte");
    }

    #[test]
    fn timeout_rounds_up() {
        assert_eq!(timeout_ms(None), -1);
        assert_eq!(timeout_ms(Some(Duration::ZERO)), 0);
        assert_eq!(timeout_ms(Some(Duration::from_nanos(1))), 1);
        assert_eq!(timeout_ms(Some(Duration::from_micros(1500))), 2);
        assert_eq!(
            timeout_ms(Some(Duration::from_secs(1_000_000_000))),
            i32::MAX
        );
    }
}

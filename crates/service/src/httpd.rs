//! A non-blocking HTTP/1.1 server on a raw epoll readiness loop — the
//! wire protocol for tassd's JSON API, built to survive many imperfect,
//! slow, and long-lived connections.
//!
//! The build environment has no async runtime and no web framework, so
//! the daemon speaks HTTP the way ZMap speaks TCP: by hand. The shape is
//! deliberately axum-like — a [`Router`] of `(method, path pattern)`
//! routes over shared state, with `{param}` segments — so the API layer
//! reads like any mainstream Rust service and could be ported to a real
//! framework by rewriting only this module.
//!
//! # Sessions and the event loop
//!
//! Protocol and I/O are apart, in the sans-I/O style of h11 and
//! `quinn-proto`. A `Session` is one connection's state machine with no
//! socket and no clock: it is fed bytes and the instant they arrived,
//! holds the bytes to send, and dispatches through the router and state
//! it is handed. A small fixed pool of event-loop threads (one per core,
//! capped at four) each owns an `epoll` instance, its sockets and their
//! sessions; the shared listener is level-triggered in every loop, and
//! whichever loop wakes first keeps the connection for life. There is
//! **no thread-per-connection anywhere**.
//!
//! ```text
//!  event loop                         Session
//!  readable: feed(bytes, now)   ───▶  Read: find the head, parse, dispatch
//!            EOF: peer_closed()         │ response → output, back to Read
//!  writable: write output(),            │ chunked → Stream: pull the source
//!            consumed(n)                │   whenever output is sent, until
//!  tick:     tick(now) → Keep | Reap    │   0\r\n\r\n → Read
//!                                       │ 400 · 408 · 413 · 431, or
//!                                       ▼ Connection: close
//!                                     Close: Reap once output is sent
//! ```
//!
//! # Cost model
//!
//! Each session reuses one read and one write buffer (a response is
//! rendered straight into the write buffer, head and body in one pass)
//! and reclaims the parsed [`Request`]'s header and body containers
//! after dispatch. What a request still allocates is its method, path
//! and header strings, the matched route's parameters and the response
//! body; a route that does not match allocates nothing, and nothing
//! grows with the connection's history (`tests/scan_alloc.rs`). The
//! search for the end of a head resumes where the last one stopped, so
//! a head that drips in a byte at a time costs O(n). Pipelined requests
//! are answered from an offset into the read buffer, which is compacted
//! once per feed, not once per request. While an answer waits to be
//! sent the loop reads nothing more from that connection: a peer that
//! pipelines without reading its answers fills the socket buffers and
//! blocks, and the session holds at most one read's worth of requests.
//! Handlers run on the event-loop thread (the API holds locks for
//! microseconds), and a slow *client* only ever parks its own session.
//!
//! Time rides the `epoll_wait` timeout: every tick (25 ms) each loop
//! ticks its sessions, which pulls streams whose source had nothing,
//! answers `408` to a head still incomplete the keep-alive timeout after
//! its first byte, and reaps connections that sent nothing for that
//! long. Scope: HTTP/1.1 keep-alive, `Content-Length` request bodies,
//! `Content-Length` or chunked responses. No TLS, no HTTP/2.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Largest accepted request-line + header block.
const MAX_HEAD: usize = 16 * 1024;
/// Largest accepted request body.
const MAX_BODY: usize = 4 * 1024 * 1024;
/// Event-loop tick: the `epoll_wait` timeout, which bounds stop-flag
/// latency, idle-reap granularity, and the polling cadence of streaming
/// bodies whose source is waiting on campaign progress.
const TICK: Duration = Duration::from_millis(25);
/// Read granularity (stack scratch; connection buffers are reused).
const READ_CHUNK: usize = 16 * 1024;
/// `epoll_wait` batch size per loop iteration.
const MAX_EVENTS: usize = 256;
/// Empty connection buffers above this capacity are shrunk back after a
/// request completes, so one 4 MiB body doesn't pin 4 MiB per
/// connection forever.
const BUF_KEEP: usize = 64 * 1024;

/// Raw epoll FFI — the one unsafe corner of the server, in the style of
/// the [`crate::signal`] module: no `libc` crate, just the three
/// syscall wrappers libstd already links, behind a safe `Epoll` handle.
#[allow(unsafe_code)]
mod sys {
    use std::io;
    use std::os::unix::io::RawFd;
    use std::time::Duration;

    /// Readable (or a pending accept on a listener).
    pub const EPOLLIN: u32 = 0x001;
    /// Writable.
    pub const EPOLLOUT: u32 = 0x004;
    /// Error condition (always reported, never requested).
    pub const EPOLLERR: u32 = 0x008;
    /// Hangup (always reported, never requested).
    pub const EPOLLHUP: u32 = 0x010;
    /// Peer closed its write half.
    pub const EPOLLRDHUP: u32 = 0x2000;

    const EPOLL_CLOEXEC: i32 = 0o2000000;
    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;

    /// `struct epoll_event`. The kernel ABI packs it on x86-64 (glibc's
    /// `__EPOLL_PACKED`); other architectures use natural layout.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        /// Ready/interest mask (`EPOLL*` bits).
        pub events: u32,
        /// Caller token, returned verbatim with each ready event.
        pub data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn close(fd: i32) -> i32;
    }

    /// An owned epoll instance.
    pub struct Epoll {
        fd: RawFd,
    }

    impl Epoll {
        /// A fresh close-on-exec epoll instance.
        pub fn new() -> io::Result<Epoll> {
            // SAFETY: epoll_create1 takes a flag word and returns a new
            // fd or -1; no pointers involved.
            let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if fd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Epoll { fd })
        }

        fn ctl(&self, op: i32, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
            let mut ev = EpollEvent {
                events: interest,
                data: token,
            };
            // SAFETY: `ev` outlives the call; the kernel copies it.
            let rc = unsafe { epoll_ctl(self.fd, op, fd, &mut ev) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        /// Register `fd` with the given interest mask and token.
        pub fn add(&self, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, interest, token)
        }

        /// Change the interest mask of a registered `fd`.
        pub fn modify(&self, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, interest, token)
        }

        /// Deregister `fd` (best-effort; closing the fd also removes it).
        pub fn delete(&self, fd: RawFd) {
            let _ = self.ctl(EPOLL_CTL_DEL, fd, 0, 0);
        }

        /// Wait for ready events, at most `timeout`. Returns the number
        /// of events filled into `events`; EINTR reads as zero events.
        pub fn wait(
            &self,
            events: &mut [EpollEvent; super::MAX_EVENTS],
            timeout: Duration,
        ) -> io::Result<usize> {
            let ms = timeout.as_millis().min(i32::MAX as u128) as i32;
            // SAFETY: `events` is a live, correctly-sized buffer; the
            // kernel writes at most `maxevents` entries into it.
            let rc = unsafe { epoll_wait(self.fd, events.as_mut_ptr(), events.len() as i32, ms) };
            if rc < 0 {
                let e = io::Error::last_os_error();
                if e.kind() == io::ErrorKind::Interrupted {
                    return Ok(0);
                }
                return Err(e);
            }
            Ok(rc as usize)
        }
    }

    impl Drop for Epoll {
        fn drop(&mut self) {
            // SAFETY: closing an fd we own exactly once.
            unsafe {
                close(self.fd);
            }
        }
    }
}

/// A parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Uppercase method (`GET`, `POST`, …).
    pub method: String,
    /// Decoded path without the query string (`/v1/campaigns/3`).
    pub path: String,
    /// Raw query string without the `?` (empty when the target had
    /// none).
    pub query: String,
    /// Header fields, names lowercased, in arrival order.
    pub headers: Vec<(String, String)>,
    /// Request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of a header, by case-insensitive name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// First value of a `key=value` query parameter, by exact name.
    /// A bare `key` with no `=` yields the empty string.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query
            .split('&')
            .filter(|kv| !kv.is_empty())
            .map(|kv| kv.split_once('=').unwrap_or((kv, "")))
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v)
    }
}

/// One pull from a streaming response body.
#[derive(Debug)]
pub enum StreamChunk {
    /// Nothing to send yet — the event loop re-polls on the next tick.
    Pending,
    /// The next body bytes (framed as one chunk on the wire).
    Data(Vec<u8>),
    /// The body is complete: the terminal chunk is written and the
    /// connection returns to keep-alive.
    End,
    /// The body cannot be completed. The connection is closed *without*
    /// the terminal chunk, so the client sees the truncation.
    Abort,
}

/// A pull source for a chunked response body. Called by the event loop
/// whenever the connection can take more data; must never block.
pub type ChunkSource = Box<dyn FnMut() -> StreamChunk + Send>;

/// An HTTP response: status, content type, and a body that is either a
/// complete byte vector (`Content-Length` framing) or a pull source of
/// chunks (chunked transfer encoding).
pub struct Response {
    /// Status code.
    pub status: u16,
    /// `Content-Type` value.
    pub content_type: &'static str,
    /// Response body bytes (ignored when `stream` is set).
    pub body: Vec<u8>,
    stream: Option<ChunkSource>,
}

impl std::fmt::Debug for Response {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Response")
            .field("status", &self.status)
            .field("content_type", &self.content_type)
            .field("body", &self.body)
            .field("stream", &self.stream.is_some())
            .finish()
    }
}

impl Response {
    /// A JSON response with the given status.
    pub fn json(status: u16, body: impl Into<Vec<u8>>) -> Response {
        Response {
            status,
            content_type: "application/json",
            body: body.into(),
            stream: None,
        }
    }

    /// A plain-text response with the given status.
    pub fn text(status: u16, body: impl Into<Vec<u8>>) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.into(),
            stream: None,
        }
    }

    /// A chunked-transfer-encoding response: `source` is pulled by the
    /// event loop whenever the connection can take more data, until it
    /// returns [`StreamChunk::End`] (or [`StreamChunk::Abort`]).
    pub fn stream(
        status: u16,
        content_type: &'static str,
        source: impl FnMut() -> StreamChunk + Send + 'static,
    ) -> Response {
        Response {
            status,
            content_type,
            body: Vec::with_capacity(0),
            stream: Some(Box::new(source)),
        }
    }

    fn reason(status: u16) -> &'static str {
        match status {
            200 => "OK",
            201 => "Created",
            400 => "Bad Request",
            401 => "Unauthorized",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            409 => "Conflict",
            413 => "Payload Too Large",
            422 => "Unprocessable Entity",
            429 => "Too Many Requests",
            431 => "Request Header Fields Too Large",
            503 => "Service Unavailable",
            _ => "Response",
        }
    }
}

/// Path parameters captured by `{name}` segments of the matched route.
#[derive(Debug, Default, Clone)]
pub struct PathParams(Vec<(String, String)>);

impl PathParams {
    /// The captured value of `{name}`, if the route declared it.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

enum Seg {
    Lit(String),
    Param(String),
}

type Handler<S> = Box<dyn Fn(&Arc<S>, &Request, &PathParams) -> Response + Send + Sync>;

struct Route<S> {
    method: &'static str,
    pattern: Vec<Seg>,
    handler: Handler<S>,
}

impl<S> Route<S> {
    /// Whether `path` fits the pattern, compared over borrowed segments:
    /// a route that does not match allocates nothing.
    fn matches(&self, path: &str) -> bool {
        let mut segs = path.split('/').filter(|s| !s.is_empty());
        self.pattern.iter().all(|pat| {
            segs.next().is_some_and(|seg| match pat {
                Seg::Lit(lit) => lit == seg,
                Seg::Param(_) => true,
            })
        }) && segs.next().is_none()
    }

    /// The `{name}` captures of a path that [`Route::matches`].
    fn params(&self, path: &str) -> PathParams {
        let segs = path.split('/').filter(|s| !s.is_empty());
        PathParams(
            self.pattern
                .iter()
                .zip(segs)
                .filter_map(|(pat, seg)| match pat {
                    Seg::Param(name) => Some((name.clone(), seg.to_string())),
                    Seg::Lit(_) => None,
                })
                .collect(),
        )
    }
}

/// A method + path-pattern dispatcher over shared state `S`. Handlers
/// get the `Arc<S>` the event loop holds, so a streaming body can own a
/// clone of it.
pub struct Router<S> {
    routes: Vec<Route<S>>,
}

impl<S> Default for Router<S> {
    fn default() -> Self {
        Router {
            routes: Vec::with_capacity(8),
        }
    }
}

impl<S> Router<S> {
    /// An empty router.
    pub fn new() -> Router<S> {
        Router::default()
    }

    /// Register a route. Patterns are `/`-separated literals with
    /// `{name}` parameter segments, e.g. `/v1/campaigns/{id}/results`.
    pub fn route(
        mut self,
        method: &'static str,
        pattern: &str,
        handler: impl Fn(&Arc<S>, &Request, &PathParams) -> Response + Send + Sync + 'static,
    ) -> Router<S> {
        let pattern = pattern
            .split('/')
            .filter(|s| !s.is_empty())
            .map(
                |s| match s.strip_prefix('{').and_then(|s| s.strip_suffix('}')) {
                    Some(name) => Seg::Param(name.to_string()),
                    None => Seg::Lit(s.to_string()),
                },
            )
            .collect();
        self.routes.push(Route {
            method,
            pattern,
            handler: Box::new(handler),
        });
        self
    }

    /// Dispatch one request: `404` when no pattern matches the path,
    /// `405` when a pattern matches but not the method.
    pub fn dispatch(&self, state: &Arc<S>, req: &Request) -> Response {
        let mut path_matched = false;
        for route in &self.routes {
            if route.matches(&req.path) {
                if route.method == req.method {
                    return (route.handler)(state, req, &route.params(&req.path));
                }
                path_matched = true;
            }
        }
        if path_matched {
            Response::json(
                405,
                r#"{"error":{"code":"method_not_allowed","message":"method not allowed for this path"}}"#,
            )
        } else {
            Response::json(
                404,
                r#"{"error":{"code":"not_found","message":"no such endpoint"}}"#,
            )
        }
    }
}

/// Event-loop pool and connection-lifetime knobs.
#[derive(Debug, Clone)]
pub struct HttpdConfig {
    /// Event-loop threads; `0` picks one per core, capped at four.
    pub event_loops: usize,
    /// Idle connections (no bytes received, nothing owed to the peer)
    /// are closed after this long, and a request head not complete this
    /// long after its first byte is answered `408` and closed.
    pub keep_alive: Duration,
}

impl Default for HttpdConfig {
    fn default() -> HttpdConfig {
        HttpdConfig {
            event_loops: 0,
            keep_alive: Duration::from_secs(10),
        }
    }
}

impl HttpdConfig {
    fn loops(&self) -> usize {
        if self.event_loops > 0 {
            return self.event_loops;
        }
        thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
            .clamp(1, 4)
    }
}

/// Why a request is refused rather than dispatched. Each refusal is
/// answered, and the connection closes once the answer is sent.
enum Refusal {
    /// Malformed head → `400`.
    Bad,
    /// Head still incomplete the keep-alive timeout after its first
    /// byte → `408`.
    HeadTimeout,
    /// Head block over [`MAX_HEAD`] → `431`.
    HeadTooLarge,
    /// Declared body over [`MAX_BODY`] → `413`.
    BodyTooLarge,
}

impl Refusal {
    fn response(&self) -> Response {
        let (status, code, message) = match self {
            Refusal::Bad => (400, "bad_request", "malformed HTTP request"),
            Refusal::HeadTimeout => (408, "request_timeout", "request head not complete in time"),
            Refusal::HeadTooLarge => (431, "head_too_large", "request head exceeds the 16 KiB cap"),
            Refusal::BodyTooLarge => (413, "body_too_large", "request body exceeds the 4 MiB cap"),
        };
        let body = format!(r#"{{"error":{{"code":"{code}","message":"{message}"}}}}"#);
        Response::json(status, body)
    }
}

/// A head parsed off the read buffer, waiting for its body bytes.
struct PendingHead {
    req: Request,
    /// Bytes of head incl. the blank line.
    head_len: usize,
    /// Declared `Content-Length`.
    content_length: usize,
    /// Request asked for `Connection: close`.
    wants_close: bool,
}

/// What a session does once its output has been sent.
enum ConnState {
    /// Answer the next request in the read buffer.
    Read,
    /// Pull the next chunk of a chunked body from this source.
    Stream(ChunkSource),
    /// Close: the last answer was a refusal or `Connection: close`.
    Close,
}

/// Reclaimed request containers: their capacity survives to the next
/// request on the same connection, so steady-state parsing re-allocates
/// neither the header vector nor the body buffer.
#[derive(Default)]
struct Scratch {
    headers: Vec<(String, String)>,
    body: Vec<u8>,
}

/// What the event loop does with a connection after a session call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Fate {
    /// Keep it, and send what [`Session::output`] holds.
    Keep,
    /// Close it: the session has nothing more to send.
    Reap,
}

/// One connection's HTTP/1.1 state machine, with no socket and no clock
/// (see the module docs). Every call that can move it on dispatches
/// through the router and state it is handed.
pub(crate) struct Session {
    state: ConnState,
    /// Request bytes (reused across requests; pipelined requests queue
    /// here until the current response is sent). `read_buf[..read_at]`
    /// is answered already, and compacted away at the next feed.
    read_buf: Vec<u8>,
    /// Start of the unanswered bytes in `read_buf`.
    read_at: usize,
    /// Rendered response bytes.
    write_buf: Vec<u8>,
    /// Prefix of `write_buf` already sent.
    written: usize,
    /// Parsed head waiting for body bytes.
    pending: Option<PendingHead>,
    /// The first `head_scan` unanswered bytes have been searched for the
    /// end of a head.
    head_scan: usize,
    /// When the next unanswered head began to arrive.
    head_since: Instant,
    /// When bytes last arrived.
    idle_since: Instant,
    /// Idle connections and incomplete heads get this long.
    keep_alive: Duration,
    /// The peer closed its write half.
    peer_closed: bool,
    scratch: Scratch,
    /// Bytes examined by head searches, for the O(n) search test.
    #[cfg(test)]
    searched: usize,
}

impl Session {
    pub(crate) fn new(now: Instant, keep_alive: Duration) -> Session {
        Session {
            state: ConnState::Read,
            read_buf: Vec::with_capacity(4096),
            read_at: 0,
            write_buf: Vec::with_capacity(4096),
            written: 0,
            pending: None,
            head_scan: 0,
            head_since: now,
            idle_since: now,
            keep_alive,
            peer_closed: false,
            scratch: Scratch::default(),
            #[cfg(test)]
            searched: 0,
        }
    }

    /// Take the bytes the peer sent at `now`, and answer the requests
    /// they complete.
    pub(crate) fn feed<S>(
        &mut self,
        bytes: &[u8],
        now: Instant,
        router: &Router<S>,
        state: &Arc<S>,
    ) -> Fate {
        if self.unread().is_empty() {
            self.head_since = now; // the first byte of the next head
        }
        // answered requests leave the buffer once per feed, however many
        // it held: one move of the unanswered tail, not one per request
        self.read_buf.drain(..self.read_at);
        self.read_at = 0;
        self.read_buf.extend_from_slice(bytes);
        self.idle_since = now;
        self.advance(router, state)
    }

    /// Response bytes not yet sent.
    pub(crate) fn output(&self) -> &[u8] {
        &self.write_buf[self.written..]
    }

    /// Request bytes not yet answered.
    fn unread(&self) -> &[u8] {
        &self.read_buf[self.read_at..]
    }

    /// The first `n` bytes of [`Session::output`] were sent; once all
    /// are, the session moves on.
    pub(crate) fn consumed<S>(&mut self, n: usize, router: &Router<S>, state: &Arc<S>) -> Fate {
        self.written += n;
        self.advance(router, state)
    }

    /// The peer will send nothing more: answer what is buffered, then
    /// close.
    pub(crate) fn peer_closed<S>(&mut self, router: &Router<S>, state: &Arc<S>) -> Fate {
        self.peer_closed = true;
        self.advance(router, state)
    }

    /// Timer work at `now`: refuse a head still incomplete the
    /// keep-alive timeout after its first byte, reap a connection that
    /// has sent nothing for that long, and pull a stream whose source had
    /// nothing. A stream waits on the server, so it is never reaped.
    pub(crate) fn tick<S>(&mut self, now: Instant, router: &Router<S>, state: &Arc<S>) -> Fate {
        if self.output().is_empty() && matches!(self.state, ConnState::Read) {
            if self.pending.is_none() && !self.unread().is_empty() {
                if now.duration_since(self.head_since) >= self.keep_alive {
                    self.refuse(Refusal::HeadTimeout);
                }
            } else if now.duration_since(self.idle_since) >= self.keep_alive {
                return Fate::Reap;
            }
        }
        self.advance(router, state)
    }

    /// Move on until the peer has to act: take output, or send more.
    fn advance<S>(&mut self, router: &Router<S>, state: &Arc<S>) -> Fate {
        loop {
            if self.written < self.write_buf.len() {
                return Fate::Keep;
            }
            self.write_buf.clear();
            self.written = 0;
            match &mut self.state {
                ConnState::Close => return Fate::Reap,
                // nobody is reading this stream
                ConnState::Stream(_) if self.peer_closed => return Fate::Reap,
                ConnState::Stream(source) => match source() {
                    StreamChunk::Pending => return Fate::Keep, // the tick pulls again
                    StreamChunk::Data(data) => render_chunk(&mut self.write_buf, &data),
                    StreamChunk::End => {
                        self.write_buf.extend_from_slice(b"0\r\n\r\n");
                        self.state = ConnState::Read;
                    }
                    StreamChunk::Abort => return Fate::Reap,
                },
                ConnState::Read => {
                    shrink(&mut self.write_buf);
                    if let Some(fate) = self.answer(router, state) {
                        return fate;
                    }
                }
            }
        }
    }

    /// Answer the next request in the read buffer. `None` once an answer
    /// is queued; otherwise the peer must send more first, or is gone.
    fn answer<S>(&mut self, router: &Router<S>, state: &Arc<S>) -> Option<Fate> {
        if self.pending.is_none() {
            match self.find_head_end() {
                Some(end) if end > MAX_HEAD => self.refuse(Refusal::HeadTooLarge),
                Some(end) => {
                    match parse_head(&self.read_buf[self.read_at..], end, &mut self.scratch) {
                        Ok(head) => self.pending = Some(head),
                        Err(refusal) => self.refuse(refusal),
                    }
                }
                None if self.unread().len() > MAX_HEAD => self.refuse(Refusal::HeadTooLarge),
                None if !self.peer_closed => return Some(Fate::Keep),
                None if self.unread().is_empty() => return Some(Fate::Reap),
                None => self.refuse(Refusal::Bad), // the peer closed mid-head
            }
        }
        let head = self.pending.as_ref()?; // refused: the answer is queued
        let total = head.head_len + head.content_length;
        if self.unread().len() < total {
            // a body the peer will never finish is not answered
            return Some(if self.peer_closed {
                Fate::Reap
            } else {
                Fate::Keep
            });
        }
        let mut head = self.pending.take()?;
        let unread = &self.read_buf[self.read_at..];
        head.req
            .body
            .extend_from_slice(&unread[head.head_len..total]);
        self.read_at += total;
        if self.read_at == self.read_buf.len() {
            self.read_buf.clear();
            self.read_at = 0;
            shrink(&mut self.read_buf);
        }
        self.head_scan = 0;
        self.head_since = self.idle_since;
        let resp = router.dispatch(state, &head.req);
        // reclaim the request containers for the next request
        self.scratch.headers = head.req.headers;
        self.scratch.body = head.req.body;
        self.state = match resp.stream {
            Some(source) => {
                render_stream_head(&mut self.write_buf, resp.status, resp.content_type);
                ConnState::Stream(source)
            }
            None => {
                render_response(&mut self.write_buf, &resp);
                if head.wants_close {
                    ConnState::Close
                } else {
                    ConnState::Read
                }
            }
        };
        None
    }

    /// Queue a refusal's answer, and close once it is sent.
    fn refuse(&mut self, refusal: Refusal) {
        self.pending = None;
        render_response(&mut self.write_buf, &refusal.response());
        self.state = ConnState::Close;
    }

    /// Where the blank line ending the head starts in the unanswered
    /// bytes, if it has arrived. The search resumes where the last one
    /// stopped, three bytes back for a `\r\n\r\n` split across reads.
    fn find_head_end(&mut self) -> Option<usize> {
        let unread = &self.read_buf[self.read_at..];
        let from = self.head_scan.saturating_sub(3);
        self.head_scan = unread.len();
        #[cfg(test)]
        {
            self.searched += unread.len() - from;
        }
        let mut windows = unread[from..].windows(4);
        windows.position(|w| w == b"\r\n\r\n").map(|pos| from + pos)
    }
}

/// Parse a complete head block (`buf[..head_end]`) into a request with
/// an empty body, reusing the connection's scratch containers.
fn parse_head(buf: &[u8], head_end: usize, scratch: &mut Scratch) -> Result<PendingHead, Refusal> {
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| Refusal::Bad)?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().ok_or(Refusal::Bad)?;
    let mut parts = request_line.split_whitespace();
    let method = parts.next().ok_or(Refusal::Bad)?.to_ascii_uppercase();
    let target = parts.next().ok_or(Refusal::Bad)?;
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };
    // a refused head closes its connection, so only success reclaims
    // the scratch containers
    let mut headers = std::mem::take(&mut scratch.headers);
    headers.clear();
    for line in lines.filter(|line| !line.is_empty()) {
        let (name, value) = line.split_once(':').ok_or(Refusal::Bad)?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    let content_length = match headers.iter().find(|(k, _)| k == "content-length") {
        None => 0,
        Some((_, v)) => v.parse::<usize>().map_err(|_| Refusal::Bad)?,
    };
    if content_length > MAX_BODY {
        return Err(Refusal::BodyTooLarge);
    }
    let wants_close = headers
        .iter()
        .find(|(k, _)| k == "connection")
        .is_some_and(|(_, v)| v.eq_ignore_ascii_case("close"));
    let mut body = std::mem::take(&mut scratch.body);
    body.clear();
    Ok(PendingHead {
        req: Request {
            method,
            path,
            query,
            headers,
            body,
        },
        head_len: head_end + 4,
        content_length,
        wants_close,
    })
}

/// Render a `Content-Length`-framed response head + body into `out` —
/// one buffer, one eventual write, exactly the byte layout the threaded
/// server produced (so every endpoint response stays bit-identical).
fn render_response(out: &mut Vec<u8>, resp: &Response) {
    let _ = write!(
        out,
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n",
        resp.status,
        Response::reason(resp.status),
        resp.content_type,
        resp.body.len()
    );
    out.extend_from_slice(&resp.body);
}

/// Render a chunked-transfer response head into `out`.
fn render_stream_head(out: &mut Vec<u8>, status: u16, content_type: &str) {
    let _ = write!(
        out,
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nTransfer-Encoding: chunked\r\nConnection: keep-alive\r\n\r\n",
        status,
        Response::reason(status),
        content_type,
    );
}

/// Frame one chunk of a chunked body into `out`.
fn render_chunk(out: &mut Vec<u8>, data: &[u8]) {
    let _ = write!(out, "{:x}\r\n", data.len());
    out.extend_from_slice(data);
    out.extend_from_slice(b"\r\n");
}

/// Shrink an empty oversized buffer back to a bounded keepsake.
fn shrink(buf: &mut Vec<u8>) {
    if buf.is_empty() && buf.capacity() > BUF_KEEP {
        buf.shrink_to(BUF_KEEP);
    }
}

/// An accepted connection: its socket, the interest mask registered for
/// it with epoll, and its session.
struct Conn {
    stream: TcpStream,
    interest: u32,
    session: Session,
}

impl Conn {
    /// Feed the session what the socket has (if `readable`), then send
    /// what the session has to say. Reading stops while an answer waits
    /// to be sent: a peer that pipelines without reading its answers
    /// fills the socket buffers and blocks, instead of the session
    /// buffering all it sends.
    fn pump<S>(
        &mut self,
        mut readable: bool,
        now: Instant,
        router: &Router<S>,
        state: &Arc<S>,
    ) -> Fate {
        let mut chunk = [0u8; READ_CHUNK];
        while readable && self.session.output().is_empty() {
            let fate = match self.stream.read(&mut chunk) {
                Ok(0) => {
                    readable = false; // end of stream
                    self.session.peer_closed(router, state)
                }
                Ok(n) => self.session.feed(&chunk[..n], now, router, state),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return Fate::Reap,
            };
            if fate == Fate::Reap {
                return fate;
            }
        }
        self.send(router, state)
    }

    /// Write the session's output until the socket blocks.
    fn send<S>(&mut self, router: &Router<S>, state: &Arc<S>) -> Fate {
        while !self.session.output().is_empty() {
            let fate = match self.stream.write(self.session.output()) {
                Ok(n) if n > 0 => self.session.consumed(n, router, state),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                _ => return Fate::Reap, // a socket error, or one that takes nothing
            };
            if fate == Fate::Reap {
                return fate;
            }
        }
        Fate::Keep
    }

    /// Close a reaped connection, or arm EPOLLOUT exactly while its
    /// session has output pending and EPOLLIN | EPOLLRDHUP exactly while
    /// it has none ([`Conn::pump`] reads nothing then, and the
    /// level-triggered readiness would wake the loop at once, forever).
    /// Returns whether the connection stays.
    fn settle(&mut self, fate: Fate, epoll: &sys::Epoll, token: u64) -> bool {
        let fd = self.stream.as_raw_fd();
        if fate == Fate::Reap {
            epoll.delete(fd);
            return false;
        }
        let want = if self.session.output().is_empty() {
            sys::EPOLLIN | sys::EPOLLRDHUP
        } else {
            sys::EPOLLOUT
        };
        if want != self.interest && epoll.modify(fd, want, token).is_ok() {
            self.interest = want;
        }
        true
    }
}

struct EventLoop<S> {
    epoll: sys::Epoll,
    listener: Arc<TcpListener>,
    state: Arc<S>,
    router: Arc<Router<S>>,
    stop: Arc<AtomicBool>,
    keep_alive: Duration,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    /// The listener is out of this loop's interest set after an accept
    /// error (until the next tick).
    listener_paused: bool,
}

/// Listener token (every loop registers the shared listener under it).
const LISTENER: u64 = 0;

impl<S: Send + Sync + 'static> EventLoop<S> {
    fn run(mut self) {
        let mut events = [sys::EpollEvent { events: 0, data: 0 }; MAX_EVENTS];
        let mut last_tick = Instant::now();
        loop {
            if self.stop.load(Ordering::Relaxed) {
                return; // dropping the loop closes every connection fd
            }
            let n = match self.epoll.wait(&mut events, TICK) {
                Ok(n) => n,
                Err(_) => return,
            };
            let now = Instant::now();
            for ev in &events[..n] {
                let (ready, token) = (ev.events, ev.data);
                if token == LISTENER {
                    self.accept_ready(now);
                    continue;
                }
                let Some(conn) = self.conns.get_mut(&token) else {
                    continue; // already closed this batch
                };
                let fate = if ready & (sys::EPOLLERR | sys::EPOLLHUP) != 0 {
                    Fate::Reap
                } else {
                    let readable = ready & (sys::EPOLLIN | sys::EPOLLRDHUP) != 0;
                    conn.pump(readable, now, &self.router, &self.state)
                };
                if !conn.settle(fate, &self.epoll, token) {
                    self.conns.remove(&token);
                }
            }
            if now.duration_since(last_tick) >= TICK {
                last_tick = now;
                self.tick(now);
            }
        }
    }

    /// Accept every pending connection (level-triggered: loops race for
    /// them; the loser reads `WouldBlock` and moves on). Any other error
    /// (EMFILE/ENFILE when descriptors run out) leaves the connection
    /// pending, so the level-triggered listener would wake this loop
    /// again at once, forever: it leaves the interest set instead, and
    /// the next tick puts it back.
    fn accept_ready(&mut self, now: Instant) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                        continue;
                    }
                    let token = self.next_token;
                    self.next_token += 1;
                    let interest = sys::EPOLLIN | sys::EPOLLRDHUP;
                    if self.epoll.add(stream.as_raw_fd(), interest, token).is_ok() {
                        let session = Session::new(now, self.keep_alive);
                        let conn = Conn {
                            stream,
                            interest,
                            session,
                        };
                        self.conns.insert(token, conn);
                    }
                }
                Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(_) => {
                    self.epoll.delete(self.listener.as_raw_fd());
                    self.listener_paused = true;
                    return;
                }
            }
        }
    }

    /// Periodic work: re-add a paused listener, and tick every session
    /// once, closing those it reaps.
    fn tick(&mut self, now: Instant) {
        if self.listener_paused
            && self
                .epoll
                .add(self.listener.as_raw_fd(), sys::EPOLLIN, LISTENER)
                .is_ok()
        {
            self.listener_paused = false;
        }
        let (epoll, router, state) = (&self.epoll, &*self.router, &self.state);
        self.conns.retain(|&token, conn| {
            let fate = match conn.session.tick(now, router, state) {
                Fate::Keep => conn.send(router, state),
                Fate::Reap => Fate::Reap,
            };
            conn.settle(fate, epoll, token)
        });
    }
}

/// A running HTTP server: the bound address and a shutdown handle.
pub struct HttpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    loops: Vec<thread::JoinHandle<()>>,
}

impl HttpServer {
    /// Bind `addr` (e.g. `127.0.0.1:0`) and serve `router` over `state`
    /// with default [`HttpdConfig`] until [`HttpServer::shutdown`].
    pub fn bind<S: Send + Sync + 'static>(
        addr: &str,
        state: Arc<S>,
        router: Router<S>,
    ) -> io::Result<HttpServer> {
        HttpServer::bind_with(addr, state, router, HttpdConfig::default())
    }

    /// [`HttpServer::bind`] with explicit event-loop and keep-alive
    /// configuration.
    pub fn bind_with<S: Send + Sync + 'static>(
        addr: &str,
        state: Arc<S>,
        router: Router<S>,
        cfg: HttpdConfig,
    ) -> io::Result<HttpServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let listener = Arc::new(listener);
        let stop = Arc::new(AtomicBool::new(false));
        let router = Arc::new(router);
        let mut loops = Vec::with_capacity(cfg.loops());
        for i in 0..cfg.loops() {
            let epoll = sys::Epoll::new()?;
            epoll.add(listener.as_raw_fd(), sys::EPOLLIN, LISTENER)?;
            let event_loop = EventLoop {
                epoll,
                listener: Arc::clone(&listener),
                state: Arc::clone(&state),
                router: Arc::clone(&router),
                stop: Arc::clone(&stop),
                keep_alive: cfg.keep_alive,
                conns: HashMap::with_capacity(64),
                next_token: 1,
                listener_paused: false,
            };
            loops.push(
                thread::Builder::new()
                    .name(format!("tassd-epoll-{i}"))
                    .spawn(move || event_loop.run())?,
            );
        }
        Ok(HttpServer { addr, stop, loops })
    }

    /// The actually-bound address (resolves `:0` port requests).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop the event loops and close every connection. Returns once
    /// all loop threads have exited (at most one tick).
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for h in self.loops.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::HttpClient;
    use proptest::prelude::*;

    fn router() -> Router<u32> {
        Router::new()
            .route("GET", "/ping", |state, _req, _p| {
                Response::text(200, format!("pong {state}"))
            })
            .route("GET", "/items/{id}/detail", |_state, _req, p| {
                Response::json(200, format!(r#"{{"id":"{}"}}"#, p.get("id").unwrap()))
            })
            .route("POST", "/echo", |_state, req, _p| {
                Response::json(200, req.body.clone())
            })
            .route("GET", "/count", |_state, _req, _p| {
                let mut n = 0;
                Response::stream(200, "text/plain; charset=utf-8", move || {
                    n += 1;
                    match n {
                        1..=3 => StreamChunk::Data(format!("chunk-{n};").into_bytes()),
                        _ => StreamChunk::End,
                    }
                })
            })
    }

    #[test]
    fn routes_params_and_errors_over_real_tcp() {
        let server = HttpServer::bind("127.0.0.1:0", Arc::new(7u32), router()).unwrap();
        let mut client = HttpClient::connect(server.addr());
        let (status, body) = client.get("/ping", None).unwrap();
        assert_eq!((status, body.as_str()), (200, "pong 7"));
        let (status, body) = client.get("/items/42/detail", None).unwrap();
        assert_eq!((status, body.as_str()), (200, r#"{"id":"42"}"#));
        let (status, body) = client.post("/echo", None, r#"{"k":1}"#).unwrap();
        assert_eq!((status, body.as_str()), (200, r#"{"k":1}"#));
        // 404 vs 405 are distinguished
        let (status, body) = client.get("/nope", None).unwrap();
        assert_eq!(status, 404);
        assert!(body.contains("not_found"));
        let (status, body) = client.post("/ping", None, "").unwrap();
        assert_eq!(status, 405);
        assert!(body.contains("method_not_allowed"));
        // many requests ride one keep-alive connection
        for _ in 0..20 {
            let (status, _) = client.get("/ping", None).unwrap();
            assert_eq!(status, 200);
        }
        assert_eq!(client.reconnects(), 0, "keep-alive must hold one socket");
        server.shutdown();
    }

    #[test]
    fn chunked_stream_decodes_and_connection_survives() {
        let server = HttpServer::bind("127.0.0.1:0", Arc::new(0u32), router()).unwrap();
        let mut client = HttpClient::connect(server.addr());
        let mut chunks = Vec::with_capacity(4);
        let (status, body) = client
            .get_stream("/count", None, |c| {
                chunks.push(String::from_utf8_lossy(c).into_owned())
            })
            .unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, b"chunk-1;chunk-2;chunk-3;");
        assert_eq!(chunks.len(), 3, "each Data pull is one wire chunk");
        // the connection is reusable after the terminal chunk
        let (status, _) = client.get("/ping", None).unwrap();
        assert_eq!(status, 200);
        assert_eq!(client.reconnects(), 0);
        server.shutdown();
    }

    #[test]
    fn idle_connections_are_reaped_after_keep_alive() {
        let server = HttpServer::bind_with(
            "127.0.0.1:0",
            Arc::new(1u32),
            router(),
            HttpdConfig {
                event_loops: 1,
                keep_alive: Duration::from_millis(150),
            },
        )
        .unwrap();
        let mut raw = TcpStream::connect(server.addr()).unwrap();
        raw.write_all(b"GET /ping HTTP/1.1\r\n\r\n").unwrap();
        let mut chunk = [0u8; 1024];
        let n = raw.read(&mut chunk).unwrap();
        assert!(n > 0, "live connection answers");
        // now go idle past the keep-alive window: the server closes us
        raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let n = raw.read(&mut chunk).unwrap_or(0);
        assert_eq!(n, 0, "idle connection must be reaped (EOF)");
        server.shutdown();
    }

    const KEEP_ALIVE: Duration = Duration::from_secs(10);

    /// The peer of one session, played by the test: it sends bytes at
    /// instants it chooses, takes the session's output `write` bytes at a
    /// time, and keeps all of it in `out`.
    struct Peer {
        session: Session,
        router: Router<u32>,
        state: Arc<u32>,
        write: usize,
        out: Vec<u8>,
    }

    impl Peer {
        fn new(t0: Instant, write: usize) -> Peer {
            Peer {
                session: Session::new(t0, KEEP_ALIVE),
                router: router(),
                state: Arc::new(3),
                write,
                out: Vec::new(),
            }
        }

        /// Send `bytes` at `now`, then take the output.
        fn send(&mut self, bytes: &[u8], now: Instant) -> Fate {
            let fate = self.session.feed(bytes, now, &self.router, &self.state);
            self.take(fate)
        }

        /// Tick the session at `now`, then take the output.
        fn tick(&mut self, now: Instant) -> Fate {
            let fate = self.session.tick(now, &self.router, &self.state);
            self.take(fate)
        }

        /// Close the write half, then take the output.
        fn close(&mut self) -> Fate {
            let fate = self.session.peer_closed(&self.router, &self.state);
            self.take(fate)
        }

        fn take(&mut self, mut fate: Fate) -> Fate {
            while fate == Fate::Keep && !self.session.output().is_empty() {
                let output = self.session.output();
                let n = output.len().min(self.write);
                self.out.extend_from_slice(&output[..n]);
                fate = self.session.consumed(n, &self.router, &self.state);
            }
            fate
        }

        fn text(&self) -> String {
            String::from_utf8(self.out.clone()).unwrap()
        }
    }

    /// `input` sent in pieces cut at `cuts` (ascending), then the peer
    /// closes. Returns the output, and whether the session was done
    /// before the peer closed.
    fn exchange(input: &[u8], cuts: &[usize], write: usize) -> (String, bool) {
        let t0 = Instant::now();
        let mut peer = Peer::new(t0, write);
        let mut start = 0;
        for &end in cuts.iter().chain([&input.len()]) {
            if peer.send(&input[start..end], t0) == Fate::Reap {
                return (peer.text(), true);
            }
            start = end;
        }
        assert_eq!(
            peer.close(),
            Fate::Reap,
            "a session ends when its peer does"
        );
        (peer.text(), false)
    }

    /// The status codes in `output`, in order.
    fn statuses(output: &str) -> Vec<&str> {
        output
            .match_indices("HTTP/1.1 ")
            .map(|(i, _)| &output[i + 9..i + 12])
            .collect()
    }

    /// Scripted byte sequences: what each must answer, and whether the
    /// session closes before the peer does.
    fn scripts() -> Vec<(Vec<u8>, &'static [&'static str], bool)> {
        let mut oversized_head = b"GET /ping HTTP/1.1\r\nx-filler: ".to_vec();
        oversized_head.resize(MAX_HEAD + 100, b'y');
        oversized_head.extend_from_slice(b"\r\n\r\n");
        vec![
            (
                b"GET /ping HTTP/1.1\r\n\r\nGET /items/9/detail HTTP/1.1\r\nX-Api-Key: k\r\n\r\n\
                  POST /echo HTTP/1.1\r\nContent-Length: 7\r\n\r\n{\"k\":1}GET /nope HTTP/1.1\r\n\r\n"
                    .to_vec(),
                &["200", "200", "200", "404"],
                false,
            ),
            (
                b"GET /ping HTTP/1.1\r\n\r\nGET /ping HTTP/1.1\r\nno colon\r\n\r\nGET /ping HTTP/1.1\r\n\r\n"
                    .to_vec(),
                &["200", "400"],
                true,
            ),
            (oversized_head, &["431"], true),
            (
                b"GET /ping HTTP/1.1\r\n\r\nPOST /echo HTTP/1.1\r\nContent-Length: 5000000\r\n\r\nxyz"
                    .to_vec(),
                &["200", "413"],
                true,
            ),
            (
                b"GET /ping HTTP/1.1\r\nConnection: close\r\n\r\nGET /ping HTTP/1.1\r\n\r\n".to_vec(),
                &["200"],
                true,
            ),
            (
                b"GET /count HTTP/1.1\r\n\r\nGET /ping HTTP/1.1\r\n\r\n".to_vec(),
                &["200", "200"],
                false,
            ),
        ]
    }

    #[test]
    fn split_at_every_offset_gives_the_whole_feed_output() {
        for (input, answers, closes) in scripts() {
            let whole = exchange(&input, &[], usize::MAX);
            assert_eq!(statuses(&whole.0), answers, "{whole:?}");
            assert_eq!(whole.1, closes, "{whole:?}");
            for cut in 0..=input.len() {
                assert_eq!(exchange(&input, &[cut], usize::MAX), whole, "cut at {cut}");
            }
        }
        let (stream, _) = exchange(b"GET /count HTTP/1.1\r\n\r\n", &[], usize::MAX);
        assert!(
            stream
                .ends_with("\r\n\r\n8\r\nchunk-1;\r\n8\r\nchunk-2;\r\n8\r\nchunk-3;\r\n0\r\n\r\n"),
            "{stream:?}"
        );
    }

    proptest! {
        /// Any number of cuts at any offsets, and output taken in pieces
        /// of any size, give the whole-feed output.
        #[test]
        fn random_splits_give_the_whole_feed_output(
            script in 0usize..6,
            cuts in collection::vec(any::<usize>(), 0..12),
            write in 1usize..64,
        ) {
            let (input, _, _) = scripts().swap_remove(script);
            let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (input.len() + 1)).collect();
            cuts.sort_unstable();
            let whole = exchange(&input, &[], usize::MAX);
            prop_assert_eq!(exchange(&input, &cuts, write), whole);
        }
    }

    #[test]
    fn malformed_requests_get_400() {
        let (resp, _) = exchange(
            b"GET /ping HTTP/1.1\r\nthis header has no colon\r\n\r\n",
            &[],
            usize::MAX,
        );
        assert!(resp.starts_with("HTTP/1.1 400"), "got {resp:?}");
    }

    #[test]
    fn oversized_head_gets_431_with_typed_body() {
        let mut input = b"GET /ping HTTP/1.1\r\n".to_vec();
        let filler = format!("x-filler: {}\r\n", "y".repeat(1000));
        let mut cuts = Vec::with_capacity(20);
        for _ in 0..20 {
            cuts.push(input.len());
            input.extend_from_slice(filler.as_bytes());
        }
        let (resp, _) = exchange(&input, &cuts, usize::MAX);
        assert!(resp.starts_with("HTTP/1.1 431"), "got {resp:?}");
        assert!(resp.contains("head_too_large"), "got {resp:?}");
    }

    #[test]
    fn oversized_body_gets_413_with_typed_body() {
        let (resp, _) = exchange(
            b"POST /echo HTTP/1.1\r\nContent-Length: 5000000\r\n\r\n",
            &[],
            usize::MAX,
        );
        assert!(resp.starts_with("HTTP/1.1 413"), "got {resp:?}");
        assert!(resp.contains("body_too_large"), "got {resp:?}");
    }

    #[test]
    fn pipelined_requests_answer_in_order() {
        let (resp, _) = exchange(
            b"GET /ping HTTP/1.1\r\n\r\nGET /items/9/detail HTTP/1.1\r\nConnection: close\r\n\r\n",
            &[],
            usize::MAX,
        );
        let first = resp.find("pong 3").expect("first response present");
        let second = resp.find(r#"{"id":"9"}"#).expect("second response present");
        assert!(
            first < second,
            "responses must come back in order: {resp:?}"
        );
    }

    #[test]
    fn idle_sessions_are_reaped_at_keep_alive() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        // a connection that never sends is reaped at the timeout
        let mut peer = Peer::new(t0, usize::MAX);
        assert_eq!(peer.tick(at(9_999)), Fate::Keep);
        assert_eq!(peer.tick(at(10_000)), Fate::Reap);
        // a request restarts the timeout
        let mut peer = Peer::new(t0, usize::MAX);
        assert_eq!(
            peer.send(b"GET /ping HTTP/1.1\r\n\r\n", at(5_000)),
            Fate::Keep
        );
        assert_eq!(statuses(&peer.text()), ["200"]);
        assert_eq!(peer.tick(at(14_999)), Fate::Keep);
        assert_eq!(peer.tick(at(15_000)), Fate::Reap);
        // a body that stops arriving is reaped without an answer
        let mut peer = Peer::new(t0, usize::MAX);
        let post = b"POST /echo HTTP/1.1\r\nContent-Length: 9\r\n\r\n{";
        assert_eq!(peer.send(post, at(1_000)), Fate::Keep);
        assert_eq!(peer.tick(at(11_000)), Fate::Reap);
        assert!(peer.out.is_empty());
    }

    #[test]
    fn a_dripped_head_gets_408_at_its_deadline() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        // after 3 s idle, a head arrives a byte a second and never ends;
        // every byte would restart an idle timer, but the head's deadline
        // counts from its first byte
        let mut peer = Peer::new(t0, usize::MAX);
        for (i, byte) in b"GET /ping HTTP/1.1\r\nX-Slow: 1".iter().enumerate() {
            let now = at(3_000 + 1_000 * i as u64);
            if now >= at(13_000) {
                break;
            }
            assert_eq!(peer.send(&[*byte], now), Fate::Keep);
            assert_eq!(peer.tick(now), Fate::Keep);
        }
        assert_eq!(peer.tick(at(12_999)), Fate::Keep);
        assert!(peer.out.is_empty());
        assert_eq!(peer.tick(at(13_000)), Fate::Reap);
        let resp = peer.text();
        assert!(
            resp.starts_with("HTTP/1.1 408 Request Timeout\r\n"),
            "{resp:?}"
        );
        assert!(resp.contains(r#""code":"request_timeout""#), "{resp:?}");
        // a head that starts behind a served request counts from its own
        // first byte too
        let mut peer = Peer::new(t0, usize::MAX);
        assert_eq!(
            peer.send(b"GET /ping HTTP/1.1\r\n\r\nGE", at(0)),
            Fate::Keep
        );
        assert_eq!(peer.send(b"T /p", at(5_000)), Fate::Keep);
        assert_eq!(peer.tick(at(9_999)), Fate::Keep);
        assert_eq!(peer.tick(at(10_000)), Fate::Reap);
        assert_eq!(statuses(&peer.text()), ["200", "408"]);
    }

    #[test]
    fn a_dripped_head_is_searched_in_linear_time() {
        let mut head = b"GET /ping HTTP/1.1\r\nx-filler: ".to_vec();
        head.resize(MAX_HEAD - 4, b'y');
        head.extend_from_slice(b"\r\n\r\n");
        let t0 = Instant::now();
        let mut peer = Peer::new(t0, usize::MAX);
        for byte in &head {
            assert_eq!(peer.send(&[*byte], t0), Fate::Keep);
        }
        assert_eq!(statuses(&peer.text()), ["200"]);
        let (n, searched) = (head.len(), peer.session.searched);
        assert!(
            searched <= 4 * n,
            "{searched} bytes searched for a {n}-byte head"
        );
    }
}

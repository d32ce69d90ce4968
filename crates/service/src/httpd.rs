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
//! # The event loop
//!
//! A small fixed pool of event-loop threads (default: one per core,
//! capped at four) each owns an `epoll` instance and a set of accepted
//! connections; the shared non-blocking listener is registered
//! level-triggered in every loop, so whichever loop wakes first takes
//! the new connection and keeps it for life. There is **no
//! thread-per-connection anywhere**: ten thousand idle keep-alive
//! connections cost ten thousand file descriptors and nothing else.
//!
//! Each connection runs a state machine:
//!
//! ```text
//!        readable                head + body complete
//! Read ───────────▶ parse head ──────────────────────▶ dispatch
//!   ▲   (431 over 16 KiB, 413 over 4 MiB, 400 malformed → respond+close)
//!   │                                                      │
//!   │ keep-alive re-arm                                    ▼
//! Write ◀──────────────────────────────────── response → write buffer
//!   │  partial write? arm EPOLLOUT, resume where it stopped
//!   ▼
//! Stream (chunked transfer encoding: pull the body source whenever the
//!         socket is writable and on every tick; `0\r\n\r\n` → keep-alive)
//! ```
//!
//! # Cost model
//!
//! The steady state allocates nothing per request in the transport: each
//! connection owns one reusable read buffer and one reusable write
//! buffer (responses are rendered straight into the write buffer, head
//! and body in one pass), and the parsed [`Request`]'s header/body
//! containers are reclaimed after dispatch so their capacity survives to
//! the next request. The per-request allocations left are the request's
//! method, path and header strings, the route parameter lists and the
//! response body, and their number does not grow with the connection's
//! history (`tests/scan_alloc.rs`). Handlers run on the event-loop
//! thread — the API holds locks for microseconds, so dispatch is cheap —
//! and a slow *client* can never stall another connection: it only ever
//! parks its own state machine until its socket is ready again.
//!
//! Timers ride the `epoll_wait` timeout: every tick (25 ms) each loop
//! reaps connections idle past the configurable keep-alive timeout and
//! polls streaming responses whose source had nothing to send. Scope
//! (and non-scope): HTTP/1.1 keep-alive, `Content-Length` framing for
//! requests, `Content-Length` or chunked transfer encoding for
//! responses. No TLS, no HTTP/2.

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

    fn match_path(pattern: &[Seg], path: &str) -> Option<PathParams> {
        let mut segs = path.split('/').filter(|s| !s.is_empty());
        let mut params = Vec::with_capacity(2);
        for pat in pattern {
            let seg = segs.next()?;
            match pat {
                Seg::Lit(lit) if lit == seg => {}
                Seg::Lit(_) => return None,
                Seg::Param(name) => params.push((name.clone(), seg.to_string())),
            }
        }
        if segs.next().is_some() {
            return None;
        }
        Some(PathParams(params))
    }

    /// Dispatch one request: `404` when no pattern matches the path,
    /// `405` when a pattern matches but not the method.
    pub fn dispatch(&self, state: &Arc<S>, req: &Request) -> Response {
        let mut path_matched = false;
        for route in &self.routes {
            if let Some(params) = Router::<S>::match_path(&route.pattern, &req.path) {
                if route.method == req.method {
                    return (route.handler)(state, req, &params);
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
    /// are closed after this long.
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

/// Why a request could not be parsed, and what the wire answer is.
enum ParseError {
    /// Malformed head → `400`, close.
    Bad,
    /// Head block over [`MAX_HEAD`] → `431`, close.
    HeadTooLarge,
    /// Declared body over [`MAX_BODY`] → `413`, close.
    BodyTooLarge,
}

impl ParseError {
    fn response(&self) -> Response {
        match self {
            ParseError::Bad => Response::json(
                400,
                r#"{"error":{"code":"bad_request","message":"malformed HTTP request"}}"#,
            ),
            ParseError::HeadTooLarge => Response::json(
                431,
                r#"{"error":{"code":"head_too_large","message":"request head exceeds the 16 KiB cap"}}"#,
            ),
            ParseError::BodyTooLarge => Response::json(
                413,
                r#"{"error":{"code":"body_too_large","message":"request body exceeds the 4 MiB cap"}}"#,
            ),
        }
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

/// What to do once the write buffer drains.
enum AfterWrite {
    /// Reset for the next request on the same connection.
    KeepAlive,
    /// Close the connection (protocol error or `Connection: close`).
    Close,
    /// Begin pulling a chunked body from this source.
    Stream(ChunkSource),
}

enum ConnState {
    /// Accumulating request bytes in the read buffer.
    Read,
    /// Draining the write buffer.
    Write(AfterWrite),
    /// Chunked body in flight: drain the write buffer, then pull.
    Stream(ChunkSource),
}

/// Reclaimed request containers: their capacity survives to the next
/// request on the same connection, so steady-state parsing re-allocates
/// neither the header vector nor the body buffer.
#[derive(Default)]
struct Scratch {
    headers: Vec<(String, String)>,
    body: Vec<u8>,
}

struct Conn {
    stream: TcpStream,
    state: ConnState,
    /// Unconsumed request bytes (reused across requests; pipelined
    /// requests queue here until the current response is done).
    read_buf: Vec<u8>,
    /// Rendered response bytes not yet accepted by the socket.
    write_buf: Vec<u8>,
    /// Prefix of `write_buf` already written.
    written: usize,
    /// Parsed head waiting for body bytes.
    pending: Option<PendingHead>,
    /// Interest mask currently registered with epoll.
    interest: u32,
    /// Last moment bytes arrived from the peer (idle-reap clock).
    last_read: Instant,
    /// Peer closed its write half (EPOLLRDHUP).
    peer_closed: bool,
    scratch: Scratch,
}

impl Conn {
    fn new(stream: TcpStream, now: Instant) -> Conn {
        Conn {
            stream,
            state: ConnState::Read,
            read_buf: Vec::with_capacity(4096),
            write_buf: Vec::with_capacity(4096),
            written: 0,
            pending: None,
            interest: sys::EPOLLIN | sys::EPOLLRDHUP,
            last_read: now,
            peer_closed: false,
            scratch: Scratch::default(),
        }
    }

    fn wants_write(&self) -> bool {
        self.written < self.write_buf.len()
    }
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Parse a complete head block (`buf[..head_end]`) into a request with
/// an empty body, reusing the connection's scratch containers.
fn parse_head(
    buf: &[u8],
    head_end: usize,
    scratch: &mut Scratch,
) -> Result<PendingHead, ParseError> {
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| ParseError::Bad)?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().ok_or(ParseError::Bad)?;
    let mut parts = request_line.split_whitespace();
    let method = parts.next().ok_or(ParseError::Bad)?.to_ascii_uppercase();
    let target = parts.next().ok_or(ParseError::Bad)?;
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };
    let mut headers = std::mem::take(&mut scratch.headers);
    headers.clear();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some((name, value)) = line.split_once(':') else {
            scratch.headers = headers;
            return Err(ParseError::Bad);
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    let content_length = match headers.iter().find(|(k, _)| k == "content-length") {
        None => 0,
        Some((_, v)) => match v.parse::<usize>() {
            Ok(n) => n,
            Err(_) => {
                scratch.headers = headers;
                return Err(ParseError::Bad);
            }
        },
    };
    if content_length > MAX_BODY {
        scratch.headers = headers;
        return Err(ParseError::BodyTooLarge);
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

/// What a connection drive pass decided.
enum Drive {
    /// Keep the connection; interest may need re-arming.
    Keep,
    /// Close and forget the connection.
    Close,
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
    /// error (until the next sweep).
    listener_paused: bool,
}

/// Listener token (every loop registers the shared listener under it).
const LISTENER: u64 = 0;

impl<S: Send + Sync + 'static> EventLoop<S> {
    fn run(mut self) {
        let mut events = [sys::EpollEvent { events: 0, data: 0 }; MAX_EVENTS];
        let mut last_sweep = Instant::now();
        loop {
            if self.stop.load(Ordering::Relaxed) {
                return; // dropping the loop closes every connection fd
            }
            let n = match self.epoll.wait(&mut events, TICK) {
                Ok(n) => n,
                Err(_) => return,
            };
            for ev in &events[..n] {
                let (ready, token) = (ev.events, ev.data);
                if token == LISTENER {
                    self.accept_ready();
                    continue;
                }
                let Some(mut conn) = self.conns.remove(&token) else {
                    continue; // already closed this batch
                };
                if ready & (sys::EPOLLERR | sys::EPOLLHUP) != 0 {
                    continue; // conn drops; fd closes
                }
                if ready & sys::EPOLLRDHUP != 0 {
                    conn.peer_closed = true;
                }
                match self.drive(&mut conn, ready) {
                    Drive::Keep => {
                        self.rearm(&mut conn, token);
                        self.conns.insert(token, conn);
                    }
                    Drive::Close => {
                        self.epoll.delete(conn.stream.as_raw_fd());
                    }
                }
            }
            let now = Instant::now();
            if now.duration_since(last_sweep) >= TICK {
                last_sweep = now;
                self.sweep(now);
            }
        }
    }

    /// Accept every pending connection (level-triggered: loops race for
    /// them; the loser reads `WouldBlock` and moves on). Any other error
    /// (EMFILE/ENFILE when descriptors run out) leaves the connection
    /// pending, so the level-triggered listener would wake this loop
    /// again at once, forever: it leaves the interest set instead, and
    /// the next sweep puts it back.
    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                        continue;
                    }
                    let token = self.next_token;
                    self.next_token += 1;
                    let conn = Conn::new(stream, Instant::now());
                    if self
                        .epoll
                        .add(conn.stream.as_raw_fd(), conn.interest, token)
                        .is_ok()
                    {
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

    /// Re-register the connection if its desired interest changed
    /// (EPOLLOUT is armed exactly while a write is pending).
    fn rearm(&self, conn: &mut Conn, token: u64) {
        let mut want = sys::EPOLLIN | sys::EPOLLRDHUP;
        if conn.wants_write() {
            want |= sys::EPOLLOUT;
        }
        if want != conn.interest
            && self
                .epoll
                .modify(conn.stream.as_raw_fd(), want, token)
                .is_ok()
        {
            conn.interest = want;
        }
    }

    /// Periodic work: re-add a paused listener, reap idle connections
    /// and poll streaming bodies whose source had nothing to send on the
    /// last pass.
    fn sweep(&mut self, now: Instant) {
        if self.listener_paused
            && self
                .epoll
                .add(self.listener.as_raw_fd(), sys::EPOLLIN, LISTENER)
                .is_ok()
        {
            self.listener_paused = false;
        }
        let keep_alive = self.keep_alive;
        let mut closed: Vec<u64> = Vec::with_capacity(0);
        let mut stream_tokens: Vec<u64> = Vec::with_capacity(0);
        for (token, conn) in &self.conns {
            match conn.state {
                // a streaming connection is waiting on the *server*
                // (campaign progress), not the peer — never idle-reaped
                ConnState::Stream(_) => stream_tokens.push(*token),
                _ => {
                    if now.duration_since(conn.last_read) >= keep_alive && !conn.wants_write() {
                        closed.push(*token);
                    }
                }
            }
        }
        for token in closed {
            if let Some(conn) = self.conns.remove(&token) {
                self.epoll.delete(conn.stream.as_raw_fd());
            }
        }
        for token in stream_tokens {
            let Some(mut conn) = self.conns.remove(&token) else {
                continue;
            };
            match self.drive(&mut conn, 0) {
                Drive::Keep => {
                    self.rearm(&mut conn, token);
                    self.conns.insert(token, conn);
                }
                Drive::Close => self.epoll.delete(conn.stream.as_raw_fd()),
            }
        }
    }

    /// Advance one connection's state machine as far as the socket
    /// allows right now.
    fn drive(&mut self, conn: &mut Conn, ready: u32) -> Drive {
        if ready & sys::EPOLLIN != 0 {
            match self.fill(conn) {
                Ok(()) => {}
                Err(_) => return Drive::Close,
            }
        }
        loop {
            match &mut conn.state {
                ConnState::Read => match self.drive_read(conn) {
                    Some(Drive::Close) => return Drive::Close,
                    Some(Drive::Keep) => continue, // response queued: fall into Write
                    None => return Drive::Keep,    // need more bytes
                },
                ConnState::Write(_) => {
                    match flush(&mut conn.stream, &conn.write_buf, &mut conn.written) {
                        Flush::Blocked => return Drive::Keep,
                        Flush::Error => return Drive::Close,
                        Flush::Done => {
                            conn.write_buf.clear();
                            conn.written = 0;
                            shrink(&mut conn.write_buf);
                            let ConnState::Write(after) =
                                std::mem::replace(&mut conn.state, ConnState::Read)
                            else {
                                unreachable!("matched Write above");
                            };
                            match after {
                                AfterWrite::Close => return Drive::Close,
                                AfterWrite::Stream(source) => {
                                    conn.state = ConnState::Stream(source);
                                    continue;
                                }
                                AfterWrite::KeepAlive => {
                                    if conn.peer_closed && conn.read_buf.is_empty() {
                                        return Drive::Close;
                                    }
                                    continue; // pipelined request may be buffered
                                }
                            }
                        }
                    }
                }
                ConnState::Stream(source) => {
                    // `source` borrows only `conn.state`; the flush
                    // touches the disjoint socket + write fields
                    match flush(&mut conn.stream, &conn.write_buf, &mut conn.written) {
                        Flush::Blocked => return Drive::Keep,
                        Flush::Error => return Drive::Close,
                        Flush::Done => {}
                    }
                    conn.write_buf.clear();
                    conn.written = 0;
                    if conn.peer_closed {
                        return Drive::Close; // nobody is reading this stream
                    }
                    match source() {
                        StreamChunk::Pending => return Drive::Keep, // tick re-polls
                        StreamChunk::Data(data) => {
                            render_chunk(&mut conn.write_buf, &data);
                            continue;
                        }
                        StreamChunk::End => {
                            conn.write_buf.extend_from_slice(b"0\r\n\r\n");
                            conn.state = ConnState::Write(AfterWrite::KeepAlive);
                            continue;
                        }
                        StreamChunk::Abort => return Drive::Close,
                    }
                }
            }
        }
    }

    /// Pull everything the socket has into the read buffer.
    fn fill(&self, conn: &mut Conn) -> io::Result<()> {
        let mut chunk = [0u8; READ_CHUNK];
        loop {
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    conn.peer_closed = true;
                    return Ok(());
                }
                Ok(n) => {
                    conn.read_buf.extend_from_slice(&chunk[..n]);
                    conn.last_read = Instant::now();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => Err(e)?,
            }
        }
    }

    /// Try to complete one request from the read buffer. `None`: need
    /// more bytes. `Some(Keep)`: a response was queued (state moved to
    /// `Write`). `Some(Close)`: connection is done.
    fn drive_read(&mut self, conn: &mut Conn) -> Option<Drive> {
        if conn.pending.is_none() {
            let head_end = match find_head_end(&conn.read_buf) {
                Some(pos) if pos > MAX_HEAD => {
                    return Some(self.fatal(conn, ParseError::HeadTooLarge))
                }
                Some(pos) => pos,
                None if conn.read_buf.len() > MAX_HEAD => {
                    return Some(self.fatal(conn, ParseError::HeadTooLarge))
                }
                None if conn.peer_closed => {
                    if conn.read_buf.is_empty() {
                        return Some(Drive::Close);
                    }
                    return Some(self.fatal(conn, ParseError::Bad));
                }
                None => return None,
            };
            match parse_head(&conn.read_buf, head_end, &mut conn.scratch) {
                Ok(pending) => conn.pending = Some(pending),
                Err(e) => return Some(self.fatal(conn, e)),
            }
        }
        let total = {
            let pending = conn.pending.as_ref().expect("set above");
            pending.head_len + pending.content_length
        };
        if conn.read_buf.len() < total {
            if conn.peer_closed {
                return Some(Drive::Close); // truncated body, peer gone
            }
            return None;
        }
        let mut pending = conn.pending.take().expect("checked above");
        pending
            .req
            .body
            .extend_from_slice(&conn.read_buf[pending.head_len..total]);
        conn.read_buf.drain(..total);
        shrink(&mut conn.read_buf);
        let resp = self.router.dispatch(&self.state, &pending.req);
        // reclaim the request containers for the next request
        conn.scratch.headers = pending.req.headers;
        conn.scratch.body = pending.req.body;
        let after = match resp.stream {
            Some(source) => {
                render_stream_head(&mut conn.write_buf, resp.status, resp.content_type);
                AfterWrite::Stream(source)
            }
            None => {
                render_response(&mut conn.write_buf, &resp);
                if pending.wants_close {
                    AfterWrite::Close
                } else {
                    AfterWrite::KeepAlive
                }
            }
        };
        conn.state = ConnState::Write(after);
        Some(Drive::Keep)
    }

    /// Queue a protocol-error response and close once it drains.
    fn fatal(&self, conn: &mut Conn, e: ParseError) -> Drive {
        conn.pending = None;
        render_response(&mut conn.write_buf, &e.response());
        conn.state = ConnState::Write(AfterWrite::Close);
        Drive::Keep
    }
}

/// Shrink an empty oversized buffer back to a bounded keepsake.
fn shrink(buf: &mut Vec<u8>) {
    if buf.is_empty() && buf.capacity() > BUF_KEEP {
        buf.shrink_to(BUF_KEEP);
    }
}

enum Flush {
    Done,
    Blocked,
    Error,
}

/// Write as much of the pending buffer as the socket takes. Takes the
/// socket and write-cursor fields individually so callers holding a
/// borrow of `Conn::state` (the streaming arm) can still flush.
fn flush(stream: &mut TcpStream, write_buf: &[u8], written: &mut usize) -> Flush {
    while *written < write_buf.len() {
        match stream.write(&write_buf[*written..]) {
            Ok(0) => return Flush::Error,
            Ok(n) => *written += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Flush::Blocked,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return Flush::Error,
        }
    }
    Flush::Done
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
    fn malformed_requests_get_400() {
        let server = HttpServer::bind("127.0.0.1:0", Arc::new(0u32), router()).unwrap();
        let mut raw = TcpStream::connect(server.addr()).unwrap();
        raw.write_all(b"GET /ping HTTP/1.1\r\nthis header has no colon\r\n\r\n")
            .unwrap();
        let mut resp = String::new();
        let _ = raw.read_to_string(&mut resp);
        assert!(resp.starts_with("HTTP/1.1 400"), "got {resp:?}");
        server.shutdown();
    }

    #[test]
    fn oversized_head_gets_431_with_typed_body() {
        let server = HttpServer::bind("127.0.0.1:0", Arc::new(0u32), router()).unwrap();
        let mut raw = TcpStream::connect(server.addr()).unwrap();
        raw.write_all(b"GET /ping HTTP/1.1\r\n").unwrap();
        let filler = format!("x-filler: {}\r\n", "y".repeat(1000));
        for _ in 0..20 {
            if raw.write_all(filler.as_bytes()).is_err() {
                break; // server may already have responded and closed
            }
        }
        let mut resp = String::new();
        let _ = raw.read_to_string(&mut resp);
        assert!(resp.starts_with("HTTP/1.1 431"), "got {resp:?}");
        assert!(resp.contains("head_too_large"), "got {resp:?}");
        server.shutdown();
    }

    #[test]
    fn oversized_body_gets_413_with_typed_body() {
        let server = HttpServer::bind("127.0.0.1:0", Arc::new(0u32), router()).unwrap();
        let mut raw = TcpStream::connect(server.addr()).unwrap();
        raw.write_all(b"POST /echo HTTP/1.1\r\nContent-Length: 5000000\r\n\r\n")
            .unwrap();
        let mut resp = String::new();
        let _ = raw.read_to_string(&mut resp);
        assert!(resp.starts_with("HTTP/1.1 413"), "got {resp:?}");
        assert!(resp.contains("body_too_large"), "got {resp:?}");
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
    fn pipelined_requests_answer_in_order() {
        let server = HttpServer::bind("127.0.0.1:0", Arc::new(3u32), router()).unwrap();
        let mut raw = TcpStream::connect(server.addr()).unwrap();
        raw.write_all(
            b"GET /ping HTTP/1.1\r\n\r\nGET /items/9/detail HTTP/1.1\r\nConnection: close\r\n\r\n",
        )
        .unwrap();
        let mut resp = String::new();
        let _ = raw.read_to_string(&mut resp);
        let first = resp.find("pong 3").expect("first response present");
        let second = resp.find(r#"{"id":"9"}"#).expect("second response present");
        assert!(
            first < second,
            "responses must come back in order: {resp:?}"
        );
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
}

//! End-to-end tests of the event-driven serving layer over real
//! loopback TCP: chunked result streaming (live and after completion,
//! byte-identical to the unpaginated body) and slow-client robustness
//! of the epoll event loop.

use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};
use tass::core::{run_campaign, CampaignJob, StrategyKind};
use tass::model::registry::SourceRegistry;
use tass::model::{Protocol, Universe, UniverseConfig};
use tass::service::httpd::HttpdConfig;
use tass::service::{api, HttpClient, HttpServer, ServiceConfig, ShutdownMode, Tassd, TenantQuota};

const UNIVERSE_SEED: u64 = 5;

fn registry() -> Arc<SourceRegistry> {
    let mut reg = SourceRegistry::new();
    reg.insert_v4(
        "demo",
        Arc::new(Universe::generate(&UniverseConfig::small(UNIVERSE_SEED))),
    )
    .unwrap();
    Arc::new(reg)
}

fn daemon(month_delay: Duration) -> Tassd {
    Tassd::start(
        registry(),
        ServiceConfig {
            workers: 1,
            quota: TenantQuota::default(),
            month_delay,
            checkpoint_dir: None,
        },
    )
    .unwrap()
}

fn start(month_delay: Duration) -> (Tassd, HttpServer) {
    let daemon = daemon(month_delay);
    let server = HttpServer::bind("127.0.0.1:0", daemon.core(), api::router()).unwrap();
    (daemon, server)
}

fn submit(client: &mut HttpClient, tenant: &str, spec: &str, seed: u64) -> u64 {
    let body =
        format!(r#"{{"source":"demo","strategy":"{spec}","protocol":"http","seed":{seed}}}"#);
    let (status, body) = client.post("/v1/campaigns", Some(tenant), &body).unwrap();
    assert_eq!(status, 201, "submit failed: {body}");
    let rest = &body[body.find(r#""id":"#).unwrap() + 5..];
    rest.chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap()
}

fn wait_done(client: &mut HttpClient, tenant: &str, id: u64) {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let (status, body) = client
            .get(&format!("/v1/campaigns/{id}"), Some(tenant))
            .unwrap();
        assert_eq!(status, 200, "{body}");
        if body.contains(r#""status":"done""#) {
            return;
        }
        assert!(!body.contains(r#""status":"failed""#), "job failed: {body}");
        assert!(Instant::now() < deadline, "job {id} stuck: {body}");
        thread::sleep(Duration::from_millis(10));
    }
}

fn oracle(spec: &str, seed: u64) -> String {
    let kind: StrategyKind = tass::core::parse_spec(spec).unwrap();
    let reg = registry();
    let source = reg.get_v4("demo").unwrap();
    let result = run_campaign(&*source, kind, Protocol::Http, seed).with_job(CampaignJob::new(
        kind,
        Protocol::Http,
        seed,
    ));
    serde_json::to_string(&result).unwrap()
}

/// The tentpole acceptance test: stream a campaign's result **while it
/// runs**. Chunks must arrive incrementally (spread over the campaign's
/// month delays, not in one burst at the end), and their concatenation
/// must be byte-identical to the unpaginated results body and to the
/// library oracle.
#[test]
fn live_stream_concatenates_to_the_unpaginated_body() {
    let (spec, seed) = ("tass:more:0.95", 42);
    let month_delay = Duration::from_millis(100);
    let (daemon, server) = start(month_delay);
    let mut client = HttpClient::connect(server.addr());
    let id = submit(&mut client, "alice", spec, seed);

    // stream immediately: the campaign has barely started, so chunks
    // can only arrive as months complete
    let mut stamps: Vec<Instant> = Vec::new();
    let mut stream_client = HttpClient::connect(server.addr());
    let (status, streamed) = stream_client
        .get_stream(
            &format!("/v1/campaigns/{id}/results/stream"),
            Some("alice"),
            |_chunk| stamps.push(Instant::now()),
        )
        .unwrap();
    assert_eq!(status, 200);

    // the stream carries one chunk per piece: prefix + every month +
    // suffix
    let want = oracle(spec, seed);
    let months = want.matches(r#""month":"#).count();
    assert!(months >= 3, "demo source must span several months");
    assert_eq!(stamps.len(), months + 2, "prefix + months + suffix");
    // incremental delivery: the chunks spread over the campaign's run
    // instead of arriving in one burst after completion
    let spread = *stamps.last().unwrap() - stamps[0];
    assert!(
        spread >= month_delay,
        "chunks arrived in one burst ({spread:?}); streaming must track the campaign"
    );

    // byte identity against both the library oracle and the stored body
    let streamed = String::from_utf8(streamed).unwrap();
    assert_eq!(streamed, want, "stream must equal the library oracle");
    wait_done(&mut client, "alice", id);
    let (status, stored) = client
        .get(&format!("/v1/campaigns/{id}/results"), Some("alice"))
        .unwrap();
    assert_eq!(status, 200);
    assert_eq!(streamed, stored, "stream must equal the unpaginated body");

    // both clients rode single keep-alive connections throughout
    assert_eq!(client.reconnects() + stream_client.reconnects(), 0);

    server.shutdown();
    daemon.shutdown(ShutdownMode::Drain).unwrap();
}

/// Streaming a finished campaign serves every piece immediately — the
/// same result parts the unpaged fetch joins — and typed errors cover
/// the non-streamable cases.
#[test]
fn finished_job_streams_the_stored_bytes() {
    let (spec, seed) = ("ip-hitlist", 7);
    let (daemon, server) = start(Duration::from_millis(1));
    let mut client = HttpClient::connect(server.addr());
    let id = submit(&mut client, "alice", spec, seed);
    wait_done(&mut client, "alice", id);

    let mut chunks = 0usize;
    let (status, streamed) = client
        .get_stream(
            &format!("/v1/campaigns/{id}/results/stream"),
            Some("alice"),
            |_chunk| chunks += 1,
        )
        .unwrap();
    assert_eq!(status, 200);
    let streamed = String::from_utf8(streamed).unwrap();
    let want = oracle(spec, seed);
    assert_eq!(streamed, want);
    let months = want.matches(r#""month":"#).count();
    assert_eq!(chunks, months + 2, "prefix + months + suffix");

    // unknown job: a plain 404, not a stream; other tenants get the
    // same answer; a missing key is a 401
    let (status, body) = client
        .get_stream("/v1/campaigns/999/results/stream", Some("alice"), |_| {})
        .unwrap();
    assert_eq!(status, 404);
    assert!(String::from_utf8(body)
        .unwrap()
        .contains("unknown_campaign"));
    let (status, _) = client
        .get_stream(
            &format!("/v1/campaigns/{id}/results/stream"),
            Some("mallory"),
            |_| {},
        )
        .unwrap();
    assert_eq!(status, 404);
    let (status, body) = client
        .get_stream(&format!("/v1/campaigns/{id}/results/stream"), None, |_| {})
        .unwrap();
    assert_eq!(status, 401);
    assert!(String::from_utf8(body).unwrap().contains("missing_api_key"));

    server.shutdown();
    daemon.shutdown(ShutdownMode::Drain).unwrap();
}

/// A slowloris-style client trickling its request one byte at a time
/// must not stall anyone else: a fast client completes a full batch of
/// requests while the slow one is still dripping, and the slow client
/// still gets its answer in the end.
#[test]
fn slow_client_does_not_stall_fast_clients() {
    let (daemon, server) = start(Duration::from_millis(1));
    let addr = server.addr();

    let slow_done = Arc::new(AtomicBool::new(false));
    let slow_thread = {
        let slow_done = Arc::clone(&slow_done);
        thread::spawn(move || {
            let mut raw = TcpStream::connect(addr).unwrap();
            // pad the request so the drip takes seconds end to end
            let filler = "x".repeat(220);
            let request =
                format!("GET /v1/healthz HTTP/1.1\r\nHost: tassd\r\nX-Filler: {filler}\r\n\r\n");
            for byte in request.as_bytes() {
                raw.write_all(std::slice::from_ref(byte)).unwrap();
                raw.flush().unwrap();
                thread::sleep(Duration::from_millis(10));
            }
            slow_done.store(true, Ordering::Relaxed);
            let mut resp = String::new();
            use std::io::Read;
            raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            let mut chunk = [0u8; 4096];
            while let Ok(n) = raw.read(&mut chunk) {
                if n == 0 {
                    break;
                }
                resp.push_str(&String::from_utf8_lossy(&chunk[..n]));
                if resp.contains("\r\n\r\n") {
                    break;
                }
            }
            resp
        })
    };

    // while the slow client drips, a fast client gets a full batch of
    // answers on one keep-alive connection
    let mut fast = HttpClient::connect(addr);
    for _ in 0..25 {
        let (status, _) = fast.get("/v1/healthz", None).unwrap();
        assert_eq!(status, 200);
    }
    assert_eq!(fast.reconnects(), 0);
    assert!(
        !slow_done.load(Ordering::Relaxed),
        "fast batch must finish while the slow request is still dripping"
    );

    let resp = slow_thread.join().unwrap();
    assert!(
        resp.starts_with("HTTP/1.1 200"),
        "the slow-but-valid request is still served: {resp:?}"
    );

    server.shutdown();
    daemon.shutdown(ShutdownMode::Drain).unwrap();
}

/// Reads HTTP/1.1 `Content-Length` responses off `raw` until `want` have
/// arrived, and returns their status codes.
fn read_answers(raw: &mut TcpStream, want: usize) -> Vec<u16> {
    use std::io::Read;
    let mut buf: Vec<u8> = Vec::new();
    let mut at = 0;
    let mut statuses = Vec::with_capacity(want);
    let mut chunk = [0u8; 64 * 1024];
    while statuses.len() < want {
        let unread = &buf[at..];
        let head_end = unread.windows(4).position(|w| w == b"\r\n\r\n");
        if let Some(end) = head_end {
            let head = std::str::from_utf8(&unread[..end]).unwrap();
            let length: usize = head
                .lines()
                .find_map(|l| l.strip_prefix("Content-Length: "))
                .expect("a Content-Length answer")
                .parse()
                .unwrap();
            if unread.len() >= end + 4 + length {
                statuses.push(head[9..12].parse().unwrap());
                at += end + 4 + length;
                continue;
            }
        }
        buf.drain(..at);
        at = 0;
        let n = raw.read(&mut chunk).expect("answers arrive");
        assert!(n > 0, "closed after {} answers", statuses.len());
        buf.extend_from_slice(&chunk[..n]);
    }
    assert_eq!(at, buf.len(), "nothing past the last answer");
    statuses
}

/// A client that pipelines requests and never reads its answers meets
/// backpressure: the server stops reading while an answer waits to be
/// sent, so the socket buffers fill and the client's writes block, and
/// the server never buffers everything the client sends. Meanwhile the
/// one event loop is free to serve others, and reading then drains
/// exactly one answer per complete request sent.
#[test]
fn a_pipelining_client_that_does_not_read_is_blocked() {
    const CAP: usize = 16 << 20;
    let daemon = daemon(Duration::from_millis(1));
    // one loop, and a keep-alive window the test cannot outlive, so the
    // last, partial request is never answered 408
    let cfg = HttpdConfig {
        event_loops: 1,
        keep_alive: Duration::from_secs(600),
    };
    let server = HttpServer::bind_with("127.0.0.1:0", daemon.core(), api::router(), cfg).unwrap();
    let mut raw = TcpStream::connect(server.addr()).unwrap();
    raw.set_nonblocking(true).unwrap();
    let request = b"GET /v1/healthz HTTP/1.1\r\nHost: tassd\r\n\r\n";
    let batch = request.repeat(1024);
    // write until the writes have blocked for a whole second, or the cap
    let mut sent = 0usize;
    let mut blocked_since: Option<Instant> = None;
    while sent < CAP {
        match raw.write(&batch[sent % batch.len()..]) {
            Ok(n) => {
                sent += n;
                blocked_since = None;
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                let since = *blocked_since.get_or_insert_with(Instant::now);
                if since.elapsed() >= Duration::from_secs(1) {
                    break;
                }
                thread::sleep(Duration::from_millis(10));
            }
            Err(e) => panic!("write: {e}"),
        }
    }
    assert!(
        sent < CAP,
        "the client wrote {sent} bytes of unread requests without blocking"
    );
    let start = Instant::now();
    let (status, _) = HttpClient::connect(server.addr())
        .get("/v1/healthz", None)
        .unwrap();
    assert_eq!(status, 200);
    assert!(
        start.elapsed() < Duration::from_secs(2),
        "the blocked client pins the event loop: another client waited {:?}",
        start.elapsed()
    );
    raw.set_nonblocking(false).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let complete = sent / request.len();
    let statuses = read_answers(&mut raw, complete);
    assert!(statuses.iter().all(|&s| s == 200), "every answer is a 200");
    // the partial request last sent is not answered
    raw.set_read_timeout(Some(Duration::from_millis(200)))
        .unwrap();
    let mut more = [0u8; 1];
    assert!(
        std::io::Read::read(&mut raw, &mut more).is_err(),
        "no answer past the {complete} complete requests"
    );

    server.shutdown();
    daemon.shutdown(ShutdownMode::Drain).unwrap();
}

//! Allocation claims, tested as allocation counts, and the HTTP server's
//! thread claim, tested as a thread count.
//!
//! The probe hot path: a scan's heap allocations may grow with what it
//! *finds* (the responsive set) but not with what it merely *walks*.
//! Adding 32 dead /24s to a plan adds 8 192 probes and 32 prefix walks;
//! with per-size group memoisation, in-place replies and worker-local
//! network counters, it must add no allocation — on the wire path and on
//! the logical path, over a lossy, duplicating network.
//!
//! The campaign cycle: a steady-state cycle's allocations may grow with
//! the units it plans and ranks, but not with the host count. Host sets
//! are shared, so a hitlist plan or a responsive view is a reference,
//! not a copy of the hosts.
//!
//! The HTTP server: once a keep-alive connection is warm, every request
//! on it allocates the same number of times, so a batch of requests
//! allocates exactly as often as the batch before it; a route that does
//! not match a request allocates nothing; and the event loops are a
//! fixed pool, so idle keep-alive connections cost file descriptors, not
//! threads.
//!
//! The counting allocator (`tass_bench::alloc`, shared with the benches)
//! is global and counts every thread, the test
//! harness's own included: in a shared process, the harness's report of
//! one test's completion could land inside another test's count, and
//! another test's threads inside a thread count. So each test re-runs
//! itself alone in a child process of this test binary ([`alone`]),
//! where no other test runs.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::process::Command;
use std::sync::Arc;
use std::time::Duration;
use tass::bgp::ViewKind;
use tass::core::{CycleOutcome, PreparedStrategy, ProbePlan, Strategy, StrategyKind};
use tass::model::registry::SourceRegistry;
use tass::model::{HostSet, PrefixCount, Protocol, Snapshot, Universe, UniverseConfig};
use tass::net::Prefix;
use tass::scan::{Blocklist, FaultConfig, Responder, ScanConfig, ScanEngine, SimNetwork};
use tass::service::httpd::{HttpServer, HttpdConfig, PathParams, Request, Response, Router};
use tass::service::service::SubmitRequest;
use tass::service::{api, ServiceConfig, ShutdownMode, StreamChunk, Tassd};
use tass_bench::alloc::{counted, CountingAlloc};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn prefix(s: &str) -> Prefix {
    s.parse().expect("valid prefix")
}

/// Set in the child process that [`alone`] starts.
const ALONE: &str = "SCAN_ALLOC_ALONE";

/// Runs `claim` as the only test of a child process of this test binary
/// (`name --exact --test-threads=1`), and fails if the child fails or
/// does not run exactly that one test. In the child, `claim` runs
/// directly.
fn alone(name: &str, claim: fn()) {
    if std::env::var_os(ALONE).is_some() {
        return claim();
    }
    let exe = std::env::current_exe().expect("test binary path");
    let out = Command::new(exe)
        .args([name, "--exact", "--test-threads=1", "--nocapture"])
        .env(ALONE, "1")
        .output()
        .expect("start the test binary");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success() && stdout.contains("test result: ok. 1 passed"),
        "{name} alone in a child process:\n{stdout}{stderr}"
    );
}

#[test]
fn dead_prefixes_add_no_allocation() {
    alone("dead_prefixes_add_no_allocation", dead_prefixes_claim);
}

fn dead_prefixes_claim() {
    // plan A: four /24s, every 5th address live; plan B: A plus 32 dead /24s
    let live: Vec<Prefix> = (0..4).map(|i| prefix(&format!("10.0.{i}.0/24"))).collect();
    let hosts: Vec<u32> = live
        .iter()
        .flat_map(|p| (p.first()..=p.last()).step_by(5))
        .collect();
    let responder = Responder::new().with_service(Protocol::Http, HostSet::from_addrs(hosts));
    let network = Arc::new(SimNetwork::new(responder, FaultConfig::lossy(), 3));
    let engine = ScanEngine::new(Arc::clone(&network));
    let plan_a = ProbePlan::Prefixes(live.clone());
    let mut with_dead = live;
    with_dead.extend((0..32).map(|i| prefix(&format!("10.1.{i}.0/24"))));
    let plan_b = ProbePlan::Prefixes(with_dead);

    for wire_level in [true, false] {
        let cfg = ScanConfig::for_port(80)
            .unlimited_rate()
            .threads(1)
            .blocklist(Blocklist::empty())
            .wire_level(wire_level);
        let count = |plan: &ProbePlan| {
            let ((allocs, _), report) = counted(|| {
                engine
                    .run_plan(plan, 0, &[], &cfg)
                    .expect("v4 plans stream")
            });
            (allocs, report)
        };
        count(&plan_a); // warm-up: one-time lazy initialisation
        let (allocs_a, report_a) = count(&plan_a);
        let before = network.stats();
        let (allocs_b, report_b) = count(&plan_b);
        let after = network.stats();
        assert_eq!(report_b.probes_sent, report_a.probes_sent + 32 * 256);
        assert_eq!(report_b.responsive, report_a.responsive);
        // the network really lost and duplicated some of plan B's probes
        assert!(
            after.probes_lost > before.probes_lost,
            "wire_level {wire_level}"
        );
        assert!(
            after.duplicated > before.duplicated,
            "wire_level {wire_level}"
        );
        assert_eq!(
            allocs_b, allocs_a,
            "wire_level {wire_level}: 32 dead /24s must add no allocation ({allocs_a} → {allocs_b})"
        );
    }
}

/// One campaign cycle as the campaign driver runs it: `plan → evaluate`
/// for a static strategy, `plan → observed → evaluate_observed →
/// observe` for a feedback one.
fn drive_cycle(prepared: &mut dyn PreparedStrategy, truth: &Arc<Snapshot>, m: u32, space: u64) {
    let plan = prepared.plan(m);
    if !prepared.wants_feedback() {
        let eval = plan.evaluate(truth, m, space);
        assert!(eval.found <= eval.total);
        return;
    }
    let responsive = plan.observed(truth, m, space);
    let eval = plan.evaluate_observed(truth, &responsive, m, space);
    let outcome = CycleOutcome {
        cycle: m,
        probes: eval.probes,
        responsive,
    };
    prepared.observe(m, &outcome);
}

#[test]
fn campaign_cycle_allocation_does_not_grow_with_hosts() {
    alone(
        "campaign_cycle_allocation_does_not_grow_with_hosts",
        campaign_cycle_claim,
    );
}

fn campaign_cycle_claim() {
    let universe = Universe::generate(&UniverseConfig::small(41));
    let topo = universe.topology();
    let space = topo.announced_space();
    // N hosts at 4-aligned addresses, and the same with each one's three
    // neighbours added: every unit of both views holds exactly 4× the
    // hosts, so every density scales by 4 and the ranking and k stay
    let t0 = universe.snapshot(0, Protocol::Http);
    let base: HostSet = t0.hosts.iter().map(|a| a & !3).collect();
    let quad: HostSet = base.iter().flat_map(|a| a..a + 4).collect();
    assert_eq!(quad.len(), 4 * base.len());
    for view in [&topo.l_view, &topo.m_view] {
        let units = || view.units().iter().map(|u| u.prefix);
        assert!(
            units().all(|p| p.len() <= 30),
            "4-aligned groups stay in one unit"
        );
        let (mut n, mut n4) = (Vec::new(), Vec::new());
        base.count_prefixes_into(units(), &mut n);
        quad.count_prefixes_into(units(), &mut n4);
        assert!(n.iter().zip(&n4).all(|(&c, &c4)| c4 == 4 * c));
    }
    let truths = [base, quad].map(|hosts| Arc::new(Snapshot::new(Protocol::Http, 0, hosts)));

    let view = ViewKind::MoreSpecific;
    let cases: [(&str, StrategyKind, &[u32]); 4] = [
        ("tass", StrategyKind::Tass { view, phi: 0.95 }, &[1]),
        ("ip-hitlist", StrategyKind::IpHitlist, &[1]),
        // cycle 1 scans the selection, cycle 2 re-seeds from a full scan
        (
            "reseeding-tass",
            StrategyKind::ReseedingTass {
                view,
                phi: 0.95,
                delta_t: 2,
            },
            &[1, 2],
        ),
        (
            "adaptive-tass",
            StrategyKind::AdaptiveTass {
                view,
                phi: 0.95,
                explore: 0.1,
            },
            &[1],
        ),
    ];
    for (name, kind, cycles) in cases {
        let per_cycle = truths.clone().map(|truth| {
            let mut prepared = kind.prepare(topo, &truth, 7);
            drive_cycle(&mut *prepared, &truth, 0, space); // warm-up
            cycles
                .iter()
                .map(|&m| counted(|| drive_cycle(&mut *prepared, &truth, m, space)).0)
                .collect::<Vec<_>>()
        });
        assert_eq!(
            per_cycle[0], per_cycle[1],
            "{name}: (allocations, bytes) per cycle at N and 4N hosts"
        );
    }
}

/// One keep-alive exchange that allocates nothing on the client side: a
/// fixed request, and its fixed answer read into a stack buffer.
const PING: &[u8] = b"GET /ping HTTP/1.1\r\nX-Api-Key: t\r\n\r\n";
const PONG: &[u8] = b"HTTP/1.1 200 OK\r\nContent-Type: text/plain; charset=utf-8\r\n\
Content-Length: 2\r\nConnection: keep-alive\r\n\r\nok";

fn ping(conn: &mut TcpStream) {
    conn.write_all(PING).expect("send the request");
    let mut answer = [0u8; PONG.len()];
    conn.read_exact(&mut answer).expect("read the answer");
    assert_eq!(&answer[..], PONG);
}

/// A one-loop server whose only route answers a static body, with a
/// keep-alive window no test outlives.
fn ping_server() -> HttpServer {
    let router = Router::new().route("GET", "/ping", |_: &Arc<()>, _, _| {
        Response::text(200, "ok")
    });
    let cfg = HttpdConfig {
        event_loops: 1,
        keep_alive: Duration::from_secs(600),
    };
    HttpServer::bind_with("127.0.0.1:0", Arc::new(()), router, cfg).expect("bind loopback")
}

#[test]
fn keep_alive_requests_allocate_the_same_per_batch() {
    alone(
        "keep_alive_requests_allocate_the_same_per_batch",
        keep_alive_claim,
    );
}

fn keep_alive_claim() {
    const REQUESTS: usize = 64;
    let server = ping_server();
    let mut conn = TcpStream::connect(server.addr()).expect("connect");
    let mut batch = || counted(|| (0..REQUESTS).for_each(|_| ping(&mut conn))).0;
    batch(); // warm-up: the connection's buffers and one-time setup
    let (first, second) = (batch(), batch());
    assert_eq!(
        first, second,
        "(allocations, bytes) of two batches of {REQUESTS} keep-alive requests"
    );
    server.shutdown();
}

#[test]
fn routes_that_do_not_match_allocate_nothing() {
    alone(
        "routes_that_do_not_match_allocate_nothing",
        unmatched_routes_claim,
    );
}

/// The daemon's six routes in the daemon's order, where five come
/// before the stream route, or with the stream route first. Every
/// handler answers the `{id}` it captured.
fn api_shaped_router(stream_first: bool) -> Router<()> {
    let stream = ("GET", "/v1/campaigns/{id}/results/stream");
    let mut routes = vec![
        ("GET", "/v1/healthz"),
        ("GET", "/v1/sources"),
        ("POST", "/v1/campaigns"),
        ("GET", "/v1/campaigns/{id}"),
        ("GET", "/v1/campaigns/{id}/results"),
    ];
    if stream_first {
        routes.insert(0, stream);
    } else {
        routes.push(stream);
    }
    let id = |_: &Arc<()>, _: &Request, p: &PathParams| {
        Response::text(200, p.get("id").unwrap_or("none").to_string())
    };
    routes
        .into_iter()
        .fold(Router::new(), |router, (method, pattern)| {
            router.route(method, pattern, id)
        })
}

fn unmatched_routes_claim() {
    let req = Request {
        method: "GET".to_string(),
        path: "/v1/campaigns/7/results/stream".to_string(),
        query: String::new(),
        headers: vec![("x-api-key".to_string(), "t".to_string())],
        body: Vec::new(),
    };
    let state = Arc::new(());
    let [last, first] = [false, true].map(|stream_first| {
        let router = api_shaped_router(stream_first);
        router.dispatch(&state, &req); // warm-up
        let (counts, resp) = counted(|| router.dispatch(&state, &req));
        assert_eq!((resp.status, &resp.body[..]), (200, &b"7"[..]));
        counts
    });
    assert_eq!(
        last, first,
        "(allocations, bytes) of one dispatch with five routes before the match and with none"
    );
}

#[test]
fn api_routes_allocate_their_pinned_counts() {
    alone("api_routes_allocate_their_pinned_counts", api_routes_claim);
}

/// A `GET` of `target` by tenant `alice`.
fn api_get(target: &str) -> Request {
    let (path, query) = target.split_once('?').unwrap_or((target, ""));
    Request {
        method: "GET".to_string(),
        path: path.to_string(),
        query: query.to_string(),
        headers: vec![("x-api-key".to_string(), "alice".to_string())],
        body: Vec::new(),
    }
}

/// The daemon's routes each allocate a pinned `(allocations, bytes)`
/// per dispatch: healthz, a campaign's status, a page of its result, and
/// one piece of its result stream (what the stream route's source pulls
/// each time the connection can take more).
fn api_routes_claim() {
    let mut registry = SourceRegistry::new();
    let universe = Universe::generate(&UniverseConfig::small(5));
    registry.insert_v4("demo", Arc::new(universe)).unwrap();
    let cfg = ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    };
    let daemon = Tassd::start(Arc::new(registry), cfg).expect("start the daemon");
    let core = daemon.core();
    let router = api::router();
    let dispatch = |target: &str| {
        let req = api_get(target);
        router.dispatch(&core, &req); // warm-up
        let (counts, resp) = counted(|| router.dispatch(&core, &req));
        assert_eq!(resp.status, 200, "{target}");
        counts
    };
    // first, while the uptime it reports is one digit wide
    let healthz = dispatch("/v1/healthz");
    let submission = SubmitRequest {
        source: "demo".to_string(),
        kind: StrategyKind::Tass {
            view: ViewKind::MoreSpecific,
            phi: 0.95,
        },
        protocol: Some(Protocol::Http),
        seed: 3,
        months: None,
    };
    let id = core.submit("alice", submission).expect("submit");
    while core.job_view("alice", id).expect("the job").status != "done" {
        std::thread::sleep(Duration::from_millis(5));
    }
    std::thread::sleep(Duration::from_millis(50)); // the worker goes idle
    let status = dispatch(&format!("/v1/campaigns/{id}"));
    let page = dispatch(&format!("/v1/campaigns/{id}/results?offset=1&limit=2"));
    core.result_stream_piece("alice", id, 2).expect("a piece"); // warm-up
    let (piece, chunk) = counted(|| core.result_stream_piece("alice", id, 2));
    assert!(matches!(chunk, Ok(StreamChunk::Data(_))));
    assert_eq!(
        [healthz, status, page, piece],
        [(17, 632), (34, 1360), (5, 659), (2, 131)],
        "(allocations, bytes) of healthz, campaign status, a result page and a stream piece"
    );
    daemon.shutdown(ShutdownMode::Drain).expect("drain");
}

#[test]
fn idle_keep_alive_connections_add_no_thread() {
    alone(
        "idle_keep_alive_connections_add_no_thread",
        idle_connections_claim,
    );
}

/// Threads of this process.
fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("list /proc/self/task")
        .count()
}

fn idle_connections_claim() {
    let server = ping_server();
    let before = threads();
    let idle: Vec<TcpStream> = (0..128)
        .map(|_| {
            let mut conn = TcpStream::connect(server.addr()).expect("connect");
            ping(&mut conn); // served, so accepted, and then idle
            conn
        })
        .collect();
    assert_eq!(
        threads(),
        before,
        "{} idle keep-alive connections",
        idle.len()
    );
    drop(idle);
    server.shutdown();
}

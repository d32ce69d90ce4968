//! `serve`: `tassd` over loopback.
//!
//! The daemon runs one campaign worker and one event loop over a small
//! universe. Two keep-alive `HttpClient`s, one per tenant, each run a
//! closed loop: POST a campaign (strategy, protocol and seed rotate
//! through a fixed set), poll its status at a fixed short interval until
//! it is done, then fetch `/results/stream`, one `?offset=&limit=` page
//! and `/v1/healthz`. Two tenants sharing one worker make jobs queue,
//! and the reads run beside the writes: the only workload with httpd,
//! the job table and the tenant queue on the blocking path.
//!
//! Completion is detected by polling status, never by waiting on the
//! stream endpoint: a stream re-polls pending pieces only on the event
//! loop's tick, so waiting on it would time the tick, not the campaign.
//! Each run submits a fixed number of campaigns (set by `--seconds`)
//! rather than running against a clock: finished jobs stay in the job
//! table and `healthz` walks it, so under a time box a faster daemon
//! would hold more jobs and read slower.
//!
//! One op is one campaign, from the POST being sent until the streamed
//! result is in hand and checked: its bytes must equal
//! `serde_json::to_string` of the local `run_campaign` for the same job
//! (computed before anything is timed), and the page must equal the same
//! result with its months sliced. Any non-2xx response fails the op.

use crate::calib::Calibrator;
use crate::stats::{mean, median, ms, quantile};
use crate::trace::{self, maybe_span, TracedSource, Tracer};
use crate::{Params, Report};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};
use tass_core::{parse_spec, run_campaign, CampaignJob};
use tass_model::registry::{SharedSource, SourceRegistry};
use tass_model::{Protocol, Universe};
use tass_service::{
    api, HttpClient, HttpServer, HttpdConfig, ServiceConfig, ShutdownMode, Tassd, TenantQuota,
};

const STRATEGIES: [&str; 4] = [
    "tass:more:0.95",
    "adaptive-tass:more:0.95:0.02",
    "reseeding-tass:more:0.95:3",
    "tass:less:0.9",
];
/// Distinct (strategy, protocol, seed) jobs the clients rotate through.
const JOBS: usize = 16;
const CLIENTS: usize = 2;
const POLL_INTERVAL: Duration = Duration::from_micros(500);
/// Campaigns each client submits per second of `--seconds`.
const CAMPAIGNS_PER_CLIENT_SECOND: f64 = 115.0;
/// Campaigns each client runs between two calibrations.
const ROUND: usize = 10;
const SETUP_REPS: usize = 5;
const L_PREFIXES: usize = 4000;
const HOST_SCALE: f64 = 150.0;
const PAGE: (usize, usize) = (1, 2);

/// One job of the rotation with its expected bytes.
struct Job {
    spec: &'static str,
    protocol: Protocol,
    seed: u64,
    expected: String,
    expected_page: String,
}

fn jobs(universe: &Universe, seed: u64) -> Result<Vec<Job>, String> {
    (0..JOBS)
        .map(|i| {
            let spec = STRATEGIES[i % STRATEGIES.len()];
            let kind = parse_spec(spec).map_err(|e| e.to_string())?;
            let protocol = Protocol::ALL[(i / STRATEGIES.len()) % Protocol::ALL.len()];
            let seed = seed.wrapping_add(i as u64);
            let result = run_campaign(universe, kind, protocol, seed)
                .with_job(CampaignJob::new(kind, protocol, seed));
            let mut page = result.clone();
            page.months = page.months[PAGE.0..PAGE.0 + PAGE.1].to_vec();
            let render = |r| serde_json::to_string(r).map_err(|e| e.to_string());
            Ok(Job {
                spec,
                protocol,
                seed,
                expected: render(&result)?,
                expected_page: render(&page)?,
            })
        })
        .collect()
}

/// A running daemon with its HTTP front.
struct Daemon {
    tassd: Tassd,
    http: HttpServer,
}

impl Daemon {
    fn stop(self) -> Result<(), String> {
        self.http.shutdown();
        self.tassd
            .shutdown(ShutdownMode::Drain)
            .map(drop)
            .map_err(|e| e.to_string())
    }
}

/// Set-up as a user pays it: generate the source, register it (plain,
/// and once more behind the timing adapter), start the daemon and bind.
fn start(
    p: &Params,
    tracer: &Arc<Tracer>,
) -> Result<(Arc<Universe>, Arc<TracedSource>, Daemon), String> {
    let l_prefixes = if p.tiny { 60 } else { L_PREFIXES };
    let universe = Arc::new(Universe::generate(&crate::compact_universe(
        p.seed, l_prefixes, HOST_SCALE,
    )));
    let traced = Arc::new(TracedSource::new(
        Arc::clone(&universe) as SharedSource,
        Arc::clone(tracer),
    ));
    let mut registry = SourceRegistry::new();
    registry
        .insert_v4("plain", Arc::clone(&universe) as SharedSource)
        .map_err(|e| e.to_string())?;
    registry
        .insert_v4("traced", Arc::clone(&traced) as SharedSource)
        .map_err(|e| e.to_string())?;
    let cfg = ServiceConfig {
        workers: 1,
        quota: TenantQuota {
            max_pending: 100_000,
            max_concurrent: 64,
            submits_per_sec: 0.0,
            submit_burst: 8.0,
        },
        checkpoint_dir: None,
        month_delay: Duration::ZERO,
    };
    let tassd = Tassd::start(Arc::new(registry), cfg).map_err(|e| e.to_string())?;
    let http_cfg = HttpdConfig {
        event_loops: 1,
        keep_alive: Duration::from_secs(120),
    };
    let http = HttpServer::bind_with("127.0.0.1:0", tassd.core(), api::router(), http_cfg)
        .map_err(|e| e.to_string())?;
    Ok((universe, traced, Daemon { tassd, http }))
}

/// What one campaign op saw.
#[derive(Default)]
struct Op {
    traced: bool,
    ok: bool,
    /// Tracer-epoch ns: POST sent, POST answered, done seen, stream read.
    sent: u64,
    submitted: u64,
    done: u64,
    streamed: u64,
    completion_index: u64,
    polls: u64,
    /// The op's number (its span op id) and calibration round.
    number: u64,
    round: usize,
    /// (endpoint, ms) of every request.
    requests: Vec<(&'static str, f64)>,
}

impl Op {
    fn turnaround_ms(&self) -> f64 {
        (self.streamed - self.sent) as f64 / 1e6
    }
}

/// A number after `"key":` in a JSON body.
fn json_u64(body: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let rest = &body[body.find(&pat)? + pat.len()..];
    rest.chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .ok()
}

fn request<R>(
    op: &mut Op,
    tracer: Option<&Tracer>,
    endpoint: &'static str,
    span: &'static str,
    f: impl FnOnce() -> std::io::Result<(u16, R)>,
) -> Option<R> {
    let start = Instant::now();
    let out = maybe_span(tracer, span, f);
    op.requests.push((endpoint, ms(start.elapsed())));
    match out {
        Ok((status, body)) if (200..300).contains(&status) => Some(body),
        _ => {
            op.ok = false;
            None
        }
    }
}

/// One op: submit, poll to done, stream, then a page and a health check.
fn campaign_op(
    client: &mut HttpClient,
    tenant: &str,
    job: &Job,
    traced: bool,
    tracer: &Tracer,
) -> Op {
    let t = traced.then_some(tracer);
    let mut op = Op {
        traced,
        ok: true,
        ..Op::default()
    };
    let source = if traced { "traced" } else { "plain" };
    let body = format!(
        r#"{{"source":"{source}","strategy":"{}","protocol":"{}","seed":{}}}"#,
        job.spec,
        job.protocol.tag(),
        job.seed
    );
    let id = maybe_span(t, "serve.turnaround", || {
        op.sent = tracer.ns(Instant::now());
        let id = request(&mut op, t, "submit", "service.httpd.submit", || {
            client.post("/v1/campaigns", Some(tenant), &body)
        })
        .and_then(|b| json_u64(&b, "id"));
        op.submitted = tracer.ns(Instant::now());
        let id = id?;
        let status_path = format!("/v1/campaigns/{id}");
        loop {
            std::thread::sleep(POLL_INTERVAL);
            op.polls += 1;
            let view = request(&mut op, t, "status", "service.httpd.status", || {
                client.get(&status_path, Some(tenant))
            })?;
            if view.contains(r#""status":"done""#) {
                op.completion_index = json_u64(&view, "completion_index").unwrap_or(u64::MAX);
                break;
            }
            if view.contains(r#""status":"failed""#) {
                return None;
            }
        }
        op.done = tracer.ns(Instant::now());
        let path = format!("/v1/campaigns/{id}/results/stream");
        let streamed = request(&mut op, t, "stream", "service.httpd.stream", || {
            client.get_stream(&path, Some(tenant), |_| {})
        });
        op.streamed = tracer.ns(Instant::now());
        op.ok &= streamed.is_some_and(|bytes| bytes == job.expected.as_bytes());
        Some(id)
    });
    let Some(id) = id else {
        op.ok = false;
        op.streamed = tracer.ns(Instant::now());
        return op;
    };
    // page and health check: outside the turnaround, still checked
    let path = format!(
        "/v1/campaigns/{id}/results?offset={}&limit={}",
        PAGE.0, PAGE.1
    );
    let page = request(&mut op, t, "page", "service.httpd.page", || {
        client.get(&path, Some(tenant))
    });
    op.ok &= page.is_some_and(|b| b == job.expected_page);
    request(&mut op, t, "healthz", "service.httpd.healthz", || {
        client.get("/v1/healthz", None)
    });
    op
}

/// Daemon-side campaigns as the timing source saw them: each job loads
/// month 0 (t0), then months 0..=N, so a month-0 load after a later
/// month starts the next campaign. With one worker, campaigns run one at
/// a time, in completion order.
fn daemon_campaigns(spans: &[trace::Span]) -> Vec<(u64, u64)> {
    let mut loads: Vec<&trace::Span> = spans
        .iter()
        .filter(|s| s.name == "model.load_snapshot")
        .collect();
    loads.sort_by_key(|s| s.start_ns);
    let mut out: Vec<(u64, u64)> = Vec::new();
    let mut last_month = None;
    for s in loads {
        match out.last_mut() {
            Some(c) if !(s.arg == 0 && last_month != Some(0)) => c.1 = s.end_ns,
            _ => out.push((s.start_ns, s.end_ns)),
        }
        last_month = Some(s.arg);
    }
    out
}

pub fn run(p: &Params) -> Result<Report, String> {
    let tracer = Arc::new(Tracer::default());
    let mut setup_cal = Calibrator::new(1);
    let mut setup_s = Vec::new();
    let mut running = None;
    for _ in 0..SETUP_REPS {
        if let Some((_, _, daemon)) = running.take() {
            Daemon::stop(daemon)?;
        }
        let scale = setup_cal.next_scale();
        let start_at = Instant::now();
        running = Some(start(p, &tracer)?);
        setup_s.push(start_at.elapsed().as_secs_f64() * scale);
    }
    let (universe, traced_source, daemon) = running.expect("started at least once");
    let addr = daemon.http.addr();
    // untimed: the expected bytes of every job in the rotation
    let jobs = jobs(&universe, p.seed)?;
    let per_client = ((p.seconds * CAMPAIGNS_PER_CLIENT_SECOND).ceil() as usize).max(2);

    // Clients run in rounds of ROUND campaigns each. Between rounds both
    // wait at a barrier while the calibration kernel runs on an idle
    // machine (see `calib`); each op is scaled by its round's factor.
    let rounds = per_client.div_ceil(ROUND);
    let barrier = Barrier::new(CLIENTS + 1);
    // the clients, the worker and the event loop keep both cores busy
    let mut cal = Calibrator::new(CLIENTS);
    let mut round_scale = Vec::new();
    let mut round_s = Vec::new();
    let start_at = Instant::now();
    let per_client_ops: Vec<Vec<Op>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (jobs, tracer, barrier) = (&jobs, &tracer, &barrier);
                scope.spawn(move || {
                    let tenant = format!("tenant-{c}");
                    let mut client = HttpClient::connect(addr);
                    let mut ops = Vec::new();
                    for r in 0..rounds {
                        barrier.wait();
                        for j in r * ROUND..per_client.min((r + 1) * ROUND) {
                            let n = j * CLIENTS + c;
                            // traced and untraced ops alternate by whole
                            // rotations, so both see every job alike
                            let traced = p.trace && (j / (JOBS / CLIENTS)) % 2 == 1;
                            let job = &jobs[n % JOBS];
                            let mut op = if traced {
                                tracer.op("serve.campaign", n as u64, || {
                                    campaign_op(&mut client, &tenant, job, true, tracer)
                                })
                            } else {
                                campaign_op(&mut client, &tenant, job, false, tracer)
                            };
                            op.number = n as u64;
                            op.round = r;
                            ops.push(op);
                        }
                        barrier.wait();
                    }
                    ops
                })
            })
            .collect();
        for _ in 0..rounds {
            round_scale.push(cal.next_scale());
            barrier.wait();
            let round_start = Instant::now();
            barrier.wait();
            round_s.push(round_start.elapsed().as_secs_f64());
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall_s = start_at.elapsed().as_secs_f64();
    daemon.stop()?;

    let ops: Vec<Op> = per_client_ops.into_iter().flatten().collect();
    let mut report = Report {
        attempted: ops.len() as u64,
        failed: ops.iter().filter(|o| !o.ok).count() as u64,
        ..Report::default()
    };
    let (plain, traced): (Vec<&Op>, Vec<&Op>) = ops.iter().partition(|o| !o.traced);
    // calibrated turnarounds, and the raw ones
    let turnaround = |ops: &[&Op]| -> Vec<f64> {
        ops.iter()
            .map(|o| o.turnaround_ms() * round_scale[o.round])
            .collect()
    };
    let plain_turnaround = turnaround(&plain);
    let raw: Vec<f64> = plain.iter().map(|o| o.turnaround_ms()).collect();
    // campaigns per second of each round, calibrated
    let round_rates: Vec<f64> = (0..rounds)
        .map(|r| {
            let n = ops.iter().filter(|o| o.round == r).count();
            n as f64 / (round_s[r] * round_scale[r])
        })
        .collect();
    report.note("setup_reps", SETUP_REPS as f64);
    report.note("campaigns", ops.len() as f64);
    report.note("wall_s", wall_s);
    report.note("rounds", rounds as f64);
    report.note("raw_op_p50_ms", median(&raw));
    report.note("raw_op_p90_ms", quantile(&raw, 0.9));
    report.note("raw_campaigns_per_s", ops.len() as f64 / wall_s);
    report.note("kernel_p50_ms", median(cal.samples()));
    report.note(
        "polls_per_campaign",
        mean(&plain.iter().map(|o| o.polls as f64).collect::<Vec<_>>()),
    );

    if !p.trace {
        report.set("setup_s", median(&setup_s));
        report.set("campaigns_per_s", median(&round_rates));
        report.set("op_p50_ms", median(&plain_turnaround));
        report.set("op_p90_ms", quantile(&plain_turnaround, 0.9));
        return Ok(report);
    }

    let requests = |endpoint: Option<&str>| -> Vec<f64> {
        traced
            .iter()
            .flat_map(|o| &o.requests)
            .filter(|(e, _)| endpoint.map_or(*e != "submit", |want| *e == want))
            .map(|&(_, ms)| ms)
            .collect()
    };
    for (endpoint, p50, p99) in [
        (
            "submit",
            "service.httpd.submit_p50_ms",
            "service.httpd.submit_p99_ms",
        ),
        (
            "status",
            "service.httpd.status_p50_ms",
            "service.httpd.status_p99_ms",
        ),
        (
            "stream",
            "service.httpd.stream_p50_ms",
            "service.httpd.stream_p99_ms",
        ),
        (
            "page",
            "service.httpd.page_p50_ms",
            "service.httpd.page_p99_ms",
        ),
        (
            "healthz",
            "service.httpd.healthz_p50_ms",
            "service.httpd.healthz_p99_ms",
        ),
    ] {
        let v = requests(Some(endpoint));
        report.set(p50, median(&v));
        report.set(p99, quantile(&v, 0.99));
    }
    let v = requests(None);
    report.set("service.httpd.request_p50_ms", median(&v));
    report.set("service.httpd.request_p99_ms", quantile(&v, 0.99));

    // pair the daemon's campaigns with the traced ops, in completion order
    let spans = tracer.spans();
    let campaigns = daemon_campaigns(&spans);
    let mut by_completion: Vec<&Op> = traced.iter().copied().filter(|o| o.ok).collect();
    by_completion.sort_by_key(|o| o.completion_index);
    report.note("daemon_campaigns", campaigns.len() as f64);
    report.note("traced_ok_ops", by_completion.len() as f64);
    let (mut campaign_ms, mut queue_ms, mut lag_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut accounted, mut total) = (0.0, 0.0);
    for (o, &(c0, c1)) in by_completion.iter().zip(&campaigns) {
        let stream_ms = o
            .requests
            .iter()
            .find(|(e, _)| *e == "stream")
            .map_or(0.0, |r| r.1);
        let parts = [
            (o.submitted - o.sent) as f64 / 1e6,
            c0.saturating_sub(o.submitted) as f64 / 1e6,
            (c1 - c0) as f64 / 1e6,
            o.done.saturating_sub(c1) as f64 / 1e6,
            stream_ms,
        ];
        queue_ms.push(parts[1]);
        campaign_ms.push(parts[2]);
        lag_ms.push(parts[3]);
        accounted += parts.iter().sum::<f64>();
        total += o.turnaround_ms();
        tracer.record("service.campaign", None, o.number, c0, c1);
    }
    report.set("service.campaign_ms", median(&campaign_ms));
    report.set("service.queue_wait_ms", median(&queue_ms));
    report.set("service.done_lag_ms", median(&lag_ms));
    report.set(
        "service.polls_per_campaign",
        mean(&traced.iter().map(|o| o.polls as f64).collect::<Vec<_>>()),
    );
    report.set("service.accounted_share", accounted / total.max(1e-9));
    let c = &traced_source.counters;
    let loads = c.loads.load(Ordering::Relaxed) as f64;
    report.set("model.corpus.load_ms", {
        let v: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == "model.load_snapshot")
            .map(trace::Span::dur_ms)
            .collect();
        median(&v)
    });
    report.set("model.corpus.loads", loads / campaigns.len().max(1) as f64);
    report.set(
        "model.corpus.loaded_bytes",
        c.bytes.load(Ordering::Relaxed) as f64 / loads.max(1.0),
    );
    report.set(
        "model.corpus.mapped_share",
        c.mapped.load(Ordering::Relaxed) as f64 / loads.max(1.0),
    );
    report.set(
        "trace.overhead_pct",
        (median(&turnaround(&traced)) / median(&plain_turnaround) - 1.0) * 100.0,
    );
    let spans = tracer.spans();
    let selfs = trace::self_times(&spans);
    trace::finish(&mut report, p, "serve", &spans, &selfs);
    Ok(report)
}

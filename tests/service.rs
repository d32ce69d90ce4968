//! End-to-end tests of `tassd` over real loopback TCP: multi-tenant
//! fairness, quota enforcement, byte-identical results, and
//! checkpointed kill-then-resume.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};
use tass::core::{run_campaign, CampaignJob, StrategyKind};
use tass::model::registry::SourceRegistry;
use tass::model::{Protocol, Universe, UniverseConfig};
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

fn submit_body(strategy: &str, seed: u64) -> String {
    format!(r#"{{"source":"demo","strategy":"{strategy}","protocol":"http","seed":{seed}}}"#)
}

/// POST a campaign, expect 201, return the id.
fn submit(client: &mut HttpClient, tenant: &str, strategy: &str, seed: u64) -> u64 {
    let (status, body) = client
        .post("/v1/campaigns", Some(tenant), &submit_body(strategy, seed))
        .unwrap();
    assert_eq!(status, 201, "submit failed: {body}");
    parse_field_u64(&body, "id")
}

/// Extract `"key":<integer>` from a flat JSON body.
fn parse_field_u64(body: &str, key: &str) -> u64 {
    let pat = format!(r#""{key}":"#);
    let rest = &body[body
        .find(&pat)
        .unwrap_or_else(|| panic!("no {key} in {body}"))
        + pat.len()..];
    rest.chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap_or_else(|_| panic!("non-integer {key} in {body}"))
}

fn parse_field_str<'b>(body: &'b str, key: &str) -> &'b str {
    let pat = format!(r#""{key}":""#);
    let start = body
        .find(&pat)
        .unwrap_or_else(|| panic!("no {key} in {body}"))
        + pat.len();
    &body[start..start + body[start..].find('"').unwrap()]
}

/// Poll a job's status endpoint until it reports `done`; return the
/// final status body.
fn wait_done(client: &mut HttpClient, tenant: &str, id: u64) -> String {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let (status, body) = client
            .get(&format!("/v1/campaigns/{id}"), Some(tenant))
            .unwrap();
        assert_eq!(status, 200, "status poll failed: {body}");
        match parse_field_str(&body, "status") {
            "done" => return body,
            "failed" => panic!("job {id} failed: {body}"),
            _ => {}
        }
        assert!(Instant::now() < deadline, "job {id} stuck: {body}");
        thread::sleep(Duration::from_millis(10));
    }
}

/// Poll a job's status endpoint until it reports `failed`; return the
/// final status body.
fn wait_failed(client: &mut HttpClient, tenant: &str, id: u64) -> String {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let (status, body) = client
            .get(&format!("/v1/campaigns/{id}"), Some(tenant))
            .unwrap();
        assert_eq!(status, 200, "{body}");
        if parse_field_str(&body, "status") == "failed" {
            return body;
        }
        assert!(Instant::now() < deadline, "job {id} never failed: {body}");
        thread::sleep(Duration::from_millis(5));
    }
}

/// The byte-stable oracle: what the library produces locally for the
/// same job.
fn oracle(reg: &SourceRegistry, spec: &str, seed: u64) -> String {
    let kind: StrategyKind = tass::core::parse_spec(spec).unwrap();
    let source = reg.get_v4("demo").unwrap();
    let result = run_campaign(&*source, kind, Protocol::Http, seed).with_job(CampaignJob::new(
        kind,
        Protocol::Http,
        seed,
    ));
    serde_json::to_string(&result).unwrap()
}

/// The PR's acceptance test: two tenants submit overlapping batches over
/// real loopback TCP, the over-quota submission is rejected with a typed
/// error body, every accepted job completes, and results fetched over
/// HTTP are byte-identical to direct `run_campaign` runs.
#[test]
fn two_tenants_quotas_and_byte_identical_results() {
    let reg = registry();
    let daemon = Tassd::start(
        Arc::clone(&reg),
        ServiceConfig {
            workers: 1,
            quota: TenantQuota {
                max_pending: 4,
                max_concurrent: 1,
                submits_per_sec: 0.0,
                submit_burst: 8.0,
            },
            month_delay: Duration::from_millis(25),
            checkpoint_dir: None,
        },
    )
    .unwrap();
    let server = HttpServer::bind("127.0.0.1:0", daemon.core(), api::router()).unwrap();
    let mut alice = HttpClient::connect(server.addr());
    let mut bob = HttpClient::connect(server.addr());

    // tenant A fills its quota; the fifth submission bounces with a
    // typed 429 while the daemon keeps serving
    let alice_specs = [
        "full-scan",
        "ip-hitlist",
        "tass:more:0.95",
        "random-sample:0.01",
    ];
    let alice_ids: Vec<u64> = alice_specs
        .iter()
        .enumerate()
        .map(|(i, spec)| submit(&mut alice, "alice", spec, 10 + i as u64))
        .collect();
    let (status, body) = alice
        .post(
            "/v1/campaigns",
            Some("alice"),
            &submit_body("full-scan", 99),
        )
        .unwrap();
    assert_eq!(status, 429, "over-quota submission must bounce: {body}");
    assert!(body.contains(r#""code":"quota_exceeded""#), "{body}");
    assert!(body.contains(r#""message":"#), "{body}");

    // tenant B's overlapping batch is unaffected by A's quota
    let bob_specs = ["tass:less:0.9", "block24:0.05"];
    let bob_ids: Vec<u64> = bob_specs
        .iter()
        .enumerate()
        .map(|(i, spec)| submit(&mut bob, "bob", spec, 20 + i as u64))
        .collect();

    // tenants cannot see each other's jobs — same 404 as a nonexistent id
    let (status, body) = bob
        .get(&format!("/v1/campaigns/{}", alice_ids[0]), Some("bob"))
        .unwrap();
    assert_eq!(status, 404);
    assert!(body.contains("unknown_campaign"), "{body}");

    // every accepted job completes, and its result bytes match the
    // library oracle exactly
    for (ids, specs, tenant, client, seed0) in [
        (&alice_ids, &alice_specs[..], "alice", &mut alice, 10),
        (&bob_ids, &bob_specs[..], "bob", &mut bob, 20),
    ] {
        for (i, (&id, spec)) in ids.iter().zip(specs).enumerate() {
            wait_done(client, tenant, id);
            let (status, got) = client
                .get(&format!("/v1/campaigns/{id}/results"), Some(tenant))
                .unwrap();
            assert_eq!(status, 200, "{got}");
            assert_eq!(
                got,
                oracle(&reg, spec, seed0 + i as u64),
                "HTTP result for {spec} must be byte-identical to run_campaign"
            );
        }
    }

    // a not-yet-submitted id answers 404; a pending fetch answers 409
    let (status, _) = alice
        .get("/v1/campaigns/999/results", Some("alice"))
        .unwrap();
    assert_eq!(status, 404);

    server.shutdown();
    let report = daemon.shutdown(ShutdownMode::Drain).unwrap();
    assert_eq!(report.completed as usize, alice_ids.len() + bob_ids.len());
    assert_eq!(report.checkpointed, 0);
}

/// Paged result fetches over real TCP: `?offset=&limit=` slices the
/// months array out of the stored result bytes, the unpaginated fetch
/// stays byte-identical to the library oracle, and malformed paging
/// parameters bounce with a typed 400.
#[test]
fn result_pages_over_http() {
    let spec = "tass:more:0.95";
    let seed = 42;
    let reg = registry();
    let daemon = Tassd::start(
        Arc::clone(&reg),
        ServiceConfig {
            workers: 1,
            quota: TenantQuota::default(),
            month_delay: Duration::from_millis(1),
            checkpoint_dir: None,
        },
    )
    .unwrap();
    let server = HttpServer::bind("127.0.0.1:0", daemon.core(), api::router()).unwrap();
    let mut client = HttpClient::connect(server.addr());
    let id = submit(&mut client, "alice", spec, seed);
    wait_done(&mut client, "alice", id);

    let (status, full) = client
        .get(&format!("/v1/campaigns/{id}/results"), Some("alice"))
        .unwrap();
    assert_eq!(status, 200);
    assert_eq!(
        full,
        oracle(&reg, spec, seed),
        "unpaged fetch must stay byte-identical"
    );

    let result: tass::core::CampaignResult = serde_json::from_str(&full).unwrap();
    let months = result.months.len();
    assert!(months >= 3, "demo source must span several months");
    for (query, offset, end) in [
        ("offset=1&limit=2", 1usize, 3usize),
        ("limit=1", 0, 1),
        ("offset=2", 2, months),
        (&format!("offset={months}&limit=4"), months, months),
    ] {
        let (status, got) = client
            .get(
                &format!("/v1/campaigns/{id}/results?{query}"),
                Some("alice"),
            )
            .unwrap();
        assert_eq!(status, 200, "{query}: {got}");
        let mut want = result.clone();
        want.months = result.months[offset.min(months)..end.min(months)].to_vec();
        assert_eq!(
            got,
            serde_json::to_string(&want).unwrap(),
            "page {query} must equal the re-serialised slice"
        );
    }

    // malformed paging is a typed 400; other tenants still get a 404
    let (status, body) = client
        .get(
            &format!("/v1/campaigns/{id}/results?offset=minus-one"),
            Some("alice"),
        )
        .unwrap();
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("bad_request"), "{body}");
    let (status, _) = client
        .get(
            &format!("/v1/campaigns/{id}/results?offset=0&limit=1"),
            Some("mallory"),
        )
        .unwrap();
    assert_eq!(status, 404);

    server.shutdown();
    daemon.shutdown(ShutdownMode::Drain).unwrap();
}

/// A hostile body of one megabyte of `[` used to overflow the JSON
/// parser's stack and abort the daemon. It must bounce with a typed
/// 400, and the daemon must keep serving.
#[test]
fn deeply_nested_submit_body_is_a_typed_400() {
    let daemon = Tassd::start(
        registry(),
        ServiceConfig {
            workers: 1,
            quota: TenantQuota::default(),
            month_delay: Duration::from_millis(1),
            checkpoint_dir: None,
        },
    )
    .unwrap();
    let server = HttpServer::bind("127.0.0.1:0", daemon.core(), api::router()).unwrap();
    let mut client = HttpClient::connect(server.addr());
    let (status, body) = client
        .post("/v1/campaigns", Some("mallory"), &"[".repeat(1 << 20))
        .unwrap();
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("bad_request"), "{body}");
    let (status, body) = client.get("/v1/healthz", None).unwrap();
    assert_eq!(status, 200, "{body}");
    let id = submit(&mut client, "alice", "full-scan", 1);
    wait_done(&mut client, "alice", id);

    server.shutdown();
    daemon.shutdown(ShutdownMode::Drain).unwrap();
}

/// Many concurrent tenants hammering submit + poll from their own
/// threads: nothing is dropped, every job completes, and round-robin
/// dispatch keeps completions interleaved across tenants rather than
/// first-come-first-served per tenant.
#[test]
fn stress_many_tenants_fair_completion_zero_drops() {
    const TENANTS: usize = 8;
    const JOBS_PER_TENANT: usize = 6;
    let reg = registry();
    let daemon = Tassd::start(
        Arc::clone(&reg),
        ServiceConfig {
            workers: 2,
            quota: TenantQuota {
                max_pending: JOBS_PER_TENANT,
                max_concurrent: 1,
                submits_per_sec: 0.0,
                submit_burst: 8.0,
            },
            month_delay: Duration::from_millis(2),
            checkpoint_dir: None,
        },
    )
    .unwrap();
    let server = HttpServer::bind("127.0.0.1:0", daemon.core(), api::router()).unwrap();
    let addr = server.addr();

    let handles: Vec<_> = (0..TENANTS)
        .map(|t| {
            thread::spawn(move || {
                let tenant = format!("tenant-{t}");
                let mut client = HttpClient::connect(addr);
                let ids: Vec<u64> = (0..JOBS_PER_TENANT)
                    .map(|j| {
                        submit(
                            &mut client,
                            &tenant,
                            "ip-hitlist",
                            (t * JOBS_PER_TENANT + j) as u64,
                        )
                    })
                    .collect();
                // poll every job to completion and collect the global
                // completion order stamps
                ids.iter()
                    .map(|&id| {
                        let body = wait_done(&mut client, &tenant, id);
                        parse_field_u64(&body, "completion_index")
                    })
                    .collect::<Vec<u64>>()
            })
        })
        .collect();
    let completions: Vec<Vec<u64>> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    // zero drops: every job of every tenant completed with a unique
    // completion stamp
    let total = TENANTS * JOBS_PER_TENANT;
    let mut all: Vec<u64> = completions.iter().flatten().copied().collect();
    all.sort_unstable();
    assert_eq!(all, (0..total as u64).collect::<Vec<_>>());

    // fairness: round-robin dispatch means every tenant finishes some
    // jobs in the first half of the global completion order — no tenant
    // is starved behind another's backlog
    let mut early = BTreeMap::new();
    for (t, stamps) in completions.iter().enumerate() {
        early.insert(t, stamps.iter().filter(|&&s| s < total as u64 / 2).count());
    }
    for (t, n) in &early {
        assert!(
            *n >= JOBS_PER_TENANT / 2 - 2,
            "tenant {t} starved: only {n} of its jobs in the first half ({early:?})"
        );
    }

    server.shutdown();
    let report = daemon.shutdown(ShutdownMode::Drain).unwrap();
    assert_eq!(report.completed as usize, total);
}

/// Run `finished_first` full-scan jobs to completion on a daemon over
/// `cfg`, then submit `spec`, let that campaign complete at least two
/// months, checkpoint-shutdown the daemon, and return the job id and its
/// checkpoint file.
fn checkpoint_mid_campaign(
    reg: &Arc<SourceRegistry>,
    cfg: ServiceConfig,
    spec: &str,
    seed: u64,
    finished_first: u64,
) -> (u64, PathBuf) {
    let dir = cfg.checkpoint_dir.clone().expect("a checkpoint directory");
    let daemon = Tassd::start(Arc::clone(reg), cfg).unwrap();
    let server = HttpServer::bind("127.0.0.1:0", daemon.core(), api::router()).unwrap();
    let mut client = HttpClient::connect(server.addr());
    for seed in 0..finished_first {
        let id = submit(&mut client, "alice", "full-scan", seed);
        wait_done(&mut client, "alice", id);
    }
    let id = submit(&mut client, "alice", spec, seed);
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let (_, body) = client
            .get(&format!("/v1/campaigns/{id}"), Some("alice"))
            .unwrap();
        if parse_field_u64(&body, "months_done") >= 2 {
            assert_eq!(parse_field_str(&body, "status"), "running", "{body}");
            break;
        }
        assert!(
            Instant::now() < deadline,
            "campaign never got going: {body}"
        );
        thread::sleep(Duration::from_millis(5));
    }
    server.shutdown();
    let report = daemon.shutdown(ShutdownMode::Checkpoint).unwrap();
    assert_eq!(report.checkpointed, 1, "the in-flight job must persist");
    let file = dir.join(format!("job-{id:08}.json"));
    assert!(file.exists(), "checkpoint file {} missing", file.display());
    (id, file)
}

/// Kill the daemon mid-campaign, restart it over the same checkpoint
/// directory, and prove the resumed job finishes with results
/// byte-identical to a never-interrupted run — in full, streamed, and
/// paged.
#[test]
fn kill_then_resume_is_byte_identical() {
    let spec = "reseeding-tass:more:0.95:3";
    let seed = 13;
    let dir = std::env::temp_dir().join(format!("tassd-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let reg = registry();
    let cfg = || ServiceConfig {
        workers: 1,
        quota: TenantQuota::default(),
        month_delay: Duration::from_millis(40),
        checkpoint_dir: Some(dir.clone()),
    };

    // first daemon: submit, let it get partway, checkpoint-shutdown
    let (id, file) = checkpoint_mid_campaign(&reg, cfg(), spec, seed, 0);

    // second daemon over the same directory: the job resumes under its
    // original id and completes
    let daemon = Tassd::start(Arc::clone(&reg), cfg()).unwrap();
    let server = HttpServer::bind("127.0.0.1:0", daemon.core(), api::router()).unwrap();
    let mut client = HttpClient::connect(server.addr());
    let body = wait_done(&mut client, "alice", id);
    assert_eq!(parse_field_u64(&body, "id"), id);
    let (status, got) = client
        .get(&format!("/v1/campaigns/{id}/results"), Some("alice"))
        .unwrap();
    assert_eq!(status, 200);
    let want = oracle(&reg, spec, seed);
    assert_eq!(
        got, want,
        "suspend/restart/resume must not change a single byte"
    );
    assert!(
        !file.exists(),
        "stale checkpoint file must be removed on completion"
    );
    // the resumed job's stream and pages are cut from the same bytes
    let (status, streamed) = client
        .get_stream(
            &format!("/v1/campaigns/{id}/results/stream"),
            Some("alice"),
            |_| {},
        )
        .unwrap();
    assert_eq!(status, 200);
    assert_eq!(String::from_utf8(streamed).unwrap(), want);
    let (status, page) = client
        .get(
            &format!("/v1/campaigns/{id}/results?offset=1&limit=2"),
            Some("alice"),
        )
        .unwrap();
    assert_eq!(status, 200);
    let mut sliced: tass::core::CampaignResult = serde_json::from_str(&want).unwrap();
    sliced.months = sliced.months[1..3].to_vec();
    assert_eq!(page, serde_json::to_string(&sliced).unwrap());

    server.shutdown();
    daemon.shutdown(ShutdownMode::Drain).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A checkpoint write torn by a crash leaves a partial `.json.tmp`
/// beside the last good checkpoint. The restarted daemon ignores it and
/// resumes from the good file, byte-identically.
#[test]
fn torn_checkpoint_temp_file_does_not_block_resume() {
    let spec = "reseeding-tass:more:0.95:3";
    let seed = 13;
    let dir = std::env::temp_dir().join(format!("tassd-torn-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let reg = registry();
    let cfg = || ServiceConfig {
        workers: 1,
        quota: TenantQuota::default(),
        month_delay: Duration::from_millis(40),
        checkpoint_dir: Some(dir.clone()),
    };
    let (id, file) = checkpoint_mid_campaign(&reg, cfg(), spec, seed, 0);
    let good = std::fs::read_to_string(&file).unwrap();
    let leftovers: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .filter(|name| name.to_string_lossy().ends_with(".tmp"))
        .collect();
    assert!(
        leftovers.is_empty(),
        "a finished write leaves {leftovers:?}"
    );
    // the next checkpoint of the same job, cut off mid-string
    let torn = dir.join(format!("job-{id:08}.json.tmp"));
    std::fs::write(&torn, &good[..good.len() / 2]).unwrap();

    let daemon = Tassd::start(Arc::clone(&reg), cfg()).unwrap();
    let server = HttpServer::bind("127.0.0.1:0", daemon.core(), api::router()).unwrap();
    let mut client = HttpClient::connect(server.addr());
    wait_done(&mut client, "alice", id);
    let (status, got) = client
        .get(&format!("/v1/campaigns/{id}/results"), Some("alice"))
        .unwrap();
    assert_eq!(status, 200);
    assert_eq!(
        got,
        oracle(&reg, spec, seed),
        "resume must not change a byte"
    );

    server.shutdown();
    daemon.shutdown(ShutdownMode::Drain).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A checkpoint file that does not parse (a 21-byte torn
/// `job-00000001.json`, and one with an id above every good job) is
/// renamed `*.json.corrupt`; the daemon still starts, the good job
/// resumes byte-identically, and no new job takes a set-aside id — at
/// this start or the next.
#[test]
fn torn_checkpoint_file_is_set_aside_and_the_rest_resume() {
    let spec = "reseeding-tass:more:0.95:3";
    let seed = 13;
    let dir = std::env::temp_dir().join(format!("tassd-set-aside-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let reg = registry();
    let cfg = || ServiceConfig {
        workers: 1,
        quota: TenantQuota::default(),
        month_delay: Duration::from_millis(40),
        checkpoint_dir: Some(dir.clone()),
    };
    // job 1 finishes, job 2 is checkpointed mid-campaign
    let (id, file) = checkpoint_mid_campaign(&reg, cfg(), spec, seed, 1);
    assert_eq!(id, 2);
    let torn = &std::fs::read(&file).unwrap()[..21];
    let torn_files = [dir.join("job-00000001.json"), dir.join("job-00000009.json")];
    for path in &torn_files {
        std::fs::write(path, torn).unwrap();
    }

    let daemon = Tassd::start(Arc::clone(&reg), cfg()).unwrap();
    let server = HttpServer::bind("127.0.0.1:0", daemon.core(), api::router()).unwrap();
    let mut client = HttpClient::connect(server.addr());
    wait_done(&mut client, "alice", id);
    let (status, got) = client
        .get(&format!("/v1/campaigns/{id}/results"), Some("alice"))
        .unwrap();
    assert_eq!(status, 200);
    assert_eq!(
        got,
        oracle(&reg, spec, seed),
        "resume must not change a byte"
    );
    for path in &torn_files {
        assert!(!path.exists(), "{} left in place", path.display());
        let aside = path.with_extension("json.corrupt");
        assert_eq!(std::fs::read(&aside).unwrap(), torn, "{}", aside.display());
    }
    assert_eq!(submit(&mut client, "alice", "full-scan", 4), 10);
    server.shutdown();
    daemon.shutdown(ShutdownMode::Drain).unwrap();

    // the set-aside files keep their ids taken at the next start too
    let daemon = Tassd::start(Arc::clone(&reg), cfg()).unwrap();
    let server = HttpServer::bind("127.0.0.1:0", daemon.core(), api::router()).unwrap();
    let mut client = HttpClient::connect(server.addr());
    assert_eq!(submit(&mut client, "alice", "full-scan", 5), 10);
    server.shutdown();
    daemon.shutdown(ShutdownMode::Drain).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A checkpointed job resumed against a daemon that lacks its source
/// fails, keeps the months it actually completed, and answers every
/// results endpoint with a typed `409`.
#[test]
fn failed_resume_keeps_the_checkpointed_months() {
    let dir = std::env::temp_dir().join(format!("tassd-failed-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = || ServiceConfig {
        workers: 1,
        quota: TenantQuota::default(),
        month_delay: Duration::from_millis(40),
        checkpoint_dir: Some(dir.clone()),
    };
    let (id, file) = checkpoint_mid_campaign(&registry(), cfg(), "full-scan", 3, 0);
    // one `"month":` key per completed month evaluation
    let checkpointed = std::fs::read_to_string(&file)
        .unwrap()
        .matches(r#""month":"#)
        .count() as u64;
    assert!(checkpointed >= 2, "{checkpointed} months checkpointed");

    // restart over the same directory without the job's source
    let daemon = Tassd::start(Arc::new(SourceRegistry::new()), cfg()).unwrap();
    let server = HttpServer::bind("127.0.0.1:0", daemon.core(), api::router()).unwrap();
    let mut client = HttpClient::connect(server.addr());
    let body = wait_failed(&mut client, "alice", id);
    assert_eq!(
        parse_field_u64(&body, "months_done"),
        checkpointed,
        "{body}"
    );
    for path in ["results", "results/stream"] {
        let (status, body) = client
            .get(&format!("/v1/campaigns/{id}/{path}"), Some("alice"))
            .unwrap();
        assert_eq!(status, 409, "{path}: {body}");
        assert!(body.contains(r#""code":"not_done""#), "{path}: {body}");
    }
    let (_, health) = client.get("/v1/healthz", None).unwrap();
    assert_eq!(parse_field_u64(&health, "failed"), 1, "{health}");

    server.shutdown();
    daemon.shutdown(ShutdownMode::Drain).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A failed job leaves no checkpoint file: after a drain, a daemon
/// restarted over the same directory neither queues the job again nor
/// reports a second failure.
#[test]
fn a_failed_job_leaves_no_file_and_is_not_run_again() {
    let dir = std::env::temp_dir().join(format!("tassd-failed-once-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = || ServiceConfig {
        workers: 1,
        quota: TenantQuota::default(),
        month_delay: Duration::from_millis(40),
        checkpoint_dir: Some(dir.clone()),
    };
    let (id, file) = checkpoint_mid_campaign(&registry(), cfg(), "full-scan", 3, 0);

    // both restarts lack the job's source: the first fails the job
    for restart in 0..2 {
        let daemon = Tassd::start(Arc::new(SourceRegistry::new()), cfg()).unwrap();
        let server = HttpServer::bind("127.0.0.1:0", daemon.core(), api::router()).unwrap();
        let mut client = HttpClient::connect(server.addr());
        if restart == 0 {
            wait_failed(&mut client, "alice", id);
        } else {
            let (status, body) = client
                .get(&format!("/v1/campaigns/{id}"), Some("alice"))
                .unwrap();
            assert_eq!(status, 404, "the failed job came back: {body}");
        }
        let (_, health) = client.get("/v1/healthz", None).unwrap();
        assert_eq!(parse_field_u64(&health, "failed"), 1 - restart, "{health}");
        assert_eq!(parse_field_u64(&health, "queued"), 0, "{health}");
        server.shutdown();
        daemon.shutdown(ShutdownMode::Drain).unwrap();
        assert!(!file.exists(), "{} outlived its failure", file.display());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A corpus month torn on disk after the corpus was opened fails the job
/// that reaches it. The worker survives: another tenant's job on an
/// in-memory source completes byte-identically, and nothing is left
/// counted as running.
#[test]
fn a_month_torn_after_open_fails_its_job_and_the_worker_survives() {
    let dir = std::env::temp_dir().join(format!("tassd-torn-month-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let universe = Universe::generate(&UniverseConfig::small(UNIVERSE_SEED));
    tass::model::corpus::export_universe(&universe, &dir).unwrap();
    let mut reg = SourceRegistry::new();
    reg.insert_v4("demo", Arc::new(universe)).unwrap();
    let opts = tass::model::corpus::CorpusOptions {
        cache_snapshots: 1,
        ..Default::default()
    };
    reg.open_corpus_with("archive", &dir, &opts).unwrap();
    let reg = Arc::new(reg);
    let month2 = dir
        .join(tass::model::corpus::SNAPSHOT_DIR)
        .join("m2-http.snap");
    let bytes = std::fs::read(&month2).unwrap();
    std::fs::write(&month2, &bytes[..bytes.len() / 2]).unwrap();

    let daemon = Tassd::start(
        Arc::clone(&reg),
        ServiceConfig {
            workers: 1,
            ..Default::default()
        },
    )
    .unwrap();
    let server = HttpServer::bind("127.0.0.1:0", daemon.core(), api::router()).unwrap();
    let mut client = HttpClient::connect(server.addr());
    let (status, body) = client
        .post(
            "/v1/campaigns",
            Some("alice"),
            r#"{"source":"archive","strategy":"full-scan","protocol":"http","seed":1}"#,
        )
        .unwrap();
    assert_eq!(status, 201, "{body}");
    let torn = parse_field_u64(&body, "id");
    let other = submit(&mut client, "bob", "tass:more:0.95", 2);

    let body = wait_failed(&mut client, "alice", torn);
    assert_eq!(parse_field_u64(&body, "months_done"), 2, "{body}");
    wait_done(&mut client, "bob", other);
    let (status, got) = client
        .get(&format!("/v1/campaigns/{other}/results"), Some("bob"))
        .unwrap();
    assert_eq!(status, 200);
    assert_eq!(got, oracle(&reg, "tass:more:0.95", 2));
    let (_, health) = client.get("/v1/healthz", None).unwrap();
    assert_eq!(parse_field_u64(&health, "running"), 0, "{health}");
    assert_eq!(parse_field_u64(&health, "failed"), 1, "{health}");
    assert_eq!(parse_field_u64(&health, "done"), 1, "{health}");

    server.shutdown();
    daemon.shutdown(ShutdownMode::Drain).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A checkpoint file whose horizon runs past its source fails the
/// resumed job before it runs a month, keeping the months it
/// checkpointed, and the worker goes on to run the next job.
#[test]
fn a_checkpoint_past_the_source_horizon_fails_its_job() {
    let dir = std::env::temp_dir().join(format!("tassd-horizon-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let reg = registry();
    let cfg = || ServiceConfig {
        workers: 1,
        quota: TenantQuota::default(),
        month_delay: Duration::from_millis(40),
        checkpoint_dir: Some(dir.clone()),
    };
    let (id, file) = checkpoint_mid_campaign(&reg, cfg(), "full-scan", 3, 0);
    // the demo source has 6 months after t₀; claim 9
    let text = std::fs::read_to_string(&file).unwrap();
    // one `"month":` key per completed month evaluation
    let checkpointed = text.matches(r#""month":"#).count() as u64;
    assert_eq!(text.matches(r#""months_total":6"#).count(), 1, "{text}");
    std::fs::write(
        &file,
        text.replace(r#""months_total":6"#, r#""months_total":9"#),
    )
    .unwrap();

    let daemon = Tassd::start(
        Arc::clone(&reg),
        ServiceConfig {
            month_delay: Duration::ZERO,
            ..cfg()
        },
    )
    .unwrap();
    let server = HttpServer::bind("127.0.0.1:0", daemon.core(), api::router()).unwrap();
    let mut client = HttpClient::connect(server.addr());
    let body = wait_failed(&mut client, "alice", id);
    assert_eq!(
        parse_field_u64(&body, "months_done"),
        checkpointed,
        "{body}"
    );
    let next = submit(&mut client, "alice", "full-scan", 4);
    wait_done(&mut client, "alice", next);
    let (_, health) = client.get("/v1/healthz", None).unwrap();
    assert_eq!(parse_field_u64(&health, "running"), 0, "{health}");
    assert_eq!(parse_field_u64(&health, "failed"), 1, "{health}");

    server.shutdown();
    daemon.shutdown(ShutdownMode::Drain).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

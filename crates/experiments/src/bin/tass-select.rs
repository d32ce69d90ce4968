//! `tass-select` — TASS selections and corpus replay for real scan data.
//!
//! ```text
//! tass-select --pfx2as TABLE --responsive ADDRS [--phi 0.95]
//!             [--view less|more] [--out FILE]
//!
//!   --pfx2as TABLE      CAIDA RouteViews pfx2as snapshot (text format)
//!   --responsive ADDRS  responsive addresses from a full scan, one per line
//!   --phi FLOAT         host-coverage target (default 0.95)
//!   --view less|more    prefix granularity (default more)
//!   --out FILE          write the whitelist there (default: stdout)
//!
//! tass-select replay --corpus DIR [--strategy SPEC]... [--seed N]
//!                    [--csv FILE] [--cache-bytes N] [--cache-snapshots N]
//!
//!   --corpus DIR        a corpus directory (corpus.manifest +
//!                       topology.pfx2as + snapshots/, e.g. written by
//!                       tass_model::corpus::export_universe or by
//!                       tass-select ingest from monthly scans)
//!   --strategy SPEC     a strategy to replay; repeatable. Specs:
//!                       full-scan | ip-hitlist | tass:VIEW:PHI |
//!                       random-sample:F | block24:F |
//!                       random-prefix:VIEW:F |
//!                       reseeding-tass:VIEW:PHI:DT |
//!                       adaptive-tass:VIEW:PHI:EXPLORE
//!                       (VIEW = less|more; default set: ip-hitlist +
//!                       tass:more:0.95 + full-scan)
//!   --seed N            campaign seed (default 1)
//!   --csv FILE          also write per-month rows as CSV
//!   --cache-bytes N     hard month-cache memory ceiling (evicts by
//!                       resident bytes; results are identical, only
//!                       load latency and peak memory change)
//!   --cache-snapshots N month-cache entry cap (default 8)
//!
//! tass-select ingest --out DIR --caida-pfx2as FILE
//!                    [--list MONTH:PROTOCOL:FILE]... [--v6-hitlist FILE]
//!                    [--workers N] [--chunk-lines N]
//!
//!   --caida-pfx2as FILE CAIDA RouteViews pfx2as snapshot → the corpus
//!                       topology
//!   --list M:PROTO:FILE one monthly responsive-address list, streamed
//!                       in parallel chunks (O(workers · chunk) memory);
//!                       repeatable, e.g. 0:http:scan-2024-01.txt
//!   --v6-hitlist FILE   IPv6 Hitlist responsive addresses → a TSS6
//!                       snapshot (DIR/v6-hitlist.snap)
//!   --workers N         parse/sort worker threads (default 4)
//!   --chunk-lines N     lines per streamed chunk (default 65536)
//!
//! tass-select serve [--addr HOST:PORT] [--source NAME=SPEC]...
//!                   [--workers N] [--checkpoint-dir DIR] [--drain]
//!                   [--max-pending N] [--max-concurrent N]
//!                   [--rate R] [--burst B] [--month-delay-ms MS]
//!                   [--cache-bytes N] [--http-loops N]
//!                   [--keep-alive-secs S]
//!
//!   --addr HOST:PORT    listen address (default 127.0.0.1:7447)
//!   --source NAME=SPEC  register a ground-truth source; repeatable.
//!                       Specs: universe:SEED | corpus:DIR
//!                       (default: demo=universe:1)
//!   --workers N         campaign worker threads (default: the
//!                       CAMPAIGN_WORKERS contract, i.e. all cores)
//!   --checkpoint-dir D  persist unfinished jobs there on shutdown and
//!                       resume them on the next start (a job file that
//!                       does not parse is renamed *.json.corrupt)
//!   --drain             on shutdown, finish queued jobs instead of
//!                       checkpointing them
//!   --max-pending N     per-tenant queued+running ceiling (default 64)
//!   --max-concurrent N  per-tenant running ceiling (default 4)
//!   --rate R            per-tenant submissions/second (default: unlimited)
//!   --burst B           submission burst size (default 8)
//!   --month-delay-ms MS pause before each campaign month (demos/tests)
//!   --cache-bytes N     month-cache memory ceiling for corpus sources
//!   --http-loops N      HTTP event-loop threads (default: one per
//!                       core, capped at 4)
//!   --keep-alive-secs S idle-connection reap timeout (default 10)
//! ```
//!
//! Selection mode writes a ZMap-compatible whitelist (one CIDR per line
//! with a provenance header; statistics on stderr). Replay mode runs
//! every strategy over every protocol the corpus holds — the identical
//! campaign lifecycle the simulation uses — and prints the
//! hitrate/probe-cost table. Serve mode runs `tassd`, the resident
//! campaign service (tenant queues, quotas, checkpointed shutdown on
//! SIGTERM/ctrl-c) — see `tass::service` for the API.

use std::io::Write;
use std::path::PathBuf;
use tass_bgp::ViewKind;
use tass_core::strategy::StrategyKind;
use tass_experiments::selectcli::{
    parse_list_spec, parse_strategy, render_replay, replay_csv, run_ingest, run_replay_with,
    run_select, to_whitelist,
};
use tass_model::corpus::{CorpusOptions, IngestOptions};
use tass_model::registry::SourceRegistry;
use tass_service::{
    add_source_with, api, signal, HttpServer, HttpdConfig, ServiceConfig, ShutdownMode, Tassd,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("replay") => replay_main(&args[1..]),
        Some("serve") => serve_main(&args[1..]),
        Some("ingest") => ingest_main(&args[1..]),
        _ => select_main(&args),
    }
}

fn ingest_main(args: &[String]) {
    let mut out: Option<PathBuf> = None;
    let mut pfx2as_path: Option<String> = None;
    let mut lists = Vec::new();
    let mut v6_hitlist: Option<PathBuf> = None;
    let mut opts = IngestOptions::default();

    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => out = Some(PathBuf::from(need(it.next(), "--out", "a directory"))),
            "--caida-pfx2as" => {
                pfx2as_path = Some(need(it.next(), "--caida-pfx2as", "a file path").clone())
            }
            "--list" => match parse_list_spec(need(it.next(), "--list", "MONTH:PROTOCOL:FILE")) {
                Ok(spec) => lists.push(spec),
                Err(e) => die(&e.to_string()),
            },
            "--v6-hitlist" => {
                v6_hitlist = Some(PathBuf::from(need(
                    it.next(),
                    "--v6-hitlist",
                    "a file path",
                )))
            }
            "--workers" => opts.workers = parse_flag(it.next(), "--workers"),
            "--chunk-lines" => opts.chunk_lines = parse_flag(it.next(), "--chunk-lines"),
            "--help" | "-h" => {
                eprintln!(
                    "usage: tass-select ingest --out DIR --caida-pfx2as FILE \
                     [--list MONTH:PROTOCOL:FILE]... [--v6-hitlist FILE] \
                     [--workers N] [--chunk-lines N]"
                );
                return;
            }
            other => die(&format!("unknown ingest argument {other:?}")),
        }
    }
    let out = out.unwrap_or_else(|| die("--out is required"));
    let pfx2as_path = pfx2as_path.unwrap_or_else(|| die("--caida-pfx2as is required"));
    let table = std::fs::read_to_string(&pfx2as_path)
        .unwrap_or_else(|e| die(&format!("cannot read {pfx2as_path}: {e}")));
    let outcome = match run_ingest(&out, &table, &lists, v6_hitlist.as_deref(), &opts) {
        Ok(o) => o,
        Err(e) => die(&e.to_string()),
    };
    eprintln!(
        "tass-select ingest: {} month list{} → {}{}{}",
        outcome.v4_lists,
        if outcome.v4_lists == 1 { "" } else { "s" },
        out.display(),
        if outcome.manifest_written {
            " (manifest written)"
        } else {
            ""
        },
        match outcome.v6_hosts {
            Some(n) => format!("; v6 hitlist: {n} hosts → v6-hitlist.snap"),
            None => String::new(),
        },
    );
}

fn serve_main(args: &[String]) {
    let mut addr = "127.0.0.1:7447".to_string();
    let mut definitions: Vec<String> = Vec::new();
    let mut cfg = ServiceConfig::default();
    let mut http = HttpdConfig::default();
    let mut drain = false;
    let mut cache = CorpusOptions::default();

    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => addr = need(it.next(), "--addr", "HOST:PORT").clone(),
            "--source" => definitions.push(need(it.next(), "--source", "NAME=SPEC").clone()),
            "--cache-bytes" => cache.cache_bytes = Some(parse_flag(it.next(), "--cache-bytes")),
            "--workers" => cfg.workers = parse_flag(it.next(), "--workers"),
            "--checkpoint-dir" => {
                cfg.checkpoint_dir = Some(PathBuf::from(need(
                    it.next(),
                    "--checkpoint-dir",
                    "a directory",
                )))
            }
            "--drain" => drain = true,
            "--max-pending" => cfg.quota.max_pending = parse_flag(it.next(), "--max-pending"),
            "--max-concurrent" => {
                cfg.quota.max_concurrent = parse_flag(it.next(), "--max-concurrent")
            }
            "--rate" => cfg.quota.submits_per_sec = parse_flag(it.next(), "--rate"),
            "--burst" => cfg.quota.submit_burst = parse_flag(it.next(), "--burst"),
            "--month-delay-ms" => {
                cfg.month_delay =
                    std::time::Duration::from_millis(parse_flag(it.next(), "--month-delay-ms"))
            }
            "--http-loops" => http.event_loops = parse_flag(it.next(), "--http-loops"),
            "--keep-alive-secs" => {
                http.keep_alive =
                    std::time::Duration::from_secs(parse_flag(it.next(), "--keep-alive-secs"))
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: tass-select serve [--addr HOST:PORT] [--source NAME=SPEC]... \
                     [--workers N] [--checkpoint-dir DIR] [--drain] [--max-pending N] \
                     [--max-concurrent N] [--rate R] [--burst B] [--month-delay-ms MS] \
                     [--cache-bytes N] [--http-loops N] [--keep-alive-secs S]"
                );
                return;
            }
            other => die(&format!("unknown serve argument {other:?}")),
        }
    }
    if definitions.is_empty() {
        definitions.push("demo=universe:1".to_string());
    }
    let mut registry = SourceRegistry::new();
    for definition in &definitions {
        if let Err(e) = add_source_with(&mut registry, definition, &cache) {
            die(&e);
        }
    }
    // checkpointing needs a directory; without one, drain is all we can do
    let mode = if drain || cfg.checkpoint_dir.is_none() {
        ShutdownMode::Drain
    } else {
        ShutdownMode::Checkpoint
    };
    signal::install();
    let daemon = Tassd::start(std::sync::Arc::new(registry), cfg)
        .unwrap_or_else(|e| die(&format!("cannot start tassd: {e}")));
    let server = HttpServer::bind_with(&addr, daemon.core(), api::router(), http)
        .unwrap_or_else(|e| die(&format!("cannot bind {addr}: {e}")));
    eprintln!(
        "tassd listening on {} ({} source{})",
        server.addr(),
        definitions.len(),
        if definitions.len() == 1 { "" } else { "s" },
    );
    while !signal::shutdown_requested() {
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    eprintln!(
        "tassd: shutting down ({})",
        if mode == ShutdownMode::Drain {
            "draining queued jobs"
        } else {
            "checkpointing unfinished jobs"
        }
    );
    server.shutdown();
    match daemon.shutdown(mode) {
        Ok(report) => eprintln!(
            "tassd: {} campaigns completed, {} checkpointed",
            report.completed, report.checkpointed
        ),
        Err(e) => die(&format!("shutdown failed: {e}")),
    }
}

/// Parse any `FromStr` flag value, or die naming the flag.
fn parse_flag<T: std::str::FromStr>(value: Option<&String>, flag: &str) -> T {
    need(value, flag, "a value")
        .parse()
        .unwrap_or_else(|_| die(&format!("{flag}: cannot parse value")))
}

fn replay_main(args: &[String]) {
    let mut corpus: Option<PathBuf> = None;
    let mut kinds: Vec<StrategyKind> = Vec::new();
    let mut seed = 1u64;
    let mut csv_path: Option<String> = None;
    let mut cache = CorpusOptions::default();

    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--corpus" => corpus = Some(PathBuf::from(need(it.next(), "--corpus", "a directory"))),
            "--strategy" => match parse_strategy(need(it.next(), "--strategy", "a spec")) {
                Ok(k) => kinds.push(k),
                Err(e) => die(&e.to_string()),
            },
            "--seed" => {
                seed = need(it.next(), "--seed", "an integer")
                    .parse()
                    .unwrap_or_else(|_| die("--seed needs an integer"));
            }
            "--csv" => csv_path = Some(need(it.next(), "--csv", "a file path").clone()),
            "--cache-bytes" => cache.cache_bytes = Some(parse_flag(it.next(), "--cache-bytes")),
            "--cache-snapshots" => {
                cache.cache_snapshots = parse_flag(it.next(), "--cache-snapshots")
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: tass-select replay --corpus DIR [--strategy SPEC]... \
                     [--seed N] [--csv FILE] [--cache-bytes N] [--cache-snapshots N]"
                );
                return;
            }
            other => die(&format!("unknown replay argument {other:?}")),
        }
    }
    let corpus = corpus.unwrap_or_else(|| die("--corpus is required"));
    if kinds.is_empty() {
        kinds = vec![
            StrategyKind::IpHitlist,
            StrategyKind::Tass {
                view: ViewKind::MoreSpecific,
                phi: 0.95,
            },
            StrategyKind::FullScan,
        ];
    }
    let results = match run_replay_with(&corpus, &kinds, seed, &cache) {
        Ok(r) => r,
        Err(e) => die(&e.to_string()),
    };
    eprintln!(
        "tass-select replay: {} campaigns ({} strategies x {} protocols) from {}",
        results.len(),
        kinds.len(),
        results.len() / kinds.len().max(1),
        corpus.display(),
    );
    print!("{}", render_replay(&results));
    if let Some(p) = csv_path {
        std::fs::write(&p, replay_csv(&results))
            .unwrap_or_else(|e| die(&format!("cannot write {p}: {e}")));
    }
}

fn select_main(args: &[String]) {
    let mut pfx2as_path: Option<String> = None;
    let mut responsive_path: Option<String> = None;
    let mut phi = 0.95f64;
    let mut view = ViewKind::MoreSpecific;
    let mut out_path: Option<String> = None;

    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--pfx2as" => pfx2as_path = Some(need(it.next(), "--pfx2as", "a file path").clone()),
            "--responsive" => {
                responsive_path = Some(need(it.next(), "--responsive", "a file path").clone())
            }
            "--phi" => {
                phi = need(it.next(), "--phi", "a float")
                    .parse()
                    .unwrap_or_else(|_| die("--phi needs a float"));
            }
            "--view" => {
                view = match need(it.next(), "--view", "less|more").as_str() {
                    "less" => ViewKind::LessSpecific,
                    "more" => ViewKind::MoreSpecific,
                    other => die(&format!("--view must be less|more, got {other:?}")),
                };
            }
            "--out" => out_path = Some(need(it.next(), "--out", "a file path").clone()),
            "--help" | "-h" => {
                eprintln!(
                    "usage: tass-select --pfx2as TABLE --responsive ADDRS \
                     [--phi 0.95] [--view less|more] [--out FILE]\n\
                     \x20      tass-select replay --corpus DIR [--strategy SPEC]... \
                     [--seed N] [--csv FILE]\n\
                     \x20      tass-select serve [--addr HOST:PORT] \
                     [--source NAME=SPEC]... [--checkpoint-dir DIR] [--drain]"
                );
                return;
            }
            other => die(&format!("unknown argument {other:?}")),
        }
    }

    let pfx2as_path = pfx2as_path.unwrap_or_else(|| die("--pfx2as is required"));
    let responsive_path = responsive_path.unwrap_or_else(|| die("--responsive is required"));
    let table = std::fs::read_to_string(&pfx2as_path)
        .unwrap_or_else(|e| die(&format!("cannot read {pfx2as_path}: {e}")));
    let addrs = std::fs::read_to_string(&responsive_path)
        .unwrap_or_else(|e| die(&format!("cannot read {responsive_path}: {e}")));

    let outcome = match run_select(&table, &addrs, view, phi) {
        Ok(o) => o,
        Err(e) => die(&e.to_string()),
    };
    eprintln!(
        "tass-select: {} input hosts, {} attributable; {} scan units ({view}); \
         selected {} prefixes covering {:.2}% of hosts using {:.2}% of announced space",
        outcome.input_hosts,
        outcome.attributed_hosts,
        outcome.view_units,
        outcome.selection.k,
        100.0 * outcome.selection.achieved_coverage,
        100.0 * outcome.selection.space_fraction,
    );
    let whitelist = to_whitelist(&outcome);
    match out_path {
        Some(p) => std::fs::File::create(&p)
            .and_then(|mut f| f.write_all(whitelist.as_bytes()))
            .unwrap_or_else(|e| die(&format!("cannot write {p}: {e}"))),
        None => print!("{whitelist}"),
    }
}

/// A flag's value, or die naming the flag — a trailing `--csv` with the
/// value forgotten must be an error, not a silently ignored option.
fn need<'a>(value: Option<&'a String>, flag: &str, what: &str) -> &'a String {
    value.unwrap_or_else(|| die(&format!("{flag} needs {what}")))
}

fn die(msg: &str) -> ! {
    eprintln!("tass-select: {msg}");
    std::process::exit(2);
}

//! `tass-perfbench`: one command that runs a named workload, checks
//! every operation's output, and prints its metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload scan|replay|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics,
//! measured with tracing off. With `--trace 1` it carries the per-layer
//! metrics: the run alternates untraced and traced operations, derives
//! the layer numbers from the traced ones, and reports the difference
//! between the two halves as the tracing overhead. The line before it
//! is the run's record: workload, seed, machine fingerprint and the
//! workload's own figures.

mod calib;
mod replay;
mod scan;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// The metrics every untraced run prints, whatever the workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ok_ops_ratio", "ratio"),
    ("peak_rss_mib", "MiB"),
    ("campaigns_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
];

/// The metrics every traced run prints; a layer a workload bypasses
/// reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("scan.engine.run_plan_ms", "ms"),
    ("scan.engine.cycle_share", "ratio"),
    ("scan.engine.ns_per_probe", "ns"),
    ("scan.engine.probes_per_s", "1/s"),
    ("scan.engine.responses_per_probe", "ratio"),
    ("scan.net.probes_lost", "count"),
    ("scan.net.responses_lost", "count"),
    ("scan.net.malformed", "count"),
    ("core.strategy.prepare_ms", "ms"),
    ("core.strategy.plan_ms", "ms"),
    ("core.strategy.observe_ms", "ms"),
    ("core.campaign.self_ms", "ms"),
    ("core.campaign.matrix_share", "ratio"),
    ("model.corpus.load_ms", "ms"),
    ("model.corpus.loads", "count"),
    ("model.corpus.loaded_bytes", "B"),
    ("model.corpus.mapped_share", "ratio"),
    ("service.httpd.submit_p50_ms", "ms"),
    ("service.httpd.submit_p99_ms", "ms"),
    ("service.httpd.status_p50_ms", "ms"),
    ("service.httpd.status_p99_ms", "ms"),
    ("service.httpd.stream_p50_ms", "ms"),
    ("service.httpd.stream_p99_ms", "ms"),
    ("service.httpd.page_p50_ms", "ms"),
    ("service.httpd.page_p99_ms", "ms"),
    ("service.httpd.healthz_p50_ms", "ms"),
    ("service.httpd.healthz_p99_ms", "ms"),
    ("service.httpd.request_p50_ms", "ms"),
    ("service.httpd.request_p99_ms", "ms"),
    ("service.campaign_ms", "ms"),
    ("service.queue_wait_ms", "ms"),
    ("service.done_lag_ms", "ms"),
    ("service.polls_per_campaign", "count"),
    ("service.accounted_share", "ratio"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
    ("trace.negative_self_spans", "count"),
];

/// How one run is asked to behave.
#[derive(Debug, Clone)]
pub struct Params {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Shrink every input to smoke-test size (the smoke tests' setting).
    pub tiny: bool,
    /// Scratch directory for fixtures and span dumps.
    pub work: PathBuf,
}

impl Params {
    pub fn run_for(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// What a workload measured.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end figures (untraced run) or layer figures (traced run),
    /// by metric name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Record-only figures: sample counts and workload-specific numbers.
    pub detail: BTreeMap<String, f64>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn note(&mut self, name: impl Into<String>, value: f64) {
        self.detail.insert(name.into(), value);
    }
}

pub const WORKLOADS: &[&str] = &["scan", "replay", "serve"];

/// A generated universe of many small l-prefixes (/22–/24). With the
/// default class structures a few /11–/14 prefixes carry most hosts, so
/// the work a campaign does swings widely from seed to seed; with
/// uniformly small prefixes it averages out over the prefix count.
pub fn compact_universe(
    seed: u64,
    l_prefixes: usize,
    host_scale: f64,
) -> tass_model::UniverseConfig {
    let mut cfg = tass_model::UniverseConfig::small(seed);
    cfg.synth.l_prefix_count = l_prefixes;
    for (_, class) in &mut cfg.synth.classes {
        class.l_lengths = vec![(22, 1.0), (23, 2.0), (24, 4.0)];
    }
    cfg.host_scale = host_scale;
    cfg
}

/// Run one workload and return its report, with every metric its mode
/// names present (missing layers filled with 0).
pub fn run(workload: &str, p: &Params) -> Result<Report, String> {
    std::fs::create_dir_all(&p.work).map_err(|e| format!("create {}: {e}", p.work.display()))?;
    let mut report = match workload {
        "scan" => scan::run(p),
        "replay" => replay::run(p),
        "serve" => serve::run(p),
        other => {
            return Err(format!(
                "unknown workload {other:?} (expected one of {})",
                WORKLOADS.join(", ")
            ))
        }
    }?;
    if !p.trace {
        report.set("peak_rss_mib", peak_rss_mib());
        let ok = report.attempted.saturating_sub(report.failed);
        report.set("ok_ops_ratio", ok as f64 / report.attempted.max(1) as f64);
    }
    let names = if p.trace { PER_LAYER } else { END_TO_END };
    for (name, _) in names {
        report.metrics.entry(name).or_insert(0.0);
    }
    Ok(report)
}

/// Reset the process's peak resident set to its current size, so the
/// peak that [`peak_rss_mib`] reports leaves out untimed fixtures.
/// Best effort: a kernel without the knob keeps the peak since start.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `nproc`, `rustc -V` and the kernel release.
fn fingerprint() -> BTreeMap<&'static str, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string());
    BTreeMap::from([
        ("nproc", nproc.to_string()),
        ("rustc", rustc),
        ("kernel", kernel),
    ])
}

fn json_str(s: &str) -> String {
    serde_json::to_string(&s.to_string()).expect("strings serialize")
}

/// A finite f64 in full precision.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// The result line: correctness, op counts and the mode's metrics.
pub fn result_line(report: &Report, trace: bool) -> String {
    let names = if trace { PER_LAYER } else { END_TO_END };
    let metrics: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            format!(
                r#""{name}":{{"value":{},"unit":"{unit}"}}"#,
                json_num(report.metrics[name])
            )
        })
        .collect();
    let correct = report.failed == 0 && report.attempted > 0;
    format!(
        r#"{{"correct":{correct},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
        report.attempted,
        report.failed,
        metrics.join(",")
    )
}

fn record_line(workload: &str, p: &Params, report: &Report) -> String {
    let fp: Vec<String> = fingerprint()
        .iter()
        .map(|(k, v)| format!("{}:{}", json_str(k), json_str(v)))
        .collect();
    let detail: Vec<String> = report
        .detail
        .iter()
        .map(|(k, v)| format!("{}:{}", json_str(k), json_num(*v)))
        .collect();
    format!(
        r#"{{"record":{{"workload":{},"seed":{},"seconds":{},"trace":{},"fingerprint":{{{}}},"detail":{{{}}}}}}}"#,
        json_str(workload),
        p.seed,
        json_num(p.seconds),
        p.trace,
        fp.join(","),
        detail.join(",")
    )
}

fn parse_args() -> Result<(String, Params), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} must be {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    let work = PathBuf::from(".bench_work").join(format!("{workload}-{}", std::process::id()));
    Ok((
        workload,
        Params {
            seed,
            seconds: seconds.unwrap_or(10.0),
            trace: trace.unwrap_or(false),
            tiny: false,
            work,
        },
    ))
}

fn main() -> ExitCode {
    let (workload, params) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("tass-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = run(&workload, &params);
    let _ = std::fs::remove_dir_all(&params.work);
    match outcome {
        Ok(report) => {
            println!("{}", record_line(&workload, &params, &report));
            println!("{}", result_line(&report, params.trace));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("tass-perfbench: {workload}: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn params(workload: &str, trace: bool) -> Params {
        Params {
            seed: 7,
            seconds: 0.3,
            trace,
            tiny: true,
            work: PathBuf::from(".bench_work").join(format!("test-{workload}-{trace}")),
        }
    }

    fn get<'v>(v: &'v Value, key: &str) -> &'v Value {
        serde::value_get(v, key).unwrap_or_else(|_| panic!("missing {key}"))
    }

    fn num(v: &Value) -> f64 {
        match v {
            Value::U64(n) => *n as f64,
            Value::I64(n) => *n as f64,
            Value::F64(x) => *x,
            other => panic!("not a number: {other:?}"),
        }
    }

    /// Each workload at tiny size: the result line names every metric
    /// of its mode with its unit, every op passes its check, and no
    /// span's self time is negative.
    fn smoke(workload: &str) {
        for trace in [false, true] {
            let p = params(workload, trace);
            let report = run(workload, &p).expect("workload runs");
            let _ = std::fs::remove_dir_all(&p.work);
            let line: Value =
                serde_json::from_str(&result_line(&report, trace)).expect("result line is JSON");
            assert!(
                matches!(get(&line, "correct"), Value::Bool(true)),
                "{workload}: {line:?}"
            );
            assert!(num(get(&line, "attempted")) >= 1.0);
            assert_eq!(num(get(&line, "failed")), 0.0);
            let metrics = get(&line, "metrics");
            let names = if trace { PER_LAYER } else { END_TO_END };
            let Value::Map(entries) = metrics else {
                panic!("metrics is an object")
            };
            assert_eq!(entries.len(), names.len());
            for (name, unit) in names {
                let m = get(metrics, name);
                assert!(
                    matches!(get(m, "unit"), Value::Str(u) if u == unit),
                    "{name}"
                );
                assert!(num(get(m, "value")).is_finite(), "{name}");
            }
            if trace {
                assert_eq!(report.metrics["trace.negative_self_spans"], 0.0);
                assert!(report.metrics["trace.spans"] > 0.0, "{workload}: no spans");
            } else {
                assert_eq!(report.metrics["ok_ops_ratio"], 1.0);
                for name in [
                    "setup_s",
                    "campaigns_per_s",
                    "op_p50_ms",
                    "op_p90_ms",
                    "peak_rss_mib",
                ] {
                    assert!(report.metrics[name] > 0.0, "{workload}: {name} is 0");
                }
            }
        }
    }

    #[test]
    fn scan_smoke() {
        smoke("scan");
    }

    #[test]
    fn replay_smoke() {
        smoke("replay");
    }

    #[test]
    fn serve_smoke() {
        smoke("serve");
    }

    #[test]
    fn layer_split_holds_on_scan() {
        let p = params("scan-split", true);
        let report = run("scan", &p).expect("scan runs");
        let _ = std::fs::remove_dir_all(&p.work);
        assert!(
            report.metrics["scan.engine.cycle_share"] >= 0.9,
            "{:?}",
            report.metrics
        );
        assert_eq!(report.metrics["scan.net.malformed"], 0.0);
        assert!(
            report.metrics["model.corpus.loads"] == 0.0,
            "scan reads no corpus"
        );
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let span = |id, parent, start_ns, end_ns| trace::Span {
            id,
            parent,
            op: 0,
            name: "x",
            start_ns,
            end_ns,
            arg: 0,
        };
        // two overlapping children on different threads cover [10, 70):
        // 60 ns, not the 80 ns their durations add up to
        let spans = [
            span(1, None, 0, 100),
            span(2, Some(1), 10, 50),
            span(3, Some(1), 30, 70),
        ];
        let selfs = trace::self_times(&spans);
        assert_eq!(selfs[&1], 40);
        assert_eq!(selfs[&2], 40);
        assert_eq!(selfs[&3], 40);
        // a child that outlives its parent shows as negative self time
        let broken = [span(1, None, 0, 10), span(2, Some(1), 0, 30)];
        assert!(trace::self_times(&broken)[&1] < 0);
    }

    /// BENCHMARK.json names exactly the metrics the command prints.
    #[test]
    fn benchmark_json_matches_the_metric_lists() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let doc: Value = serde_json::from_str(&text).expect("BENCHMARK.json is JSON");
        for (key, list) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let Value::Seq(entries) = get(&doc, key) else {
                panic!("{key} is a list")
            };
            let declared: Vec<(String, String)> = entries
                .iter()
                .map(|e| match (get(e, "name"), get(e, "unit")) {
                    (Value::Str(n), Value::Str(u)) => (n.clone(), u.clone()),
                    other => panic!("bad entry {other:?}"),
                })
                .collect();
            let printed: Vec<(String, String)> = list
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(declared, printed, "{key}");
        }
        let Value::Seq(workloads) = get(&doc, "workloads") else {
            panic!("workloads is a list")
        };
        let names: Vec<&Value> = workloads.iter().map(|w| get(w, "name")).collect();
        assert_eq!(names.len(), WORKLOADS.len());
        for (v, w) in names.iter().zip(WORKLOADS) {
            assert!(matches!(v, Value::Str(s) if s == w));
        }
    }
}

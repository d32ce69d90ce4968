//! The bench harness every bench in `benches/` runs on, and the shared
//! exhibit scenario.
//!
//! Each bench is a plain `fn main()` over four parts:
//!
//! - **timing**: [`time`] runs a closure once to warm up, then `n` timed
//!   times, and returns the nearest-rank median, min and max ([`Stats`]);
//! - **fingerprint**: every record names the machine that measured it
//!   (nproc, `rustc -V`, kernel release);
//! - **records**: one JSON-lines schema, `{bench, case, unit, n, median,
//!   min, max, quick, fingerprint, …bench-specific fields}`, each line
//!   also printed to stdout as it is measured;
//! - **output rule**: [`Bench::finish`] writes `BENCH_<bench>.json` at the
//!   repository root after a full run. A quick run (`BENCH_QUICK` set, as
//!   in CI) takes fewer samples and writes nothing into the repository,
//!   so its assertions are the check and the committed files stay full.
//!
//! A comparison inside a bench is a same-run arm: both arms are measured
//! by one process, never against numbers pinned on another day. A
//! comparison across commits builds the other commit in a scratch
//! directory and alternates the two bench binaries.

pub mod alloc;

use serde::{Serialize, Value};
use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use std::time::Instant;
use tass_experiments::{Scenario, ScenarioConfig};

/// Scale used by the exhibit benches (small enough that a full
/// `cargo bench` stays in minutes, large enough to be meaningful).
pub const BENCH_PREFIXES: usize = 400;

/// The shared bench scenario, built on first use.
pub fn scenario() -> &'static Scenario {
    static SCENARIO: OnceLock<Scenario> = OnceLock::new();
    SCENARIO.get_or_init(|| {
        let cfg = ScenarioConfig {
            seed: 0xBE7C,
            l_prefix_count: BENCH_PREFIXES,
            host_scale: 1.0,
            months: 6,
        };
        Scenario::build(&cfg)
    })
}

/// The nearest-rank `q`-quantile (0 < q ≤ 1) of `samples`.
///
/// # Panics
///
/// If `samples` is empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The summary a record carries: sample count, nearest-rank median, min
/// and max.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stats {
    /// Samples summarised.
    pub n: usize,
    /// Nearest-rank median (the lower middle sample when `n` is even).
    pub median: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
}

impl Stats {
    /// Summarise `samples`.
    ///
    /// # Panics
    ///
    /// If `samples` is empty.
    pub fn of(samples: &[f64]) -> Stats {
        Stats {
            n: samples.len(),
            median: quantile(samples, 0.5),
            min: samples.iter().copied().fold(f64::INFINITY, f64::min),
            max: samples.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }

    /// Apply a monotone conversion to every statistic, e.g. seconds per
    /// run to operations per second. A decreasing `f` swaps min and max
    /// back into order; the median stays the median for odd `n`, which
    /// is what [`Bench::samples`] hands out.
    pub fn map(self, f: impl Fn(f64) -> f64) -> Stats {
        let (a, b) = (f(self.min), f(self.max));
        Stats {
            n: self.n,
            median: f(self.median),
            min: a.min(b),
            max: a.max(b),
        }
    }
}

/// Time `f`: one untimed warm-up call, then `n` timed calls, in seconds
/// per call.
pub fn time<T>(n: usize, mut f: impl FnMut() -> T) -> Stats {
    std::hint::black_box(f());
    let samples: Vec<f64> = (0..n)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_secs_f64()
        })
        .collect();
    Stats::of(&samples)
}

/// The machine a record was measured on: nproc, `rustc -V` and the
/// kernel release.
fn fingerprint() -> Value {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string());
    Value::Map(vec![
        ("nproc".to_string(), nproc.to_value()),
        ("rustc".to_string(), rustc.to_value()),
        ("kernel".to_string(), kernel.to_value()),
    ])
}

/// One bench run: its name, its mode and the records measured so far.
#[derive(Debug)]
pub struct Bench {
    name: &'static str,
    quick: bool,
    fingerprint: Value,
    lines: Vec<String>,
}

impl Bench {
    /// Start the run of bench `name`; the output file is
    /// `BENCH_<name>.json`. Quick mode is on when `BENCH_QUICK` is set.
    pub fn new(name: &'static str) -> Bench {
        Bench::with_mode(name, std::env::var_os("BENCH_QUICK").is_some())
    }

    fn with_mode(name: &'static str, quick: bool) -> Bench {
        Bench {
            name,
            quick,
            fingerprint: fingerprint(),
            lines: Vec::new(),
        }
    }

    /// Whether this is a quick run: smaller inputs and fewer samples,
    /// the same assertions, and no output file.
    pub fn quick(&self) -> bool {
        self.quick
    }

    /// Timed samples per case: odd, so the median is one sample.
    pub fn samples(&self) -> usize {
        if self.quick {
            3
        } else {
            15
        }
    }

    /// Record one case and print its line to stdout. `extra` adds the
    /// bench-specific fields after the schema keys.
    pub fn record(
        &mut self,
        case: &str,
        unit: &str,
        stats: Stats,
        extra: &[(&str, &dyn Serialize)],
    ) {
        let mut fields = vec![
            ("bench".to_string(), self.name.to_value()),
            ("case".to_string(), case.to_value()),
            ("unit".to_string(), unit.to_value()),
            ("n".to_string(), stats.n.to_value()),
            ("median".to_string(), stats.median.to_value()),
            ("min".to_string(), stats.min.to_value()),
            ("max".to_string(), stats.max.to_value()),
            ("quick".to_string(), self.quick.to_value()),
            ("fingerprint".to_string(), self.fingerprint.clone()),
        ];
        fields.extend(extra.iter().map(|(k, v)| (k.to_string(), v.to_value())));
        let line = serde_json::to_string(&Value::Map(fields)).expect("records serialize");
        println!("{line}");
        self.lines.push(line);
    }

    /// Time `f`, which handles `elements` elements per call, and record
    /// it in nanoseconds per element.
    pub fn ns_per_element<T>(&mut self, case: &str, elements: u64, f: impl FnMut() -> T) {
        let stats = time(self.samples(), f).map(|secs| secs * 1e9 / elements as f64);
        self.record(case, "ns/elem", stats, &[("elements", &elements)]);
    }

    /// End the run: write the records to `BENCH_<bench>.json` at the
    /// repository root, unless this is a quick run.
    pub fn finish(self) {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let name = self.name;
        match self.finish_in(&root) {
            Some(path) => eprintln!("{name}: records → {}", path.display()),
            None => eprintln!("{name}: quick run, BENCH_{name}.json left untouched"),
        }
    }

    /// The output rule, against directory `dir`: the written file on a
    /// full run, `None` on a quick one.
    fn finish_in(self, dir: &Path) -> Option<PathBuf> {
        if self.quick {
            return None;
        }
        let path = dir.join(format!("BENCH_{}.json", self.name));
        let mut text = self.lines.join("\n");
        text.push('\n');
        std::fs::write(&path, text).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        Some(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_builds_once() {
        let a = scenario();
        let b = scenario();
        assert!(std::ptr::eq(a, b));
        assert_eq!(a.config.l_prefix_count, BENCH_PREFIXES);
    }

    #[test]
    fn stats_are_nearest_rank() {
        let one = Stats::of(&[4.0]);
        assert_eq!(
            one,
            Stats {
                n: 1,
                median: 4.0,
                min: 4.0,
                max: 4.0
            }
        );
        // odd n: the middle sample, whatever the input order
        let odd = Stats::of(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!((odd.n, odd.median, odd.min, odd.max), (5, 3.0, 1.0, 5.0));
        // even n: nearest rank ⌈n/2⌉ is the lower middle sample
        let even = Stats::of(&[8.0, 2.0, 6.0, 4.0]);
        assert_eq!(
            (even.n, even.median, even.min, even.max),
            (4, 4.0, 2.0, 8.0)
        );
        assert_eq!(quantile(&[8.0, 2.0, 6.0, 4.0], 0.99), 8.0);
        // a decreasing map keeps min ≤ median ≤ max
        let rate = odd.map(|s| 60.0 / s);
        assert_eq!((rate.median, rate.min, rate.max), (20.0, 12.0, 60.0));
    }

    #[test]
    fn time_takes_n_samples_after_one_warm_up() {
        let mut calls = 0;
        let stats = time(3, || calls += 1);
        assert_eq!((calls, stats.n), (4, 3));
        assert!(stats.min <= stats.median && stats.median <= stats.max);
    }

    #[test]
    fn a_record_line_is_json_with_every_schema_key() {
        let mut bench = Bench::with_mode("unit", true);
        bench.record(
            "case-a",
            "ms",
            Stats::of(&[1.0, 2.0, 3.0]),
            &[("threads", &4usize), ("path", &"wire".to_string())],
        );
        let v: Value = serde_json::from_str(&bench.lines[0]).expect("a record line parses");
        let Value::Map(fields) = &v else {
            panic!("a record is an object: {v:?}")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "bench",
                "case",
                "unit",
                "n",
                "median",
                "min",
                "max",
                "quick",
                "fingerprint",
                "threads",
                "path"
            ]
        );
        let get = |k| serde::value_get(&v, k).expect("key present").clone();
        assert_eq!(get("median"), Value::F64(2.0));
        assert_eq!(get("quick"), Value::Bool(true));
        for key in ["nproc", "rustc", "kernel"] {
            serde::value_get(&get("fingerprint"), key).expect("fingerprint key");
        }
    }

    #[test]
    fn a_quick_run_writes_no_file_and_a_full_run_does() {
        let dir = std::env::temp_dir().join(format!("tass-bench-output-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("BENCH_unit.json");
        for quick in [true, false] {
            let mut bench = Bench::with_mode("unit", quick);
            bench.record("c", "s", Stats::of(&[1.0]), &[]);
            let written = bench.finish_in(&dir);
            assert_eq!(written.is_some(), !quick);
            assert_eq!(file.exists(), !quick);
        }
        let text = std::fs::read_to_string(&file).unwrap();
        assert_eq!(text.lines().count(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

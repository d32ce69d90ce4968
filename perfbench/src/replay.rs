//! `replay`: campaigns replayed over an archived corpus on disk.
//!
//! A generated universe (4 protocols, 7 months) is exported to a v2
//! corpus directory as an untimed fixture. A serial `CampaignPool` then
//! runs `run_matrix` of tass, reseeding-tass and adaptive-tass over every
//! protocol, again and again. Serial, because on a 2-vCPU machine a
//! second pool worker competes with neighbours for the other core and the
//! matrix time follows their load more than the program's. The corpus month
//! cache is capped below the working set, so months are read and decoded
//! cold over and over. The engine does nothing here: corpus decode, the
//! month cache and the density/plan cycle loop do all the work, over
//! *mapped* `HostSet`s (scan's are owned).
//!
//! One op is one matrix. Every matrix must equal the same matrix run on
//! the in-memory universe (replay == direct); that oracle is computed
//! before anything is timed.

use crate::calib::Calibrator;
use crate::stats::{mean, median, ms, quantile};
use crate::trace::{self, TracedSource, TracedStrategy, Tracer};
use crate::{Params, Report};
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;
use tass_core::{parse_spec, run_campaign_strategy, CampaignPool, CampaignResult, StrategyKind};
use tass_model::corpus::DEFAULT_CACHE_SNAPSHOTS;
use tass_model::registry::SharedSource;
use tass_model::{export_universe, CorpusGroundTruth, CorpusOptions, GroundTruth, Universe};

const STRATEGIES: [&str; 3] = [
    "tass:more:0.95",
    "reseeding-tass:more:0.95:3",
    "adaptive-tass:more:0.95:0.02",
];
const SETUP_REPS: usize = 5;
const L_PREFIXES: usize = 4000;
const HOST_SCALE: f64 = 150.0;
/// The month cache holds this share of the corpus's snapshot bytes.
const CACHE_SHARE: f64 = 1.0 / 7.0;

fn snapshot_bytes(dir: &Path) -> Result<u64, String> {
    let entries = std::fs::read_dir(dir.join("snapshots")).map_err(|e| e.to_string())?;
    let mut total = 0;
    for entry in entries {
        total += entry
            .and_then(|e| e.metadata())
            .map_err(|e| e.to_string())?
            .len();
    }
    Ok(total)
}

fn open(dir: &Path, cache_bytes: usize) -> Result<CorpusGroundTruth, String> {
    let opts = CorpusOptions {
        cache_snapshots: DEFAULT_CACHE_SNAPSHOTS,
        cache_bytes: Some(cache_bytes),
    };
    let corpus = CorpusGroundTruth::open_with(dir, &opts).map_err(|e| e.to_string())?;
    corpus.validate().map_err(|e| e.to_string())?;
    Ok(corpus)
}

/// The matrix as the serial pool runs it (protocol-major), with every
/// campaign driven through the timing adapters.
fn traced_matrix(
    source: &TracedSource,
    kinds: &[StrategyKind],
    seed: u64,
    tracer: &Arc<Tracer>,
) -> Vec<CampaignResult> {
    source
        .protocols()
        .into_iter()
        .flat_map(|proto| kinds.iter().map(move |&kind| (kind, proto)))
        .map(|(kind, proto)| {
            let strategy = TracedStrategy {
                inner: kind.strategy(),
                tracer: Arc::clone(tracer),
            };
            tracer.span("core.campaign", || {
                run_campaign_strategy(source, &strategy, proto, seed)
            })
        })
        .collect()
}

pub fn run(p: &Params) -> Result<Report, String> {
    // untimed fixture: the corpus on disk and the in-memory oracle
    let universe = Universe::generate(&crate::compact_universe(
        p.seed,
        if p.tiny { 150 } else { L_PREFIXES },
        HOST_SCALE,
    ));
    let dir = p.work.join("corpus");
    export_universe(&universe, &dir).map_err(|e| e.to_string())?;
    let kinds = STRATEGIES
        .iter()
        .map(|s| parse_spec(s).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    let oracle = CampaignPool::serial().run_matrix(&universe, &kinds, p.seed);
    drop(universe);
    let corpus_bytes = snapshot_bytes(&dir)?;
    let cache_bytes = (corpus_bytes as f64 * CACHE_SHARE) as usize;
    crate::reset_peak_rss();

    let mut cal = Calibrator::new(1);
    let mut setup_s = Vec::new();
    let mut corpus = None;
    for _ in 0..SETUP_REPS {
        drop(corpus.take());
        let scale = cal.next_scale();
        let start = Instant::now();
        corpus = Some(open(&dir, cache_bytes)?);
        setup_s.push(start.elapsed().as_secs_f64() * scale);
    }
    let corpus = Arc::new(corpus.expect("opened at least once"));
    let tracer = Arc::new(Tracer::default());
    let traced_source = TracedSource::new(Arc::clone(&corpus) as SharedSource, Arc::clone(&tracer));
    let pool = CampaignPool::serial();

    // warm-up: one matrix, checked like the rest
    let mut report = Report::default();
    let warm = pool.run_matrix(&*corpus, &kinds, p.seed);
    if warm != oracle {
        return Err("replayed matrix differs from the in-memory run".into());
    }
    // calibrated matrix times (see `calib`), and the raw ones
    let (mut plain_ms, mut traced_ms, mut raw_ms) = (Vec::new(), Vec::new(), Vec::new());
    let deadline = Instant::now() + p.run_for();
    let mut i = 0u64;
    while Instant::now() < deadline {
        let scale = cal.next_scale();
        let start = Instant::now();
        let results = if p.trace && i % 2 == 1 {
            let r = tracer.op("replay.matrix", i, || {
                traced_matrix(&traced_source, &kinds, p.seed, &tracer)
            });
            traced_ms.push(ms(start.elapsed()) * scale);
            r
        } else {
            let r = pool.run_matrix(&*corpus, &kinds, p.seed);
            raw_ms.push(ms(start.elapsed()));
            plain_ms.push(raw_ms[raw_ms.len() - 1] * scale);
            r
        };
        report.attempted += 1;
        if results != oracle {
            report.failed += 1;
        }
        i += 1;
    }

    let campaigns = oracle.len() as f64;
    report.note("setup_reps", SETUP_REPS as f64);
    report.note("matrices", plain_ms.len() as f64);
    report.note("campaigns_per_matrix", campaigns);
    report.note("corpus_snapshot_bytes", corpus_bytes as f64);
    report.note("cache_bytes", cache_bytes as f64);
    report.note("units", corpus.topology().m_view.units().len() as f64);
    report.note("raw_op_p50_ms", median(&raw_ms));
    report.note("raw_op_p90_ms", quantile(&raw_ms, 0.9));
    report.note("kernel_p50_ms", median(cal.samples()));

    if !p.trace {
        report.set("setup_s", median(&setup_s));
        report.set("campaigns_per_s", campaigns * 1e3 / median(&plain_ms));
        report.set("op_p50_ms", median(&plain_ms));
        report.set("op_p90_ms", quantile(&plain_ms, 0.9));
        return Ok(report);
    }

    let spans = tracer.spans();
    let selfs = trace::self_times(&spans);
    let traced_matrices = traced_ms.len().max(1) as f64;
    let c = &traced_source.counters;
    let loads = c.loads.load(Ordering::Relaxed) as f64;
    report.set(
        "core.campaign.self_ms",
        trace::self_ms_p50(&spans, &selfs, "core.campaign"),
    );
    report.set(
        "core.campaign.matrix_share",
        trace::total_ns(&spans, "core.campaign") as f64
            / trace::total_ns(&spans, "replay.matrix").max(1) as f64,
    );
    for (metric, span) in [
        ("core.strategy.prepare_ms", "core.strategy.prepare"),
        ("core.strategy.plan_ms", "core.strategy.plan"),
        ("core.strategy.observe_ms", "core.strategy.observe"),
        ("model.corpus.load_ms", "model.load_snapshot"),
    ] {
        report.set(metric, trace::self_ms_p50(&spans, &selfs, span));
    }
    report.set("model.corpus.loads", loads / traced_matrices);
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
        (median(&traced_ms) / median(&plain_ms) - 1.0) * 100.0,
    );
    report.note("traced_matrices", traced_ms.len() as f64);
    report.note("traced_matrix_mean_ms", mean(&traced_ms));
    trace::finish(&mut report, p, "replay", &spans, &selfs);
    Ok(report)
}

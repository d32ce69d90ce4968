//! The §4 simulation: seed at t₀, then drive the strategy lifecycle
//! monthly.
//!
//! "We simulated TASS and an address-based hitlist approach using monthly
//! snapshots of full IPv4 scans … Then we determined the fraction of hosts
//! that TASS and the hitlist approach would have uncovered in each scan
//! cycle compared to a periodic full scan." — this module is that
//! simulation, generalised over every [`Strategy`]: each month the
//! prepared strategy [`plans`](crate::strategy::PreparedStrategy::plan)
//! its probes, the plan is evaluated against that month's ground truth,
//! and the [`CycleOutcome`] is fed back through
//! [`observe`](crate::strategy::PreparedStrategy::observe) so
//! feedback-driven strategies (re-seeding, adaptive) can react. The last
//! month is planned and evaluated but not observed: no plan follows it.
//!
//! One loop drives every campaign, and it drives them in *units*: one or
//! more campaigns on the same protocol, run in lockstep. The unit loads
//! t₀ once and prepares every campaign from it through one
//! [`UnitSeed`], so lanes on the same view share its t₀ counting sweep
//! and lanes on the same view and φ share its rank and selection too.
//! Then the unit loads each month **once** and runs
//! `plan → evaluate → observe` for each campaign in turn. A serial
//! matrix of `k` strategies over a disk corpus therefore reads and
//! decodes each month once per protocol, not `k` times, whatever the
//! corpus's month cache holds. The single-campaign drivers
//! ([`run_campaign_strategy`], the service's
//! [`run_campaign_checkpointed`]) are units of one.
//!
//! Campaigns are independent and deterministic per seed, so the matrix
//! shards for free: [`run_matrix`] fans its campaigns out over a
//! [`CampaignPool`] of `std::thread` workers (sized by the
//! `CAMPAIGN_WORKERS` environment variable, default: all cores) and
//! gathers results in input order — byte-identical to the serial path,
//! and to one campaign at a time, at any worker count. Only a serial
//! pool groups campaigns into multi-campaign units; a pool of several
//! workers claims one campaign at a time so uneven campaigns balance.
//!
//! Nothing here reads the synthetic `Universe` concretely: every driver
//! is generic over a [`GroundTruth`] source, so a corpus of real monthly
//! scan snapshots ([`tass_model::corpus::CorpusGroundTruth`]) replays
//! through the identical loop — `Universe`/`V6Universe` are simply the
//! in-memory implementations, with unchanged behaviour (the pinned
//! digest in `tests/matrix_parallel.rs` proves byte-identity).

use crate::metrics::MonthEval;
use crate::plan::CycleOutcome;
use crate::strategy::{FamilySpace, Strategy, StrategyKind, UnitSeed};
use serde::{Deserialize, Serialize, Value};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use tass_model::corpus::CorpusError;
use tass_model::{GroundTruth, Protocol};

/// The stable job-level identity of a campaign: the strategy spec string
/// (see [`StrategyKind::spec`]), the protocol, and the seed — everything
/// needed to reproduce the run against the same source. Carried by
/// service results so a `CampaignResult` JSON document is self-describing
/// outside matrix order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignJob {
    /// Compact strategy spec ([`StrategyKind::spec`] form, parseable by
    /// [`crate::spec::parse_spec`]).
    pub spec: String,
    /// The protocol scanned.
    pub protocol: Protocol,
    /// The campaign seed.
    pub seed: u64,
}

impl CampaignJob {
    /// The job identity of one `(kind, protocol, seed)` campaign.
    pub fn new(kind: StrategyKind, protocol: Protocol, seed: u64) -> CampaignJob {
        CampaignJob {
            spec: kind.spec(),
            protocol,
            seed,
        }
    }
}

/// The monthly series of one strategy over one protocol.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignResult {
    /// Strategy label (see [`Strategy::label`]).
    pub strategy: String,
    /// The protocol scanned.
    pub protocol: Protocol,
    /// Addresses probed in the t₀ cycle. For static strategies every
    /// cycle probes this much; feedback strategies may vary per cycle
    /// (see [`CampaignResult::avg_probes_per_cycle`] and the per-month
    /// [`crate::strategy::Eval::probes`]).
    pub probes_per_cycle: u64,
    /// Fraction of announced space probed in the t₀ cycle.
    pub probe_space_fraction: f64,
    /// Monthly evaluations, month 0 first.
    pub months: Vec<MonthEval>,
    /// Job identity, when the producer stamped one (the service and the
    /// checkpointed driver do; the batch matrix drivers leave it `None`
    /// because their results are identified positionally and their
    /// serialized bytes are pinned by equivalence digests).
    pub job: Option<CampaignJob>,
}

// Hand-written serde (the only such pair in the workspace): `job` must be
// *omitted* when `None`, not rendered as `null`, so every pre-existing
// serialized campaign result — including the pinned FNV digest in
// `tests/matrix_parallel.rs` — keeps its exact bytes. The field order of
// the former derive is preserved, with `job` appended last.
impl Serialize for CampaignResult {
    fn to_value(&self) -> Value {
        let mut fields = vec![
            ("strategy".to_string(), self.strategy.to_value()),
            ("protocol".to_string(), self.protocol.to_value()),
            (
                "probes_per_cycle".to_string(),
                self.probes_per_cycle.to_value(),
            ),
            (
                "probe_space_fraction".to_string(),
                self.probe_space_fraction.to_value(),
            ),
            ("months".to_string(), self.months.to_value()),
        ];
        if let Some(job) = &self.job {
            fields.push(("job".to_string(), job.to_value()));
        }
        Value::Map(fields)
    }
}

impl Deserialize for CampaignResult {
    fn from_value(v: &Value) -> Result<CampaignResult, serde::DeError> {
        Ok(CampaignResult {
            strategy: Deserialize::from_value(serde::value_get(v, "strategy")?)?,
            protocol: Deserialize::from_value(serde::value_get(v, "protocol")?)?,
            probes_per_cycle: Deserialize::from_value(serde::value_get(v, "probes_per_cycle")?)?,
            probe_space_fraction: Deserialize::from_value(serde::value_get(
                v,
                "probe_space_fraction",
            )?)?,
            months: Deserialize::from_value(serde::value_get(v, "months")?)?,
            job: match serde::value_get(v, "job") {
                Ok(j) => Deserialize::from_value(j)?,
                Err(_) => None,
            },
        })
    }
}

impl CampaignResult {
    /// This result with the given job identity stamped in (builder
    /// style). The identity is appended to the serialized JSON; results
    /// without one serialize exactly as before.
    pub fn with_job(mut self, job: CampaignJob) -> CampaignResult {
        self.job = Some(job);
        self
    }
    /// Hitrate at a given month; `0.0` for months the campaign never ran
    /// (empty campaigns, or a month beyond the horizon).
    pub fn hitrate(&self, month: u32) -> f64 {
        self.months
            .get(month as usize)
            .map_or(0.0, |m| m.eval.hitrate)
    }

    /// The final month's hitrate.
    pub fn final_hitrate(&self) -> f64 {
        self.months.last().map(|m| m.eval.hitrate).unwrap_or(0.0)
    }

    /// Mean addresses probed per cycle across the whole campaign —
    /// the honest probe cost of strategies whose plans vary by cycle.
    pub fn avg_probes_per_cycle(&self) -> f64 {
        if self.months.is_empty() {
            return 0.0;
        }
        self.months
            .iter()
            .map(|m| m.eval.probes as f64)
            .sum::<f64>()
            / self.months.len() as f64
    }
}

/// What the per-cycle control hook tells the resumable driver to do
/// before it runs the next month.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CampaignStep {
    /// Run the month.
    Continue,
    /// Stop at this month boundary and hand back a checkpoint.
    Suspend,
}

/// A campaign frozen at a month boundary: the registry kind, protocol
/// and seed that *define* the campaign, plus the evaluations of every
/// completed month. [`run_campaign_checkpointed`] resumes from this —
/// deterministically, so an interrupted-then-resumed campaign finishes
/// byte-identical to an uninterrupted run (strategy state is rebuilt by
/// replaying the completed cycles' plans and outcomes; the stored
/// evaluations are never recomputed).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignCheckpoint {
    /// The strategy registry kind.
    pub kind: StrategyKind,
    /// The protocol scanned.
    pub protocol: Protocol,
    /// The campaign seed.
    pub seed: u64,
    /// Evaluations of the completed months (`0..months.len()`).
    pub months: Vec<MonthEval>,
}

impl CampaignCheckpoint {
    /// A fresh checkpoint: nothing run yet.
    pub fn new(kind: StrategyKind, protocol: Protocol, seed: u64) -> CampaignCheckpoint {
        CampaignCheckpoint {
            kind,
            protocol,
            seed,
            months: Vec::new(),
        }
    }

    /// Completed cycles (month indices `0..months_done()` are done).
    pub fn months_done(&self) -> u32 {
        self.months.len() as u32
    }

    /// The job identity this checkpoint defines.
    pub fn job(&self) -> CampaignJob {
        CampaignJob::new(self.kind, self.protocol, self.seed)
    }
}

/// The outcome of a resumable campaign run: finished, suspended at a
/// month boundary with the checkpoint to resume from, or failed on a
/// month the source could not load.
#[derive(Debug)]
pub enum CampaignRun {
    /// The campaign covered every month of the source.
    Done(CampaignResult),
    /// The control hook suspended the campaign; resume by passing the
    /// checkpoint back to [`run_campaign_checkpointed`].
    Suspended(CampaignCheckpoint),
    /// Month `month` could not be loaded. The checkpoint holds every
    /// month completed before the failure.
    Failed {
        /// The completed months.
        checkpoint: CampaignCheckpoint,
        /// The month that failed to load.
        month: u32,
        /// Why it failed.
        error: CorpusError,
    },
}

/// One campaign of a lockstep unit: the strategy and seed that define
/// it, and the evaluations of every month it has completed.
struct Lane<'s, F: FamilySpace> {
    strategy: &'s dyn Strategy<F>,
    seed: u64,
    months: Vec<MonthEval>,
}

/// The one campaign loop every public driver funnels into. It runs a
/// *unit* — one or more campaigns on the same protocol — in lockstep:
/// t₀ is loaded once and every lane is prepared from it with
/// [`Strategy::prepare_in`] on one [`UnitSeed`], so each view's t₀
/// counts and each (view, φ) selection are computed once per unit; that
/// same t₀ doubles as month 0's truth and is released before month 1;
/// then each month is loaded **once** and `plan → evaluate → observe`
/// runs for each lane in unit order. The memo holds only pure functions
/// of (view, t₀, φ) and lanes share no other state, so a unit's results
/// are byte-identical to running its campaigns one by one; only the
/// number of month loads (one per month, not one per lane) and of t₀
/// sweeps and selections drops.
///
/// The last month runs `plan → evaluate` only. No plan follows it and
/// the prepared strategies are dropped here, so its feedback would be
/// read by nothing: the driver builds no observed view and calls no
/// `observe` for it, live or replayed. Its
/// [`evaluate`](crate::plan::ProbePlan::evaluate) equals the
/// [`evaluate_observed`](crate::plan::ProbePlan::evaluate_observed) a
/// feedback cycle uses, because prefix plans are disjoint.
///
/// On entry every lane holds the evaluations of the same months already
/// completed by an earlier (interrupted) run: the driver rebuilds each
/// strategy's state by replaying those cycles' plans and outcomes —
/// skipping the expensive `evaluate` step, whose numbers are already
/// stored — and appends each further month as it completes. `control` is
/// consulted at each remaining month boundary; the return value is
/// `Ok(false)` when it suspended the unit and `Ok(true)` when every month
/// of the source ran. Both paths are byte-identical to an uninterrupted
/// serial run (campaigns are deterministic per seed). A month that
/// cannot be loaded stops the unit with `Err((month, error))`: every
/// lane keeps the months completed before it, and `control` is not
/// called again.
fn drive_unit<F, G>(
    source: &G,
    protocol: Protocol,
    lanes: &mut [Lane<'_, F>],
    control: &mut dyn FnMut(u32, &[Lane<'_, F>]) -> CampaignStep,
) -> Result<bool, (u32, CorpusError)>
where
    F: FamilySpace,
    G: GroundTruth<F> + ?Sized,
{
    let done = lanes.first().map_or(0, |lane| lane.months.len());
    debug_assert!(lanes.iter().all(|lane| lane.months.len() == done));
    let space = source.topology();
    let announced = F::announced_space(space);
    let load = |m| source.load_snapshot(m, protocol).map_err(|e| (m, e));
    let mut t0 = Some(load(0)?);
    let mut memo = UnitSeed::default();
    let mut prepared: Vec<_> = lanes
        .iter()
        .map(|lane| {
            let t0 = t0.as_deref().expect("t₀ is loaded above");
            lane.strategy.prepare_in(space, t0, lane.seed, &mut memo)
        })
        .collect();
    drop(memo); // its counts are t₀'s, read by no month after it
    let last = source.months();
    for m in 0..=last {
        let replay = (m as usize) < done;
        if !replay && control(m, lanes) == CampaignStep::Suspend {
            return Ok(false);
        }
        // month 0's truth is the t₀ already loaded (taking it here drops
        // it before month 1); later months load on first use, once for
        // the whole unit
        let mut truth = t0.take();
        for (lane, prepared) in lanes.iter_mut().zip(&mut prepared) {
            // plan() runs for every cycle, replayed ones included: it
            // advances per-cycle state such as rotating exploration
            // windows
            let plan = prepared.plan(m);
            // no plan follows the last month, so nothing could read its
            // feedback: it is evaluated as a static cycle
            let feedback = m < last && prepared.wants_feedback();
            // fast-forward: the observe edge only matters to feedback
            // strategies, and the stored evaluations are trusted rather
            // than recomputed
            if replay && !feedback {
                continue;
            }
            let truth = match &mut truth {
                Some(truth) => truth,
                empty => empty.insert(load(m)?),
            };
            if replay {
                let outcome = CycleOutcome {
                    cycle: m,
                    probes: lane.months[m as usize].eval.probes,
                    responsive: plan.observed(truth, m, announced),
                };
                prepared.observe(m, &outcome);
                continue;
            }
            // Static strategies discard the responsive set, so only the
            // analytic evaluation runs. Feedback strategies need the
            // observed view anyway — and its length *is* the responsive
            // count for exact plans, so the view doubles as the
            // evaluation and the cycle pays one counting sweep, not two.
            let eval = if feedback {
                let responsive = plan.observed(truth, m, announced);
                let eval = plan.evaluate_observed(truth, &responsive, m, announced);
                let outcome = CycleOutcome {
                    cycle: m,
                    probes: eval.probes,
                    responsive,
                };
                prepared.observe(m, &outcome);
                eval
            } else {
                plan.evaluate(truth, m, announced)
            };
            lane.months.push(MonthEval { month: m, eval });
        }
    }
    Ok(true)
}

/// Drive a unit through every month, panicking as
/// [`GroundTruth::snapshot`] does when a month cannot be loaded: the
/// batch drivers' contract.
fn drive_to_end<F, G>(source: &G, protocol: Protocol, lanes: &mut [Lane<'_, F>])
where
    F: FamilySpace,
    G: GroundTruth<F> + ?Sized,
{
    drive_unit(source, protocol, lanes, &mut |_, _| CampaignStep::Continue)
        .unwrap_or_else(|(m, e)| panic!("ground truth snapshot (month {m}, {protocol}): {e}"));
}

/// The result envelope a completed month series determines. Every
/// driver funnels its finished months through this one constructor, so
/// any two producers handed the same source, strategy, protocol and
/// month series serialize to the same bytes.
fn assemble_result<F, G>(
    source: &G,
    strategy: &dyn Strategy<F>,
    protocol: Protocol,
    months: Vec<MonthEval>,
) -> CampaignResult
where
    F: FamilySpace,
    G: GroundTruth<F> + ?Sized,
{
    let announced = F::wide_to_u128(F::announced_space(source.topology()));
    CampaignResult {
        strategy: strategy.label(),
        protocol,
        probes_per_cycle: months[0].eval.probes,
        probe_space_fraction: if announced > 0 {
            months[0].eval.probes as f64 / announced as f64
        } else {
            0.0
        },
        months,
        job: None,
    }
}

/// The [`CampaignResult`] a campaign's *completed* months already
/// determine — the envelope of an in-flight campaign, as if the months
/// done so far were its whole horizon. `None` until the t₀ cycle has
/// completed (the envelope's probe-cost fields are defined by month 0).
///
/// Because this goes through the same constructor as the finished
/// result, its serialized prefix (everything before the `months` array
/// elements) and suffix (everything after them) are **byte-identical**
/// to the final result's — which is what lets the service stream a
/// running campaign's result incrementally and still deliver exactly
/// the bytes the driver stores at completion. Like the drivers, it
/// leaves `job` unset; a producer that stamps one on the final result
/// stamps it here too.
pub fn partial_result<F, G>(
    source: &G,
    strategy: &dyn Strategy<F>,
    protocol: Protocol,
    months: Vec<MonthEval>,
) -> Option<CampaignResult>
where
    F: FamilySpace,
    G: GroundTruth<F> + ?Sized,
{
    (!months.is_empty()).then(|| assemble_result(source, strategy, protocol, months))
}

/// Run (or resume) a registry campaign with a per-month control hook —
/// the resident service's driver.
///
/// `control` is called before each month runs with the month index and
/// the evaluations of every month completed so far; it is the progress
/// callback (the service publishes completed months to streaming result
/// fetches from this edge) and the suspension point. Returning
/// [`CampaignStep::Suspend`] stops the campaign at that month boundary
/// and hands back a [`CampaignCheckpoint`] holding everything completed
/// so far; passing that checkpoint back in resumes exactly where it
/// stopped. Because campaigns are deterministic per seed, the final
/// [`CampaignResult`] of any suspend/resume schedule is **byte-identical**
/// to the uninterrupted [`run_campaign`] over the same source — the done
/// result carries the checkpoint's [`CampaignJob`] identity stamped in
/// (the one addition over the batch drivers, which identify results
/// positionally).
///
/// Unlike the batch drivers, which panic, a month the source cannot
/// load ends the run as [`CampaignRun::Failed`] with the months
/// completed before it; `control` is not called again.
pub fn run_campaign_checkpointed<G>(
    source: &G,
    checkpoint: CampaignCheckpoint,
    control: &mut dyn FnMut(u32, &[MonthEval]) -> CampaignStep,
) -> CampaignRun
where
    G: GroundTruth + ?Sized,
{
    let CampaignCheckpoint {
        kind,
        protocol,
        seed,
        months,
    } = checkpoint;
    let mut lane = [Lane {
        strategy: &kind,
        seed,
        months,
    }];
    let driven = drive_unit(source, protocol, &mut lane, &mut |m, lanes| {
        control(m, &lanes[0].months)
    });
    let [Lane { months, .. }] = lane;
    let checkpoint = CampaignCheckpoint {
        kind,
        protocol,
        seed,
        months,
    };
    match driven {
        Ok(true) => {
            let job = checkpoint.job();
            CampaignRun::Done(
                assemble_result(source, &kind, protocol, checkpoint.months).with_job(job),
            )
        }
        Ok(false) => CampaignRun::Suspended(checkpoint),
        Err((month, error)) => CampaignRun::Failed {
            checkpoint,
            month,
            error,
        },
    }
}

/// Run one strategy's full lifecycle over all months of a ground-truth
/// source for one protocol: prepare at t₀, then
/// `plan → evaluate → observe` each month.
///
/// `source` is any [`GroundTruth`] of either address family — the
/// synthetic `Universe` or `V6Universe`, a
/// [`tass_model::corpus::CorpusGroundTruth`] replaying archived
/// snapshots from disk, or a user-defined feed. v4 strategies seed from
/// the BGP topology, v6 strategies from the announced v6 space; hitrates
/// are relative to the month's ground truth and probe costs are absolute
/// address counts, so results of both families compare directly.
///
/// Panics, as [`GroundTruth::snapshot`] does, when a month cannot be
/// loaded; [`run_campaign_checkpointed`] reports that as a failed run.
pub fn run_campaign_strategy<F, G>(
    source: &G,
    strategy: &dyn Strategy<F>,
    protocol: Protocol,
    seed: u64,
) -> CampaignResult
where
    F: FamilySpace,
    G: GroundTruth<F> + ?Sized,
{
    let mut lane = [Lane {
        strategy,
        seed,
        months: Vec::new(),
    }];
    drive_to_end(source, protocol, &mut lane);
    let [Lane { months, .. }] = lane;
    assemble_result(source, strategy, protocol, months)
}

/// Run one registry strategy over all months of a source for one
/// protocol (convenience wrapper over [`run_campaign_strategy`]).
pub fn run_campaign<G>(
    source: &G,
    kind: StrategyKind,
    protocol: Protocol,
    seed: u64,
) -> CampaignResult
where
    G: GroundTruth + ?Sized,
{
    run_campaign_strategy(source, &kind, protocol, seed)
}

/// The lockstep units a pool of `workers` runs `jobs` as, each a list of
/// ascending job indices on one protocol.
///
/// A serial pool groups its jobs by protocol, in order of first
/// appearance (no sort), so each month is loaded once per protocol: with
/// one worker there is no balance to lose. A pool of several workers
/// keeps every job a unit of its own and claims one campaign at a time,
/// because the pool cannot see what a campaign costs: any coarser unit
/// lets the heaviest protocol's campaigns pile up on one worker (on a
/// 2-vCPU VM the in-memory `campaign_matrix` bench's 4-worker matrix ran
/// ~6 % slower as 4 units of 4 than as 16 units of 1).
fn units(jobs: &[(StrategyKind, Protocol)], workers: usize) -> Vec<Vec<usize>> {
    if workers > 1 {
        return (0..jobs.len()).map(|i| vec![i]).collect();
    }
    let mut groups: Vec<(Protocol, Vec<usize>)> = Vec::new();
    for (i, &(_, protocol)) in jobs.iter().enumerate() {
        match groups.iter_mut().find(|(p, _)| *p == protocol) {
            Some((_, group)) => group.push(i),
            None => groups.push((protocol, vec![i])),
        }
    }
    groups.into_iter().map(|(_, group)| group).collect()
}

/// A pool of campaign workers for sharding independent campaigns over
/// threads.
///
/// Every campaign in a matrix is independent (its own strategy state,
/// its own RNG seeded from the campaign seed) and deterministic, so
/// neither grouping campaigns into lockstep units nor distributing the
/// units over threads can change any result — only the number of month
/// loads and the wall clock. The pool gathers results **in input
/// order**, so [`CampaignPool::run_matrix`] at any worker count is
/// byte-identical to the serial loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CampaignPool {
    workers: usize,
}

impl CampaignPool {
    /// A pool with the given number of worker threads (minimum 1).
    pub fn new(workers: usize) -> CampaignPool {
        CampaignPool {
            workers: workers.max(1),
        }
    }

    /// The serial pool: one worker, no threads spawned.
    pub fn serial() -> CampaignPool {
        CampaignPool::new(1)
    }

    /// Size the pool from the environment: the `CAMPAIGN_WORKERS`
    /// variable when set to a positive integer, otherwise all available
    /// cores. This is what the free [`run_matrix`] uses, so CI can pin
    /// the whole test suite to a worker count.
    ///
    /// A set-but-malformed value (`CAMPAIGN_WORKERS=abc`, `=0`, `=-3`)
    /// falls back to all cores **with a one-line stderr warning** naming
    /// the rejected value — a misconfigured deployment should be visible,
    /// not silently running at a different parallelism than intended.
    pub fn from_env() -> CampaignPool {
        let all_cores = || std::thread::available_parallelism().map_or(1, |n| n.get());
        let workers = match std::env::var("CAMPAIGN_WORKERS") {
            Ok(v) => match v.trim().parse::<usize>() {
                Ok(w) if w > 0 => w,
                _ => {
                    eprintln!(
                        "tass-core: ignoring CAMPAIGN_WORKERS={v:?} \
                         (expected a positive integer); using all cores"
                    );
                    all_cores()
                }
            },
            Err(std::env::VarError::NotPresent) => all_cores(),
            Err(std::env::VarError::NotUnicode(v)) => {
                eprintln!(
                    "tass-core: ignoring CAMPAIGN_WORKERS={v:?} \
                     (not valid unicode); using all cores"
                );
                all_cores()
            }
        };
        CampaignPool::new(workers)
    }

    /// Worker threads this pool runs.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Run an explicit list of campaigns, one per `(strategy, protocol)`
    /// job, returning results in job order. `source` is any
    /// [`GroundTruth`] (sources are `Sync`, so one corpus or universe is
    /// shared by every worker).
    ///
    /// Jobs run in lockstep *units*. A serial pool makes one unit of each
    /// protocol's jobs, in order of the protocol's first appearance, and
    /// loads each month once per unit rather than once per campaign. A
    /// pool of several workers makes each job a unit of its own, claimed
    /// dynamically (an atomic cursor, not round-robin) so uneven
    /// campaigns — a full scan next to a hitlist — balance across
    /// workers; its campaigns share months only through the source's
    /// own cache. Either way results are scattered back into job order.
    pub fn run_campaigns<G>(
        &self,
        source: &G,
        jobs: &[(StrategyKind, Protocol)],
        seed: u64,
    ) -> Vec<CampaignResult>
    where
        G: GroundTruth + ?Sized,
    {
        let units = units(jobs, self.workers);
        let workers = self.workers.min(units.len());
        let cursor = AtomicUsize::new(0);
        // claim units from one shared cursor until none remain; spawned
        // workers and the calling thread all run this same loop
        let claim = |out: &mut dyn FnMut(usize, CampaignResult)| loop {
            let u = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(unit) = units.get(u) else {
                break;
            };
            let protocol = jobs[unit[0]].1;
            let mut lanes: Vec<_> = unit
                .iter()
                .map(|&i| Lane {
                    strategy: &jobs[i].0,
                    seed,
                    months: Vec::new(),
                })
                .collect();
            drive_to_end(source, protocol, &mut lanes);
            for (&i, lane) in unit.iter().zip(lanes) {
                out(
                    i,
                    assemble_result(source, lane.strategy, protocol, lane.months),
                );
            }
        };
        let mut slots: Vec<Option<CampaignResult>> = vec![None; jobs.len()];
        let (tx, rx) = mpsc::channel::<(usize, CampaignResult)>();
        std::thread::scope(|scope| {
            // the calling thread is the last worker, so a pool of w
            // workers costs w−1 thread spawns, not w, and the caller's
            // core is never idle while units remain (one worker spawns
            // nothing at all)
            for _ in 1..workers {
                let tx = tx.clone();
                scope.spawn(move || {
                    claim(&mut |i, result| {
                        tx.send((i, result))
                            .expect("the receiver outlives the workers")
                    })
                });
            }
            drop(tx);
            claim(&mut |i, result| slots[i] = Some(result));
        });
        for (i, result) in rx {
            slots[i] = Some(result);
        }
        slots
            .into_iter()
            .map(|s| s.expect("every job ran exactly once"))
            .collect()
    }

    /// Run several strategies over every protocol the source holds, on
    /// this pool; results are ordered protocol-major, matching the
    /// serial loop (for a `Universe` that is all four paper protocols;
    /// a corpus may carry fewer).
    pub fn run_matrix<G>(
        &self,
        source: &G,
        kinds: &[StrategyKind],
        seed: u64,
    ) -> Vec<CampaignResult>
    where
        G: GroundTruth + ?Sized,
    {
        let jobs: Vec<(StrategyKind, Protocol)> = source
            .protocols()
            .into_iter()
            .flat_map(|proto| kinds.iter().map(move |&kind| (kind, proto)))
            .collect();
        self.run_campaigns(source, &jobs, seed)
    }
}

impl Default for CampaignPool {
    fn default() -> CampaignPool {
        CampaignPool::from_env()
    }
}

/// Run several strategies over every protocol of a [`GroundTruth`]
/// source, sharded over a [`CampaignPool::from_env`] worker pool
/// (`CAMPAIGN_WORKERS` workers when set, all cores otherwise). Results
/// are byte-identical to the serial loop at any worker count, in
/// protocol-major input order.
pub fn run_matrix<G>(source: &G, kinds: &[StrategyKind], seed: u64) -> Vec<CampaignResult>
where
    G: GroundTruth + ?Sized,
{
    CampaignPool::from_env().run_matrix(source, kinds, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{Eval, ProbePlan};
    use crate::strategy::{PreparedStrategy, ReseedingTass, V6BlockTass, V6FreshSample, V6Hitlist};
    use std::cell::RefCell;
    use std::rc::Rc;
    use std::sync::Arc;
    use tass_bgp::ViewKind;
    use tass_model::{Snapshot, Topology, Universe, UniverseConfig, V6Universe, V6UniverseConfig};
    use tass_net::V6;

    fn universe() -> Universe {
        Universe::generate(&UniverseConfig::small(31))
    }

    #[test]
    fn campaign_covers_all_months() {
        let u = universe();
        let r = run_campaign(
            &u,
            StrategyKind::Tass {
                view: ViewKind::LessSpecific,
                phi: 1.0,
            },
            Protocol::Http,
            1,
        );
        assert_eq!(r.months.len(), 7);
        assert_eq!(r.months[0].month, 0);
        assert_eq!(r.months[6].month, 6);
        assert_eq!(r.hitrate(0), 1.0);
        assert!(r.final_hitrate() > 0.8);
    }

    #[test]
    fn paper_ordering_holds_in_campaign() {
        // full scan ≥ TASS(l, φ=1) ≥ TASS(m, φ=1) in accuracy;
        // probes: full > TASS(l) > TASS(m)
        let u = universe();
        let full = run_campaign(&u, StrategyKind::FullScan, Protocol::Http, 1);
        let l = run_campaign(
            &u,
            StrategyKind::Tass {
                view: ViewKind::LessSpecific,
                phi: 1.0,
            },
            Protocol::Http,
            1,
        );
        let m = run_campaign(
            &u,
            StrategyKind::Tass {
                view: ViewKind::MoreSpecific,
                phi: 1.0,
            },
            Protocol::Http,
            1,
        );
        assert!(full.probes_per_cycle > l.probes_per_cycle);
        assert!(l.probes_per_cycle > m.probes_per_cycle);
        for month in 0..=6u32 {
            assert!(full.hitrate(month) >= l.hitrate(month) - 1e-12);
            assert!(
                l.hitrate(month) >= m.hitrate(month) - 0.02,
                "month {month}: l {} should be ≥ m {} (±noise)",
                l.hitrate(month),
                m.hitrate(month)
            );
        }
    }

    #[test]
    fn matrix_runs_all_protocols() {
        let u = universe();
        let kinds = [StrategyKind::FullScan, StrategyKind::IpHitlist];
        let rs = run_matrix(&u, &kinds, 1);
        assert_eq!(rs.len(), 8);
        // every protocol appears twice
        for proto in Protocol::ALL {
            assert_eq!(rs.iter().filter(|r| r.protocol == proto).count(), 2);
        }
    }

    #[test]
    fn cwmp_hitlist_decays_fastest() {
        // Figure 5's signature: CWMP hitlist decays much faster than HTTP's.
        let u = universe();
        let http = run_campaign(&u, StrategyKind::IpHitlist, Protocol::Http, 1);
        let cwmp = run_campaign(&u, StrategyKind::IpHitlist, Protocol::Cwmp, 1);
        assert!(
            cwmp.final_hitrate() < http.final_hitrate() - 0.1,
            "CWMP {} vs HTTP {}",
            cwmp.final_hitrate(),
            http.final_hitrate()
        );
    }

    #[test]
    fn empty_campaign_metrics_are_zero_not_panic() {
        let empty = CampaignResult {
            strategy: "empty".into(),
            protocol: Protocol::Http,
            probes_per_cycle: 0,
            probe_space_fraction: 0.0,
            months: Vec::new(),
            job: None,
        };
        assert_eq!(empty.hitrate(0), 0.0);
        assert_eq!(empty.hitrate(6), 0.0);
        assert_eq!(empty.final_hitrate(), 0.0);
        assert_eq!(empty.avg_probes_per_cycle(), 0.0);
    }

    #[test]
    fn hitrate_beyond_horizon_is_zero() {
        let u = universe();
        let r = run_campaign(&u, StrategyKind::FullScan, Protocol::Http, 1);
        assert_eq!(r.hitrate(6), 1.0);
        assert_eq!(r.hitrate(7), 0.0, "month past the horizon");
        assert_eq!(r.hitrate(u32::MAX), 0.0);
    }

    #[test]
    fn pool_sizes_clamp_and_parse() {
        assert_eq!(CampaignPool::new(0).workers(), 1);
        assert_eq!(CampaignPool::new(8).workers(), 8);
        assert_eq!(CampaignPool::serial().workers(), 1);
        assert!(CampaignPool::from_env().workers() >= 1);
    }

    #[test]
    fn pooled_matrix_matches_serial_in_order_and_bytes() {
        let u = universe();
        let kinds = [
            StrategyKind::FullScan,
            StrategyKind::IpHitlist,
            StrategyKind::RandomSample { fraction: 0.02 },
        ];
        let serial = CampaignPool::serial().run_matrix(&u, &kinds, 9);
        for workers in [2usize, 5, 32] {
            let pooled = CampaignPool::new(workers).run_matrix(&u, &kinds, 9);
            assert_eq!(serial, pooled, "{workers} workers");
        }
    }

    #[test]
    fn units_group_protocols_serially_and_keep_pooled_jobs_single() {
        use Protocol::*;
        let k = StrategyKind::IpHitlist;
        let matrix: Vec<_> = Protocol::ALL
            .iter()
            .flat_map(|&p| [k, StrategyKind::FullScan, k].map(|kind| (kind, p)))
            .collect();
        let lists: Vec<Vec<(StrategyKind, Protocol)>> = vec![
            Vec::new(),
            vec![(k, Http)],
            // fig5 / fig6: one campaign per protocol
            Protocol::ALL.iter().map(|&p| (k, p)).collect(),
            // corpus_scale: one protocol, many strategies
            vec![(k, Http); 4],
            // pareto / adaptive: protocol-major blocks
            [Http, Cwmp]
                .iter()
                .flat_map(|&p| std::iter::repeat_n((k, p), 7))
                .collect(),
            // interleaved protocols
            vec![(k, Cwmp), (k, Http), (k, Cwmp), (k, Ftp), (k, Http)],
            matrix.clone(),
        ];
        for jobs in &lists {
            // serial: one unit per protocol, in order of each protocol's
            // first job, job order kept within a protocol
            let mut order: Vec<Protocol> = Vec::new();
            for &(_, p) in jobs {
                if !order.contains(&p) {
                    order.push(p);
                }
            }
            let expected: Vec<Vec<usize>> = order
                .iter()
                .map(|&p| (0..jobs.len()).filter(|&i| jobs[i].1 == p).collect())
                .collect();
            assert_eq!(units(jobs, 1), expected, "{jobs:?}");
            // pooled: one campaign per unit, so claiming balances exactly
            // as per-job claiming does
            let single: Vec<Vec<usize>> = (0..jobs.len()).map(|i| vec![i]).collect();
            for workers in 2..=8 {
                assert_eq!(units(jobs, workers), single, "{workers} workers");
            }
        }
        // the shapes the pool docs promise
        assert_eq!(units(&matrix, 1).len(), 4, "serial 12-job matrix");
        assert_eq!(units(&lists[3], 4).len(), 4, "4 cells on 4 workers");
        assert_eq!(
            units(&lists[5], 1),
            vec![vec![0, 2], vec![1, 4], vec![3]],
            "grouped by first appearance, not sorted"
        );
    }

    #[test]
    fn run_campaigns_preserves_job_order() {
        let u = universe();
        let jobs = [
            (StrategyKind::IpHitlist, Protocol::Cwmp),
            (StrategyKind::FullScan, Protocol::Http),
            (StrategyKind::IpHitlist, Protocol::Http),
        ];
        let rs = CampaignPool::new(3).run_campaigns(&u, &jobs, 2);
        assert_eq!(rs.len(), 3);
        assert_eq!(rs[0].protocol, Protocol::Cwmp);
        assert_eq!(rs[1].strategy, "full-scan");
        assert_eq!(rs[2].protocol, Protocol::Http);
        assert_eq!(rs[2].strategy, "ip-hitlist");
    }

    #[test]
    fn deterministic_campaigns() {
        let u = universe();
        let a = run_campaign(&u, StrategyKind::IpHitlist, Protocol::Ftp, 5);
        let b = run_campaign(&u, StrategyKind::IpHitlist, Protocol::Ftp, 5);
        for (x, y) in a.months.iter().zip(&b.months) {
            assert_eq!(x.eval.found, y.eval.found);
        }
    }

    #[test]
    fn reseeding_campaign_recovers_at_reseed_cycles() {
        let u = universe();
        let r = run_campaign(
            &u,
            StrategyKind::ReseedingTass {
                view: ViewKind::MoreSpecific,
                phi: 0.95,
                delta_t: 3,
            },
            Protocol::Http,
            1,
        );
        // re-seed cycles are full scans: perfect hitrate, full probe cost
        let announced = u.topology().announced_space();
        for m in [3u32, 6] {
            assert_eq!(r.hitrate(m), 1.0, "month {m} is a re-seed full scan");
            assert_eq!(r.months[m as usize].eval.probes, announced);
        }
        // in-between cycles probe far less
        assert!(r.months[1].eval.probes < announced / 2);
        // and the average cost stays below a monthly full scan
        assert!(r.avg_probes_per_cycle() < announced as f64 * 0.75);
    }

    #[test]
    fn checkpointed_run_without_suspension_equals_run_campaign() {
        let u = universe();
        let kind = StrategyKind::ReseedingTass {
            view: ViewKind::MoreSpecific,
            phi: 0.95,
            delta_t: 3,
        };
        let direct = run_campaign(&u, kind, Protocol::Http, 7);
        let CampaignRun::Done(full) = run_campaign_checkpointed(
            &u,
            CampaignCheckpoint::new(kind, Protocol::Http, 7),
            &mut |_, _| CampaignStep::Continue,
        ) else {
            panic!("never suspended, must be Done");
        };
        // identical numbers, plus the job identity stamped in
        assert_eq!(full.months, direct.months);
        assert_eq!(full.probes_per_cycle, direct.probes_per_cycle);
        assert_eq!(
            full.job,
            Some(CampaignJob::new(kind, Protocol::Http, 7)),
            "checkpointed driver stamps the job identity"
        );
        assert_eq!(
            full.job.as_ref().unwrap().spec,
            "reseeding-tass:more:0.95:3"
        );
    }

    #[test]
    fn suspend_resume_at_every_month_is_byte_identical() {
        // suspend at every possible month boundary, resume, and require
        // the final serialized result to match the uninterrupted run bit
        // for bit — for a static, a reseeding, and an adaptive strategy
        let u = universe();
        let kinds = [
            StrategyKind::IpHitlist,
            StrategyKind::RandomSample { fraction: 0.05 },
            StrategyKind::ReseedingTass {
                view: ViewKind::MoreSpecific,
                phi: 0.95,
                delta_t: 3,
            },
            StrategyKind::AdaptiveTass {
                view: ViewKind::MoreSpecific,
                phi: 0.95,
                explore: 0.1,
            },
        ];
        for kind in kinds {
            let job = CampaignJob::new(kind, Protocol::Cwmp, 11);
            let oracle = run_campaign(&u, kind, Protocol::Cwmp, 11).with_job(job);
            let oracle_bytes = serde_json::to_string(&oracle).unwrap();
            for stop_at in 0..=u.months() {
                let mut fired = false;
                let run = run_campaign_checkpointed(
                    &u,
                    CampaignCheckpoint::new(kind, Protocol::Cwmp, 11),
                    &mut |m, _| {
                        if m == stop_at && !fired {
                            fired = true;
                            CampaignStep::Suspend
                        } else {
                            CampaignStep::Continue
                        }
                    },
                );
                let CampaignRun::Suspended(ckpt) = run else {
                    panic!("{kind:?}: must suspend at month {stop_at}");
                };
                assert_eq!(ckpt.months_done(), stop_at);
                // a checkpoint survives serialization (that is how the
                // daemon persists it across restarts)
                let ckpt: CampaignCheckpoint =
                    serde_json::from_str(&serde_json::to_string(&ckpt).unwrap()).unwrap();
                let CampaignRun::Done(resumed) =
                    run_campaign_checkpointed(&u, ckpt, &mut |_, _| CampaignStep::Continue)
                else {
                    panic!("{kind:?}: resume must finish");
                };
                assert_eq!(
                    serde_json::to_string(&resumed).unwrap(),
                    oracle_bytes,
                    "{kind:?} suspended at {stop_at}: resume must be byte-identical"
                );
            }
        }
    }

    /// A source whose month `fail_at` cannot be loaded.
    struct FailsAt<'u> {
        inner: &'u Universe,
        fail_at: u32,
    }

    impl GroundTruth for FailsAt<'_> {
        fn topology(&self) -> &Topology {
            self.inner.topology()
        }

        fn months(&self) -> u32 {
            self.inner.months()
        }

        fn protocols(&self) -> Vec<Protocol> {
            GroundTruth::protocols(self.inner)
        }

        fn load_snapshot(
            &self,
            month: u32,
            protocol: Protocol,
        ) -> Result<Arc<Snapshot>, CorpusError> {
            if month == self.fail_at {
                return Err(CorpusError::MissingMonth { month, protocol });
            }
            self.inner.load_snapshot(month, protocol)
        }
    }

    #[test]
    fn a_month_that_cannot_load_fails_the_checkpointed_run() {
        let u = universe();
        for kind in [
            StrategyKind::IpHitlist,
            StrategyKind::AdaptiveTass {
                view: ViewKind::MoreSpecific,
                phi: 0.95,
                explore: 0.1,
            },
        ] {
            let oracle = run_campaign(&u, kind, Protocol::Http, 3);
            for fail_at in 0..=u.months() {
                let source = FailsAt { inner: &u, fail_at };
                let mut calls = Vec::new();
                let run = run_campaign_checkpointed(
                    &source,
                    CampaignCheckpoint::new(kind, Protocol::Http, 3),
                    &mut |m, done| {
                        calls.push((m, done.len()));
                        CampaignStep::Continue
                    },
                );
                let CampaignRun::Failed {
                    checkpoint,
                    month,
                    error,
                } = run
                else {
                    panic!("{kind:?}: month {fail_at} must fail the run, got {run:?}");
                };
                assert_eq!(month, fail_at, "{kind:?}");
                assert!(
                    matches!(error, CorpusError::MissingMonth { month, .. } if month == fail_at),
                    "{kind:?}: {error}"
                );
                assert_eq!(checkpoint.job(), CampaignJob::new(kind, Protocol::Http, 3));
                assert_eq!(
                    checkpoint.months,
                    oracle.months[..fail_at as usize],
                    "{kind:?}: the months before {fail_at}"
                );
                // control saw every boundary up to the failing month (t₀
                // loads before the first) and none after it
                let seen = if fail_at == 0 { 0 } else { fail_at + 1 };
                let want: Vec<(u32, usize)> = (0..seen).map(|m| (m, m as usize)).collect();
                assert_eq!(calls, want, "{kind:?}: failing at {fail_at}");
            }
        }
    }

    #[test]
    fn job_field_is_omitted_from_json_unless_stamped() {
        let u = universe();
        let r = run_campaign(&u, StrategyKind::IpHitlist, Protocol::Http, 1);
        let bytes = serde_json::to_string(&r).unwrap();
        assert!(
            !bytes.contains("\"job\""),
            "batch results must serialize without a job field: {bytes}"
        );
        // roundtrip both shapes
        let back: CampaignResult = serde_json::from_str(&bytes).unwrap();
        assert_eq!(back, r);
        let stamped = r.with_job(CampaignJob::new(StrategyKind::IpHitlist, Protocol::Http, 1));
        let bytes = serde_json::to_string(&stamped).unwrap();
        assert!(bytes.contains("\"job\"") && bytes.contains("\"ip-hitlist\""));
        let back: CampaignResult = serde_json::from_str(&bytes).unwrap();
        assert_eq!(back, stamped);
    }

    #[test]
    fn reseeding_never_equals_static_tass_exactly() {
        let u = universe();
        for proto in Protocol::ALL {
            let stat = run_campaign(
                &u,
                StrategyKind::Tass {
                    view: ViewKind::LessSpecific,
                    phi: 1.0,
                },
                proto,
                1,
            );
            let never = run_campaign(
                &u,
                StrategyKind::ReseedingTass {
                    view: ViewKind::LessSpecific,
                    phi: 1.0,
                    delta_t: ReseedingTass::NEVER,
                },
                proto,
                1,
            );
            assert_eq!(
                stat.months, never.months,
                "{proto}: Δt=∞ must equal static TASS"
            );
            assert_eq!(stat.probes_per_cycle, never.probes_per_cycle);
        }
    }

    /// A registry strategy that records the cycles it is asked to
    /// observe.
    #[derive(Debug)]
    struct Counting {
        kind: StrategyKind,
        observed: Rc<RefCell<Vec<u32>>>,
    }

    #[derive(Debug)]
    struct CountingPrepared {
        inner: Box<dyn PreparedStrategy>,
        observed: Rc<RefCell<Vec<u32>>>,
    }

    impl Strategy for Counting {
        fn label(&self) -> String {
            self.kind.label()
        }

        fn prepare(&self, topo: &Topology, t0: &Snapshot, seed: u64) -> Box<dyn PreparedStrategy> {
            Box::new(CountingPrepared {
                inner: self.kind.prepare(topo, t0, seed),
                observed: Rc::clone(&self.observed),
            })
        }
    }

    impl PreparedStrategy for CountingPrepared {
        fn plan(&mut self, cycle: u32) -> ProbePlan {
            self.inner.plan(cycle)
        }

        fn observe(&mut self, cycle: u32, outcome: &CycleOutcome) {
            self.observed.borrow_mut().push(cycle);
            self.inner.observe(cycle, outcome);
        }

        fn wants_feedback(&self) -> bool {
            self.inner.wants_feedback()
        }
    }

    #[test]
    fn the_driver_observes_every_month_but_the_last_live_and_resumed() {
        let u = universe();
        let observed_months: Vec<u32> = (0..u.months()).collect();
        for kind in [
            StrategyKind::ReseedingTass {
                view: ViewKind::MoreSpecific,
                phi: 0.95,
                delta_t: 3,
            },
            StrategyKind::AdaptiveTass {
                view: ViewKind::MoreSpecific,
                phi: 0.95,
                explore: 0.1,
            },
        ] {
            let counting = Counting {
                kind,
                observed: Rc::default(),
            };
            let oracle = run_campaign(&u, kind, Protocol::Http, 5);
            let live = run_campaign_strategy(&u, &counting, Protocol::Http, 5);
            assert_eq!(live, oracle, "{kind:?}: the wrapper changes nothing");
            assert_eq!(
                *counting.observed.borrow(),
                observed_months,
                "{kind:?} live"
            );
            // resumed with 0 up to every month already done
            for done in 0..=oracle.months.len() {
                counting.observed.borrow_mut().clear();
                let mut lane = [Lane {
                    strategy: &counting,
                    seed: 5,
                    months: oracle.months[..done].to_vec(),
                }];
                drive_to_end(&u, Protocol::Http, &mut lane);
                assert_eq!(lane[0].months, oracle.months, "{kind:?} resumed at {done}");
                assert_eq!(
                    *counting.observed.borrow(),
                    observed_months,
                    "{kind:?} resumed at {done}"
                );
            }
        }
    }

    /// The last month's evaluation as a feedback cycle computes it: every
    /// earlier cycle observed, then `evaluate_observed` over the last
    /// plan's observed view.
    fn observed_last_eval<F, G>(
        source: &G,
        strategy: &dyn Strategy<F>,
        protocol: Protocol,
        seed: u64,
    ) -> Eval
    where
        F: FamilySpace,
        G: GroundTruth<F>,
    {
        let announced = F::announced_space(source.topology());
        let mut prepared = strategy.prepare(source.topology(), &source.snapshot(0, protocol), seed);
        let mut m = 0;
        loop {
            let truth = source.snapshot(m, protocol);
            let plan = prepared.plan(m);
            let responsive = plan.observed(&truth, m, announced);
            let eval = plan.evaluate_observed(&truth, &responsive, m, announced);
            if m == source.months() {
                return eval;
            }
            let outcome = CycleOutcome {
                cycle: m,
                probes: eval.probes,
                responsive,
            };
            prepared.observe(m, &outcome);
            m += 1;
        }
    }

    #[test]
    fn the_unobserved_last_month_evaluates_as_a_feedback_cycle() {
        let u = universe();
        let (l, more) = (ViewKind::LessSpecific, ViewKind::MoreSpecific);
        let kinds = [
            StrategyKind::FullScan,
            StrategyKind::Tass { view: l, phi: 1.0 },
            StrategyKind::Tass {
                view: more,
                phi: 0.95,
            },
            StrategyKind::IpHitlist,
            StrategyKind::RandomSample { fraction: 0.05 },
            StrategyKind::Block24Sample { fraction: 0.1 },
            StrategyKind::RandomPrefix {
                view: more,
                space_fraction: 0.1,
            },
            StrategyKind::ReseedingTass {
                view: more,
                phi: 0.95,
                delta_t: 3,
            },
            StrategyKind::ReseedingTass {
                view: l,
                phi: 0.9,
                delta_t: 4,
            },
            StrategyKind::AdaptiveTass {
                view: more,
                phi: 0.95,
                explore: 0.1,
            },
            StrategyKind::AdaptiveTass {
                view: l,
                phi: 0.9,
                explore: 0.02,
            },
        ];
        for kind in kinds {
            for proto in [Protocol::Http, Protocol::Cwmp] {
                let r = run_campaign(&u, kind, proto, 9);
                let got = r.months.last().expect("months ran").eval;
                assert_eq!(
                    got,
                    observed_last_eval(&u, &kind, proto, 9),
                    "{kind:?} {proto}"
                );
            }
        }
        let v6 = V6Universe::generate(&V6UniverseConfig::small(0x1077));
        let v6_strategies: [&dyn Strategy<V6>; 3] = [
            &V6Hitlist,
            &V6BlockTass {
                phi: 0.95,
                block_len: 116,
            },
            &V6FreshSample { per_cycle: 1 << 20 },
        ];
        for strategy in v6_strategies {
            let r = run_campaign_strategy(&v6, strategy, Protocol::Http, 9);
            let got = r.months.last().expect("months ran").eval;
            assert_eq!(
                got,
                observed_last_eval(&v6, strategy, Protocol::Http, 9),
                "{strategy:?}"
            );
        }
    }
}

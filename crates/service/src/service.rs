//! The resident campaign service: tenant queues, fair dispatch, quotas,
//! and checkpointed shutdown.
//!
//! [`Tassd`] owns a pool of worker threads (sized by
//! [`tass_core::CampaignPool`], so `CAMPAIGN_WORKERS` governs the daemon
//! exactly as it governs batch matrices) and a table of campaign jobs
//! keyed by tenant. Submissions join their tenant's FIFO queue; workers
//! claim across tenants **round-robin**, so one tenant flooding its
//! queue cannot starve another — each tenant is additionally capped by a
//! token-bucket submission rate ([`tass_scan::rate::TokenBucket`] fed
//! wall-clock time) and a pending-jobs quota.
//!
//! A job's state changes only by a `JobEvent` applied to the job table
//! (`JobTable::apply`): `Queued` when a job is submitted or resumed from
//! a checkpoint file, `Started` when a worker claims it, `Progress` at
//! each month boundary, `Suspended` at a checkpoint shutdown and
//! `Finished` when it is done or failed. The same step keeps the
//! queued/running/done/failed counters that `GET /v1/healthz` reads, so
//! a health check never walks the jobs.
//!
//! The daemon's lifecycle lives in the same table: `stopping` is `None`
//! while serving, and [`Tassd::shutdown`] sets it under the table lock.
//! It is read only in critical sections that exist anyway: the one in
//! which `submit` applies `Queued`, `stats()`, a worker's claim, and a
//! month boundary's `Progress`. So no job is accepted after the workers
//! have gone. Idle workers block on the table's condvar with no timeout;
//! queuing a job, finishing one (which frees a run slot) and shutdown
//! each notify it.
//!
//! Campaigns run through [`run_campaign_checkpointed`], which is what
//! makes shutdown graceful in both senses:
//!
//! * **drain** — stop accepting, finish every queued job, exit;
//! * **checkpoint** — stop accepting, suspend running campaigns at the
//!   next month boundary, and persist every unfinished job (strategy
//!   kind + seed + completed months) as one JSON file per job. A daemon
//!   restarted over the same checkpoint directory queues those jobs
//!   again under their original ids and produces **byte-identical**
//!   results to an uninterrupted run — campaigns are deterministic per
//!   seed, and the resume path replays completed cycles instead of
//!   recomputing them.
//!
//! A job that finishes, done or failed, removes its file, so no restart
//! runs it again.

use crate::httpd::StreamChunk;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};
use tass_core::{
    partial_result, run_campaign_checkpointed, CampaignCheckpoint, CampaignPool, CampaignRun,
    CampaignStep, MonthEval, StrategyKind,
};
use tass_model::corpus::CorpusError;
use tass_model::registry::{SharedSource, SourceRegistry};
use tass_model::snapshot::Snapshot;
use tass_model::source::GroundTruth;
use tass_model::topology::Topology;
use tass_model::Protocol;
use tass_scan::rate::TokenBucket;

/// Per-tenant limits, enforced at submission time.
#[derive(Debug, Clone)]
pub struct TenantQuota {
    /// Ceiling on jobs queued or running at once (submission gets `429`
    /// beyond it).
    pub max_pending: usize,
    /// Ceiling on a tenant's concurrently *running* jobs — the
    /// dispatcher skips the tenant while at the cap, leaving workers to
    /// other tenants.
    pub max_concurrent: usize,
    /// Sustained submissions per second (`0.0` disables rate limiting).
    pub submits_per_sec: f64,
    /// Burst size of the submission token bucket.
    pub submit_burst: f64,
}

impl Default for TenantQuota {
    fn default() -> TenantQuota {
        TenantQuota {
            max_pending: 64,
            max_concurrent: 4,
            submits_per_sec: 0.0,
            submit_burst: 8.0,
        }
    }
}

impl TenantQuota {
    fn bucket(&self) -> TokenBucket {
        if self.submits_per_sec > 0.0 {
            TokenBucket::new(self.submits_per_sec, self.submit_burst.max(1.0))
        } else {
            TokenBucket::unlimited()
        }
    }
}

/// Daemon configuration.
#[derive(Debug, Clone, Default)]
pub struct ServiceConfig {
    /// Campaign worker threads; `0` defers to
    /// [`CampaignPool::from_env`] (the `CAMPAIGN_WORKERS` contract).
    pub workers: usize,
    /// Limits applied to every tenant.
    pub quota: TenantQuota,
    /// Where checkpointed-shutdown job files live; `None` disables
    /// persistence (drain is then the only graceful mode).
    pub checkpoint_dir: Option<PathBuf>,
    /// Artificial pause before each campaign month — zero in production,
    /// nonzero in tests and demos that need to observe running campaigns
    /// or interrupt them mid-flight.
    pub month_delay: Duration,
}

/// A validated campaign submission.
#[derive(Debug, Clone)]
pub struct SubmitRequest {
    /// Registry name of the ground-truth source.
    pub source: String,
    /// The strategy to run.
    pub kind: StrategyKind,
    /// Protocol to scan; `None` picks the source's first.
    pub protocol: Option<Protocol>,
    /// Campaign seed.
    pub seed: u64,
    /// Optional horizon cap: run only months `0..=months` of the source.
    pub months: Option<u32>,
}

/// Why a submission was refused.
#[derive(Debug, Clone, PartialEq)]
pub enum SubmitError {
    /// The daemon is shutting down.
    NotAccepting,
    /// No source under that name.
    UnknownSource(String),
    /// The requested protocol is not offered by the source.
    BadProtocol {
        /// The requested protocol.
        protocol: Protocol,
        /// What the source offers.
        offered: Vec<Protocol>,
    },
    /// The requested month horizon exceeds the source.
    BadMonths {
        /// The requested horizon.
        requested: u32,
        /// The source's horizon.
        max: u32,
    },
    /// The tenant's submission token bucket is empty.
    RateLimited,
    /// The tenant already has `max_pending` jobs queued or running.
    QuotaExceeded {
        /// Jobs currently pending for the tenant.
        pending: usize,
        /// The configured ceiling.
        max: usize,
    },
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::NotAccepting => write!(f, "service is shutting down"),
            SubmitError::UnknownSource(name) => write!(f, "no source named {name:?}"),
            SubmitError::BadProtocol { protocol, offered } => {
                let offered: Vec<&str> = offered.iter().map(|p| p.tag()).collect();
                write!(
                    f,
                    "source does not offer {}; offered: {}",
                    protocol.tag(),
                    offered.join(", ")
                )
            }
            SubmitError::BadMonths { requested, max } => {
                write!(f, "months {requested} exceeds the source horizon {max}")
            }
            SubmitError::RateLimited => write!(f, "submission rate limit exceeded; retry later"),
            SubmitError::QuotaExceeded { pending, max } => {
                write!(f, "tenant has {pending} pending jobs (quota {max})")
            }
        }
    }
}

impl std::error::Error for SubmitError {}

/// Why a result fetch failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResultError {
    /// No such job for this tenant.
    NotFound,
    /// The job exists but has no result yet (or failed).
    NotDone {
        /// Current status tag (`queued` / `running` / `failed`).
        status: String,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JobStatus {
    Queued,
    Running,
    Done,
    Failed,
}

impl JobStatus {
    fn tag(self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Done => "done",
            JobStatus::Failed => "failed",
        }
    }
}

/// The tenant-visible view of one job — what `GET /v1/campaigns/{id}`
/// serializes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobView {
    /// Job id (unique across tenants, stable across daemon restarts).
    pub id: u64,
    /// `queued` / `running` / `done` / `failed`.
    pub status: String,
    /// Source registry name.
    pub source: String,
    /// Compact strategy spec (the job identity string).
    pub strategy: String,
    /// Protocol tag.
    pub protocol: String,
    /// Campaign seed.
    pub seed: u64,
    /// Campaign cycles completed so far (a finished campaign has
    /// `months_total + 1`: the t₀ cycle plus one per following month).
    pub months_done: u32,
    /// Month horizon the campaign covers.
    pub months_total: u32,
    /// Global completion sequence number, assigned when the job
    /// finishes — the fairness audit trail.
    pub completion_index: Option<u64>,
}

/// What a job is admitted from, submitted or resumed, and the
/// checkpointed-shutdown file format.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct JobFile {
    id: u64,
    tenant: String,
    source: String,
    months_total: u32,
    checkpoint: CampaignCheckpoint,
}

struct Job {
    /// The job's identity and the checkpoint a claim runs from and a
    /// checkpoint shutdown persists.
    file: JobFile,
    status: JobStatus,
    /// The result as published so far: the envelope plus one element
    /// per completed month. Every results endpoint — full body, page,
    /// stream — cuts its bytes from these parts; `None` until the first
    /// month completes.
    result: Option<ResultParts>,
    completion_index: Option<u64>,
}

impl Job {
    /// Campaign cycles completed: those published, or before the first
    /// publication those checkpointed.
    fn months_done(&self) -> u32 {
        let checkpointed = self.file.checkpoint.months.len();
        self.result
            .as_ref()
            .map_or(checkpointed, |parts| parts.months.len()) as u32
    }
}

/// A job's `CampaignResult` JSON, split where the results endpoints cut
/// it. `head + months.join(",") + tail` is exactly
/// `serde_json::to_string` of the result covering those months.
struct ResultParts {
    /// Envelope bytes through the months array's `[`.
    head: String,
    /// Serialized month elements, in month order.
    months: Vec<String>,
    /// The months array's `]` through the end of the envelope.
    tail: String,
}

impl ResultParts {
    /// The result with its `months` array sliced to
    /// `[offset, offset + limit)`; `(0, None)` is the whole result.
    fn page(&self, offset: usize, limit: Option<usize>) -> String {
        let start = offset.min(self.months.len());
        let end = limit.map_or(self.months.len(), |l| {
            offset.saturating_add(l).min(self.months.len())
        });
        let page = &self.months[start..end];
        let len = page.iter().map(|element| element.len() + 1).sum::<usize>();
        let mut out = String::with_capacity(self.head.len() + len + self.tail.len());
        out.push_str(&self.head);
        for (i, element) in page.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(element);
        }
        out.push_str(&self.tail);
        out
    }
}

/// One change to the job table. [`JobTable::apply`] is the only code
/// that writes a job's status, checkpoint, result or completion index,
/// a tenant's queue or running count, or the job counters.
enum JobEvent {
    /// A submitted or resumed job joins the back of its tenant's queue.
    Queued(JobFile),
    /// A worker claimed the job.
    Started { id: u64 },
    /// A month boundary: the result elements rendered since the last
    /// `Progress`; the first `Progress` with months also carries the
    /// result's envelope, as parts with no months yet.
    Progress {
        id: u64,
        envelope: Option<ResultParts>,
        months: Vec<String>,
    },
    /// The campaign stopped at a month boundary; the job rejoins the
    /// front of its tenant's queue with the checkpoint to resume from.
    Suspended {
        id: u64,
        checkpoint: CampaignCheckpoint,
    },
    /// The job ended `done` or `failed`.
    Finished { id: u64, status: JobStatus },
}

struct Tenant {
    queue: VecDeque<u64>,
    running: usize,
    bucket: TokenBucket,
}

#[derive(Default)]
struct JobTable {
    quota: TenantQuota,
    jobs: BTreeMap<u64, Job>,
    tenants: BTreeMap<String, Tenant>,
    /// Round-robin dispatch order over tenant names.
    rr: VecDeque<String>,
    next_id: u64,
    /// Jobs by status, indexed by `JobStatus as usize`: the `healthz`
    /// counts.
    counts: [usize; 4],
    /// `None` while serving; set once by [`Tassd::shutdown`].
    stopping: Option<ShutdownMode>,
}

impl JobTable {
    fn tenant_mut(&mut self, name: &str) -> &mut Tenant {
        if !self.tenants.contains_key(name) {
            self.tenants.insert(
                name.to_string(),
                Tenant {
                    queue: VecDeque::new(),
                    running: 0,
                    bucket: self.quota.bucket(),
                },
            );
            self.rr.push_back(name.to_string());
        }
        self.tenants.get_mut(name).expect("inserted above")
    }

    fn job_mut(&mut self, id: u64) -> &mut Job {
        self.jobs.get_mut(&id).expect("event ids resolve")
    }

    fn tenant_of(&mut self, id: u64) -> &mut Tenant {
        let name = &self.jobs[&id].file.tenant;
        self.tenants.get_mut(name).expect("job tenants resolve")
    }

    /// Job `id`, if `tenant` owns it.
    fn owned(&self, tenant: &str, id: u64) -> Result<&Job, ResultError> {
        let job = self.jobs.get(&id).filter(|j| j.file.tenant == tenant);
        job.ok_or(ResultError::NotFound)
    }

    /// Apply one job event: the only write to job state.
    fn apply(&mut self, event: JobEvent) {
        let (id, status) = match event {
            JobEvent::Queued(file) => {
                let id = file.id;
                self.next_id = self.next_id.max(id.saturating_add(1));
                self.tenant_mut(&file.tenant).queue.push_back(id);
                self.counts[JobStatus::Queued as usize] += 1;
                let job = Job {
                    file,
                    status: JobStatus::Queued,
                    result: None,
                    completion_index: None,
                };
                self.jobs.insert(id, job);
                return;
            }
            JobEvent::Started { id } => {
                let tenant = self.tenant_of(id);
                tenant.queue.retain(|&queued| queued != id);
                tenant.running += 1;
                (id, JobStatus::Running)
            }
            JobEvent::Progress {
                id,
                envelope,
                months,
            } => {
                let job = self.job_mut(id);
                job.result = envelope.or(job.result.take());
                if let Some(parts) = &mut job.result {
                    parts.months.extend(months);
                }
                return;
            }
            JobEvent::Suspended { id, checkpoint } => {
                self.job_mut(id).file.checkpoint = checkpoint;
                let tenant = self.tenant_of(id);
                tenant.running -= 1;
                // resume-first when the daemon comes back
                tenant.queue.push_front(id);
                (id, JobStatus::Queued)
            }
            JobEvent::Finished { id, status } => {
                let index = self.completions();
                self.job_mut(id).completion_index = Some(index);
                self.tenant_of(id).running -= 1;
                (id, status)
            }
        };
        let from = std::mem::replace(&mut self.job_mut(id).status, status);
        self.counts[from as usize] -= 1;
        self.counts[status as usize] += 1;
    }

    /// Jobs finished, done or failed.
    fn completions(&self) -> u64 {
        (self.counts[JobStatus::Done as usize] + self.counts[JobStatus::Failed as usize]) as u64
    }

    /// Claim the next runnable job, visiting tenants round-robin so no
    /// tenant's backlog starves the others, and return what it runs
    /// from.
    fn claim(&mut self) -> Option<JobFile> {
        for _ in 0..self.rr.len() {
            self.rr.rotate_left(1);
            let name = self.rr.back().expect("rr nonempty in loop");
            let tenant = &self.tenants[name];
            if tenant.running >= self.quota.max_concurrent {
                continue;
            }
            if let Some(&id) = tenant.queue.front() {
                self.apply(JobEvent::Started { id });
                return Some(self.jobs[&id].file.clone());
            }
        }
        None
    }
}

/// A [`GroundTruth`] view of a shared source with a capped month
/// horizon — how the `months` submission field shortens a campaign
/// without touching the source.
struct Capped {
    inner: SharedSource,
    months: u32,
}

impl GroundTruth for Capped {
    fn topology(&self) -> &Topology {
        self.inner.topology()
    }

    fn months(&self) -> u32 {
        self.months
    }

    fn protocols(&self) -> Vec<Protocol> {
        self.inner.protocols()
    }

    fn load_snapshot(&self, month: u32, protocol: Protocol) -> Result<Arc<Snapshot>, CorpusError> {
        if month > self.months {
            return Err(CorpusError::MissingMonth { month, protocol });
        }
        self.inner.load_snapshot(month, protocol)
    }
}

/// Aggregate daemon statistics (the `GET /v1/healthz` payload).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceStats {
    /// Seconds since the daemon started.
    pub uptime_secs: u64,
    /// Whether submissions are being accepted.
    pub accepting: bool,
    /// Jobs waiting in tenant queues.
    pub queued: usize,
    /// Jobs currently running on workers.
    pub running: usize,
    /// Jobs finished successfully.
    pub done: usize,
    /// Jobs that failed.
    pub failed: usize,
}

/// Shared daemon state: the source registry, the configuration, and the
/// job table. HTTP handlers and workers both talk to this.
pub struct ServiceCore {
    registry: Arc<SourceRegistry>,
    cfg: ServiceConfig,
    started: Instant,
    table: Mutex<JobTable>,
    /// Notified after every table change a waiting worker may act on: a
    /// job queued, a run slot freed, shutdown begun.
    wake: Condvar,
}

impl ServiceCore {
    /// A core with the jobs of `cfg.checkpoint_dir` queued and no
    /// workers yet.
    fn new(registry: Arc<SourceRegistry>, cfg: ServiceConfig) -> io::Result<Arc<ServiceCore>> {
        let mut table = JobTable {
            quota: cfg.quota.clone(),
            next_id: 1,
            ..JobTable::default()
        };
        if let Some(dir) = &cfg.checkpoint_dir {
            std::fs::create_dir_all(dir)?;
            let (files, next_id) = load_checkpoint_files(dir)?;
            table.next_id = next_id;
            for file in files {
                table.apply(JobEvent::Queued(file));
            }
        }
        Ok(Arc::new(ServiceCore {
            registry,
            cfg,
            started: Instant::now(),
            table: Mutex::new(table),
            wake: Condvar::new(),
        }))
    }

    /// The daemon's source catalogue.
    pub fn registry(&self) -> &SourceRegistry {
        &self.registry
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> ServiceStats {
        let table = self.table.lock().expect("job table lock");
        let [queued, running, done, failed] = table.counts;
        ServiceStats {
            uptime_secs: self.started.elapsed().as_secs(),
            accepting: table.stopping.is_none(),
            queued,
            running,
            done,
            failed,
        }
    }

    /// Validate and enqueue a campaign submission for `tenant`. One
    /// critical section refuses it once shutdown has begun and applies
    /// its `Queued`, so every accepted job is seen by the workers or by
    /// a checkpoint shutdown.
    pub fn submit(&self, tenant: &str, req: SubmitRequest) -> Result<u64, SubmitError> {
        let mut table = self.table.lock().expect("job table lock");
        if table.stopping.is_some() {
            return Err(SubmitError::NotAccepting);
        }
        let source = self
            .registry
            .get_v4(&req.source)
            .ok_or_else(|| SubmitError::UnknownSource(req.source.clone()))?;
        let offered = source.protocols();
        let protocol = match req.protocol {
            Some(p) if !offered.contains(&p) => {
                return Err(SubmitError::BadProtocol {
                    protocol: p,
                    offered,
                })
            }
            Some(p) => p,
            None => *offered.first().expect("sources offer >=1 protocol"),
        };
        let months_total = match req.months {
            Some(m) if m > source.months() => {
                return Err(SubmitError::BadMonths {
                    requested: m,
                    max: source.months(),
                })
            }
            Some(m) => m,
            None => source.months(),
        };
        let now = self.started.elapsed().as_secs_f64();
        let max_pending = self.cfg.quota.max_pending;
        let tenant_entry = table.tenant_mut(tenant);
        tenant_entry.bucket.advance_to(now);
        if !tenant_entry.bucket.try_take() {
            return Err(SubmitError::RateLimited);
        }
        let pending = tenant_entry.queue.len() + tenant_entry.running;
        if pending >= max_pending {
            return Err(SubmitError::QuotaExceeded {
                pending,
                max: max_pending,
            });
        }
        let id = table.next_id;
        table.apply(JobEvent::Queued(JobFile {
            id,
            tenant: tenant.to_string(),
            source: req.source,
            months_total,
            checkpoint: CampaignCheckpoint::new(req.kind, protocol, req.seed),
        }));
        drop(table);
        self.wake.notify_all();
        Ok(id)
    }

    /// The tenant-visible view of job `id` — `None` when the job does
    /// not exist *or belongs to another tenant* (the API deliberately
    /// does not distinguish the two).
    pub fn job_view(&self, tenant: &str, id: u64) -> Option<JobView> {
        let table = self.table.lock().expect("job table lock");
        let job = table.owned(tenant, id).ok()?;
        let checkpoint = &job.file.checkpoint;
        Some(JobView {
            id,
            status: job.status.tag().to_string(),
            source: job.file.source.clone(),
            strategy: checkpoint.kind.spec(),
            protocol: checkpoint.protocol.tag().to_string(),
            seed: checkpoint.seed,
            months_done: job.months_done(),
            months_total: job.file.months_total,
            completion_index: job.completion_index,
        })
    }

    /// A page of the finished job's byte-stable result JSON: the whole
    /// result's envelope with the `months` array sliced to
    /// `[offset, offset + limit)`, cut from the job's published result
    /// parts, so paging never re-serialises anything. `(0, None)` is the
    /// whole result; an `offset` past the end yields the envelope with
    /// an empty months array.
    pub fn job_result_page(
        &self,
        tenant: &str,
        id: u64,
        offset: usize,
        limit: Option<usize>,
    ) -> Result<String, ResultError> {
        let table = self.table.lock().expect("job table lock");
        let job = table.owned(tenant, id)?;
        match (&job.result, job.status) {
            (Some(parts), JobStatus::Done) => Ok(parts.page(offset, limit)),
            _ => Err(ResultError::NotDone {
                status: job.status.tag().to_string(),
            }),
        }
    }

    /// Piece `piece` of job `id`'s result stream — the streaming
    /// endpoint's pull source, cut from the same result parts as every
    /// other results endpoint. The `Data` pieces concatenate to the exact
    /// bytes of the unpaginated result body.
    ///
    /// Piece 0 is the envelope head through the months array's `[`;
    /// piece `p` is month element `p - 1`, after the first with its
    /// leading comma, once the campaign has completed that month (until
    /// then the piece is [`StreamChunk::Pending`]); the tail, `]` through
    /// the end of the envelope, follows once the job is done, and then
    /// [`StreamChunk::End`]. A failed job's stream can never complete:
    /// [`StreamChunk::Abort`].
    pub fn result_stream_piece(
        &self,
        tenant: &str,
        id: u64,
        piece: u64,
    ) -> Result<StreamChunk, ResultError> {
        let table = self.table.lock().expect("job table lock");
        let job = table.owned(tenant, id)?;
        if job.status == JobStatus::Failed {
            return Ok(StreamChunk::Abort);
        }
        let Some(parts) = &job.result else {
            return Ok(StreamChunk::Pending);
        };
        let months = parts.months.len() as u64;
        let done = job.status == JobStatus::Done;
        let data = match piece {
            0 => parts.head.clone(),
            1 if months > 0 => parts.months[0].clone(),
            p if p <= months => format!(",{}", parts.months[p as usize - 1]),
            _ if !done => return Ok(StreamChunk::Pending),
            p if p == months + 1 => parts.tail.clone(),
            _ => return Ok(StreamChunk::End),
        };
        Ok(StreamChunk::Data(data.into_bytes()))
    }

    /// One worker's life: claim fairly, run checkpointed, repeat; with
    /// nothing to claim, block until `wake` is notified.
    fn worker_loop(&self) {
        let mut table = self.table.lock().expect("job table lock");
        loop {
            // checkpoint mode leaves the queues in place; drain mode
            // stops once everything claimable is claimed
            let queued = table.counts[JobStatus::Queued as usize];
            match table.stopping {
                Some(ShutdownMode::Checkpoint) => return,
                Some(ShutdownMode::Drain) if queued == 0 => return,
                _ => {}
            }
            if let Some(claimed) = table.claim() {
                drop(table);
                self.run_job(claimed);
                table = self.table.lock().expect("job table lock");
            } else {
                table = self.wake.wait(table).expect("job table lock");
            }
        }
    }

    /// Run a claimed job until it finishes or is suspended.
    fn run_job(&self, file: JobFile) {
        let JobFile {
            id,
            source: name,
            months_total,
            checkpoint,
            ..
        } = file;
        // sources are validated at submit time and the registry is
        // immutable, so these checks only fail a checkpoint file resumed
        // against a daemon that lacks its source or has a shorter one
        let inner = self.registry.get_v4(&name);
        let horizon = inner.as_ref().map(|source| source.months());
        let Some(inner) = inner.filter(|_| horizon >= Some(months_total)) else {
            let served = horizon.map_or("is not served".into(), |h| format!("has horizon {h}"));
            let before = checkpoint.months_done();
            let reason =
                format!("before month {before}: horizon {months_total}, but {name:?} {served}");
            return self.finish(id, Err(reason));
        };
        let source = Capped {
            inner,
            months: months_total,
        };
        // renders the months completed since the last call outside the
        // table lock; the envelope is the 1-month `partial_result` stamped
        // with the job identity the checkpointed driver adds — the same
        // constructor as the final result — so the parts join to the
        // finished result's exact bytes
        let (kind, job) = (checkpoint.kind, checkpoint.job());
        let mut rendered = 0;
        let mut progress = |done: &[MonthEval]| {
            let envelope = done.first().filter(|_| rendered == 0).map(|first| {
                let mut result = partial_result(&source, &kind, job.protocol, vec![*first])
                    .expect("one month is a result")
                    .with_job(job.clone());
                result.months.clear();
                let json =
                    serde_json::to_string(&result).expect("campaign results always serialize");
                let key = "\"months\":[";
                let open = json.find(key).expect("results carry a months array") + key.len();
                ResultParts {
                    head: json[..open].to_string(),
                    months: Vec::new(),
                    tail: json[open..].to_string(),
                }
            });
            let months = done[rendered..]
                .iter()
                .map(|eval| serde_json::to_string(eval).expect("month evals always serialize"))
                .collect();
            rendered = done.len();
            JobEvent::Progress {
                id,
                envelope,
                months,
            }
        };
        let delay = self.cfg.month_delay;
        let mut control = |month: u32, done: &[MonthEval]| {
            debug_assert_eq!(month as usize, done.len());
            let event = progress(done);
            let mut table = self.table.lock().expect("job table lock");
            table.apply(event);
            if table.stopping == Some(ShutdownMode::Checkpoint) {
                return CampaignStep::Suspend;
            }
            drop(table);
            if !delay.is_zero() {
                thread::sleep(delay);
            }
            CampaignStep::Continue
        };
        match run_campaign_checkpointed(&source, checkpoint, &mut control) {
            // the hook never sees the last month (nor any month of a
            // `months: 0` job), so the parts are completed here
            CampaignRun::Done(result) => {
                self.finish(id, Ok(progress(&result.months)));
            }
            CampaignRun::Suspended(checkpoint) => {
                let suspended = JobEvent::Suspended { id, checkpoint };
                self.table.lock().expect("job table lock").apply(suspended);
            }
            CampaignRun::Failed { month, error, .. } => {
                self.finish(id, Err(format!("at month {month}: {error}")));
            }
        }
    }

    /// End job `id`: done after its last `Progress`, or failed for the
    /// given reason, which goes to stderr. Either way the job keeps the
    /// months it completed, its checkpoint file (if any) is removed so
    /// no restart runs it again, and the workers are woken, since its
    /// tenant has a free run slot.
    fn finish(&self, id: u64, outcome: Result<JobEvent, String>) {
        if let Err(reason) = &outcome {
            eprintln!("tassd: job {id} failed {reason}");
        }
        let mut table = self.table.lock().expect("job table lock");
        let status = match outcome {
            Ok(last) => {
                table.apply(last);
                JobStatus::Done
            }
            Err(_) => JobStatus::Failed,
        };
        table.apply(JobEvent::Finished { id, status });
        drop(table);
        if let Some(dir) = &self.cfg.checkpoint_dir {
            let _ = std::fs::remove_file(dir.join(format!("job-{id:08}.json")));
        }
        self.wake.notify_all();
    }
}

/// How [`Tassd::shutdown`] treats unfinished jobs. In both modes the job
/// table refuses submissions from the moment shutdown records the mode
/// there, and every job it accepted before then is run or persisted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShutdownMode {
    /// Finish every queued job, then exit: each worker leaves once no
    /// job is left to claim, and the last running jobs run to the end.
    Drain,
    /// Suspend running campaigns at the next month boundary and persist
    /// every unfinished job, suspended or never started, to the
    /// checkpoint directory as one `job-*.json` file. A finished job has
    /// no file.
    Checkpoint,
}

/// What a graceful shutdown did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShutdownReport {
    /// Jobs completed over the daemon's lifetime.
    pub completed: u64,
    /// Unfinished jobs written to the checkpoint directory.
    pub checkpointed: usize,
}

/// The resident daemon: worker threads over a [`ServiceCore`].
pub struct Tassd {
    core: Arc<ServiceCore>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl Tassd {
    /// Start the daemon: admit each job file in `cfg.checkpoint_dir`
    /// under its original id, by the same `Queued` event as a
    /// submission (setting aside any file that does not parse), then
    /// spawn the campaign workers.
    pub fn start(registry: Arc<SourceRegistry>, cfg: ServiceConfig) -> io::Result<Tassd> {
        let pool = if cfg.workers == 0 {
            CampaignPool::from_env()
        } else {
            CampaignPool::new(cfg.workers)
        };
        let core = ServiceCore::new(registry, cfg)?;
        let workers = (0..pool.workers())
            .map(|i| {
                let core = Arc::clone(&core);
                thread::Builder::new()
                    .name(format!("tassd-worker-{i}"))
                    .spawn(move || core.worker_loop())
            })
            .collect::<io::Result<Vec<_>>>()?;
        Ok(Tassd { core, workers })
    }

    /// The shared state HTTP handlers serve from.
    pub fn core(&self) -> Arc<ServiceCore> {
        Arc::clone(&self.core)
    }

    /// Gracefully stop: record `mode` in the job table, which refuses
    /// new submissions from then on, wake the workers to drain or
    /// checkpoint per `mode`, join them, and report.
    pub fn shutdown(mut self, mode: ShutdownMode) -> io::Result<ShutdownReport> {
        self.core.table.lock().expect("job table lock").stopping = Some(mode);
        self.core.wake.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        let table = self.core.table.lock().expect("job table lock");
        let mut checkpointed = 0;
        if let (ShutdownMode::Checkpoint, Some(dir)) = (mode, &self.core.cfg.checkpoint_dir) {
            // the workers have stopped, so every unfinished job is queued
            for (id, job) in &table.jobs {
                if job.status == JobStatus::Queued {
                    let json =
                        serde_json::to_string(&job.file).expect("job files always serialize");
                    write_atomically(dir, &format!("job-{id:08}.json"), json.as_bytes())?;
                    checkpointed += 1;
                }
            }
        }
        Ok(ShutdownReport {
            completed: table.completions(),
            checkpointed,
        })
    }
}

/// Write `bytes` to the file `name` in `dir` so that a crash leaves
/// either the old file or the whole new one: write `<name>.tmp`, sync
/// it, rename it over `name`, then sync `dir` so the rename itself is
/// durable. A torn `.tmp` is ignored by [`load_checkpoint_files`], which
/// reads only names ending in `.json`.
fn write_atomically(dir: &Path, name: &str, bytes: &[u8]) -> io::Result<()> {
    let tmp = dir.join(format!("{name}.tmp"));
    let mut file = std::fs::File::create(&tmp)?;
    file.write_all(bytes)?;
    file.sync_all()?;
    std::fs::rename(&tmp, dir.join(name))?;
    std::fs::File::open(dir)?.sync_all()
}

/// The job files to resume from `dir`, and the lowest id a new job may
/// take.
///
/// A `job-XXXXXXXX.json` that does not parse (torn by a disk fault or a
/// copy) does not stop the daemon: it is renamed to
/// `job-XXXXXXXX.json.corrupt`, one stderr line names it, and the other
/// jobs resume. The id in every `job-` file name stays taken, as does
/// every resumed job's own id (its `Queued` event raises the next id),
/// so a new job never reuses the id of a file set aside now or at an
/// earlier start.
fn load_checkpoint_files(dir: &Path) -> io::Result<(Vec<JobFile>, u64)> {
    let mut files = Vec::new();
    let mut next_id = 1u64;
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        let Some(rest) = name.strip_prefix("job-") else {
            continue;
        };
        if let Some(id) = rest.split('.').next().and_then(|d| d.parse::<u64>().ok()) {
            next_id = next_id.max(id.saturating_add(1));
        }
        if !name.ends_with(".json") {
            continue;
        }
        let bytes = std::fs::read(&path)?;
        let parsed = std::str::from_utf8(&bytes)
            .map_err(|e| e.to_string())
            .and_then(|text| serde_json::from_str::<JobFile>(text).map_err(|e| e.to_string()));
        match parsed {
            Ok(file) => files.push(file),
            Err(e) => {
                let aside = dir.join(format!("{name}.corrupt"));
                std::fs::rename(&path, &aside)?;
                eprintln!(
                    "tassd: set aside unreadable checkpoint {} as {}: {e}",
                    path.display(),
                    aside.display()
                );
            }
        }
    }
    // deterministic resume order regardless of directory iteration order
    files.sort_by_key(|f| f.id);
    Ok((files, next_id))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tass_core::{run_campaign, CampaignJob};
    use tass_model::universe::{Universe, UniverseConfig};

    fn demo_registry() -> Arc<SourceRegistry> {
        let mut reg = SourceRegistry::new();
        reg.insert_v4(
            "demo",
            Arc::new(Universe::generate(&UniverseConfig::small(11))),
        )
        .unwrap();
        Arc::new(reg)
    }

    fn submit(kind: StrategyKind, seed: u64) -> SubmitRequest {
        SubmitRequest {
            source: "demo".to_string(),
            kind,
            protocol: Some(Protocol::Http),
            seed,
            months: None,
        }
    }

    fn wait_done(core: &ServiceCore, tenant: &str, id: u64) -> JobView {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let view = core.job_view(tenant, id).expect("job visible to owner");
            if view.status == "done" || view.status == "failed" {
                return view;
            }
            assert!(Instant::now() < deadline, "job {id} stuck: {view:?}");
            thread::sleep(Duration::from_millis(5));
        }
    }

    /// The job counts as `stats()` computed them before the table kept
    /// counters: a walk over every job, and the tenant queues' lengths.
    fn walk(table: &JobTable) -> [usize; 4] {
        let mut running = 0;
        let mut done = 0;
        let mut failed = 0;
        for job in table.jobs.values() {
            match job.status {
                JobStatus::Running => running += 1,
                JobStatus::Done => done += 1,
                JobStatus::Failed => failed += 1,
                JobStatus::Queued => {}
            }
        }
        let queued = table.tenants.values().map(|t| t.queue.len()).sum();
        [queued, running, done, failed]
    }

    /// `[queued, running, done, failed]` from `stats()`, checked
    /// against the walk.
    fn checked_counts(core: &ServiceCore) -> [usize; 4] {
        let stats = core.stats();
        let counts = [stats.queued, stats.running, stats.done, stats.failed];
        assert_eq!(counts, walk(&core.table.lock().unwrap()));
        counts
    }

    /// One worker step on the test thread: claim the next job and run it
    /// to its end.
    fn step(core: &ServiceCore) -> u64 {
        let file = core.table.lock().unwrap().claim().expect("a claimable job");
        let id = file.id;
        core.run_job(file);
        id
    }

    /// Two tenants submit; alice's job is checkpointed mid-campaign and
    /// resumed by a second daemon, where bob's job fails because its
    /// source is gone. After every step the counters `stats()` reads
    /// equal a walk over the job table.
    #[test]
    fn counters_equal_a_walk_through_submit_checkpoint_resume_and_failure() {
        let dir = std::env::temp_dir().join(format!("tassd-counts-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = ServiceConfig {
            checkpoint_dir: Some(dir.clone()),
            month_delay: Duration::from_millis(10),
            ..ServiceConfig::default()
        };
        let demo = demo_registry().get_v4("demo").unwrap();
        let mut first = SourceRegistry::new();
        first.insert_v4("demo", Arc::clone(&demo)).unwrap();
        first.insert_v4("gone", demo).unwrap();
        let core = ServiceCore::new(Arc::new(first), cfg.clone()).unwrap();
        assert_eq!(checked_counts(&core), [0, 0, 0, 0]);
        let capped = |seed| SubmitRequest {
            months: Some(4),
            ..submit(StrategyKind::FullScan, seed)
        };
        let resumed = core.submit("alice", capped(1)).unwrap();
        let gone = SubmitRequest {
            source: "gone".to_string(),
            ..capped(2)
        };
        let lost = core.submit("bob", gone).unwrap();
        assert_eq!(checked_counts(&core), [2, 0, 0, 0]);

        let file = core.table.lock().unwrap().claim().unwrap();
        assert_eq!(file.id, resumed);
        assert_eq!(checked_counts(&core), [1, 1, 0, 0]);
        thread::scope(|scope| {
            scope.spawn(|| core.run_job(file));
            while core.job_view("alice", resumed).unwrap().months_done < 2 {
                thread::sleep(Duration::from_millis(2));
            }
            core.table.lock().unwrap().stopping = Some(ShutdownMode::Checkpoint);
        });
        assert_eq!(checked_counts(&core), [2, 0, 0, 0]);
        let months = core.job_view("alice", resumed).unwrap().months_done;
        let daemon = Tassd {
            core: Arc::clone(&core),
            workers: Vec::new(),
        };
        assert_eq!(
            daemon
                .shutdown(ShutdownMode::Checkpoint)
                .unwrap()
                .checkpointed,
            2
        );
        assert_eq!(checked_counts(&core), [2, 0, 0, 0]);

        let core = ServiceCore::new(demo_registry(), cfg).unwrap();
        assert_eq!(checked_counts(&core), [2, 0, 0, 0]);
        assert_eq!(core.job_view("alice", resumed).unwrap().months_done, months);
        assert_eq!(step(&core), resumed);
        assert_eq!(checked_counts(&core), [1, 0, 1, 0]);
        assert_eq!(step(&core), lost);
        assert_eq!(checked_counts(&core), [0, 0, 1, 1]);
        assert_eq!(core.job_view("bob", lost).unwrap().status, "failed");

        let capped = Capped {
            inner: core.registry().get_v4("demo").unwrap(),
            months: 4,
        };
        let oracle = run_campaign(&capped, StrategyKind::FullScan, Protocol::Http, 1)
            .with_job(CampaignJob::new(StrategyKind::FullScan, Protocol::Http, 1));
        assert_eq!(
            core.job_result_page("alice", resumed, 0, None).unwrap(),
            serde_json::to_string(&oracle).unwrap()
        );
        let left: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
        assert!(left.is_empty(), "finished jobs left {left:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Shutdown's first step on a core with no workers: once the table
    /// is `stopping`, a submission is refused before it is validated and
    /// touches no counter or tenant, and a running job suspends at its
    /// next month boundary, here the one before month 0.
    #[test]
    fn a_stopping_table_refuses_submissions_and_suspends_running_jobs() {
        let core = ServiceCore::new(demo_registry(), ServiceConfig::default()).unwrap();
        let id = core
            .submit("alice", submit(StrategyKind::FullScan, 1))
            .unwrap();
        let file = core.table.lock().unwrap().claim().unwrap();
        core.table.lock().unwrap().stopping = Some(ShutdownMode::Checkpoint);
        assert!(!core.stats().accepting);
        let unknown = SubmitRequest {
            source: "nope".to_string(),
            ..submit(StrategyKind::FullScan, 2)
        };
        for req in [submit(StrategyKind::FullScan, 2), unknown] {
            assert_eq!(core.submit("bob", req), Err(SubmitError::NotAccepting));
        }
        assert_eq!(checked_counts(&core), [0, 1, 0, 0]);
        assert!(!core.table.lock().unwrap().tenants.contains_key("bob"));
        core.run_job(file);
        assert_eq!(checked_counts(&core), [1, 0, 0, 0]);
        let view = core.job_view("alice", id).unwrap();
        assert_eq!((view.status.as_str(), view.months_done), ("queued", 0));
    }

    #[test]
    fn jobs_complete_with_byte_identical_results() {
        let registry = demo_registry();
        let daemon = Tassd::start(
            Arc::clone(&registry),
            ServiceConfig {
                workers: 2,
                ..ServiceConfig::default()
            },
        )
        .unwrap();
        let core = daemon.core();
        let kind = tass_core::parse_spec("tass:more:0.95").unwrap();
        let id = core.submit("alice", submit(kind, 7)).unwrap();
        let view = wait_done(&core, "alice", id);
        assert_eq!(view.status, "done");
        assert_eq!(view.strategy, "tass:more:0.95");
        assert_eq!(view.months_done, view.months_total + 1);
        // over-the-table result == direct library run, byte for byte
        let got = core.job_result_page("alice", id, 0, None).unwrap();
        let u = registry.get_v4("demo").unwrap();
        let oracle = run_campaign(&*u, kind, Protocol::Http, 7).with_job(CampaignJob::new(
            kind,
            Protocol::Http,
            7,
        ));
        assert_eq!(got, serde_json::to_string(&oracle).unwrap());
        // other tenants cannot see the job
        assert!(core.job_view("mallory", id).is_none());
        assert_eq!(
            core.job_result_page("mallory", id, 0, None),
            Err(ResultError::NotFound)
        );
        let report = daemon.shutdown(ShutdownMode::Drain).unwrap();
        assert_eq!(report.completed, 1);
        assert_eq!(report.checkpointed, 0);
    }

    #[test]
    fn result_pages_splice_the_stored_bytes() {
        let registry = demo_registry();
        let daemon = Tassd::start(Arc::clone(&registry), ServiceConfig::default()).unwrap();
        let core = daemon.core();
        let kind = tass_core::parse_spec("tass:more:0.95").unwrap();
        let id = core.submit("alice", submit(kind, 7)).unwrap();
        wait_done(&core, "alice", id);
        let full = core.job_result_page("alice", id, 0, None).unwrap();
        let oracle: tass_core::CampaignResult = serde_json::from_str(&full).unwrap();
        let months = oracle.months.len();
        assert!(months >= 3, "demo source must span several months");
        // every page is the full envelope with months sliced — exactly
        // what re-serialising the sliced oracle would produce
        for (offset, limit) in [
            (0usize, None::<usize>),
            (0, Some(1)),
            (1, Some(2)),
            (months - 1, Some(5)),
            (months, Some(1)),
            (months + 7, None),
            (2, Some(0)),
        ] {
            let got = core.job_result_page("alice", id, offset, limit).unwrap();
            let mut want = oracle.clone();
            let end = limit.map_or(months, |l| offset.saturating_add(l).min(months));
            want.months = oracle.months[offset.min(months)..end].to_vec();
            assert_eq!(
                got,
                serde_json::to_string(&want).unwrap(),
                "page offset={offset} limit={limit:?}"
            );
        }
        // the whole-result page is byte-identical to the unpaged fetch
        assert_eq!(core.job_result_page("alice", id, 0, None).unwrap(), full);
        // pages honour tenancy exactly like the unpaged endpoint
        assert_eq!(
            core.job_result_page("mallory", id, 0, Some(1)),
            Err(ResultError::NotFound)
        );
        daemon.shutdown(ShutdownMode::Drain).unwrap();
    }

    #[test]
    fn quotas_and_rates_reject_at_submit() {
        let daemon = Tassd::start(
            demo_registry(),
            ServiceConfig {
                workers: 1,
                quota: TenantQuota {
                    max_pending: 2,
                    max_concurrent: 1,
                    submits_per_sec: 0.001, // refills far slower than the test
                    submit_burst: 3.0,
                },
                month_delay: Duration::from_millis(30),
                ..ServiceConfig::default()
            },
        )
        .unwrap();
        let core = daemon.core();
        let kind = StrategyKind::FullScan;
        core.submit("bob", submit(kind, 1)).unwrap();
        core.submit("bob", submit(kind, 2)).unwrap();
        // third pending job exceeds max_pending
        assert!(matches!(
            core.submit("bob", submit(kind, 3)),
            Err(SubmitError::QuotaExceeded { max: 2, .. })
        ));
        // another tenant is unaffected by bob's quota…
        let carol_id = core.submit("carol", submit(kind, 4)).unwrap();
        // …until the burst runs out: 3 tokens each (per-tenant buckets)
        core.submit("carol", submit(kind, 5)).unwrap();
        assert!(matches!(
            core.submit("carol", submit(kind, 6)),
            Err(SubmitError::QuotaExceeded { .. }) | Err(SubmitError::RateLimited)
        ));
        // typed validation errors
        assert!(matches!(
            core.submit(
                "bob",
                SubmitRequest {
                    source: "nope".into(),
                    ..submit(kind, 1)
                }
            ),
            Err(SubmitError::UnknownSource(_))
        ));
        assert!(matches!(
            core.submit(
                "bob",
                SubmitRequest {
                    months: Some(99),
                    ..submit(kind, 1)
                }
            ),
            Err(SubmitError::BadMonths { requested: 99, .. })
        ));
        wait_done(&core, "carol", carol_id);
        daemon.shutdown(ShutdownMode::Drain).unwrap();
    }

    #[test]
    fn capped_months_shorten_the_campaign() {
        let registry = demo_registry();
        let daemon = Tassd::start(Arc::clone(&registry), ServiceConfig::default()).unwrap();
        let core = daemon.core();
        // `months: 0` publishes no month before the campaign is done, and
        // no job's hook sees its last month: both complete their parts
        // at finish
        for months in [0, 2] {
            let id = core
                .submit(
                    "alice",
                    SubmitRequest {
                        months: Some(months),
                        ..submit(StrategyKind::FullScan, 9)
                    },
                )
                .unwrap();
            let view = wait_done(&core, "alice", id);
            assert_eq!((view.months_total, view.months_done), (months, months + 1));
            let got = core.job_result_page("alice", id, 0, None).unwrap();
            // identical to a direct run over the capped source
            let capped = Capped {
                inner: registry.get_v4("demo").unwrap(),
                months,
            };
            let oracle = run_campaign(&capped, StrategyKind::FullScan, Protocol::Http, 9)
                .with_job(CampaignJob::new(StrategyKind::FullScan, Protocol::Http, 9));
            let want = serde_json::to_string(&oracle).unwrap();
            assert_eq!(got, want);
            // so are the stream pieces, concatenated, and a page
            let mut streamed = String::new();
            for piece in 0.. {
                match core.result_stream_piece("alice", id, piece).unwrap() {
                    StreamChunk::Data(data) => {
                        streamed.push_str(std::str::from_utf8(&data).unwrap())
                    }
                    StreamChunk::End => break,
                    other => panic!("months {months} piece {piece}: {other:?}"),
                }
            }
            assert_eq!(streamed, want, "months {months}");
            let mut page = oracle.clone();
            page.months = oracle.months.iter().skip(1).take(1).copied().collect();
            assert_eq!(
                core.job_result_page("alice", id, 1, Some(1)).unwrap(),
                serde_json::to_string(&page).unwrap(),
                "months {months}"
            );
        }
        daemon.shutdown(ShutdownMode::Drain).unwrap();
    }
}

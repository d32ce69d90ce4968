//! # tass-core — the TASS algorithm (Klick et al., IMC 2016)
//!
//! The paper's contribution, implemented directly from its §3.1 recipe:
//!
//! > 1. At time t₀, perform a full scan and output all responsive
//! >    addresses. Let N be their number. Count the number of responsive
//! >    addresses cᵢ in each responsive prefix i.
//! > 2. Calculate the density ρᵢ = cᵢ/2^(32−prefix length) of all
//! >    responsive prefixes and their relative host coverage φᵢ = cᵢ/N.
//! > 3. Sort the prefixes in the descending order of density.
//! > 4. Find the smallest k so that Σ_{i=1..k} φᵢ > φ.
//! > 5. Scan prefixes 1, …, k repeatedly until time t₀ + Δt, then start
//! >    over at step 1.
//!
//! Step 5 is a **loop**, and the strategy layer models it as one: a
//! [`strategy::Strategy`] is prepared once from the t₀ scan, then each
//! cycle emits a typed [`plan::ProbePlan`] (what to probe) and receives a
//! [`plan::CycleOutcome`] (what the probes found) — so re-seeding,
//! adaptive density updates, and user-defined strategies are all
//! first-class. The closed [`strategy::StrategyKind`] enum is the
//! serializable registry of built-in strategies, and is itself a
//! `Strategy`.
//!
//! * [`density`] — steps 1–3: per-prefix counts, densities, the ranking;
//! * [`select`] — step 4: the minimal-k cumulative-coverage cutoff;
//! * [`plan`] — the lifecycle vocabulary: typed probe plans and cycle
//!   feedback, accepted directly by `tass-scan`'s `ScanEngine::run_plan`.
//!   Plans stream: [`plan::ProbePlan::stream`] yields targets lazily in
//!   cyclic-permutation order with O(1) state per prefix, and shards
//!   partition the stream for multi-threaded consumption;
//! * [`strategy`] — the `Strategy`/`PreparedStrategy` lifecycle and the
//!   `StrategyKind` registry: TASS, every baseline the paper discusses
//!   (periodic full scan, §4.1 IP-address hitlist, §2 random address
//!   samples and Heidemann-style /24-block samples, a random-prefix
//!   ablation) plus two feedback-driven strategies: the literal Δt
//!   re-seeding loop and feedback-only adaptive TASS; and the IPv6
//!   strategies;
//! * [`metrics`] — hitrate/accuracy, probe cost, efficiency and traffic
//!   reduction;
//! * [`campaign`] — the §4 simulation: seed at t₀, then drive
//!   `plan → evaluate → observe` monthly, for either address family
//!   ([`campaign::run_campaign_strategy`]). Campaign matrices shard over a
//!   [`campaign::CampaignPool`] of threads (campaigns are independent and
//!   deterministic, so parallel results are byte-identical to serial).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod density;
pub mod metrics;
pub mod plan;
pub mod select;
pub mod spec;
pub mod strategy;

pub use campaign::{
    partial_result, run_campaign, run_campaign_checkpointed, run_campaign_strategy, run_matrix,
    CampaignCheckpoint, CampaignJob, CampaignPool, CampaignResult, CampaignRun, CampaignStep,
};
pub use density::{rank_from_counts, rank_units, DensityCounts, DensityRank, PrefixStat};
pub use metrics::{efficiency_ratio, MonthEval};
pub use plan::{CycleOutcome, Eval, PlanStream, ProbePlan, StreamError};
pub use select::{select_prefixes, select_prefixes_budgeted, Selection};
pub use spec::{parse_spec, SpecError};
pub use strategy::{
    AdaptiveTass, FamilySpace, PreparedStrategy, ReseedingTass, Strategy, StrategyKind, UnitSeed,
    V6BlockTass, V6FreshSample, V6Hitlist,
};

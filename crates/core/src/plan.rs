//! Typed probe plans and cycle feedback — the vocabulary of the strategy
//! lifecycle, generic over the address family.
//!
//! A [`ProbePlan`] is what a prepared strategy decides to probe in one
//! scan cycle: the whole announced space, a prefix list, a fixed address
//! set, or a fresh random sample. It replaces the old private `Covered`
//! enum so the selection layer can hand the *typed* plan straight to the
//! packet-level engine (`tass-scan`'s `ScanEngine::run_plan`) instead of
//! lossy `Vec<Prefix>` plumbing, and so campaign simulation and real
//! scanning evaluate the very same object.
//!
//! Nothing here is IPv4-specific: the plan, its streams, and the cycle
//! feedback are parameterised by an [`AddrFamily`] with a [`V4`] default,
//! so `ProbePlan` written bare is the pre-generic type and
//! `ProbePlan<V6>` plans 128-bit space. For v6 the `All` variant is a
//! *seeded*-space scan (the announced list is the seeded /48–/64
//! prefixes) — brute-forcing 2¹²⁸ addresses is impossible, which is
//! exactly why the typed prefix/hitlist plans matter there. Note the
//! asymmetry that implies: [`ProbePlan::evaluate`]/[`ProbePlan::observed`]
//! handle arbitrarily wide prefixes analytically, but **streaming**
//! enumerates every address, so `All`/`Prefixes` plans can only stream
//! prefixes of at most 2⁶⁴ addresses ([`ProbePlan::check_streamable`]) —
//! over wider seeded space, stream dense sub-prefix or hitlist plans
//! instead (`FreshSample` draws rather than enumerates and is always
//! streamable).
//!
//! A [`CycleOutcome`] is what the cycle reported back: the probes spent
//! and the responsive hosts found. Feedback-driven strategies (the
//! re-seeding Δt loop of the paper's §3.1 step 5, adaptive density
//! updates) consume it in `PreparedStrategy::observe`.
//!
//! # The O(output) feedback path
//!
//! Feedback is **copy-free**: [`ProbePlan::observed`] returns a
//! [`HostSetView`] — the snapshot's shared host set plus index ranges —
//! not a fresh copy of the hosts. An `All` cycle's responsive set is one
//! `Arc` clone (zero host-proportional allocation); a `Prefixes` cycle is
//! the interval union of per-prefix slices, O(prefixes log hosts) with
//! explicit set-union semantics for overlapping prefixes.
//! Likewise [`ProbePlan::evaluate`] answers `Prefixes` plans with one
//! monotone bulk sweep over the snapshot's sorted hosts (plan prefixes
//! arrive in address order, so each count is a short forward gallop),
//! and the campaign driver skips even that for feedback strategies:
//! [`ProbePlan::evaluate_observed`] reads the responsive count straight
//! off the observed view's length, so a feedback cycle pays one sweep,
//! not two. Per-cycle cost therefore tracks what the cycle *produces*
//! (prefixes selected, hosts actually walked by a consumer), never the
//! size of the universe.
//!
//! Plans are **streamed**, not buffered: [`ProbePlan::stream`] yields the
//! cycle's target addresses lazily through a [`PlanStream`], walking each
//! prefix in ZMap's cyclic-permutation order
//! ([`tass_net::cyclic`]) with O(1) state per prefix — a full `/0` scan
//! holds a couple of machine words, never a 2³²-entry vector. Streams
//! shard ([`ProbePlan::stream_shard`]): shards `0..k` partition the
//! cycle's targets exactly, which is how the scan engine fans one plan
//! out over worker threads.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use tass_model::{HostSet, HostSetView, PrefixCount, Snapshot};
use tass_net::cyclic::{self, AddressIter, Cyclic};
use tass_net::{AddrFamily, Prefix, V4};

/// What one scan cycle probes.
#[derive(Debug, Clone, PartialEq)]
pub enum ProbePlan<F: AddrFamily = V4> {
    /// Everything announced (a full scan; for v6, a full sweep of the
    /// *seeded* announced prefixes).
    All,
    /// A set of disjoint prefixes, sorted by address.
    Prefixes(Vec<Prefix<F>>),
    /// A fixed set of addresses (an IP hitlist).
    Addrs(HostSet<F>),
    /// A fresh uniform random address sample, re-drawn every cycle.
    FreshSample {
        /// Addresses sampled per cycle.
        per_cycle: u64,
        /// Base seed; the cycle index is mixed in when sampling.
        seed: u64,
    },
}

/// A plan cannot be streamed: one of the prefixes it would enumerate
/// holds more than 2⁶⁴ addresses.
///
/// Streaming walks every address of every planned prefix, so a wider
/// prefix is not a scan plan, it is a hang (and the cyclic-group
/// construction would spin factoring a 2⁸⁰-sized modulus). The analytic
/// paths ([`ProbePlan::evaluate`], [`ProbePlan::observed`]) have no such
/// bound — v6 plans over seeded /48–/64 space must either stay analytic
/// or stream dense sub-prefixes, which is the entire point of
/// topology-aware selection at 128 bits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamError {
    /// The offending prefix, formatted (`2600::/48`).
    pub prefix: String,
    /// Its address count.
    pub size: u128,
    /// The address family's name (`"IPv4"` / `"IPv6"`).
    pub family: &'static str,
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cannot stream {} prefix {}: {} addresses exceed the 2^64 enumerable bound — plan dense sub-prefixes instead",
            self.family, self.prefix, self.size,
        )
    }
}

impl std::error::Error for StreamError {}

impl<F: AddrFamily> ProbePlan<F> {
    /// Addresses this plan probes in one cycle.
    pub fn probe_count(&self, announced_space: F::Wide) -> F::Wide {
        match self {
            ProbePlan::All => announced_space,
            ProbePlan::Prefixes(ps) => F::wide_from_u128(
                ps.iter()
                    .fold(0u128, |acc, p| acc.saturating_add(p.size_u128())),
            ),
            ProbePlan::Addrs(a) => F::wide_from_u128(a.len() as u128),
            ProbePlan::FreshSample { per_cycle, .. } => F::wide_from_u128(u128::from(*per_cycle)),
        }
    }

    /// Fraction of the announced space this plan probes per cycle.
    pub fn space_fraction(&self, announced_space: F::Wide) -> f64 {
        let space = F::wide_to_u128(announced_space);
        if space == 0 {
            return 0.0;
        }
        F::wide_to_u128(self.probe_count(announced_space)) as f64 / space as f64
    }

    /// [`ProbePlan::probe_count`] as [`Eval::probes`] counts it:
    /// saturated at `u64::MAX`.
    fn probes_u64(&self, announced_space: F::Wide) -> u64 {
        u64::try_from(F::wide_to_u128(self.probe_count(announced_space))).unwrap_or(u64::MAX)
    }

    /// Evaluate the plan against one cycle's ground truth.
    ///
    /// `cycle` feeds the fresh-sample RNG so repeated samples differ
    /// cycle to cycle, as they would in a real campaign. For a static
    /// strategy, evaluating its t₀ plan against each month *is* the §4
    /// frozen evaluation (probe counts above 2⁶⁴ — possible only for v6
    /// prefix plans — saturate [`Eval::probes`]).
    pub fn evaluate(&self, truth: &Snapshot<F>, cycle: u32, announced_space: F::Wide) -> Eval {
        let total = truth.hosts.len() as u64;
        let found = match self {
            ProbePlan::All => total,
            // one bulk sweep over the snapshot's sorted hosts: plan
            // prefixes arrive in address order, so each is a short
            // forward gallop, not a full binary search or hash probe —
            // and only the sum is wanted, so no per-prefix vector
            ProbePlan::Prefixes(ps) => truth.hosts.count_prefixes_total(ps.iter().copied()),
            ProbePlan::Addrs(a) => a.intersection_count(&truth.hosts) as u64,
            ProbePlan::FreshSample { per_cycle, seed } => {
                // A fresh uniform sample over announced space hits each
                // responsive host independently: found ~ Binomial(n, p)
                // with p = |truth| / announced. Draw exactly for small n,
                // by normal approximation for campaign-scale n.
                let mut rng = SmallRng::seed_from_u64(seed ^ (u64::from(cycle) << 32));
                let n = *per_cycle;
                let p = truth.hosts.len() as f64 / F::wide_to_u128(announced_space).max(1) as f64;
                if n <= 10_000 {
                    (0..n).filter(|_| rng.random::<f64>() < p).count() as u64
                } else {
                    let mean = n as f64 * p;
                    let sd = (n as f64 * p * (1.0 - p)).sqrt();
                    let draw = mean + sd * tass_model::distr::standard_normal(&mut rng);
                    draw.round().clamp(0.0, n as f64) as u64
                }
            }
        };
        Eval::new(found, total, self.probes_u64(announced_space))
    }

    /// [`ProbePlan::evaluate`] when the cycle's observed view is already
    /// in hand — the campaign driver computes [`ProbePlan::observed`] for
    /// every feedback strategy anyway, and for the exact plan variants
    /// (`All`/`Prefixes`/`Addrs`) the responsive count *is* the view's
    /// length (prefix plans are disjoint by the variant's contract), so
    /// the evaluation's second counting sweep disappears entirely.
    ///
    /// `FreshSample` falls back to the analytic [`ProbePlan::evaluate`]:
    /// its observed membership approximates the binomial draw without
    /// being forced to match it, and the two must not be conflated.
    pub fn evaluate_observed(
        &self,
        truth: &Snapshot<F>,
        observed: &HostSetView<F>,
        cycle: u32,
        announced_space: F::Wide,
    ) -> Eval {
        if matches!(self, ProbePlan::FreshSample { .. }) {
            return self.evaluate(truth, cycle, announced_space);
        }
        let total = truth.hosts.len() as u64;
        let found = observed.len() as u64;
        Eval::new(found, total, self.probes_u64(announced_space))
    }

    /// The concrete responsive hosts this plan would have observed against
    /// one cycle's ground truth — the feedback half of the lifecycle.
    ///
    /// For prefix/address plans this is exact. For a fresh sample the
    /// membership is drawn per host (deterministically from the seed and
    /// cycle), so its *size* approximates the binomial draw used by
    /// [`ProbePlan::evaluate`] without being forced to match it.
    ///
    /// The result is a copy-free [`HostSetView`] over the snapshot's
    /// shared host set: `All` is a single `Arc` clone, `Prefixes` is the
    /// interval union of the per-prefix slices (overlapping prefixes
    /// contribute their set union, never a double count). The
    /// `Addrs`/`FreshSample` outputs are not ranges of the snapshot, so
    /// each is a new (output-sized) set, viewed whole.
    pub fn observed(
        &self,
        truth: &Snapshot<F>,
        cycle: u32,
        announced_space: F::Wide,
    ) -> HostSetView<F> {
        match self {
            ProbePlan::All => HostSetView::full(truth.hosts.clone()),
            ProbePlan::Prefixes(ps) => HostSetView::from_prefixes(truth.hosts.clone(), ps),
            ProbePlan::Addrs(a) => {
                let addrs: Vec<F::Addr> = a.iter().filter(|&x| truth.hosts.contains(x)).collect();
                HostSetView::full(HostSet::from_sorted_unique(addrs))
            }
            ProbePlan::FreshSample { per_cycle, seed } => {
                let mut rng =
                    SmallRng::seed_from_u64(seed ^ (u64::from(cycle) << 32) ^ 0x0B5E_12FE);
                let p = *per_cycle as f64 / F::wide_to_u128(announced_space).max(1) as f64;
                let addrs: Vec<F::Addr> = truth
                    .hosts
                    .iter()
                    .filter(|_| rng.random::<f64>() < p)
                    .collect();
                HostSetView::full(HostSet::from_sorted_unique(addrs))
            }
        }
    }

    /// Can this plan's targets be streamed ([`ProbePlan::stream`])?
    ///
    /// Streaming enumerates every address of every planned prefix, so an
    /// `All`/`Prefixes` plan naming a prefix wider than 2⁶⁴ addresses (a
    /// seeded v6 /48 is 2⁸⁰) is rejected with a [`StreamError`] naming
    /// the offending prefix. `Addrs` probes a listed set and
    /// `FreshSample` *draws* from `announced` without enumerating it, so
    /// both are always streamable — as is every v4 plan (a v4 prefix
    /// tops out at 2³²).
    ///
    /// `announced` matters only for `All` (the list it would walk).
    ///
    /// The bound is about *enumerability*, not practicality: a stream
    /// finds the prime just above each prefix size and factors its group
    /// order by trial division once per distinct size (memoised, so a
    /// plan of many equal-sized prefixes pays it once), and that setup,
    /// like the walk itself, grows steeply toward the 2⁶⁴ edge — real
    /// plans stream dense sub-prefixes orders of magnitude below the
    /// bound.
    pub fn check_streamable(&self, announced: &[Prefix<F>]) -> Result<(), StreamError> {
        let walked: &[Prefix<F>] = match self {
            ProbePlan::All => announced,
            ProbePlan::Prefixes(ps) => ps,
            ProbePlan::Addrs(_) | ProbePlan::FreshSample { .. } => &[],
        };
        for p in walked {
            let size = p.size_u128();
            if size > 1u128 << 64 {
                return Err(StreamError {
                    prefix: p.to_string(),
                    size,
                    family: F::NAME,
                });
            }
        }
        Ok(())
    }

    /// Stream the cycle's target addresses lazily.
    ///
    /// Equivalent to [`ProbePlan::stream_shard`] with a single shard: the
    /// stream yields every address the plan probes this cycle, exactly
    /// once for `All`/`Prefixes`/`Addrs` (assuming disjoint prefixes) and
    /// with replacement for `FreshSample`, in permuted order, without
    /// ever materialising the target set.
    ///
    /// Panics if the plan is not streamable
    /// ([`ProbePlan::try_stream_shard`] is the checked variant).
    pub fn stream<'a>(
        &'a self,
        cycle: u32,
        announced: &'a [Prefix<F>],
        perm_seed: u64,
    ) -> PlanStream<'a, F> {
        self.stream_shard(cycle, announced, perm_seed, 0, 1)
    }

    /// Stream shard `shard` of `total` of the cycle's targets.
    ///
    /// The shards partition the stream: for any `total ≥ 1`, the union of
    /// shards `0..total` is exactly the single-shard stream's multiset,
    /// with no overlap. Memory per stream is O(1) beyond the borrowed
    /// prefix list (`FreshSample` additionally holds one cumulative-size
    /// vector over `announced`, the *input*, never the target set) — this
    /// is what lets the scan engine start probing an Internet-scale plan
    /// immediately and fan it out across worker threads.
    ///
    /// `perm_seed` picks the per-prefix permutation order (all shards of
    /// one stream must agree on it). It does **not** affect *which*
    /// addresses are yielded: prefix and address plans are set-determined,
    /// and `FreshSample` draws from its own seed mixed with `cycle`, so
    /// the sampled multiset is a property of the plan, not of the walker.
    ///
    /// `announced` is only consulted by `ProbePlan::All` (the space to
    /// scan) and `ProbePlan::FreshSample` (the space to draw from).
    ///
    /// Panics if `total == 0`, `shard >= total`, or the plan is not
    /// streamable ([`ProbePlan::try_stream_shard`] is the checked
    /// variant).
    pub fn stream_shard<'a>(
        &'a self,
        cycle: u32,
        announced: &'a [Prefix<F>],
        perm_seed: u64,
        shard: u64,
        total: u64,
    ) -> PlanStream<'a, F> {
        match self.try_stream_shard(cycle, announced, perm_seed, shard, total) {
            Ok(s) => s,
            Err(e) => panic!("{e}"),
        }
    }

    /// Checked [`ProbePlan::stream_shard`]: fails with a [`StreamError`]
    /// instead of panicking when the plan walks a prefix wider than the
    /// 2⁶⁴-address enumerable bound (still panics on a sharding-contract
    /// violation — `total == 0` or `shard >= total` is programmer error,
    /// not data).
    pub fn try_stream_shard<'a>(
        &'a self,
        cycle: u32,
        announced: &'a [Prefix<F>],
        perm_seed: u64,
        shard: u64,
        total: u64,
    ) -> Result<PlanStream<'a, F>, StreamError> {
        assert!(total > 0, "total shards must be > 0");
        assert!(shard < total, "shard index out of range");
        self.check_streamable(announced)?;
        let inner = match self {
            ProbePlan::All => {
                StreamInner::Prefixes(PrefixStream::new(announced, perm_seed, shard, total))
            }
            ProbePlan::Prefixes(ps) => {
                StreamInner::Prefixes(PrefixStream::new(ps, perm_seed, shard, total))
            }
            ProbePlan::Addrs(hs) => StreamInner::Addrs(
                hs.as_slice()
                    .iter()
                    .copied()
                    .skip(shard as usize)
                    .step_by(total as usize),
            ),
            ProbePlan::FreshSample { per_cycle, seed } => StreamInner::Sample(SampleStream::new(
                announced,
                *per_cycle,
                seed ^ (u64::from(cycle) << 32),
                shard,
                total,
            )),
        };
        Ok(PlanStream { inner })
    }

    /// Materialise the cycle's full target multiset, sorted — the eager
    /// path [`ProbePlan::stream`] replaces.
    ///
    /// This expands every prefix linearly (no permutation), so it is an
    /// *independent* oracle for the streaming path: collecting and
    /// sorting any stream must yield exactly this vector. Intended for
    /// tests and small plans; an Internet-scale `All` plan will allocate
    /// the whole target set here, which is precisely what streaming
    /// avoids (and a wide v6 prefix plan will simply not fit — keep
    /// materialisation to seeded-block scale).
    pub fn materialize(&self, cycle: u32, announced: &[Prefix<F>]) -> Vec<F::Addr> {
        fn expand<F: AddrFamily>(prefixes: &[Prefix<F>]) -> Vec<F::Addr> {
            let cap = prefixes
                .iter()
                .fold(0u128, |acc, p| acc.saturating_add(p.size_u128()));
            let mut out: Vec<F::Addr> = Vec::with_capacity(usize::try_from(cap).unwrap_or(0));
            for p in prefixes {
                let base = F::addr_to_u128(p.first());
                out.extend((0..p.size_u128()).map(|off| F::addr_from_u128(base + off)));
            }
            // The eager oracle path, deliberately O(n log n): a stable
            // sort, since the feedback path is kept free of per-cycle
            // address sorts by a CI guard and this is not it.
            out.sort();
            out
        }
        match self {
            ProbePlan::All => expand(announced),
            ProbePlan::Prefixes(ps) => expand(ps),
            ProbePlan::Addrs(hs) => hs.to_vec(),
            ProbePlan::FreshSample { .. } => {
                let mut out: Vec<F::Addr> = self.stream(cycle, announced, 0).collect();
                out.sort();
                out
            }
        }
    }
}

/// A lazy, shardable iterator over one cycle's target addresses.
///
/// Created by [`ProbePlan::stream`] / [`ProbePlan::stream_shard`]. Holds
/// O(1) state per prefix (a cyclic-group walk position), so consuming an
/// Internet-scale plan never materialises its target set.
#[derive(Debug, Clone)]
pub struct PlanStream<'a, F: AddrFamily = V4> {
    inner: StreamInner<'a, F>,
}

#[derive(Debug, Clone)]
enum StreamInner<'a, F: AddrFamily> {
    Prefixes(PrefixStream<'a, F>),
    Addrs(std::iter::StepBy<std::iter::Skip<std::iter::Copied<std::slice::Iter<'a, F::Addr>>>>),
    Sample(SampleStream<'a, F>),
}

impl<F: AddrFamily> Iterator for PlanStream<'_, F> {
    type Item = F::Addr;

    fn next(&mut self) -> Option<F::Addr> {
        match &mut self.inner {
            StreamInner::Prefixes(s) => s.next(),
            StreamInner::Addrs(s) => s.next(),
            StreamInner::Sample(s) => s.next(),
        }
    }
}

/// The cyclic group of one prefix size: the smallest prime above the
/// size and the distinct prime factors of its group order.
#[derive(Debug, Clone)]
struct SizeGroup {
    size: u128,
    p: u128,
    factors: Vec<u128>,
}

/// The group of prefix size `size`, found (primality search plus
/// factoring) on first use and memoised in `groups`. A plan has few
/// distinct prefix sizes, so a linear scan beats hashing.
fn size_group(groups: &mut Vec<SizeGroup>, size: u128) -> &SizeGroup {
    let i = match groups.iter().position(|g| g.size == size) {
        Some(i) => i,
        None => {
            let mut p = size + 1;
            while !cyclic::is_prime_u128(p) {
                p += 1;
            }
            let factors = cyclic::prime_factors_u128(p - 1);
            groups.push(SizeGroup { size, p, factors });
            groups.len() - 1
        }
    };
    &groups[i]
}

/// The deterministic per-prefix permutation walk shared by every shard of
/// a stream: a cyclic group over the smallest prime exceeding the prefix
/// size, generated from `perm_seed` and the prefix identity only (never
/// the shard), so shards of the same prefix walk the same permutation and
/// partition it by exponent residue. `groups` memoises the group of each
/// prefix size across the stream's prefixes.
fn prefix_walk<F: AddrFamily>(
    prefix: Prefix<F>,
    perm_seed: u64,
    shard: u64,
    total: u64,
    groups: &mut Vec<SizeGroup>,
) -> Option<Walk<F>> {
    let size = prefix.size_u128();
    // Invariant: every stream constructor runs `check_streamable` first
    // (try_stream_shard), so an unenumerable prefix cannot reach the
    // walk — this backstop keeps the hang impossible even if a new
    // constructor forgets the check.
    assert!(
        size <= 1u128 << 64,
        "cannot stream {} prefix {prefix}: {size} addresses exceed the 2^64 enumerable bound — plan dense sub-prefixes instead",
        F::NAME,
    );
    if size == 1 {
        // a single-address prefix has no permutation; it belongs to the
        // stream's shard 0 (callers rotate shards per prefix for balance)
        return (shard == 0).then_some(Walk::Single(prefix.addr()));
    }
    // fold the (possibly 128-bit) prefix address into the 64-bit seed mix;
    // for v4 the high word is zero and this is the pre-generic mix exactly
    let a = F::addr_to_u128(prefix.addr());
    let addr_mix = (a as u64) ^ ((a >> 64) as u64);
    let mut rng = SmallRng::seed_from_u64(
        perm_seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(addr_mix)
            .rotate_left(u32::from(prefix.len())),
    );
    let group = size_group(groups, size);
    let group: Cyclic<F> = Cyclic::with_factors(group.p, &group.factors, &mut rng);
    Some(Walk::Cyclic {
        base: prefix.first(),
        offsets: group.addresses(shard, total, size),
    })
}

#[derive(Debug, Clone)]
enum Walk<F: AddrFamily> {
    Single(F::Addr),
    Cyclic {
        base: F::Addr,
        offsets: AddressIter<F>,
    },
}

impl<F: AddrFamily> Iterator for Walk<F> {
    type Item = F::Addr;

    fn next(&mut self) -> Option<F::Addr> {
        match self {
            Walk::Single(addr) => {
                let out = *addr;
                *self = Walk::Cyclic {
                    base: F::addr_from_u128(0),
                    offsets: AddressIter::empty(),
                };
                Some(out)
            }
            Walk::Cyclic { base, offsets } => offsets
                .next()
                .map(|off| F::addr_from_u128(F::addr_to_u128(*base) + F::addr_to_u128(off))),
        }
    }
}

#[derive(Debug, Clone)]
struct PrefixStream<'a, F: AddrFamily> {
    prefixes: &'a [Prefix<F>],
    /// Ordinal of the next prefix to open.
    next: usize,
    walk: Option<Walk<F>>,
    /// Memoised group of each prefix size opened so far.
    groups: Vec<SizeGroup>,
    perm_seed: u64,
    shard: u64,
    total: u64,
}

impl<'a, F: AddrFamily> PrefixStream<'a, F> {
    fn new(
        prefixes: &'a [Prefix<F>],
        perm_seed: u64,
        shard: u64,
        total: u64,
    ) -> PrefixStream<'a, F> {
        PrefixStream {
            prefixes,
            next: 0,
            walk: None,
            groups: Vec::new(),
            perm_seed,
            shard,
            total,
        }
    }
}

impl<F: AddrFamily> Iterator for PrefixStream<'_, F> {
    type Item = F::Addr;

    fn next(&mut self) -> Option<F::Addr> {
        loop {
            if let Some(walk) = &mut self.walk {
                if let Some(addr) = walk.next() {
                    return Some(addr);
                }
                self.walk = None;
            }
            let ordinal = self.next;
            let prefix = *self.prefixes.get(ordinal)?;
            self.next += 1;
            // rotate the shard assignment by prefix ordinal so small
            // prefixes (below `total` addresses) spread over all shards
            // instead of piling onto shard 0
            let s = (self.shard + ordinal as u64) % self.total;
            self.walk = prefix_walk(prefix, self.perm_seed, s, self.total, &mut self.groups);
        }
    }
}

/// The fresh-sample draw sequence: every shard replays the same RNG so
/// the sampled multiset is shard-independent, and keeps draw `i` iff
/// `i ≡ shard (mod total)`.
#[derive(Debug, Clone)]
struct SampleStream<'a, F: AddrFamily> {
    rng: SmallRng,
    prefixes: &'a [Prefix<F>],
    /// Cumulative announced-space offset of each prefix.
    cum: Vec<u128>,
    total_space: u128,
    i: u64,
    n: u64,
    shard: u64,
    total: u64,
}

impl<'a, F: AddrFamily> SampleStream<'a, F> {
    fn new(
        announced: &'a [Prefix<F>],
        n: u64,
        seed: u64,
        shard: u64,
        total: u64,
    ) -> SampleStream<'a, F> {
        let mut cum = Vec::with_capacity(announced.len());
        let mut total_space = 0u128;
        for p in announced {
            cum.push(total_space);
            total_space = total_space.saturating_add(p.size_u128());
        }
        SampleStream {
            rng: SmallRng::seed_from_u64(seed),
            prefixes: announced,
            cum,
            total_space,
            i: 0,
            n: if total_space == 0 { 0 } else { n },
            shard,
            total,
        }
    }
}

impl<F: AddrFamily> Iterator for SampleStream<'_, F> {
    type Item = F::Addr;

    fn next(&mut self) -> Option<F::Addr> {
        while self.i < self.n {
            // the u128 range draw consumes the RNG exactly like the old
            // u64 draw whenever the space fits u64 (every v4 space does)
            let off = self.rng.random_range(0..self.total_space);
            let keep = self.i % self.total == self.shard;
            self.i += 1;
            if keep {
                let j = self.cum.partition_point(|&c| c <= off) - 1;
                return Some(F::addr_from_u128(
                    F::addr_to_u128(self.prefixes[j].first()) + (off - self.cum[j]),
                ));
            }
        }
        None
    }
}

/// Outcome of evaluating a probe plan against one cycle's ground truth.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Eval {
    /// Hosts the plan covers this cycle.
    pub found: u64,
    /// Hosts a full scan finds this cycle (the denominator).
    pub total: u64,
    /// found / total — the paper's hitrate relative to a full scan.
    pub hitrate: f64,
    /// Addresses probed this cycle (saturating at `u64::MAX` for
    /// above-2⁶⁴ v6 prefix plans).
    pub probes: u64,
    /// found / probes — raw scan efficiency.
    pub efficiency: f64,
}

impl Eval {
    /// The evaluation of `found` hosts out of `total` with `probes`
    /// probes; a zero denominator makes its ratio 0.
    pub fn new(found: u64, total: u64, probes: u64) -> Eval {
        Eval {
            found,
            total,
            hitrate: if total > 0 {
                found as f64 / total as f64
            } else {
                0.0
            },
            probes,
            efficiency: if probes > 0 {
                found as f64 / probes as f64
            } else {
                0.0
            },
        }
    }
}

/// What one completed scan cycle reported back to its strategy.
///
/// This is the feedback edge of the lifecycle: `plan → scan → observe`.
/// In campaign simulation it is derived from the ground-truth snapshot;
/// when driving the packet-level engine it comes from the actual
/// `ScanReport`.
#[derive(Debug, Clone)]
pub struct CycleOutcome<F: AddrFamily = V4> {
    /// The cycle index (months since t₀ in the §4 simulation).
    pub cycle: u32,
    /// Addresses probed during the cycle.
    pub probes: u64,
    /// The responsive hosts the cycle's probes found — a copy-free view
    /// over the snapshot's shared host set ([`HostSetView::materialize`]
    /// recovers a `HostSet`; `HostSet::into()` wraps a whole set, as for
    /// engine-driven campaigns whose responsive sets are scan reports).
    pub responsive: HostSetView<F>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use tass_model::Protocol;
    use tass_net::V6;

    fn truth(addrs: Vec<u32>) -> Snapshot {
        Snapshot::new(Protocol::Http, 0, HostSet::from_addrs(addrs))
    }

    #[test]
    fn probe_counts_by_variant() {
        let announced = 1_000u64;
        assert_eq!(ProbePlan::<V4>::All.probe_count(announced), announced);
        let ps: ProbePlan = ProbePlan::Prefixes(vec!["10.0.0.0/24".parse().unwrap()]);
        assert_eq!(ps.probe_count(announced), 256);
        let ad: ProbePlan = ProbePlan::Addrs(HostSet::from_addrs(vec![1, 2, 3]));
        assert_eq!(ad.probe_count(announced), 3);
        let fs = ProbePlan::<V4>::FreshSample {
            per_cycle: 42,
            seed: 1,
        };
        assert_eq!(fs.probe_count(announced), 42);
        assert!((fs.space_fraction(announced) - 0.042).abs() < 1e-12);
    }

    #[test]
    fn v6_probe_counts_and_saturation() {
        let seeded: Vec<Prefix<V6>> =
            vec!["2600::/48".parse().unwrap(), "2600:1::/64".parse().unwrap()];
        let plan = ProbePlan::Prefixes(seeded.clone());
        assert_eq!(plan.probe_count(0), (1u128 << 80) + (1u128 << 64));
        // a /0 v6 "prefix plan" saturates rather than overflowing
        let absurd = ProbePlan::Prefixes(vec![Prefix::<V6>::zero()]);
        assert_eq!(absurd.probe_count(0), u128::MAX);
        let e = absurd.evaluate(
            &Snapshot::new(Protocol::Http, 0, HostSet::<V6>::default()),
            0,
            u128::MAX,
        );
        assert_eq!(e.probes, u64::MAX, "Eval::probes saturates");
    }

    #[test]
    #[should_panic(expected = "exceed the 2^64 enumerable bound")]
    fn streaming_an_unenumerable_v6_prefix_fails_loudly() {
        // a seeded /48 is 2^80 addresses: not a scan plan, a hang —
        // the unchecked stream constructor must reject it eagerly
        // instead of spinning
        let plan = ProbePlan::Prefixes(vec!["2600::/48".parse::<Prefix<V6>>().unwrap()]);
        let _ = plan.stream(0, &[], 1).next();
    }

    #[test]
    fn try_stream_reports_unenumerable_prefixes_as_errors() {
        let announced = vec!["2600::/48".parse::<Prefix<V6>>().unwrap()];
        let err = ProbePlan::<V6>::All
            .try_stream_shard(0, &announced, 1, 0, 1)
            .unwrap_err();
        assert_eq!(err.prefix, "2600::/48");
        assert_eq!(err.size, 1u128 << 80);
        assert_eq!(err.family, "IPv6");
        assert!(err.to_string().contains("exceed the 2^64 enumerable bound"));
        // only the enumerating variants are bounded: a sample *draws*
        // from the same wide announced space and streams fine
        let sample = ProbePlan::<V6>::FreshSample {
            per_cycle: 10,
            seed: 1,
        };
        assert!(sample.check_streamable(&announced).is_ok());
        assert_eq!(
            sample
                .try_stream_shard(0, &announced, 1, 0, 1)
                .unwrap()
                .count(),
            10
        );
        // a /64 (exactly 2^64 addresses) sits on the bound: streamable
        let edge = ProbePlan::Prefixes(vec!["2600::/64".parse::<Prefix<V6>>().unwrap()]);
        assert!(edge.check_streamable(&[]).is_ok());
    }

    #[test]
    fn evaluate_prefixes_counts_truth_inside() {
        let t = truth((0..64u32).map(|i| 0x0A00_0000 + i * 8).collect());
        let plan = ProbePlan::Prefixes(vec!["10.0.0.0/24".parse().unwrap()]);
        let e = plan.evaluate(&t, 0, 4096);
        assert_eq!(e.total, 64);
        assert_eq!(e.found, 32, "first 32 hosts fall inside the /24");
        assert_eq!(e.probes, 256);
    }

    #[test]
    fn observed_matches_evaluate_for_exact_plans() {
        let t = truth((0..100u32).map(|i| 0x0A00_0000 + i).collect());
        let plans = [
            ProbePlan::All,
            ProbePlan::Prefixes(vec!["10.0.0.0/26".parse().unwrap()]),
            ProbePlan::Addrs(HostSet::from_addrs(
                (0..10).map(|i| 0x0A00_0000 + i).collect(),
            )),
        ];
        for plan in plans {
            let e = plan.evaluate(&t, 0, 1 << 16);
            let got = plan.observed(&t, 0, 1 << 16);
            assert_eq!(got.len() as u64, e.found, "{plan:?}");
            assert!(got.iter().all(|a| t.hosts.contains(a)));
            // the fused path the campaign driver takes must agree exactly
            let fused = plan.evaluate_observed(&t, &got, 0, 1 << 16);
            assert_eq!(fused, e, "{plan:?}");
        }
    }

    fn pfx(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn stream_matches_materialize_for_every_variant() {
        let announced = vec![pfx("10.0.0.0/24"), pfx("10.1.0.0/26"), pfx("9.9.9.9/32")];
        let plans = [
            ProbePlan::All,
            ProbePlan::Prefixes(vec![pfx("10.0.0.0/25"), pfx("172.16.0.0/30")]),
            ProbePlan::Addrs(HostSet::from_addrs(vec![5, 99, 0xFFFF_FFFF, 7])),
            ProbePlan::FreshSample {
                per_cycle: 500,
                seed: 3,
            },
        ];
        for plan in &plans {
            for cycle in [0u32, 4] {
                let mut streamed: Vec<u32> = plan.stream(cycle, &announced, 42).collect();
                streamed.sort();
                assert_eq!(
                    streamed,
                    plan.materialize(cycle, &announced),
                    "{plan:?} cycle {cycle}"
                );
            }
        }
    }

    #[test]
    fn v6_stream_matches_materialize_and_shards_partition() {
        let announced: Vec<Prefix<V6>> = vec![
            "2600::/116".parse().unwrap(),
            "2600:1::/120".parse().unwrap(),
            "2600:2::7/128".parse().unwrap(),
        ];
        let plans = [
            ProbePlan::<V6>::All,
            ProbePlan::Prefixes(vec!["2600::/118".parse().unwrap()]),
            ProbePlan::Addrs((0u128..64).map(|i| (0x2600u128 << 112) + i * 3).collect()),
            ProbePlan::FreshSample {
                per_cycle: 700,
                seed: 13,
            },
        ];
        for plan in &plans {
            let want = plan.materialize(1, &announced);
            let mut got: Vec<u128> = plan.stream(1, &announced, 9).collect();
            got.sort();
            assert_eq!(got, want, "{plan:?}");
            for total in [2u64, 3, 8] {
                let mut union: Vec<u128> = Vec::new();
                for shard in 0..total {
                    union.extend(plan.stream_shard(1, &announced, 9, shard, total));
                }
                union.sort();
                assert_eq!(union, want, "{plan:?} with {total} shards");
            }
        }
    }

    #[test]
    fn stream_shards_partition_the_targets() {
        let announced = vec![pfx("10.0.0.0/24"), pfx("9.9.9.9/32"), pfx("8.8.8.0/31")];
        let plans = [
            ProbePlan::All,
            ProbePlan::Addrs(HostSet::from_addrs((0..100).collect())),
            ProbePlan::FreshSample {
                per_cycle: 333,
                seed: 17,
            },
        ];
        for plan in &plans {
            let whole = plan.materialize(2, &announced);
            for total in [1u64, 2, 3, 8] {
                let mut union: Vec<u32> = Vec::new();
                for shard in 0..total {
                    union.extend(plan.stream_shard(2, &announced, 7, shard, total));
                }
                union.sort();
                assert_eq!(union, whole, "{plan:?} with {total} shards");
            }
        }
    }

    #[test]
    fn stream_order_is_permuted_but_seed_deterministic() {
        let plan = ProbePlan::Prefixes(vec![pfx("10.0.0.0/24")]);
        let a: Vec<u32> = plan.stream(0, &[], 1).collect();
        let b: Vec<u32> = plan.stream(0, &[], 1).collect();
        let c: Vec<u32> = plan.stream(0, &[], 2).collect();
        assert_eq!(a, b, "same perm_seed, same order");
        assert_ne!(a, c, "different perm_seed shuffles differently");
        let linear: Vec<u32> = (0..256).map(|i| 0x0A00_0000 + i).collect();
        assert_ne!(a, linear, "cyclic walk must not be linear");
    }

    #[test]
    fn single_address_prefixes_rotate_over_shards() {
        // 8 host prefixes, 4 shards: the ordinal rotation must spread
        // them 2 per shard instead of piling all on shard 0
        let hosts: Vec<Prefix> = (0..8u32).map(|i| Prefix::host(0x0808_0800 + i)).collect();
        let plan = ProbePlan::Prefixes(hosts);
        for shard in 0..4u64 {
            let got: Vec<u32> = plan.stream_shard(0, &[], 9, shard, 4).collect();
            assert_eq!(got.len(), 2, "shard {shard} got {got:?}");
        }
    }

    #[test]
    fn fresh_sample_stream_stays_in_announced_space() {
        let announced = vec![pfx("10.0.0.0/24"), pfx("192.168.0.0/30")];
        let plan = ProbePlan::FreshSample {
            per_cycle: 2000,
            seed: 5,
        };
        let drawn: Vec<u32> = plan.stream(1, &announced, 0).collect();
        assert_eq!(drawn.len(), 2000);
        assert!(drawn
            .iter()
            .all(|&a| announced.iter().any(|p| p.contains_addr(a))));
        // the tiny /30 is hit eventually (weighted with replacement)
        assert!(drawn.iter().any(|&a| a >= 0xC0A8_0000));
        // empty space yields an empty sample rather than spinning
        assert_eq!(plan.stream(1, &[], 0).count(), 0);
    }

    #[test]
    fn v6_fresh_sample_draws_from_wide_seeded_space() {
        // seeded space wider than u64 (two /48s = 2^81 addresses): the
        // u128 offset draw must stay inside the announced prefixes
        let announced: Vec<Prefix<V6>> =
            vec!["2600::/48".parse().unwrap(), "2610::/48".parse().unwrap()];
        let plan = ProbePlan::<V6>::FreshSample {
            per_cycle: 400,
            seed: 2,
        };
        let drawn: Vec<u128> = plan.stream(0, &announced, 0).collect();
        assert_eq!(drawn.len(), 400);
        assert!(drawn
            .iter()
            .all(|&a| announced.iter().any(|p| p.contains_addr(a))));
        // both prefixes are hit (equal weight)
        assert!(drawn.iter().any(|&a| a < (0x2610u128 << 112)));
        assert!(drawn.iter().any(|&a| a >= (0x2610u128 << 112)));
        // deterministic per (seed, cycle)
        let again: Vec<u128> = plan.stream(0, &announced, 7).collect();
        let mut x = drawn.clone();
        let mut y = again.clone();
        x.sort();
        y.sort();
        assert_eq!(x, y, "sampled multiset is walker-independent");
    }

    #[test]
    fn fresh_sample_observed_size_tracks_expectation() {
        let t = truth((0..4096u32).map(|i| 0x0A00_0000 + i).collect());
        let plan = ProbePlan::FreshSample {
            per_cycle: 1 << 15,
            seed: 9,
        };
        let announced = 1u64 << 16;
        let got = plan.observed(&t, 3, announced);
        // expectation: |truth| * per_cycle/announced = 4096 * 0.5 = 2048
        assert!((1800..2300).contains(&got.len()), "got {}", got.len());
        // deterministic
        assert_eq!(plan.observed(&t, 3, announced), got);
        // different cycles differ
        assert_ne!(plan.observed(&t, 4, announced), got);
    }
}

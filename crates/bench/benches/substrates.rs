//! Microbenches for the hot substrate paths: the trie, deaggregation, the
//! cyclic permutation, SipHash, set algebra, the host-set merge that
//! dominates strategy evaluation, the kernels of the TASS cycle loop
//! (the view counting sweep, an adaptive re-count of an observed view,
//! the density rank with its φ cutoff, and one campaign unit's
//! preparation), and the two per-probe kernels of the simulated network
//! (the responder's membership test and the fault draw). The wire codecs are
//! measured by `wire_codec`.
//!
//! Each record is nanoseconds per element. An operation too short to time
//! on its own runs `BATCH` times per sample.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use tass_bench::Bench;
use tass_core::{
    parse_spec, select_prefixes_budgeted, DensityCounts, ProbePlan, Strategy, UnitSeed,
};
use tass_model::{HostSet, HostSetView, PrefixCount, Protocol, Universe, UniverseConfig};
use tass_net::{deagg, Cyclic, Prefix, PrefixSet, PrefixTrie, V4};
use tass_scan::siphash::SipHash24;
use tass_scan::Responder;

/// Calls per sample for single-element operations.
const BATCH: u64 = 10_000;

fn random_prefixes(n: usize, seed: u64) -> Vec<Prefix> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let len = rng.random_range(8u8..=24);
            Prefix::new_truncate(rng.random::<u32>(), len).expect("len <= 32")
        })
        .collect()
}

fn bench_trie(bench: &mut Bench) {
    for n in [10_000usize, 100_000] {
        let prefixes = random_prefixes(n, 1);
        let trie: PrefixTrie<u32> = prefixes
            .iter()
            .enumerate()
            .map(|(i, &p)| (p, i as u32))
            .collect();
        let mut rng = SmallRng::seed_from_u64(2);
        let addrs: Vec<u32> = (0..10_000).map(|_| rng.random()).collect();
        let queries = addrs.len() as u64;
        bench.ns_per_element(&format!("trie/longest_match/{n}"), queries, || {
            addrs
                .iter()
                .filter(|&&a| trie.longest_match(black_box(a)).is_some())
                .count()
        });
        bench.ns_per_element(&format!("trie/shortest_match/{n}"), queries, || {
            addrs
                .iter()
                .filter(|&&a| trie.shortest_match(black_box(a)).is_some())
                .count()
        });
        bench.ns_per_element(&format!("trie/build/{n}"), n as u64, || {
            let t: PrefixTrie<()> = prefixes.iter().map(|&p| (p, ())).collect();
            t.len()
        });
    }
}

fn bench_deagg(bench: &mut Bench) {
    let scen = tass_bench::scenario();
    let prefixes: Vec<Prefix> = scen.universe.topology().synth.table.prefixes().collect();
    bench.ns_per_element(
        &format!("deaggregation/table_{}_entries", prefixes.len()),
        prefixes.len() as u64,
        || deagg::deaggregate_table(prefixes.iter().copied()).len(),
    );
    // the paper's Figure 2 case, isolated
    let root: Prefix = "100.0.0.0/8".parse().expect("static");
    let inner: Prefix = "100.0.0.0/24".parse().expect("static");
    bench.ns_per_element("deaggregation/single_deep_split", 1, || {
        deagg::partition_preserving(black_box(root), &[black_box(inner)]).len()
    });
}

fn bench_cyclic(bench: &mut Bench) {
    let mut rng = SmallRng::seed_from_u64(3);
    let cyc = Cyclic::ipv4(&mut rng);
    bench.ns_per_element("cyclic/ipv4_walk_1M", 1_000_000, || {
        cyc.iter().take(1_000_000).fold(0u64, |acc, e| acc ^ e)
    });
    bench.ns_per_element("cyclic/construct_random_generator", BATCH, || {
        (0..BATCH)
            .map(|_| {
                let mut rng = SmallRng::seed_from_u64(rng.random());
                Cyclic::ipv4(&mut rng).generator()
            })
            .fold(0u64, |acc, g| acc ^ g)
    });
}

fn bench_siphash(bench: &mut Bench) {
    let h = SipHash24::new(0xA, 0xB);
    let mut a = 0u32;
    bench.ns_per_element("siphash/probe_validation", BATCH, || {
        for _ in 0..BATCH {
            a = a.wrapping_add(1);
            black_box(h.probe_validation::<V4>(black_box(a)));
        }
    });
}

fn bench_prefix_set(bench: &mut Bench) {
    let prefixes = random_prefixes(10_000, 5);
    let n = prefixes.len() as u64;
    bench.ns_per_element("prefix_set/from_prefixes_10k", n, || {
        PrefixSet::from_prefixes(prefixes.iter().copied()).num_addrs()
    });
    let set = PrefixSet::from_prefixes(prefixes.iter().copied());
    let mut rng = SmallRng::seed_from_u64(6);
    let addrs: Vec<u32> = (0..10_000).map(|_| rng.random()).collect();
    bench.ns_per_element("prefix_set/contains_10k_queries", n, || {
        addrs.iter().filter(|&&a| set.contains_addr(a)).count()
    });
}

fn bench_host_set(bench: &mut Bench) {
    let mut rng = SmallRng::seed_from_u64(7);
    let a: HostSet = (0..500_000).map(|_| rng.random::<u32>()).collect();
    let b: HostSet = (0..500_000).map(|_| rng.random::<u32>()).collect();
    bench.ns_per_element("host_set/intersection_500k", 500_000, || {
        a.intersection_count(black_box(&b))
    });
    let p: Prefix = "128.0.0.0/2".parse().expect("static");
    bench.ns_per_element("host_set/count_in_prefix", 1, || {
        a.count_in_prefix(black_box(p))
    });
}

/// The cycle-loop kernels on a universe of perfbench `replay`'s shape:
/// 4 000 small (/22–/24) l-prefixes at host scale 150, counted over the
/// HTTP m-view at t₀. `host_set/count_view` is the bulk sweep every
/// `prepare` and re-seed runs; `density/rank_view` is what an adaptive
/// re-selection runs on maintained counts (stats, linear rank, φ = 0.95
/// cutoff). Both are per view unit. `host_set/recount_view` is an
/// adaptive re-count: the observed view of one
/// `adaptive-tass:more:0.95:0.02` plan at t₀, counted by its own planned
/// prefixes, per planned unit. `campaign/prepare_unit` prepares the
/// three lanes of one `replay` unit (tass, reseeding-tass and
/// adaptive-tass, all on the m-view at φ = 0.95) from t₀, per lane: each
/// lane alone with `prepare`, and all three with `prepare_in` on one
/// shared memo, which sweeps and selects once for the unit.
fn bench_cycle_kernels(bench: &mut Bench) {
    let universe = Universe::generate(&compact_universe(5, 4_000));
    let view = &universe.topology().m_view;
    let t0 = universe.snapshot(0, Protocol::Http);
    let hosts = &t0.hosts;
    let units = view.len() as u64;
    let mut counts = Vec::with_capacity(view.len());
    bench.ns_per_element("host_set/count_view", units, || {
        counts.clear();
        hosts.count_prefixes_into(view.units().iter().map(|u| u.prefix), &mut counts);
        counts.len()
    });
    bench.ns_per_element("density/rank_view", units, || {
        let stats = DensityCounts::from_unit_counts(view, black_box(&counts));
        select_prefixes_budgeted(stats, 0.95).0.k
    });
    let (sel, _) = select_prefixes_budgeted(DensityCounts::from_unit_counts(view, &counts), 0.95);
    assert_eq!(counts.len(), view.len(), "one count per view unit");
    assert!(sel.k > 0 && sel.achieved_coverage > 0.95, "φ = 0.95 cutoff");

    let kind = parse_spec("adaptive-tass:more:0.95:0.02").expect("valid spec");
    let ProbePlan::Prefixes(planned) = kind.prepare(universe.topology(), t0, 1).plan(0) else {
        panic!("an adaptive plan is a prefix list");
    };
    let observed = HostSetView::from_prefixes(hosts.clone(), &planned);
    let mut recounts = Vec::with_capacity(planned.len());
    bench.ns_per_element("host_set/recount_view", planned.len() as u64, || {
        recounts.clear();
        observed.count_prefixes_into(planned.iter().copied(), &mut recounts);
        recounts.len()
    });
    let mut swept = Vec::new();
    hosts.count_prefixes_into(planned.iter().copied(), &mut swept);
    assert_eq!(
        recounts, swept,
        "a planned unit's count in its observed view"
    );

    let topo = universe.topology();
    let lanes = [
        "tass:more:0.95",
        "reseeding-tass:more:0.95:3",
        "adaptive-tass:more:0.95:0.02",
    ]
    .map(|spec| parse_spec(spec).expect("valid spec"));
    let per_lane = || -> Vec<_> { lanes.iter().map(|k| k.prepare(topo, t0, 1)).collect() };
    let shared = || -> Vec<_> {
        let mut memo = UnitSeed::default();
        lanes
            .iter()
            .map(|k| k.prepare_in(topo, t0, 1, &mut memo))
            .collect()
    };
    let n = lanes.len() as u64;
    bench.ns_per_element("campaign/prepare_unit/per_lane", n, per_lane);
    bench.ns_per_element("campaign/prepare_unit/shared_memo", n, shared);
    for (mut alone, mut memo) in per_lane().into_iter().zip(shared()) {
        assert_eq!(
            alone.plan(0),
            memo.plan(0),
            "a lane prepares the same either way"
        );
    }
}

/// A universe of `l_prefixes` small (/22–/24) l-prefixes at host scale
/// 150, the shape of perfbench's `replay` and `scan` universes.
fn compact_universe(seed: u64, l_prefixes: usize) -> UniverseConfig {
    let mut cfg = UniverseConfig::small(seed);
    cfg.synth.l_prefix_count = l_prefixes;
    for (_, class) in &mut cfg.synth.classes {
        class.l_lengths = vec![(22, 1.0), (23, 2.0), (24, 4.0)];
    }
    cfg.host_scale = 150.0;
    cfg
}

/// The network's per-probe kernels on perfbench `scan`'s shape: 600
/// l-prefixes, probed at the targets of one `adaptive-tass:more:0.95:0.02`
/// plan at t₀, answered from t₀'s HTTP hosts. `responder/is_open` is
/// the membership test every probe makes (most miss);
/// `siphash/fault_draw` is the keyed hash of one fault draw's 17-byte
/// input (the address widened to two words, then the direction). Both
/// are per target.
fn bench_probe_kernels(bench: &mut Bench) {
    let universe = Universe::generate(&compact_universe(8, 600));
    let t0 = universe.snapshot(0, Protocol::Http);
    let kind = parse_spec("adaptive-tass:more:0.95:0.02").expect("static spec");
    let plan = kind.prepare(universe.topology(), t0, 1).plan(0);
    let announced: Vec<Prefix> = universe
        .topology()
        .m_view
        .units()
        .iter()
        .map(|u| u.prefix)
        .collect();
    let targets: Vec<u32> = plan.stream(0, &announced, 1).collect();
    let n = targets.len() as u64;
    let responder = Responder::new().with_service(Protocol::Http, t0.hosts.clone());
    bench.ns_per_element("responder/is_open", n, || {
        targets
            .iter()
            .filter(|&&a| responder.is_open(black_box(a), 80))
            .count()
    });
    let key = SipHash24::new(0xA, 0xB);
    bench.ns_per_element("siphash/fault_draw", n, || {
        targets.iter().fold(0u64, |acc, &a| {
            acc ^ key.hash_words(&[u64::from(black_box(a)), 0], 17 << 56 | 1)
        })
    });
    let hits = targets
        .iter()
        .filter(|&&a| responder.is_open(a, 80))
        .count();
    let want = targets.iter().filter(|&&a| t0.hosts.contains(a)).count();
    assert_eq!(hits, want, "the index answers as the host set does");
    assert!(hits > 0 && hits < targets.len() / 4, "most probes miss");
}

fn main() {
    let mut bench = Bench::new("substrates");
    bench_trie(&mut bench);
    bench_deagg(&mut bench);
    bench_cyclic(&mut bench);
    bench_siphash(&mut bench);
    bench_prefix_set(&mut bench);
    bench_host_set(&mut bench);
    bench_cycle_kernels(&mut bench);
    bench_probe_kernels(&mut bench);
    bench.finish();
}

//! Property tests for the streaming plan layer.
//!
//! The properties that make streaming safe to trust:
//!
//! * a [`PlanStream`](tass::core::PlanStream) yields **exactly** the set
//!   a materialised plan would — no duplicates, no misses — for random
//!   prefix sets, random address sets, and random fresh-sample weights;
//! * shards partition the stream for any shard count;
//! * the cyclic permutation underneath covers each address of a random
//!   limit exactly once per cycle, sharded or not;
//! * the same laws hold for the generic layer at `u128` width:
//!   `Prefix<V6>` parse/format round-trips and canonicalises,
//!   `Cyclic<V6>` is exactly-once per cycle on small moduli, and v6
//!   streams shard-partition exactly like v4 ones.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use tass::core::ProbePlan;
use tass::model::HostSet;
use tass::net::cyclic::{is_prime, is_prime_u128, Cyclic};
use tass::net::{Prefix, V6};

/// Collapse random `(addr, len)` pairs into a sorted, disjoint prefix
/// set (overlapping candidates are dropped, keeping the earlier one).
fn disjoint_prefixes(raw: &[(u32, u8)]) -> Vec<Prefix> {
    let mut candidates: Vec<Prefix> = raw
        .iter()
        .map(|&(addr, len)| {
            Prefix::new_truncate(addr, 20 + len % 13).expect("len in 20..=32 is valid")
        })
        .collect();
    candidates.sort_unstable();
    let mut out: Vec<Prefix> = Vec::new();
    for p in candidates {
        if out.last().is_none_or(|q| q.last() < p.first()) {
            out.push(p);
        }
    }
    out
}

fn sorted(mut v: Vec<u32>) -> Vec<u32> {
    v.sort_unstable();
    v
}

proptest! {
    #[test]
    fn prefix_stream_yields_exactly_the_materialised_set(
        raw in proptest::collection::vec((any::<u32>(), any::<u8>()), 1..7),
        perm_seed in any::<u64>(),
    ) {
        let prefixes = disjoint_prefixes(&raw);
        prop_assume!(!prefixes.is_empty());
        let plan = ProbePlan::Prefixes(prefixes.clone());
        let want = plan.materialize(0, &[]);
        // no misses, no duplicates: the sorted stream IS the target set
        let got = sorted(plan.stream(0, &[], perm_seed).collect());
        prop_assert_eq!(&got, &want);
        // and `All` over the same prefixes as announced space agrees
        let all = sorted(ProbePlan::All.stream(0, &prefixes, perm_seed).collect());
        prop_assert_eq!(&all, &want);
    }

    #[test]
    fn stream_shards_partition_for_any_worker_count(
        raw in proptest::collection::vec((any::<u32>(), any::<u8>()), 1..6),
        perm_seed in any::<u64>(),
        total in 1u64..10,
    ) {
        let prefixes = disjoint_prefixes(&raw);
        prop_assume!(!prefixes.is_empty());
        let plan = ProbePlan::Prefixes(prefixes);
        let mut union: Vec<u32> = Vec::new();
        for shard in 0..total {
            union.extend(plan.stream_shard(0, &[], perm_seed, shard, total));
        }
        // partition = union covers everything AND sizes add up (no overlap)
        prop_assert_eq!(sorted(union), plan.materialize(0, &[]));
    }

    #[test]
    fn addr_stream_matches_hitlist_for_any_shard_count(
        addrs in proptest::collection::vec(any::<u32>(), 0..200),
        total in 1u64..6,
    ) {
        let plan: ProbePlan = ProbePlan::Addrs(HostSet::from_addrs(addrs));
        let want = plan.materialize(0, &[]);
        let mut union: Vec<u32> = Vec::new();
        for shard in 0..total {
            union.extend(plan.stream_shard(0, &[], 0, shard, total));
        }
        prop_assert_eq!(sorted(union), want);
    }

    #[test]
    fn fresh_sample_draws_exactly_per_cycle_weighted_into_space(
        raw in proptest::collection::vec((any::<u32>(), any::<u8>()), 1..5),
        per_cycle in 0u64..1500,
        seed in any::<u64>(),
        cycle in 0u32..5,
        total in 1u64..6,
    ) {
        let announced = disjoint_prefixes(&raw);
        prop_assume!(!announced.is_empty());
        let plan = ProbePlan::FreshSample { per_cycle, seed };
        let drawn: Vec<u32> = plan.stream(cycle, &announced, 0).collect();
        // exactly the advertised weight, every draw inside announced space
        prop_assert_eq!(drawn.len() as u64, per_cycle);
        prop_assert!(drawn
            .iter()
            .all(|&a| announced.iter().any(|p| p.contains_addr(a))));
        // deterministic in (seed, cycle), and shard-invariant as a multiset
        let again: Vec<u32> = plan.stream(cycle, &announced, 99).collect();
        prop_assert_eq!(&drawn, &again, "perm_seed must not change the sample");
        let mut union: Vec<u32> = Vec::new();
        for shard in 0..total {
            union.extend(plan.stream_shard(cycle, &announced, 0, shard, total));
        }
        prop_assert_eq!(sorted(union), sorted(drawn));
    }

    #[test]
    fn cyclic_iterator_covers_each_address_exactly_once_per_cycle(
        limit in 1u64..1800,
        seed in any::<u64>(),
        total in 1u64..5,
    ) {
        // smallest prime strictly above the limit, as the walks use
        let mut p = limit + 1;
        while !is_prime(p) {
            p += 1;
        }
        let mut rng = SmallRng::seed_from_u64(seed);
        let group: Cyclic = Cyclic::new(p, &mut rng).expect("p is prime");
        let mut addrs: Vec<u32> = (0..total)
            .flat_map(|s| group.addresses(s, total, limit))
            .collect();
        addrs.sort_unstable();
        let want: Vec<u32> = (0..limit as u32).collect();
        prop_assert_eq!(addrs, want, "one full cycle = one visit per address");
    }

    // ---- the generic layer at u128 width ----

    #[test]
    fn v6_prefix_parse_format_roundtrip_and_canonicalisation(
        addr in any::<u128>(),
        len in 0u8..=128,
    ) {
        // truncation canonicalises: the result reconstructs exactly and
        // still covers the seed address
        let p = Prefix::<V6>::new_truncate(addr, len).unwrap();
        prop_assert!(Prefix::<V6>::new(p.addr(), p.len()).is_ok());
        prop_assert!(p.contains_addr(addr));
        // text round-trip through RFC 5952 formatting
        let q: Prefix<V6> = p.to_string().parse().unwrap();
        prop_assert_eq!(p, q);
        // non-canonical text is rejected unless the host bits are zero
        if p.len() > 0 && !p.is_host() {
            let hosty = Prefix::<V6>::host(p.first() | 1);
            let non_canonical = format!("{}/{}", hosty.to_string().trim_end_matches("/128"), p.len());
            prop_assert!(non_canonical.parse::<Prefix<V6>>().is_err());
        }
    }

    #[test]
    fn v6_cyclic_exactly_once_per_cycle_on_small_moduli(
        limit in 1u64..1200,
        seed in any::<u64>(),
        total in 1u64..5,
    ) {
        let mut p = u128::from(limit) + 1;
        while !is_prime_u128(p) {
            p += 1;
        }
        let mut rng = SmallRng::seed_from_u64(seed);
        let group: Cyclic<V6> = Cyclic::new(p, &mut rng).expect("p is prime");
        let mut addrs: Vec<u128> = (0..total)
            .flat_map(|s| group.addresses(s, total, u128::from(limit)))
            .collect();
        addrs.sort_unstable();
        let want: Vec<u128> = (0..u128::from(limit)).collect();
        prop_assert_eq!(addrs, want, "one full v6 cycle = one visit per address");
    }

    #[test]
    fn v6_streams_shard_partition_at_u128_width(
        raw in proptest::collection::vec((any::<u128>(), any::<u8>()), 1..5),
        per_cycle in 0u64..600,
        sample_seed in any::<u64>(),
        perm_seed in any::<u64>(),
        total in 1u64..6,
    ) {
        // disjoint v6 prefixes at enumerable block scale (/116–/128),
        // spread across the full 128-bit space
        let mut candidates: Vec<Prefix<V6>> = raw
            .iter()
            .map(|&(addr, len)| {
                Prefix::<V6>::new_truncate(addr, 116 + len % 13).expect("len in 116..=128")
            })
            .collect();
        candidates.sort_unstable();
        let mut announced: Vec<Prefix<V6>> = Vec::new();
        for p in candidates {
            if announced.last().is_none_or(|q| q.last() < p.first()) {
                announced.push(p);
            }
        }
        prop_assume!(!announced.is_empty());

        for plan in [
            ProbePlan::<V6>::All,
            ProbePlan::FreshSample { per_cycle, seed: sample_seed },
        ] {
            let want = plan.materialize(3, &announced);
            let got: Vec<u128> = plan.stream(3, &announced, perm_seed).collect();
            let mut got_sorted = got;
            got_sorted.sort_unstable();
            prop_assert_eq!(&got_sorted, &want, "{:?}", plan);
            let mut union: Vec<u128> = Vec::new();
            for shard in 0..total {
                union.extend(plan.stream_shard(3, &announced, perm_seed, shard, total));
            }
            union.sort_unstable();
            prop_assert_eq!(&union, &want, "{:?} sharded {}", plan, total);
        }
    }
}

/// FNV-1a 64 over the 16 little-endian bytes of each address, in order:
/// a digest of a stream's exact permutation, not only of its coverage.
fn order_digest(addrs: impl Iterator<Item = u128>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for a in addrs {
        for b in a.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

#[test]
fn stream_order_is_pinned() {
    let plan = ProbePlan::Prefixes(
        [
            "10.0.0.0/22",
            "10.0.4.0/23",
            "10.0.6.0/24",
            "10.0.7.0/26",
            "10.0.7.64/32",
        ]
        .iter()
        .map(|p| p.parse::<Prefix>().expect("valid prefix"))
        .collect(),
    );
    assert_eq!(
        order_digest(plan.stream(0, &[], 7).map(u128::from)),
        0x33A8_F67A_80BC_67AE,
        "v4 stream order"
    );
    assert_eq!(
        order_digest(
            (0..3)
                .flat_map(|s| plan.stream_shard(0, &[], 7, s, 3))
                .map(u128::from)
        ),
        0xB159_4209_A21B_6B46,
        "v4 shard orders, concatenated"
    );
    let v6 = ProbePlan::<V6>::Prefixes(
        ["2600::/120", "2600::200/119"]
            .iter()
            .map(|p| p.parse::<Prefix<V6>>().expect("valid prefix"))
            .collect(),
    );
    assert_eq!(
        order_digest(v6.stream(0, &[], 7)),
        0xB9A3_0ACA_0D49_7AE9,
        "v6 stream order"
    );
}

//! The cycle loop: strategy selection, per-cycle feedback, re-ranking.
//!
//! Matrix campaigns spend their time in the *selection* layer, not the
//! probe path. This sweep measures cycles per second of
//! `CampaignPool::run_matrix` over the standard 4-protocol matrix for
//! the feedback strategies (`Tass`, `ReseedingTass`, `AdaptiveTass`) at
//! 1/2/4 workers, plus the bytes allocated per cycle (the counting global
//! allocator of `tass_bench::alloc`). The copy-free feedback claim itself — a cycle allocates
//! the same at N and 4N hosts — is asserted by
//! `campaign_cycle_allocation_does_not_grow_with_hosts` in
//! `tests/scan_alloc.rs`; this sweep reports the totals.
//!
//! Every timed run asserts the same cycle count, so a quick run
//! (`BENCH_QUICK=1`) is CI's check; throughput varies with the machine,
//! but the sweep structure, cycle counts and allocation numbers are
//! deterministic.

use tass_bench::alloc::{counted, CountingAlloc};
use tass_bench::{scenario, time, Bench};
use tass_bgp::ViewKind;
use tass_core::campaign::CampaignPool;
use tass_core::StrategyKind;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The feedback-strategy sweep: every strategy whose cycle loop reads
/// the ranking or the per-cycle responsive set.
fn sweep_kinds() -> Vec<(&'static str, StrategyKind)> {
    vec![
        (
            "tass",
            StrategyKind::Tass {
                view: ViewKind::MoreSpecific,
                phi: 0.95,
            },
        ),
        (
            "reseeding_tass",
            StrategyKind::ReseedingTass {
                view: ViewKind::MoreSpecific,
                phi: 0.95,
                delta_t: 2,
            },
        ),
        (
            "adaptive_tass",
            StrategyKind::AdaptiveTass {
                view: ViewKind::MoreSpecific,
                phi: 0.90,
                explore: 0.05,
            },
        ),
    ]
}

fn main() {
    let mut bench = Bench::new("campaign");
    let universe = &scenario().universe;
    let n = bench.samples();
    for (name, kind) in sweep_kinds() {
        for workers in [1usize, 2, 4] {
            let pool = CampaignPool::new(workers);
            let kinds = [kind];
            let matrix_cycles = || -> u64 {
                pool.run_matrix(universe, &kinds, 7)
                    .iter()
                    .map(|r| r.months.len() as u64)
                    .sum()
            };
            // the first run builds the snapshots' lazy indexes; the
            // allocation count starts after it
            let cycles = matrix_cycles();
            let ((_, bytes), cps) = counted(|| {
                time(n, || assert_eq!(matrix_cycles(), cycles)).map(|secs| cycles as f64 / secs)
            });
            // the timed runs plus the harness's warm-up run
            let runs = n as u64 + 1;
            let alloc_per_cycle = bytes / (cycles * runs);
            bench.record(
                &format!("{name}/x{workers}"),
                "cycles/s",
                cps,
                &[
                    ("strategy", &name.to_string()),
                    ("workers", &workers),
                    ("matrix_cycles", &cycles),
                    ("alloc_bytes_per_cycle", &alloc_per_cycle),
                ],
            );
        }
    }
    bench.finish();
}

//! One record per paper exhibit: regenerates each table/figure at bench
//! scale and measures the cost of doing so. The measured *values* land in
//! `results/` when run through the `repro` binary; these benches guard the
//! *cost* of every step of the reproduction pipeline, per DESIGN.md §4:
//!
//! | case                | exhibit            |
//! |---------------------|--------------------|
//! | `fig1_scoping`      | Figure 1           |
//! | `fig2_deagg`        | Figure 2           |
//! | `fig3_lengths`      | Figure 3           |
//! | `fig4_rank`         | Figure 4           |
//! | `table1_selection`  | Table 1            |
//! | `sec34_stats`       | §3.4 statistics    |
//! | `fig5_hitlist`      | Figure 5           |
//! | `fig6_campaign`     | Figure 6 (a and b) |
//! | `efficiency_claims` | abstract / §5      |
//! | `ablation_random`   | ablation (ours)    |
//! | `adaptive_feedback` | feedback loop (ours) |
//! | `scan_validation`   | engine-in-the-loop |
//! | `universe_generation` | the seeding "full scan" itself |

use std::hint::black_box;
use tass_bench::{scenario, time, Bench};
use tass_experiments::exhibits;
use tass_experiments::{Scenario, ScenarioConfig};

/// (bench case, exhibit id) in the order of the table above.
const EXHIBITS: &[(&str, &str)] = &[
    ("fig1_scoping", "fig1"),
    ("fig2_deagg", "fig2"),
    ("fig3_lengths", "fig3"),
    ("fig4_rank", "fig4"),
    ("table1_selection", "table1"),
    ("sec34_stats", "sec34"),
    ("fig5_hitlist", "fig5"),
    ("fig6_campaign", "fig6a"),
    ("efficiency_claims", "efficiency"),
    ("ablation_random", "ablation"),
    ("adaptive_feedback", "adaptive"),
    ("scan_validation", "scan_validation"),
];

fn main() {
    let mut bench = Bench::new("exhibits");
    let s = scenario();
    for &(case, id) in EXHIBITS {
        let f = exhibits::by_id(id).unwrap_or_else(|| panic!("exhibit {id} missing"));
        let stats = time(bench.samples(), || f(black_box(s)).text.len());
        bench.record(
            case,
            "ms",
            stats.map(|secs| secs * 1e3),
            &[("exhibit", &id.to_string())],
        );
    }
    let cfg = ScenarioConfig {
        seed: 0x17EA,
        l_prefix_count: 200,
        host_scale: 1.0,
        months: 6,
    };
    let generation = time(bench.samples(), || {
        Scenario::build(black_box(&cfg))
            .universe
            .snapshot(6, tass_model::Protocol::Http)
            .len()
    });
    bench.record(
        "universe_generation",
        "ms",
        generation.map(|secs| secs * 1e3),
        &[("l_prefix_count", &cfg.l_prefix_count)],
    );
    bench.finish();
}

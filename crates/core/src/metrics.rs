//! Accuracy and efficiency metrics.
//!
//! The paper's two axes: **accuracy** (the fraction of full-scan hosts a
//! strategy still finds, its "hitrate") and **efficiency** (successful
//! handshakes per connection attempt). The abstract's headline — "TASS
//! scans are 1.25 to 10 times more efficient … if researchers accept a
//! single-digit percentage reduction in host coverage" — is the
//! [`efficiency_ratio`] between a strategy and the periodic full scan.

use crate::strategy::Eval;
use serde::{Deserialize, Serialize};

/// One month's evaluation, tagged with its month index.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MonthEval {
    /// Months since the seeding scan.
    pub month: u32,
    /// The raw evaluation numbers.
    pub eval: Eval,
}

/// Efficiency of a strategy relative to a baseline (usually the full
/// scan): `(found_s / probes_s) / (found_b / probes_b)`.
///
/// Returns `f64::NAN` when either efficiency is undefined (zero probes or
/// zero found in the baseline).
pub fn efficiency_ratio(strategy: &Eval, baseline: &Eval) -> f64 {
    if strategy.probes == 0 || baseline.probes == 0 || baseline.found == 0 {
        return f64::NAN;
    }
    (strategy.found as f64 / strategy.probes as f64)
        / (baseline.found as f64 / baseline.probes as f64)
}

/// Traffic reduction of a strategy vs a baseline: `1 − probes_s/probes_b`.
pub fn traffic_reduction(strategy: &Eval, baseline: &Eval) -> f64 {
    if baseline.probes == 0 {
        return 0.0;
    }
    1.0 - strategy.probes as f64 / baseline.probes as f64
}

/// Average monthly hitrate decay over a series (linear fit slope through
/// the first and last points — the paper quotes "about 0.3 percent per
/// month" in exactly this sense).
pub fn monthly_decay(series: &[MonthEval]) -> f64 {
    if series.len() < 2 {
        return 0.0;
    }
    let first = &series[0];
    let last = &series[series.len() - 1];
    let months = f64::from(last.month - first.month);
    if months == 0.0 {
        return 0.0;
    }
    (first.eval.hitrate - last.eval.hitrate) / months
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn efficiency_ratio_basics() {
        // strategy: 90 hosts with 100 probes; baseline: 100 hosts with 1000
        // probes → ratio = 0.9 / 0.1 = 9
        let r = efficiency_ratio(&Eval::new(90, 100, 100), &Eval::new(100, 100, 1000));
        assert!((r - 9.0).abs() < 1e-12);
        // identical → 1
        let e = Eval::new(50, 100, 500);
        assert!((efficiency_ratio(&e, &e) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn efficiency_ratio_degenerate() {
        assert!(efficiency_ratio(&Eval::new(1, 1, 0), &Eval::new(1, 1, 1)).is_nan());
        assert!(efficiency_ratio(&Eval::new(1, 1, 1), &Eval::new(0, 1, 1)).is_nan());
    }

    #[test]
    fn traffic_reduction_basics() {
        let r = traffic_reduction(&Eval::new(0, 0, 250), &Eval::new(0, 0, 1000));
        assert!((r - 0.75).abs() < 1e-12);
        assert_eq!(
            traffic_reduction(&Eval::new(0, 0, 1), &Eval::new(0, 0, 0)),
            0.0
        );
    }

    #[test]
    fn monthly_decay_from_series() {
        let series = vec![
            MonthEval {
                month: 0,
                eval: Eval::new(100, 100, 10),
            },
            MonthEval {
                month: 3,
                eval: Eval::new(97, 100, 10),
            },
            MonthEval {
                month: 6,
                eval: Eval::new(94, 100, 10),
            },
        ];
        let d = monthly_decay(&series);
        assert!((d - 0.01).abs() < 1e-12, "1% per month, got {d}");
        assert_eq!(monthly_decay(&series[..1]), 0.0);
        assert_eq!(monthly_decay(&[]), 0.0);
    }
}

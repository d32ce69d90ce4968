//! Compact textual specs for the [`StrategyKind`] registry.
//!
//! One strategy, one line of colon-separated text — the form CLIs pass
//! on the command line (`tass-select replay --strategy tass:more:0.95`),
//! service clients POST over HTTP, and campaign results embed as their
//! job identity:
//!
//! ```text
//! full-scan                      ip-hitlist
//! tass:<less|more>:<phi>         random-sample:<fraction>
//! block24:<fraction>             random-prefix:<less|more>:<fraction>
//! reseeding-tass:<less|more>:<phi>:<dt|never>
//! adaptive-tass:<less|more>:<phi>:<explore>
//! ```
//!
//! [`parse_spec`] and [`StrategyKind::spec`] are exact inverses over the
//! whole registry: `parse_spec(&kind.spec()) == Ok(kind)` for every kind
//! (floats are rendered with Rust's shortest round-trip formatting, so
//! nothing is lost). `tass_experiments::selectcli::parse_strategy` is a
//! thin wrapper over [`parse_spec`].

use crate::strategy::{ReseedingTass, StrategyKind};
use std::fmt;
use tass_bgp::ViewKind;

/// A strategy spec that failed to parse: the offending text and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// The spec text as given.
    pub text: String,
    /// What was wrong with it.
    pub reason: String,
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad strategy {:?}: {}", self.text, self.reason)
    }
}

impl std::error::Error for SpecError {}

fn view_tag(view: ViewKind) -> &'static str {
    match view {
        ViewKind::LessSpecific => "less",
        ViewKind::MoreSpecific => "more",
    }
}

/// Parse a compact strategy spec into its registry kind.
///
/// Every numeric parameter of the registry is a fraction of hosts or
/// space, so NaN and out-of-`[0, 1]` values are rejected here — a NaN φ
/// would otherwise run and silently select nothing.
pub fn parse_spec(text: &str) -> Result<StrategyKind, SpecError> {
    let bad = |reason: &str| SpecError {
        text: text.to_string(),
        reason: reason.to_string(),
    };
    let parts: Vec<&str> = text.split(':').collect();
    let view = |s: &str| match s {
        "less" => Ok(ViewKind::LessSpecific),
        "more" => Ok(ViewKind::MoreSpecific),
        _ => Err(bad("view must be `less` or `more`")),
    };
    let num = |s: &str, what: &str| {
        let v: f64 = s
            .parse()
            .map_err(|_| bad(&format!("{what} must be a number")))?;
        if !(0.0..=1.0).contains(&v) || v.is_nan() {
            return Err(bad(&format!("{what} must be within [0, 1]")));
        }
        // `-0` is within [0, 1] and compares equal to `0`, but renders as
        // "-0": fold it so one strategy has one spec and one label
        Ok(if v == 0.0 { 0.0 } else { v })
    };
    match parts.as_slice() {
        ["full-scan"] => Ok(StrategyKind::FullScan),
        ["ip-hitlist"] => Ok(StrategyKind::IpHitlist),
        ["tass", v, phi] => Ok(StrategyKind::Tass {
            view: view(v)?,
            phi: num(phi, "phi")?,
        }),
        ["random-sample", f] => Ok(StrategyKind::RandomSample {
            fraction: num(f, "fraction")?,
        }),
        ["block24", f] => Ok(StrategyKind::Block24Sample {
            fraction: num(f, "fraction")?,
        }),
        ["random-prefix", v, f] => Ok(StrategyKind::RandomPrefix {
            view: view(v)?,
            space_fraction: num(f, "fraction")?,
        }),
        ["reseeding-tass", v, phi, dt] => Ok(StrategyKind::ReseedingTass {
            view: view(v)?,
            phi: num(phi, "phi")?,
            delta_t: if *dt == "never" {
                ReseedingTass::NEVER
            } else {
                dt.parse::<u32>()
                    .map_err(|_| bad("dt must be an integer or `never`"))?
            },
        }),
        ["adaptive-tass", v, phi, explore] => Ok(StrategyKind::AdaptiveTass {
            view: view(v)?,
            phi: num(phi, "phi")?,
            explore: num(explore, "explore")?,
        }),
        _ => Err(bad(
            "expected full-scan | ip-hitlist | tass:VIEW:PHI | random-sample:F | \
             block24:F | random-prefix:VIEW:F | reseeding-tass:VIEW:PHI:DT | \
             adaptive-tass:VIEW:PHI:EXPLORE",
        )),
    }
}

impl StrategyKind {
    /// The canonical compact spec of this kind — the exact inverse of
    /// [`parse_spec`]. This is the stable job-identity string campaign
    /// results carry (see [`crate::campaign::CampaignJob`]).
    pub fn spec(&self) -> String {
        match *self {
            StrategyKind::FullScan => "full-scan".to_string(),
            StrategyKind::IpHitlist => "ip-hitlist".to_string(),
            StrategyKind::Tass { view, phi } => format!("tass:{}:{}", view_tag(view), phi),
            StrategyKind::RandomSample { fraction } => format!("random-sample:{fraction}"),
            StrategyKind::Block24Sample { fraction } => format!("block24:{fraction}"),
            StrategyKind::RandomPrefix {
                view,
                space_fraction,
            } => format!("random-prefix:{}:{}", view_tag(view), space_fraction),
            StrategyKind::ReseedingTass { view, phi, delta_t } => {
                if delta_t == ReseedingTass::NEVER {
                    format!("reseeding-tass:{}:{}:never", view_tag(view), phi)
                } else {
                    format!("reseeding-tass:{}:{}:{}", view_tag(view), phi, delta_t)
                }
            }
            StrategyKind::AdaptiveTass { view, phi, explore } => {
                format!("adaptive-tass:{}:{}:{}", view_tag(view), phi, explore)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::Strategy;

    fn registry_samples() -> Vec<StrategyKind> {
        vec![
            StrategyKind::FullScan,
            StrategyKind::IpHitlist,
            StrategyKind::Tass {
                view: ViewKind::LessSpecific,
                phi: 1.0,
            },
            StrategyKind::Tass {
                view: ViewKind::MoreSpecific,
                phi: 0.95,
            },
            StrategyKind::RandomSample { fraction: 0.05 },
            StrategyKind::Block24Sample { fraction: 0.01 },
            StrategyKind::RandomPrefix {
                view: ViewKind::MoreSpecific,
                space_fraction: 0.2,
            },
            StrategyKind::ReseedingTass {
                view: ViewKind::MoreSpecific,
                phi: 0.95,
                delta_t: 3,
            },
            StrategyKind::ReseedingTass {
                view: ViewKind::LessSpecific,
                phi: 1.0,
                delta_t: ReseedingTass::NEVER,
            },
            StrategyKind::AdaptiveTass {
                view: ViewKind::MoreSpecific,
                phi: 0.95,
                explore: 0.1,
            },
        ]
    }

    #[test]
    fn spec_roundtrips_across_the_registry() {
        for kind in registry_samples() {
            let spec = kind.spec();
            assert_eq!(
                parse_spec(&spec),
                Ok(kind),
                "spec {spec:?} must parse back to its kind"
            );
            // and the rendering is stable: parse → spec is idempotent
            assert_eq!(parse_spec(&spec).unwrap().spec(), spec);
        }
    }

    #[test]
    fn rejects_malformed_specs() {
        for bad in [
            "",
            "nope",
            "tass",
            "tass:sideways:0.9",
            "tass:more:phi",
            "tass:more:NaN",
            "tass:more:1.5",
            "random-sample:-0.5",
            "adaptive-tass:more:0.95:inf",
            "reseeding-tass:more:0.9:soon",
            "full-scan:extra",
        ] {
            let err = parse_spec(bad).unwrap_err();
            assert_eq!(err.text, bad);
            assert!(!err.to_string().is_empty());
        }
    }

    #[test]
    fn negative_zero_parses_to_the_canonical_spec() {
        for (text, canonical) in [
            ("tass:more:-0", "tass:more:0"),
            ("random-sample:-0", "random-sample:0"),
            ("adaptive-tass:less:-0.0:-0", "adaptive-tass:less:0:0"),
        ] {
            let kind = parse_spec(text).unwrap();
            let twin = parse_spec(canonical).unwrap();
            assert_eq!(kind.spec(), canonical, "{text}");
            assert_eq!(kind.label(), twin.label(), "{text}");
            assert_eq!(kind, twin);
        }
    }

    #[test]
    fn never_renders_as_the_word() {
        let kind = StrategyKind::ReseedingTass {
            view: ViewKind::LessSpecific,
            phi: 1.0,
            delta_t: ReseedingTass::NEVER,
        };
        assert_eq!(kind.spec(), "reseeding-tass:less:1:never");
    }
}

//! `NAME=SPEC` source definitions — how `tass-select serve --source`
//! populates the daemon's [`SourceRegistry`].
//!
//! ```text
//! demo=universe:1        a seeded synthetic IPv4 universe (small config)
//! real=corpus:/data/dir  an exported corpus directory, validated eagerly
//! ```
//!
//! tassd runs IPv4 campaigns only, so a `v6:SEED` spec is refused by
//! name rather than registered as a source no submission could use.

use std::path::Path;
use std::sync::Arc;
use tass_model::corpus::CorpusOptions;
use tass_model::registry::SourceRegistry;
use tass_model::universe::{Universe, UniverseConfig};

/// Parse one `NAME=SPEC` definition and register it.
pub fn add_source(registry: &mut SourceRegistry, definition: &str) -> Result<(), String> {
    add_source_with(registry, definition, &CorpusOptions::default())
}

/// [`add_source`] with explicit corpus cache options — how
/// `tass-select serve --cache-bytes` bounds the month cache of every
/// corpus source it registers (universe sources ignore the options).
pub fn add_source_with(
    registry: &mut SourceRegistry,
    definition: &str,
    corpus_opts: &CorpusOptions,
) -> Result<(), String> {
    let (name, spec) = definition
        .split_once('=')
        .ok_or_else(|| format!("source {definition:?} must be NAME=SPEC"))?;
    let err = |e: &dyn std::fmt::Display| format!("source {name:?}: {e}");
    match spec.split_once(':') {
        Some(("universe", seed)) => {
            let seed: u64 = seed
                .parse()
                .map_err(|_| err(&"universe seed must be an integer"))?;
            let u = Universe::generate(&UniverseConfig::small(seed));
            registry.insert_v4(name, Arc::new(u)).map_err(|e| err(&e))
        }
        Some(("v6", _)) => Err(err(&"v6 sources are not served; tassd runs IPv4 campaigns")),
        Some(("corpus", dir)) => registry
            .open_corpus_with(name, Path::new(dir), corpus_opts)
            .map_err(|e| err(&e)),
        _ => Err(format!(
            "source {name:?}: spec {spec:?} must be universe:SEED | corpus:DIR"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn definitions_build_a_registry() {
        let mut reg = SourceRegistry::new();
        add_source(&mut reg, "demo=universe:1").unwrap();
        add_source(&mut reg, "two=universe:2").unwrap();
        assert_eq!(reg.names(), vec!["demo", "two"]);
        assert!(reg.get_v4("demo").is_some());
    }

    #[test]
    fn malformed_definitions_are_rejected_with_context() {
        let mut reg = SourceRegistry::new();
        for bad in [
            "no-equals",
            "x=unknown:1",
            "x=universe:notanumber",
            "x=v6:5",
            "x=corpus:/definitely/not/a/dir",
        ] {
            let e = add_source(&mut reg, bad).unwrap_err();
            assert!(!e.is_empty());
        }
        // duplicates surface the registry's typed error
        add_source(&mut reg, "d=universe:1").unwrap();
        let e = add_source(&mut reg, "d=universe:2").unwrap_err();
        assert!(e.contains("already registered"));
    }
}

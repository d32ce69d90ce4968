//! A named registry of [`GroundTruth`] sources — the catalogue a
//! resident campaign service serves from.
//!
//! A daemon that accepts campaign submissions needs to name its data
//! sources: synthetic [`crate::Universe`] scenarios, corpus directories
//! of archived monthly scans, or any user-provided `impl GroundTruth`.
//! The registry holds them as IPv4 trait objects behind one string
//! namespace, and answers the service's two questions: *describe every
//! source* ([`SourceRegistry::list`]) and *hand me a shareable source by
//! name* ([`SourceRegistry::get_v4`] — an `Arc`, because campaign
//! workers run on many threads).
//!
//! The registry is immutable once built (build it, then share it behind
//! an `Arc`): a resident service re-resolving names mid-campaign would
//! otherwise race its own reconfiguration.

use crate::corpus::{CorpusError, CorpusGroundTruth, CorpusOptions};
use crate::protocol::Protocol;
use crate::source::GroundTruth;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;
use std::sync::Arc;

/// A shareable v4 ground-truth source.
pub type SharedSource = Arc<dyn GroundTruth + Send + Sync>;

/// The service-facing description of one registered source.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SourceInfo {
    /// Registry name.
    pub name: String,
    /// Address family tag: always `"v4"`.
    pub family: String,
    /// Months after the seeding month t₀ (campaign cycles = `months + 1`).
    pub months: u32,
    /// Protocols the source holds snapshots for.
    pub protocols: Vec<Protocol>,
}

/// Registry failures, all typed — a service maps these to wire errors.
#[derive(Debug)]
pub enum RegistryError {
    /// The name is already registered.
    Duplicate {
        /// The contested name.
        name: String,
    },
    /// Empty names (or names with whitespace) are not addressable.
    BadName {
        /// The rejected name.
        name: String,
    },
    /// A corpus directory failed to open or validate.
    Corpus {
        /// The registry name the corpus was to be registered under.
        name: String,
        /// The underlying corpus failure.
        source: CorpusError,
    },
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::Duplicate { name } => {
                write!(f, "source {name:?} is already registered")
            }
            RegistryError::BadName { name } => {
                write!(
                    f,
                    "source name {name:?} must be non-empty without whitespace"
                )
            }
            RegistryError::Corpus { name, source } => {
                write!(f, "corpus source {name:?}: {source}")
            }
        }
    }
}

impl std::error::Error for RegistryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RegistryError::Corpus { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// A named, immutable-after-build catalogue of ground-truth sources.
#[derive(Default, Clone)]
pub struct SourceRegistry {
    entries: BTreeMap<String, SharedSource>,
}

impl SourceRegistry {
    /// An empty registry.
    pub fn new() -> SourceRegistry {
        SourceRegistry::default()
    }

    /// Register an IPv4 source under `name`.
    pub fn insert_v4(&mut self, name: &str, source: SharedSource) -> Result<(), RegistryError> {
        if name.is_empty() || name.chars().any(char::is_whitespace) {
            return Err(RegistryError::BadName {
                name: name.to_string(),
            });
        }
        if self.entries.contains_key(name) {
            return Err(RegistryError::Duplicate {
                name: name.to_string(),
            });
        }
        self.entries.insert(name.to_string(), source);
        Ok(())
    }

    /// Open a corpus directory with the given cache options
    /// ([`CorpusGroundTruth::open_with`]; this is how a service passes
    /// its `--cache-bytes` ceiling down to the month cache), validate it
    /// eagerly (a service should refuse to start on a corrupt corpus, not
    /// fail campaigns later), and register it under `name`.
    pub fn open_corpus_with(
        &mut self,
        name: &str,
        dir: &Path,
        opts: &CorpusOptions,
    ) -> Result<(), RegistryError> {
        let wrap = |source: CorpusError| RegistryError::Corpus {
            name: name.to_string(),
            source,
        };
        let corpus = CorpusGroundTruth::open_with(dir, opts).map_err(wrap)?;
        corpus.validate().map_err(wrap)?;
        self.insert_v4(name, Arc::new(corpus))
    }

    /// The source under `name`.
    pub fn get_v4(&self, name: &str) -> Option<SharedSource> {
        self.entries.get(name).map(Arc::clone)
    }

    /// Describe one source.
    pub fn info(&self, name: &str) -> Option<SourceInfo> {
        self.entries.get(name).map(|s| SourceInfo {
            name: name.to_string(),
            family: "v4".to_string(),
            months: s.months(),
            protocols: s.protocols(),
        })
    }

    /// Describe every source, name-sorted (the stable `GET /v1/sources`
    /// order).
    pub fn list(&self) -> Vec<SourceInfo> {
        self.entries
            .keys()
            .map(|name| self.info(name).expect("listed names resolve"))
            .collect()
    }

    /// Registered names, sorted.
    pub fn names(&self) -> Vec<&str> {
        self.entries.keys().map(String::as_str).collect()
    }

    /// Number of registered sources.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::export_universe;
    use crate::universe::{Universe, UniverseConfig};

    fn registry() -> SourceRegistry {
        let mut reg = SourceRegistry::new();
        reg.insert_v4(
            "small",
            Arc::new(Universe::generate(&UniverseConfig::small(3))),
        )
        .unwrap();
        reg.insert_v4(
            "other",
            Arc::new(Universe::generate(&UniverseConfig::small(5))),
        )
        .unwrap();
        reg
    }

    #[test]
    fn lookup_and_list_are_name_sorted_and_family_tagged() {
        let reg = registry();
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.names(), vec!["other", "small"]);
        let infos = reg.list();
        assert_eq!(infos[0].name, "other");
        assert_eq!(infos[1].name, "small");
        assert!(infos.iter().all(|info| info.family == "v4"));
        assert_eq!(infos[1].months, 6);
        assert_eq!(infos[1].protocols, Protocol::ALL.to_vec());
        assert!(reg.get_v4("small").is_some());
        assert!(reg.get_v4("nope").is_none());
        assert!(reg.info("nope").is_none());
    }

    #[test]
    fn duplicate_and_bad_names_are_typed_errors() {
        let mut reg = registry();
        let u = Arc::new(Universe::generate(&UniverseConfig::small(3)));
        assert!(matches!(
            reg.insert_v4("small", u.clone()),
            Err(RegistryError::Duplicate { name }) if name == "small"
        ));
        for bad in ["", "two words", "tab\tname"] {
            assert!(matches!(
                reg.insert_v4(bad, u.clone()),
                Err(RegistryError::BadName { .. })
            ));
        }
    }

    #[test]
    fn corpus_sources_open_validated() {
        let u = Universe::generate(&UniverseConfig::small(23));
        let dir = std::env::temp_dir().join(format!("tass-registry-corpus-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        export_universe(&u, &dir).unwrap();
        let mut reg = SourceRegistry::new();
        reg.open_corpus_with("archived", &dir, &CorpusOptions::default())
            .unwrap();
        let info = reg.info("archived").unwrap();
        assert_eq!(info.family, "v4");
        assert_eq!(info.months, u.months());
        // the registered corpus serves the same snapshots as the universe
        let src = reg.get_v4("archived").unwrap();
        let a = src.load_snapshot(3, Protocol::Http).unwrap();
        assert_eq!(&*a, u.snapshot(3, Protocol::Http));
        // a missing directory is a typed error naming the source
        let _ = std::fs::remove_dir_all(&dir);
        let err = reg
            .open_corpus_with("gone", &dir, &CorpusOptions::default())
            .unwrap_err();
        assert!(matches!(err, RegistryError::Corpus { ref name, .. } if name == "gone"));
        assert!(err.to_string().contains("gone"));
    }
}

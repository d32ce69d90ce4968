//! A named registry of [`GroundTruth`] sources — the catalogue a
//! resident campaign service serves from.
//!
//! A daemon that accepts campaign submissions needs to name its data
//! sources: synthetic [`crate::Universe`]/[`crate::V6Universe`] scenarios, corpus
//! directories of archived monthly scans, or any user-provided
//! `impl GroundTruth`. The registry holds them as trait objects behind
//! one string namespace, tagged by address family (the two families have
//! different seeding contexts, so they cannot share a trait object
//! type), and answers the service's two questions: *describe every
//! source* ([`SourceRegistry::list`]) and *hand me a shareable source by
//! name* ([`SourceRegistry::get_v4`] / [`SourceRegistry::get_v6`] —
//! `Arc`s, because campaign workers run on many threads).
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
use tass_net::V6;

/// A shareable v4 ground-truth source.
pub type SharedSource = Arc<dyn GroundTruth + Send + Sync>;
/// A shareable v6 ground-truth source.
pub type SharedSourceV6 = Arc<dyn GroundTruth<V6> + Send + Sync>;

/// One registered source, either family.
#[derive(Clone)]
pub enum SourceEntry {
    /// An IPv4 source (synthetic universe, corpus, custom impl).
    V4(SharedSource),
    /// An IPv6 source.
    V6(SharedSourceV6),
}

impl fmt::Debug for SourceEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SourceEntry::V4(s) => write!(
                f,
                "SourceEntry::V4(months: {}, protocols: {:?})",
                s.months(),
                s.protocols()
            ),
            SourceEntry::V6(s) => write!(
                f,
                "SourceEntry::V6(months: {}, protocols: {:?})",
                s.months(),
                s.protocols()
            ),
        }
    }
}

/// The service-facing description of one registered source.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SourceInfo {
    /// Registry name.
    pub name: String,
    /// Address family tag: `"v4"` or `"v6"`.
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
#[derive(Debug, Default, Clone)]
pub struct SourceRegistry {
    entries: BTreeMap<String, SourceEntry>,
}

impl SourceRegistry {
    /// An empty registry.
    pub fn new() -> SourceRegistry {
        SourceRegistry::default()
    }

    fn insert(&mut self, name: &str, entry: SourceEntry) -> Result<(), RegistryError> {
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
        self.entries.insert(name.to_string(), entry);
        Ok(())
    }

    /// Register an IPv4 source under `name`.
    pub fn insert_v4(&mut self, name: &str, source: SharedSource) -> Result<(), RegistryError> {
        self.insert(name, SourceEntry::V4(source))
    }

    /// Register an IPv6 source under `name`.
    pub fn insert_v6(&mut self, name: &str, source: SharedSourceV6) -> Result<(), RegistryError> {
        self.insert(name, SourceEntry::V6(source))
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

    /// The entry registered under `name`, any family.
    pub fn get(&self, name: &str) -> Option<&SourceEntry> {
        self.entries.get(name)
    }

    /// The IPv4 source under `name` (`None` if absent or v6).
    pub fn get_v4(&self, name: &str) -> Option<SharedSource> {
        match self.entries.get(name) {
            Some(SourceEntry::V4(s)) => Some(Arc::clone(s)),
            _ => None,
        }
    }

    /// The IPv6 source under `name` (`None` if absent or v4).
    pub fn get_v6(&self, name: &str) -> Option<SharedSourceV6> {
        match self.entries.get(name) {
            Some(SourceEntry::V6(s)) => Some(Arc::clone(s)),
            _ => None,
        }
    }

    /// Describe one source.
    pub fn info(&self, name: &str) -> Option<SourceInfo> {
        self.entries.get(name).map(|entry| match entry {
            SourceEntry::V4(s) => SourceInfo {
                name: name.to_string(),
                family: "v4".to_string(),
                months: s.months(),
                protocols: s.protocols(),
            },
            SourceEntry::V6(s) => SourceInfo {
                name: name.to_string(),
                family: "v6".to_string(),
                months: s.months(),
                protocols: s.protocols(),
            },
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
    use crate::universe::{Universe, UniverseConfig, V6Universe, V6UniverseConfig};

    fn registry() -> SourceRegistry {
        let mut reg = SourceRegistry::new();
        reg.insert_v4(
            "small",
            Arc::new(Universe::generate(&UniverseConfig::small(3))),
        )
        .unwrap();
        reg.insert_v6(
            "six",
            Arc::new(V6Universe::generate(&V6UniverseConfig::small(5))),
        )
        .unwrap();
        reg
    }

    #[test]
    fn lookup_and_list_are_name_sorted_and_family_tagged() {
        let reg = registry();
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.names(), vec!["six", "small"]);
        let infos = reg.list();
        assert_eq!(infos[0].name, "six");
        assert_eq!(infos[0].family, "v6");
        assert_eq!(infos[0].protocols, vec![Protocol::Http]);
        assert_eq!(infos[1].family, "v4");
        assert_eq!(infos[1].months, 6);
        assert_eq!(infos[1].protocols, Protocol::ALL.to_vec());
        // family-checked accessors
        assert!(reg.get_v4("small").is_some());
        assert!(reg.get_v4("six").is_none(), "six is a v6 source");
        assert!(reg.get_v6("six").is_some());
        assert!(reg.get_v6("nope").is_none());
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
        // cross-family name collisions are collisions all the same
        let v6 = Arc::new(V6Universe::generate(&V6UniverseConfig::small(5)));
        assert!(matches!(
            reg.insert_v6("small", v6),
            Err(RegistryError::Duplicate { .. })
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

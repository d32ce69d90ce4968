//! The `tass-select` command-line tool: TASS for real scan data.
//!
//! This is the artifact a downstream scanning project would actually use:
//! feed it a CAIDA pfx2as routing snapshot and the responsive-address list
//! from a full scan, get back the density-ranked prefix selection to use
//! for the next months of periodic scanning — in a format ZMap accepts as
//! a whitelist.

use std::fmt;
use std::path::Path;
use tass_bgp::{pfx2as, View, ViewKind};
use tass_core::campaign::{CampaignPool, CampaignResult};
use tass_core::density::rank_units;
use tass_core::select::{select_prefixes, Selection};
use tass_core::strategy::StrategyKind;
use tass_model::corpus::{
    stream_address_list_to_snapshot, AddressListError, CorpusBuilder, CorpusError,
    CorpusGroundTruth, CorpusOptions, IngestOptions,
};
use tass_model::{HostSet, Protocol};
use tass_net::V6;

/// Errors surfaced to the CLI user.
#[derive(Debug)]
pub enum CliError {
    /// The pfx2as input failed to parse.
    Pfx2As(pfx2as::Pfx2AsError),
    /// An address line failed to parse — carries the 1-based line, the
    /// offending text, and the parse failure (`BlocklistParseError`
    /// style).
    BadAddress(AddressListError),
    /// φ outside `[0, 1]`.
    BadPhi(f64),
    /// The routing table parsed but is empty.
    EmptyTable,
    /// No responsive addresses were attributable to the table.
    NoResponsiveHosts,
    /// A `--strategy` argument did not parse (see [`parse_strategy`]).
    BadStrategy {
        /// The argument text.
        text: String,
        /// What was wrong with it.
        reason: String,
    },
    /// The replay corpus failed to open or load.
    Corpus(CorpusError),
    /// An `ingest --list MONTH:PROTOCOL:FILE` spec did not parse.
    BadListSpec {
        /// The argument text.
        text: String,
        /// What was wrong with it.
        reason: String,
    },
    /// `ingest` was given nothing to ingest (no `--list`, no
    /// `--v6-hitlist`).
    NothingToIngest,
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Pfx2As(e) => write!(f, "{e}"),
            CliError::BadAddress(e) => write!(f, "{e}"),
            CliError::BadPhi(phi) => write!(f, "phi {phi} must be within [0, 1]"),
            CliError::EmptyTable => write!(f, "routing table is empty"),
            CliError::NoResponsiveHosts => {
                write!(f, "no responsive address falls inside the routing table")
            }
            CliError::BadStrategy { text, reason } => {
                write!(f, "bad strategy {text:?}: {reason}")
            }
            CliError::Corpus(e) => write!(f, "{e}"),
            CliError::BadListSpec { text, reason } => {
                write!(f, "bad list spec {text:?}: {reason}")
            }
            CliError::NothingToIngest => {
                write!(f, "nothing to ingest: give --list and/or --v6-hitlist")
            }
        }
    }
}

impl std::error::Error for CliError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CliError::Pfx2As(e) => Some(e),
            CliError::BadAddress(e) => Some(e),
            CliError::Corpus(e) => Some(e),
            _ => None,
        }
    }
}

/// Parse a responsive-address list: one dotted-quad per line, blank lines
/// and `#` comments ignored.
///
/// This is [`tass_model::corpus::parse_address_list`] (the same reader
/// corpus ingestion uses) with the error wrapped for the CLI: failures
/// carry the 1-based line number, the offending text, and the underlying
/// parse error — an IPv6 literal in the v4 list names its exact line.
pub fn parse_address_list(text: &str) -> Result<HostSet, CliError> {
    tass_model::corpus::parse_address_list(text).map_err(CliError::BadAddress)
}

/// The selection plus the numbers a CLI run reports.
#[derive(Debug, Clone)]
pub struct SelectOutcome {
    /// The TASS selection itself.
    pub selection: Selection,
    /// Hosts attributable to the table (the N of the ranking).
    pub attributed_hosts: u64,
    /// Hosts in the input list, total.
    pub input_hosts: u64,
    /// Scan units in the chosen view.
    pub view_units: usize,
    /// Announced address space of the table.
    pub announced_space: u64,
}

/// Run the full selection pipeline from raw text inputs.
pub fn run_select(
    pfx2as_text: &str,
    addresses_text: &str,
    view_kind: ViewKind,
    phi: f64,
) -> Result<SelectOutcome, CliError> {
    if !(0.0..=1.0).contains(&phi) || phi.is_nan() {
        return Err(CliError::BadPhi(phi));
    }
    let table = pfx2as::read_table(pfx2as_text.as_bytes()).map_err(CliError::Pfx2As)?;
    if table.is_empty() {
        return Err(CliError::EmptyTable);
    }
    let hosts = parse_address_list(addresses_text)?;
    let view = View::of(&table, view_kind);
    let rank = rank_units(&view, &hosts);
    if rank.total_hosts == 0 {
        return Err(CliError::NoResponsiveHosts);
    }
    let selection = select_prefixes(&rank, phi);
    Ok(SelectOutcome {
        attributed_hosts: rank.total_hosts,
        input_hosts: hosts.len() as u64,
        view_units: view.len(),
        announced_space: view.total_space(),
        selection,
    })
}

/// Parse a strategy spec from the CLI (`--strategy`): the registry's
/// whole [`StrategyKind`] surface in a compact colon-separated form.
///
/// ```text
/// full-scan                      ip-hitlist
/// tass:<less|more>:<phi>         random-sample:<fraction>
/// block24:<fraction>             random-prefix:<less|more>:<fraction>
/// reseeding-tass:<less|more>:<phi>:<dt|never>
/// adaptive-tass:<less|more>:<phi>:<explore>
/// ```
///
/// This is [`tass_core::spec::parse_spec`] — the same parser the `tassd`
/// service uses for submitted campaigns — with the error wrapped for the
/// CLI. [`StrategyKind::spec`] is its exact inverse.
pub fn parse_strategy(text: &str) -> Result<StrategyKind, CliError> {
    tass_core::spec::parse_spec(text).map_err(|e| CliError::BadStrategy {
        text: e.text,
        reason: e.reason,
    })
}

/// Replay a corpus directory through the pooled campaign matrix: every
/// given strategy over every protocol the corpus holds, exactly the
/// lifecycle loop the simulation runs — the corpus is just another
/// [`tass_model::GroundTruth`] source.
///
/// The corpus is [`validate`](CorpusGroundTruth::validate)d up front, so
/// a truncated, mislabelled, or topology-disagreeing snapshot file is a
/// typed [`CliError::Corpus`] here — never a panic inside a campaign
/// worker thread (the campaign driver itself uses the infallible
/// snapshot path).
pub fn run_replay(
    corpus_dir: &Path,
    kinds: &[StrategyKind],
    seed: u64,
) -> Result<Vec<CampaignResult>, CliError> {
    run_replay_with(corpus_dir, kinds, seed, &CorpusOptions::default())
}

/// [`run_replay`] with explicit month-cache options — how the CLI's
/// `--cache-bytes` ceiling reaches the corpus (results are identical at
/// any cache size; only load latency and peak memory change).
pub fn run_replay_with(
    corpus_dir: &Path,
    kinds: &[StrategyKind],
    seed: u64,
    opts: &CorpusOptions,
) -> Result<Vec<CampaignResult>, CliError> {
    let corpus = CorpusGroundTruth::open_with(corpus_dir, opts).map_err(CliError::Corpus)?;
    corpus.validate().map_err(CliError::Corpus)?;
    Ok(CampaignPool::from_env().run_matrix(&corpus, kinds, seed))
}

/// Parse one `MONTH:PROTOCOL:FILE` ingest spec (e.g. `0:http:scan0.txt`).
pub fn parse_list_spec(text: &str) -> Result<(u32, Protocol, std::path::PathBuf), CliError> {
    let bad = |reason: &str| CliError::BadListSpec {
        text: text.to_string(),
        reason: reason.to_string(),
    };
    let mut it = text.splitn(3, ':');
    let (Some(month), Some(proto), Some(file)) = (it.next(), it.next(), it.next()) else {
        return Err(bad("expected MONTH:PROTOCOL:FILE"));
    };
    let month: u32 = month.parse().map_err(|_| bad("month must be an integer"))?;
    let protocol: Protocol = proto.parse().map_err(|_| bad("unknown protocol tag"))?;
    if file.is_empty() {
        return Err(bad("file path is empty"));
    }
    Ok((month, protocol, std::path::PathBuf::from(file)))
}

/// What [`run_ingest`] produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IngestOutcome {
    /// IPv4 month lists ingested into the corpus.
    pub v4_lists: usize,
    /// Unique addresses in the converted IPv6 hitlist, when one was given.
    pub v6_hosts: Option<u64>,
    /// Whether a corpus manifest was written (requires ≥ 1 v4 list).
    pub manifest_written: bool,
}

/// Build a corpus directory from real scan data: a CAIDA RouteViews
/// pfx2as snapshot for the topology plus monthly responsive-address
/// lists, each ingested through the chunked parallel streaming path
/// ([`stream_address_list_to_snapshot`]) with O(workers · chunk) peak
/// memory. An IPv6 Hitlist file is converted the same way into a
/// standalone `TSS6` snapshot (`v6-hitlist.snap`, stored under the HTTP
/// protocol tag at month 0 — the hitlist is a responsive set, not a
/// protocol census). The manifest is only written when at least one v4
/// month list is given; a pure `--v6-hitlist` conversion leaves just
/// the topology and the v6 snapshot.
pub fn run_ingest(
    out_dir: &Path,
    pfx2as_text: &str,
    lists: &[(u32, Protocol, std::path::PathBuf)],
    v6_hitlist: Option<&Path>,
    opts: &IngestOptions,
) -> Result<IngestOutcome, CliError> {
    if lists.is_empty() && v6_hitlist.is_none() {
        return Err(CliError::NothingToIngest);
    }
    let table = pfx2as::read_table(pfx2as_text.as_bytes()).map_err(CliError::Pfx2As)?;
    if table.is_empty() {
        return Err(CliError::EmptyTable);
    }
    let mut builder = CorpusBuilder::create(out_dir, &table).map_err(CliError::Corpus)?;
    for (month, protocol, file) in lists {
        builder
            .add_address_list_file(*month, *protocol, file, opts)
            .map_err(CliError::Corpus)?;
    }
    let manifest_written = !lists.is_empty();
    if manifest_written {
        builder.finish().map_err(CliError::Corpus)?;
    }
    let v6_hosts = match v6_hitlist {
        Some(file) => Some(
            stream_address_list_to_snapshot::<V6>(
                file,
                &out_dir.join("v6-hitlist.snap"),
                0,
                Protocol::Http,
                opts,
            )
            .map_err(CliError::Corpus)?,
        ),
        None => None,
    };
    Ok(IngestOutcome {
        v4_lists: lists.len(),
        v6_hosts,
        manifest_written,
    })
}

/// Render replayed campaign results as an aligned table: one row per
/// `(protocol, strategy)` with probe cost and the hitrate at months
/// 0/1/3/final. A month the campaign never ran (past the corpus's
/// horizon) prints `-`, not a hitrate of zero.
pub fn render_replay(results: &[CampaignResult]) -> String {
    let mut t = crate::table::TextTable::new([
        "protocol",
        "strategy",
        "probes/cycle",
        "hit@0",
        "hit@1",
        "hit@3",
        "hit@final",
    ]);
    for r in results {
        let hit = |month: usize| {
            r.months
                .get(month)
                .map_or("-".to_string(), |m| format!("{:.4}", m.eval.hitrate))
        };
        t.row([
            r.protocol.name().to_string(),
            r.strategy.clone(),
            format!("{:.0}", r.avg_probes_per_cycle()),
            hit(0),
            hit(1),
            hit(3),
            format!("{:.4}", r.final_hitrate()),
        ]);
    }
    t.render()
}

/// Replayed results as CSV (`protocol,strategy,month,hitrate,probes`),
/// one row per campaign month — the machine-readable companion of
/// [`render_replay`].
pub fn replay_csv(results: &[CampaignResult]) -> String {
    let mut t =
        crate::table::TextTable::new(["protocol", "strategy", "month", "hitrate", "probes"]);
    for r in results {
        for m in &r.months {
            t.row([
                r.protocol.name().to_string(),
                r.strategy.clone(),
                m.month.to_string(),
                format!("{:.6}", m.eval.hitrate),
                m.eval.probes.to_string(),
            ]);
        }
    }
    t.to_csv()
}

/// Render the selected prefixes as a ZMap-compatible whitelist (one CIDR
/// per line, address order, with a provenance header comment).
pub fn to_whitelist(outcome: &SelectOutcome) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "# TASS selection: phi={} achieved={:.4} prefixes={} space={} ({:.2}% of announced)\n",
        outcome.selection.phi,
        outcome.selection.achieved_coverage,
        outcome.selection.k,
        outcome.selection.selected_space,
        100.0 * outcome.selection.space_fraction,
    ));
    for p in outcome.selection.sorted_prefixes() {
        out.push_str(&p.to_string());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tass_core::plan::ProbePlan;
    use tass_core::strategy::ReseedingTass;

    const TABLE: &str = "\
10.0.0.0\t22\t64500
10.0.1.0\t24\t64501
20.0.0.0\t24\t64502
30.0.0.0\t24\t64503
";

    fn addresses() -> String {
        let mut s = String::from("# full scan results\n");
        for i in 0..200u32 {
            s.push_str(&format!("10.0.1.{}\n", i % 256));
        }
        for i in 0..10u32 {
            s.push_str(&format!("20.0.0.{}\n", i * 20));
        }
        s.push_str("8.8.8.8\n"); // outside the table
        s
    }

    #[test]
    fn end_to_end_selection() {
        let out = run_select(TABLE, &addresses(), ViewKind::MoreSpecific, 0.9).unwrap();
        assert_eq!(out.input_hosts, 200u64 + 10 + 1);
        assert_eq!(
            out.attributed_hosts,
            out.input_hosts - 1,
            "8.8.8.8 unattributable"
        );
        // the dense announced /24 dominates; phi=0.9 should select it first
        let wl = to_whitelist(&out);
        assert!(wl.starts_with("# TASS selection"));
        assert!(wl.contains("10.0.1.0/24"));
        assert!(out.selection.achieved_coverage > 0.9);
        assert!(out.selection.space_fraction < 1.0);
    }

    #[test]
    fn view_kinds_differ() {
        let l = run_select(TABLE, &addresses(), ViewKind::LessSpecific, 1.0).unwrap();
        let m = run_select(TABLE, &addresses(), ViewKind::MoreSpecific, 1.0).unwrap();
        assert!(m.selection.selected_space < l.selection.selected_space);
        assert!(m.view_units > l.view_units);
    }

    #[test]
    fn address_list_tolerates_comments_and_blanks() {
        let hs = parse_address_list("# c\n\n1.2.3.4\n5.6.7.8 # inline\n").unwrap();
        assert_eq!(hs.len(), 2);
    }

    #[test]
    fn errors_are_specific() {
        assert!(matches!(
            run_select("garbage", "1.2.3.4\n", ViewKind::LessSpecific, 0.5),
            Err(CliError::Pfx2As(_))
        ));
        assert!(matches!(
            run_select(TABLE, "not-an-ip\n", ViewKind::LessSpecific, 0.5),
            Err(CliError::BadAddress(AddressListError { line: 1, .. }))
        ));
        assert!(matches!(
            run_select(TABLE, "1.2.3.4\n", ViewKind::LessSpecific, 1.5),
            Err(CliError::BadPhi(_))
        ));
        assert!(matches!(
            run_select("", "1.2.3.4\n", ViewKind::LessSpecific, 0.5),
            Err(CliError::EmptyTable)
        ));
        // addresses entirely outside the table
        assert!(matches!(
            run_select(TABLE, "8.8.8.8\n", ViewKind::LessSpecific, 0.5),
            Err(CliError::NoResponsiveHosts)
        ));
        // error display non-empty
        for e in [
            CliError::BadPhi(2.0),
            CliError::EmptyTable,
            CliError::NoResponsiveHosts,
            CliError::BadStrategy {
                text: "x".into(),
                reason: "y".into(),
            },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn address_errors_carry_line_context() {
        // regression: errors used to drop everything but a line number;
        // they now carry line, text, and source in the blocklist style
        let err = parse_address_list("1.2.3.4\n\n999.1.2.3\n").unwrap_err();
        let CliError::BadAddress(e) = err else {
            panic!("expected BadAddress");
        };
        assert_eq!(e.line, 3);
        assert_eq!(e.text, "999.1.2.3");
        assert!(e.to_string().contains("line 3"));
        assert!(e.to_string().contains("999.1.2.3"));
        use std::error::Error as _;
        assert!(e.source().is_some(), "underlying NetError is chained");
    }

    #[test]
    fn v6_line_in_v4_list_names_its_line() {
        let err = parse_address_list("10.0.0.1\n2001:db8::5\n10.0.0.2\n").unwrap_err();
        let CliError::BadAddress(e) = err else {
            panic!("expected BadAddress");
        };
        assert_eq!(e.line, 2);
        assert_eq!(e.text, "2001:db8::5");
        assert!(e.to_string().contains("2001:db8::5"));
    }

    #[test]
    fn strategy_specs_cover_the_registry() {
        assert_eq!(parse_strategy("full-scan").unwrap(), StrategyKind::FullScan);
        assert_eq!(
            parse_strategy("ip-hitlist").unwrap(),
            StrategyKind::IpHitlist
        );
        assert_eq!(
            parse_strategy("tass:more:0.95").unwrap(),
            StrategyKind::Tass {
                view: ViewKind::MoreSpecific,
                phi: 0.95
            }
        );
        assert_eq!(
            parse_strategy("random-sample:0.05").unwrap(),
            StrategyKind::RandomSample { fraction: 0.05 }
        );
        assert_eq!(
            parse_strategy("block24:0.01").unwrap(),
            StrategyKind::Block24Sample { fraction: 0.01 }
        );
        assert_eq!(
            parse_strategy("random-prefix:less:0.2").unwrap(),
            StrategyKind::RandomPrefix {
                view: ViewKind::LessSpecific,
                space_fraction: 0.2
            }
        );
        assert_eq!(
            parse_strategy("reseeding-tass:more:0.95:3").unwrap(),
            StrategyKind::ReseedingTass {
                view: ViewKind::MoreSpecific,
                phi: 0.95,
                delta_t: 3
            }
        );
        assert_eq!(
            parse_strategy("reseeding-tass:less:1:never").unwrap(),
            StrategyKind::ReseedingTass {
                view: ViewKind::LessSpecific,
                phi: 1.0,
                delta_t: ReseedingTass::NEVER
            }
        );
        assert_eq!(
            parse_strategy("adaptive-tass:more:0.95:0.1").unwrap(),
            StrategyKind::AdaptiveTass {
                view: ViewKind::MoreSpecific,
                phi: 0.95,
                explore: 0.1
            }
        );
        for bad in [
            "nope",
            "tass",
            "tass:sideways:0.9",
            "tass:more:phi",
            "tass:more:NaN",
            "tass:more:1.5",
            "random-sample:-0.5",
            "adaptive-tass:more:0.95:inf",
            "reseeding-tass:more:0.9:soon",
        ] {
            assert!(
                matches!(parse_strategy(bad), Err(CliError::BadStrategy { .. })),
                "{bad} must be rejected"
            );
        }
    }

    #[test]
    fn replay_drives_a_corpus_end_to_end() {
        use tass_model::{export_universe, Universe, UniverseConfig};
        let u = Universe::generate(&UniverseConfig::small(23));
        let dir =
            std::env::temp_dir().join(format!("tass-selectcli-replay-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        export_universe(&u, &dir).unwrap();
        let kinds = [
            StrategyKind::IpHitlist,
            parse_strategy("tass:more:0.95").unwrap(),
        ];
        let replayed = run_replay(&dir, &kinds, 23).unwrap();
        let direct = CampaignPool::from_env().run_matrix(&u, &kinds, 23);
        assert_eq!(replayed, direct, "replay must equal the direct run");
        let table = render_replay(&replayed);
        assert!(table.contains("HTTP") && table.contains("ip-hitlist"));
        let csv = replay_csv(&replayed);
        assert!(csv.lines().count() > replayed.len(), "one line per month");
        // a corpus that went bad after export (truncated snapshot file)
        // is a typed error from the up-front validate, not a worker panic
        let snap_path = dir.join("snapshots/m2-http.snap");
        let bytes = std::fs::read(&snap_path).unwrap();
        std::fs::write(&snap_path, &bytes[..bytes.len() - 1]).unwrap();
        assert!(matches!(
            run_replay(&dir, &kinds, 23),
            Err(CliError::Corpus(
                tass_model::corpus::CorpusError::Decode { .. }
            ))
        ));
        // a missing directory is a typed error too
        let _ = std::fs::remove_dir_all(&dir);
        assert!(matches!(
            run_replay(&dir, &kinds, 23),
            Err(CliError::Corpus(_))
        ));
    }

    #[test]
    fn ingest_builds_a_replayable_corpus_with_a_v6_hitlist() {
        let dir =
            std::env::temp_dir().join(format!("tass-selectcli-ingest-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // two months of "scan results" over the shared test table
        let m0 = dir.join("m0.txt");
        let m1 = dir.join("m1.txt");
        std::fs::write(&m0, "10.0.1.1\n10.0.1.2\n20.0.0.7\n").unwrap();
        std::fs::write(&m1, "10.0.1.2\n10.0.1.3\n").unwrap();
        let v6 = dir.join("hitlist6.txt");
        std::fs::write(&v6, "# hitlist\n2001:db8::1\n2001:db8::2\n2001:db8::1\n").unwrap();
        let out = dir.join("corpus");
        let lists = vec![
            parse_list_spec(&format!("0:http:{}", m0.display())).unwrap(),
            parse_list_spec(&format!("1:http:{}", m1.display())).unwrap(),
        ];
        let outcome =
            run_ingest(&out, TABLE, &lists, Some(&v6), &IngestOptions::default()).unwrap();
        assert_eq!(outcome.v4_lists, 2);
        assert_eq!(outcome.v6_hosts, Some(2), "hitlist deduplicated");
        assert!(outcome.manifest_written);
        // the ingested corpus opens, validates, and replays
        let replayed = run_replay(&out, &[StrategyKind::IpHitlist], 7).unwrap();
        assert!(!replayed.is_empty());
        // a month past the 2-month horizon never ran: `-`, not 0.0000
        let table = render_replay(&replayed);
        let row = table.lines().find(|l| l.contains("ip-hitlist")).unwrap();
        let cells: Vec<&str> = row.split_whitespace().rev().take(4).collect();
        assert_eq!(cells, ["0.5000", "-", "0.5000", "1.0000"], "{table}");
        // the v6 snapshot is a decodable TSS6 file
        let bytes = std::fs::read(out.join("v6-hitlist.snap")).unwrap();
        let snap = tass_model::Snapshot::<V6>::decode(&bytes).unwrap();
        assert_eq!(snap.hosts.len(), 2);
        // bad specs are typed errors
        assert!(matches!(
            parse_list_spec("zero:http:f"),
            Err(CliError::BadListSpec { .. })
        ));
        assert!(matches!(
            parse_list_spec("0:gopher:f"),
            Err(CliError::BadListSpec { .. })
        ));
        assert!(matches!(
            run_ingest(
                &dir.join("empty"),
                TABLE,
                &[],
                None,
                &IngestOptions::default()
            ),
            Err(CliError::NothingToIngest)
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn whitelist_is_zmap_parsable() {
        // our own Blocklist parser speaks the same CIDR-per-line format
        let out = run_select(TABLE, &addresses(), ViewKind::MoreSpecific, 1.0).unwrap();
        let wl = to_whitelist(&out);
        let parsed: tass_scan::Blocklist = tass_scan::Blocklist::parse(&wl).unwrap();
        assert_eq!(parsed.num_addrs(), out.selection.selected_space);
    }

    #[test]
    fn probe_plan_matches_whitelist() {
        let out = run_select(TABLE, &addresses(), ViewKind::MoreSpecific, 0.9).unwrap();
        // the whitelist lists the prefixes of the plan the campaign
        // simulation evaluates for the same selection, and both probe
        // the selected space
        let prefixes = out.selection.sorted_prefixes();
        let listed: Vec<tass_net::Prefix> = to_whitelist(&out)
            .lines()
            .filter(|line| !line.starts_with('#'))
            .map(|line| line.parse().unwrap())
            .collect();
        assert_eq!(listed, prefixes);
        assert_eq!(
            ProbePlan::Prefixes(prefixes).probe_count(out.announced_space),
            out.selection.selected_space
        );
    }
}

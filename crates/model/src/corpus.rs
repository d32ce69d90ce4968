//! On-disk scan corpora: the paper's "directory of monthly snapshots",
//! versioned and replayable.
//!
//! The paper's evaluation input is a corpus of real monthly full scans
//! over a CAIDA routing table. This module gives that corpus a concrete,
//! versioned on-disk layout and a lazy [`GroundTruth`] implementation
//! over it, so the same campaign loop that drives the synthetic
//! [`Universe`] replays archived data unmodified:
//!
//! ```text
//! corpus-dir/
//!   corpus.manifest       # versioned index (text, see CorpusManifest)
//!   topology.pfx2as       # CAIDA pfx2as routing table (tass-bgp reads it)
//!   snapshots/
//!     m0-ftp.snap         # Snapshot::encode binary, one per (month, proto)
//!     m0-http.snap
//!     …
//! ```
//!
//! Three ways in:
//!
//! * [`export_universe`] — serialise a generated [`Universe`] (the
//!   round-trip path the `corpus` exhibit proves lossless);
//! * [`CorpusBuilder`] — incremental ingestion of real data: a pfx2as
//!   table plus per-month binary snapshots or **plain-text address
//!   lists** (one address per line, the format full-scan tools emit),
//!   parsed by [`parse_address_list`] with line-context errors;
//! * hand-written — the manifest is plain text and the snapshot codec is
//!   [`Snapshot::encode`]/[`Snapshot::decode`].
//!
//! And one way out: [`CorpusGroundTruth::open`] validates the manifest
//! (version, completeness: every `(month, protocol)` cell present
//! exactly once), builds the [`Topology`] from the pfx2as table, and
//! then decodes **one month at a time on demand**, holding a small
//! bounded cache of decoded months — a multi-terabyte corpus never
//! materialises in memory. Every failure mode is a typed [`CorpusError`]
//! on the fallible API ([`GroundTruth::load_snapshot`],
//! [`CorpusGroundTruth::validate`]); run `validate()` before handing a
//! corpus of unknown provenance to the campaign driver, whose
//! convenience `snapshot()` path panics on load errors like
//! `Universe::snapshot` always has (the `tass-select replay` CLI does
//! exactly this, so bad corpora surface as errors, not panics).
//!
//! # Cost model at routed-v4 scale
//!
//! The replay path is engineered so that a month load costs one
//! sequential decode pass, and a cache hit costs no exclusive lock at
//! all:
//!
//! * **Decode-once month loads.** [`Snapshot::decode`] reads a snapshot
//!   file's sorted fixed-width LE address section into an owned sorted
//!   `Vec` in one fused pass (strict ascent checked on the way); the
//!   file buffer is dropped as soon as the month is decoded. The
//!   topology agreement check is a monotone counting sweep over the
//!   (sorted, disjoint) scan units of the corpus topology: hosts
//!   covered == hosts total ⇔ every host is attributable, so the
//!   common all-good case costs O(units · log gap) instead of one trie
//!   walk per host. Only on a mismatch does a second pass name the
//!   first offending address.
//! * **Read-optimized month cache.** Decoded months sit in a small
//!   vector behind a reader/writer lock with per-entry atomic
//!   recency stamps: a cache hit takes the shared side and bumps a
//!   stamp — workers replaying the same months never serialise on an
//!   exclusive lock. Eviction (least-recently-touched) happens only on
//!   miss, under the writer side, bounded by **both** an entry count
//!   and an optional byte ceiling ([`CorpusOptions::cache_bytes`] —
//!   a month is charged `len × width`, its decoded `Vec`, which is what
//!   eviction actually frees).
//! * **Streamed ingestion.** [`CorpusBuilder::add_address_list_file`]
//!   parses address lists in fixed-size chunks on worker threads,
//!   spills sorted runs, and k-way merges them straight into the
//!   aligned snapshot format — O(workers · chunk) peak memory however
//!   large the input, with deterministic (lowest-line-wins) errors.
//!   That is the one snapshot layout: [`Snapshot::decode`] reads it and
//!   rejects any other version with a typed error naming the file.
//!
//! Put together, replay peak RSS is bounded by the cache ceiling plus a
//! per-worker transient: `cache_bytes + workers × 2 × max_snapshot_bytes`
//! plus allocator slack. A worker runs one lockstep unit of campaigns
//! at a time (a serial pool: all of a protocol's campaigns; a wider
//! pool: one campaign), and a unit holds **one** evaluated month, shared
//! by all its campaigns and released before the next month loads; while
//! that next month decodes, the worker holds the file buffer plus the
//! `Vec` being filled. The `corpus_scale` bench
//! asserts this budget against `/proc` RSS on a routed-v4-scale corpus
//! every run.

use crate::protocol::Protocol;
use crate::snapshot::{DecodeError, HostSet, PrefixCount, Snapshot};
use crate::source::GroundTruth;
use crate::topology::Topology;
use crate::universe::Universe;
use std::collections::BTreeMap;
use std::collections::BinaryHeap;
use std::fmt;
use std::fs;
use std::io::{BufRead, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, RwLock};
use tass_bgp::{pfx2as, RouteTable, SynthTable};
use tass_net::{AddrFamily, NetError, V4};

/// Manifest file name inside a corpus directory.
pub const MANIFEST_FILE: &str = "corpus.manifest";
/// Topology file name inside a corpus directory.
pub const TOPOLOGY_FILE: &str = "topology.pfx2as";
/// Snapshot subdirectory inside a corpus directory.
pub const SNAPSHOT_DIR: &str = "snapshots";
/// The on-disk layout version this build reads and writes.
pub const CORPUS_VERSION: u32 = 1;

/// How many decoded months [`CorpusGroundTruth`] retains by default.
///
/// A serial campaign pool runs a protocol's strategies in one lockstep
/// unit and loads each month once for all of them, so that matrix needs
/// no cache hit at all. The cache serves what is left: a pool of several
/// workers, which runs one campaign per unit so its campaigns share
/// months only through here, and repeated replays of a corpus that fits.
/// Raise it with [`CorpusOptions::cache_snapshots`] when many
/// workers replay different protocols at once.
pub const DEFAULT_CACHE_SNAPSHOTS: usize = 8;

// ---------------------------------------------------------------- errors

/// A line of a plain-text address list that did not parse, in the same
/// line-context style as `tass_scan::BlocklistParseError`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AddressListError {
    /// 1-based line number of the bad entry.
    pub line: usize,
    /// The offending text (trimmed, comments stripped).
    pub text: String,
    /// Why it did not parse as an address of the list's family.
    pub error: NetError,
}

impl fmt::Display for AddressListError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "address list line {}: {:?}: {}",
            self.line, self.text, self.error
        )
    }
}

impl std::error::Error for AddressListError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

/// Everything that can go wrong ingesting, validating, or replaying a
/// corpus. Every variant is a condition real archived data exhibits;
/// none of them panics the replay loop.
#[derive(Debug)]
pub enum CorpusError {
    /// A filesystem operation failed.
    Io {
        /// The path involved.
        path: PathBuf,
        /// The underlying error, rendered.
        message: String,
    },
    /// A manifest line did not parse.
    Manifest {
        /// 1-based line number.
        line: usize,
        /// The offending text.
        text: String,
        /// What was wrong with it.
        reason: String,
    },
    /// The manifest declares a layout version this build does not read.
    UnsupportedVersion(u32),
    /// The pfx2as topology file did not parse.
    Pfx2As(pfx2as::Pfx2AsError),
    /// The topology parsed but contains no announcements.
    EmptyTopology,
    /// A snapshot file failed to decode.
    Decode {
        /// The snapshot file.
        path: PathBuf,
        /// The codec error.
        source: DecodeError,
    },
    /// A snapshot file decoded, but its header disagrees with the
    /// manifest slot pointing at it (wrong month or protocol — a sign of
    /// swapped or mislabelled files).
    SnapshotHeaderMismatch {
        /// The snapshot file.
        path: PathBuf,
        /// Month the manifest expects.
        expected_month: u32,
        /// Protocol the manifest expects.
        expected_protocol: Protocol,
        /// Month the file header carries.
        found_month: u32,
        /// Protocol the file header carries.
        found_protocol: Protocol,
    },
    /// A `(month, protocol)` cell has no snapshot (in the manifest, or
    /// asked of a source that does not reach that month).
    MissingMonth {
        /// The missing month.
        month: u32,
        /// The protocol asked for.
        protocol: Protocol,
    },
    /// Two snapshots claim the same `(month, protocol)` cell.
    DuplicateSnapshot {
        /// The duplicated month.
        month: u32,
        /// The duplicated protocol.
        protocol: Protocol,
    },
    /// The source has no snapshots for this protocol at all.
    MissingProtocol {
        /// The absent protocol.
        protocol: Protocol,
    },
    /// A snapshot carries a responsive host outside the announced space
    /// of the corpus topology — the snapshots and the routing table are
    /// not from the same measurement.
    TopologyMismatch {
        /// Month of the offending snapshot.
        month: u32,
        /// Protocol of the offending snapshot.
        protocol: Protocol,
        /// The first offending address, rendered.
        addr: String,
    },
    /// A plain-text address list failed to parse during ingestion.
    AddressList(AddressListError),
    /// A plain-text address-list *file* failed to parse during
    /// ingestion — the path makes multi-file ingest failures
    /// attributable to the input that carried the bad line.
    AddressListFile {
        /// The input file.
        path: PathBuf,
        /// The line-context parse failure inside it.
        source: AddressListError,
    },
}

impl fmt::Display for CorpusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CorpusError::Io { path, message } => {
                write!(f, "corpus: {}: {message}", path.display())
            }
            CorpusError::Manifest { line, text, reason } => {
                write!(f, "corpus manifest line {line}: {text:?}: {reason}")
            }
            CorpusError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "corpus: unsupported layout version {v} (this build reads {CORPUS_VERSION})"
                )
            }
            CorpusError::Pfx2As(e) => write!(f, "corpus topology: {e}"),
            CorpusError::EmptyTopology => write!(f, "corpus topology has no announcements"),
            CorpusError::Decode { path, source } => {
                write!(f, "corpus: {}: {source}", path.display())
            }
            CorpusError::SnapshotHeaderMismatch {
                path,
                expected_month,
                expected_protocol,
                found_month,
                found_protocol,
            } => write!(
                f,
                "corpus: {}: manifest says month {expected_month} {expected_protocol}, \
                 file header says month {found_month} {found_protocol}",
                path.display()
            ),
            CorpusError::MissingMonth { month, protocol } => {
                write!(f, "corpus: no snapshot for month {month} {protocol}")
            }
            CorpusError::DuplicateSnapshot { month, protocol } => {
                write!(f, "corpus: duplicate snapshot for month {month} {protocol}")
            }
            CorpusError::MissingProtocol { protocol } => {
                write!(f, "corpus: no snapshots for protocol {protocol}")
            }
            CorpusError::TopologyMismatch {
                month,
                protocol,
                addr,
            } => write!(
                f,
                "corpus: month {month} {protocol} host {addr} is outside the \
                 corpus topology's announced space"
            ),
            CorpusError::AddressList(e) => write!(f, "corpus: {e}"),
            CorpusError::AddressListFile { path, source } => {
                write!(f, "corpus: {}: {source}", path.display())
            }
        }
    }
}

impl std::error::Error for CorpusError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CorpusError::Pfx2As(e) => Some(e),
            CorpusError::Decode { source, .. } => Some(source),
            CorpusError::AddressList(e) => Some(e),
            CorpusError::AddressListFile { source, .. } => Some(source),
            _ => None,
        }
    }
}

fn io_err(path: &Path, e: std::io::Error) -> CorpusError {
    CorpusError::Io {
        path: path.to_path_buf(),
        message: e.to_string(),
    }
}

// ------------------------------------------------------- address lists

/// Parse a plain-text responsive-address list of any family: one address
/// per line, blank lines and `#` comments (whole-line or trailing)
/// ignored — the format full-scan tools like ZMap emit.
///
/// Errors carry the 1-based line number, the offending text, and the
/// parse failure, in the `BlocklistParseError` style: an IPv6 literal in
/// an IPv4 list names exactly the line that does not belong.
pub fn parse_address_list_family<F: AddrFamily>(
    text: &str,
) -> Result<HostSet<F>, AddressListError> {
    let mut addrs = Vec::new();
    parse_list_chunk::<F>(text, 0, &mut addrs)?;
    Ok(HostSet::from_addrs(addrs))
}

/// The one shared line grammar: parse every line of `chunk` (blank
/// lines and `#` comments ignored, whole-line or trailing) into
/// `addrs`, numbering errors from `base_line` — so the one-shot text
/// parser and the chunked streaming ingester cannot drift apart.
fn parse_list_chunk<F: AddrFamily>(
    chunk: &str,
    base_line: usize,
    addrs: &mut Vec<F::Addr>,
) -> Result<(), AddressListError> {
    for (i, raw) in chunk.lines().enumerate() {
        let line = match raw.split_once('#') {
            Some((before, _)) => before,
            None => raw,
        }
        .trim();
        if line.is_empty() {
            continue;
        }
        match F::parse_addr(line) {
            Some(a) => addrs.push(a),
            None => {
                return Err(AddressListError {
                    line: base_line + i + 1,
                    text: line.to_string(),
                    error: NetError::ParseError(line.to_string()),
                })
            }
        }
    }
    Ok(())
}

/// [`parse_address_list_family`] for the common IPv4 case.
pub fn parse_address_list(text: &str) -> Result<HostSet, AddressListError> {
    parse_address_list_family::<V4>(text)
}

// -------------------------------------------------- streamed ingestion

/// Tuning for the chunked streaming ingestion path
/// ([`CorpusBuilder::add_address_list_file`],
/// [`stream_address_list_to_snapshot`]).
#[derive(Debug, Clone)]
pub struct IngestOptions {
    /// Parser worker threads. Chunks are dealt round-robin, so peak
    /// memory is O(`workers` · `chunk_lines`).
    pub workers: usize,
    /// Input lines per chunk handed to a worker.
    pub chunk_lines: usize,
}

impl Default for IngestOptions {
    fn default() -> Self {
        IngestOptions {
            workers: 4,
            chunk_lines: 64 * 1024,
        }
    }
}

/// Ingest a plain-text address list **file** into one aligned snapshot
/// file with bounded memory: the input is read in fixed-size line
/// chunks, parsed and sorted on `opts.workers` threads, spilled as
/// sorted runs, and k-way merged (deduplicating) straight into the
/// [`Snapshot::encode`] layout. Peak memory is
/// O(workers · chunk), however large the input.
///
/// The produced set is exactly what [`parse_address_list_family`] over
/// the whole text would build (same line grammar, same sort + dedup);
/// parse failures are deterministic — the lowest offending line wins,
/// wrapped in [`CorpusError::AddressListFile`] naming `input`.
pub fn stream_address_list_to_snapshot<F: AddrFamily>(
    input: &Path,
    out: &Path,
    month: u32,
    protocol: Protocol,
    opts: &IngestOptions,
) -> Result<u64, CorpusError> {
    let width = usize::from(F::BITS / 8);
    let in_file = fs::File::open(input).map_err(|e| io_err(input, e))?;
    let mut reader = BufReader::new(in_file);
    let run_dir = out.with_extension("ingest-tmp");
    let _ = fs::remove_dir_all(&run_dir);
    fs::create_dir_all(&run_dir).map_err(|e| io_err(&run_dir, e))?;
    let workers = opts.workers.max(1);
    let chunk_lines = opts.chunk_lines.max(1);

    // Parse + sort + spill phase: chunks dealt round-robin onto one
    // bounded channel per worker (a receiver has a single consumer);
    // each worker spills one sorted, deduplicated run file per chunk.
    type RunList = Vec<(usize, PathBuf, usize)>;
    let spilled: Result<(RunList, Option<AddressListError>), CorpusError> =
        std::thread::scope(|s| {
            let mut senders = Vec::with_capacity(workers);
            let mut handles = Vec::with_capacity(workers);
            for _ in 0..workers {
                let (tx, rx) = mpsc::sync_channel::<(usize, usize, String)>(1);
                senders.push(tx);
                let run_dir = &run_dir;
                handles.push(s.spawn(move || {
                    let mut runs: RunList = Vec::new();
                    let mut first_err: Option<AddressListError> = None;
                    let mut addrs: Vec<F::Addr> = Vec::new();
                    for (seq, base_line, text) in rx {
                        if first_err.is_some() {
                            continue; // drain; the ingest already failed
                        }
                        addrs.clear();
                        if let Err(e) = parse_list_chunk::<F>(&text, base_line, &mut addrs) {
                            first_err = Some(e);
                            continue;
                        }
                        addrs.sort_unstable();
                        addrs.dedup();
                        let path = run_dir.join(format!("run-{seq}.tmp"));
                        let file = fs::File::create(&path).map_err(|e| io_err(&path, e))?;
                        let mut w = BufWriter::new(file);
                        for &a in &addrs {
                            w.write_all(&F::addr_to_u128(a).to_le_bytes()[..width])
                                .map_err(|e| io_err(&path, e))?;
                        }
                        w.flush().map_err(|e| io_err(&path, e))?;
                        runs.push((seq, path, addrs.len()));
                    }
                    Ok::<_, CorpusError>((runs, first_err))
                }));
            }
            let mut chunk = String::new();
            let mut line = String::new();
            let (mut seq, mut line_no, mut in_chunk) = (0usize, 0usize, 0usize);
            loop {
                line.clear();
                let n = reader.read_line(&mut line).map_err(|e| io_err(input, e))?;
                if n > 0 {
                    chunk.push_str(&line);
                    in_chunk += 1;
                }
                if in_chunk == chunk_lines || (n == 0 && in_chunk > 0) {
                    // a worker that already failed drains without
                    // parsing, so a closed channel cannot happen here
                    let msg = (seq, line_no, std::mem::take(&mut chunk));
                    let _ = senders[seq % workers].send(msg);
                    seq += 1;
                    line_no += in_chunk;
                    in_chunk = 0;
                }
                if n == 0 {
                    break;
                }
            }
            drop(senders);
            let mut runs: RunList = Vec::new();
            let mut parse_err: Option<AddressListError> = None;
            for h in handles {
                let (r, e) = h.join().expect("ingest worker panicked")?;
                runs.extend(r);
                // deterministic failure: the lowest line number wins,
                // whatever worker happened to hit it
                if let Some(e) = e {
                    if parse_err.as_ref().is_none_or(|p| e.line < p.line) {
                        parse_err = Some(e);
                    }
                }
            }
            Ok((runs, parse_err))
        });
    let (mut runs, parse_err) = match spilled {
        Ok(v) => v,
        Err(e) => {
            let _ = fs::remove_dir_all(&run_dir);
            return Err(e);
        }
    };
    if let Some(source) = parse_err {
        let _ = fs::remove_dir_all(&run_dir);
        return Err(CorpusError::AddressListFile {
            path: input.to_path_buf(),
            source,
        });
    }
    runs.sort_unstable_by_key(|&(seq, _, _)| seq);

    // Merge phase: k-way heap merge of the sorted runs, deduplicating,
    // streamed straight into the aligned layout with a placeholder
    // count that is patched once the merge is done.
    let merge = || -> Result<u64, CorpusError> {
        let tmp_out = out.with_extension("snap-ingest.tmp");
        let out_file = fs::File::create(&tmp_out).map_err(|e| io_err(&tmp_out, e))?;
        let mut w = BufWriter::new(out_file);
        w.write_all(&crate::snapshot::aligned_header::<F>(protocol, month, 0))
            .map_err(|e| io_err(&tmp_out, e))?;
        let mut readers = Vec::with_capacity(runs.len());
        for (_, path, count) in &runs {
            let f = fs::File::open(path).map_err(|e| io_err(path, e))?;
            readers.push((BufReader::new(f), *count, path.clone()));
        }
        let next = |i: usize,
                    readers: &mut Vec<(BufReader<fs::File>, usize, PathBuf)>|
         -> Result<Option<u128>, CorpusError> {
            let (r, remaining, path) = &mut readers[i];
            if *remaining == 0 {
                return Ok(None);
            }
            *remaining -= 1;
            let mut raw = [0u8; 16];
            r.read_exact(&mut raw[..width])
                .map_err(|e| io_err(path, e))?;
            Ok(Some(u128::from_le_bytes(raw)))
        };
        let mut heap: BinaryHeap<std::cmp::Reverse<(u128, usize)>> = BinaryHeap::new();
        for i in 0..readers.len() {
            if let Some(v) = next(i, &mut readers)? {
                heap.push(std::cmp::Reverse((v, i)));
            }
        }
        let mut count = 0u64;
        let mut prev: Option<u128> = None;
        while let Some(std::cmp::Reverse((v, i))) = heap.pop() {
            if prev != Some(v) {
                w.write_all(&v.to_le_bytes()[..width])
                    .map_err(|e| io_err(&tmp_out, e))?;
                count += 1;
                prev = Some(v);
            }
            if let Some(nv) = next(i, &mut readers)? {
                heap.push(std::cmp::Reverse((nv, i)));
            }
        }
        w.flush().map_err(|e| io_err(&tmp_out, e))?;
        let mut f = w
            .into_inner()
            .map_err(|e| io_err(&tmp_out, e.into_error()))?;
        f.seek(SeekFrom::Start(0))
            .map_err(|e| io_err(&tmp_out, e))?;
        f.write_all(&crate::snapshot::aligned_header::<F>(
            protocol, month, count,
        ))
        .map_err(|e| io_err(&tmp_out, e))?;
        drop(f);
        fs::rename(&tmp_out, out).map_err(|e| io_err(out, e))?;
        Ok(count)
    };
    let result = merge();
    let _ = fs::remove_dir_all(&run_dir);
    result
}

// ------------------------------------------------------------ manifest

/// The parsed corpus index: what months, protocols, and files a corpus
/// directory holds. Serialised as a plain-text file
/// ([`MANIFEST_FILE`]):
///
/// ```text
/// tass-corpus 1
/// months 6
/// protocols ftp http https cwmp
/// topology topology.pfx2as
/// snapshot 0 ftp snapshots/m0-ftp.snap
/// …
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorpusManifest {
    /// Layout version (see [`CORPUS_VERSION`]).
    pub version: u32,
    /// Months after t₀ (snapshots per protocol = `months + 1`).
    pub months: u32,
    /// Protocols the corpus covers, in manifest order.
    pub protocols: Vec<Protocol>,
    /// Topology file path, relative to the corpus directory.
    pub topology: String,
    /// Snapshot file paths by `(month, protocol)`, relative to the
    /// corpus directory.
    pub snapshots: BTreeMap<(u32, Protocol), String>,
}

impl CorpusManifest {
    /// Parse the manifest text format. Structural problems (bad
    /// directives, duplicate cells) are [`CorpusError::Manifest`] /
    /// [`CorpusError::DuplicateSnapshot`]; completeness is checked
    /// separately by [`CorpusManifest::check_complete`].
    pub fn parse(text: &str) -> Result<CorpusManifest, CorpusError> {
        let err = |line: usize, text: &str, reason: &str| CorpusError::Manifest {
            line,
            text: text.to_string(),
            reason: reason.to_string(),
        };
        let mut lines = Vec::new();
        for (i, raw) in text.lines().enumerate() {
            let t = raw.trim();
            if t.is_empty() || t.starts_with('#') {
                continue;
            }
            lines.push((i + 1, t));
        }
        let Some(&(first_no, first)) = lines.first() else {
            return Err(err(1, "", "empty manifest"));
        };
        let version = match first.strip_prefix("tass-corpus ") {
            Some(v) => v
                .trim()
                .parse::<u32>()
                .map_err(|_| err(first_no, first, "bad version number"))?,
            None => {
                return Err(err(
                    first_no,
                    first,
                    "expected `tass-corpus <version>` header",
                ))
            }
        };
        if version != CORPUS_VERSION {
            return Err(CorpusError::UnsupportedVersion(version));
        }

        let mut months: Option<u32> = None;
        let mut protocols: Vec<Protocol> = Vec::new();
        let mut topology: Option<String> = None;
        let mut snapshots: BTreeMap<(u32, Protocol), String> = BTreeMap::new();
        for &(no, line) in &lines[1..] {
            let (directive, rest) = line.split_once(char::is_whitespace).unwrap_or((line, ""));
            let rest = rest.trim();
            match directive {
                "months" => {
                    months = Some(rest.parse().map_err(|_| err(no, line, "bad month count"))?);
                }
                "protocols" => {
                    for tag in rest.split_whitespace() {
                        let p: Protocol =
                            tag.parse().map_err(|_| err(no, line, "unknown protocol"))?;
                        if protocols.contains(&p) {
                            return Err(err(no, line, "protocol listed twice"));
                        }
                        protocols.push(p);
                    }
                }
                "topology" => {
                    if rest.is_empty() {
                        return Err(err(no, line, "missing topology path"));
                    }
                    topology = Some(rest.to_string());
                }
                "snapshot" => {
                    let fields: Vec<&str> = rest.split_whitespace().collect();
                    let [month, proto, path] = fields.as_slice() else {
                        return Err(err(no, line, "expected `snapshot <month> <proto> <path>`"));
                    };
                    let month: u32 = month.parse().map_err(|_| err(no, line, "bad month"))?;
                    let proto: Protocol = proto
                        .parse()
                        .map_err(|_| err(no, line, "unknown protocol"))?;
                    if snapshots.insert((month, proto), path.to_string()).is_some() {
                        return Err(CorpusError::DuplicateSnapshot {
                            month,
                            protocol: proto,
                        });
                    }
                }
                _ => return Err(err(no, line, "unknown directive")),
            }
        }
        let months = months.ok_or_else(|| err(first_no, first, "missing `months` directive"))?;
        let topology =
            topology.ok_or_else(|| err(first_no, first, "missing `topology` directive"))?;
        if protocols.is_empty() {
            return Err(err(first_no, first, "missing `protocols` directive"));
        }
        Ok(CorpusManifest {
            version,
            months,
            protocols,
            topology,
            snapshots,
        })
    }

    /// Check the month × protocol matrix is fully populated: every
    /// `(0..=months, protocol)` cell has a snapshot entry.
    pub fn check_complete(&self) -> Result<(), CorpusError> {
        for &proto in &self.protocols {
            for month in 0..=self.months {
                if !self.snapshots.contains_key(&(month, proto)) {
                    return Err(CorpusError::MissingMonth {
                        month,
                        protocol: proto,
                    });
                }
            }
        }
        Ok(())
    }

    /// Render the manifest text (inverse of [`CorpusManifest::parse`]).
    pub fn render(&self) -> String {
        let mut out = format!("tass-corpus {}\n", self.version);
        out.push_str(&format!("months {}\n", self.months));
        let tags: Vec<&str> = self.protocols.iter().map(|p| p.tag()).collect();
        out.push_str(&format!("protocols {}\n", tags.join(" ")));
        out.push_str(&format!("topology {}\n", self.topology));
        for ((month, proto), path) in &self.snapshots {
            out.push_str(&format!("snapshot {month} {} {path}\n", proto.tag()));
        }
        out
    }
}

// ------------------------------------------------------------- builder

/// Incremental corpus writer: create against a routing table, add one
/// snapshot (binary or plain-text address list) per `(month, protocol)`,
/// then [`CorpusBuilder::finish`] to validate completeness and write the
/// manifest.
#[derive(Debug)]
pub struct CorpusBuilder {
    dir: PathBuf,
    protocols: Vec<Protocol>,
    snapshots: BTreeMap<(u32, Protocol), String>,
    max_month: u32,
}

impl CorpusBuilder {
    /// Create the corpus directory (and `snapshots/` inside it) and
    /// write the topology file from a routing table.
    pub fn create(dir: &Path, table: &RouteTable) -> Result<CorpusBuilder, CorpusError> {
        if table.is_empty() {
            return Err(CorpusError::EmptyTopology);
        }
        let snap_dir = dir.join(SNAPSHOT_DIR);
        fs::create_dir_all(&snap_dir).map_err(|e| io_err(&snap_dir, e))?;
        let topo_path = dir.join(TOPOLOGY_FILE);
        fs::write(&topo_path, pfx2as::write_table_str(table)).map_err(|e| io_err(&topo_path, e))?;
        Ok(CorpusBuilder {
            dir: dir.to_path_buf(),
            protocols: Vec::new(),
            snapshots: BTreeMap::new(),
            max_month: 0,
        })
    }

    /// Add one month's snapshot. The `(month, protocol)` cell must be
    /// new; a second claim is [`CorpusError::DuplicateSnapshot`].
    pub fn add_snapshot(&mut self, snap: &Snapshot) -> Result<(), CorpusError> {
        let key = (snap.month, snap.protocol);
        if self.snapshots.contains_key(&key) {
            return Err(CorpusError::DuplicateSnapshot {
                month: snap.month,
                protocol: snap.protocol,
            });
        }
        let rel = format!(
            "{SNAPSHOT_DIR}/m{}-{}.snap",
            snap.month,
            snap.protocol.tag()
        );
        let path = self.dir.join(&rel);
        fs::write(&path, snap.encode()).map_err(|e| io_err(&path, e))?;
        if !self.protocols.contains(&snap.protocol) {
            self.protocols.push(snap.protocol);
        }
        self.max_month = self.max_month.max(snap.month);
        self.snapshots.insert(key, rel);
        Ok(())
    }

    /// Ingest one month from a plain-text address list (see
    /// [`parse_address_list`]).
    pub fn add_address_list(
        &mut self,
        month: u32,
        protocol: Protocol,
        text: &str,
    ) -> Result<(), CorpusError> {
        let hosts = parse_address_list(text).map_err(CorpusError::AddressList)?;
        self.add_snapshot(&Snapshot::new(protocol, month, hosts))
    }

    /// Ingest one month from a plain-text address-list **file** through
    /// the chunked streaming path
    /// ([`stream_address_list_to_snapshot`]): O(workers · chunk) peak
    /// memory however large the list, written directly in the aligned
    /// snapshot layout. Produces the identical host set to reading the
    /// whole file through [`CorpusBuilder::add_address_list`].
    pub fn add_address_list_file(
        &mut self,
        month: u32,
        protocol: Protocol,
        input: &Path,
        opts: &IngestOptions,
    ) -> Result<(), CorpusError> {
        let key = (month, protocol);
        if self.snapshots.contains_key(&key) {
            return Err(CorpusError::DuplicateSnapshot { month, protocol });
        }
        let rel = format!("{SNAPSHOT_DIR}/m{month}-{}.snap", protocol.tag());
        let path = self.dir.join(&rel);
        stream_address_list_to_snapshot::<V4>(input, &path, month, protocol, opts)?;
        if !self.protocols.contains(&protocol) {
            self.protocols.push(protocol);
        }
        self.max_month = self.max_month.max(month);
        self.snapshots.insert(key, rel);
        Ok(())
    }

    /// Validate completeness (every `(month, protocol)` cell filled for
    /// every added protocol up to the highest month seen), write the
    /// manifest, and return it.
    pub fn finish(self) -> Result<CorpusManifest, CorpusError> {
        if self.protocols.is_empty() {
            return Err(CorpusError::Manifest {
                line: 0,
                text: String::new(),
                reason: "corpus has no snapshots".to_string(),
            });
        }
        let manifest = CorpusManifest {
            version: CORPUS_VERSION,
            months: self.max_month,
            protocols: self.protocols,
            topology: TOPOLOGY_FILE.to_string(),
            snapshots: self.snapshots,
        };
        manifest.check_complete()?;
        let path = self.dir.join(MANIFEST_FILE);
        fs::write(&path, manifest.render()).map_err(|e| io_err(&path, e))?;
        Ok(manifest)
    }
}

/// Export a generated [`Universe`] to a corpus directory: its routing
/// table as pfx2as text plus every `(month, protocol)` snapshot in the
/// binary codec. The `corpus` exhibit and `tests/corpus.rs` prove the
/// round-trip is lossless: replaying the directory yields byte-identical
/// campaign results to running on the universe directly.
pub fn export_universe(universe: &Universe, dir: &Path) -> Result<CorpusManifest, CorpusError> {
    let mut builder = CorpusBuilder::create(dir, &universe.topology().synth.table)?;
    for proto in Protocol::ALL {
        for month in 0..=universe.months() {
            builder.add_snapshot(universe.snapshot(month, proto))?;
        }
    }
    builder.finish()
}

// -------------------------------------------------------------- replay

/// How a [`CorpusGroundTruth`] bounds its decoded-month cache.
#[derive(Debug, Clone)]
pub struct CorpusOptions {
    /// Maximum decoded months retained (at least 1 is always kept so
    /// the month being replayed cannot thrash).
    pub cache_snapshots: usize,
    /// Optional hard ceiling on resident snapshot bytes
    /// ([`Snapshot::resident_bytes`] — `len × width` of each decoded
    /// month). Eviction drops least-recently-touched months until the
    /// total fits; a single month larger than the ceiling
    /// still stays resident while it is being served.
    pub cache_bytes: Option<usize>,
}

impl Default for CorpusOptions {
    fn default() -> Self {
        CorpusOptions {
            cache_snapshots: DEFAULT_CACHE_SNAPSHOTS,
            cache_bytes: None,
        }
    }
}

/// One cached month: the decoded snapshot, its byte charge, and an
/// atomic recency stamp (bumped on hit without any exclusive lock).
#[derive(Debug)]
struct CacheEntry {
    key: (u32, Protocol),
    snap: Arc<Snapshot>,
    bytes: usize,
    touched: AtomicU64,
}

/// The decoded-month cache: a small vector behind a reader/writer lock.
/// Hits take the shared side (linear scan at single-digit sizes beats
/// any map) and bump the entry's recency stamp with a relaxed store —
/// replay workers sharing warm months never serialise. Only a miss
/// takes the writer side, inserting and evicting
/// least-recently-touched entries down to both budgets.
#[derive(Debug)]
struct SnapshotCache {
    max_entries: usize,
    max_bytes: Option<usize>,
    clock: AtomicU64,
    entries: RwLock<Vec<CacheEntry>>,
}

impl SnapshotCache {
    fn new(max_entries: usize, max_bytes: Option<usize>) -> SnapshotCache {
        SnapshotCache {
            max_entries: max_entries.max(1),
            max_bytes,
            clock: AtomicU64::new(0),
            entries: RwLock::new(Vec::new()),
        }
    }

    fn get(&self, key: (u32, Protocol)) -> Option<Arc<Snapshot>> {
        let entries = self.entries.read().expect("snapshot cache poisoned");
        let e = entries.iter().find(|e| e.key == key)?;
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        e.touched.store(stamp, Ordering::Relaxed);
        Some(Arc::clone(&e.snap))
    }

    fn put(&self, key: (u32, Protocol), snap: Arc<Snapshot>) {
        let bytes = snap.resident_bytes();
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        let mut entries = self.entries.write().expect("snapshot cache poisoned");
        // two workers can miss the same month concurrently (loads happen
        // outside the lock); drop the older copy so a duplicate key never
        // wastes a slot
        entries.retain(|e| e.key != key);
        entries.push(CacheEntry {
            key,
            snap,
            bytes,
            touched: AtomicU64::new(stamp),
        });
        loop {
            let total: usize = entries.iter().map(|e| e.bytes).sum();
            let over =
                entries.len() > self.max_entries || self.max_bytes.is_some_and(|cap| total > cap);
            if !over || entries.len() <= 1 {
                break;
            }
            let coldest = entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.touched.load(Ordering::Relaxed))
                .map(|(i, _)| i)
                .expect("non-empty cache");
            entries.remove(coldest);
        }
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.entries.read().expect("snapshot cache poisoned").len()
    }
}

/// A corpus directory opened for replay: the [`GroundTruth`] over real
/// (or exported) monthly scan data.
///
/// Opening reads and validates the manifest and builds the [`Topology`]
/// from the pfx2as table; snapshots are decoded **lazily**, one month
/// at a time as the campaign loop asks for them — decoded once into an
/// owned sorted `Vec` ([`Snapshot::decode`]) and retained in a small
/// read-optimized cache bounded by entry count and an optional byte ceiling
/// ([`CorpusOptions`]). The type is `Sync`, so campaign pools replay
/// one corpus from many worker threads, and warm months are served
/// without any exclusive lock. Each month is checked against the
/// topology on first decode: a host outside announced space is
/// [`CorpusError::TopologyMismatch`], because a snapshot that disagrees
/// with its routing table would silently zero the attribution step of
/// every strategy.
#[derive(Debug)]
pub struct CorpusGroundTruth {
    dir: PathBuf,
    manifest: CorpusManifest,
    topology: Topology,
    cache: SnapshotCache,
}

impl CorpusGroundTruth {
    /// Open a corpus directory with the default cache bounds.
    pub fn open(dir: &Path) -> Result<CorpusGroundTruth, CorpusError> {
        CorpusGroundTruth::open_with(dir, &CorpusOptions::default())
    }

    /// Open a corpus directory with explicit cache bounds.
    pub fn open_with(dir: &Path, opts: &CorpusOptions) -> Result<CorpusGroundTruth, CorpusError> {
        let manifest_path = dir.join(MANIFEST_FILE);
        let text = fs::read_to_string(&manifest_path).map_err(|e| io_err(&manifest_path, e))?;
        let manifest = CorpusManifest::parse(&text)?;
        manifest.check_complete()?;
        let topo_path = dir.join(&manifest.topology);
        let topo_text = fs::read_to_string(&topo_path).map_err(|e| io_err(&topo_path, e))?;
        let table = pfx2as::read_table(topo_text.as_bytes()).map_err(CorpusError::Pfx2As)?;
        if table.is_empty() {
            return Err(CorpusError::EmptyTopology);
        }
        // A corpus table carries no AS behavioural metadata (that is a
        // synthesis concept); campaigns only consume the views.
        let topology = Topology::build(SynthTable {
            table,
            ases: Vec::new(),
            class_by_asn: BTreeMap::new(),
        });
        Ok(CorpusGroundTruth {
            dir: dir.to_path_buf(),
            manifest,
            topology,
            cache: SnapshotCache::new(opts.cache_snapshots, opts.cache_bytes),
        })
    }

    /// The parsed manifest.
    pub fn manifest(&self) -> &CorpusManifest {
        &self.manifest
    }

    /// Eagerly load and check every snapshot once (headers, codec,
    /// topology agreement) without retaining them — a corpus lint pass
    /// for ingestion pipelines. The lazy replay path performs the same
    /// checks per month on first touch.
    pub fn validate(&self) -> Result<(), CorpusError> {
        for &proto in &self.manifest.protocols {
            for month in 0..=self.manifest.months {
                self.load_from_disk(month, proto)?;
            }
        }
        Ok(())
    }

    fn load_from_disk(&self, month: u32, protocol: Protocol) -> Result<Arc<Snapshot>, CorpusError> {
        let rel = self
            .manifest
            .snapshots
            .get(&(month, protocol))
            .ok_or(CorpusError::MissingMonth { month, protocol })?;
        let path = self.dir.join(rel);
        let bytes = fs::read(&path).map_err(|e| io_err(&path, e))?;
        let snap = Snapshot::decode(&bytes).map_err(|source| CorpusError::Decode {
            path: path.clone(),
            source,
        })?;
        if snap.month != month || snap.protocol != protocol {
            return Err(CorpusError::SnapshotHeaderMismatch {
                path,
                expected_month: month,
                expected_protocol: protocol,
                found_month: snap.month,
                found_protocol: snap.protocol,
            });
        }
        // Topology agreement as a counting sweep: the scan units
        // partition announced space into sorted disjoint prefixes, so
        // hosts covered == hosts total ⇔ every host is attributable —
        // O(units · log gap) for the common all-good case instead of a
        // trie walk per host. Only a mismatch pays a naming pass. Both
        // views partition the same announced space (the m-view
        // deaggregates each l-prefix into blocks that tile it exactly),
        // so sweeping the l-view proves what an m-view sweep would over
        // fewer units: each l-prefix is one unit, which deaggregation
        // splits into one or more.
        let units = self.topology.l_view.units();
        let covered =
            PrefixCount::count_prefixes_total(&snap.hosts, units.iter().map(|u| u.prefix));
        if covered as usize != snap.hosts.len() {
            for addr in snap.hosts.iter() {
                if self.topology.block_of_addr(addr).is_none() {
                    return Err(CorpusError::TopologyMismatch {
                        month,
                        protocol,
                        addr: std::net::Ipv4Addr::from(addr).to_string(),
                    });
                }
            }
        }
        Ok(Arc::new(snap))
    }
}

impl GroundTruth for CorpusGroundTruth {
    fn topology(&self) -> &Topology {
        &self.topology
    }

    fn months(&self) -> u32 {
        self.manifest.months
    }

    fn protocols(&self) -> Vec<Protocol> {
        self.manifest.protocols.clone()
    }

    fn load_snapshot(&self, month: u32, protocol: Protocol) -> Result<Arc<Snapshot>, CorpusError> {
        if !self.manifest.protocols.contains(&protocol) {
            return Err(CorpusError::MissingProtocol { protocol });
        }
        let key = (month, protocol);
        if let Some(hit) = self.cache.get(key) {
            return Ok(hit);
        }
        // load outside any lock: a matrix's worker threads should
        // overlap disk reads, not serialise on the cache
        let snap = self.load_from_disk(month, protocol)?;
        self.cache.put(key, Arc::clone(&snap));
        Ok(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universe::UniverseConfig;

    fn tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("tass-corpus-unit-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn manifest_roundtrip() {
        let u = Universe::generate(&UniverseConfig::small(11));
        let dir = tmp("manifest");
        let manifest = export_universe(&u, &dir).unwrap();
        assert_eq!(manifest.version, CORPUS_VERSION);
        assert_eq!(manifest.months, 6);
        assert_eq!(manifest.protocols, Protocol::ALL.to_vec());
        assert_eq!(manifest.snapshots.len(), 28);
        let text = fs::read_to_string(dir.join(MANIFEST_FILE)).unwrap();
        assert_eq!(CorpusManifest::parse(&text).unwrap(), manifest);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn export_then_replay_serves_identical_snapshots() {
        let u = Universe::generate(&UniverseConfig::small(12));
        let dir = tmp("roundtrip");
        export_universe(&u, &dir).unwrap();
        let corpus = CorpusGroundTruth::open(&dir).unwrap();
        corpus.validate().unwrap();
        assert_eq!(GroundTruth::months(&corpus), u.months());
        for proto in Protocol::ALL {
            for month in 0..=u.months() {
                let replayed = corpus.load_snapshot(month, proto).unwrap();
                assert_eq!(&*replayed, u.snapshot(month, proto));
            }
        }
        // and the replayed topology carries the same views
        assert_eq!(
            corpus.topology.m_view.units().len(),
            u.topology().m_view.units().len()
        );
        assert_eq!(
            corpus.topology.announced_space(),
            u.topology().announced_space()
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn cache_retains_and_evicts_least_recently_touched() {
        let c = SnapshotCache::new(2, None);
        let snap = |m| Arc::new(Snapshot::new(Protocol::Http, m, HostSet::default()));
        c.put((0, Protocol::Http), snap(0));
        c.put((1, Protocol::Http), snap(1));
        assert!(c.get((0, Protocol::Http)).is_some(), "still cached");
        c.put((2, Protocol::Http), snap(2)); // evicts month 1 (least recent)
        assert!(c.get((1, Protocol::Http)).is_none(), "evicted");
        assert!(c.get((0, Protocol::Http)).is_some());
        assert!(c.get((2, Protocol::Http)).is_some());
        // a racing double-insert of one key must not waste a slot
        c.put((2, Protocol::Http), snap(2));
        c.put((2, Protocol::Http), snap(2));
        assert_eq!(c.len(), 2, "duplicate key deduped");
        assert!(c.get((0, Protocol::Http)).is_some(), "other key survives");
    }

    #[test]
    fn cache_byte_ceiling_evicts_by_bytes_not_count() {
        // each owned snapshot charges 4 bytes per host
        let snap = |m, hosts: &[u32]| {
            Arc::new(Snapshot::new(
                Protocol::Http,
                m,
                HostSet::from_addrs(hosts.to_vec()),
            ))
        };
        let c = SnapshotCache::new(100, Some(30));
        c.put((0, Protocol::Http), snap(0, &[1, 2, 3])); // 12 bytes
        c.put((1, Protocol::Http), snap(1, &[4, 5, 6])); // 24 total
        assert_eq!(c.len(), 2);
        c.put((2, Protocol::Http), snap(2, &[7, 8, 9])); // 36 > 30: evict
        assert_eq!(c.len(), 2, "byte ceiling forced an eviction");
        assert!(c.get((0, Protocol::Http)).is_none(), "coldest went first");
        assert!(c.get((2, Protocol::Http)).is_some());
        // one month larger than the whole ceiling still stays resident
        let big: Vec<u32> = (0..100).collect();
        c.put((3, Protocol::Http), snap(3, &big));
        assert_eq!(c.len(), 1, "oversized month kept, everything else out");
        assert!(c.get((3, Protocol::Http)).is_some());
    }

    #[test]
    fn streamed_ingestion_matches_one_shot_builder() {
        let dir = tmp("stream-eq");
        fs::create_dir_all(&dir).unwrap();
        let text = "# head\n10.0.0.2\n10.0.0.1\n\n10.0.0.2 # dup\n10.0.9.9\n";
        let input = dir.join("list.txt");
        fs::write(&input, text).unwrap();
        let out = dir.join("m0-http.snap");
        for chunk_lines in [1usize, 2, 1024] {
            let opts = IngestOptions {
                workers: 3,
                chunk_lines,
            };
            let n = stream_address_list_to_snapshot::<V4>(&input, &out, 0, Protocol::Http, &opts)
                .unwrap();
            assert_eq!(n, 3);
            let streamed = Snapshot::decode(&fs::read(&out).unwrap()).unwrap();
            let oneshot = Snapshot::new(Protocol::Http, 0, parse_address_list(text).unwrap());
            assert_eq!(streamed, oneshot, "chunk_lines={chunk_lines}");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn streamed_ingestion_reports_lowest_bad_line_with_path() {
        let dir = tmp("stream-err");
        fs::create_dir_all(&dir).unwrap();
        let mut text = String::new();
        for i in 0..40 {
            text.push_str(&format!("10.0.0.{i}\n"));
        }
        text.insert_str(18, "bogus-one\n"); // after two 9-byte lines: line 3
        text.push_str("bogus-two\n");
        let input = dir.join("list.txt");
        fs::write(&input, &text).unwrap();
        let out = dir.join("m0-http.snap");
        let opts = IngestOptions {
            workers: 4,
            chunk_lines: 2,
        };
        let e = stream_address_list_to_snapshot::<V4>(&input, &out, 0, Protocol::Http, &opts)
            .unwrap_err();
        match e {
            CorpusError::AddressListFile { path, source } => {
                assert_eq!(path, input);
                assert_eq!(source.line, 3, "lowest bad line wins");
                assert_eq!(source.text, "bogus-one");
            }
            other => panic!("expected AddressListFile, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn address_list_parses_and_reports_line_context() {
        let hs = parse_address_list("# seed\n1.2.3.4\n\n5.6.7.8 # inline\n").unwrap();
        assert_eq!(hs.len(), 2);
        let e = parse_address_list("1.2.3.4\nnot-an-ip\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert_eq!(e.text, "not-an-ip");
        assert!(e.to_string().contains("line 2"));
        // a v6 literal in a v4 list is an error *with the line named*
        let e = parse_address_list("1.2.3.4\n2001:db8::1\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert_eq!(e.text, "2001:db8::1");
        // …while the v6 reader accepts it
        let hs = parse_address_list_family::<tass_net::V6>("2001:db8::1\n").unwrap();
        assert_eq!(hs.len(), 1);
    }
}

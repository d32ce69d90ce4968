//! Reader/writer for the CAIDA RouteViews **pfx2as** text format.
//!
//! The paper uses "the Routeviews Prefix-to-AS mappings (pfx2as) provided by
//! CAIDA" as its topology source. The format is one mapping per line:
//!
//! ```text
//! <prefix-address> \t <prefix-length> \t <origin>
//! ```
//!
//! where `<origin>` is an AS number, a multi-origin list joined by `_`
//! (e.g. `13335_4755`), or an AS-set joined by `,`. Example:
//!
//! ```text
//! 1.0.0.0   24  13335
//! 1.0.4.0   22  56203
//! 1.1.8.0   24  9583_45820
//! ```
//!
//! This module parses that format (tolerating blank lines and `#` comments)
//! so real CAIDA files can be loaded, and writes it back out so synthetic
//! tables can be consumed by any pfx2as-speaking tool.

use crate::rib::{Announcement, Origin, RouteTable};
use std::fmt;
use std::io::{self, BufRead, Write};
use tass_net::Prefix;

/// Errors from parsing pfx2as data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Pfx2AsError {
    /// A line did not have the three tab/space-separated fields.
    BadLine {
        /// 1-based line number.
        line: usize,
        /// The offending text.
        text: String,
    },
    /// A field failed to parse (address, length, or origin).
    BadField {
        /// 1-based line number.
        line: usize,
        /// Which field: `"prefix"`, `"length"`, or `"origin"`.
        field: &'static str,
        /// The offending text.
        text: String,
    },
    /// An origin string was empty or malformed (outside line context).
    BadOrigin(String),
}

impl fmt::Display for Pfx2AsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Pfx2AsError::BadLine { line, text } => {
                write!(f, "pfx2as line {line}: expected 3 fields, got {text:?}")
            }
            Pfx2AsError::BadField { line, field, text } => {
                write!(f, "pfx2as line {line}: bad {field} field {text:?}")
            }
            Pfx2AsError::BadOrigin(s) => write!(f, "bad pfx2as origin {s:?}"),
        }
    }
}

impl std::error::Error for Pfx2AsError {}

/// Parse an origin field: `"13335"`, `"13335_4755"` or `"65001,65002"`.
pub fn parse_origin(s: &str) -> Result<Origin, Pfx2AsError> {
    let bad = || Pfx2AsError::BadOrigin(s.to_string());
    if s.is_empty() {
        return Err(bad());
    }
    if s.contains('_') {
        let v: Result<Vec<u32>, _> = s.split('_').map(|x| x.parse::<u32>()).collect();
        let v = v.map_err(|_| bad())?;
        if v.is_empty() {
            return Err(bad());
        }
        return Ok(Origin::Multi(v));
    }
    if s.contains(',') {
        let v: Result<Vec<u32>, _> = s.split(',').map(|x| x.parse::<u32>()).collect();
        let v = v.map_err(|_| bad())?;
        if v.is_empty() {
            return Err(bad());
        }
        return Ok(Origin::Set(v));
    }
    s.parse::<u32>().map(Origin::Single).map_err(|_| bad())
}

/// Parse a whole pfx2as document from a reader.
///
/// Lines are `addr \t len \t origin`; any run of whitespace is accepted as a
/// separator (CAIDA uses tabs). Blank lines and lines starting with `#` are
/// skipped. Prefixes with host bits set are truncated to canonical form, as
/// RouteViews collectors occasionally emit them.
pub fn read<R: BufRead>(reader: R) -> Result<Vec<Announcement>, Pfx2AsError> {
    let mut out = Vec::new();
    for (i, line) in reader.lines().enumerate() {
        let lineno = i + 1;
        let line = line.map_err(|e| Pfx2AsError::BadLine {
            line: lineno,
            text: format!("<io error: {e}>"),
        })?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = t.split_whitespace().collect();
        if fields.len() != 3 {
            return Err(Pfx2AsError::BadLine {
                line: lineno,
                text: t.to_string(),
            });
        }
        let addr: std::net::Ipv4Addr = fields[0].parse().map_err(|_| Pfx2AsError::BadField {
            line: lineno,
            field: "prefix",
            text: fields[0].to_string(),
        })?;
        let len: u8 = fields[1].parse().map_err(|_| Pfx2AsError::BadField {
            line: lineno,
            field: "length",
            text: fields[1].to_string(),
        })?;
        let prefix =
            Prefix::new_truncate(u32::from(addr), len).map_err(|_| Pfx2AsError::BadField {
                line: lineno,
                field: "length",
                text: fields[1].to_string(),
            })?;
        let origin = parse_origin(fields[2]).map_err(|_| Pfx2AsError::BadField {
            line: lineno,
            field: "origin",
            text: fields[2].to_string(),
        })?;
        out.push(Announcement { prefix, origin });
    }
    Ok(out)
}

/// Parse straight into a [`RouteTable`].
pub fn read_table<R: BufRead>(reader: R) -> Result<RouteTable, Pfx2AsError> {
    Ok(RouteTable::from_announcements(read(reader)?))
}

/// One mapping line — the single place the output format lives, shared
/// by [`write`] and [`write_table`] so reader and writers cannot diverge.
fn write_line<W: Write>(w: &mut W, prefix: Prefix, origin: &Origin) -> io::Result<()> {
    writeln!(
        w,
        "{}\t{}\t{}",
        std::net::Ipv4Addr::from(prefix.addr()),
        prefix.len(),
        origin
    )
}

/// Write announcements in pfx2as format (tab-separated, one per line).
pub fn write<'a, W: Write, I>(mut w: W, announcements: I) -> io::Result<()>
where
    I: IntoIterator<Item = &'a Announcement>,
{
    for a in announcements {
        write_line(&mut w, a.prefix, &a.origin)?;
    }
    Ok(())
}

/// Render announcements to a pfx2as string.
pub fn write_str<'a, I>(announcements: I) -> String
where
    I: IntoIterator<Item = &'a Announcement>,
{
    let mut buf = Vec::new();
    write(&mut buf, announcements).expect("writing to Vec cannot fail");
    String::from_utf8(buf).expect("pfx2as output is ASCII")
}

/// Write a whole [`RouteTable`] in pfx2as format (prefix order) — the
/// inverse of [`read_table`], used by corpus exports.
pub fn write_table<W: Write>(mut w: W, table: &RouteTable) -> io::Result<()> {
    for (prefix, origin) in table.iter() {
        write_line(&mut w, *prefix, origin)?;
    }
    Ok(())
}

/// Render a whole [`RouteTable`] to a pfx2as string.
pub fn write_table_str(table: &RouteTable) -> String {
    let mut buf = Vec::new();
    write_table(&mut buf, table).expect("writing to Vec cannot fail");
    String::from_utf8(buf).expect("pfx2as output is ASCII")
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
# CAIDA routeviews pfx2as sample
1.0.0.0\t24\t13335
1.0.4.0\t22\t56203

1.1.8.0\t24\t9583_45820
2.0.0.0\t12\t3215
5.1.0.0\t16\t65001,65002
";

    #[test]
    fn parses_sample() {
        let anns = read(SAMPLE.as_bytes()).unwrap();
        assert_eq!(anns.len(), 5);
        assert_eq!(anns[0].prefix.to_string(), "1.0.0.0/24");
        assert_eq!(anns[0].origin, Origin::Single(13335));
        assert_eq!(anns[2].origin, Origin::Multi(vec![9583, 45820]));
        assert_eq!(anns[4].origin, Origin::Set(vec![65001, 65002]));
    }

    #[test]
    fn roundtrip() {
        let anns = read(SAMPLE.as_bytes()).unwrap();
        let text = write_str(&anns);
        let again = read(text.as_bytes()).unwrap();
        assert_eq!(anns, again);
    }

    #[test]
    fn spaces_accepted_as_separators() {
        let anns = read("10.0.0.0 8 64500\n".as_bytes()).unwrap();
        assert_eq!(anns.len(), 1);
        assert_eq!(anns[0].prefix.to_string(), "10.0.0.0/8");
    }

    #[test]
    fn host_bits_truncated() {
        // Some collector artifacts carry host bits; canonicalise, don't fail.
        let anns = read("10.0.0.1\t8\t64500\n".as_bytes()).unwrap();
        assert_eq!(anns[0].prefix.to_string(), "10.0.0.0/8");
    }

    #[test]
    fn error_on_wrong_field_count() {
        let e = read("10.0.0.0\t8\n".as_bytes()).unwrap_err();
        assert!(matches!(e, Pfx2AsError::BadLine { line: 1, .. }));
        let e = read("10.0.0.0\t8\t64500\textra\n".as_bytes()).unwrap_err();
        assert!(matches!(e, Pfx2AsError::BadLine { line: 1, .. }));
    }

    #[test]
    fn error_on_bad_fields() {
        let e = read("10.0.0\t8\t64500\n".as_bytes()).unwrap_err();
        assert!(matches!(
            e,
            Pfx2AsError::BadField {
                field: "prefix",
                ..
            }
        ));
        let e = read("10.0.0.0\t40\t64500\n".as_bytes()).unwrap_err();
        assert!(matches!(
            e,
            Pfx2AsError::BadField {
                field: "length",
                ..
            }
        ));
        let e = read("10.0.0.0\tx\t64500\n".as_bytes()).unwrap_err();
        assert!(matches!(
            e,
            Pfx2AsError::BadField {
                field: "length",
                ..
            }
        ));
        let e = read("ok\n10.0.0.0\t8\tAS64500\n".as_bytes()).unwrap_err();
        // first line fails before the second is reached
        assert!(matches!(e, Pfx2AsError::BadLine { line: 1, .. }));
        let e = read("10.0.0.0\t8\tAS64500\n".as_bytes()).unwrap_err();
        assert!(matches!(
            e,
            Pfx2AsError::BadField {
                field: "origin",
                line: 1,
                ..
            }
        ));
    }

    #[test]
    fn error_line_numbers_count_comments() {
        let doc = "# comment\n\n10.0.0.0\t8\t64500\nbroken line\n";
        let e = read(doc.as_bytes()).unwrap_err();
        assert!(matches!(e, Pfx2AsError::BadLine { line: 4, .. }), "{e}");
    }

    #[test]
    fn origin_edge_cases() {
        assert!(parse_origin("").is_err());
        assert!(parse_origin("_").is_err());
        assert!(parse_origin("1_").is_err());
        assert!(parse_origin(",1").is_err());
        assert!(parse_origin("4294967295").is_ok()); // 32-bit ASN max
        assert!(parse_origin("4294967296").is_err());
    }

    #[test]
    fn read_table_builds_rib() {
        let t = read_table(SAMPLE.as_bytes()).unwrap();
        assert_eq!(t.len(), 5);
        assert_eq!(
            t.get("1.0.0.0/24".parse().unwrap()).unwrap().primary(),
            13335
        );
    }

    #[test]
    fn write_table_roundtrips() {
        let t = read_table(SAMPLE.as_bytes()).unwrap();
        let text = write_table_str(&t);
        let again = read_table(text.as_bytes()).unwrap();
        assert_eq!(t.len(), again.len());
        for ((pa, oa), (pb, ob)) in t.iter().zip(again.iter()) {
            assert_eq!((pa, oa), (pb, ob));
        }
    }

    #[test]
    fn errors_display() {
        let e = Pfx2AsError::BadLine {
            line: 3,
            text: "x".into(),
        };
        assert!(e.to_string().contains("line 3"));
        let e = Pfx2AsError::BadField {
            line: 1,
            field: "origin",
            text: "y".into(),
        };
        assert!(e.to_string().contains("origin"));
        assert!(Pfx2AsError::BadOrigin("z".into()).to_string().contains("z"));
    }
}

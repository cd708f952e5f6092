//! The line-record codec behind DACCE's own text formats:
//! `dacce-export v1` ([`crate::export`]), `dacce-journal v1`
//! ([`crate::fragment`]) and `# dacce-postmortem v1` (`crate::postmortem`).
//! It is the one place their header, line and field rules live.
//!
//! A document is a `<name> v1` header line, then one record per non-blank
//! line, numbered from 1 with the header ([`records`]). [`Fields`] reads a
//! record's fields, or a token's parts, with typed reads: a missing,
//! malformed or out-of-range value is an error, and so is a field left
//! over at the end of a record. Nothing indexes a string by byte. The
//! contract of every parser built on it: any input gives `Ok` or a
//! line-numbered [`ImportError`], never a panic.

use std::fmt::Write as _;
use std::str::{FromStr, Split, SplitWhitespace};

use dacce_callgraph::{CallSiteId, FunctionId, TimeStamp};

use crate::ccstack::CcEntry;
use crate::context::{EncodedContext, SpawnLink};

/// Errors from the DACCE text-format parsers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ImportError {
    /// The header line is missing or has the wrong version.
    BadHeader,
    /// A line could not be parsed; carries the 1-based line number and a
    /// description.
    BadLine(usize, String),
}

impl std::fmt::Display for ImportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ImportError::BadHeader => write!(f, "missing or unsupported format header"),
            ImportError::BadLine(n, what) => write!(f, "line {n}: {what}"),
        }
    }
}

impl std::error::Error for ImportError {}

/// The records after `text`'s `header` line: `(line number, line)` for
/// every non-blank line.
pub(crate) fn records<'a>(
    text: &'a str,
    header: &str,
) -> Result<impl Iterator<Item = (usize, &'a str)>, ImportError> {
    let mut lines = text.lines();
    if lines.next().map(str::trim) != Some(header) {
        return Err(ImportError::BadHeader);
    }
    Ok((2..).zip(lines).filter(|(_, l)| !l.trim().is_empty()))
}

/// An error about something missing at the end of `text`: it points at
/// the line after the last.
pub(crate) fn at_end(text: &str, what: impl Into<String>) -> ImportError {
    ImportError::BadLine(text.lines().count() + 1, what.into())
}

/// A cursor over the fields of one line (or of one token's parts).
pub(crate) struct Fields<'a, I: Iterator<Item = &'a str> = SplitWhitespace<'a>> {
    line: usize,
    tokens: I,
}

impl<'a> Fields<'a> {
    /// The whitespace-separated fields of line `line`.
    pub(crate) fn new(line: usize, text: &'a str) -> Self {
        Fields {
            line,
            tokens: text.split_whitespace(),
        }
    }
}

/// The `sep`-separated parts of one token.
pub(crate) type Parts<'a> = Fields<'a, Split<'a, char>>;

impl<'a> Parts<'a> {
    /// The `sep`-separated parts of `text`, reported against line `line`.
    pub(crate) fn split(line: usize, text: &'a str, sep: char) -> Self {
        Fields {
            line,
            tokens: text.split(sep),
        }
    }
}

impl<'a, I: Iterator<Item = &'a str>> Fields<'a, I> {
    /// An error on this line.
    pub(crate) fn err(&self, what: impl Into<String>) -> ImportError {
        ImportError::BadLine(self.line, what.into())
    }

    /// The next field, which must exist.
    pub(crate) fn word(&mut self, what: &str) -> Result<&'a str, ImportError> {
        self.tokens
            .next()
            .ok_or_else(|| self.err(format!("missing {what}")))
    }

    /// Parses `tok` as a `T` (any integer type: out-of-range is an error).
    pub(crate) fn parse<T: FromStr>(&self, tok: &str, what: &str) -> Result<T, ImportError> {
        tok.parse()
            .map_err(|_| self.err(format!("bad {what} {tok:?}")))
    }

    /// The next field as a `T`.
    pub(crate) fn num<T: FromStr>(&mut self, what: &str) -> Result<T, ImportError> {
        let tok = self.word(what)?;
        self.parse(tok, what)
    }

    /// The next field as a `0|1` flag.
    pub(crate) fn flag(&mut self, what: &str) -> Result<bool, ImportError> {
        match self.word(what)? {
            "0" => Ok(false),
            "1" => Ok(true),
            tok => Err(self.err(format!("bad {what} {tok:?} (want 0 or 1)"))),
        }
    }

    /// The next field as a `T`, or `None` when it is `-`.
    pub(crate) fn opt<T: FromStr>(&mut self, what: &str) -> Result<Option<T>, ImportError> {
        match self.word(what)? {
            "-" => Ok(None),
            tok => self.parse(tok, what).map(Some),
        }
    }

    /// Ends the record: no field may be left over.
    pub(crate) fn end(mut self) -> Result<(), ImportError> {
        match self.tokens.next() {
            None => Ok(()),
            Some(tok) => Err(self.err(format!("unexpected trailing field {tok:?}"))),
        }
    }
}

impl<'a, I: Iterator<Item = &'a str>> Iterator for Fields<'a, I> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        self.tokens.next()
    }
}

/// Spawn links a context may nest. Deeper chains are rejected: the
/// structures built from a context (its drop, clone and decode) recurse
/// once per link.
pub(crate) const MAX_SPAWN_DEPTH: usize = 256;

/// Writes `<ts> <id> <leaf> <root> [<id:site:target:count>...] [| <spawn-site> <parent>]`.
pub(crate) fn write_ctx(out: &mut String, ctx: &EncodedContext) {
    let (ts, leaf, root) = (ctx.ts.raw(), ctx.leaf.raw(), ctx.root.raw());
    let _ = write!(out, "{ts} {} {leaf} {root}", ctx.id);
    for e in &ctx.cc {
        let (site, target) = (e.site.raw(), e.target.raw());
        let _ = write!(out, " {}:{site}:{target}:{}", e.id, e.count);
    }
    if let Some(link) = &ctx.spawn {
        let _ = write!(out, " | {} ", link.site.raw());
        write_ctx(out, &link.parent);
    }
}

/// Parses the rest of the line as a context written by [`write_ctx`].
pub(crate) fn parse_ctx(f: &mut Fields<'_>) -> Result<EncodedContext, ImportError> {
    // Each `| <site>` opens the parent context; later cc entries are its.
    let mut children: Vec<(EncodedContext, CallSiteId)> = Vec::new();
    let mut ctx = ctx_head(f)?;
    while let Some(tok) = f.next() {
        if tok == "|" {
            if children.len() == MAX_SPAWN_DEPTH {
                return Err(f.err(format!("spawn chain deeper than {MAX_SPAWN_DEPTH}")));
            }
            let site = CallSiteId::new(f.num("spawn site")?);
            let parent = ctx_head(f)?;
            children.push((std::mem::replace(&mut ctx, parent), site));
            continue;
        }
        let mut e = Fields::split(f.line, tok, ':');
        ctx.cc.push(CcEntry {
            id: e.num("cc id")?,
            site: CallSiteId::new(e.num("cc site")?),
            target: FunctionId::new(e.num("cc target")?),
            count: e.num("cc count")?,
        });
        e.end()?;
    }
    while let Some((mut child, site)) = children.pop() {
        let parent = Box::new(ctx);
        child.spawn = Some(SpawnLink { site, parent });
        ctx = child;
    }
    Ok(ctx)
}

fn ctx_head(f: &mut Fields<'_>) -> Result<EncodedContext, ImportError> {
    Ok(EncodedContext {
        ts: TimeStamp::new(f.num("ts")?),
        id: f.num("id")?,
        leaf: FunctionId::new(f.num("leaf")?),
        root: FunctionId::new(f.num("root")?),
        cc: Vec::new(),
        spawn: None,
    })
}

//! The one line reader behind every `ocr-io` text parser: `#` starts a
//! comment, blank lines are skipped, and each remaining line is its
//! directive plus a [`Cursor`] over the tokens after it. The cursor's
//! getters build the parsers' shared `ParseError` messages, so a
//! missing or malformed field reads alike in every format.

use crate::ParseError;
use ocr_geom::Layer;
use ocr_netlist::{Layout, NetId};
use std::collections::HashMap;
use std::fmt::Display;
use std::str::{FromStr, SplitWhitespace};

/// Net names to ids: built from a layout for the routes and checkpoint
/// parsers, grown directive by directive by the chip parser.
pub(crate) type NetIndex<'a> = HashMap<&'a str, NetId>;

/// The [`NetIndex`] of `layout`'s nets.
pub(crate) fn net_index(layout: &Layout) -> NetIndex<'_> {
    layout
        .nets
        .iter()
        .enumerate()
        .map(|(i, n)| (n.name.as_str(), NetId(i as u32)))
        .collect()
}

/// Yields each non-blank line of `text`, its comment stripped, as its
/// directive and a cursor over the tokens after it.
pub(crate) fn lines(text: &str) -> impl Iterator<Item = (&str, Cursor<'_>)> {
    text.lines().zip(1..).filter_map(|(raw, line)| {
        let mut tokens = raw.split('#').next()?.split_whitespace();
        let directive = tokens.next()?;
        Some((directive, Cursor { line, tokens }))
    })
}

/// Takes the first line of `lines` and checks that it is `magic` alone:
/// `wrong` on that line when it is not, `empty` on line 1 when there is
/// no line at all.
pub(crate) fn expect_magic<'a>(
    lines: &mut impl Iterator<Item = (&'a str, Cursor<'a>)>,
    magic: &str,
    wrong: &str,
    empty: &str,
) -> Result<(), ParseError> {
    let Some((first, mut cur)) = lines.next() else {
        return Err(ParseError {
            line: 1,
            message: empty.into(),
        });
    };
    if first != magic || cur.next().is_some() {
        return Err(cur.err(wrong));
    }
    Ok(())
}

/// The tokens after a line's directive, with getters that report a
/// missing or malformed field as a `ParseError` on the line.
pub(crate) struct Cursor<'a> {
    /// 1-based line number.
    line: usize,
    tokens: SplitWhitespace<'a>,
}

impl<'a> Iterator for Cursor<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        self.tokens.next()
    }
}

impl<'a> Cursor<'a> {
    /// An error on this line.
    pub(crate) fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            line: self.line,
            message: message.into(),
        }
    }

    /// The next token; `missing {what}` when the line has ended.
    pub(crate) fn word(&mut self, what: &str) -> Result<&'a str, ParseError> {
        self.next()
            .ok_or_else(|| self.err(format!("missing {what}")))
    }

    /// `token` parsed as a `T`; `bad {what}: …` when it is not one.
    pub(crate) fn parse<T: FromStr<Err: Display>>(
        &self,
        token: &str,
        what: &str,
    ) -> Result<T, ParseError> {
        token
            .parse()
            .map_err(|e| self.err(format!("bad {what}: {e}")))
    }

    /// The next token as a number.
    pub(crate) fn num<T: FromStr<Err: Display>>(&mut self) -> Result<T, ParseError> {
        let token = self.word("number")?;
        self.parse(token, "number")
    }

    /// The next token as a layer name (`metal1` or `m1` … `metal4`).
    pub(crate) fn layer(&mut self, what: &str) -> Result<Layer, ParseError> {
        let token = self.word(what)?;
        self.layer_named(token)
    }

    /// `token` as a layer name.
    pub(crate) fn layer_named(&self, token: &str) -> Result<Layer, ParseError> {
        match token {
            "metal1" | "m1" => Ok(Layer::Metal1),
            "metal2" | "m2" => Ok(Layer::Metal2),
            "metal3" | "m3" => Ok(Layer::Metal3),
            "metal4" | "m4" => Ok(Layer::Metal4),
            other => Err(self.err(format!("unknown layer `{other}`"))),
        }
    }

    /// The next token as a net of `nets`.
    pub(crate) fn net(&mut self, nets: &NetIndex) -> Result<NetId, ParseError> {
        let name = self.word("net")?;
        self.net_named(nets, name)
    }

    /// `name` as a net of `nets`.
    pub(crate) fn net_named(&self, nets: &NetIndex, name: &str) -> Result<NetId, ParseError> {
        nets.get(name)
            .copied()
            .ok_or_else(|| self.err(format!("unknown net `{name}`")))
    }

    /// Checks that the line has no tokens left, for a directive with a
    /// fixed number of fields; `unexpected trailing token` when it has.
    pub(crate) fn end(&mut self) -> Result<(), ParseError> {
        match self.next() {
            Some(token) => Err(self.err(format!("unexpected trailing token `{token}`"))),
            None => Ok(()),
        }
    }

    /// The rest of the line's tokens, joined by single spaces.
    pub(crate) fn joined(&mut self) -> String {
        self.collect::<Vec<_>>().join(" ")
    }
}

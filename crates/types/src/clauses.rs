//! The clause grammar the two spec strings share.
//!
//! A [`FaultSpec`](crate::FaultSpec) and an
//! [`AdversarySpec`](crate::AdversarySpec) are both written as
//! comma-separated `key=value` clauses, or `none` when there is no clause to
//! write. This module is that grammar, once: the reader ([`clauses`]), the
//! writer ([`ClauseWriter`]), the two value helpers every clause uses, and
//! the declaration ([`spec_string!`]) that makes a spec cross the binary and
//! the JSON boundary as that string. What each key means stays with the
//! spec that owns it.

use std::fmt;
use std::str::FromStr;

/// Splits `text` into its `(key, value)` clauses, in order.
///
/// Whitespace around clauses, keys and values is ignored, as are empty
/// clauses; `none` (what [`ClauseWriter`] prints when it has nothing to
/// write) and the empty string have no clauses. A key may appear once — a
/// repeated `drop=` would silently keep only the last value, which is
/// exactly the kind of typo a sweep config wants rejected loudly — unless it
/// is one of `repeatable`. `what` names the spec in errors.
pub(crate) fn clauses<'a>(
    text: &'a str,
    what: &str,
    repeatable: &[&str],
) -> Result<Vec<(&'a str, &'a str)>, String> {
    let mut found: Vec<(&str, &str)> = Vec::new();
    if text.trim().eq_ignore_ascii_case("none") {
        return Ok(found);
    }
    for part in text.split(',').map(str::trim).filter(|p| !p.is_empty()) {
        let (key, value) = part
            .split_once('=')
            .ok_or_else(|| format!("{what} clause `{part}` is not key=value"))?;
        let key = key.trim();
        if !repeatable.contains(&key) && found.iter().any(|(seen, _)| *seen == key) {
            return Err(format!("duplicate {what} clause `{key}`"));
        }
        found.push((key, value.trim()));
    }
    Ok(found)
}

/// Parses one number of a clause's value; `what` names it in the error.
pub(crate) fn number<T: FromStr>(text: &str, what: &str) -> Result<T, String> {
    text.parse().map_err(|_| format!("bad {what} `{text}`"))
}

/// Splits a clause's value at `separator`; `what` and `shape` say what it
/// was meant to look like when it does not.
pub(crate) fn split<'a>(
    value: &'a str,
    separator: &str,
    what: &str,
    shape: &str,
) -> Result<(&'a str, &'a str), String> {
    value
        .split_once(separator)
        .ok_or_else(|| format!("{what} `{value}` is not {shape}"))
}

/// Writes clauses separated by commas, and `none` if there were none — so
/// a spec whose every field is at its default prints `none`, and any other
/// spec, inert fields included, prints what [`clauses`] reads back.
pub(crate) struct ClauseWriter<'a, 'b> {
    f: &'a mut fmt::Formatter<'b>,
    written: bool,
}

impl<'a, 'b> ClauseWriter<'a, 'b> {
    pub(crate) fn new(f: &'a mut fmt::Formatter<'b>) -> Self {
        ClauseWriter { f, written: false }
    }

    /// Writes `clause` if the field it describes is `set`.
    pub(crate) fn clause(&mut self, set: bool, clause: fmt::Arguments<'_>) -> fmt::Result {
        if !set {
            return Ok(());
        }
        if self.written {
            self.f.write_str(",")?;
        }
        self.written = true;
        self.f.write_fmt(clause)
    }

    pub(crate) fn finish(self) -> fmt::Result {
        if self.written {
            Ok(())
        } else {
            self.f.write_str("none")
        }
    }
}

/// Declares that a spec crosses both boundaries as its canonical string:
/// `Snap` and `Wire` written by `Display`, read by `parse`.
macro_rules! spec_string {
    ($ty:ident, $what:literal) => {
        impl tc_sim::Snap for $ty {
            fn save(&self, w: &mut tc_sim::SnapWriter) {
                w.str(&self.to_string());
            }
            fn load(r: &mut tc_sim::SnapReader<'_>) -> Result<Self, tc_sim::SnapshotError> {
                $ty::parse(&r.str()?).map_err(|_| {
                    tc_sim::SnapshotError::Corrupt(concat!("unparseable ", $what, " spec").into())
                })
            }
        }

        impl $crate::json::Wire for $ty {
            fn to_json(&self) -> $crate::json::Json {
                $crate::json::Json::Str(self.to_string())
            }
            fn from_json(
                json: &$crate::json::Json,
                path: &str,
            ) -> Result<Self, $crate::json::WireError> {
                let text: String = $crate::json::Wire::from_json(json, path)?;
                $ty::parse(&text).map_err(|e| $crate::json::WireError::new(path, e))
            }
        }
    };
}
pub(crate) use spec_string;

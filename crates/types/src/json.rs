//! The workspace's one JSON codec: the [`Json`] value, its parser and
//! serializer, and the [`Wire`] trait that gives a type its text layout (the
//! offline build environment has no serde).
//!
//! Everything the workspace says in JSON — submissions, the NDJSON run lines
//! the campaign service streams, campaign reports, the service's own lines —
//! is built as a [`Json`] value and printed by its `Display`, so one function
//! ([`escape_json_str_into`]) knows how a string is escaped and one knows
//! where commas go. JSON is the *text* surface only: engine state and the
//! result cache travel in the binary `tc_sim::Snap` layouts each type
//! declares, never through this module.
//!
//! A type's text layout is declared once, next to the type: [`json_struct!`]
//! for an object with one member per field, [`named_enum!`] for a closed enum
//! that travels as its name, a hand-written [`Wire`] impl for the few types
//! that travel as a string with its own grammar (the fault and adversary
//! specs). Reading is the trust boundary: [`Wire::from_json`] never panics,
//! narrows integers through `try_from`, and reports every rejection as a
//! [`WireError`] carrying the dotted path of the offending member.
//!
//! Serialization is *byte-stable*: numbers are kept as their raw source
//! tokens and object members preserve insertion order, so
//! `Json::parse(text)?.to_string() == text` holds for everything the
//! workspace emits. That round-trip is pinned by tests and is what lets the
//! campaign service's clients parse, inspect, and forward streamed reports
//! without perturbing a byte.
//!
//! The parser accepts standard JSON (insignificant whitespace, all escape
//! forms, nested containers up to a fixed depth) and rejects everything else
//! with a [`JsonError`] carrying the byte offset — it parses untrusted
//! network input, so there is a hard recursion limit and no panics.
//!
//! [`json_struct!`]: crate::json_struct
//! [`named_enum!`]: crate::named_enum

use std::fmt;

/// Maximum container nesting depth the parser accepts. Deep enough for any
/// report the workspace emits, shallow enough that adversarial input cannot
/// overflow the stack.
const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
///
/// Numbers are stored as their raw source token (`Json::Num("3.20")` keeps
/// the trailing zero) so re-serialization is byte-identical; use
/// [`Json::as_u64`] / [`Json::as_f64`] to interpret them. Objects preserve
/// member order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as the raw token it was written as.
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in member order.
    Obj(Vec<(String, Json)>),
}

/// A parse failure: what went wrong and the byte offset it went wrong at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input where the error was detected.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parses one JSON document. Trailing non-whitespace is an error.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] (with byte offset) on malformed input or
    /// nesting deeper than the parser's hard limit.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.error("trailing characters after the document"));
        }
        Ok(value)
    }

    /// Object member lookup (first match); `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// This number as a `u64`, if it is one (no fraction, in range).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(tok) => tok.parse().ok(),
            _ => None,
        }
    }

    /// This number as an `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(tok) => tok.parse().ok(),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The members in order, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// An object with the given members, in order.
    pub fn obj<K: Into<String>>(members: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// `value` with exactly `decimals` fractional digits, or `null` when it
    /// is not finite: JSON has no NaN/Infinity, and an undefined metric (0
    /// misses makes bytes-per-miss 0/0) must not masquerade as a measured
    /// zero.
    pub fn fixed(value: f64, decimals: usize) -> Json {
        if value.is_finite() {
            Json::Num(format!("{value:.decimals$}"))
        } else {
            Json::Null
        }
    }

    /// Reads the required member `key` of this object, which sits at `path`
    /// (empty for the document root), through `T`'s [`Wire`] layout.
    ///
    /// # Errors
    ///
    /// A [`WireError`] at `path` if this is not an object, at `path.key` if
    /// the member is missing, or whatever `T` rejects the member with.
    pub fn member<T: Wire>(&self, path: &str, key: &str) -> Result<T, WireError> {
        self.member_opt(path, key)?
            .ok_or_else(|| WireError::new(join(path, key), "missing required field"))
    }

    /// Like [`Json::member`], but an absent member is `Ok(None)`; the caller
    /// writes the default at the one place it applies.
    ///
    /// # Errors
    ///
    /// See [`Json::member`].
    pub fn member_opt<T: Wire>(&self, path: &str, key: &str) -> Result<Option<T>, WireError> {
        self.member_value(path, key)?
            .map(|value| T::from_json(value, &join(path, key)))
            .transpose()
    }

    /// The member `key` of this object, which sits at `path`, as JSON;
    /// `Ok(None)` when it is absent. [`Json::get`] for a reader: a key
    /// given twice is refused rather than read as its first value.
    ///
    /// # Errors
    ///
    /// A [`WireError`] at `path` if this is not an object, or at `path.key`
    /// if the object gives `key` more than once.
    pub fn member_value(&self, path: &str, key: &str) -> Result<Option<&Json>, WireError> {
        let mut found = self
            .object_at(path)?
            .iter()
            .filter(|(k, _)| k == key)
            .map(|(_, value)| value);
        let value = found.next();
        if found.next().is_some() {
            return Err(WireError::new(join(path, key), "member given twice"));
        }
        Ok(value)
    }

    /// Refuses a member of this object, which sits at `path`, that `known`
    /// does not name: a reader that skipped it would run something other
    /// than what was written.
    ///
    /// # Errors
    ///
    /// A [`WireError`] at `path` if this is not an object, or at
    /// `path.member` for the first unknown member.
    pub fn only_members(&self, path: &str, known: &[&str]) -> Result<(), WireError> {
        match self
            .object_at(path)?
            .iter()
            .find(|(k, _)| !known.contains(&k.as_str()))
        {
            Some((k, _)) => Err(WireError::new(join(path, k), "unknown member")),
            None => Ok(()),
        }
    }

    fn object_at(&self, path: &str) -> Result<&[(String, Json)], WireError> {
        self.as_object()
            .ok_or_else(|| WireError::new(path, "expected an object"))
    }
}

fn join(path: &str, key: &str) -> String {
    if path.is_empty() {
        key.to_string()
    } else {
        format!("{path}.{key}")
    }
}

/// A structured rejection of a JSON document: what was wrong and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Dotted path to the offending member, e.g. `points[2].config.protocol`.
    pub field: String,
    /// What was wrong with it.
    pub message: String,
}

impl WireError {
    /// A rejection of the member at `field`.
    pub fn new(field: impl Into<String>, message: impl Into<String>) -> Self {
        WireError {
            field: field.into(),
            message: message.into(),
        }
    }

    /// Renders the error as the JSON object the campaign service returns
    /// with a 400.
    pub fn to_json(&self) -> String {
        Json::obj([
            ("error", self.message.to_json()),
            ("field", self.field.to_json()),
        ])
        .to_string()
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.field, self.message)
    }
}

impl std::error::Error for WireError {}

/// A type's text layout: how it is written as a [`Json`] value and read back
/// from one. The text twin of `tc_sim::Snap`; declare it with
/// [`json_struct!`] or [`named_enum!`] where one of them fits.
///
/// [`json_struct!`]: crate::json_struct
/// [`named_enum!`]: crate::named_enum
pub trait Wire: Sized {
    /// This value as JSON. `from_json(&v.to_json(), _) == Ok(v)`.
    fn to_json(&self) -> Json;

    /// Reads a value from the JSON found at `path`.
    ///
    /// # Errors
    ///
    /// A [`WireError`] naming `path`, or a member below it.
    fn from_json(json: &Json, path: &str) -> Result<Self, WireError>;
}

macro_rules! wire_unsigned {
    ($($ty:ident),*) => {$(
        impl Wire for $ty {
            fn to_json(&self) -> Json {
                Json::Num(self.to_string())
            }
            fn from_json(json: &Json, path: &str) -> Result<Self, WireError> {
                let wide = json
                    .as_u64()
                    .ok_or_else(|| WireError::new(path, "expected a non-negative integer"))?;
                $ty::try_from(wide).map_err(|_| {
                    WireError::new(path, format!("{wide} is out of range (at most {})", $ty::MAX))
                })
            }
        }
    )*};
}
wire_unsigned!(u32, u64, usize);

impl Wire for f64 {
    /// `{:?}` is Rust's shortest-round-trip float formatting: parsing the
    /// token back with `str::parse::<f64>` recovers the exact bits, which
    /// the cache key and the bit-identical serving contract both rely on.
    fn to_json(&self) -> Json {
        Json::Num(format!("{self:?}"))
    }
    fn from_json(json: &Json, path: &str) -> Result<Self, WireError> {
        json.as_f64()
            .ok_or_else(|| WireError::new(path, "expected a number"))
    }
}

impl Wire for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
    fn from_json(json: &Json, path: &str) -> Result<Self, WireError> {
        json.as_bool()
            .ok_or_else(|| WireError::new(path, "expected true or false"))
    }
}

impl Wire for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
    fn from_json(json: &Json, path: &str) -> Result<Self, WireError> {
        json.as_str()
            .map(str::to_string)
            .ok_or_else(|| WireError::new(path, "expected a string"))
    }
}

/// Declares a struct's text layout — an object with one member per field,
/// named after the field, in the order given — and generates [`Wire`] for
/// it. Every member is required on reading, once; a member the declaration
/// does not list is refused.
///
/// ```
/// # use tc_types::json::{Json, Wire};
/// #[derive(Debug, PartialEq)]
/// struct Line {
///     tokens: u32,
///     dirty: bool,
/// }
/// tc_types::json_struct!(Line { tokens, dirty });
///
/// let line = Line { tokens: 3, dirty: true };
/// assert_eq!(line.to_json().to_string(), "{\"tokens\":3,\"dirty\":true}");
/// assert_eq!(Line::from_json(&line.to_json(), "line"), Ok(line));
/// let err = Line::from_json(&Json::parse("{\"tokens\":3}").unwrap(), "line").unwrap_err();
/// assert_eq!(err.field, "line.dirty");
/// let err = Line::from_json(&Json::parse("{\"tokens\":3,\"dirty\":true,\"age\":1}").unwrap(), "line")
///     .unwrap_err();
/// assert_eq!((err.field.as_str(), err.message.as_str()), ("line.age", "unknown member"));
/// ```
#[macro_export]
macro_rules! json_struct {
    ($ty:ident { $($field:ident),* $(,)? }) => {
        impl $crate::json::Wire for $ty {
            fn to_json(&self) -> $crate::json::Json {
                $crate::json::Json::obj([
                    $((stringify!($field), $crate::json::Wire::to_json(&self.$field))),*
                ])
            }
            fn from_json(
                json: &$crate::json::Json,
                path: &str,
            ) -> Result<Self, $crate::json::WireError> {
                let value = $ty { $($field: json.member(path, stringify!($field))?),* };
                json.only_members(path, &[$(stringify!($field)),*])?;
                Ok(value)
            }
        }
    };
}

/// Declares the names of a closed, field-less enum — `Variant => "Name"` —
/// and generates `ALL` (every variant, in declaration order), `name()`, the
/// case-insensitive `by_name()`, `Display` (the name) and a [`Wire`] layout
/// (the name as a string) whose rejection lists the accepted names.
///
/// ```
/// # use tc_types::json::{Json, Wire};
/// #[derive(Debug, Clone, Copy, PartialEq)]
/// enum Mode {
///     Fast,
///     Exact,
/// }
/// tc_types::named_enum!(Mode, "mode" { Fast => "fast", Exact => "exact" });
///
/// assert_eq!(Mode::ALL, [Mode::Fast, Mode::Exact]);
/// assert_eq!(Mode::Exact.to_string(), "exact");
/// assert_eq!(Mode::by_name("FAST"), Some(Mode::Fast));
/// let err = Mode::from_json(&Json::Str("slow".into()), "m").unwrap_err();
/// assert_eq!(err.message, "unknown mode `slow` (expected one of: fast, exact)");
/// ```
#[macro_export]
macro_rules! named_enum {
    ($ty:ident, $what:literal { $($variant:ident => $name:literal),* $(,)? }) => {
        impl $ty {
            /// Every variant, in declaration (and display) order.
            pub const ALL: [$ty; [$($name),*].len()] = [$($ty::$variant),*];

            /// The canonical name: what `Display` prints and the text
            /// formats carry.
            pub fn name(self) -> &'static str {
                match self {
                    $($ty::$variant => $name,)*
                }
            }

            /// Looks a variant up by (ASCII-case-insensitive) name; the
            /// inverse of `name`.
            pub fn by_name(name: &str) -> Option<$ty> {
                $ty::ALL
                    .into_iter()
                    .find(|v| v.name().eq_ignore_ascii_case(name))
            }
        }

        impl ::std::fmt::Display for $ty {
            fn fmt(&self, f: &mut ::std::fmt::Formatter<'_>) -> ::std::fmt::Result {
                f.write_str(self.name())
            }
        }

        impl $crate::json::Wire for $ty {
            fn to_json(&self) -> $crate::json::Json {
                $crate::json::Json::Str(self.name().to_string())
            }
            fn from_json(
                json: &$crate::json::Json,
                path: &str,
            ) -> Result<Self, $crate::json::WireError> {
                let name: String = $crate::json::Wire::from_json(json, path)?;
                $ty::by_name(&name).ok_or_else(|| {
                    $crate::json::WireError::new(
                        path,
                        format!(
                            concat!("unknown ", $what, " `{}` (expected one of: {})"),
                            name,
                            [$($name),*].join(", ")
                        ),
                    )
                })
            }
        }
    };
}

/// Appends `value` to `out` with the workspace's escaping policy: `"` and
/// `\` are backslash-escaped, `\n` stays readable, every other control
/// character becomes `\u00XX`, everything else passes through.
///
/// # Errors
///
/// Whatever `out` fails with.
pub fn escape_json_str_into(out: &mut impl fmt::Write, value: &str) -> fmt::Result {
    for c in value.chars() {
        match c {
            '"' => out.write_str("\\\"")?,
            '\\' => out.write_str("\\\\")?,
            '\n' => out.write_str("\\n")?,
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32)?,
            c => out.write_char(c)?,
        }
    }
    Ok(())
}

fn quoted(f: &mut fmt::Formatter<'_>, text: &str) -> fmt::Result {
    f.write_str("\"")?;
    escape_json_str_into(f, text)?;
    f.write_str("\"")
}

impl fmt::Display for Json {
    /// Compact serialization: numbers verbatim, members in order.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(true) => f.write_str("true"),
            Json::Bool(false) => f.write_str("false"),
            Json::Num(tok) => f.write_str(tok),
            Json::Str(s) => quoted(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(members) => {
                f.write_str("{")?;
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    quoted(f, key)?;
                    write!(f, ":{value}")?;
                }
                f.write_str("}")
            }
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected `{}`", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(format!("expected `{word}`")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.error("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(self.error(format!("unexpected `{}`", other as char))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.error("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.error("expected `,` or `]` in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let code = self.hex4()?;
                            // Surrogate pairs: a high surrogate must be
                            // followed by an escaped low surrogate.
                            let c = if (0xD800..0xDC00).contains(&code) {
                                if self.peek() != Some(b'\\') {
                                    return Err(self.error("unpaired surrogate"));
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return Err(self.error("unpaired surrogate"));
                                }
                                self.pos += 1;
                                let low = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(self.error("invalid low surrogate"));
                                }
                                let combined = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                char::from_u32(combined)
                                    .ok_or_else(|| self.error("invalid surrogate pair"))?
                            } else if (0xDC00..0xE000).contains(&code) {
                                return Err(self.error("unpaired low surrogate"));
                            } else {
                                char::from_u32(code)
                                    .ok_or_else(|| self.error("invalid \\u escape"))?
                            };
                            out.push(c);
                            continue; // hex4 already advanced pos
                        }
                        _ => return Err(self.error("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => {
                    return Err(self.error("unescaped control character in string"));
                }
                Some(_) => {
                    // Consume one UTF-8 scalar. The input is a &str, so the
                    // encoding is already valid; find the next boundary.
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.bytes.len() && (self.bytes[self.pos] & 0xC0) == 0x80 {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .expect("input is valid UTF-8"),
                    );
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut code: u32 = 0;
        for _ in 0..4 {
            let digit = match self.peek() {
                Some(b @ b'0'..=b'9') => (b - b'0') as u32,
                Some(b @ b'a'..=b'f') => (b - b'a' + 10) as u32,
                Some(b @ b'A'..=b'F') => (b - b'A' + 10) as u32,
                _ => return Err(self.error("invalid \\u escape")),
            };
            code = code * 16 + digit;
            self.pos += 1;
        }
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part: `0` or a nonzero digit followed by digits.
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.error("invalid number")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.error("digits required after decimal point"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.error("digits required in exponent"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let token = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("number tokens are ASCII")
            .to_string();
        Ok(Json::Num(token))
    }
}

/// The one check every [`named_enum!`] type gets: each variant's name reads
/// back as that variant in any ASCII case, no two variants share a name, and
/// the rejection of an unknown name is addressed and lists every name.
#[cfg(test)]
pub(crate) fn assert_named_enum<T>(all: &[T])
where
    T: Wire + Copy + PartialEq + fmt::Debug + fmt::Display,
{
    for (i, variant) in all.iter().enumerate() {
        let name = variant.to_string();
        assert_eq!(variant.to_json(), Json::Str(name.clone()));
        for cased in [
            name.clone(),
            name.to_ascii_lowercase(),
            name.to_ascii_uppercase(),
        ] {
            assert_eq!(T::from_json(&Json::Str(cased), "at"), Ok(*variant));
        }
        for other in &all[..i] {
            assert!(
                !other.to_string().eq_ignore_ascii_case(&name),
                "{other:?} and {variant:?} share a name"
            );
        }
    }
    let err = T::from_json(&Json::Str("no such name".to_string()), "at").unwrap_err();
    assert_eq!(err.field, "at");
    assert!(err.message.contains("`no such name`"), "{err}");
    for variant in all {
        assert!(err.message.contains(&variant.to_string()), "{err}");
    }
    assert_eq!(
        T::from_json(&Json::Num("1".to_string()), "at")
            .unwrap_err()
            .field,
        "at"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integers_are_range_checked_never_truncated() {
        let big = Json::Num("4294967300".to_string());
        assert_eq!(u64::from_json(&big, "n"), Ok(4_294_967_300));
        let err = u32::from_json(&big, "n").unwrap_err();
        assert_eq!(err.field, "n");
        assert!(err.message.contains("out of range"), "{err}");
        assert_eq!(
            u32::from_json(&Json::Num(u32::MAX.to_string()), "n"),
            Ok(u32::MAX)
        );
        for not_an_integer in ["-1", "1.5", "1e3", "18446744073709551616"] {
            let err = u64::from_json(&Json::Num(not_an_integer.to_string()), "n").unwrap_err();
            assert_eq!(err.message, "expected a non-negative integer");
        }
        assert!(usize::from_json(&Json::Str("7".to_string()), "n").is_err());
    }

    #[test]
    fn scalars_round_trip_through_their_layouts() {
        for bits in [0.1f64, 3.2, 1e300, -0.0, 5e-324] {
            let back = f64::from_json(&bits.to_json(), "x").unwrap();
            assert_eq!(back.to_bits(), bits.to_bits());
        }
        assert_eq!(2.0f64.to_json().to_string(), "2.0");
        assert_eq!(bool::from_json(&true.to_json(), "b"), Ok(true));
        assert_eq!(String::from_json(&Json::Null, "s").unwrap_err().field, "s");
    }

    #[test]
    fn members_build_the_dotted_path() {
        let doc = Json::parse("{\"a\":{\"n\":5},\"s\":\"x\"}").unwrap();
        let a = doc.get("a").unwrap();
        assert_eq!(a.member::<u64>("a", "n"), Ok(5));
        assert_eq!(doc.member::<String>("", "s"), Ok("x".to_string()));
        let missing = a.member::<u64>("a", "m").unwrap_err();
        assert_eq!(
            (missing.field.as_str(), missing.message.as_str()),
            ("a.m", "missing required field")
        );
        assert_eq!(doc.member::<u64>("", "m").unwrap_err().field, "m");
        assert_eq!(a.member_opt::<u64>("a", "m"), Ok(None));
        assert_eq!(a.member::<bool>("a", "n").unwrap_err().field, "a.n");
        // A non-object is rejected where it sits, not member by member.
        let not_object = doc.get("s").unwrap().member::<u64>("s", "n").unwrap_err();
        assert_eq!(
            (not_object.field.as_str(), not_object.message.as_str()),
            ("s", "expected an object")
        );
        assert_eq!(
            missing.to_json(),
            "{\"error\":\"missing required field\",\"field\":\"a.m\"}"
        );
        assert_eq!(missing.to_string(), "a.m: missing required field");
    }

    #[test]
    fn fixed_prints_decimals_and_nulls_the_undefined() {
        assert_eq!(Json::fixed(1.0 / 3.0, 2).to_string(), "0.33");
        assert_eq!(Json::fixed(2.0, 3).to_string(), "2.000");
        assert_eq!(Json::fixed(f64::NAN, 2), Json::Null);
        assert_eq!(Json::fixed(f64::INFINITY, 2), Json::Null);
        assert_eq!(
            Json::obj([("k", Json::fixed(0.5, 1))]).to_string(),
            "{\"k\":0.5}"
        );
    }

    #[test]
    fn scalars_parse_and_round_trip() {
        for text in [
            "null", "true", "false", "0", "-7", "3.20", "1.5e-3", "\"x\"",
        ] {
            let v = Json::parse(text).unwrap();
            assert_eq!(v.to_string(), text, "{text}");
        }
    }

    #[test]
    fn numbers_keep_their_raw_token() {
        let v = Json::parse("[1.50,0.500,12]").unwrap();
        assert_eq!(v.to_string(), "[1.50,0.500,12]");
        let items = v.as_array().unwrap();
        assert_eq!(items[0].as_f64(), Some(1.5));
        assert_eq!(items[2].as_u64(), Some(12));
        assert_eq!(items[0].as_u64(), None, "fractional is not a u64");
    }

    #[test]
    fn objects_preserve_member_order() {
        let text = "{\"zebra\":1,\"alpha\":2,\"mid\":{\"b\":[true,null]}}";
        let v = Json::parse(text).unwrap();
        assert_eq!(v.to_string(), text);
        assert_eq!(v.get("alpha").and_then(Json::as_u64), Some(2));
        assert_eq!(
            v.get("mid").and_then(|m| m.get("b")).map(|b| b.to_string()),
            Some("[true,null]".to_string())
        );
    }

    #[test]
    fn writer_escapes_round_trip() {
        // Exactly the escaping policy of the hand-rolled writers.
        let text = "{\"label\":\"a \\\"quoted\\\\label\\\"\\n\\u0007\"}";
        let v = Json::parse(text).unwrap();
        assert_eq!(v.to_string(), text);
        assert_eq!(
            v.get("label").and_then(Json::as_str),
            Some("a \"quoted\\label\"\n\u{7}")
        );
    }

    #[test]
    fn whitespace_is_insignificant_but_not_re_emitted() {
        let v = Json::parse(" { \"a\" : [ 1 , 2 ] } ").unwrap();
        assert_eq!(v.to_string(), "{\"a\":[1,2]}");
    }

    #[test]
    fn surrogate_pairs_decode() {
        let v = Json::parse("\"\\ud83d\\ude00\"").unwrap();
        assert_eq!(v.as_str(), Some("\u{1F600}"));
    }

    #[test]
    fn malformed_documents_are_rejected_with_offsets() {
        for text in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "tru",
            "01",
            "1.",
            "1e",
            "\"unterminated",
            "\"bad \\q escape\"",
            "\"\\ud800 unpaired\"",
            "{}extra",
            "nan",
        ] {
            let err = Json::parse(text).expect_err(text);
            assert!(!err.message.is_empty());
            assert!(err.offset <= text.len());
            assert!(err.to_string().contains("byte"));
        }
    }

    #[test]
    fn deep_nesting_is_bounded_not_a_stack_overflow() {
        let deep = "[".repeat(10_000) + &"]".repeat(10_000);
        let err = Json::parse(&deep).expect_err("must reject");
        assert!(err.message.contains("deep"));
        // A depth well under the limit parses fine.
        let ok = "[".repeat(40) + &"]".repeat(40);
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn accessor_type_mismatches_are_none() {
        let v = Json::parse("{\"s\":\"x\",\"n\":3}").unwrap();
        assert_eq!(v.get("s").and_then(Json::as_u64), None);
        assert_eq!(v.get("n").and_then(Json::as_str), None);
        assert_eq!(v.get("missing"), None);
        assert_eq!(v.as_array(), None);
        assert!(Json::parse("true").unwrap().as_bool() == Some(true));
    }
}

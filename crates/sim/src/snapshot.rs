//! Versioned, checksummed engine snapshots.
//!
//! Everything here is hand-rolled and offline-safe: fixed-width
//! little-endian fields, length-prefixed sequences, an FNV-1a-64 payload
//! checksum, and a small magic/version container. No serde, no external
//! crates — the format is owned by this module and documented in
//! DESIGN.md ("Snapshots & replay").
//!
//! The contract that makes this worth building: restoring a snapshot and
//! driving the engine to completion must produce a **bit-identical**
//! `RunReport` to the uninterrupted run. Serialization here is therefore
//! *exact* — container layouts (open-addressed slot positions, free-list
//! order, bucket FIFO order) round-trip byte-for-byte rather than being
//! rebuilt by re-insertion, because iteration order feeds the
//! deterministic event loop.
//!
//! Decoding is a pure function of the bytes: a load touches no state
//! outside the value it builds, so the same bytes get the same verdict
//! whatever the process loaded before.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::fmt;
use std::hash::{BuildHasher, Hash};

/// Magic bytes opening every sealed snapshot (`TCSNAP` + 2 format bytes).
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"TCSNAP\x00\x01";

/// Current snapshot format version. Bump on any layout change; readers
/// reject other versions rather than guessing.
///
/// * v1 — original PR 7 format.
/// * v2 — verifier payload carries the fairness oracle's outstanding
///   escalations; runner payload carries miss-latency samples and per-node
///   completion counts (and the adversary plane, when one is armed).
/// * v3 — fault/adversary plane state carries per-source-node RNG streams
///   (empty in single-stream mode); `EngineStats` carries shard telemetry;
///   the runner fingerprint folds in `RunOptions::shards`.
/// * v4 — the event queue writes its pending cycles as one time-ordered
///   section; the caches, MSHR tables, home memories, workload generators,
///   processors, verifier and fabric drop the counters nothing reads.
/// * v5 — each fact is saved once: a processor's outstanding misses carry
///   their store flag, and its completion count is the only one (the
///   runner's total, per-node counts and write map, and the processor's
///   issue and transaction counters, go); the miss-latency maximum, the
///   drain flag and the queue, arena and line-table counters that their
///   contents determine are computed on load. The fingerprint key writes
///   the fault and adversary specs in their `Display` form.
/// * v6 — a message's destination is one of four patterns: snooping's
///   all-nodes broadcast and Hammer's probe, which carried explicit node
///   lists (destination tag 2, now retired), write tags 3 and 4.
/// * v7 — TokenB's broadcasts name their sender, `AllBut(sender)` (tag 4;
///   destination tag 1 is retired); the verifier keeps a history only for
///   written blocks; the fingerprint key's token configuration drops the
///   persistent-request latency multiplier nothing read.
/// * v8 — the miss latencies are a histogram, sorted `(latency, count)`
///   pairs, not one entry per completed miss; the line-state statistics
///   drop the retired-plane byte estimate.
/// * v9 — the persistent path carries no read/write flag (message tags 6
///   and 7, the arbiter's requests, the persistent table's entries); the
///   arbiter saves the completions it has parked.
pub const SNAPSHOT_VERSION: u32 = 9;

/// Why a snapshot could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The byte stream ended before the announced payload did.
    Truncated,
    /// The container does not start with [`SNAPSHOT_MAGIC`].
    BadMagic,
    /// The container's version is not one this build can read.
    BadVersion {
        /// Version found in the container header.
        found: u32,
        /// Version this build writes and reads.
        expected: u32,
    },
    /// The FNV-1a-64 checksum over the payload does not match the header.
    Checksum,
    /// Structurally valid bytes that decode to an impossible value
    /// (unknown enum tag, fingerprint mismatch, out-of-range index).
    Corrupt(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::BadMagic => write!(f, "not a snapshot (bad magic)"),
            SnapshotError::BadVersion { found, expected } => {
                write!(f, "snapshot version {found} (this build reads {expected})")
            }
            SnapshotError::Checksum => {
                write!(f, "snapshot checksum mismatch (corrupt or tampered)")
            }
            SnapshotError::Corrupt(why) => write!(f, "snapshot corrupt: {why}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// FNV-1a 64-bit over `bytes` — the integrity check for sealed payloads.
/// Not cryptographic; it catches torn writes and bit rot, which is the
/// failure model for a crash-resume file.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Append-only encoder: fixed-width little-endian primitives plus
/// length-prefixed sequences. The matching decoder is [`SnapReader`].
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// Fresh, empty writer.
    pub fn new() -> Self {
        SnapWriter { buf: Vec::new() }
    }

    /// Consumes the writer, returning the raw payload bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a bool as one byte (0/1).
    pub fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Writes a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as a `u64` (platform-independent width).
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Writes an `f64` via its IEEE-754 bit pattern (exact round-trip).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.usize(v.len());
        self.buf.extend_from_slice(v.as_bytes());
    }

    /// Writes length-prefixed raw bytes.
    pub fn bytes(&mut self, v: &[u8]) {
        self.usize(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Writes a sequence: a length prefix, then `emit` once per item.
    pub fn seq<T>(
        &mut self,
        items: impl ExactSizeIterator<Item = T>,
        mut emit: impl FnMut(&mut Self, T),
    ) {
        self.usize(items.len());
        for item in items {
            emit(self, item);
        }
    }

    /// Writes an `Option<T>` as a presence byte plus the value.
    pub fn option<T>(&mut self, value: Option<T>, emit: impl FnOnce(&mut Self, T)) {
        match value {
            Some(v) => {
                self.bool(true);
                emit(self, v);
            }
            None => self.bool(false),
        }
    }
}

/// Decoder for [`SnapWriter`] payloads. Every read is bounds-checked and
/// returns [`SnapshotError::Truncated`] rather than panicking — corrupt
/// input is an error value, never UB or an abort.
#[derive(Debug)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// Reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        SnapReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.remaining() < n {
            return Err(SnapshotError::Truncated);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a bool; any byte other than 0/1 is corruption.
    pub fn bool(&mut self) -> Result<bool, SnapshotError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(SnapshotError::Corrupt(format!("bool byte {other}"))),
        }
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a `usize` written by [`SnapWriter::usize`], rejecting values
    /// that cannot index memory on this platform.
    pub fn usize(&mut self) -> Result<usize, SnapshotError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| SnapshotError::Corrupt(format!("usize {v} out of range")))
    }

    /// Reads an `f64` from its bit pattern.
    pub fn f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, SnapshotError> {
        let len = self.bounded_len(1)?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| SnapshotError::Corrupt("non-UTF-8 string".into()))
    }

    /// Reads length-prefixed raw bytes.
    pub fn bytes(&mut self) -> Result<&'a [u8], SnapshotError> {
        let len = self.bounded_len(1)?;
        self.take(len)
    }

    /// Reads a sequence length and sanity-bounds it against the bytes
    /// actually remaining (each element needs at least `min_elem_bytes`),
    /// so a corrupt length cannot trigger an absurd pre-allocation.
    pub fn bounded_len(&mut self, min_elem_bytes: usize) -> Result<usize, SnapshotError> {
        let len = self.usize()?;
        if len.saturating_mul(min_elem_bytes.max(1)) > self.remaining() {
            return Err(SnapshotError::Truncated);
        }
        Ok(len)
    }

    /// Reads a sequence written by [`SnapWriter::seq`].
    pub fn seq<T>(
        &mut self,
        mut read: impl FnMut(&mut Self) -> Result<T, SnapshotError>,
    ) -> Result<Vec<T>, SnapshotError> {
        let len = self.bounded_len(1)?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(read(self)?);
        }
        Ok(out)
    }

    /// Reads an `Option<T>` written by [`SnapWriter::option`].
    pub fn option<T>(
        &mut self,
        read: impl FnOnce(&mut Self) -> Result<T, SnapshotError>,
    ) -> Result<Option<T>, SnapshotError> {
        if self.bool()? {
            Ok(Some(read(self)?))
        } else {
            Ok(None)
        }
    }

    /// Fails unless every payload byte was consumed — trailing garbage
    /// means the reader and writer disagree about the layout.
    pub fn finish(self) -> Result<(), SnapshotError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(SnapshotError::Corrupt(format!(
                "{} trailing bytes",
                self.remaining()
            )))
        }
    }
}

/// A type with one wire layout: [`Snap::save`] appends it to a payload and
/// [`Snap::load`] reads the same bytes back. Implemented here for the
/// primitives and sequences the format is built from; every plain struct
/// and enum declares its layout once with [`snap_struct!`](crate::snap_struct)
/// or [`snap_enum!`](crate::snap_enum), which generate both halves, so a
/// field cannot be written and not read.
pub trait Snap: Sized {
    /// Appends this value's wire bytes to `w`.
    fn save(&self, w: &mut SnapWriter);

    /// Reads one value back from `r`.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] when the bytes end early,
    /// [`SnapshotError::Corrupt`] when they decode to an impossible value.
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError>;
}

macro_rules! snap_primitive {
    ($($ty:ident),*) => {$(
        impl Snap for $ty {
            fn save(&self, w: &mut SnapWriter) {
                w.$ty(*self);
            }
            fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
                r.$ty()
            }
        }
    )*};
}
snap_primitive!(u8, u32, u64, usize, bool, f64);

impl Snap for String {
    fn save(&self, w: &mut SnapWriter) {
        w.str(self);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        r.str()
    }
}

impl<T: Snap> Snap for Option<T> {
    fn save(&self, w: &mut SnapWriter) {
        w.option(self.as_ref(), |w, v| v.save(w));
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        r.option(T::load)
    }
}

/// A fixed-size array is its elements back to back, with no length prefix.
impl<T: Snap, const N: usize> Snap for [T; N] {
    fn save(&self, w: &mut SnapWriter) {
        self.iter().for_each(|v| v.save(w));
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let items = (0..N).map(|_| T::load(r)).collect::<Result<Vec<T>, _>>()?;
        Ok(items
            .try_into()
            .unwrap_or_else(|_| unreachable!("N items were read")))
    }
}

// Every growable sequence is a length prefix, then the elements in
// iteration order.
macro_rules! snap_sequence {
    ($($seq:ty $(where T: $bound:path)?),*) => {$(
        impl<T: Snap $(+ $bound)?> Snap for $seq {
            fn save(&self, w: &mut SnapWriter) {
                w.seq(self.iter(), |w, v| v.save(w));
            }
            fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
                let len = r.bounded_len(1)?;
                (0..len).map(|_| T::load(r)).collect()
            }
        }
    )*};
}
snap_sequence!(Vec<T>, VecDeque<T>, BTreeSet<T> where T: Ord);

/// A map is the sequence of its `(key, value)` pairs in key order.
impl<K: Snap + Ord, V: Snap> Snap for BTreeMap<K, V> {
    fn save(&self, w: &mut SnapWriter) {
        w.seq(self.iter(), save_pair);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(load_pairs(r)?.into_iter().collect())
    }
}

/// A hash map is saved as the ordered map with the same pairs would be, so
/// its bytes do not depend on the hasher's iteration order.
impl<K: Snap + Ord + Hash, V: Snap, S: BuildHasher + Default> Snap for HashMap<K, V, S> {
    fn save(&self, w: &mut SnapWriter) {
        let mut pairs: Vec<(&K, &V)> = self.iter().collect();
        pairs.sort_unstable_by(|a, b| a.0.cmp(b.0));
        w.seq(pairs.into_iter(), save_pair);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(load_pairs(r)?.into_iter().collect())
    }
}

fn save_pair<K: Snap, V: Snap>(w: &mut SnapWriter, (k, v): (&K, &V)) {
    k.save(w);
    v.save(w);
}

/// Reads a map's pairs, refusing a key that does not sort strictly after
/// the one before it: every writer saves in key order, so a repeated key
/// (one pair would silently win) or a step back (the map would re-save to
/// other bytes) is a file no writer made.
fn load_pairs<K: Snap + Ord, V: Snap>(
    r: &mut SnapReader<'_>,
) -> Result<Vec<(K, V)>, SnapshotError> {
    let pairs = Vec::<(K, V)>::load(r)?;
    if pairs.windows(2).any(|p| p[0].0 >= p[1].0) {
        return Err(SnapshotError::Corrupt("map keys out of order".into()));
    }
    Ok(pairs)
}

macro_rules! snap_tuple {
    ($($name:ident),*) => {
        impl<$($name: Snap),*> Snap for ($($name,)*) {
            #[allow(non_snake_case)]
            fn save(&self, w: &mut SnapWriter) {
                let ($($name,)*) = self;
                $($name.save(w);)*
            }
            fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
                Ok(($($name::load(r)?,)*))
            }
        }
    };
}
snap_tuple!(A, B);
snap_tuple!(A, B, C);

/// Declares a struct's wire layout — its fields, in wire order — and
/// generates [`Snap`] for it.
///
/// ```
/// # use tc_sim::{snap_struct, Snap, SnapReader, SnapWriter};
/// #[derive(Debug, PartialEq)]
/// struct Line {
///     tokens: u32,
///     dirty: bool,
/// }
/// snap_struct!(Line { tokens, dirty });
///
/// let mut w = SnapWriter::new();
/// Line { tokens: 3, dirty: true }.save(&mut w);
/// let bytes = w.into_bytes();
/// assert_eq!(bytes, [3, 0, 0, 0, 1]);
/// let back = Line::load(&mut SnapReader::new(&bytes)).unwrap();
/// assert_eq!(back, Line { tokens: 3, dirty: true });
/// ```
///
/// A tuple struct names its fields as bindings, `snap_struct!(Id(value))`.
/// `snap_struct!(Type in Context { .. })` declares a [`SnapWith<Context>`]
/// layout instead, for a struct with a field that decodes through the
/// context (an MSHR's pending list, kept in its controller's op pool); the
/// plain fields ignore the context.
#[macro_export]
macro_rules! snap_struct {
    ($ty:ident { $($field:ident),* $(,)? }) => {
        impl $crate::Snap for $ty {
            fn save(&self, w: &mut $crate::SnapWriter) {
                $($crate::Snap::save(&self.$field, w);)*
            }
            fn load(r: &mut $crate::SnapReader<'_>) -> Result<Self, $crate::SnapshotError> {
                Ok($ty { $($field: $crate::Snap::load(r)?),* })
            }
        }
    };
    ($ty:ident ( $($item:ident),* $(,)? )) => {
        impl $crate::Snap for $ty {
            fn save(&self, w: &mut $crate::SnapWriter) {
                let $ty($($item),*) = self;
                $($crate::Snap::save($item, w);)*
            }
            fn load(r: &mut $crate::SnapReader<'_>) -> Result<Self, $crate::SnapshotError> {
                $(let $item = $crate::Snap::load(r)?;)*
                Ok($ty($($item),*))
            }
        }
    };
    ($ty:ident in $ctx:ty { $($field:ident),* $(,)? }) => {
        impl $crate::SnapWith<$ctx> for $ty {
            fn save_with(&self, w: &mut $crate::SnapWriter, ctx: &$ctx) {
                $($crate::SnapWith::save_with(&self.$field, w, ctx);)*
            }
            fn load_with(
                r: &mut $crate::SnapReader<'_>,
                ctx: &mut $ctx,
            ) -> Result<Self, $crate::SnapshotError> {
                Ok($ty { $($field: $crate::SnapWith::load_with(r, ctx)?),* })
            }
        }
    };
}

/// Declares an enum's wire layout — `tag => Variant`, the variant's fields
/// in wire order — and generates [`Snap`] for it: one tag byte, then the
/// fields. A tag the declaration does not list loads as
/// `Corrupt("<what> tag <n>")`. Tags are wire format and append-only: a
/// retired tag is left out of the list, never given to another variant.
///
/// ```
/// # use tc_sim::{snap_enum, Snap, SnapReader, SnapWriter, SnapshotError};
/// #[derive(Debug, PartialEq)]
/// enum Kind {
///     Plain,
///     Sized { bytes: u32 },
///     Wrapped(u64),
/// }
/// snap_enum!(Kind, "kind" {
///     0 => Plain,
///     1 => Sized { bytes },
///     3 => Wrapped(value),
/// });
///
/// let mut w = SnapWriter::new();
/// Kind::Sized { bytes: 7 }.save(&mut w);
/// assert_eq!(w.into_bytes(), [1, 7, 0, 0, 0]);
/// assert_eq!(
///     Kind::load(&mut SnapReader::new(&[2])),
///     Err(SnapshotError::Corrupt("kind tag 2".into()))
/// );
/// ```
#[macro_export]
macro_rules! snap_enum {
    ($ty:ident, $what:literal {
        $($tag:literal => $variant:ident
            $({ $($field:ident),* $(,)? })?
            $(( $($item:ident),* $(,)? ))?
        ),* $(,)?
    }) => {
        impl $crate::Snap for $ty {
            fn save(&self, w: &mut $crate::SnapWriter) {
                match self {
                    $($ty::$variant $({ $($field),* })? $(( $($item),* ))? => {
                        w.u8($tag);
                        $($($crate::Snap::save($field, w);)*)?
                        $($($crate::Snap::save($item, w);)*)?
                    })*
                }
            }
            fn load(r: &mut $crate::SnapReader<'_>) -> Result<Self, $crate::SnapshotError> {
                Ok(match r.u8()? {
                    $($tag => {
                        $($(let $field = $crate::Snap::load(r)?;)*)?
                        $($(let $item = $crate::Snap::load(r)?;)*)?
                        $ty::$variant $({ $($field),* })? $(( $($item),* ))?
                    })*
                    other => {
                        return Err($crate::SnapshotError::Corrupt(format!(
                            concat!($what, " tag {}"),
                            other
                        )))
                    }
                })
            }
        }
    };
}

/// A value whose bytes go through a context it does not own: an MSHR's
/// pending list is written out of, and re-minted into, its controller's op
/// pool. Every [`Snap`] type is one for any context, ignoring it, so
/// `snap_struct!(Type in Context { .. })` lists plain and pooled fields alike.
pub trait SnapWith<C>: Sized {
    /// Appends this value's bytes to `w`, reading pooled parts in `ctx`.
    fn save_with(&self, w: &mut SnapWriter, ctx: &C);
    /// Reads one value back from `r`, minting pooled parts in `ctx`.
    fn load_with(r: &mut SnapReader<'_>, ctx: &mut C) -> Result<Self, SnapshotError>;
}

impl<T: Snap, C> SnapWith<C> for T {
    fn save_with(&self, w: &mut SnapWriter, _ctx: &C) {
        self.save(w);
    }
    fn load_with(r: &mut SnapReader<'_>, _ctx: &mut C) -> Result<Self, SnapshotError> {
        T::load(r)
    }
}

/// State restored in place onto a skeleton the configuration built (its
/// geometry, latencies, specs and node ids): only what a run changes is
/// written. Every [`Snap`] type is one by replacing the whole value; a type
/// with a skeleton declares its state once with [`snap_state!`](crate::snap_state).
pub trait SnapState {
    /// Appends this value's mutable state to `w`.
    fn save_state(&self, w: &mut SnapWriter);
    /// Reads [`SnapState::save_state`] bytes back over this value; a failed
    /// load may leave it half overwritten.
    fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapshotError>;
}

impl<T: Snap> SnapState for T {
    fn save_state(&self, w: &mut SnapWriter) {
        self.save(w);
    }
    fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapshotError> {
        *self = T::load(r)?;
        Ok(())
    }
}

/// Skeletons the configuration built a number of — a `Vec` (its length is
/// written) or an `Option` (a presence byte): the saved count must be the
/// built one, then each is restored in place. The `[field]` form of
/// [`snap_state!`](crate::snap_state).
pub trait SnapEach {
    /// Writes the count, then each element's state.
    fn save_each(&self, w: &mut SnapWriter);
    /// Reads [`SnapEach::save_each`] bytes back, naming the elements `what`
    /// in the `Corrupt` error a count mismatch is.
    fn load_each(&mut self, r: &mut SnapReader<'_>, what: &str) -> Result<(), SnapshotError>;
}

fn same_count(saved: usize, built: usize, what: &str) -> Result<(), SnapshotError> {
    if saved == built {
        return Ok(());
    }
    Err(SnapshotError::Corrupt(format!(
        "snapshot has {saved} {what}, the system built {built}"
    )))
}

impl<T: SnapState> SnapEach for Vec<T> {
    fn save_each(&self, w: &mut SnapWriter) {
        w.usize(self.len());
        self.iter().for_each(|v| v.save_state(w));
    }
    fn load_each(&mut self, r: &mut SnapReader<'_>, what: &str) -> Result<(), SnapshotError> {
        same_count(r.usize()?, self.len(), what)?;
        self.iter_mut().try_for_each(|v| v.load_state(r))
    }
}

impl<T: SnapState> SnapEach for Option<T> {
    fn save_each(&self, w: &mut SnapWriter) {
        w.bool(self.is_some());
        self.iter().for_each(|v| v.save_state(w));
    }
    fn load_each(&mut self, r: &mut SnapReader<'_>, what: &str) -> Result<(), SnapshotError> {
        same_count(usize::from(r.bool()?), usize::from(self.is_some()), what)?;
        self.iter_mut().try_for_each(|v| v.load_state(r))
    }
}

/// Declares the state of a type restored onto a skeleton — its fields, in
/// wire order — and generates [`SnapState`] for it. A field is `a.b` (any
/// [`SnapState`]: a value is replaced, a nested skeleton restored in place),
/// `[a.b]` (a [`SnapEach`]: as many skeletons as the configuration built),
/// or `a in b.c` (a table whose entries decode through another field, by
/// `a.save_state(w, &b.c)` / `a.load_state(r, &mut b.c)`: an MSHR table and
/// the op pool its pending lists live in, an event queue and the arena its
/// timers are parked in). `snap_state!(fn { .. })` is just the
/// two methods, for an impl of a trait with the same ones (a controller's).
///
/// ```
/// # use tc_sim::{snap_state, SnapReader, SnapState, SnapWriter};
/// struct Link {
///     latency: u64, // from the configuration
///     busy_until: u64,
///     sent: u32,
/// }
/// snap_state!(Link { busy_until, sent });
///
/// let mut w = SnapWriter::new();
/// Link { latency: 15, busy_until: 9, sent: 2 }.save_state(&mut w);
/// let bytes = w.into_bytes();
/// assert_eq!(bytes.len(), 12);
/// let mut link = Link { latency: 15, busy_until: 0, sent: 0 };
/// link.load_state(&mut SnapReader::new(&bytes)).unwrap();
/// assert_eq!((link.latency, link.busy_until, link.sent), (15, 9, 2));
/// ```
#[macro_export]
macro_rules! snap_state {
    // One field at a time onto the two bodies. `self`, `w` and `r` are the
    // `fn` arm's tokens, passed along so every use names the same binding.
    (@ $s:tt $w:tt $r:tt [$($save:tt)*] [$($load:tt)*]) => {
        fn save_state(&$s, $w: &mut $crate::SnapWriter) { $($save)* }
        fn load_state(&mut $s, $r: &mut $crate::SnapReader<'_>)
            -> ::core::result::Result<(), $crate::SnapshotError> { $($load)* Ok(()) }
    };
    (@ $s:tt $w:tt $r:tt [$($save:tt)*] [$($load:tt)*]
        [$($p:ident).+] $(, $($rest:tt)*)?) => {
        $crate::snap_state!(@ $s $w $r
            [$($save)* $crate::SnapEach::save_each(&$s.$($p).+, $w);]
            [$($load)* $crate::SnapEach::load_each(&mut $s.$($p).+, $r, stringify!($($p).+))?;]
            $($($rest)*)?);
    };
    (@ $s:tt $w:tt $r:tt [$($save:tt)*] [$($load:tt)*]
        $($p:ident).+ in $($c:ident).+ $(, $($rest:tt)*)?) => {
        $crate::snap_state!(@ $s $w $r
            [$($save)* $s.$($p).+.save_state($w, &$s.$($c).+);]
            [$($load)* $s.$($p).+.load_state($r, &mut $s.$($c).+)?;]
            $($($rest)*)?);
    };
    (@ $s:tt $w:tt $r:tt [$($save:tt)*] [$($load:tt)*]
        $($p:ident).+ $(, $($rest:tt)*)?) => {
        $crate::snap_state!(@ $s $w $r
            [$($save)* $crate::SnapState::save_state(&$s.$($p).+, $w);]
            [$($load)* $crate::SnapState::load_state(&mut $s.$($p).+, $r)?;]
            $($($rest)*)?);
    };
    (fn { $($fields:tt)* }) => {
        $crate::snap_state!(@ self w r [] [] $($fields)*);
    };
    ($ty:ty { $($fields:tt)* }) => {
        impl $crate::SnapState for $ty {
            $crate::snap_state!(fn { $($fields)* });
        }
    };
}

/// Seals `payload` into the on-disk container:
/// `magic(8) | version(4) | payload_len(8) | fnv1a64(payload)(8) | payload`.
pub fn seal(version: u32, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(28 + payload.len());
    out.extend_from_slice(&SNAPSHOT_MAGIC);
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&fnv1a64(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Opens a sealed container, verifying magic, version, length, and
/// checksum. Returns the payload slice.
pub fn open(bytes: &[u8]) -> Result<(u32, &[u8]), SnapshotError> {
    if bytes.len() < 28 {
        return Err(SnapshotError::Truncated);
    }
    if bytes[..8] != SNAPSHOT_MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if version != SNAPSHOT_VERSION {
        return Err(SnapshotError::BadVersion {
            found: version,
            expected: SNAPSHOT_VERSION,
        });
    }
    let len = u64::from_le_bytes(bytes[12..20].try_into().unwrap());
    let want = u64::from_le_bytes(bytes[20..28].try_into().unwrap());
    let payload = &bytes[28..];
    if payload.len() as u64 != len {
        return Err(SnapshotError::Truncated);
    }
    if fnv1a64(payload) != want {
        return Err(SnapshotError::Checksum);
    }
    Ok((version, payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = SnapWriter::new();
        w.u8(7);
        w.bool(true);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 3);
        w.f64(-0.125);
        w.str("token coherence");
        w.bytes(&[1, 2, 3]);
        w.option(Some(42u64), |w, v| w.u64(v));
        w.option(None::<u64>, |w, v| w.u64(v));
        w.seq([10u64, 20, 30].into_iter(), |w, v| w.u64(v));
        let bytes = w.into_bytes();

        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert!(r.bool().unwrap());
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.f64().unwrap(), -0.125);
        assert_eq!(r.str().unwrap(), "token coherence");
        assert_eq!(r.bytes().unwrap(), &[1, 2, 3]);
        assert_eq!(r.option(|r| r.u64()).unwrap(), Some(42));
        assert_eq!(r.option(|r| r.u64()).unwrap(), None);
        assert_eq!(r.seq(|r| r.u64()).unwrap(), vec![10, 20, 30]);
        r.finish().unwrap();
    }

    /// `(key, key * 10)` pairs for `keys`, in the given order, as a map's
    /// bytes.
    fn map_bytes(keys: &[u64]) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.seq(keys.iter(), |w, &k| {
            w.u64(k);
            w.u64(k * 10);
        });
        w.into_bytes()
    }

    #[test]
    fn ordered_map_loads_refuse_repeated_and_out_of_order_keys() {
        for keys in [&[3, 3][..], &[5, 2], &[1, 4, 4, 9]] {
            let loaded = BTreeMap::<u64, u64>::load(&mut SnapReader::new(&map_bytes(keys)));
            assert!(
                matches!(loaded, Err(SnapshotError::Corrupt(_))),
                "{keys:?}: {loaded:?}"
            );
        }
        let map = BTreeMap::<u64, u64>::load(&mut SnapReader::new(&map_bytes(&[2, 5]))).unwrap();
        assert_eq!(map, BTreeMap::from([(2, 20), (5, 50)]));
    }

    #[test]
    fn hash_maps_save_in_key_order_and_refuse_repeated_or_out_of_order_keys() {
        let map: HashMap<u64, u64> = [9, 1, 4, 7].into_iter().map(|k| (k, k * 10)).collect();
        let mut w = SnapWriter::new();
        map.save(&mut w);
        assert_eq!(w.into_bytes(), map_bytes(&[1, 4, 7, 9]));
        for keys in [&[3, 3][..], &[5, 2]] {
            let loaded = HashMap::<u64, u64>::load(&mut SnapReader::new(&map_bytes(keys)));
            assert!(
                matches!(loaded, Err(SnapshotError::Corrupt(_))),
                "{keys:?}: {loaded:?}"
            );
        }
        round_trip(&map);
    }

    fn round_trip<T: Snap + PartialEq + fmt::Debug>(value: &T) {
        let mut w = SnapWriter::new();
        value.save(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(&T::load(&mut r).unwrap(), value);
        r.finish().unwrap();
    }

    /// A skeleton with every field form: a replaced value, a nested
    /// skeleton, a sequence and an optional skeleton whose counts the
    /// configuration fixes, and a table decoding through a sibling pool.
    #[derive(Debug, PartialEq)]
    struct Part {
        size: u64, // configuration
        used: u64,
    }
    snap_state!(Part { used });

    #[derive(Debug, PartialEq)]
    struct Pool(Vec<u64>);

    #[derive(Debug, PartialEq)]
    struct Table(Vec<u64>);

    impl Table {
        fn save_state(&self, w: &mut SnapWriter, pool: &Pool) {
            w.seq(self.0.iter(), |w, &i| w.u64(pool.0[i as usize]));
        }
        fn load_state(
            &mut self,
            r: &mut SnapReader<'_>,
            pool: &mut Pool,
        ) -> Result<(), SnapshotError> {
            pool.0.clear();
            self.0.clear();
            for _ in 0..r.bounded_len(8)? {
                self.0.push(pool.0.len() as u64);
                pool.0.push(r.u64()?);
            }
            Ok(())
        }
    }

    #[derive(Debug, PartialEq)]
    struct Machine {
        ticks: u64,
        head: Part,
        parts: Vec<Part>,
        spare: Option<Part>,
        table: Table,
        pool: Pool,
    }
    snap_state!(Machine { ticks, head, [parts], [spare], table in pool });

    fn machine(parts: usize, spare: bool) -> Machine {
        let part = |used| Part { size: 8, used };
        Machine {
            ticks: 0,
            head: part(0),
            parts: (0..parts as u64).map(part).collect(),
            spare: spare.then(|| part(0)),
            table: Table(Vec::new()),
            pool: Pool(Vec::new()),
        }
    }

    #[test]
    fn snap_state_restores_every_field_form_in_place() {
        let mut saved = machine(3, true);
        saved.ticks = 41;
        saved.head.used = 2;
        saved.parts[1].used = 7;
        saved.spare.as_mut().unwrap().used = 5;
        saved.pool = Pool(vec![70, 80, 90]);
        saved.table = Table(vec![2, 0]);
        let mut w = SnapWriter::new();
        saved.save_state(&mut w);
        let bytes = w.into_bytes();
        // ticks, head, 3 parts after their count, the spare after its
        // presence byte, the table's two entries after their count.
        assert_eq!(bytes.len(), 8 + 8 + (8 + 3 * 8) + (1 + 8) + (8 + 2 * 8));

        let mut restored = machine(3, true);
        let mut r = SnapReader::new(&bytes);
        restored.load_state(&mut r).unwrap();
        r.finish().unwrap();
        let mut w = SnapWriter::new();
        restored.save_state(&mut w);
        assert_eq!(w.into_bytes(), bytes);
        assert_eq!(restored.parts[1], Part { size: 8, used: 7 });
        assert_eq!(restored.pool, Pool(vec![90, 70]));

        // The configuration fixes how many parts and whether a spare exists.
        for (parts, spare, what) in [(2, true, "parts"), (3, false, "spare"), (4, true, "parts")] {
            let err = machine(parts, spare)
                .load_state(&mut SnapReader::new(&bytes))
                .unwrap_err();
            assert!(
                matches!(&err, SnapshotError::Corrupt(why) if why.contains(what)),
                "{parts} parts, spare {spare}: {err}"
            );
        }
        let mut w = SnapWriter::new();
        machine(3, false).save_state(&mut w);
        let without_spare = w.into_bytes();
        let err = machine(3, true)
            .load_state(&mut SnapReader::new(&without_spare))
            .unwrap_err();
        assert!(
            matches!(&err, SnapshotError::Corrupt(why) if why.contains("spare")),
            "{err}"
        );
    }

    #[test]
    fn truncated_reads_error_not_panic() {
        let mut w = SnapWriter::new();
        w.u64(99);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes[..5]);
        assert_eq!(r.u64(), Err(SnapshotError::Truncated));
    }

    #[test]
    fn absurd_length_prefix_is_rejected() {
        let mut w = SnapWriter::new();
        w.usize(usize::MAX / 2);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.seq(|r| r.u8()), Err(SnapshotError::Truncated));
    }

    #[test]
    fn seal_and_open_verify_integrity() {
        let payload = b"engine state goes here";
        let sealed = seal(SNAPSHOT_VERSION, payload);
        let (version, opened) = open(&sealed).unwrap();
        assert_eq!(version, SNAPSHOT_VERSION);
        assert_eq!(opened, payload);

        // Any single flipped payload byte must be a checksum error.
        for i in 28..sealed.len() {
            let mut bad = sealed.clone();
            bad[i] ^= 0x40;
            assert_eq!(open(&bad), Err(SnapshotError::Checksum), "byte {i}");
        }
        // A flipped magic byte is BadMagic, not a checksum error.
        let mut bad = sealed.clone();
        bad[0] ^= 1;
        assert_eq!(open(&bad), Err(SnapshotError::BadMagic));
        // Truncation anywhere is detected.
        assert_eq!(
            open(&sealed[..sealed.len() - 1]),
            Err(SnapshotError::Truncated)
        );
    }

    #[test]
    fn unknown_version_is_rejected() {
        let sealed = seal(SNAPSHOT_VERSION + 9, b"x");
        assert!(matches!(
            open(&sealed),
            Err(SnapshotError::BadVersion { found, .. }) if found == SNAPSHOT_VERSION + 9
        ));
    }
}

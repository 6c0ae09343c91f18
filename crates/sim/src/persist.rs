//! The one state walk: every dynamic field declared once, four visitors
//! derived from the declaration.
//!
//! The paper's "flexible network configuration" story (§4) implies a
//! network whose complete state is inspectable and reconstructible, and
//! its guaranteed-throughput class is periodic by construction. Both
//! capabilities need the same thing — a complete, ordered, classified list
//! of a component's dynamic fields — so each component has exactly one
//! `walk(&mut self, v: &mut dyn StateVisit)` next to its struct
//! definition, and the snapshot stream ([`StateSaver`]), the restore
//! ([`StateLoader`]), the periodicity certificate
//! ([`FfDigest`](crate::ff::FfDigest)) and the arithmetic jump
//! ([`FfApply`](crate::ff::FfApply)) are four implementations of
//! [`StateVisit`] driven through it. A field that is not visited is a
//! structurally visible omission for all four at once (the walk sits next
//! to the struct definition, and the `xtask lint` persist audit
//! cross-checks field counts and refuses a second walk).
//!
//! What gets visited: *dynamic* state only — cycle counters, queue
//! contents, in-flight words, credit counters, RNG state, runtime-written
//! registers (routes, slot tables, channel control words). Structural
//! state (topology, capacities, specs, bindings) is deliberately absent:
//! a snapshot restores onto a freshly built, identically-specified target,
//! so everything derivable from the spec never enters the item stream.
//! Derived caches (visibility memos, activity sets, sleep horizons) are
//! reset by the walk itself, whichever visitor drives it.
//!
//! Every visited field carries its **class**, which is all a visitor
//! needs to know about it:
//!
//! | class | meaning | stream | certificate | jump |
//! |---|---|---|---|---|
//! | [`item`](StateVisit::item) | exact control state | one `u64` | equal at every period | untouched |
//! | [`stamp`](StateVisit::stamp) | absolute cycle that slides with time | one `u64` | constant offset to the capture cycle | shifted by the jump |
//! | [`counter`](StateVisit::counter) | 64-bit statistic | one `u64` | same wrapping delta every period | `k` deltas |
//! | [`value`](StateVisit::value) | 32-bit data word | one `u64`, range-checked | same wrapping delta every period | `k` deltas |
//! | [`word`](StateVisit::word) | link word in flight, or an empty register | [`LinkWord::pack_u64`], `0` = empty | control bits and headers equal, payload as a `value` | payload `k` deltas |
//! | [`len`](StateVisit::len) | collection length | one `u64`, bounded by what is left | equal at every period | untouched |
//! | [`reject`](StateVisit::reject) | aperiodic state | ignored | declines | never reached |
//! | [`fail`](StateVisit::fail) | unpersistable or invalid state | error | declines | never reached |
//!
//! The item stream is a flat `Vec<u64>` per component — lossless in the
//! hand-rolled JSON layer (`aethereal-cfg`'s `Value::Num` is `u64`) and
//! byte-stable across runs, which is what lets golden snapshots be
//! checked in and diffed. The walk order *is* the stream order, so it is
//! format: swapping two fields of a walk is a snapshot-format change.
//! Snapshot items cross a trust boundary, so the loader validates what it
//! takes (lengths, ranges, canonical word encodings) and the walks
//! bounds-check restored indices ([`persist_index`]) and re-derive what
//! can be derived — each through [`fail`](StateVisit::fail), a structured
//! error now instead of a panic some cycles later.

use crate::ring::Ring;
use crate::word::LinkWord;
use std::collections::VecDeque;

/// Error produced when a save or restore walk cannot complete: a component
/// declared itself unpersistable, a restored item was out of range, the
/// item stream ran dry, or items were left over (a walk/snapshot shape
/// mismatch).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PersistError {
    /// Human-readable description of what went wrong.
    pub msg: String,
}

impl PersistError {
    /// Creates an error with the given message.
    pub fn new(msg: impl Into<String>) -> Self {
        PersistError { msg: msg.into() }
    }
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.msg)
    }
}

impl std::error::Error for PersistError {}

/// The state visitor: one deterministic traversal of a component's
/// dynamic state, each field declared with its class (see the module
/// docs for the class table).
///
/// The traversal must visit the same classes in the same order for any
/// two states of the same structure — collection *contents* may differ,
/// but every length difference must flow through [`StateVisit::len`] so a
/// restoring walk can resize before visiting elements and a certifying
/// walk sees the structure change. Mutable access is what lets the
/// identical walk restore a stream and replay certified deltas.
///
/// The provided methods are the *stream* meaning of each class — every
/// classified field is one `u64` item — so [`StateSaver`] and
/// [`StateLoader`] implement little more than [`item`](StateVisit::item);
/// the fast-forward visitors override every class.
pub trait StateVisit {
    /// Exact control state (queue occupancy, routes, credit counters,
    /// registers, …): recorded on save, overwritten on restore, required
    /// to repeat every period by the certificate.
    fn item(&mut self, v: &mut u64);

    /// A collection length. A saving or certifying visitor records `cur`
    /// and returns it unchanged; the restoring visitor returns the
    /// recorded length, which the walk must apply (resize/rebuild) before
    /// visiting the elements.
    fn len(&mut self, cur: usize) -> usize;

    /// Marks state no visitor can take: an IP model without a persist
    /// audit, a snapshot that does not fit the target's capacities, a
    /// restored index out of range. Poisons the save or restore, which
    /// then reports an error instead of a half-true snapshot, and declines
    /// a fast-forward attempt.
    fn fail(&mut self, why: &str);

    /// An absolute cycle number that slides with time (a FIFO word's
    /// visibility stamp, a calendar event's due cycle). Certified when its
    /// offset to the capture cycle is constant across periods; the jump
    /// shifts it by the jumped cycles.
    fn stamp(&mut self, v: &mut u64) {
        self.item(v);
    }

    /// A monotone 64-bit statistic advancing by a fixed (wrapping) amount
    /// per period.
    fn counter(&mut self, v: &mut u64) {
        self.item(v);
    }

    /// A 32-bit data word advancing by a fixed (wrapping) increment per
    /// period — position `i` of a steady stream carries `w + Δ` one period
    /// after it carried `w`; constants are the `Δ = 0` case. Widened in
    /// the stream; a recorded value that does not fit fails the restore.
    fn value(&mut self, v: &mut u32) {
        let mut w = u64::from(*v);
        self.item(&mut w);
        match u32::try_from(w) {
            Ok(x) => *v = x,
            Err(_) => self.fail("snapshot item does not fit a 32-bit word"),
        }
    }

    /// A link word in flight as [`LinkWord::pack_u64`], `0` for an empty
    /// register (see [`persist_word`] / [`persist_opt_word`]). Class, head
    /// and tail bits and header contents (routes, qid, credits) are
    /// control state; payload contents slide like a
    /// [`value`](StateVisit::value).
    fn word(&mut self, packed: &mut u64) {
        self.item(packed);
    }

    /// Marks state the periodic analysis does not cover (an IP holding an
    /// unbounded history, armed faults, traffic on a cut wire): the
    /// fast-forward attempt declines. Such state persists fine, so the
    /// snapshot visitors ignore the mark.
    fn reject(&mut self) {}
}

/// The capturing visitor: records each visited item into a flat stream.
#[derive(Debug, Default)]
pub struct StateSaver {
    items: Vec<u64>,
    error: Option<String>,
}

impl StateSaver {
    /// Creates an empty saver.
    pub fn new() -> Self {
        StateSaver::default()
    }

    /// The recorded item stream.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError`] if any visited component called
    /// [`StateVisit::fail`].
    pub fn finish(self) -> Result<Vec<u64>, PersistError> {
        match self.error {
            Some(msg) => Err(PersistError::new(msg)),
            None => Ok(self.items),
        }
    }
}

impl StateVisit for StateSaver {
    fn item(&mut self, v: &mut u64) {
        self.items.push(*v);
    }

    fn len(&mut self, cur: usize) -> usize {
        self.items.push(cur as u64);
        cur
    }

    fn fail(&mut self, why: &str) {
        if self.error.is_none() {
            self.error = Some(why.to_string());
        }
    }
}

/// The restoring visitor: replays a recorded item stream into the same
/// walk that produced it.
#[derive(Debug)]
pub struct StateLoader {
    items: Vec<u64>,
    at: usize,
    error: Option<String>,
}

impl StateLoader {
    /// Creates a loader over a recorded item stream.
    pub fn new(items: Vec<u64>) -> Self {
        StateLoader {
            items,
            at: 0,
            error: None,
        }
    }

    /// Reads the next recorded item, or fails the load.
    fn next(&mut self) -> Option<u64> {
        match self.items.get(self.at) {
            Some(&v) => {
                self.at += 1;
                Some(v)
            }
            None => {
                self.fail("snapshot item stream exhausted (walk/snapshot shape mismatch)");
                None
            }
        }
    }

    /// Completes the load.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError`] if the walk failed, ran past the end of
    /// the stream, or left recorded items unconsumed — all three mean the
    /// snapshot does not match the target's walk.
    pub fn finish(self) -> Result<(), PersistError> {
        if let Some(msg) = self.error {
            return Err(PersistError::new(msg));
        }
        if self.at != self.items.len() {
            return Err(PersistError::new(format!(
                "snapshot carries {} unconsumed item(s) (walk/snapshot shape mismatch)",
                self.items.len() - self.at
            )));
        }
        Ok(())
    }
}

impl StateVisit for StateLoader {
    fn item(&mut self, v: &mut u64) {
        if let Some(x) = self.next() {
            *v = x;
        }
    }

    fn len(&mut self, _cur: usize) -> usize {
        match self.next() {
            Some(n) => {
                // Every element of a recorded collection consumes at least
                // one stream item, so a legitimate length can never exceed
                // what is left. Rejecting larger values here keeps a
                // corrupted or malicious snapshot from driving a huge
                // `Vec::resize` (memory exhaustion) before the element walk
                // would notice the underrun.
                let remaining = (self.items.len() - self.at) as u64;
                if n > remaining {
                    self.fail(
                        "snapshot length exceeds remaining items \
                         (truncated or corrupt snapshot)",
                    );
                    return 0;
                }
                usize::try_from(n).unwrap_or_else(|_| {
                    self.fail("snapshot length does not fit usize");
                    0
                })
            }
            None => 0,
        }
    }

    fn fail(&mut self, why: &str) {
        if self.error.is_none() {
            self.error = Some(why.to_string());
        }
    }

    /// Only what [`LinkWord::pack_u64`] can produce is taken: a stray bit
    /// above the presence marker, or contents without it, would otherwise
    /// restore as a different word (or none) than the snapshot spelled.
    fn word(&mut self, packed: &mut u64) {
        let Some(x) = self.next() else { return };
        if x == LinkWord::unpack_u64(x).map_or(0, LinkWord::pack_u64) {
            *packed = x;
        } else {
            self.fail("snapshot item is not a canonically packed link word");
        }
    }
}

// ---- Field helpers ------------------------------------------------------

/// Visits `v` as the one stream item `enc`, through `visit`, and decodes
/// what comes back. An item the visitor left alone (a save, a digest, a
/// jump over control state) is not decoded or stored back: three of the
/// four visitors then never write to the state they walk.
#[inline]
fn recode<T>(
    v: &mut T,
    enc: u64,
    p: &mut dyn StateVisit,
    visit: impl FnOnce(&mut dyn StateVisit, &mut u64),
    decode: impl FnOnce(u64) -> Result<T, &'static str>,
) {
    let mut w = enc;
    visit(p, &mut w);
    if w != enc {
        match decode(w) {
            Ok(x) => *v = x,
            Err(why) => p.fail(why),
        }
    }
}

/// [`recode`] as exact control state.
fn as_item(p: &mut dyn StateVisit, w: &mut u64) {
    p.item(w);
}

/// [`recode`] as a link word.
fn as_word(p: &mut dyn StateVisit, w: &mut u64) {
    p.word(w);
}

/// Visits an integer control field narrower than the stream's `u64`
/// (`u8`/`u16`/`u32`/`usize`) as an [`item`](StateVisit::item): widened in
/// the stream; a recorded value that does not fit fails the restore.
#[inline]
pub fn persist_int<T>(v: &mut T, p: &mut dyn StateVisit)
where
    T: Copy + TryFrom<u64>,
    u64: TryFrom<T>,
{
    let Ok(enc) = u64::try_from(*v) else {
        return p.fail("field does not fit a 64-bit item");
    };
    recode(v, enc, p, as_item, |w| {
        T::try_from(w).map_err(|_| "snapshot item does not fit the field's integer type")
    });
}

/// Visits a `bool` (0/1 in the stream; anything else fails the restore).
#[inline]
pub fn persist_bool(v: &mut bool, p: &mut dyn StateVisit) {
    recode(v, u64::from(*v), p, as_item, |w| match w {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err("snapshot item is not a bool"),
    });
}

/// Why a restored index fails: it would index past the target's
/// collection at its first use.
const OUT_OF_RANGE: &str = "snapshot index is out of the target's range";

/// Visits an index (`u8` or `usize`) into a collection of `bound` entries
/// (a round-robin pointer): a recorded index at or beyond the target's
/// `bound` fails the restore instead of panicking later.
#[inline]
pub fn persist_index<I>(v: &mut I, bound: usize, p: &mut dyn StateVisit)
where
    I: Copy + Into<usize> + TryFrom<usize>,
{
    recode(v, (*v).into() as u64, p, as_item, |w| {
        let i = usize::try_from(w).ok().filter(|&i| i < bound);
        i.and_then(|i| I::try_from(i).ok()).ok_or(OUT_OF_RANGE)
    });
}

/// Visits an optional port or channel index (`u8` or `usize`) as `0` =
/// `None`, `i + 1` = `Some(i)`, bounds-checked like [`persist_index`].
#[inline]
pub fn persist_opt_index<I>(v: &mut Option<I>, bound: usize, p: &mut dyn StateVisit)
where
    I: Copy + Into<usize> + TryFrom<usize>,
{
    let enc = v.map_or(0, |i| i.into() as u64 + 1);
    recode(v, enc, p, as_item, |w| match usize::try_from(w) {
        Ok(0) => Ok(None),
        Ok(i) if i <= bound => I::try_from(i - 1).map(Some).map_err(|_| OUT_OF_RANGE),
        _ => Err(OUT_OF_RANGE),
    });
}

/// Visits a link word that is always present (a queue entry).
#[inline]
pub fn persist_word(w: &mut LinkWord, p: &mut dyn StateVisit) {
    recode(w, w.pack_u64(), p, as_word, |w| {
        LinkWord::unpack_u64(w).ok_or("snapshot item is not a packed link word")
    });
}

/// Visits a maybe-present word (a wire or staging register); `0` is the
/// empty encoding.
#[inline]
pub fn persist_opt_word(w: &mut Option<LinkWord>, p: &mut dyn StateVisit) {
    let enc = w.map_or(0, LinkWord::pack_u64);
    recode(w, enc, p, as_word, |w| Ok(LinkWord::unpack_u64(w)));
}

/// Visits a growable list: length in-stream (resized on restore), then
/// each element through `each`.
#[inline]
pub fn persist_list<T: Clone + Default>(
    v: &mut Vec<T>,
    p: &mut dyn StateVisit,
    mut each: impl FnMut(&mut T, &mut dyn StateVisit),
) {
    let n = p.len(v.len());
    v.resize(n, T::default());
    for x in v.iter_mut() {
        each(x, p);
    }
}

/// Visits a queue: [`persist_list`] for a `VecDeque`, new entries on
/// restore starting out as `default`.
#[inline]
pub fn persist_deque<T: Clone>(
    q: &mut VecDeque<T>,
    default: T,
    p: &mut dyn StateVisit,
    mut each: impl FnMut(&mut T, &mut dyn StateVisit),
) {
    let n = p.len(q.len());
    q.resize(n, default);
    for x in q.iter_mut() {
        each(x, p);
    }
}

/// Visits a list of integer control items (message buffers, serialized
/// payloads, index lists), resizing on restore.
#[inline]
pub fn persist_int_list<T>(v: &mut Vec<T>, p: &mut dyn StateVisit)
where
    T: Copy + Default + TryFrom<u64>,
    u64: TryFrom<T>,
{
    persist_list(v, p, |x, p| persist_int(x, p));
}

/// Visits a fixed-capacity ring: length in-stream, then each element
/// through `each`. On restore the ring is rebuilt from `default` elements
/// (overwritten by the element walk); a recorded length beyond the ring's
/// capacity fails the restore — the snapshot was taken on a
/// differently-configured network.
#[inline]
pub fn persist_ring<T: Copy>(
    ring: &mut Ring<T>,
    default: T,
    p: &mut dyn StateVisit,
    mut each: impl FnMut(&mut T, &mut dyn StateVisit),
) {
    let n = p.len(ring.len());
    if n != ring.len() {
        ring.clear();
        for _ in 0..n {
            if ring.push_back(default).is_err() {
                p.fail("snapshot ring contents exceed the target's capacity");
                return;
            }
        }
    }
    for i in 0..ring.len() {
        each(ring.get_mut(i).expect("index in range"), p);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::word::WordClass;

    #[test]
    fn save_then_load_round_trips_scalars() {
        #[derive(Debug, PartialEq)]
        struct S {
            a: u64,
            b: u32,
            c: bool,
            d: Option<usize>,
            e: u32,
            f: u64,
        }
        impl S {
            fn walk(&mut self, p: &mut dyn StateVisit) {
                p.item(&mut self.a);
                persist_int(&mut self.b, p);
                persist_bool(&mut self.c, p);
                persist_opt_index(&mut self.d, 4, p);
                p.value(&mut self.e);
                p.reject();
                p.stamp(&mut self.f);
            }
        }
        let src = || S {
            a: 7,
            b: 9,
            c: true,
            d: Some(3),
            e: 0xDEAD_BEEF,
            f: 1 << 40,
        };
        let mut saver = StateSaver::new();
        src().walk(&mut saver);
        let items = saver.finish().unwrap();
        assert_eq!(items, [7, 9, 1, 4, 0xDEAD_BEEF, 1 << 40], "one item each");
        let mut dst = S {
            a: 0,
            b: 0,
            c: false,
            d: None,
            e: 0,
            f: 0,
        };
        let mut loader = StateLoader::new(items.clone());
        dst.walk(&mut loader);
        loader.finish().unwrap();
        assert_eq!(dst, src());
        // Out-of-range items fail the load instead of truncating: a u32
        // control field, a bool, an index at the bound, a data word.
        for (at, bad) in [(1, 1 << 32), (2, 2), (3, 5), (4, 1 << 32)] {
            let mut hostile = items.clone();
            hostile[at] = bad;
            let mut loader = StateLoader::new(hostile);
            dst.walk(&mut loader);
            assert!(loader.finish().is_err(), "item {at} = {bad}");
        }
    }

    #[test]
    fn loader_rejects_underrun_and_leftovers() {
        let mut loader = StateLoader::new(vec![1]);
        let mut a = 0u64;
        let mut b = 0u64;
        loader.item(&mut a);
        loader.item(&mut b); // exhausted
        assert!(loader.finish().is_err());

        let mut loader = StateLoader::new(vec![1, 2]);
        let mut a = 0u64;
        loader.item(&mut a);
        assert!(loader.finish().is_err(), "leftover item must be an error");
    }

    #[test]
    fn loader_rejects_oversized_lengths_without_allocating() {
        // A corrupt stream claiming a huge collection must fail
        // structurally instead of attempting a giant `resize`.
        let mut v: Vec<u64> = vec![1, 2];
        let mut loader = StateLoader::new(vec![u64::MAX, 1, 2]);
        persist_int_list(&mut v, &mut loader);
        assert!(v.is_empty(), "rejected length resizes to zero, not huge");
        assert!(loader.finish().is_err());
    }

    #[test]
    fn saver_fail_poisons_the_snapshot() {
        let mut saver = StateSaver::new();
        let mut v = 1u64;
        saver.item(&mut v);
        saver.fail("component is not persistable");
        assert!(saver.finish().is_err());
    }

    #[test]
    fn word_helpers_round_trip() {
        let w = LinkWord::header(0xABCD_EF01, WordClass::Guaranteed);
        let mut state = Some(w);
        let mut saver = StateSaver::new();
        persist_opt_word(&mut state, &mut saver);
        let mut none: Option<LinkWord> = None;
        persist_opt_word(&mut none, &mut saver);
        let items = saver.finish().unwrap();
        assert_eq!(items, [w.pack_u64(), 0]);
        let mut loader = StateLoader::new(items);
        let mut got: Option<LinkWord> = None;
        let mut got_none = Some(w);
        persist_opt_word(&mut got, &mut loader);
        persist_opt_word(&mut got_none, &mut loader);
        loader.finish().unwrap();
        assert_eq!(got, Some(w));
        assert_eq!(got_none, None);
        // Only what `pack_u64` produces restores: contents without the
        // presence bit, or any bit above it, are a corrupt item — not an
        // empty register, not the word with the stray bit dropped.
        for bad in [1, w.pack_u64() & !(1 << 35), w.pack_u64() | 1 << 36] {
            let mut loader = StateLoader::new(vec![bad]);
            persist_opt_word(&mut got, &mut loader);
            assert!(loader.finish().is_err(), "{bad:#x}");
        }
        // A queue entry cannot be the empty encoding either.
        let mut loader = StateLoader::new(vec![0]);
        persist_word(&mut { w }, &mut loader);
        assert!(loader.finish().is_err());
    }

    #[test]
    fn ring_resizes_on_restore_and_respects_capacity() {
        let mut src: Ring<u64> = Ring::with_capacity(4);
        for v in [10, 20, 30] {
            src.push_back(v).unwrap();
        }
        let mut saver = StateSaver::new();
        persist_ring(&mut src, 0, &mut saver, |v, p| p.item(v));
        let items = saver.finish().unwrap();

        let mut dst: Ring<u64> = Ring::with_capacity(4);
        dst.push_back(99).unwrap();
        let mut loader = StateLoader::new(items.clone());
        persist_ring(&mut dst, 0, &mut loader, |v, p| p.item(v));
        loader.finish().unwrap();
        assert_eq!(dst.iter().copied().collect::<Vec<_>>(), vec![10, 20, 30]);

        // A snapshot that does not fit the target's capacity must fail,
        // not truncate.
        let mut tiny: Ring<u64> = Ring::with_capacity(2);
        let mut loader = StateLoader::new(items);
        persist_ring(&mut tiny, 0, &mut loader, |v, p| p.item(v));
        assert!(loader.finish().is_err());
    }
}

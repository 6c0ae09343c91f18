//! Link words: the unit of transport on every NoC link.
//!
//! The Æthereal prototype moves one 32-bit word per link per 500 MHz cycle
//! (hence the paper's 16 Gbit/s per direction). Three words form a *flit*,
//! and one flit fills one TDM *slot*. Words carry two out-of-band control
//! bits on the physical link — a class bit (GT/BE) and framing bits — which
//! we model explicitly in [`LinkWord`].

/// A 32-bit data word, the transport unit of the Æthereal link.
pub type Word = u32;

/// Words per flit. One flit occupies exactly one TDM slot on a link.
pub const FLIT_WORDS: u64 = 3;

/// Cycles per TDM slot (equal to [`FLIT_WORDS`] at one word per cycle).
pub const SLOT_WORDS: u64 = FLIT_WORDS;

/// Traffic class of a word: guaranteed-throughput or best-effort.
///
/// GT words ride contention-free TDM circuits; BE words are wormhole-routed
/// and yield to GT. The class is carried out-of-band on the link so that the
/// receiver can demultiplex interleaved GT and BE worms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum WordClass {
    /// Guaranteed-throughput (time-division-multiplexed circuit) traffic.
    Guaranteed,
    /// Best-effort (wormhole, round-robin arbitrated) traffic.
    BestEffort,
}

impl WordClass {
    /// Index usable for per-class arrays (`Guaranteed = 0`, `BestEffort = 1`).
    #[inline]
    pub fn index(self) -> usize {
        match self {
            WordClass::Guaranteed => 0,
            WordClass::BestEffort => 1,
        }
    }

    /// All classes, in `index()` order.
    pub const ALL: [WordClass; 2] = [WordClass::Guaranteed, WordClass::BestEffort];
}

impl std::fmt::Display for WordClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WordClass::Guaranteed => write!(f, "GT"),
            WordClass::BestEffort => write!(f, "BE"),
        }
    }
}

/// One word in flight on a link, together with its out-of-band control bits.
///
/// `head` marks the packet header word (which carries the source route, the
/// remote queue id and piggybacked credits, see
/// [`PacketHeader`](crate::PacketHeader)); `tail` marks the last word of a
/// packet. A single-word packet (a credit-only packet, §4.1 of the paper)
/// has both bits set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LinkWord {
    word: Word,
    class: WordClass,
    head: bool,
    tail: bool,
}

impl LinkWord {
    /// Creates a packet-header word. The header is also the tail if `tail`
    /// is later not followed by payload; use [`LinkWord::header_only`] for
    /// single-word (credit-only) packets.
    #[inline]
    pub fn header(word: Word, class: WordClass) -> Self {
        LinkWord {
            word,
            class,
            head: true,
            tail: false,
        }
    }

    /// Creates a single-word packet: header and tail at once (a credit-only
    /// packet carrying no payload).
    #[inline]
    pub const fn header_only(word: Word, class: WordClass) -> Self {
        LinkWord {
            word,
            class,
            head: true,
            tail: true,
        }
    }

    /// Creates a payload word; `tail` marks the last word of the packet.
    #[inline]
    pub fn payload(word: Word, class: WordClass, tail: bool) -> Self {
        LinkWord {
            word,
            class,
            head: false,
            tail,
        }
    }

    /// The 32-bit data content.
    #[inline]
    pub fn word(&self) -> Word {
        self.word
    }

    /// Replaces the data content, keeping the control bits (used by routers
    /// to shift the source route in header words).
    #[inline]
    pub fn with_word(self, word: Word) -> Self {
        LinkWord { word, ..self }
    }

    /// Traffic class.
    #[inline]
    pub fn class(&self) -> WordClass {
        self.class
    }

    /// Whether this is a packet header word.
    #[inline]
    pub fn is_header(&self) -> bool {
        self.head
    }

    /// Whether this is the last word of a packet.
    #[inline]
    pub fn is_tail(&self) -> bool {
        self.tail
    }

    /// Packs the word and its control bits into a single non-zero `u64`:
    /// bits 0–31 carry the data word, bit 32 the class (set = GT), bit 33
    /// `head`, bit 34 `tail`, and bit 35 is always set (the presence
    /// marker). `0` therefore means *no word* — the encoding a lock-free
    /// exchange slot needs to hold "word or empty" in one atomic cell (see
    /// [`crate::shard::WireRing`]).
    #[inline]
    pub fn pack_u64(self) -> u64 {
        u64::from(self.word)
            | (u64::from(self.class == WordClass::Guaranteed) << 32)
            | (u64::from(self.head) << 33)
            | (u64::from(self.tail) << 34)
            | (1 << 35)
    }

    /// Inverse of [`LinkWord::pack_u64`]: `None` for the empty encoding.
    #[inline]
    pub fn unpack_u64(v: u64) -> Option<Self> {
        if v & (1 << 35) == 0 {
            return None;
        }
        Some(LinkWord {
            word: v as Word,
            class: if v & (1 << 32) != 0 {
                WordClass::Guaranteed
            } else {
                WordClass::BestEffort
            },
            head: v & (1 << 33) != 0,
            tail: v & (1 << 34) != 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_indices_are_distinct_and_stable() {
        assert_eq!(WordClass::Guaranteed.index(), 0);
        assert_eq!(WordClass::BestEffort.index(), 1);
        assert_eq!(WordClass::ALL[0], WordClass::Guaranteed);
        assert_eq!(WordClass::ALL[1], WordClass::BestEffort);
    }

    #[test]
    fn header_word_flags() {
        let w = LinkWord::header(42, WordClass::Guaranteed);
        assert!(w.is_header());
        assert!(!w.is_tail());
        assert_eq!(w.word(), 42);
        assert_eq!(w.class(), WordClass::Guaranteed);
    }

    #[test]
    fn header_only_is_head_and_tail() {
        let w = LinkWord::header_only(7, WordClass::BestEffort);
        assert!(w.is_header() && w.is_tail());
    }

    #[test]
    fn payload_tail_flag() {
        let mid = LinkWord::payload(1, WordClass::BestEffort, false);
        let end = LinkWord::payload(2, WordClass::BestEffort, true);
        assert!(!mid.is_header() && !mid.is_tail());
        assert!(end.is_tail());
    }

    #[test]
    fn with_word_keeps_flags() {
        let w = LinkWord::header(0xFFFF_FFFF, WordClass::BestEffort).with_word(3);
        assert!(w.is_header());
        assert_eq!(w.word(), 3);
        assert_eq!(w.class(), WordClass::BestEffort);
    }

    #[test]
    fn display_class() {
        assert_eq!(WordClass::Guaranteed.to_string(), "GT");
        assert_eq!(WordClass::BestEffort.to_string(), "BE");
    }

    #[test]
    fn slot_equals_flit() {
        assert_eq!(FLIT_WORDS, SLOT_WORDS);
        assert_eq!(FLIT_WORDS, 3);
    }

    #[test]
    fn pack_u64_round_trips_every_flag_combination() {
        for word in [0u32, 1, 0xDEAD_BEEF, u32::MAX] {
            for class in WordClass::ALL {
                for (head, tail) in [(false, false), (true, false), (false, true), (true, true)] {
                    let w = LinkWord {
                        word,
                        class,
                        head,
                        tail,
                    };
                    let packed = w.pack_u64();
                    assert_ne!(packed, 0, "packed words are never the empty encoding");
                    assert_eq!(LinkWord::unpack_u64(packed), Some(w));
                }
            }
        }
        assert_eq!(LinkWord::unpack_u64(0), None);
    }
}

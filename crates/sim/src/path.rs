//! Source-routing paths and their bit-level encoding in packet headers.
//!
//! The Æthereal header carries either an NI address (destination routing) or
//! a *path* (source routing); the prototype — and this reproduction — uses
//! source routing. A path is the sequence of router output ports the packet
//! takes, *including* the final local (NI-facing) port that ejects the packet
//! from the network.
//!
//! Each hop is encoded in [`HOP_BITS`] bits; every router consumes the
//! low-order hop entry and shifts the remaining path right, so the next
//! router always finds its own output port in the low bits (path-shifting
//! source routing, as in the Æthereal RTL).
//!
//! ## Two-level (segmented) routes
//!
//! A single header encodes at most [`MAX_HOPS`] hops, which caps source
//! routes at the 4×4 meshes of the paper's era. Larger meshes use a
//! [`Route`]: an ordered list of path *segments*, each individually within
//! the [`MAX_HOPS`] × [`HOP_BITS`] header encoding. On the wire the first
//! segment travels in the packet header as usual, and every further segment
//! rides in a *continuation word* directly behind the header. A non-final
//! segment deliberately ends **at** an intermediate *gateway* router with
//! its path exhausted; the gateway holds the header for one cycle, consumes
//! the continuation word, and re-emits the header with the next segment
//! installed (see `Router`). Packets whose whole route fits one header
//! ([`Route::is_single`]) never exhaust mid-network, so pre-existing ≤
//! [`MAX_HOPS`]-hop traffic is bit-identical to the seed encoding.

/// A router output-port index (0..[`MAX_PORT`]).
///
/// For mesh topologies ports 0–3 are North/East/South/West and ports ≥ 4 are
/// local (NI-facing) ports.
pub type PortIdx = u8;

/// Bits encoding one hop in the packet header.
pub const HOP_BITS: u32 = 3;

/// Largest encodable output-port index (`2^HOP_BITS - 2`; the all-ones
/// pattern is reserved as the in-header terminator).
pub const MAX_PORT: PortIdx = (1 << HOP_BITS) as PortIdx - 2;

/// Reserved hop pattern marking "no more hops" inside the header field.
const HOP_END: u32 = (1 << HOP_BITS) - 1;

/// Maximum number of hops (router traversals, incl. ejection) a single
/// 32-bit header can encode. With 21 path bits and 3 bits per hop this is 7,
/// enough for the up-to-4×4 meshes of the Æthereal prototype era (worst case
/// 3 + 3 link hops + 1 ejection).
pub const MAX_HOPS: usize = 7;

/// Bits of the header dedicated to the path.
pub const PATH_BITS: u32 = HOP_BITS * MAX_HOPS as u32;

/// A source route: the ordered list of output ports, one per router visited,
/// ending with the local port that ejects into the destination NI.
///
/// # Example
///
/// ```
/// use noc_sim::Path;
/// // East (1), South (2), eject at local port 4.
/// let p = Path::new(&[1, 2, 4]).unwrap();
/// assert_eq!(p.hops(), 3);
/// let bits = p.encode();
/// assert_eq!(Path::decode(bits), p);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Path {
    hops: Vec<PortIdx>,
}

/// Error constructing a [`Path`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathError {
    /// More than [`MAX_HOPS`] hops requested.
    TooLong {
        /// Number of hops requested.
        requested: usize,
    },
    /// A hop used a port index above [`MAX_PORT`].
    PortOutOfRange {
        /// The offending port index.
        port: PortIdx,
        /// Position of the offending hop.
        hop: usize,
    },
}

impl std::fmt::Display for PathError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PathError::TooLong { requested } => {
                write!(
                    f,
                    "path of {requested} hops exceeds the {MAX_HOPS}-hop header limit"
                )
            }
            PathError::PortOutOfRange { port, hop } => {
                write!(
                    f,
                    "port {port} at hop {hop} exceeds the encodable maximum {MAX_PORT}"
                )
            }
        }
    }
}

impl std::error::Error for PathError {}

impl Path {
    /// Builds a path from explicit output ports.
    ///
    /// # Errors
    ///
    /// Returns [`PathError::TooLong`] for more than [`MAX_HOPS`] hops and
    /// [`PathError::PortOutOfRange`] for ports above [`MAX_PORT`].
    pub fn new(ports: &[PortIdx]) -> Result<Self, PathError> {
        if ports.len() > MAX_HOPS {
            return Err(PathError::TooLong {
                requested: ports.len(),
            });
        }
        for (hop, &port) in ports.iter().enumerate() {
            if port > MAX_PORT {
                return Err(PathError::PortOutOfRange { port, hop });
            }
        }
        Ok(Path {
            hops: ports.to_vec(),
        })
    }

    /// The empty path (packet is already at its destination NI; never
    /// transported).
    pub fn empty() -> Self {
        Path { hops: Vec::new() }
    }

    /// Number of hops, including the final ejection hop.
    pub fn hops(&self) -> usize {
        self.hops.len()
    }

    /// Whether the path has no hops.
    pub fn is_empty(&self) -> bool {
        self.hops.is_empty()
    }

    /// The output port taken at hop `i`.
    pub fn hop(&self, i: usize) -> Option<PortIdx> {
        self.hops.get(i).copied()
    }

    /// Iterates over the hops in traversal order.
    pub fn iter(&self) -> impl Iterator<Item = PortIdx> + '_ {
        self.hops.iter().copied()
    }

    /// Encodes the path into the low [`PATH_BITS`] bits of a word: hop 0 in
    /// the low-order bits, unused hops filled with the terminator pattern.
    pub fn encode(&self) -> u32 {
        let mut bits = 0u32;
        for slot in (0..MAX_HOPS).rev() {
            bits <<= HOP_BITS;
            bits |= match self.hops.get(slot) {
                Some(&p) => u32::from(p),
                None => HOP_END,
            };
        }
        bits
    }

    /// Decodes a path from the low [`PATH_BITS`] bits of a word; stops at the
    /// first terminator pattern.
    pub fn decode(mut bits: u32) -> Self {
        let mut hops = Vec::new();
        for _ in 0..MAX_HOPS {
            let hop = bits & HOP_END;
            if hop == HOP_END {
                break;
            }
            hops.push(hop as PortIdx);
            bits >>= HOP_BITS;
        }
        Path { hops }
    }

    /// The canonical encoding of the path in the low [`PATH_BITS`] bits of
    /// `bits` — what `Path::decode(bits).encode()` yields (every hop slot
    /// from the first terminator on reads as a terminator) — computed
    /// without building a [`Path`], so the packetizer's per-packet header
    /// stays allocation-free.
    pub fn canonical_encoded(bits: u32) -> u32 {
        let mask = (1u32 << PATH_BITS) - 1;
        for slot in 0..MAX_HOPS as u32 {
            if (bits >> (slot * HOP_BITS)) & HOP_END == HOP_END {
                let kept = (1u32 << (slot * HOP_BITS)) - 1;
                return (bits & kept) | (mask & !kept);
            }
        }
        bits & mask
    }

    /// The port a router should take for the low-order hop of an encoded
    /// path, or `None` on the terminator.
    pub fn peek_encoded(bits: u32) -> Option<PortIdx> {
        let hop = bits & HOP_END;
        if hop == HOP_END {
            None
        } else {
            Some(hop as PortIdx)
        }
    }

    /// Shifts an encoded path right by one hop (what a router does when
    /// forwarding a header), refilling the top hop slot with the terminator.
    pub fn shift_encoded(bits: u32) -> u32 {
        let mask = (1u32 << PATH_BITS) - 1;
        (((bits & mask) >> HOP_BITS) | (HOP_END << (PATH_BITS - HOP_BITS))) & mask
    }

    /// Shifts the path field of a *full packed header word* by one hop,
    /// preserving the credits/flush/qid fields above the path bits.
    pub fn shift_header(word: u32) -> u32 {
        let mask = (1u32 << PATH_BITS) - 1;
        (word & !mask) | Self::shift_encoded(word & mask)
    }
}

impl std::fmt::Display for Path {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[")?;
        for (i, hop) in self.hops.iter().enumerate() {
            if i > 0 {
                write!(f, "→")?;
            }
            write!(f, "{hop}")?;
        }
        write!(f, "]")
    }
}

/// Maximum number of segments a [`Route`] may carry: the header segment
/// plus one continuation word per `PATH_EXT` register of the NI channel
/// (see `aethereal-ni::kernel::regs`). Five segments of [`MAX_HOPS`] hops
/// cover any-pair routes on meshes up to 18×18.
pub const MAX_ROUTE_SEGMENTS: usize = 5;

/// A source route of one or more [`Path`] segments.
///
/// The first segment is what the packet header carries; each further
/// segment is installed by a gateway router from a continuation word (see
/// the module docs). Invariants enforced at construction: at most
/// [`MAX_ROUTE_SEGMENTS`] segments, every segment within [`MAX_HOPS`], no
/// empty segment except a single empty route.
///
/// # Example
///
/// ```
/// use noc_sim::{Route, MAX_HOPS};
/// // A 10-hop route splits greedily into 7 + 3.
/// let hops: Vec<u8> = [1u8, 1, 1, 1, 1, 1, 1, 2, 2, 4].to_vec();
/// let r = Route::from_hops(&hops).unwrap();
/// assert_eq!(r.segments().len(), 2);
/// assert_eq!(r.total_hops(), 10);
/// assert!(!r.is_single());
/// // A short route stays a single segment, bit-identical to a plain Path.
/// let short = Route::from_hops(&[1, 2, 4]).unwrap();
/// assert!(short.is_single());
/// assert_eq!(short.header_segment().encode(),
///            noc_sim::Path::new(&[1, 2, 4]).unwrap().encode());
/// assert!(hops.len() > MAX_HOPS);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Route {
    segments: Vec<Path>,
}

/// Error constructing a [`Route`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouteBuildError {
    /// A segment violated the per-path encoding limits.
    Segment(PathError),
    /// More than [`MAX_ROUTE_SEGMENTS`] segments.
    TooManySegments {
        /// Segments requested.
        requested: usize,
    },
    /// A non-final segment was empty (a gateway would have nothing to
    /// forward toward).
    EmptySegment {
        /// Index of the offending segment.
        index: usize,
    },
}

impl std::fmt::Display for RouteBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouteBuildError::Segment(e) => write!(f, "{e}"),
            RouteBuildError::TooManySegments { requested } => write!(
                f,
                "route of {requested} segments exceeds the {MAX_ROUTE_SEGMENTS}-segment limit"
            ),
            RouteBuildError::EmptySegment { index } => {
                write!(f, "segment {index} of a multi-segment route is empty")
            }
        }
    }
}

impl std::error::Error for RouteBuildError {}

impl From<PathError> for RouteBuildError {
    fn from(e: PathError) -> Self {
        RouteBuildError::Segment(e)
    }
}

impl Route {
    /// Wraps a single path (a route that fits one header).
    pub fn single(path: Path) -> Self {
        Route {
            segments: vec![path],
        }
    }

    /// Builds a route from explicit segments.
    ///
    /// # Errors
    ///
    /// See [`RouteBuildError`].
    pub fn from_segments(segments: Vec<Path>) -> Result<Self, RouteBuildError> {
        if segments.len() > MAX_ROUTE_SEGMENTS {
            return Err(RouteBuildError::TooManySegments {
                requested: segments.len(),
            });
        }
        if segments.is_empty() {
            return Ok(Route::single(Path::empty()));
        }
        if segments.len() > 1 {
            if let Some(index) = segments.iter().position(Path::is_empty) {
                return Err(RouteBuildError::EmptySegment { index });
            }
        }
        Ok(Route { segments })
    }

    /// Builds a route from a flat hop list, splitting greedily into
    /// [`MAX_HOPS`]-hop segments (the split points become gateway rewrites).
    /// Topology-aware callers should prefer `Topology::route_any`, which
    /// aligns split points with declared region gateways.
    ///
    /// # Errors
    ///
    /// See [`RouteBuildError`].
    pub fn from_hops(hops: &[PortIdx]) -> Result<Self, RouteBuildError> {
        let mut segments = Vec::with_capacity(hops.len().div_ceil(MAX_HOPS).max(1));
        if hops.is_empty() {
            return Ok(Route::single(Path::empty()));
        }
        for chunk in hops.chunks(MAX_HOPS) {
            segments.push(Path::new(chunk)?);
        }
        Route::from_segments(segments)
    }

    /// The segments, header segment first.
    pub fn segments(&self) -> &[Path] {
        &self.segments
    }

    /// The segment carried in the packet header.
    pub fn header_segment(&self) -> &Path {
        &self.segments[0]
    }

    /// Whether the route fits a single header (no continuation words, no
    /// gateway rewrites — the seed wire format).
    pub fn is_single(&self) -> bool {
        self.segments.len() == 1
    }

    /// Number of gateway rewrites en route (segments after the first).
    pub fn gateway_count(&self) -> usize {
        self.segments.len() - 1
    }

    /// Total hops across all segments (router traversals incl. ejection).
    pub fn total_hops(&self) -> usize {
        self.segments.iter().map(Path::hops).sum()
    }

    /// Iterates over all hops in traversal order, ignoring segmentation.
    pub fn iter_hops(&self) -> impl Iterator<Item = PortIdx> + '_ {
        self.segments.iter().flat_map(Path::iter)
    }

    /// The encoded continuation words, in wire order (one per segment after
    /// the first; each is the segment's [`Path::encode`] in the low
    /// [`PATH_BITS`] bits).
    pub fn continuation_words(&self) -> impl Iterator<Item = u32> + '_ {
        self.segments[1..].iter().map(Path::encode)
    }
}

impl std::fmt::Display for Route {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, seg) in self.segments.iter().enumerate() {
            if i > 0 {
                write!(f, "⇒")?;
            }
            write!(f, "{seg}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_encoded_matches_decode_then_encode() {
        let mut rng = crate::rng::Rng64::seed_from_u64(0xC0DE);
        for _ in 0..10_000 {
            let bits = rng.next_u64() as u32;
            assert_eq!(
                Path::canonical_encoded(bits),
                Path::decode(bits & ((1 << PATH_BITS) - 1)).encode(),
                "{bits:#x}"
            );
        }
        assert_eq!(Path::canonical_encoded(0), Path::decode(0).encode());
    }

    #[test]
    fn empty_path_roundtrip() {
        let p = Path::empty();
        assert!(p.is_empty());
        assert_eq!(Path::decode(p.encode()), p);
        assert_eq!(Path::peek_encoded(p.encode()), None);
    }

    #[test]
    fn single_hop_roundtrip() {
        for port in 0..=MAX_PORT {
            let p = Path::new(&[port]).unwrap();
            assert_eq!(Path::decode(p.encode()), p);
            assert_eq!(Path::peek_encoded(p.encode()), Some(port));
        }
    }

    #[test]
    fn max_hops_roundtrip() {
        let hops: Vec<PortIdx> = (0..MAX_HOPS).map(|i| (i % 6) as PortIdx).collect();
        let p = Path::new(&hops).unwrap();
        assert_eq!(p.hops(), MAX_HOPS);
        assert_eq!(Path::decode(p.encode()), p);
    }

    #[test]
    fn too_long_rejected() {
        let hops = vec![0u8; MAX_HOPS + 1];
        assert_eq!(
            Path::new(&hops),
            Err(PathError::TooLong {
                requested: MAX_HOPS + 1
            })
        );
    }

    #[test]
    fn out_of_range_port_rejected() {
        assert_eq!(
            Path::new(&[0, 7]),
            Err(PathError::PortOutOfRange { port: 7, hop: 1 })
        );
    }

    #[test]
    fn shift_consumes_one_hop() {
        let p = Path::new(&[1, 2, 4]).unwrap();
        let bits = p.encode();
        assert_eq!(Path::peek_encoded(bits), Some(1));
        let bits = Path::shift_encoded(bits);
        assert_eq!(Path::peek_encoded(bits), Some(2));
        let bits = Path::shift_encoded(bits);
        assert_eq!(Path::peek_encoded(bits), Some(4));
        let bits = Path::shift_encoded(bits);
        assert_eq!(Path::peek_encoded(bits), None);
    }

    #[test]
    fn shift_of_empty_stays_empty() {
        let bits = Path::empty().encode();
        assert_eq!(Path::shift_encoded(bits), bits);
    }

    #[test]
    fn encode_fits_in_path_bits() {
        let hops: Vec<PortIdx> = (0..MAX_HOPS).map(|_| MAX_PORT).collect();
        let p = Path::new(&hops).unwrap();
        assert!(p.encode() < (1 << PATH_BITS));
    }

    #[test]
    fn display_formats_hops() {
        let p = Path::new(&[1, 2, 4]).unwrap();
        assert_eq!(p.to_string(), "[1→2→4]");
    }

    #[test]
    fn route_single_segment_matches_path_encoding() {
        let r = Route::from_hops(&[1, 2, 4]).unwrap();
        assert!(r.is_single());
        assert_eq!(r.gateway_count(), 0);
        assert_eq!(
            r.header_segment().encode(),
            Path::new(&[1, 2, 4]).unwrap().encode()
        );
        assert_eq!(r.continuation_words().count(), 0);
    }

    #[test]
    fn route_greedy_split_preserves_hops() {
        let hops: Vec<PortIdx> = (0..17).map(|i| (i % 5) as PortIdx).collect();
        let r = Route::from_hops(&hops).unwrap();
        assert_eq!(r.segments().len(), 3);
        assert_eq!(r.total_hops(), 17);
        assert_eq!(r.iter_hops().collect::<Vec<_>>(), hops);
        assert!(r.segments()[..2].iter().all(|s| s.hops() == MAX_HOPS));
    }

    #[test]
    fn route_empty_hops_is_single_empty() {
        let r = Route::from_hops(&[]).unwrap();
        assert!(r.is_single());
        assert!(r.header_segment().is_empty());
    }

    #[test]
    fn route_rejects_empty_middle_segment() {
        let err = Route::from_segments(vec![
            Path::new(&[1]).unwrap(),
            Path::empty(),
            Path::new(&[4]).unwrap(),
        ])
        .unwrap_err();
        assert_eq!(err, RouteBuildError::EmptySegment { index: 1 });
    }

    #[test]
    fn route_rejects_too_many_segments() {
        let hops = vec![0u8; MAX_ROUTE_SEGMENTS * MAX_HOPS + 1];
        assert!(matches!(
            Route::from_hops(&hops),
            Err(RouteBuildError::TooManySegments { .. })
        ));
    }

    #[test]
    fn route_continuation_words_are_segment_encodings() {
        let hops: Vec<PortIdx> = (0..10).map(|_| 2).collect();
        let r = Route::from_hops(&hops).unwrap();
        let conts: Vec<u32> = r.continuation_words().collect();
        assert_eq!(conts.len(), 1);
        assert_eq!(conts[0], Path::new(&[2, 2, 2]).unwrap().encode());
    }

    #[test]
    fn route_display_shows_segments() {
        let r = Route::from_hops(&[1, 1, 1, 1, 1, 1, 1, 2, 4]).unwrap();
        assert_eq!(r.to_string(), "[1→1→1→1→1→1→1]⇒[2→4]");
    }
}

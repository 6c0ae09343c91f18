//! The combined GT/BE router (Rijpkema et al., DATE 2003), as seen from the
//! network interface.
//!
//! * **GT datapath**: a GT word absorbed at cycle *t* is forwarded with a
//!   fixed latency of one slot ([`SLOT_WORDS`] cycles) and never buffered.
//!   Which output it takes is decided by the source route in the header
//!   (path-shifting); continuation words follow the header's output. In the
//!   paper's *centralized* configuration model the routers carry **no slot
//!   tables** — contention-freedom is established by the centralized slot
//!   allocator and merely *checked* here ([`Router::gt_conflicts`]).
//! * **BE datapath**: input-queued wormhole switching. Each output port is
//!   granted to one worm at a time by round-robin arbitration; forwarding
//!   requires a link-level credit for the downstream input queue; GT words
//!   have absolute priority for the output in any cycle.
//!
//! The router is driven by [`Noc`](crate::Noc) in two phases per cycle:
//! [`Router::emit`] (produce at most one word per output, using state from
//! the previous cycle) and [`Router::absorb`] (register arriving words).
//!
//! **Gateway rewrite** (two-level routing, see [`crate::path`]): a header
//! arriving with its path exhausted *and more words behind it* marks this
//! router as the route's gateway. The router holds the header, consumes the
//! next word of the worm — the *continuation word* carrying the next path
//! segment — and re-emits the header with that segment installed (upper
//! header bits preserved, first hop consumed as usual). The rewrite
//! shortens the packet by one word. For **GT** (hold in
//! [`Router::absorb`]) it is aligned to the slot grid: the rewritten
//! header and every word behind it leave one whole slot ([`SLOT_WORDS`]
//! cycles) later than a plain hop, so downstream slot occupancy shifts by
//! whole slots and the centralized allocator reserves exactly one slot
//! per link — never a spill pair. For **BE** (elastic, no slots; hold at
//! the input-queue head in [`Router::emit`]) the rewrite costs one cycle.
//! Traffic whose route fits one header never exhausts at
//! a router, so the seed behavior is untouched. BE gateway rewrites need
//! the header and its continuation queued together, so BE input queues
//! must hold at least 2 words for two-level BE traffic (the default is 8).
//!
//! **Layout.** Everything a port owns sits in one compact record — the
//! private `Port` struct: the input side (BE queue cursor, worm routes,
//! gateway hold) next to the output side (GT calendar, owning worm,
//! round-robin pointer, credits) — and the BE words of all inputs share one
//! buffer, so a router is two allocations plus its calendars. Three
//! maintained bitmasks say which ports hold anything — `be_mask` (inputs
//! with queued BE words), `hold_mask` (inputs holding a gateway header) and
//! `gt_mask` (outputs with scheduled GT emissions) — so idleness is a mask
//! test and a cycle visits set bits only; within one emit each input head
//! is decoded once and filed in the *request mask* of the output it names,
//! which turns round-robin arbitration into a rotate and a count of
//! trailing zeros (see [`Router::emit_into`]).

use crate::bitset::pop_lowest;
use crate::path::{Path, PortIdx, PATH_BITS};
use crate::ring::Ring;
use crate::word::{LinkWord, WordClass, SLOT_WORDS};

/// Default BE input-queue depth in words (the paper argues for *small*
/// packet buffers as the TDM scheme's cost advantage; 8 words = 2–3 flits).
pub const DEFAULT_BE_QUEUE_WORDS: usize = 8;

/// A scheduled GT emission.
#[derive(Debug, Clone, Copy)]
struct GtEvent {
    due: u64,
    word: LinkWord,
}

/// What an empty queue slot or register reads as (never observed: every
/// read is guarded by an occupancy count or mask).
const NO_WORD: LinkWord = LinkWord::header_only(0, WordClass::BestEffort);

/// Everything the router keeps for one port, input side and output side
/// together. The dynamic fields are declared in the order
/// [`Router::walk`] visits them — the snapshot stream order.
#[derive(Debug, Clone)]
struct Port {
    /// Input: BE queue cursor — offset of the oldest word within this
    /// port's `be_capacity`-word window of [`Router::be_words`], and the
    /// occupancy. The credit budget granted upstream equals the capacity,
    /// so the queue can never overflow.
    q_head: u32,
    q_len: u32,
    /// Input: output claimed by the BE worm whose header has been
    /// forwarded but whose tail has not.
    be_route: Option<PortIdx>,
    /// Input: output of the in-flight GT worm.
    gt_route: Option<PortIdx>,
    /// Input: a GT header held for gateway rewrite (path exhausted here;
    /// the next word of the worm carries the next route segment).
    gt_hold: Option<LinkWord>,
    /// Input: extra forwarding delay of the in-flight GT worm, in cycles.
    /// A gateway rewrite is aligned to the next slot boundary — the
    /// rewritten header and every word behind it leave one whole slot
    /// (not one cycle) later than a plain hop, so downstream slot
    /// occupancy stays whole-slot and the allocator never needs a spill
    /// reservation.
    gt_pad: u64,
    /// Output: future GT emissions, ordered by due cycle. Bounded by one
    /// absorb per input per cycle over two slots of lifetime (plain hop
    /// latency plus the gateway alignment pad).
    gt_cal: Ring<GtEvent>,
    /// Output: input owning the output for a BE worm.
    be_owner: Option<PortIdx>,
    /// Output: round-robin pointer.
    rr: PortIdx,
    /// Output: link-level BE credits toward the downstream input queue.
    out_credits: u32,
    /// Output: request mask — the inputs whose head is a header routed
    /// here, filed during one [`Router::emit_into`] and taken when the
    /// output is visited, so it is zero between emits. Derived: rebuilt
    /// by every emit, never in the snapshot stream.
    requests: u64,
    /// Input: what the header at the head would be forwarded as (path
    /// shifted, or rewritten from its continuation word), and whether
    /// forwarding it consumes that continuation word. Meaningful only
    /// while the input is filed in a request mask. Derived, like
    /// `requests`.
    candidate: LinkWord,
    candidate_rewrites: bool,
}

/// One GT/BE router.
#[derive(Debug, Clone)]
pub struct Router {
    id: usize,
    n_ports: usize,
    be_capacity: usize,
    ports: Box<[Port]>,
    /// The BE input queues' storage: input `i` owns the window
    /// `i * be_capacity .. (i + 1) * be_capacity`, used as a ring through
    /// the cursor in its [`Port`].
    be_words: Box<[LinkWord]>,
    /// Occupancy mask, bit per input with queued BE words. Derived:
    /// maintained by every push and pop, rebuilt by [`Router::walk`],
    /// never in the snapshot stream.
    be_mask: u64,
    /// Occupancy mask, bit per input holding a GT header for gateway
    /// rewrite. Derived, like `be_mask`.
    hold_mask: u64,
    /// Maintained ready-output bitmask, bit per output with scheduled GT
    /// emissions (set on calendar push, cleared when the calendar drains).
    /// Derived as well, but an item of the snapshot stream for
    /// compatibility (see [`Router::walk`]).
    gt_mask: u64,
    gt_conflicts: u64,
    be_overflows: u64,
    gt_orphans: u64,
}

/// One word emitted by a router in a cycle.
#[derive(Debug, Clone, Copy)]
pub struct Emission {
    /// Output port the word leaves through.
    pub port: PortIdx,
    /// The word.
    pub word: LinkWord,
}

/// Result of [`Router::emit`]: emissions plus the inputs that dequeued a BE
/// word this cycle (whose upstream producers earn one credit each).
///
/// The buffers are reusable: [`Router::emit_into`] clears and refills a
/// caller-owned instance, so the steady-state tick allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct EmitResult {
    /// Words placed on output wires.
    pub emissions: Vec<Emission>,
    /// Input ports that freed one BE queue slot.
    pub be_dequeues: Vec<PortIdx>,
}

impl EmitResult {
    /// Empties both buffers, keeping their allocations.
    pub fn clear(&mut self) {
        self.emissions.clear();
        self.be_dequeues.clear();
    }
}

impl Router {
    /// Creates a router with `n_ports` ports and the given BE input-queue
    /// capacity in words.
    ///
    /// # Panics
    ///
    /// Panics if `n_ports` is zero or `be_capacity` is zero.
    pub fn new(id: usize, n_ports: usize, be_capacity: usize) -> Self {
        assert!(n_ports > 0, "router needs at least one port");
        assert!(n_ports <= 64, "port masks hold at most 64 ports");
        assert!(be_capacity > 0, "BE queues need capacity");
        assert!(
            u32::try_from(be_capacity).is_ok(),
            "BE queue capacity exceeds the queue cursor"
        );
        let port = Port {
            q_head: 0,
            q_len: 0,
            be_route: None,
            gt_route: None,
            gt_hold: None,
            gt_pad: 0,
            gt_cal: Ring::with_capacity(n_ports * (2 * SLOT_WORDS as usize + 1)),
            be_owner: None,
            rr: 0,
            out_credits: 0, // Noc sets real initial credits per link
            requests: 0,
            candidate: NO_WORD,
            candidate_rewrites: false,
        };
        Router {
            id,
            n_ports,
            be_capacity,
            ports: vec![port; n_ports].into_boxed_slice(),
            be_words: vec![NO_WORD; n_ports * be_capacity].into_boxed_slice(),
            be_mask: 0,
            hold_mask: 0,
            gt_mask: 0,
            gt_conflicts: 0,
            be_overflows: 0,
            gt_orphans: 0,
        }
    }

    /// Router id.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Number of ports.
    pub fn ports(&self) -> usize {
        self.n_ports
    }

    /// BE input-queue capacity in words (the credit budget granted to the
    /// upstream sender).
    pub fn be_capacity(&self) -> usize {
        self.be_capacity
    }

    /// Sets the initial BE credit budget for an output (the downstream
    /// queue's capacity). Called by [`Noc`](crate::Noc) during wiring.
    pub(crate) fn set_out_credits(&mut self, port: PortIdx, credits: u32) {
        self.ports[port as usize].out_credits = credits;
    }

    /// Returns one BE credit to an output (downstream freed a slot).
    #[inline]
    pub(crate) fn add_out_credit(&mut self, port: PortIdx) {
        let p = &mut self.ports[port as usize];
        p.out_credits = p.out_credits.wrapping_add(1);
    }

    /// BE words currently queued at input `port`.
    pub fn be_queued(&self, port: PortIdx) -> usize {
        self.ports[port as usize].q_len as usize
    }

    /// GT contention events seen so far (must stay zero under a correct
    /// slot allocation).
    pub fn gt_conflicts(&self) -> u64 {
        self.gt_conflicts
    }

    /// BE words that arrived at a full queue (credit discipline violations;
    /// must stay zero).
    pub fn be_overflows(&self) -> u64 {
        self.be_overflows
    }

    /// GT payload words that arrived with no preceding header (protocol
    /// violations; must stay zero).
    pub fn gt_orphans(&self) -> u64 {
        self.gt_orphans
    }

    /// Whether the router holds no queued BE words, no scheduled GT
    /// emissions and no header held for gateway rewrite — a tick of an idle
    /// router moves nothing.
    #[inline]
    pub fn idle(&self) -> bool {
        self.be_mask | self.hold_mask | self.gt_mask == 0
    }

    /// Whether the only state the router holds is its GT calendars: no
    /// queued BE words and no header held for gateway rewrite. Such a
    /// router does nothing until [`Router::next_gt_due`] — the basis of the
    /// calendar-sleep path in [`crate::shard`] and
    /// [`Engine::run`](crate::engine::Engine::run).
    #[inline]
    pub fn calendar_idle(&self) -> bool {
        self.be_mask | self.hold_mask == 0
    }

    /// The earliest due cycle across all scheduled GT emissions, or
    /// `u64::MAX` when every calendar is empty. Each per-output calendar is
    /// due-ordered, so only the fronts of the ready outputs are consulted.
    pub fn next_gt_due(&self) -> u64 {
        let mut due = u64::MAX;
        let mut rest = self.gt_mask;
        while let Some(out) = pop_lowest(&mut rest) {
            if let Some(ev) = self.ports[out].gt_cal.front() {
                due = due.min(ev.due);
            }
        }
        due
    }

    /// Whether the router carries no best-effort state at all: empty BE
    /// queues, no BE worm in flight on any input or output. The per-router
    /// part of [`Noc::be_quiet`](crate::Noc::be_quiet).
    pub(crate) fn be_quiet(&self) -> bool {
        self.be_mask == 0
            && self
                .ports
                .iter()
                .all(|p| p.be_route.is_none() && p.be_owner.is_none())
    }

    /// Whether the occupancy masks equal their dense definitions and no
    /// request is filed — what every public method leaves behind.
    fn masks_consistent(&self) -> bool {
        self.ports.iter().enumerate().all(|(i, p)| {
            (p.q_len > 0) == (self.be_mask & (1 << i) != 0)
                && p.gt_hold.is_some() == (self.hold_mask & (1 << i) != 0)
                && p.gt_cal.is_empty() == (self.gt_mask & (1 << i) == 0)
                && p.requests == 0
        }) && (self.be_mask | self.hold_mask | self.gt_mask)
            .checked_shr(self.n_ports as u32)
            .unwrap_or(0)
            == 0
    }

    /// Walks the router's complete dynamic state through a state visitor
    /// (see [`crate::persist`]), port by port: worm-tracking, arbitration
    /// and credit state as exact control items, calendar due cycles as
    /// sliding stamps, queued and scheduled words as in-flight words, the
    /// violation counters as periodic counters. The ready-output mask is
    /// derived from the calendars, but it stays an item of the stream (the
    /// golden snapshots carry it); a restored mask that disagrees with the
    /// restored calendars would index a calendar that is not there, so it
    /// fails the restore, as does any port index beyond this router's. The
    /// two occupancy masks are rebuilt from the queues and holds just
    /// walked; request masks and cached candidates live only inside an
    /// emit and are not visited at all.
    pub fn walk<V: crate::persist::StateVisit + ?Sized>(&mut self, p: &mut V) {
        use crate::persist::{
            persist_index, persist_int, persist_opt_index, persist_opt_word, persist_ring,
            persist_word,
        };
        let n = self.n_ports;
        let cap = self.be_capacity;
        let mut scheduled = 0u64;
        self.be_mask = 0;
        self.hold_mask = 0;
        for (i, port) in self.ports.iter_mut().enumerate() {
            // The BE queue, as the ring it is: length in-stream, then the
            // words oldest first. A restored length restarts the window at
            // its base, as `persist_ring` does.
            let queued = p.len(port.q_len as usize);
            if queued != port.q_len as usize {
                if queued > cap {
                    p.fail("snapshot ring contents exceed the target's capacity");
                }
                port.q_head = 0;
                port.q_len = queued.min(cap) as u32;
            }
            let window = &mut self.be_words[i * cap..(i + 1) * cap];
            let (wrapped, oldest) = window.split_at_mut(port.q_head as usize);
            for w in oldest.iter_mut().chain(wrapped).take(port.q_len as usize) {
                persist_word(w, p);
            }
            self.be_mask |= u64::from(port.q_len > 0) << i;
            persist_opt_index(&mut port.be_route, n, p);
            persist_opt_index(&mut port.gt_route, n, p);
            persist_opt_word(&mut port.gt_hold, p);
            self.hold_mask |= u64::from(port.gt_hold.is_some()) << i;
            p.item(&mut port.gt_pad);
            persist_ring(
                &mut port.gt_cal,
                GtEvent {
                    due: 0,
                    word: NO_WORD,
                },
                p,
                |ev, p| {
                    p.stamp(&mut ev.due);
                    persist_word(&mut ev.word, p);
                },
            );
            scheduled |= u64::from(!port.gt_cal.is_empty()) << i;
            persist_opt_index(&mut port.be_owner, n, p);
            persist_index(&mut port.rr, n, p);
            persist_int(&mut port.out_credits, p);
        }
        p.item(&mut self.gt_mask);
        if self.gt_mask != scheduled {
            p.fail("snapshot ready-output mask disagrees with the GT calendars");
        }
        p.counter(&mut self.gt_conflicts);
        p.counter(&mut self.be_overflows);
        p.counter(&mut self.gt_orphans);
    }

    /// Where in [`Router::be_words`] the word `offset` places behind the
    /// head of `input`'s queue sits (`offset` at most the capacity: one
    /// compare wraps it).
    #[inline]
    fn be_slot(&self, input: usize, offset: usize) -> usize {
        let mut at = self.ports[input].q_head as usize + offset;
        if at >= self.be_capacity {
            at -= self.be_capacity;
        }
        input * self.be_capacity + at
    }

    /// The BE word queued `offset` places behind the head of `input` (0 =
    /// the head itself), if the queue is that long.
    #[inline]
    fn be_word(&self, input: usize, offset: usize) -> Option<LinkWord> {
        (offset < self.ports[input].q_len as usize)
            .then(|| self.be_words[self.be_slot(input, offset)])
    }

    /// Drops the oldest BE word of `input` (which must have one).
    #[inline]
    fn be_pop(&mut self, input: usize) {
        let p = &mut self.ports[input];
        debug_assert!(p.q_len > 0, "pop from an empty BE queue");
        p.q_head += 1;
        if p.q_head as usize == self.be_capacity {
            p.q_head = 0;
        }
        p.q_len -= 1;
        if p.q_len == 0 {
            self.be_mask &= !(1 << input);
        }
    }

    /// Installs the next route segment of a continuation word into a held
    /// exhausted header: the rewritten header keeps the held word's upper
    /// (credits/flush/qid) bits, takes its first hop from the continuation
    /// path and inherits the continuation's tail marker. Returns `None` for
    /// an empty continuation path (a misroute).
    fn rewrite_header(held: LinkWord, cont: LinkWord) -> Option<(PortIdx, LinkWord)> {
        let mask = (1u32 << PATH_BITS) - 1;
        let cont_path = cont.word() & mask;
        let out = Path::peek_encoded(cont_path)?;
        let bits = (held.word() & !mask) | Path::shift_encoded(cont_path);
        let rewritten = if cont.is_tail() {
            LinkWord::header_only(bits, held.class())
        } else {
            LinkWord::header(bits, held.class())
        };
        Some((out, rewritten))
    }

    /// The output a queued BE header at the head of `input` is a candidate
    /// for and the word it would be forwarded as, resolving gateway
    /// rewrites: an exhausted header is a candidate only once its
    /// continuation word is queued behind it (third return value `true`).
    #[inline]
    fn be_candidate(&self, input: usize) -> Option<(PortIdx, LinkWord, bool)> {
        let head = self.be_word(input, 0)?;
        if !head.is_header() {
            return None;
        }
        match Path::peek_encoded(head.word()) {
            Some(next) => {
                let fwd = head.with_word(Path::shift_header(head.word()));
                Some((next, fwd, false))
            }
            None if !head.is_tail() => {
                let cont = self.be_word(input, 1)?;
                let (next, rewritten) = Self::rewrite_header(head, cont)?;
                Some((next, rewritten, true))
            }
            // A single-word packet exhausted at a router is misrouted;
            // leave it blocking its input (defensive, as for orphan
            // continuations — cannot happen with well-formed traffic).
            None => None,
        }
    }

    /// Files `input` — whose head resolved to `word` bound for `out` — in
    /// that output's request mask.
    #[inline]
    fn file_request(&mut self, input: usize, out: PortIdx, word: LinkWord, rewrites: bool) {
        self.ports[usize::from(out)].requests |= 1 << input;
        let p = &mut self.ports[input];
        p.candidate = word;
        p.candidate_rewrites = rewrites;
    }

    /// Resolves the head a pop just exposed at `input`, which has no worm
    /// in flight, and files it if it is a header for one of the `open`
    /// outputs — those of this emit's ready set still to be visited.
    /// Anything else (another output, a word that cannot be forwarded)
    /// waits for the next cycle's first pass.
    #[inline]
    fn refile(&mut self, input: usize, open: u64) {
        debug_assert!(self.ports[input].be_route.is_none());
        if let Some((next, word, rewrites)) = self.be_candidate(input) {
            if usize::from(next) < self.n_ports && open & (1 << next) != 0 {
                self.file_request(input, next, word, rewrites);
            }
        }
    }

    /// Phase 1: produce at most one word per output for `cycle`.
    ///
    /// GT emissions due this cycle take absolute priority; otherwise a BE
    /// worm holding the output continues, and otherwise round-robin
    /// arbitration picks a new BE worm whose header routes to the output.
    pub fn emit(&mut self, cycle: u64) -> EmitResult {
        let mut result = EmitResult::default();
        self.emit_into(cycle, &mut result);
        result
    }

    /// Phase 1 without allocation: clears `result` and fills it (see
    /// [`Router::emit`] for the arbitration rules).
    ///
    /// Two passes, both over set bits only. The first visits the inputs of
    /// `be_mask`: a worm mid-flight marks its claimed output ready; a
    /// header at the head is decoded **once** — path peeked and shifted, or
    /// rewritten from its continuation word — and filed in the request mask
    /// of the output it names, which it also marks ready; a head that can
    /// never be forwarded is discarded. The second visits the ready outputs
    /// (those, plus the outputs of `gt_mask`) in ascending order: the GT
    /// calendar is consulted only where `gt_mask` says there is one, a
    /// continuing worm moves one word, and otherwise the winner among the
    /// filed requests is the first set bit at or after the round-robin
    /// pointer — a rotate and a count of trailing zeros, with the word to
    /// forward already cached.
    ///
    /// One behaviour keeps the cache honest: an input whose pop leaves it
    /// with no worm in flight (it won with a single-word packet, forwarded
    /// a worm's tail, had a stale worm retired or a dead head discarded)
    /// exposes its **next** head within the same emit, and if that is a
    /// header for a ready output not yet visited it is arbitrated there in
    /// the same cycle. So after every such pop the new head is resolved
    /// and filed — only for outputs still ahead in this emit's ready set,
    /// never adding one (`refile`).
    ///
    /// Returns whether the router was [`idle`](Router::idle) on entry — it
    /// then produced nothing and still is — which the masks answer without
    /// touching a port; [`Noc`](crate::Noc) retires such routers from its
    /// activity set.
    pub fn emit_into(&mut self, cycle: u64, result: &mut EmitResult) -> bool {
        result.clear();
        debug_assert!(self.masks_consistent(), "router masks out of step");
        if self.be_mask | self.gt_mask == 0 {
            return self.hold_mask == 0;
        }
        let mut ready = self.gt_mask;
        // Inputs whose unforwardable head was discarded below: the word
        // behind it may contend in this emit, but only once the ready set
        // is complete.
        let mut exposed = 0u64;
        let mut queued = self.be_mask;
        while let Some(input) = pop_lowest(&mut queued) {
            // A worm mid-flight continues toward its claimed output.
            if let Some(out) = self.ports[input].be_route {
                ready |= 1 << out;
                continue;
            }
            // A header at the head is an arbitration candidate for the
            // output its (possibly rewritten) path names.
            match self.be_candidate(input) {
                Some((next, word, rewrites)) if usize::from(next) < self.n_ports => {
                    ready |= 1 << next;
                    self.file_request(input, next, word, rewrites);
                    continue;
                }
                Some(_) => {}
                // An exhausted non-tail header still waiting for its
                // continuation word is the one legitimate `None`: leave it.
                None => {
                    let head = self.be_word(input, 0).expect("input is in be_mask");
                    if head.is_header() && !head.is_tail() && self.ports[input].q_len < 2 {
                        continue;
                    }
                }
            }
            // Unforwardable head (only possible under an injected fault):
            // a header whose corrupted path names a port this router does
            // not have, an exhausted header whose continuation names none,
            // or an orphan continuation whose header was lost upstream.
            // Discard one word per cycle, returning its queue slot's
            // credit upstream, so the input does not stall forever.
            self.be_pop(input);
            result.be_dequeues.push(input as PortIdx);
            exposed |= 1 << input;
        }
        exposed &= self.be_mask;
        while let Some(input) = pop_lowest(&mut exposed) {
            self.refile(input, ready);
        }
        let mut rest = ready;
        while let Some(out) = pop_lowest(&mut rest) {
            let requests = std::mem::take(&mut self.ports[out].requests);
            // 1. GT words due now win the output unconditionally.
            if self.gt_mask & (1 << out) != 0 {
                let cal = &mut self.ports[out].gt_cal;
                let due = cal.front().expect("gt_mask marks a calendar entry").due;
                debug_assert!(due >= cycle, "GT calendar fell behind");
                if due == cycle {
                    let ev = cal.pop_front().expect("front checked");
                    // A second event due the same cycle is a contention
                    // violation: record and drop it.
                    while cal.front().is_some_and(|e| e.due == cycle) {
                        cal.pop_front();
                        self.gt_conflicts += 1;
                    }
                    if cal.is_empty() {
                        self.gt_mask &= !(1 << out);
                    }
                    result.emissions.push(Emission {
                        port: out as PortIdx,
                        word: ev.word,
                    });
                    continue;
                }
            }
            // 2. A BE worm already owning this output continues.
            if let Some(owner) = self.ports[out].be_owner {
                let input = usize::from(owner);
                let Some(head) = self.be_word(input, 0) else {
                    continue;
                };
                if head.is_header() {
                    // A fresh header at the head while the worm is
                    // mid-flight means the worm's tail was lost on the
                    // upstream link (only possible under an injected link
                    // fault). Retire the stale worm so the header
                    // re-arbitrates instead of being forwarded into the
                    // dead worm's path; the truncated packet surfaces
                    // downstream as NI `rx_drops`.
                    self.ports[out].be_owner = None;
                    self.ports[input].be_route = None;
                    self.refile(input, rest);
                    continue;
                }
                if self.ports[out].out_credits == 0 {
                    continue;
                }
                self.be_pop(input);
                self.ports[out].out_credits -= 1;
                if head.is_tail() {
                    self.ports[out].be_owner = None;
                    self.ports[input].be_route = None;
                    self.refile(input, rest);
                }
                result.be_dequeues.push(owner);
                result.emissions.push(Emission {
                    port: out as PortIdx,
                    word: head,
                });
                continue;
            }
            // 3. Round-robin among inputs whose head is a header routed
            // here: the first request at or after the pointer, wrapping.
            // Inputs with a worm mid-flight elsewhere, non-header heads and
            // not-yet-rewritable gateway headers never file one.
            if requests == 0 || self.ports[out].out_credits == 0 {
                continue;
            }
            let start = u32::from(self.ports[out].rr);
            let input = ((start + requests.rotate_right(start).trailing_zeros()) & 63) as usize;
            let forwarded = self.ports[input].candidate;
            self.be_pop(input);
            if self.ports[input].candidate_rewrites {
                // Gateway: the continuation word is consumed here, never
                // forwarded — its queue slot frees a second upstream
                // credit.
                self.be_pop(input);
                result.be_dequeues.push(input as PortIdx);
            }
            let port = &mut self.ports[out];
            port.out_credits -= 1;
            port.rr = if input + 1 == self.n_ports {
                0
            } else {
                input as PortIdx + 1
            };
            if forwarded.is_tail() {
                self.refile(input, rest);
            } else {
                self.ports[out].be_owner = Some(input as PortIdx);
                self.ports[input].be_route = Some(out as PortIdx);
            }
            result.be_dequeues.push(input as PortIdx);
            result.emissions.push(Emission {
                port: out as PortIdx,
                word: forwarded,
            });
        }
        false
    }

    /// Phase 2: register the word arriving on input `port` at `cycle`.
    pub fn absorb(&mut self, port: PortIdx, word: LinkWord, cycle: u64) {
        let input = port as usize;
        match word.class() {
            WordClass::Guaranteed => {
                let n_ports = self.n_ports;
                let p = &mut self.ports[input];
                let (out, fwd) = if let Some(held) = p.gt_hold.take() {
                    self.hold_mask &= !(1 << input);
                    // Gateway rewrite: the word behind the held exhausted
                    // header is its continuation — install the next segment
                    // and re-emit the header one whole slot later than a
                    // plain hop (the held cycle plus an alignment pad), one
                    // word shorter. Aligning the rewrite to a slot boundary
                    // keeps downstream slot occupancy whole-slot, so the
                    // allocator reserves exactly one slot per link instead
                    // of a base + spill pair. A continuation naming no
                    // port, or a port this router does not have, marks a
                    // misrouted packet (e.g. payload misread as a segment):
                    // drop and count it, like any other orphan.
                    let rewrite = Self::rewrite_header(held, word)
                        .filter(|&(out, _)| usize::from(out) < n_ports);
                    let Some((out, rewritten)) = rewrite else {
                        p.gt_pad = 0;
                        self.gt_orphans += 1;
                        return;
                    };
                    p.gt_pad = SLOT_WORDS - 1;
                    if !rewritten.is_tail() {
                        p.gt_route = Some(out);
                    }
                    (out, rewritten)
                } else if word.is_header() {
                    match Path::peek_encoded(word.word()) {
                        Some(out) if usize::from(out) < n_ports => {
                            let shifted = word.with_word(Path::shift_header(word.word()));
                            p.gt_pad = 0;
                            if !word.is_tail() {
                                p.gt_route = Some(out);
                            }
                            (out, shifted)
                        }
                        Some(_) => {
                            // A (corrupted) path naming a port this router
                            // does not have: misrouted, drop and count. Any
                            // continuation words follow via the orphan path
                            // below.
                            p.gt_pad = 0;
                            self.gt_orphans += 1;
                            return;
                        }
                        None if !word.is_tail() => {
                            // Path exhausted with more words behind: this
                            // router is the route's gateway — hold for the
                            // continuation word.
                            p.gt_hold = Some(word);
                            self.hold_mask |= 1 << input;
                            return;
                        }
                        None => {
                            // Single-word packet exhausted at a router:
                            // misrouted.
                            self.gt_orphans += 1;
                            return;
                        }
                    }
                } else {
                    let Some(out) = p.gt_route else {
                        self.gt_orphans += 1;
                        return;
                    };
                    if word.is_tail() {
                        p.gt_route = None;
                    }
                    (out, word)
                };
                let due = cycle + SLOT_WORDS + p.gt_pad;
                if word.is_tail() {
                    p.gt_pad = 0;
                }
                // Padded (rewritten-here) and unpadded worms converging on
                // one output can be absorbed out of due order; restore the
                // calendar's due order with a bounded backward bubble (the
                // skew is at most the alignment pad).
                let cal = &mut self.ports[out as usize].gt_cal;
                cal.push_back(GtEvent { due, word: fwd })
                    .expect("GT calendar bounded by ports x two slots of lifetime");
                let mut i = cal.len() - 1;
                while i > 0 {
                    let prev = cal.get(i - 1).expect("index in bounds").due;
                    if prev <= due {
                        break;
                    }
                    let moved = *cal.get(i - 1).expect("index in bounds");
                    *cal.get_mut(i).expect("index in bounds") = moved;
                    i -= 1;
                }
                *cal.get_mut(i).expect("index in bounds") = GtEvent { due, word: fwd };
                self.gt_mask |= 1 << out;
            }
            WordClass::BestEffort => {
                let queued = self.ports[input].q_len as usize;
                if queued == self.be_capacity {
                    self.be_overflows += 1;
                    return;
                }
                self.be_words[self.be_slot(input, queued)] = word;
                self.ports[input].q_len += 1;
                self.be_mask |= 1 << input;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::header::PacketHeader;
    use aethereal_testkit::prelude::*;

    fn header_word(path: &[PortIdx], qid: u8) -> u32 {
        PacketHeader {
            path: Path::new(path).unwrap(),
            qid,
            credits: 0,
            flush: false,
        }
        .pack()
    }

    fn be_header(path: &[PortIdx], tail: bool) -> LinkWord {
        if tail {
            LinkWord::header_only(header_word(path, 0), WordClass::BestEffort)
        } else {
            LinkWord::header(header_word(path, 0), WordClass::BestEffort)
        }
    }

    fn gt_header(path: &[PortIdx], tail: bool) -> LinkWord {
        if tail {
            LinkWord::header_only(header_word(path, 0), WordClass::Guaranteed)
        } else {
            LinkWord::header(header_word(path, 0), WordClass::Guaranteed)
        }
    }

    fn fresh(n_ports: usize) -> Router {
        let mut r = Router::new(0, n_ports, DEFAULT_BE_QUEUE_WORDS);
        for p in 0..n_ports {
            r.set_out_credits(p as PortIdx, DEFAULT_BE_QUEUE_WORDS as u32);
        }
        r
    }

    #[test]
    fn gt_word_forwarded_after_one_slot() {
        let mut r = fresh(5);
        r.absorb(0, gt_header(&[2, 4], true), 9);
        for c in 10..12 {
            assert!(r.emit(c).emissions.is_empty(), "early at {c}");
        }
        let out = r.emit(12).emissions;
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].port, 2);
        // Path was shifted: next hop is now 4.
        assert_eq!(Path::peek_encoded(out[0].word.word()), Some(4));
    }

    #[test]
    fn gt_worm_follows_header() {
        let mut r = fresh(5);
        r.absorb(1, gt_header(&[3, 4], false), 0);
        r.absorb(1, LinkWord::payload(7, WordClass::Guaranteed, false), 1);
        r.absorb(1, LinkWord::payload(8, WordClass::Guaranteed, true), 2);
        let e3 = r.emit(3).emissions;
        let e4 = r.emit(4).emissions;
        let e5 = r.emit(5).emissions;
        assert_eq!(e3[0].port, 3);
        assert_eq!(e4[0].word.word(), 7);
        assert_eq!(e5[0].word.word(), 8);
        assert!(e5[0].word.is_tail());
        assert_eq!(r.gt_conflicts(), 0);
    }

    #[test]
    fn gt_contention_detected_and_counted() {
        let mut r = fresh(5);
        // Two GT headers from different inputs, same cycle, same output 4.
        r.absorb(0, gt_header(&[4], true), 0);
        r.absorb(1, gt_header(&[4], true), 0);
        let out = r.emit(3).emissions;
        assert_eq!(out.len(), 1, "only one word can leave");
        assert_eq!(r.gt_conflicts(), 1);
    }

    #[test]
    fn gt_orphan_payload_counted() {
        let mut r = fresh(5);
        r.absorb(0, LinkWord::payload(1, WordClass::Guaranteed, true), 0);
        assert_eq!(r.gt_orphans(), 1);
        assert!(r.emit(3).emissions.is_empty());
    }

    #[test]
    fn be_single_word_packet_forwarded() {
        let mut r = fresh(5);
        r.absorb(0, be_header(&[2, 4], true), 0);
        let out = r.emit(1).emissions;
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].port, 2);
        assert!(out[0].word.is_tail());
        assert_eq!(Path::peek_encoded(out[0].word.word()), Some(4));
    }

    #[test]
    fn be_worm_holds_output_until_tail() {
        let mut r = fresh(5);
        r.absorb(0, be_header(&[2, 4], false), 0);
        r.absorb(0, LinkWord::payload(11, WordClass::BestEffort, false), 1);
        r.absorb(0, LinkWord::payload(12, WordClass::BestEffort, true), 2);
        // A competing worm from input 1 to the same output waits.
        r.absorb(1, be_header(&[2, 4], true), 0);
        let w1 = r.emit(1).emissions;
        assert_eq!(w1.len(), 1);
        assert!(w1[0].word.is_header());
        let w2 = r.emit(2).emissions;
        assert_eq!(w2[0].word.word(), 11);
        let w3 = r.emit(3).emissions;
        assert_eq!(w3[0].word.word(), 12);
        assert!(w3[0].word.is_tail());
        // Now the competitor gets through.
        let w4 = r.emit(4).emissions;
        assert_eq!(w4.len(), 1);
        assert!(w4[0].word.is_header());
    }

    #[test]
    fn be_round_robin_alternates() {
        let mut r = fresh(5);
        // Single-word packets from inputs 0 and 1, all to output 3.
        for c in 0..4 {
            r.absorb(0, be_header(&[3, 4], true), c);
            r.absorb(1, be_header(&[3, 4], true), c);
        }
        let mut winners = Vec::new();
        for c in 5..13 {
            if let Some(&input) = r.emit(c).be_dequeues.first() {
                winners.push(input);
            }
        }
        assert_eq!(winners.len(), 8);
        // Strict alternation thanks to round-robin arbitration.
        for pair in winners.windows(2) {
            assert_ne!(pair[0], pair[1], "round robin must alternate: {winners:?}");
        }
    }

    #[test]
    fn be_blocked_without_credits() {
        let mut r = fresh(5);
        r.set_out_credits(2, 0);
        r.absorb(0, be_header(&[2, 4], true), 0);
        assert!(r.emit(1).emissions.is_empty());
        r.add_out_credit(2);
        assert_eq!(r.emit(2).emissions.len(), 1);
    }

    #[test]
    fn be_overflow_counted_not_crashed() {
        let mut r = Router::new(0, 5, 2);
        r.absorb(0, LinkWord::payload(0, WordClass::BestEffort, false), 0);
        r.absorb(0, LinkWord::payload(1, WordClass::BestEffort, false), 0);
        r.absorb(0, LinkWord::payload(2, WordClass::BestEffort, false), 0);
        assert_eq!(r.be_overflows(), 1);
        assert_eq!(r.be_queued(0), 2);
    }

    #[test]
    fn gt_beats_be_for_the_output() {
        let mut r = fresh(5);
        // BE worm ready at cycle 1; GT word due exactly at cycle 3.
        r.absorb(0, be_header(&[2, 4], false), 0);
        r.absorb(0, LinkWord::payload(1, WordClass::BestEffort, false), 1);
        r.absorb(0, LinkWord::payload(2, WordClass::BestEffort, true), 2);
        r.absorb(1, gt_header(&[2, 4], true), 0);
        let e1 = r.emit(1).emissions; // BE header goes (GT not due yet)
        assert_eq!(e1[0].word.class(), WordClass::BestEffort);
        let e2 = r.emit(2).emissions; // BE payload
        assert_eq!(e2[0].word.class(), WordClass::BestEffort);
        let e3 = r.emit(3).emissions; // GT due: wins over BE tail
        assert_eq!(e3.len(), 1);
        assert_eq!(e3[0].word.class(), WordClass::Guaranteed);
        let e4 = r.emit(4).emissions; // BE resumes
        assert_eq!(e4[0].word.class(), WordClass::BestEffort);
        assert!(e4[0].word.is_tail());
    }

    #[test]
    fn emit_reports_dequeues_for_credit_return() {
        let mut r = fresh(5);
        r.absorb(3, be_header(&[1, 4], true), 0);
        let res = r.emit(1);
        assert_eq!(res.be_dequeues, vec![3]);
    }

    #[test]
    #[should_panic(expected = "at least one port")]
    fn zero_ports_panics() {
        let _ = Router::new(0, 0, 8);
    }

    #[test]
    fn gt_ready_mask_tracks_calendar() {
        let mut r = fresh(5);
        assert_eq!(r.gt_mask, 0, "idle router advertises no ready output");
        r.absorb(0, gt_header(&[2], true), 0);
        assert_eq!(r.gt_mask, 1 << 2, "scheduled emission marks its output");
        let out = r.emit(3).emissions;
        assert_eq!(out.len(), 1);
        assert_eq!(r.gt_mask, 0, "drained calendar clears the bit");
    }

    fn exhausted_header(qid: u8, class: WordClass) -> LinkWord {
        LinkWord::header(header_word(&[], qid), class)
    }

    fn continuation(path: &[PortIdx], class: WordClass, tail: bool) -> LinkWord {
        LinkWord::payload(Path::new(path).unwrap().encode(), class, tail)
    }

    #[test]
    fn gt_gateway_rewrites_header_from_continuation() {
        let mut r = fresh(5);
        // Header exhausted here; continuation names segment [2, 4]; one
        // payload word follows.
        r.absorb(0, exhausted_header(3, WordClass::Guaranteed), 0);
        assert!(!r.idle(), "held header keeps the router non-idle");
        r.absorb(0, continuation(&[2, 4], WordClass::Guaranteed, false), 1);
        r.absorb(0, LinkWord::payload(77, WordClass::Guaranteed, true), 2);
        // Rewrite aligned to the slot grid: the header leaves at 2 x
        // SLOT_WORDS = 6, one whole slot later than a plain hop (due 3);
        // the payload follows contiguously.
        for c in 3..6 {
            assert!(r.emit(c).emissions.is_empty(), "nothing due at {c}");
        }
        let e6 = r.emit(6).emissions;
        assert_eq!(e6.len(), 1);
        assert_eq!(e6[0].port, 2);
        assert!(e6[0].word.is_header());
        // Upper header bits (qid) survived; path shifted past the rewritten
        // first hop.
        assert_eq!(PacketHeader::unpack(e6[0].word.word()).qid, 3);
        assert_eq!(Path::peek_encoded(e6[0].word.word()), Some(4));
        let e7 = r.emit(7).emissions;
        assert_eq!(e7[0].word.word(), 77);
        assert!(e7[0].word.is_tail());
        assert_eq!(r.gt_orphans(), 0);
        assert_eq!(r.gt_conflicts(), 0);
    }

    #[test]
    fn gt_gateway_credit_only_packet() {
        // Header + tail continuation and nothing else: the rewritten header
        // leaves as a single-word packet.
        let mut r = fresh(5);
        r.absorb(1, exhausted_header(7, WordClass::Guaranteed), 0);
        r.absorb(1, continuation(&[3], WordClass::Guaranteed, true), 1);
        assert!(r.emit(4).emissions.is_empty(), "aligned past the plain due");
        let out = r.emit(6).emissions;
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].port, 3);
        assert!(out[0].word.is_header() && out[0].word.is_tail());
        assert!(r.idle());
    }

    #[test]
    fn gt_exhausted_single_word_header_is_orphan() {
        let mut r = fresh(5);
        r.absorb(
            0,
            LinkWord::header_only(header_word(&[], 0), WordClass::Guaranteed),
            0,
        );
        assert_eq!(r.gt_orphans(), 1);
        assert!(r.idle());
    }

    #[test]
    fn gt_empty_continuation_is_orphan() {
        let mut r = fresh(5);
        r.absorb(0, exhausted_header(0, WordClass::Guaranteed), 0);
        r.absorb(0, continuation(&[], WordClass::Guaranteed, true), 1);
        assert_eq!(r.gt_orphans(), 1);
        assert!(r.emit(4).emissions.is_empty());
    }

    #[test]
    fn gt_continuation_naming_a_missing_port_is_orphan_not_panic() {
        // A misrouted multi-word packet: the word behind the exhausted
        // header is payload whose low bits decode to port 6 on a 5-port
        // router. It must be dropped and counted, not crash the calendar.
        let mut r = fresh(5);
        r.absorb(0, exhausted_header(0, WordClass::Guaranteed), 0);
        r.absorb(0, LinkWord::payload(6, WordClass::Guaranteed, true), 1);
        assert_eq!(r.gt_orphans(), 1);
        assert!(r.emit(4).emissions.is_empty());
        assert!(r.idle());
    }

    #[test]
    fn be_gateway_rewrites_and_returns_both_credits() {
        let mut r = fresh(5);
        r.absorb(0, exhausted_header(5, WordClass::BestEffort), 0);
        // Continuation not yet queued: the header must wait, not block.
        assert!(r.emit(1).emissions.is_empty());
        r.absorb(0, continuation(&[1, 4], WordClass::BestEffort, false), 1);
        r.absorb(0, LinkWord::payload(9, WordClass::BestEffort, true), 2);
        let res = r.emit(2);
        assert_eq!(res.emissions.len(), 1);
        assert_eq!(res.emissions[0].port, 1);
        assert!(res.emissions[0].word.is_header());
        assert_eq!(PacketHeader::unpack(res.emissions[0].word.word()).qid, 5);
        assert_eq!(Path::peek_encoded(res.emissions[0].word.word()), Some(4));
        // Two queue slots freed (header + consumed continuation) → two
        // upstream credits.
        assert_eq!(res.be_dequeues, vec![0, 0]);
        // The worm continues to the claimed output.
        let res = r.emit(3);
        assert_eq!(res.emissions[0].word.word(), 9);
        assert!(res.emissions[0].word.is_tail());
        assert_eq!(res.be_dequeues, vec![0]);
    }

    #[test]
    fn be_gateway_tail_continuation_single_word_out() {
        let mut r = fresh(5);
        r.absorb(0, exhausted_header(2, WordClass::BestEffort), 0);
        r.absorb(0, continuation(&[3], WordClass::BestEffort, true), 1);
        let res = r.emit(2);
        assert_eq!(res.emissions.len(), 1);
        assert!(res.emissions[0].word.is_tail());
        assert_eq!(res.be_dequeues, vec![0, 0]);
        assert!(r.idle());
    }

    #[test]
    fn popped_input_exposes_its_next_head_to_the_same_emit() {
        // Input 0 queues two single-word packets, for outputs 2 and 3;
        // input 1 wants output 3 too. Winning output 2 pops input 0's
        // first packet, and the header behind it is arbitrated at output 3
        // — later in the same emit, already ready because of input 1 — so
        // input 0 is read twice in one cycle and input 1 waits.
        let mut r = fresh(5);
        r.absorb(0, be_header(&[2, 4], true), 0);
        r.absorb(0, be_header(&[3, 4], true), 0);
        r.absorb(1, be_header(&[3, 4], true), 0);
        let res = r.emit(1);
        let ports: Vec<_> = res.emissions.iter().map(|e| e.port).collect();
        assert_eq!(ports, vec![2, 3]);
        assert_eq!(res.be_dequeues, vec![0, 0]);
        let res = r.emit(2);
        assert_eq!(res.emissions.len(), 1);
        assert_eq!(res.emissions[0].port, 3);
        assert_eq!(res.be_dequeues, vec![1]);
        assert!(r.idle());
        // The exposed head never *adds* an output to the emit under way:
        // with nobody else asking for output 3, the second packet waits a
        // cycle, as does a packet for an output already passed.
        for second in [3, 1] {
            let mut r = fresh(5);
            r.absorb(0, be_header(&[2, 4], true), 0);
            r.absorb(0, be_header(&[second, 4], true), 0);
            let ports: Vec<_> = r.emit(1).emissions.iter().map(|e| e.port).collect();
            assert_eq!(ports, vec![2]);
            let ports: Vec<_> = r.emit(2).emissions.iter().map(|e| e.port).collect();
            assert_eq!(ports, vec![second]);
        }
    }

    /// The masks against their dense definitions, spelled through the
    /// public accessors and the per-port records.
    fn assert_masks_dense(r: &Router, when: &str) {
        let mut any = false;
        for (i, p) in r.ports.iter().enumerate() {
            let bit = |mask: u64| mask >> i & 1 == 1;
            assert_eq!(r.be_queued(i as PortIdx) > 0, bit(r.be_mask), "{when}");
            assert_eq!(p.gt_hold.is_some(), bit(r.hold_mask), "{when}");
            assert_eq!(!p.gt_cal.is_empty(), bit(r.gt_mask), "{when}");
            assert_eq!(p.requests, 0, "request outlived its emit, {when}");
            any |= p.q_len > 0 || p.gt_hold.is_some() || !p.gt_cal.is_empty();
        }
        assert_eq!(r.idle(), !any, "{when}");
        assert!(r.masks_consistent(), "{when}");
    }

    proptest! {
        #[test]
        fn masks_equal_their_dense_definitions_under_random_traffic(seed in any::<u64>()) {
            // Random GT and BE words on every input — worms, single-word
            // packets, exhausted (gateway) headers, paths naming ports the
            // router lacks, orphans — against outputs whose credits trickle
            // back slower than the words arrive.
            const PORTS: usize = 5;
            let mut rng = crate::rng::Rng64::seed_from_u64(seed);
            let mut r = Router::new(0, PORTS, 4);
            // Per input and class: whether a worm is open (the next word is
            // then payload, mostly).
            let mut open = [[false; 2]; PORTS];
            let mut result = EmitResult::default();
            for cycle in 0..300u64 {
                let was_idle = r.idle();
                prop_assert_eq!(r.emit_into(cycle, &mut result), was_idle);
                assert_masks_dense(&r, "after emit");
                for out in 0..PORTS as PortIdx {
                    if rng.chance(0.3) {
                        r.add_out_credit(out);
                    }
                }
                for (input, open) in open.iter_mut().enumerate() {
                    if !rng.chance(0.6) {
                        continue;
                    }
                    let class = WordClass::ALL[rng.below_usize(2)];
                    let in_worm = &mut open[class.index()];
                    let tail = rng.chance(0.4);
                    let word = if *in_worm == rng.chance(0.9) {
                        LinkWord::payload(rng.next_u64() as u32, class, tail)
                    } else {
                        let hops: Vec<PortIdx> = (0..rng.below_usize(3))
                            .map(|_| rng.below(7) as PortIdx)
                            .collect();
                        let bits = header_word(&hops, rng.below(32) as u8);
                        if tail {
                            LinkWord::header_only(bits, class)
                        } else {
                            LinkWord::header(bits, class)
                        }
                    };
                    *in_worm = !tail;
                    r.absorb(input as PortIdx, word, cycle);
                    assert_masks_dense(&r, "after absorb");
                }
            }
            // The run must have reached what it is there to cover.
            prop_assert!(r.gt_orphans() > 0 && r.be_overflows() > 0);
        }
    }

    #[test]
    fn blocked_worm_stays_ready_until_tail_leaves() {
        // A worm claims output 2, then its input runs dry mid-worm; the
        // output must still be visited when the next word arrives.
        let mut r = fresh(5);
        r.absorb(0, be_header(&[2, 4], false), 0);
        assert_eq!(r.emit(1).emissions.len(), 1, "header forwarded");
        assert!(r.emit(2).emissions.is_empty(), "input dry: nothing to emit");
        r.absorb(0, LinkWord::payload(9, WordClass::BestEffort, true), 2);
        let out = r.emit(3).emissions;
        assert_eq!(out.len(), 1);
        assert!(out[0].word.is_tail());
    }
}

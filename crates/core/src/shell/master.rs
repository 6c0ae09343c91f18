//! The master shell (Fig. 5) with its connection shells: narrowcast
//! (Fig. 3), multicast, and the configuration shell (Fig. 8).
//!
//! The master shell *sequentializes* transactions into request messages —
//! the paper budgets 2 cycles for this — pushes the words into the selected
//! channel's source queue at port-clock rate (the port is one word wide),
//! and *desequentializes* response messages back into transaction
//! responses.
//!
//! The narrowcast shell selects the slave **by address** and keeps "a
//! history of connection identifiers of the transactions including
//! responses" so that responses are merged back **in order** even when
//! different slaves answer at different speeds. The multicast shell
//! duplicates every request to all channels of the connection and merges
//! the responses (all slaves execute each transaction, §2). The
//! configuration shell selects by NI: its address is `(NI, register)`
//! ([`global_addr`](super::config::global_addr)), its own NI is one more
//! target answered in place, and every other NI is reached over the
//! configuration connection bound to it at run time.
//!
//! One request path serves all four. A transaction the shell answers
//! itself — a configuration access to its own NI, an unbound NI, a
//! narrowcast decode miss — takes its place in the same history as one
//! answered through the network, so responses leave in submission order
//! whoever made them.

use super::config::split_addr;
use crate::kernel::{ChannelId, NiKernel};
use crate::message::{encode_request, MessageAssembler, MsgKind};
use crate::transaction::{RespStatus, Transaction, TransactionResponse};
use std::collections::{BTreeMap, VecDeque};

/// Sequentialization latency of the master shell, in port cycles (§5:
/// "2 cycles in the DTL master shell (due to sequentialization)").
pub const SEQ_LATENCY_CYCLES: u64 = 2;

/// Transactions a master port queues before it back-pressures its IP.
const PENDING_CAP: usize = 8;

/// An address range served by one channel of a narrowcast connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddrRange {
    /// First address of the range.
    pub base: u32,
    /// Size in addressable words.
    pub size: u32,
}

impl AddrRange {
    /// Whether `addr` falls inside the range.
    pub fn contains(&self, addr: u32) -> bool {
        addr >= self.base && addr - self.base < self.size
    }
}

/// How a master port's transactions map onto its channels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConnSelect {
    /// Point-to-point: a single channel carries everything.
    Direct,
    /// Narrowcast: the address selects one of the channels; each range maps
    /// to the port channel with the same index. Addresses are rewritten to
    /// be slave-relative ("the address range assigned to a slave is
    /// configurable in the narrowcast module").
    Narrowcast(
        /// One range per channel of the port, in channel order.
        Vec<AddrRange>,
    ),
    /// Multicast: every transaction goes to all channels; responses are
    /// merged.
    Multicast,
}

/// What picks a transaction's targets: a design-time connection type, or
/// the configuration shell's run-time binding table.
#[derive(Debug, Clone)]
enum Selector {
    Conn(ConnSelect),
    Config {
        /// The NI this shell sits in: its registers are accessed in place.
        local_ni: usize,
        /// Target NI → local channel of its configuration connection.
        /// Dynamic state: bound at run time, walked with the stack.
        bound: BTreeMap<usize, usize>,
    },
}

/// Where a transaction goes.
#[derive(Debug, PartialEq, Eq)]
enum Target {
    /// Into the network on these local channels, at this address.
    Remote(Vec<usize>, u32),
    /// Register `reg` of the shell's own NI (Fig. 8's bypass).
    Local(u32),
    /// Nowhere: a narrowcast decode miss, or an NI without a binding.
    Miss,
}

/// A history entry: where the next in-order response comes from.
#[derive(Debug, Clone)]
enum HistEntry {
    /// Merged from the responses on these local channels (at least one).
    Remote(Vec<usize>),
    /// Answered by the shell itself when the transaction was selected.
    Answered(TransactionResponse),
}

/// An in-flight outgoing message: the serialized words and per-target
/// progress.
#[derive(Debug, Clone)]
struct TxMsg {
    words: Vec<u32>,
    targets: Vec<usize>, // local channel indices
    progress: Vec<usize>,
    ready_at: u64,
    flush: bool,
}

/// The master shell stack of one NI port: a master, narrowcast, multicast
/// or configuration port.
#[derive(Debug, Clone)]
pub struct MasterStack {
    channels: Vec<ChannelId>,
    sel: Selector,
    /// Network cycles between selecting a transaction and pushing its
    /// first word.
    seq_latency: u64,
    pending: VecDeque<Transaction>,
    pending_cap: usize,
    tx: Option<TxMsg>,
    asm: Vec<MessageAssembler>,
    history: VecDeque<HistEntry>,
    resp_out: VecDeque<TransactionResponse>,
    /// Transactions rejected at the shell (narrowcast misses, unbound NIs).
    shell_errors: u64,
}

impl MasterStack {
    /// Creates the stack for a port owning `channels` (kernel channel ids in
    /// port order).
    ///
    /// # Panics
    ///
    /// Panics if `channels` is empty, or if a narrowcast map does not have
    /// exactly one range per channel.
    pub fn new(channels: Vec<ChannelId>, sel: ConnSelect, clock_div: u32) -> Self {
        if let ConnSelect::Narrowcast(ranges) = &sel {
            assert_eq!(
                ranges.len(),
                channels.len(),
                "narrowcast needs one address range per channel"
            );
        }
        let latency = SEQ_LATENCY_CYCLES * u64::from(clock_div);
        Self::build(channels, Selector::Conn(sel), latency, PENDING_CAP)
    }

    /// Creates the configuration shell of NI `local_ni` (§4.3), owning
    /// `channels` for its configuration connections to remote CNIPs.
    ///
    /// It adds no sequentialization latency, and its queue never refuses a
    /// transaction: the run-time configurator issues a whole channel's
    /// register writes (up to `5 + PATH_EXT_REGS + slots`) before it ticks
    /// the system.
    ///
    /// # Panics
    ///
    /// Panics if `channels` is empty.
    pub fn config(local_ni: usize, channels: Vec<ChannelId>) -> Self {
        let sel = Selector::Config {
            local_ni,
            bound: BTreeMap::new(),
        };
        Self::build(channels, sel, 0, usize::MAX)
    }

    fn build(
        channels: Vec<ChannelId>,
        sel: Selector,
        seq_latency: u64,
        pending_cap: usize,
    ) -> Self {
        assert!(
            !channels.is_empty(),
            "a master port needs at least one channel"
        );
        let asm = channels
            .iter()
            .map(|_| MessageAssembler::new(MsgKind::Response))
            .collect();
        MasterStack {
            channels,
            sel,
            seq_latency,
            pending: VecDeque::new(),
            pending_cap,
            tx: None,
            asm,
            history: VecDeque::new(),
            resp_out: VecDeque::new(),
            shell_errors: 0,
        }
    }

    /// The kernel channels owned by this stack.
    pub fn channels(&self) -> &[ChannelId] {
        &self.channels
    }

    /// Binds the configuration connection to NI `ni` onto the port's local
    /// channel index `local` (the channel must have been configured as the
    /// request channel toward that NI's CNIP).
    ///
    /// # Panics
    ///
    /// Panics if `local` is out of range or this is not a configuration
    /// shell.
    pub fn bind(&mut self, ni: usize, local: usize) {
        assert!(local < self.channels.len(), "channel index out of range");
        let Selector::Config { bound, .. } = &mut self.sel else {
            panic!("only the configuration shell binds NIs");
        };
        bound.insert(ni, local);
    }

    /// Whether a transaction can be submitted right now.
    pub fn can_submit(&self) -> bool {
        self.pending.len() < self.pending_cap
    }

    /// Submits a transaction (the `connid`-selecting write of the IP).
    ///
    /// # Panics
    ///
    /// Panics if [`MasterStack::can_submit`] is false.
    pub fn submit(&mut self, t: Transaction) {
        assert!(self.can_submit(), "master port back-pressured");
        self.pending.push_back(t);
    }

    /// Takes the next in-order transaction response, if available.
    pub fn take_response(&mut self) -> Option<TransactionResponse> {
        self.resp_out.pop_front()
    }

    /// Whether [`MasterStack::take_response`] would return a response.
    pub fn has_response(&self) -> bool {
        !self.resp_out.is_empty()
    }

    /// Outstanding transactions (submitted, response not yet delivered).
    pub fn outstanding(&self) -> usize {
        self.pending.len() + self.history.len() + usize::from(self.tx.is_some())
    }

    /// Transactions rejected by the shell itself (address decode misses).
    pub fn shell_errors(&self) -> u64 {
        self.shell_errors
    }

    /// Whether a tick of this shell (against a quiescent kernel) can change
    /// nothing: no transaction pending or in serialization, no response
    /// waiting for the IP, and the next response owed — if any — still
    /// being awaited from the network (its assemblers not all ready). An
    /// awaiting shell is idle: only a response word reaching the kernel,
    /// which wakes the NI, can move it on.
    pub fn is_idle(&self) -> bool {
        self.pending.is_empty()
            && self.tx.is_none()
            && self.resp_out.is_empty()
            && !self.front_deliverable()
    }

    /// Whether the oldest response owed can be delivered: answered in
    /// place, or assembled on every channel it is merged from.
    fn front_deliverable(&self) -> bool {
        match self.history.front() {
            None => false,
            Some(HistEntry::Answered(_)) => true,
            Some(HistEntry::Remote(locals)) => locals.iter().all(|&l| self.asm[l].ready() > 0),
        }
    }

    /// Walks the stack's complete dynamic state through a state visitor
    /// (see [`noc_sim::persist`]): a configuration shell's bindings (in
    /// NI order), queued transactions, the in-flight serialized message
    /// with its per-target progress, every response assembler, the
    /// history, delivered-response queue and error count. A history entry
    /// is its target list; an empty list marks an entry answered in place,
    /// whose response follows. Channel indices are bounds-checked. The
    /// connection type, `seq_latency` and `pending_cap` are structural.
    pub fn walk<V: noc_sim::StateVisit + ?Sized>(&mut self, p: &mut V) {
        use noc_sim::persist::{
            persist_bool, persist_deque, persist_index, persist_int, persist_int_list, persist_list,
        };
        let n = self.channels.len();
        if let Selector::Config { bound, .. } = &mut self.sel {
            let mut pairs: Vec<(usize, usize)> = std::mem::take(bound).into_iter().collect();
            persist_list(&mut pairs, p, |(ni, local), p| {
                persist_int(ni, p);
                persist_index(local, n, p);
            });
            *bound = pairs.into_iter().collect();
        }
        let blank = Transaction::persist_default();
        persist_deque(&mut self.pending, blank, p, |t, p| t.walk(p));
        let mut have_tx = self.tx.is_some();
        persist_bool(&mut have_tx, p);
        if have_tx != self.tx.is_some() {
            self.tx = have_tx.then(|| TxMsg {
                words: Vec::new(),
                targets: Vec::new(),
                progress: Vec::new(),
                ready_at: 0,
                flush: false,
            });
        }
        if let Some(tx) = &mut self.tx {
            persist_int_list(&mut tx.words, p);
            persist_targets(&mut tx.targets, n, p);
            persist_int_list(&mut tx.progress, p);
            if tx.progress.len() != tx.targets.len() {
                p.fail("snapshot message progress does not match its targets");
            }
            p.stamp(&mut tx.ready_at);
            persist_bool(&mut tx.flush, p);
        }
        for a in &mut self.asm {
            a.walk(p);
        }
        let blank = HistEntry::Remote(Vec::new());
        persist_deque(&mut self.history, blank, p, |h, p| {
            let (mut locals, mut r) = match std::mem::replace(h, HistEntry::Remote(Vec::new())) {
                HistEntry::Remote(l) => (l, TransactionResponse::ack(0)),
                HistEntry::Answered(r) => (Vec::new(), r),
            };
            persist_targets(&mut locals, n, p);
            *h = if locals.is_empty() {
                r.walk(p);
                HistEntry::Answered(r)
            } else {
                HistEntry::Remote(locals)
            };
        });
        let blank = TransactionResponse::ack(0);
        persist_deque(&mut self.resp_out, blank, p, |r, p| r.walk(p));
        p.counter(&mut self.shell_errors);
    }

    /// Selects the target of a transaction.
    fn select(&self, t: &Transaction) -> Target {
        match &self.sel {
            Selector::Conn(ConnSelect::Direct) => Target::Remote(vec![0], t.addr),
            Selector::Conn(ConnSelect::Narrowcast(ranges)) => {
                match ranges.iter().position(|r| r.contains(t.addr)) {
                    Some(i) => Target::Remote(vec![i], t.addr - ranges[i].base),
                    None => Target::Miss,
                }
            }
            Selector::Conn(ConnSelect::Multicast) => {
                Target::Remote((0..self.channels.len()).collect(), t.addr)
            }
            Selector::Config { local_ni, bound } => {
                let (ni, reg) = split_addr(t.addr);
                if ni == *local_ni {
                    Target::Local(reg)
                } else {
                    bound
                        .get(&ni)
                        .map_or(Target::Miss, |&l| Target::Remote(vec![l], reg))
                }
            }
        }
    }

    /// Advances the shell by one port cycle (`now` is in network cycles).
    pub fn tick(&mut self, kernel: &mut NiKernel, now: u64) {
        self.serialize_next(kernel, now);
        self.push_words(kernel, now);
        self.pull_responses(kernel, now);
        self.deliver_in_order();
    }

    fn serialize_next(&mut self, kernel: &mut NiKernel, now: u64) {
        if self.tx.is_some() {
            return;
        }
        let Some(mut t) = self.pending.pop_front() else {
            return;
        };
        let (targets, addr) = match self.select(&t) {
            Target::Remote(targets, addr) => (targets, addr),
            Target::Local(reg) => {
                // The shell accesses its own NI's register file directly;
                // nothing enters the network.
                let (resp, _) = kernel.reg_transaction(&Transaction { addr: reg, ..t });
                self.history.extend(resp.map(HistEntry::Answered));
                return;
            }
            Target::Miss => {
                self.shell_errors = self.shell_errors.wrapping_add(1);
                if t.cmd.has_response() {
                    let r = TransactionResponse::error(t.trans_id, RespStatus::DecodeError);
                    self.history.push_back(HistEntry::Answered(r));
                }
                return;
            }
        };
        t.addr = addr;
        let words = encode_request(&t);
        if t.cmd.has_response() {
            self.history.push_back(HistEntry::Remote(targets.clone()));
        }
        let n = targets.len();
        self.tx = Some(TxMsg {
            words,
            targets,
            progress: vec![0; n],
            ready_at: now + self.seq_latency,
            flush: t.flush,
        });
    }

    fn push_words(&mut self, kernel: &mut NiKernel, now: u64) {
        let Some(tx) = &mut self.tx else { return };
        if now < tx.ready_at {
            return;
        }
        let mut done = true;
        for (k, &local) in tx.targets.iter().enumerate() {
            let ch = self.channels[local];
            // One word per port cycle per channel (the port is 32 bits wide).
            if tx.progress[k] < tx.words.len() {
                if kernel.src_space(ch) > 0 {
                    kernel
                        .push_src(ch, tx.words[tx.progress[k]], now)
                        .expect("space checked");
                    tx.progress[k] += 1;
                }
                if tx.progress[k] < tx.words.len() {
                    done = false;
                } else if tx.flush {
                    kernel.flush(ch);
                }
            }
        }
        if done {
            self.tx = None;
        }
    }

    fn pull_responses(&mut self, kernel: &mut NiKernel, now: u64) {
        for (local, &ch) in self.channels.iter().enumerate() {
            // One word per port cycle per channel.
            if let Some(w) = kernel.pop_dst(ch, now) {
                self.asm[local].push_word(w);
            }
        }
    }

    fn deliver_in_order(&mut self) {
        while self.front_deliverable() {
            let r = match self.history.pop_front().expect("front checked") {
                HistEntry::Answered(r) => r,
                HistEntry::Remote(locals) => locals
                    .into_iter()
                    .map(|l| self.asm[l].next_response().expect("readiness checked"))
                    .reduce(|mut m, r| {
                        // Multicast merge: any failure wins; data from the
                        // first responding slave is kept.
                        m.status = m.status.merge(r.status);
                        m
                    })
                    .expect("a remote entry has a target"),
            };
            self.resp_out.push_back(r);
        }
    }
}

/// Visits a target list: strictly ascending local channel indices below
/// `n` (what every selector produces), so a restored list can neither
/// index past the port nor name one channel twice.
fn persist_targets<V: noc_sim::StateVisit + ?Sized>(v: &mut Vec<usize>, n: usize, p: &mut V) {
    use noc_sim::persist::{persist_index, persist_list};
    persist_list(v, p, |l, p| persist_index(l, n, p));
    if !v.is_sorted_by(|a, b| a < b) {
        p.fail("snapshot target list is not strictly ascending");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::NiKernelSpec;

    #[test]
    fn addr_range_contains() {
        let r = AddrRange {
            base: 0x100,
            size: 0x10,
        };
        assert!(r.contains(0x100));
        assert!(r.contains(0x10F));
        assert!(!r.contains(0x110));
        assert!(!r.contains(0xFF));
    }

    #[test]
    fn direct_select_keeps_address() {
        let s = MasterStack::new(vec![3], ConnSelect::Direct, 1);
        let t = Transaction::read(0xABC, 1, 0);
        assert_eq!(s.select(&t), Target::Remote(vec![0], 0xABC));
    }

    #[test]
    fn narrowcast_select_rewrites_address() {
        let s = MasterStack::new(
            vec![3, 4],
            ConnSelect::Narrowcast(vec![
                AddrRange {
                    base: 0x0,
                    size: 0x100,
                },
                AddrRange {
                    base: 0x100,
                    size: 0x100,
                },
            ]),
            1,
        );
        assert_eq!(
            s.select(&Transaction::read(0x40, 1, 0)),
            Target::Remote(vec![0], 0x40)
        );
        assert_eq!(
            s.select(&Transaction::read(0x140, 1, 0)),
            Target::Remote(vec![1], 0x40)
        );
        assert_eq!(s.select(&Transaction::read(0x240, 1, 0)), Target::Miss);
    }

    #[test]
    fn multicast_selects_all() {
        let s = MasterStack::new(vec![1, 2, 5], ConnSelect::Multicast, 1);
        let t = Transaction::write(0x8, vec![1], 0);
        assert_eq!(s.select(&t), Target::Remote(vec![0, 1, 2], 0x8));
    }

    #[test]
    fn decode_miss_yields_local_error_response() {
        let mut kernel = NiKernel::new(NiKernelSpec::reference(0));
        let mut s = MasterStack::new(
            vec![0],
            ConnSelect::Narrowcast(vec![AddrRange { base: 0, size: 4 }]),
            1,
        );
        s.submit(Transaction::read(0x1000, 1, 7));
        s.tick(&mut kernel, 0);
        assert_eq!(s.shell_errors(), 1);
        let r = s.take_response().unwrap();
        assert_eq!(r.trans_id, 7);
        assert_eq!(r.status, RespStatus::DecodeError);
    }

    #[test]
    fn a_shell_awaiting_its_response_is_idle_until_the_response_assembles() {
        use crate::message::encode_response;
        let mut kernel = NiKernel::new(NiKernelSpec::reference(0));
        let mut s = MasterStack::new(vec![1], ConnSelect::Direct, 1);
        s.submit(Transaction::read(0x40, 1, 7));
        assert!(!s.is_idle(), "pending");
        for now in 0..4 {
            s.tick(&mut kernel, now);
        }
        assert!(s.is_idle() && !s.history.is_empty(), "sent, awaiting");
        for w in encode_response(&TransactionResponse::with_data(7, vec![5])) {
            s.asm[0].push_word(w);
        }
        assert!(!s.is_idle(), "assembled: the next tick delivers it");
        s.tick(&mut kernel, 4);
        assert!(!s.is_idle(), "delivered, not yet taken");
        assert_eq!(s.take_response().map(|r| r.trans_id), Some(7));
        assert!(s.is_idle() && s.history.is_empty(), "nothing owed");
    }

    #[test]
    fn backpressure_limits_pending() {
        let mut s = MasterStack::new(vec![0], ConnSelect::Direct, 1);
        let mut n = 0;
        while s.can_submit() {
            s.submit(Transaction::write(0, vec![], 0));
            n += 1;
        }
        assert_eq!(n, 8);
    }

    #[test]
    #[should_panic(expected = "one address range per channel")]
    fn narrowcast_range_count_must_match() {
        let _ = MasterStack::new(
            vec![0, 1],
            ConnSelect::Narrowcast(vec![AddrRange { base: 0, size: 1 }]),
            1,
        );
    }
}

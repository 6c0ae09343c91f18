//! The master shell (Fig. 5) with its connection shells: narrowcast
//! (Fig. 3) and multicast.
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
//! the responses (all slaves execute each transaction, §2).

use crate::kernel::{ChannelId, NiKernel};
use crate::message::{MessageAssembler, MsgKind, Ordering, RequestMsg};
use crate::transaction::{RespStatus, Transaction, TransactionResponse};
use std::collections::VecDeque;

/// Sequentialization latency of the master shell, in port cycles (§5:
/// "2 cycles in the DTL master shell (due to sequentialization)").
pub const SEQ_LATENCY_CYCLES: u64 = 2;

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

/// A history entry: which channel(s) the next in-order response comes from.
#[derive(Debug, Clone)]
struct HistEntry {
    /// Local channel indices (within the port) expected to respond.
    locals: Vec<usize>,
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

/// The master shell stack of one NI port.
#[derive(Debug, Clone)]
pub struct MasterStack {
    channels: Vec<ChannelId>,
    sel: ConnSelect,
    ordering: Ordering,
    clock_div: u32,
    pending: VecDeque<Transaction>,
    pending_cap: usize,
    tx: Option<TxMsg>,
    asm: Vec<MessageAssembler>,
    history: VecDeque<HistEntry>,
    resp_out: VecDeque<TransactionResponse>,
    seq_ctr: u32,
    /// Transactions rejected at the shell (e.g. narrowcast address misses).
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
    pub fn new(
        channels: Vec<ChannelId>,
        sel: ConnSelect,
        ordering: Ordering,
        clock_div: u32,
    ) -> Self {
        assert!(
            !channels.is_empty(),
            "a master port needs at least one channel"
        );
        if let ConnSelect::Narrowcast(ranges) = &sel {
            assert_eq!(
                ranges.len(),
                channels.len(),
                "narrowcast needs one address range per channel"
            );
        }
        let asm = channels
            .iter()
            .map(|_| MessageAssembler::new(MsgKind::Response, ordering))
            .collect();
        MasterStack {
            channels,
            sel,
            ordering,
            clock_div,
            pending: VecDeque::new(),
            pending_cap: 8,
            tx: None,
            asm,
            history: VecDeque::new(),
            resp_out: VecDeque::new(),
            seq_ctr: 0,
            shell_errors: 0,
        }
    }

    /// The kernel channels owned by this stack.
    pub fn channels(&self) -> &[ChannelId] {
        &self.channels
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
    /// owed or waiting for the IP.
    pub fn is_idle(&self) -> bool {
        self.pending.is_empty()
            && self.tx.is_none()
            && self.history.is_empty()
            && self.resp_out.is_empty()
    }

    /// Walks the stack's complete dynamic state through a state visitor
    /// (see [`noc_sim::persist`]): queued transactions, the
    /// in-flight serialized message with its per-target progress, every
    /// response assembler, the connection history, delivered-response
    /// queue, sequence counter and error count. `channels`/`sel`/
    /// `ordering`/`clock_div`/`pending_cap` are structural.
    pub fn walk(&mut self, p: &mut dyn noc_sim::StateVisit) {
        use noc_sim::persist::{persist_bool, persist_deque, persist_int, persist_int_list};
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
            persist_int_list(&mut tx.targets, p);
            persist_int_list(&mut tx.progress, p);
            p.stamp(&mut tx.ready_at);
            persist_bool(&mut tx.flush, p);
        }
        for a in &mut self.asm {
            a.walk(p);
        }
        let blank = HistEntry { locals: Vec::new() };
        persist_deque(&mut self.history, blank, p, |h, p| {
            persist_int_list(&mut h.locals, p)
        });
        let blank = TransactionResponse::ack(0);
        persist_deque(&mut self.resp_out, blank, p, |r, p| r.walk(p));
        persist_int(&mut self.seq_ctr, p);
        p.counter(&mut self.shell_errors);
    }

    /// Selects target channels for a transaction; returns `None` on a
    /// narrowcast decode miss.
    fn select(&self, t: &Transaction) -> Option<(Vec<usize>, u32)> {
        match &self.sel {
            ConnSelect::Direct => Some((vec![0], t.addr)),
            ConnSelect::Narrowcast(ranges) => {
                let (i, r) = ranges
                    .iter()
                    .enumerate()
                    .find(|(_, r)| r.contains(t.addr))?;
                Some((vec![i], t.addr - r.base))
            }
            ConnSelect::Multicast => Some(((0..self.channels.len()).collect(), t.addr)),
        }
    }

    /// Advances the shell by one port cycle (`now` is in network cycles).
    pub fn tick(&mut self, kernel: &mut NiKernel, now: u64) {
        self.serialize_next(now);
        self.push_words(kernel, now);
        self.pull_responses(kernel, now);
        self.deliver_in_order();
    }

    fn serialize_next(&mut self, now: u64) {
        if self.tx.is_some() {
            return;
        }
        let Some(t) = self.pending.pop_front() else {
            return;
        };
        let Some((targets, addr)) = self.select(&t) else {
            // Narrowcast decode miss: the shell answers with an error
            // response itself (nothing enters the network).
            self.shell_errors += 1;
            if t.cmd.has_response() {
                self.resp_out.push_back(TransactionResponse::error(
                    t.trans_id,
                    RespStatus::DecodeError,
                ));
            }
            return;
        };
        let mut msg_t = t.clone();
        msg_t.addr = addr;
        let seq = match self.ordering {
            Ordering::InOrder => None,
            Ordering::Sequenced => {
                self.seq_ctr = self.seq_ctr.wrapping_add(1);
                Some(self.seq_ctr)
            }
        };
        let words = RequestMsg::from_transaction(&msg_t, seq).encode();
        if t.cmd.has_response() {
            self.history.push_back(HistEntry {
                locals: targets.clone(),
            });
        }
        let n = targets.len();
        self.tx = Some(TxMsg {
            words,
            targets,
            progress: vec![0; n],
            ready_at: now + SEQ_LATENCY_CYCLES * u64::from(self.clock_div),
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
        while let Some(front) = self.history.front() {
            let all_ready = front.locals.iter().all(|&l| self.asm[l].ready() > 0);
            if !all_ready {
                break;
            }
            let locals = self.history.pop_front().expect("front checked").locals;
            let mut merged: Option<TransactionResponse> = None;
            for l in locals {
                let r = self.asm[l]
                    .next_response()
                    .expect("readiness checked")
                    .into_response();
                merged = Some(match merged {
                    None => r,
                    Some(mut m) => {
                        // Multicast merge: any failure wins; data from the
                        // first responding slave is kept.
                        m.status = m.status.merge(r.status);
                        m
                    }
                });
            }
            self.resp_out.push_back(merged.expect("at least one local"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let s = MasterStack::new(vec![3], ConnSelect::Direct, Ordering::InOrder, 1);
        let t = Transaction::read(0xABC, 1, 0);
        assert_eq!(s.select(&t), Some((vec![0], 0xABC)));
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
            Ordering::InOrder,
            1,
        );
        assert_eq!(
            s.select(&Transaction::read(0x40, 1, 0)),
            Some((vec![0], 0x40))
        );
        assert_eq!(
            s.select(&Transaction::read(0x140, 1, 0)),
            Some((vec![1], 0x40))
        );
        assert_eq!(s.select(&Transaction::read(0x240, 1, 0)), None);
    }

    #[test]
    fn multicast_selects_all() {
        let s = MasterStack::new(vec![1, 2, 5], ConnSelect::Multicast, Ordering::InOrder, 1);
        let t = Transaction::write(0x8, vec![1], 0);
        assert_eq!(s.select(&t), Some((vec![0, 1, 2], 0x8)));
    }

    #[test]
    fn decode_miss_yields_local_error_response() {
        let mut s = MasterStack::new(
            vec![0],
            ConnSelect::Narrowcast(vec![AddrRange { base: 0, size: 4 }]),
            Ordering::InOrder,
            1,
        );
        s.submit(Transaction::read(0x1000, 1, 7));
        s.serialize_next(0);
        assert_eq!(s.shell_errors(), 1);
        let r = s.take_response().unwrap();
        assert_eq!(r.trans_id, 7);
        assert_eq!(r.status, RespStatus::DecodeError);
    }

    #[test]
    fn backpressure_limits_pending() {
        let mut s = MasterStack::new(vec![0], ConnSelect::Direct, Ordering::InOrder, 1);
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
            Ordering::InOrder,
            1,
        );
    }
}

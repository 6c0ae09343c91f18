//! The configuration shell (Fig. 8): lets a configuration master program
//! the whole NoC **through the NoC itself**.
//!
//! §4.3: *"At the configuration module Cfg's NI, we introduce a
//! configuration shell, which, based on the address configures the local NI
//! (NI1), or sends configuration messages via the NoC to other NIs. The
//! configuration shell optimizes away the need for an extra data port at
//! NI1 to be connected to NI1's CNIP."*
//!
//! A global configuration address is `(ni_id << 16) | register`, see
//! [`global_addr`]. Operations targeting the local NI are applied directly
//! to the kernel's register file; remote operations are serialized into
//! request messages on the configuration connection previously bound to the
//! target NI (see [`ConfigStack::bind`]).

use crate::kernel::{ChannelId, NiKernel};
use crate::message::{MessageAssembler, MsgKind, Ordering, RequestMsg};
use crate::transaction::{Cmd, RespStatus, Transaction, TransactionResponse};
use std::collections::{HashMap, VecDeque};

/// Builds the global configuration address of `reg` in NI `ni`.
pub fn global_addr(ni: usize, reg: u32) -> u32 {
    ((ni as u32) << 16) | (reg & 0xFFFF)
}

/// Splits a global configuration address into `(ni, register)`.
pub fn split_addr(addr: u32) -> (usize, u32) {
    ((addr >> 16) as usize, addr & 0xFFFF)
}

#[derive(Debug, Clone)]
enum HistEntry {
    /// A locally executed operation whose response is already known.
    Local(TransactionResponse),
    /// A remote operation whose response arrives on this local channel
    /// index.
    Remote(usize),
}

#[derive(Debug, Clone)]
struct TxMsg {
    words: Vec<u32>,
    local: usize,
    progress: usize,
}

/// The configuration shell stack of one NI port.
#[derive(Debug, Clone)]
pub struct ConfigStack {
    local_ni: usize,
    channels: Vec<ChannelId>,
    route: HashMap<usize, usize>, // target NI → local channel index
    pending: VecDeque<Transaction>,
    tx: Option<TxMsg>,
    asm: Vec<MessageAssembler>,
    history: VecDeque<HistEntry>,
    resp_out: VecDeque<TransactionResponse>,
    ops: u64,
}

impl ConfigStack {
    /// Creates the stack for the configuration port of NI `local_ni`,
    /// owning `channels` for outgoing configuration connections.
    ///
    /// # Panics
    ///
    /// Panics if `channels` is empty.
    pub fn new(local_ni: usize, channels: Vec<ChannelId>) -> Self {
        assert!(
            !channels.is_empty(),
            "a config port needs at least one channel"
        );
        let asm = channels
            .iter()
            .map(|_| MessageAssembler::new(MsgKind::Response, Ordering::InOrder))
            .collect();
        ConfigStack {
            local_ni,
            channels,
            route: HashMap::new(),
            pending: VecDeque::new(),
            tx: None,
            asm,
            history: VecDeque::new(),
            resp_out: VecDeque::new(),
            ops: 0,
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
    /// Panics if `local` is out of range.
    pub fn bind(&mut self, ni: usize, local: usize) {
        assert!(local < self.channels.len(), "channel index out of range");
        self.route.insert(ni, local);
    }

    /// Removes the binding to NI `ni`.
    pub fn unbind(&mut self, ni: usize) {
        self.route.remove(&ni);
    }

    /// The local channel bound toward NI `ni`, if any.
    pub fn binding(&self, ni: usize) -> Option<usize> {
        self.route.get(&ni).copied()
    }

    /// Submits a configuration transaction (global address space).
    pub fn submit(&mut self, t: Transaction) {
        self.pending.push_back(t);
    }

    /// Whether more transactions can be queued (bounded like a real port).
    pub fn can_submit(&self) -> bool {
        self.pending.len() < 32
    }

    /// Takes the next in-order response.
    pub fn take_response(&mut self) -> Option<TransactionResponse> {
        self.resp_out.pop_front()
    }

    /// Whether [`ConfigStack::take_response`] would return a response.
    pub fn has_response(&self) -> bool {
        !self.resp_out.is_empty()
    }

    /// Operations processed so far.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Whether a tick of this shell (against a quiescent kernel) can change
    /// nothing: no operation pending, serializing or awaiting its response.
    pub fn is_idle(&self) -> bool {
        self.pending.is_empty()
            && self.tx.is_none()
            && self.history.is_empty()
            && self.resp_out.is_empty()
    }

    /// Walks the stack's complete dynamic state through a state visitor
    /// (see [`noc_sim::persist`]): the run-time route bindings
    /// (target NI → local channel, in sorted order for a deterministic
    /// stream), queued operations, the in-flight serialized message, the
    /// response assemblers, the local/remote history, delivered
    /// responses and the operation counter. Bindings are dynamic state —
    /// `bind` is issued at run time, so a restored shell must carry them.
    pub fn walk(&mut self, p: &mut dyn noc_sim::StateVisit) {
        use noc_sim::persist::{
            persist_bool, persist_deque, persist_int, persist_int_list, persist_list,
        };
        let mut routes: Vec<(usize, usize)> = self.route.drain().collect();
        routes.sort_unstable();
        persist_list(&mut routes, p, |(ni, local), p| {
            persist_int(ni, p);
            persist_int(local, p);
        });
        self.route = routes.into_iter().collect();
        let blank = Transaction::persist_default();
        persist_deque(&mut self.pending, blank, p, |t, p| t.walk(p));
        let mut have_tx = self.tx.is_some();
        persist_bool(&mut have_tx, p);
        if have_tx != self.tx.is_some() {
            self.tx = have_tx.then(|| TxMsg {
                words: Vec::new(),
                local: 0,
                progress: 0,
            });
        }
        if let Some(tx) = &mut self.tx {
            persist_int_list(&mut tx.words, p);
            persist_int(&mut tx.local, p);
            persist_int(&mut tx.progress, p);
        }
        for a in &mut self.asm {
            a.walk(p);
        }
        let blank = HistEntry::Local(TransactionResponse::ack(0));
        persist_deque(&mut self.history, blank, p, |h, p| {
            let mut tag = match h {
                HistEntry::Local(_) => 0u64,
                HistEntry::Remote(_) => 1,
            };
            p.item(&mut tag);
            match tag {
                0 => {
                    let mut r = match h {
                        HistEntry::Local(r) => r.clone(),
                        HistEntry::Remote(_) => TransactionResponse::ack(0),
                    };
                    r.walk(p);
                    *h = HistEntry::Local(r);
                }
                1 => {
                    let mut local = match h {
                        HistEntry::Remote(l) => *l,
                        HistEntry::Local(_) => 0,
                    };
                    persist_int(&mut local, p);
                    *h = HistEntry::Remote(local);
                }
                _ => p.fail("snapshot item is not a config history tag"),
            }
        });
        let blank = TransactionResponse::ack(0);
        persist_deque(&mut self.resp_out, blank, p, |r, p| r.walk(p));
        p.counter(&mut self.ops);
    }

    /// Advances the shell by one port cycle.
    pub fn tick(&mut self, kernel: &mut NiKernel, now: u64) {
        self.dispatch(kernel);
        self.push_words(kernel, now);
        self.pull_responses(kernel, now);
        self.deliver_in_order();
    }

    fn dispatch(&mut self, kernel: &mut NiKernel) {
        if self.tx.is_some() {
            return;
        }
        let Some(t) = self.pending.pop_front() else {
            return;
        };
        let (ni, reg) = split_addr(t.addr);
        self.ops += 1;
        if ni == self.local_ni {
            // Local NI: the shell accesses the register file directly, no
            // network traffic (Fig. 8's Config Shell bypass).
            let resp = Self::execute_local(kernel, &t, reg);
            if let Some(resp) = resp {
                self.history.push_back(HistEntry::Local(resp));
            }
            return;
        }
        let Some(&local) = self.route.get(&ni) else {
            // No configuration connection toward that NI.
            if t.cmd.has_response() {
                self.history
                    .push_back(HistEntry::Local(TransactionResponse::error(
                        t.trans_id,
                        RespStatus::DecodeError,
                    )));
            }
            return;
        };
        let mut msg_t = t.clone();
        msg_t.addr = reg;
        let words = RequestMsg::from_transaction(&msg_t, None).encode();
        if t.cmd.has_response() {
            self.history.push_back(HistEntry::Remote(local));
        }
        self.tx = Some(TxMsg {
            words,
            local,
            progress: 0,
        });
    }

    fn execute_local(
        kernel: &mut NiKernel,
        t: &Transaction,
        reg: u32,
    ) -> Option<TransactionResponse> {
        let mut status = RespStatus::Ok;
        let mut data = Vec::new();
        match t.cmd {
            Cmd::Write | Cmd::AckedWrite => {
                for (i, &w) in t.data.iter().enumerate() {
                    if kernel.reg_write(reg + i as u32, w).is_err() {
                        status = RespStatus::DecodeError;
                    }
                }
            }
            Cmd::Read | Cmd::ReadLinked => {
                for i in 0..u32::from(t.read_len) {
                    match kernel.reg_read(reg + i) {
                        Ok(v) => data.push(v),
                        Err(_) => {
                            status = RespStatus::DecodeError;
                            data.push(0);
                        }
                    }
                }
            }
            Cmd::WriteConditional => status = RespStatus::Unsupported,
        }
        t.cmd.has_response().then_some(TransactionResponse {
            trans_id: t.trans_id,
            status,
            data,
        })
    }

    fn push_words(&mut self, kernel: &mut NiKernel, now: u64) {
        let Some(tx) = &mut self.tx else { return };
        let ch = self.channels[tx.local];
        if tx.progress < tx.words.len() && kernel.src_space(ch) > 0 {
            kernel
                .push_src(ch, tx.words[tx.progress], now)
                .expect("space checked");
            tx.progress += 1;
        }
        if tx.progress == tx.words.len() {
            self.tx = None;
        }
    }

    fn pull_responses(&mut self, kernel: &mut NiKernel, now: u64) {
        for (local, &ch) in self.channels.iter().enumerate() {
            if let Some(w) = kernel.pop_dst(ch, now) {
                self.asm[local].push_word(w);
            }
        }
    }

    fn deliver_in_order(&mut self) {
        while let Some(front) = self.history.front() {
            match front {
                HistEntry::Local(_) => {
                    let Some(HistEntry::Local(r)) = self.history.pop_front() else {
                        unreachable!()
                    };
                    self.resp_out.push_back(r);
                }
                HistEntry::Remote(local) => {
                    if self.asm[*local].ready() == 0 {
                        break;
                    }
                    let local = *local;
                    self.history.pop_front();
                    let r = self.asm[local]
                        .next_response()
                        .expect("readiness checked")
                        .into_response();
                    self.resp_out.push_back(r);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{chan_reg_addr, ChanReg, NiKernel, NiKernelSpec};

    #[test]
    fn global_addr_roundtrip() {
        let a = global_addr(3, 0x123);
        assert_eq!(split_addr(a), (3, 0x123));
        assert_eq!(global_addr(0, 0xFFFF) & 0xFFFF, 0xFFFF);
    }

    #[test]
    fn local_write_applies_directly() {
        let mut kernel = NiKernel::new(NiKernelSpec::reference(0));
        let mut cfg = ConfigStack::new(0, vec![1]);
        let reg = chan_reg_addr(2, ChanReg::Space);
        cfg.submit(Transaction::acked_write(global_addr(0, reg), vec![9], 5));
        cfg.tick(&mut kernel, 0);
        assert_eq!(kernel.reg_read(reg).unwrap(), 9);
        let r = cfg.take_response().unwrap();
        assert_eq!(r.trans_id, 5);
        assert_eq!(r.status, RespStatus::Ok);
    }

    #[test]
    fn local_read_returns_data() {
        let mut kernel = NiKernel::new(NiKernelSpec::reference(7));
        let mut cfg = ConfigStack::new(7, vec![1]);
        cfg.submit(Transaction::read(global_addr(7, 0), 1, 1));
        cfg.tick(&mut kernel, 0);
        let r = cfg.take_response().unwrap();
        assert_eq!(r.data, vec![7], "NI_ID register");
    }

    #[test]
    fn unbound_remote_target_errors() {
        let mut kernel = NiKernel::new(NiKernelSpec::reference(0));
        let mut cfg = ConfigStack::new(0, vec![1]);
        cfg.submit(Transaction::acked_write(global_addr(5, 0x100), vec![1], 2));
        cfg.tick(&mut kernel, 0);
        let r = cfg.take_response().unwrap();
        assert_eq!(r.status, RespStatus::DecodeError);
    }

    #[test]
    fn remote_write_serializes_into_channel() {
        let mut kernel = NiKernel::new(NiKernelSpec::reference(0));
        let mut cfg = ConfigStack::new(0, vec![1]);
        cfg.bind(5, 0);
        assert_eq!(cfg.binding(5), Some(0));
        cfg.submit(Transaction::write(global_addr(5, 0x100), vec![3], 0));
        for now in 0..8 {
            cfg.tick(&mut kernel, now);
        }
        // Words landed in channel 1's source queue: header + addr + data.
        assert_eq!(kernel.channel(1).src_level(), 3);
    }

    #[test]
    fn local_responses_keep_global_order() {
        let mut kernel = NiKernel::new(NiKernelSpec::reference(0));
        let mut cfg = ConfigStack::new(0, vec![1]);
        cfg.submit(Transaction::read(global_addr(0, 0), 1, 1));
        cfg.submit(Transaction::read(global_addr(0, 1), 1, 2));
        for now in 0..4 {
            cfg.tick(&mut kernel, now);
        }
        assert_eq!(cfg.take_response().unwrap().trans_id, 1);
        assert_eq!(cfg.take_response().unwrap().trans_id, 2);
        assert_eq!(cfg.ops(), 2);
    }

    #[test]
    fn unbind_removes_route() {
        let mut cfg = ConfigStack::new(0, vec![1, 2]);
        cfg.bind(3, 1);
        cfg.unbind(3);
        assert_eq!(cfg.binding(3), None);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bind_out_of_range_panics() {
        let mut cfg = ConfigStack::new(0, vec![1]);
        cfg.bind(2, 5);
    }
}

//! The slave shell (Fig. 6) and the multi-connection shell (Fig. 4).
//!
//! The slave shell desequentializes request messages into transactions for
//! the slave IP and sequentializes its responses. When a connectionless
//! slave (e.g. plain DTL) sits behind a port with multiple connections, the
//! multi-connection shell arbitrates which connection's request is consumed
//! next — "based e.g., on their filling" — and keeps a connection-id
//! history so responses are routed back to the right channel in order.

use crate::kernel::{ChannelId, NiKernel};
use crate::message::{MessageAssembler, MsgKind, Ordering, ResponseMsg};
use crate::transaction::{Transaction, TransactionResponse};
use std::collections::VecDeque;

/// Desequentialization latency of the slave shell, in port cycles
/// (symmetric to the master shell's 2-cycle sequentialization).
pub const DESEQ_LATENCY_CYCLES: u64 = 2;

#[derive(Debug, Clone)]
struct TxResp {
    words: Vec<u32>,
    local: usize,
    progress: usize,
    ready_at: u64,
}

/// The slave shell stack of one NI port.
#[derive(Debug, Clone)]
pub struct SlaveStack {
    channels: Vec<ChannelId>,
    ordering: Ordering,
    clock_div: u32,
    asm: Vec<MessageAssembler>,
    /// Connections whose responses are still owed, in consumption order.
    history: VecDeque<usize>,
    req_out: VecDeque<Transaction>,
    resp_pending: VecDeque<TransactionResponse>,
    tx: Option<TxResp>,
    /// Round-robin tiebreak pointer for the multi-connection scheduler.
    rr: usize,
    seq_ctr: u32,
}

impl SlaveStack {
    /// Creates the stack for a port owning `channels`. With more than one
    /// channel the multi-connection shell behaviour is active.
    ///
    /// # Panics
    ///
    /// Panics if `channels` is empty.
    pub fn new(channels: Vec<ChannelId>, ordering: Ordering, clock_div: u32) -> Self {
        assert!(
            !channels.is_empty(),
            "a slave port needs at least one channel"
        );
        let asm = channels
            .iter()
            .map(|_| MessageAssembler::new(MsgKind::Request, ordering))
            .collect();
        SlaveStack {
            channels,
            ordering,
            clock_div,
            asm,
            history: VecDeque::new(),
            req_out: VecDeque::new(),
            resp_pending: VecDeque::new(),
            tx: None,
            rr: 0,
            seq_ctr: 0,
        }
    }

    /// The kernel channels owned by this stack.
    pub fn channels(&self) -> &[ChannelId] {
        &self.channels
    }

    /// Takes the next scheduled request for the slave IP.
    pub fn take_request(&mut self) -> Option<Transaction> {
        self.req_out.pop_front()
    }

    /// Supplies the response to the **oldest outstanding** request that
    /// expects one (slaves execute and respond in consumption order).
    pub fn respond(&mut self, resp: TransactionResponse) {
        self.resp_pending.push_back(resp);
    }

    /// Requests consumed whose responses have not yet been serialized.
    pub fn responses_owed(&self) -> usize {
        self.history.len()
    }

    /// Whether a tick of this shell (against a quiescent kernel) can change
    /// nothing: no assembled request to schedule or hand over, no response
    /// owed, in serialization or being pushed.
    pub fn is_idle(&self) -> bool {
        self.tx.is_none()
            && self.resp_pending.is_empty()
            && self.req_out.is_empty()
            && self.history.is_empty()
            && self.asm.iter().all(|a| a.ready() == 0)
    }

    /// Walks the stack's complete dynamic state through a state visitor
    /// (see [`noc_sim::persist`]): every request assembler, the
    /// connection history, scheduled requests, responses awaiting
    /// serialization, the in-flight serialized response, the round-robin
    /// pointer and the sequence counter.
    pub fn walk(&mut self, p: &mut dyn noc_sim::StateVisit) {
        use noc_sim::persist::{persist_bool, persist_deque, persist_int, persist_int_list};
        for a in &mut self.asm {
            a.walk(p);
        }
        persist_deque(&mut self.history, 0, p, |l, p| persist_int(l, p));
        let blank = Transaction::persist_default();
        persist_deque(&mut self.req_out, blank, p, |t, p| t.walk(p));
        let blank = TransactionResponse::ack(0);
        persist_deque(&mut self.resp_pending, blank, p, |r, p| r.walk(p));
        let mut have_tx = self.tx.is_some();
        persist_bool(&mut have_tx, p);
        if have_tx != self.tx.is_some() {
            self.tx = have_tx.then(|| TxResp {
                words: Vec::new(),
                local: 0,
                progress: 0,
                ready_at: 0,
            });
        }
        if let Some(tx) = &mut self.tx {
            persist_int_list(&mut tx.words, p);
            persist_int(&mut tx.local, p);
            persist_int(&mut tx.progress, p);
            p.stamp(&mut tx.ready_at);
        }
        persist_int(&mut self.rr, p);
        persist_int(&mut self.seq_ctr, p);
    }

    /// Advances the shell by one port cycle (`now` in network cycles).
    pub fn tick(&mut self, kernel: &mut NiKernel, now: u64) {
        self.pull_requests(kernel, now);
        self.schedule_request();
        self.serialize_response(now);
        self.push_words(kernel, now);
    }

    fn pull_requests(&mut self, kernel: &mut NiKernel, now: u64) {
        for (local, &ch) in self.channels.iter().enumerate() {
            if let Some(w) = kernel.pop_dst(ch, now) {
                self.asm[local].push_word(w);
            }
        }
    }

    /// The multi-connection scheduler: pick the connection with the most
    /// complete messages waiting (queue filling), round-robin on ties.
    fn schedule_request(&mut self) {
        let n = self.channels.len();
        let mut best: Option<(usize, usize)> = None; // (fill, local)
        for k in 0..n {
            let local = (self.rr + k) % n;
            let fill = self.asm[local].ready();
            if fill > 0 && best.is_none_or(|(bf, _)| fill > bf) {
                best = Some((fill, local));
            }
        }
        let Some((_, local)) = best else { return };
        let req = self.asm[local].next_request().expect("ready checked");
        self.rr = (local + 1) % n;
        let t = req.into_transaction();
        if t.cmd.has_response() {
            self.history.push_back(local);
        }
        self.req_out.push_back(t);
    }

    fn serialize_response(&mut self, now: u64) {
        if self.tx.is_some() {
            return;
        }
        let Some(resp) = self.resp_pending.pop_front() else {
            return;
        };
        let local = self
            .history
            .pop_front()
            .expect("response supplied without an outstanding request");
        let seq = match self.ordering {
            Ordering::InOrder => None,
            Ordering::Sequenced => {
                self.seq_ctr = self.seq_ctr.wrapping_add(1);
                Some(self.seq_ctr)
            }
        };
        self.tx = Some(TxResp {
            words: ResponseMsg::from_response(&resp, seq).encode(),
            local,
            progress: 0,
            ready_at: now + DESEQ_LATENCY_CYCLES * u64::from(self.clock_div),
        });
    }

    fn push_words(&mut self, kernel: &mut NiKernel, now: u64) {
        let Some(tx) = &mut self.tx else { return };
        if now < tx.ready_at {
            return;
        }
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::RequestMsg;

    fn feed_request(s: &mut SlaveStack, local: usize, t: &Transaction) {
        for w in RequestMsg::from_transaction(t, None).encode() {
            s.asm[local].push_word(w);
        }
    }

    #[test]
    fn schedules_fullest_connection_first() {
        let mut s = SlaveStack::new(vec![0, 1], Ordering::InOrder, 1);
        feed_request(&mut s, 1, &Transaction::read(0, 1, 10));
        feed_request(&mut s, 1, &Transaction::read(4, 1, 11));
        feed_request(&mut s, 0, &Transaction::read(8, 1, 20));
        s.schedule_request();
        assert_eq!(
            s.take_request().unwrap().trans_id,
            10,
            "fuller connection wins"
        );
        s.schedule_request();
        s.schedule_request();
        let ids: Vec<_> = std::iter::from_fn(|| s.take_request())
            .map(|t| t.trans_id)
            .collect();
        assert_eq!(ids.len(), 2);
        assert!(ids.contains(&11) && ids.contains(&20));
    }

    #[test]
    fn history_routes_responses_in_order() {
        let mut s = SlaveStack::new(vec![5, 9], Ordering::InOrder, 1);
        feed_request(&mut s, 0, &Transaction::read(0, 1, 1));
        s.schedule_request();
        feed_request(&mut s, 1, &Transaction::read(0, 1, 2));
        s.schedule_request();
        assert_eq!(s.responses_owed(), 2);
        let _ = s.take_request();
        let _ = s.take_request();
        s.respond(TransactionResponse::with_data(1, vec![7]));
        s.serialize_response(0);
        let tx = s.tx.as_ref().unwrap();
        assert_eq!(tx.local, 0, "first response goes to the first consumer");
        assert_eq!(s.responses_owed(), 1);
    }

    #[test]
    fn posted_writes_owe_no_response() {
        let mut s = SlaveStack::new(vec![0], Ordering::InOrder, 1);
        feed_request(&mut s, 0, &Transaction::write(0, vec![1, 2], 0));
        s.schedule_request();
        assert_eq!(s.responses_owed(), 0);
        assert!(s.take_request().is_some());
    }

    #[test]
    fn rr_breaks_ties() {
        let mut s = SlaveStack::new(vec![0, 1], Ordering::InOrder, 1);
        feed_request(&mut s, 0, &Transaction::read(0, 1, 1));
        feed_request(&mut s, 1, &Transaction::read(0, 1, 2));
        s.schedule_request();
        s.schedule_request();
        let a = s.take_request().unwrap().trans_id;
        let b = s.take_request().unwrap().trans_id;
        assert_eq!((a, b), (1, 2), "tie broken by round-robin start");
        // Serving 0 then 1 returned the pointer to local 0.
        feed_request(&mut s, 0, &Transaction::read(0, 1, 3));
        feed_request(&mut s, 1, &Transaction::read(0, 1, 4));
        s.schedule_request();
        assert_eq!(s.take_request().unwrap().trans_id, 3);
    }

    #[test]
    #[should_panic(expected = "at least one channel")]
    fn empty_channels_panics() {
        let _ = SlaveStack::new(vec![], Ordering::InOrder, 1);
    }

    #[test]
    #[should_panic(expected = "without an outstanding request")]
    fn unsolicited_response_panics() {
        let mut s = SlaveStack::new(vec![0], Ordering::InOrder, 1);
        s.respond(TransactionResponse::ack(0));
        s.serialize_response(0);
    }
}

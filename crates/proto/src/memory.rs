//! A memory slave IP with configurable access latency.
//!
//! Supports the simplified-DTL command set plus the *read linked* / *write
//! conditional* pair the paper lists among full-fledged slave-shell
//! features (§4.2): a read-linked plants a reservation on its address;
//! a write-conditional succeeds only if the reservation still stands
//! (any intervening write to that address clears it).

use crate::ip::{ClockedWith, SlaveIp};
use aethereal_ni::shell::SlaveStack;
use aethereal_ni::transaction::{Cmd, RespStatus, Transaction, TransactionResponse};
use std::collections::{HashMap, VecDeque};

/// A sparse word-addressed memory with fixed access latency.
#[derive(Debug, Clone)]
pub struct MemorySlave {
    mem: HashMap<u32, u32>,
    latency: u64,
    reservation: Option<u32>,
    inflight: VecDeque<(u64, TransactionResponse)>,
    reads: u64,
    writes: u64,
}

impl MemorySlave {
    /// Creates an empty memory answering after `latency` network cycles.
    pub fn new(latency: u64) -> Self {
        MemorySlave {
            mem: HashMap::new(),
            latency,
            reservation: None,
            inflight: VecDeque::new(),
            reads: 0,
            writes: 0,
        }
    }

    /// Pre-loads a word (test/bench convenience).
    pub fn poke(&mut self, addr: u32, value: u32) {
        self.mem.insert(addr, value);
    }

    /// Reads a word directly (test/bench convenience).
    pub fn peek(&self, addr: u32) -> u32 {
        self.mem.get(&addr).copied().unwrap_or(0)
    }

    /// Read transactions served.
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Write transactions served.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    fn execute(&mut self, t: &Transaction) -> Option<TransactionResponse> {
        match t.cmd {
            Cmd::Read | Cmd::ReadLinked => {
                self.reads += 1;
                if t.cmd == Cmd::ReadLinked {
                    self.reservation = Some(t.addr);
                }
                let data = (0..u32::from(t.read_len))
                    .map(|i| self.peek(t.addr + i))
                    .collect();
                Some(TransactionResponse::with_data(t.trans_id, data))
            }
            Cmd::Write | Cmd::AckedWrite => {
                self.writes += 1;
                for (i, &w) in t.data.iter().enumerate() {
                    let addr = t.addr + i as u32;
                    if self.reservation == Some(addr) {
                        self.reservation = None;
                    }
                    self.mem.insert(addr, w);
                }
                t.cmd
                    .has_response()
                    .then(|| TransactionResponse::ack(t.trans_id))
            }
            Cmd::WriteConditional => {
                if self.reservation == Some(t.addr) {
                    self.writes += 1;
                    self.reservation = None;
                    for (i, &w) in t.data.iter().enumerate() {
                        self.mem.insert(t.addr + i as u32, w);
                    }
                    Some(TransactionResponse::ack(t.trans_id))
                } else {
                    Some(TransactionResponse::error(
                        t.trans_id,
                        RespStatus::ConditionalFail,
                    ))
                }
            }
        }
    }
}

impl ClockedWith<SlaveStack> for MemorySlave {
    /// Retire at most one access whose latency elapsed in a *previous*
    /// cycle's work. Running this before [`emit`](ClockedWith::emit) keeps
    /// the seed's retire-then-accept order: a zero-latency access still
    /// answers on the next tick, never the one that accepted it.
    fn absorb(&mut self, port: &mut SlaveStack, now: u64) {
        if self
            .inflight
            .front()
            .is_some_and(|&(ready, _)| ready <= now)
        {
            let (_, resp) = self.inflight.pop_front().expect("front checked");
            port.respond(resp);
        }
    }

    /// Accept at most one new request per port cycle.
    fn emit(&mut self, port: &mut SlaveStack, now: u64) {
        if let Some(t) = port.take_request() {
            if let Some(resp) = self.execute(&t) {
                self.inflight.push_back((now + self.latency, resp));
            }
        }
    }
}

impl SlaveIp for MemorySlave {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    /// A response waiting out its access latency is internal delayed work:
    /// report it, or a sharded region holding only this memory could sleep
    /// with the response still owed.
    fn idle_until(&self, now: u64) -> u64 {
        match self.inflight.front() {
            Some(&(ready, _)) => now.max(ready),
            None => u64::MAX,
        }
    }

    /// Complete dynamic state: the sparse memory contents (sorted by
    /// address for a canonical stream), the LL/SC reservation, the latency
    /// pipeline of responses waiting to retire, and the access counters.
    /// `latency` is construction state and must match on the restore
    /// target.
    fn persist(&mut self, p: &mut dyn noc_sim::StateVisit) {
        use noc_sim::persist::{persist_bool, persist_int};
        let mut mem: Vec<(u32, u32)> = self.mem.drain().collect();
        mem.sort_unstable();
        let n = p.len(mem.len());
        mem.resize(n, (0, 0));
        for (addr, value) in &mut mem {
            persist_int(addr, p);
            persist_int(value, p);
        }
        self.mem = mem.into_iter().collect();
        let mut have = self.reservation.is_some();
        persist_bool(&mut have, p);
        if have != self.reservation.is_some() {
            self.reservation = have.then_some(0);
        }
        if let Some(addr) = &mut self.reservation {
            persist_int(addr, p);
        }
        let n = p.len(self.inflight.len());
        self.inflight.resize(n, (0, TransactionResponse::ack(0)));
        for (ready, resp) in &mut self.inflight {
            p.item(ready);
            resp.walk(p);
        }
        p.item(&mut self.reads);
        p.item(&mut self.writes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_then_read() {
        let mut m = MemorySlave::new(0);
        let _ = m.execute(&Transaction::write(0x10, vec![7, 8], 1));
        let r = m.execute(&Transaction::read(0x10, 2, 2)).unwrap();
        assert_eq!(r.data, vec![7, 8]);
        assert_eq!(m.reads(), 1);
        assert_eq!(m.writes(), 1);
    }

    #[test]
    fn unwritten_memory_reads_zero() {
        let mut m = MemorySlave::new(0);
        let r = m.execute(&Transaction::read(0x999, 3, 0)).unwrap();
        assert_eq!(r.data, vec![0, 0, 0]);
    }

    #[test]
    fn acked_write_produces_ack() {
        let mut m = MemorySlave::new(0);
        let r = m.execute(&Transaction::acked_write(0, vec![1], 9)).unwrap();
        assert_eq!(r.trans_id, 9);
        assert_eq!(r.status, RespStatus::Ok);
    }

    #[test]
    fn posted_write_produces_nothing() {
        let mut m = MemorySlave::new(0);
        assert!(m.execute(&Transaction::write(0, vec![1], 0)).is_none());
    }

    #[test]
    fn ll_sc_succeeds_without_interference() {
        let mut m = MemorySlave::new(0);
        m.poke(0x20, 5);
        let mut t = Transaction::read(0x20, 1, 1);
        t.cmd = Cmd::ReadLinked;
        let r = m.execute(&t).unwrap();
        assert_eq!(r.data, vec![5]);
        let mut w = Transaction::acked_write(0x20, vec![6], 2);
        w.cmd = Cmd::WriteConditional;
        let r = m.execute(&w).unwrap();
        assert_eq!(r.status, RespStatus::Ok);
        assert_eq!(m.peek(0x20), 6);
    }

    #[test]
    fn sc_fails_after_intervening_write() {
        let mut m = MemorySlave::new(0);
        let mut t = Transaction::read(0x20, 1, 1);
        t.cmd = Cmd::ReadLinked;
        let _ = m.execute(&t);
        let _ = m.execute(&Transaction::write(0x20, vec![9], 3));
        let mut w = Transaction::acked_write(0x20, vec![6], 2);
        w.cmd = Cmd::WriteConditional;
        let r = m.execute(&w).unwrap();
        assert_eq!(r.status, RespStatus::ConditionalFail);
        assert_eq!(m.peek(0x20), 9, "failed SC must not write");
    }

    #[test]
    fn sc_without_reservation_fails() {
        let mut m = MemorySlave::new(0);
        let mut w = Transaction::acked_write(0x0, vec![1], 0);
        w.cmd = Cmd::WriteConditional;
        assert_eq!(m.execute(&w).unwrap().status, RespStatus::ConditionalFail);
    }
}

//! A simplified AXI adapter on top of the master shell (Fig. 1 of the paper
//! shows NI ports speaking AXI alongside DTL).
//!
//! AXI splits a transaction over five channels — write address (AW), write
//! data (W), write response (B), read address (AR) and read data (R) — with
//! independent ready/valid handshakes per beat. This adapter collects AW+W
//! beats into write transactions and AR beats into read transactions,
//! submits them through a [`MasterStack`], and plays responses back as B/R
//! beats. Reads and writes each complete in issue order (one AXI ID per
//! port, matching the simplified DTL shells of §5 that "not all of the DTL
//! functionality has been implemented").

use crate::kernel::NiKernel;
use crate::shell::MasterStack;
use crate::transaction::{RespStatus, Transaction};
use std::collections::VecDeque;

/// An AXI write-address beat.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AwBeat {
    /// Target address.
    pub addr: u32,
    /// Burst length in data beats (1..=255).
    pub len: u8,
    /// Transaction id echoed on the B channel.
    pub id: u16,
}

/// An AXI write-data beat.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WBeat {
    /// Data word.
    pub data: u32,
    /// Last beat of the burst.
    pub last: bool,
}

/// An AXI read-address beat.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArBeat {
    /// Source address.
    pub addr: u32,
    /// Beats requested (1..=255).
    pub len: u8,
    /// Transaction id echoed on the R channel.
    pub id: u16,
}

/// An AXI write-response beat.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BBeat {
    /// Echoed id.
    pub id: u16,
    /// OKAY / SLVERR / DECERR mapped from [`RespStatus`].
    pub resp: AxiResp,
}

/// An AXI read-data beat.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RBeat {
    /// Echoed id.
    pub id: u16,
    /// Data word.
    pub data: u32,
    /// Response code.
    pub resp: AxiResp,
    /// Last beat of the burst.
    pub last: bool,
}

/// AXI response codes (the subset a slave can produce here).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AxiResp {
    /// Successful.
    Okay,
    /// Slave error.
    Slverr,
    /// Decode error.
    Decerr,
}

impl AxiResp {
    fn from_status(s: RespStatus) -> Self {
        match s {
            RespStatus::Ok => AxiResp::Okay,
            RespStatus::DecodeError => AxiResp::Decerr,
            _ => AxiResp::Slverr,
        }
    }
}

/// The AXI master adapter.
///
/// Drive it like AXI: push AW/W/AR beats (the adapter back-pressures via
/// the `aw_ready`-style predicates), call [`AxiMasterAdapter::tick`] every
/// port cycle, and drain B/R beats.
#[derive(Debug, Default)]
pub struct AxiMasterAdapter {
    aw: VecDeque<AwBeat>,
    w: VecDeque<WBeat>,
    ar: VecDeque<ArBeat>,
    b: VecDeque<BBeat>,
    r: VecDeque<RBeat>,
    /// Writes awaiting submission (address seen, data being collected).
    pending_write: Option<(AwBeat, Vec<u32>)>,
    /// Outstanding transactions in issue order: `(id, is_read, beats)`.
    outstanding: VecDeque<(u16, bool)>,
}

impl AxiMasterAdapter {
    /// Creates an idle adapter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether a new AW beat can be accepted (AWREADY).
    pub fn aw_ready(&self) -> bool {
        self.aw.len() < 4
    }

    /// Whether a new W beat can be accepted (WREADY).
    pub fn w_ready(&self) -> bool {
        self.w.len() < 64
    }

    /// Whether a new AR beat can be accepted (ARREADY).
    pub fn ar_ready(&self) -> bool {
        self.ar.len() < 4
    }

    /// Presents a write-address beat.
    ///
    /// # Panics
    ///
    /// Panics if not [`AxiMasterAdapter::aw_ready`] or `len == 0`.
    pub fn put_aw(&mut self, beat: AwBeat) {
        assert!(self.aw_ready(), "AW channel back-pressured");
        assert!(beat.len >= 1, "AXI bursts have at least one beat");
        self.aw.push_back(beat);
    }

    /// Presents a write-data beat.
    ///
    /// # Panics
    ///
    /// Panics if not [`AxiMasterAdapter::w_ready`].
    pub fn put_w(&mut self, beat: WBeat) {
        assert!(self.w_ready(), "W channel back-pressured");
        self.w.push_back(beat);
    }

    /// Presents a read-address beat.
    ///
    /// # Panics
    ///
    /// Panics if not [`AxiMasterAdapter::ar_ready`] or `len == 0`.
    pub fn put_ar(&mut self, beat: ArBeat) {
        assert!(self.ar_ready(), "AR channel back-pressured");
        assert!(beat.len >= 1, "AXI bursts have at least one beat");
        self.ar.push_back(beat);
    }

    /// Takes the next write-response beat (BVALID).
    pub fn take_b(&mut self) -> Option<BBeat> {
        self.b.pop_front()
    }

    /// Takes the next read-data beat (RVALID).
    pub fn take_r(&mut self) -> Option<RBeat> {
        self.r.pop_front()
    }

    /// Outstanding transactions not yet fully responded.
    pub fn outstanding(&self) -> usize {
        self.outstanding.len()
    }

    /// Advances the adapter by one port cycle against its master stack.
    pub fn tick(&mut self, stack: &mut MasterStack, kernel: &mut NiKernel, now: u64) {
        // Assemble writes: one AW + len W beats → one acked-write
        // transaction.
        if self.pending_write.is_none() {
            if let Some(aw) = self.aw.pop_front() {
                self.pending_write = Some((aw, Vec::with_capacity(usize::from(aw.len))));
            }
        }
        if let Some((aw, data)) = &mut self.pending_write {
            while data.len() < usize::from(aw.len) {
                let Some(wb) = self.w.pop_front() else { break };
                data.push(wb.data);
                if wb.last && data.len() < usize::from(aw.len) {
                    // Short burst: pad semantics are an AXI protocol error;
                    // truncate to what arrived.
                    aw.len = data.len().max(1) as u8;
                }
            }
            if data.len() >= usize::from(aw.len) && stack.can_submit() {
                let (aw, data) = self.pending_write.take().expect("just matched");
                self.outstanding.push_back((aw.id, false));
                stack.submit(Transaction::acked_write(aw.addr, data, aw.id & 0xFFF));
            }
        }
        // Reads: one AR beat → one read transaction.
        if stack.can_submit() {
            if let Some(ar) = self.ar.pop_front() {
                self.outstanding.push_back((ar.id, true));
                stack.submit(Transaction::read(ar.addr, ar.len, ar.id & 0xFFF));
            }
        }
        // Tick the underlying shell.
        stack.tick(kernel, now);
        // Play responses back as AXI beats (in order).
        while let Some(resp) = stack.take_response() {
            let (id, is_read) = self
                .outstanding
                .pop_front()
                .expect("response without an outstanding AXI transaction");
            let code = AxiResp::from_status(resp.status);
            if is_read {
                let n = resp.data.len().max(1);
                if resp.data.is_empty() {
                    self.r.push_back(RBeat {
                        id,
                        data: 0,
                        resp: code,
                        last: true,
                    });
                } else {
                    for (i, &d) in resp.data.iter().enumerate() {
                        self.r.push_back(RBeat {
                            id,
                            data: d,
                            resp: code,
                            last: i + 1 == n,
                        });
                    }
                }
            } else {
                self.b.push_back(BBeat { id, resp: code });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::NiKernelSpec;
    use crate::shell::ConnSelect;

    fn setup() -> (AxiMasterAdapter, MasterStack, NiKernel) {
        let kernel = NiKernel::new(NiKernelSpec::reference(0));
        let stack = MasterStack::new(vec![1], ConnSelect::Direct, 1);
        (AxiMasterAdapter::new(), stack, kernel)
    }

    #[test]
    fn write_burst_becomes_one_transaction() {
        let (mut axi, mut stack, mut kernel) = setup();
        axi.put_aw(AwBeat {
            addr: 0x100,
            len: 3,
            id: 5,
        });
        for i in 0..3 {
            axi.put_w(WBeat {
                data: 10 + i,
                last: i == 2,
            });
        }
        for now in 0..4 {
            axi.tick(&mut stack, &mut kernel, now);
        }
        assert_eq!(axi.outstanding(), 1);
        // The request message is being pushed into channel 1's source
        // queue: header + addr + 3 data words.
        for now in 4..20 {
            axi.tick(&mut stack, &mut kernel, now);
        }
        assert_eq!(kernel.channel(1).src_level(), 5);
    }

    #[test]
    fn read_beats_echo_id_and_mark_last() {
        let (mut axi, mut stack, mut kernel) = setup();
        axi.put_ar(ArBeat {
            addr: 0x40,
            len: 2,
            id: 9,
        });
        axi.tick(&mut stack, &mut kernel, 0);
        assert_eq!(axi.outstanding(), 1);
        // Short-circuit a response through the stack by faking the slave
        // side: directly drive the response into the adapter by completing
        // through stack interfaces is not possible without a network, so
        // check the AR → transaction path only.
        assert!(axi.take_r().is_none());
    }

    #[test]
    fn ready_backpressure() {
        let (mut axi, _stack, _kernel) = setup();
        for i in 0..4 {
            assert!(axi.aw_ready());
            axi.put_aw(AwBeat {
                addr: i,
                len: 1,
                id: 0,
            });
        }
        assert!(!axi.aw_ready());
        assert!(axi.ar_ready());
    }

    #[test]
    #[should_panic(expected = "at least one beat")]
    fn zero_length_burst_rejected() {
        let (mut axi, _stack, _kernel) = setup();
        axi.put_aw(AwBeat {
            addr: 0,
            len: 0,
            id: 0,
        });
    }

    #[test]
    fn resp_mapping() {
        assert_eq!(AxiResp::from_status(RespStatus::Ok), AxiResp::Okay);
        assert_eq!(
            AxiResp::from_status(RespStatus::DecodeError),
            AxiResp::Decerr
        );
        assert_eq!(
            AxiResp::from_status(RespStatus::SlaveError),
            AxiResp::Slverr
        );
        assert_eq!(
            AxiResp::from_status(RespStatus::ConditionalFail),
            AxiResp::Slverr
        );
    }
}

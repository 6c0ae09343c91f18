//! The configuration shell's address map (Fig. 8).
//!
//! §4.3: *"At the configuration module Cfg's NI, we introduce a
//! configuration shell, which, based on the address configures the local NI
//! (NI1), or sends configuration messages via the NoC to other NIs. The
//! configuration shell optimizes away the need for an extra data port at
//! NI1 to be connected to NI1's CNIP."*
//!
//! That is a master shell that selects by NI:
//! [`MasterStack::config`](super::MasterStack::config) builds it, and
//! [`MasterStack::bind`](super::MasterStack::bind) binds a remote NI to a
//! configuration connection at run time. A global configuration address
//! is `(ni_id << 16) | register`, see [`global_addr`].

/// Builds the global configuration address of `reg` in NI `ni`.
pub fn global_addr(ni: usize, reg: u32) -> u32 {
    ((ni as u32) << 16) | (reg & 0xFFFF)
}

/// Splits a global configuration address into `(ni, register)`.
pub fn split_addr(addr: u32) -> (usize, u32) {
    ((addr >> 16) as usize, addr & 0xFFFF)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{chan_reg_addr, ChanReg, NiKernel, NiKernelSpec};
    use crate::shell::MasterStack;
    use crate::transaction::{RespStatus, Transaction};

    #[test]
    fn global_addr_roundtrip() {
        let a = global_addr(3, 0x123);
        assert_eq!(split_addr(a), (3, 0x123));
        assert_eq!(global_addr(0, 0xFFFF) & 0xFFFF, 0xFFFF);
    }

    #[test]
    fn local_write_applies_directly() {
        let mut kernel = NiKernel::new(NiKernelSpec::reference(0));
        let mut cfg = MasterStack::config(0, vec![1]);
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
        let mut cfg = MasterStack::config(7, vec![1]);
        cfg.submit(Transaction::read(global_addr(7, 0), 1, 1));
        cfg.tick(&mut kernel, 0);
        let r = cfg.take_response().unwrap();
        assert_eq!(r.data, vec![7], "NI_ID register");
    }

    #[test]
    fn unbound_remote_target_errors() {
        let mut kernel = NiKernel::new(NiKernelSpec::reference(0));
        let mut cfg = MasterStack::config(0, vec![1]);
        cfg.submit(Transaction::acked_write(global_addr(5, 0x100), vec![1], 2));
        cfg.tick(&mut kernel, 0);
        let r = cfg.take_response().unwrap();
        assert_eq!(r.status, RespStatus::DecodeError);
    }

    #[test]
    fn remote_write_serializes_into_channel() {
        let mut kernel = NiKernel::new(NiKernelSpec::reference(0));
        let mut cfg = MasterStack::config(0, vec![1]);
        cfg.bind(5, 0);
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
        let mut cfg = MasterStack::config(0, vec![1]);
        cfg.submit(Transaction::read(global_addr(0, 0), 1, 1));
        cfg.submit(Transaction::read(global_addr(0, 1), 1, 2));
        for now in 0..4 {
            cfg.tick(&mut kernel, now);
        }
        assert_eq!(cfg.take_response().unwrap().trans_id, 1);
        assert_eq!(cfg.take_response().unwrap().trans_id, 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bind_out_of_range_panics() {
        let mut cfg = MasterStack::config(0, vec![1]);
        cfg.bind(2, 5);
    }
}

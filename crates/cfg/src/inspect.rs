//! Remote NoC introspection through the configuration port.
//!
//! §4.3: the CNIP "offers a memory-mapped view on all control registers in
//! the NIs … readable and writable by any master using normal read and
//! write transactions". Writing is what the [`RuntimeConfigurator`] does;
//! this module exercises the *read* side: it dumps a remote NI's slot table
//! and per-channel configuration by issuing read transactions over the
//! configuration connection — useful for debugging and for verifying that
//! a configuration landed as intended.
//!
//! [`RuntimeConfigurator`]: crate::RuntimeConfigurator

use crate::runtime::{ConfigError, RuntimeConfigurator};
use crate::system::NocSystem;
use aethereal_ni::kernel::regs::{CTRL_ENABLE, CTRL_GT};
use aethereal_ni::kernel::{chan_reg_addr, slot_reg_addr, ChanReg};
use aethereal_ni::shell::config::global_addr;
use aethereal_ni::transaction::Transaction;

/// A decoded snapshot of one channel's registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChannelDump {
    /// Channel id.
    pub channel: usize,
    /// Enabled bit.
    pub enabled: bool,
    /// GT bit.
    pub gt: bool,
    /// Space counter (as currently visible).
    pub space: u32,
    /// Raw `PATH_RQID` register.
    pub path_rqid: u32,
    /// Data threshold.
    pub data_threshold: u32,
    /// Credit threshold.
    pub credit_threshold: u32,
}

/// A decoded snapshot of one NI's configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NiDump {
    /// The NI id as reported by its `NI_ID` register.
    pub ni_id: u32,
    /// Slot-table contents (0 = free, `ch+1` = reserved).
    pub slot_table: Vec<u32>,
    /// Per-channel registers.
    pub channels: Vec<ChannelDump>,
}

impl NiDump {
    /// Slots reserved for `channel`.
    pub fn slots_of(&self, channel: usize) -> Vec<usize> {
        self.slot_table
            .iter()
            .enumerate()
            .filter(|&(_, &e)| e == channel as u32 + 1)
            .map(|(s, _)| s)
            .collect()
    }

    /// Channels currently enabled.
    pub fn enabled_channels(&self) -> Vec<usize> {
        self.channels
            .iter()
            .filter(|c| c.enabled)
            .map(|c| c.channel)
            .collect()
    }
}

/// Reads back a remote (or local) NI's full configuration through the
/// configuration port.
///
/// `(cfg_ni, cfg_port)` is the configurator's own port. The configuration
/// connection to `target` is opened on demand.
///
/// # Errors
///
/// See [`ConfigError`].
pub fn dump_ni(
    cfg: &mut RuntimeConfigurator,
    sys: &mut NocSystem,
    cfg_ni: usize,
    cfg_port: usize,
    target: usize,
) -> Result<NiDump, ConfigError> {
    cfg.open_config_connection(sys, target)?;
    let mut read = |reg: u32, len: u8| -> Result<Vec<u32>, ConfigError> {
        let tid = 0x700;
        sys.nis[cfg_ni]
            .config_mut(cfg_port)
            .submit(Transaction::read(global_addr(target, reg), len, tid));
        Ok(cfg.wait_response(sys, tid)?.data)
    };
    let ni_id = read(0, 1)?[0];
    let stu_slots = read(1, 1)?[0] as usize;
    let n_channels = read(2, 1)?[0] as usize;
    let mut slot_table = Vec::with_capacity(stu_slots);
    for s in 0..stu_slots {
        slot_table.push(read(slot_reg_addr(s), 1)?[0]);
    }
    let mut channels = Vec::with_capacity(n_channels);
    for ch in 0..n_channels {
        // One burst read over the whole 5-register block.
        let block = read(chan_reg_addr(ch, ChanReg::Ctrl), 5)?;
        channels.push(ChannelDump {
            channel: ch,
            enabled: block[0] & CTRL_ENABLE != 0,
            gt: block[0] & CTRL_GT != 0,
            space: block[1],
            path_rqid: block[2],
            data_threshold: block[3],
            credit_threshold: block[4],
        });
    }
    Ok(NiDump {
        ni_id,
        slot_table,
        channels,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{ChannelEnd, ConnectionRequest, Service};
    use crate::spec::TopologySpec;
    use crate::{presets, NocSpec, SlotStrategy};

    #[test]
    fn dump_reflects_an_opened_gt_connection() {
        let spec = NocSpec::new(
            TopologySpec::Mesh {
                width: 2,
                height: 1,
                nis_per_router: 2,
            },
            vec![
                presets::cfg_module_ni(0, 4),
                presets::master_ni(1),
                presets::slave_ni(2),
                presets::slave_ni(3),
            ],
        );
        let mut sys = NocSystem::from_spec(&spec);
        let mut cfg = RuntimeConfigurator::new(spec.topology.build(), 0, 0, 8);
        let req = ConnectionRequest {
            fwd: Service::Guaranteed {
                slots: 2,
                strategy: SlotStrategy::Spread,
            },
            rev: Service::BestEffort,
            data_threshold: 3,
            credit_threshold: 0,
            ..ConnectionRequest::best_effort(
                ChannelEnd { ni: 1, channel: 1 },
                ChannelEnd { ni: 2, channel: 1 },
            )
        };
        cfg.open_connection(&mut sys, &req).expect("opens");
        let dump = dump_ni(&mut cfg, &mut sys, 0, 0, 1).expect("dump succeeds");
        assert_eq!(dump.ni_id, 1);
        assert_eq!(dump.slot_table.len(), 8);
        assert_eq!(dump.slots_of(1).len(), 2, "two GT slots visible remotely");
        assert_eq!(dump.enabled_channels(), vec![0, 1], "CNIP + data channel");
        let ch1 = dump.channels[1];
        assert!(ch1.gt);
        assert_eq!(ch1.data_threshold, 3);
        // The slave NI shows the reverse channel as plain BE.
        let dump2 = dump_ni(&mut cfg, &mut sys, 0, 0, 2).expect("dump succeeds");
        assert!(!dump2.channels[1].gt);
        assert!(dump2.channels[1].enabled);
        assert!(dump2.slots_of(1).is_empty());
    }

    #[test]
    fn dump_of_unconfigured_ni_shows_clean_state() {
        let spec = NocSpec::new(
            TopologySpec::Mesh {
                width: 2,
                height: 1,
                nis_per_router: 2,
            },
            vec![
                presets::cfg_module_ni(0, 4),
                presets::master_ni(1),
                presets::slave_ni(2),
                presets::slave_ni(3),
            ],
        );
        let mut sys = NocSystem::from_spec(&spec);
        let mut cfg = RuntimeConfigurator::new(spec.topology.build(), 0, 0, 8);
        let dump = dump_ni(&mut cfg, &mut sys, 0, 0, 3).expect("dump succeeds");
        assert!(dump.slot_table.iter().all(|&e| e == 0));
        // Only the CNIP channel (configured by the dump itself) is enabled.
        assert_eq!(dump.enabled_channels(), vec![0]);
    }
}

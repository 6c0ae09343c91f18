//! Ready-made NI descriptions for common roles.
//!
//! Every configurable NI exposes a CNIP on port 0 / channel 0 (the paper's
//! convention of a memory-mapped configuration port per NI); the
//! configuration module's NI instead carries the configuration shell with a
//! pool of channels for configuration connections.

use aethereal_ni::kernel::{NiKernelSpec, PortSpec};
use aethereal_ni::ni::{NiSpec, PortStackSpec};
use aethereal_ni::shell::{AddrRange, ConnSelect};

fn base_kernel(ni_id: usize, ports: Vec<PortSpec>, cnip: Option<usize>) -> NiKernelSpec {
    NiKernelSpec {
        ni_id,
        cnip_channel: cnip,
        ports,
        ..NiKernelSpec::reference(ni_id)
    }
}

/// The CNIP port: its destination queue must hold a whole channel-setup
/// burst (three 3-word write messages, Fig. 9) *before* the response
/// channel exists to return credits, so it is sized to 16 words at design
/// time ("memory allocated for the queues … configurable at design
/// time", §1).
fn cnip_port() -> PortSpec {
    PortSpec {
        queue_words: 16,
        ..PortSpec::default()
    }
}

/// A configurable NI with one direct master port: CNIP (port 0, channel 0)
/// plus a master data port (port 1, channel 1).
pub fn master_ni(ni_id: usize) -> NiSpec {
    NiSpec {
        kernel: base_kernel(ni_id, vec![cnip_port(), PortSpec::default()], Some(0)),
        stacks: vec![
            PortStackSpec::Cnip,
            PortStackSpec::Master {
                conn: ConnSelect::Direct,
            },
        ],
    }
}

/// A configurable NI with one slave port: CNIP plus a slave data port.
pub fn slave_ni(ni_id: usize) -> NiSpec {
    NiSpec {
        kernel: base_kernel(ni_id, vec![cnip_port(), PortSpec::default()], Some(0)),
        stacks: vec![PortStackSpec::Cnip, PortStackSpec::Slave],
    }
}

/// A configurable NI whose slave port serves `connections` connections
/// through the multi-connection shell.
pub fn multi_slave_ni(ni_id: usize, connections: usize) -> NiSpec {
    NiSpec {
        kernel: base_kernel(
            ni_id,
            vec![
                cnip_port(),
                PortSpec {
                    channels: connections,
                    ..PortSpec::default()
                },
            ],
            Some(0),
        ),
        stacks: vec![PortStackSpec::Cnip, PortStackSpec::Slave],
    }
}

/// A configurable NI whose master port offers a narrowcast connection over
/// the given address ranges (one channel per range).
pub fn narrowcast_master_ni(ni_id: usize, ranges: Vec<AddrRange>) -> NiSpec {
    NiSpec {
        kernel: base_kernel(
            ni_id,
            vec![
                cnip_port(),
                PortSpec {
                    channels: ranges.len(),
                    ..PortSpec::default()
                },
            ],
            Some(0),
        ),
        stacks: vec![
            PortStackSpec::Cnip,
            PortStackSpec::Master {
                conn: ConnSelect::Narrowcast(ranges),
            },
        ],
    }
}

/// A configurable NI whose master port multicasts to `slaves` slaves.
pub fn multicast_master_ni(ni_id: usize, slaves: usize) -> NiSpec {
    NiSpec {
        kernel: base_kernel(
            ni_id,
            vec![
                cnip_port(),
                PortSpec {
                    channels: slaves,
                    ..PortSpec::default()
                },
            ],
            Some(0),
        ),
        stacks: vec![
            PortStackSpec::Cnip,
            PortStackSpec::Master {
                conn: ConnSelect::Multicast,
            },
        ],
    }
}

/// The configuration module's NI: a configuration shell (port 0) with
/// `config_channels` channels for configuration connections to remote NIs.
/// No CNIP — the config shell accesses the local register file directly
/// (Fig. 8: "optimizes away the need for an extra data port").
pub fn cfg_module_ni(ni_id: usize, config_channels: usize) -> NiSpec {
    NiSpec {
        kernel: base_kernel(
            ni_id,
            vec![PortSpec {
                channels: config_channels,
                queue_words: 16,
                ..PortSpec::default()
            }],
            None,
        ),
        stacks: vec![PortStackSpec::Config],
    }
}

/// A raw streaming NI: CNIP plus a shell-less port with `channels` channels
/// (point-to-point connections, §4.2).
pub fn raw_ni(ni_id: usize, channels: usize) -> NiSpec {
    NiSpec {
        kernel: base_kernel(
            ni_id,
            vec![
                cnip_port(),
                PortSpec {
                    channels,
                    ..PortSpec::default()
                },
            ],
            Some(0),
        ),
        stacks: vec![PortStackSpec::Cnip, PortStackSpec::Raw],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aethereal_ni::Ni;

    #[test]
    fn presets_instantiate() {
        let _ = Ni::new(master_ni(0));
        let _ = Ni::new(slave_ni(1));
        let _ = Ni::new(multi_slave_ni(2, 3));
        let _ = Ni::new(narrowcast_master_ni(
            3,
            vec![
                AddrRange { base: 0, size: 64 },
                AddrRange { base: 64, size: 64 },
            ],
        ));
        let _ = Ni::new(multicast_master_ni(4, 2));
        let _ = Ni::new(cfg_module_ni(5, 4));
        let _ = Ni::new(raw_ni(6, 2));
    }

    #[test]
    fn master_ni_layout() {
        let mut ni = Ni::new(master_ni(0));
        assert_eq!(ni.port_count(), 2);
        assert!(ni.is_master(1));
        assert_eq!(ni.master_mut(1).channels(), &[1]);
        assert_eq!(ni.kernel.spec().cnip_channel, Some(0));
    }

    #[test]
    fn cfg_ni_has_no_cnip() {
        let ni = Ni::new(cfg_module_ni(0, 3));
        assert_eq!(ni.kernel.spec().cnip_channel, None);
        assert_eq!(ni.kernel.channel_count(), 3);
    }
}

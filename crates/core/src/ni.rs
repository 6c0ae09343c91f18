//! A complete network interface: the NI kernel plus the per-port shell
//! stacks selected at design (instantiation) time.
//!
//! §1 of the paper: *"the number of ports and their type (i.e.,
//! configuration port, master port, or slave port), the number of
//! connections at each port, memory allocated for the queues, the level of
//! services per port, and the interface to the IP modules are all
//! configurable at design (instantiation) time."* [`NiSpec`] is that
//! description; `aethereal-cfg` builds it from the NoC-level spec (the XML
//! stand-in).

use crate::kernel::sched::members;
use crate::kernel::{ChannelId, NiKernel, NiKernelSpec};
use crate::shell::{ConnSelect, MasterStack, SlaveStack};
use noc_sim::engine::{ClockDomain, ClockedWith};
use noc_sim::NiLink;

/// The shell stack attached to one NI port, selected at design time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PortStackSpec {
    /// No shell: the IP streams raw message words through the kernel
    /// channel API (point-to-point connections, e.g. video pixel pipelines).
    Raw,
    /// A master port: master shell plus connection shell.
    Master {
        /// Connection type (direct / narrowcast / multicast).
        conn: ConnSelect,
    },
    /// A slave port: slave shell, with multi-connection behaviour when the
    /// port has more than one channel.
    Slave,
    /// The configuration master port: a master shell that selects by NI
    /// (the configuration shell).
    Config,
    /// The CNIP slave endpoint, serviced inside the kernel; the port's
    /// first channel must be the kernel's `cnip_channel`.
    Cnip,
}

/// Design-time description of a full NI.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NiSpec {
    /// Kernel geometry.
    pub kernel: NiKernelSpec,
    /// One stack per kernel port, in port order.
    pub stacks: Vec<PortStackSpec>,
}

impl NiSpec {
    /// Total channels (delegates to the kernel spec).
    pub fn total_channels(&self) -> usize {
        self.kernel.total_channels()
    }
}

#[derive(Debug, Clone)]
enum PortStack {
    Raw,
    Master(MasterStack),
    Slave(SlaveStack),
    Config(MasterStack),
    Cnip,
}

/// A complete NI: kernel + shells.
#[derive(Debug, Clone)]
pub struct Ni {
    /// The NI kernel. Public so raw ports and test benches can use the
    /// channel-level API directly.
    pub kernel: NiKernel,
    stacks: Vec<PortStack>,
    /// Per-port clock domains (each port "can have a different clock
    /// frequency", §4.1).
    clocks: Vec<ClockDomain>,
    /// The ports that carry a shell (master, slave or config stack), as a
    /// bitmask walked in ascending order — the only ports a cycle has to
    /// look at; raw and CNIP ports never act. Structural: fixed at
    /// instantiation, never in the snapshot stream.
    shell_ports: u64,
}

impl Ni {
    /// Instantiates the NI.
    ///
    /// # Panics
    ///
    /// Panics if the stack list does not match the kernel's ports, a
    /// narrowcast map does not match its port's channel count, or a CNIP
    /// stack is not aligned with the kernel's `cnip_channel`.
    pub fn new(spec: NiSpec) -> Self {
        let kernel = NiKernel::new(spec.kernel);
        assert_eq!(
            spec.stacks.len(),
            kernel.spec().ports.len(),
            "one stack per kernel port required"
        );
        let stacks = spec
            .stacks
            .into_iter()
            .enumerate()
            .map(|(p, s)| {
                let channels: Vec<ChannelId> = kernel.port_channels(p).collect();
                let div = kernel.port_clock_div(p);
                match s {
                    PortStackSpec::Raw => PortStack::Raw,
                    PortStackSpec::Master { conn } => {
                        PortStack::Master(MasterStack::new(channels, conn, div))
                    }
                    PortStackSpec::Slave => PortStack::Slave(SlaveStack::new(channels, div)),
                    PortStackSpec::Config => {
                        PortStack::Config(MasterStack::config(kernel.spec().ni_id, channels))
                    }
                    PortStackSpec::Cnip => {
                        assert_eq!(
                            kernel.spec().cnip_channel,
                            Some(channels[0]),
                            "CNIP port must own the kernel's cnip_channel"
                        );
                        PortStack::Cnip
                    }
                }
            })
            .collect::<Vec<_>>();
        let clocks = (0..kernel.spec().ports.len())
            .map(|p| ClockDomain::new(kernel.port_clock_div(p)))
            .collect();
        // At most `MAX_QUEUES` channels, at least one per port: the ports
        // fit a mask.
        let shell_ports = (0..stacks.len())
            .filter(|&p| !matches!(stacks[p], PortStack::Raw | PortStack::Cnip))
            .fold(0, |mask, p| mask | 1 << p);
        Ni {
            kernel,
            stacks,
            clocks,
            shell_ports,
        }
    }

    /// NI identifier.
    pub fn id(&self) -> usize {
        self.kernel.spec().ni_id
    }

    /// Number of ports.
    pub fn port_count(&self) -> usize {
        self.stacks.len()
    }

    /// The master stack of `port`.
    ///
    /// # Panics
    ///
    /// Panics if the port is not a master port.
    pub fn master_mut(&mut self, port: usize) -> &mut MasterStack {
        match &mut self.stacks[port] {
            PortStack::Master(m) => m,
            other => panic!("port {port} is not a master port: {other:?}"),
        }
    }

    /// The slave stack of `port`.
    ///
    /// # Panics
    ///
    /// Panics if the port is not a slave port.
    pub fn slave_mut(&mut self, port: usize) -> &mut SlaveStack {
        match &mut self.stacks[port] {
            PortStack::Slave(s) => s,
            other => panic!("port {port} is not a slave port: {other:?}"),
        }
    }

    /// The configuration stack of `port`.
    ///
    /// # Panics
    ///
    /// Panics if the port is not a config port.
    pub fn config_mut(&mut self, port: usize) -> &mut MasterStack {
        match &mut self.stacks[port] {
            PortStack::Config(c) => c,
            other => panic!("port {port} is not a config port: {other:?}"),
        }
    }

    /// Whether config port `port` holds a response not yet taken.
    pub fn config_response_ready(&self, port: usize) -> bool {
        matches!(&self.stacks[port], PortStack::Config(c) if c.has_response())
    }

    /// The master stack of `port` together with the kernel, split-borrowed
    /// (needed by adapters such as
    /// [`AxiMasterAdapter`](crate::shell::AxiMasterAdapter) whose tick
    /// drives both).
    ///
    /// # Panics
    ///
    /// Panics if the port is not a master port.
    pub fn master_and_kernel_mut(&mut self, port: usize) -> (&mut MasterStack, &mut NiKernel) {
        match &mut self.stacks[port] {
            PortStack::Master(m) => (m, &mut self.kernel),
            other => panic!("port {port} is not a master port: {other:?}"),
        }
    }

    /// Whether `port` carries a master stack.
    pub fn is_master(&self, port: usize) -> bool {
        matches!(self.stacks[port], PortStack::Master(_))
    }

    /// Whether `port` carries a slave stack.
    pub fn is_slave(&self, port: usize) -> bool {
        matches!(self.stacks[port], PortStack::Slave(_))
    }

    /// Whether every shell stack is idle (the kernel is accounted for
    /// separately by its own [`ClockedWith::dormant_until`]).
    fn stacks_idle(&self) -> bool {
        members(self.shell_ports).all(|p| match &self.stacks[p] {
            PortStack::Raw | PortStack::Cnip => true,
            PortStack::Master(m) | PortStack::Config(m) => m.is_idle(),
            PortStack::Slave(s) => s.is_idle(),
        })
    }

    /// Whether a tick of this NI against `link` is a no-op until something
    /// wakes it: the kernel's cached horizon is `u64::MAX` and it owns no
    /// GT slot (so a sleeping tick has nothing to account), the inbox is
    /// empty and every shell is idle. Only a mutation of the NI or a word
    /// arriving in its inbox can end that, so a container that stops
    /// ticking an inert NI resumes on exactly those two events.
    #[inline]
    pub fn inert(&self, link: &NiLink) -> bool {
        self.kernel.inert() && link.pending() == 0 && self.stacks_idle()
    }

    /// Whether this NI is eligible for analytical fast-forward: all shell
    /// stacks idle (an in-flight transaction couples message progress to
    /// shell state the extrapolation does not model) and the kernel's
    /// dynamic state limited to threshold-free GT streams
    /// ([`NiKernel::ff_ready`]).
    pub fn ff_ready(&self) -> bool {
        self.stacks_idle() && self.kernel.ff_ready()
    }

    /// Walks the NI's complete dynamic state through a state visitor (see
    /// [`noc_sim::persist`]): the kernel, then every shell stack in port
    /// order — a snapshot may land mid-transaction, where shell state
    /// (partial messages, histories, serialization progress) is live, and
    /// a periodicity certificate has to see that idle shells stay as they
    /// are. Raw and CNIP ports hold no shell state; the per-port
    /// [`ClockDomain`]s are pure dividers with no phase counter.
    pub fn walk(&mut self, p: &mut dyn noc_sim::StateVisit) {
        self.kernel.walk(p);
        for s in &mut self.stacks {
            match s {
                PortStack::Raw | PortStack::Cnip => {}
                PortStack::Master(m) | PortStack::Config(m) => m.walk(p),
                PortStack::Slave(sl) => sl.walk(p),
            }
        }
    }
}

/// A whole NI on the engine contract. One `tick` (absorb, then emit) is one
/// network cycle: shells run on their port clocks and the kernel drains the
/// link inbox in the absorb phase, then the kernel packetizes and stages
/// this cycle's word in the emit phase — the exact serialization of the
/// seed's hand-rolled loop.
impl ClockedWith<NiLink> for Ni {
    fn absorb(&mut self, link: &mut NiLink, cycle: u64) {
        for p in members(self.shell_ports) {
            if !self.clocks[p].ticks_at(cycle) {
                continue;
            }
            match &mut self.stacks[p] {
                PortStack::Raw | PortStack::Cnip => {}
                PortStack::Master(m) | PortStack::Config(m) => m.tick(&mut self.kernel, cycle),
                PortStack::Slave(s) => s.tick(&mut self.kernel, cycle),
            }
        }
        self.kernel.absorb(link, cycle);
    }

    fn emit(&mut self, link: &mut NiLink, cycle: u64) {
        self.kernel.emit(link, cycle);
    }

    /// One NI cycle, activity-proportional: while the NI sleeps — the
    /// horizon cached in the kernel not reached, the inbox empty, every
    /// shell idle — the tick is only the kernel's reserved-slot
    /// accounting, exactly what [`skip`](ClockedWith::skip) would add for
    /// this cycle. The horizon is invalidated by mutation (the kernel
    /// zeroes it in every state-changing method; shells are re-examined
    /// here because a bare `&mut` stack is handed to its IP on every
    /// clock edge), never by access. It is evaluated only after a full
    /// tick during which nothing moved, so a busy NI pays one flag test.
    fn tick(&mut self, link: &mut NiLink, cycle: u64) {
        if cycle < self.kernel.asleep_until() && link.pending() == 0 && self.stacks_idle() {
            debug_assert!(
                self.dormant_until(cycle) > cycle,
                "NI {} asleep at cycle {cycle} although a fresh horizon says awake",
                self.id()
            );
            self.kernel.sleep_tick(cycle);
            return;
        }
        self.absorb(link, cycle);
        self.emit(link, cycle);
        if self.kernel.settle() {
            let next = cycle + 1;
            let horizon = self.dormant_until(next);
            self.kernel
                .sleep_until(if horizon > next { horizon } else { 0 });
        }
    }

    fn skip(&mut self, from_cycle: u64, cycles: u64) {
        ClockedWith::<NiLink>::skip(&mut self.kernel, from_cycle, cycles);
    }

    /// Shells hold no time-driven state, so the NI is dormant exactly when
    /// its stacks are idle and its kernel reports dormancy (strict
    /// quiescence, or queued GT data waiting for its next reserved slot).
    fn dormant_until(&self, now: u64) -> u64 {
        if !self.stacks_idle() {
            return now;
        }
        ClockedWith::<NiLink>::dormant_until(&self.kernel, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference_ni() -> Ni {
        // Reference kernel: ports 0 (config duties are split: port 0 is the
        // CNIP endpoint), 1 master, 2 narrowcast master, 3 slave.
        let spec = NiSpec {
            kernel: NiKernelSpec::reference(0),
            stacks: vec![
                PortStackSpec::Cnip,
                PortStackSpec::Master {
                    conn: ConnSelect::Direct,
                },
                PortStackSpec::Master {
                    conn: ConnSelect::Narrowcast(vec![
                        crate::shell::AddrRange {
                            base: 0,
                            size: 0x100,
                        },
                        crate::shell::AddrRange {
                            base: 0x100,
                            size: 0x100,
                        },
                    ]),
                },
                PortStackSpec::Slave,
            ],
        };
        Ni::new(spec)
    }

    #[test]
    fn builds_reference_instance() {
        let mut ni = reference_ni();
        assert_eq!(ni.port_count(), 4);
        assert!(ni.is_master(1));
        assert!(ni.is_slave(3));
        assert_eq!(ni.master_mut(1).channels(), &[1]);
        assert_eq!(ni.master_mut(2).channels(), &[2, 3]);
        assert_eq!(ni.slave_mut(3).channels(), &[4, 5, 6, 7]);
    }

    /// Ticks `ni` (as NI 0 of a 2x1 mesh) and the network for `n` cycles.
    fn run(ni: &mut Ni, noc: &mut noc_sim::Noc, n: u64) {
        for _ in 0..n {
            let cycle = noc.cycle();
            ni.tick(noc.ni_link_mut(0), cycle);
            noc.tick();
        }
    }

    #[test]
    fn quiet_ni_falls_asleep_and_only_mutation_wakes_it() {
        use crate::kernel::{chan_reg_addr, ChanReg};
        let mut noc = noc_sim::Noc::new(&noc_sim::Topology::mesh(2, 1, 1));
        let mut ni = reference_ni();
        assert_eq!(ni.kernel.asleep_until(), 0, "born awake");
        run(&mut ni, &mut noc, 2);
        assert_eq!(
            ni.kernel.asleep_until(),
            u64::MAX,
            "nothing queued, nothing enabled: no horizon at all"
        );
        // Mere access wakes nothing — bound IPs get a `&mut` stack on every
        // clock edge — and neither do refused or empty-handed calls.
        let _ = ni.master_mut(1);
        let _ = &mut ni.kernel;
        assert_eq!(ni.kernel.pop_dst(1, noc.cycle()), None);
        assert_eq!(ni.kernel.asleep_until(), u64::MAX);
        // Each mutation path zeroes the horizon; two quiet ticks restore it.
        type Waker = (&'static str, fn(&mut Ni, u64));
        let wakers: [Waker; 5] = [
            ("push_src", |ni, now| ni.kernel.push_src(1, 7, now).unwrap()),
            ("reg_write", |ni, _| {
                ni.kernel
                    .reg_write(chan_reg_addr(2, ChanReg::DataThreshold), 3)
                    .unwrap()
            }),
            ("flush", |ni, _| ni.kernel.flush(1)),
            ("flush_credits", |ni, _| ni.kernel.flush_credits(1)),
            ("submit", |ni, _| {
                ni.master_mut(1)
                    .submit(crate::transaction::Transaction::write(0x10, vec![1], 1))
            }),
        ];
        for (name, wake) in wakers {
            wake(&mut ni, noc.cycle());
            if name == "submit" {
                // Shell state is not the kernel's: the NI re-examines its
                // stacks on every tick instead, and the shell's first push
                // into the kernel does the waking.
                run(&mut ni, &mut noc, 4);
                assert_eq!(ni.kernel.asleep_until(), 0, "{name}");
                continue;
            }
            assert_eq!(ni.kernel.asleep_until(), 0, "{name}");
            run(&mut ni, &mut noc, 2);
            assert_eq!(
                ni.kernel.asleep_until(),
                u64::MAX,
                "asleep again after {name}"
            );
        }
        // A full queue refuses the push without waking anyone.
        let mut ni = reference_ni();
        while ni.kernel.push_src(1, 0, 0).is_ok() {}
        run(&mut ni, &mut noc, 2);
        assert_eq!(ni.kernel.asleep_until(), u64::MAX);
        assert!(ni.kernel.push_src(1, 0, noc.cycle()).is_err());
        assert_eq!(ni.kernel.asleep_until(), u64::MAX);
    }

    #[test]
    fn inbox_arrival_wakes_a_sleeping_ni() {
        use noc_sim::{LinkWord, PacketHeader, Topology, WordClass};
        let topo = Topology::mesh(2, 1, 1);
        let mut noc = noc_sim::Noc::new(&topo);
        let mut ni = reference_ni();
        run(&mut ni, &mut noc, 5);
        assert_eq!(ni.kernel.asleep_until(), u64::MAX);
        let header = PacketHeader {
            path: topo.route(1, 0).unwrap(),
            qid: 3,
            credits: 5,
            flush: false,
        };
        noc.ni_link_mut(1)
            .send(LinkWord::header_only(header.pack(), WordClass::BestEffort));
        run(&mut ni, &mut noc, 8);
        assert_eq!(ni.kernel.channel(3).space(), 5, "credits registered");
        assert_eq!(ni.kernel.stats().packets_rx, [0, 1]);
    }

    #[test]
    fn sleeping_ni_accounts_its_reserved_slots_every_cycle() {
        use crate::kernel::slot_reg_addr;
        let mut noc = noc_sim::Noc::new(&noc_sim::Topology::mesh(2, 1, 1));
        let mut ni = reference_ni();
        for s in [1, 2, 6] {
            ni.kernel.reg_write(slot_reg_addr(s), 2).unwrap();
        }
        let skipped = ni.clone();
        for cycle in 0..200 {
            assert_eq!(noc.cycle(), cycle);
            run(&mut ni, &mut noc, 1);
            // The arithmetic `skip` is the reference — after every cycle,
            // not just at the end.
            let mut reference = skipped.clone();
            ClockedWith::<NiLink>::skip(&mut reference, 0, cycle + 1);
            assert_eq!(ni.kernel.stats(), reference.kernel.stats(), "cycle {cycle}");
        }
        assert!(ni.kernel.asleep_until() > 200, "slept through it");
        assert!(
            ni.kernel.stats().gt_slots_unused >= 24,
            "8 rotations of 3 slots"
        );
        // An NI that owns no slot does nothing at all while asleep.
        let mut idle = reference_ni();
        run(&mut idle, &mut noc, 50);
        assert_eq!(*idle.kernel.stats(), Default::default());
    }

    #[test]
    #[should_panic(expected = "not a slave port")]
    fn wrong_port_kind_panics() {
        let mut ni = reference_ni();
        let _ = ni.slave_mut(1);
    }

    #[test]
    #[should_panic(expected = "one stack per kernel port")]
    fn stack_count_mismatch_panics() {
        let _ = Ni::new(NiSpec {
            kernel: NiKernelSpec::reference(0),
            stacks: vec![PortStackSpec::Raw],
        });
    }

    #[test]
    #[should_panic(expected = "cnip_channel")]
    fn cnip_port_must_match_kernel() {
        let mut kernel = NiKernelSpec::reference(0);
        kernel.cnip_channel = Some(1);
        let _ = Ni::new(NiSpec {
            kernel,
            stacks: vec![
                PortStackSpec::Cnip, // port 0 owns channel 0, not 1
                PortStackSpec::Raw,
                PortStackSpec::Raw,
                PortStackSpec::Raw,
            ],
        });
    }
}

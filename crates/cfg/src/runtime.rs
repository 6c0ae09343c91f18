//! Run-time connection configuration through the NoC itself (Fig. 9).
//!
//! [`RuntimeConfigurator`] is the *configuration module* (Cfg): a master on
//! a configuration-shell port that opens and closes connections by writing
//! NI registers — locally through the config shell's bypass, remotely
//! through request messages to the target NI's CNIP. The four-step flow of
//! Fig. 9 is reproduced literally:
//!
//! 1. set up the **request channel** of the configuration connection with
//!    local register writes (`wr be,enable / wr space / wr path,rqid`);
//! 2. set up its **response channel** by sending those writes through the
//!    NoC, the last one acknowledged;
//! 3. set up the user connection's **response channel** (slave side, 3
//!    registers);
//! 4. set up its **request channel** (master side, 5 registers: the three
//!    basic ones plus the two thresholds), plus slot-table entries for GT
//!    service.
//!
//! Every register write and every configuration message is counted in
//! [`ConfigStats`] — bench E5 regenerates the paper's configuration-cost
//! discussion from these counters.

use crate::slots::{SlotAllocation, SlotAllocator, SlotError, SlotStrategy};
use crate::system::NocSystem;
use aethereal_ni::kernel::regs::{CTRL_ENABLE, CTRL_GT};
use aethereal_ni::kernel::{chan_reg_addr, ext_reg_addr, pack_path_rqid, slot_reg_addr, ChanReg};
use aethereal_ni::message::RequestMsg;
use aethereal_ni::shell::config::global_addr;
use aethereal_ni::transaction::{RespStatus, Transaction, TransactionResponse};
use noc_sim::{Engine, FaultReport, PortIdx, Route, RouteError, RouterId, Topology, SLOT_WORDS};
use std::collections::HashMap;

/// One end of a connection: a channel of an NI.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChannelEnd {
    /// The NI.
    pub ni: usize,
    /// The channel within that NI.
    pub channel: usize,
}

/// Service level of one direction of a connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Service {
    /// Best-effort delivery.
    BestEffort,
    /// Guaranteed throughput: `slots` of the slot table, placed per
    /// `strategy`.
    Guaranteed {
        /// Number of TDM slots to reserve.
        slots: usize,
        /// Placement strategy.
        strategy: SlotStrategy,
    },
}

impl Service {
    fn is_gt(&self) -> bool {
        matches!(self, Service::Guaranteed { .. })
    }
}

/// A connection to open: a master-side channel paired with a slave-side
/// channel, with per-direction service levels (§2: "different properties
/// can be attached to the request and response parts of a connection").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConnectionRequest {
    /// Master-side channel (source of request messages).
    pub master: ChannelEnd,
    /// Slave-side channel (source of response messages).
    pub slave: ChannelEnd,
    /// Service of the request direction (master → slave).
    pub fwd: Service,
    /// Service of the response direction (slave → master).
    pub rev: Service,
    /// Data threshold written to both ends (0 = send immediately).
    pub data_threshold: u32,
    /// Credit threshold written to both ends (0 = return immediately).
    pub credit_threshold: u32,
}

impl ConnectionRequest {
    /// A best-effort connection with default thresholds.
    pub fn best_effort(master: ChannelEnd, slave: ChannelEnd) -> Self {
        ConnectionRequest {
            master,
            slave,
            fwd: Service::BestEffort,
            rev: Service::BestEffort,
            data_threshold: 0,
            credit_threshold: 0,
        }
    }

    /// A connection with GT service in both directions.
    pub fn guaranteed(master: ChannelEnd, slave: ChannelEnd, slots: usize) -> Self {
        let svc = Service::Guaranteed {
            slots,
            strategy: SlotStrategy::Spread,
        };
        ConnectionRequest {
            fwd: svc,
            rev: svc,
            ..Self::best_effort(master, slave)
        }
    }
}

/// An opened connection (needed to close it again).
#[derive(Debug, Clone)]
pub struct ConnectionHandle {
    /// The request this connection was opened from.
    pub request: ConnectionRequest,
    fwd_alloc: Option<SlotAllocation>,
    rev_alloc: Option<SlotAllocation>,
    /// Directed router links the request-direction route crosses (the
    /// NI-injection pseudo link is omitted — it cannot be masked).
    fwd_links: Vec<(RouterId, PortIdx)>,
    /// Directed router links the response-direction route crosses.
    rev_links: Vec<(RouterId, PortIdx)>,
}

impl ConnectionHandle {
    /// The forward (request-direction) slot reservation, if GT.
    pub fn fwd_slots(&self) -> Option<&SlotAllocation> {
        self.fwd_alloc.as_ref()
    }

    /// The reverse (response-direction) slot reservation, if GT.
    pub fn rev_slots(&self) -> Option<&SlotAllocation> {
        self.rev_alloc.as_ref()
    }

    /// Directed router links of the request-direction route.
    pub fn fwd_links(&self) -> &[(RouterId, PortIdx)] {
        &self.fwd_links
    }

    /// Directed router links of the response-direction route.
    pub fn rev_links(&self) -> &[(RouterId, PortIdx)] {
        &self.rev_links
    }

    /// Whether either direction of the connection crosses a link that is
    /// masked in `topo` — i.e. the connection needs rerouting after a heal.
    pub fn crosses_mask(&self, topo: &Topology) -> bool {
        self.fwd_links
            .iter()
            .chain(&self.rev_links)
            .any(|&(r, p)| topo.is_masked(r, p))
    }
}

/// Configuration cost counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConfigStats {
    /// Register writes issued (local + remote).
    pub reg_writes: u64,
    /// Register writes that crossed the NoC as messages.
    pub remote_writes: u64,
    /// Configuration request messages sent through the NoC.
    pub config_messages: u64,
    /// Acknowledgment messages received.
    pub acks: u64,
    /// Cycles spent waiting for acknowledgments.
    pub cycles_waited: u64,
    /// User connections opened.
    pub connections_opened: u64,
    /// User connections closed.
    pub connections_closed: u64,
    /// Configuration connections opened (Fig. 9 steps 1–2).
    pub config_connections_opened: u64,
}

/// Configuration failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// No usable route between the endpoints — after a heal this means the
    /// link mask has disconnected them.
    Route(RouteError),
    /// Slot allocation failed.
    Slots(SlotError),
    /// No acknowledgment within the timeout.
    Timeout,
    /// The remote CNIP rejected an operation.
    Nack(RespStatus),
    /// The config port has no free channel for another configuration
    /// connection.
    ChannelsExhausted,
    /// A connection over a multi-segment route whose per-packet word
    /// budget cannot carry the header, every route-continuation word and
    /// at least one payload word — raise `max_packet_words`, or (GT)
    /// reserve a longer consecutive slot run.
    PacketBudgetTooSmall {
        /// Words one packet must at least carry (`2 + gateway_count`).
        needed_words: usize,
        /// Words the sender's packet budget guarantees.
        budget_words: usize,
    },
    /// A configuration connection whose bootstrap cannot complete: Fig. 9
    /// step 2 sends every register write of the target's response channel
    /// (Space, `PATH_RQID`, one `PATH_EXT` per continuation segment of the
    /// return route, Ctrl) into the target's CNIP queue *before* that
    /// channel is enabled, so no credit can return until the last one
    /// lands — together they must fit the queue, or the configurator's
    /// `Space` counter runs dry and the enable is never sent. Give the
    /// target's CNIP port a deeper queue (`queue_words`), or place the
    /// configuration module closer.
    BootstrapQueueTooSmall {
        /// Words the bootstrap writes occupy (`3 × (3 + continuation
        /// segments of the return route)`).
        needed_words: usize,
        /// Capacity of the target's CNIP destination queue, words.
        queue_words: usize,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::Route(e) => write!(f, "no usable route: {e}"),
            ConfigError::Slots(e) => write!(f, "slot allocation failed: {e}"),
            ConfigError::Timeout => write!(f, "configuration acknowledgment timed out"),
            ConfigError::Nack(s) => write!(f, "remote CNIP rejected the operation: {s}"),
            ConfigError::ChannelsExhausted => {
                write!(f, "no free configuration channel at the config port")
            }
            ConfigError::PacketBudgetTooSmall {
                needed_words,
                budget_words,
            } => {
                write!(
                    f,
                    "packet budget of {budget_words} words cannot carry a \
                     {needed_words}-word two-level packet; raise \
                     max_packet_words or reserve a longer consecutive slot run"
                )
            }
            ConfigError::BootstrapQueueTooSmall {
                needed_words,
                queue_words,
            } => {
                write!(
                    f,
                    "configuration-connection bootstrap needs {needed_words} \
                     words in the target's CNIP queue before any credit can \
                     return, but the queue holds {queue_words}; deepen the \
                     CNIP port's queue_words"
                )
            }
        }
    }
}

impl std::error::Error for ConfigError {}

impl From<SlotError> for ConfigError {
    fn from(e: SlotError) -> Self {
        ConfigError::Slots(e)
    }
}

impl From<RouteError> for ConfigError {
    fn from(e: RouteError) -> Self {
        ConfigError::Route(e)
    }
}

/// The centralized configuration module.
#[derive(Debug, Clone)]
pub struct RuntimeConfigurator {
    cfg_ni: usize,
    cfg_port: usize,
    topo: Topology,
    allocator: SlotAllocator,
    bound: HashMap<usize, usize>,
    next_local: usize,
    tid: u16,
    stats: ConfigStats,
    ack_timeout: u64,
}

impl RuntimeConfigurator {
    /// Creates the configurator sitting on `(cfg_ni, cfg_port)` — a config
    /// shell port — for a NoC with `stu_slots`-entry slot tables.
    pub fn new(topo: Topology, cfg_ni: usize, cfg_port: usize, stu_slots: usize) -> Self {
        RuntimeConfigurator {
            cfg_ni,
            cfg_port,
            topo,
            allocator: SlotAllocator::new(stu_slots),
            bound: HashMap::new(),
            next_local: 0,
            tid: 0,
            stats: ConfigStats::default(),
            ack_timeout: 200_000,
        }
    }

    /// Cost counters.
    pub fn stats(&self) -> &ConfigStats {
        &self.stats
    }

    /// The configurator's view of the topology — including any link mask
    /// installed by [`RuntimeConfigurator::heal`].
    pub fn topo(&self) -> &Topology {
        &self.topo
    }

    /// The slot allocator (centralized slot information, §3).
    pub fn allocator(&self) -> &SlotAllocator {
        &self.allocator
    }

    fn next_tid(&mut self) -> u16 {
        self.tid = (self.tid + 1) & aethereal_ni::message::MAX_TRANS_ID;
        self.tid
    }

    /// Issues one register write; `ack` makes it an acknowledged write that
    /// is waited for.
    fn write(
        &mut self,
        sys: &mut NocSystem,
        target_ni: usize,
        reg: u32,
        value: u32,
        ack: bool,
    ) -> Result<(), ConfigError> {
        let tid = self.next_tid();
        let addr = global_addr(target_ni, reg);
        let t = if ack {
            Transaction::acked_write(addr, vec![value], tid)
        } else {
            Transaction::write(addr, vec![value], tid)
        };
        self.stats.reg_writes += 1;
        if target_ni != self.cfg_ni {
            self.stats.remote_writes += 1;
            self.stats.config_messages += 1;
        }
        sys.nis[self.cfg_ni].config_mut(self.cfg_port).submit(t);
        if ack {
            let from = sys.cycle();
            let resp = self.wait_response(sys, tid);
            self.stats.cycles_waited += sys.cycle() - from;
            let status = resp?.status;
            if status != RespStatus::Ok {
                return Err(ConfigError::Nack(status));
            }
            self.stats.acks += 1;
            if target_ni != self.cfg_ni {
                self.stats.config_messages += 1; // the ack message itself
            }
        }
        Ok(())
    }

    /// Advances `sys` until the response to transaction `tid` is on the
    /// configuration port, and takes it. Exact to the cycle: a response
    /// arrives only through activity, and every active cycle is ticked
    /// and checked; only a system that cannot answer is skipped over.
    ///
    /// # Errors
    ///
    /// [`ConfigError::Timeout`] once `ack_timeout` cycles have passed.
    pub(crate) fn wait_response(
        &self,
        sys: &mut NocSystem,
        tid: u16,
    ) -> Result<TransactionResponse, ConfigError> {
        let (ni, port) = (self.cfg_ni, self.cfg_port);
        let deadline = sys.cycle() + self.ack_timeout;
        loop {
            let left = deadline - sys.cycle();
            if !Engine::run_until_horizon(sys, |s| s.nis[ni].config_response_ready(port), left) {
                return Err(ConfigError::Timeout);
            }
            let taken = sys.nis[ni].config_mut(port).take_response();
            let r = taken.expect("the wait ended on a response");
            if r.trans_id == tid {
                return Ok(r);
            }
            // A stale ack from an earlier acked write: ignore.
        }
    }

    /// Writes the route registers of a channel: `PATH_RQID` with the header
    /// segment (which also clears any stale `PATH_EXT`), then one
    /// `PATH_EXT` register per continuation segment. Short routes cost
    /// exactly the seed's single write.
    fn write_route(
        &mut self,
        sys: &mut NocSystem,
        target_ni: usize,
        channel: usize,
        route: &Route,
        remote_qid: u8,
    ) -> Result<(), ConfigError> {
        self.write(
            sys,
            target_ni,
            chan_reg_addr(channel, ChanReg::PathRqid),
            pack_path_rqid(route.header_segment(), remote_qid),
            false,
        )?;
        for (k, w) in route.continuation_words().enumerate() {
            self.write(sys, target_ni, ext_reg_addr(channel, k), w, false)?;
        }
        Ok(())
    }

    /// Rejects service whose per-packet word budget cannot carry a
    /// two-level packet making forward progress (header + continuation
    /// words + one payload word). BE packets are bounded by the sender's
    /// `max_packet_words`; GT packets additionally by the reserved slot
    /// run.
    fn budget_check(
        &self,
        sys: &NocSystem,
        sender_ni: usize,
        route: &Route,
        service: Service,
    ) -> Result<(), ConfigError> {
        if route.is_single() {
            return Ok(());
        }
        let max_packet = sys.nis[sender_ni].kernel.spec().max_packet_words;
        let budget_words = match service {
            Service::BestEffort => max_packet,
            Service::Guaranteed { slots, strategy } => {
                let run = match strategy {
                    SlotStrategy::Consecutive => slots,
                    SlotStrategy::Spread => 1,
                };
                usize::min(run * SLOT_WORDS as usize, max_packet)
            }
        };
        let needed_words = 2 + route.gateway_count();
        if budget_words < needed_words {
            return Err(ConfigError::PacketBudgetTooSmall {
                needed_words,
                budget_words,
            });
        }
        Ok(())
    }

    /// Opens the configuration connection Cfg → `target` CNIP (Fig. 9 steps
    /// 1 and 2). Idempotent.
    ///
    /// # Errors
    ///
    /// See [`ConfigError`].
    pub fn open_config_connection(
        &mut self,
        sys: &mut NocSystem,
        target: usize,
    ) -> Result<(), ConfigError> {
        if target == self.cfg_ni || self.bound.contains_key(&target) {
            return Ok(());
        }
        let p_fwd = self.topo.route_any(self.cfg_ni, target)?;
        let p_rev = self.topo.route_any(target, self.cfg_ni)?;
        // Both configuration channels are best-effort message streams;
        // reject undersized packet budgets here rather than letting the
        // acknowledged enable write time out on a starved channel.
        self.budget_check(sys, self.cfg_ni, &p_fwd, Service::BestEffort)?;
        self.budget_check(sys, target, &p_rev, Service::BestEffort)?;
        let target_cnip = sys.nis[target]
            .kernel
            .spec()
            .cnip_channel
            .expect("target NI must expose a CNIP");
        let cnip_space = sys.nis[target].kernel.dst_capacity(target_cnip) as u32;
        // Step 2 below lands whole in the target's CNIP queue before the
        // response channel can return a single credit; an oversized
        // bootstrap would stall silently until the acknowledgment timeout.
        let needed_words = bootstrap_words(&p_rev);
        if needed_words > cnip_space as usize {
            return Err(ConfigError::BootstrapQueueTooSmall {
                needed_words,
                queue_words: cnip_space as usize,
            });
        }
        let stack = sys.nis[self.cfg_ni].config_mut(self.cfg_port);
        let locals = stack.channels().len();
        if self.next_local >= locals {
            return Err(ConfigError::ChannelsExhausted);
        }
        let local = self.next_local;
        let cfg_channel = stack.channels()[local];
        self.next_local += 1;
        let cfg_space = sys.nis[self.cfg_ni].kernel.dst_capacity(cfg_channel) as u32;
        // Step 1: request channel Cfg → target CNIP, local writes. Space
        // and path are written before enable so a half-configured channel
        // can never emit a packet with a garbage route.
        self.write(
            sys,
            self.cfg_ni,
            chan_reg_addr(cfg_channel, ChanReg::Space),
            cnip_space,
            false,
        )?;
        self.write_route(sys, self.cfg_ni, cfg_channel, &p_fwd, target_cnip as u8)?;
        self.write(
            sys,
            self.cfg_ni,
            chan_reg_addr(cfg_channel, ChanReg::Ctrl),
            CTRL_ENABLE,
            false,
        )?;
        sys.nis[self.cfg_ni]
            .config_mut(self.cfg_port)
            .bind(target, local);
        self.bound.insert(target, local);
        // Step 2: response channel target CNIP → Cfg, via the NoC; the last
        // write (the enable) requests an acknowledgment (Fig. 9).
        self.write(
            sys,
            target,
            chan_reg_addr(target_cnip, ChanReg::Space),
            cfg_space,
            false,
        )?;
        self.write_route(sys, target, target_cnip, &p_rev, cfg_channel as u8)?;
        self.write(
            sys,
            target,
            chan_reg_addr(target_cnip, ChanReg::Ctrl),
            CTRL_ENABLE,
            true,
        )?;
        self.stats.config_connections_opened += 1;
        Ok(())
    }

    /// Configures one end of a connection. `is_master_end` selects the
    /// 5-register master flavour (with thresholds) vs the 3-register slave
    /// flavour; GT ends additionally get their slot-table entries.
    #[allow(clippy::too_many_arguments)]
    fn configure_end(
        &mut self,
        sys: &mut NocSystem,
        end: ChannelEnd,
        route: &Route,
        remote_qid: u8,
        space: u32,
        service: Service,
        alloc: Option<&SlotAllocation>,
        req: &ConnectionRequest,
        is_master_end: bool,
    ) -> Result<(), ConfigError> {
        let gt_bit = if service.is_gt() { CTRL_GT } else { 0 };
        // Space and path before enable, so an already-filled source queue
        // cannot leak onto a half-configured channel.
        self.write(
            sys,
            end.ni,
            chan_reg_addr(end.channel, ChanReg::Space),
            space,
            false,
        )?;
        self.write_route(sys, end.ni, end.channel, route, remote_qid)?;
        if is_master_end {
            self.write(
                sys,
                end.ni,
                chan_reg_addr(end.channel, ChanReg::DataThreshold),
                req.data_threshold,
                false,
            )?;
            self.write(
                sys,
                end.ni,
                chan_reg_addr(end.channel, ChanReg::CreditThreshold),
                req.credit_threshold,
                false,
            )?;
        }
        if let Some(alloc) = alloc {
            for &s in &alloc.injection_slots {
                self.write(sys, end.ni, slot_reg_addr(s), end.channel as u32 + 1, false)?;
            }
        }
        self.write(
            sys,
            end.ni,
            chan_reg_addr(end.channel, ChanReg::Ctrl),
            CTRL_ENABLE | gt_bit,
            true,
        )
    }

    /// Opens a user connection (Fig. 9 steps 3 and 4): first the response
    /// channel at the slave NI, then the request channel at the master NI.
    ///
    /// # Errors
    ///
    /// See [`ConfigError`]; on slot-allocation failure nothing is changed.
    pub fn open_connection(
        &mut self,
        sys: &mut NocSystem,
        req: &ConnectionRequest,
    ) -> Result<ConnectionHandle, ConfigError> {
        self.open_config_connection(sys, req.master.ni)?;
        self.open_config_connection(sys, req.slave.ni)?;
        let p_req = self.topo.route_any(req.master.ni, req.slave.ni)?;
        let p_resp = self.topo.route_any(req.slave.ni, req.master.ni)?;
        self.budget_check(sys, req.master.ni, &p_req, req.fwd)?;
        self.budget_check(sys, req.slave.ni, &p_resp, req.rev)?;
        let fwd_alloc = match req.fwd {
            Service::Guaranteed { slots, strategy } => Some(self.allocator.allocate_route(
                &self.topo,
                req.master.ni,
                &p_req,
                slots,
                strategy,
            )?),
            Service::BestEffort => None,
        };
        let rev_alloc = match req.rev {
            Service::Guaranteed { slots, strategy } => {
                match self.allocator.allocate_route(
                    &self.topo,
                    req.slave.ni,
                    &p_resp,
                    slots,
                    strategy,
                ) {
                    Ok(a) => Some(a),
                    Err(e) => {
                        if let Some(f) = &fwd_alloc {
                            self.allocator.free(f);
                        }
                        return Err(e.into());
                    }
                }
            }
            Service::BestEffort => None,
        };
        let master_space = sys.nis[req.slave.ni].kernel.dst_capacity(req.slave.channel) as u32;
        let slave_space = sys.nis[req.master.ni]
            .kernel
            .dst_capacity(req.master.channel) as u32;
        // Step 3: response channel (A → B) at the slave NI.
        self.configure_end(
            sys,
            req.slave,
            &p_resp,
            req.master.channel as u8,
            slave_space,
            req.rev,
            rev_alloc.as_ref(),
            req,
            false,
        )?;
        // Step 4: request channel (B → A) at the master NI.
        self.configure_end(
            sys,
            req.master,
            &p_req,
            req.slave.channel as u8,
            master_space,
            req.fwd,
            fwd_alloc.as_ref(),
            req,
            true,
        )?;
        self.stats.connections_opened += 1;
        Ok(ConnectionHandle {
            request: req.clone(),
            fwd_alloc,
            rev_alloc,
            fwd_links: router_links(&self.topo, req.master.ni, &p_req),
            rev_links: router_links(&self.topo, req.slave.ni, &p_resp),
        })
    }

    /// Closes a connection: disables both channels, clears their slot-table
    /// entries and releases the slot reservations.
    ///
    /// # Errors
    ///
    /// See [`ConfigError`].
    pub fn close_connection(
        &mut self,
        sys: &mut NocSystem,
        handle: &ConnectionHandle,
    ) -> Result<(), ConfigError> {
        let req = &handle.request;
        // Master first so no new requests enter a half-closed connection.
        if let Some(a) = &handle.fwd_alloc {
            for &s in &a.injection_slots {
                self.write(sys, req.master.ni, slot_reg_addr(s), 0, false)?;
            }
            self.allocator.free(a);
        }
        self.write(
            sys,
            req.master.ni,
            chan_reg_addr(req.master.channel, ChanReg::Ctrl),
            0,
            true,
        )?;
        if let Some(a) = &handle.rev_alloc {
            for &s in &a.injection_slots {
                self.write(sys, req.slave.ni, slot_reg_addr(s), 0, false)?;
            }
            self.allocator.free(a);
        }
        self.write(
            sys,
            req.slave.ni,
            chan_reg_addr(req.slave.channel, ChanReg::Ctrl),
            0,
            true,
        )?;
        self.stats.connections_closed += 1;
        Ok(())
    }

    /// Rewrites the route registers of one already-open configuration
    /// connection Cfg ↔ `target` along the current (masked) topology. The
    /// local request path is rewritten first so the remote rewrite of the
    /// response path already travels the detour.
    fn reroute_config_connection(
        &mut self,
        sys: &mut NocSystem,
        target: usize,
        local: usize,
    ) -> Result<(), ConfigError> {
        let p_fwd = self.topo.route_any(self.cfg_ni, target)?;
        let p_rev = self.topo.route_any(target, self.cfg_ni)?;
        let cfg_channel = sys.nis[self.cfg_ni].config_mut(self.cfg_port).channels()[local];
        let target_cnip = sys.nis[target]
            .kernel
            .spec()
            .cnip_channel
            .expect("bound target NI must expose a CNIP");
        self.write_route(sys, self.cfg_ni, cfg_channel, &p_fwd, target_cnip as u8)?;
        self.write_route(sys, target, target_cnip, &p_rev, cfg_channel as u8)?;
        Ok(())
    }

    /// Recovers from a [`FaultReport`]: masks every suspect link in the
    /// configurator's topology, reroutes the Cfg's own configuration
    /// connections around the mask, then closes and reopens every affected
    /// user connection (releasing and re-allocating GT slots along the new
    /// routes).
    ///
    /// Best-effort connections degrade gracefully — they simply come back
    /// on a detour. Guaranteed-throughput connections either re-establish
    /// with fresh slot reservations or fail loudly: a request that cannot
    /// be rerouted (endpoints disconnected by the mask, no feasible slots
    /// on the detour) lands in [`HealOutcome::failed`] with its structured
    /// [`ConfigError`], and the remaining connections still heal.
    ///
    /// The network should be drained (configuration traffic settled, no
    /// in-flight user worms on the affected routes) when this is called,
    /// exactly as for any other reconfiguration.
    ///
    /// # Errors
    ///
    /// Returns an error only when the healing *plumbing* fails — a
    /// configuration connection cannot be rerouted or a close times out.
    /// Per-connection reopen failures are reported in
    /// [`HealOutcome::failed`] instead.
    pub fn heal(
        &mut self,
        sys: &mut NocSystem,
        report: &FaultReport,
        handles: Vec<ConnectionHandle>,
    ) -> Result<HealOutcome, ConfigError> {
        // 1. Fold the report into the planner's link mask.
        let mut masked = Vec::new();
        for s in &report.suspects {
            if s.router_wide {
                for p in 0..self.topo.ports_of(s.router) {
                    if !self.topo.is_masked(s.router, p as PortIdx) {
                        self.topo.mask_link(s.router, p as PortIdx);
                        masked.push((s.router, p as PortIdx));
                    }
                }
            } else if !self.topo.is_masked(s.router, s.port) {
                self.topo.mask_link(s.router, s.port);
                masked.push((s.router, s.port));
            }
        }
        // 2. Reroute the configuration connections first: every remote
        // register write below must already take the detour. Sorted for a
        // deterministic write order.
        let mut bound: Vec<(usize, usize)> = self.bound.iter().map(|(&t, &l)| (t, l)).collect();
        bound.sort_unstable();
        for (target, local) in bound {
            self.reroute_config_connection(sys, target, local)?;
        }
        // 3. Re-establish every user connection that crosses the mask.
        let mut outcome = HealOutcome {
            healthy: Vec::with_capacity(handles.len()),
            failed: Vec::new(),
            masked,
            reopened: 0,
        };
        for h in handles {
            if !h.crosses_mask(&self.topo) {
                outcome.healthy.push(h);
                continue;
            }
            self.close_connection(sys, &h)?;
            match self.open_connection(sys, &h.request) {
                Ok(nh) => {
                    outcome.reopened += 1;
                    outcome.healthy.push(nh);
                }
                Err(e) => outcome.failed.push((h.request, e)),
            }
        }
        Ok(outcome)
    }
}

/// What [`RuntimeConfigurator::heal`] did.
#[derive(Debug)]
pub struct HealOutcome {
    /// Every connection that is open after healing: untouched handles plus
    /// the fresh handles of rerouted connections.
    pub healthy: Vec<ConnectionHandle>,
    /// Connections that could not be re-established, with the structured
    /// error (disconnected endpoints, no feasible GT slots on the detour,
    /// …). These are closed.
    pub failed: Vec<(ConnectionRequest, ConfigError)>,
    /// Directed links newly masked by this heal.
    pub masked: Vec<(RouterId, PortIdx)>,
    /// Connections closed and reopened around the mask.
    pub reopened: usize,
}

/// Words Fig. 9 step 2 sends toward a target CNIP whose return route is
/// `p_rev`, from the encoded length of the single-register write message
/// [`RuntimeConfigurator::write`] issues: Space, `PATH_RQID`, one
/// `PATH_EXT` per continuation segment, Ctrl.
fn bootstrap_words(p_rev: &Route) -> usize {
    let write_words = RequestMsg::from_transaction(&Transaction::write(0, vec![0], 0), None)
        .encode()
        .len();
    (3 + p_rev.continuation_words().count()) * write_words
}

/// The directed router links of `route` from NI `from`, with the
/// unmaskable NI-injection pseudo link filtered out.
fn router_links(topo: &Topology, from: usize, route: &Route) -> Vec<(RouterId, PortIdx)> {
    topo.links_of_route_segmented(from, route)
        .into_iter()
        .filter(|l| l.router != usize::MAX)
        .map(|l| (l.router, l.port))
        .collect()
}

//! The NI kernel (Fig. 2 of the paper): per-channel queues, end-to-end
//! credit-based flow control, the GT slot table (STU), BE arbitration,
//! packetization/depacketization, the threshold/flush machinery, the
//! memory-mapped register file, and the built-in CNIP slave.
//!
//! The kernel is an endpoint on the engine's two-phase cycle contract: it
//! implements [`ClockedWith<NiLink>`] and one `tick` (absorb, then emit)
//! advances it by one 500 MHz network cycle:
//!
//! 1. **depacketize** everything delivered by the router (credits are added
//!    to `Space`, payload lands in destination queues selected by the header
//!    queue id);
//! 2. **service the CNIP** (one register operation word per cycle);
//! 3. at a slot boundary with an idle packetizer, **build** the next GT
//!    packet (if the current slot is reserved and its channel eligible) and
//!    the next BE packet (arbitrated among eligible BE channels);
//! 4. **emit** one word toward the router — GT words in their reserved
//!    slots with absolute priority, BE words whenever the link and its
//!    credits allow.

pub mod channel;
pub mod regs;
pub mod sched;

pub use channel::{Channel, ChannelId, ChannelStats};
pub use regs::{
    chan_reg_addr, ext_reg_addr, pack_path_rqid, slot_reg_addr, ChanReg, RegError, PATH_EXT_REGS,
};
pub use sched::ArbPolicy;

use crate::fifo::{FifoFullError, DEFAULT_CROSSING_CYCLES};
use crate::message::{MessageAssembler, MsgKind, Ordering, RequestMsg, ResponseMsg};
use crate::transaction::{Cmd, RespStatus, TransactionResponse};
use noc_sim::engine::ClockedWith;
use noc_sim::header::MAX_HEADER_CREDITS;
use noc_sim::{LinkWord, NiLink, PacketHeader, Path, WordClass, SLOT_WORDS};
use regs::{RegAddr, CTRL_ENABLE, CTRL_GT};
use sched::ArbState;
use std::collections::VecDeque;

/// Geometry of one NI port (selected at instantiation time, §4.1: "their
/// maximum number being selected at NI instantiation time").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortSpec {
    /// Number of point-to-point channels at this port.
    pub channels: usize,
    /// Port clock divisor relative to the 500 MHz network clock (each port
    /// "can have a different clock frequency", §4.1).
    pub clock_div: u32,
    /// Source/destination queue depth per channel, in 32-bit words.
    pub queue_words: usize,
    /// Clock-domain-crossing latency of the port's FIFOs, in network cycles.
    pub crossing: u64,
}

impl Default for PortSpec {
    fn default() -> Self {
        PortSpec {
            channels: 1,
            clock_div: 1,
            queue_words: 8,
            crossing: DEFAULT_CROSSING_CYCLES,
        }
    }
}

/// Design-time parameters of an NI kernel instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NiKernelSpec {
    /// NI identifier (readable at register [`regs::REG_NI_ID`]).
    pub ni_id: usize,
    /// Slot-table size of the STU.
    pub stu_slots: usize,
    /// Maximum packet length in words, header included (§4.1: "packets have
    /// a maximum length to avoid links being used exclusively by a
    /// packet/channel").
    pub max_packet_words: usize,
    /// BE arbitration policy.
    pub arb: ArbPolicy,
    /// Ports, in id order.
    pub ports: Vec<PortSpec>,
    /// The channel acting as the CNIP slave endpoint (config port), if any.
    pub cnip_channel: Option<ChannelId>,
}

impl NiKernelSpec {
    /// The reference instance synthesized in §5 of the paper: an STU of 8
    /// slots and 4 ports with 1, 1, 2 and 4 channels, all queues 32-bit wide
    /// and 8 words deep; port 0 is the configuration port (CNIP on channel
    /// 0).
    pub fn reference(ni_id: usize) -> Self {
        NiKernelSpec {
            ni_id,
            stu_slots: 8,
            max_packet_words: 12,
            arb: ArbPolicy::RoundRobin,
            ports: vec![
                PortSpec {
                    channels: 1,
                    ..PortSpec::default()
                },
                PortSpec {
                    channels: 1,
                    ..PortSpec::default()
                },
                PortSpec {
                    channels: 2,
                    ..PortSpec::default()
                },
                PortSpec {
                    channels: 4,
                    ..PortSpec::default()
                },
            ],
            cnip_channel: Some(0),
        }
    }

    /// Total channels across all ports.
    pub fn total_channels(&self) -> usize {
        self.ports.iter().map(|p| p.channels).sum()
    }
}

impl Default for NiKernelSpec {
    fn default() -> Self {
        Self::reference(0)
    }
}

/// Kernel-level statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NiKernelStats {
    /// Packets sent per class (`[GT, BE]`).
    pub packets_tx: [u64; 2],
    /// Packets received per class.
    pub packets_rx: [u64; 2],
    /// Header words sent.
    pub header_words_tx: u64,
    /// Payload words sent.
    pub payload_words_tx: u64,
    /// Route-continuation words sent (two-level routing overhead; consumed
    /// by gateway routers, never delivered).
    pub route_ext_words_tx: u64,
    /// Credit-only packets sent.
    pub credit_only_tx: u64,
    /// GT slots that passed unused although reserved (owner not eligible).
    pub gt_slots_unused: u64,
    /// Register operations executed through the CNIP.
    pub cnip_ops: u64,
    /// Words dropped at the destination: they addressed a disabled or
    /// unknown queue, or arrived at a full destination queue in violation
    /// of end-to-end flow control. Must stay zero in a correctly
    /// configured, fault-free NoC; under fault injection (corrupted
    /// headers, lost credits) this is the NI-visible health counter the
    /// fault report aggregates.
    pub rx_drops: u64,
}

/// The NI kernel.
#[derive(Debug, Clone)]
pub struct NiKernel {
    spec: NiKernelSpec,
    channels: Vec<Channel>,
    /// First channel id of each port.
    port_first: Vec<usize>,
    /// `slot_table[s]`: 0 = free, `ch+1` = reserved for channel `ch`.
    slot_table: Vec<u32>,
    arb: ArbState,
    tx_gt: VecDeque<LinkWord>,
    tx_be: VecDeque<LinkWord>,
    /// Per class: destination queue of the packet currently being received.
    rx_cur: [Option<ChannelId>; 2],
    cnip: Option<CnipState>,
    stats: NiKernelStats,
    /// Number of reserved entries in `slot_table`. Derived (recounted on
    /// slot writes and by the state walk), so a sleeping kernel that
    /// owns no slot does no per-cycle accounting at all.
    owned_slots: u32,
    /// Whether anything mutated the kernel since the last full
    /// [`Ni`](crate::Ni) tick ended — the cue that evaluating a sleep
    /// horizon would be wasted work. Derived; see [`NiKernel::touch`].
    moved: bool,
    /// The cached [`dormant_until`](ClockedWith::dormant_until) horizon of
    /// the enclosing [`Ni`](crate::Ni): every tick strictly before it only
    /// records reserved-but-unused slots, provided the inbox stays empty.
    /// `0` = awake. Derived: zeroed by every mutation
    /// ([`NiKernel::touch`]), never serialised, outside every digest.
    asleep_until: u64,
}

#[derive(Debug, Clone)]
struct CnipState {
    channel: ChannelId,
    asm: MessageAssembler,
    out: VecDeque<u32>,
}

impl NiKernel {
    /// Instantiates a kernel from its design-time spec.
    ///
    /// # Panics
    ///
    /// Panics if the spec exceeds the header encoding limits (more than
    /// [`noc_sim::header::MAX_QUEUES`] channels), has no ports, or names a
    /// CNIP channel that does not exist.
    pub fn new(spec: NiKernelSpec) -> Self {
        assert!(!spec.ports.is_empty(), "an NI needs at least one port");
        assert!(
            spec.stu_slots >= 1 && spec.stu_slots <= 64,
            "STU size out of range"
        );
        assert!(
            spec.max_packet_words >= 2,
            "packets need room for a header and data"
        );
        let total = spec.total_channels();
        assert!(
            total <= noc_sim::header::MAX_QUEUES,
            "{total} channels exceed the header qid field"
        );
        if let Some(c) = spec.cnip_channel {
            assert!(c < total, "CNIP channel {c} out of range");
        }
        let mut channels = Vec::with_capacity(total);
        let mut port_first = Vec::with_capacity(spec.ports.len());
        for (p, ps) in spec.ports.iter().enumerate() {
            assert!(ps.channels >= 1, "port {p} needs at least one channel");
            assert!(ps.clock_div >= 1, "port {p} clock divisor must be ≥ 1");
            port_first.push(channels.len());
            for _ in 0..ps.channels {
                channels.push(Channel::new(channels.len(), p, ps.queue_words, ps.crossing));
            }
        }
        let cnip = spec.cnip_channel.map(|channel| CnipState {
            channel,
            asm: MessageAssembler::new(MsgKind::Request, Ordering::InOrder),
            out: VecDeque::new(),
        });
        NiKernel {
            slot_table: vec![0; spec.stu_slots],
            channels,
            port_first,
            arb: ArbState::default(),
            tx_gt: VecDeque::with_capacity(spec.max_packet_words),
            tx_be: VecDeque::with_capacity(spec.max_packet_words),
            rx_cur: [None, None],
            cnip,
            stats: NiKernelStats::default(),
            owned_slots: 0,
            moved: true,
            asleep_until: 0,
            spec,
        }
    }

    // ---- Sleep state (derived; driven by `Ni::tick`) -------------------

    /// Records a mutation: whatever horizon was cached no longer describes
    /// this state. Called from every path that changes scheduling-relevant
    /// state — source pushes, destination pops, register writes, flushes,
    /// inbox arrivals, packetization — and from the walks that rewrite
    /// state wholesale (restore, a fast-forward apply) or move time
    /// without ticking (`skip`). Never from mere access: handing out
    /// `&mut NiKernel` wakes nothing.
    #[inline]
    fn touch(&mut self) {
        self.moved = true;
        self.asleep_until = 0;
    }

    /// The cached sleep horizon (`0` = awake).
    #[inline]
    pub(crate) fn asleep_until(&self) -> u64 {
        self.asleep_until
    }

    /// Ends a full tick: reports whether nothing moved since the previous
    /// full tick ended (IP phase included) and re-arms the flag.
    #[inline]
    pub(crate) fn settle(&mut self) -> bool {
        !std::mem::take(&mut self.moved)
    }

    /// Caches `horizon` as the cycle to sleep until (`0` = stay awake).
    #[inline]
    pub(crate) fn sleep_until(&mut self, horizon: u64) {
        self.asleep_until = horizon;
    }

    /// One cycle spent asleep: the only effect a tick of a dormant kernel
    /// has is the reserved slot passing unused at a slot boundary — the
    /// per-cycle form of the arithmetic in [`skip`](ClockedWith::skip), so
    /// `gt_slots_unused` stays exact after every cycle.
    #[inline]
    pub(crate) fn sleep_tick(&mut self, cycle: u64) {
        if self.owned_slots != 0 && cycle.is_multiple_of(SLOT_WORDS) {
            let slot = ((cycle / SLOT_WORDS) % self.spec.stu_slots as u64) as usize;
            self.stats.gt_slots_unused += u64::from(self.slot_table[slot] != 0);
        }
    }

    /// The design-time spec.
    pub fn spec(&self) -> &NiKernelSpec {
        &self.spec
    }

    /// Kernel statistics.
    pub fn stats(&self) -> &NiKernelStats {
        &self.stats
    }

    /// Number of channels.
    pub fn channel_count(&self) -> usize {
        self.channels.len()
    }

    /// Immutable channel access.
    ///
    /// # Panics
    ///
    /// Panics if `ch` is out of range.
    pub fn channel(&self, ch: ChannelId) -> &Channel {
        &self.channels[ch]
    }

    /// Channel ids belonging to port `port`.
    pub fn port_channels(&self, port: usize) -> std::ops::Range<usize> {
        let first = self.port_first[port];
        first..first + self.spec.ports[port].channels
    }

    /// Clock divisor of `port`.
    pub fn port_clock_div(&self, port: usize) -> u32 {
        self.spec.ports[port].clock_div
    }

    /// Current slot-table contents (0 = free, `ch+1` = reserved).
    pub fn slot_table(&self) -> &[u32] {
        &self.slot_table
    }

    // ---- IP/shell-side interface -------------------------------------

    /// Free space in the source queue of `ch` (for shell back-pressure).
    pub fn src_space(&self, ch: ChannelId) -> usize {
        self.channels[ch].src_q.space()
    }

    /// Pushes one word into the source queue of `ch` at cycle `now`.
    ///
    /// # Errors
    ///
    /// Returns [`FifoFullError`] when the queue is full.
    pub fn push_src(&mut self, ch: ChannelId, word: u32, now: u64) -> Result<(), FifoFullError> {
        self.channels[ch].src_q.push(word, now)?;
        self.touch();
        Ok(())
    }

    /// Pops one word from the destination queue of `ch`, producing one
    /// end-to-end credit (§4.1: "when data is consumed by the IP module…
    /// credits are produced").
    pub fn pop_dst(&mut self, ch: ChannelId, now: u64) -> Option<u32> {
        let c = &mut self.channels[ch];
        let w = c.dst_q.pop(now)?;
        c.credit_counter += 1;
        self.touch();
        Some(w)
    }

    /// Peeks the destination queue of `ch`.
    pub fn peek_dst(&self, ch: ChannelId, now: u64) -> Option<u32> {
        self.channels[ch].dst_q.peek(now)
    }

    /// Words visible to the IP side in the destination queue of `ch`.
    pub fn dst_level(&self, ch: ChannelId, now: u64) -> usize {
        self.channels[ch].dst_q.sync_level(now)
    }

    /// Capacity of the destination queue of `ch`, words (what a remote
    /// sender's `SPACE` register must be initialized to).
    pub fn dst_capacity(&self, ch: ChannelId) -> usize {
        self.channels[ch].dst_q_capacity()
    }

    /// Raises the flush signal of `ch` (threshold bypass snapshot, §4.1).
    pub fn flush(&mut self, ch: ChannelId) {
        self.channels[ch].flush();
        self.touch();
    }

    /// Forces the credits of `ch` out below their threshold.
    pub fn flush_credits(&mut self, ch: ChannelId) {
        self.channels[ch].flush_credits();
        self.touch();
    }

    // ---- Register file ------------------------------------------------

    /// Writes a control register (local access through the configuration
    /// shell, or remote access through the CNIP).
    ///
    /// # Errors
    ///
    /// See [`RegError`].
    pub fn reg_write(&mut self, addr: u32, value: u32) -> Result<(), RegError> {
        self.touch();
        match regs::decode_addr(addr, self.spec.stu_slots, self.channels.len())? {
            RegAddr::Global(_) => Err(RegError::ReadOnly { addr }),
            RegAddr::Slot(s) => {
                if value != 0 && (value - 1) as usize >= self.channels.len() {
                    return Err(RegError::BadValue { addr, value });
                }
                self.owned_slots -= u32::from(self.slot_table[s] != 0);
                self.owned_slots += u32::from(value != 0);
                self.slot_table[s] = value;
                Ok(())
            }
            RegAddr::Chan(ch, reg) => {
                let c = &mut self.channels[ch];
                match reg {
                    ChanReg::Ctrl => {
                        let enable = value & CTRL_ENABLE != 0;
                        c.gt = value & CTRL_GT != 0;
                        if !enable && c.enabled {
                            c.reset_dynamic();
                        }
                        c.enabled = enable;
                    }
                    ChanReg::Space => c.space = value,
                    ChanReg::PathRqid => {
                        c.path_rqid = value;
                        // A new base route invalidates any continuation
                        // segments, so a reconfigured channel can never leak
                        // a stale PATH_EXT; write PATH_EXT after PATH_RQID.
                        c.path_ext = [Path::empty().encode(); regs::PATH_EXT_REGS];
                    }
                    ChanReg::DataThreshold => c.data_threshold = value,
                    ChanReg::CreditThreshold => c.credit_threshold = value,
                }
                Ok(())
            }
            RegAddr::ChanExt(ch, k) => {
                if value >= (1 << noc_sim::path::PATH_BITS) {
                    return Err(RegError::BadValue { addr, value });
                }
                self.channels[ch].path_ext[k] = value;
                Ok(())
            }
        }
    }

    /// Reads a control register.
    ///
    /// # Errors
    ///
    /// See [`RegError`].
    pub fn reg_read(&self, addr: u32) -> Result<u32, RegError> {
        match regs::decode_addr(addr, self.spec.stu_slots, self.channels.len())? {
            RegAddr::Global(regs::REG_NI_ID) => Ok(self.spec.ni_id as u32),
            RegAddr::Global(regs::REG_STU_SLOTS) => Ok(self.spec.stu_slots as u32),
            RegAddr::Global(_) => Ok(self.channels.len() as u32),
            RegAddr::Slot(s) => Ok(self.slot_table[s]),
            RegAddr::Chan(ch, reg) => {
                let c = &self.channels[ch];
                Ok(match reg {
                    ChanReg::Ctrl => u32::from(c.enabled) * CTRL_ENABLE + u32::from(c.gt) * CTRL_GT,
                    ChanReg::Space => c.space,
                    ChanReg::PathRqid => c.path_rqid,
                    ChanReg::DataThreshold => c.data_threshold,
                    ChanReg::CreditThreshold => c.credit_threshold,
                })
            }
            RegAddr::ChanExt(ch, k) => Ok(self.channels[ch].path_ext[k]),
        }
    }

    // ---- Network-side cycle (the ClockedWith impl drives these) --------

    fn depacketize(&mut self, link: &mut NiLink, _cycle: u64) {
        while let Some(w) = link.recv() {
            self.touch();
            let class = w.class().index();
            if w.is_header() {
                let qid = usize::from(PacketHeader::qid_of(w.word()));
                if qid >= self.channels.len() {
                    self.stats.rx_drops += 1;
                    self.rx_cur[class] = None;
                    continue;
                }
                self.channels[qid].space += PacketHeader::credits_of(w.word());
                self.stats.packets_rx[class] += 1;
                self.rx_cur[class] = if w.is_tail() { None } else { Some(qid) };
            } else {
                let Some(ch) = self.rx_cur[class] else {
                    self.stats.rx_drops += 1;
                    continue;
                };
                // End-to-end flow control guarantees destination space in a
                // correctly configured NoC; a full queue here means the
                // remote Space counter was misconfigured — or flow control
                // itself was violated by an injected fault (a corrupted
                // header crediting the wrong queue, lost credit words).
                // Surface it as an observable drop rather than tearing the
                // whole simulation down: `rx_drops` is the NI-visible
                // health counter the fault report aggregates.
                if self.channels[ch].dst_q.push(w.word(), _cycle).is_ok() {
                    self.channels[ch].stats.words_rx += 1;
                } else {
                    self.stats.rx_drops += 1;
                }
                if w.is_tail() {
                    self.rx_cur[class] = None;
                }
            }
        }
    }

    /// Services the configuration port: one word in or out per cycle
    /// (a memory-mapped slave operating at line rate).
    fn service_cnip(&mut self, now: u64) {
        // Almost every cycle of almost every NI has nothing to do here — no
        // response word staged, no request assembled, no word in the CNIP
        // channel's destination queue — and then leaves the state in place.
        let channels = &self.channels;
        let Some(mut cnip) = self.cnip.take_if(|c| {
            !(c.out.is_empty() && c.asm.ready() == 0 && channels[c.channel].dst_q.is_empty())
        }) else {
            return;
        };
        // Drain one staged response word into the source queue.
        if let Some(&w) = cnip.out.front() {
            if self.push_src(cnip.channel, w, now).is_ok() {
                cnip.out.pop_front();
            }
        }
        // Consume one request word.
        if let Some(w) = self.pop_dst(cnip.channel, now) {
            cnip.asm.push_word(w);
        }
        // Execute any completed register transaction.
        while let Some(req) = cnip.asm.next_request() {
            let resp = self.execute_cnip_request(&req);
            if let Some(resp) = resp {
                cnip.out
                    .extend(ResponseMsg::from_response(&resp, None).encode());
            }
        }
        self.cnip = Some(cnip);
    }

    fn execute_cnip_request(&mut self, req: &RequestMsg) -> Option<TransactionResponse> {
        let mut status = RespStatus::Ok;
        let mut data = Vec::new();
        match req.cmd {
            Cmd::Write | Cmd::AckedWrite => {
                for (i, &w) in req.data.iter().enumerate() {
                    if self.reg_write(req.addr + i as u32, w).is_err() {
                        status = RespStatus::DecodeError;
                    }
                    self.stats.cnip_ops += 1;
                }
            }
            Cmd::Read | Cmd::ReadLinked => {
                for i in 0..u32::from(req.length) {
                    match self.reg_read(req.addr + i) {
                        Ok(v) => data.push(v),
                        Err(_) => {
                            status = RespStatus::DecodeError;
                            data.push(0);
                        }
                    }
                    self.stats.cnip_ops += 1;
                }
            }
            Cmd::WriteConditional => status = RespStatus::Unsupported,
        }
        if req.cmd.has_response() {
            Some(TransactionResponse {
                trans_id: req.trans_id,
                status,
                data,
            })
        } else {
            None
        }
    }

    /// Whether a packet of `budget_words` can make forward progress on
    /// `ch` given its route-continuation overhead: a data-bearing packet
    /// needs header + continuations + at least one payload word; a
    /// credit-only packet needs header + continuations. Channels over
    /// multi-segment routes that fail this would emit useless packets
    /// forever (or oversized ones), so their build is skipped instead.
    fn packet_fits(&self, ch: ChannelId, budget_words: usize, now: u64) -> bool {
        let c = &self.channels[ch];
        let needed = 1 + c.ext_count() + usize::from(c.data_eligible(now));
        budget_words >= needed
    }

    /// Number of consecutive slots starting at `slot` reserved for `ch`
    /// (wrapping, capped at the table size).
    fn slot_run(&self, ch: ChannelId, slot: usize) -> usize {
        let s = self.spec.stu_slots;
        let mut run = 0;
        while run < s && self.slot_table[(slot + run) % s] == (ch + 1) as u32 {
            run += 1;
        }
        run
    }

    fn build_packets(&mut self, cycle: u64) {
        let slot = ((cycle / SLOT_WORDS) % self.spec.stu_slots as u64) as usize;
        // GT: the slot's owner gets the slot (and any consecutive run).
        if self.tx_gt.is_empty() {
            if let Some(ch) = self.slot_table[slot].checked_sub(1).map(|c| c as usize) {
                let c = &self.channels[ch];
                if c.enabled && c.gt && c.eligible(cycle) {
                    let run = self.slot_run(ch, slot);
                    let budget = usize::min(run * SLOT_WORDS as usize, self.spec.max_packet_words);
                    // A multi-segment route needs header + continuation
                    // words (+ one payload word when data is pending)
                    // inside the reserved run; a too-short run passes
                    // unused (allocate a consecutive run covering at least
                    // `2 + gateway_count` words for such connections).
                    if self.packet_fits(ch, budget, cycle) {
                        let mut q = std::mem::take(&mut self.tx_gt);
                        self.build_packet_into(ch, WordClass::Guaranteed, budget, cycle, &mut q);
                        self.tx_gt = q;
                    } else {
                        self.stats.gt_slots_unused += 1;
                    }
                } else {
                    self.stats.gt_slots_unused += 1;
                }
            }
        }
        // BE: arbitrate among eligible BE channels (whose packets can make
        // progress within the packet-length limit — see `packet_fits`).
        if self.tx_be.is_empty() {
            let budget = self.spec.max_packet_words;
            let mut eligible = 0u64;
            for (ch, c) in self.channels.iter().enumerate() {
                if !c.enabled || c.gt || !c.route_configured() {
                    continue;
                }
                // `Channel::eligible` and `packet_fits` in one, with the
                // data side (a FIFO visibility scan) evaluated once.
                let data = c.data_eligible(cycle);
                if (data || c.credit_eligible()) && budget >= 1 + c.ext_count() + usize::from(data)
                {
                    eligible |= 1 << ch;
                }
            }
            let channels = &self.channels;
            if let Some(ch) = self
                .arb
                .pick(&self.spec.arb, channels.len(), eligible, |ch| {
                    channels[ch].sendable(cycle)
                })
            {
                let mut q = std::mem::take(&mut self.tx_be);
                self.build_packet_into(ch, WordClass::BestEffort, budget, cycle, &mut q);
                self.tx_be = q;
            }
        }
    }

    /// Builds one packet for `ch`: a header carrying the largest possible
    /// credit return, any route-continuation words of a multi-segment
    /// route (consumed en route by gateway routers), plus as much sendable
    /// data as the budget allows (§4.1: "once a queue is selected, a packet
    /// containing the largest possible amount of credits and data will be
    /// produced").
    fn build_packet_into(
        &mut self,
        ch: ChannelId,
        class: WordClass,
        budget_words: usize,
        now: u64,
        words: &mut VecDeque<LinkWord>,
    ) {
        debug_assert!(words.is_empty(), "packetizer must be idle");
        self.touch();
        let c = &mut self.channels[ch];
        let ext = c.ext_count();
        let credits = u32::min(c.credit_counter, MAX_HEADER_CREDITS);
        let payload = if c.data_eligible(now) {
            usize::min(c.sendable(now), budget_words.saturating_sub(1 + ext))
        } else {
            0
        };
        let header = PacketHeader::pack_encoded(
            Path::canonical_encoded(c.path_bits()),
            c.remote_qid(),
            credits,
            c.flush_remaining > 0,
        );
        c.credit_counter -= credits;
        c.credit_flush = c.credit_flush && c.credit_counter > 0;
        c.space -= payload as u32;
        c.flush_remaining = c.flush_remaining.saturating_sub(payload as u32);
        c.stats.packets_tx += 1;
        c.stats.credits_tx += u64::from(credits);
        c.stats.words_tx += payload as u64;
        self.stats.packets_tx[class.index()] += 1;
        self.stats.header_words_tx += 1;
        self.stats.payload_words_tx += payload as u64;
        self.stats.route_ext_words_tx += ext as u64;
        if payload == 0 {
            self.stats.credit_only_tx += 1;
            c.stats.credit_only_tx += 1;
        }
        if payload == 0 && ext == 0 {
            words.push_back(LinkWord::header_only(header, class));
        } else {
            words.push_back(LinkWord::header(header, class));
            for k in 0..ext {
                words.push_back(LinkWord::payload(
                    c.ext_bits(k),
                    class,
                    payload == 0 && k + 1 == ext,
                ));
            }
            for i in 0..payload {
                let w = c.src_q.pop(now).expect("sendable counted visible words");
                words.push_back(LinkWord::payload(w, class, i + 1 == payload));
            }
        }
    }

    /// The first slot boundary at or after `now` whose slot is reserved for
    /// `ch`, or `u64::MAX` when the channel owns no slot.
    fn next_owned_boundary(&self, ch: ChannelId, now: u64) -> u64 {
        let stu = self.spec.stu_slots as u64;
        let first = now.div_ceil(SLOT_WORDS);
        for k in 0..stu {
            if self.slot_table[((first + k) % stu) as usize] == (ch as u32) + 1 {
                return (first + k) * SLOT_WORDS;
            }
        }
        u64::MAX
    }

    /// The first slot boundary at or after `now` (reserved or not) — when a
    /// BE channel becomes eligible, the next boundary is where the
    /// arbitration can first pick it.
    fn next_boundary(now: u64) -> u64 {
        now.div_ceil(SLOT_WORDS) * SLOT_WORDS
    }

    /// Earliest cycle at or after `now` at which channel `c` can be
    /// scheduled on its own (no external pushes/pops), or `u64::MAX` when
    /// no passage of time can make it eligible. Exact because every input
    /// of [`Channel::eligible`] is monotone while the kernel sleeps: the
    /// visible prefix of `src_q` only grows along the push-time visibility
    /// schedule ([`HwFifo::visible_at_count`]), and `space`,
    /// `credit_counter`, thresholds and flush state only change on
    /// scheduling or external events.
    fn channel_horizon(&self, c: &Channel, now: u64) -> u64 {
        let mut horizon = u64::MAX;
        // Rx side: reactive consumers (sinks, pipeline stages) report
        // `done` and rely on the kernel to keep the system awake while
        // undelivered words sit in a destination queue. A consumer can pop
        // a word the cycle it becomes reader-visible, so the first queued
        // word's crossing stamp bounds the sleep window (a visible word
        // means "active right now").
        if !c.dst_q.is_empty() {
            horizon = c
                .dst_q
                .visible_at_count(1)
                .expect("queue is non-empty")
                .max(now);
            if horizon <= now {
                return now;
            }
        }
        if !c.enabled || !c.route_configured() {
            return horizon; // unschedulable regardless of time
        }
        if c.credit_eligible() {
            // Credits above threshold (or flush-forced) go out in the next
            // packet this channel can emit: its next reserved slot (GT) or
            // the next arbitration boundary (BE).
            horizon = horizon.min(if c.gt {
                self.next_owned_boundary(c.id(), now)
            } else {
                Self::next_boundary(now)
            });
        }
        // Data side: eligibility needs `min(visible, space) >= needed`.
        // Words below the waterline (queued but still crossing the clock
        // domain) become visible at their scheduled cycle; if even the
        // writer-side level (or the space counter) is short, only an
        // external event can help.
        let needed = if c.flush_remaining > 0 {
            1
        } else {
            c.data_threshold.max(1) as usize
        };
        if usize::min(c.src_level(), c.space() as usize) >= needed {
            let visible = c
                .src_q
                .visible_at_count(needed)
                .expect("level covers needed")
                .max(now);
            horizon = horizon.min(if c.gt {
                self.next_owned_boundary(c.id(), visible)
            } else {
                Self::next_boundary(visible)
            });
        }
        horizon
    }

    fn stage_word(&mut self, link: &mut NiLink) {
        if link.is_busy() {
            return;
        }
        if let Some(w) = self.tx_gt.pop_front() {
            link.send(w);
        } else if !self.tx_be.is_empty() && link.be_credits() > 0 {
            let w = self.tx_be.pop_front().expect("checked non-empty");
            link.send(w);
        } else {
            return;
        }
        self.touch();
    }

    /// Whether the kernel's dynamic state is simple enough for analytical
    /// fast-forward (see [`noc_sim::ff`]): no BE
    /// word staged, no CNIP operation in flight (neither buffered words
    /// nor a partially assembled message), and every channel either a
    /// threshold-free GT stream or fully inert
    /// ([`Channel::ff_ready`]).
    pub fn ff_ready(&self) -> bool {
        self.tx_be.is_empty()
            && self.cnip.as_ref().is_none_or(|c| {
                c.out.is_empty() && c.asm.ready() == 0 && c.asm.partial_words() == 0
            })
            && self.channels.iter().all(Channel::ff_ready)
    }

    /// Walks the kernel's complete dynamic state through a state visitor
    /// (see [`noc_sim::persist`]): the slot table, BE arbitration state,
    /// both staging queues, the per-class receive cursors, the CNIP's
    /// assembler and response buffer, statistics, and every channel via
    /// [`Channel::walk`].
    pub fn walk(&mut self, p: &mut dyn noc_sim::StateVisit) {
        use noc_sim::persist::{persist_deque, persist_int, persist_opt_index, persist_word};
        let channels = self.channels.len();
        for s in &mut self.slot_table {
            persist_int(s, p);
        }
        // Derived state is re-derived, not carried: the slot count from the
        // table just walked, the sleep state by waking.
        self.owned_slots = self.slot_table.iter().filter(|&&s| s != 0).count() as u32;
        self.touch();
        self.arb.walk(channels, p);
        let empty = LinkWord::header_only(0, WordClass::BestEffort);
        persist_deque(&mut self.tx_gt, empty, p, |w, p| persist_word(w, p));
        persist_deque(&mut self.tx_be, empty, p, |w, p| persist_word(w, p));
        for r in &mut self.rx_cur {
            persist_opt_index(r, channels, p);
        }
        if let Some(c) = &mut self.cnip {
            c.asm.walk(p);
            persist_deque(&mut c.out, 0, p, |w, p| persist_int(w, p));
        }
        p.counter(&mut self.stats.packets_tx[0]);
        p.counter(&mut self.stats.packets_tx[1]);
        p.counter(&mut self.stats.packets_rx[0]);
        p.counter(&mut self.stats.packets_rx[1]);
        p.counter(&mut self.stats.header_words_tx);
        p.counter(&mut self.stats.payload_words_tx);
        p.counter(&mut self.stats.route_ext_words_tx);
        p.counter(&mut self.stats.credit_only_tx);
        p.counter(&mut self.stats.gt_slots_unused);
        p.counter(&mut self.stats.cnip_ops);
        p.counter(&mut self.stats.rx_drops);
        for c in &mut self.channels {
            c.walk(p);
        }
    }
}

/// The kernel on the engine contract: absorb drains what the previous
/// network cycle delivered (depacketization plus one CNIP operation word),
/// emit builds packets at slot boundaries and stages at most one word onto
/// the link.
impl ClockedWith<NiLink> for NiKernel {
    fn absorb(&mut self, link: &mut NiLink, cycle: u64) {
        self.depacketize(link, cycle);
        self.service_cnip(cycle);
    }

    fn emit(&mut self, link: &mut NiLink, cycle: u64) {
        if cycle.is_multiple_of(SLOT_WORDS) {
            self.build_packets(cycle);
        }
        self.stage_word(link);
    }

    /// GT-slot dormancy: with no packet staged or draining and the CNIP
    /// idle, the kernel acts next when some channel first becomes
    /// schedulable — queued GT data waiting for its reserved slot, words
    /// still crossing a clock-domain boundary, a threshold-gated channel
    /// whose visibility schedule will clear the gate, or pending credits
    /// above their threshold. `NiKernel::channel_horizon` computes that
    /// cycle for each channel that has anything queued or owed (none has
    /// in a strictly drained kernel, which is dormant forever); the
    /// minimum is the kernel's sleep horizon: every tick before it
    /// only records reserved-but-unused slots, which
    /// [`skip`](ClockedWith::skip) accounts for arithmetically, so a
    /// region draining a GT stream sleeps between its slots instead of
    /// ticking through them. The kernel is active (`now`) when a channel
    /// is schedulable right now or it holds state this analysis does not
    /// cover (staged words, CNIP traffic).
    fn dormant_until(&self, now: u64) -> u64 {
        if !self.tx_gt.is_empty()
            || !self.tx_be.is_empty()
            || self.cnip.as_ref().is_some_and(|c| !c.out.is_empty())
        {
            return now;
        }
        let mut horizon = u64::MAX;
        for c in &self.channels {
            if c.src_q.is_empty() && c.dst_q.is_empty() && c.credit_counter == 0 {
                continue; // nothing queued or owed: no horizon of its own
            }
            horizon = horizon.min(self.channel_horizon(c, now));
            if horizon <= now {
                return now;
            }
        }
        horizon
    }

    /// Slot-table-aware time skip: while dormant (the span ends at or
    /// before the dormancy horizon), the only per-cycle effect is one `gt_slots_unused` event per reserved slot
    /// whose boundary is crossed — counted here by walking the slot table
    /// once instead of ticking `cycles` times.
    fn skip(&mut self, from_cycle: u64, cycles: u64) {
        debug_assert!(
            ClockedWith::<NiLink>::dormant_until(self, from_cycle)
                >= from_cycle.saturating_add(cycles)
        );
        self.touch();
        // Slot boundaries in [0, n) number ceil(n / SLOT_WORDS).
        let boundaries_before = from_cycle.div_ceil(SLOT_WORDS);
        let boundaries = (from_cycle + cycles).div_ceil(SLOT_WORDS) - boundaries_before;
        if boundaries == 0 {
            return;
        }
        let stu = self.spec.stu_slots as u64;
        let full_tables = boundaries / stu;
        let mut unused = full_tables * u64::from(self.owned_slots);
        let first_slot = boundaries_before % stu;
        for j in 0..(boundaries % stu) {
            if self.slot_table[((first_slot + j) % stu) as usize] != 0 {
                unused += 1;
            }
        }
        self.stats.gt_slots_unused += unused;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_sim::{Noc, Topology};

    /// Two reference NIs on a 2-router mesh, with channel 1 of NI0 paired
    /// to channel 1 of NI1 (both directions configured directly).
    fn paired_setup(gt: bool) -> (Noc, NiKernel, NiKernel, Topology) {
        let topo = Topology::mesh(2, 1, 1);
        let noc = Noc::new(&topo);
        let mut k0 = NiKernel::new(NiKernelSpec::reference(0));
        let mut k1 = NiKernel::new(NiKernelSpec::reference(1));
        let p01 = topo.route(0, 1).unwrap();
        let p10 = topo.route(1, 0).unwrap();
        let ctrl = CTRL_ENABLE | if gt { CTRL_GT } else { 0 };
        k0.reg_write(chan_reg_addr(1, ChanReg::Ctrl), ctrl).unwrap();
        k0.reg_write(chan_reg_addr(1, ChanReg::Space), 8).unwrap();
        k0.reg_write(chan_reg_addr(1, ChanReg::PathRqid), pack_path_rqid(&p01, 1))
            .unwrap();
        k1.reg_write(chan_reg_addr(1, ChanReg::Ctrl), ctrl).unwrap();
        k1.reg_write(chan_reg_addr(1, ChanReg::Space), 8).unwrap();
        k1.reg_write(chan_reg_addr(1, ChanReg::PathRqid), pack_path_rqid(&p10, 1))
            .unwrap();
        if gt {
            // NI0 owns slots 0-1, NI1 owns slots 4-5 (disjoint on the
            // shared link after the 1-slot pipeline shift).
            k0.reg_write(slot_reg_addr(0), 2).unwrap();
            k0.reg_write(slot_reg_addr(1), 2).unwrap();
            k1.reg_write(slot_reg_addr(4), 2).unwrap();
            k1.reg_write(slot_reg_addr(5), 2).unwrap();
        }
        (noc, k0, k1, topo)
    }

    fn run(noc: &mut Noc, k0: &mut NiKernel, k1: &mut NiKernel, cycles: u64) {
        for _ in 0..cycles {
            let cycle = noc.cycle();
            {
                let link = noc.ni_link_mut(0);
                k0.tick(link, cycle);
            }
            {
                let link = noc.ni_link_mut(1);
                k1.tick(link, cycle);
            }
            noc.tick();
        }
    }

    #[test]
    fn be_words_flow_end_to_end() {
        let (mut noc, mut k0, mut k1, _) = paired_setup(false);
        for w in 0..5u32 {
            k0.push_src(1, 100 + w, 0).unwrap();
        }
        run(&mut noc, &mut k0, &mut k1, 60);
        let mut got = Vec::new();
        while let Some(w) = k1.pop_dst(1, noc.cycle()) {
            got.push(w);
        }
        assert_eq!(got, vec![100, 101, 102, 103, 104]);
        assert_eq!(noc.gt_conflicts(), 0);
        assert_eq!(k1.stats().rx_drops, 0);
    }

    #[test]
    fn gt_words_flow_in_reserved_slots() {
        let (mut noc, mut k0, mut k1, _) = paired_setup(true);
        for w in 0..5u32 {
            k0.push_src(1, 200 + w, 0).unwrap();
        }
        run(&mut noc, &mut k0, &mut k1, 80);
        let mut got = Vec::new();
        while let Some(w) = k1.pop_dst(1, noc.cycle()) {
            got.push(w);
        }
        assert_eq!(got, vec![200, 201, 202, 203, 204]);
        assert_eq!(noc.gt_conflicts(), 0);
        assert!(k0.stats().packets_tx[WordClass::Guaranteed.index()] > 0);
        assert_eq!(k0.stats().packets_tx[WordClass::BestEffort.index()], 0);
    }

    /// Two reference NIs on opposite corners of an 8x8 mesh: the route (15
    /// hops) needs two gateway rewrites, configured through `PATH_RQID` +
    /// `PATH_EXT`.
    fn corner_setup(gt: bool) -> (Noc, NiKernel, NiKernel) {
        let topo = Topology::mesh(8, 8, 1);
        let noc = Noc::new(&topo);
        let mut k0 = NiKernel::new(NiKernelSpec::reference(0));
        let mut k1 = NiKernel::new(NiKernelSpec::reference(63));
        let ctrl = CTRL_ENABLE | if gt { CTRL_GT } else { 0 };
        for (k, src, dst) in [(&mut k0, 0usize, 63usize), (&mut k1, 63, 0)] {
            let route = topo.route_any(src, dst).unwrap();
            assert_eq!(route.gateway_count(), 2);
            k.reg_write(chan_reg_addr(1, ChanReg::Ctrl), ctrl).unwrap();
            k.reg_write(chan_reg_addr(1, ChanReg::Space), 8).unwrap();
            k.reg_write(
                chan_reg_addr(1, ChanReg::PathRqid),
                pack_path_rqid(route.header_segment(), 1),
            )
            .unwrap();
            for (i, w) in route.continuation_words().enumerate() {
                k.reg_write(ext_reg_addr(1, i), w).unwrap();
            }
        }
        if gt {
            // Consecutive 2-slot runs: 6-word packets = header + 2
            // continuations + 3 payload words. Disjoint by ≥ route length
            // in slots on every shared link (no link is actually shared
            // between the two opposite diagonal directions here).
            for s in 0..2 {
                k0.reg_write(slot_reg_addr(s), 2).unwrap();
                k1.reg_write(slot_reg_addr(4 + s), 2).unwrap();
            }
        }
        (noc, k0, k1)
    }

    fn run_corner(noc: &mut Noc, k0: &mut NiKernel, k1: &mut NiKernel, cycles: u64) {
        for _ in 0..cycles {
            let cycle = noc.cycle();
            {
                let link = noc.ni_link_mut(0);
                k0.tick(link, cycle);
            }
            {
                let link = noc.ni_link_mut(63);
                k1.tick(link, cycle);
            }
            noc.tick();
        }
    }

    #[test]
    fn be_transfer_across_8x8_corners() {
        let (mut noc, mut k0, mut k1) = corner_setup(false);
        for w in 0..6u32 {
            k0.push_src(1, 500 + w, 0).unwrap();
        }
        run_corner(&mut noc, &mut k0, &mut k1, 400);
        let mut got = Vec::new();
        while let Some(w) = k1.pop_dst(1, noc.cycle()) {
            got.push(w);
        }
        assert_eq!(got, vec![500, 501, 502, 503, 504, 505]);
        assert_eq!(k1.stats().rx_drops, 0);
        assert_eq!(noc.be_overflows(), 0);
        assert!(k0.stats().route_ext_words_tx >= 2);
        // End-to-end credits flowed back over the equally-long reverse
        // route: space recovered fully.
        run_corner(&mut noc, &mut k0, &mut k1, 400);
        assert_eq!(k0.channel(1).space(), 8);
    }

    #[test]
    fn gt_transfer_across_8x8_corners() {
        let (mut noc, mut k0, mut k1) = corner_setup(true);
        for w in 0..6u32 {
            k0.push_src(1, 700 + w, 0).unwrap();
        }
        run_corner(&mut noc, &mut k0, &mut k1, 600);
        let mut got = Vec::new();
        while let Some(w) = k1.pop_dst(1, noc.cycle()) {
            got.push(w);
        }
        assert_eq!(got, vec![700, 701, 702, 703, 704, 705]);
        assert_eq!(noc.gt_conflicts(), 0);
        assert_eq!(k1.stats().rx_drops, 0);
        assert!(k0.stats().packets_tx[WordClass::Guaranteed.index()] > 0);
    }

    #[test]
    fn path_rqid_write_clears_ext_registers() {
        let mut k = NiKernel::new(NiKernelSpec::reference(0));
        let seg = noc_sim::Path::new(&[1, 1, 1]).unwrap();
        k.reg_write(ext_reg_addr(1, 0), seg.encode()).unwrap();
        assert_eq!(k.reg_read(ext_reg_addr(1, 0)).unwrap(), seg.encode());
        assert_eq!(k.channel(1).ext_count(), 1);
        k.reg_write(chan_reg_addr(1, ChanReg::PathRqid), pack_path_rqid(&seg, 0))
            .unwrap();
        assert_eq!(k.channel(1).ext_count(), 0, "PATH_RQID write clears ext");
        assert_eq!(
            k.reg_read(ext_reg_addr(1, 0)).unwrap(),
            noc_sim::Path::empty().encode()
        );
    }

    #[test]
    fn ext_register_value_must_fit_path_bits() {
        let mut k = NiKernel::new(NiKernelSpec::reference(0));
        assert!(matches!(
            k.reg_write(ext_reg_addr(0, 0), 1 << noc_sim::path::PATH_BITS),
            Err(RegError::BadValue { .. })
        ));
    }

    #[test]
    fn gt_slot_run_too_short_for_continuations_passes_unused() {
        // Route with 2 continuations but only single-slot runs: the channel
        // can never fit header + continuations in 3 words... it can (3 = 1
        // + 2) but with zero payload; a budget of exactly ext words would
        // not even fit the header and must pass the slot unused.
        let topo = Topology::mesh(8, 8, 1);
        let mut k = NiKernel::new(NiKernelSpec {
            max_packet_words: 2, // degenerate: header + 1 word only
            ..NiKernelSpec::reference(0)
        });
        let route = topo.route_any(0, 63).unwrap();
        k.reg_write(chan_reg_addr(1, ChanReg::Ctrl), CTRL_ENABLE | CTRL_GT)
            .unwrap();
        k.reg_write(chan_reg_addr(1, ChanReg::Space), 8).unwrap();
        k.reg_write(
            chan_reg_addr(1, ChanReg::PathRqid),
            pack_path_rqid(route.header_segment(), 1),
        )
        .unwrap();
        for (i, w) in route.continuation_words().enumerate() {
            k.reg_write(ext_reg_addr(1, i), w).unwrap();
        }
        k.reg_write(slot_reg_addr(0), 2).unwrap();
        k.push_src(1, 1, 0).unwrap();
        let noc = Noc::new(&topo);
        let mut noc = noc;
        let before = k.stats().gt_slots_unused;
        for _ in 0..24 {
            let cycle = noc.cycle();
            let link = noc.ni_link_mut(0);
            k.tick(link, cycle);
            noc.tick();
        }
        assert!(k.stats().gt_slots_unused > before, "slot passes unused");
        assert_eq!(
            k.stats().packets_tx[WordClass::Guaranteed.index()],
            0,
            "no packet that cannot carry its continuations is emitted"
        );
    }

    #[test]
    fn be_channel_whose_route_overflows_max_packet_is_skipped() {
        // max_packet_words = 3 but the route needs header + 2 continuations
        // + payload = 4 words for data progress: the channel must not spin
        // emitting zero-payload packets (or oversized ones) forever.
        let topo = Topology::mesh(8, 8, 1);
        let route = topo.route_any(0, 63).unwrap();
        assert_eq!(route.gateway_count(), 2);
        let mut k = NiKernel::new(NiKernelSpec {
            max_packet_words: 3,
            ..NiKernelSpec::reference(0)
        });
        k.reg_write(chan_reg_addr(1, ChanReg::Ctrl), CTRL_ENABLE)
            .unwrap();
        k.reg_write(chan_reg_addr(1, ChanReg::Space), 8).unwrap();
        k.reg_write(
            chan_reg_addr(1, ChanReg::PathRqid),
            pack_path_rqid(route.header_segment(), 1),
        )
        .unwrap();
        for (i, w) in route.continuation_words().enumerate() {
            k.reg_write(ext_reg_addr(1, i), w).unwrap();
        }
        k.push_src(1, 9, 0).unwrap();
        let mut noc = Noc::new(&topo);
        for _ in 0..60 {
            let cycle = noc.cycle();
            let link = noc.ni_link_mut(0);
            k.tick(link, cycle);
            noc.tick();
        }
        assert_eq!(
            k.stats().packets_tx[WordClass::BestEffort.index()],
            0,
            "no zero-payload packet churn"
        );
        assert_eq!(k.channel(1).src_level(), 1, "data stays queued");
    }

    #[test]
    fn space_counter_limits_inflight_data() {
        let (mut noc, mut k0, mut k1, _) = paired_setup(false);
        // Remote queue is 8 deep; offer 20 words and never drain NI1.
        let mut pushed = 0u32;
        for _ in 0..300 {
            let cycle = noc.cycle();
            if pushed < 20 && k0.src_space(1) > 0 {
                k0.push_src(1, pushed, cycle).unwrap();
                pushed += 1;
            }
            {
                let link = noc.ni_link_mut(0);
                k0.tick(link, cycle);
            }
            {
                let link = noc.ni_link_mut(1);
                k1.tick(link, cycle);
            }
            noc.tick();
        }
        // Exactly the remote buffer size arrived; the rest is blocked.
        assert_eq!(k1.dst_level(1, noc.cycle()), 8);
        assert_eq!(k0.channel(1).space(), 0);
        // Consuming data produces credits that release more words.
        let now = noc.cycle();
        for _ in 0..4 {
            k1.pop_dst(1, now).unwrap();
        }
        run(&mut noc, &mut k0, &mut k1, 100);
        assert_eq!(k1.dst_level(1, noc.cycle()), 8, "freed space was refilled");
    }

    #[test]
    fn credits_piggyback_on_reverse_traffic() {
        let (mut noc, mut k0, mut k1, _) = paired_setup(false);
        // A high credit threshold keeps credits waiting for reverse data to
        // piggyback on (instead of going out as credit-only packets).
        k1.reg_write(chan_reg_addr(1, ChanReg::CreditThreshold), 31)
            .unwrap();
        // Prime: NI0 sends 4 words, NI1 consumes them (credits accumulate).
        for w in 0..4u32 {
            k0.push_src(1, w, 0).unwrap();
        }
        run(&mut noc, &mut k0, &mut k1, 60);
        let now = noc.cycle();
        for _ in 0..4 {
            k1.pop_dst(1, now).unwrap();
        }
        assert_eq!(k1.channel(1).credits_pending(), 4);
        // Reverse data from NI1 carries the credits back.
        k1.push_src(1, 0xBEEF, now).unwrap();
        run(&mut noc, &mut k0, &mut k1, 60);
        assert_eq!(k1.channel(1).credits_pending(), 0, "credits piggybacked");
        assert_eq!(k0.channel(1).space(), 8, "space restored at the sender");
        assert_eq!(k1.stats().credit_only_tx, 0, "no credit-only packet needed");
    }

    #[test]
    fn credit_threshold_batches_credit_packets() {
        let (mut noc, mut k0, mut k1, _) = paired_setup(false);
        k1.reg_write(chan_reg_addr(1, ChanReg::CreditThreshold), 4)
            .unwrap();
        for w in 0..6u32 {
            k0.push_src(1, w, 0).unwrap();
        }
        run(&mut noc, &mut k0, &mut k1, 60);
        // Consume 3 words: below the credit threshold, nothing goes back.
        let now = noc.cycle();
        for _ in 0..3 {
            k1.pop_dst(1, now).unwrap();
        }
        run(&mut noc, &mut k0, &mut k1, 40);
        assert_eq!(k1.channel(1).credits_pending(), 3, "held below threshold");
        // One more pop reaches the threshold: a credit-only packet flows.
        k1.pop_dst(1, noc.cycle()).unwrap();
        run(&mut noc, &mut k0, &mut k1, 40);
        assert_eq!(k1.channel(1).credits_pending(), 0);
        assert_eq!(k1.stats().credit_only_tx, 1);
        assert_eq!(k0.channel(1).space(), 8 - 6 + 4);
    }

    #[test]
    fn credit_flush_forces_credits_out() {
        let (mut noc, mut k0, mut k1, _) = paired_setup(false);
        k1.reg_write(chan_reg_addr(1, ChanReg::CreditThreshold), 8)
            .unwrap();
        for w in 0..2u32 {
            k0.push_src(1, w, 0).unwrap();
        }
        run(&mut noc, &mut k0, &mut k1, 60);
        let now = noc.cycle();
        k1.pop_dst(1, now).unwrap();
        run(&mut noc, &mut k0, &mut k1, 30);
        assert_eq!(k1.channel(1).credits_pending(), 1);
        k1.flush_credits(1);
        run(&mut noc, &mut k0, &mut k1, 30);
        assert_eq!(k1.channel(1).credits_pending(), 0);
    }

    #[test]
    fn data_threshold_skips_short_queues_and_flush_overrides() {
        let (mut noc, mut k0, mut k1, _) = paired_setup(false);
        k0.reg_write(chan_reg_addr(1, ChanReg::DataThreshold), 4)
            .unwrap();
        k0.push_src(1, 7, 0).unwrap();
        run(&mut noc, &mut k0, &mut k1, 60);
        assert_eq!(
            k1.dst_level(1, noc.cycle()),
            0,
            "below threshold: held back"
        );
        k0.flush(1);
        run(&mut noc, &mut k0, &mut k1, 60);
        assert_eq!(k1.dst_level(1, noc.cycle()), 1, "flush pushed it through");
    }

    #[test]
    fn cnip_executes_remote_register_writes() {
        // Configure NI0 channel 0 (the CNIP connection) toward NI1's CNIP
        // (channel 0) and send a register-write request message.
        let topo = Topology::mesh(2, 1, 1);
        let mut noc = Noc::new(&topo);
        let mut k0 = NiKernel::new(NiKernelSpec::reference(0));
        let mut k1 = NiKernel::new(NiKernelSpec::reference(1));
        let p01 = topo.route(0, 1).unwrap();
        let p10 = topo.route(1, 0).unwrap();
        // Request channel NI0→NI1 (local writes at NI0).
        k0.reg_write(chan_reg_addr(0, ChanReg::Ctrl), CTRL_ENABLE)
            .unwrap();
        k0.reg_write(chan_reg_addr(0, ChanReg::Space), 8).unwrap();
        k0.reg_write(chan_reg_addr(0, ChanReg::PathRqid), pack_path_rqid(&p01, 0))
            .unwrap();
        // Response channel NI1→NI0 (configured directly for this unit test;
        // the cfg crate does it through the NoC per Fig. 9).
        k1.reg_write(chan_reg_addr(0, ChanReg::Ctrl), CTRL_ENABLE)
            .unwrap();
        k1.reg_write(chan_reg_addr(0, ChanReg::Space), 8).unwrap();
        k1.reg_write(chan_reg_addr(0, ChanReg::PathRqid), pack_path_rqid(&p10, 0))
            .unwrap();
        // Acked write of SPACE=5 into NI1's channel-3 block.
        let t = crate::transaction::Transaction::acked_write(
            chan_reg_addr(3, ChanReg::Space),
            vec![5],
            0x42,
        );
        let msg = RequestMsg::from_transaction(&t, None).encode();
        for (i, w) in msg.iter().enumerate() {
            k0.push_src(0, *w, i as u64).unwrap();
        }
        let mut resp_words = Vec::new();
        for _ in 0..300 {
            let cycle = noc.cycle();
            {
                let link = noc.ni_link_mut(0);
                k0.tick(link, cycle);
            }
            {
                let link = noc.ni_link_mut(1);
                k1.tick(link, cycle);
            }
            noc.tick();
            // NI0's CNIP is also channel 0 here, so pop via kernel API
            // would recurse into its own CNIP; use a raw drain instead.
            let now = noc.cycle();
            while let Some(w) = k0.pop_dst(0, now) {
                resp_words.push(w);
            }
        }
        assert_eq!(k1.reg_read(chan_reg_addr(3, ChanReg::Space)).unwrap(), 5);
        assert!(k1.stats().cnip_ops >= 1);
        // But wait: NI0's channel 0 is its own CNIP, so the ack response
        // was consumed by NI0's CNIP service loop rather than our drain.
        // Either way the write took effect; the full Fig. 9 flow (with a
        // dedicated Cfg data port) lives in the aethereal-cfg tests.
    }

    #[test]
    fn reg_roundtrip_and_close_resets() {
        let mut k = NiKernel::new(NiKernelSpec::reference(0));
        k.reg_write(chan_reg_addr(2, ChanReg::Space), 8).unwrap();
        k.reg_write(chan_reg_addr(2, ChanReg::Ctrl), CTRL_ENABLE | CTRL_GT)
            .unwrap();
        assert_eq!(k.reg_read(chan_reg_addr(2, ChanReg::Ctrl)).unwrap(), 0b11);
        assert!(k.channel(2).is_gt());
        k.push_src(2, 1, 0).unwrap();
        // Closing resets queues and counters.
        k.reg_write(chan_reg_addr(2, ChanReg::Ctrl), 0).unwrap();
        assert!(!k.channel(2).is_enabled());
        assert_eq!(k.channel(2).src_level(), 0);
        assert_eq!(k.channel(2).space(), 0);
    }

    #[test]
    fn slot_table_validation() {
        let mut k = NiKernel::new(NiKernelSpec::reference(0));
        assert!(k.reg_write(slot_reg_addr(0), 8).is_ok()); // channel 7 exists
        assert!(k.reg_write(slot_reg_addr(0), 9).is_err()); // channel 8 doesn't
        assert!(k.reg_write(slot_reg_addr(0), 0).is_ok());
        assert_eq!(k.reg_read(regs::REG_STU_SLOTS).unwrap(), 8);
        assert_eq!(k.reg_read(regs::REG_CHAN_COUNT).unwrap(), 8);
    }

    #[test]
    fn globals_are_read_only() {
        let mut k = NiKernel::new(NiKernelSpec::reference(3));
        assert_eq!(k.reg_read(regs::REG_NI_ID).unwrap(), 3);
        assert!(matches!(
            k.reg_write(regs::REG_NI_ID, 9),
            Err(RegError::ReadOnly { .. })
        ));
    }

    #[test]
    fn gt_unused_slots_counted() {
        let (mut noc, mut k0, mut k1, _) = paired_setup(true);
        // No data at all: every pass over slots 0-1 counts unused.
        run(&mut noc, &mut k0, &mut k1, 48); // two table periods
        assert!(k0.stats().gt_slots_unused >= 2);
    }

    #[test]
    fn dormancy_covers_partially_synced_fifo() {
        let (_noc, mut k0, _k1, _) = paired_setup(true);
        // A word pushed at cycle 10 crosses the clock domain at 12; NI0
        // owns slots 0 and 1 (cycles 0-5 of each 24-cycle revolution), so
        // the first boundary where the word can be scheduled is cycle 24.
        k0.push_src(1, 42, 10).unwrap();
        assert_eq!(ClockedWith::<NiLink>::dormant_until(&k0, 11), 24);
    }

    #[test]
    fn dormancy_covers_threshold_gated_channels() {
        let (_noc, mut k0, _k1, _) = paired_setup(true);
        k0.reg_write(chan_reg_addr(1, ChanReg::DataThreshold), 4)
            .unwrap();
        k0.push_src(1, 1, 0).unwrap();
        k0.push_src(1, 2, 0).unwrap();
        // Two of four threshold words queued: no passage of time makes the
        // channel eligible, so the kernel sleeps until an external push.
        assert_eq!(ClockedWith::<NiLink>::dormant_until(&k0, 2), u64::MAX);
        k0.push_src(1, 3, 2).unwrap();
        k0.push_src(1, 4, 2).unwrap();
        // The fourth word becomes visible at cycle 4; the next owned slot
        // boundary at or after that is cycle 24.
        assert_eq!(ClockedWith::<NiLink>::dormant_until(&k0, 2), 24);
    }

    #[test]
    fn dormancy_covers_gated_and_eligible_credits() {
        let (_noc, mut k0, _k1, _) = paired_setup(true);
        k0.reg_write(chan_reg_addr(1, ChanReg::CreditThreshold), 4)
            .unwrap();
        k0.channels[1].credit_counter = 3;
        assert_eq!(
            ClockedWith::<NiLink>::dormant_until(&k0, 5),
            u64::MAX,
            "credits below threshold never move on their own"
        );
        k0.channels[1].credit_counter = 4;
        assert_eq!(
            ClockedWith::<NiLink>::dormant_until(&k0, 5),
            24,
            "credit-only packet waits for the next owned slot"
        );
    }

    #[test]
    fn dormancy_covers_crossing_rx_words() {
        let (_noc, mut k0, _k1, _) = paired_setup(true);
        // A delivered word still crossing toward the reader: a consumer
        // can first pop it at its visibility stamp.
        k0.channels[1].dst_q.push(7, 10).unwrap();
        assert_eq!(ClockedWith::<NiLink>::dormant_until(&k0, 11), 12);
        assert_eq!(
            ClockedWith::<NiLink>::dormant_until(&k0, 12),
            12,
            "a visible rx word means active right now"
        );
    }

    #[test]
    fn widened_dormancy_skip_matches_ticking() {
        use noc_sim::engine::Clocked;
        let mk = || {
            let (noc, mut k0, k1, _) = paired_setup(true);
            k0.reg_write(chan_reg_addr(1, ChanReg::DataThreshold), 4)
                .unwrap();
            (noc, k0, k1)
        };
        let (mut noc_a, mut ka0, mut ka1) = mk();
        let (mut noc_b, mut kb0, mut kb1) = mk();
        run(&mut noc_a, &mut ka0, &mut ka1, 5);
        run(&mut noc_b, &mut kb0, &mut kb1, 5);
        for w in 0..4u32 {
            ka0.push_src(1, w, 5).unwrap();
            kb0.push_src(1, w, 5).unwrap();
        }
        let h = ClockedWith::<NiLink>::dormant_until(&ka0, 5);
        assert!(h > 5, "widened horizon admits the gated channel");
        let span = h - 5;
        // A ticks through the dormant window; B skips it arithmetically.
        run(&mut noc_a, &mut ka0, &mut ka1, span);
        ClockedWith::<NiLink>::skip(&mut kb0, 5, span);
        ClockedWith::<NiLink>::skip(&mut kb1, 5, span);
        Clocked::skip(&mut noc_b, span);
        // Resume ticking both: the stream must drain bit-identically.
        run(&mut noc_a, &mut ka0, &mut ka1, 60);
        run(&mut noc_b, &mut kb0, &mut kb1, 60);
        assert_eq!(ka0.stats(), kb0.stats());
        assert_eq!(ka1.stats(), kb1.stats());
        let drain = |k: &mut NiKernel, now: u64| {
            let mut v = Vec::new();
            while let Some(w) = k.pop_dst(1, now) {
                v.push(w);
            }
            v
        };
        assert_eq!(drain(&mut ka1, noc_a.cycle()), vec![0, 1, 2, 3]);
        assert_eq!(drain(&mut kb1, noc_b.cycle()), vec![0, 1, 2, 3]);
    }

    #[test]
    fn port_channel_mapping() {
        let k = NiKernel::new(NiKernelSpec::reference(0));
        assert_eq!(k.port_channels(0), 0..1);
        assert_eq!(k.port_channels(1), 1..2);
        assert_eq!(k.port_channels(2), 2..4);
        assert_eq!(k.port_channels(3), 4..8);
        assert_eq!(k.channel_count(), 8);
    }

    #[test]
    #[should_panic(expected = "qid field")]
    fn too_many_channels_rejected() {
        let spec = NiKernelSpec {
            ports: vec![PortSpec {
                channels: 33,
                ..PortSpec::default()
            }],
            ..NiKernelSpec::reference(0)
        };
        let _ = NiKernel::new(spec);
    }
}

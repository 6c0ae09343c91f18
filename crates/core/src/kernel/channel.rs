//! Per-channel state of the NI kernel.
//!
//! §4.1 of the paper: for every point-to-point channel the kernel keeps two
//! message queues (a *source* queue toward the NoC and a *destination*
//! queue from the NoC), a `Space` counter tracking the free space of the
//! remote destination queue, a `Credit` counter accumulating credits to be
//! returned, configurable data/credit thresholds, and the flush snapshot
//! that overrides the thresholds to prevent starvation.

use crate::fifo::HwFifo;

/// Identifies a channel (endpoint) within one NI. Equals the destination
/// queue id (`qid`) used in packet headers addressed to this NI.
pub type ChannelId = usize;

/// Per-channel statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChannelStats {
    /// Payload words sent into the NoC.
    pub words_tx: u64,
    /// Payload words received from the NoC.
    pub words_rx: u64,
    /// Packets sent (including credit-only packets).
    pub packets_tx: u64,
    /// Credit-only packets sent (pure flow-control overhead, §4.1).
    pub credit_only_tx: u64,
    /// Credits piggybacked outward.
    pub credits_tx: u64,
    /// Flush events requested.
    pub flushes: u64,
}

/// One channel endpoint inside an NI kernel.
#[derive(Debug, Clone)]
pub struct Channel {
    id: ChannelId,
    port: usize,
    /// Register state (written through the CNIP, §4.3).
    pub(crate) enabled: bool,
    pub(crate) gt: bool,
    /// Packed PATH (bits 20..0) + remote qid (bits 25..21), as written to
    /// the `PATH_RQID` register.
    pub(crate) path_rqid: u32,
    /// `PATH_EXT` registers: continuation route segments (bits 20..0 each)
    /// emitted as continuation words behind the header; the all-terminator
    /// encoding marks an unused register. Cleared by every `PATH_RQID`
    /// write.
    pub(crate) path_ext: [u32; crate::kernel::regs::PATH_EXT_REGS],
    pub(crate) data_threshold: u32,
    pub(crate) credit_threshold: u32,
    /// Remote destination-queue space (decremented on send, refilled by
    /// piggybacked credits).
    pub(crate) space: u32,
    /// Credits owed to the remote producer (incremented when the local IP
    /// consumes from `dst_q`).
    pub(crate) credit_counter: u32,
    /// Words remaining from the flush snapshot (threshold bypass active
    /// while non-zero).
    pub(crate) flush_remaining: u32,
    /// Credit-flush request (force credits out below threshold).
    pub(crate) credit_flush: bool,
    pub(crate) src_q: HwFifo,
    pub(crate) dst_q: HwFifo,
    pub(crate) stats: ChannelStats,
}

impl Channel {
    /// Creates a disabled channel with the given queue geometry.
    pub(crate) fn new(id: ChannelId, port: usize, queue_words: usize, crossing: u64) -> Self {
        Channel {
            id,
            port,
            enabled: false,
            gt: false,
            // Empty (all-terminator) path: the channel is unroutable until
            // PATH_RQID is configured, which keeps it ineligible (a packet
            // with no route would head-block a router queue forever).
            path_rqid: noc_sim::Path::empty().encode(),
            path_ext: [noc_sim::Path::empty().encode(); crate::kernel::regs::PATH_EXT_REGS],
            data_threshold: 0,
            credit_threshold: 0,
            space: 0,
            credit_counter: 0,
            flush_remaining: 0,
            credit_flush: false,
            src_q: HwFifo::new(queue_words, crossing),
            dst_q: HwFifo::new(queue_words, crossing),
            stats: ChannelStats::default(),
        }
    }

    /// Channel id (also the qid of its destination queue).
    pub fn id(&self) -> ChannelId {
        self.id
    }

    /// Owning NI port.
    pub fn port(&self) -> usize {
        self.port
    }

    /// Whether the channel is enabled.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Whether the channel is configured for guaranteed throughput.
    pub fn is_gt(&self) -> bool {
        self.gt
    }

    /// Current remote-space counter.
    pub fn space(&self) -> u32 {
        self.space
    }

    /// Credits accumulated for return.
    pub fn credits_pending(&self) -> u32 {
        self.credit_counter
    }

    /// Statistics.
    pub fn stats(&self) -> &ChannelStats {
        &self.stats
    }

    /// Source-queue occupancy (writer view).
    pub fn src_level(&self) -> usize {
        self.src_q.level()
    }

    /// Destination-queue occupancy (writer view).
    pub fn dst_level(&self) -> usize {
        self.dst_q.level()
    }

    /// Destination-queue capacity in words.
    pub fn dst_q_capacity(&self) -> usize {
        self.dst_q.capacity()
    }

    /// Encoded source route (path bits of `PATH_RQID`).
    pub(crate) fn path_bits(&self) -> u32 {
        self.path_rqid & ((1 << noc_sim::path::PATH_BITS) - 1)
    }

    /// Remote queue id (upper bits of `PATH_RQID`).
    pub(crate) fn remote_qid(&self) -> u8 {
        ((self.path_rqid >> noc_sim::path::PATH_BITS) & ((1 << noc_sim::header::QID_BITS) - 1))
            as u8
    }

    /// Continuation segments configured after the header path: the prefix
    /// of `PATH_EXT` registers holding a non-empty route segment.
    pub(crate) fn ext_count(&self) -> usize {
        self.path_ext
            .iter()
            .position(|&v| noc_sim::Path::peek_encoded(v).is_none())
            .unwrap_or(self.path_ext.len())
    }

    /// The encoded continuation word for segment `k + 1` (path bits only).
    pub(crate) fn ext_bits(&self, k: usize) -> u32 {
        self.path_ext[k] & ((1 << noc_sim::path::PATH_BITS) - 1)
    }

    /// Words that may be sent right now: `min(visible queue filling, space)`
    /// — the paper's *sendable data*.
    pub fn sendable(&self, now: u64) -> usize {
        usize::min(self.src_q.sync_level(now), self.space as usize)
    }

    /// Whether the data side makes the channel eligible for scheduling
    /// (sendable above threshold, or flush snapshot active).
    pub fn data_eligible(&self, now: u64) -> bool {
        let sendable = self.sendable(now);
        if sendable == 0 {
            return false;
        }
        self.flush_remaining > 0 || sendable >= self.data_threshold.max(1) as usize
    }

    /// Whether the credit side makes the channel eligible (credits above
    /// threshold, or credit flush requested).
    pub fn credit_eligible(&self) -> bool {
        if self.credit_counter == 0 {
            return false;
        }
        self.credit_flush || self.credit_counter >= self.credit_threshold.max(1)
    }

    /// Whether a usable source route has been configured.
    pub fn route_configured(&self) -> bool {
        noc_sim::Path::peek_encoded(self.path_bits()).is_some()
    }

    /// Whether the scheduler should consider this channel at all.
    pub fn eligible(&self, now: u64) -> bool {
        self.enabled
            && self.route_configured()
            && (self.data_eligible(now) || self.credit_eligible())
    }

    /// Takes a flush snapshot: all words currently in the source queue
    /// bypass the data threshold until sent (§4.1).
    pub fn flush(&mut self) {
        self.flush_remaining = self.src_q.level() as u32;
        self.stats.flushes += 1;
    }

    /// Forces pending credits out even below the credit threshold.
    pub fn flush_credits(&mut self) {
        self.credit_flush = true;
    }

    /// Walks the channel's complete dynamic state through a state visitor
    /// (see [`noc_sim::persist`]): the CNIP-written registers and the
    /// flow-control counters as exact control state, both hardware queues,
    /// and the statistics as periodic counters.
    pub fn walk<V: noc_sim::StateVisit + ?Sized>(&mut self, p: &mut V) {
        use noc_sim::persist::{persist_bool, persist_int};
        persist_bool(&mut self.enabled, p);
        persist_bool(&mut self.gt, p);
        persist_int(&mut self.path_rqid, p);
        for e in &mut self.path_ext {
            persist_int(e, p);
        }
        persist_int(&mut self.data_threshold, p);
        persist_int(&mut self.credit_threshold, p);
        persist_int(&mut self.space, p);
        persist_int(&mut self.credit_counter, p);
        persist_int(&mut self.flush_remaining, p);
        persist_bool(&mut self.credit_flush, p);
        self.src_q.walk(p);
        self.dst_q.walk(p);
        p.counter(&mut self.stats.words_tx);
        p.counter(&mut self.stats.words_rx);
        p.counter(&mut self.stats.packets_tx);
        p.counter(&mut self.stats.credit_only_tx);
        p.counter(&mut self.stats.credits_tx);
        p.counter(&mut self.stats.flushes);
    }

    /// Resets all dynamic state (used when the CNIP disables the channel —
    /// closing a connection).
    pub(crate) fn reset_dynamic(&mut self) {
        self.space = 0;
        self.credit_counter = 0;
        self.flush_remaining = 0;
        self.credit_flush = false;
        self.src_q.clear();
        self.dst_q.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chan() -> Channel {
        let mut c = Channel::new(0, 0, 8, 0);
        c.enabled = true;
        c.space = 8;
        c
    }

    #[test]
    fn sendable_is_min_of_queue_and_space() {
        let mut c = chan();
        for w in 0..5 {
            c.src_q.push(w, 0).unwrap();
        }
        assert_eq!(c.sendable(0), 5);
        c.space = 3;
        assert_eq!(c.sendable(0), 3);
        c.space = 0;
        assert_eq!(c.sendable(0), 0);
    }

    #[test]
    fn threshold_gates_eligibility() {
        let mut c = chan();
        c.data_threshold = 4;
        for w in 0..3 {
            c.src_q.push(w, 0).unwrap();
        }
        assert!(!c.data_eligible(0), "below threshold");
        c.src_q.push(3, 0).unwrap();
        assert!(c.data_eligible(0), "at threshold");
    }

    #[test]
    fn flush_bypasses_threshold() {
        let mut c = chan();
        c.data_threshold = 10;
        c.src_q.push(1, 0).unwrap();
        assert!(!c.data_eligible(0));
        c.flush();
        assert!(c.data_eligible(0));
        assert_eq!(c.stats().flushes, 1);
    }

    #[test]
    fn credit_threshold_gates_credit_eligibility() {
        let mut c = chan();
        c.credit_threshold = 4;
        c.credit_counter = 3;
        assert!(!c.credit_eligible());
        c.credit_counter = 4;
        assert!(c.credit_eligible());
    }

    #[test]
    fn credit_flush_overrides_threshold() {
        let mut c = chan();
        c.credit_threshold = 10;
        c.credit_counter = 1;
        assert!(!c.credit_eligible());
        c.flush_credits();
        assert!(c.credit_eligible());
    }

    #[test]
    fn disabled_channel_never_eligible() {
        let mut c = chan();
        c.enabled = false;
        c.src_q.push(1, 0).unwrap();
        c.credit_counter = 100;
        assert!(!c.eligible(0));
    }

    #[test]
    fn path_rqid_unpacking() {
        let mut c = chan();
        let path = noc_sim::Path::new(&[1, 2, 4]).unwrap();
        c.path_rqid = path.encode() | (9 << noc_sim::path::PATH_BITS);
        assert_eq!(c.remote_qid(), 9);
        assert_eq!(noc_sim::Path::decode(c.path_bits()), path);
    }

    #[test]
    fn reset_clears_dynamic_state() {
        let mut c = chan();
        c.src_q.push(1, 0).unwrap();
        c.credit_counter = 5;
        c.flush();
        c.reset_dynamic();
        assert_eq!(c.src_level(), 0);
        assert_eq!(c.credits_pending(), 0);
        assert_eq!(c.sendable(0), 0);
    }

    #[test]
    fn zero_threshold_means_any_data_eligible() {
        let mut c = chan();
        c.data_threshold = 0;
        c.src_q.push(1, 0).unwrap();
        assert!(c.data_eligible(0));
    }
}

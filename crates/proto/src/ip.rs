//! The IP-module traits ticked by the system orchestrator.
//!
//! Every IP is an endpoint on the engine's two-phase contract
//! ([`ClockedWith`]): it `absorb`s what its port delivered (responses,
//! requests, stream words), then `emit`s new work toward the port. The
//! orchestrator ticks each IP at its own port clock (ports "can have a
//! different clock frequency", §4.1 of the paper); `cycle` is always in
//! base network cycles.
//!
//! The traits here only add what the contract does not carry: `as_any` for
//! post-run inspection, `done` for run-to-idle driving, and `idle_until`
//! for per-component **activity reporting** — the earliest cycle at which
//! the IP could act on its own, the IP-level form of the one idleness
//! question. The system orchestrator composes its
//! [`Clocked::dormant_until`] horizon from these, so a whole region of a
//! sharded mesh can skip exactly while its IPs are between bursts (see
//! `noc_sim::shard`), and gates every single IP tick on them: on a
//! port-clock edge an IP is ticked only while its NI can act or once its
//! horizon is reached. All IPs are `Send`: regions run on worker threads.
//!
//! # The `idle_until` contract
//!
//! A tick strictly before the reported horizon, while the IP's NI is
//! inert — its shells hold no request or response, its kernel no word in
//! a destination queue — must be a no-op: the IP starts nothing and
//! changes no state of its own. The system skips exactly those ticks. An
//! IP that cannot promise this for a cycle reports that cycle (`now`),
//! which is always correct; the defaults do so for every master and raw
//! IP that is not `done`.
//!
//! [`Clocked::dormant_until`]: noc_sim::engine::Clocked::dormant_until

use aethereal_ni::kernel::{ChannelId, NiKernel};
use aethereal_ni::shell::{MasterStack, SlaveStack};
pub use noc_sim::engine::ClockedWith;

/// The context a raw streaming IP ticks against: direct kernel channel
/// access (no shell), the point-to-point connection style of §4.2.
#[derive(Debug)]
pub struct RawPort<'a> {
    /// The NI kernel owning the channels.
    pub kernel: &'a mut NiKernel,
    /// The channels bound to this IP, in the IP's port order.
    pub channels: &'a [ChannelId],
}

/// A master IP module driving a master port.
pub trait MasterIp: ClockedWith<MasterStack> + Send {
    /// Concrete-type access for post-run inspection (latency stats etc.).
    fn as_any(&self) -> &dyn std::any::Any;

    /// Whether the IP has finished its workload (used by the engine's
    /// quiescence detection and run-to-idle predicates).
    fn done(&self) -> bool {
        false
    }

    /// The earliest base cycle ≥ `now` at which this IP could initiate new
    /// work *without any input*: `now` means "active right now" (blocks
    /// quiescence), a future cycle licenses the engine to skip the gap
    /// exactly and the system to leave the IP unticked while its NI is
    /// inert, `u64::MAX` means "never again" (typically [`done`]). A tick
    /// before the horizon, while the NI is inert, must be a no-op (the
    /// module's *`idle_until` contract*).
    ///
    /// The default derives activity from [`done`], reproducing the
    /// engine's original all-or-nothing behavior; pacing-aware IPs (a
    /// generator between bursts, a trace replayer waiting for an entry's
    /// timestamp) override it with their real schedule.
    ///
    /// [`done`]: MasterIp::done
    fn idle_until(&self, now: u64) -> u64 {
        if self.done() {
            u64::MAX
        } else {
            now
        }
    }

    /// Walks the IP's complete dynamic state through a persistence visitor
    /// (see [`noc_sim::persist`]), for full-system snapshot/restore.
    ///
    /// The default **poisons the walk**: an IP that has not been audited
    /// for persistence fails the snapshot loudly instead of silently
    /// dropping its state. Override only when every dynamic field is
    /// either in the walk or provably re-derivable.
    fn persist(&mut self, p: &mut dyn noc_sim::StateVisit) {
        p.fail("IP model has no persist audit");
    }
}

/// A slave IP module serving a slave port.
pub trait SlaveIp: ClockedWith<SlaveStack> + Send {
    /// Concrete-type access for post-run inspection.
    fn as_any(&self) -> &dyn std::any::Any;

    /// The earliest base cycle ≥ `now` at which this slave could act
    /// without new input — see [`MasterIp::idle_until`].
    ///
    /// The default is `u64::MAX`: a pure request/response slave only reacts
    /// to requests. A slave holding *internal delayed work* (e.g. a memory
    /// with a latency pipeline) **must** override this to report its
    /// pending completions, or a sharded region containing only this slave
    /// could be put to sleep with a response still owed.
    fn idle_until(&self, now: u64) -> u64 {
        let _ = now;
        u64::MAX
    }

    /// Walks the IP's complete dynamic state through a persistence visitor
    /// — see [`MasterIp::persist`]. The default poisons the walk.
    fn persist(&mut self, p: &mut dyn noc_sim::StateVisit) {
        p.fail("IP model has no persist audit");
    }
}

/// An IP streaming raw message words through kernel channels (no shell).
pub trait RawIp: for<'a> ClockedWith<RawPort<'a>> + Send {
    /// Concrete-type access for post-run inspection.
    fn as_any(&self) -> &dyn std::any::Any;

    /// Whether the IP has finished its workload.
    fn done(&self) -> bool {
        false
    }

    /// The earliest base cycle ≥ `now` at which this IP could initiate new
    /// work without input — see [`MasterIp::idle_until`].
    fn idle_until(&self, now: u64) -> u64 {
        if self.done() {
            u64::MAX
        } else {
            now
        }
    }

    /// Walks the IP's dynamic state through a fast-forward visitor (see
    /// [`noc_sim::ff`]), so pure-GT streaming systems can
    /// extrapolate the IP together with the network.
    ///
    /// The default **rejects**: an IP that has not been audited for
    /// periodic extrapolation poisons the fast-forward attempt, and the
    /// system falls back to cycle-accurate ticking. Override only when
    /// every field is classified — exact control state, wrapping counters
    /// / values, or absolute-cycle stamps — and the IP's per-cycle
    /// behavior is a pure function of that state.
    ///
    /// Deliberately a separate opt-in from [`persist`](RawIp::persist),
    /// though both take the same visitor: listing a field for
    /// serialization is a weaker claim than classifying it for
    /// extrapolation. An absolute-cycle field walked as a plain `item`
    /// snapshots correctly, but would certify as constant and be jumped
    /// past.
    fn ff_visit(&mut self, v: &mut dyn noc_sim::StateVisit) {
        v.reject();
    }

    /// Walks the IP's complete dynamic state through a persistence visitor
    /// — see [`MasterIp::persist`]. The default poisons the walk.
    fn persist(&mut self, p: &mut dyn noc_sim::StateVisit) {
        p.fail("IP model has no persist audit");
    }
}

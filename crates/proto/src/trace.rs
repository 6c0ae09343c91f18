//! Trace-driven master IP: replays a recorded transaction trace with its
//! original timing, the standard methodology for evaluating NoCs against
//! application workloads (the paper's video-processing use cases ship as
//! traces in practice).

use crate::ip::{ClockedWith, MasterIp};
use crate::stats::LatencySummary;
use aethereal_ni::shell::MasterStack;
use aethereal_ni::transaction::Transaction;
use std::collections::HashMap;

/// One trace entry: issue the transaction no earlier than `at_cycle`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEntry {
    /// Earliest issue cycle (base clock).
    pub at_cycle: u64,
    /// The transaction.
    pub transaction: Transaction,
}

/// A replayable transaction trace.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    entries: Vec<TraceEntry>,
}

impl Trace {
    /// Builds a trace from entries (sorted by issue cycle).
    pub fn new(mut entries: Vec<TraceEntry>) -> Self {
        entries.sort_by_key(|e| e.at_cycle);
        Trace { entries }
    }

    /// A periodic synthetic trace: one `make(i)` transaction every `period`
    /// cycles.
    pub fn periodic(count: u64, period: u64, make: impl Fn(u64) -> Transaction) -> Self {
        Trace {
            entries: (0..count)
                .map(|i| TraceEntry {
                    at_cycle: i * period,
                    transaction: make(i),
                })
                .collect(),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entries.
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }
}

impl FromIterator<TraceEntry> for Trace {
    fn from_iter<I: IntoIterator<Item = TraceEntry>>(iter: I) -> Self {
        Trace::new(iter.into_iter().collect())
    }
}

/// A master replaying a [`Trace`].
#[derive(Debug, Clone)]
pub struct TraceMaster {
    trace: Trace,
    next: usize,
    issued: u64,
    completed: u64,
    inflight: HashMap<u16, u64>,
    latencies: Vec<u64>,
    slip: u64,
}

impl TraceMaster {
    /// Creates a replayer for `trace`.
    pub fn new(trace: Trace) -> Self {
        TraceMaster {
            trace,
            next: 0,
            issued: 0,
            completed: 0,
            inflight: HashMap::new(),
            latencies: Vec::new(),
            slip: 0,
        }
    }

    /// Transactions issued.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Responses received (plus posted writes issued).
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Cumulative cycles transactions were issued later than their trace
    /// time (back-pressure slip — a congestion indicator).
    pub fn slip(&self) -> u64 {
        self.slip
    }

    /// Latency summary of responded transactions.
    pub fn latency(&self) -> Option<LatencySummary> {
        LatencySummary::from_samples(&self.latencies)
    }
}

impl ClockedWith<MasterStack> for TraceMaster {
    /// Collect responses delivered by the port.
    fn absorb(&mut self, port: &mut MasterStack, now: u64) {
        while let Some(r) = port.take_response() {
            if let Some(start) = self.inflight.remove(&r.trans_id) {
                self.latencies.push(now - start);
                self.completed += 1;
            }
        }
    }

    /// Replay the next trace entry once its time has come.
    fn emit(&mut self, port: &mut MasterStack, now: u64) {
        if let Some(entry) = self.trace.entries.get(self.next) {
            if now >= entry.at_cycle && port.can_submit() {
                let t = entry.transaction.clone();
                self.slip += now - entry.at_cycle;
                if t.cmd.has_response() {
                    self.inflight.insert(t.trans_id, now);
                } else {
                    self.completed += 1;
                }
                port.submit(t);
                self.issued += 1;
                self.next += 1;
            }
        }
    }
}

impl MasterIp for TraceMaster {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn done(&self) -> bool {
        self.next >= self.trace.len() && self.inflight.is_empty()
    }

    /// With nothing outstanding, the replayer sleeps until the next trace
    /// entry's timestamp.
    fn idle_until(&self, now: u64) -> u64 {
        if !self.inflight.is_empty() {
            return now;
        }
        match self.trace.entries.get(self.next) {
            Some(e) => now.max(e.at_cycle),
            None => u64::MAX,
        }
    }

    /// Complete dynamic state: the replay cursor, the issue/completion
    /// counters, the outstanding map (sorted by id for a canonical
    /// stream), the latency record and the slip accumulator. The trace
    /// itself is construction state and must match on the restore target.
    fn persist(&mut self, p: &mut dyn noc_sim::StateVisit) {
        use noc_sim::persist::{persist_int, persist_int_list};
        persist_int(&mut self.next, p);
        p.item(&mut self.issued);
        p.item(&mut self.completed);
        let mut inflight: Vec<(u16, u64)> = self.inflight.drain().collect();
        inflight.sort_unstable();
        let n = p.len(inflight.len());
        inflight.resize(n, (0, 0));
        for (tid, start) in &mut inflight {
            persist_int(tid, p);
            p.item(start);
        }
        self.inflight = inflight.into_iter().collect();
        persist_int_list(&mut self.latencies, p);
        p.item(&mut self.slip);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn periodic_trace_shape() {
        let t = Trace::periodic(5, 10, |i| {
            Transaction::write(i as u32 * 4, vec![i as u32], 0)
        });
        assert_eq!(t.len(), 5);
        assert_eq!(t.entries()[3].at_cycle, 30);
        assert!(!t.is_empty());
    }

    #[test]
    fn entries_sorted_on_construction() {
        let t = Trace::new(vec![
            TraceEntry {
                at_cycle: 20,
                transaction: Transaction::read(0, 1, 1),
            },
            TraceEntry {
                at_cycle: 5,
                transaction: Transaction::read(4, 1, 2),
            },
        ]);
        assert_eq!(t.entries()[0].at_cycle, 5);
    }

    #[test]
    fn from_iterator_collects() {
        let t: Trace = (0..3)
            .map(|i| TraceEntry {
                at_cycle: i,
                transaction: Transaction::read(0, 1, i as u16),
            })
            .collect();
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn replayer_tracks_done() {
        let t = Trace::periodic(2, 1, |i| Transaction::write(0, vec![i as u32], i as u16));
        let m = TraceMaster::new(t);
        assert!(!m.done());
        assert_eq!(m.issued(), 0);
        assert_eq!(m.slip(), 0);
    }
}

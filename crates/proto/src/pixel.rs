//! Raw-port streaming IPs: the video-pixel-processing chains that motivate
//! point-to-point connections in the paper (§4.2, citing Gangwal et al.).
//!
//! These IPs bypass the transaction shells entirely and stream words
//! through kernel channels — the "Raw" port stack. A [`StreamSource`]
//! produces a deterministic word sequence, a [`PixelStage`] applies a
//! word-wise transform between an input and an output channel, and a
//! [`StreamSink`] consumes and checks the result. Together they form the
//! GT pipeline of the `video_pipeline` example and the `e4_guarantees` test.

use crate::ip::{ClockedWith, RawIp, RawPort};

/// Produces `total` words `f(0), f(1), …` into its first channel.
pub struct StreamSource {
    total: u64,
    produced: u64,
    f: fn(u64) -> u32,
}

impl std::fmt::Debug for StreamSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamSource")
            .field("total", &self.total)
            .field("produced", &self.produced)
            .finish()
    }
}

impl StreamSource {
    /// Creates a source of `total` words generated by `f`.
    pub fn new(total: u64, f: fn(u64) -> u32) -> Self {
        StreamSource {
            total,
            produced: 0,
            f,
        }
    }

    /// A source counting 0, 1, 2, …
    pub fn counting(total: u64) -> Self {
        Self::new(total, |i| i as u32)
    }

    /// Words produced so far.
    pub fn produced(&self) -> u64 {
        self.produced
    }
}

impl<'a> ClockedWith<RawPort<'a>> for StreamSource {
    fn absorb(&mut self, _port: &mut RawPort<'a>, _now: u64) {}

    /// Produce one word per port cycle into the first channel.
    fn emit(&mut self, port: &mut RawPort<'a>, now: u64) {
        let ch = port.channels[0];
        if self.produced < self.total && port.kernel.src_space(ch) > 0 {
            let w = (self.f)(self.produced);
            port.kernel.push_src(ch, w, now).expect("space checked");
            self.produced += 1;
        }
    }
}

impl RawIp for StreamSource {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn done(&self) -> bool {
        self.produced >= self.total
    }

    /// An **endless** source (`total == u64::MAX`) is extrapolable: its
    /// only dynamic state is the produced count. A bounded source rejects
    /// — its done-transition is a one-shot event a periodic model would
    /// skip straight past. A non-affine `f` needs no special casing: the
    /// generated words land in the channel queue, whose per-period value
    /// deltas then fail certification by themselves.
    fn ff_visit(&mut self, v: &mut dyn noc_sim::StateVisit) {
        if self.total == u64::MAX {
            v.counter(&mut self.produced);
        } else {
            v.reject();
        }
    }

    /// The only dynamic state is the produced count; `total` and `f` are
    /// construction state and must match on the restore target.
    fn persist(&mut self, p: &mut dyn noc_sim::StateVisit) {
        p.item(&mut self.produced);
    }
}

/// Applies a word transform from channel 0 (input) to channel 1 (output).
pub struct PixelStage {
    transform: fn(u32) -> u32,
    processed: u64,
}

impl std::fmt::Debug for PixelStage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PixelStage")
            .field("processed", &self.processed)
            .finish()
    }
}

impl PixelStage {
    /// Creates a stage applying `transform` to every word.
    pub fn new(transform: fn(u32) -> u32) -> Self {
        PixelStage {
            transform,
            processed: 0,
        }
    }

    /// Words processed so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }
}

impl<'a> ClockedWith<RawPort<'a>> for PixelStage {
    fn absorb(&mut self, _port: &mut RawPort<'a>, _now: u64) {}

    /// Move one word through the transform per port cycle: consuming the
    /// input and producing the output is one atomic action, so the whole
    /// transfer lives in the produce phase.
    fn emit(&mut self, port: &mut RawPort<'a>, now: u64) {
        let (input, output) = (port.channels[0], port.channels[1]);
        // One word per port cycle, only when the output has room.
        if port.kernel.src_space(output) > 0 {
            if let Some(w) = port.kernel.pop_dst(input, now) {
                port.kernel
                    .push_src(output, (self.transform)(w), now)
                    .expect("space checked");
                self.processed += 1;
            }
        }
    }
}

impl RawIp for PixelStage {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    /// A stage is a pure function of its input stream: with the pipeline
    /// drained it has no work of its own, so it never blocks quiescence.
    fn done(&self) -> bool {
        true
    }

    /// A stage's only dynamic state is the processed count; the words it
    /// moves live in kernel queues, which certify themselves.
    fn ff_visit(&mut self, v: &mut dyn noc_sim::StateVisit) {
        v.counter(&mut self.processed);
    }

    /// The only dynamic state is the processed count; the transform is
    /// construction state and must match on the restore target.
    fn persist(&mut self, p: &mut dyn noc_sim::StateVisit) {
        p.item(&mut self.processed);
    }
}

/// Consumes words from its first channel, recording arrival times.
#[derive(Debug)]
pub struct StreamSink {
    received: Vec<u32>,
    arrival_cycles: Vec<u64>,
}

impl StreamSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        StreamSink {
            received: Vec::new(),
            arrival_cycles: Vec::new(),
        }
    }

    /// Words received so far.
    pub fn received(&self) -> &[u32] {
        &self.received
    }

    /// Arrival cycle of each received word.
    pub fn arrival_cycles(&self) -> &[u64] {
        &self.arrival_cycles
    }

    /// Largest gap between consecutive arrivals (a jitter measure).
    pub fn max_inter_arrival(&self) -> Option<u64> {
        self.arrival_cycles.windows(2).map(|w| w[1] - w[0]).max()
    }
}

impl Default for StreamSink {
    fn default() -> Self {
        Self::new()
    }
}

impl<'a> ClockedWith<RawPort<'a>> for StreamSink {
    /// Consume one delivered word per port cycle.
    fn absorb(&mut self, port: &mut RawPort<'a>, now: u64) {
        if let Some(w) = port.kernel.pop_dst(port.channels[0], now) {
            self.received.push(w);
            self.arrival_cycles.push(now);
        }
    }

    fn emit(&mut self, _port: &mut RawPort<'a>, _now: u64) {}
}

impl RawIp for StreamSink {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    /// A sink only reacts to deliveries; it never blocks quiescence.
    fn done(&self) -> bool {
        true
    }

    /// Complete dynamic state: the received words and their arrival
    /// stamps. (The sink rejects fast-forward — its record grows — but it
    /// persists fine: a snapshot captures the record as-is.)
    fn persist(&mut self, p: &mut dyn noc_sim::StateVisit) {
        use noc_sim::persist::persist_int_list;
        persist_int_list(&mut self.received, p);
        persist_int_list(&mut self.arrival_cycles, p);
    }
}

/// Consumes words from its first channel keeping only a running count and
/// the last word seen — the constant-footprint sink for endless GT
/// pipelines, where [`StreamSink`]'s growing record vectors would both
/// exhaust memory and (because a growing allocation is not periodic state)
/// veto analytical fast-forward.
#[derive(Debug, Default)]
pub struct CountingSink {
    count: u64,
    last: u32,
}

impl CountingSink {
    /// Creates a sink with zero words consumed.
    pub fn new() -> Self {
        CountingSink::default()
    }

    /// Words consumed so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The most recently consumed word (0 before the first arrival).
    pub fn last(&self) -> u32 {
        self.last
    }
}

impl<'a> ClockedWith<RawPort<'a>> for CountingSink {
    /// Consume one delivered word per port cycle.
    fn absorb(&mut self, port: &mut RawPort<'a>, now: u64) {
        if let Some(w) = port.kernel.pop_dst(port.channels[0], now) {
            self.count += 1;
            self.last = w;
        }
    }

    fn emit(&mut self, _port: &mut RawPort<'a>, _now: u64) {}
}

impl RawIp for CountingSink {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    /// A sink only reacts to deliveries; it never blocks quiescence.
    fn done(&self) -> bool {
        true
    }

    /// Count advances by the per-period delivery rate; the last word by
    /// the stream's per-period value stride.
    fn ff_visit(&mut self, v: &mut dyn noc_sim::StateVisit) {
        v.counter(&mut self.count);
        v.value(&mut self.last);
    }

    /// Complete dynamic state: the running count and the last word seen.
    fn persist(&mut self, p: &mut dyn noc_sim::StateVisit) {
        p.item(&mut self.count);
        noc_sim::persist::persist_int(&mut self.last, p);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ip::RawPort;
    use aethereal_ni::kernel::{NiKernel, NiKernelSpec};

    fn kernel() -> NiKernel {
        NiKernel::new(NiKernelSpec::reference(0))
    }

    #[test]
    fn source_fills_channel_until_backpressure() {
        let mut k = kernel();
        let mut s = StreamSource::counting(100);
        for now in 0..20 {
            s.tick(
                &mut RawPort {
                    kernel: &mut k,
                    channels: &[1],
                },
                now,
            );
        }
        // Queue depth is 8: the source stalls there.
        assert_eq!(s.produced(), 8);
        assert!(!s.done());
        assert_eq!(k.channel(1).src_level(), 8);
    }

    #[test]
    fn sink_collects_and_timestamps() {
        let mut k = kernel();
        let mut sink = StreamSink::new();
        // Put words directly into the dst queue via the test-only path:
        // a kernel with crossing 2 makes them visible 2 cycles later.
        // Use push through the source queue of another channel is not
        // possible here, so emulate arrivals via pop-free checks instead.
        sink.tick(
            &mut RawPort {
                kernel: &mut k,
                channels: &[2],
            },
            0,
        );
        assert!(sink.received().is_empty());
        assert_eq!(sink.max_inter_arrival(), None);
        let _ = sink.arrival_cycles();
    }

    #[test]
    fn stage_transforms_between_channels() {
        let mut k = kernel();
        let mut stage = PixelStage::new(|w| w + 1000);
        // No input yet: nothing happens.
        stage.tick(
            &mut RawPort {
                kernel: &mut k,
                channels: &[2, 3],
            },
            0,
        );
        assert_eq!(stage.processed(), 0);
    }

    #[test]
    fn counting_source_sequence() {
        let s = StreamSource::counting(3);
        assert_eq!((s.f)(0), 0);
        assert_eq!((s.f)(2), 2);
    }

    #[test]
    fn counting_sink_tracks_count_and_last() {
        let mut k = kernel();
        let mut sink = CountingSink::new();
        sink.tick(
            &mut RawPort {
                kernel: &mut k,
                channels: &[2],
            },
            0,
        );
        assert_eq!(sink.count(), 0);
        assert_eq!(sink.last(), 0);
    }

    #[test]
    fn ff_visit_classifications() {
        use noc_sim::ff::FfDigest;
        // Endless source and stage certify; bounded source rejects.
        let mut endless = StreamSource::counting(u64::MAX);
        let mut d = FfDigest::new(0);
        RawIp::ff_visit(&mut endless, &mut d);
        assert!(!d.rejected());

        let mut bounded = StreamSource::counting(100);
        let mut d = FfDigest::new(0);
        RawIp::ff_visit(&mut bounded, &mut d);
        assert!(d.rejected());

        let mut stage = PixelStage::new(|w| w);
        let mut sink = CountingSink::new();
        let mut d = FfDigest::new(0);
        RawIp::ff_visit(&mut stage, &mut d);
        RawIp::ff_visit(&mut sink, &mut d);
        assert!(!d.rejected());

        // The unaudited default (e.g. a recording StreamSink) rejects.
        let mut rec = StreamSink::new();
        let mut d = FfDigest::new(0);
        RawIp::ff_visit(&mut rec, &mut d);
        assert!(d.rejected());
    }
}

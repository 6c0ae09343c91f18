//! System-level sharded execution: a configured [`NocSystem`] cut at link
//! boundaries into per-shard regions — each a complete `NocSystem` of its
//! own, with routers, NIs *and* the IP modules bound to them — driven in
//! lockstep by the [`ShardRunner`], sequentially or on worker threads.
//!
//! The intended flow:
//!
//! 1. build and configure a single [`NocSystem`] (open connections through
//!    the NoC with the [`RuntimeConfigurator`](crate::RuntimeConfigurator),
//!    bind IPs) — configuration is identical whether the run will be
//!    sharded or not;
//! 2. once the network is drained (it is, after configuration settles),
//!    [`ShardedSystem::new`] splits it along a [`Partition`] — routers, NI
//!    state, per-link counters and IP bindings all move to their shards;
//! 3. [`ShardedSystem::run`] (or [`run_parallel`](ShardedSystem::run_parallel))
//!    advances all regions in lockstep, idle regions skipping via the
//!    activity-set scheduler.
//!
//! A sharded run is **bit-identical** to `Engine::run` on the unsplit
//! system: [`ShardedSystem::merged_noc_stats`] reconstructs the global
//! per-link counters, and every NI kernel counter, IP statistic and
//! delivered word matches — pinned by `crates/facade/tests/shard_parity.rs`.

use crate::system::NocSystem;
use aethereal_ni::kernel::NiKernelStats;
use aethereal_ni::Ni;
use noc_sim::shard::{merge_noc_stats, wires_of, Partition, ShardRunner};
use noc_sim::{LinkId, NiId, NocStats, RouterId, Topology};

/// A [`NocSystem`] split into lockstep shard regions.
pub struct ShardedSystem {
    pub(crate) regions: Vec<NocSystem>,
    pub(crate) runner: ShardRunner,
    /// Per shard: local router id → global router id.
    routers: Vec<Vec<RouterId>>,
    /// Per shard: local link id → global link id.
    link_maps: Vec<Vec<LinkId>>,
    /// Per shard: boundary id → global ingress link id.
    boundary_links: Vec<Vec<LinkId>>,
    /// Global NI id → (shard, local NI id).
    ni_home: Vec<(usize, usize)>,
}

impl std::fmt::Debug for ShardedSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedSystem")
            .field("shards", &self.regions.len())
            .field("cycle", &self.runner.cycle())
            .field("awake", &self.runner.awake_count())
            .finish()
    }
}

impl ShardedSystem {
    /// Splits a configured system along `partition`. `topology` must be the
    /// topology the system was built from (`spec.topology.build()`).
    ///
    /// # Panics
    ///
    /// Panics if the network still carries in-flight state (split requires
    /// the drained post-configuration state), if the topology does not
    /// match, or if the partition is invalid.
    pub fn new(sys: NocSystem, topology: &Topology, partition: &Partition) -> Self {
        let NocSystem {
            noc,
            nis,
            masters,
            slaves,
            raws,
            ff_enabled,
            ff_stats,
        } = sys;
        debug_assert_eq!(ff_stats, Default::default(), "split happens before any run");
        let start_cycle = noc.cycle();
        let shards = noc.split(topology, partition);
        let wires = wires_of(&shards);
        let n = shards.len();
        // Global NI id → home shard and local id.
        let mut ni_home = vec![(usize::MAX, usize::MAX); nis.len()];
        for (s, shard) in shards.iter().enumerate() {
            for (local, &global) in shard.nis.iter().enumerate() {
                ni_home[global] = (s, local);
            }
        }
        // Distribute NIs (global ascending order matches local order).
        let mut region_nis: Vec<Vec<Ni>> = (0..n).map(|_| Vec::new()).collect();
        for (g, ni) in nis.into_iter().enumerate() {
            let (s, local) = ni_home[g];
            debug_assert_eq!(region_nis[s].len(), local);
            region_nis[s].push(ni);
        }
        // Distribute IP bindings, remapping their NI to the shard-local id.
        let mut region_masters: Vec<Vec<_>> = (0..n).map(|_| Vec::new()).collect();
        for mut b in masters {
            let (s, local) = ni_home[b.ni];
            b.ni = local;
            region_masters[s].push(b);
        }
        let mut region_slaves: Vec<Vec<_>> = (0..n).map(|_| Vec::new()).collect();
        for mut b in slaves {
            let (s, local) = ni_home[b.ni];
            b.ni = local;
            region_slaves[s].push(b);
        }
        let mut region_raws: Vec<Vec<_>> = (0..n).map(|_| Vec::new()).collect();
        for mut b in raws {
            let (s, local) = ni_home[b.ni];
            b.ni = local;
            region_raws[s].push(b);
        }
        let mut regions = Vec::with_capacity(n);
        let mut routers = Vec::with_capacity(n);
        let mut link_maps = Vec::with_capacity(n);
        let mut boundary_links = Vec::with_capacity(n);
        let mut region_nis = region_nis.into_iter();
        let mut region_masters = region_masters.into_iter();
        let mut region_slaves = region_slaves.into_iter();
        let mut region_raws = region_raws.into_iter();
        for shard in shards {
            regions.push(NocSystem {
                noc: shard.noc,
                nis: region_nis.next().expect("one NI set per shard"),
                masters: region_masters.next().expect("one binding set per shard"),
                slaves: region_slaves.next().expect("one binding set per shard"),
                raws: region_raws.next().expect("one binding set per shard"),
                ff_enabled,
                ff_stats,
            });
            routers.push(shard.routers);
            link_maps.push(shard.link_map);
            boundary_links.push(shard.boundary_links);
        }
        let runner = ShardRunner::new(&mut regions, wires, start_cycle);
        ShardedSystem {
            runner,
            regions,
            routers,
            link_maps,
            boundary_links,
            ni_home,
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.regions.len()
    }

    /// Sets the runner's batch size `B ≥ 1` and returns `self` (builder
    /// form): how many cycles run between scheduling epochs — the
    /// activity-set walks in both modes (workers pipeline freely across
    /// epochs; there is no barrier). A pure performance knob: execution
    /// is bit-identical for every `B` (pinned by the batched parity tests).
    pub fn with_batch(mut self, batch: u64) -> Self {
        self.set_batch(batch);
        self
    }

    /// Sets the runner's batch size (see [`ShardedSystem::with_batch`]).
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero.
    pub fn set_batch(&mut self, batch: u64) {
        self.runner.set_batch(batch);
    }

    /// The configured batch size.
    pub fn batch(&self) -> u64 {
        self.runner.batch()
    }

    /// The global cycle (all regions are caught up to this between runs).
    pub fn cycle(&self) -> u64 {
        self.runner.cycle()
    }

    /// Regions currently in the activity set (for diagnostics).
    pub fn awake_count(&self) -> usize {
        self.runner.awake_count()
    }

    /// Enables (or disables) the analytical fast-forward backend in every
    /// region (see [`NocSystem::set_fast_forward`]). Only
    /// [`ShardedSystem::run`] makes fast-forward offers;
    /// [`ShardedSystem::run_parallel`] never does (see
    /// [`ShardRunner::run_parallel`](noc_sim::shard::ShardRunner::run_parallel)).
    pub fn set_fast_forward(&mut self, on: bool) {
        for r in &mut self.regions {
            r.set_fast_forward(on);
        }
    }

    /// Cumulative fast-forward activity summed across the regions.
    pub fn ff_stats(&self) -> noc_sim::FfStats {
        let mut total = noc_sim::FfStats::default();
        for r in &self.regions {
            total.merge(&r.ff_stats);
        }
        total
    }

    /// Runs `cycles` lockstep cycles on the calling thread, idle regions
    /// skipping via the activity-set scheduler.
    pub fn run(&mut self, cycles: u64) {
        self.runner.run(&mut self.regions, cycles);
    }

    /// Runs `cycles` lockstep cycles with one worker thread per shard.
    /// Bit-identical to [`ShardedSystem::run`].
    pub fn run_parallel(&mut self, cycles: u64) {
        self.runner.run_parallel(&mut self.regions, cycles);
    }

    /// The shard regions (read access; each is a complete [`NocSystem`]).
    pub fn regions(&self) -> &[NocSystem] {
        &self.regions
    }

    /// One shard region.
    pub fn region(&self, shard: usize) -> &NocSystem {
        &self.regions[shard]
    }

    /// The NI with global id `ni`.
    pub fn ni(&self, ni: NiId) -> &Ni {
        let (s, local) = self.ni_home[ni];
        &self.regions[s].nis[local]
    }

    /// Per shard: local router id → global router id.
    pub fn router_map(&self, shard: usize) -> &[RouterId] {
        &self.routers[shard]
    }

    /// Reconstructs the global network counters from the shards —
    /// bit-identical to the unsplit system's `noc.stats()`.
    pub fn merged_noc_stats(&self) -> NocStats {
        merge_noc_stats(
            self.regions
                .iter()
                .enumerate()
                .map(|(s, r)| (&r.noc, &self.link_maps[s][..], &self.boundary_links[s][..])),
        )
    }

    /// NI kernel statistics in global NI order.
    pub fn kernel_stats(&self) -> Vec<NiKernelStats> {
        (0..self.ni_home.len())
            .map(|g| *self.ni(g).kernel.stats())
            .collect()
    }

    /// Total GT contention violations across all shards (invariant: zero).
    pub fn gt_conflicts(&self) -> u64 {
        self.regions.iter().map(|r| r.noc.gt_conflicts()).sum()
    }

    /// Total BE credit-discipline violations across all shards (invariant:
    /// zero).
    pub fn be_overflows(&self) -> u64 {
        self.regions.iter().map(|r| r.noc.be_overflows()).sum()
    }

    /// Whether every bound master and raw IP across all shards is done.
    pub fn all_ips_done(&self) -> bool {
        self.regions.iter().all(NocSystem::all_ips_done)
    }

    // ---- Fault injection ------------------------------------------------

    /// Arms `plan` across all shards: each region receives exactly the
    /// events whose router it owns, keyed by *global* router id, so the
    /// fault timeline is bit-identical to arming the unsplit system.
    ///
    /// # Panics
    ///
    /// Panics if faults are already armed in any region.
    pub fn arm_faults(&mut self, plan: &noc_sim::FaultPlan) {
        for (s, region) in self.regions.iter_mut().enumerate() {
            region.noc.arm_faults_for(plan, &self.routers[s]);
        }
    }

    /// Disarms fault injection in every region.
    pub fn disarm_faults(&mut self) {
        for region in &mut self.regions {
            region.noc.disarm_faults();
        }
    }

    /// Whether any region has a fault plan armed.
    pub fn fault_armed(&self) -> bool {
        self.regions.iter().any(|r| r.noc.fault_armed())
    }

    /// Merged [`FaultReport`](noc_sim::FaultReport) across all shards, in
    /// global router ids — shard-count independent because every router
    /// (and hence every armed event and GT watchdog counter) lives in
    /// exactly one region.
    pub fn fault_report(&self) -> noc_sim::FaultReport {
        let mut merged = noc_sim::FaultReport::default();
        for region in &self.regions {
            merged.merge(&region.fault_report());
        }
        merged
    }

    /// Typed access to the master IP bound at `(global ni, port)`.
    ///
    /// # Panics
    ///
    /// Panics if no master is bound there or the type does not match.
    pub fn master_ip_as<T: 'static>(&self, ni: NiId, port: usize) -> &T {
        let (s, local) = self.ni_home[ni];
        self.regions[s]
            .masters
            .iter()
            .find(|b| b.ni == local && b.port == port)
            .unwrap_or_else(|| panic!("no master bound at NI {ni} port {port}"))
            .ip
            .as_any()
            .downcast_ref::<T>()
            .expect("master IP type mismatch")
    }

    /// Typed access to the slave IP bound at `(global ni, port)`.
    ///
    /// # Panics
    ///
    /// Panics if no slave is bound there or the type does not match.
    pub fn slave_ip_as<T: 'static>(&self, ni: NiId, port: usize) -> &T {
        let (s, local) = self.ni_home[ni];
        self.regions[s]
            .slaves
            .iter()
            .find(|b| b.ni == local && b.port == port)
            .unwrap_or_else(|| panic!("no slave bound at NI {ni} port {port}"))
            .ip
            .as_any()
            .downcast_ref::<T>()
            .expect("slave IP type mismatch")
    }

    /// Typed access to the first raw IP of type `T` bound at global NI
    /// `ni` (an NI may carry several raw IPs, e.g. a stream source and a
    /// sink).
    ///
    /// # Panics
    ///
    /// Panics if no raw IP of that type is bound there.
    pub fn raw_ip_as<T: 'static>(&self, ni: NiId) -> &T {
        let (s, local) = self.ni_home[ni];
        self.regions[s]
            .raws
            .iter()
            .filter(|b| b.ni == local)
            .find_map(|b| b.ip.as_any().downcast_ref::<T>())
            .unwrap_or_else(|| panic!("no matching raw IP bound at NI {ni}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::TopologySpec;
    use crate::{presets, NocSpec};
    use aethereal_proto::{StreamSink, StreamSource};

    /// A 2x2 mesh, one NI per router, raw streaming NIs everywhere; stream
    /// NI 0 → NI 3 crosses the row cut.
    fn sharded_stream_pair() -> (ShardedSystem, Topology) {
        let spec = NocSpec::new(
            TopologySpec::Mesh {
                width: 2,
                height: 2,
                nis_per_router: 1,
            },
            (0..4).map(|id| presets::raw_ni(id, 1)).collect(),
        )
        .with_partition(vec![0, 0, 1, 1]);
        let topo = spec.topology.build();
        let mut sys = NocSystem::from_spec(&spec);
        // Direct (local) channel configuration, as in the kernel tests.
        use aethereal_ni::kernel::regs::CTRL_ENABLE;
        use aethereal_ni::kernel::{chan_reg_addr, pack_path_rqid, ChanReg};
        let p = topo.route(0, 3).unwrap();
        let rev = topo.route(3, 0).unwrap();
        for (ni, path) in [(0, &p), (3, &rev)] {
            let k = &mut sys.nis[ni].kernel;
            k.reg_write(chan_reg_addr(1, ChanReg::Ctrl), CTRL_ENABLE)
                .unwrap();
            k.reg_write(chan_reg_addr(1, ChanReg::Space), 8).unwrap();
            k.reg_write(chan_reg_addr(1, ChanReg::PathRqid), pack_path_rqid(path, 1))
                .unwrap();
        }
        sys.bind_raw(0, 1, vec![1], Box::new(StreamSource::counting(100)));
        sys.bind_raw(3, 1, vec![1], Box::new(StreamSink::new()));
        let partition = spec.build_partition().unwrap().expect("partition set");
        (ShardedSystem::new(sys, &topo, &partition), topo)
    }

    #[test]
    fn stream_crosses_the_cut_and_arrives_in_order() {
        let (mut sharded, _) = sharded_stream_pair();
        assert_eq!(sharded.shard_count(), 2);
        sharded.run(2_000);
        let sink = sharded.raw_ip_as::<StreamSink>(3);
        assert_eq!(sink.received().len(), 100);
        assert!(sink.received().iter().copied().eq(0..100));
        assert_eq!(sharded.gt_conflicts(), 0);
        assert_eq!(sharded.be_overflows(), 0);
        assert!(sharded.all_ips_done());
    }

    #[test]
    fn drained_sharded_system_sleeps_entirely() {
        let (mut sharded, _) = sharded_stream_pair();
        sharded.run(2_000);
        assert!(sharded.all_ips_done());
        sharded.run(1_000);
        assert_eq!(sharded.awake_count(), 0, "drained regions all sleep");
        assert_eq!(sharded.cycle(), 3_000);
    }

    #[test]
    fn parallel_run_matches_sequential_run() {
        let (mut seq, _) = sharded_stream_pair();
        let (mut par, _) = sharded_stream_pair();
        seq.run(1_500);
        par.run_parallel(1_500);
        assert_eq!(seq.merged_noc_stats(), par.merged_noc_stats());
        assert_eq!(seq.kernel_stats(), par.kernel_stats());
        assert_eq!(
            seq.raw_ip_as::<StreamSink>(3).received(),
            par.raw_ip_as::<StreamSink>(3).received()
        );
    }

    #[test]
    fn spec_partition_validation_rejects_bad_maps() {
        let mut spec = NocSpec::new(
            TopologySpec::Mesh {
                width: 2,
                height: 2,
                nis_per_router: 1,
            },
            (0..4).map(|id| presets::raw_ni(id, 1)).collect(),
        );
        spec.partition = Some(vec![0, 0, 1]); // wrong length
        assert!(matches!(
            spec.validate(),
            Err(crate::spec::SpecError::Partition(_))
        ));
        spec.partition = Some(vec![0, 0, 2, 2]); // sparse shard ids
        assert!(spec.validate().is_err());
        spec.partition = Some(vec![0, 0, 1, 1]);
        assert_eq!(spec.validate(), Ok(()));
    }
}

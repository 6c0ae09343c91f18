//! Full-state snapshot/restore for assembled systems.
//!
//! A snapshot is a JSON document capturing **every dynamic field** of a
//! [`NocSystem`] (or [`ShardedSystem`]) at an arbitrary cycle — network
//! wires and routers mid-flight, NI kernels and shells mid-transaction,
//! IP models including RNG seeds and latency pipelines, and (sharded) the
//! runner's boundary-exchange rings. Restoring a snapshot into a freshly
//! built system of the same spec and bindings and continuing the run is
//! **bit-identical** to never having stopped (pinned by
//! `crates/facade/tests/snapshot_replay.rs`).
//!
//! The state itself travels through the one state walk
//! ([`noc_sim::persist`]): each component serializes to a flat `u64`
//! stream via its `walk` method — the *same* walk for save and load (and
//! for the fast-forward certificate), so a field can never be saved but
//! forgotten on restore. The JSON layer here only adds structure (which
//! stream belongs to which component) and validation (format tag, kind,
//! component counts); the walk validates the items it takes.
//!
//! **What a snapshot does not carry**: structure. Topology, NI specs,
//! channel wiring, IP types and their construction parameters (traces,
//! transforms, config structs) must match on the restore target — restore
//! onto a system built from the same [`NocSpec`](crate::NocSpec) with the
//! same bindings. Runtime configuration (channel registers, slot tables,
//! config-stack bindings) **is** dynamic state and is carried, so a
//! snapshot may be taken mid-configuration.
//!
//! Snapshots are **forkable**: restoring one snapshot into two systems
//! yields fully independent futures (deep copy through the JSON text, no
//! shared state), and saving is non-destructive — the saved system
//! continues unperturbed.

use crate::json::{self, Value};
use crate::shard::ShardedSystem;
use crate::system::NocSystem;
use noc_sim::{PersistError, StateLoader, StateSaver, StateVisit};

/// Snapshot format version accepted by this build. Format 1 also carried
/// each network's boundary registers and dirty lists (empty in every
/// snapshot `cfg` could produce); it has no reader.
pub const SNAPSHOT_FORMAT: u64 = 2;

/// Error produced by snapshot capture or restore.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotError {
    /// Human-readable description of what went wrong.
    pub msg: String,
}

impl SnapshotError {
    fn new(msg: impl Into<String>) -> Self {
        SnapshotError { msg: msg.into() }
    }
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "snapshot error: {}", self.msg)
    }
}

impl std::error::Error for SnapshotError {}

impl From<PersistError> for SnapshotError {
    fn from(e: PersistError) -> Self {
        SnapshotError::new(e.to_string())
    }
}

impl From<json::JsonError> for SnapshotError {
    fn from(e: json::JsonError) -> Self {
        SnapshotError::new(e.to_string())
    }
}

fn words_to_value(words: Vec<u64>) -> Value {
    Value::Arr(words.into_iter().map(Value::Num).collect())
}

fn value_to_words(v: &Value) -> Result<Vec<u64>, SnapshotError> {
    v.as_arr()?.iter().map(|w| Ok(w.as_u64()?)).collect()
}

/// Runs one component's walk against a saver and packages the stream.
fn save_walk(f: impl FnOnce(&mut dyn StateVisit)) -> Result<Value, SnapshotError> {
    let mut saver = StateSaver::new();
    f(&mut saver);
    Ok(words_to_value(saver.finish()?))
}

/// Runs one component's walk against a loader over `v`'s stream.
fn load_walk(v: &Value, f: impl FnOnce(&mut dyn StateVisit)) -> Result<(), SnapshotError> {
    let mut loader = StateLoader::new(value_to_words(v)?);
    f(&mut loader);
    loader.finish()?;
    Ok(())
}

/// Saves a list of components, one stream each — the inverse of
/// [`load_each`].
fn save_each<T>(
    targets: &mut [T],
    mut f: impl FnMut(&mut T, &mut dyn StateVisit),
) -> Result<Value, SnapshotError> {
    let streams = targets.iter_mut().map(|t| save_walk(|p| f(t, p)));
    Ok(Value::Arr(streams.collect::<Result<_, _>>()?))
}

/// Validates the envelope and returns the document for field access.
fn check_envelope<'a>(snap: &'a Value, kind: &str) -> Result<&'a Value, SnapshotError> {
    let format = snap.get("format")?.as_u64()?;
    if format != SNAPSHOT_FORMAT {
        return Err(SnapshotError::new(format!(
            "unsupported snapshot format {format} (this build reads {SNAPSHOT_FORMAT})"
        )));
    }
    let got = snap.get("kind")?.as_str()?.to_string();
    if got != kind {
        return Err(SnapshotError::new(format!(
            "snapshot kind is `{got}`, target expects `{kind}`"
        )));
    }
    Ok(snap)
}

/// Restores a list of per-component streams onto a list of targets,
/// checking the counts line up (a mismatch means the snapshot came from a
/// structurally different system).
fn load_each<T>(
    v: &Value,
    what: &str,
    targets: &mut [T],
    mut f: impl FnMut(&mut T, &mut dyn StateVisit),
) -> Result<(), SnapshotError> {
    let items = v.as_arr()?;
    if items.len() != targets.len() {
        return Err(SnapshotError::new(format!(
            "snapshot has {} {what}, target has {}",
            items.len(),
            targets.len()
        )));
    }
    for (item, target) in items.iter().zip(targets.iter_mut()) {
        load_walk(item, |p| f(target, p))?;
    }
    Ok(())
}

impl NocSystem {
    /// Captures the complete dynamic state at the current cycle.
    ///
    /// Saving is non-destructive: the system continues bit-identically.
    /// (`&mut` because the state walk is a single mutable traversal
    /// shared with restore — a save writes nothing back.)
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError`] if any bound IP lacks a persist audit
    /// (the trait default poisons the walk rather than dropping state).
    pub fn snapshot(&mut self) -> Result<Value, SnapshotError> {
        let noc = save_walk(|p| self.noc.walk(p))?;
        let nis = save_each(&mut self.nis, |ni, p| ni.walk(p))?;
        let masters = save_each(&mut self.masters, |b, p| b.ip.persist(p))?;
        let slaves = save_each(&mut self.slaves, |b, p| b.ip.persist(p))?;
        let raws = save_each(&mut self.raws, |b, p| b.ip.persist(p))?;
        Ok(Value::obj(vec![
            ("format", Value::Num(SNAPSHOT_FORMAT)),
            ("kind", Value::Str("system".into())),
            ("cycle", Value::Num(self.cycle())),
            ("noc", noc),
            ("nis", nis),
            ("masters", masters),
            ("slaves", slaves),
            ("raws", raws),
            (
                "ff",
                Value::Arr(vec![
                    Value::Num(self.ff_stats.jumps),
                    Value::Num(self.ff_stats.cycles_jumped),
                ]),
            ),
        ]))
    }

    /// Restores a snapshot onto this system, which must be freshly built
    /// from the same spec with the same IP bindings (see the module docs
    /// for the structure-vs-state split). On success the system is at the
    /// snapshot's cycle and running it is bit-identical to the original.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError`] on a format/kind mismatch, a component
    /// count mismatch, or any component stream that fails its audited
    /// walk (wrong length, out-of-range values, capacity overflow).
    pub fn restore(&mut self, snap: &Value) -> Result<(), SnapshotError> {
        let snap = check_envelope(snap, "system")?;
        let cycle = snap.get("cycle")?.as_u64()?;
        load_walk(snap.get("noc")?, |p| self.noc.walk(p))?;
        load_each(snap.get("nis")?, "NIs", &mut self.nis, |ni, p| ni.walk(p))?;
        load_each(
            snap.get("masters")?,
            "masters",
            &mut self.masters,
            |b, p| b.ip.persist(p),
        )?;
        load_each(snap.get("slaves")?, "slaves", &mut self.slaves, |b, p| {
            b.ip.persist(p)
        })?;
        load_each(snap.get("raws")?, "raw IPs", &mut self.raws, |b, p| {
            b.ip.persist(p)
        })?;
        let ff = snap.get("ff")?.as_arr()?;
        if ff.len() != 2 {
            return Err(SnapshotError::new("malformed ff stats"));
        }
        self.ff_stats.jumps = ff[0].as_u64()?;
        self.ff_stats.cycles_jumped = ff[1].as_u64()?;
        if self.cycle() != cycle {
            return Err(SnapshotError::new(format!(
                "restored network is at cycle {}, envelope says {cycle}",
                self.cycle()
            )));
        }
        Ok(())
    }
}

impl ShardedSystem {
    /// Captures the complete dynamic state of the sharded system: every
    /// region as a nested system snapshot, plus the runner (global cycle,
    /// activity set, wake horizons, and any word still in flight on a cut
    /// wire's boundary ring).
    ///
    /// May be taken between any two [`run`](ShardedSystem::run) /
    /// [`run_parallel`](ShardedSystem::run_parallel) calls — including
    /// mid-epoch with respect to the batch size, since regions are always
    /// caught up to the global cycle between runs.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError`] as for [`NocSystem::snapshot`].
    pub fn snapshot(&mut self) -> Result<Value, SnapshotError> {
        let regions = self
            .regions
            .iter_mut()
            .map(NocSystem::snapshot)
            .collect::<Result<Vec<_>, _>>()?;
        let runner = save_walk(|p| self.runner.walk(p))?;
        Ok(Value::obj(vec![
            ("format", Value::Num(SNAPSHOT_FORMAT)),
            ("kind", Value::Str("sharded".into())),
            ("cycle", Value::Num(self.cycle())),
            ("regions", Value::Arr(regions)),
            ("runner", runner),
        ]))
    }

    /// Restores a snapshot onto this sharded system, which must be freshly
    /// built from the same spec, bindings and partition. The runner's walk
    /// re-derives every boundary ring's published-cycle watermark and slot
    /// home index from the restored global cycle — they are positional
    /// state, not snapshot state.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError`] as for [`NocSystem::restore`], plus on a
    /// shard count mismatch.
    pub fn restore(&mut self, snap: &Value) -> Result<(), SnapshotError> {
        let snap = check_envelope(snap, "sharded")?;
        let cycle = snap.get("cycle")?.as_u64()?;
        let regions = snap.get("regions")?.as_arr()?;
        if regions.len() != self.regions.len() {
            return Err(SnapshotError::new(format!(
                "snapshot has {} shards, target has {}",
                regions.len(),
                self.regions.len()
            )));
        }
        for (region_snap, region) in regions.iter().zip(self.regions.iter_mut()) {
            region.restore(region_snap)?;
        }
        load_walk(snap.get("runner")?, |p| self.runner.walk(p))?;
        if self.cycle() != cycle {
            return Err(SnapshotError::new(format!(
                "restored runner is at cycle {}, envelope says {cycle}",
                self.cycle()
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::TopologySpec;
    use crate::{presets, NocSpec};

    fn small_system() -> NocSystem {
        let spec = NocSpec::new(
            TopologySpec::Mesh {
                width: 2,
                height: 1,
                nis_per_router: 1,
            },
            vec![presets::master_ni(0), presets::slave_ni(1)],
        );
        NocSystem::from_spec(&spec)
    }

    #[test]
    fn snapshot_envelope_round_trips_through_text() {
        let mut sys = small_system();
        sys.run(25);
        let snap = sys.snapshot().expect("snapshot");
        let text = json::to_string_pretty(&snap);
        let parsed = json::parse(&text).expect("parse");
        assert_eq!(parsed, snap);
        assert_eq!(parsed.get("cycle").unwrap().as_u64().unwrap(), 25);
        assert_eq!(parsed.get("kind").unwrap().as_str().unwrap(), "system");
    }

    #[test]
    fn restore_onto_fresh_system_matches_cycle() {
        let mut sys = small_system();
        sys.run(40);
        let snap = sys.snapshot().expect("snapshot");
        let mut fresh = small_system();
        assert_eq!(fresh.cycle(), 0);
        fresh.restore(&snap).expect("restore");
        assert_eq!(fresh.cycle(), 40);
    }

    #[test]
    fn restore_rejects_wrong_kind_and_format() {
        let mut sys = small_system();
        let mut snap = sys.snapshot().expect("snapshot");
        if let Value::Obj(m) = &mut snap {
            m.insert("kind".into(), Value::Str("sharded".into()));
        }
        assert!(sys.restore(&snap).is_err());
        let mut snap = sys.snapshot().expect("snapshot");
        if let Value::Obj(m) = &mut snap {
            m.insert("format".into(), Value::Num(99));
        }
        assert!(sys.restore(&snap).is_err());
    }

    #[test]
    fn restore_rejects_component_count_mismatch() {
        let mut sys = small_system();
        let mut snap = sys.snapshot().expect("snapshot");
        if let Value::Obj(m) = &mut snap {
            m.insert("nis".into(), Value::Arr(vec![]));
        }
        let err = sys.restore(&snap).expect_err("must reject");
        assert!(err.msg.contains("NIs"), "{err}");
    }

    #[test]
    fn saving_is_non_destructive() {
        let mut a = small_system();
        let mut b = small_system();
        a.run(30);
        b.run(30);
        let _ = a.snapshot().expect("snapshot");
        a.run(30);
        b.run(30);
        assert_eq!(
            json::to_string_pretty(&a.snapshot().unwrap()),
            json::to_string_pretty(&b.snapshot().unwrap()),
            "a saved system must continue exactly like a never-saved one"
        );
    }
}

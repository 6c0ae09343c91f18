//! The design-time NoC specification — the XML description's stand-in.
//!
//! §4.2 of the paper: *"NoC instantiation is simple, as we use an XML
//! description to automatically generate the VHDL code for the NIs as well
//! as for the NoC topology."* [`NocSpec`] carries the same information —
//! topology, per-NI port/channel/queue geometry, shells per port — and
//! "generates" a runnable [`NocSystem`](crate::NocSystem) instead of VHDL.
//! [`NocSpec::to_json`] / [`NocSpec::from_json`] persist it as JSON (via
//! the in-tree [`json`] layer), round-trip tested in `tests/`.

use crate::json::{self, JsonError, Value};
use aethereal_ni::kernel::{ArbPolicy, NiKernelSpec, PortSpec};
use aethereal_ni::ni::{NiSpec, PortStackSpec};
use aethereal_ni::shell::{AddrRange, ConnSelect};
use noc_sim::{FaultEvent, FaultKind, FaultPlan, NocConfig, Topology};

/// Topology description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologySpec {
    /// `width × height` mesh, `nis_per_router` NIs on every router.
    Mesh {
        /// Routers per row.
        width: usize,
        /// Routers per column.
        height: usize,
        /// NIs per router.
        nis_per_router: usize,
    },
}

impl TopologySpec {
    /// Builds the concrete topology.
    pub fn build(&self) -> Topology {
        let TopologySpec::Mesh {
            width,
            height,
            nis_per_router,
        } = *self;
        Topology::mesh(width, height, nis_per_router)
    }

    /// Number of NI attachment points the topology provides.
    pub fn ni_count(&self) -> usize {
        let TopologySpec::Mesh { nis_per_router, .. } = *self;
        self.router_count() * nis_per_router
    }

    /// Number of routers the topology provides.
    pub fn router_count(&self) -> usize {
        let TopologySpec::Mesh { width, height, .. } = *self;
        width * height
    }
}

/// A complete design-time NoC description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NocSpec {
    /// The topology.
    pub topology: TopologySpec,
    /// One NI description per attachment point, in NI-id order.
    pub nis: Vec<NiSpec>,
    /// Router BE input-queue depth, words.
    pub be_queue_words: usize,
    /// Whether the built system runs with the analytical GT fast-forward
    /// backend enabled (see `noc_sim::ff`): pure-GT steady states are
    /// certified over two slot-table rotations and then extrapolated
    /// arithmetically, falling back to cycle-accurate ticking the moment
    /// any state is non-trivial. Off by default — a pure performance knob,
    /// bit-identical when on.
    pub fast_forward: bool,
}

/// Spec validation errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// NI count does not match the topology's attachment points.
    NiCountMismatch {
        /// NIs in the spec.
        nis: usize,
        /// Attachment points in the topology.
        attachments: usize,
    },
    /// An NI's declared id does not equal its position.
    NiIdMismatch {
        /// Position in the list.
        index: usize,
        /// Declared `ni_id`.
        declared: usize,
    },
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::NiCountMismatch { nis, attachments } => {
                write!(
                    f,
                    "{nis} NIs specified but topology has {attachments} attachment points"
                )
            }
            SpecError::NiIdMismatch { index, declared } => {
                write!(f, "NI at position {index} declares id {declared}")
            }
        }
    }
}

impl std::error::Error for SpecError {}

impl NocSpec {
    /// Creates a spec with default router queues.
    pub fn new(topology: TopologySpec, nis: Vec<NiSpec>) -> Self {
        NocSpec {
            topology,
            nis,
            be_queue_words: 8,
            fast_forward: false,
        }
    }

    /// Enables (or disables) the analytical GT fast-forward backend.
    pub fn with_fast_forward(mut self, on: bool) -> Self {
        self.fast_forward = on;
        self
    }

    /// Builds the topology (the same value as [`TopologySpec::build`]).
    pub fn build_topology(&self) -> Topology {
        self.topology.build()
    }

    /// Validates internal consistency: one NI per attachment point, each
    /// declaring its own position as its id.
    ///
    /// # Errors
    ///
    /// See [`SpecError`].
    pub fn validate(&self) -> Result<(), SpecError> {
        let attachments = self.topology.ni_count();
        if self.nis.len() != attachments {
            return Err(SpecError::NiCountMismatch {
                nis: self.nis.len(),
                attachments,
            });
        }
        for (index, ni) in self.nis.iter().enumerate() {
            if ni.kernel.ni_id != index {
                return Err(SpecError::NiIdMismatch {
                    index,
                    declared: ni.kernel.ni_id,
                });
            }
        }
        Ok(())
    }

    /// The NoC construction parameters.
    pub fn noc_config(&self) -> NocConfig {
        NocConfig {
            be_queue_words: self.be_queue_words,
        }
    }

    /// Serializes the spec to JSON — the concrete stand-in for the paper's
    /// XML description ("we use an XML description to automatically
    /// generate the VHDL code", §4.2).
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] (practically unreachable for this data
    /// model).
    pub fn to_json(&self) -> Result<String, JsonError> {
        Ok(json::to_string_pretty(&self.to_value()))
    }

    /// Parses a spec from its JSON form.
    ///
    /// # Errors
    ///
    /// Returns the parse error for malformed input.
    pub fn from_json(input: &str) -> Result<Self, JsonError> {
        Self::from_value(&json::parse(input)?)
    }

    fn to_value(&self) -> Value {
        Value::obj(vec![
            ("topology", topology_to_value(&self.topology)),
            (
                "nis",
                Value::Arr(self.nis.iter().map(ni_spec_to_value).collect()),
            ),
            ("be_queue_words", Value::Num(self.be_queue_words as u64)),
            ("fast_forward", Value::Bool(self.fast_forward)),
        ])
    }

    fn from_value(v: &Value) -> Result<Self, JsonError> {
        // Two retired keys: older files carry them as `null`, which
        // parses; a value is refused rather than silently dropped.
        for (key, why) in [
            (
                "partition",
                "shard a built system with `ShardedSystem::new` instead",
            ),
            ("regions", "long routes always split greedily"),
        ] {
            if !matches!(v.get_opt(key), None | Some(Value::Null)) {
                return Err(JsonError::new(format!(
                    "spec key `{key}` is retired and must be null: {why}"
                )));
            }
        }
        Ok(NocSpec {
            topology: topology_from_value(v.get("topology")?)?,
            nis: v
                .get("nis")?
                .as_arr()?
                .iter()
                .map(ni_spec_from_value)
                .collect::<Result<_, _>>()?,
            be_queue_words: v.get("be_queue_words")?.as_usize()?,
            // Absent in pre-fast-forward spec files: cycle-accurate only.
            fast_forward: match v.get_opt("fast_forward") {
                None | Some(Value::Null) => false,
                Some(b) => b.as_bool()?,
            },
        })
    }
}

// ---- JSON conversions (externally tagged enums, serde-style) -------------

fn topology_to_value(t: &TopologySpec) -> Value {
    let TopologySpec::Mesh {
        width,
        height,
        nis_per_router,
    } = *t;
    Value::obj(vec![(
        "Mesh",
        Value::obj(vec![
            ("width", Value::Num(width as u64)),
            ("height", Value::Num(height as u64)),
            ("nis_per_router", Value::Num(nis_per_router as u64)),
        ]),
    )])
}

fn topology_from_value(v: &Value) -> Result<TopologySpec, JsonError> {
    match v.as_variant()? {
        ("Mesh", Some(b)) => Ok(TopologySpec::Mesh {
            width: b.get("width")?.as_usize()?,
            height: b.get("height")?.as_usize()?,
            nis_per_router: b.get("nis_per_router")?.as_usize()?,
        }),
        (tag, _) => Err(JsonError::new(format!("unknown topology `{tag}`"))),
    }
}

fn ni_spec_to_value(ni: &NiSpec) -> Value {
    Value::obj(vec![
        ("kernel", kernel_spec_to_value(&ni.kernel)),
        (
            "stacks",
            Value::Arr(ni.stacks.iter().map(stack_to_value).collect()),
        ),
    ])
}

fn ni_spec_from_value(v: &Value) -> Result<NiSpec, JsonError> {
    Ok(NiSpec {
        kernel: kernel_spec_from_value(v.get("kernel")?)?,
        stacks: v
            .get("stacks")?
            .as_arr()?
            .iter()
            .map(stack_from_value)
            .collect::<Result<_, _>>()?,
    })
}

fn kernel_spec_to_value(k: &NiKernelSpec) -> Value {
    Value::obj(vec![
        ("ni_id", Value::Num(k.ni_id as u64)),
        ("stu_slots", Value::Num(k.stu_slots as u64)),
        ("max_packet_words", Value::Num(k.max_packet_words as u64)),
        ("arb", arb_to_value(&k.arb)),
        (
            "ports",
            Value::Arr(
                k.ports
                    .iter()
                    .map(|p| {
                        Value::obj(vec![
                            ("channels", Value::Num(p.channels as u64)),
                            ("clock_div", Value::Num(u64::from(p.clock_div))),
                            ("queue_words", Value::Num(p.queue_words as u64)),
                            ("crossing", Value::Num(p.crossing)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "cnip_channel",
            match k.cnip_channel {
                Some(c) => Value::Num(c as u64),
                None => Value::Null,
            },
        ),
    ])
}

fn kernel_spec_from_value(v: &Value) -> Result<NiKernelSpec, JsonError> {
    Ok(NiKernelSpec {
        ni_id: v.get("ni_id")?.as_usize()?,
        stu_slots: v.get("stu_slots")?.as_usize()?,
        max_packet_words: v.get("max_packet_words")?.as_usize()?,
        arb: arb_from_value(v.get("arb")?)?,
        ports: v
            .get("ports")?
            .as_arr()?
            .iter()
            .map(|p| {
                Ok(PortSpec {
                    channels: p.get("channels")?.as_usize()?,
                    clock_div: p.get("clock_div")?.as_u32()?,
                    queue_words: p.get("queue_words")?.as_usize()?,
                    crossing: p.get("crossing")?.as_u64()?,
                })
            })
            .collect::<Result<_, JsonError>>()?,
        cnip_channel: match v.get("cnip_channel")? {
            Value::Null => None,
            n => Some(n.as_usize()?),
        },
    })
}

fn arb_to_value(a: &ArbPolicy) -> Value {
    match a {
        ArbPolicy::RoundRobin => Value::Str("RoundRobin".into()),
        ArbPolicy::WeightedRoundRobin(weights) => Value::obj(vec![(
            "WeightedRoundRobin",
            Value::Arr(weights.iter().map(|&w| Value::Num(u64::from(w))).collect()),
        )]),
        ArbPolicy::QueueFill => Value::Str("QueueFill".into()),
    }
}

fn arb_from_value(v: &Value) -> Result<ArbPolicy, JsonError> {
    match v.as_variant()? {
        ("RoundRobin", None) => Ok(ArbPolicy::RoundRobin),
        ("QueueFill", None) => Ok(ArbPolicy::QueueFill),
        ("WeightedRoundRobin", Some(b)) => Ok(ArbPolicy::WeightedRoundRobin(
            b.as_arr()?
                .iter()
                .map(Value::as_u32)
                .collect::<Result<_, _>>()?,
        )),
        (tag, _) => Err(JsonError::new(format!("unknown arb policy `{tag}`"))),
    }
}

fn stack_to_value(s: &PortStackSpec) -> Value {
    match s {
        PortStackSpec::Raw => Value::Str("Raw".into()),
        PortStackSpec::Config => Value::Str("Config".into()),
        PortStackSpec::Cnip => Value::Str("Cnip".into()),
        PortStackSpec::Slave => Value::Str("Slave".into()),
        PortStackSpec::Master { conn } => Value::obj(vec![(
            "Master",
            Value::obj(vec![("conn", conn_to_value(conn))]),
        )]),
    }
}

fn stack_from_value(v: &Value) -> Result<PortStackSpec, JsonError> {
    match v.as_variant()? {
        // Every channel delivers in order; a spec that still asks for an
        // ordering (in particular unordered delivery) is refused, never
        // read as in-order.
        (tag, Some(b)) if b.get_opt("ordering").is_some() => Err(JsonError::new(format!(
            "port stack `{tag}` names an `ordering`: channels are in order, \
             unordered delivery is not modelled"
        ))),
        ("Raw", None) => Ok(PortStackSpec::Raw),
        ("Config", None) => Ok(PortStackSpec::Config),
        ("Cnip", None) => Ok(PortStackSpec::Cnip),
        ("Slave", None) => Ok(PortStackSpec::Slave),
        ("Master", Some(b)) => Ok(PortStackSpec::Master {
            conn: conn_from_value(b.get("conn")?)?,
        }),
        (tag, _) => Err(JsonError::new(format!("unknown port stack `{tag}`"))),
    }
}

fn conn_to_value(c: &ConnSelect) -> Value {
    match c {
        ConnSelect::Direct => Value::Str("Direct".into()),
        ConnSelect::Multicast => Value::Str("Multicast".into()),
        ConnSelect::Narrowcast(ranges) => Value::obj(vec![(
            "Narrowcast",
            Value::Arr(
                ranges
                    .iter()
                    .map(|r| {
                        Value::obj(vec![
                            ("base", Value::Num(u64::from(r.base))),
                            ("size", Value::Num(u64::from(r.size))),
                        ])
                    })
                    .collect(),
            ),
        )]),
    }
}

fn conn_from_value(v: &Value) -> Result<ConnSelect, JsonError> {
    match v.as_variant()? {
        ("Direct", None) => Ok(ConnSelect::Direct),
        ("Multicast", None) => Ok(ConnSelect::Multicast),
        ("Narrowcast", Some(b)) => Ok(ConnSelect::Narrowcast(
            b.as_arr()?
                .iter()
                .map(|r| {
                    Ok(AddrRange {
                        base: r.get("base")?.as_u32()?,
                        size: r.get("size")?.as_u32()?,
                    })
                })
                .collect::<Result<_, JsonError>>()?,
        )),
        (tag, _) => Err(JsonError::new(format!("unknown connection type `{tag}`"))),
    }
}

// ---- Fault plan persistence ----------------------------------------------

/// Serializes a [`FaultPlan`] to JSON — fault campaigns are part of an
/// experiment's design-time description, exactly like the spec itself.
pub fn fault_plan_to_json(plan: &FaultPlan) -> String {
    json::to_string_pretty(&Value::obj(vec![
        ("seed", Value::Num(plan.seed())),
        (
            "events",
            Value::Arr(plan.events().iter().map(fault_event_to_value).collect()),
        ),
    ]))
}

/// Parses a [`FaultPlan`] from its JSON form.
///
/// # Errors
///
/// Returns a [`JsonError`] on malformed input, unknown kinds, or
/// out-of-range values (ports beyond `u8`, inverted windows).
pub fn fault_plan_from_json(input: &str) -> Result<FaultPlan, JsonError> {
    let v = json::parse(input)?;
    let events = v
        .get("events")?
        .as_arr()?
        .iter()
        .map(fault_event_from_value)
        .collect::<Result<Vec<_>, _>>()?;
    Ok(FaultPlan::from_parts(v.get("seed")?.as_u64()?, events))
}

fn fault_event_to_value(e: &FaultEvent) -> Value {
    let kind = match e.kind {
        FaultKind::LinkStuck => Value::Str("LinkStuck".into()),
        FaultKind::LinkFlaky { drop_ppm } => Value::obj(vec![(
            "LinkFlaky",
            Value::obj(vec![("drop_ppm", Value::Num(u64::from(drop_ppm)))]),
        )]),
        FaultKind::RouterStall => Value::Str("RouterStall".into()),
        FaultKind::CreditLoss { max } => Value::obj(vec![(
            "CreditLoss",
            Value::obj(vec![("max", Value::Num(u64::from(max)))]),
        )]),
        FaultKind::SlotCorrupt { xor } => Value::obj(vec![(
            "SlotCorrupt",
            Value::obj(vec![("xor", Value::Num(u64::from(xor)))]),
        )]),
    };
    Value::obj(vec![
        ("kind", kind),
        ("router", Value::Num(e.router as u64)),
        ("port", Value::Num(u64::from(e.port))),
        ("from", Value::Num(e.from)),
        ("until", Value::Num(e.until)),
    ])
}

fn fault_event_from_value(v: &Value) -> Result<FaultEvent, JsonError> {
    let kind = match v.get("kind")?.as_variant()? {
        ("LinkStuck", None) => FaultKind::LinkStuck,
        ("LinkFlaky", Some(b)) => FaultKind::LinkFlaky {
            drop_ppm: b.get("drop_ppm")?.as_u32()?,
        },
        ("RouterStall", None) => FaultKind::RouterStall,
        ("CreditLoss", Some(b)) => FaultKind::CreditLoss {
            max: b.get("max")?.as_u32()?,
        },
        ("SlotCorrupt", Some(b)) => FaultKind::SlotCorrupt {
            xor: b.get("xor")?.as_u32()?,
        },
        (tag, _) => return Err(JsonError::new(format!("unknown fault kind `{tag}`"))),
    };
    let port_raw = v.get("port")?.as_u64()?;
    let port = u8::try_from(port_raw)
        .map_err(|_| JsonError::new(format!("port {port_raw} does not fit a port index")))?;
    let (from, until) = (v.get("from")?.as_u64()?, v.get("until")?.as_u64()?);
    if until < from {
        return Err(JsonError::new(format!(
            "inverted fault window [{from}, {until})"
        )));
    }
    Ok(FaultEvent {
        kind,
        router: v.get("router")?.as_usize()?,
        port,
        from,
        until,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    fn small_spec() -> NocSpec {
        NocSpec::new(
            TopologySpec::Mesh {
                width: 2,
                height: 1,
                nis_per_router: 1,
            },
            vec![presets::master_ni(0), presets::slave_ni(1)],
        )
    }

    #[test]
    fn valid_spec_passes() {
        assert_eq!(small_spec().validate(), Ok(()));
    }

    #[test]
    fn ni_count_mismatch_detected() {
        let mut s = small_spec();
        s.nis.pop();
        assert_eq!(
            s.validate(),
            Err(SpecError::NiCountMismatch {
                nis: 1,
                attachments: 2
            })
        );
    }

    #[test]
    fn ni_id_mismatch_detected() {
        let mut s = small_spec();
        s.nis[1].kernel.ni_id = 5;
        assert_eq!(
            s.validate(),
            Err(SpecError::NiIdMismatch {
                index: 1,
                declared: 5
            })
        );
    }

    #[test]
    fn topology_spec_ni_counts() {
        assert_eq!(
            TopologySpec::Mesh {
                width: 3,
                height: 2,
                nis_per_router: 2
            }
            .ni_count(),
            12
        );
    }

    #[test]
    fn json_roundtrip_preserves_the_design() {
        let spec = small_spec();
        let json = spec.to_json().expect("serializes");
        assert!(json.contains("Mesh"));
        let back = NocSpec::from_json(&json).expect("parses");
        assert_eq!(back, spec);
        // A system can be generated from the parsed form.
        let sys = crate::NocSystem::from_spec(&back);
        assert_eq!(sys.nis.len(), 2);
    }

    #[test]
    fn malformed_json_rejected() {
        assert!(NocSpec::from_json("{not json").is_err());
        // A topology the codec does not know gets a structured error.
        let spec = small_spec();
        let mesh = json::to_string_compact(&topology_to_value(&spec.topology));
        let ring =
            json::to_string_compact(&spec.to_value()).replace(&mesh, r#"{"Ring": {"routers": 4}}"#);
        let err = NocSpec::from_json(&ring).expect_err("a ring is refused");
        assert!(err.msg.contains("unknown topology `Ring`"), "{err}");
    }

    #[test]
    fn fast_forward_roundtrips_and_old_files_parse() {
        let spec = small_spec().with_fast_forward(true);
        let json = spec.to_json().expect("serializes");
        assert!(json.contains("fast_forward"));
        let back = NocSpec::from_json(&json).expect("parses");
        assert_eq!(back, spec);
        assert!(back.fast_forward);
        // A pre-fast-forward file (no field) parses with the backend off.
        let old = small_spec()
            .to_json()
            .unwrap()
            .replace(",\n  \"fast_forward\": false", "");
        assert!(!old.contains("fast_forward"), "field stripped: {old}");
        let parsed = NocSpec::from_json(&old).expect("old files parse");
        assert!(!parsed.fast_forward);
    }

    #[test]
    fn bad_regions_rejected() {
        // The key is retired: `null` (older files) parses, any value not.
        let json = small_spec().to_json().expect("serializes");
        let with = |value: &str| json.replacen('{', &format!("{{\"regions\": {value},"), 1);
        let parsed = NocSpec::from_json(&with("null")).expect("null parses");
        assert_eq!(parsed, small_spec());
        let err = NocSpec::from_json(&with(r#"{"router_regions": [0, 1], "gateways": [0, 1]}"#))
            .expect_err("a region map is refused");
        assert!(err.msg.contains("`regions`"), "{err}");
    }

    #[test]
    fn fault_plan_round_trips_and_rejects_bad_input() {
        let mut plan = FaultPlan::new(0xFEED);
        plan.link_stuck(1, 2, 100, 200)
            .link_flaky(0, 1, 50, 400, 250_000)
            .router_stall(3, 0, 10)
            .credit_loss(2, 0, 5, 25, 7)
            .slot_corrupt(1, 4, 300, 301, 0xA5A5_5A5A);
        let text = fault_plan_to_json(&plan);
        let back = fault_plan_from_json(&text).expect("round trip");
        assert_eq!(back, plan);

        // Structured rejection, never a panic.
        assert!(fault_plan_from_json("{").is_err());
        assert!(fault_plan_from_json("{\"seed\":1}").is_err());
        let bad_port = text.replace("\"port\": 2", "\"port\": 999");
        assert!(fault_plan_from_json(&bad_port).is_err());
        let inverted = text.replace("\"until\": 200", "\"until\": 3");
        assert!(fault_plan_from_json(&inverted).is_err());
        let unknown = text.replace("LinkStuck", "LinkGlitch");
        assert!(fault_plan_from_json(&unknown).is_err());
    }

    #[test]
    fn topology_builds() {
        let t = TopologySpec::Mesh {
            width: 2,
            height: 2,
            nis_per_router: 1,
        }
        .build();
        assert_eq!(t.router_count(), 4);
    }
}

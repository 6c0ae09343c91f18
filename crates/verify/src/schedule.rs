//! Static certification of a configured system's GT schedule.
//!
//! §2–3 of the paper: a GT connection injecting in slot `s` owns slot
//! `(s + h) mod S` on the link after hop `h` (one whole slot per
//! slot-aligned gateway rewrite on two-level routes), so *the slot tables
//! decide everything* — contention-freedom is a property of the register
//! state, not of any particular traffic. [`certify`] extracts every
//! configured flow from the programmer-visible registers of the NI
//! kernels and checks:
//!
//! 1. **Slot-table hygiene** — every reserved slot names an enabled GT
//!    channel, and every enabled GT flow owns at least one slot.
//! 2. **Route validity and minimality** — the configured `PATH_RQID` /
//!    `PATH_EXT` route follows real links hop by hop, ejects exactly at
//!    its end into an NI, addresses an existing remote queue, and is no
//!    longer than the topology's minimal route.
//! 3. **Contention-freedom** — projecting every GT flow's injection slots
//!    along its route (shift `h + g` for hop `h` after `g` gateway
//!    rewrites), no `(link, slot)` pair is claimed by two flows.
//! 4. **Packet-budget feasibility** — on multi-segment routes the
//!    per-packet budget (longest owned slot run for GT, the NI maximum
//!    for BE) carries header + continuation words + at least one payload
//!    word.
//! 5. **Credit soundness** — a channel's `Space` counter never exceeds
//!    the remote destination queue, so end-to-end flow control cannot
//!    overflow it.
//!
//! All checks consume only `reg_read`-visible state plus static NI
//! geometry, so they apply identically to systems configured by the
//! [`aethereal_cfg::RuntimeConfigurator`], the distributed path, or raw
//! register pokes.

use aethereal_cfg::{NocSpec, NocSystem};
use aethereal_ni::kernel::regs::{
    chan_reg_addr, ext_reg_addr, slot_reg_addr, ChanReg, CTRL_ENABLE, CTRL_GT, PATH_EXT_REGS,
    REG_CHAN_COUNT, REG_NI_ID, REG_STU_SLOTS,
};
use aethereal_ni::NiKernel;
use noc_sim::header::QID_BITS;
use noc_sim::path::PATH_BITS;
use noc_sim::{Path, Route, Topology, SLOT_WORDS};
use std::collections::{BTreeMap, HashMap};

/// A directed link in certification claims: `(router, output port)`, with
/// the NI-injection pseudo link encoded as `(usize::MAX, ni)`.
pub type LinkKey = (usize, usize);

/// Identifies one configured flow: a channel of an NI.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowId {
    /// Source NI id.
    pub ni: usize,
    /// Source channel id within the NI.
    pub channel: usize,
}

impl std::fmt::Display for FlowId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "NI {} ch {}", self.ni, self.channel)
    }
}

/// Why a configured route fails validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouteIssue {
    /// The source NI is not attached to the topology.
    SourceUnattached,
    /// A hop names an output port the router does not have.
    BadPort {
        /// Index of the offending hop within the route.
        hop: usize,
        /// Router at which the hop is taken.
        router: usize,
        /// The named output port.
        port: usize,
    },
    /// A non-final hop leaves the router network (ejects or dangles).
    EarlyExit {
        /// Index of the offending hop within the route.
        hop: usize,
        /// Router at which the hop is taken.
        router: usize,
    },
    /// The final hop does not eject into an NI.
    NoEjection {
        /// Router at which the final hop is taken.
        router: usize,
        /// The final output port.
        port: usize,
    },
    /// The channel is enabled but its `PATH_RQID` holds no route.
    NotConfigured,
}

impl std::fmt::Display for RouteIssue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouteIssue::SourceUnattached => write!(f, "source NI not attached to the topology"),
            RouteIssue::BadPort { hop, router, port } => {
                write!(f, "hop {hop} names missing port {port} of router {router}")
            }
            RouteIssue::EarlyExit { hop, router } => {
                write!(
                    f,
                    "hop {hop} leaves the network at router {router} mid-route"
                )
            }
            RouteIssue::NoEjection { router, port } => {
                write!(f, "final hop (router {router}, port {port}) reaches no NI")
            }
            RouteIssue::NotConfigured => write!(f, "enabled channel has an empty route"),
        }
    }
}

/// A certification failure, precise enough to locate the offending
/// register state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// NIs disagree on the slot-table size; link claims cannot compose.
    MixedStuSlots {
        /// The offending NI.
        ni: usize,
        /// Its slot-table size.
        stu: usize,
        /// The table size of the first NI.
        expected: usize,
    },
    /// A configured route fails structural validation.
    BadRoute {
        /// The offending flow.
        flow: FlowId,
        /// What is wrong with the route.
        issue: RouteIssue,
    },
    /// The route is longer than the topology's minimal route.
    NonMinimalRoute {
        /// The offending flow.
        flow: FlowId,
        /// Configured hop count.
        hops: usize,
        /// Minimal hop count.
        minimal: usize,
    },
    /// The route ejects into an NI the verifier was not given.
    UnknownDestination {
        /// The offending flow.
        flow: FlowId,
        /// The NI id the route ejects into.
        dst_ni: usize,
    },
    /// The remote queue id does not exist at the destination NI.
    BadRemoteQid {
        /// The offending flow.
        flow: FlowId,
        /// Configured remote queue id.
        qid: usize,
        /// Destination NI id.
        dst_ni: usize,
        /// Number of channels at the destination.
        channels: usize,
    },
    /// A slot-table entry names a channel that is disabled or not GT.
    SlotOwnerNotGt {
        /// The NI whose table is inconsistent.
        ni: usize,
        /// The slot index.
        slot: usize,
        /// The named channel.
        channel: usize,
    },
    /// An enabled GT flow owns no slots and can never make progress.
    GtFlowWithoutSlots {
        /// The offending flow.
        flow: FlowId,
    },
    /// Two flows claim the same slot on the same link.
    SlotConflict {
        /// The contended link.
        link: LinkKey,
        /// The contended slot.
        slot: usize,
        /// Every flow claiming it (at least two).
        flows: Vec<FlowId>,
    },
    /// The per-packet word budget cannot carry header + continuations +
    /// one payload word on a multi-segment route.
    PacketBudgetTooSmall {
        /// The offending flow.
        flow: FlowId,
        /// Words the flow's budget guarantees.
        budget_words: usize,
        /// Words a minimal useful packet needs.
        needed_words: usize,
    },
    /// The route crosses a directed link the topology has masked as
    /// failed — a connection the healer missed (or a stale route from
    /// before the heal).
    MaskedLinkUse {
        /// The offending flow.
        flow: FlowId,
        /// Router whose masked output the route crosses.
        router: usize,
        /// The masked output port.
        port: usize,
    },
    /// The `Space` counter exceeds the remote destination queue, so
    /// end-to-end flow control cannot prevent overflow.
    CreditOverrun {
        /// The offending flow.
        flow: FlowId,
        /// Configured `Space` (initial end-to-end credits).
        space: u32,
        /// Destination queue capacity in words.
        dst_capacity: usize,
    },
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::MixedStuSlots { ni, stu, expected } => {
                write!(f, "NI {ni} has {stu} slots, expected {expected}")
            }
            Violation::BadRoute { flow, issue } => write!(f, "{flow}: invalid route: {issue}"),
            Violation::NonMinimalRoute {
                flow,
                hops,
                minimal,
            } => write!(f, "{flow}: route takes {hops} hops, minimal is {minimal}"),
            Violation::UnknownDestination { flow, dst_ni } => {
                write!(f, "{flow}: route ejects into unknown NI {dst_ni}")
            }
            Violation::BadRemoteQid {
                flow,
                qid,
                dst_ni,
                channels,
            } => write!(
                f,
                "{flow}: remote qid {qid} out of range (NI {dst_ni} has {channels} channels)"
            ),
            Violation::SlotOwnerNotGt { ni, slot, channel } => write!(
                f,
                "NI {ni}: slot {slot} reserved for channel {channel}, which is not an enabled GT channel"
            ),
            Violation::GtFlowWithoutSlots { flow } => {
                write!(f, "{flow}: GT flow owns no slots and can never send")
            }
            Violation::SlotConflict { link, slot, flows } => {
                let flows: Vec<String> = flows.iter().map(|fl| fl.to_string()).collect();
                if link.0 == usize::MAX {
                    write!(
                        f,
                        "injection link of NI {}: slot {slot} claimed by {}",
                        link.1,
                        flows.join(", ")
                    )
                } else {
                    write!(
                        f,
                        "link (router {}, port {}): slot {slot} claimed by {}",
                        link.0,
                        link.1,
                        flows.join(", ")
                    )
                }
            }
            Violation::PacketBudgetTooSmall {
                flow,
                budget_words,
                needed_words,
            } => write!(
                f,
                "{flow}: packet budget of {budget_words} words cannot carry a {needed_words}-word minimal packet"
            ),
            Violation::MaskedLinkUse { flow, router, port } => write!(
                f,
                "{flow}: route crosses masked (failed) link (router {router}, port {port})"
            ),
            Violation::CreditOverrun {
                flow,
                space,
                dst_capacity,
            } => write!(
                f,
                "{flow}: Space {space} exceeds destination queue capacity {dst_capacity}"
            ),
        }
    }
}

/// One flow as certified: the facts every guarantee derives from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertifiedFlow {
    /// The flow (source NI and channel).
    pub flow: FlowId,
    /// Whether the flow is guaranteed-throughput (else best-effort).
    pub gt: bool,
    /// Destination NI id (where the route ejects).
    pub dst_ni: usize,
    /// Destination queue id at the destination NI.
    pub remote_qid: usize,
    /// Total hops of the configured route (ejection included).
    pub hops: usize,
    /// Gateway rewrites along the route.
    pub gateways: usize,
    /// Injection slots owned in the source NI's slot table (ascending;
    /// empty for BE flows).
    pub injection_slots: Vec<usize>,
    /// Initial end-to-end credits (the `Space` register).
    pub space: u32,
    /// The source NI's per-packet word ceiling.
    pub max_packet_words: usize,
}

/// A successful certification: the checked flows plus coverage counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Certificate {
    /// Slot-table size shared by every NI.
    pub stu_slots: usize,
    /// Every enabled, routed flow, in (NI, channel) order.
    pub flows: Vec<CertifiedFlow>,
    /// Distinct directed links carrying at least one GT claim.
    pub links_checked: usize,
    /// Total `(link, slot)` reservations proven single-owner.
    pub slot_claims: usize,
}

impl Certificate {
    /// The certified flow of `(ni, channel)`, if any.
    pub fn flow(&self, ni: usize, channel: usize) -> Option<&CertifiedFlow> {
        self.flows.iter().find(|f| f.flow == FlowId { ni, channel })
    }
}

/// Everything extracted from one kernel's registers.
struct NiImage<'a> {
    kernel: &'a NiKernel,
    ni: usize,
    stu: usize,
    channels: usize,
    slot_table: Vec<usize>, // 0 = free, ch + 1 = reserved
    flows: Vec<RawFlow>,
    max_packet_words: usize,
}

struct RawFlow {
    channel: usize,
    gt: bool,
    route: Route,
    remote_qid: usize,
    space: u32,
}

fn read(k: &NiKernel, addr: u32) -> u32 {
    k.reg_read(addr)
        .expect("verifier reads only decodable registers")
}

/// Reads the programmer-visible image of one kernel: slot table plus every
/// enabled channel's service class, route and credit state.
fn extract(k: &NiKernel) -> NiImage<'_> {
    let ni = read(k, REG_NI_ID) as usize;
    let stu = read(k, REG_STU_SLOTS) as usize;
    let channels = read(k, REG_CHAN_COUNT) as usize;
    let slot_table = (0..stu)
        .map(|s| read(k, slot_reg_addr(s)) as usize)
        .collect();
    let mut flows = Vec::new();
    for ch in 0..channels {
        let ctrl = read(k, chan_reg_addr(ch, ChanReg::Ctrl));
        if ctrl & CTRL_ENABLE == 0 {
            continue;
        }
        let pr = read(k, chan_reg_addr(ch, ChanReg::PathRqid));
        let base = Path::decode(pr & ((1 << PATH_BITS) - 1));
        if base.is_empty() {
            // Enabled but unroutable: inert (the kernel never schedules a
            // channel without a route), so there is nothing to certify.
            continue;
        }
        let mut segments = vec![base];
        for kx in 0..PATH_EXT_REGS {
            let bits = read(k, ext_reg_addr(ch, kx));
            let seg = Path::decode(bits & ((1 << PATH_BITS) - 1));
            if seg.is_empty() {
                break;
            }
            segments.push(seg);
        }
        let route =
            Route::from_segments(segments).expect("segment count bounded by PATH_EXT_REGS + 1");
        flows.push(RawFlow {
            channel: ch,
            gt: ctrl & CTRL_GT != 0,
            route,
            remote_qid: ((pr >> PATH_BITS) & ((1 << QID_BITS) - 1)) as usize,
            space: read(k, chan_reg_addr(ch, ChanReg::Space)),
        });
    }
    NiImage {
        kernel: k,
        ni,
        stu,
        channels,
        slot_table,
        flows,
        max_packet_words: k.spec().max_packet_words,
    }
}

/// Walks a route hop by hop; returns the destination NI or the issue.
fn walk_route(topo: &Topology, from: usize, route: &Route) -> Result<usize, RouteIssue> {
    let Some((mut r, _)) = topo.ni_attachment(from) else {
        return Err(RouteIssue::SourceUnattached);
    };
    let total = route.total_hops();
    for (i, hop) in route.iter_hops().enumerate() {
        if usize::from(hop) >= topo.ports_of(r) {
            return Err(RouteIssue::BadPort {
                hop: i,
                router: r,
                port: usize::from(hop),
            });
        }
        match topo.neighbour(r, hop) {
            Some((nr, _)) => {
                if i + 1 == total {
                    // The final hop must leave the router network.
                    return Err(RouteIssue::NoEjection {
                        router: r,
                        port: usize::from(hop),
                    });
                }
                r = nr;
            }
            None => {
                let Some(dst) = topo.ni_at(r, hop) else {
                    return Err(RouteIssue::NoEjection {
                        router: r,
                        port: usize::from(hop),
                    });
                };
                if i + 1 != total {
                    return Err(RouteIssue::EarlyExit { hop: i, router: r });
                }
                return Ok(dst);
            }
        }
    }
    Err(RouteIssue::NotConfigured)
}

/// The longest circular run of owned slots starting at each owned slot,
/// capped at the table size. `owned[s]` marks slot `s` as owned.
fn best_budget(owned: &[bool], max_packet_words: usize) -> usize {
    let stu = owned.len();
    let w = SLOT_WORDS as usize;
    let mut best = 0;
    for s in 0..stu {
        if !owned[s] {
            continue;
        }
        let mut run = 0;
        while run < stu && owned[(s + run) % stu] {
            run += 1;
        }
        best = best.max(usize::min(run * w, max_packet_words));
    }
    best
}

/// Certifies the configured system described by `kernels` against `topo`.
///
/// Every kernel's programmer-visible registers are extracted and all
/// checks listed in the [module docs](self) run to completion, so the
/// error side carries *every* violation, not just the first.
///
/// # Errors
///
/// Returns the full list of [`Violation`]s when any check fails.
pub fn certify<'a>(
    topo: &Topology,
    kernels: impl IntoIterator<Item = &'a NiKernel>,
) -> Result<Certificate, Vec<Violation>> {
    let images: Vec<NiImage> = kernels.into_iter().map(extract).collect();
    let by_id: HashMap<usize, &NiImage> = images.iter().map(|im| (im.ni, im)).collect();
    let mut violations = Vec::new();

    // 0. A single slot-table size; claims below assume it.
    let stu_slots = images.first().map_or(0, |im| im.stu);
    for im in &images {
        if im.stu != stu_slots {
            violations.push(Violation::MixedStuSlots {
                ni: im.ni,
                stu: im.stu,
                expected: stu_slots,
            });
        }
    }
    if !violations.is_empty() {
        return Err(violations);
    }

    // 1. Slot-table hygiene.
    for im in &images {
        for (slot, &entry) in im.slot_table.iter().enumerate() {
            let Some(ch) = entry.checked_sub(1) else {
                continue;
            };
            let owner = im.flows.iter().find(|f| f.channel == ch);
            if !owner.is_some_and(|f| f.gt) {
                violations.push(Violation::SlotOwnerNotGt {
                    ni: im.ni,
                    slot,
                    channel: ch,
                });
            }
        }
    }

    // 2–5 per flow, collecting GT slot claims along the way.
    let mut flows = Vec::new();
    let mut claims: BTreeMap<(LinkKey, usize), Vec<FlowId>> = BTreeMap::new();
    for im in &images {
        for raw in &im.flows {
            let flow = FlowId {
                ni: im.ni,
                channel: raw.channel,
            };
            let dst_ni = match walk_route(topo, im.ni, &raw.route) {
                Ok(dst) => dst,
                Err(issue) => {
                    violations.push(Violation::BadRoute { flow, issue });
                    continue;
                }
            };
            if let Ok(minimal) = topo.route_any(im.ni, dst_ni) {
                if raw.route.total_hops() > minimal.total_hops() {
                    violations.push(Violation::NonMinimalRoute {
                        flow,
                        hops: raw.route.total_hops(),
                        minimal: minimal.total_hops(),
                    });
                }
            }
            // No flow — GT or BE — may cross a link masked as failed.
            if topo.has_masked_links() {
                for link in topo.links_of_route_segmented(im.ni, &raw.route) {
                    if link.router != usize::MAX && topo.is_masked(link.router, link.port) {
                        violations.push(Violation::MaskedLinkUse {
                            flow,
                            router: link.router,
                            port: usize::from(link.port),
                        });
                    }
                }
            }
            let Some(dst) = by_id.get(&dst_ni) else {
                violations.push(Violation::UnknownDestination { flow, dst_ni });
                continue;
            };
            if raw.remote_qid >= dst.channels {
                violations.push(Violation::BadRemoteQid {
                    flow,
                    qid: raw.remote_qid,
                    dst_ni,
                    channels: dst.channels,
                });
            }
            let injection_slots: Vec<usize> = (0..im.stu)
                .filter(|&s| im.slot_table[s] == raw.channel + 1)
                .collect();
            if raw.gt && injection_slots.is_empty() {
                violations.push(Violation::GtFlowWithoutSlots { flow });
            }
            // Packet budget on multi-segment routes: header + one
            // continuation word per gateway + at least one payload word.
            if !raw.route.is_single() {
                let budget_words = if raw.gt {
                    let mut owned = vec![false; im.stu];
                    for &s in &injection_slots {
                        owned[s] = true;
                    }
                    best_budget(&owned, im.max_packet_words)
                } else {
                    im.max_packet_words
                };
                let needed_words = 2 + raw.route.gateway_count();
                if budget_words < needed_words {
                    violations.push(Violation::PacketBudgetTooSmall {
                        flow,
                        budget_words,
                        needed_words,
                    });
                }
            }
            // GT claims: slot (s + h + g) mod S on the link at hop h after
            // g slot-aligned gateway rewrites.
            if raw.gt {
                for (h, link) in topo
                    .links_of_route_segmented(im.ni, &raw.route)
                    .into_iter()
                    .enumerate()
                {
                    let key: LinkKey = if link.router == usize::MAX {
                        (usize::MAX, im.ni)
                    } else {
                        (link.router, usize::from(link.port))
                    };
                    let shift = h + link.gateways_before as usize;
                    for &s in &injection_slots {
                        claims
                            .entry((key, (s + shift) % stu_slots))
                            .or_default()
                            .push(flow);
                    }
                }
            }
            flows.push(CertifiedFlow {
                flow,
                gt: raw.gt,
                dst_ni,
                remote_qid: raw.remote_qid,
                hops: raw.route.total_hops(),
                gateways: raw.route.gateway_count(),
                injection_slots,
                space: raw.space,
                max_packet_words: im.max_packet_words,
            });
            if raw.remote_qid < dst.channels {
                // Credit soundness against the real destination queue.
                let cap = dst.kernel.dst_capacity(raw.remote_qid);
                if raw.space as usize > cap {
                    violations.push(Violation::CreditOverrun {
                        flow,
                        space: raw.space,
                        dst_capacity: cap,
                    });
                }
            }
        }
    }

    // 3. Contention-freedom across all collected claims.
    for (&(link, slot), claimants) in &claims {
        if claimants.len() > 1 {
            violations.push(Violation::SlotConflict {
                link,
                slot,
                flows: claimants.clone(),
            });
        }
    }

    if violations.is_empty() {
        let links: std::collections::HashSet<LinkKey> =
            claims.keys().map(|&(link, _)| link).collect();
        Ok(Certificate {
            stu_slots,
            flows,
            links_checked: links.len(),
            slot_claims: claims.len(),
        })
    } else {
        Err(violations)
    }
}

/// Certifies a [`NocSystem`] against its [`NocSpec`]: builds the topology
/// from the spec and walks every NI kernel in the system.
///
/// # Errors
///
/// Returns the full list of [`Violation`]s when any check fails.
///
/// # Panics
///
/// Panics if the spec fails validation (mirrors [`NocSystem::from_spec`]).
pub fn certify_system(spec: &NocSpec, sys: &NocSystem) -> Result<Certificate, Vec<Violation>> {
    let topo = spec.topology.build();
    certify(&topo, sys.nis.iter().map(|ni| &ni.kernel))
}

/// Certifies a [`NocSystem`] against a caller-supplied topology — the
/// post-heal entry point: pass the
/// [`RuntimeConfigurator::topo`](aethereal_cfg::RuntimeConfigurator::topo)
/// that carries the failed-link mask, and certification additionally
/// proves that no configured route (user *or* configuration channel)
/// still crosses a masked link.
///
/// With an unmasked topology this is exactly [`certify_system`].
///
/// # Errors
///
/// Returns the full list of [`Violation`]s when any check fails.
pub fn certify_system_with(
    topo: &Topology,
    sys: &NocSystem,
) -> Result<Certificate, Vec<Violation>> {
    certify(topo, sys.nis.iter().map(|ni| &ni.kernel))
}

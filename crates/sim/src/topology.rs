//! NoC topologies: router graphs, NI attachment points and source-route
//! computation.
//!
//! The Æthereal flow instantiates the topology at design time from an XML
//! description; here a [`Topology`] value plays that role (see
//! `aethereal-cfg::spec` for the declarative front end). Meshes use
//! dimension-ordered XY routing, rings route the short way around, and
//! arbitrary graphs fall back to breadth-first shortest paths — all three
//! produce deadlock-free source routes for the BE class.
//!
//! Routes longer than one header ([`crate::MAX_HOPS`] hops) are planned by
//! [`Topology::route_any`], which splits the minimal hop list into a
//! multi-segment [`Route`] rewritten en route by gateway routers. Split
//! points never leave the minimal path; when the topology declares
//! [`Regions`], the planner prefers to split at declared region gateways
//! that lie on the path (so gateway rewrites align with, e.g., the shard
//! partition of a large mesh), and falls back to greedy
//! [`crate::MAX_HOPS`]-hop splits otherwise.

use crate::path::{Path, PathError, PortIdx, Route, RouteBuildError, MAX_HOPS};
use std::collections::VecDeque;

/// Identifies a router in the topology.
pub type RouterId = usize;

/// Identifies an NI attachment point (an endpoint of the NoC).
pub type NiId = usize;

/// Mesh direction port indices (paper-era convention: N, E, S, W, locals).
pub mod dir {
    /// North output port.
    pub const NORTH: u8 = 0;
    /// East output port.
    pub const EAST: u8 = 1;
    /// South output port.
    pub const SOUTH: u8 = 2;
    /// West output port.
    pub const WEST: u8 = 3;
    /// First local (NI-facing) port.
    pub const LOCAL0: u8 = 4;
}

/// One directed connection in the topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Endpoint {
    /// A router port.
    Router {
        /// Router id.
        router: RouterId,
        /// Port index on that router.
        port: PortIdx,
    },
    /// An NI attachment.
    Ni {
        /// NI id.
        ni: NiId,
    },
}

/// The flavour of a topology, kept for diagnostics and spec round-trips.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologyKind {
    /// `width × height` mesh.
    Mesh {
        /// Routers per row.
        width: usize,
        /// Routers per column.
        height: usize,
    },
    /// Unidirectional-pair ring of `n` routers.
    Ring {
        /// Number of routers.
        routers: usize,
    },
    /// Arbitrary router graph.
    Custom,
}

/// A bidirectional inter-router edge: `a.port_a ↔ b.port_b`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouterEdge {
    /// First router.
    pub a: RouterId,
    /// Port on `a` facing `b`.
    pub port_a: PortIdx,
    /// Second router.
    pub b: RouterId,
    /// Port on `b` facing `a`.
    pub port_b: PortIdx,
}

/// A grouping of routers into contiguous *regions*, each with a designated
/// *gateway* router — the preferred header-rewrite point for routes that do
/// not fit a single header (see [`Topology::route_any`]).
///
/// Regions are a planning concept only: any router can rewrite a header, so
/// declaring regions never changes what is routable, merely where long
/// routes split. Aligning regions with a shard
/// [`Partition`](crate::shard::Partition) keeps gateway rewrites local to
/// the region that owns them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Regions {
    /// `region_of[router] = region id`.
    region_of: Vec<usize>,
    /// `gateways[region] = router id` of that region's gateway.
    gateways: Vec<RouterId>,
}

/// Error validating a [`Regions`] declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegionError {
    /// Region ids must be dense `0..n` with every region non-empty.
    SparseRegions {
        /// The first unused region id.
        missing: usize,
    },
    /// The gateway list length must equal the number of regions.
    GatewayCountMismatch {
        /// Regions declared by the router map.
        regions: usize,
        /// Gateways provided.
        gateways: usize,
    },
    /// A gateway router does not belong to the region it serves.
    GatewayOutsideRegion {
        /// The region.
        region: usize,
        /// The offending gateway router.
        gateway: RouterId,
    },
    /// The router map is empty.
    Empty,
}

impl std::fmt::Display for RegionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegionError::SparseRegions { missing } => {
                write!(f, "region ids must be dense: region {missing} is empty")
            }
            RegionError::GatewayCountMismatch { regions, gateways } => {
                write!(f, "{regions} regions but {gateways} gateways")
            }
            RegionError::GatewayOutsideRegion { region, gateway } => {
                write!(f, "gateway {gateway} lies outside region {region}")
            }
            RegionError::Empty => write!(f, "region map is empty"),
        }
    }
}

impl std::error::Error for RegionError {}

impl Regions {
    /// Validates and builds a region declaration from a router → region map
    /// and a per-region gateway list.
    ///
    /// # Errors
    ///
    /// See [`RegionError`].
    pub fn new(region_of: Vec<usize>, gateways: Vec<RouterId>) -> Result<Self, RegionError> {
        if region_of.is_empty() {
            return Err(RegionError::Empty);
        }
        let n_regions = region_of.iter().max().copied().unwrap_or(0) + 1;
        let mut occupants = vec![0usize; n_regions];
        for &region in &region_of {
            occupants[region] += 1;
        }
        if let Some(missing) = occupants.iter().position(|&c| c == 0) {
            return Err(RegionError::SparseRegions { missing });
        }
        if gateways.len() != n_regions {
            return Err(RegionError::GatewayCountMismatch {
                regions: n_regions,
                gateways: gateways.len(),
            });
        }
        for (region, &gateway) in gateways.iter().enumerate() {
            if region_of.get(gateway).copied() != Some(region) {
                return Err(RegionError::GatewayOutsideRegion { region, gateway });
            }
        }
        Ok(Regions {
            region_of,
            gateways,
        })
    }

    /// Number of regions.
    pub fn region_count(&self) -> usize {
        self.gateways.len()
    }

    /// The region of `router`, if the map covers it.
    pub fn region_of(&self, router: RouterId) -> Option<usize> {
        self.region_of.get(router).copied()
    }

    /// The gateway router of `region`.
    pub fn gateway(&self, region: usize) -> Option<RouterId> {
        self.gateways.get(region).copied()
    }

    /// Whether `router` is some region's gateway.
    pub fn is_gateway(&self, router: RouterId) -> bool {
        self.gateways.contains(&router)
    }

    /// The raw router → region map.
    pub fn router_map(&self) -> &[usize] {
        &self.region_of
    }
}

/// One directed link traversed by a [`Route`], as enumerated by
/// [`Topology::links_of_route_segmented`] for the slot allocator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteLink {
    /// The router owning the output (`usize::MAX` for the NI-injection
    /// pseudo link, matching [`Topology::links_of_route`]).
    pub router: RouterId,
    /// The output port (the source NI id for the injection pseudo link).
    pub port: PortIdx,
    /// Gateway rewrites crossed strictly before this link. Each rewrite
    /// delays the packet by one cycle relative to the pipelined
    /// slot-per-hop schedule, which the slot allocator must absorb.
    pub gateways_before: u32,
}

/// A topology: routers, the edges between them, and where NIs attach.
///
/// # Example
///
/// ```
/// use noc_sim::Topology;
/// let t = Topology::mesh(2, 2, 1);
/// assert_eq!(t.router_count(), 4);
/// assert_eq!(t.ni_count(), 4);
/// let path = t.route(0, 3).unwrap();
/// assert_eq!(path.hops(), 3); // E, S, eject
/// ```
#[derive(Debug, Clone)]
pub struct Topology {
    kind: TopologyKind,
    router_ports: Vec<usize>,
    edges: Vec<RouterEdge>,
    /// `ni_attach[ni] = (router, local port)`.
    ni_attach: Vec<(RouterId, PortIdx)>,
    /// Optional region/gateway declaration steering long-route splits.
    regions: Option<Regions>,
    /// Failed-link mask: bit `p` of `link_mask[r]` marks the directed link
    /// leaving router `r` through port `p` as unusable, and the planners
    /// route around it (see [`Topology::mask_link`]). All-zero (the
    /// default) leaves every routing decision bit-identical to a maskless
    /// topology.
    link_mask: Vec<u64>,
}

/// Error computing a route.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouteError {
    /// Unknown source or destination NI.
    UnknownNi {
        /// The offending NI id.
        ni: NiId,
    },
    /// No path exists between the routers.
    Unreachable {
        /// Source router.
        from: RouterId,
        /// Destination router.
        to: RouterId,
    },
    /// The route exists but does not fit in a header.
    Encoding(PathError),
    /// The route exists but cannot be segmented into a multi-header
    /// [`Route`] (too far even for the maximum segment count).
    Segmenting(RouteBuildError),
}

impl std::fmt::Display for RouteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouteError::UnknownNi { ni } => write!(f, "unknown NI id {ni}"),
            RouteError::Unreachable { from, to } => {
                write!(f, "no route from router {from} to router {to}")
            }
            RouteError::Encoding(e) => write!(f, "route does not fit header: {e}"),
            RouteError::Segmenting(e) => write!(f, "route cannot be segmented: {e}"),
        }
    }
}

impl std::error::Error for RouteError {}

impl From<PathError> for RouteError {
    fn from(e: PathError) -> Self {
        RouteError::Encoding(e)
    }
}

impl From<RouteBuildError> for RouteError {
    fn from(e: RouteBuildError) -> Self {
        RouteError::Segmenting(e)
    }
}

impl Topology {
    /// Builds a `width × height` mesh with `nis_per_router` NIs on every
    /// router. NI ids are assigned router-major: NI `r * nis_per_router + k`
    /// sits on router `r`, local port `LOCAL0 + k`.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or `nis_per_router` is zero or the
    /// local port index would exceed the encodable port range.
    pub fn mesh(width: usize, height: usize, nis_per_router: usize) -> Self {
        assert!(width > 0 && height > 0, "mesh dimensions must be positive");
        assert!(nis_per_router >= 1, "need at least one NI per router");
        assert!(
            dir::LOCAL0 as usize + nis_per_router - 1 <= crate::path::MAX_PORT as usize,
            "too many NIs per router for the header port encoding"
        );
        let n = width * height;
        let mut edges = Vec::new();
        for y in 0..height {
            for x in 0..width {
                let r = y * width + x;
                if x + 1 < width {
                    edges.push(RouterEdge {
                        a: r,
                        port_a: dir::EAST,
                        b: r + 1,
                        port_b: dir::WEST,
                    });
                }
                if y + 1 < height {
                    edges.push(RouterEdge {
                        a: r,
                        port_a: dir::SOUTH,
                        b: r + width,
                        port_b: dir::NORTH,
                    });
                }
            }
        }
        let mut ni_attach = Vec::new();
        for r in 0..n {
            for k in 0..nis_per_router {
                ni_attach.push((r, dir::LOCAL0 + k as PortIdx));
            }
        }
        Topology {
            kind: TopologyKind::Mesh { width, height },
            router_ports: vec![dir::LOCAL0 as usize + nis_per_router; n],
            edges,
            ni_attach,
            regions: None,
            link_mask: vec![0; n],
        }
    }

    /// Builds a bidirectional ring of `routers` routers, one NI each.
    /// Port 0 faces the next router (clockwise), port 1 the previous, port 2
    /// is local.
    ///
    /// # Panics
    ///
    /// Panics if `routers < 2`.
    pub fn ring(routers: usize) -> Self {
        assert!(routers >= 2, "a ring needs at least two routers");
        let mut edges = Vec::new();
        for r in 0..routers {
            let next = (r + 1) % routers;
            edges.push(RouterEdge {
                a: r,
                port_a: 0,
                b: next,
                port_b: 1,
            });
        }
        let ni_attach = (0..routers).map(|r| (r, 2 as PortIdx)).collect();
        Topology {
            kind: TopologyKind::Ring { routers },
            router_ports: vec![3; routers],
            edges,
            ni_attach,
            regions: None,
            link_mask: vec![0; routers],
        }
    }

    /// Builds a custom topology from explicit parts.
    ///
    /// # Panics
    ///
    /// Panics if an edge or attachment references a router or port out of
    /// range, or if two connections share a router port.
    pub fn custom(
        router_ports: Vec<usize>,
        edges: Vec<RouterEdge>,
        ni_attach: Vec<(RouterId, PortIdx)>,
    ) -> Self {
        let link_mask = vec![0; router_ports.len()];
        let t = Topology {
            kind: TopologyKind::Custom,
            router_ports,
            edges,
            ni_attach,
            regions: None,
            link_mask,
        };
        t.validate();
        t
    }

    fn validate(&self) {
        let mut used = std::collections::HashSet::new();
        let mut claim = |r: RouterId, p: PortIdx| {
            assert!(r < self.router_ports.len(), "router {r} out of range");
            assert!(
                (p as usize) < self.router_ports[r],
                "port {p} out of range on router {r}"
            );
            assert!(used.insert((r, p)), "router {r} port {p} connected twice");
        };
        for e in &self.edges {
            claim(e.a, e.port_a);
            claim(e.b, e.port_b);
        }
        for &(r, p) in &self.ni_attach {
            claim(r, p);
        }
    }

    /// Topology flavour.
    pub fn kind(&self) -> TopologyKind {
        self.kind
    }

    /// Number of routers.
    pub fn router_count(&self) -> usize {
        self.router_ports.len()
    }

    /// Number of ports on router `r`.
    pub fn ports_of(&self, r: RouterId) -> usize {
        self.router_ports[r]
    }

    /// Number of NI attachment points.
    pub fn ni_count(&self) -> usize {
        self.ni_attach.len()
    }

    /// The `(router, local port)` where NI `ni` attaches.
    pub fn ni_attachment(&self, ni: NiId) -> Option<(RouterId, PortIdx)> {
        self.ni_attach.get(ni).copied()
    }

    /// All inter-router edges.
    pub fn edges(&self) -> &[RouterEdge] {
        &self.edges
    }

    /// The neighbour reached from router `r` through port `p`, if that port
    /// is an inter-router port.
    pub fn neighbour(&self, r: RouterId, p: PortIdx) -> Option<(RouterId, PortIdx)> {
        for e in &self.edges {
            if e.a == r && e.port_a == p {
                return Some((e.b, e.port_b));
            }
            if e.b == r && e.port_b == p {
                return Some((e.a, e.port_a));
            }
        }
        None
    }

    /// The NI attached to router `r` port `p`, if any.
    pub fn ni_at(&self, r: RouterId, p: PortIdx) -> Option<NiId> {
        self.ni_attach
            .iter()
            .position(|&(rr, pp)| rr == r && pp == p)
    }

    // ---- Failed-link mask ------------------------------------------------

    /// Marks the directed link leaving `router` through `port` as failed:
    /// [`Topology::route`] and [`Topology::route_any`] plan around it from
    /// now on. Masking an ejection (NI-facing) port makes the attached NI
    /// unreachable; NI *injection* links are not router outputs and cannot
    /// be masked.
    ///
    /// While any mask bit is set, every topology kind routes by
    /// breadth-first shortest path over the unmasked links. Detours stay
    /// shortest-path in the degraded graph, but a mesh loses the XY turn
    /// restriction — re-certify GT schedules after re-planning (see
    /// `aethereal-verify`) and treat BE deadlock-freedom as a degraded-mode
    /// concern, as the paper's small configurations do.
    ///
    /// # Panics
    ///
    /// Panics if `router` or `port` is out of range, or if the router has
    /// more than 64 ports (the mask is one bit per port).
    pub fn mask_link(&mut self, router: RouterId, port: PortIdx) {
        assert!(router < self.router_count(), "router {router} out of range");
        assert!(
            (port as usize) < self.router_ports[router],
            "port {port} out of range on router {router}"
        );
        assert!(self.router_ports[router] <= 64, "mask holds 64 ports");
        self.link_mask[router] |= 1 << port;
    }

    /// Clears the failed mark on `(router, port)`.
    pub fn unmask_link(&mut self, router: RouterId, port: PortIdx) {
        if let Some(m) = self.link_mask.get_mut(router) {
            *m &= !(1u64 << port);
        }
    }

    /// Masks every output of `router` — the whole router is failed (e.g. a
    /// stalled output stage).
    pub fn mask_router(&mut self, router: RouterId) {
        for p in 0..self.router_ports[router] {
            self.mask_link(router, p as PortIdx);
        }
    }

    /// Clears the entire failed-link mask, restoring pristine routing.
    pub fn clear_link_mask(&mut self) {
        self.link_mask.iter_mut().for_each(|m| *m = 0);
    }

    /// Whether the directed link leaving `(router, port)` is masked.
    pub fn is_masked(&self, router: RouterId, port: PortIdx) -> bool {
        self.link_mask
            .get(router)
            .is_some_and(|m| m & (1 << port) != 0)
    }

    /// Whether any link is currently masked.
    pub fn has_masked_links(&self) -> bool {
        self.link_mask.iter().any(|&m| m != 0)
    }

    /// Every masked `(router, port)` pair, in router-major order.
    pub fn masked_links(&self) -> Vec<(RouterId, PortIdx)> {
        let mut out = Vec::new();
        for (r, &m) in self.link_mask.iter().enumerate() {
            for p in 0..self.router_ports[r] {
                if m & (1 << p) != 0 {
                    out.push((r, p as PortIdx));
                }
            }
        }
        out
    }

    /// Computes the source route from NI `from` to NI `to`, including the
    /// final ejection hop.
    ///
    /// Meshes use XY (dimension-ordered) routing; rings take the shorter
    /// direction; custom graphs use BFS shortest paths. All are deadlock-free
    /// for the BE class (XY is turn-restricted; the others are used with the
    /// small configurations of the paper where BE buffers bound worm length).
    ///
    /// # Errors
    ///
    /// See [`RouteError`].
    pub fn route(&self, from: NiId, to: NiId) -> Result<Path, RouteError> {
        let (_, hops) = self.hops_between(from, to)?;
        Ok(Path::new(&hops)?)
    }

    /// The router NI `from` is attached to and the complete minimal hop
    /// list from there into NI `to`, ejection hop included.
    fn hops_between(&self, from: NiId, to: NiId) -> Result<(RouterId, Vec<PortIdx>), RouteError> {
        let (fr, _fp) = self
            .ni_attachment(from)
            .ok_or(RouteError::UnknownNi { ni: from })?;
        let (tr, tp) = self
            .ni_attachment(to)
            .ok_or(RouteError::UnknownNi { ni: to })?;
        let mut hops = self.plan_hops(fr, tr)?;
        if self.is_masked(tr, tp) {
            // The ejection link into the destination NI is failed.
            return Err(RouteError::Unreachable { from: fr, to: tr });
        }
        hops.push(tp);
        Ok((fr, hops))
    }

    /// The minimal router-to-router hop list, honouring the failed-link
    /// mask: maskless topologies use the kind-specific planner unchanged
    /// (bit-identical to the pre-mask behaviour); any set mask bit switches
    /// every kind to BFS shortest paths over the unmasked links.
    fn plan_hops(&self, fr: RouterId, tr: RouterId) -> Result<Vec<PortIdx>, RouteError> {
        if self.has_masked_links() {
            return self.bfs_hops(fr, tr);
        }
        Ok(match self.kind {
            TopologyKind::Mesh { width, .. } => Self::xy_hops(fr, tr, width),
            TopologyKind::Ring { routers } => Self::ring_hops(fr, tr, routers),
            TopologyKind::Custom => self.bfs_hops(fr, tr)?,
        })
    }

    /// Attaches a validated region/gateway declaration (builder form).
    pub fn with_regions(mut self, regions: Regions) -> Self {
        self.set_regions(regions);
        self
    }

    /// Attaches a validated region/gateway declaration.
    ///
    /// # Panics
    ///
    /// Panics if the region map does not cover exactly this topology's
    /// routers.
    pub fn set_regions(&mut self, regions: Regions) {
        assert_eq!(
            regions.router_map().len(),
            self.router_count(),
            "region map must cover exactly the topology's routers"
        );
        self.regions = Some(regions);
    }

    /// The region/gateway declaration, if one is attached.
    pub fn regions(&self) -> Option<&Regions> {
        self.regions.as_ref()
    }

    /// Computes the source route from NI `from` to NI `to` as a (possibly
    /// multi-segment) [`Route`], lifting the single-header
    /// [`crate::MAX_HOPS`] distance limit of [`Topology::route`].
    ///
    /// The hop list is always the minimal one [`Topology::route`] would
    /// produce; when it exceeds [`crate::MAX_HOPS`] hops it is split into
    /// segments rewritten en route by gateway routers. Split points are
    /// chosen on the minimal path: within each [`crate::MAX_HOPS`]-hop
    /// window the planner prefers the **last declared region gateway**
    /// (see [`Regions`]) and otherwise splits greedily at the window end —
    /// so route length (and thus latency in hops) never depends on the
    /// region declaration.
    ///
    /// Routes that fit one header return as single-segment routes whose
    /// header encoding is bit-identical to [`Topology::route`].
    ///
    /// # Errors
    ///
    /// See [`RouteError`].
    pub fn route_any(&self, from: NiId, to: NiId) -> Result<Route, RouteError> {
        let (fr, hops) = self.hops_between(from, to)?;
        if hops.len() <= MAX_HOPS {
            return Ok(Route::single(Path::new(&hops)?));
        }
        // The router the packet sits at *before* taking hop i; a split
        // before hop i makes routers_at[i] the gateway that rewrites. Only
        // needed to match declared gateways — greedy splits never read it.
        let routers_at: Vec<RouterId> = if self.regions.is_some() {
            let mut at = Vec::with_capacity(hops.len());
            let mut r = fr;
            for &hop in &hops {
                at.push(r);
                if let Some((nr, _)) = self.neighbour(r, hop) {
                    r = nr;
                }
            }
            at
        } else {
            Vec::new()
        };
        let mut segments = Vec::new();
        let mut pos = 0;
        while hops.len() - pos > MAX_HOPS {
            let window_end = pos + MAX_HOPS;
            // An early (gateway-preferred) split spends a segment on fewer
            // hops, so it is only honoured while the remaining hops still
            // fit the remaining segment budget — declaring regions must
            // never make a greedily-routable pair unroutable.
            let budget_after = crate::path::MAX_ROUTE_SEGMENTS.saturating_sub(segments.len() + 1);
            let split = match &self.regions {
                Some(regions) => (pos + 1..=window_end)
                    .rev()
                    .find(|&i| {
                        regions.is_gateway(routers_at[i])
                            && (hops.len() - i).div_ceil(MAX_HOPS) <= budget_after
                    })
                    .unwrap_or(window_end),
                None => window_end,
            };
            segments.push(Path::new(&hops[pos..split])?);
            pos = split;
        }
        segments.push(Path::new(&hops[pos..])?);
        Ok(Route::from_segments(segments)?)
    }

    fn xy_hops(from: RouterId, to: RouterId, width: usize) -> Vec<PortIdx> {
        let (fx, fy) = (from % width, from / width);
        let (tx, ty) = (to % width, to / width);
        let mut hops = Vec::new();
        let dx = tx as isize - fx as isize;
        for _ in 0..dx.abs() {
            hops.push(if dx > 0 { dir::EAST } else { dir::WEST });
        }
        let dy = ty as isize - fy as isize;
        for _ in 0..dy.abs() {
            hops.push(if dy > 0 { dir::SOUTH } else { dir::NORTH });
        }
        hops
    }

    fn ring_hops(from: RouterId, to: RouterId, n: usize) -> Vec<PortIdx> {
        let cw = (to + n - from) % n;
        let ccw = (from + n - to) % n;
        if cw <= ccw {
            vec![0; cw]
        } else {
            vec![1; ccw]
        }
    }

    fn bfs_hops(&self, from: RouterId, to: RouterId) -> Result<Vec<PortIdx>, RouteError> {
        if from == to {
            return Ok(Vec::new());
        }
        let n = self.router_count();
        let mut prev: Vec<Option<(RouterId, PortIdx)>> = vec![None; n];
        let mut seen = vec![false; n];
        let mut q = VecDeque::new();
        seen[from] = true;
        q.push_back(from);
        while let Some(r) = q.pop_front() {
            for p in 0..self.router_ports[r] {
                if self.is_masked(r, p as PortIdx) {
                    continue;
                }
                if let Some((nr, _)) = self.neighbour(r, p as PortIdx) {
                    if !seen[nr] {
                        seen[nr] = true;
                        prev[nr] = Some((r, p as PortIdx));
                        if nr == to {
                            q.clear();
                            break;
                        }
                        q.push_back(nr);
                    }
                }
            }
        }
        if !seen[to] {
            return Err(RouteError::Unreachable { from, to });
        }
        let mut hops = Vec::new();
        let mut cur = to;
        while cur != from {
            let (pr, pp) = prev[cur].expect("bfs backtrack");
            hops.push(pp);
            cur = pr;
        }
        hops.reverse();
        Ok(hops)
    }

    /// Enumerates the directed inter-router links traversed by `path`
    /// starting from NI `from`, as `(router, output port)` pairs — i.e. the
    /// links whose TDM slots a GT connection must reserve, **including** the
    /// NI-injection link represented as the pseudo pair `(usize::MAX, ni)`.
    ///
    /// Used by the slot allocator in `aethereal-cfg`.
    pub fn links_of_route(&self, from: NiId, path: &Path) -> Vec<(RouterId, PortIdx)> {
        let links = self.links_of_route_segmented(from, &Route::single(path.clone()));
        links.into_iter().map(|l| (l.router, l.port)).collect()
    }

    /// Enumerates the directed links traversed by a multi-segment `route`
    /// from NI `from`, annotating each with the number of gateway rewrites
    /// crossed before it (each rewrite costs one cycle of extra pipeline
    /// delay — see [`RouteLink::gateways_before`]). For single-segment
    /// routes this reduces exactly to [`Topology::links_of_route`] with
    /// `gateways_before == 0` everywhere.
    pub fn links_of_route_segmented(&self, from: NiId, route: &Route) -> Vec<RouteLink> {
        let mut links = Vec::new();
        let Some((mut r, _)) = self.ni_attachment(from) else {
            return links;
        };
        links.push(RouteLink {
            router: usize::MAX,
            port: from as PortIdx,
            gateways_before: 0,
        });
        let mut gateways_before = 0u32;
        for (i, seg) in route.segments().iter().enumerate() {
            if i > 0 {
                gateways_before += 1;
            }
            for hop in seg.iter() {
                links.push(RouteLink {
                    router: r,
                    port: hop,
                    gateways_before,
                });
                match self.neighbour(r, hop) {
                    Some((nr, _)) => r = nr,
                    None => return links, // ejection hop into the NI
                }
            }
        }
        links
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mesh_counts() {
        let t = Topology::mesh(3, 2, 1);
        assert_eq!(t.router_count(), 6);
        assert_eq!(t.ni_count(), 6);
        assert_eq!(t.ports_of(0), 5);
        assert_eq!(
            t.kind(),
            TopologyKind::Mesh {
                width: 3,
                height: 2
            }
        );
    }

    #[test]
    fn mesh_multi_ni() {
        let t = Topology::mesh(2, 2, 2);
        assert_eq!(t.ni_count(), 8);
        assert_eq!(t.ni_attachment(3), Some((1, dir::LOCAL0 + 1)));
    }

    #[test]
    fn mesh_xy_route_shape() {
        let t = Topology::mesh(2, 2, 1);
        // NI0 (router 0, top-left) → NI3 (router 3, bottom-right): E, S, eject.
        let p = t.route(0, 3).unwrap();
        let hops: Vec<_> = p.iter().collect();
        assert_eq!(hops, vec![dir::EAST, dir::SOUTH, dir::LOCAL0]);
    }

    #[test]
    fn mesh_route_to_self_is_eject_only() {
        let t = Topology::mesh(2, 2, 2);
        // NI0 and NI1 share router 0.
        let p = t.route(0, 1).unwrap();
        let hops: Vec<_> = p.iter().collect();
        assert_eq!(hops, vec![dir::LOCAL0 + 1]);
    }

    #[test]
    fn mesh_route_west_north() {
        let t = Topology::mesh(2, 2, 1);
        let p = t.route(3, 0).unwrap();
        let hops: Vec<_> = p.iter().collect();
        assert_eq!(hops, vec![dir::WEST, dir::NORTH, dir::LOCAL0]);
    }

    #[test]
    fn neighbours_are_symmetric() {
        let t = Topology::mesh(3, 3, 1);
        for e in t.edges() {
            assert_eq!(t.neighbour(e.a, e.port_a), Some((e.b, e.port_b)));
            assert_eq!(t.neighbour(e.b, e.port_b), Some((e.a, e.port_a)));
        }
    }

    #[test]
    fn ring_routes_short_way() {
        let t = Topology::ring(6);
        // 0 → 2: clockwise 2 hops.
        let p = t.route(0, 2).unwrap();
        assert_eq!(p.hops(), 3);
        assert_eq!(p.hop(0), Some(0));
        // 0 → 5: counter-clockwise 1 hop.
        let p = t.route(0, 5).unwrap();
        assert_eq!(p.hops(), 2);
        assert_eq!(p.hop(0), Some(1));
    }

    #[test]
    fn custom_bfs_route() {
        // Line of three routers, NI on each end router.
        let t = Topology::custom(
            vec![3, 3, 3],
            vec![
                RouterEdge {
                    a: 0,
                    port_a: 0,
                    b: 1,
                    port_b: 1,
                },
                RouterEdge {
                    a: 1,
                    port_a: 0,
                    b: 2,
                    port_b: 1,
                },
            ],
            vec![(0, 2), (2, 2)],
        );
        let p = t.route(0, 1).unwrap();
        let hops: Vec<_> = p.iter().collect();
        assert_eq!(hops, vec![0, 0, 2]);
    }

    #[test]
    fn custom_unreachable_reported() {
        let t = Topology::custom(vec![1, 1], vec![], vec![(0, 0), (1, 0)]);
        assert!(matches!(t.route(0, 1), Err(RouteError::Unreachable { .. })));
    }

    #[test]
    fn unknown_ni_reported() {
        let t = Topology::mesh(2, 2, 1);
        assert_eq!(
            t.route(0, 99).unwrap_err(),
            RouteError::UnknownNi { ni: 99 }
        );
    }

    #[test]
    fn mask_reroutes_mesh_same_length() {
        let mut t = Topology::mesh(2, 2, 1);
        let pristine: Vec<_> = t.route(0, 3).unwrap().iter().collect();
        assert_eq!(pristine, vec![dir::EAST, dir::SOUTH, dir::LOCAL0]);
        t.mask_link(0, dir::EAST);
        let detour: Vec<_> = t.route(0, 3).unwrap().iter().collect();
        assert_eq!(
            detour,
            vec![dir::SOUTH, dir::EAST, dir::LOCAL0],
            "detour takes the equal-length unmasked corner"
        );
        // route_any agrees with route on the masked graph.
        let any = t.route_any(0, 3).unwrap();
        assert_eq!(any.segments().len(), 1);
        assert_eq!(any.segments()[0].iter().collect::<Vec<_>>(), detour);
    }

    #[test]
    fn unmask_restores_pristine_routing_bit_identically() {
        let mut t = Topology::mesh(3, 3, 1);
        let before = t.route(0, 8).unwrap();
        t.mask_link(0, dir::EAST);
        assert_ne!(t.route(0, 8).unwrap().iter().collect::<Vec<_>>()[0], {
            let h: Vec<_> = before.iter().collect();
            h[0]
        });
        t.unmask_link(0, dir::EAST);
        assert!(!t.has_masked_links());
        assert_eq!(
            t.route(0, 8).unwrap().iter().collect::<Vec<_>>(),
            before.iter().collect::<Vec<_>>()
        );
    }

    #[test]
    fn mask_cuts_make_destination_unreachable() {
        let mut t = Topology::mesh(2, 2, 1);
        t.mask_link(0, dir::EAST);
        t.mask_link(0, dir::SOUTH);
        assert!(matches!(
            t.route(0, 3),
            Err(RouteError::Unreachable { from: 0, to: 3 })
        ));
        // Other pairs still plan (around the dead corner where needed).
        assert!(t.route(1, 3).is_ok());
    }

    #[test]
    fn masked_ejection_port_is_unreachable() {
        let mut t = Topology::mesh(2, 2, 1);
        t.mask_link(3, dir::LOCAL0);
        assert!(matches!(
            t.route(0, 3),
            Err(RouteError::Unreachable { from: 0, to: 3 })
        ));
        assert!(matches!(
            t.route_any(0, 3),
            Err(RouteError::Unreachable { from: 0, to: 3 })
        ));
    }

    #[test]
    fn mask_router_blacks_out_every_output() {
        let mut t = Topology::mesh(3, 3, 1);
        t.mask_router(4); // centre router of the 3x3
        assert_eq!(t.masked_links().len(), t.ports_of(4));
        // 0 → 8 must now avoid the centre entirely.
        let p = t.route(0, 8).unwrap();
        let mut r = 0;
        for hop in p.iter() {
            assert_ne!(r, 4, "route crosses the failed router");
            match t.neighbour(r, hop) {
                Some((nr, _)) => r = nr,
                None => break,
            }
        }
        t.clear_link_mask();
        assert!(!t.has_masked_links());
    }

    #[test]
    #[should_panic(expected = "connected twice")]
    fn double_port_use_panics() {
        let _ = Topology::custom(
            vec![2, 2],
            vec![RouterEdge {
                a: 0,
                port_a: 0,
                b: 1,
                port_b: 0,
            }],
            vec![(0, 0), (1, 1)],
        );
    }

    #[test]
    fn links_of_route_walks_the_path() {
        let t = Topology::mesh(2, 2, 1);
        let p = t.route(0, 3).unwrap();
        let links = t.links_of_route(0, &p);
        // injection, router0→E, router1→S, router3→local.
        assert_eq!(links.len(), 4);
        assert_eq!(links[0], (usize::MAX, 0));
        assert_eq!(links[1], (0, dir::EAST));
        assert_eq!(links[2], (1, dir::SOUTH));
        assert_eq!(links[3], (3, dir::LOCAL0));
    }

    #[test]
    fn ni_at_inverse_of_attachment() {
        let t = Topology::mesh(2, 2, 2);
        for ni in 0..t.ni_count() {
            let (r, p) = t.ni_attachment(ni).unwrap();
            assert_eq!(t.ni_at(r, p), Some(ni));
        }
    }

    #[test]
    fn max_mesh_route_fits_header() {
        // 4x4 mesh worst case: 3 + 3 hops + eject = 7 = MAX_HOPS.
        let t = Topology::mesh(4, 4, 1);
        assert!(t.route(0, 15).is_ok());
        assert!(t.route(12, 3).is_ok());
    }

    #[test]
    fn route_any_short_is_bit_identical_to_route() {
        let t = Topology::mesh(4, 4, 1);
        for (from, to) in [(0, 15), (12, 3), (5, 5), (0, 1)] {
            let single = t.route(from, to).unwrap();
            let route = t.route_any(from, to).unwrap();
            assert!(route.is_single());
            assert_eq!(route.header_segment().encode(), single.encode());
        }
    }

    #[test]
    fn route_any_splits_long_mesh_routes_minimally() {
        let t = Topology::mesh(8, 8, 1);
        // Opposite corners: 7 E + 7 S + eject = 15 hops, minimal.
        let r = t.route_any(0, 63).unwrap();
        assert_eq!(r.total_hops(), 15);
        assert_eq!(r.segments().len(), 3);
        let hops: Vec<_> = r.iter_hops().collect();
        let mut expect = vec![dir::EAST; 7];
        expect.extend(vec![dir::SOUTH; 7]);
        expect.push(dir::LOCAL0);
        assert_eq!(hops, expect);
    }

    #[test]
    fn route_any_prefers_region_gateways_on_the_path() {
        // 8x8 mesh, two row-band regions; gateways at the start of rows 1
        // and 4 — router 32 (x=0, y=4) lies on the minimal S-then-eject
        // path from NI 0 down column 0.
        let regions =
            Regions::new((0..64).map(|r| usize::from(r >= 32)).collect(), vec![8, 32]).unwrap();
        let t = Topology::mesh(8, 8, 1).with_regions(regions);
        // NI 0 → NI 56 (x=0, y=7): 7 S + eject = 8 hops, split required.
        let r = t.route_any(0, 56).unwrap();
        assert_eq!(r.total_hops(), 8, "split adds no hops");
        assert_eq!(r.segments().len(), 2);
        // The split lands at the declared gateway (router 32, 4 hops in),
        // not at the greedy 7-hop point.
        assert_eq!(r.segments()[0].hops(), 4);
        // And routing is unaffected for in-region pairs.
        assert!(t.route_any(0, 8).unwrap().is_single());
    }

    #[test]
    fn adversarial_gateways_never_exhaust_the_segment_budget() {
        // 16x16 mesh, 0 → 255 needs 31 hops = 5 greedy segments (the full
        // budget). Gateways sitting right at the start of the minimal path
        // would, if always honoured, force tiny segments and overflow the
        // budget — the planner must skip them instead of failing.
        let mut region_of = vec![1usize; 256];
        // Region 0 = the first few routers of row 0, gateways among them.
        region_of[..4].fill(0);
        let regions = Regions::new(region_of, vec![1, 255]).unwrap();
        let t = Topology::mesh(16, 16, 1).with_regions(regions);
        let r = t.route_any(0, 255).expect("stays routable with regions");
        assert_eq!(r.total_hops(), 31);
        assert!(r.segments().len() <= crate::path::MAX_ROUTE_SEGMENTS);
        // And matches the greedy route's hop sequence.
        let plain = Topology::mesh(16, 16, 1).route_any(0, 255).unwrap();
        assert_eq!(
            r.iter_hops().collect::<Vec<_>>(),
            plain.iter_hops().collect::<Vec<_>>()
        );
    }

    #[test]
    fn route_any_ring_and_custom_split() {
        let t = Topology::ring(20);
        let r = t.route_any(0, 10).unwrap(); // 10 hops + eject = 11
        assert_eq!(r.total_hops(), 11);
        assert_eq!(r.segments().len(), 2);
    }

    #[test]
    fn regions_validation() {
        assert!(Regions::new(vec![0, 0, 1, 1], vec![0, 2]).is_ok());
        assert_eq!(
            Regions::new(vec![0, 0, 2, 2], vec![0, 2]).unwrap_err(),
            RegionError::SparseRegions { missing: 1 }
        );
        assert_eq!(
            Regions::new(vec![0, 0, 1, 1], vec![0]).unwrap_err(),
            RegionError::GatewayCountMismatch {
                regions: 2,
                gateways: 1
            }
        );
        assert_eq!(
            Regions::new(vec![0, 0, 1, 1], vec![0, 1]).unwrap_err(),
            RegionError::GatewayOutsideRegion {
                region: 1,
                gateway: 1
            }
        );
        assert_eq!(
            Regions::new(vec![], vec![]).unwrap_err(),
            RegionError::Empty
        );
    }

    #[test]
    #[should_panic(expected = "cover exactly")]
    fn region_map_must_match_router_count() {
        let regions = Regions::new(vec![0, 0], vec![0]).unwrap();
        let _ = Topology::mesh(2, 2, 1).with_regions(regions);
    }

    #[test]
    fn segmented_links_reduce_to_plain_links_for_single_routes() {
        let t = Topology::mesh(2, 2, 1);
        let route = t.route_any(0, 3).unwrap();
        let path = t.route(0, 3).unwrap();
        let plain = t.links_of_route(0, &path);
        let seg = t.links_of_route_segmented(0, &route);
        assert_eq!(seg.len(), plain.len());
        for (s, p) in seg.iter().zip(&plain) {
            assert_eq!((s.router, s.port), *p);
            assert_eq!(s.gateways_before, 0);
        }
    }

    #[test]
    fn segmented_links_count_gateways() {
        let t = Topology::mesh(8, 8, 1);
        let route = t.route_any(0, 63).unwrap(); // segments of 7, 7, 1
        let links = t.links_of_route_segmented(0, &route);
        assert_eq!(links.len(), 16); // injection + 15 hops
        assert_eq!(links[0].gateways_before, 0);
        assert_eq!(links[7].gateways_before, 0); // last link of segment 0
        assert_eq!(links[8].gateways_before, 1); // first link after gateway 1
        assert_eq!(links[15].gateways_before, 2); // ejection after gateway 2
    }
}

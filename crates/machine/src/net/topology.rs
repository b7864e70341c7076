//! Explicit network topologies and deterministic routing.
//!
//! A [`Topology`] is a declarative description (crossbar, k-ary
//! fat-tree, N-dimensional torus); [`LinkGraph::build`] compiles it into
//! a flat list of unidirectional [`Link`]s plus a routing function.
//! Routing is static and deterministic — fat-tree up-paths are selected
//! by destination (d-mod ECMP, so every packet to a given host takes the
//! same core), tori use dimension-order routing taking the shorter wrap
//! direction (ties go the positive way) — which keeps the flow-level
//! simulation a pure function of `(trace, platform)`.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex, OnceLock};

/// How network contention is modelled for intra-machine transfers.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub enum ContentionModel {
    /// The legacy Dimemas model: a global bus count plus per-node
    /// input/output ports ([`crate::resources::Resources`]). This is the
    /// calibrated model of the paper's Table I and the default.
    #[default]
    Bus,
    /// Flow-level model: each transfer becomes a flow routed over an
    /// explicit [`Topology`]; link bandwidth is shared max-min fair and
    /// in-flight completion times are re-estimated whenever flows start
    /// or finish. Per-node ports still bound injection/extraction
    /// concurrency; the global bus count is ignored.
    Flow(Topology),
}

/// Declarative network topology for [`ContentionModel::Flow`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Topology {
    /// Single ideal switch: every node gets a dedicated full-capacity
    /// up link and down link. With one in/out port per node this is
    /// exactly the bus model with unlimited buses.
    Crossbar,
    /// Classic three-level k-ary fat-tree (`radix` even, ≥ 2): k pods of
    /// k/2 edge and k/2 aggregation switches, (k/2)² core switches,
    /// k³/4 host endpoints. `oversubscription` divides the capacity of
    /// every fabric (edge↔agg, agg↔core) link; 1 is fully provisioned.
    FatTree { radix: u32, oversubscription: u32 },
    /// N-dimensional torus (1–3 dims, each ≥ 2) with dimension-order
    /// routing and wraparound links; one node per endpoint.
    Torus { dims: Vec<u32> },
}

impl Topology {
    /// Validate the topology parameters themselves (endpoint
    /// sufficiency is checked at build time, when the node count is
    /// known).
    pub fn check(&self) -> Result<(), String> {
        match self {
            Topology::Crossbar => Ok(()),
            Topology::FatTree {
                radix,
                oversubscription,
            } => {
                if *radix < 2 || radix % 2 != 0 {
                    return Err(format!("fat-tree radix must be even and >= 2, got {radix}"));
                }
                if *oversubscription == 0 {
                    return Err("fat-tree oversubscription must be >= 1, got 0".to_string());
                }
                Ok(())
            }
            Topology::Torus { dims } => {
                if dims.is_empty() || dims.len() > 3 {
                    return Err(format!("torus needs 1 to 3 dimensions, got {}", dims.len()));
                }
                if let Some(d) = dims.iter().find(|&&d| d < 2) {
                    return Err(format!("torus dimensions must each be >= 2, got {d}"));
                }
                Ok(())
            }
        }
    }

    /// Number of host endpoints the topology provides. `None` means the
    /// topology scales to any node count (the crossbar grows a port per
    /// node). Saturates at `usize::MAX`.
    pub fn endpoints(&self) -> Option<usize> {
        let n: u128 = match self {
            Topology::Crossbar => return None,
            Topology::FatTree { radix, .. } => {
                let k = u128::from(*radix);
                k * k * k / 4
            }
            Topology::Torus { dims } => dims.iter().map(|&d| u128::from(d)).product(),
        };
        Some(usize::try_from(n).unwrap_or(usize::MAX))
    }

    /// Refuse a fixed-size fabric that cannot host `nodes` nodes, or
    /// whose compilation would cost far more than any replay on it:
    /// more than 2^22 links, or more than 64 endpoints per node needed
    /// (16,384 endpoints always pass, so small traces can still use the
    /// usual radices). The crossbar
    /// grows with the nodes and always fits. Input layers call this
    /// before tracing or compiling anything.
    pub fn check_size(&self, nodes: usize) -> Result<(), String> {
        let Some(cap) = self.endpoints() else {
            return Ok(());
        };
        if nodes > cap {
            return Err(format!(
                "topology `{self}` has {cap} endpoints but the trace needs {nodes} nodes"
            ));
        }
        // six links per fat-tree host (host, edge–aggregation and
        // aggregation–core, both ways), two per torus node and dimension
        let per_endpoint = match self {
            Topology::Torus { dims } => 2 * dims.len(),
            _ => 6,
        };
        let links = cap.saturating_mul(per_endpoint);
        if links > MAX_FABRIC_LINKS {
            return Err(format!(
                "topology `{self}` compiles to {links} links, over the limit of {MAX_FABRIC_LINKS}"
            ));
        }
        let limit = nodes.saturating_mul(FABRIC_SLACK).max(FABRIC_FLOOR);
        if cap > limit {
            return Err(format!(
                "topology `{self}` has {cap} endpoints for {nodes} nodes, over the limit of \
                 {limit} ({FABRIC_SLACK} per node, at least {FABRIC_FLOOR}); pick a smaller fabric"
            ));
        }
        Ok(())
    }
}

/// Most links a fabric may compile into (each carries a label and
/// per-replay state).
const MAX_FABRIC_LINKS: usize = 1 << 22;

/// Endpoints a fixed-size fabric may have per node the ranks need.
const FABRIC_SLACK: usize = 64;

/// Endpoints any fabric may have, however few nodes the ranks need.
const FABRIC_FLOOR: usize = 1 << 14;

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Topology::Crossbar => write!(f, "crossbar"),
            Topology::FatTree {
                radix,
                oversubscription: 1,
            } => write!(f, "fat-tree:{radix}"),
            Topology::FatTree {
                radix,
                oversubscription,
            } => write!(f, "fat-tree:{radix}:{oversubscription}"),
            Topology::Torus { dims } => {
                write!(f, "torus:")?;
                for (i, d) in dims.iter().enumerate() {
                    if i > 0 {
                        write!(f, "x")?;
                    }
                    write!(f, "{d}")?;
                }
                Ok(())
            }
        }
    }
}

impl fmt::Display for ContentionModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ContentionModel::Bus => write!(f, "bus"),
            ContentionModel::Flow(t) => write!(f, "{t}"),
        }
    }
}

impl ContentionModel {
    /// Parse a CLI topology spec. Accepted forms:
    ///
    /// ```text
    /// bus                         legacy buses + ports model
    /// crossbar                    single ideal switch
    /// fat-tree:<radix>            fully provisioned k-ary fat-tree
    /// fat-tree:<radix>:<oversub>  with oversubscribed fabric links
    /// torus:<A>x<B>[x<C>]        1-3 dimensional torus
    /// ```
    ///
    /// The parsed topology is validated, so invalid parameters (zero or
    /// odd radix, dims < 2, …) fail here with a clean message.
    pub fn parse(spec: &str) -> Result<ContentionModel, String> {
        let spec = spec.trim();
        let model = match spec {
            "bus" => ContentionModel::Bus,
            "crossbar" | "xbar" => ContentionModel::Flow(Topology::Crossbar),
            _ => {
                if let Some(rest) = spec
                    .strip_prefix("fat-tree:")
                    .or_else(|| spec.strip_prefix("fattree:"))
                {
                    let mut parts = rest.split(':');
                    let radix_s = parts.next().unwrap_or("");
                    let radix: u32 = radix_s
                        .parse()
                        .map_err(|_| format!("bad fat-tree radix `{radix_s}`"))?;
                    let oversubscription = match parts.next() {
                        None => 1,
                        Some(o) => o
                            .parse()
                            .map_err(|_| format!("bad fat-tree oversubscription `{o}`"))?,
                    };
                    if let Some(extra) = parts.next() {
                        return Err(format!("trailing fat-tree parameter `{extra}`"));
                    }
                    ContentionModel::Flow(Topology::FatTree {
                        radix,
                        oversubscription,
                    })
                } else if let Some(rest) = spec.strip_prefix("torus:") {
                    let dims = rest
                        .split('x')
                        .map(|d| {
                            d.parse::<u32>()
                                .map_err(|_| format!("bad torus dimension `{d}`"))
                        })
                        .collect::<Result<Vec<u32>, String>>()?;
                    ContentionModel::Flow(Topology::Torus { dims })
                } else {
                    return Err(format!(
                        "unknown topology `{spec}` (expected bus | crossbar | \
                         fat-tree:<radix>[:<oversub>] | torus:<A>x<B>[x<C>])"
                    ));
                }
            }
        };
        if let ContentionModel::Flow(t) = &model {
            t.check()?;
        }
        Ok(model)
    }
}

impl std::str::FromStr for ContentionModel {
    type Err = String;

    fn from_str(s: &str) -> Result<ContentionModel, String> {
        ContentionModel::parse(s)
    }
}

/// Index of a unidirectional link in a [`LinkGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(pub u32);

impl LinkId {
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// One unidirectional link.
#[derive(Debug, Clone, PartialEq)]
pub struct Link {
    /// Human-readable endpoint pair, e.g. `h3->e1` or `n5->n6(+x)`.
    /// Shared so per-replay usage snapshots never copy the text.
    pub label: Arc<str>,
    /// Capacity in bytes per second (`f64::INFINITY` allowed).
    pub capacity: f64,
}

/// Compiled topology: the link list plus a static routing function.
#[derive(Debug, Clone)]
pub struct LinkGraph {
    links: Vec<Link>,
    router: Router,
}

#[derive(Debug, Clone)]
enum Router {
    Crossbar { nodes: usize },
    FatTree { half: usize },
    Torus { dims: Vec<u32> },
}

impl LinkGraph {
    /// Compile `topo` for `nodes` endpoints with `bandwidth_mbs` MB/s
    /// host links. Errors if the topology cannot host that many nodes.
    pub fn build(topo: &Topology, nodes: usize, bandwidth_mbs: f64) -> Result<LinkGraph, String> {
        topo.check()?;
        topo.check_size(nodes)?;
        let host_cap = bandwidth_mbs * 1e6;
        let mut links = Vec::new();
        let router = match topo {
            Topology::Crossbar => {
                for i in 0..nodes {
                    links.push(Link {
                        label: format!("n{i}->sw").into(),
                        capacity: host_cap,
                    });
                }
                for i in 0..nodes {
                    links.push(Link {
                        label: format!("sw->n{i}").into(),
                        capacity: host_cap,
                    });
                }
                Router::Crossbar { nodes }
            }
            Topology::FatTree {
                radix,
                oversubscription,
            } => {
                let k = *radix as usize;
                let half = k / 2;
                let hosts = k * half * half;
                let fabric_cap = host_cap / *oversubscription as f64;
                // Block layout: host-up, host-down, edge->agg, agg->edge,
                // agg->core, core->agg. Each block has `hosts` links.
                for h in 0..hosts {
                    links.push(Link {
                        label: format!("h{h}->e{}", h / half).into(),
                        capacity: host_cap,
                    });
                }
                for h in 0..hosts {
                    links.push(Link {
                        label: format!("e{}->h{h}", h / half).into(),
                        capacity: host_cap,
                    });
                }
                for edge in 0..k * half {
                    for a in 0..half {
                        let agg = (edge / half) * half + a;
                        links.push(Link {
                            label: format!("e{edge}->a{agg}").into(),
                            capacity: fabric_cap,
                        });
                    }
                }
                for edge in 0..k * half {
                    for a in 0..half {
                        let agg = (edge / half) * half + a;
                        links.push(Link {
                            label: format!("a{agg}->e{edge}").into(),
                            capacity: fabric_cap,
                        });
                    }
                }
                for pod in 0..k {
                    for a in 0..half {
                        for i in 0..half {
                            links.push(Link {
                                label: format!("a{}->c{}", pod * half + a, a * half + i).into(),
                                capacity: fabric_cap,
                            });
                        }
                    }
                }
                for pod in 0..k {
                    for a in 0..half {
                        for i in 0..half {
                            links.push(Link {
                                label: format!("c{}->a{}", a * half + i, pod * half + a).into(),
                                capacity: fabric_cap,
                            });
                        }
                    }
                }
                Router::FatTree { half }
            }
            Topology::Torus { dims } => {
                let n: usize = dims.iter().map(|&d| d as usize).product();
                let ndims = dims.len();
                const AXES: [char; 3] = ['x', 'y', 'z'];
                for node in 0..n {
                    for (dim, &axis) in AXES.iter().enumerate().take(ndims) {
                        for dir in 0..2usize {
                            let to = torus_neighbor(node, dims, dim, dir);
                            let sign = if dir == 0 { '+' } else { '-' };
                            links.push(Link {
                                label: format!("n{node}->n{to}({sign}{axis})").into(),
                                capacity: host_cap,
                            });
                        }
                    }
                }
                Router::Torus { dims: dims.clone() }
            }
        };
        Ok(LinkGraph { links, router })
    }

    pub fn links(&self) -> &[Link] {
        &self.links
    }

    pub fn len(&self) -> usize {
        self.links.len()
    }

    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }

    /// The static route for a `src -> dst` node pair (`src != dst`).
    pub fn route(&self, src: usize, dst: usize) -> Vec<LinkId> {
        let mut out = Vec::new();
        self.route_into(src, dst, &mut out);
        out
    }

    /// Append the static `src -> dst` route to `out` without allocating
    /// (beyond growing `out`). The hot path for flow registration: the
    /// caller owns and reuses the buffer.
    pub fn route_into(&self, src: usize, dst: usize, out: &mut Vec<LinkId>) {
        debug_assert_ne!(src, dst, "routing a node to itself");
        match &self.router {
            Router::Crossbar { nodes } => {
                out.push(LinkId(src as u32));
                out.push(LinkId((nodes + dst) as u32));
            }
            Router::FatTree { half } => fat_tree_route(src, dst, *half, out),
            Router::Torus { dims } => torus_route(src, dst, dims, out),
        }
    }

    /// Resolve a fault selector to the concrete links it addresses.
    pub fn select(&self, sel: &super::fault::LinkSelector) -> Result<Vec<LinkId>, String> {
        use super::fault::LinkSelector;
        match sel {
            LinkSelector::Label(label) => self
                .links
                .iter()
                .position(|l| &*l.label == label.as_str())
                .map(|i| vec![LinkId(i as u32)])
                .ok_or_else(|| format!("no link labelled `{label}` in this topology")),
            LinkSelector::Index(i) => {
                if (*i as usize) < self.links.len() {
                    Ok(vec![LinkId(*i)])
                } else {
                    Err(format!(
                        "link index {i} out of range (topology has {} links)",
                        self.links.len()
                    ))
                }
            }
            LinkSelector::Uplinks => match &self.router {
                Router::Crossbar { nodes } => Ok((0..*nodes as u32).map(LinkId).collect()),
                Router::FatTree { .. } => {
                    // block layout: host-up, host-down, edge->agg,
                    // agg->edge, agg->core, core->agg (see `build`)
                    let hosts = self.links.len() / 6;
                    Ok((0..hosts)
                        .chain(2 * hosts..3 * hosts)
                        .chain(4 * hosts..5 * hosts)
                        .map(|i| LinkId(i as u32))
                        .collect())
                }
                Router::Torus { .. } => Err(
                    "selector `uplink:*` needs an up direction; only crossbar and fat-tree \
                     topologies have one"
                        .to_string(),
                ),
            },
            LinkSelector::Dim(d) => match &self.router {
                Router::Torus { dims } => {
                    let ndims = dims.len();
                    if *d as usize >= ndims {
                        return Err(format!(
                            "torus dimension {d} out of range (topology has {ndims})"
                        ));
                    }
                    Ok((0..self.links.len())
                        .filter(|slot| (slot / 2) % ndims == *d as usize)
                        .map(|i| LinkId(i as u32))
                        .collect())
                }
                _ => Err(format!(
                    "selector `dim:{d}` addresses torus dimensions; only torus topologies \
                     have them"
                )),
            },
        }
    }

    /// Deterministic route from `src` to `dst` avoiding every link with
    /// `dead[link] == true`, exploiting whatever path diversity the
    /// topology has: the fat-tree re-selects its ECMP plane/core pair,
    /// the torus falls back to the reverse wrap direction per dimension.
    /// Errs with the blocking link when the pair is partitioned.
    pub fn route_avoiding(
        &self,
        src: usize,
        dst: usize,
        dead: &[bool],
        out: &mut Vec<LinkId>,
    ) -> Result<(), LinkId> {
        debug_assert_ne!(src, dst, "routing a node to itself");
        let alive = |l: LinkId| !dead[l.idx()];
        match &self.router {
            Router::Crossbar { nodes } => {
                // a crossbar has exactly one path per pair
                let up = LinkId(src as u32);
                let down = LinkId((nodes + dst) as u32);
                if !alive(up) {
                    return Err(up);
                }
                if !alive(down) {
                    return Err(down);
                }
                out.push(up);
                out.push(down);
                Ok(())
            }
            Router::FatTree { half } => fat_tree_route_avoiding(src, dst, *half, dead, out),
            Router::Torus { dims } => torus_route_avoiding(src, dst, dims, dead, out),
        }
    }

    /// Build `topo` through a process-wide cache of compiled graphs.
    ///
    /// Compiling a topology is pure — the result depends only on
    /// `(topo, nodes, bandwidth_mbs)` — but costs a few microseconds of
    /// link-table and label construction, which dominates short replays
    /// when a sweep revisits the same platform thousands of times. The
    /// cache hands out shared immutable graphs instead; it is bounded
    /// (wholesale-cleared beyond [`GRAPH_CACHE_CAP`] distinct keys, far
    /// more than any sweep uses) and safe to share across sweep worker
    /// threads.
    pub fn cached(
        topo: &Topology,
        nodes: usize,
        bandwidth_mbs: f64,
    ) -> Result<Arc<LinkGraph>, String> {
        type GraphCache = Mutex<HashMap<(Topology, usize, u64), Arc<LinkGraph>>>;
        static CACHE: OnceLock<GraphCache> = OnceLock::new();
        let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
        let key = (topo.clone(), nodes, bandwidth_mbs.to_bits());
        let mut map = cache.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(g) = map.get(&key) {
            return Ok(Arc::clone(g));
        }
        let g = Arc::new(LinkGraph::build(topo, nodes, bandwidth_mbs)?);
        if map.len() >= GRAPH_CACHE_CAP {
            map.clear();
        }
        map.insert(key, Arc::clone(&g));
        Ok(g)
    }
}

/// Distinct compiled topologies kept by [`LinkGraph::cached`].
const GRAPH_CACHE_CAP: usize = 64;

/// Coordinates of `node` in mixed radix (dimension 0 fastest).
fn torus_coords(node: usize, dims: &[u32]) -> [usize; 3] {
    let mut c = [0usize; 3];
    let mut rest = node;
    for (i, &d) in dims.iter().enumerate() {
        c[i] = rest % d as usize;
        rest /= d as usize;
    }
    c
}

fn torus_index(coords: &[usize; 3], dims: &[u32]) -> usize {
    let mut idx = 0usize;
    for (i, &d) in dims.iter().enumerate().rev() {
        idx = idx * d as usize + coords[i];
    }
    idx
}

/// Neighbour of `node` one hop along `dim` (`dir` 0 = +, 1 = −).
fn torus_neighbor(node: usize, dims: &[u32], dim: usize, dir: usize) -> usize {
    let d = dims[dim] as usize;
    let mut c = torus_coords(node, dims);
    c[dim] = if dir == 0 {
        (c[dim] + 1) % d
    } else {
        (c[dim] + d - 1) % d
    };
    torus_index(&c, dims)
}

/// Link id of the `(node, dim, dir)` torus link, matching build order.
fn torus_link(node: usize, ndims: usize, dim: usize, dir: usize) -> LinkId {
    LinkId(((node * ndims + dim) * 2 + dir) as u32)
}

/// Dimension-order routing, shorter wrap direction, ties positive.
fn torus_route(src: usize, dst: usize, dims: &[u32], path: &mut Vec<LinkId>) {
    let ndims = dims.len();
    let mut cur = torus_coords(src, dims);
    let target = torus_coords(dst, dims);
    for dim in 0..ndims {
        let d = dims[dim] as usize;
        while cur[dim] != target[dim] {
            let forward = (target[dim] + d - cur[dim]) % d;
            let dir = if forward <= d - forward { 0 } else { 1 };
            path.push(torus_link(torus_index(&cur, dims), ndims, dim, dir));
            cur[dim] = if dir == 0 {
                (cur[dim] + 1) % d
            } else {
                (cur[dim] + d - 1) % d
            };
        }
    }
}

/// d-mod ECMP fat-tree route; see [`LinkGraph::build`] for the link
/// block layout.
fn fat_tree_route(src: usize, dst: usize, half: usize, path: &mut Vec<LinkId>) {
    let hosts_per_pod = half * half;
    let total_hosts = 2 * half * hosts_per_pod; // k * half * half
    let edge_of = |h: usize| h / half; // global edge index
    let pod_of = |h: usize| h / hosts_per_pod;
    let up_host = |h: usize| LinkId(h as u32);
    let down_host = |h: usize| LinkId((total_hosts + h) as u32);
    let edge_up = |edge: usize, a: usize| LinkId((2 * total_hosts + edge * half + a) as u32);
    let edge_down = |edge: usize, a: usize| LinkId((3 * total_hosts + edge * half + a) as u32);
    let agg_up = |pod: usize, a: usize, i: usize| {
        LinkId((4 * total_hosts + (pod * half + a) * half + i) as u32)
    };
    let agg_down = |pod: usize, a: usize, i: usize| {
        LinkId((5 * total_hosts + (pod * half + a) * half + i) as u32)
    };

    let (es, ed) = (edge_of(src), edge_of(dst));
    path.push(up_host(src));
    if es == ed {
        path.push(down_host(dst));
        return;
    }
    // deterministic ECMP: the destination picks the aggregation plane
    // and, across pods, the core within the plane
    let a = dst % half;
    if pod_of(src) == pod_of(dst) {
        path.push(edge_up(es, a));
        path.push(edge_down(ed, a));
    } else {
        let i = (dst / half) % half;
        path.push(edge_up(es, a));
        path.push(agg_up(pod_of(src), a, i));
        path.push(agg_down(pod_of(dst), a, i));
        path.push(edge_down(ed, a));
    }
    path.push(down_host(dst));
}

/// Fat-tree routing with ECMP re-selection around dead links. The
/// destination-preferred `(plane, core)` pair is tried first (so with
/// no dead link on it the route equals [`fat_tree_route`] exactly),
/// then the remaining pairs in ascending order — a fixed, load-blind
/// order that keeps replays deterministic.
fn fat_tree_route_avoiding(
    src: usize,
    dst: usize,
    half: usize,
    dead: &[bool],
    path: &mut Vec<LinkId>,
) -> Result<(), LinkId> {
    let hosts_per_pod = half * half;
    let total_hosts = 2 * half * hosts_per_pod;
    let edge_of = |h: usize| h / half;
    let pod_of = |h: usize| h / hosts_per_pod;
    let up_host = |h: usize| LinkId(h as u32);
    let down_host = |h: usize| LinkId((total_hosts + h) as u32);
    let edge_up = |edge: usize, a: usize| LinkId((2 * total_hosts + edge * half + a) as u32);
    let edge_down = |edge: usize, a: usize| LinkId((3 * total_hosts + edge * half + a) as u32);
    let agg_up = |pod: usize, a: usize, i: usize| {
        LinkId((4 * total_hosts + (pod * half + a) * half + i) as u32)
    };
    let agg_down = |pod: usize, a: usize, i: usize| {
        LinkId((5 * total_hosts + (pod * half + a) * half + i) as u32)
    };
    let alive = |l: LinkId| !dead[l.idx()];

    // the host links have no alternative
    let (up, down) = (up_host(src), down_host(dst));
    if !alive(up) {
        return Err(up);
    }
    if !alive(down) {
        return Err(down);
    }
    let (es, ed) = (edge_of(src), edge_of(dst));
    if es == ed {
        path.push(up);
        path.push(down);
        return Ok(());
    }
    let a0 = dst % half;
    if pod_of(src) == pod_of(dst) {
        // same pod: the free choice is the aggregation plane
        let planes = std::iter::once(a0).chain((0..half).filter(|&a| a != a0));
        let mut blocker = None;
        for a in planes {
            let hops = [edge_up(es, a), edge_down(ed, a)];
            match hops.iter().find(|&&l| !alive(l)) {
                None => {
                    path.push(up);
                    path.extend_from_slice(&hops);
                    path.push(down);
                    return Ok(());
                }
                Some(&l) => blocker.get_or_insert(l),
            };
        }
        return Err(blocker.unwrap());
    }
    // cross-pod: the free choice is the (plane, core-within-plane) pair
    let i0 = (dst / half) % half;
    let (ps, pd) = (pod_of(src), pod_of(dst));
    let pairs = std::iter::once((a0, i0))
        .chain((0..half).flat_map(|a| (0..half).map(move |i| (a, i)).filter(|&p| p != (a0, i0))));
    let mut blocker = None;
    for (a, i) in pairs {
        let hops = [
            edge_up(es, a),
            agg_up(ps, a, i),
            agg_down(pd, a, i),
            edge_down(ed, a),
        ];
        match hops.iter().find(|&&l| !alive(l)) {
            None => {
                path.push(up);
                path.extend_from_slice(&hops);
                path.push(down);
                return Ok(());
            }
            Some(&l) => blocker.get_or_insert(l),
        };
    }
    Err(blocker.unwrap())
}

/// Dimension-order torus routing with dimension-reversal fallback:
/// when the preferred wrap direction crosses a dead link, the whole
/// dimension is traversed the other way round instead.
fn torus_route_avoiding(
    src: usize,
    dst: usize,
    dims: &[u32],
    dead: &[bool],
    path: &mut Vec<LinkId>,
) -> Result<(), LinkId> {
    let ndims = dims.len();
    let mut cur = torus_coords(src, dims);
    let target = torus_coords(dst, dims);
    let mut hops: Vec<LinkId> = Vec::new();
    for dim in 0..ndims {
        if cur[dim] == target[dim] {
            continue;
        }
        let d = dims[dim] as usize;
        let forward = (target[dim] + d - cur[dim]) % d;
        let preferred = if forward <= d - forward { 0 } else { 1 };
        let mut blocker = None;
        let mut routed = false;
        'dirs: for dir in [preferred, 1 - preferred] {
            hops.clear();
            let mut c = cur;
            while c[dim] != target[dim] {
                let l = torus_link(torus_index(&c, dims), ndims, dim, dir);
                if dead[l.idx()] {
                    blocker.get_or_insert(l);
                    continue 'dirs;
                }
                hops.push(l);
                c[dim] = if dir == 0 {
                    (c[dim] + 1) % d
                } else {
                    (c[dim] + d - 1) % d
                };
            }
            path.extend_from_slice(&hops);
            cur[dim] = target[dim];
            routed = true;
            break;
        }
        if !routed {
            return Err(blocker.unwrap());
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrips_through_display() {
        for spec in [
            "bus",
            "crossbar",
            "fat-tree:4",
            "fat-tree:8:2",
            "torus:4x4",
            "torus:2x2x2",
        ] {
            let m = ContentionModel::parse(spec).unwrap();
            assert_eq!(m.to_string(), spec, "display must match the parsed spec");
            assert_eq!(ContentionModel::parse(&m.to_string()).unwrap(), m);
        }
    }

    #[test]
    fn parse_rejects_bad_specs() {
        for spec in [
            "mesh",
            "fat-tree:0",
            "fat-tree:3",
            "fat-tree:x",
            "fat-tree:4:0",
            "fat-tree:4:1:9",
            "torus:",
            "torus:1x4",
            "torus:2x2x2x2",
            "torus:axb",
        ] {
            assert!(ContentionModel::parse(spec).is_err(), "{spec} must fail");
        }
    }

    #[test]
    fn endpoint_counts() {
        assert_eq!(Topology::Crossbar.endpoints(), None);
        assert_eq!(
            Topology::FatTree {
                radix: 4,
                oversubscription: 1
            }
            .endpoints(),
            Some(16)
        );
        assert_eq!(Topology::Torus { dims: vec![4, 2] }.endpoints(), Some(8));
    }

    #[test]
    fn build_rejects_too_many_nodes() {
        let t = Topology::Torus { dims: vec![2] };
        assert!(LinkGraph::build(&t, 3, 250.0).is_err());
        assert!(LinkGraph::build(&t, 2, 250.0).is_ok());
    }

    #[test]
    fn crossbar_routes_are_two_hops() {
        let g = LinkGraph::build(&Topology::Crossbar, 4, 100.0).unwrap();
        assert_eq!(g.len(), 8);
        let p = g.route(1, 3);
        assert_eq!(p, vec![LinkId(1), LinkId(4 + 3)]);
        assert_eq!(&*g.links()[1].label, "n1->sw");
        assert_eq!(&*g.links()[7].label, "sw->n3");
    }

    #[test]
    fn fat_tree_structure_and_routes() {
        let t = Topology::FatTree {
            radix: 4,
            oversubscription: 1,
        };
        let g = LinkGraph::build(&t, 16, 100.0).unwrap();
        assert_eq!(g.len(), 6 * 16);
        // same edge switch: up, down
        assert_eq!(g.route(0, 1).len(), 2);
        // same pod, different edge: 4 hops
        assert_eq!(g.route(0, 2).len(), 4);
        // cross-pod: 6 hops
        assert_eq!(g.route(0, 4).len(), 6);
        // routes to the same destination share their down-path core
        let p1 = g.route(0, 14);
        let p2 = g.route(2, 14);
        assert_eq!(p1.last(), p2.last());
        assert_eq!(p1[p1.len() - 2], p2[p2.len() - 2]);
        // every hop is a real link
        for p in [g.route(0, 15), g.route(7, 8), g.route(13, 2)] {
            for l in p {
                assert!(l.idx() < g.len());
            }
        }
    }

    /// A fixed-size fabric must fit the nodes and may not dwarf them;
    /// the paper grid and the scale ladder's flow rung still fit.
    #[test]
    fn fabric_size_is_bounded_by_ceilings_and_by_the_nodes() {
        let t = |spec: &str| match ContentionModel::parse(spec).unwrap() {
            ContentionModel::Flow(t) => t,
            ContentionModel::Bus => unreachable!(),
        };
        for (spec, nodes) in [
            ("fat-tree:16", 64),
            ("torus:8x4x4", 64),
            ("fat-tree:32:4", 8),
            ("fat-tree:32:4", 1000),
            ("fat-tree:64", 1024),
            ("torus:1024x1024", 1 << 20),
            ("crossbar", 1 << 20),
        ] {
            assert_eq!(t(spec).check_size(nodes), Ok(()), "{spec} at {nodes}");
        }
        for (spec, nodes, why) in [
            ("torus:2x2", 8, "needs 8 nodes"),
            ("fat-tree:100000", 8, "links, over the limit of 4194304"),
            ("torus:4294967295x4294967295x4294967295", 8, "links, over"),
            ("torus:100x100x100", 1_000_000, "6000000 links"),
            ("fat-tree:64", 8, "over the limit of 16384"),
            ("fat-tree:64", 1000, "over the limit of 64000"),
        ] {
            let err = t(spec).check_size(nodes).unwrap_err();
            assert!(err.contains(why), "{spec} at {nodes}: {err}");
        }
        assert!(LinkGraph::build(&t("fat-tree:64"), 8, 100.0).is_err());
    }

    #[test]
    fn fat_tree_oversubscription_reduces_fabric_capacity() {
        let t = Topology::FatTree {
            radix: 4,
            oversubscription: 2,
        };
        let g = LinkGraph::build(&t, 16, 100.0).unwrap();
        assert!((g.links()[0].capacity - 100e6).abs() < 1.0, "host link");
        let fabric = &g.links()[2 * 16]; // first edge->agg link
        assert!(
            (fabric.capacity - 50e6).abs() < 1.0,
            "fabric link must be halved, got {}",
            fabric.capacity
        );
    }

    #[test]
    fn torus_dimension_order_routing() {
        let t = Topology::Torus { dims: vec![4, 4] };
        let g = LinkGraph::build(&t, 16, 100.0).unwrap();
        assert_eq!(g.len(), 16 * 2 * 2);
        // node 0 -> node 5 = (1,1): one +x hop then one +y hop
        let p = g.route(0, 5);
        assert_eq!(p.len(), 2);
        assert_eq!(p[0], torus_link(0, 2, 0, 0));
        assert_eq!(p[1], torus_link(1, 2, 1, 0));
        // wraparound: 0 -> 3 in x is one -x hop, not three +x hops
        let p = g.route(0, 3);
        assert_eq!(p.len(), 1);
        assert_eq!(p[0], torus_link(0, 2, 0, 1));
        // opposite corner: two hops per dimension max
        assert_eq!(g.route(0, 10).len(), 4);
    }

    #[test]
    fn torus_route_ends_at_destination() {
        let dims = vec![2u32, 3, 2];
        let t = Topology::Torus { dims: dims.clone() };
        let g = LinkGraph::build(&t, 12, 100.0).unwrap();
        for src in 0..12 {
            for dst in 0..12 {
                if src == dst {
                    continue;
                }
                let p = g.route(src, dst);
                assert!(!p.is_empty());
                // replaying the hops from src must land on dst
                let mut cur = src;
                for l in &p {
                    let ndims = dims.len();
                    let slot = l.idx();
                    let dir = slot % 2;
                    let dim = (slot / 2) % ndims;
                    let node = slot / (2 * ndims);
                    assert_eq!(node, cur, "hop must leave the current node");
                    cur = torus_neighbor(node, &dims, dim, dir);
                }
                assert_eq!(cur, dst);
            }
        }
    }

    #[test]
    fn route_into_appends_without_clearing() {
        let g = LinkGraph::build(&Topology::Crossbar, 4, 100.0).unwrap();
        let mut arena = Vec::new();
        g.route_into(0, 1, &mut arena);
        let first = arena.len();
        assert!(first > 0);
        g.route_into(2, 3, &mut arena);
        // the first route must be untouched and the second appended
        assert_eq!(&arena[..first], g.route(0, 1).as_slice());
        assert_eq!(&arena[first..], g.route(2, 3).as_slice());
    }

    #[test]
    fn route_into_matches_route_on_every_topology() {
        let topos: Vec<(Topology, usize)> = vec![
            (Topology::Crossbar, 5),
            (
                Topology::FatTree {
                    radix: 4,
                    oversubscription: 2,
                },
                8,
            ),
            (Topology::Torus { dims: vec![3, 2] }, 6),
        ];
        for (topo, nodes) in topos {
            let g = LinkGraph::build(&topo, nodes, 100.0).unwrap();
            for src in 0..nodes {
                for dst in 0..nodes {
                    if src == dst {
                        continue;
                    }
                    let mut out = Vec::new();
                    g.route_into(src, dst, &mut out);
                    assert_eq!(out, g.route(src, dst), "{topo:?} {src}->{dst}");
                }
            }
        }
    }

    #[test]
    fn cached_graphs_are_shared_and_keyed_on_all_inputs() {
        let topo = Topology::Torus { dims: vec![2, 2] };
        let a = LinkGraph::cached(&topo, 4, 125.0).unwrap();
        let b = LinkGraph::cached(&topo, 4, 125.0).unwrap();
        assert!(std::sync::Arc::ptr_eq(&a, &b), "same key must share");
        let c = LinkGraph::cached(&topo, 4, 250.0).unwrap();
        assert!(
            !std::sync::Arc::ptr_eq(&a, &c),
            "bandwidth is part of the key"
        );
        let d = LinkGraph::cached(&Topology::Crossbar, 4, 125.0).unwrap();
        assert!(
            !std::sync::Arc::ptr_eq(&a, &d),
            "topology is part of the key"
        );
        // the cached graph is the same compiled object as a fresh build
        let fresh = LinkGraph::build(&topo, 4, 125.0).unwrap();
        assert_eq!(a.len(), fresh.len());
        for (x, y) in a.links().iter().zip(fresh.links()) {
            assert_eq!(x.label, y.label);
            assert_eq!(x.capacity.to_bits(), y.capacity.to_bits());
        }
        // errors pass through rather than poisoning the cache
        assert!(LinkGraph::cached(&Topology::Torus { dims: vec![] }, 4, 125.0).is_err());
    }

    #[test]
    fn route_avoiding_matches_route_when_nothing_is_dead() {
        let topos: Vec<(Topology, usize)> = vec![
            (Topology::Crossbar, 5),
            (
                Topology::FatTree {
                    radix: 4,
                    oversubscription: 1,
                },
                16,
            ),
            (Topology::Torus { dims: vec![3, 2] }, 6),
        ];
        for (topo, nodes) in topos {
            let g = LinkGraph::build(&topo, nodes, 100.0).unwrap();
            let dead = vec![false; g.len()];
            for src in 0..nodes {
                for dst in 0..nodes {
                    if src == dst {
                        continue;
                    }
                    let mut out = Vec::new();
                    g.route_avoiding(src, dst, &dead, &mut out).unwrap();
                    assert_eq!(out, g.route(src, dst), "{topo:?} {src}->{dst}");
                }
            }
        }
    }

    #[test]
    fn fat_tree_reroutes_around_a_dead_fabric_link() {
        let t = Topology::FatTree {
            radix: 4,
            oversubscription: 1,
        };
        let g = LinkGraph::build(&t, 16, 100.0).unwrap();
        let mut dead = vec![false; g.len()];
        // kill every link on the default 0->4 route except the host
        // links; an alternate (plane, core) pair must be found
        let default = g.route(0, 4);
        assert_eq!(default.len(), 6);
        for l in &default[1..5] {
            dead[l.idx()] = true;
        }
        let mut out = Vec::new();
        g.route_avoiding(0, 4, &dead, &mut out).unwrap();
        assert_eq!(out.len(), 6);
        assert_ne!(out, default);
        assert!(out.iter().all(|l| !dead[l.idx()]));
        assert_eq!(out[0], default[0], "host up link is fixed");
        assert_eq!(out[5], default[5], "host down link is fixed");
        // killing a host link partitions the pair: no alternative
        dead[default[0].idx()] = true;
        let mut out = Vec::new();
        assert_eq!(g.route_avoiding(0, 4, &dead, &mut out), Err(default[0]));
    }

    #[test]
    fn torus_reverses_a_dimension_around_a_dead_link() {
        let t = Topology::Torus { dims: vec![4] };
        let g = LinkGraph::build(&t, 4, 100.0).unwrap();
        // preferred 0 -> 1 is one +x hop; kill it and the route must
        // wrap the other way (three -x hops)
        let mut dead = vec![false; g.len()];
        dead[torus_link(0, 1, 0, 0).idx()] = true;
        let mut out = Vec::new();
        g.route_avoiding(0, 1, &dead, &mut out).unwrap();
        assert_eq!(
            out,
            vec![
                torus_link(0, 1, 0, 1),
                torus_link(3, 1, 0, 1),
                torus_link(2, 1, 0, 1),
            ]
        );
        // killing both directions out of node 0 partitions it
        dead[torus_link(0, 1, 0, 1).idx()] = true;
        let mut out = Vec::new();
        assert_eq!(
            g.route_avoiding(0, 1, &dead, &mut out),
            Err(torus_link(0, 1, 0, 0))
        );
    }

    #[test]
    fn select_resolves_labels_uplinks_and_dims() {
        use crate::net::fault::LinkSelector;
        let g = LinkGraph::build(&Topology::Crossbar, 3, 100.0).unwrap();
        assert_eq!(
            g.select(&LinkSelector::Label("sw->n2".into())).unwrap(),
            vec![LinkId(5)]
        );
        assert_eq!(
            g.select(&LinkSelector::Uplinks).unwrap(),
            vec![LinkId(0), LinkId(1), LinkId(2)]
        );
        assert!(g.select(&LinkSelector::Index(99)).is_err());
        assert!(g.select(&LinkSelector::Dim(0)).is_err());
        let torus = LinkGraph::build(&Topology::Torus { dims: vec![2, 2] }, 4, 100.0).unwrap();
        let d0 = torus.select(&LinkSelector::Dim(0)).unwrap();
        assert_eq!(d0.len(), 8);
        assert!(d0.iter().all(|l| (l.idx() / 2) % 2 == 0));
    }
}

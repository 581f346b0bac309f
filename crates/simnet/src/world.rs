//! The simulated internet: nodes (hosts and gateways), links, routing and
//! the packet forwarding engine, including firewall and NAT processing at
//! gateways.
//!
//! The [`World`] lives behind a single mutex shared by all simulated tasks
//! and scheduled events. Because the runtime executes exactly one thread at
//! a time, the mutex is never contended; it only provides `Send` plumbing.

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::any::Any;
use std::collections::HashMap;
use std::sync::{Arc, Weak};

use crate::addr::{Ip, SockAddr};
use crate::firewall::{Direction, Firewall, FirewallPolicy, Verdict};
use crate::link::{LinkDir, LinkDirId, LinkParams, LinkStats};
use crate::nat::{Nat, NatKind};
use crate::packet::Packet;
use crate::runtime::{HookId, SchedHandle};
use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Identifier of a node in the world.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// Interface trust level, used by gateways to decide when traffic crosses
/// the security boundary.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Trust {
    Inside,
    Outside,
}

/// One attachment point of a node to a link.
#[derive(Debug)]
pub struct Iface {
    /// The outgoing direction of the attached link.
    pub link_out: LinkDirId,
    /// The node at the other end.
    pub peer: NodeId,
    pub trust: Trust,
}

/// A routing table entry: longest prefix match selects the out interface.
#[derive(Debug, Clone, Copy)]
pub struct RouteEntry {
    pub prefix: Ip,
    pub len: u8,
    pub iface: usize,
}

/// Role of a node.
pub enum NodeKind {
    Host,
    Gateway {
        firewall: Firewall,
        nat: Option<Nat>,
    },
}

/// A node: host or gateway.
pub struct NodeState {
    pub name: String,
    pub addrs: Vec<Ip>,
    pub kind: NodeKind,
    pub ifaces: Vec<Iface>,
    pub routes: Vec<RouteEntry>,
    proto_state: HashMap<u8, Box<dyn Any + Send>>,
    /// Has a protocol stack ever been installed here? Sticky: the state
    /// itself is taken out while its stack runs.
    has_stack: bool,
}

/// Longest-prefix match over a routing table.
fn route_in(routes: &[RouteEntry], dst: Ip) -> Option<usize> {
    routes
        .iter()
        .filter(|r| dst.in_prefix(r.prefix, r.len))
        .max_by_key(|r| r.len)
        .map(|r| r.iface)
}

impl NodeState {
    fn route_for(&self, dst: Ip) -> Option<usize> {
        route_in(&self.routes, dst)
    }

    /// A pure forwarder: a gateway with exactly two interfaces (so each of
    /// its outgoing links has one feeder) and no protocol stack of its own.
    fn is_pure_forwarder(&self) -> bool {
        self.ifaces.len() == 2 && !self.has_stack && matches!(self.kind, NodeKind::Gateway { .. })
    }

    /// Does this node own address `ip`?
    pub fn owns(&self, ip: Ip) -> bool {
        self.addrs.contains(&ip)
    }
}

/// Packet disposition counters for the whole world.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorldStats {
    pub delivered: u64,
    pub forwarded: u64,
    /// Of `forwarded`, the hops fused into the emitting event (forwarded
    /// through a pure forwarder without an event of their own).
    pub fused: u64,
    pub drop_no_route: u64,
    pub drop_firewall: u64,
    pub drop_nat: u64,
    pub drop_loss: u64,
    pub drop_queue: u64,
    pub drop_not_local: u64,
    pub drop_no_handler: u64,
    pub drop_link_down: u64,
}

/// Why a packet was dropped or what happened to it — fed to the optional
/// tracer for debugging and tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceKind {
    Sent,
    Forwarded,
    Delivered,
    DropNoRoute,
    DropFirewall,
    DropNat,
    DropLoss,
    DropQueue,
    DropNotLocal,
    DropNoHandler,
    DropLinkDown,
}

type Tracer = Box<dyn Fn(SimTime, TraceKind, &Packet) + Send>;
type ProtoDispatch = Arc<dyn Fn(&mut World, NodeId, Packet) + Send + Sync>;

/// The simulated internet.
pub struct World {
    sched: SchedHandle,
    self_ref: Weak<Mutex<World>>,
    /// In-flight packets. The scheduler event that delivers one carries
    /// its slot index; keeping the packets here instead of inside boxed
    /// event closures makes the per-hop cost a heap push.
    in_flight: Vec<Option<InFlight>>,
    free_slots: Vec<usize>,
    delivery_hook: HookId,
    /// Replays the tracer record of a fused hop (see [`World::transmit`]).
    note_hook: HookId,
    /// Pending firing instants of installed [`crate::FaultPlan`] items; the
    /// earliest is the fault horizon, which no fused hop may reach.
    fault_times: BinaryHeap<Reverse<SimTime>>,
    nodes: Vec<NodeState>,
    links: Vec<LinkDir>,
    dispatch: HashMap<u8, ProtoDispatch>,
    rng: StdRng,
    pub stats: WorldStats,
    tracer: Option<Tracer>,
}

/// Where an in-flight packet lands when its delivery event fires.
enum Delivery {
    /// Came over a link: run gateway processing, then deliver or forward.
    Arrive(LinkDirId),
    /// Loopback / own-address send: skip the forwarding engine.
    Local(NodeId),
}

/// One in-flight packet.
struct InFlight {
    to: Delivery,
    pkt: Packet,
    /// Tracer records of the hops fused into this flight, in hop order.
    /// Empty unless a tracer is installed.
    notes: Vec<HopNote>,
}

/// The `Forwarded` record of a fused hop: the packet's header as it left
/// the gateway, replayed at the hop's arrival instant `at` by a note keyed
/// like the elided arrival event.
struct HopNote {
    at: SimTime,
    scheduled_at: SimTime,
    src: SockAddr,
    dst: SockAddr,
}

/// Outcome of a gateway's forwarding step for one packet.
enum Step {
    /// Forward out of this interface (`None`: no route after inbound NAT,
    /// which is counted as forwarded before the drop).
    Forward(Option<usize>),
    /// Addressed to the gateway itself.
    Local,
    Drop(TraceKind),
    /// Only when asked for a settled step: the verdict could still change,
    /// or taking it would change gateway state.
    Unsettled,
}

/// Shared handle to the world plus its scheduler: the object every socket,
/// protocol stack and topology builder holds.
#[derive(Clone)]
pub struct Net {
    sched: SchedHandle,
    world: Arc<Mutex<World>>,
}

impl Net {
    /// Create an empty world bound to a scheduler.
    pub fn new(sched: SchedHandle, seed: u64) -> Net {
        let world = Arc::new_cyclic(|weak: &Weak<Mutex<World>>| {
            let hook_ref = weak.clone();
            let delivery_hook = sched.register_hook(move |slot| {
                if let Some(m) = hook_ref.upgrade() {
                    m.lock().deliver(slot);
                }
            });
            let note_ref = weak.clone();
            let note_hook = sched.register_hook(move |slot| {
                if let Some(m) = note_ref.upgrade() {
                    m.lock().replay_note(slot);
                }
            });
            Mutex::new(World {
                sched: sched.clone(),
                self_ref: weak.clone(),
                in_flight: Vec::new(),
                free_slots: Vec::new(),
                delivery_hook,
                note_hook,
                fault_times: BinaryHeap::new(),
                nodes: Vec::new(),
                links: Vec::new(),
                dispatch: HashMap::new(),
                rng: StdRng::seed_from_u64(seed),
                stats: WorldStats::default(),
                tracer: None,
            })
        });
        Net { sched, world }
    }

    /// Run `f` with exclusive access to the world.
    pub fn with<R>(&self, f: impl FnOnce(&mut World) -> R) -> R {
        f(&mut self.world.lock())
    }

    /// The scheduler handle.
    pub fn sched(&self) -> &SchedHandle {
        &self.sched
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.sched.now()
    }
}

impl World {
    // ---------------- topology construction ----------------

    /// Add a host with the given addresses.
    pub fn add_host(&mut self, name: impl Into<String>, addrs: Vec<Ip>) -> NodeId {
        self.add_node(name.into(), addrs, NodeKind::Host)
    }

    /// Add a gateway (router with firewall and optional NAT). `outside_ip`
    /// is the public address; with NAT it is also the NAT's external
    /// address. `inside_ip` is its address on the site network.
    pub fn add_gateway(
        &mut self,
        name: impl Into<String>,
        inside_ip: Ip,
        outside_ip: Ip,
        policy: FirewallPolicy,
        nat: Option<NatKind>,
    ) -> NodeId {
        let nat = nat.map(|k| Nat::new(k, outside_ip));
        self.add_node(
            name.into(),
            vec![inside_ip, outside_ip],
            NodeKind::Gateway {
                firewall: Firewall::new(policy),
                nat,
            },
        )
    }

    fn add_node(&mut self, name: String, addrs: Vec<Ip>, kind: NodeKind) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(NodeState {
            name,
            addrs,
            kind,
            ifaces: Vec::new(),
            routes: Vec::new(),
            proto_state: HashMap::new(),
            has_stack: false,
        });
        id
    }

    /// Connect two nodes with a bidirectional link, possibly asymmetric.
    /// Returns the interface index created on each node.
    pub fn connect_with(
        &mut self,
        a: NodeId,
        trust_a: Trust,
        b: NodeId,
        trust_b: Trust,
        a_to_b: LinkParams,
        b_to_a: LinkParams,
    ) -> (usize, usize) {
        let ab = LinkDirId(self.links.len());
        let iface_b = self.nodes[b.0].ifaces.len();
        self.links.push(LinkDir::new(a_to_b, b, iface_b));
        let ba = LinkDirId(self.links.len());
        let iface_a = self.nodes[a.0].ifaces.len();
        self.links.push(LinkDir::new(b_to_a, a, iface_a));
        self.nodes[a.0].ifaces.push(Iface {
            link_out: ab,
            peer: b,
            trust: trust_a,
        });
        self.nodes[b.0].ifaces.push(Iface {
            link_out: ba,
            peer: a,
            trust: trust_b,
        });
        (iface_a, iface_b)
    }

    /// Symmetric link with both ends trusted (LAN/backbone use).
    pub fn connect(&mut self, a: NodeId, b: NodeId, params: LinkParams) -> (usize, usize) {
        self.connect_with(a, Trust::Inside, b, Trust::Inside, params, params)
    }

    /// Add a prefix route.
    pub fn route(&mut self, node: NodeId, prefix: Ip, len: u8, iface: usize) {
        self.nodes[node.0]
            .routes
            .push(RouteEntry { prefix, len, iface });
    }

    /// Add a default route (0.0.0.0/0).
    pub fn default_route(&mut self, node: NodeId, iface: usize) {
        self.route(node, Ip::UNSPECIFIED, 0, iface);
    }

    // ---------------- accessors ----------------

    pub fn node(&self, id: NodeId) -> &NodeState {
        &self.nodes[id.0]
    }

    pub fn node_mut(&mut self, id: NodeId) -> &mut NodeState {
        &mut self.nodes[id.0]
    }

    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Primary address of a node.
    pub fn addr_of(&self, id: NodeId) -> Ip {
        self.nodes[id.0].addrs[0]
    }

    /// Source address a node should use towards `dst` (multi-homed hosts
    /// like gateways have both a site-private and a public address):
    /// prefer an address on the same /24 as the destination, then a public
    /// address for public destinations, then the primary address.
    pub fn source_ip_for(&self, id: NodeId, dst: Ip) -> Ip {
        let addrs = &self.nodes[id.0].addrs;
        if let Some(&a) = addrs.iter().find(|a| dst.in_prefix(**a, 24)) {
            return a;
        }
        if !dst.is_private() {
            if let Some(&a) = addrs.iter().find(|a| !a.is_private()) {
                return a;
            }
        }
        addrs[0]
    }

    /// Look up a node by name (test/diagnostic helper).
    pub fn find_node(&self, name: &str) -> Option<NodeId> {
        self.nodes.iter().position(|n| n.name == name).map(NodeId)
    }

    /// Stats of one link direction.
    pub fn link_stats(&self, id: LinkDirId) -> LinkStats {
        self.links[id.0].stats
    }

    /// Number of link directions in the world (valid `LinkDirId`s are
    /// `0..n_link_dirs()`).
    pub fn n_link_dirs(&self) -> usize {
        self.links.len()
    }

    /// The outgoing link-direction id of `node`'s interface `iface`.
    pub fn iface_link(&self, node: NodeId, iface: usize) -> LinkDirId {
        self.nodes[node.0].ifaces[iface].link_out
    }

    // ---------------- fault injection ----------------

    /// Mutable access to one link direction (fault injection: loss bursts,
    /// parameter changes).
    ///
    /// Hop fusion admits packets to a link ahead of the clock, up to the
    /// next [`FaultPlan`](crate::FaultPlan) instant. A link mutated while
    /// packets are in flight must therefore be changed through a
    /// `FaultPlan`; reading it, or changing it while the world is idle, is
    /// fine. Debug builds assert that no fused admission on the link lies
    /// beyond now.
    pub fn link_mut(&mut self, id: LinkDirId) -> &mut LinkDir {
        self.assert_no_admission_ahead(id);
        &mut self.links[id.0]
    }

    /// A link changed at `now` must not hold a fused admission from
    /// later: that admission would have seen the change hop-by-hop.
    fn assert_no_admission_ahead(&self, id: LinkDirId) {
        debug_assert!(
            self.links[id.0].last_admit <= self.sched.now(),
            "link {id:?} changed at {:?} under a fused admission at {:?}; \
             change links mid-run through a FaultPlan",
            self.sched.now(),
            self.links[id.0].last_admit
        );
    }

    /// Administrative up/down of one link direction. While down, every
    /// packet offered to the link is dropped (counted as
    /// [`WorldStats::drop_link_down`]); packets already propagating still
    /// arrive, like photons in flight on a cut fibre. Mid-run, go through a
    /// [`FaultPlan`](crate::FaultPlan) (see [`World::link_mut`]).
    pub fn set_link_up(&mut self, id: LinkDirId, up: bool) {
        self.assert_no_admission_ahead(id);
        self.links[id.0].up = up;
    }

    /// Is this link direction administratively up?
    pub fn link_up(&self, id: LinkDirId) -> bool {
        self.links[id.0].up
    }

    /// Every link direction incident to `node` (both the node's outgoing
    /// directions and the peers' directions pointing at it).
    pub fn node_links(&self, node: NodeId) -> Vec<LinkDirId> {
        let mut out: Vec<LinkDirId> = self.nodes[node.0]
            .ifaces
            .iter()
            .map(|i| i.link_out)
            .collect();
        out.extend(
            self.links
                .iter()
                .enumerate()
                .filter(|(_, l)| l.to_node == node)
                .map(|(i, _)| LinkDirId(i)),
        );
        out.sort_by_key(|l| l.0);
        out.dedup();
        out
    }

    /// Take every link incident to `node` down (or back up): the network
    /// view of a host or relay crash.
    pub fn set_node_up(&mut self, node: NodeId, up: bool) {
        for id in self.node_links(node) {
            self.set_link_up(id, up);
        }
    }

    /// The link directions on the routed path from `a` to `b` *and* back,
    /// following each hop's routing table (bounded at 32 hops). Used to
    /// partition two nodes that are not directly adjacent.
    pub fn path_links(&self, a: NodeId, b: NodeId) -> Vec<LinkDirId> {
        let mut out = Vec::new();
        for (from, to) in [(a, b), (b, a)] {
            let dst = self.addr_of(to);
            let mut cur = from;
            for _ in 0..32 {
                if cur == to || self.nodes[cur.0].owns(dst) {
                    break;
                }
                let Some(iface) = self.nodes[cur.0].route_for(dst) else {
                    break;
                };
                let link = self.nodes[cur.0].ifaces[iface].link_out;
                out.push(link);
                cur = self.links[link.0].to_node;
            }
        }
        out.sort_by_key(|l| l.0);
        out.dedup();
        out
    }

    /// Schedule every event of a [`crate::fault::FaultPlan`] on the
    /// simulation clock.
    pub fn install_faults(&mut self, plan: crate::fault::FaultPlan) {
        plan.install(self);
    }

    /// Schedule a fault action after `d`. Its instant bounds hop fusion
    /// (the fault horizon) until it has fired.
    pub(crate) fn fault_after(
        &mut self,
        d: std::time::Duration,
        f: impl FnOnce(&mut World) + Send + 'static,
    ) {
        let at = self.sched.now() + d;
        self.fault_times.push(Reverse(at));
        self.schedule_at(at, move |w| {
            let fired = w.fault_times.pop();
            debug_assert_eq!(fired, Some(Reverse(w.sched.now())));
            f(w);
        });
    }

    /// Deterministic RNG for protocol use (loss draws, NAT ports...).
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    /// The scheduler handle.
    pub fn sched(&self) -> &SchedHandle {
        &self.sched
    }

    /// Install a tracer called for every packet disposition.
    pub fn set_tracer(&mut self, t: Tracer) {
        self.tracer = Some(t);
    }

    /// Mutable access to a gateway's NAT (tests/diagnostics).
    pub fn nat_of(&mut self, node: NodeId) -> Option<&mut Nat> {
        match &mut self.nodes[node.0].kind {
            NodeKind::Gateway { nat, .. } => nat.as_mut(),
            NodeKind::Host => None,
        }
    }

    /// Mutable access to a gateway's firewall (tests/diagnostics).
    pub fn firewall_of(&mut self, node: NodeId) -> Option<&mut Firewall> {
        match &mut self.nodes[node.0].kind {
            NodeKind::Gateway { firewall, .. } => Some(firewall),
            NodeKind::Host => None,
        }
    }

    // ---------------- protocol plumbing ----------------

    /// Register the dispatch function for an IP protocol number.
    pub fn register_proto(&mut self, proto: u8, f: ProtoDispatch) {
        self.dispatch.insert(proto, f);
    }

    /// Is a dispatcher registered for `proto`?
    pub fn proto_registered(&self, proto: u8) -> bool {
        self.dispatch.contains_key(&proto)
    }

    /// Take a node's per-protocol state out of the world (put it back with
    /// [`World::put_proto_state`]). The take/put dance lets protocol code
    /// borrow its own state mutably while still sending packets through
    /// `&mut World`.
    pub fn take_proto_state(&mut self, node: NodeId, proto: u8) -> Option<Box<dyn Any + Send>> {
        self.nodes[node.0].proto_state.remove(&proto)
    }

    pub fn put_proto_state(&mut self, node: NodeId, proto: u8, st: Box<dyn Any + Send>) {
        let n = &mut self.nodes[node.0];
        n.proto_state.insert(proto, st);
        n.has_stack = true;
    }

    /// Schedule `f(world)` at absolute simulated time `at`.
    pub fn schedule_at(&self, at: SimTime, f: impl FnOnce(&mut World) + Send + 'static) {
        let weak = self.self_ref.clone();
        self.sched.call_at(at, move || {
            if let Some(m) = weak.upgrade() {
                f(&mut m.lock());
            }
        });
    }

    /// Schedule `f(world)` after `d` of simulated time.
    pub fn schedule_after(
        &self,
        d: std::time::Duration,
        f: impl FnOnce(&mut World) + Send + 'static,
    ) {
        self.schedule_at(self.sched.now() + d, f);
    }

    /// Park `pkt` in a free in-flight slot.
    fn park_packet(&mut self, to: Delivery, pkt: Packet, notes: Vec<HopNote>) -> usize {
        let flight = Some(InFlight { to, pkt, notes });
        match self.free_slots.pop() {
            Some(slot) => {
                self.in_flight[slot] = flight;
                slot
            }
            None => {
                self.in_flight.push(flight);
                self.in_flight.len() - 1
            }
        }
    }

    /// Delivery hook: the in-flight packet in `slot` lands.
    fn deliver(&mut self, slot: usize) {
        let InFlight { to, pkt, notes } = self.in_flight[slot].take().expect("packet in flight");
        debug_assert!(notes.is_empty(), "fused-hop records replay before arrival");
        self.free_slots.push(slot);
        match to {
            Delivery::Arrive(link) => {
                let l = &mut self.links[link.0];
                l.pending_arrivals -= 1;
                let (node, iface) = (l.to_node, l.to_iface);
                self.arrive(node, iface, pkt);
            }
            Delivery::Local(node) => self.local_deliver(node, pkt),
        }
    }

    /// Note hook: replay the next fused-hop record of the packet in `slot`,
    /// with the header it had when it left that hop's gateway.
    fn replay_note(&mut self, slot: usize) {
        let World {
            in_flight, tracer, ..
        } = self;
        let f = in_flight[slot].as_mut().expect("packet in flight");
        let note = f.notes.remove(0);
        if let Some(t) = tracer {
            let header = (f.pkt.src, f.pkt.dst);
            (f.pkt.src, f.pkt.dst) = (note.src, note.dst);
            t(note.at, TraceKind::Forwarded, &f.pkt);
            (f.pkt.src, f.pkt.dst) = header;
        }
    }

    fn trace(&self, kind: TraceKind, pkt: &Packet) {
        if let Some(t) = &self.tracer {
            t(self.sched.now(), kind, pkt);
        }
    }

    /// Count and trace a dropped packet.
    fn drop_packet(&mut self, kind: TraceKind, pkt: &Packet) {
        let s = &mut self.stats;
        let counter = match kind {
            TraceKind::DropNoRoute => &mut s.drop_no_route,
            TraceKind::DropFirewall => &mut s.drop_firewall,
            TraceKind::DropNat => &mut s.drop_nat,
            TraceKind::DropLoss => &mut s.drop_loss,
            TraceKind::DropQueue => &mut s.drop_queue,
            TraceKind::DropNotLocal => &mut s.drop_not_local,
            TraceKind::DropNoHandler => &mut s.drop_no_handler,
            TraceKind::DropLinkDown => &mut s.drop_link_down,
            TraceKind::Sent | TraceKind::Forwarded | TraceKind::Delivered => {
                unreachable!("{kind:?} is not a drop")
            }
        };
        *counter += 1;
        self.trace(kind, pkt);
    }

    // ---------------- forwarding engine ----------------

    /// Emit a packet originating at `node`. Routes it towards its
    /// destination; delivery happens via scheduled events.
    pub fn send_from(&mut self, node: NodeId, pkt: Packet) {
        self.trace(TraceKind::Sent, &pkt);
        // Local delivery (loopback or own address).
        if self.nodes[node.0].owns(pkt.dst.ip) {
            let slot = self.park_packet(Delivery::Local(node), pkt, Vec::new());
            let now = self.sched.now();
            self.sched.call_hook_at(now, None, self.delivery_hook, slot);
            return;
        }
        self.emit(node, pkt);
    }

    /// Route + transmit one packet out of `node` (already past middlebox
    /// processing if any).
    fn emit(&mut self, node: NodeId, pkt: Packet) {
        match self.nodes[node.0].route_for(pkt.dst.ip) {
            Some(iface) => self.transmit(node, iface, pkt),
            None => self.drop_packet(TraceKind::DropNoRoute, &pkt),
        }
    }

    /// Transmit `pkt` out of `node`'s interface `iface`, then schedule its
    /// arrival at the far end.
    ///
    /// Hop fusion: while the far end is a pure forwarder whose step for
    /// this packet is settled (see [`World::fuse_hop`]), that step runs
    /// right here, at the arrival instant, instead of in an event of its
    /// own; only the first hop that is not fusable gets an event. Each
    /// elided event would have been scheduled at the previous hop's
    /// arrival instant, and the scheduler orders the remaining event as of
    /// that instant. With a tracer installed, every fused hop leaves a note
    /// that replays its `Forwarded` record at its arrival instant, in the
    /// position the elided event held (DESIGN.md §5d).
    fn transmit(&mut self, node: NodeId, iface: usize, mut pkt: Packet) {
        let now = self.sched.now();
        let wire_len = pkt.wire_len();
        let mut link_id = self.nodes[node.0].ifaces[iface].link_out;
        let link = &mut self.links[link_id.0];
        if !link.up {
            return self.drop_packet(TraceKind::DropLinkDown, &pkt);
        }
        let Some(mut arrival) = link.admit(now, wire_len) else {
            return self.drop_packet(TraceKind::DropQueue, &pkt);
        };
        let loss = link.params.loss;
        if loss > 0.0 && self.rng.random::<f64>() < loss {
            self.links[link_id.0].stats.lost_packets += 1;
            return self.drop_packet(TraceKind::DropLoss, &pkt);
        }
        let mut scheduled_at = now;
        let mut notes = Vec::new();
        while let Some(out) = self.fuse_hop(link_id, arrival, &mut pkt) {
            self.stats.forwarded += 1;
            self.stats.fused += 1;
            if self.tracer.is_some() {
                notes.push(HopNote {
                    at: arrival,
                    scheduled_at,
                    src: pkt.src,
                    dst: pkt.dst,
                });
            }
            let next = self.links[out.0]
                .admit(arrival, wire_len)
                .expect("fused hop checked the queue");
            (link_id, scheduled_at, arrival) = (out, arrival, next);
        }
        self.links[link_id.0].pending_arrivals += 1;
        let slot = self.park_packet(Delivery::Arrive(link_id), pkt, notes);
        for n in &self.in_flight[slot].as_ref().expect("just parked").notes {
            self.sched
                .note_hook_at(n.at, n.scheduled_at, self.note_hook, slot);
        }
        self.sched
            .call_hook_at(arrival, Some(scheduled_at), self.delivery_hook, slot);
    }

    /// Can the far end of `link` forward `pkt`, arriving at `at`, right now
    /// instead of in an arrival event at `at`? It can when its step is
    /// independent of everything that may happen before `at`:
    ///
    /// * the far end is a pure forwarder, so the outgoing link's only
    ///   feeder is this gateway, and no hop-by-hop arrival over `link` is
    ///   pending, so this packet's admission is the gateway's next one;
    /// * `at` lies before the fault horizon, so no link changes first;
    /// * the gateway step is settled (no new flow, NAT allocation, drop or
    ///   local delivery), and the outgoing link is a different, up,
    ///   loss-free link whose queue takes the packet at `at`.
    ///
    /// On success `pkt` carries the header the gateway gives it and the
    /// outgoing link is returned (the caller admits it); otherwise `pkt` is
    /// untouched.
    fn fuse_hop(&mut self, link: LinkDirId, at: SimTime, pkt: &mut Packet) -> Option<LinkDirId> {
        let l = &self.links[link.0];
        if l.pending_arrivals != 0 {
            return None;
        }
        if self.fault_times.peek().is_some_and(|h| at >= h.0) {
            return None;
        }
        let (node, iface) = (l.to_node, l.to_iface);
        if !self.nodes[node.0].is_pure_forwarder() {
            return None;
        }
        let header = (pkt.src, pkt.dst);
        if let Step::Forward(Some(out)) = self.gateway_step(node, iface, pkt, true) {
            let out_link = self.nodes[node.0].ifaces[out].link_out;
            let o = &self.links[out_link.0];
            if out != iface && o.up && o.params.loss == 0.0 && o.admits(at, pkt.wire_len()) {
                return Some(out_link);
            }
        }
        (pkt.src, pkt.dst) = header;
        None
    }

    /// A packet arrived at `node` on interface `iface`.
    fn arrive(&mut self, node: NodeId, iface: usize, mut pkt: Packet) {
        if !matches!(self.nodes[node.0].kind, NodeKind::Gateway { .. }) {
            if self.nodes[node.0].owns(pkt.dst.ip) {
                self.local_deliver(node, pkt);
            } else {
                self.drop_packet(TraceKind::DropNotLocal, &pkt);
            }
            return;
        }
        match self.gateway_step(node, iface, &mut pkt, false) {
            Step::Forward(out) => {
                self.stats.forwarded += 1;
                self.trace(TraceKind::Forwarded, &pkt);
                match out {
                    Some(out) => self.transmit(node, out, pkt),
                    None => self.drop_packet(TraceKind::DropNoRoute, &pkt),
                }
            }
            Step::Local => self.local_deliver(node, pkt),
            Step::Drop(kind) => self.drop_packet(kind, &pkt),
            Step::Unsettled => unreachable!("only a settled step can be unsettled"),
        }
    }

    /// Gateway `node`'s forwarding step for `pkt`, which arrived on
    /// `iface`: NAT translation and firewall filtering, rewriting `pkt`'s
    /// header. With `settled_only` the step changes no gateway state and
    /// answers [`Step::Unsettled`] unless it is a forward that any later
    /// arrival of the same packet would repeat exactly: conntrack sets and
    /// NAT tables only grow, so an accepted flow stays accepted and an
    /// existing mapping stays put.
    fn gateway_step(
        &mut self,
        node: NodeId,
        iface: usize,
        pkt: &mut Packet,
        settled_only: bool,
    ) -> Step {
        let World { nodes, rng, .. } = self;
        let NodeState {
            addrs,
            kind,
            ifaces,
            routes,
            ..
        } = &mut nodes[node.0];
        let NodeKind::Gateway { firewall, nat } = kind else {
            unreachable!("gateway step on a host")
        };
        let in_trust = ifaces[iface].trust;
        // 1. Inbound NAT translation: packets from the untrusted side
        //    addressed to an active mapping are rewritten to the internal
        //    endpoint (DNAT happens before filtering).
        if in_trust == Trust::Outside {
            if let Some(nat) = nat.as_ref().filter(|n| pkt.dst.ip == n.external_ip()) {
                if let Some(internal) = nat.inbound(pkt.dst.port, pkt.src) {
                    pkt.dst = internal;
                    // Filter on the inside view of the flow.
                    if !firewall.admits_inbound(pkt.dst, pkt.src) {
                        return Step::Drop(TraceKind::DropFirewall);
                    }
                    return Step::Forward(route_in(routes, pkt.dst.ip));
                }
                // NAT present but no admitting mapping: packets aimed at
                // the NAT allocation range are silently dropped, as real
                // NAT boxes do (delivering them to the gateway's own stack
                // would elicit an RST and break splicing retries). Lower
                // ports may belong to gateway-hosted services (relay,
                // SOCKS) and fall through to local delivery.
                if pkt.dst.port >= crate::nat::NAT_PORT_BASE {
                    return Step::Drop(TraceKind::DropNat);
                }
            }
        }

        // 2. Local delivery to a gateway-hosted service.
        if addrs.contains(&pkt.dst.ip) {
            return Step::Local;
        }

        // 3. Forwarding across the gateway.
        let Some(out) = route_in(routes, pkt.dst.ip) else {
            return Step::Drop(TraceKind::DropNoRoute);
        };
        match (in_trust, ifaces[out].trust) {
            (Trust::Inside, Trust::Outside) if settled_only => {
                if !firewall.is_established(pkt.src, pkt.dst) {
                    return Step::Unsettled;
                }
                if let Some(nat) = nat {
                    match nat.settled_outbound(pkt.src, pkt.dst) {
                        Some(src) => pkt.src = src,
                        None => return Step::Unsettled,
                    }
                }
            }
            (Trust::Inside, Trust::Outside) => {
                if firewall.filter(Direction::InsideToOutside, pkt.src, pkt.dst) == Verdict::Drop {
                    return Step::Drop(TraceKind::DropFirewall);
                }
                // Outbound NAT translation (SNAT after filtering).
                if let Some(nat) = nat {
                    pkt.src = nat.outbound(pkt.src, pkt.dst, rng);
                }
            }
            // Un-NATed packet crossing inwards (site without NAT): plain
            // conntrack filtering.
            (Trust::Outside, Trust::Inside) if !firewall.admits_inbound(pkt.dst, pkt.src) => {
                return Step::Drop(TraceKind::DropFirewall);
            }
            // Same-trust forwarding (router inside a site or on the
            // backbone): no filtering.
            _ => {}
        }
        Step::Forward(Some(out))
    }

    fn local_deliver(&mut self, node: NodeId, pkt: Packet) {
        self.stats.delivered += 1;
        self.trace(TraceKind::Delivered, &pkt);
        match self.dispatch.get(&pkt.proto).cloned() {
            Some(f) => f(self, node, pkt),
            None => self.drop_packet(TraceKind::DropNoHandler, &pkt),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{proto, RawBytes};
    use crate::runtime::Scheduler;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Duration;

    fn pkt(src: SockAddr, dst: SockAddr, n: usize) -> Packet {
        Packet::new(src, dst, proto::UDP, Box::new(RawBytes(vec![0u8; n])))
    }

    /// Two hosts joined by one link; a registered dispatcher counts
    /// deliveries.
    fn two_hosts(params: LinkParams) -> (Scheduler, Net, NodeId, NodeId, Arc<AtomicU64>) {
        let sched = Scheduler::new();
        let net = Net::new(sched.handle(), 42);
        let delivered = Arc::new(AtomicU64::new(0));
        let d2 = Arc::clone(&delivered);
        let (a, b) = net.with(|w| {
            let a = w.add_host("a", vec![Ip::new(1, 0, 0, 1)]);
            let b = w.add_host("b", vec![Ip::new(2, 0, 0, 1)]);
            let (ia, ib) = w.connect(a, b, params);
            w.default_route(a, ia);
            w.default_route(b, ib);
            w.register_proto(
                proto::UDP,
                Arc::new(move |_w, _n, _p| {
                    d2.fetch_add(1, Ordering::SeqCst);
                }),
            );
            (a, b)
        });
        (sched, net, a, b, delivered)
    }

    #[test]
    fn end_to_end_delivery_with_correct_timing() {
        let (sched, net, a, b, delivered) =
            two_hosts(LinkParams::mbps(1.0, Duration::from_millis(10)));
        let dst = SockAddr::new(Ip::new(2, 0, 0, 1), 80);
        let src = SockAddr::new(Ip::new(1, 0, 0, 1), 1234);
        net.with(|w| w.send_from(a, pkt(src, dst, 980)));
        sched.run();
        assert_eq!(delivered.load(Ordering::SeqCst), 1);
        // 1000 wire bytes at 1 MB/s = 1 ms, + 10 ms propagation.
        assert_eq!(sched.now().as_nanos(), 11_000_000);
        let _ = b;
    }

    #[test]
    fn no_route_drops() {
        let (sched, net, a, _b, delivered) = two_hosts(LinkParams::mbps(1.0, Duration::ZERO));
        let dst = SockAddr::new(Ip::new(9, 9, 9, 9), 80);
        let src = SockAddr::new(Ip::new(1, 0, 0, 1), 1234);
        net.with(|w| {
            w.nodes[a.0].routes.clear();
            w.send_from(a, pkt(src, dst, 100));
            assert_eq!(w.stats.drop_no_route, 1);
        });
        sched.run();
        assert_eq!(delivered.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn loopback_delivers_locally() {
        let (sched, net, a, _b, delivered) =
            two_hosts(LinkParams::mbps(1.0, Duration::from_millis(10)));
        let me = SockAddr::new(Ip::new(1, 0, 0, 1), 80);
        net.with(|w| w.send_from(a, pkt(me, me, 100)));
        sched.run();
        assert_eq!(delivered.load(Ordering::SeqCst), 1);
        assert_eq!(sched.now().as_nanos(), 0, "loopback has no link delay");
    }

    #[test]
    fn lossy_link_drops_deterministically() {
        let (sched, net, a, _b, delivered) = two_hosts(
            LinkParams::mbps(10.0, Duration::ZERO)
                .with_loss(0.5)
                .with_queue(1 << 30),
        );
        let dst = SockAddr::new(Ip::new(2, 0, 0, 1), 80);
        let src = SockAddr::new(Ip::new(1, 0, 0, 1), 1);
        net.with(|w| {
            for _ in 0..1000 {
                w.send_from(a, pkt(src, dst, 100));
            }
        });
        sched.run();
        let got = delivered.load(Ordering::SeqCst);
        assert!((350..650).contains(&got), "~50% loss expected, got {got}");
        net.with(|w| {
            let l = w.link_stats(LinkDirId(0));
            assert_eq!(l.lost_packets + got, 1000);
        });
    }

    /// Build host A -- gwA(firewall) -- WAN -- host B and check unsolicited
    /// inbound is filtered while replies flow.
    #[test]
    fn gateway_firewall_blocks_unsolicited() {
        let sched = Scheduler::new();
        let net = Net::new(sched.handle(), 1);
        let delivered = Arc::new(AtomicU64::new(0));
        let d2 = Arc::clone(&delivered);
        let (a, _gw, b) = net.with(|w| {
            let a = w.add_host("a", vec![Ip::new(192, 168, 1, 10)]);
            let gw = w.add_gateway(
                "gw",
                Ip::new(192, 168, 1, 1),
                Ip::new(130, 37, 0, 1),
                FirewallPolicy::StatefulOutbound,
                None,
            );
            let b = w.add_host("b", vec![Ip::new(131, 1, 0, 10)]);
            let lan = LinkParams::mbps(12.0, Duration::from_micros(100));
            let wan = LinkParams::mbps(1.0, Duration::from_millis(15));
            let (ia, gw_in) = w.connect_with(a, Trust::Inside, gw, Trust::Inside, lan, lan);
            let (gw_out, ib) = w.connect_with(gw, Trust::Outside, b, Trust::Inside, wan, wan);
            w.default_route(a, ia);
            w.default_route(b, ib);
            w.default_route(gw, gw_out);
            w.route(gw, Ip::new(192, 168, 1, 0), 24, gw_in);
            w.register_proto(
                proto::UDP,
                Arc::new(move |_w, _n, _p| {
                    d2.fetch_add(1, Ordering::SeqCst);
                }),
            );
            (a, gw, b)
        });
        let a_addr = SockAddr::new(Ip::new(192, 168, 1, 10), 5000);
        let b_addr = SockAddr::new(Ip::new(131, 1, 0, 10), 6000);
        // Unsolicited inbound: dropped at the firewall.
        net.with(|w| w.send_from(b, pkt(b_addr, a_addr, 100)));
        sched.run();
        assert_eq!(delivered.load(Ordering::SeqCst), 0);
        net.with(|w| assert_eq!(w.stats.drop_firewall, 1));
        // Outbound first, then the reply is admitted.
        net.with(|w| w.send_from(a, pkt(a_addr, b_addr, 100)));
        sched.run();
        net.with(|w| w.send_from(b, pkt(b_addr, a_addr, 100)));
        sched.run();
        assert_eq!(
            delivered.load(Ordering::SeqCst),
            2,
            "outbound + reply delivered"
        );
    }

    /// NAT gateway: outbound traffic is source-rewritten; replies to the
    /// mapping are translated back; private addresses never cross the WAN.
    #[test]
    fn gateway_nat_translates_both_ways() {
        let sched = Scheduler::new();
        let net = Net::new(sched.handle(), 1);
        let seen: Arc<Mutex<Vec<(NodeId, SockAddr, SockAddr)>>> = Arc::new(Mutex::new(Vec::new()));
        let s2 = Arc::clone(&seen);
        let nat_ext = Ip::new(131, 9, 0, 1);
        let (a, b) = net.with(|w| {
            let a = w.add_host("a", vec![Ip::new(10, 0, 0, 10)]);
            let gw = w.add_gateway(
                "natgw",
                Ip::new(10, 0, 0, 1),
                nat_ext,
                FirewallPolicy::Open,
                Some(NatKind::FullCone),
            );
            let b = w.add_host("b", vec![Ip::new(131, 1, 0, 10)]);
            let p = LinkParams::mbps(10.0, Duration::from_millis(1));
            let (ia, gw_in) = w.connect_with(a, Trust::Inside, gw, Trust::Inside, p, p);
            let (gw_out, ib) = w.connect_with(gw, Trust::Outside, b, Trust::Inside, p, p);
            w.default_route(a, ia);
            w.default_route(b, ib);
            w.default_route(gw, gw_out);
            w.route(gw, Ip::new(10, 0, 0, 0), 8, gw_in);
            w.register_proto(
                proto::UDP,
                Arc::new(move |_w, n, p| {
                    s2.lock().push((n, p.src, p.dst));
                }),
            );
            (a, b)
        });
        let a_priv = SockAddr::new(Ip::new(10, 0, 0, 10), 5000);
        let b_pub = SockAddr::new(Ip::new(131, 1, 0, 10), 6000);
        net.with(|w| w.send_from(a, pkt(a_priv, b_pub, 100)));
        sched.run();
        let (at_b_src, mapped_port) = {
            let s = seen.lock();
            assert_eq!(s.len(), 1);
            let (n, src, dst) = s[0];
            assert_eq!(n, b);
            assert_eq!(dst, b_pub);
            assert_eq!(src.ip, nat_ext, "source rewritten to NAT external IP");
            (src, src.port)
        };
        // Reply to the mapping reaches the private host, translated back.
        net.with(|w| w.send_from(b, pkt(b_pub, at_b_src, 50)));
        sched.run();
        {
            let s = seen.lock();
            assert_eq!(s.len(), 2);
            let (n, src, dst) = s[1];
            assert_eq!(n, a);
            assert_eq!(src, b_pub);
            assert_eq!(
                dst, a_priv,
                "destination rewritten back to internal endpoint"
            );
        }
        let _ = mapped_port;
    }

    #[test]
    fn strict_firewall_blocks_outbound_to_non_proxy() {
        let sched = Scheduler::new();
        let net = Net::new(sched.handle(), 1);
        let a = net.with(|w| {
            let a = w.add_host("a", vec![Ip::new(192, 168, 1, 10)]);
            let gw = w.add_gateway(
                "gw",
                Ip::new(192, 168, 1, 1),
                Ip::new(130, 37, 0, 1),
                FirewallPolicy::Strict {
                    allowed_remotes: vec![Ip::new(131, 0, 0, 9)],
                },
                None,
            );
            let b = w.add_host("b", vec![Ip::new(131, 1, 0, 10)]);
            let p = LinkParams::mbps(10.0, Duration::from_millis(1));
            let (ia, gw_in) = w.connect_with(a, Trust::Inside, gw, Trust::Inside, p, p);
            let (gw_out, ib) = w.connect_with(gw, Trust::Outside, b, Trust::Inside, p, p);
            w.default_route(a, ia);
            w.default_route(b, ib);
            w.default_route(gw, gw_out);
            w.route(gw, Ip::new(192, 168, 1, 0), 24, gw_in);
            a
        });
        let a_addr = SockAddr::new(Ip::new(192, 168, 1, 10), 5000);
        let b_addr = SockAddr::new(Ip::new(131, 1, 0, 10), 6000);
        net.with(|w| w.send_from(a, pkt(a_addr, b_addr, 100)));
        sched.run();
        net.with(|w| assert_eq!(w.stats.drop_firewall, 1));
    }

    // ---------------- hop fusion ----------------

    type Record = (u64, TraceKind, SockAddr, SockAddr);
    type Records = Arc<Mutex<Vec<Record>>>;

    fn record_into(w: &mut World, records: &Records) {
        let r = Arc::clone(records);
        w.set_tracer(Box::new(move |t, kind, p| {
            r.lock().push((t.as_nanos(), kind, p.src, p.dst));
        }));
    }

    /// One inert extra interface on every gateway: no hop is fusable.
    fn make_inert(w: &mut World) {
        let gateways: Vec<NodeId> = (0..w.node_count())
            .map(NodeId)
            .filter(|&n| matches!(w.node(n).kind, NodeKind::Gateway { .. }))
            .collect();
        for (i, gw) in gateways.into_iter().enumerate() {
            let stub = w.add_host(format!("stub{i}"), vec![Ip::new(10, 250, 0, i as u8)]);
            let p = LinkParams::mbps(1.0, Duration::ZERO);
            w.connect(gw, stub, p);
        }
    }

    /// host — gateway — backbone — gateway — host, as in the paper's
    /// path shape; with `relay` the backbone gets a third (public host)
    /// interface and stops being a pure forwarder. Site `a` is behind a
    /// full-cone NAT when `nat`. Receivers echo every packet whose port is
    /// 7 back to its (translated) source.
    fn grid_path(relay: bool, nat: bool) -> (Scheduler, Net, SockAddr, SockAddr, NodeId) {
        let sched = Scheduler::new();
        let net = Net::new(sched.handle(), 5);
        let (a, a_addr, b_addr) = net.with(|w| {
            let wan = LinkParams::mbps(2.0, Duration::from_millis(3));
            let site_a = if nat {
                crate::topology::SiteSpec::natted("a", 1, NatKind::FullCone, wan)
            } else {
                crate::topology::SiteSpec::open("a", 1, wan)
            };
            let sites = [site_a, crate::topology::SiteSpec::open("b", 1, wan)];
            let mut grid = crate::topology::Grid::build(w, &sites);
            if relay {
                grid.add_public_host(w, "relay");
            }
            w.register_proto(
                proto::UDP,
                Arc::new(|w: &mut World, node: NodeId, p: Packet| {
                    if p.dst.port == 7 {
                        w.send_from(node, pkt(p.dst, p.src, 60));
                    }
                }),
            );
            let a_addr = SockAddr::new(grid.sites[0].host_ips[0], 5000);
            let b_addr = SockAddr::new(grid.sites[1].host_ips[0], 7);
            (grid.sites[0].hosts[0], a_addr, b_addr)
        });
        (sched, net, a_addr, b_addr, a)
    }

    #[test]
    fn settled_flow_costs_one_backbone_forward_and_one_delivery_per_packet() {
        let (sched, net, a_addr, _, a) = grid_path(true, false);
        let b_addr = SockAddr::new(net.with(|w| w.addr_of(w.find_node("b-0").unwrap())), 9);
        // The first packet of the flow opens conntrack at the sending
        // gateway, hop by hop.
        net.with(|w| w.send_from(a, pkt(a_addr, b_addr, 500)));
        sched.run();
        let h = sched.handle();
        let (events0, stats0) = (h.events_dispatched(), net.with(|w| w.stats));
        assert_eq!(events0, 3, "gateway, backbone and delivery events");
        assert_eq!(
            stats0.fused, 1,
            "the receiving gateway admits replies of any flow"
        );
        const N: u64 = 20;
        net.with(|w| {
            for _ in 0..N {
                w.send_from(a, pkt(a_addr, b_addr, 500));
            }
        });
        sched.run();
        let stats = net.with(|w| w.stats);
        assert_eq!(h.events_dispatched() - events0, 2 * N);
        assert_eq!(stats.fused - stats0.fused, 2 * N, "both site gateways fuse");
        assert_eq!(stats.forwarded - stats0.forwarded, 3 * N);
        assert_eq!(stats.delivered - stats0.delivered, N);
    }

    /// Run a NATted request/reply exchange over the gateway–backbone–
    /// gateway path (a two-interface backbone, so replies fuse three hops
    /// ending in the NAT's inbound translation).
    fn nat_exchange(inert: bool, tracer: bool) -> (u64, WorldStats, Vec<Record>) {
        let (sched, net, a_addr, b_addr, a) = grid_path(false, true);
        let records: Records = Arc::default();
        net.with(|w| {
            if inert {
                make_inert(w);
            }
            if tracer {
                record_into(w, &records);
            }
            for i in 0..30u64 {
                w.schedule_after(Duration::from_micros(1_700 * i), move |w| {
                    w.send_from(a, pkt(a_addr, b_addr, 300))
                });
            }
        });
        sched.run();
        let records = std::mem::take(&mut *records.lock());
        (
            sched.handle().events_dispatched(),
            net.with(|w| w.stats),
            records,
        )
    }

    #[test]
    fn tracer_leaves_event_count_and_records_unchanged() {
        let (events, stats, _) = nat_exchange(false, false);
        let (traced_events, traced_stats, records) = nat_exchange(false, true);
        let (_, hop_stats, hop_records) = nat_exchange(true, true);
        assert_eq!(traced_events, events, "notes are not events");
        assert_eq!(traced_stats, stats);
        assert!(
            stats.fused > 60,
            "replies fuse through three gateways: {stats:?}"
        );
        assert_eq!(hop_stats.fused, 0);
        assert_eq!(WorldStats { fused: 0, ..stats }, hop_stats);
        assert_eq!(records, hop_records);
        // Each fused hop's record carries the header it left that gateway
        // with: the backbone saw replies addressed to the NAT, not to the
        // translated inside endpoint.
        assert!(records
            .iter()
            .any(|&(_, k, _, dst)| k == TraceKind::Forwarded
                && !dst.ip.is_private()
                && dst.port >= crate::nat::NAT_PORT_BASE));
    }

    /// Two hosts joined through one same-trust gateway (a pure forwarder
    /// from the first packet on); 120-byte packets take 1.12 ms a hop.
    fn through_gateway(
        inert: bool,
    ) -> (
        Scheduler,
        Net,
        NodeId,
        LinkDirId,
        Arc<Mutex<Vec<&'static str>>>,
    ) {
        let sched = Scheduler::new();
        let net = Net::new(sched.handle(), 1);
        let log: Arc<Mutex<Vec<&'static str>>> = Arc::default();
        let l2 = Arc::clone(&log);
        let (a, out) = net.with(|w| {
            let a = w.add_host("a", vec![Ip::new(1, 0, 0, 1)]);
            let gw = w.add_gateway(
                "gw",
                Ip::new(1, 0, 0, 254),
                Ip::new(2, 0, 0, 254),
                FirewallPolicy::Open,
                None,
            );
            let b = w.add_host("b", vec![Ip::new(2, 0, 0, 1)]);
            let p = LinkParams::mbps(1.0, Duration::from_millis(1));
            let (ia, g_in) = w.connect(a, gw, p);
            let (g_out, ib) = w.connect(gw, b, p);
            w.default_route(a, ia);
            w.default_route(b, ib);
            w.route(gw, Ip::new(1, 0, 0, 0), 8, g_in);
            w.route(gw, Ip::new(2, 0, 0, 0), 8, g_out);
            if inert {
                make_inert(w);
            }
            w.register_proto(
                proto::UDP,
                Arc::new(move |_w, _n, _p| l2.lock().push("delivered")),
            );
            (a, w.iface_link(gw, g_out))
        });
        (sched, net, a, out, log)
    }

    fn a_to_b() -> Packet {
        pkt(
            SockAddr::new(Ip::new(1, 0, 0, 1), 1),
            SockAddr::new(Ip::new(2, 0, 0, 1), 2),
            100,
        )
    }

    /// The fused delivery (due at 2.24 ms) is ordered as if scheduled when
    /// the packet reached the gateway (1.12 ms), so an event for the same
    /// instant scheduled in between (at 0.5 ms) still goes first.
    #[test]
    fn fused_arrival_keeps_its_hop_by_hop_tie_position() {
        for inert in [false, true] {
            let (sched, net, a, _, log) = through_gateway(inert);
            let l2 = Arc::clone(&log);
            net.with(|w| {
                w.send_from(a, a_to_b());
                w.schedule_after(Duration::from_micros(500), move |w| {
                    w.schedule_at(SimTime::ZERO + Duration::from_micros(2_240), move |_| {
                        l2.lock().push("tie")
                    });
                });
            });
            sched.run();
            assert_eq!(*log.lock(), ["tie", "delivered"], "inert={inert}");
            assert_eq!(net.with(|w| w.stats.fused), u64::from(!inert));
        }
    }

    #[test]
    fn no_hop_fuses_across_the_fault_horizon() {
        let (sched, net, a, _, log) = through_gateway(false);
        net.with(|w| {
            // Unrelated link; the plan item still bounds fusion until 1 ms.
            w.install_faults(crate::FaultPlan::new().flap(
                Duration::from_millis(1),
                LinkDirId(0),
                Duration::ZERO,
            ));
            w.send_from(a, a_to_b());
        });
        sched.run();
        assert_eq!(
            net.with(|w| w.stats),
            WorldStats {
                delivered: 1,
                forwarded: 1,
                ..WorldStats::default()
            }
        );
        net.with(|w| w.send_from(a, a_to_b()));
        sched.run();
        assert_eq!(net.with(|w| w.stats.fused), 1, "no fault pending: fused");
        assert_eq!(log.lock().len(), 2);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "change links mid-run through a FaultPlan")]
    fn changing_a_link_under_a_fused_admission_fails_loudly() {
        let (_sched, net, a, out, _) = through_gateway(false);
        net.with(|w| {
            w.send_from(a, a_to_b());
            // The gateway's admission to `out` is already booked at 1.12 ms.
            w.link_mut(out).params.bandwidth_bps *= 2.0;
        });
    }
}

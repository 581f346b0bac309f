//! The grid node runtime: identity, registration, service links, and the
//! integrated connection establishment that the paper contributes —
//! client/server, TCP splicing with NAT port prediction, SOCKS proxies and
//! relay-routed messages behind one API, chosen by the Figure-4 decision
//! tree with runtime fallback.
//!
//! Establishment feeds the *session layer* ([`crate::session`]): the node
//! keeps a [`LinkTable`] of established data links keyed by
//! `(peer node, stack spec)`, and every channel between one node pair
//! rides ONE shared, supervised link. Concurrent `connect()`s to the same
//! peer are deduplicated to a single Figure-4 walk, and a link failure
//! triggers ONE re-establishment that replays every attached channel.

use gridcrypt::SecureConfig;
use gridsim_net::{Net, SchedHandle, SockAddr};
use gridsim_tcp::{ConnectOpts, SimHost, TcpConfig, TcpStream};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

use crate::cpu::{CpuModel, CpuRates, HostCpu};
use crate::drivers::{build_sender_parts, PathParams, RawLink, SecurityContext, StackSpec};
use crate::establish::{choose_methods, EstablishMethod, LinkKey, LinkPurpose};
use crate::nameservice::{GridId, NsClient, PortRecord};
use crate::port::{
    AckCell, AckSender, ReceivePort, ReceivePortInner, ResumeMeta, RxShared, SendConnection,
    SendPort,
};
use crate::profile::{ConnectivityProfile, FirewallClass, NatClass};
use crate::relay::{RelayClient, RelayDelegate, RoutedStream};
use crate::session::{Channel, Claim, LinkIo, LinkTable, RecoveryRole, SharedLink, WalkGauge};
use crate::socks::socks_connect;
use crate::tune::{PathControlConfig, PathController};
use crate::wire::{read_frame, FrameReader, FrameWriter};

/// High bit of the stream preamble's channel field: set when the
/// connection *resumes* an existing channel after a detected failure (the
/// preamble then carries a fourth field, the reconnect generation). Fresh
/// connects never set it, so fault-free preambles stay byte-identical.
pub(crate) const RESUME_FLAG: u64 = 1 << 63;

/// Second-highest preamble bit: the resumed link is *multiplexed* — the
/// preamble carries, after the generation, the list of extra channels
/// (id + receive-port name) riding the link, so the receiver can register
/// their routes before the replay arrives. Single-channel resumes never
/// set it, keeping their preambles byte-identical to the pre-session
/// format.
pub(crate) const MUX_FLAG: u64 = 1 << 62;

/// Upper bound on the extra-channel list a resume preamble may carry
/// (sanity against corrupt frames).
const MAX_MUX_CHANNELS: u64 = 1 << 16;

/// Reconnect schedule for failed data links: attempts and backoff.
const RECOVER_ATTEMPTS: u32 = 8;
const RECOVER_BASE: Duration = Duration::from_millis(50);
const RECOVER_DELAY_CAP: Duration = Duration::from_secs(2);
/// How long a resuming sender waits for the receiver's delivered-count
/// reply before abandoning the attempt (polled, so a second failure during
/// resume cannot wedge recovery).
const RESUME_REPLY_TIMEOUT: Duration = Duration::from_secs(10);
/// Service-request deadline used during recovery, where the peer may have
/// died mid-request. Fault-free establishment passes no deadline (and thus
/// schedules no timer events).
const RECOVER_SVC_TIMEOUT: Duration = Duration::from_secs(5);

/// First local port used for receive-port data listeners.
const DATA_PORT_BASE: u16 = 20_000;
/// First local port used for spliced connections (distinct from the
/// ephemeral range 10000+, data listeners 20000+, NAT mappings 40000+).
const SPLICE_PORT_BASE: u16 = 31_000;

/// What a resuming sender tells the receiver in the preamble: the
/// reconnect generation, plus the extra channels multiplexed on the link
/// (beyond the anchor channel the preamble itself names).
pub(crate) struct ResumePlan {
    pub gen: u64,
    /// `(channel id, receive-port name)` of every non-anchor channel.
    pub extras: Vec<(u64, String)>,
}

/// How receive-side pumps resolve OPEN frames (and resume extras) to
/// receive ports by name: a weak hook back into the node's port table.
pub(crate) type PortResolver = Arc<dyn Fn(&str) -> Option<Arc<ReceivePortInner>> + Send + Sync>;

/// Shared environment of one grid deployment: where the name service and
/// relay live, plus the security and CPU models.
#[derive(Clone)]
pub struct GridEnv {
    pub net: Net,
    pub ns_addr: SockAddr,
    pub relay_addr: Option<SockAddr>,
    /// Ordered failover relays dialed (after `relay_addr`) when the
    /// current relay stays dead past the redial backoff. Every node must
    /// share the order so failed-over peers converge on the same relay.
    pub relay_fallbacks: Vec<SockAddr>,
    /// The virtual organization's shared secret, for GTLS stacks.
    pub psk: Vec<u8>,
    pub cpu: CpuModel,
    pub rates: CpuRates,
    /// Per-channel resend-buffer byte budget (replay window).
    pub resend_budget: usize,
    /// Receiver cumulative-ack cadence: one CACK service frame per this
    /// many delivered bytes. `usize::MAX` disables the ack protocol.
    pub ack_bytes: usize,
    /// When set, every established data link gets a [`PathController`]
    /// daemon sampling its transport telemetry and issuing live RECONFIGs
    /// (DESIGN.md §11). Off by default: fault-free wire traces stay
    /// byte-identical unless a deployment opts in.
    pub path_control: Option<PathControlConfig>,
    /// Walk concurrency gauge shared by every node joined through this
    /// env (and its clones).
    walks: Arc<WalkGauge>,
}

impl GridEnv {
    pub fn new(net: Net, ns_addr: SockAddr) -> GridEnv {
        GridEnv {
            net,
            ns_addr,
            relay_addr: None,
            relay_fallbacks: Vec::new(),
            psk: b"netgrid-vo-secret".to_vec(),
            cpu: CpuModel::new(),
            rates: CpuRates::default(),
            resend_budget: crate::port::RESEND_BUDGET,
            ack_bytes: crate::port::ACK_BYTES_DEFAULT,
            path_control: None,
            walks: Arc::default(),
        }
    }

    pub fn with_relay(mut self, relay: SockAddr) -> Self {
        self.relay_addr = Some(relay);
        self
    }

    /// Configure an ordered relay list: the first is the primary every
    /// node dials at join; the rest are failover targets.
    ///
    /// With legacy relays ([`crate::spawn_relay`]) every node must share
    /// the same order, so failed-over peers converge on one relay. Meshed
    /// relays ([`crate::spawn_relay_mesh`]) lift that: nodes may home at
    /// different relays (or permute the list for load spreading), and a
    /// node that fails over to its backup is route-around-able by live
    /// senders through the mesh routing table — their channels stay up and
    /// recover in place rather than tearing down.
    pub fn with_relays(mut self, relays: &[SockAddr]) -> Self {
        self.relay_addr = relays.first().copied();
        self.relay_fallbacks = relays.get(1..).unwrap_or_default().to_vec();
        self
    }

    pub fn with_psk(mut self, psk: impl Into<Vec<u8>>) -> Self {
        self.psk = psk.into();
        self
    }

    pub fn with_rates(mut self, rates: CpuRates) -> Self {
        self.rates = rates;
        self
    }

    /// Cap the per-channel resend buffer. The ack cadence follows (an
    /// eighth of the cap, at least 16 KiB) so continuous pruning keeps
    /// steady-state usage under the cap instead of hitting eviction. The
    /// cadence must leave room for in-flight pipe buffering on top of the
    /// unacked window — the routed path traverses four socket buffers.
    pub fn with_resend_budget(mut self, bytes: usize) -> Self {
        self.resend_budget = bytes.max(1);
        self.ack_bytes = (bytes / 8).max(16 * 1024);
        self
    }

    /// Override the ack cadence independently of the resend budget.
    pub fn with_ack_bytes(mut self, bytes: usize) -> Self {
        self.ack_bytes = bytes.max(1);
        self
    }

    /// Enable the session-layer path control loop: each data link gets a
    /// deterministic [`PathController`] that samples transport telemetry
    /// and reconfigures stripe count, block size and compression live.
    pub fn with_path_control(mut self, cfg: PathControlConfig) -> Self {
        self.path_control = Some(cfg);
        self
    }

    /// Reset this deployment's walk concurrency gauge (call between storm
    /// scenarios sharing one env).
    pub fn walk_gauge_reset(&self) {
        self.walks.reset();
    }

    /// Highest number of Figure-4 walks in flight at once, across the
    /// nodes joined through this env, since it was created or last reset.
    pub fn walk_gauge_peak(&self) -> u64 {
        self.walks.peak()
    }
}

/// Handed to receive ports so their accept paths can build stacks.
#[derive(Clone)]
pub struct NodeCtx {
    pub cpu: HostCpu,
    pub sched: SchedHandle,
    pub psk: Vec<u8>,
    pub seed_base: u64,
    /// Resolves receive-port names for mux routing (OPEN frames, resume
    /// extras).
    pub(crate) resolve: PortResolver,
}

impl NodeCtx {
    /// Security context for a stack, if the spec asks for one.
    pub fn security(&self, spec: &StackSpec) -> Option<SecurityContext> {
        spec.secure.then(|| SecurityContext {
            config: SecureConfig::new(self.psk.clone()),
            seed: self.seed_base,
        })
    }
}

pub(crate) struct NodeInner {
    env: GridEnv,
    host: SimHost,
    name: String,
    id: GridId,
    profile: ConnectivityProfile,
    ns: NsClient,
    relay: Option<RelayClient>,
    cpu: HostCpu,
    ports: Mutex<HashMap<String, Arc<ReceivePortInner>>>,
    next_data_port: AtomicU64,
    next_splice_port: AtomicU64,
    next_channel: AtomicU64,
    seed_base: u64,
    /// Serializes NAT-mapping-creating operations on this node so that
    /// splicing port predictions hold: a symmetric NAT allocates one
    /// external port per outbound flow, so any concurrent connection
    /// between "predict" and "SYN" would shift the counter.
    nat_gate: NatGate,
    /// Responder-side splice negotiations awaiting the initiator's GO.
    pending_splices: Mutex<HashMap<u64, PendingSplice>>,
    /// Cumulative-ack watermarks of this node's open send channels, keyed
    /// by channel id, advanced by incoming CACK service frames.
    ack_cells: Mutex<HashMap<u64, Arc<AckCell>>>,
    /// The session layer's cache of established data links (at most one
    /// per peer + stack spec).
    links: LinkTable,
    /// OPEN / OPEN_BATCH control frames this node has written — the
    /// batching probe: a batch of N attaches must cost one frame, not N.
    open_frames: AtomicU64,
    /// Receive-side per-channel state shared across this node's receive
    /// ports (delivered watermarks + ack bookkeeping): mux links can carry
    /// channels of several ports, and a resume can re-anchor a channel on
    /// a different port's listener.
    rx: Arc<RxShared>,
}

struct PendingSplice {
    port: Arc<ReceivePortInner>,
    my_ports: Vec<u16>,
    total: u16,
    /// This negotiation holds the NAT gate until GO/ABORT.
    holds_gate: bool,
}

/// A FIFO gate (non-RAII mutex) that can be held across separate service
/// handler invocations.
#[derive(Default)]
struct NatGate {
    state: Mutex<(bool, std::collections::VecDeque<gridsim_net::Waker>)>,
}

impl NatGate {
    fn acquire(&self) {
        loop {
            {
                let mut st = self.state.lock();
                if !st.0 {
                    st.0 = true;
                    return;
                }
                st.1.push_back(gridsim_net::ctx::waker());
            }
            gridsim_net::ctx::park("nat gate");
        }
    }
    fn release(&self) {
        let mut st = self.state.lock();
        st.0 = false;
        if let Some(w) = st.1.pop_front() {
            w.wake();
        }
    }
}

/// A node participating in the grid.
#[derive(Clone)]
pub struct GridNode {
    inner: Arc<NodeInner>,
}

impl GridNode {
    /// Join the grid: register with the name service and connect the
    /// service link to the relay (if one is configured). Must run inside a
    /// simulated task on the node's host.
    pub fn join(
        env: &GridEnv,
        host: SimHost,
        name: &str,
        profile: ConnectivityProfile,
    ) -> io::Result<GridNode> {
        // A strictly firewalled site reaches public services only through
        // its own proxy.
        let via_proxy = if profile.firewall == FirewallClass::Strict {
            profile.socks_proxy
        } else {
            None
        };
        let ns = NsClient::new(host.clone(), env.ns_addr, via_proxy);
        // Publish the ordered relay list only when there are fallbacks —
        // single-relay deployments keep their registration frames (and
        // wire traces) byte-identical.
        let mut relay_list: Vec<SockAddr> = Vec::new();
        if !env.relay_fallbacks.is_empty() {
            relay_list.extend(env.relay_addr);
            relay_list.extend(env.relay_fallbacks.iter().copied());
        }
        let id = ns.register(name, &profile, &relay_list)?;
        let relay = match env.relay_addr {
            Some(addr) => {
                let mut addrs = vec![addr];
                addrs.extend(env.relay_fallbacks.iter().copied());
                Some(RelayClient::connect_multi(&host, addrs, via_proxy, id)?)
            }
            None => None,
        };
        let seed_base = env.net.with(|w| rand::Rng::random::<u64>(w.rng()));
        let cpu = HostCpu::new(env.cpu.clone(), host.node(), env.rates);
        let inner = Arc::new(NodeInner {
            env: env.clone(),
            host,
            name: name.to_string(),
            id,
            profile,
            ns,
            relay: relay.clone(),
            cpu,
            ports: Mutex::new(HashMap::new()),
            next_data_port: AtomicU64::new(DATA_PORT_BASE as u64),
            next_splice_port: AtomicU64::new(SPLICE_PORT_BASE as u64),
            next_channel: AtomicU64::new(1),
            seed_base,
            nat_gate: NatGate::default(),
            pending_splices: Mutex::new(HashMap::new()),
            ack_cells: Mutex::new(HashMap::new()),
            links: LinkTable::new(Arc::clone(&env.walks)),
            open_frames: AtomicU64::new(0),
            rx: RxShared::new(),
        });
        let node = GridNode { inner };
        if let Some(r) = relay {
            r.set_delegate(Arc::new(NodeDelegate {
                inner: Arc::downgrade(&node.inner),
            }));
        }
        Ok(node)
    }

    /// Join with an automatically detected connectivity profile (paper §8
    /// future work): the node classifies its own NAT via STUN-style probes
    /// and tests inbound reachability with a name-service connect-back.
    /// Sites that require a SOCKS proxy must still use [`GridNode::join`]
    /// with an explicit profile (a strictly-proxied node cannot probe).
    pub fn join_auto(env: &GridEnv, host: SimHost, name: &str) -> io::Result<GridNode> {
        let ns = NsClient::new(host.clone(), env.ns_addr, None);
        let profile = ns.detect_profile()?;
        Self::join(env, host, name, profile)
    }

    pub fn id(&self) -> GridId {
        self.inner.id
    }

    pub fn name(&self) -> &str {
        &self.inner.name
    }

    pub fn profile(&self) -> &ConnectivityProfile {
        &self.inner.profile
    }

    pub fn host(&self) -> &SimHost {
        &self.inner.host
    }

    pub fn ns(&self) -> &NsClient {
        &self.inner.ns
    }

    pub fn cpu(&self) -> &HostCpu {
        &self.inner.cpu
    }

    /// Established data links right now (the session layer's link cache).
    /// N same-spec channels to one peer count as ONE link here.
    pub fn data_link_count(&self) -> usize {
        self.inner.links.ready_count()
    }

    /// Fresh Figure-4 establishment walks this node has run — the
    /// single-flight dedupe probe: racing `connect()`s to the same peer
    /// must not add more than one.
    pub fn establishment_walks(&self) -> u64 {
        self.inner.links.walks()
    }

    /// Completed link-level recoveries: each re-established ONE shared
    /// link and replayed every channel attached to it.
    pub fn link_recoveries(&self) -> u64 {
        self.inner.links.recoveries()
    }

    /// Times a sharded relay BUSY-throttled this node's routed writes —
    /// the typed-backpressure probe (always 0 against a legacy relay).
    pub fn relay_busy_throttles(&self) -> u64 {
        self.inner.relay.as_ref().map_or(0, |r| r.busy_throttles())
    }

    /// OPEN / OPEN_BATCH control frames written by this node's senders —
    /// the batching probe. A fresh link's anchor channel rides the stream
    /// preamble (no frame); each later single attach costs one OPEN; a
    /// batch of N extras costs exactly one OPEN_BATCH.
    pub fn open_control_frames(&self) -> u64 {
        self.inner.open_frames.load(Ordering::Relaxed)
    }

    fn ctx(&self) -> NodeCtx {
        let weak = Arc::downgrade(&self.inner);
        NodeCtx {
            cpu: self.inner.cpu.clone(),
            sched: self.inner.env.net.sched().clone(),
            psk: self.inner.env.psk.clone(),
            seed_base: self.inner.seed_base,
            resolve: Arc::new(move |name: &str| {
                weak.upgrade()
                    .and_then(|inner| inner.ports.lock().get(name).cloned())
            }),
        }
    }

    fn alloc_channel(&self) -> u64 {
        (self.inner.id << 24) | self.inner.next_channel.fetch_add(1, Ordering::Relaxed)
    }

    /// Does this node need the NAT gate at all? Only symmetric NATs
    /// allocate one external port per *flow*, so only they make port
    /// predictions order-sensitive. A cone NAT maps per internal endpoint:
    /// concurrent flows cannot shift each other's mappings, so gating them
    /// would only serialize a connection storm for nothing — walks to
    /// unrelated peers run concurrently (single-flight stays per-LinkKey).
    fn nat_serializes(&self) -> bool {
        matches!(
            self.inner.profile.nat,
            Some(NatClass::SymmetricPredictable | NatClass::SymmetricRandom)
        )
    }

    /// Run `f` while holding the NAT gate (no-op unless the node's NAT
    /// makes mapping creation order-sensitive — see [`Self::nat_serializes`]).
    fn nat_gated<R>(&self, f: impl FnOnce() -> R) -> R {
        if self.nat_serializes() {
            self.inner.nat_gate.acquire();
            let r = f();
            self.inner.nat_gate.release();
            r
        } else {
            f()
        }
    }

    fn alloc_splice_ports(&self, n: u16) -> Vec<u16> {
        (0..n)
            .map(|_| self.inner.next_splice_port.fetch_add(1, Ordering::Relaxed) as u16)
            .collect()
    }

    // ------------------------------------------------------------ ports

    /// Create a named receive port with the given driver-stack spec. The
    /// spec is registered in the name service, so senders assemble the
    /// matching stack automatically.
    pub fn create_receive_port(&self, name: &str, spec: StackSpec) -> io::Result<ReceivePort> {
        let data_port = self.inner.next_data_port.fetch_add(1, Ordering::Relaxed) as u16;
        let listener = self.inner.host.listen(data_port)?;
        let listen_addr = SockAddr::new(self.inner.host.ip(), data_port);
        self.nat_gated(|| {
            self.inner
                .ns
                .register_port(self.inner.id, name, Some(listen_addr), &spec.encode())
        })?;
        // The receive port acks over the service link when one exists;
        // without a relay the watermark still travels in resume replies.
        let ack = match &self.inner.relay {
            Some(r) if self.inner.env.ack_bytes != usize::MAX => Some(AckSender {
                relay: r.clone(),
                sched: self.inner.env.net.sched().clone(),
                every: self.inner.env.ack_bytes,
            }),
            _ => None,
        };
        let inner = ReceivePortInner::new(name.to_string(), spec, ack, Arc::clone(&self.inner.rx));
        self.inner
            .ports
            .lock()
            .insert(name.to_string(), Arc::clone(&inner));
        // Accept loop: native-TCP connections (client/server and proxied).
        let port = Arc::clone(&inner);
        let node = self.clone();
        let sched = self.inner.env.net.sched().clone();
        let sched2 = sched.clone();
        sched.spawn_daemon(format!("rp-accept-{name}"), move || loop {
            let Ok(stream) = listener.accept() else { break };
            let port = Arc::clone(&port);
            let node = node.clone();
            sched2.spawn_daemon("rp-incoming", move || {
                let _ = node.handle_incoming_tcp(&port, stream);
            });
        });
        Ok(ReceivePort {
            node: self.clone(),
            inner,
        })
    }

    /// Create a send port (connect it with [`SendPort::connect`]).
    pub fn create_send_port(&self) -> SendPort {
        SendPort::new(self.clone())
    }

    pub(crate) fn forget_port(&self, name: &str) {
        self.inner.ports.lock().remove(name);
    }

    /// Read the stream preamble and register the link with the port.
    fn handle_incoming_tcp(
        &self,
        port: &Arc<ReceivePortInner>,
        stream: TcpStream,
    ) -> io::Result<()> {
        stream.set_nodelay(true)?;
        let mut r = stream.clone();
        let frame = read_frame(&mut r)?;
        let mut fr = FrameReader::new(&frame);
        let raw = fr.u64()?;
        let idx = fr.u64()? as u16;
        let total = fr.u64()? as u16;
        let channel = raw & !(RESUME_FLAG | MUX_FLAG);
        if raw & RESUME_FLAG != 0 {
            let gen = fr.u64()?;
            let extras = if raw & MUX_FLAG != 0 {
                read_mux_extras(&mut fr)?
            } else {
                Vec::new()
            };
            port.add_resume_link(
                &self.ctx(),
                channel,
                idx,
                total,
                ResumeMeta { gen, extras },
                RawLink::Tcp(stream),
            )
        } else {
            port.add_raw_link(&self.ctx(), channel, idx, total, RawLink::Tcp(stream))
        }
    }

    // ------------------------------------------------- establishment

    /// Establish a data connection to a named receive port. The session
    /// layer deduplicates: if an established link to that peer with the
    /// same effective stack spec already exists, the new channel attaches
    /// to it (announced with an OPEN frame) instead of re-running the
    /// Figure-4 walk. Used by [`SendPort::connect`].
    /// `streams_override` replaces the registered stream count (receive
    /// ports accept any count — the stream preamble is authoritative),
    /// which is what stream-count autotuning builds on.
    pub(crate) fn establish_connection(
        &self,
        port_name: &str,
        streams_override: Option<u16>,
    ) -> io::Result<SendConnection> {
        let channel = self.alloc_channel();
        let conn = self.establish_channel(port_name, streams_override, channel)?;
        // Register the channel's ack watermark so CACK service frames
        // arriving on the relay pump reach it. Survives recovery: the
        // cell rides the channel, not the link.
        self.inner
            .ack_cells
            .lock()
            .insert(channel, Arc::clone(&conn.chan.acked));
        Ok(conn)
    }

    /// Open `count` channels to the named receive port in one batch,
    /// returning one single-connection [`SendPort`] per channel —
    /// semantically identical to `count` separate `connect()`s, but the
    /// whole batch pays ONE name-service lookup, ONE link claim (a single
    /// Figure-4 walk when the link is fresh) and ONE `OPEN_BATCH` control
    /// frame, where sequential connects pay a lookup round trip and an
    /// OPEN frame per channel.
    pub fn connect_batch(&self, port_name: &str, count: usize) -> io::Result<Vec<SendPort>> {
        let conns = self.establish_connections_batch(port_name, None, count)?;
        let mut cells = self.inner.ack_cells.lock();
        for conn in &conns {
            cells.insert(conn.chan.channel, Arc::clone(&conn.chan.acked));
        }
        drop(cells);
        Ok(conns
            .into_iter()
            .map(|conn| SendPort::with_connection(self.clone(), conn))
            .collect())
    }

    /// Batched form of [`Self::establish_channel`]: resolve the peer once,
    /// claim the link once, attach every channel, announce the batch.
    fn establish_connections_batch(
        &self,
        port_name: &str,
        streams_override: Option<u16>,
        count: usize,
    ) -> io::Result<Vec<SendConnection>> {
        if count == 0 {
            return Ok(Vec::new());
        }
        let (rec, peer_profile, _peer_name) =
            self.nat_gated(|| self.inner.ns.lookup_port(port_name))?;
        let mut spec = StackSpec::decode(&rec.stack)?;
        if let Some(n) = streams_override {
            spec.path.stripes = n.max(1);
        }
        let key = LinkKey::new(rec.owner, &spec);
        let channels: Vec<u64> = (0..count).map(|_| self.alloc_channel()).collect();
        let new_chan =
            |ch: u64| Arc::new(Channel::new(ch, port_name, self.inner.env.resend_budget));
        loop {
            match self.inner.links.claim(&key) {
                Claim::Ready(link) => {
                    let chans: Vec<Arc<Channel>> = channels.iter().copied().map(new_chan).collect();
                    let attached = chans
                        .iter()
                        .take_while(|c| link.attach(Arc::clone(c)))
                        .count();
                    if attached < chans.len() {
                        // The link is tearing down; undo the partial batch,
                        // GC the stale entry and re-claim (next round
                        // establishes fresh).
                        for c in &chans[..attached] {
                            link.detach(c.channel);
                        }
                        self.inner.links.remove(&key, &link);
                        continue;
                    }
                    if let Err(e) = self.open_batch_on_link(&link, &chans) {
                        for c in &chans {
                            link.detach(c.channel);
                        }
                        self.gc_link_if_empty(&key, &link);
                        return Err(e);
                    }
                    return Ok(chans
                        .into_iter()
                        .map(|chan| SendConnection {
                            link: Arc::clone(&link),
                            chan,
                        })
                        .collect());
                }
                Claim::Mine => {
                    // The first channel anchors the walk (announced by the
                    // stream preamble itself); the rest of the batch rides
                    // one OPEN_BATCH frame behind it.
                    let result = self.establish_link(
                        &key,
                        &rec,
                        &peer_profile,
                        &spec,
                        channels[0],
                        port_name,
                    );
                    self.inner.links.walk_done();
                    let anchor = match result {
                        Ok(conn) => {
                            self.inner.links.fulfill(&key, &conn.link);
                            conn
                        }
                        Err(e) => {
                            self.inner.links.abandon(&key);
                            return Err(e);
                        }
                    };
                    let link = Arc::clone(&anchor.link);
                    let extras: Vec<Arc<Channel>> =
                        channels[1..].iter().copied().map(new_chan).collect();
                    // A just-established link still holds its anchor, so it
                    // cannot be closing: attach cannot fail here.
                    for c in &extras {
                        assert!(link.attach(Arc::clone(c)), "fresh link refused attach");
                    }
                    if let Err(e) = self.open_batch_on_link(&link, &extras) {
                        for c in &extras {
                            link.detach(c.channel);
                        }
                        return Err(e);
                    }
                    let mut conns = vec![anchor];
                    conns.extend(extras.into_iter().map(|chan| SendConnection {
                        link: Arc::clone(&link),
                        chan,
                    }));
                    return Ok(conns);
                }
            }
        }
    }

    /// Unregister a closed channel's ack watermark.
    pub(crate) fn release_channel(&self, channel: u64) {
        self.inner.ack_cells.lock().remove(&channel);
    }

    /// Resolve the peer + spec, then either attach to the cached link or
    /// run establishment (single-flight per link key).
    fn establish_channel(
        &self,
        port_name: &str,
        streams_override: Option<u16>,
        channel: u64,
    ) -> io::Result<SendConnection> {
        let (rec, peer_profile, _peer_name) =
            self.nat_gated(|| self.inner.ns.lookup_port(port_name))?;
        let mut spec = StackSpec::decode(&rec.stack)?;
        if let Some(n) = streams_override {
            spec.path.stripes = n.max(1);
        }
        let key = LinkKey::new(rec.owner, &spec);
        loop {
            match self.inner.links.claim(&key) {
                Claim::Ready(link) => {
                    let chan = Arc::new(Channel::new(
                        channel,
                        port_name,
                        self.inner.env.resend_budget,
                    ));
                    if !link.attach(Arc::clone(&chan)) {
                        // The link is tearing down; GC the stale entry and
                        // re-claim (next round establishes fresh).
                        self.inner.links.remove(&key, &link);
                        continue;
                    }
                    if let Err(e) = self.open_on_link(&link, &chan) {
                        link.detach(channel);
                        self.gc_link_if_empty(&key, &link);
                        return Err(e);
                    }
                    return Ok(SendConnection { link, chan });
                }
                Claim::Mine => {
                    let result =
                        self.establish_link(&key, &rec, &peer_profile, &spec, channel, port_name);
                    self.inner.links.walk_done();
                    return match result {
                        Ok(conn) => {
                            self.inner.links.fulfill(&key, &conn.link);
                            Ok(conn)
                        }
                        Err(e) => {
                            self.inner.links.abandon(&key);
                            Err(e)
                        }
                    };
                }
            }
        }
    }

    /// Announce a channel joining an established link. Rewritten after
    /// any recovery observed mid-open: a recovery whose replay snapshot
    /// predated our attach did not announce us, and the receiver treats
    /// duplicate OPENs as no-ops, so always-rewrite is safe.
    fn open_on_link(&self, link: &Arc<SharedLink>, chan: &Arc<Channel>) -> io::Result<()> {
        loop {
            let seen = link.incarnation();
            let wrote = {
                let mut io = link.io();
                if io.healthy() {
                    io.write_open(chan.channel, &chan.peer_port).is_ok()
                } else {
                    false
                }
            };
            if wrote {
                self.inner.open_frames.fetch_add(1, Ordering::Relaxed);
                return Ok(());
            }
            self.recover_link(link, seen)?;
        }
    }

    /// Announce a batch of channels joining an established link with ONE
    /// `OPEN_BATCH` control frame. Same recovery contract as
    /// [`Self::open_on_link`]: the whole batch is rewritten after any
    /// recovery observed mid-open — the receiver treats every entry
    /// idempotently, so always-rewrite is safe.
    fn open_batch_on_link(&self, link: &Arc<SharedLink>, chans: &[Arc<Channel>]) -> io::Result<()> {
        if chans.is_empty() {
            return Ok(());
        }
        let entries: Vec<(u64, &str)> = chans
            .iter()
            .map(|c| (c.channel, c.peer_port.as_str()))
            .collect();
        loop {
            let seen = link.incarnation();
            let wrote = {
                let mut io = link.io();
                if io.healthy() {
                    io.write_open_batch(&entries).is_ok()
                } else {
                    false
                }
            };
            if wrote {
                self.inner.open_frames.fetch_add(1, Ordering::Relaxed);
                return Ok(());
            }
            self.recover_link(link, seen)?;
        }
    }

    /// One full walk of the decision tree for a fresh link, anchored at
    /// `channel`.
    fn establish_link(
        &self,
        key: &LinkKey,
        rec: &PortRecord,
        peer_profile: &ConnectivityProfile,
        spec: &StackSpec,
        channel: u64,
        port_name: &str,
    ) -> io::Result<SendConnection> {
        self.inner.links.note_walk();
        let methods = choose_methods(&self.inner.profile, peer_profile, LinkPurpose::Data);
        let mut last_err = io::Error::new(
            io::ErrorKind::NotFound,
            "no establishment method applicable",
        );
        for method in methods {
            match self.try_method(method, rec, peer_profile, spec, channel, None) {
                Ok((links, total)) => match self.build_link_io(links, total, spec, None) {
                    Ok((io, _)) => {
                        let chan = Arc::new(Channel::new(
                            channel,
                            port_name,
                            self.inner.env.resend_budget,
                        ));
                        let link = Arc::new(SharedLink::new(
                            key.clone(),
                            spec.clone(),
                            method,
                            io,
                            channel,
                        ));
                        link.attach(Arc::clone(&chan));
                        self.spawn_path_controller(&link);
                        return Ok(SendConnection { link, chan });
                    }
                    Err(e) => {
                        if std::env::var("NETGRID_DEBUG").is_ok() {
                            eprintln!("[netgrid] method {method} stack failed: {e}");
                        }
                        last_err = e;
                    }
                },
                Err(e) => {
                    if std::env::var("NETGRID_DEBUG").is_ok() {
                        eprintln!("[netgrid] method {method} failed: {e}");
                    }
                    last_err = e;
                }
            }
        }
        Err(io::Error::new(
            last_err.kind(),
            format!("all establishment methods failed for '{port_name}': {last_err}"),
        ))
    }

    /// Read the resume reply (if resuming) and assemble the sender stack.
    /// `resume_expect` is the number of delivered-count values the reply
    /// must carry (anchor first, then the extras in preamble order).
    fn build_link_io(
        &self,
        links: Vec<RawLink>,
        total: u16,
        spec: &StackSpec,
        resume_expect: Option<usize>,
    ) -> io::Result<(LinkIo, Vec<u64>)> {
        let deliveries = if let Some(n) = resume_expect {
            // The receiver replies on stream 0 once every stream arrived.
            // Poll readability first: a plain blocking read on a link that
            // dies again right here would park forever.
            let mut l0 = links[0].clone();
            let ready = wait_until(RESUME_REPLY_TIMEOUT, Duration::from_millis(10), || {
                link_readable(&l0)
            });
            if !ready {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "no resume reply from receiver",
                ));
            }
            let frame = read_frame(&mut l0)?;
            let mut fr = FrameReader::new(&frame);
            (0..n).map(|_| fr.u64()).collect::<io::Result<Vec<_>>>()?
        } else {
            Vec::new()
        };
        let spec_eff = spec.clone().with_streams(total.max(1));
        let ctx = self.ctx();
        let sec = ctx.security(&spec_eff);
        let probes = links.clone();
        let (writer, pool, term) =
            build_sender_parts(links, &spec_eff, self.inner.cpu.clone(), sec.as_ref())?;
        Ok((
            LinkIo {
                writer,
                pool,
                active: probes.len(),
                links: probes,
                term,
                mux: false,
            },
            deliveries,
        ))
    }

    // -------------------------------------------- live reconfiguration

    /// Switch a link's path parameters live (DESIGN.md §11): flush the
    /// current stack to a frame boundary, tell the receiver with a
    /// `RECONFIG` frame, wait for its delivered-watermark ack, and rebuild
    /// the sender stack from the new parameters — all without tearing the
    /// raw connections down. Returns `false` if the link already runs
    /// `params` (no wire traffic).
    ///
    /// On any wire failure mid-exchange the two ends may disagree about
    /// the committed format, so the error path funnels into link
    /// recovery: a full re-establishment resynchronizes both sides at the
    /// establishment spec (exactly-once delivery preserved by the resume
    /// replay), and the caller may retry later.
    pub(crate) fn reconfigure_link(
        &self,
        link: &Arc<SharedLink>,
        params: PathParams,
    ) -> io::Result<bool> {
        let seen = link.incarnation();
        match self.try_reconfigure(link, params) {
            Ok(done) => Ok(done),
            // Parameter validation failed before anything hit the wire.
            Err(e) if e.kind() == io::ErrorKind::InvalidInput => Err(e),
            Err(e) => {
                let _ = self.recover_link(link, seen);
                Err(e)
            }
        }
    }

    /// One reconfiguration attempt, entirely under the write gate so no
    /// channel writer can interleave a message between the old and new
    /// stack formats.
    fn try_reconfigure(&self, link: &Arc<SharedLink>, params: PathParams) -> io::Result<bool> {
        let mut io = link.io();
        if params == link.path_params() {
            return Ok(false);
        }
        // Stripes can only be spread over connections establishment
        // actually dialed; parked spares beyond `active` are reusable.
        if !params.valid_for(io.links.len()) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "reconfig {} invalid for {} raw link(s)",
                    params.describe(),
                    io.links.len()
                ),
            ));
        }
        if !io.healthy() {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionReset,
                "link down before reconfig",
            ));
        }
        // The epoch is burned even if this attempt dies: the receiver can
        // always order frames, and recovery never rewinds it.
        let epoch = link.next_path_epoch();
        io.write_reconfig(epoch, params)?;
        // Block for the receiver's ack (raw on stream 0, reverse — the
        // resume-reply pattern): it proves the receiver consumed every
        // old-format byte and swapped. Poll readability first so a link
        // that dies right here cannot park us forever.
        let mut l0 = io.links[0].clone();
        let ready = wait_until(RESUME_REPLY_TIMEOUT, Duration::from_millis(10), || {
            link_readable(&l0)
        });
        if !ready {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "no reconfig ack from receiver",
            ));
        }
        let frame = read_frame(&mut l0)?;
        let mut fr = FrameReader::new(&frame);
        let got = fr.u64()?;
        if got != epoch {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("reconfig ack epoch {got}, expected {epoch}"),
            ));
        }
        // The ack carries the receiver's delivered watermarks — the
        // exactly-once handshake. Everything we wrote happened-before the
        // RECONFIG frame, so these cover every sent message; advancing
        // the ack cells prunes the resend buffers for free.
        let chans = link.replay_order();
        let n = fr.u64()? as usize;
        for _ in 0..n {
            let ch = fr.u64()?;
            let delivered = fr.u64()?;
            if let Some(c) = chans.iter().find(|c| c.channel == ch) {
                c.acked.advance(delivered);
            }
        }
        // Rebuild the sender stack over the first `stripes` connections;
        // the rest stay parked (healthy() ignores them). GTLS stacks
        // re-handshake deterministically from the per-stream salt.
        let spec_eff = link.spec.clone().with_path(params);
        let ctx = self.ctx();
        let sec = ctx.security(&spec_eff);
        let raw: Vec<RawLink> = io.links[..params.stripes as usize].to_vec();
        let (writer, pool, term) =
            build_sender_parts(raw, &spec_eff, self.inner.cpu.clone(), sec.as_ref())?;
        io.writer = writer;
        io.pool = pool;
        io.term = term;
        io.active = params.stripes as usize;
        link.set_path_params(params);
        Ok(true)
    }

    /// Start the per-link control daemon, if the environment opted in:
    /// sample transport telemetry every `interval`, feed the deterministic
    /// [`PathController`], and apply whatever it decides. Exits when the
    /// last channel detaches from the link.
    fn spawn_path_controller(&self, link: &Arc<SharedLink>) {
        let Some(cfg) = self.inner.env.path_control else {
            return;
        };
        let node = self.clone();
        let weak = Arc::downgrade(link);
        let sched = self.ctx().sched;
        sched.spawn_daemon("path-ctl", move || {
            let mut ctl: Option<PathController> = None;
            loop {
                gridsim_net::ctx::sleep(cfg.interval);
                let Some(link) = weak.upgrade() else { break };
                if link.channel_count() == 0 {
                    break;
                }
                let now = gridsim_net::ctx::now().as_nanos() / 1_000;
                let sample = link.sample_stats(now);
                let ctl = ctl.get_or_insert_with(|| PathController::new(link.path_params(), cfg));
                // A recovery may have reset the live parameters behind our
                // back; resync before and after deciding.
                ctl.applied(link.path_params());
                if let Some(p) = ctl.on_sample(sample) {
                    let _ = node.reconfigure_link(&link, p);
                    ctl.applied(link.path_params());
                }
            }
        });
    }

    // ------------------------------------------------- the data path

    /// Send one message payload on a channel. The fast path writes under
    /// the link's FIFO gate; a detected failure (before or during the
    /// write) funnels into the link's single-flight recovery, whose replay
    /// covers this message — the `wire_seq` check notices that and skips
    /// the duplicate write.
    pub(crate) fn send_on(&self, c: &SendConnection, payload: &bytes::Bytes) -> io::Result<()> {
        let seq = c.chan.retain(payload);
        loop {
            let seen = c.link.incarnation();
            let (wrote, contended) = {
                let mut io = c.link.io();
                if c.chan.wire_seq() > seq {
                    // A recovery replayed this message while we waited on
                    // the gate.
                    return Ok(());
                }
                let ok = io.healthy() && io.write_msg(c.chan.channel, payload).is_ok();
                (ok, c.link.io_contended())
            };
            if wrote {
                c.chan.advance_wire(seq + 1);
                if contended {
                    // Releasing the gate wakes the front waiter, but the
                    // wake is an event: without yielding here, the next
                    // send_on call re-locks the free gate first and a
                    // queued OPEN starves behind the entire data run.
                    gridsim_net::ctx::yield_now();
                }
                return Ok(());
            }
            self.recover_link(&c.link, seen)?;
        }
    }

    /// Flush a channel, announce its clean close, and wait for the bytes
    /// to leave the host; then detach it (tearing the link down if it was
    /// the last channel) and unregister its ack watermark.
    pub(crate) fn close_channel(&self, c: &SendConnection) -> io::Result<()> {
        let r = self.graceful_close(&c.link, &c.chan);
        if c.link.attached(c.chan.channel) {
            c.link.detach(c.chan.channel);
        }
        self.gc_link_if_empty(&c.link.key, &c.link);
        self.release_channel(c.chan.channel);
        r
    }

    /// Abrupt release (port dropped without `close()`): detach without
    /// touching the wire — exactly what dropping a dedicated stack did
    /// before the session layer.
    pub(crate) fn drop_channel(&self, c: &SendConnection) {
        if c.link.attached(c.chan.channel) {
            c.link.detach(c.chan.channel);
        }
        self.gc_link_if_empty(&c.link.key, &c.link);
        self.release_channel(c.chan.channel);
    }

    fn graceful_close(&self, link: &Arc<SharedLink>, chan: &Arc<Channel>) -> io::Result<()> {
        loop {
            if !link.attached(chan.channel) {
                return Ok(());
            }
            let seen = link.incarnation();
            let r = {
                let mut io = link.io();
                let res = io.writer.flush();
                let res = res.and_then(|()| {
                    if io.mux {
                        io.write_close(chan.channel)
                    } else {
                        Ok(())
                    }
                });
                // Settle under the gate: no concurrent writer can queue
                // fresh bytes between our CLOSE and the drain check.
                res.and_then(|()| io.settle())
            };
            match r {
                Ok(()) => return Ok(()),
                Err(_) => self.recover_link(link, seen)?,
            }
        }
    }

    fn gc_link_if_empty(&self, key: &LinkKey, link: &Arc<SharedLink>) {
        if link.channel_count() == 0 {
            self.inner.links.remove(key, link);
        }
    }

    // ------------------------------------------------- link recovery

    /// Funnel a failed write into the link's single-flight recovery:
    /// exactly one task re-establishes and replays all channels; everyone
    /// else parks until that round completes (or learns a completed round
    /// already covered them).
    pub(crate) fn recover_link(&self, link: &Arc<SharedLink>, seen: u64) -> io::Result<()> {
        match link.begin_recovery(seen) {
            RecoveryRole::Recovered => Ok(()),
            RecoveryRole::Failed(e) => Err(e),
            RecoveryRole::Recoverer => {
                let result = self.do_recover_link(link);
                match &result {
                    Ok(()) => self.inner.links.note_recovery(),
                    // A dead link must not be handed to new claimants;
                    // attached channels keep their state and retry
                    // recovery on their next send.
                    Err(_) => self.inner.links.remove(&link.key, link),
                }
                link.finish_recovery(&result);
                result
            }
        }
    }

    /// Re-establish a failed shared link in place: back off, walk the
    /// decision tree again (possibly landing on a *different* method —
    /// e.g. spliced before the failure, routed after), learn the
    /// receiver's delivered count for EVERY attached channel, and replay
    /// the retained gaps. Exactly-once holds because the receiver drops
    /// anything below its per-channel watermark.
    fn do_recover_link(&self, link: &Arc<SharedLink>) -> io::Result<()> {
        // Whatever killed the data link may also have silently killed the
        // idle relay service link (an abort whose RST the outage
        // swallowed). Probe it now so incoming service traffic — the
        // receiver's CACKs in particular — finds us registered again.
        if let Some(relay) = &self.inner.relay {
            relay.nudge();
        }
        let peer_desc = link
            .replay_order()
            .first()
            .map(|c| c.peer_port.clone())
            .unwrap_or_default();
        let mut delay = RECOVER_BASE;
        let mut last_err: io::Error = io::Error::new(
            io::ErrorKind::ConnectionReset,
            format!("data link to '{peer_desc}' lost"),
        );
        for _ in 0..RECOVER_ATTEMPTS {
            gridsim_net::ctx::sleep(delay);
            delay = (delay * 2).min(RECOVER_DELAY_CAP);
            let chans = link.replay_order();
            let Some(anchor) = chans.first() else {
                // Every channel detached while we backed off: nothing to
                // recover. The link stays dead and gets GC'd by the last
                // detach.
                return Ok(());
            };
            // Re-anchor on the surviving head channel (the original anchor
            // may have closed); establishment dials ITS receive port.
            link.set_anchor(anchor.channel);
            let gen = link.next_gen();
            let extras: Vec<(u64, String)> = chans[1..]
                .iter()
                .map(|c| (c.channel, c.peer_port.clone()))
                .collect();
            let plan = ResumePlan { gen, extras };
            let (rec, peer_profile, _) =
                match self.nat_gated(|| self.inner.ns.lookup_port(&anchor.peer_port)) {
                    Ok(x) => x,
                    Err(e) => {
                        last_err = e;
                        continue;
                    }
                };
            let methods = choose_methods(&self.inner.profile, &peer_profile, LinkPurpose::Data);
            for method in methods {
                let built = self
                    .try_method(
                        method,
                        &rec,
                        &peer_profile,
                        &link.spec,
                        anchor.channel,
                        Some(&plan),
                    )
                    .and_then(|(raw, total)| {
                        self.build_link_io(raw, total, &link.spec, Some(chans.len()))
                    });
                let (io, deliveries) = match built {
                    Ok(x) => x,
                    Err(e) => {
                        if std::env::var("NETGRID_DEBUG").is_ok() {
                            eprintln!("[netgrid] recovery method {method} failed: {e}");
                        }
                        last_err = e;
                        continue;
                    }
                };
                // Validate every channel's replay BEFORE swapping the
                // stack in: a resume-bounds violation (evicted gap,
                // impossible watermark) is fatal and must not be retried.
                let mut replays = Vec::with_capacity(chans.len());
                let mut fatal = Ok(());
                for (c, &e) in chans.iter().zip(&deliveries) {
                    match c.prepare_replay(e) {
                        Ok(r) => replays.push(r),
                        Err(err) => {
                            fatal = Err(err);
                            break;
                        }
                    }
                }
                fatal?;
                let active = io.active as u16;
                match self.swap_and_replay(link, io, &chans, &replays) {
                    Ok(()) => {
                        link.set_method(method);
                        // Live path parameters reset to the establishment
                        // spec (with the stripe count the method actually
                        // delivered — routed links carry one stream). The
                        // epoch is NOT rewound; the path controller
                        // re-issues its tuning from scratch.
                        link.set_path_params(PathParams {
                            stripes: active.max(1),
                            ..link.spec.path
                        });
                        link.bump_incarnation();
                        return Ok(());
                    }
                    Err(e) => {
                        // Replay write failure: the fresh link died too.
                        // Messages stay retained; fall into another attempt.
                        last_err = e;
                    }
                }
            }
        }
        Err(io::Error::new(
            last_err.kind(),
            format!(
                "could not recover link to '{peer_desc}' after {RECOVER_ATTEMPTS} attempts: {last_err}"
            ),
        ))
    }

    /// Swap the fresh stack in and replay every channel's retained gap
    /// through it, all under the write gate so concurrent senders observe
    /// either the dead stack or the fully replayed one.
    fn swap_and_replay(
        &self,
        link: &Arc<SharedLink>,
        mut new_io: LinkIo,
        chans: &[Arc<Channel>],
        replays: &[Vec<bytes::Bytes>],
    ) -> io::Result<()> {
        // A resumed link re-negotiates framing by channel count: back to
        // the legacy byte format when one channel remains, tagged when
        // several do (the resume preamble already told the receiver).
        new_io.mux = chans.len() > 1;
        let mut io = link.io();
        *io = new_io;
        for (c, msgs) in chans.iter().zip(replays) {
            for p in msgs {
                io.write_msg(c.channel, p)?;
            }
        }
        Ok(())
    }

    /// Attempt one establishment method; returns the raw links in stream
    /// order plus the effective stream count.
    fn try_method(
        &self,
        method: EstablishMethod,
        rec: &PortRecord,
        peer_profile: &ConnectivityProfile,
        spec: &StackSpec,
        channel: u64,
        resume: Option<&ResumePlan>,
    ) -> io::Result<(Vec<RawLink>, u16)> {
        match method {
            EstablishMethod::ClientServer => {
                let listener = rec.listener.ok_or_else(|| {
                    io::Error::new(io::ErrorKind::AddrNotAvailable, "port has no listener")
                })?;
                let mut links = Vec::with_capacity(spec.streams() as usize);
                for idx in 0..spec.streams() {
                    // Storm hardening: transient ephemeral-port exhaustion
                    // (AddrInUse) retries outside the NAT gate, so a
                    // symmetric-NAT node never sleeps while holding it.
                    let s = crate::establish::factory::retry_addr_in_use(|| {
                        self.nat_gated(|| self.inner.host.connect(listener))
                    })?;
                    self.send_preamble(&s, channel, idx, spec.streams(), resume)?;
                    links.push(RawLink::Tcp(s));
                }
                Ok((links, spec.streams()))
            }
            EstablishMethod::Proxy => {
                let listener = rec.listener.ok_or_else(|| {
                    io::Error::new(io::ErrorKind::AddrNotAvailable, "port has no listener")
                })?;
                // Use the target's site proxy to reach inward; fall back to
                // our own proxy for a strictly firewalled initiator.
                let proxy = if !peer_profile.accepts_inbound() {
                    peer_profile.socks_proxy
                } else {
                    self.inner.profile.socks_proxy
                }
                .ok_or_else(|| {
                    io::Error::new(io::ErrorKind::AddrNotAvailable, "no SOCKS proxy available")
                })?;
                let mut links = Vec::with_capacity(spec.streams() as usize);
                for idx in 0..spec.streams() {
                    let s = self.nat_gated(|| socks_connect(&self.inner.host, proxy, listener))?;
                    self.send_preamble(&s, channel, idx, spec.streams(), resume)?;
                    links.push(RawLink::Tcp(s));
                }
                Ok((links, spec.streams()))
            }
            EstablishMethod::Splicing => {
                // NAT port prediction races with any concurrent outbound
                // traffic on the same site (each connection consumes
                // mappings); like real NAT-traversal systems, retry with a
                // staggered backoff before falling back down the tree.
                let mut last = None;
                for attempt in 0..3u32 {
                    if attempt > 0 {
                        let stagger =
                            Duration::from_millis(200 * attempt as u64 + (channel % 7) * 50);
                        gridsim_net::ctx::sleep(stagger);
                    }
                    match self.splice_initiate(rec, spec, channel, resume) {
                        Ok(links) => return Ok((links, spec.streams())),
                        Err(e) => last = Some(e),
                    }
                }
                Err(last.expect("at least one attempt"))
            }
            EstablishMethod::Routed => {
                let relay = self.relay()?;
                let wire_channel = match resume {
                    Some(p) if !p.extras.is_empty() => channel | RESUME_FLAG | MUX_FLAG,
                    Some(_) => channel | RESUME_FLAG,
                    None => channel,
                };
                let stream = relay.open_stream(rec.owner, &rec.name, wire_channel)?;
                if let Some(p) = resume {
                    // The generation (and mux channel list) travels as the
                    // first stream frame (the OPEN frame layout stays
                    // untouched).
                    let mut w = stream.clone();
                    let mut fw = FrameWriter::new().u64(p.gen);
                    if !p.extras.is_empty() {
                        fw = fw.u64(p.extras.len() as u64);
                        for (ch, name) in &p.extras {
                            fw = fw.u64(*ch).str(name);
                        }
                    }
                    fw.send(&mut w)?;
                }
                Ok((vec![RawLink::Routed(stream)], 1))
            }
        }
    }

    fn relay(&self) -> io::Result<&RelayClient> {
        self.inner.relay.as_ref().ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::AddrNotAvailable,
                "no relay configured (needed for brokering/routing)",
            )
        })
    }

    fn send_preamble(
        &self,
        s: &TcpStream,
        channel: u64,
        idx: u16,
        total: u16,
        resume: Option<&ResumePlan>,
    ) -> io::Result<()> {
        s.set_nodelay(true)?;
        let mut w = s.clone();
        let wire_channel = match resume {
            Some(p) if !p.extras.is_empty() => channel | RESUME_FLAG | MUX_FLAG,
            Some(_) => channel | RESUME_FLAG,
            None => channel,
        };
        let mut fw = FrameWriter::new()
            .u64(wire_channel)
            .u64(idx as u64)
            .u64(total as u64);
        if let Some(p) = resume {
            fw = fw.u64(p.gen);
            if !p.extras.is_empty() {
                fw = fw.u64(p.extras.len() as u64);
                for (ch, name) in &p.extras {
                    fw = fw.u64(*ch).str(name);
                }
            }
        }
        fw.send(&mut w)
    }

    /// TCP configuration used for spliced connects: bounded retries so a
    /// failed prediction falls through to a retry or the next method in a
    /// few seconds.
    fn splice_cfg(&self) -> TcpConfig {
        TcpConfig {
            syn_retries: 2,
            ..self.inner.host.tcp_config()
        }
    }

    /// Compute the public endpoints peers must dial for our upcoming
    /// connects from `local_ports` (paper §6's NAT port prediction).
    fn predict_endpoints(&self, local_ports: &[u16]) -> io::Result<Vec<SockAddr>> {
        match self.inner.profile.nat {
            None => Ok(local_ports
                .iter()
                .map(|&p| SockAddr::new(self.inner.host.ip(), p))
                .collect()),
            Some(NatClass::Cone) => {
                // One probe per port: the cone mapping persists for any
                // destination.
                local_ports
                    .iter()
                    .map(|&p| self.inner.ns.probe_observed(Some(p), false))
                    .collect()
            }
            Some(NatClass::SymmetricPredictable) => {
                // One probe from an ephemeral port reveals the allocation
                // counter; our next `n` outbound connections (in order)
                // will take the following ports.
                let observed = self.inner.ns.probe_observed(None, false)?;
                Ok((0..local_ports.len() as u16)
                    .map(|i| SockAddr::new(observed.ip, observed.port + 1 + i))
                    .collect())
            }
            Some(NatClass::SymmetricRandom) => Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "unpredictable NAT: splicing not possible",
            )),
        }
    }

    /// Initiator side of brokered TCP splicing (paper Fig. 7), three
    /// messages over the service link:
    ///
    /// 1. `SPLICE_REQ {channel, port, total}` — the responder predicts its
    ///    public endpoints (holding its NAT gate if NATted) and replies.
    /// 2. The initiator predicts its own endpoints and **emits its SYNs
    ///    before releasing its NAT gate** — the predict→SYN window is
    ///    therefore race-free on this side.
    /// 3. `SPLICE_GO {channel, initiator endpoints}` — the responder
    ///    connects (and releases its gate).
    fn splice_initiate(
        &self,
        rec: &PortRecord,
        spec: &StackSpec,
        channel: u64,
        resume: Option<&ResumePlan>,
    ) -> io::Result<Vec<RawLink>> {
        let relay = self.relay()?.clone();
        let total = spec.streams();
        // During recovery the responder may have died mid-negotiation;
        // bound the brokering round-trips so the tree can fall through.
        let svc_timeout = resume.map(|_| RECOVER_SVC_TIMEOUT);
        // 1. Request: responder allocates + predicts.
        let req = FrameWriter::new()
            .u8(svc::SPLICE_REQ)
            .u64(channel)
            .str(&rec.name)
            .u64(total as u64)
            .into_bytes();
        let rsp = relay.service_request_timeout(rec.owner, &req, svc_timeout)?;
        let mut r = FrameReader::new(&rsp);
        if r.u8()? != 1 {
            let msg = r.str().unwrap_or_default();
            return Err(io::Error::new(
                io::ErrorKind::ConnectionRefused,
                format!("splice refused: {msg}"),
            ));
        }
        let n = r.u64()? as usize;
        if n != total as usize {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "endpoint count mismatch",
            ));
        }
        let peer_eps: Vec<SockAddr> = (0..n).map(|_| r.addr()).collect::<io::Result<_>>()?;

        // 2. Predict and emit SYNs under the NAT gate.
        let natted = self.nat_serializes();
        if natted {
            self.inner.nat_gate.acquire();
        }
        let launched = (|| -> io::Result<(Vec<TcpStream>, Vec<SockAddr>)> {
            let my_ports = self.alloc_splice_ports(total);
            let my_eps = self.predict_endpoints(&my_ports)?;
            let cfg = self.splice_cfg();
            let mut streams = Vec::with_capacity(total as usize);
            for (&lp, &ep) in my_ports.iter().zip(&peer_eps) {
                streams.push(self.inner.host.connect_start(
                    ep,
                    ConnectOpts {
                        local_port: Some(lp),
                        cfg: Some(cfg),
                    },
                )?);
            }
            Ok((streams, my_eps))
        })();
        if natted {
            self.inner.nat_gate.release();
        }
        let (streams, my_eps) = match launched {
            Ok(x) => x,
            Err(e) => {
                // Tell the responder to abandon the negotiation (it may be
                // holding its NAT gate).
                let abort = FrameWriter::new()
                    .u8(svc::SPLICE_ABORT)
                    .u64(channel)
                    .into_bytes();
                let _ = relay.service_request(rec.owner, &abort);
                return Err(e);
            }
        };

        // 3. GO: the responder connects towards us.
        let mut go = FrameWriter::new()
            .u8(svc::SPLICE_GO)
            .u64(channel)
            .u64(my_eps.len() as u64);
        for ep in &my_eps {
            go = go.addr(*ep);
        }
        let go_rsp = relay.service_request_timeout(rec.owner, &go.into_bytes(), svc_timeout)?;
        let mut r = FrameReader::new(&go_rsp);
        if r.u8()? != 1 {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionRefused,
                "splice GO refused",
            ));
        }

        // Wait for establishment, then send the stream preambles.
        let mut links = Vec::with_capacity(streams.len());
        for (idx, stream) in streams.into_iter().enumerate() {
            stream.wait_established()?;
            self.send_preamble(&stream, channel, idx as u16, total, resume)?;
            links.push(RawLink::Tcp(stream));
        }
        Ok(links)
    }

    // -------------------------------------------- responder-side splice

    /// Handle `SPLICE_REQ`: allocate ports, predict endpoints (taking the
    /// NAT gate, held until GO/ABORT), reply with the predictions.
    fn handle_splice_request(&self, _from: GridId, r: &mut FrameReader<'_>) -> io::Result<Vec<u8>> {
        let channel = r.u64()?;
        let port_name = r.str()?;
        let total = r.u64()? as u16;
        if total == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "bad splice request",
            ));
        }
        let port = self
            .inner
            .ports
            .lock()
            .get(&port_name)
            .cloned()
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "unknown receive port"))?;
        if !self.inner.profile.splice_capable() {
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "this side cannot splice",
            ));
        }
        // A duplicate REQ for the same channel is a retry whose response
        // was lost to a relay failover: drop the stale negotiation (and
        // its gate hold) instead of deadlocking on a second acquire.
        if let Some(p) = self.inner.pending_splices.lock().remove(&channel) {
            if p.holds_gate {
                self.inner.nat_gate.release();
            }
        }
        let natted = self.nat_serializes();
        if natted {
            self.inner.nat_gate.acquire();
        }
        let predicted = (|| -> io::Result<(Vec<u16>, Vec<SockAddr>)> {
            let my_ports = self.alloc_splice_ports(total);
            let eps = self.predict_endpoints(&my_ports)?;
            Ok((my_ports, eps))
        })();
        let (my_ports, my_endpoints) = match predicted {
            Ok(x) => x,
            Err(e) => {
                if natted {
                    self.inner.nat_gate.release();
                }
                return Err(e);
            }
        };
        self.inner.pending_splices.lock().insert(
            channel,
            PendingSplice {
                port,
                my_ports,
                total,
                holds_gate: natted,
            },
        );
        let mut w = FrameWriter::new().u8(1).u64(my_endpoints.len() as u64);
        for ep in &my_endpoints {
            w = w.addr(*ep);
        }
        Ok(w.into_bytes())
    }

    /// Handle `SPLICE_GO`: emit our SYNs towards the initiator's endpoints
    /// (mappings land on the predicted ports because the gate was held
    /// since REQ), then release the gate.
    fn handle_splice_go(&self, _from: GridId, r: &mut FrameReader<'_>) -> io::Result<Vec<u8>> {
        let channel = r.u64()?;
        let n = r.u64()? as usize;
        let peer_eps: Vec<SockAddr> = (0..n).map(|_| r.addr()).collect::<io::Result<_>>()?;
        let pending = self
            .inner
            .pending_splices
            .lock()
            .remove(&channel)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "no pending splice"))?;
        let result = (|| -> io::Result<()> {
            if peer_eps.len() != pending.total as usize || peer_eps.len() != pending.my_ports.len()
            {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "endpoint count mismatch",
                ));
            }
            let cfg = self.splice_cfg();
            let sched = self.inner.env.net.sched().clone();
            for (i, (&lp, &ep)) in pending.my_ports.iter().zip(&peer_eps).enumerate() {
                let stream = self.inner.host.connect_start(
                    ep,
                    ConnectOpts {
                        local_port: Some(lp),
                        cfg: Some(cfg),
                    },
                )?;
                let node = self.clone();
                let port = Arc::clone(&pending.port);
                sched.spawn_daemon(format!("splice-accept-{i}"), move || {
                    if stream.wait_established().is_err() {
                        return;
                    }
                    let _ = node.handle_spliced_stream(&port, stream);
                });
            }
            Ok(())
        })();
        if pending.holds_gate {
            self.inner.nat_gate.release();
        }
        result.map(|()| FrameWriter::new().u8(1).into_bytes())
    }

    /// Handle `CACK{channel, delivered}` from a receive port: advance the
    /// matching send channel's cumulative-ack watermark. Unknown channels
    /// (already closed) still ack — the frame is advisory and a stale CACK
    /// needs no error.
    fn handle_cack(&self, r: &mut FrameReader<'_>) -> io::Result<Vec<u8>> {
        let channel = r.u64()?;
        let delivered = r.u64()?;
        if let Some(cell) = self.inner.ack_cells.lock().get(&channel) {
            cell.advance(delivered);
        }
        Ok(FrameWriter::new().u8(1).into_bytes())
    }

    /// Handle `SPLICE_ABORT`: drop the pending negotiation and free the gate.
    fn handle_splice_abort(&self, r: &mut FrameReader<'_>) -> io::Result<Vec<u8>> {
        let channel = r.u64()?;
        if let Some(p) = self.inner.pending_splices.lock().remove(&channel) {
            if p.holds_gate {
                self.inner.nat_gate.release();
            }
        }
        Ok(FrameWriter::new().u8(1).into_bytes())
    }

    fn handle_spliced_stream(
        &self,
        port: &Arc<ReceivePortInner>,
        stream: TcpStream,
    ) -> io::Result<()> {
        // Same as an accepted connection: read the initiator's preamble.
        self.handle_incoming_tcp(port, stream)
    }
}

/// Decode the resume preamble's extra-channel list: `n`, then `n` pairs of
/// `(channel id, receive-port name)`.
fn read_mux_extras(fr: &mut FrameReader<'_>) -> io::Result<Vec<(u64, String)>> {
    let n = fr.u64()?;
    if n > MAX_MUX_CHANNELS {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "mux channel list too long",
        ));
    }
    let mut extras = Vec::with_capacity(n as usize);
    for _ in 0..n {
        let ch = fr.u64()?;
        let name = fr.str()?;
        extras.push((ch, name));
    }
    Ok(extras)
}

/// Service-message opcodes (carried in SVC_REQ payloads).
pub(crate) mod svc {
    pub const SPLICE_REQ: u8 = 1;
    pub const SPLICE_GO: u8 = 2;
    pub const SPLICE_ABORT: u8 = 3;
    /// Receiver-driven cumulative ack: `CACK {channel, delivered}`.
    pub const CACK: u8 = 4;
}

/// The relay delegate: routes service requests and routed-link opens into
/// the node runtime.
struct NodeDelegate {
    inner: Weak<NodeInner>,
}

impl NodeDelegate {
    fn node(&self) -> Option<GridNode> {
        self.inner.upgrade().map(|inner| GridNode { inner })
    }
}

impl RelayDelegate for NodeDelegate {
    fn on_service_request(&self, from: GridId, payload: &[u8]) -> Vec<u8> {
        let Some(node) = self.node() else {
            return FrameWriter::new().u8(0).str("node gone").into_bytes();
        };
        let mut r = FrameReader::new(payload);
        let result = match r.u8() {
            Ok(svc::SPLICE_REQ) => node.handle_splice_request(from, &mut r),
            Ok(svc::SPLICE_GO) => node.handle_splice_go(from, &mut r),
            Ok(svc::SPLICE_ABORT) => node.handle_splice_abort(&mut r),
            Ok(svc::CACK) => node.handle_cack(&mut r),
            _ => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "unknown service request",
            )),
        };
        match result {
            Ok(rsp) => rsp,
            Err(e) => FrameWriter::new().u8(0).str(&e.to_string()).into_bytes(),
        }
    }

    fn on_open(
        &self,
        _from: GridId,
        port_name: &str,
        channel: u64,
        stream: RoutedStream,
    ) -> Result<(), String> {
        let Some(node) = self.node() else {
            return Err("node gone".into());
        };
        let port = node
            .inner
            .ports
            .lock()
            .get(port_name)
            .cloned()
            .ok_or_else(|| format!("unknown receive port '{port_name}'"))?;
        if channel & RESUME_FLAG != 0 {
            // Resumed routed link: the generation (and mux channel list)
            // is the first stream frame.
            let mut r = stream.clone();
            let frame = read_frame(&mut r).map_err(|e| e.to_string())?;
            let mut fr = FrameReader::new(&frame);
            let gen = fr.u64().map_err(|e| e.to_string())?;
            let extras = if channel & MUX_FLAG != 0 {
                read_mux_extras(&mut fr).map_err(|e| e.to_string())?
            } else {
                Vec::new()
            };
            port.add_resume_link(
                &node.ctx(),
                channel & !(RESUME_FLAG | MUX_FLAG),
                0,
                1,
                ResumeMeta { gen, extras },
                RawLink::Routed(stream),
            )
            .map_err(|e| e.to_string())
        } else {
            port.add_raw_link(&node.ctx(), channel, 0, 1, RawLink::Routed(stream))
                .map_err(|e| e.to_string())
        }
    }
}

/// Does the link have bytes (or a pending error/EOF) to read right now?
fn link_readable(l: &RawLink) -> bool {
    match l {
        RawLink::Tcp(s) => s.readable(),
        RawLink::Routed(s) => s.readable(),
    }
}

/// Block the calling task until `cond` holds or `timeout` elapses; polls at
/// the given interval. A pragmatic helper for tests and examples.
pub fn wait_until(timeout: Duration, poll: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = gridsim_net::ctx::now() + timeout;
    while gridsim_net::ctx::now() < deadline {
        if cond() {
            return true;
        }
        gridsim_net::ctx::sleep(poll);
    }
    cond()
}

//! The four workloads, each one closed loop driven through the public
//! `netgrid` API, and what one repetition of a workload measures.
//!
//! A repetition has two phases. Set-up builds the world from the seed,
//! starts the name service and the relay and joins the nodes that exist
//! before the load starts; its host time is `setup_s`. The measured phase
//! is one `run` of the scheduler on the calling (scheduler) thread; its
//! wall time is the denominator of every `host_*` metric and of the layer
//! shares. Every operation is checked: sequence-tagged exactly-once FIFO,
//! echo or payload bytes, and byte totals. A violation counts as a failed
//! operation, never as a panic.

use crate::probe::{self, CLOSE, CONNECT, JOIN, RECEIVE, SEND};
use crate::replay;
use gridsim_net::{
    topology, FaultPlan, LinkParams, NatKind, Net, RunOutcome, Sim, SimTime, SockAddr,
};
use gridsim_tcp::{SimHost, TcpConfig};
use netgrid::{
    spawn_name_service, spawn_relay_mesh, ConnectivityProfile, CpuRates, EstablishMethod, GridEnv,
    GridNode, NatClass, PathControlConfig, PathParams, ReceivePort, RelayConfig, SendPort,
    StackSpec,
};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

const NS_PORT: u16 = 563;
const RELAY_PORT: u16 = 600;
/// End-of-stream sentinel sequence number.
const DONE: u64 = u64::MAX;
/// Seeded spread of each generated link's capacity and delay around the
/// workload's nominal path (±1%): seeds give distinct topologies whose
/// simulated figures stay comparable.
const JITTER: f64 = 0.01;

/// What one repetition measured.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metrics of this repetition (orchestrator takes medians
    /// of the `host_*`, `setup_s` and `peak_rss_mb` rows; `sim_*` rows
    /// must repeat exactly).
    pub e2e: Vec<(String, f64)>,
    /// Measured-phase host seconds (for `trace.overhead`).
    pub host_s: f64,
    /// Per-layer metrics; empty unless traced.
    pub layers: Vec<(String, f64)>,
}

/// The seed's topology generator (SplitMix64).
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A factor in `[1 - JITTER, 1 + JITTER]`.
    fn factor(&mut self) -> f64 {
        let unit = (self.next() >> 11) as f64 / (1u64 << 53) as f64;
        1.0 + JITTER * (2.0 * unit - 1.0)
    }
}

/// Nearest-rank percentile of an unsorted sample, in milliseconds.
fn percentile_ms(samples: &[Duration], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v: Vec<Duration> = samples.to_vec();
    v.sort();
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1].as_secs_f64() * 1e3
}

fn method_metric(m: EstablishMethod) -> &'static str {
    match m {
        EstablishMethod::ClientServer => "core.establish.method.client_server",
        EstablishMethod::Splicing => "core.establish.method.splice",
        EstablishMethod::Proxy => "core.establish.method.proxy",
        EstablishMethod::Routed => "core.establish.method.routed",
    }
}

/// Session-layer and port probes read from the nodes and send ports of
/// one workload, summed (peaks: max) over them.
#[derive(Default)]
struct Probes {
    methods: BTreeMap<&'static str, u64>,
    walks: u64,
    data_links: u64,
    open_frames: u64,
    busy_throttles: u64,
    pool_hits: u64,
    pool_misses: u64,
    resend_peak: u64,
    reconfig_epochs: u64,
    final_stripes: u64,
    final_compression: f64,
    retransmits: u64,
    srtt_ms: f64,
}

impl Probes {
    /// Read a node's session-layer probes while its links are up.
    fn node(&mut self, n: &GridNode) {
        self.walks += n.establishment_walks();
        self.data_links += n.data_link_count() as u64;
        self.open_frames += n.open_control_frames();
    }

    fn port(&mut self, sp: &SendPort) {
        let s = sp.pool_stats();
        self.pool_hits += s.hits;
        self.pool_misses += s.misses;
        for (_, peak) in sp.resend_stats() {
            self.resend_peak = self.resend_peak.max(peak as u64);
        }
    }

    fn metrics(&self, out: &mut Vec<(String, f64)>) {
        for m in [
            EstablishMethod::ClientServer,
            EstablishMethod::Splicing,
            EstablishMethod::Proxy,
            EstablishMethod::Routed,
        ] {
            let name = method_metric(m);
            out.push((name.into(), *self.methods.get(name).unwrap_or(&0) as f64));
        }
        out.push(("core.establish.walks".into(), self.walks as f64));
        out.push(("core.session.data_links".into(), self.data_links as f64));
        out.push((
            "core.session.open_control_frames".into(),
            self.open_frames as f64,
        ));
        out.push((
            "core.relay.busy_throttles".into(),
            self.busy_throttles as f64,
        ));
        let checkouts = self.pool_hits + self.pool_misses;
        out.push((
            "core.port.pool_hit_ratio".into(),
            if checkouts > 0 {
                self.pool_hits as f64 / checkouts as f64
            } else {
                0.0
            },
        ));
        out.push((
            "core.port.resend_peak_bytes".into(),
            self.resend_peak as f64,
        ));
        out.push((
            "core.tune.reconfig_epochs".into(),
            self.reconfig_epochs as f64,
        ));
        out.push(("core.tune.final_stripes".into(), self.final_stripes as f64));
        out.push(("core.tune.final_compression".into(), self.final_compression));
        out.push(("simtcp.retransmits".into(), self.retransmits as f64));
        out.push(("simtcp.srtt_ms".into(), self.srtt_ms));
    }
}

/// Start the name service and one relay (a sharded relay with no mesh
/// peers) on the public services host.
fn start_services(sim: &Sim, net: &Net, host: gridsim_net::NodeId) -> (SimHost, SockAddr) {
    let h = SimHost::new(net, host);
    let relay = SockAddr::new(h.ip(), RELAY_PORT);
    let h2 = h.clone();
    sim.spawn("services", move || {
        spawn_name_service(&h2, NS_PORT).expect("name service starts");
        spawn_relay_mesh(&h2, RELAY_PORT, RelayConfig::default()).expect("relay starts");
    });
    (h, relay)
}

/// The measured phase of one repetition.
struct Measured {
    host_s: f64,
    /// The scheduler went idle: every task finished.
    idle: bool,
    /// Shares of `host_s` spent in events and in task slices (traced only).
    shares: (f64, f64),
}

/// Run the measured phase to completion; when traced, also append the
/// engine rows to `layers`.
fn measured_run(sim: &Sim, net: &Net, layers: &mut Vec<(String, f64)>) -> Measured {
    let a = probe::snapshot(net);
    let t0 = Instant::now();
    let outcome = sim.run_until(SimTime::MAX);
    let host_s = t0.elapsed().as_secs_f64();
    let mut shares = (0.0, 0.0);
    if probe::enabled() {
        let b = probe::snapshot(net);
        shares = probe::engine_metrics(&a, &b, host_s * 1e9, layers);
        layers.push(("alloc.count".into(), probe::allocs_between(&a, &b)));
    }
    Measured {
        host_s,
        idle: matches!(outcome, RunOutcome::Idle),
        shares,
    }
}

// ------------------------------------------------------------- streams

/// One channel carrying a closed loop of fixed-size messages.
struct Stream {
    /// Bottleneck (sender uplink) capacity, bytes/s.
    capacity: f64,
    rtt: Duration,
    queue: u32,
    /// OS socket buffers on both ends.
    window: u32,
    rates: CpuRates,
    spec: StackSpec,
    /// Live path parameters applied right after connect.
    start: Option<PathParams>,
    control: Option<PathControlConfig>,
    /// Capacity ramp on the bottleneck: (start, target bytes/s, length,
    /// steps), relative to the start of the measured phase.
    ramp: Option<(Duration, f64, Duration, u32)>,
    msg: usize,
    /// Messages to send, or the simulated time to keep sending for.
    limit: Limit,
}

enum Limit {
    Messages(u64),
    SimTime(Duration),
}

/// What the stream tasks report back.
#[derive(Default)]
struct StreamLog {
    connect: Option<Duration>,
    ready: Option<SimTime>,
    sent_at: Vec<SimTime>,
    recv_at: Vec<SimTime>,
    send_failed: bool,
    bad: u64,
    probes: Probes,
}

fn stream(s: &Stream, seed: u64) -> Outcome {
    let traced = probe::enabled();
    let t_setup = Instant::now();
    let sim = Sim::new(seed);
    let net = sim.net();
    let mut g = Gen(seed);
    let half = s.rtt.mul_f64(g.factor()) / 4;
    let bottleneck = LinkParams::new(s.capacity * g.factor(), half).with_queue(s.queue);
    let fat = LinkParams::new(1e9, half).with_queue(8 << 20);
    let (srv, a, b) = net.with(|w| {
        let mut grid = topology::Grid::build(
            w,
            &[
                topology::SiteSpec::open("send-site", 1, bottleneck),
                topology::SiteSpec::open("recv-site", 1, fat),
            ],
        );
        let (srv, _) = grid.add_public_host(w, "services");
        (srv, grid.sites[0].hosts[0], grid.sites[1].hosts[0])
    });
    let (hsrv, relay) = start_services(&sim, &net, srv);
    let (ha, hb) = (SimHost::new(&net, a), SimHost::new(&net, b));
    let cfg = TcpConfig {
        send_buf: s.window,
        recv_buf: s.window,
        ..TcpConfig::default()
    };
    ha.set_tcp_config(cfg);
    hb.set_tcp_config(cfg);
    let mut env = GridEnv::new(net.clone(), SockAddr::new(hsrv.ip(), NS_PORT))
        .with_relay(relay)
        .with_rates(s.rates);
    if let Some(c) = s.control {
        env = env.with_path_control(c);
    }
    sim.run();

    type Joined = Option<(GridNode, ReceivePort, GridNode)>;
    let joined: Arc<Mutex<Joined>> = Arc::new(Mutex::new(None));
    {
        let (env, joined, spec) = (env.clone(), Arc::clone(&joined), s.spec.clone());
        sim.spawn("join", move || {
            let open = ConnectivityProfile::open;
            let rnode = JOIN
                .time(|| GridNode::join(&env, hb, "recv", open()))
                .expect("receiver joins");
            let rp = rnode
                .create_receive_port("stream", spec)
                .expect("receive port registers");
            let snode = JOIN
                .time(|| GridNode::join(&env, ha.clone(), "send", open()))
                .expect("sender joins");
            *joined.lock() = Some((rnode, rp, snode));
        });
    }
    sim.run();
    let (rnode, rp, snode) = joined.lock().take().expect("set-up finished");
    let setup_s = t_setup.elapsed().as_secs_f64();

    // ---- measured phase
    if let Some((at, to, over, steps)) = s.ramp {
        net.with(|w| {
            let mut plan = FaultPlan::new();
            for l in w.path_links(a, b) {
                if w.link_mut(l).params.bandwidth_bps <= s.capacity * 1.5 {
                    plan = plan.bandwidth_ramp(at, l, to, over, steps);
                }
            }
            w.install_faults(plan);
        });
    }
    let packets = traced.then(|| probe::install_tracer(&net, relay));
    let payload = Arc::new(gridzip::synth::grid_payload(
        s.msg,
        gridzip::synth::GRID_REDUNDANCY,
        seed,
    ));
    let log = Arc::new(Mutex::new(StreamLog::default()));
    {
        let (log, payload) = (Arc::clone(&log), Arc::clone(&payload));
        sim.spawn("receiver", move || {
            let mut expect = 0u64;
            loop {
                let Ok(mut m) = RECEIVE.time(|| rp.receive()) else {
                    log.lock().bad += 1;
                    break;
                };
                match m.read_u64() {
                    Ok(DONE) => break,
                    Ok(seq) if seq == expect && m.remaining() == payload.as_slice() => {
                        log.lock().recv_at.push(gridsim_net::ctx::now());
                        expect += 1;
                    }
                    // Out of order, duplicated, corrupted or truncated.
                    _ => log.lock().bad += 1,
                }
            }
            rp.close();
        });
    }
    let start = sim.now();
    {
        let (log, payload) = (Arc::clone(&log), Arc::clone(&payload));
        let limit = match s.limit {
            Limit::Messages(n) => (n, Duration::MAX),
            Limit::SimTime(d) => (u64::MAX, d),
        };
        let params = s.start;
        sim.spawn("sender", move || {
            let now = gridsim_net::ctx::now;
            let mut sp = snode.create_send_port();
            let t0 = now();
            let method = match CONNECT.time(|| sp.connect("stream")) {
                Ok(m) => m,
                Err(_) => {
                    log.lock().send_failed = true;
                    return;
                }
            };
            let mut l = log.lock();
            l.connect = Some(now().since(t0));
            *l.probes.methods.entry(method_metric(method)).or_insert(0) += 1;
            drop(l);
            if let Some(p) = params {
                if sp.reconfigure(p).is_err() {
                    log.lock().send_failed = true;
                }
            }
            let begin = now();
            log.lock().ready = Some(begin);
            let mut i = 0u64;
            while i < limit.0 && now().since(begin) < limit.1 {
                log.lock().sent_at.push(now());
                let r = SEND.time(|| {
                    let mut m = sp.message();
                    m.write_u64(i);
                    m.write_bytes(&payload);
                    m.finish()
                });
                i += 1;
                if r.is_err() {
                    log.lock().send_failed = true;
                    break;
                }
            }
            {
                let mut l = log.lock();
                let p = &mut l.probes;
                p.node(&snode);
                p.port(&sp);
                p.busy_throttles += snode.relay_busy_throttles();
                if let Some(params) = sp.path_params(0) {
                    p.final_stripes = params.stripes as u64;
                    p.final_compression = params.compression_level.map_or(-1.0, f64::from);
                }
                p.reconfig_epochs = sp.path_epoch(0).unwrap_or(0);
                if let Some(last) = sp.path_telemetry(0).and_then(|t| t.last().copied()) {
                    p.retransmits = last.rtx_events();
                    p.srtt_ms = last.srtt_micros as f64 / 1e3;
                }
            }
            let mut m = sp.message();
            m.write_u64(DONE);
            if m.finish().is_err() || CLOSE.time(|| sp.close()).is_err() {
                log.lock().send_failed = true;
            }
        });
    }
    let mut layers = Vec::new();
    let m = measured_run(&sim, &net, &mut layers);
    let host_s = m.host_s;

    let mut l = log.lock();
    l.probes.walks += rnode.establishment_walks();
    let sent = l.sent_at.len() as u64;
    let ok = l.recv_at.len() as u64;
    let attempted = sent.max(1);
    let failed = (sent - ok.min(sent)) + l.bad + u64::from(l.send_failed || !m.idle);
    let bytes = (ok * s.msg as u64) as f64;
    let latencies: Vec<Duration> = l
        .recv_at
        .iter()
        .zip(&l.sent_at)
        .map(|(r, s)| r.since(*s))
        .collect();
    let first = l.sent_at.first().copied().unwrap_or(start);
    let last = l.recv_at.last().copied().unwrap_or(first);
    let sim_span = last.since(first).as_secs_f64();
    let connect_ms = l.connect.unwrap_or_default().as_secs_f64() * 1e3;
    let ready_ms = l.ready.map_or(0.0, |t| t.since(start).as_secs_f64() * 1e3);

    let mut out = Outcome {
        attempted,
        failed,
        host_s,
        ..Outcome::default()
    };
    out.e2e = vec![
        ("host_mb_s".into(), bytes / host_s / 1e6),
        ("host_calls_s".into(), ok as f64 / host_s),
        ("setup_s".into(), setup_s),
        ("sim_goodput_mb_s".into(), bytes / sim_span / 1e6),
        ("sim_rpc_ms_p50".into(), percentile_ms(&latencies, 0.50)),
        ("sim_rpc_ms_p99".into(), percentile_ms(&latencies, 0.99)),
        ("sim_connect_ms_p50".into(), connect_ms),
        ("sim_storm_setup_ms".into(), ready_ms),
        ("samples.calls".into(), latencies.len() as f64),
        ("samples.connects".into(), 1.0),
    ];
    if let Some(pk) = packets {
        pk.metrics(bytes, &mut layers);
        l.probes.metrics(&mut layers);
    }
    drop(l);
    drop(sim);
    out.e2e.push(("peak_rss_mb".into(), probe::peak_rss_mb()));
    if traced {
        let load = replay::Load {
            message: payload.to_vec(),
            block: s.spec.block_size() as usize,
            streams: s.spec.streams() as usize,
            compression: s
                .spec
                .compress()
                .or(s.start.and_then(|p| p.compression_level)),
            secure: s.spec.secure,
            bytes,
            fixed_stack: s.control.is_none(),
        };
        out.failed += finish_trace(&mut layers, &load, &m);
        out.layers = layers;
    }
    out
}

/// Span rows, allocations per MiB and the replayed kernel rows.
fn finish_trace(layers: &mut Vec<(String, f64)>, load: &replay::Load, m: &Measured) -> u64 {
    probe::span_metrics(layers);
    for (name, v) in layers.iter_mut() {
        if name == "alloc.count" {
            *name = "alloc.per_mib".into();
            *v /= load.bytes / (1 << 20) as f64;
        }
    }
    replay::run(load, m.host_s, m.shares, layers)
}

// ------------------------------------------------------------ rpc storm

/// Clients joining in the storm; half behind a full-cone NAT (spliced),
/// half behind a random-port symmetric NAT (routed through the relay).
const STORM_CLIENTS: usize = 16;
/// Echo calls per client after its warm-up call.
const STORM_CALLS: u64 = 128;
/// Request and reply payload bytes per call.
const STORM_MSG: usize = 256;

#[derive(Default)]
struct StormLog {
    connects: Vec<Duration>,
    ready: Vec<SimTime>,
    rtts: Vec<Duration>,
    done_at: Option<SimTime>,
    ok: u64,
    bad: u64,
    probes: Probes,
}

fn storm(seed: u64) -> Outcome {
    let traced = probe::enabled();
    let t_setup = Instant::now();
    let sim = Sim::new(seed);
    let net = sim.net();
    let mut g = Gen(seed);
    let mut uplink = || {
        LinkParams::mbps(
            4.0 * g.factor(),
            Duration::from_millis(10).mul_f64(g.factor()),
        )
    };
    let half = STORM_CLIENTS / 2;
    let (cone, sym, servers) = (uplink(), uplink(), uplink());
    let (srv, clients, server_hosts) = net.with(|w| {
        let mut grid = topology::Grid::build(
            w,
            &[
                topology::SiteSpec::natted("cone", half, NatKind::FullCone, cone),
                topology::SiteSpec::natted("sym", half, NatKind::SymmetricRandom, sym),
                topology::SiteSpec::firewalled("servers", STORM_CLIENTS, servers),
            ],
        );
        let (srv, _) = grid.add_public_host(w, "services");
        let mut clients: Vec<(gridsim_net::NodeId, NatClass)> = Vec::new();
        for (site, class) in [(0, NatClass::Cone), (1, NatClass::SymmetricRandom)] {
            clients.extend(grid.sites[site].hosts.iter().map(|&h| (h, class)));
        }
        (srv, clients, grid.sites[2].hosts.clone())
    });
    let (hsrv, relay) = start_services(&sim, &net, srv);
    let env = GridEnv::new(net.clone(), SockAddr::new(hsrv.ip(), NS_PORT)).with_relay(relay);
    sim.run();

    type Server = (usize, GridNode, ReceivePort);
    let joined: Arc<Mutex<Vec<Server>>> = Arc::new(Mutex::new(Vec::new()));
    for (i, &h) in server_hosts.iter().enumerate() {
        let (env, joined, host) = (env.clone(), Arc::clone(&joined), SimHost::new(&net, h));
        sim.spawn(format!("join-srv-{i}"), move || {
            let node = JOIN
                .time(|| {
                    GridNode::join(
                        &env,
                        host,
                        &format!("srv-{i}"),
                        ConnectivityProfile::firewalled(),
                    )
                })
                .expect("server joins");
            let rp = node
                .create_receive_port(&format!("echo-{i}"), StackSpec::plain())
                .expect("echo port registers");
            joined.lock().push((i, node, rp));
        });
    }
    sim.run();
    let mut servers_up = std::mem::take(&mut *joined.lock());
    assert_eq!(servers_up.len(), STORM_CLIENTS, "every server joined");
    servers_up.sort_by_key(|s| s.0);
    let setup_s = t_setup.elapsed().as_secs_f64();

    // ---- measured phase: every client joins and connects at this instant
    let packets = traced.then(|| probe::install_tracer(&net, relay));
    let log = Arc::new(Mutex::new(StormLog::default()));
    let start = sim.now();
    for (i, node, rp) in servers_up {
        let log = Arc::clone(&log);
        sim.spawn(format!("server-{i}"), move || {
            let mut back: Option<SendPort> = None;
            let mut expect = 0u64;
            loop {
                let Ok(mut m) = RECEIVE.time(|| rp.receive()) else {
                    log.lock().bad += 1;
                    break;
                };
                let seq = match m.read_u64() {
                    Ok(DONE) => break,
                    Ok(seq) if seq == expect => seq,
                    _ => {
                        log.lock().bad += 1;
                        continue;
                    }
                };
                expect += 1;
                if back.is_none() {
                    let mut sp = node.create_send_port();
                    match CONNECT.time(|| sp.connect(&format!("rsp-{i}"))) {
                        Ok(method) => {
                            *log.lock()
                                .probes
                                .methods
                                .entry(method_metric(method))
                                .or_insert(0) += 1;
                        }
                        Err(_) => {
                            log.lock().bad += 1;
                            break;
                        }
                    }
                    back = Some(sp);
                }
                let sp = back.as_mut().expect("reply port connected");
                let body = m.remaining();
                if SEND
                    .time(|| {
                        let mut r = sp.message();
                        r.write_u64(seq);
                        r.write_bytes(body);
                        r.finish()
                    })
                    .is_err()
                {
                    log.lock().bad += 1;
                    break;
                }
            }
            rp.close();
            let mut l = log.lock();
            l.probes.node(&node);
            if let Some(sp) = back {
                l.probes.port(&sp);
                drop(l);
                if CLOSE.time(|| sp.close()).is_err() {
                    log.lock().bad += 1;
                }
            }
        });
    }
    for (i, (h, class)) in clients.into_iter().enumerate() {
        let (env, log, host) = (env.clone(), Arc::clone(&log), SimHost::new(&net, h));
        let payload = gridzip::synth::grid_payload(
            STORM_MSG,
            gridzip::synth::GRID_REDUNDANCY,
            seed.wrapping_add(i as u64),
        );
        sim.spawn(format!("client-{i}"), move || {
            let now = gridsim_net::ctx::now;
            let profile = ConnectivityProfile::natted(class);
            let Ok(node) = JOIN.time(|| GridNode::join(&env, host, &format!("cli-{i}"), profile))
            else {
                log.lock().bad += 1;
                return;
            };
            let Ok(rp) = node.create_receive_port(&format!("rsp-{i}"), StackSpec::plain()) else {
                log.lock().bad += 1;
                return;
            };
            let mut sp = node.create_send_port();
            let t0 = now();
            match CONNECT.time(|| sp.connect(&format!("echo-{i}"))) {
                Ok(method) => {
                    let mut l = log.lock();
                    l.connects.push(now().since(t0));
                    *l.probes.methods.entry(method_metric(method)).or_insert(0) += 1;
                }
                Err(_) => {
                    log.lock().bad += 1;
                    return;
                }
            }
            // Call 0 warms the reply channel up (the server connects back
            // on the first request); the client is ready once it returns.
            for seq in 0..=STORM_CALLS {
                let t = now();
                let sent = SEND.time(|| {
                    let mut m = sp.message();
                    m.write_u64(seq);
                    m.write_bytes(&payload);
                    m.finish()
                });
                let reply = match sent {
                    Ok(_) => RECEIVE.time(|| rp.receive()),
                    Err(e) => Err(e),
                };
                let echoed = reply.map(|mut r| {
                    r.read_u64().ok() == Some(seq) && r.remaining() == payload.as_slice()
                });
                let mut l = log.lock();
                match echoed {
                    Ok(true) => {
                        l.ok += 1;
                        if seq == 0 {
                            l.ready.push(now());
                        } else {
                            l.rtts.push(now().since(t));
                        }
                    }
                    Ok(false) => l.bad += 1,
                    Err(_) => {
                        l.bad += 1;
                        return;
                    }
                }
            }
            let mut l = log.lock();
            l.probes.node(&node);
            l.probes.port(&sp);
            l.probes.busy_throttles += node.relay_busy_throttles();
            drop(l);
            let mut m = sp.message();
            m.write_u64(DONE);
            if m.finish().is_err() || CLOSE.time(|| sp.close()).is_err() {
                log.lock().bad += 1;
            }
            let mut l = log.lock();
            l.done_at = Some(l.done_at.map_or(now(), |t| t.max(now())));
        });
    }
    let mut layers = Vec::new();
    let m = measured_run(&sim, &net, &mut layers);
    let host_s = m.host_s;

    let l = log.lock();
    let calls = STORM_CLIENTS as u64 * (STORM_CALLS + 1);
    let failed = (calls - l.ok.min(calls)) + l.bad + u64::from(!m.idle);
    // Application payload moved per call: the request and its echo.
    let bytes = (l.ok * 2 * STORM_MSG as u64) as f64;
    let end = l.done_at.unwrap_or(start);
    let last_ready = l.ready.iter().max().copied().unwrap_or(start);
    let mut out = Outcome {
        attempted: calls,
        failed,
        host_s,
        ..Outcome::default()
    };
    out.e2e = vec![
        ("host_mb_s".into(), bytes / host_s / 1e6),
        ("host_calls_s".into(), l.ok as f64 / host_s),
        ("setup_s".into(), setup_s),
        (
            "sim_goodput_mb_s".into(),
            bytes / end.since(start).as_secs_f64() / 1e6,
        ),
        ("sim_rpc_ms_p50".into(), percentile_ms(&l.rtts, 0.50)),
        ("sim_rpc_ms_p99".into(), percentile_ms(&l.rtts, 0.99)),
        (
            "sim_connect_ms_p50".into(),
            percentile_ms(&l.connects, 0.50),
        ),
        (
            "sim_storm_setup_ms".into(),
            last_ready.since(start).as_secs_f64() * 1e3,
        ),
        ("samples.calls".into(), l.rtts.len() as f64),
        ("samples.connects".into(), l.connects.len() as f64),
    ];
    if let Some(pk) = packets {
        pk.metrics(bytes, &mut layers);
        l.probes.metrics(&mut layers);
    }
    drop(l);
    drop(sim);
    out.e2e.push(("peak_rss_mb".into(), probe::peak_rss_mb()));
    if traced {
        let load = replay::Load {
            message: gridzip::synth::grid_payload(STORM_MSG, gridzip::synth::GRID_REDUNDANCY, seed),
            block: StackSpec::plain().block_size() as usize,
            streams: 1,
            compression: None,
            secure: false,
            bytes,
            fixed_stack: true,
        };
        out.failed += finish_trace(&mut layers, &load, &m);
        out.layers = layers;
    }
    out
}

// ---------------------------------------------------------- definitions

/// Workload names, in the order the documentation gives them.
pub const NAMES: [&str; 4] = ["bulk_lan", "secure_wan", "rpc_storm", "adaptive_ramp"];

/// Run one repetition of the named workload.
pub fn run(name: &str, seed: u64) -> Outcome {
    match name {
        // The e2e path of the datapath bench: a fat, short path with a free
        // CPU, so host time goes to the simulator and the TCB.
        "bulk_lan" => stream(
            &Stream {
                capacity: 1e9,
                rtt: Duration::from_millis(2),
                queue: 8 << 20,
                window: 1 << 20,
                rates: CpuRates::unlimited(),
                spec: StackSpec::plain(),
                start: None,
                control: None,
                ramp: None,
                msg: 256 * 1024,
                limit: Limit::Messages(128),
            },
            seed,
        ),
        // Fig. 10's Delft–Sophia path with the paper's full stack and
        // 2004-era CPU rates: host time goes to the kernels and stripes.
        "secure_wan" => stream(
            &Stream {
                capacity: 9e6,
                rtt: Duration::from_millis(43),
                queue: 640 * 1024,
                window: 64 * 1024,
                rates: CpuRates::default(),
                spec: StackSpec::plain()
                    .with_streams(4)
                    .with_compression(1)
                    .with_security(),
                start: None,
                control: None,
                ramp: None,
                msg: 64 * 1024,
                limit: Limit::Messages(256),
            },
            seed,
        ),
        "rpc_storm" => storm(seed),
        // bench_adaptive's controller run on its quick 1 -> 10 MB/s ramp.
        "adaptive_ramp" => stream(
            &Stream {
                capacity: 1e6,
                rtt: Duration::from_millis(40),
                queue: 1 << 20,
                window: 64 * 1024,
                rates: CpuRates::default(),
                spec: StackSpec::plain().with_streams(8),
                start: Some(PathParams {
                    stripes: 1,
                    block_size: 32 * 1024,
                    compression_level: Some(1),
                }),
                control: Some(PathControlConfig {
                    interval: Duration::from_millis(50),
                    cooldown: 1,
                    ..PathControlConfig::default()
                }),
                ramp: Some((
                    Duration::from_millis(2500),
                    10e6,
                    Duration::from_millis(500),
                    5,
                )),
                msg: 32 * 1024,
                limit: Limit::SimTime(Duration::from_millis(5500)),
            },
            seed,
        ),
        other => panic!("unknown workload {other}"),
    }
}

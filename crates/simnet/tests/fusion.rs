//! Hop fusion must be invisible: a world that forwards through pure
//! gateways without scheduler events gives exactly the packet history of
//! one that takes every hop as an event.
//!
//! Each case generates a grid of single-host sites behind Open,
//! StatefulOutbound and NAT gateways, with lossy and loss-free uplinks,
//! several cross-traffic flows and a `FaultPlan` (link flaps, bandwidth and
//! delay steps) during the transfer. The scenario is built twice: as
//! generated, and with one inert extra interface on every gateway, which
//! makes no hop fusable. Both builds must give identical tracer records,
//! `WorldStats` (apart from the fused count) and per-link `LinkStats`.
//!
//! Rates, delays and start times are continuous, as in real workloads. Put
//! them all on a coarse lattice and two events scheduled at the same
//! instant for the same instant become common; fusion breaks that one tie
//! differently from hop-by-hop (DESIGN.md §5d). The tie-break rule itself
//! is pinned by a directed unit test in `world.rs`.
//!
//! `NETGRID_TEST_SEED=<n>` shifts the generator seed; the effective seed is
//! printed, so `NETGRID_TEST_SEED=<n> cargo test -p gridsim-net --test
//! fusion` replays a failure.

use gridsim_net::topology::{lan_params, Grid, SiteSpec};
use gridsim_net::world::NodeKind;
use gridsim_net::{
    nat, proto, FaultPlan, FirewallPolicy, Ip, LinkDirId, LinkParams, LinkStats, NatKind, NodeId,
    Packet, RawBytes, Sim, SimTime, SockAddr, TraceKind, Trust, World, WorldStats,
};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Duration;

const CASES: u64 = 64;
const DATA: u8 = 1;
const ACK: u8 = 2;
const SERVER_PORT: u16 = 7000;

/// Base generator seed shifted by `NETGRID_TEST_SEED` (when set).
fn seed(base: u64) -> u64 {
    let shift: u64 = std::env::var("NETGRID_TEST_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let s = base.wrapping_add(shift.wrapping_mul(1000));
    eprintln!("effective generator seed: {s} (base {base}, NETGRID_TEST_SEED shift {shift})");
    s
}

/// Where a flow's data goes.
#[derive(Debug, Clone)]
enum Target {
    /// The host of another site. Behind NAT (no route from the backbone)
    /// or a stateful firewall it sees nothing, which is history too.
    Site(usize),
    /// The public server host on the backbone.
    Public,
    /// A port in a site's NAT allocation range, or its gateway's public
    /// address if the site has no NAT: unsolicited inbound traffic.
    Probe(usize, u16),
}

#[derive(Debug, Clone)]
struct Flow {
    client: usize,
    target: Target,
    start: Duration,
    gap: Duration,
    window: u32,
    total: u32,
}

#[derive(Debug, Clone)]
enum Fault {
    Flap(Duration, usize, Duration),
    Bandwidth(Duration, usize, f64),
    Delay(Duration, usize, Duration),
}

#[derive(Debug, Clone)]
struct Scenario {
    sites: Vec<SiteSpec>,
    public_server: bool,
    flows: Vec<Flow>,
    faults: Vec<Fault>,
    sim_seed: u64,
}

/// A duration in `[lo, hi)` µs.
fn micros(rng: &mut StdRng, lo: u64, hi: u64) -> Duration {
    Duration::from_micros(rng.random_range(lo..hi))
}

fn gen_scenario(rng: &mut StdRng) -> Scenario {
    let n_sites = rng.random_range(2..=4usize);
    let sites = (0..n_sites)
        .map(|i| {
            let mut wan = LinkParams::mbps(rng.random_range(1.0..20.0), micros(rng, 100, 10_000))
                .with_queue(rng.random_range(4..64) * 1024);
            if rng.random_bool(0.4) {
                wan = wan.with_loss(rng.random_range(0.002..0.05));
            }
            let (policy, nat) = match rng.random_range(0..4) {
                0 => (FirewallPolicy::Open, None),
                1 => (FirewallPolicy::StatefulOutbound, None),
                _ => {
                    let kinds = [
                        NatKind::FullCone,
                        NatKind::RestrictedCone,
                        NatKind::PortRestricted,
                        NatKind::SymmetricSequential,
                        NatKind::SymmetricRandom,
                    ];
                    let policy = if rng.random_bool(0.5) {
                        FirewallPolicy::Open
                    } else {
                        FirewallPolicy::StatefulOutbound
                    };
                    (policy, Some(kinds[rng.random_range(0..kinds.len())]))
                }
            };
            SiteSpec {
                name: format!("s{i}"),
                policy,
                nat,
                private_addrs: nat.is_some(),
                hosts: 1,
                wan,
            }
        })
        .collect::<Vec<_>>();
    // Without a public server the backbone of a two-site grid has two
    // interfaces, so whole gateway–backbone–gateway chains fuse.
    let public_server = rng.random_bool(0.5);
    let n_flows = rng.random_range(2..=5);
    let flows = (0..n_flows)
        .map(|_| {
            let client = rng.random_range(0..n_sites);
            let other = (client + rng.random_range(1..n_sites)) % n_sites;
            let target = match rng.random_range(0..5) {
                0 | 1 if public_server => Target::Public,
                0 => Target::Probe(other, nat::NAT_PORT_BASE + rng.random_range(0..4)),
                _ => Target::Site(other),
            };
            Flow {
                client,
                target,
                start: micros(rng, 0, 40_000),
                gap: micros(rng, 200, 5_000),
                window: rng.random_range(1..=48),
                total: rng.random_range(40..200),
            }
        })
        .collect();
    let mut faults = Vec::new();
    for _ in 0..rng.random_range(0..=3) {
        let at = micros(rng, 5_000, 150_000);
        let link = rng.random_range(0..4 * n_sites);
        faults.push(match rng.random_range(0..4) {
            0 | 1 => Fault::Flap(at, link, micros(rng, 1_000, 50_000)),
            2 => Fault::Bandwidth(at, link, rng.random_range(0.5e6..30e6)),
            _ => Fault::Delay(at, link, micros(rng, 100, 20_000)),
        });
    }
    Scenario {
        sites,
        public_server,
        flows,
        faults,
        sim_seed: rng.random(),
    }
}

/// Per-flow client progress.
#[derive(Default)]
struct FlowState {
    sent: u32,
    acked: u32,
}

struct Traffic {
    flows: Vec<Flow>,
    state: Mutex<Vec<FlowState>>,
    clients: Vec<(NodeId, SockAddr)>,
    servers: Vec<SockAddr>,
}

impl Traffic {
    /// Send flow `f`'s next data packet, if any is left.
    fn send_next(&self, w: &mut World, f: usize) {
        let seq = {
            let mut st = self.state.lock();
            let s = &mut st[f];
            if s.sent >= self.flows[f].total {
                return;
            }
            s.sent += 1;
            s.sent
        };
        let (node, src) = self.clients[f];
        // Sizes vary per packet so queues fill unevenly.
        let len = 40 + (seq as usize * 7919 + f * 104_729) % 1_400;
        let mut body = vec![0u8; len];
        body[0] = DATA;
        body[1] = f as u8;
        w.send_from(
            node,
            Packet::new(src, self.servers[f], proto::UDP, Box::new(RawBytes(body))),
        );
    }
}

/// Paced sends keep a flow moving through losses and drops.
fn tick(w: &mut World, traffic: Arc<Traffic>, f: usize) {
    traffic.send_next(w, f);
    let more = traffic.state.lock()[f].sent < traffic.flows[f].total;
    if more {
        let gap = traffic.flows[f].gap;
        w.schedule_after(gap, move |w| tick(w, traffic, f));
    }
}

type Record = (u64, TraceKind, SockAddr, SockAddr, u32);

struct Outcome {
    records: Vec<Record>,
    stats: WorldStats,
    links: Vec<LinkStats>,
    end: SimTime,
}

fn run(sc: &Scenario, inert: bool) -> Outcome {
    let sim = Sim::new(sc.sim_seed);
    let net = sim.net();
    let records: Arc<Mutex<Vec<Record>>> = Arc::default();
    let n_links = net.with(|w| {
        let mut grid = Grid::build(w, &sc.sites);
        let public = sc.public_server.then(|| grid.add_public_host(w, "server"));
        let n_links = w.n_link_dirs();
        if inert {
            let mut gateways: Vec<NodeId> = grid.sites.iter().map(|s| s.gateway).collect();
            gateways.push(grid.backbone);
            for (i, gw) in gateways.into_iter().enumerate() {
                let stub = w.add_host(format!("inert{i}"), vec![Ip::new(10, 250, i as u8, 1)]);
                w.connect_with(
                    gw,
                    Trust::Inside,
                    stub,
                    Trust::Inside,
                    lan_params(),
                    lan_params(),
                );
            }
        }
        let clients = sc
            .flows
            .iter()
            .enumerate()
            .map(|(f, fl)| {
                let site = &grid.sites[fl.client];
                (
                    site.hosts[0],
                    SockAddr::new(site.host_ips[0], 5000 + f as u16),
                )
            })
            .collect();
        let servers = sc
            .flows
            .iter()
            .map(|fl| match fl.target {
                Target::Site(s) => SockAddr::new(grid.sites[s].host_ips[0], SERVER_PORT),
                Target::Public => SockAddr::new(public.expect("public server").1, SERVER_PORT),
                Target::Probe(s, port) => SockAddr::new(grid.sites[s].gateway_public_ip, port),
            })
            .collect();
        let traffic = Arc::new(Traffic {
            flows: sc.flows.clone(),
            state: Mutex::new((0..sc.flows.len()).map(|_| FlowState::default()).collect()),
            clients,
            servers,
        });
        let t = Arc::clone(&traffic);
        w.register_proto(
            proto::UDP,
            Arc::new(move |w: &mut World, node: NodeId, pkt: Packet| {
                // Only hosts run this protocol: a gateway has no stack to
                // answer from (one that does is not a pure forwarder).
                if !matches!(w.node(node).kind, NodeKind::Host) {
                    return;
                }
                let body = &pkt.payload_as::<RawBytes>().expect("raw payload").0;
                let f = body[1] as usize;
                match body[0] {
                    DATA => {
                        // Echo a small ACK to wherever the data came from
                        // (the NAT's external endpoint, if any).
                        let ack = vec![ACK, f as u8, 0, 0];
                        w.send_from(
                            node,
                            Packet::new(pkt.dst, pkt.src, proto::UDP, Box::new(RawBytes(ack))),
                        );
                    }
                    _ => {
                        t.state.lock()[f].acked += 1;
                        t.send_next(w, f);
                    }
                }
            }),
        );
        let rec = Arc::clone(&records);
        w.set_tracer(Box::new(move |t, kind, pkt| {
            rec.lock()
                .push((t.as_nanos(), kind, pkt.src, pkt.dst, pkt.wire_len()));
        }));
        let mut plan = FaultPlan::new();
        for fault in &sc.faults {
            plan = match *fault {
                Fault::Flap(at, l, d) => plan.flap(at, LinkDirId(l % n_links), d),
                Fault::Bandwidth(at, l, bps) => {
                    plan.bandwidth_step(at, LinkDirId(l % n_links), bps)
                }
                Fault::Delay(at, l, d) => plan.delay_step(at, LinkDirId(l % n_links), d),
            };
        }
        w.install_faults(plan);
        for (f, fl) in sc.flows.iter().enumerate() {
            let traffic = Arc::clone(&traffic);
            let window = fl.window;
            w.schedule_after(fl.start, move |w| {
                for _ in 1..window {
                    traffic.send_next(w, f);
                }
                tick(w, traffic, f);
            });
        }
        n_links
    });
    sim.run();
    let records = std::mem::take(&mut *records.lock());
    net.with(|w| Outcome {
        records,
        stats: w.stats,
        links: (0..n_links).map(|l| w.link_stats(LinkDirId(l))).collect(),
        end: sim.now(),
    })
}

#[test]
fn fused_and_hop_by_hop_worlds_have_identical_histories() {
    let base = seed(0x5eed_f05e);
    let (mut fused_hops, mut fused_cases) = (0, 0);
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(base.wrapping_add(case));
        let sc = gen_scenario(&mut rng);
        let fused = run(&sc, false);
        let hop_by_hop = run(&sc, true);
        let ctx = format!("case {case} (generator seed {base} + {case}): {sc:#?}");
        assert_eq!(
            hop_by_hop.stats.fused, 0,
            "inert interfaces leave nothing fusable; {ctx}"
        );
        assert!(!fused.records.is_empty(), "{ctx}");
        if let Some(i) = (0..fused.records.len().min(hop_by_hop.records.len()))
            .find(|&i| fused.records[i] != hop_by_hop.records[i])
        {
            panic!(
                "record {i} differs: fused {:?} vs hop-by-hop {:?}; {ctx}",
                fused.records[i], hop_by_hop.records[i]
            );
        }
        assert_eq!(fused.records.len(), hop_by_hop.records.len(), "{ctx}");
        assert_eq!(
            WorldStats {
                fused: 0,
                ..fused.stats
            },
            hop_by_hop.stats,
            "{ctx}"
        );
        assert_eq!(fused.links, hop_by_hop.links, "{ctx}");
        assert_eq!(fused.end, hop_by_hop.end, "{ctx}");
        fused_hops += fused.stats.fused;
        fused_cases += u64::from(fused.stats.fused > 0);
    }
    eprintln!("{fused_cases}/{CASES} cases fused {fused_hops} hops");
    assert!(
        fused_cases * 2 > CASES,
        "the generator must exercise fusion: {fused_cases}/{CASES} cases fused"
    );
}

//! Connection-storm benchmark: the "morning login rush". N client nodes
//! behind ONE shared cone NAT simultaneously join the grid and open a
//! batch of channels each to N receiver nodes behind ONE shared stateful
//! firewall, all brokered by one public name service + relay. Reports the
//! aggregate setup time (storm start to last batch connected), the total
//! establishment walk count (must equal the number of distinct
//! sender→peer pairs — the single-flight dedupe under contention) and the
//! peak number of walks in flight (the concurrency the session layer
//! actually achieved; serialized establishment would pin it at 1).
//! Writes `BENCH_storm.json`.

use gridsim_net::{topology, LinkParams, NatKind, Sim, SockAddr};
use gridsim_tcp::SimHost;
use netgrid::{spawn_name_service, spawn_relay, ConnectivityProfile, NatClass, StackSpec};
use netgrid_bench::*;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// Channels each client opens to its peer, in one `connect_batch`.
const CHANNELS: usize = 4;
/// Messages per channel after the storm settles (proves delivery).
const MSGS: u64 = 8;

struct RunOut {
    pairs: u64,
    walks: u64,
    peak_walks: u64,
    setup_ms: f64,
}

fn run_one(nodes: usize) -> RunOut {
    let sim = Sim::new(44);
    trace::install(&sim);
    let net = sim.net();
    let wan = LinkParams::mbps(4.0, Duration::from_millis(10));
    let (srv, clients, servers) = net.with(|w| {
        let mut grid = topology::Grid::build(
            w,
            &[
                topology::SiteSpec::natted("clients", nodes, NatKind::FullCone, wan),
                topology::SiteSpec::firewalled("servers", nodes, wan),
            ],
        );
        let (srv, _) = grid.add_public_host(w, "services");
        (
            srv,
            grid.sites[0].hosts.clone(),
            grid.sites[1].hosts.clone(),
        )
    });
    let hsrv = SimHost::new(&net, srv);
    let env = netgrid::GridEnv::new(net.clone(), SockAddr::new(hsrv.ip(), NS_PORT))
        .with_relay(SockAddr::new(hsrv.ip(), RELAY_PORT));
    sim.spawn("services", move || {
        spawn_name_service(&hsrv, NS_PORT).unwrap();
        spawn_relay(&hsrv, RELAY_PORT).unwrap();
    });
    sim.run();

    // Receivers come up first (ports must be registered before the storm),
    // then every client joins AND connects at the same instant.
    for (i, &h) in servers.iter().enumerate() {
        let env = env.clone();
        let host = SimHost::new(&net, h);
        sim.spawn(format!("recv-{i}"), move || {
            let node = netgrid::GridNode::join(&env, host, &format!("recv-{i}"), {
                ConnectivityProfile::firewalled()
            })
            .unwrap();
            let rp = node
                .create_receive_port(&format!("storm-{i}"), StackSpec::plain())
                .unwrap();
            let mut next: HashMap<u64, u64> = HashMap::new();
            for _ in 0..CHANNELS as u64 * MSGS {
                let mut m = rp.receive().unwrap();
                let tag = m.read_u64().unwrap();
                let seq = m.read_u64().unwrap();
                let want = next.entry(tag).or_insert(0);
                assert_eq!(seq, *want, "storm FIFO violated on channel {tag}");
                *want += 1;
            }
        });
    }
    sim.run_for(Duration::from_secs(2));

    // walks per client node + last-connect time, reported from the tasks.
    type Probe = (u64, gridsim_net::SimTime);
    let probes: Arc<parking_lot::Mutex<Vec<Probe>>> = Arc::new(parking_lot::Mutex::new(Vec::new()));
    let t0 = Arc::new(parking_lot::Mutex::new(None::<gridsim_net::SimTime>));
    for (i, &h) in clients.iter().enumerate() {
        let env = env.clone();
        let host = SimHost::new(&net, h);
        let probes = probes.clone();
        let t0 = t0.clone();
        sim.spawn(format!("send-{i}"), move || {
            t0.lock().get_or_insert(gridsim_net::ctx::now());
            let node = netgrid::GridNode::join(
                &env,
                host,
                &format!("send-{i}"),
                ConnectivityProfile::natted(NatClass::Cone),
            )
            .unwrap();
            let mut ports = node.connect_batch(&format!("storm-{i}"), CHANNELS).unwrap();
            probes
                .lock()
                .push((node.establishment_walks(), gridsim_net::ctx::now()));
            for seq in 0..MSGS {
                for (tag, sp) in ports.iter_mut().enumerate() {
                    let mut m = sp.message();
                    m.write_u64(tag as u64);
                    m.write_u64(seq);
                    m.write_bytes(&[0xa5u8; 64]);
                    m.finish().unwrap();
                }
                gridsim_net::ctx::sleep(Duration::from_millis(20));
            }
            for sp in ports.drain(..) {
                sp.close().unwrap();
            }
        });
    }
    let outcome = sim.run_for(Duration::from_secs(600));
    let probes = probes.lock();
    assert_eq!(
        probes.len(),
        nodes,
        "not every client finished its batch connect (outcome {outcome:?})"
    );
    let start = t0.lock().expect("no sender started");
    let walks: u64 = probes.iter().map(|(w, _)| w).sum();
    let last = probes.iter().map(|(_, t)| *t).max().unwrap();
    RunOut {
        pairs: nodes as u64,
        walks,
        peak_walks: env.walk_gauge_peak(),
        setup_ms: last.since(start).as_secs_f64() * 1e3,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = has_flag(&args, "--quick");
    let out_path = arg_value(&args, "--out").unwrap_or_else(|| "BENCH_storm.json".into());
    println!(
        "Storm: N clients behind one cone NAT batch-connect ({CHANNELS} channels each) \
         to N receivers behind one firewall via one relay, simultaneously"
    );
    let matrix: &[usize] = if quick { &[4, 8] } else { &[4, 8, 16] };
    let mut outs = Vec::new();
    for &n in matrix {
        let o = run_one(n);
        println!(
            "nodes={n:>3}  pairs={:>3}  walks={:>3}  peak_in_flight={:>3}  aggregate_setup={:>8.1} ms",
            o.pairs, o.walks, o.peak_walks, o.setup_ms
        );
        outs.push((n, o));
    }
    let mut json = String::from("[\n");
    for (i, (n, o)) in outs.iter().enumerate() {
        json.push_str(&format!(
            "  {{\"nodes\": {}, \"pairs\": {}, \"walks\": {}, \"peak_walks\": {}, \"setup_ms\": {:.1}}}{}\n",
            n,
            o.pairs,
            o.walks,
            o.peak_walks,
            o.setup_ms,
            if i + 1 == outs.len() { "" } else { "," }
        ));
    }
    json.push_str("]\n");
    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("write {out_path}: {e}"));
    eprintln!("wrote {out_path}");
    trace::flush();
}

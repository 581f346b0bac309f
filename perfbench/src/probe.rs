//! Host-side probes of the traced run.
//!
//! Everything here observes from outside the engine: spans around the
//! benchmark's own calls into `netgrid`, deltas of the simulator's
//! process-global host counters, a `World` tracer that classifies packets,
//! and a counting allocator. None of it draws randomness or schedules
//! events, so a traced repetition simulates exactly what an untraced one
//! does (the orchestrator checks that its `sim_*` metrics are identical).
//! With tracing off every probe is a single relaxed load.

use gridsim_net::runtime::{host_work_counters, host_work_ns, park_stats};
use gridsim_net::{Net, Packet, SimTime, SockAddr, TraceKind, WorldStats};
use gridsim_tcp::Segment;
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

static TRACING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Switch every probe of this process on. Called once, before the
/// workload builds its world.
pub fn enable() {
    TRACING.store(true, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    TRACING.load(Ordering::Relaxed)
}

/// Counts allocations (and reallocations) while tracing is on.
pub struct CountingAlloc;

// SAFETY: every call forwards unchanged to the system allocator; the only
// addition is a relaxed counter increment, which allocates nothing.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if enabled() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if enabled() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

/// Inclusive host time and call count of one benchmark call site into a
/// layer. Inclusive: a call that parks (a send waiting for window, a
/// receive waiting for data) also counts the time other tasks and events
/// ran meanwhile.
pub struct Span {
    ns: AtomicU64,
    calls: AtomicU64,
}

impl Span {
    const fn new() -> Span {
        Span {
            ns: AtomicU64::new(0),
            calls: AtomicU64::new(0),
        }
    }

    pub fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        if !enabled() {
            return f();
        }
        let t0 = Instant::now();
        let r = f();
        self.ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        r
    }

    pub fn ns(&self) -> f64 {
        self.ns.load(Ordering::Relaxed) as f64
    }

    pub fn calls(&self) -> f64 {
        self.calls.load(Ordering::Relaxed) as f64
    }
}

pub static JOIN: Span = Span::new();
pub static CONNECT: Span = Span::new();
pub static SEND: Span = Span::new();
pub static RECEIVE: Span = Span::new();
pub static CLOSE: Span = Span::new();

/// Park reasons reported one by one; any other reason lands in `other`.
/// Metric names replace the reason's spaces and dashes with `_`.
pub const PARK_REASONS: [&str; 16] = [
    "tcp write",
    "tcp read",
    "tcp drain",
    "tcp connect",
    "tcp accept",
    "sleep",
    "sim-mutex",
    "queue push",
    "queue pop",
    "relay svc rsp",
    "relay peer busy",
    "relay open",
    "nat gate",
    "link establishment wait",
    "link recovery wait",
    "join",
];

pub fn park_metric(reason: &str) -> String {
    format!("simnet.runtime.parks.{}", reason.replace([' ', '-'], "_"))
}

/// The process-global simulator counters at one instant. Deltas of two
/// snapshots scope them to one phase of one workload; the orchestrator
/// runs every repetition in its own process, so no other `Sim` (and no
/// thread of an earlier one) can add to them.
pub struct Snapshot {
    slices: u64,
    events: u64,
    slice_ns: u64,
    event_ns: u64,
    parks: HashMap<&'static str, u64>,
    allocs: u64,
    world: WorldStats,
}

pub fn snapshot(net: &Net) -> Snapshot {
    let (slices, events) = host_work_counters();
    let (slice_ns, event_ns) = host_work_ns();
    Snapshot {
        slices,
        events,
        slice_ns,
        event_ns,
        parks: park_stats().into_iter().collect(),
        allocs: ALLOCS.load(Ordering::Relaxed),
        world: net.with(|w| w.stats),
    }
}

fn drops(s: &WorldStats) -> u64 {
    s.drop_no_route
        + s.drop_firewall
        + s.drop_nat
        + s.drop_loss
        + s.drop_queue
        + s.drop_not_local
        + s.drop_no_handler
        + s.drop_link_down
}

/// Per-layer metrics of the scheduler and the world over `[a, b]`, which
/// took `host_ns` of wall time on the scheduler thread. Returns the shares
/// of that wall time spent in events and in task slices.
pub fn engine_metrics(
    a: &Snapshot,
    b: &Snapshot,
    host_ns: f64,
    out: &mut Vec<(String, f64)>,
) -> (f64, f64) {
    let events = (b.events - a.events) as f64;
    let event_ns = (b.event_ns - a.event_ns) as f64;
    let slices = (b.slices - a.slices) as f64;
    let slice_ns = (b.slice_ns - a.slice_ns) as f64;
    let hops = (b.world.delivered + b.world.forwarded) - (a.world.delivered + a.world.forwarded);
    let per = |ns: f64, n: f64| if n > 0.0 { ns / n } else { 0.0 };
    out.push(("simnet.world.events".into(), events));
    out.push(("simnet.world.event_host_ns".into(), event_ns));
    out.push(("simnet.world.ns_per_event".into(), per(event_ns, events)));
    out.push(("simnet.world.pkt_hops".into(), hops as f64));
    out.push((
        "simnet.world.drops".into(),
        (drops(&b.world) - drops(&a.world)) as f64,
    ));
    out.push(("simnet.runtime.slices".into(), slices));
    out.push(("simnet.runtime.slice_host_ns".into(), slice_ns));
    out.push(("simnet.runtime.ns_per_slice".into(), per(slice_ns, slices)));
    let parked =
        |r: &str| b.parks.get(r).copied().unwrap_or(0) - a.parks.get(r).copied().unwrap_or(0);
    let total: u64 = b.parks.keys().map(|r| parked(r)).sum();
    let named: u64 = PARK_REASONS.iter().map(|r| parked(r)).sum();
    out.push(("simnet.runtime.parks".into(), total as f64));
    for r in PARK_REASONS {
        out.push((park_metric(r), parked(r) as f64));
    }
    out.push(("simnet.runtime.parks.other".into(), (total - named) as f64));
    (event_ns / host_ns, slice_ns / host_ns)
}

pub fn allocs_between(a: &Snapshot, b: &Snapshot) -> f64 {
    (b.allocs - a.allocs) as f64
}

/// Packet counts by kind, size and port, from the world tracer.
#[derive(Default)]
pub struct Packets {
    /// TCP segments carrying data, as sent by their source.
    data: AtomicU64,
    /// ...of which carried a full 1460-byte MSS.
    full_mss: AtomicU64,
    /// Pure ACKs (no data, no SYN/FIN/RST), as sent.
    acks: AtomicU64,
    /// Packets delivered to the relay's listening address.
    relay_in: AtomicU64,
    /// TCP payload bytes in those packets.
    relay_bytes: AtomicU64,
}

const MSS: usize = 1460;

/// Install the packet-classifying tracer on `net` (replacing none: the
/// benchmark is the only tracer user).
pub fn install_tracer(net: &Net, relay: SockAddr) -> Arc<Packets> {
    let pk = Arc::new(Packets::default());
    let p = Arc::clone(&pk);
    net.with(move |w| {
        w.set_tracer(Box::new(
            move |_t: SimTime, kind: TraceKind, pkt: &Packet| {
                let Some(seg) = pkt.payload_as::<Segment>() else {
                    return;
                };
                let len = seg.data.len();
                match kind {
                    TraceKind::Sent if len > 0 => {
                        p.data.fetch_add(1, Ordering::Relaxed);
                        if len >= MSS {
                            p.full_mss.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    TraceKind::Sent if !(seg.flags.syn || seg.flags.fin || seg.flags.rst) => {
                        p.acks.fetch_add(1, Ordering::Relaxed);
                    }
                    TraceKind::Delivered if pkt.dst == relay => {
                        p.relay_in.fetch_add(1, Ordering::Relaxed);
                        p.relay_bytes.fetch_add(len as u64, Ordering::Relaxed);
                    }
                    _ => {}
                }
            },
        ));
    });
    pk
}

impl Packets {
    pub fn metrics(&self, payload_bytes: f64, out: &mut Vec<(String, f64)>) {
        let data = self.data.load(Ordering::Relaxed) as f64;
        let full = self.full_mss.load(Ordering::Relaxed) as f64;
        out.push(("simtcp.data_pkts".into(), data));
        out.push((
            "simtcp.pkts_per_mib".into(),
            data / (payload_bytes / (1 << 20) as f64),
        ));
        out.push((
            "simtcp.full_mss_share".into(),
            if data > 0.0 { full / data } else { 0.0 },
        ));
        out.push((
            "simtcp.ack_pkts".into(),
            self.acks.load(Ordering::Relaxed) as f64,
        ));
        out.push((
            "core.relay.pkts_in".into(),
            self.relay_in.load(Ordering::Relaxed) as f64,
        ));
        out.push((
            "core.relay.bytes_in".into(),
            self.relay_bytes.load(Ordering::Relaxed) as f64,
        ));
    }
}

/// Span totals, as metrics.
pub fn span_metrics(out: &mut Vec<(String, f64)>) {
    out.push(("core.establish.join_host_ns".into(), JOIN.ns()));
    out.push(("core.establish.connect_host_ns".into(), CONNECT.ns()));
    out.push(("core.port.send_host_ns".into(), SEND.ns()));
    out.push(("core.port.send_calls".into(), SEND.calls()));
    out.push(("core.port.receive_host_ns".into(), RECEIVE.ns()));
    out.push(("core.port.receive_calls".into(), RECEIVE.calls()));
    out.push(("core.session.close_host_ns".into(), CLOSE.ns()));
}

/// Peak resident set of this process, in MB (VmHWM).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

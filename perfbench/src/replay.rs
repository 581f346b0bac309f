//! Kernel and driver rows of the traced run, and the layer shares they
//! make possible.
//!
//! The engine is not instrumented inside, so these rows replay the
//! workload's own messages through the public `gridzip`, `gridcrypt` and
//! driver functions, alone on the host, after the workload's `Sim` has
//! been dropped. Each replay also checks its round trip (decompressed or
//! opened bytes equal the input); a mismatch is a failed operation.

use bytes::Bytes;
use gridcrypt::{SecureConfig, SecureStream, MAX_RECORD};
use gridsim_net::{ctx, NodeId, Sim};
use netgrid::drivers::{BlockWrite, BlockWriter, StripeWriter};
use netgrid::{BlockPool, CpuModel, CpuRates, HostCpu};
use rand::SeedableRng;
use std::io::{self, Read, Write};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Bytes of the workload's message stream each replay pushes.
const SAMPLE: usize = 2 << 20;
/// A replay repeats its pass until at least this much host time passed.
const MIN_TIME: Duration = Duration::from_millis(20);
/// Handshakes timed for `gridcrypt.handshake_us` (median).
const HANDSHAKES: usize = 9;

/// What a workload's stack did, for the replay.
pub struct Load {
    /// One application message as the workload sends it.
    pub message: Vec<u8>,
    pub block: usize,
    /// Streams of the stack (striping replays when above one).
    pub streams: usize,
    pub compression: Option<u8>,
    pub secure: bool,
    /// Application payload bytes the measured phase moved.
    pub bytes: f64,
    /// Whether the stack stays as built for the whole run. Under the path
    /// controller it does not, so the kernel time cannot be attributed
    /// from bytes and stays inside the slice share.
    pub fixed_stack: bool,
}

struct NullSink;

impl Write for NullSink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        Ok(buf.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}
impl BlockWrite for NullSink {}

/// Repeat `pass` (which processes `bytes` bytes) for at least MIN_TIME;
/// returns MB/s.
fn rate(bytes: usize, mut pass: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    let mut n = 0usize;
    while n == 0 || t0.elapsed() < MIN_TIME {
        pass();
        n += 1;
    }
    (bytes * n) as f64 / t0.elapsed().as_secs_f64() / 1e6
}

/// Run a driver replay inside a simulated task (the drivers use the
/// scheduler); the rate is taken inside the task.
fn in_sim(f: impl FnOnce() -> f64 + Send + 'static) -> f64 {
    let sim = Sim::new(1);
    let out = std::sync::Arc::new(parking_lot::Mutex::new(0.0));
    let o = std::sync::Arc::clone(&out);
    sim.spawn("replay", move || *o.lock() = f());
    sim.run();
    let v = *out.lock();
    v
}

fn agg(messages: Vec<Bytes>, block: usize) -> f64 {
    in_sim(move || {
        let bytes = messages.iter().map(|m| m.len()).sum();
        rate(bytes, || {
            let mut w = BlockWriter::new(NullSink, BlockPool::new(block));
            for m in &messages {
                w.write_all(m).expect("null sink accepts");
            }
            w.flush().expect("null sink flushes");
        })
    })
}

fn stripe(messages: Vec<Bytes>, block: usize, streams: usize) -> f64 {
    in_sim(move || {
        let bytes = messages.iter().map(|m| m.len()).sum();
        let r = rate(bytes, || {
            let cpu = HostCpu::new(CpuModel::new(), NodeId(0), CpuRates::unlimited());
            let sinks: Vec<Box<dyn BlockWrite + Send>> =
                (0..streams).map(|_| Box::new(NullSink) as _).collect();
            let copy = cpu.rates.copy;
            let mut w =
                StripeWriter::with_pool(sinks, BlockPool::new(block), cpu, copy, &ctx::handle());
            for m in &messages {
                w.write_all(m).expect("null sinks accept");
            }
            w.flush().expect("null sinks flush");
        });
        // Let the per-stream daemons see their queues close.
        ctx::sleep(Duration::from_millis(1));
        r
    })
}

/// An in-memory duplex byte pipe end for the handshake replay.
struct Pipe {
    tx: mpsc::Sender<Vec<u8>>,
    rx: mpsc::Receiver<Vec<u8>>,
    buf: Vec<u8>,
    pos: usize,
}

fn pipe_pair() -> (Pipe, Pipe) {
    let (ta, rb) = mpsc::channel();
    let (tb, ra) = mpsc::channel();
    let end = |tx, rx| Pipe {
        tx,
        rx,
        buf: Vec::new(),
        pos: 0,
    };
    (end(ta, ra), end(tb, rb))
}

impl Read for Pipe {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        if self.pos == self.buf.len() {
            match self.rx.recv() {
                Ok(v) => {
                    self.buf = v;
                    self.pos = 0;
                }
                Err(_) => return Ok(0),
            }
        }
        let n = out.len().min(self.buf.len() - self.pos);
        out[..n].copy_from_slice(&self.buf[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

impl Write for Pipe {
    fn write(&mut self, b: &[u8]) -> io::Result<usize> {
        self.tx
            .send(b.to_vec())
            .map_err(|_| io::Error::from(io::ErrorKind::BrokenPipe))?;
        Ok(b.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Median wall time of one full GTLS handshake (both ends, each on its
/// own thread), in microseconds; `None` if a handshake failed.
fn handshake_us() -> Option<f64> {
    let cfg = SecureConfig::new(b"netgrid-vo-secret".to_vec());
    let (clients, servers): (Vec<Pipe>, Vec<Pipe>) = (0..HANDSHAKES).map(|_| pipe_pair()).unzip();
    let mut times = Vec::with_capacity(HANDSHAKES);
    let ok = std::thread::scope(|s| {
        let cfg_s = cfg.clone();
        let server = s.spawn(move || {
            let mut rng = rand::rngs::StdRng::seed_from_u64(2);
            servers
                .into_iter()
                .all(|p| SecureStream::server(p, &cfg_s, &mut rng).is_ok())
        });
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let mut ok = true;
        for p in clients {
            let t0 = Instant::now();
            ok &= SecureStream::client(p, &cfg, &mut rng).is_ok();
            times.push(t0.elapsed().as_secs_f64() * 1e6);
        }
        server.join().expect("handshake server thread") && ok
    });
    times.sort_by(f64::total_cmp);
    ok.then(|| times[times.len() / 2])
}

/// Replay `load` and append the kernel/driver rows, then the layer shares
/// of a measured phase that took `host_s` and spent the shares `world` in
/// events and `slices` in task slices. Returns the failed round trips.
pub fn run(
    load: &Load,
    host_s: f64,
    (world, slices): (f64, f64),
    layers: &mut Vec<(String, f64)>,
) -> u64 {
    let mut failed = 0;
    // The workload's message stream: sequence number, then the message.
    let mut sample = Vec::with_capacity(SAMPLE + load.message.len() + 8);
    let mut seq = 0u64;
    while sample.len() < SAMPLE {
        sample.extend_from_slice(&seq.to_le_bytes());
        sample.extend_from_slice(&load.message);
        seq += 1;
    }
    let framed = load.message.len() + 8;
    let messages: Vec<Bytes> = sample.chunks(framed).map(Bytes::copy_from_slice).collect();

    let (mut agg_mb_s, mut stripe_mb_s) = (0.0, 0.0);
    if load.streams > 1 {
        stripe_mb_s = stripe(messages.clone(), load.block, load.streams);
    }
    if load.streams == 1 || !load.fixed_stack {
        agg_mb_s = agg(messages.clone(), load.block);
    }

    let (mut zip_mb_s, mut unzip_mb_s, mut ratio) = (0.0, 0.0, 1.0);
    let mut wire = sample.clone();
    if let Some(level) = load.compression {
        zip_mb_s = rate(sample.len(), || {
            let mut w = gridzip::CompressWriter::with_block_size(Vec::new(), level, load.block);
            for m in &messages {
                w.write_all(m).expect("vec sink accepts");
            }
            wire = w.finish().expect("vec sink finishes");
        });
        ratio = sample.len() as f64 / wire.len() as f64;
        let mut restored = Vec::with_capacity(sample.len());
        unzip_mb_s = rate(sample.len(), || {
            restored.clear();
            gridzip::DecompressReader::new(wire.as_slice())
                .read_to_end(&mut restored)
                .expect("replayed stream decodes");
        });
        failed += u64::from(restored != sample);
    }

    let (mut seal_mb_s, mut open_mb_s, mut hs_us) = (0.0, 0.0, 0.0);
    if load.secure {
        let key = [7u8; gridcrypt::aead::KEY_LEN];
        let nonce = |i: usize| {
            let mut n = [0u8; 12];
            n[..8].copy_from_slice(&(i as u64).to_le_bytes());
            n
        };
        let mut sealed = wire.clone();
        let mut tags = Vec::new();
        seal_mb_s = rate(wire.len(), || {
            sealed.copy_from_slice(&wire);
            tags = sealed
                .chunks_mut(MAX_RECORD)
                .enumerate()
                .map(|(i, rec)| gridcrypt::seal_in_place(&key, &nonce(i), &[], rec))
                .collect();
        });
        let mut opened = sealed.clone();
        let mut all_ok = true;
        open_mb_s = rate(wire.len(), || {
            opened.copy_from_slice(&sealed);
            all_ok = opened
                .chunks_mut(MAX_RECORD)
                .zip(&tags)
                .enumerate()
                .all(|(i, (rec, tag))| {
                    gridcrypt::open_in_place(&key, &nonce(i), &[], rec, tag).is_ok()
                });
        });
        failed += u64::from(!all_ok || opened != wire);
        match handshake_us() {
            Some(us) => hs_us = us,
            None => failed += 1,
        }
    }

    layers.push(("core.drivers.agg_mb_s".into(), agg_mb_s));
    layers.push(("core.drivers.stripe_mb_s".into(), stripe_mb_s));
    layers.push(("gridzip.compress_mb_s".into(), zip_mb_s));
    layers.push(("gridzip.decompress_mb_s".into(), unzip_mb_s));
    layers.push((
        "gridzip.ratio".into(),
        if load.compression.is_some() {
            ratio
        } else {
            0.0
        },
    ));
    layers.push(("gridcrypt.seal_mb_s".into(), seal_mb_s));
    layers.push(("gridcrypt.open_mb_s".into(), open_mb_s));
    layers.push(("gridcrypt.handshake_us".into(), hs_us));

    // Host time the run spent in each kernel, estimated as the bytes it
    // pushed through the kernel over the kernel's replayed rate. These
    // run inside task slices, so they are carved out of the slice share.
    let host_ns = host_s * 1e9;
    let ns = |bytes: f64, mb_s: f64| if mb_s > 0.0 { bytes / mb_s * 1e3 } else { 0.0 };
    let (mut drivers, mut zip, mut crypt) = (0.0, 0.0, 0.0);
    if load.fixed_stack {
        let wire_bytes = load.bytes / ratio;
        drivers = if load.streams > 1 {
            ns(wire_bytes, stripe_mb_s)
        } else {
            ns(load.bytes, agg_mb_s)
        };
        zip = ns(load.bytes, zip_mb_s) + ns(load.bytes, unzip_mb_s);
        crypt = ns(wire_bytes, seal_mb_s)
            + ns(wire_bytes, open_mb_s)
            + load.streams as f64 * hs_us * 1e3;
    }
    let (drivers, zip, crypt) = (drivers / host_ns, zip / host_ns, crypt / host_ns);
    layers.push(("share.simnet.world".into(), world));
    layers.push(("share.core.drivers".into(), drivers));
    layers.push(("share.gridzip".into(), zip));
    layers.push(("share.gridcrypt".into(), crypt));
    layers.push((
        "share.simnet.runtime".into(),
        slices - drivers - zip - crypt,
    ));
    layers.push(("share.unattributed".into(), 1.0 - world - slices));
    failed
}

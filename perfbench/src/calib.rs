//! Machine-speed reference and CPU pinning for the host metrics.
//!
//! On a shared host the speed the benchmark sees drifts by ±15% over
//! minutes, and every repetition of a run drifts with it. The orchestrator
//! therefore times a fixed reference kernel before each repetition, under
//! the same CPU affinity, and scales the host throughputs and set-up time
//! by the run's median reference time against [`NOMINAL_S`]: a run on a
//! machine that is momentarily 10% slower reports what it would have on
//! the nominal one.
//! The kernel is the benchmark's own code and shares nothing with the
//! program under test, so a change to the program cannot move it.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

/// About the reference kernel's time on the machine the bounds were set
/// on (a 2-vCPU, 2.1 GHz Xeon VM, where run medians ranged from 0.196 to
/// 0.262 s), in seconds.
pub const NOMINAL_S: f64 = 0.21;

/// Time one pass of the reference kernel, in seconds. The work is fixed:
/// an event heap with packet-sized buffer copies over a 6 MB and a 24 MB
/// buffer pool (the simulator's memory pattern), then a random pointer
/// chase through 16 MB. Of the kernels tried, this mix tracked the
/// simulator's host time most closely across slow and fast spells of a
/// shared host; a pure compute loop moved only about half as much.
pub fn reference_s() -> f64 {
    let t0 = Instant::now();
    let mut rng = Xorshift(0x9e37_79b9_7f4a_7c15);
    let acc = event_heap(&mut rng, 4096) ^ event_heap(&mut rng, 16384) ^ pointer_chase(&mut rng);
    std::hint::black_box(acc);
    t0.elapsed().as_secs_f64()
}

struct Xorshift(u64);

impl Xorshift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// 150k pops and pushes of a 100k-entry event heap, each copying a
/// packet-sized slice between two of `pool` 1500 B buffers.
fn event_heap(rng: &mut Xorshift, pool: usize) -> u64 {
    let mut heap: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::new();
    let mut bufs: Vec<Vec<u8>> = (0..pool).map(|_| vec![0u8; 1500]).collect();
    for i in 0..100_000u32 {
        heap.push(Reverse((rng.next() % 1_000_000, i)));
    }
    let mut acc = 0u64;
    for _ in 0..150_000u32 {
        let Reverse((t, id)) = heap.pop().expect("heap stays full");
        let r = rng.next();
        let n = 64 + (r as usize >> 20) % 1400;
        let copy: Vec<u8> = bufs[r as usize % pool][..n].to_vec();
        let dst = &mut bufs[id as usize % pool];
        dst[..n].copy_from_slice(&copy);
        dst[0] = dst[0].wrapping_add(r as u8);
        acc = acc.wrapping_add(u64::from(dst[n / 2]));
        heap.push(Reverse((t + 1 + (r >> 40) % 100_000, id)));
    }
    acc
}

/// 300k dependent loads along a random cycle through 4M `u32`s.
fn pointer_chase(rng: &mut Xorshift) -> u64 {
    const N: usize = 4 << 20;
    let mut order: Vec<u32> = (0..N as u32).collect();
    for i in (1..N).rev() {
        order.swap(i, (rng.next() % (i as u64 + 1)) as usize);
    }
    let mut next = vec![0u32; N];
    for i in 0..N {
        next[order[i] as usize] = order[(i + 1) % N];
    }
    let mut at = 0u32;
    for _ in 0..300_000 {
        at = next[at as usize];
    }
    u64::from(at)
}

/// CPU set of 1024 CPUs, as the C library's `cpu_set_t`.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// Restrict the calling thread, and every thread and process it starts
/// afterwards, to the highest-numbered CPU it may run on. Returns false
/// (and changes nothing) if the affinity cannot be read or set.
pub fn pin_to_one_cpu() -> bool {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a writable buffer of exactly the size passed.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) } != 0 {
        return false;
    }
    let Some(cpu) = (0..1024)
        .rev()
        .find(|&c| set[c / 64] & (1 << (c % 64)) != 0)
    else {
        return false;
    };
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of exactly the size passed.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) == 0 }
}

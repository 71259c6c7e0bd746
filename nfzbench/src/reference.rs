//! A fixed reference computation that measures how fast the machine is
//! running right now.
//!
//! Shared hosts slow a process down by a third or more for seconds at a
//! time (other tenants contend for cores, caches and memory bandwidth),
//! and the slowdown shows in thread CPU time as much as in wall time. The
//! benchmark therefore times this kernel between its operations, on as
//! many threads as the workload keeps busy, and reports every timing at
//! the speed where one kernel call takes [`NOMINAL_NS`]: a duration `d`
//! measured while the kernel took `k` is reported as
//! `d × (NOMINAL_NS / k)^ELASTICITY`. The kernel is independent of the
//! code under test, so a change to the system moves only `d`; a slower
//! host moves both.
//!
//! [`ELASTICITY`] is how much more the workloads slow down than the
//! kernel: regressing per-interval log throughput on log kernel time gave
//! slopes of 1.20–1.22 for `fuzz`, `dedup` and `directed` on a 2-CPU
//! x86-64 container (an underestimate, as the kernel timings are noisy),
//! and 1.25 gave the steadiest runs. On a quiet host `k` barely moves and
//! the scaling is a constant.
//!
//! The kernel does the kinds of work the simulated event loop does
//! (small allocations, ordered-map and heap traffic, boxed closures
//! called through a pointer, data-dependent branches) on fixed inputs.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::time::Instant;

use crate::workloads::splitmix;

/// Iterations per kernel call.
const STEPS: u64 = 4096;

/// Kernel calls per timing on each thread; the median is taken.
const CALLS: usize = 3;

/// The kernel time timings are scaled to, in ns: about what one call
/// takes on a quiet 2-CPU x86-64 container.
pub const NOMINAL_NS: f64 = 800_000.0;

/// How much more the workloads slow down than the kernel (see above).
pub const ELASTICITY: f64 = 1.25;

/// The factor that takes a duration measured while the kernel took
/// `kernel_ns` to the reference speed.
pub fn scale(kernel_ns: f64) -> f64 {
    (NOMINAL_NS / kernel_ns).powf(ELASTICITY)
}

/// Times the kernel on `threads` threads at once: the mean over threads
/// of the median of a few calls, in ns.
pub fn time_kernel(threads: usize) -> f64 {
    let times: Vec<f64> = std::thread::scope(|s| {
        let others: Vec<_> = (1..threads).map(|_| s.spawn(time_calls)).collect();
        let mut times = vec![time_calls()];
        times.extend(
            others
                .into_iter()
                .map(|h| h.join().expect("the kernel does not panic")),
        );
        times
    });
    times.iter().sum::<f64>() / times.len() as f64
}

fn time_calls() -> f64 {
    let mut ns = [0.0; CALLS];
    for slot in &mut ns {
        let start = Instant::now();
        std::hint::black_box(kernel());
        *slot = start.elapsed().as_nanos() as f64;
    }
    ns.sort_by(f64::total_cmp);
    ns[CALLS / 2]
}

/// Runs the kernel once; the result only keeps the work observable.
pub fn kernel() -> u64 {
    let mut map: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    let mut heap = BinaryHeap::new();
    let mut calls: Vec<Box<dyn Fn(u64) -> u64>> = Vec::new();
    let mut x = 0x6E66_7A62_656E_6368_u64;
    let mut acc = 0u64;
    for i in 0..STEPS {
        x = splitmix(x);
        heap.push(Reverse(x % 100_000));
        if heap.len() > 256 {
            acc ^= heap.pop().map_or(0, |r| r.0);
        }
        map.entry(x % 1024).or_default().push(x);
        let k = x;
        calls.push(Box::new(move |y| y.rotate_left((k % 63) as u32) ^ k));
        if calls.len() > 128 {
            acc = calls.iter().fold(acc, |a, f| f(a));
            calls.clear();
        }
        if i % 2048 == 2047 {
            map.clear();
        }
    }
    acc ^ map.len() as u64
}

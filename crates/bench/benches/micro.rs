//! Micro-benchmarks of the runtime and analysis kernels: event-loop
//! dispatch throughput under each scheduler, worker-pool throughput,
//! network echo throughput, and Levenshtein distance.
//!
//! Hand-rolled timing harness (median of `reps` timed runs after a warmup)
//! so the workspace carries no external bench dependency.

use std::time::Instant;

use nodefz::Mode;
use nodefz_net::{Client, SimNet};
use nodefz_rt::{LoopConfig, VDur};
use nodefz_trace::{levenshtein, levenshtein_banded};

/// Times `f` over `reps` runs (after one warmup) and prints the median.
fn bench(name: &str, reps: usize, mut f: impl FnMut()) {
    f();
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite sample"));
    let median = samples[samples.len() / 2];
    let min = samples[0];
    let max = samples[samples.len() - 1];
    println!("{name:<40} median {median:9.3} ms   (min {min:.3}, max {max:.3}, n={reps})");
}

fn bench_timer_dispatch() {
    for mode in [Mode::Vanilla, Mode::NoFuzz, Mode::Fuzz] {
        let label = format!("timer_dispatch_1k/{}", mode.label());
        let mode2 = mode.clone();
        bench(&label, 15, move || {
            let mut el = mode2.build_loop(LoopConfig::seeded(1), 7);
            el.enter(|cx| {
                for i in 0..1_000u64 {
                    cx.set_timeout(VDur::micros(i), |_| {});
                }
            });
            let report = el.run();
            assert!(report.dispatched >= 1_000);
        });
    }
}

fn bench_pool_throughput() {
    for mode in [Mode::Vanilla, Mode::Fuzz] {
        let label = format!("pool_500_tasks/{}", mode.label());
        let mode2 = mode.clone();
        bench(&label, 15, move || {
            let mut el = mode2.build_loop(LoopConfig::seeded(2), 9);
            el.enter(|cx| {
                for _ in 0..500 {
                    cx.submit_work(VDur::micros(50), |_| (), |_, ()| {})
                        .unwrap();
                }
            });
            let report = el.run();
            assert_eq!(report.pool.completed, 500);
        });
    }
}

fn bench_net_echo() {
    for mode in [Mode::Vanilla, Mode::Fuzz] {
        let label = format!("net_echo_100_msgs/{}", mode.label());
        let mode2 = mode.clone();
        bench(&label, 15, move || {
            let mut el = mode2.build_loop(LoopConfig::seeded(3), 11);
            let net = SimNet::new();
            let n = net.clone();
            el.enter(move |cx| {
                n.listen(cx, 80, |_cx, conn| {
                    conn.on_data(|cx, conn, msg| {
                        let _ = conn.write(cx, msg.to_vec());
                    });
                })
                .unwrap();
            });
            let client = el.enter(|cx| {
                let c = Client::connect(cx, &net, 80);
                for i in 0..100u8 {
                    c.send(cx, vec![i]);
                }
                c.close_after(cx, VDur::millis(500));
                c
            });
            el.enter(|cx| net.close_all_listeners_after(cx, VDur::millis(600)));
            el.run();
            assert_eq!(client.received().len(), 100);
        });
    }
}

fn bench_levenshtein() {
    // Deterministic pseudo-random schedules.
    let mut x: u64 = 42;
    let mut next = move || {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (x >> 33) as u8 % 8 + b'A'
    };
    let a: Vec<u8> = (0..2_000).map(|_| next()).collect();
    let b: Vec<u8> = (0..2_000).map(|_| next()).collect();
    bench("levenshtein_2k_exact", 9, || {
        let _ = levenshtein(&a, &b);
    });
    let mut c2 = a.clone();
    for slot in c2.iter_mut().step_by(40) {
        *slot = b'z';
    }
    bench("levenshtein_2k_banded", 9, || {
        let _ = levenshtein_banded(&a, &c2, 128).expect("within band");
    });
}

fn main() {
    bench_timer_dispatch();
    bench_pool_throughput();
    bench_net_echo();
    bench_levenshtein();
}

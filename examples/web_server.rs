//! A registration web server with a check-then-insert atomicity violation
//! (the GHO pattern from the paper's bug study), hunted with Node.fz.
//!
//! The server asynchronously checks whether a username exists and
//! asynchronously inserts it if not — two interleavable steps. The example
//! runs the same workload under vanilla scheduling (the bug hides) and
//! then fuzzes seeds until the duplicate account appears.
//!
//! ```sh
//! cargo run -p nodefz-bench --example web_server
//! ```

use nodefz::Mode;
use nodefz_kv::{Kv, KvTiming};
use nodefz_net::{Client, LatencyModel, SimNet};
use nodefz_rt::{EventLoop, LoopConfig, VDur};

/// Builds the server and workload; returns the kv handle for inspection.
fn scenario(el: &mut EventLoop) -> Kv {
    // Steady network and database timing: the calm schedule really is calm.
    let net = SimNet::with_latency(LatencyModel {
        base: VDur::millis(2),
        jitter: 0.05,
    });
    let n = net.clone();
    let kv = el.enter(|cx| {
        Kv::connect_with(
            cx,
            2,
            KvTiming {
                latency: VDur::millis(1),
                latency_jitter: 0.05,
                proc: VDur::micros(200),
                proc_jitter: 0.1,
            },
        )
        .expect("kv pool")
    });
    let kv_srv = kv.clone();
    el.enter(move |cx| {
        n.listen(cx, 80, move |_cx, conn| {
            let kv = kv_srv.clone();
            conn.on_data(move |cx, conn, msg| {
                let Some(name) = msg.strip_prefix(b"signup:") else {
                    return;
                };
                let name = String::from_utf8_lossy(name).to_string();
                let kv2 = kv.clone();
                let me = conn.clone();
                let key = format!("user:{name}");
                let key2 = key.clone();
                // RACY: async check ...
                kv.get(cx, &key, move |cx, existing| {
                    if existing.is_some() {
                        let _ = me.write(cx, b"taken");
                        return;
                    }
                    let kv3 = kv2.clone();
                    let me2 = me.clone();
                    // ... then async insert.
                    kv2.set(cx, &key2, "profile", move |cx, ()| {
                        let row = format!("acct:{}", me2.id().to_owned_label());
                        kv3.set(cx, &row, "created", |_cx, ()| {});
                        let _ = me2.write(cx, b"welcome");
                    });
                });
            });
        })
        .expect("listen");
    });
    el.enter(|cx| {
        // A server also runs periodic work — every expired timer is a
        // deferral opportunity for the fuzzer.
        cx.set_interval(VDur::micros(800), |cx| {
            cx.busy(VDur::micros(30));
            if cx.now() > nodefz_rt::VTime::ZERO + VDur::millis(12) {
                // Periodic work winds down with the test.
                cx.stop();
            }
        });
        // The second signup normally arrives well after the first one's
        // insert has been applied.
        for delay_us in [0u64, 3_800] {
            let c = Client::connect(cx, &net, 80);
            c.send_after(cx, VDur::micros(delay_us), b"signup:alice");
            c.close_after(cx, VDur::millis(20));
        }
        net.close_all_listeners_after(cx, VDur::millis(30));
    });
    kv
}

fn accounts(kv: &Kv) -> usize {
    kv.count_prefix_sync("acct:")
}

fn main() {
    println!("hunting a check-then-insert AV with Node.fz\n");
    // Vanilla: the calm schedule hides the race.
    let mut el = Mode::Vanilla.build_loop(LoopConfig::seeded(1), 0);
    let kv = scenario(&mut el);
    el.run();
    println!(
        "nodeV  seed 1: {} account row(s) for 'alice'",
        accounts(&kv)
    );

    // Fuzz seeds until the duplicate appears.
    for seed in 0..200 {
        let mut el = Mode::Fuzz.build_loop(LoopConfig::seeded(seed), seed);
        let kv = scenario(&mut el);
        let report = el.run();
        let rows = accounts(&kv);
        if rows > 1 {
            println!(
                "nodeFZ seed {seed}: {} account rows — the race manifested \
                 after {} callbacks at {}",
                rows, report.dispatched, report.end_time
            );
            println!("\nBoth registrations observed 'absent' and both inserted.");
            return;
        }
    }
    panic!("the race should manifest within 200 fuzzed seeds");
}

/// Tiny helper so the example can label rows per connection.
trait OwnedLabel {
    fn to_owned_label(&self) -> String;
}

impl OwnedLabel for nodefz_net::ConnId {
    fn to_owned_label(&self) -> String {
        format!("{self:?}")
    }
}

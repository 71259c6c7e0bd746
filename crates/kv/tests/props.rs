//! Model-based property tests: sequential operation chains on a
//! single-connection pool must agree with a trivially-correct map model
//! (single-connection replies are FIFO, so the application order is the
//! submission order).

use std::cell::RefCell;
use std::rc::Rc;

use nodefz_check::{forall, Gen};

use nodefz_kv::Kv;
use nodefz_rt::{Ctx, EventLoop, LoopConfig};

#[derive(Clone, Debug)]
enum Op {
    Get(String),
    Set(String, String),
    SetNx(String, String),
    Del(String),
    Incr(String),
    LPush(String, String),
}

fn gen_key(g: &mut Gen) -> String {
    g.pick(&["a", "b", "c", "list"]).to_string()
}

fn gen_op(g: &mut Gen) -> Op {
    match g.below(6) {
        0 => Op::Get(gen_key(g)),
        1 => Op::Set(gen_key(g), g.lowercase(1, 5)),
        2 => Op::SetNx(gen_key(g), g.lowercase(1, 5)),
        3 => Op::Del(gen_key(g)),
        4 => Op::Incr(gen_key(g)),
        _ => Op::LPush(gen_key(g), g.lowercase(1, 5)),
    }
}

#[derive(Default)]
struct Model {
    strings: std::collections::BTreeMap<String, String>,
    lists: std::collections::BTreeMap<String, std::collections::VecDeque<String>>,
}

impl Model {
    fn apply(&mut self, op: &Op) -> String {
        match op {
            Op::Get(k) => format!("{:?}", self.strings.get(k)),
            Op::Set(k, v) => {
                self.lists.remove(k);
                self.strings.insert(k.clone(), v.clone());
                "()".into()
            }
            Op::SetNx(k, v) => {
                let taken = self.strings.contains_key(k) || self.lists.contains_key(k);
                if !taken {
                    self.strings.insert(k.clone(), v.clone());
                }
                format!("{}", !taken)
            }
            Op::Del(k) => {
                let existed = self.strings.remove(k).is_some() | self.lists.remove(k).is_some();
                format!("{existed}")
            }
            Op::Incr(k) => {
                let next = self
                    .strings
                    .get(k)
                    .and_then(|s| s.parse::<i64>().ok())
                    .unwrap_or(0)
                    + 1;
                self.lists.remove(k);
                self.strings.insert(k.clone(), next.to_string());
                format!("{next}")
            }
            Op::LPush(k, v) => {
                if self.strings.contains_key(k) {
                    // Type clash mirrors the sim's Nil reply.
                    return "-1".into();
                }
                let list = self.lists.entry(k.clone()).or_default();
                list.push_front(v.clone());
                format!("{}", list.len())
            }
        }
    }
}

fn run_sim(ops: Vec<Op>, seed: u64) -> Vec<String> {
    let mut el = EventLoop::new(LoopConfig::seeded(seed));
    let kv = el.enter(|cx| Kv::connect(cx, 1).expect("pool"));
    let results: Rc<RefCell<Vec<String>>> = Rc::new(RefCell::new(Vec::new()));

    fn step(cx: &mut Ctx<'_>, kv: Kv, mut ops: Vec<Op>, out: Rc<RefCell<Vec<String>>>) {
        if ops.is_empty() {
            return;
        }
        let op = ops.remove(0);
        macro_rules! cont {
            ($fmt:expr) => {{
                let kv2 = kv.clone();
                let out2 = out.clone();
                move |cx: &mut Ctx<'_>, value| {
                    out2.borrow_mut().push($fmt(value));
                    step(cx, kv2, ops, out2.clone());
                }
            }};
        }
        match op {
            Op::Get(k) => kv.get(cx, &k, cont!(|v: Option<String>| format!("{v:?}"))),
            Op::Set(k, v) => kv.set(cx, &k, &v, cont!(|_: ()| "()".to_string())),
            Op::SetNx(k, v) => kv.setnx(cx, &k, &v, cont!(|b: bool| format!("{b}"))),
            Op::Del(k) => kv.del(cx, &k, cont!(|b: bool| format!("{b}"))),
            Op::Incr(k) => kv.incr(cx, &k, cont!(|n: i64| format!("{n}"))),
            Op::LPush(k, v) => kv.lpush(cx, &k, &v, cont!(|n: i64| format!("{n}"))),
        }
    }

    let k = kv.clone();
    let out = results.clone();
    el.enter(move |cx| step(cx, k, ops, out));
    el.run();
    Rc::try_unwrap(results).expect("loop done").into_inner()
}

#[test]
fn kv_agrees_with_the_model() {
    forall("kv_agrees_with_the_model", 48, |g| {
        let ops = g.vec_with(1, 20, gen_op);
        let seed = g.u64();
        let sim = run_sim(ops.clone(), seed);
        let mut model = Model::default();
        let expected: Vec<String> = ops.iter().map(|op| model.apply(op)).collect();
        assert_eq!(sim, expected, "ops: {ops:?}");
    });
}

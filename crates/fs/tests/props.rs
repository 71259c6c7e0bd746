//! Model-based property tests: arbitrary operation sequences applied to
//! `SimFs` (through the event loop, single chain so order is determined)
//! must agree with a trivially-correct in-memory model.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use nodefz_check::{forall, Gen};

use nodefz_fs::SimFs;
use nodefz_rt::{Ctx, Errno, EventLoop, LoopConfig};

#[derive(Clone, Debug)]
enum Op {
    Mkdir(String),
    WriteFile(String, Vec<u8>),
    Append(String, Vec<u8>),
    ReadFile(String),
}

#[derive(Clone, Debug, PartialEq)]
enum ModelNode {
    Dir,
    File(Vec<u8>),
}

/// The reference model: a flat path map with explicit parent checks.
#[derive(Default)]
struct Model {
    nodes: BTreeMap<Vec<String>, ModelNode>,
}

fn split(path: &str) -> Result<Vec<String>, Errno> {
    let parts: Vec<String> = path
        .split('/')
        .filter(|p| !p.is_empty())
        .map(str::to_string)
        .collect();
    if parts.is_empty() {
        return Err(Errno::Einval);
    }
    Ok(parts)
}

impl Model {
    fn parent_ok(&self, parts: &[String]) -> Result<(), Errno> {
        for i in 1..parts.len() {
            match self.nodes.get(&parts[..i]) {
                Some(ModelNode::Dir) => {}
                Some(ModelNode::File(_)) => return Err(Errno::Enotdir),
                None => return Err(Errno::Enoent),
            }
        }
        Ok(())
    }

    fn mkdir(&mut self, path: &str) -> Result<(), Errno> {
        let parts = split(path)?;
        self.parent_ok(&parts)?;
        if self.nodes.contains_key(&parts) {
            return Err(Errno::Eexist);
        }
        self.nodes.insert(parts, ModelNode::Dir);
        Ok(())
    }

    fn write(&mut self, path: &str, data: &[u8], append: bool) -> Result<(), Errno> {
        let parts = split(path)?;
        self.parent_ok(&parts)?;
        match self.nodes.get_mut(&parts) {
            Some(ModelNode::Dir) => Err(Errno::Eisdir),
            Some(ModelNode::File(existing)) => {
                if append {
                    existing.extend_from_slice(data);
                } else {
                    *existing = data.to_vec();
                }
                Ok(())
            }
            None => {
                self.nodes.insert(parts, ModelNode::File(data.to_vec()));
                Ok(())
            }
        }
    }

    fn read(&self, path: &str) -> Result<Vec<u8>, Errno> {
        let parts = split(path)?;
        // Parent errors surface before the leaf lookup, like the real fs.
        self.parent_ok(&parts)?;
        match self.nodes.get(&parts) {
            Some(ModelNode::File(d)) => Ok(d.clone()),
            Some(ModelNode::Dir) => Err(Errno::Eisdir),
            None => Err(Errno::Enoent),
        }
    }
}

/// A small path universe so operations collide meaningfully.
fn gen_path(g: &mut Gen) -> String {
    let paths = ["a", "b", "a/x", "a/y", "b/x", "a/x/deep", "file", "a/file"];
    g.pick(&paths).to_string()
}

fn gen_op(g: &mut Gen) -> Op {
    match g.below(4) {
        0 => Op::Mkdir(gen_path(g)),
        1 => Op::WriteFile(gen_path(g), g.bytes(0, 8)),
        2 => Op::Append(gen_path(g), g.bytes(0, 8)),
        _ => Op::ReadFile(gen_path(g)),
    }
}

/// Runs `ops` sequentially through the loop (each op in the completion
/// callback of the previous one) and records each result as a string.
fn run_sim(ops: Vec<Op>, seed: u64) -> Vec<String> {
    let mut el = EventLoop::new(LoopConfig::seeded(seed));
    let fs = SimFs::new();
    let results: Rc<RefCell<Vec<String>>> = Rc::new(RefCell::new(Vec::new()));

    fn step(cx: &mut Ctx<'_>, fs: SimFs, mut ops: Vec<Op>, out: Rc<RefCell<Vec<String>>>) {
        if ops.is_empty() {
            return;
        }
        let op = ops.remove(0);
        let cont = move |cx: &mut Ctx<'_>,
                         result: String,
                         fs: SimFs,
                         ops: Vec<Op>,
                         out: Rc<RefCell<Vec<String>>>| {
            out.borrow_mut().push(result);
            step(cx, fs, ops, out);
        };
        match op {
            Op::Mkdir(p) => {
                let f = fs.clone();
                fs.mkdir(cx, &p, move |cx, r| cont(cx, format!("{r:?}"), f, ops, out));
            }
            Op::WriteFile(p, d) => {
                let f = fs.clone();
                fs.write_file(cx, &p, d, move |cx, r| {
                    cont(cx, format!("{r:?}"), f, ops, out)
                });
            }
            Op::Append(p, d) => {
                let f = fs.clone();
                fs.append(cx, &p, d, move |cx, r| {
                    cont(cx, format!("{r:?}"), f, ops, out)
                });
            }
            Op::ReadFile(p) => {
                let f = fs.clone();
                fs.read_file(cx, &p, move |cx, r| cont(cx, format!("{r:?}"), f, ops, out));
            }
        }
    }

    let f = fs.clone();
    let out = results.clone();
    el.enter(move |cx| step(cx, f, ops, out));
    el.run();
    Rc::try_unwrap(results).expect("loop done").into_inner()
}

fn run_model(ops: &[Op]) -> Vec<String> {
    let mut model = Model::default();
    ops.iter()
        .map(|op| match op {
            Op::Mkdir(p) => format!("{:?}", model.mkdir(p)),
            Op::WriteFile(p, d) => format!("{:?}", model.write(p, d, false)),
            Op::Append(p, d) => format!("{:?}", model.write(p, d, true)),
            Op::ReadFile(p) => format!("{:?}", model.read(p)),
        })
        .collect()
}

#[test]
fn simfs_agrees_with_the_model() {
    forall("simfs_agrees_with_the_model", 64, |g| {
        let ops = g.vec_with(1, 25, gen_op);
        let seed = g.u64();
        let sim = run_sim(ops.clone(), seed);
        let model = run_model(&ops);
        assert_eq!(sim, model, "ops: {ops:?}");
    });
}

//! # nodefz-fs — simulated file system on the worker pool
//!
//! Node.js file-system calls are "asynchronous" because libuv executes them
//! on the worker pool (§2.2 of the paper). This crate reproduces that
//! architecture: every operation is submitted as a worker-pool task whose
//! body mutates a shared in-memory tree at the task's virtual execution
//! time, and whose completion callback runs on the event loop later.
//!
//! Consequences that matter for the bug study:
//!
//! * Two logically-concurrent operations interleave at *operation*
//!   granularity in virtual time — the source of the FS–FS races (MKD) and
//!   FS–Call races (CLF).
//! * Errors use the errno model the bugs turn on (`EEXIST`, `ENOENT`,
//!   `ENOTDIR`, …).
//!
//! ## Example
//!
//! ```
//! use nodefz_fs::SimFs;
//! use nodefz_rt::{EventLoop, LoopConfig};
//!
//! let mut el = EventLoop::new(LoopConfig::seeded(3));
//! let fs = SimFs::new();
//! let f = fs.clone();
//! el.enter(move |cx| {
//!     let f2 = f.clone();
//!     f.mkdir(cx, "logs", move |cx, r| {
//!         r.unwrap();
//!         f2.write_file(cx, "logs/app.log", b"hello".to_vec(), |_, r| {
//!             r.unwrap();
//!         });
//!     });
//! });
//! el.run();
//! assert!(fs.exists_sync("logs/app.log"));
//! assert_eq!(fs.readdir_sync("logs").unwrap(), ["app.log"]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use nodefz_rt::{Ctx, Errno, VDur};

/// Virtual execution costs per operation class.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FsCosts {
    /// Directory creation.
    pub mkdir: VDur,
    /// File read, base cost (plus size-proportional term).
    pub read: VDur,
    /// File write, base cost (plus size-proportional term).
    pub write: VDur,
}

impl Default for FsCosts {
    fn default() -> FsCosts {
        FsCosts {
            mkdir: VDur::micros(80),
            read: VDur::micros(60),
            write: VDur::micros(100),
        }
    }
}

#[derive(Clone, Debug)]
enum Node {
    Dir(BTreeMap<String, Node>),
    File(Vec<u8>),
}

#[derive(Debug, Default)]
struct FsStats {
    ops: u64,
    creates: u64,
}

struct FsState {
    root: BTreeMap<String, Node>,
    costs: FsCosts,
    stats: FsStats,
}

/// The simulated file system. Cheap to clone; clones share the tree.
#[derive(Clone)]
pub struct SimFs {
    inner: Rc<RefCell<FsState>>,
}

impl Default for SimFs {
    fn default() -> SimFs {
        SimFs::new()
    }
}

fn split(path: &str) -> Result<Vec<String>, Errno> {
    let parts: Vec<String> = path
        .split('/')
        .filter(|p| !p.is_empty() && *p != ".")
        .map(str::to_string)
        .collect();
    if parts.is_empty() {
        return Err(Errno::Einval);
    }
    Ok(parts)
}

impl FsState {
    fn resolve_dir<'a>(
        root: &'a mut BTreeMap<String, Node>,
        parents: &[String],
    ) -> Result<&'a mut BTreeMap<String, Node>, Errno> {
        let mut cur = root;
        for part in parents {
            match cur.get_mut(part) {
                Some(Node::Dir(children)) => cur = children,
                Some(Node::File(_)) => return Err(Errno::Enotdir),
                None => return Err(Errno::Enoent),
            }
        }
        Ok(cur)
    }

    fn mkdir(&mut self, path: &str) -> Result<(), Errno> {
        self.stats.ops += 1;
        let parts = split(path)?;
        let (leaf, parents) = parts.split_last().expect("split is non-empty");
        let dir = Self::resolve_dir(&mut self.root, parents)?;
        match dir.get(leaf) {
            Some(_) => Err(Errno::Eexist),
            None => {
                dir.insert(leaf.clone(), Node::Dir(BTreeMap::new()));
                self.stats.creates += 1;
                Ok(())
            }
        }
    }

    fn write_file(&mut self, path: &str, data: &[u8], append: bool) -> Result<(), Errno> {
        self.stats.ops += 1;
        let parts = split(path)?;
        let (leaf, parents) = parts.split_last().expect("split is non-empty");
        let dir = Self::resolve_dir(&mut self.root, parents)?;
        match dir.get_mut(leaf) {
            Some(Node::Dir(_)) => Err(Errno::Eisdir),
            Some(Node::File(existing)) => {
                if append {
                    existing.extend_from_slice(data);
                } else {
                    *existing = data.to_vec();
                }
                Ok(())
            }
            None => {
                dir.insert(leaf.clone(), Node::File(data.to_vec()));
                self.stats.creates += 1;
                Ok(())
            }
        }
    }

    fn read_file(&mut self, path: &str) -> Result<Vec<u8>, Errno> {
        self.stats.ops += 1;
        let parts = split(path)?;
        let (leaf, parents) = parts.split_last().expect("split is non-empty");
        let dir = Self::resolve_dir(&mut self.root, parents)?;
        match dir.get(leaf) {
            Some(Node::File(data)) => Ok(data.clone()),
            Some(Node::Dir(_)) => Err(Errno::Eisdir),
            None => Err(Errno::Enoent),
        }
    }

    fn readdir(&mut self, path: &str) -> Result<Vec<String>, Errno> {
        self.stats.ops += 1;
        if path.is_empty() || path == "/" || path == "." {
            return Ok(self.root.keys().cloned().collect());
        }
        let parts = split(path)?;
        let dir = Self::resolve_dir(&mut self.root, &parts)?;
        Ok(dir.keys().cloned().collect())
    }
}

impl SimFs {
    /// Creates an empty file system with default costs.
    pub fn new() -> SimFs {
        SimFs::with_costs(FsCosts::default())
    }

    /// Creates an empty file system with custom operation costs.
    pub fn with_costs(costs: FsCosts) -> SimFs {
        SimFs {
            inner: Rc::new(RefCell::new(FsState {
                root: BTreeMap::new(),
                costs,
                stats: FsStats::default(),
            })),
        }
    }

    fn submit<T: 'static>(
        &self,
        cx: &mut Ctx<'_>,
        cost: VDur,
        op: impl FnOnce(&mut FsState) -> T + 'static,
        cb: impl FnOnce(&mut Ctx<'_>, T) + 'static,
    ) {
        let fs = self.clone();
        let submit = cx.submit_work(cost, move |_w| op(&mut fs.inner.borrow_mut()), cb);
        if submit.is_err() {
            // Descriptor exhaustion while de-multiplexing: surface as a
            // loop-level error so tests can observe it (§4.4).
            cx.report_error(
                "EMFILE",
                "fs operation could not allocate a task descriptor",
            );
        }
    }

    /// Creates a directory (`fs.mkdir`).
    pub fn mkdir(
        &self,
        cx: &mut Ctx<'_>,
        path: &str,
        cb: impl FnOnce(&mut Ctx<'_>, Result<(), Errno>) + 'static,
    ) {
        let path = path.to_string();
        let cost = self.inner.borrow().costs.mkdir;
        self.submit(cx, cost, move |fs| fs.mkdir(&path), cb);
    }

    /// Creates or truncates a file with the given contents
    /// (`fs.writeFile`).
    pub fn write_file(
        &self,
        cx: &mut Ctx<'_>,
        path: &str,
        data: Vec<u8>,
        cb: impl FnOnce(&mut Ctx<'_>, Result<(), Errno>) + 'static,
    ) {
        let path = path.to_string();
        let cost = self.inner.borrow().costs.write + VDur::nanos(data.len() as u64 * 4);
        self.submit(cx, cost, move |fs| fs.write_file(&path, &data, false), cb);
    }

    /// Appends to a file, creating it if needed (`fs.appendFile`).
    pub fn append(
        &self,
        cx: &mut Ctx<'_>,
        path: &str,
        data: Vec<u8>,
        cb: impl FnOnce(&mut Ctx<'_>, Result<(), Errno>) + 'static,
    ) {
        let path = path.to_string();
        let cost = self.inner.borrow().costs.write + VDur::nanos(data.len() as u64 * 4);
        self.submit(cx, cost, move |fs| fs.write_file(&path, &data, true), cb);
    }

    /// Reads a whole file (`fs.readFile`).
    pub fn read_file(
        &self,
        cx: &mut Ctx<'_>,
        path: &str,
        cb: impl FnOnce(&mut Ctx<'_>, Result<Vec<u8>, Errno>) + 'static,
    ) {
        let path = path.to_string();
        let cost = self.inner.borrow().costs.read;
        self.submit(cx, cost, move |fs| fs.read_file(&path), cb);
    }

    // ---- Synchronous inspection (for oracles and setup) ---------------------

    /// Whether a path exists right now (oracle helper; not a modelled op).
    pub fn exists_sync(&self, path: &str) -> bool {
        let mut st = self.inner.borrow_mut();
        let Ok(parts) = split(path) else {
            return false;
        };
        let (leaf, parents) = parts.split_last().expect("split is non-empty");
        match FsState::resolve_dir(&mut st.root, parents) {
            Ok(dir) => dir.contains_key(leaf),
            Err(_) => false,
        }
    }

    /// Lists a directory right now (oracle helper).
    pub fn readdir_sync(&self, path: &str) -> Result<Vec<String>, Errno> {
        self.inner.borrow_mut().readdir(path)
    }

    /// Creates a directory right now (setup helper).
    pub fn mkdir_sync(&self, path: &str) -> Result<(), Errno> {
        self.inner.borrow_mut().mkdir(path)
    }

    /// Creates or truncates a file right now (setup helper).
    pub fn write_sync(&self, path: &str, data: Vec<u8>) -> Result<(), Errno> {
        self.inner.borrow_mut().write_file(path, &data, false)
    }

    /// Total files + directories ever created (diagnostics).
    pub fn creates(&self) -> u64 {
        self.inner.borrow().stats.creates
    }

    /// Total operations executed (diagnostics).
    pub fn ops(&self) -> u64 {
        self.inner.borrow().stats.ops
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nodefz_rt::{EventLoop, LoopConfig};

    fn run_fs(seed: u64, setup: impl FnOnce(&mut Ctx<'_>, SimFs)) -> SimFs {
        let mut el = EventLoop::new(LoopConfig::seeded(seed));
        let fs = SimFs::new();
        let f = fs.clone();
        el.enter(move |cx| setup(cx, f));
        el.run();
        fs
    }

    #[test]
    fn mkdir_then_exists() {
        let fs = run_fs(1, |cx, fs| {
            fs.mkdir(cx, "a", |_, r| r.unwrap());
        });
        assert!(fs.exists_sync("a"));
        assert!(!fs.exists_sync("b"));
    }

    #[test]
    fn mkdir_missing_parent_is_enoent() {
        let fs = run_fs(2, |cx, fs| {
            fs.mkdir(cx, "a/b/c", |cx, r| {
                assert_eq!(r, Err(Errno::Enoent));
                cx.report_error("saw-enoent", "");
            });
        });
        assert!(!fs.exists_sync("a"));
    }

    #[test]
    fn mkdir_twice_is_eexist() {
        run_fs(3, |cx, fs| {
            let fs2 = fs.clone();
            fs.mkdir(cx, "dup", move |cx, r| {
                r.unwrap();
                fs2.mkdir(cx, "dup", |_, r| {
                    assert_eq!(r, Err(Errno::Eexist));
                });
            });
        });
    }

    #[test]
    fn write_read_roundtrip() {
        let read = Rc::new(RefCell::new(None));
        let got = read.clone();
        run_fs(4, move |cx, fs| {
            let fs2 = fs.clone();
            fs.write_file(cx, "f.txt", b"abc".to_vec(), move |cx, r| {
                r.unwrap();
                fs2.read_file(cx, "f.txt", move |_, r| *got.borrow_mut() = Some(r));
            });
        });
        assert_eq!(read.take(), Some(Ok(b"abc".to_vec())));
    }

    #[test]
    fn append_accumulates() {
        let read = Rc::new(RefCell::new(None));
        let got = read.clone();
        run_fs(5, move |cx, fs| {
            let fs2 = fs.clone();
            fs.append(cx, "log", b"one".to_vec(), move |cx, r| {
                r.unwrap();
                let fs3 = fs2.clone();
                fs2.append(cx, "log", b"two".to_vec(), move |cx, r| {
                    r.unwrap();
                    fs3.read_file(cx, "log", move |_, r| *got.borrow_mut() = Some(r));
                });
            });
        });
        assert_eq!(read.take(), Some(Ok(b"onetwo".to_vec())));
    }

    #[test]
    fn read_missing_is_enoent() {
        run_fs(6, |cx, fs| {
            fs.read_file(cx, "ghost", |_, r| {
                assert_eq!(r.err(), Some(Errno::Enoent));
            });
        });
    }

    #[test]
    fn read_dir_is_eisdir() {
        run_fs(7, |cx, fs| {
            let fs2 = fs.clone();
            fs.mkdir(cx, "d", move |cx, r| {
                r.unwrap();
                fs2.read_file(cx, "d", |_, r| {
                    assert_eq!(r.err(), Some(Errno::Eisdir));
                });
            });
        });
    }

    #[test]
    fn file_as_path_component_is_enotdir() {
        run_fs(8, |cx, fs| {
            let fs2 = fs.clone();
            fs.write_file(cx, "f", b"x".to_vec(), move |cx, r| {
                r.unwrap();
                fs2.mkdir(cx, "f/sub", |_, r| {
                    assert_eq!(r, Err(Errno::Enotdir));
                });
            });
        });
    }

    #[test]
    fn readdir_lists_children_sorted() {
        let fs = SimFs::new();
        fs.mkdir_sync("d").unwrap();
        fs.mkdir_sync("d/z").unwrap();
        fs.mkdir_sync("d/a").unwrap();
        assert_eq!(fs.readdir_sync("d").unwrap(), ["a", "z"]);
        assert_eq!(fs.readdir_sync("/").unwrap(), ["d"]);
    }

    #[test]
    fn empty_path_is_einval() {
        run_fs(14, |cx, fs| {
            fs.mkdir(cx, "", |_, r| {
                assert_eq!(r, Err(Errno::Einval));
            });
        });
    }

    #[test]
    fn counters_track_activity() {
        let fs = run_fs(16, |cx, fs| {
            fs.mkdir(cx, "x", |_, r| r.unwrap());
        });
        assert_eq!(fs.creates(), 1);
        assert!(fs.ops() >= 1);
    }
}

//! Answering a replay without running it.
//!
//! A replay is a deterministic function of the decisions its replayer
//! takes: the program, the environment seed and the trace header fix the
//! rest. Two candidate traces that differ as lists often take the same
//! decision at every consultation — a shifted decision that meets the
//! wrong kind, or lies past the end, falls back to the same inert choice
//! ([`replay_choice`]) — and then they run the same schedule and get the
//! same answer.
//!
//! A [`ReplayStatusHandle::logging`] handle records each consultation's
//! shape and the decision taken into a [`ConsultLog`]. A [`ReplayMemo`]
//! stores such logs, each with its run's answer, as a trie: a node is a
//! prefix of taken decisions and holds the shape of the consultation the
//! run makes next (every run that took that prefix asks the same thing
//! next), or the answer where the run ended. A candidate walks the trie by
//! applying [`replay_choice`] at each node. Reaching a run's end answers
//! it; leaving the trie means it needs a real replay.
//!
//! The trie is one arena of nodes plus one pool of permutation entries, so
//! storing a run allocates only when those two vectors grow.
//!
//! [`ReplayStatusHandle::logging`]: crate::ReplayStatusHandle::logging

use crate::replay::{replay_choice, Consultation, Decision, Taken};

/// A taken decision as a [`ConsultLog`] or a [`ReplayMemo`] stores it: a
/// shuffle's permutation lives in its owner's pool.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Code {
    Timer(Option<u64>),
    /// `(start, len)` of the permutation in the pool; `None` leaves the
    /// ready list as it is.
    Shuffle(Option<(u32, u32)>),
    DeferReady(bool),
    DeferClose(bool),
    PickTask(u32),
}

impl Code {
    /// Stores `taken`, appending a permutation to `pool`.
    fn encode(taken: Taken<'_>, pool: &mut Vec<u32>) -> Code {
        match taken {
            Taken::Timer(t) => Code::Timer(t),
            Taken::Shuffle(None) => Code::Shuffle(None),
            Taken::Shuffle(Some(perm)) => {
                let start = pool.len() as u32;
                pool.extend_from_slice(perm);
                Code::Shuffle(Some((start, perm.len() as u32)))
            }
            Taken::DeferReady(d) => Code::DeferReady(d),
            Taken::DeferClose(d) => Code::DeferClose(d),
            Taken::PickTask(i) => Code::PickTask(i),
        }
    }

    /// The decision stored, its permutation read from `pool`.
    fn taken(self, pool: &[u32]) -> Taken<'_> {
        match self {
            Code::Timer(t) => Taken::Timer(t),
            Code::Shuffle(perm) => Taken::Shuffle(
                perm.map(|(start, len)| &pool[start as usize..(start + len) as usize]),
            ),
            Code::DeferReady(d) => Taken::DeferReady(d),
            Code::DeferClose(d) => Taken::DeferClose(d),
            Code::PickTask(i) => Taken::PickTask(i),
        }
    }
}

/// The consultations one replay made, in order, each with the decision it
/// took (see [`crate::ReplayStatusHandle::logging`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ConsultLog {
    steps: Vec<(Consultation, Code)>,
    /// The taken permutations, back to back.
    perms: Vec<u32>,
}

impl ConsultLog {
    /// Consultations logged.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether the run made no consultation.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Each consultation's shape and the decision it took, in order.
    pub fn steps(&self) -> impl Iterator<Item = (Consultation, Taken<'_>)> + '_ {
        self.steps
            .iter()
            .map(|&(at, code)| (at, code.taken(&self.perms)))
    }

    pub(crate) fn push(&mut self, at: Consultation, taken: Taken<'_>) {
        let code = Code::encode(taken, &mut self.perms);
        self.steps.push((at, code));
    }

    /// Empties the log, keeping its capacity.
    pub(crate) fn clear(&mut self) {
        self.steps.clear();
        self.perms.clear();
    }
}

/// Index of "no node" in [`Node::child`] and [`Node::sibling`].
const NONE: u32 = u32::MAX;

/// One prefix of taken decisions.
#[derive(Debug)]
struct Node {
    /// The decision taken to reach this node from its parent (unused at
    /// the root).
    taken: Code,
    /// What the runs through this prefix do next.
    next: Next,
    /// First child, and this node's next sibling (`NONE` when none).
    child: u32,
    sibling: u32,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Next {
    /// The run consults the scheduler again.
    Consult(Consultation),
    /// The run ended here, with this answer.
    End(bool),
}

/// The runs one shrink has replayed, as a trie of taken decisions (see the
/// module docs). Every run stored must come from the same program,
/// environment seed and trace header, and answer the same question.
#[derive(Debug, Default)]
pub struct ReplayMemo {
    /// The arena; the root, once a run is stored, is node 0.
    nodes: Vec<Node>,
    /// The permutations of the shuffle edges, back to back.
    perms: Vec<u32>,
    /// Set when a stored log contradicted an earlier one: the same
    /// decisions led to another consultation or another answer. Replays
    /// were then not a function of their decisions, and the memo stops
    /// answering.
    contradicted: bool,
}

impl ReplayMemo {
    /// An empty memo.
    pub fn new() -> ReplayMemo {
        ReplayMemo::default()
    }

    /// The answer of the stored run a replay of `decisions` would repeat
    /// decision for decision; `None` when no stored run takes the same
    /// decision at every consultation of it.
    pub fn answer(&self, decisions: &[Decision]) -> Option<bool> {
        self.walk(decisions, None)
    }

    /// [`ReplayMemo::answer`], also logging the path walked into `log`:
    /// the whole run when it answers, otherwise the prefix `decisions`
    /// shares with the stored runs, up to the consultation where it
    /// leaves them.
    pub fn answer_logged(&self, decisions: &[Decision], log: &mut ConsultLog) -> Option<bool> {
        log.clear();
        self.walk(decisions, Some(log))
    }

    /// Whether a stored log contradicted an earlier one; the memo then
    /// answers nothing.
    pub fn contradicted(&self) -> bool {
        self.contradicted
    }

    /// Stores one run: the log of its consultations and its answer.
    pub fn insert(&mut self, log: &ConsultLog, answer: bool) {
        let next = |i: usize| {
            log.steps
                .get(i)
                .map_or(Next::End(answer), |&(at, _)| Next::Consult(at))
        };
        if self.nodes.is_empty() {
            self.nodes.push(Node {
                taken: Code::Timer(None),
                next: next(0),
                child: NONE,
                sibling: NONE,
            });
        }
        let mut node = 0;
        for (i, (at, taken)) in log.steps().enumerate() {
            if self.nodes[node].next != Next::Consult(at) {
                self.contradicted = true;
                return;
            }
            node = match self.child(node, taken) {
                Some(child) => child,
                None => {
                    let child = self.nodes.len();
                    let taken = Code::encode(taken, &mut self.perms);
                    self.nodes.push(Node {
                        taken,
                        next: next(i + 1),
                        child: NONE,
                        sibling: self.nodes[node].child,
                    });
                    self.nodes[node].child = child as u32;
                    child
                }
            };
        }
        if self.nodes[node].next != Next::End(answer) {
            self.contradicted = true;
        }
    }

    fn walk(&self, decisions: &[Decision], mut log: Option<&mut ConsultLog>) -> Option<bool> {
        if self.contradicted || self.nodes.is_empty() {
            return None;
        }
        let mut node = 0;
        for i in 0.. {
            let at = match self.nodes[node].next {
                Next::End(answer) => return Some(answer),
                Next::Consult(at) => at,
            };
            let (taken, _) = replay_choice(decisions.get(i), at);
            if let Some(log) = log.as_deref_mut() {
                log.push(at, taken);
            }
            node = self.child(node, taken)?;
        }
        unreachable!("a run makes finitely many consultations")
    }

    /// The child of `node` reached by taking `taken`.
    fn child(&self, node: usize, taken: Taken<'_>) -> Option<usize> {
        let mut child = self.nodes[node].child;
        while child != NONE {
            let n = &self.nodes[child as usize];
            if n.taken.taken(&self.perms) == taken {
                return Some(child as usize);
            }
            child = n.sibling;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log(steps: &[(Consultation, Taken<'_>)]) -> ConsultLog {
        let mut log = ConsultLog::default();
        for &(at, taken) in steps {
            log.push(at, taken);
        }
        log
    }

    const SHUFFLE3: Consultation = Consultation::Shuffle { len: 3 };

    #[test]
    fn a_candidate_that_takes_a_stored_runs_decisions_gets_its_answer() {
        let mut memo = ReplayMemo::new();
        assert_eq!(memo.answer(&[]), None, "an empty memo answers nothing");
        let run = log(&[
            (Consultation::Timer, Taken::Timer(Some(5))),
            (SHUFFLE3, Taken::Shuffle(Some(&[2, 0, 1]))),
            (Consultation::PickTask { window: 2 }, Taken::PickTask(0)),
        ]);
        memo.insert(&run, true);
        let same = [
            Decision::Timer(Some(5)),
            Decision::Shuffle(vec![2, 0, 1].into()),
            Decision::PickTask(0),
        ];
        assert_eq!(memo.answer(&same), Some(true));
        // The pick falls back to the head past the end, and so does an
        // out-of-window one: the same run either way.
        assert_eq!(memo.answer(&same[..2]), Some(true));
        let far = [same[0].clone(), same[1].clone(), Decision::PickTask(7)];
        assert_eq!(memo.answer(&far), Some(true));
        // Decisions past the run's end are never consulted.
        let longer = [&same[..], &[Decision::DeferClose(true)]].concat();
        assert_eq!(memo.answer(&longer), Some(true));
        // Another permutation leaves the trie.
        let other = [
            Decision::Timer(Some(5)),
            Decision::Shuffle(vec![1, 0, 2].into()),
        ];
        let mut path = ConsultLog::default();
        assert_eq!(memo.answer_logged(&other, &mut path), None);
        assert_eq!(path.len(), 2, "the walk stops at the shuffle");
        let mut whole = ConsultLog::default();
        assert_eq!(memo.answer_logged(&same, &mut whole), Some(true));
        assert_eq!(whole, run, "an answer walks the whole stored run");
    }

    #[test]
    fn branching_runs_share_their_prefix_and_keep_their_answers() {
        let mut memo = ReplayMemo::new();
        let deferred = log(&[
            (Consultation::Timer, Taken::Timer(Some(9))),
            (Consultation::DeferClose, Taken::DeferClose(true)),
        ]);
        let ran = log(&[
            (Consultation::Timer, Taken::Timer(None)),
            (Consultation::DeferReady, Taken::DeferReady(false)),
            (SHUFFLE3, Taken::Shuffle(None)),
        ]);
        memo.insert(&deferred, true);
        memo.insert(&ran, false);
        memo.insert(&ran, false);
        assert!(!memo.contradicted());
        assert_eq!(memo.nodes.len(), 6, "a repeated run adds no node");
        assert_eq!(
            memo.answer(&[Decision::Timer(Some(9)), Decision::DeferClose(true)]),
            Some(true)
        );
        // A kind mismatch, an identity shuffle and the end of the trace
        // all take the inert decisions of the second run.
        assert_eq!(memo.answer(&[Decision::PickTask(3)]), Some(false));
        assert_eq!(
            memo.answer(&[
                Decision::Timer(None),
                Decision::DeferReady(false),
                Decision::Shuffle(vec![0, 1, 2].into()),
            ]),
            Some(false)
        );
        assert_eq!(
            memo.answer(&[Decision::Timer(Some(9)), Decision::DeferClose(false)]),
            None
        );
    }

    #[test]
    fn a_contradicting_run_stops_the_memo_answering() {
        let run = log(&[(Consultation::Timer, Taken::Timer(None))]);
        let mut memo = ReplayMemo::new();
        memo.insert(&run, true);
        memo.insert(&run, false);
        assert!(memo.contradicted());
        assert_eq!(memo.answer(&[]), None);

        let mut memo = ReplayMemo::new();
        memo.insert(&run, true);
        memo.insert(
            &log(&[(Consultation::DeferClose, Taken::DeferClose(false))]),
            true,
        );
        assert!(memo.contradicted(), "another first consultation");
        assert_eq!(memo.answer(&[]), None);
    }

    #[test]
    fn a_run_without_consultations_answers_every_candidate() {
        let mut memo = ReplayMemo::new();
        memo.insert(&ConsultLog::default(), true);
        assert_eq!(memo.answer(&[]), Some(true));
        assert_eq!(memo.answer(&[Decision::Timer(Some(1))]), Some(true));
    }
}

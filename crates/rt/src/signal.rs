//! Simulated UNIX signals.
//!
//! §4.2.1 of the paper lists signal delivery among the nondeterminism
//! sources unique to server-side JavaScript ("Linux Node.js applications
//! can spawn child processes, send and receive UNIX signals…"). Signals are
//! modelled like libuv models them: each watcher owns a descriptor
//! (signalfd-style) whose readiness flows through the poll phase — and is
//! therefore shuffleable and deferrable by the fuzzer like any other event.

use crate::poll::Fd;

/// The simulated signal set.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Signal {
    /// Interrupt (Ctrl-C).
    Int,
    /// Termination request.
    Term,
    /// Hang-up (often: reload configuration).
    Hup,
    /// User-defined signal 1.
    Usr1,
    /// User-defined signal 2.
    Usr2,
    /// Child state change.
    Chld,
}

impl Signal {
    /// Number of signals in the set.
    const COUNT: usize = 6;

    /// Conventional name.
    pub fn name(self) -> &'static str {
        match self {
            Signal::Int => "SIGINT",
            Signal::Term => "SIGTERM",
            Signal::Hup => "SIGHUP",
            Signal::Usr1 => "SIGUSR1",
            Signal::Usr2 => "SIGUSR2",
            Signal::Chld => "SIGCHLD",
        }
    }
}

/// Registry mapping signals to their watcher descriptors, indexed by
/// signal.
#[derive(Default)]
pub(crate) struct SignalState {
    watchers: [Vec<Fd>; Signal::COUNT],
    pub delivered: u64,
}

impl SignalState {
    pub fn register(&mut self, sig: Signal, fd: Fd) {
        self.watchers[sig as usize].push(fd);
    }

    pub fn unregister(&mut self, fd: Fd) -> bool {
        let mut removed = false;
        for fds in &mut self.watchers {
            let before = fds.len();
            fds.retain(|&f| f != fd);
            removed |= fds.len() != before;
        }
        removed
    }

    pub fn watchers_of(&self, sig: Signal) -> Vec<Fd> {
        self.watchers[sig as usize].clone()
    }

    pub fn watcher_count(&self, sig: Signal) -> usize {
        self.watchers[sig as usize].len()
    }

    /// Clears all state for a fresh run, keeping allocated capacity.
    pub fn reset(&mut self) {
        for fds in &mut self.watchers {
            fds.clear();
        }
        self.delivered = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_conventional() {
        assert_eq!(Signal::Int.name(), "SIGINT");
        assert_eq!(Signal::Chld.name(), "SIGCHLD");
    }

    #[test]
    fn register_unregister_roundtrip() {
        let mut st = SignalState::default();
        st.register(Signal::Term, Fd(4));
        st.register(Signal::Term, Fd(5));
        st.register(Signal::Hup, Fd(6));
        assert_eq!(st.watchers_of(Signal::Term), vec![Fd(4), Fd(5)]);
        assert_eq!(st.watcher_count(Signal::Hup), 1);
        assert!(st.unregister(Fd(4)));
        assert!(!st.unregister(Fd(4)));
        assert_eq!(st.watchers_of(Signal::Term), vec![Fd(5)]);
        assert!(st.watchers_of(Signal::Usr1).is_empty());
    }

    #[test]
    fn every_signal_has_a_bucket() {
        use Signal::*;
        let mut st = SignalState::default();
        for (i, sig) in [Int, Term, Hup, Usr1, Usr2, Chld].into_iter().enumerate() {
            st.register(sig, Fd(i as u32));
            assert_eq!(st.watchers_of(sig), vec![Fd(i as u32)], "{sig:?}");
        }
    }
}

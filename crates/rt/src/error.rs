//! Error model for the simulated runtime.
//!
//! The runtime exposes a small errno-style error set mirroring the subset of
//! POSIX errors the paper's bug study turns on (`EEXIST` in MKD, `EMFILE` in
//! the §4.4 fidelity incident, …), plus an application-level error report
//! used by bug oracles to observe crashes and thrown errors.

use std::fmt;

use crate::time::VTime;

/// POSIX-style error codes surfaced by the simulated OS substrates.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Errno {
    /// The path already exists (`mkdir` on an existing directory).
    Eexist,
    /// A path component does not exist.
    Enoent,
    /// The per-process file descriptor limit was reached.
    Emfile,
    /// The target is not a directory.
    Enotdir,
    /// The target is a directory (e.g. `readFile` on a directory).
    Eisdir,
    /// The file descriptor is invalid or already closed.
    Ebadf,
    /// The connection was refused (no listener on the port).
    Econnrefused,
    /// The connection was reset by the peer.
    Econnreset,
    /// The address (port) is already in use.
    Eaddrinuse,
    /// The socket is not connected.
    Enotconn,
    /// The operation timed out.
    Etimedout,
    /// The resource is temporarily busy (e.g. a held lock).
    Ebusy,
    /// Invalid argument.
    Einval,
}

impl Errno {
    /// Returns the conventional upper-case errno name.
    pub fn name(self) -> &'static str {
        match self {
            Errno::Eexist => "EEXIST",
            Errno::Enoent => "ENOENT",
            Errno::Emfile => "EMFILE",
            Errno::Enotdir => "ENOTDIR",
            Errno::Eisdir => "EISDIR",
            Errno::Ebadf => "EBADF",
            Errno::Econnrefused => "ECONNREFUSED",
            Errno::Econnreset => "ECONNRESET",
            Errno::Eaddrinuse => "EADDRINUSE",
            Errno::Enotconn => "ENOTCONN",
            Errno::Etimedout => "ETIMEDOUT",
            Errno::Ebusy => "EBUSY",
            Errno::Einval => "EINVAL",
        }
    }
}

impl fmt::Display for Errno {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl std::error::Error for Errno {}

/// An application-level error observed during a run.
///
/// Bug oracles inspect the [`RunReport`](crate::RunReport) error list to
/// decide whether a race manifested; `fatal` entries model uncaught
/// exceptions (a Node.js process crash).
#[derive(Clone, Debug)]
pub struct AppError {
    /// Virtual time at which the error was reported.
    pub at: VTime,
    /// Short machine-readable code, e.g. `"null-deref"`.
    pub code: String,
    /// Human-readable description.
    pub message: String,
    /// Whether the error terminated the loop (uncaught exception).
    pub fatal: bool,
}

impl fmt::Display for AppError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {}{}: {}",
            self.at,
            self.code,
            if self.fatal { " (fatal)" } else { "" },
            self.message
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errno_names_roundtrip() {
        let all = [
            Errno::Eexist,
            Errno::Enoent,
            Errno::Emfile,
            Errno::Enotdir,
            Errno::Eisdir,
            Errno::Ebadf,
            Errno::Econnrefused,
            Errno::Econnreset,
            Errno::Eaddrinuse,
            Errno::Enotconn,
            Errno::Etimedout,
            Errno::Ebusy,
            Errno::Einval,
        ];
        for e in all {
            assert!(e.name().starts_with('E'));
            assert_eq!(format!("{e}"), e.name());
        }
    }

    #[test]
    fn app_error_display() {
        let e = AppError {
            at: VTime(2_000_000),
            code: "null-deref".into(),
            message: "pad was destroyed".into(),
            fatal: true,
        };
        let s = format!("{e}");
        assert!(s.contains("null-deref"));
        assert!(s.contains("(fatal)"));
    }
}

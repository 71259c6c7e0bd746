//! # nodefz-apps — the Node.fz concurrency bug study, reproduced
//!
//! One module per studied bug (§3, Table 2) plus the novel bugs of §5.2.
//! Each module contains a faithful re-creation of the racy callback-chain
//! structure (buggy variant), the community's actual fix strategy (fixed
//! variant), a workload driver, and an oracle that detects manifestation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod common;

mod aka;
mod clf;
mod epl;
mod fps;
mod fps_novel;
mod gho;
mod kue;
mod kue_novel;
mod kue_timer;
mod mgs;
mod mkd;
mod nes;
mod rst;
mod sio;
mod sio_novel;
mod wpt;

pub use aka::Aka;
pub use clf::Clf;
pub use epl::Epl;
pub use fps::Fps;
pub use fps_novel::FpsNovel;
pub use gho::Gho;
pub use kue::Kue;
pub use kue_novel::KueNovel;
pub use kue_timer::KueTimer;
pub use mgs::Mgs;
pub use mkd::Mkd;
pub use nes::Nes;
pub use rst::Rst;
pub use sio::Sio;
pub use sio_novel::SioNovel;
pub use wpt::Wpt;

use common::BugCase;

/// Every reproduced bug, in Table 2 order. The cases are unit structs, so
/// boxing one does not allocate: neither does this array.
fn cases() -> [Box<dyn BugCase>; 16] {
    [
        Box::new(Epl),
        Box::new(Gho),
        Box::new(Fps),
        Box::new(Clf),
        Box::new(Nes),
        Box::new(Aka),
        Box::new(Wpt),
        Box::new(Sio),
        Box::new(Mkd),
        Box::new(Kue),
        Box::new(Rst),
        Box::new(Mgs),
        Box::new(SioNovel),
        Box::new(KueNovel),
        Box::new(FpsNovel),
        Box::new(KueTimer),
    ]
}

/// All reproduced bugs, in Table 2 order.
pub fn registry() -> Vec<Box<dyn BugCase>> {
    cases().into()
}

/// The abbreviations of every reproduced bug, in Table 2 order.
///
/// `Box<dyn BugCase>` is not `Send` (bug cases drive `Rc`-based loops), so
/// multi-threaded drivers ship abbreviations across threads and instantiate
/// cases locally via [`by_abbr`].
pub fn abbrs() -> Vec<&'static str> {
    cases().iter().map(|c| c.info().abbr).collect()
}

/// Looks up a bug case by its Table 2 abbreviation (case-insensitive),
/// without allocating: campaigns resolve a case for every run.
pub fn by_abbr(abbr: &str) -> Option<Box<dyn BugCase>> {
    cases()
        .into_iter()
        .find(|c| c.info().abbr.eq_ignore_ascii_case(abbr))
}

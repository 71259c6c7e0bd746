//! Damaged files: a trace or repro cut off at any byte (a torn write, a
//! full disk, a partial copy) must decode to a typed error, never panic and
//! never decode to a different trace. The one prefix allowed to decode is
//! the document minus its trailing newline, which must give the original.
//! A repro with a hostile payload spliced into any token must decode to a
//! typed error or to an entry that round-trips, never panic.

use std::panic::{catch_unwind, AssertUnwindSafe};

use nodefz::{decode_trace, encode_trace, Decision, DecisionTrace, Perm};
use nodefz_campaign::CorpusEntry;
use nodefz_check::{mutants, payload_classes};
use nodefz_rt::{PoolMode, VDur};

/// A trace holding all five decision kinds, with one shuffle wider than
/// the inline permutation storage.
fn sample_trace() -> DecisionTrace {
    let wide: Vec<u32> = (0..Perm::INLINE as u32 + 4).rev().collect();
    DecisionTrace {
        pool_mode: PoolMode::Serialized {
            lookahead: 4,
            max_delay: VDur::micros(250),
        },
        demux_done: true,
        decisions: vec![
            Decision::Timer(None),
            Decision::Timer(Some(5_000_000)),
            Decision::Shuffle(wide.into()),
            Decision::Shuffle(vec![1, 0, 2].into()),
            Decision::DeferReady(true),
            Decision::DeferClose(false),
            Decision::PickTask(3),
        ],
    }
}

/// Decodes every byte prefix of `doc` and checks each outcome.
fn check_prefixes<T: PartialEq + std::fmt::Debug, E: std::fmt::Debug>(
    doc: &str,
    original: &T,
    decode: impl Fn(&str) -> Result<T, E>,
) {
    assert!(doc.is_ascii(), "every byte prefix must be a str");
    for cut in 0..doc.len() {
        let prefix = &doc[..cut];
        let result = catch_unwind(AssertUnwindSafe(|| decode(prefix)))
            .unwrap_or_else(|_| panic!("decoding the {cut}-byte prefix panicked"));
        if doc[cut..].trim().is_empty() {
            assert_eq!(result.as_ref().ok(), Some(original), "prefix {prefix:?}");
        } else {
            assert!(result.is_err(), "prefix {prefix:?} decoded to {result:?}");
        }
    }
}

#[test]
fn every_trace_prefix_is_a_typed_error() {
    let trace = sample_trace();
    let doc = encode_trace(&trace);
    assert_eq!(decode_trace(&doc).as_ref(), Ok(&trace));
    check_prefixes(&doc, &trace, decode_trace);
}

fn sample_entry() -> CorpusEntry {
    CorpusEntry {
        app: "KUE".into(),
        env_seed: 12_345,
        site: "lost # of # jobs".into(),
        kinds: 1042,
        hits: 17,
        replays_ok: 10,
        trace: sample_trace(),
    }
}

#[test]
fn every_repro_prefix_is_a_typed_error() {
    let entry = sample_entry();
    let doc = entry.encode();
    assert_eq!(CorpusEntry::decode(&doc).as_ref(), Ok(&entry));
    check_prefixes(&doc, &entry, CorpusEntry::decode);
}

#[test]
fn hostile_repros_are_errors_or_round_trip_never_panics() {
    let doc = sample_entry().encode();
    let (mut decoded, mut accepted) = (0usize, 0usize);
    for (class, payloads) in payload_classes() {
        for payload in &payloads {
            for m in mutants(&doc, payload) {
                let result = catch_unwind(AssertUnwindSafe(|| CorpusEntry::decode(&m.text)))
                    .unwrap_or_else(|_| panic!("{class}: decode panicked on {:?}", m.text));
                decoded += 1;
                let Ok(entry) = result else { continue };
                accepted += 1;
                assert_eq!(
                    CorpusEntry::decode(&entry.encode()).as_ref(),
                    Ok(&entry),
                    "{class}: accepted entry does not round-trip"
                );
            }
        }
    }
    assert!(decoded > 4_000, "only {decoded} mutants");
    assert!(
        accepted > 0,
        "no mutant was accepted, so the round trip went unchecked"
    );
}

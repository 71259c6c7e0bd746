//! Persisted-format tests for the `nodefz-journal-v1` flight recorder:
//! whatever mix of events the ring retained, `encode` → `decode` →
//! `encode` must be byte-identical and preserve the ring's accounting —
//! and a document frozen from the first build that shipped the schema
//! must keep parsing forever.

use nodefz_check::{check_prefixes, forall, Gen};
use nodefz_obs::{Journal, JournalEvent, PruneOutcome, WorkerState};

fn arbitrary_event(g: &mut Gen) -> JournalEvent {
    match g.below(4) {
        0 => JournalEvent::ArmPull {
            exec: g.u64() % 1_000_000,
            arm: g.lowercase(1, 12),
            pulls: g.u64() % 10_000,
        },
        1 => JournalEvent::Prune {
            exec: g.u64() % 1_000_000,
            verdict: *g.pick(&[
                PruneOutcome::Distinct,
                PruneOutcome::Redundant,
                PruneOutcome::Forked,
                PruneOutcome::Mismatch,
            ]),
        },
        2 => JournalEvent::Worker {
            index: g.u64() % 64,
            arm: g.lowercase(1, 12),
            state: *g.pick(&[
                WorkerState::Spawned,
                WorkerState::Reaped,
                WorkerState::Quarantined,
            ]),
            reason: g.bool().then(|| g.lowercase(1, 16)),
        },
        _ => JournalEvent::Discovery {
            exec: g.u64() % 1_000_000,
            app: g.lowercase(3, 4).to_uppercase(),
            site: format!("{}:{}", g.lowercase(2, 5), g.lowercase(2, 8)),
        },
    }
}

#[test]
fn journal_documents_round_trip_byte_identically() {
    forall("journal_roundtrip", 200, |g| {
        let cap = g.range_usize(1, 8);
        let pushes = g.range_usize(0, 20);
        let mut j = Journal::new(cap);
        let mut t_ms = 0;
        for _ in 0..pushes {
            t_ms += g.u64() % 50;
            let event = arbitrary_event(g);
            j.push_at(t_ms, event);
        }
        let text = j.encode();
        let back = Journal::decode(&text).expect("encoded journal decodes");

        // Byte-identical re-encode is the format contract.
        assert_eq!(back.encode(), text);

        // Ring accounting survives the trip: retained entries, shed
        // count, and the *continuation point* of the sequence.
        assert_eq!(back.len(), j.len());
        assert_eq!(back.len(), pushes.min(cap));
        assert_eq!(back.dropped(), (pushes.saturating_sub(cap)) as u64);
        let seqs: Vec<u64> = back.entries().map(|e| e.seq).collect();
        let expected: Vec<u64> = (back.dropped()..pushes as u64).collect();
        assert_eq!(seqs, expected);

        // Pushing into the decoded journal continues where the writer
        // left off — no seq reuse after a scrape-and-resume.
        let mut resumed = back;
        resumed.push_at(t_ms + 1, arbitrary_event(g));
        assert_eq!(resumed.entries().last().expect("entry").seq, pushes as u64);
    });
}

/// A `nodefz-journal-v1` document exactly as the first flight-recorder
/// build wrote it: header with shed count, then one line per retained
/// event, covering every event kind and both null and present optionals.
/// Frozen copy of the on-disk format — do not regenerate from code.
const LEGACY_JOURNAL: &str = "{\"schema\": \"nodefz-journal-v1\", \"cap\": 4, \"dropped\": 2, \"events\": 4}\n\
{\"seq\": 2, \"t_ms\": 10, \"kind\": \"arm_pull\", \"exec\": 40, \"arm\": \"GHO/aggressive\", \"pulls\": 7, \"mean_reward\": 0.125000, \"ucb\": 0.750000, \"successes\": null, \"failures\": null}\n\
{\"seq\": 3, \"t_ms\": 12, \"kind\": \"prune\", \"exec\": 41, \"verdict\": \"forked\"}\n\
{\"seq\": 4, \"t_ms\": 20, \"kind\": \"worker\", \"index\": 3, \"arm\": \"KUE/directed\", \"state\": \"reaped\", \"reason\": \"ok\"}\n\
{\"seq\": 5, \"t_ms\": 31, \"kind\": \"discovery\", \"exec\": 55, \"app\": \"GHO\", \"site\": \"gho:user-row\"}\n";

/// [`LEGACY_JOURNAL`] as the current build re-encodes it: the `arm_pull`
/// line loses the four bandit-state fields, which the decoder ignores;
/// every other byte is unchanged.
const LEGACY_JOURNAL_REENCODED: &str = "{\"schema\": \"nodefz-journal-v1\", \"cap\": 4, \"dropped\": 2, \"events\": 4}\n\
{\"seq\": 2, \"t_ms\": 10, \"kind\": \"arm_pull\", \"exec\": 40, \"arm\": \"GHO/aggressive\", \"pulls\": 7}\n\
{\"seq\": 3, \"t_ms\": 12, \"kind\": \"prune\", \"exec\": 41, \"verdict\": \"forked\"}\n\
{\"seq\": 4, \"t_ms\": 20, \"kind\": \"worker\", \"index\": 3, \"arm\": \"KUE/directed\", \"state\": \"reaped\", \"reason\": \"ok\"}\n\
{\"seq\": 5, \"t_ms\": 31, \"kind\": \"discovery\", \"exec\": 55, \"app\": \"GHO\", \"site\": \"gho:user-row\"}\n";

#[test]
fn legacy_journal_document_round_trips_byte_identically() {
    let j = Journal::decode(LEGACY_JOURNAL).expect("v1 journal parses");
    assert_eq!(j.capacity(), 4);
    assert_eq!(j.dropped(), 2);
    assert_eq!(j.len(), 4);

    let entries: Vec<_> = j.entries().collect();
    assert_eq!(entries[0].seq, 2);
    assert_eq!(
        entries[0].event,
        JournalEvent::ArmPull {
            exec: 40,
            arm: "GHO/aggressive".into(),
            pulls: 7,
        }
    );
    assert_eq!(
        entries[1].event,
        JournalEvent::Prune {
            exec: 41,
            verdict: PruneOutcome::Forked,
        }
    );
    assert_eq!(
        entries[2].event,
        JournalEvent::Worker {
            index: 3,
            arm: "KUE/directed".into(),
            state: WorkerState::Reaped,
            reason: Some("ok".into()),
        }
    );
    assert_eq!(
        entries[3].event,
        JournalEvent::Discovery {
            exec: 55,
            app: "GHO".into(),
            site: "gho:user-row".into(),
        }
    );

    assert_eq!(j.encode(), LEGACY_JOURNAL_REENCODED);
    let again = Journal::decode(LEGACY_JOURNAL_REENCODED).expect("re-encoding parses");
    assert_eq!(again.encode(), LEGACY_JOURNAL_REENCODED);
}

/// A journal cut off at any byte (a torn copy, a full disk) is a typed
/// error, never a shorter journal: a cut at a line boundary parses, so
/// only the header's `events` count catches it. The one prefix allowed to
/// decode is the document minus its trailing newline, which gives the
/// original's re-encoding.
#[test]
fn every_journal_prefix_is_a_typed_error() {
    check_prefixes(
        LEGACY_JOURNAL,
        &LEGACY_JOURNAL_REENCODED.to_string(),
        |text| Journal::decode(text).map(|journal| journal.encode()),
    );
}

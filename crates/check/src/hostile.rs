//! Hostile-input payloads for never-panic decoder properties.
//!
//! The payload classes follow a middleware fuzzer's taxonomy of edge-case
//! inputs (deep nesting, oversized input, NUL bytes, Unicode edge cases,
//! integer overflow, empty input); [`mutants`] splices one payload into
//! every token of a valid document. [`check_prefixes`] is the damaged-file
//! property: a document cut off at any byte.

use std::panic::{catch_unwind, AssertUnwindSafe};

/// Decodes every byte prefix of `doc`, as a torn write, a full disk or a
/// partial copy would leave it, and checks each outcome: no prefix may
/// panic, and every prefix must be an error except `doc` minus trailing
/// whitespace, which must decode to `original`.
///
/// # Panics
///
/// Names the first prefix that breaks the property; `doc` must be ASCII.
pub fn check_prefixes<T: PartialEq + std::fmt::Debug, E: std::fmt::Debug>(
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

/// Payloads per class, as (class, payloads).
pub fn payload_classes() -> Vec<(&'static str, Vec<String>)> {
    vec![
        (
            "DeeplyNested",
            vec!["1,".repeat(300), "(".repeat(4096), "children=".repeat(512)],
        ),
        (
            "OversizedInput",
            vec!["9".repeat(65_536), "A".repeat(65_536)],
        ),
        (
            "NullBytes",
            vec!["\0".into(), "1\0".into(), "\0\0\0".into()],
        ),
        (
            "UnicodeEdgeCases",
            ["é", "\u{202E}", "\u{200B}", "\u{FEFF}", "１", "🦀", "ß1"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
        ),
        (
            "IntegerOverflow",
            [
                "256",
                "257",
                "4294967296",
                "18446744073709551616",
                "-1",
                "99999999999999999999999",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect(),
        ),
        ("EmptyInput", vec![String::new(), " ".into(), "=".into()]),
    ]
}

/// One spliced document: the edited text, plus `key=payload` when the edit
/// replaced a whole value (so an accepted parse must store `payload`).
pub struct Mutant {
    /// The document with one token edited.
    pub text: String,
    /// `key=payload`, when the edit replaced a `key=value` token's value.
    pub replaced_value: Option<String>,
}

/// Every single-token edit of `literal` with `payload`: the token
/// replaced, prefixed and suffixed; for `key=value` tokens also the value
/// replaced and prefixed. Every line is split on whitespace and re-joined
/// with single spaces, and the lines with `\n`, without a trailing one.
pub fn mutants(literal: &str, payload: &str) -> Vec<Mutant> {
    let lines: Vec<Vec<&str>> = literal
        .lines()
        .map(|l| l.split_whitespace().collect())
        .collect();
    let mut out = Vec::new();
    for (li, line) in lines.iter().enumerate() {
        for (ti, tok) in line.iter().enumerate() {
            let mut edits = vec![
                (payload.to_string(), None),
                (format!("{payload}{tok}"), None),
                (format!("{tok}{payload}"), None),
            ];
            if let Some((key, value)) = tok.split_once('=') {
                let replaced = format!("{key}={payload}");
                edits.push((replaced.clone(), Some(replaced)));
                edits.push((format!("{key}={payload}{value}"), None));
            }
            for (edit, replaced_value) in edits {
                let text = lines
                    .iter()
                    .enumerate()
                    .map(|(lj, l)| {
                        let toks: Vec<&str> = l
                            .iter()
                            .enumerate()
                            .map(|(tj, t)| {
                                if (lj, tj) == (li, ti) {
                                    edit.as_str()
                                } else {
                                    t
                                }
                            })
                            .collect();
                        toks.join(" ")
                    })
                    .collect::<Vec<_>>()
                    .join("\n");
                out.push(Mutant {
                    text,
                    replaced_value,
                });
            }
        }
    }
    out
}

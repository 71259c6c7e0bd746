//! `Prog::parse` on hostile input: every malformed `nodefz-prog v1`
//! literal is a `ProgError`, never a panic, and a value the parser
//! accepts is the value it stores (no silent truncation into range).
//!
//! The payload classes follow a middleware fuzzer's taxonomy of edge-case
//! inputs (deep nesting, oversized input, NUL bytes, Unicode edge cases,
//! integer overflow, empty input); each payload is spliced into every
//! token of a valid literal that uses every op.

use std::panic::{catch_unwind, AssertUnwindSafe};

use nodefz_conform::Prog;

/// A valid literal exercising every op and every touch kind.
const EVERY_OP: &str = "nodefz-prog v1
0 root children=1,2,3,4,5 touches=w0
1 timer delay_us=500 children=6,7 touches=r1
2 pool cost_us=40 children=8 touches=u2
3 fdchain msgs=2 gap_us=90 children=9 touches=
4 interval period_us=300 ticks=3 children=10 touches=w3
5 barrier parties=2 children=11 touches=
6 nexttick children= touches=r0,w1
7 immediate children=12 touches=
8 pending children= touches=u0
9 close children= touches=
10 series steps=3 children=13 touches=r2
11 emitter listeners=2 children= touches=
12 kv children= touches=
13 fs children= touches=w2
end
";

/// Payloads per class, as (class, payloads).
fn payload_classes() -> Vec<(&'static str, Vec<String>)> {
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

/// One spliced literal: the edited text, plus `key=payload` when the edit
/// replaced a whole value (so an accepted parse must store `payload`).
struct Mutant {
    text: String,
    replaced_value: Option<String>,
}

/// Every single-token edit of `literal` with `payload`: the token
/// replaced, prefixed and suffixed; for `key=value` tokens also the value
/// replaced and prefixed.
fn mutants(literal: &str, payload: &str) -> Vec<Mutant> {
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

#[test]
fn hostile_literals_are_errors_never_panics() {
    let base = Prog::parse(EVERY_OP).expect("base literal parses");
    assert_eq!(base.encode(), EVERY_OP, "base literal is canonical");
    assert!(Prog::parse("").is_err());
    let mut parsed = 0usize;
    for (class, payloads) in payload_classes() {
        for payload in &payloads {
            for m in mutants(EVERY_OP, payload) {
                let result = catch_unwind(AssertUnwindSafe(|| Prog::parse(&m.text)));
                let Ok(result) = result else {
                    panic!("{class}: Prog::parse panicked on {:?}", m.text);
                };
                parsed += 1;
                let Ok(prog) = result else { continue };
                prog.validate().expect("parse returns validated programs");
                let encoded = prog.encode();
                if let Some(replaced) = &m.replaced_value {
                    assert!(
                        encoded.split_whitespace().any(|t| t == replaced.trim()),
                        "{class}: accepted {replaced:?} but stored something else:\n{encoded}"
                    );
                }
                assert_eq!(Prog::parse(&encoded).as_ref(), Ok(&prog), "{class}");
            }
        }
    }
    assert!(parsed > 5_000, "only {parsed} mutants");
}

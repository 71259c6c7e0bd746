//! `Prog::parse` on hostile input: every malformed `nodefz-prog v1`
//! literal is a `ProgError`, never a panic, and a value the parser
//! accepts is the value it stores (no silent truncation into range).
//!
//! Every payload of `nodefz_check`'s six hostile-input classes is spliced
//! into every token of a valid literal that uses every op.

use std::panic::{catch_unwind, AssertUnwindSafe};

use nodefz_check::{check_prefixes, mutants, payload_classes};
use nodefz_conform::{generate, stream_seed, Prog};

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

/// A literal cut off at any byte (a torn write, a partial copy) is a
/// `ProgError`, never a panic and never a smaller program. The one prefix
/// allowed to parse is the literal minus its trailing newline.
#[test]
fn every_prog_prefix_is_a_typed_error() {
    for i in 0..16 {
        let prog = generate(stream_seed(i));
        check_prefixes(&prog.encode(), &prog, Prog::parse);
    }
}

//! Coverage-regression golden.
//!
//! Freezes the `nodefz-apicov-v1` document of the conformance stream's
//! first 100 programs as a byte-golden literal, and holds that snapshot
//! to coverage floors a re-bless cannot lower: at least 90% of the API
//! nodes, no missing node, every edge, and some oracle rules and op
//! pairs.
//!
//! Re-bless with `NFZ_BLESS=1 cargo test -p nodefz-conform --test
//! apicov_golden` after verifying a diff is intentional.

use std::rc::Rc;

use nodefz_conform::{generate, stream_seed, ApiCovSnapshot, ApiCoverage};

fn stream_coverage(count: u64) -> ApiCovSnapshot {
    let mut cov = ApiCoverage::default();
    for i in 0..count {
        let seed = stream_seed(i);
        cov.record_vanilla(&Rc::new(generate(seed)), seed, &None);
    }
    cov.snapshot()
}

fn golden(name: &str, actual: &str) {
    let file = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var_os("NFZ_BLESS").is_some() {
        std::fs::create_dir_all(file.parent().unwrap()).unwrap();
        std::fs::write(&file, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&file)
        .unwrap_or_else(|e| panic!("{}: {e} (bless with NFZ_BLESS=1)", file.display()));
    assert_eq!(
        expected, actual,
        "golden mismatch for {name}; if intentional, re-bless with NFZ_BLESS=1"
    );
}

#[test]
fn apicov_document_is_byte_stable() {
    let snap = stream_coverage(100);
    // The floors come first, so a re-bless cannot lower coverage either.
    assert_eq!(snap.programs, 100);
    assert!(
        snap.nodes_covered * 10 >= snap.nodes_total * 9,
        "{}/{} nodes",
        snap.nodes_covered,
        snap.nodes_total
    );
    assert!(snap.missing_nodes.is_empty(), "{:?}", snap.missing_nodes);
    assert_eq!(snap.edges_covered, snap.edges_total, "edges");
    assert!(snap.rules_covered > 0, "no oracle rule under test");
    assert!(snap.op_pairs > 0, "no op pair");
    golden("apicov.json", &format!("{}\n", snap.to_json()));
}

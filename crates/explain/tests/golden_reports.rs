//! Golden race reports, one per §3.2 class: the planted fig6 races that
//! `campaign --analyze` confirms (GHO = AV, KUE = OV, MGS = COV) must
//! each explain into a `nodefz-race-report-v1` whose directed `--check`
//! replay re-manifests the recorded bug.

use nodefz_campaign::{analyze_campaign, AnalyzeConfig, Corpus};
use nodefz_explain::{explain_entry, render_ansi, render_html, to_json, ExplainConfig};

fn scratch(name: &str) -> std::path::PathBuf {
    let dir =
        std::env::temp_dir().join(format!("nodefz-explain-test-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Confirms `app`'s planted race into a corpus repro and explains it.
fn golden(app: &str, class: &str, site: &str) {
    let dir = scratch(app);
    let cfg = AnalyzeConfig {
        apps: vec![app.to_string()],
        corpus_dir: Some(dir.clone()),
        races_out: None,
        ..AnalyzeConfig::default()
    };
    let report = analyze_campaign(&cfg).expect("analyze pipeline runs");
    assert!(report.failed.is_empty(), "{:?}", report.failed);
    assert!(
        report.confirmed.iter().any(|c| c.app == app),
        "planted race must confirm: {:?}",
        report.confirmed
    );
    let entries = Corpus::open(&dir).unwrap().load_all().unwrap();
    assert!(!entries.is_empty(), "confirmation must persist a repro");

    let explained = explain_entry(
        &entries[0],
        &ExplainConfig {
            check: true,
            ..ExplainConfig::default()
        },
    )
    .expect("repro explains");

    assert_eq!(explained.app, app);
    assert_eq!(explained.race.class.label(), class, "{:?}", explained.race);
    assert_eq!(explained.race.site, site, "{:?}", explained.race);
    assert!(!explained.chain_a.is_empty(), "chain a reaches a root");
    assert!(!explained.chain_b.is_empty(), "chain b reaches a root");
    assert_eq!(
        explained.chain_a[0].event, explained.race.a.event,
        "chain a starts at the racing access"
    );
    let check = explained.check.expect("check ran");
    assert!(
        check.manifested,
        "the explained flip must re-manifest the bug ({} attempts)",
        check.attempted
    );
    assert!(
        explained.passing.distinct >= 1,
        "at least the vanilla schedule passes"
    );
    assert!(
        explained.passing.common_prefix <= explained.passing.failing_len,
        "prefix is bounded by the failing trace"
    );

    let json = to_json(&explained);
    assert!(json.starts_with("{\"schema\": \"nodefz-race-report-v1\""));
    assert!(json.contains(&format!("\"class\": \"{class}\"")));
    assert!(json.contains(site));
    let ansi = render_ansi(&explained, false);
    assert!(ansi.contains("race report"));
    assert!(ansi.contains(site));
    assert!(ansi.contains("re-manifested"));
    let plain_has_no_escapes = !ansi.contains('\u{1b}');
    assert!(plain_has_no_escapes, "color off means no SGR sequences");
    assert!(render_ansi(&explained, true).contains('\u{1b}'));
    let html = render_html(&explained);
    assert!(html.starts_with("<!doctype html>"));
    assert!(html.contains(&explained.passing.key));
    if let Some(d) = &explained.passing.divergence {
        // Whole decisions: the two sides of a divergence always differ.
        assert_ne!(d.failing, d.passing, "divergence at {}", d.index);
        let took = format!("failing took {}, passing took {}", d.failing, d.passing);
        assert!(ansi.contains(&took), "text report names both decisions");
        assert!(json.contains(&format!("\"failing\": \"{}\"", d.failing)));
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn gho_atomicity_violation_explains_and_checks() {
    golden("GHO", "AV", "gho:user-row");
}

#[test]
fn kue_order_violation_explains_and_checks() {
    golden("KUE", "OV", "kue:job-state");
}

#[test]
fn mgs_commutative_order_violation_explains_and_checks() {
    golden("MGS", "COV", "mgs:filled");
}

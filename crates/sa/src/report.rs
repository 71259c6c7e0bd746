//! The `nodefz-sa-v1` JSON report.
//!
//! Layout:
//!
//! ```json
//! {
//!   "schema": "nodefz-sa-v1",
//!   "sites": ["gho:user-row", "..."],
//!   "models": [
//!     {
//!       "name": "GHO", "variant": "buggy", "atoms": 7,
//!       "candidates": [
//!         {
//!           "id": "sa-9f2c40d1e8a3b576", "site": 0,
//!           "a": 2, "a_label": "kv.get:r1", "a_kind": "kv",
//!           "b": 4, "b_label": "kv.set:r2", "b_kind": "kv",
//!           "classes": ["AV", "OV"]
//!         }
//!       ],
//!       "lints": [
//!         {
//!           "id": "sa-1d0b7a44c2f9e830", "rule": "SA-CHECK-THEN-ACT",
//!           "site": 0, "atoms": [2, 3, 5], "detail": "..."
//!         }
//!       ]
//!     }
//!   ]
//! }
//! ```
//!
//! Site names are interned once report-wide through the trace crate's
//! [`SiteInterner`] (matching `nodefz-races-v1`); findings refer to
//! sites by table index. Finding ids are FNV-1a hashes of the finding's
//! *identity* — model name, variant, site, atom labels, classification —
//! so they stay stable across reorderings and unrelated model edits.

use nodefz_apps::statics::StaticModel;
use nodefz_obs::JsonWriter;
use nodefz_trace::{SiteId, SiteInterner};

use crate::lint::{lint_model, Lint};
use crate::mhp::MhpIndex;
use crate::races::{candidates, Candidate};

/// Schema tag of the static-analysis report.
pub const SA_SCHEMA: &str = "nodefz-sa-v1";

/// The full static analysis of one model: its predicted race pairs and
/// its lint findings.
pub struct ModelAnalysis {
    /// The analyzed model.
    pub model: StaticModel,
    /// Predicted race pairs, deterministically ordered.
    pub candidates: Vec<Candidate>,
    /// Lint findings, grouped by rule.
    pub lints: Vec<Lint>,
}

/// Runs both analysis layers over `model`.
pub fn analyze_model(model: StaticModel) -> ModelAnalysis {
    let idx = MhpIndex::build(&model);
    let candidates = candidates(&model, &idx);
    let lints = lint_model(&model, &idx);
    ModelAnalysis {
        model,
        candidates,
        lints,
    }
}

fn finding_id(parts: &[&str]) -> String {
    format!("sa-{:016x}", nodefz_rt::fnv1a(parts.join("|").as_bytes()))
}

fn candidate_id(model: &StaticModel, c: &Candidate) -> String {
    let classes: Vec<&str> = c.classes.iter().map(|cl| cl.label()).collect();
    finding_id(&[
        &model.name,
        &model.variant,
        &c.site,
        &model.atoms[c.a as usize].label,
        &model.atoms[c.b as usize].label,
        &classes.join("+"),
    ])
}

fn lint_id(model: &StaticModel, l: &Lint) -> String {
    let labels: Vec<&str> = l
        .atoms
        .iter()
        .map(|&a| model.atoms[a as usize].label.as_str())
        .collect();
    finding_id(&[
        &model.name,
        &model.variant,
        l.rule,
        &l.site,
        &labels.join("+"),
    ])
}

/// Renders analyses of one or more models as a `nodefz-sa-v1` document.
pub fn sa_report(analyses: &[ModelAnalysis]) -> String {
    let mut sites = SiteInterner::new();
    for analysis in analyses {
        for c in &analysis.candidates {
            sites.intern(&c.site);
        }
        for l in &analysis.lints {
            sites.intern(&l.site);
        }
    }
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_str("schema", SA_SCHEMA);
    w.key("sites");
    w.begin_array();
    for i in 0..sites.len() {
        w.str(sites.resolve(SiteId(i as u32)));
    }
    w.end_array();
    w.key("models");
    w.begin_array();
    for analysis in analyses {
        let model = &analysis.model;
        w.begin_object();
        w.field_str("name", &model.name);
        w.field_str("variant", &model.variant);
        w.field_u64("atoms", model.atoms.len() as u64);
        w.key("candidates");
        w.begin_array();
        for c in &analysis.candidates {
            let site = sites.lookup(&c.site).expect("interned above");
            let (a, b) = (&model.atoms[c.a as usize], &model.atoms[c.b as usize]);
            w.begin_object();
            w.field_str("id", &candidate_id(model, c));
            w.field_u64("site", u64::from(site.0));
            w.field_u64("a", u64::from(c.a));
            w.field_str("a_label", &a.label);
            w.field_str("a_kind", a.kind.label());
            w.field_u64("b", u64::from(c.b));
            w.field_str("b_label", &b.label);
            w.field_str("b_kind", b.kind.label());
            w.key("classes");
            w.begin_array();
            for class in &c.classes {
                w.str(class.label());
            }
            w.end_array();
            w.end_object();
        }
        w.end_array();
        w.key("lints");
        w.begin_array();
        for l in &analysis.lints {
            let site = sites.lookup(&l.site).expect("interned above");
            w.begin_object();
            w.field_str("id", &lint_id(model, l));
            w.field_str("rule", l.rule);
            w.field_u64("site", u64::from(site.0));
            w.key("atoms");
            w.begin_array();
            for &a in &l.atoms {
                w.u64(u64::from(a));
            }
            w.end_array();
            w.field_str("detail", &l.detail);
            w.end_object();
        }
        w.end_array();
        w.end_object();
    }
    w.end_array();
    w.end_object();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nodefz_apps::common::Variant;
    use nodefz_apps::statics::{AtomKind, ModelBuilder};

    fn sample() -> StaticModel {
        let mut m = ModelBuilder::new("T", Variant::Buggy);
        let a = m.atom("writer-a", AtomKind::Net, 0);
        let b = m.atom("writer-b", AtomKind::Kv, 0);
        m.write(a, "t:slot");
        m.write(b, "t:slot");
        m.build()
    }

    #[test]
    fn report_has_schema_site_table_and_findings() {
        let doc = sa_report(&[analyze_model(sample())]);
        assert!(doc.contains("\"schema\": \"nodefz-sa-v1\""));
        assert!(doc.contains("\"sites\": [\"t:slot\"]"));
        assert!(doc.contains("\"classes\": [\"OV\"]"));
        assert!(doc.contains("\"rule\": \"SA-MULTI-WRITER-COMMIT\""));
        assert_eq!(doc.matches("\"t:slot\"").count(), 1, "site interned once");
    }

    #[test]
    fn empty_report_is_well_formed() {
        let doc = sa_report(&[]);
        assert_eq!(
            doc,
            "{\"schema\": \"nodefz-sa-v1\", \"sites\": [], \"models\": []}"
        );
    }

    #[test]
    fn finding_ids_are_stable_against_reordering() {
        let one = analyze_model(sample());
        let id_alone = candidate_id(&one.model, &one.candidates[0]);
        // Same finding inside a bigger report keeps its id.
        let mut m = ModelBuilder::new("other", Variant::Buggy);
        let x = m.atom("x", AtomKind::Timer, 0);
        m.write(x, "o:site");
        let doc = sa_report(&[analyze_model(m.build()), analyze_model(sample())]);
        assert!(doc.contains(&id_alone));
    }
}

//! The orchestrator-facing arm space: (app, preset, mode) triples.
//!
//! A single campaign process schedules (app, preset) bandit arms
//! internally; the *orchestrator* schedules whole worker processes, and
//! its unit of allocation is one (app, preset, mode) triple:
//!
//! * `fuzz` — one real preset of one studied app,
//! * `directed` — the app's race-directed arm (happens-before analysis
//!   feeding replay-then-flip runs; no fuzz preset),
//! * `conform` — the generative conformance arm under a real preset.
//!
//! The orchestrator enumerates the space in-process with [`arm_space`].
//! `campaign list --json` prints the same enumeration as the
//! `nodefz-arms-v1` document, for scripts and people who want the arm
//! space without scraping human output.

use nodefz_obs::JsonWriter;

use crate::config::PRESETS;

/// How a worker process runs one arm.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArmMode {
    /// Schedule fuzzing of a studied app under one preset.
    Fuzz,
    /// Race-directed runs fed by happens-before analysis.
    Directed,
    /// Generated conformance programs judged by the ordering oracle.
    Conform,
}

impl ArmMode {
    /// The document spelling of the mode.
    pub fn label(&self) -> &'static str {
        match self {
            ArmMode::Fuzz => "fuzz",
            ArmMode::Directed => "directed",
            ArmMode::Conform => "conform",
        }
    }
}

/// One orchestrator-schedulable arm.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArmSpec {
    /// Bug abbreviation (or `CONFORM`).
    pub app: String,
    /// Preset name, or `directed` for the directed arm.
    pub preset: String,
    /// How a worker runs this arm.
    pub mode: ArmMode,
}

impl ArmSpec {
    /// A stable human-readable arm label (`KUE/standard/fuzz`).
    pub fn label(&self) -> String {
        format!("{}/{}/{}", self.app, self.preset, self.mode.label())
    }
}

/// Enumerates the full arm space over `apps`: every real preset of every
/// app (mode `fuzz`, or `conform` for the CONFORM / CONFORM-API
/// pseudo-apps) plus one `directed` arm per studied app.
pub fn arm_space(apps: &[String]) -> Vec<ArmSpec> {
    let mut arms = Vec::new();
    for app in apps {
        let conform = app.eq_ignore_ascii_case(nodefz_conform::ABBR)
            || app.eq_ignore_ascii_case(nodefz_conform::API_ABBR);
        for preset in PRESETS {
            arms.push(ArmSpec {
                app: app.clone(),
                preset: preset.to_string(),
                mode: if conform {
                    ArmMode::Conform
                } else {
                    ArmMode::Fuzz
                },
            });
        }
        if !conform {
            arms.push(ArmSpec {
                app: app.clone(),
                preset: "directed".to_string(),
                mode: ArmMode::Directed,
            });
        }
    }
    arms
}

/// Serializes an arm enumeration as the `nodefz-arms-v1` document.
pub fn arms_to_json(arms: &[ArmSpec]) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_str("schema", "nodefz-arms-v1");
    w.key("arms");
    w.begin_array();
    for arm in arms {
        w.begin_object();
        w.field_str("app", &arm.app);
        w.field_str("preset", &arm.preset);
        w.field_str("mode", arm.mode.label());
        w.end_object();
    }
    w.end_array();
    w.end_object();
    let mut out = w.finish();
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arm_space_covers_every_preset_mode_combination() {
        let apps = vec![
            "KUE".to_string(),
            "CONFORM".to_string(),
            "CONFORM-API".to_string(),
        ];
        let arms = arm_space(&apps);
        // KUE: 3 fuzz + 1 directed; CONFORM and CONFORM-API: 3 conform each.
        assert_eq!(arms.len(), PRESETS.len() + 1 + 2 * PRESETS.len());
        let labels: Vec<String> = arms.iter().map(ArmSpec::label).collect();
        assert!(
            labels.contains(&"KUE/standard/fuzz".to_string()),
            "{labels:?}"
        );
        assert!(labels.contains(&"KUE/directed/directed".to_string()));
        assert!(labels.contains(&"CONFORM/guided/conform".to_string()));
        assert!(labels.contains(&"CONFORM-API/guided/conform".to_string()));
        assert!(
            !labels.contains(&"CONFORM/directed/directed".to_string())
                && !labels.contains(&"CONFORM-API/directed/directed".to_string()),
            "the conform pseudo-apps have no directed arm"
        );
    }
}

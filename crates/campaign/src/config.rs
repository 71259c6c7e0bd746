//! Campaign configuration.

use std::path::PathBuf;
use std::time::Duration;

use nodefz_obs::ObsLevel;

/// The fuzz parameterizations a campaign cycles through, by preset index.
///
/// Each (app, preset) pair is one arm; the campaign gives its live arms
/// their runs round-robin.
pub const PRESETS: [&str; 3] = ["standard", "aggressive", "guided"];

/// The virtual preset index of the race-directed arm (one past the real
/// presets): its runs replay a recorded prefix and force a predicted
/// race's flipped order instead of fuzzing from scratch. A happens-before
/// analysis of one recorded vanilla-posture run per app predicts the
/// racing callback pairs; apps whose analysis predicts nothing get no
/// directed arm.
pub const DIRECTED_PRESET: usize = PRESETS.len();

/// Resolves a preset index — real or the virtual directed one — to the
/// name used in reports.
pub fn preset_name(preset: usize) -> &'static str {
    PRESETS.get(preset).copied().unwrap_or("directed")
}

/// Resolves a preset name (as spelled on the CLI and in reports) to its
/// index in [`PRESETS`].
pub fn preset_index(name: &str) -> Option<usize> {
    PRESETS.iter().position(|p| p.eq_ignore_ascii_case(name))
}

/// Resolves a preset index to its [`nodefz::FuzzParams`].
pub fn preset_params(preset: usize) -> nodefz::FuzzParams {
    match preset % PRESETS.len() {
        0 => nodefz::FuzzParams::standard(),
        1 => nodefz::FuzzParams::aggressive(),
        _ => nodefz::FuzzParams::guided_accurate_timers(),
    }
}

/// Everything a campaign needs to run.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// Worker threads running fuzz and shrink jobs. Changes speed, not
    /// results: the controller applies results in dispatch order, so what
    /// a campaign finds and writes is the same at any thread count.
    pub threads: usize,
    /// Total fuzz runs to spend across all arms.
    pub budget: u64,
    /// Bug abbreviations to target (Table 2 names, e.g. `["KUE", "MKD"]`).
    pub apps: Vec<String>,
    /// Which presets each app gets an arm for, as indices into
    /// [`PRESETS`] or [`DIRECTED_PRESET`] (default: every fuzz preset).
    /// One preset restricts every app to one arm; an app's directed arm
    /// comes after its fuzz arms, wherever the list names it.
    pub presets: Vec<usize>,
    /// Wall-clock deadline; the campaign drains gracefully when it passes.
    pub deadline: Option<Duration>,
    /// Whether to delta-debug each new finding's decision trace.
    pub shrink: bool,
    /// Acceptance replays per shrunk repro. A repro is written to the
    /// corpus only when every one of them re-manifests it (0 gates
    /// nothing).
    pub replay_checks: u32,
    /// Directory to persist minimized repros into (`None` = in-memory only).
    pub corpus_dir: Option<PathBuf>,
    /// Base environment seed; per-run seeds are derived deterministically.
    pub base_seed: u64,
    /// Where to write periodic `nodefz-metrics-v1` telemetry snapshots
    /// (`None` = no snapshots). Controller-side telemetry — arms,
    /// discovery curve, per-arm diversity — is collected whenever this is
    /// set; loop-phase timings additionally require
    /// [`CampaignConfig::obs_level`] above [`ObsLevel::Off`].
    pub metrics_out: Option<PathBuf>,
    /// Where to write a chrome://tracing timeline of one dedicated
    /// profiled run after the campaign drains (`None` = no trace).
    pub trace_out: Option<PathBuf>,
    /// Runtime telemetry dial for worker runs. Above [`ObsLevel::Off`]
    /// the workers profile loop phases and per-kind dispatches, and each
    /// run's profile travels back with its result to be summed into the
    /// metrics.
    pub obs_level: ObsLevel,
    /// Whether to classify every run by its happens-before canonical key
    /// ([`crate::prune`]): the controller counts distinct vs redundant
    /// schedule classes, memoizes each class's outcome as an online
    /// soundness check, and reports the counters in metrics snapshots.
    /// Classification is pure accounting — the dispatched run stream is
    /// byte-for-byte identical with pruning on or off, so corpora match.
    pub prune: bool,
}

impl Default for CampaignConfig {
    fn default() -> CampaignConfig {
        CampaignConfig {
            threads: 4,
            budget: 400,
            apps: Vec::new(),
            presets: (0..PRESETS.len()).collect(),
            deadline: None,
            shrink: true,
            replay_checks: 10,
            corpus_dir: None,
            base_seed: 1,
            metrics_out: None,
            trace_out: None,
            obs_level: ObsLevel::Off,
            prune: false,
        }
    }
}

impl CampaignConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.threads == 0 {
            return Err("threads must be at least 1".into());
        }
        if self.budget == 0 {
            return Err("budget must be at least 1 run".into());
        }
        if self.apps.is_empty() {
            return Err("at least one app must be targeted".into());
        }
        if self.presets.is_empty() {
            return Err("at least one preset must be armed".into());
        }
        for &preset in &self.presets {
            if preset > DIRECTED_PRESET {
                return Err(format!(
                    "preset index {preset} out of range (presets: {}, directed)",
                    PRESETS.join(", ")
                ));
            }
        }
        check_apps(&self.apps)
    }
}

/// The app check of every command that takes `--apps` (`campaign`,
/// `campaign analyze`, `campaign list`): every app must resolve
/// ([`crate::resolve_case`]) and none may be listed twice. Apps
/// compare case-insensitively, as `resolve_case` resolves them: a
/// duplicate would split one arm's runs across two indistinguishable arms.
///
/// # Errors
///
/// Names the first unknown app, with the known ones, or else the first
/// app listed twice.
pub fn check_apps(apps: &[String]) -> Result<(), String> {
    if let Some(app) = apps
        .iter()
        .find(|app| crate::driver::resolve_case(app).is_none())
    {
        return Err(format!(
            "unknown app '{app}' (known: {}, {})",
            nodefz_apps::abbrs().join(", "),
            nodefz_conform::API_ABBR
        ));
    }
    for (i, app) in apps.iter().enumerate() {
        if apps[..i].iter().any(|a| a.eq_ignore_ascii_case(app)) {
            return Err(format!("app '{app}' is listed twice"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_invalid_until_apps_are_set() {
        let mut cfg = CampaignConfig::default();
        assert!(cfg.validate().is_err());
        cfg.apps = vec!["KUE".into()];
        cfg.validate().unwrap();
    }

    #[test]
    fn unknown_app_is_named_in_the_error() {
        let cfg = CampaignConfig {
            apps: vec!["NOPE".into()],
            ..CampaignConfig::default()
        };
        let err = cfg.validate().unwrap_err();
        assert!(err.contains("NOPE"), "{err}");
    }

    #[test]
    fn the_unknown_app_error_lists_only_known_apps() {
        let err = check_apps(&["CONFORM".into()]).unwrap_err();
        let known = err
            .split_once("(known: ")
            .and_then(|(_, rest)| rest.strip_suffix(')'))
            .unwrap_or_else(|| panic!("no known-app list: {err}"));
        let known: Vec<&str> = known.split(", ").collect();
        assert!(!known.contains(&"CONFORM"), "{err}");
        for app in &known {
            assert!(crate::resolve_case(app).is_some(), "{app} in {err}");
        }
        assert!(known.contains(&nodefz_conform::API_ABBR), "{err}");
    }

    #[test]
    fn duplicate_apps_are_named_in_the_error() {
        let cfg = CampaignConfig {
            apps: vec!["KUE".into(), "GHO".into(), "kue".into()],
            ..CampaignConfig::default()
        };
        let err = cfg.validate().unwrap_err();
        assert!(err.contains("kue") && err.contains("twice"), "{err}");
    }

    #[test]
    fn telemetry_options_validate() {
        let base = CampaignConfig {
            apps: vec!["KUE".into()],
            ..CampaignConfig::default()
        };
        for cfg in [
            CampaignConfig {
                trace_out: Some("trace.json".into()),
                ..base.clone()
            },
            CampaignConfig {
                obs_level: ObsLevel::Counters,
                ..base.clone()
            },
            CampaignConfig {
                metrics_out: Some("metrics.json".into()),
                ..base
            },
        ] {
            cfg.validate().unwrap();
        }
    }

    #[test]
    fn presets_resolve() {
        for i in 0..PRESETS.len() {
            preset_params(i).validate().unwrap();
        }
    }

    #[test]
    fn preset_restrictions_validate() {
        let base = CampaignConfig {
            apps: vec!["KUE".into()],
            ..CampaignConfig::default()
        };
        let one = CampaignConfig {
            presets: vec![1],
            ..base.clone()
        };
        one.validate().unwrap();
        let out_of_range = CampaignConfig {
            presets: vec![DIRECTED_PRESET + 1],
            ..base.clone()
        };
        assert!(out_of_range
            .validate()
            .unwrap_err()
            .contains("out of range"));
        let empty = CampaignConfig {
            presets: vec![],
            ..base.clone()
        };
        assert!(empty
            .validate()
            .unwrap_err()
            .contains("at least one preset"));
        let directed_only = CampaignConfig {
            presets: vec![DIRECTED_PRESET],
            ..base
        };
        directed_only.validate().unwrap();
    }

    #[test]
    fn preset_names_resolve_to_indices() {
        for (i, name) in PRESETS.iter().enumerate() {
            assert_eq!(preset_index(name), Some(i));
            assert_eq!(preset_index(&name.to_uppercase()), Some(i));
        }
        assert_eq!(preset_index("directed"), None);
        assert_eq!(preset_index("nope"), None);
    }

    #[test]
    fn preset_names_cover_the_directed_arm() {
        assert_eq!(preset_name(0), "standard");
        assert_eq!(preset_name(PRESETS.len() - 1), "guided");
        assert_eq!(preset_name(DIRECTED_PRESET), "directed");
    }
}

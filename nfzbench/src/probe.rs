//! The layer probe: splits the opaque calls of a traced run from outside.
//!
//! `fuzz_once` is one call into `campaign`, but inside it the runtime
//! simulates the environment and dispatches callbacks (`rt`), the
//! scheduler decides and records (`core`), and the oracle's result is
//! signed (`trace`). The probe re-runs sampled executions at the same
//! (app, env seed, scheduler seed) under each [`Mode`] in turn, with and
//! without the event log, and times each public call on its own, so the
//! difference between two runs is one layer's cost. Probe time is never
//! part of a workload's measured time.

use std::path::Path;
use std::time::Instant;

use nodefz::{DirectedSpec, Mode, ReplayStatusHandle, TraceHandle};
use nodefz_apps::common::{Outcome, RunCfg, Variant};
use nodefz_campaign::{
    analyze_campaign, preset_params, run_with_progress, shrink, verify_entry, AnalyzeConfig,
    Corpus, CorpusEntry, Deduper, Event, Finding, RunContext,
};
use nodefz_hb::{analyze_recorded, record_vanilla, CanonBuilder, SeenSet};
use nodefz_rt::{EventLogHandle, LoopPool};
use nodefz_trace::BugSignature;

use crate::reference;
use crate::spans::{Lane, Tracer};
use crate::workloads::{input_seed, replays_to, repro_config, Input};

/// Every this-many-th sample also runs the happens-before analysis, a
/// directed execution and a whole `analyze_campaign`.
const HB_EVERY: usize = 4;
/// Manifesting samples that are shrunk and persisted, at most.
const SHRINK_SAMPLES: u64 = 16;
/// The reference kernel is timed before every this-many-th sample.
const KERNEL_EVERY: usize = 16;
/// `repro` campaigns the probe runs over the samples' apps.
const CAMPAIGNS: usize = 4;

/// Nanosecond totals and counts over the probe samples.
#[derive(Default)]
struct Totals {
    samples: u64,
    vanilla_ns: u64,
    vanilla_cbs: u64,
    nofuzz_ns: u64,
    fuzz_ns: u64,
    record_ns: u64,
    record_cbs: u64,
    events_ns: u64,
    decisions: u64,
    replay_ns: u64,
    canon_ns: u64,
    canon_events: u64,
    signature_ns: u64,
    signature_hit_ns: u64,
    fuzz_once_ns: u64,
    hb_samples: u64,
    record_vanilla_ns: u64,
    analyze_ns: u64,
    races: u64,
    directed_ns: u64,
    directed: u64,
    analyze_campaign_ns: u64,
    analyze_directed_execs: u64,
    shrinks: u64,
    shrink_ns: u64,
    shrink_replays: u64,
    shrink_keep: f64,
    dedup_ns: u64,
    saves: u64,
    save_ns: u64,
}

/// Runs `f` inside a probe span and adds its wall time to `total`.
fn timed<R>(tr: &mut Tracer, name: &'static str, total: &mut u64, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let out = tr.leaf(name, f);
    *total += start.elapsed().as_nanos() as u64;
    out
}

/// Probes `inputs` and returns every per-layer metric it measures, as
/// (name, value) pairs in the units of [`crate::PER_LAYER`].
pub(crate) fn probe(
    inputs: &[Input],
    scratch: &Path,
    tr: &mut Tracer,
) -> Result<Vec<(&'static str, f64)>, String> {
    let pool = LoopPool::new();
    let mut ctx = RunContext::new();
    let mut canon = CanonBuilder::new();
    let mut canon_scratch = Vec::new();
    let mut keys = Vec::with_capacity(inputs.len());
    let mut deduper = Deduper::new();
    let corpus_dir = scratch.join("probe-corpus");
    let corpus = Corpus::open(&corpus_dir).map_err(|e| format!("probe corpus: {e}"))?;
    let mut t = Totals::default();
    let mut kernel_ns = Vec::new();
    // Reused like `RunContext` reuses its own: recording resets it in place.
    let handle = TraceHandle::fresh();

    for (j, s) in inputs.iter().enumerate() {
        if j % KERNEL_EVERY == 0 {
            kernel_ns.push(reference::time_kernel(1));
        }
        let case = nodefz_apps::by_abbr(&s.app).ok_or_else(|| format!("unknown app {}", s.app))?;
        let case = case.as_ref();
        let run = |mode: Mode, events: Option<&EventLogHandle>| -> Outcome {
            let mut cfg = RunCfg::new(mode, s.env).pooled(&pool);
            if let Some(events) = events {
                cfg = cfg.events(events);
            }
            case.run(&cfg, Variant::Buggy)
        };
        tr.set_trial(j as u64, Lane::Probe);
        let root = tr.begin("bench.probe");
        t.samples += 1;

        // The four mode runs and `fuzz_once` (a Record run inside), in an
        // order rotated per sample so that none always pays for the caches
        // the previous sample left cold.
        let record = || Mode::Record(preset_params(s.preset), handle.clone());
        let mut recorded = None;
        for m in 0..5 {
            match (m + j) % 5 {
                0 => {
                    let out = timed(tr, "rt.run_vanilla", &mut t.vanilla_ns, || {
                        run(Mode::Vanilla, None)
                    });
                    t.vanilla_cbs += out.report.dispatched;
                }
                1 => {
                    timed(tr, "core.run_nofuzz", &mut t.nofuzz_ns, || {
                        run(Mode::NoFuzz, None)
                    });
                }
                2 => {
                    timed(tr, "core.run_fuzz", &mut t.fuzz_ns, || {
                        run(Mode::Fuzz, None)
                    });
                }
                3 => {
                    timed(tr, "campaign.fuzz_once", &mut t.fuzz_once_ns, || {
                        ctx.fuzz_once(&s.app, s.preset, s.env)
                    });
                }
                _ => {
                    recorded = Some(timed(tr, "core.run_record", &mut t.record_ns, || {
                        run(record(), None)
                    }));
                }
            }
        }
        let recorded = recorded.expect("the rotation includes the record run");
        t.record_cbs += recorded.report.dispatched;
        let trace = handle.snapshot();
        t.decisions += trace.decisions.len() as u64;

        let events = EventLogHandle::fresh();
        timed(tr, "rt.run_provenance", &mut t.events_ns, || {
            run(record(), Some(&events))
        });
        let key = timed(tr, "hb.canon", &mut t.canon_ns, || {
            events.with(|log| canon.build(log, &mut canon_scratch))
        });
        t.canon_events += events.with(|log| log.events.len() as u64);
        keys.push(key);

        let before = t.signature_ns;
        let signature = timed(tr, "trace.signature", &mut t.signature_ns, || {
            BugSignature::new(&s.app, &recorded.detail, &recorded.report.schedule)
        });
        if recorded.manifested {
            // `fuzz_once` signs only the runs that manifest.
            t.signature_hit_ns += t.signature_ns - before;
        }
        timed(tr, "core.run_replay", &mut t.replay_ns, || {
            run(
                Mode::Replay(trace.clone(), ReplayStatusHandle::fresh()),
                None,
            )
        });

        if j % HB_EVERY == 0 {
            t.hb_samples += 1;
            let text = timed(tr, "hb.record_vanilla", &mut t.record_vanilla_ns, || {
                record_vanilla(case, s.env)
            });
            let analysis = timed(tr, "hb.analyze_recorded", &mut t.analyze_ns, || {
                analyze_recorded(case, s.env, &text)
            })
            .map_err(|e| format!("probe: {} seed {}: {e}", s.app, s.env))?;
            t.races += analysis.races.len() as u64;
            if let Some(race) = analysis.races.first() {
                let spec = DirectedSpec::new(analysis.trace.clone(), race.ladder(1)[0]);
                t.directed += 1;
                timed(tr, "core.run_directed", &mut t.directed_ns, || {
                    ctx.fuzz_directed(&s.app, spec, s.env)
                });
            }
            let cfg = AnalyzeConfig {
                apps: vec![s.app.clone()],
                env_seed: s.env,
                ..AnalyzeConfig::default()
            };
            let report = timed(
                tr,
                "campaign.analyze_campaign",
                &mut t.analyze_campaign_ns,
                || analyze_campaign(&cfg),
            )
            .map_err(|e| format!("probe: {} seed {}: {e}", s.app, s.env))?;
            t.analyze_directed_execs += report.directed_execs;
        }

        if recorded.manifested && t.shrinks < SHRINK_SAMPLES {
            t.shrinks += 1;
            let mut replays = 0;
            let shrunk = timed(tr, "campaign.shrink", &mut t.shrink_ns, || {
                shrink(&trace, |candidate| {
                    replays += 1;
                    replays_to(&signature, s.env, candidate.clone())
                })
            });
            t.shrink_replays += replays;
            t.shrink_keep +=
                shrunk.trace.decisions.len() as f64 / shrunk.original_len.max(1) as f64;
            let entry = CorpusEntry {
                app: s.app.clone(),
                env_seed: s.env,
                site: signature.site.clone(),
                kinds: signature.kinds,
                hits: 1,
                replays_ok: 1,
                trace: shrunk.trace,
            };
            let finding = Finding {
                app: s.app.clone(),
                preset: s.preset,
                env_seed: s.env,
                detail: recorded.detail.clone(),
                signature,
                trace,
            };
            timed(tr, "campaign.dedup", &mut t.dedup_ns, || {
                deduper.insert(finding)
            });
            t.saves += 1;
            timed(tr, "campaign.corpus_save", &mut t.save_ns, || {
                corpus.save(&entry)
            })
            .map_err(|e| format!("probe corpus: {e}"))?;
        }
        tr.end(root);
    }

    tr.set_trial(inputs.len() as u64, Lane::Probe);
    let mut seen = SeenSet::new(keys.len().max(1));
    let mut distinct = 0u64;
    let mut seen_ns = 0;
    timed(tr, "hb.seen_insert", &mut seen_ns, || {
        for &key in &keys {
            distinct += u64::from(seen.insert(key));
        }
    });
    let mut load_ns = 0;
    let entries = timed(tr, "campaign.corpus_load", &mut load_ns, || {
        corpus.load_all()
    })
    .map_err(|e| format!("probe corpus: {e}"))?;
    let mut verify_ns = 0;
    for entry in &entries {
        timed(tr, "campaign.verify_entry", &mut verify_ns, || {
            verify_entry(entry)
        })
        .map_err(|e| format!("probe: {e}"))?;
    }
    let _ = std::fs::remove_dir_all(&corpus_dir);

    // Whole campaigns over the samples' apps, seeded from spread-out
    // samples: their wall time, runs, and each bug's wait from
    // `Event::NewBug` to its `Event::Shrunk` (queueing, shrink, acceptance
    // replays).
    let mut apps: Vec<String> = Vec::new();
    for s in inputs {
        if !apps.contains(&s.app) {
            apps.push(s.app.clone());
        }
    }
    let (mut run_ns, mut runs, mut campaigns) = (0, 0, 0);
    let mut newbug_ms: Vec<f64> = Vec::new();
    let stride = inputs.len().div_ceil(CAMPAIGNS).max(1);
    for (k, s) in inputs.iter().step_by(stride).enumerate() {
        kernel_ns.push(reference::time_kernel(1));
        tr.set_trial((inputs.len() + 1 + k) as u64, Lane::Probe);
        let dir = scratch.join(format!("probe-campaign-{k}"));
        let cfg = repro_config(apps.clone(), input_seed(&[s.env, k as u64]), dir.clone());
        let mut found: Vec<(BugSignature, Instant)> = Vec::new();
        let report = timed(tr, "campaign.run_with_progress", &mut run_ns, || {
            run_with_progress(&cfg, |ev| match ev {
                Event::NewBug { signature, .. } => found.push((signature.clone(), Instant::now())),
                Event::Shrunk { signature, .. } => {
                    if let Some((_, at)) = found.iter().find(|(sig, _)| sig == signature) {
                        newbug_ms.push(at.elapsed().as_secs_f64() * 1e3);
                    }
                }
                _ => {}
            })
        })
        .map_err(|e| format!("probe campaign: {e}"))?;
        let _ = std::fs::remove_dir_all(&dir);
        campaigns += 1;
        runs += report.runs;
    }
    kernel_ns.push(reference::time_kernel(1));

    // Counts per sample, and times per sample at the reference speed.
    let per = |total: u64, n: u64| total as f64 / n.max(1) as f64;
    let scale = reference::scale(kernel_ns.iter().sum::<f64>() / kernel_ns.len() as f64);
    let ns = |total: u64, n: u64| per(total, n) * scale;
    let us = |total: u64, n: u64| ns(total, n) / 1e3;
    // The time `a` takes beyond `b`, per one of `n`, in ns.
    let extra = |a: u64, b: u64, n: u64| (a as f64 - b as f64) * scale / n.max(1) as f64;
    let n = t.samples;
    Ok(vec![
        ("rt.exec_us", us(t.vanilla_ns, n)),
        ("rt.cb_ns", ns(t.vanilla_ns, t.vanilla_cbs)),
        ("rt.cbs_per_exec", per(t.vanilla_cbs, n)),
        (
            "rt.provenance_ns_per_cb",
            extra(t.events_ns, t.record_ns, t.record_cbs),
        ),
        // A mode's time beyond vanilla per callback of the vanilla run:
        // its overhead per unit of program work (Fig. 8).
        (
            "core.nofuzz_ns_per_cb",
            extra(t.nofuzz_ns, t.vanilla_ns, t.vanilla_cbs),
        ),
        (
            "core.fuzz_ns_per_cb",
            extra(t.fuzz_ns, t.vanilla_ns, t.vanilla_cbs),
        ),
        (
            "core.record_ns_per_cb",
            extra(t.record_ns, t.vanilla_ns, t.vanilla_cbs),
        ),
        ("core.replay_us", us(t.replay_ns, n)),
        ("core.decisions_per_exec", per(t.decisions, n)),
        ("core.directed_us", us(t.directed_ns, t.directed)),
        ("hb.canon_ns_per_event", ns(t.canon_ns, t.canon_events)),
        ("hb.seen_insert_ns", ns(seen_ns, keys.len() as u64)),
        ("hb.distinct_ratio", per(distinct, keys.len() as u64)),
        (
            "hb.record_vanilla_us",
            us(t.record_vanilla_ns, t.hb_samples),
        ),
        ("hb.analyze_us", us(t.analyze_ns, t.hb_samples)),
        ("hb.races_per_analysis", per(t.races, t.hb_samples)),
        (
            "campaign.analyze_ms",
            us(t.analyze_campaign_ns, t.hb_samples) / 1e3,
        ),
        (
            "campaign.directed_execs_per_trial",
            per(t.analyze_directed_execs, t.hb_samples),
        ),
        ("trace.signature_ns", ns(t.signature_ns, n)),
        ("campaign.fuzz_once_us", us(t.fuzz_once_ns, n)),
        (
            "campaign.fuzz_once_residual_us",
            extra(t.fuzz_once_ns, t.record_ns + t.signature_hit_ns, n) / 1e3,
        ),
        ("campaign.shrink_ms", us(t.shrink_ns, t.shrinks) / 1e3),
        ("campaign.shrink_replays", per(t.shrink_replays, t.shrinks)),
        (
            "campaign.shrink_keep_ratio",
            t.shrink_keep / t.shrinks.max(1) as f64,
        ),
        ("campaign.dedup_ns", ns(t.dedup_ns, t.shrinks)),
        ("campaign.corpus_save_us", us(t.save_ns, t.saves)),
        ("campaign.corpus_load_us", us(load_ns, entries.len() as u64)),
        ("campaign.verify_us", us(verify_ns, entries.len() as u64)),
        ("campaign.run_ms", us(run_ns, campaigns) / 1e3),
        ("campaign.runs_per_campaign", per(runs, campaigns)),
        (
            "campaign.newbug_to_repro_ms",
            newbug_ms.iter().sum::<f64>() * scale / newbug_ms.len().max(1) as f64,
        ),
    ])
}

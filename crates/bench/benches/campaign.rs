//! Campaign-scaling experiment: the same fuzzing campaign (fig6 bug set,
//! fixed budget and base seed) at 1, 2 and 4 worker threads. The
//! wall-clock column shows the parallel speedup. Every row runs the same
//! runs in the same order (the controller applies results in dispatch
//! order), so the unique-bug column is the same on every row.
//!
//! Run with: `cargo bench -p nodefz-bench --bench campaign`

use nodefz_bench::campaign_scaling;

fn main() {
    let apps = [
        "GHO", "FPS", "CLF", "NES", "AKA", "SIO", "MKD", "KUE", "MGS",
    ];
    let budget = 20_000;
    println!("campaign scaling: {budget} runs over {} apps", apps.len());
    println!(
        "{:<8} {:>9} {:>10} {:>12}",
        "threads", "wall s", "runs/s", "unique bugs"
    );
    let rows = campaign_scaling(&apps, budget, &[1, 2, 4]);
    let base = rows.first().map(|r| r.wall_s);
    for row in &rows {
        let speedup = base.map_or(1.0, |b| b / row.wall_s.max(1e-9));
        println!(
            "{:<8} {:>9.3} {:>10.1} {:>12}   ({speedup:.2}x vs 1 thread)",
            row.threads, row.wall_s, row.runs_per_s, row.unique_bugs
        );
    }
}

//! `--repeat-check`: measure the benchmark's own repeatability and set its
//! bounds from it.
//!
//! Two sets of full timed runs of this same binary, every run with another
//! seed. For each (metric, workload) pair: the relative difference between
//! the two sets' medians, and each set's quartile spread (the distance
//! between its first and third quartile as a share of its median). A
//! metric's bound in `BENCHMARK.json` becomes the largest, over the
//! workloads, of `max(5 %, 3 x median difference, 2 x spread)`, rounded up
//! to a whole percent and capped at the 25 % the file's schema allows.

use std::path::PathBuf;

use crate::stats::{median, quartiles};
use crate::timed::Res;
use crate::{end_to_end, timed_run, Args};

/// The schema's ceiling on a bound, which `setup_s` always gets.
const MAX_BOUND: f64 = 0.25;
const MIN_BOUND: f64 = 0.05;

fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

/// `max(5 %, 3 x median difference, 2 x spread)`, in whole percents, capped.
pub fn bound_for(median_difference: f64, spread: f64) -> f64 {
    let wanted = MIN_BOUND
        .max(3.0 * median_difference)
        .max(2.0 * spread)
        .min(MAX_BOUND);
    // The nudge keeps 3 x 0.03 from rounding up to 10 %.
    (wanted * 100.0 - 1e-9).ceil() / 100.0
}

/// Replace the number after `"bound":` on the line that names `metric`.
/// `BENCHMARK.json` keeps one metric per line so that this stays a text edit.
pub fn rewrite_bound(json: &str, metric: &str, bound: f64) -> Option<String> {
    let needle = format!("\"name\": \"{metric}\"");
    let mut found = false;
    let lines: Vec<String> = json
        .lines()
        .map(|line| {
            let Some((head, tail)) = line
                .contains(&needle)
                .then(|| line.split_once("\"bound\": "))
                .flatten()
            else {
                return line.to_string();
            };
            found = true;
            let rest = tail.trim_start_matches(|c: char| c.is_ascii_digit() || c == '.');
            format!("{head}\"bound\": {bound}{rest}")
        })
        .collect();
    found.then(|| lines.join("\n") + "\n")
}

fn benchmark_json() -> PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json")
}

pub fn check(args: &Args, runs_per_set: usize) -> Res<()> {
    if runs_per_set < 2 {
        return Err("--repeat-check needs at least 2 runs per set".into());
    }
    println!("{}", crate::hardware_line(args.quick));
    println!(
        "repeat-check: 2 sets x {runs_per_set} runs x {} workloads, --seconds {}",
        args.workloads.len(),
        args.seconds
    );
    // bounds[metric] = the largest bound any workload asked for.
    let mut bounds: Vec<(String, f64)> = Vec::new();
    println!(
        "{:<16} {:<14} {:>12} {:>12} {:>9} {:>9} {:>9} {:>7}",
        "workload", "metric", "median A", "median B", "diff", "spread A", "spread B", "bound"
    );
    for name in &args.workloads {
        // sets[set][metric] = the values of that metric over the set's runs.
        let mut sets: [Vec<(String, Vec<f64>)>; 2] = [Vec::new(), Vec::new()];
        for (s, set) in sets.iter_mut().enumerate() {
            for run in 0..runs_per_set {
                let seed = args.seed + (s * runs_per_set + run) as u64;
                let report = timed_run(name, seed, args.seconds)?;
                for m in end_to_end(&report) {
                    match set.iter_mut().find(|(n, _)| *n == m.name) {
                        Some((_, values)) => values.push(m.value),
                        None => set.push((m.name, vec![m.value])),
                    }
                }
            }
        }
        let [a, b] = &sets;
        for ((metric, va), (_, vb)) in a.iter().zip(b) {
            let (ma, mb) = (median(va), median(vb));
            let diff = (mb - ma).abs() / ma;
            let (sa, sb) = (spread(va), spread(vb));
            let bound = if metric == "setup_s" {
                MAX_BOUND
            } else {
                bound_for(diff, sa.max(sb))
            };
            println!(
                "{name:<16} {metric:<14} {ma:>12.4} {mb:>12.4} {:>8.2}% {:>8.2}% {:>8.2}% {:>6.0}%",
                diff * 100.0,
                sa * 100.0,
                sb * 100.0,
                bound * 100.0
            );
            if 3.0 * diff > MAX_BOUND || sa.max(sb) > MAX_BOUND {
                println!("  ^ needs more than the {MAX_BOUND} a bound may be: not repeatable on this box today");
            }
            match bounds.iter_mut().find(|(n, _)| n == metric) {
                Some((_, worst)) => *worst = worst.max(bound),
                None => bounds.push((metric.clone(), bound)),
            }
        }
    }
    if args.quick {
        println!("quick mode: bounds not written (never record quick numbers)");
        return Ok(());
    }
    let path = benchmark_json();
    let mut json =
        std::fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    for (metric, bound) in &bounds {
        json = rewrite_bound(&json, metric, *bound)
            .ok_or(format!("{metric} has no bound line in BENCHMARK.json"))?;
        println!("bound {metric} = {bound}");
    }
    std::fs::write(&path, json).map_err(|e| format!("writing {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_take_the_largest_need_and_stay_inside_the_schema() {
        assert_eq!(bound_for(0.001, 0.01), 0.05);
        assert_eq!(bound_for(0.03, 0.01), 0.09);
        assert_eq!(bound_for(0.01, 0.061), 0.13);
        assert_eq!(bound_for(0.2, 0.3), 0.25);
    }

    #[test]
    fn only_the_named_metrics_bound_is_rewritten() {
        let json = "{\n  \"end_to_end\": [\n    {\"name\": \"lat_p50_ms\", \"unit\": \"ms\", \"better\": \"lower\", \"bound\": 0.1},\n    {\"name\": \"setup_s\", \"unit\": \"s\", \"better\": \"lower\", \"bound\": 0.25}\n  ]\n}\n";
        let out = rewrite_bound(json, "lat_p50_ms", 0.07).unwrap();
        assert!(out.contains(
            "\"name\": \"lat_p50_ms\", \"unit\": \"ms\", \"better\": \"lower\", \"bound\": 0.07},"
        ));
        assert!(out.contains(
            "\"name\": \"setup_s\", \"unit\": \"s\", \"better\": \"lower\", \"bound\": 0.25}"
        ));
        assert_eq!(out.lines().count(), json.lines().count());
        assert!(rewrite_bound(json, "absent", 0.1).is_none());
    }
}

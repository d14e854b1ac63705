//! The SARN benchmark: two workloads, each run in its own process.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <knn_read|edit_churn> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the last stdout line is a JSON object carrying every
//! end-to-end metric; with `--trace 1` it carries every per-layer metric,
//! timed from this crate around calls into the library crates' public
//! APIs (nothing inside the program is instrumented). Lines before it,
//! prefixed `# `, record the settings, sample counts and the
//! workload-specific numbers behind each metric. See `README.md`.

mod churn;
mod gen;
mod knn;
mod loadgen;
mod report;
mod stats;
mod train;

use std::time::Duration;

use report::Report;

/// End-to-end metrics every workload reports with tracing off, as
/// (name, unit); `BENCHMARK.json` lists the same names and units.
pub const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("peak_rss_mb", "MB"), ("op_p1_ms", "ms")];

/// Per-layer metrics of the traced run, as (name, unit). A workload that
/// never calls a layer reports 0 for it.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.model.momentum_fwd_ms", "ms"),
    ("core.model.query_fwd_ms", "ms"),
    ("tensor.autograd.backward_ms", "ms"),
    ("tensor.autograd.loss_ms", "ms"),
    ("core.queues.negatives_ms", "ms"),
    ("core.queues.push_ms", "ms"),
    ("tensor.optim.adam_ms", "ms"),
    ("core.model.momentum_update_ms", "ms"),
    ("core.augment.views_ms", "ms"),
    ("core.similarity.join_ms", "ms"),
    ("train.batches", "count"),
    ("tensor.autograd.tape_ops", "count"),
    ("core.augment.view_edges", "count"),
    ("core.model.batch_row_share", "fraction"),
    ("train.attributed_share", "fraction"),
    ("train.replay_loss_match", "bool"),
    ("serve.router.knn_us", "us"),
    ("serve.shard.locate_us", "us"),
    ("serve.store.leg_us", "us"),
    ("serve.store.legs_sum_us", "us"),
    ("serve.store.legs_max_us", "us"),
    ("serve.router.self_p50_us", "us"),
    ("serve.router.self_p99_us", "us"),
    ("serve.store.ann_share", "fraction"),
    ("serve.router.hedges_per_kq", "count"),
    ("ann.build_ms", "ms"),
    ("loadgen.late_p99_ms", "ms"),
    ("knn_read.attributed_share", "fraction"),
    ("pipeline.edit.decode_us", "us"),
    ("pipeline.live.validate_us", "us"),
    ("pipeline.live.repair_ms", "ms"),
    ("pipeline.cursor.save_us", "us"),
    ("core.train.retrain_ms", "ms"),
    ("tensor.io.export_ms", "ms"),
    ("serve.shard.reload_ms", "ms"),
    ("serve.shard.swapped_share", "fraction"),
    ("edit_churn.attributed_share", "fraction"),
    ("edit_churn.replay_artifact_match", "bool"),
    ("trace.overhead_share", "fraction"),
];

pub const WORKLOADS: &[&str] = &["knn_read", "edit_churn"];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    /// Cores available to the process; the read generators and closed-loop
    /// clients use this many threads.
    pub nproc: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
    })
}

/// The process's peak RSS so far (VmHWM), in MB.
pub fn peak_rss_mb() -> f64 {
    sarn_obs::peak_rss_bytes().map_or(f64::NAN, |b| b as f64 / (1024.0 * 1024.0))
}

/// Adds the end-to-end metrics: the fastest set-up, the peak RSS and the
/// 1st-percentile latency of the workload's unit of work (a routed read,
/// an edit batch).
pub fn end_to_end(report: &mut Report, setup_s: f64, rss_mb: f64, op_p1_ms: f64) {
    report.metric("setup_s", setup_s, "s");
    report.metric("peak_rss_mb", rss_mb, "MB");
    report.metric("op_p1_ms", op_p1_ms, "ms");
}

/// Adds one per-layer metric measured on `workload`.
pub fn layer(report: &mut Report, workload: &str, name: &str, value: f64, unit: &'static str) {
    debug_assert!(
        PER_LAYER.contains(&(name, unit)),
        "{name} [{unit}] is not listed"
    );
    report.note(format!("{workload} layer {name} = {value} {unit}"));
    report.metric(name, value, unit);
}

/// Orders the metrics as `expected` lists them, filling layers the
/// workload never calls with 0. `None` if an end-to-end metric is missing.
fn finish(mut report: Report, trace: bool) -> Option<Report> {
    let expected = if trace { PER_LAYER } else { END_TO_END };
    let mut ordered = Vec::with_capacity(expected.len());
    for &(name, unit) in expected {
        match report.metrics.iter().position(|m| m.name == name) {
            Some(i) => ordered.push(report.metrics.swap_remove(i)),
            None if trace => ordered.push(report::Metric {
                name: name.to_string(),
                value: 0.0,
                unit,
            }),
            None => return None,
        }
    }
    report.metrics = ordered;
    report.check_finite();
    Some(report)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let report = match args.workload.as_str() {
        "knn_read" => knn::run(&args),
        _ => churn::run(&args),
    };
    let notes = report.notes.clone();
    match finish(report, args.trace) {
        Some(r) => r.print(),
        None => {
            for n in notes {
                eprintln!("# {n}");
            }
            eprintln!("perfbench: {} produced no result", args.workload);
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root lists exactly the metrics
    /// and workloads this binary reports, with the same units.
    #[test]
    fn benchmark_json_matches_the_reported_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let section = |key: &str| -> String {
            let start = json.find(&format!("\"{key}\"")).expect(key);
            let rest = &json[start..];
            rest[..rest.find(']').expect("array end")].to_string()
        };
        let names = |s: &str| -> Vec<(String, String)> {
            s.split("\"name\": \"")
                .skip(1)
                .map(|chunk| {
                    let name = chunk[..chunk.find('"').expect("name end")].to_string();
                    let unit = chunk
                        .split("\"unit\": \"")
                        .nth(1)
                        .map(|u| u[..u.find('"').expect("unit end")].to_string())
                        .unwrap_or_default();
                    (name, unit)
                })
                .collect()
        };
        let own = |l: &[(&str, &str)]| -> Vec<(String, String)> {
            l.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names(&section("end_to_end")), own(END_TO_END));
        assert_eq!(names(&section("per_layer")), own(PER_LAYER));
        let workloads: Vec<String> = names(&section("workloads"))
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn traced_results_list_every_layer_and_untraced_need_every_metric() {
        let mut r = Report {
            correct: true,
            ..Default::default()
        };
        r.metric("serve.shard.locate_us", 1.5, "us");
        let r = finish(r, true).expect("layers are filled");
        assert_eq!(r.metrics.len(), PER_LAYER.len());
        assert!(r
            .metrics
            .iter()
            .any(|m| m.name == "serve.shard.locate_us" && m.value == 1.5));
        let mut e = Report::default();
        e.metric("setup_s", 1.0, "s");
        assert!(finish(e, false).is_none());
    }
}

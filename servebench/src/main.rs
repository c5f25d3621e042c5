//! Served-workload benchmark for `ceci-serve`.
//!
//! ```text
//! servebench --workload <name> --seed <n> --seconds <s> --trace <0|1> --bin-dir <dir>
//! ```
//!
//! Generates the workload's inputs from the seed, starts the server
//! processes from `--bin-dir`, drives them for `--seconds`, checks every
//! answer against the library's fixed-plan oracle, and prints a summary on
//! stderr and, as the last line of stdout, one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` the per-layer ones, from a traced replay
//! of the workload's library calls that also writes a Chrome trace under
//! `.servebench/`. `run.sh` builds everything and supplies `--bin-dir`.

mod gen;
mod layers;
mod load;
mod oracle;
mod proc;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::exit;
use std::time::Duration;

/// End-to-end metrics, reported by untraced runs.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("match_p50_ms", "ms"),
    ("match_p99_ms", "ms"),
    ("match_qps", "1/s"),
    ("server_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by traced runs. `_us` layer times are self
/// time per replayed operation; a metric a workload does not exercise is 0.
const PER_LAYER: [(&str, &str); 36] = [
    ("graph.load_ms", "ms"),
    ("graph.label_pairs_ms", "ms"),
    ("graph.overlay_apply_us", "us"),
    ("query.hash_us", "us"),
    ("query.admission_us", "us"),
    ("query.plan_us", "us"),
    ("core.plan_score_us", "us"),
    ("core.filter_us", "us"),
    ("core.refine_us", "us"),
    ("core.index_kb", "KiB"),
    ("core.enumerate_us", "us"),
    ("core.isect_per_embedding", "ratio"),
    ("core.useful_call_frac", "ratio"),
    ("core.delta_us", "us"),
    ("stream.build_us", "us"),
    ("stream.patch_us", "us"),
    ("stream.keys_recomputed", "count"),
    ("stream.materialize_us", "us"),
    ("service.overhead_us_p50", "us"),
    ("service.build_us_p50", "us"),
    ("service.enum_us_p50", "us"),
    ("service.repair_us_p50", "us"),
    ("service.cache_hit_frac", "ratio"),
    ("service.cache_evictions", "count"),
    ("service.cache_mb", "MiB"),
    ("service.filter_rejected_frac", "ratio"),
    ("service.frontier_hit_frac", "ratio"),
    ("service.singleflight_waits", "count"),
    ("service.repair_frac", "ratio"),
    ("coord.exec_per_match", "ratio"),
    ("coord.stale_rejected_frac", "ratio"),
    ("shard.exec_us_p50", "us"),
    ("loadgen.late_ms_max", "ms"),
    ("loadgen.batch_p50_ms", "ms"),
    ("loadgen.batch_p99_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
];

/// A run that has not finished by then is killed with its children, so
/// the benchmark always exits within its 180-second budget.
const WATCHDOG: Duration = Duration::from_secs(170);

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    bin_dir: PathBuf,
}

fn usage(msg: &str) -> ! {
    eprintln!("servebench: {msg}");
    eprintln!("usage: servebench --workload <name> --seed <n> --seconds <s> --trace <0|1> --bin-dir <dir>");
    exit(2)
}

fn parse_args() -> Args {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10,
        trace: false,
        bin_dir: PathBuf::new(),
    };
    for pair in raw.chunks(2) {
        let [flag, value] = pair else {
            usage("every flag takes a value")
        };
        let num = || {
            value
                .parse::<u64>()
                .unwrap_or_else(|_| usage(&format!("{flag} wants a number")))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = num(),
            "--seconds" => args.seconds = num().max(1),
            "--trace" => args.trace = num() != 0,
            "--bin-dir" => args.bin_dir = PathBuf::from(value),
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    args
}

fn main() {
    let args = parse_args();
    let Some(&(name, run)) = workloads::ALL.iter().find(|(n, _)| *n == args.workload) else {
        let names: Vec<&str> = workloads::ALL.iter().map(|w| w.0).collect();
        usage(&format!("--workload must be one of {}", names.join(", ")))
    };
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("servebench: watchdog fired after {WATCHDOG:?}; killing servers");
        proc::kill_all();
        exit(3);
    });
    let root = PathBuf::from(".servebench");
    let ctx = workloads::Ctx {
        bin_dir: args.bin_dir,
        work: root.join(format!("run-{name}-{}-{}", args.seed, std::process::id())),
        trace_path: root.join(format!("trace-{name}-{}.json", args.seed)),
        seed: args.seed,
        window: Duration::from_secs(args.seconds),
        trace: args.trace,
    };
    if let Err(e) = std::fs::create_dir_all(&ctx.work) {
        eprintln!("servebench: {}: {e}", ctx.work.display());
        exit(1);
    }
    let result = run(&ctx);
    let _ = std::fs::remove_dir_all(&ctx.work);
    let report = result.unwrap_or_else(|e| {
        eprintln!("servebench: {name}: {e}");
        exit(1)
    });
    let wanted: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::new();
    for &(metric, unit) in wanted {
        let value = match report.metrics.get(metric) {
            Some(v) if v.is_finite() => *v,
            None if args.trace => 0.0,
            other => {
                eprintln!("servebench: {name}: metric {metric} is {other:?}");
                exit(1)
            }
        };
        metrics.push(format!(
            "\"{metric}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    eprintln!(
        "== {name} seed={} seconds={} trace={}",
        args.seed, args.seconds, args.trace as u8
    );
    for note in &report.notes {
        eprintln!("   {note}");
    }
    for (metric, value) in &report.metrics {
        eprintln!("   {metric:<30} {value:.4}");
    }
    let t = &report.tally;
    eprintln!(
        "   failed_frac {:.4} ({} of {} attempted; first failures {:?})",
        t.failed_frac(),
        t.failed(),
        t.attempted,
        &t.failures[..t.failures.len().min(10)]
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        t.failed() == 0,
        t.attempted.max(1),
        t.failed(),
        metrics.join(", ")
    );
}

//! The served workloads. Each generates its inputs from the seed,
//! starts the server processes, drives them for the window, checks every
//! answer against the oracle, and returns its metrics.

use std::collections::{BTreeMap, BTreeSet};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use ceci_core::Ceci;
use ceci_graph::Graph;
use ceci_query::{QueryGraph, QueryPlan};
use ceci_service::coord::{plan_radius, prepare_line};
use ceci_service::Client;

use crate::gen::{self, GraphSpec, Rng};
use crate::layers::{self, Op, Replay};
use crate::load::{self, Sample, Versions};
use crate::oracle;
use crate::proc::Server;
use crate::stats::{self, frac, median_of, ms, Failure, Tally};

/// Everything one run needs.
pub struct Ctx {
    /// Directory holding `ceci-serve` and `ceci-shard`.
    pub bin_dir: PathBuf,
    /// Scratch directory for this run's generated inputs.
    pub work: PathBuf,
    /// Where the traced run writes its Chrome trace.
    pub trace_path: PathBuf,
    /// Input seed.
    pub seed: u64,
    /// Length of the timed window.
    pub window: Duration,
    /// Traced run: replay the layers with spans after the served phase.
    pub trace: bool,
}

impl Ctx {
    fn serve(&self, extra: &[String]) -> Result<Server, String> {
        let mut args = vec!["--addr".to_string(), "127.0.0.1:0".to_string()];
        args.extend_from_slice(extra);
        Server::spawn(&self.bin_dir.join("ceci-serve"), &args)
    }

    /// Set-ups timed in one run, as `(at least, at most)`; `setup_s` is
    /// their median.
    fn setup_reps(&self) -> (usize, usize) {
        if self.trace {
            (1, 1)
        } else {
            (5, 25)
        }
    }

    fn file(&self, name: &str) -> PathBuf {
        self.work.join(name)
    }
}

/// The result of one run.
#[derive(Default)]
pub struct Report {
    /// Operations attempted and failed, checks included.
    pub tally: Tally,
    /// Every metric measured, by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Lines for the human-readable summary.
    pub notes: Vec<String>,
}

impl Report {
    fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }
}

fn path_str(p: &Path) -> &str {
    p.to_str().expect("work paths are UTF-8")
}

/// Set-ups past the fewest allowed stop once they have taken this long
/// together, so a set-up of a few milliseconds is timed many times.
const SETUP_BUDGET: Duration = Duration::from_secs(2);

/// Runs `set_up` `reps.0` to `reps.1` times (see [`SETUP_BUDGET`]), timing
/// each, and keeps the last result.
fn timed_setup<T>(
    (min, max): (usize, usize),
    mut set_up: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(max);
    let mut kept = None;
    let start = Instant::now();
    while times.len() < min || (times.len() < max && start.elapsed() < SETUP_BUDGET) {
        drop(kept.take());
        let t = Instant::now();
        kept = Some(set_up()?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((kept.expect("at least one set-up"), median_of(&times)))
}

fn queries(patterns: &[Graph]) -> Vec<QueryGraph> {
    patterns
        .iter()
        .map(|p| QueryGraph::from_graph(p).expect("extracted templates are valid queries"))
        .collect()
}

/// Picks `count` templates whose embedding count lies in `band` and that
/// `accept` admits, returning them with their counts. Counts are the same
/// for every correct implementation, so the choice does not shift when the
/// code under test changes.
fn banded(
    graph: &Graph,
    count: usize,
    sizes: std::ops::RangeInclusive<usize>,
    band: std::ops::RangeInclusive<u64>,
    rng: &mut Rng,
    seen: &mut BTreeSet<u64>,
    accept: impl Fn(&Graph) -> bool,
) -> Result<(Vec<Graph>, Vec<u64>), String> {
    let mut counts = Vec::new();
    let picked = gen::templates(graph, count, sizes, rng, seen, |pattern, q| {
        let c = oracle::count(graph, q, Some(band.end() + 1));
        band.contains(&c) && accept(pattern) && {
            counts.push(c);
            true
        }
    });
    if picked.len() < count {
        return Err(format!(
            "only {} of {count} templates fit the count band {band:?}",
            picked.len()
        ));
    }
    Ok((picked, counts))
}

/// MATCHes every template once, filling the cache; returns each answer's
/// verdict against `counts`.
fn warm_pass(admin: &mut Client, paths: &[PathBuf], counts: &[u64]) -> Vec<Option<Failure>> {
    paths
        .iter()
        .zip(counts)
        .map(|(p, &c)| {
            match load::parse_match(admin.request(&format!("MATCH g {}", path_str(p)))) {
                Ok(r) => load::judge(r.count, &[c]),
                Err(f) => Some(f),
            }
        })
        .collect()
}

/// The data graph of every workload: Kronecker scale 12 (4,096 vertices,
/// ~27k edges) with 16 uniform labels.
const GRAPH: GraphSpec = GraphSpec {
    scale: 12,
    edge_factor: 8,
    labels: 16,
};

/// Length of the time slices throughput and median latency are taken over.
const SLICE: Duration = Duration::from_secs(2);
/// Replies each tail run holds at least: ten beyond the p99 rank.
const TAIL_SLICE: usize = 1000;

/// MATCH metrics shared by every workload: latency, throughput, the
/// server-side split, and count checks against `allowed`.
fn summarize_matches(
    report: &mut Report,
    samples: &[Sample],
    wall: Duration,
    mut allowed: impl FnMut(&Sample) -> Vec<u64>,
) {
    let mut lat = Vec::new();
    let mut overhead = Vec::new();
    let mut by_cache: BTreeMap<&str, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
    for s in samples {
        let verdict = match &s.reply {
            Err(f) => Some(*f),
            Ok(r) => load::judge(r.count, &allowed(s)),
        };
        report.tally.record(verdict);
        let (Ok(r), None) = (&s.reply, verdict) else {
            continue;
        };
        lat.push((s.at, ms(s.rtt)));
        overhead.push(s.rtt.as_micros() as f64 - r.total_us as f64);
        let e = by_cache.entry(r.cache.as_str()).or_default();
        e.0.push(r.build_us as f64);
        e.1.push(r.enum_us as f64);
    }
    // The host's CPU speed swings by a third from one second to the next
    // as its neighbours come and go, and interference only ever slows a
    // slice down. So each figure is the faster quartile over time slices
    // of the window (the upper quartile of throughput, the lower quartile
    // of latency), which tracks the program rather than the neighbours.
    lat.sort_by_key(|l| l.0);
    let n = ((wall.as_secs_f64() / SLICE.as_secs_f64()).round() as usize).max(1);
    let mut slices: Vec<Vec<f64>> = vec![Vec::new(); n];
    for &(at, ms) in &lat {
        let i = (at.as_secs_f64() / wall.as_secs_f64() * n as f64) as usize;
        slices[i.min(n - 1)].push(ms);
    }
    let slice_len = wall.as_secs_f64() / n as f64;
    let qps: Vec<f64> = slices.iter().map(|s| s.len() as f64 / slice_len).collect();
    let p50: Vec<f64> = slices
        .into_iter()
        .map(|s| stats::median(&stats::sorted(s)))
        .collect();
    report.set("match_p50_ms", stats::lower_quartile(&p50));
    report.set("match_qps", stats::upper_quartile(&qps));
    // The tail is taken the same way over runs of consecutive replies, each
    // long enough to support a p99 of its own, or over the whole window
    // when fewer than two such runs fit.
    let n_tail = lat.len() / TAIL_SLICE;
    let (tail_p, tail) = if n_tail >= 2 {
        let p99: Vec<f64> = (0..n_tail)
            .map(|i| {
                let run = &lat[i * lat.len() / n_tail..(i + 1) * lat.len() / n_tail];
                stats::p99_or_tail(&stats::sorted(run.iter().map(|l| l.1).collect())).1
            })
            .collect();
        (99.0, stats::lower_quartile(&p99))
    } else {
        stats::p99_or_tail(&stats::sorted(lat.iter().map(|l| l.1).collect()))
    };
    report.set("match_p99_ms", tail);
    report.set("service.overhead_us_p50", median_of(&overhead));
    let pick = |tag: &str, build: bool| {
        by_cache
            .get(tag)
            .map_or(0.0, |(b, e)| median_of(if build { b } else { e }))
    };
    report.set("service.build_us_p50", pick("MISS", true));
    report.set("service.enum_us_p50", pick("HIT", false));
    report.set("service.repair_us_p50", pick("REPAIRED", true));
    let tags: Vec<String> = by_cache
        .iter()
        .map(|(t, v)| format!("{}={}", if t.is_empty() { "-" } else { t }, v.0.len()))
        .collect();
    report.notes.push(format!(
        "MATCH: {} ok of {} sent in {:.2} s; p50 and qps over {n} slices, tail at p{tail_p} over {} (needs >= 10 samples beyond); cache tags {}",
        lat.len(),
        samples.len(),
        wall.as_secs_f64(),
        n_tail.max(1),
        tags.join(" ")
    ));
}

/// `STATS` deltas over the window, as service-layer metrics.
fn summarize_stats(
    report: &mut Report,
    before: &BTreeMap<String, u64>,
    after: &BTreeMap<String, u64>,
) {
    let d = |k: &str| {
        after
            .get(k)
            .copied()
            .unwrap_or(0)
            .saturating_sub(before.get(k).copied().unwrap_or(0)) as f64
    };
    let (hits, misses) = (d("cache_hits"), d("cache_misses"));
    report.set("service.cache_hit_frac", frac(hits, hits + misses));
    report.set("service.cache_evictions", d("cache_evictions"));
    report.set(
        "service.cache_mb",
        after.get("cache_bytes").copied().unwrap_or(0) as f64 / (1 << 20) as f64,
    );
    report.set(
        "service.filter_rejected_frac",
        frac(d("filter_rejected"), d("match_requests")),
    );
    let (fh, fb) = (d("batch_frontier_hits"), d("batch_frontier_builds"));
    report.set("service.frontier_hit_frac", frac(fh, fh + fb));
    report.set("service.singleflight_waits", d("cache_singleflight_waits"));
    let (rep, fall) = (d("index_repairs"), d("index_repair_fallbacks"));
    report.set("service.repair_frac", frac(rep, rep + fall));
}

/// Peak RSS summed over `servers`, in MiB.
fn rss(report: &mut Report, servers: &[&Server]) -> Result<(), String> {
    let mut total = 0.0;
    for s in servers {
        total += s.peak_rss_mib()?;
    }
    report.set("server_rss_mb", total);
    Ok(())
}

/// Shuts servers down, noting any that needed SIGKILL.
fn shut_down(report: &mut Report, servers: Vec<Server>) {
    let forced = servers
        .into_iter()
        .map(Server::shutdown)
        .filter(|clean| !clean)
        .count();
    if forced > 0 {
        report
            .notes
            .push(format!("{forced} server process(es) needed SIGKILL"));
    }
}

/// The traced replay, when this is a traced run.
fn replay(ctx: &Ctx, report: &mut Report, r: &Replay) -> Result<(), String> {
    if !ctx.trace {
        return Ok(());
    }
    let (layers, overhead) = layers::traced(r, &ctx.trace_path)?;
    let ops = r
        .ops
        .iter()
        .filter(|o| !matches!(o, Op::Warm(_)))
        .count()
        .max(1) as f64;
    let batches = r.ops.iter().filter(|o| matches!(o, Op::Batch(_))).count() as f64;
    let get = |n: &str| layers.get(n).cloned().unwrap_or_default();
    let per_op_us = |n: &str| get(n).self_ns as f64 / 1e3 / ops;
    report.set("graph.load_ms", get("graph.load").self_ns as f64 / 1e6);
    report.set(
        "graph.label_pairs_ms",
        get("graph.label_pairs").self_ns as f64 / 1e6,
    );
    for (metric, span) in [
        ("graph.overlay_apply_us", "graph.overlay_apply"),
        ("query.hash_us", "query.hash"),
        ("query.admission_us", "query.admission"),
        ("query.plan_us", "query.plan"),
        ("core.plan_score_us", "core.plan_score"),
        ("core.filter_us", "core.filter"),
        ("core.refine_us", "core.refine"),
        ("core.enumerate_us", "core.enumerate"),
        ("core.delta_us", "core.delta"),
        ("stream.build_us", "stream.build"),
        ("stream.patch_us", "stream.patch"),
        ("stream.materialize_us", "stream.materialize"),
    ] {
        report.set(metric, per_op_us(span));
    }
    let build = get("core.build");
    let arg = |l: &layers::Layer, k: &str| l.args.get(k).copied().unwrap_or(0) as f64;
    report.set(
        "core.index_kb",
        frac(arg(&build, "size_bytes") / 1024.0, arg(&build, "builds")),
    );
    let en = get("core.enumerate");
    report.set(
        "core.isect_per_embedding",
        frac(arg(&en, "intersection_ops"), arg(&en, "embeddings")),
    );
    report.set(
        "core.useful_call_frac",
        frac(arg(&en, "embeddings"), arg(&en, "recursive_calls")),
    );
    report.set(
        "stream.keys_recomputed",
        frac(arg(&get("stream.patch"), "keys_recomputed"), batches),
    );
    report.set("trace.overhead_frac", overhead);
    let total: u64 = layers.values().map(|l| l.self_ns).sum();
    let mut shares: Vec<(u64, &str)> = layers.iter().map(|(n, l)| (l.self_ns, *n)).collect();
    shares.sort_unstable_by(|a, b| b.cmp(a));
    let top: Vec<String> = shares
        .iter()
        .take(6)
        .map(|(t, n)| format!("{n} {:.0}%", 100.0 * frac(*t as f64, total as f64)))
        .collect();
    report.notes.push(format!(
        "replay: {ops} measured ops; self-time shares: {}",
        top.join(", ")
    ));
    report
        .notes
        .push(format!("trace written to {}", ctx.trace_path.display()));
    Ok(())
}

/// Replayed MATCHes for a closed-loop workload: the first `n` requests
/// client 0 would send.
fn replay_ops(
    n: u64,
    limit: Option<u64>,
    next: impl Fn(usize, u64) -> Option<(usize, String)>,
) -> Vec<Op> {
    (0..n)
        .map_while(|k| next(0, k))
        .map(|(template, _)| Op::Match { template, limit })
        .collect()
}

// ---------------------------------------------------------------- serve-hot

const HOT_TEMPLATES: usize = 64;
/// Zipf exponent of the repeats.
const HOT_SKEW: f64 = 0.6;
/// Cap on a hot template's benchmark-owned search-space estimate, which
/// cuts the heavy tail of per-request work.
const HOT_SPACE_CAP: u64 = 80_000;
/// Embeddings of every hot template.
const HOT_BAND: std::ops::RangeInclusive<u64> = 200_000..=600_000;
/// One past the data graph's labels: templates using it have no embedding,
/// and the admission filter proves so.
const ABSENT_LABEL: u32 = GRAPH.labels;
/// Share of requests sent to the provably-empty templates.
const HOT_EMPTY_SHARE: f64 = 0.1;
const HOT_REPLAY_OPS: u64 = 200;
/// Seed of the hot template set. Like the data graph, the set is fixed: a
/// few templates cost ten times the rest, so which of them a seed drew, and
/// at which Zipf rank, changed the work per request from seed to seed. The
/// run's seed draws the requests.
const HOT_TEMPLATE_SEED: u64 = 0x407;

/// Skewed repeats of a fixed template set behind a warm cache.
pub fn serve_hot(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let graph = gen::data_graph(&GRAPH);
    let data = ctx.file("data.graph");
    gen::write_graph(&graph, &data)?;
    let mut rng = Rng::new(HOT_TEMPLATE_SEED, 3);
    let cheap = |q: &Graph| oracle::search_space(&graph, q, HOT_SPACE_CAP + 1) <= HOT_SPACE_CAP;
    let (patterns, counts) = banded(
        &graph,
        HOT_TEMPLATES,
        4..=6,
        HOT_BAND,
        &mut rng,
        &mut BTreeSet::new(),
        cheap,
    )?;
    // Zipf ranks follow the embedding count, cheapest first, so which
    // template draws the most requests does not change the mix from seed
    // to seed.
    let mut by_count: Vec<(u64, Graph)> = counts.into_iter().zip(patterns).collect();
    by_count.sort_by_key(|(c, _)| *c);
    let (mut counts, mut patterns): (Vec<u64>, Vec<Graph>) = by_count.into_iter().unzip();
    for i in 0..2 {
        patterns.push(gen::relabeled(&patterns[i], ABSENT_LABEL));
        counts.push(0);
    }
    let paths = gen::write_templates(&ctx.work, "q", &patterns)?;
    // Zipf over the templates, with a fixed share for the empty ones.
    let weights: Vec<f64> = (0..HOT_TEMPLATES)
        .map(|i| ((i + 1) as f64).powf(-HOT_SKEW))
        .collect();
    let zipf_total: f64 = weights.iter().sum();
    let next = |c: usize, k: u64| -> Option<(usize, String)> {
        let mut r = Rng::new(ctx.seed ^ k.wrapping_mul(0x9E37_79B9), 100 + c as u64);
        let t = if r.unit() < HOT_EMPTY_SHARE {
            HOT_TEMPLATES + r.below(2) as usize
        } else {
            let mut x = r.unit() * zipf_total;
            weights
                .iter()
                .position(|w| {
                    x -= w;
                    x < 0.0
                })
                .unwrap_or(HOT_TEMPLATES - 1)
        };
        Some((t, format!("MATCH g {}", path_str(&paths[t]))))
    };
    let ((server, mut admin, warm), setup_s) = timed_setup(ctx.setup_reps(), || {
        let server = ctx.serve(&[])?;
        let mut admin = load::connect(server.addr)?;
        load::expect_ok(&mut admin, &format!("LOAD g {}", path_str(&data)))?;
        let warm = warm_pass(&mut admin, &paths, &counts);
        Ok((server, admin, warm))
    })?;
    report.set("setup_s", setup_s);
    warm.into_iter().for_each(|v| report.tally.record(v));
    let before = load::stats(&mut admin)?;
    let (samples, wall) =
        load::closed_loop(server.addr, 2, ctx.window, &Versions::default(), &next)?;
    // A fresh connection: the server closes one left idle past its I/O
    // timeout, which a long window outlasts.
    let after = load::stats(&mut load::connect(server.addr)?)?;
    summarize_stats(&mut report, &before, &after);
    summarize_matches(&mut report, &samples, wall, |s| vec![counts[s.template]]);
    rss(&mut report, &[&server])?;
    shut_down(&mut report, vec![server]);
    if ctx.trace {
        coord_probe(ctx, &mut report, &graph, &data, &patterns, &paths, &counts)?;
    }
    let mut ops: Vec<Op> = (0..paths.len()).map(Op::Warm).collect();
    ops.extend(replay_ops(HOT_REPLAY_OPS, None, next));
    replay(
        ctx,
        &mut report,
        &Replay {
            graph_path: &data,
            templates: &paths,
            ops: &ops,
            batches: &[],
            registered: &[],
        },
    )?;
    if ctx.trace {
        // After the hot replay, whose stream-layer figures are all 0.
        stream_probe(ctx, &mut report)?;
    }
    Ok(report)
}

// --------------------------------------------------------------- serve-cold

const COLD_LIMIT: u64 = 1024;
/// Templates generated per second of window; more than the server answers.
const COLD_POOL_PER_S: f64 = 1000.0;
const COLD_REPLAY_OPS: u64 = 60;

/// Distinct, never-repeated templates: every request misses the cache.
pub fn serve_cold(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let graph = gen::data_graph(&GRAPH);
    let data = ctx.file("data.graph");
    gen::write_graph(&graph, &data)?;
    let pool = (ctx.window.as_secs_f64() * COLD_POOL_PER_S).ceil() as usize;
    let patterns = gen::templates(
        &graph,
        pool,
        6..=8,
        &mut Rng::new(ctx.seed, 3),
        &mut BTreeSet::new(),
        |_, _| true,
    );
    if patterns.len() < pool {
        return Err(format!(
            "only {} of {pool} distinct cold templates",
            patterns.len()
        ));
    }
    let paths = gen::write_templates(&ctx.work, "q", &patterns)?;
    let cursor = AtomicUsize::new(0);
    let next = |_: usize, _: u64| -> Option<(usize, String)> {
        let t = cursor.fetch_add(1, Ordering::SeqCst);
        (t < paths.len()).then(|| {
            (
                t,
                format!("MATCH g {} LIMIT {COLD_LIMIT}", path_str(&paths[t])),
            )
        })
    };
    let ((server, mut admin), setup_s) = timed_setup(ctx.setup_reps(), || {
        let server = ctx.serve(&[])?;
        let mut admin = load::connect(server.addr)?;
        load::expect_ok(&mut admin, &format!("LOAD g {}", path_str(&data)))?;
        Ok((server, admin))
    })?;
    report.set("setup_s", setup_s);
    let before = load::stats(&mut admin)?;
    let (samples, wall) =
        load::closed_loop(server.addr, 2, ctx.window, &Versions::default(), &next)?;
    // A fresh connection: the server closes one left idle past its I/O
    // timeout, which a long window outlasts.
    let after = load::stats(&mut load::connect(server.addr)?)?;
    summarize_stats(&mut report, &before, &after);
    rss(&mut report, &[&server])?;
    shut_down(&mut report, vec![server]);
    if cursor.load(Ordering::SeqCst) >= paths.len() {
        return Err(format!(
            "the cold pool of {pool} templates ran out; raise COLD_POOL_PER_S"
        ));
    }
    let qs = queries(&patterns);
    let used: Vec<&QueryGraph> = samples.iter().map(|s| &qs[s.template]).collect();
    let expected: BTreeMap<usize, u64> = samples
        .iter()
        .map(|s| s.template)
        .zip(oracle::count_all(&graph, &used, Some(COLD_LIMIT)))
        .collect();
    summarize_matches(&mut report, &samples, wall, |s| vec![expected[&s.template]]);
    let ops: Vec<Op> = (0..COLD_REPLAY_OPS as usize)
        .map(|t| Op::Match {
            template: t,
            limit: Some(COLD_LIMIT),
        })
        .collect();
    replay(
        ctx,
        &mut report,
        &Replay {
            graph_path: &data,
            templates: &paths,
            ops: &ops,
            batches: &[],
            registered: &[],
        },
    )?;
    Ok(report)
}

// ------------------------------------------------------------- stream-mixed

const STREAM_REGISTERED: usize = 3;
const STREAM_READERS: usize = 16;
const STREAM_BAND: std::ops::RangeInclusive<u64> = 1_000..=3_000;
const STREAM_RATE_HZ: f64 = 20.0;
const STREAM_ADDS: usize = 100;
const STREAM_DELS: usize = 100;
const STREAM_REPLAY_BATCHES: usize = 20;

/// Fixed-rate mutation batches beside a reader of cached templates, with
/// continuous queries registered on the writer. Run as a probe inside
/// serve-hot's traced run, see [`stream_probe`].
fn stream_mixed(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let graph = gen::data_graph(&GRAPH);
    let data = ctx.file("data.graph");
    gen::write_graph(&graph, &data)?;
    let mut rng = Rng::new(ctx.seed, 3);
    let mut seen = BTreeSet::new();
    let any = |_: &Graph| true;
    let (mut patterns, reader_counts) = banded(
        &graph,
        STREAM_READERS,
        4..=4,
        STREAM_BAND,
        &mut rng,
        &mut seen,
        any,
    )?;
    patterns.extend(
        banded(
            &graph,
            STREAM_REGISTERED,
            4..=4,
            STREAM_BAND,
            &mut rng,
            &mut seen,
            any,
        )?
        .0,
    );
    let paths = gen::write_templates(&ctx.work, "q", &patterns)?;
    let registered: Vec<usize> = (STREAM_READERS..STREAM_READERS + STREAM_REGISTERED).collect();
    let n_batches = (ctx.window.as_secs_f64() * STREAM_RATE_HZ).ceil() as usize + 1;
    let batches = gen::mutation_schedule(&graph, n_batches, STREAM_ADDS, STREAM_DELS, &mut rng);
    std::fs::write(
        ctx.file("batches.txt"),
        batches
            .iter()
            .map(|b| b.line("g") + "\n")
            .collect::<String>(),
    )
    .map_err(|e| format!("batches.txt: {e}"))?;
    let ((server, mut admin, mut writer, initial, warm), setup_s) =
        timed_setup(ctx.setup_reps(), || {
            let server = ctx.serve(&[])?;
            let mut admin = load::connect(server.addr)?;
            load::expect_ok(&mut admin, &format!("LOAD g {}", path_str(&data)))?;
            let mut writer = load::connect(server.addr)?;
            let mut initial = Vec::new();
            for (i, &t) in registered.iter().enumerate() {
                let r = load::expect_ok(
                    &mut writer,
                    &format!("REGISTER c{i} g {}", path_str(&paths[t])),
                )?;
                let field = |k: &str| r.field_u64(k).ok_or(format!("REGISTERED without {k}"));
                initial.push((field("total")?, field("sub_epoch")?));
            }
            let warm = warm_pass(&mut admin, &paths[..STREAM_READERS], &reader_counts);
            Ok((server, admin, writer, initial, warm))
        })?;
    report.set("setup_s", setup_s);
    warm.into_iter().for_each(|v| report.tally.record(v));
    let before = load::stats(&mut admin)?;
    let sched = load::OpenLoop {
        t0: Instant::now(),
        period: Duration::from_secs_f64(1.0 / STREAM_RATE_HZ),
    };
    let versions = Versions::default();
    let writer_done = AtomicBool::new(false);
    // Round `r` reads every reader template once and starts only after
    // batch `r + 1` is acknowledged, so each read follows a batch and is
    // served by a repair.
    let next = |_: usize, k: u64| -> Option<(usize, String)> {
        let round = k / STREAM_READERS as u64;
        while versions.acked.load(Ordering::SeqCst) <= round {
            if writer_done.load(Ordering::SeqCst) {
                return None;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        let t = (k % STREAM_READERS as u64) as usize;
        Some((t, format!("MATCH g {}", path_str(&paths[t]))))
    };
    let deadline = sched.t0 + ctx.window;
    let (read, written) = std::thread::scope(|s| {
        let reader = s.spawn(|| load::closed_loop(server.addr, 1, ctx.window, &versions, &next));
        let mut timings = Vec::new();
        let mut failures = Vec::new();
        let mut last_epoch = 0;
        for (k, batch) in batches.iter().enumerate() {
            if sched.due(k as u64) >= deadline {
                break;
            }
            let (resp, t) = sched.run(k as u64, || {
                versions.sent.fetch_add(1, Ordering::SeqCst);
                writer.request(&batch.line("g"))
            });
            match resp {
                Ok(r) if r.is_ok() => {
                    versions.acked.fetch_add(1, Ordering::SeqCst);
                    last_epoch = r.field_u64("sub_epoch").unwrap_or(last_epoch);
                }
                Ok(r) if r.is_busy() => failures.push(Failure::Busy),
                Ok(_) => failures.push(Failure::Err),
                Err(_) => failures.push(Failure::Transport),
            }
            timings.push(t);
        }
        writer_done.store(true, Ordering::SeqCst);
        (
            reader.join().expect("reader thread panicked"),
            (timings, failures, last_epoch),
        )
    });
    let (samples, wall) = read?;
    let (timings, write_failures, last_epoch) = written;
    summarize_stats(&mut report, &before, &load::stats(&mut admin)?);
    let sent = versions.sent.load(Ordering::SeqCst);
    for f in &write_failures {
        report.tally.fail(*f);
    }
    report.tally.attempted += timings.len() as u64;
    let lat = stats::sorted(timings.iter().map(|t| ms(t.latency)).collect());
    let (tail_p, tail) = stats::p99_or_tail(&lat);
    report.set("loadgen.batch_p50_ms", stats::median(&lat));
    report.set("loadgen.batch_p99_ms", tail);
    report.set(
        "loadgen.late_ms_max",
        timings.iter().map(|t| ms(t.late)).fold(0.0, f64::max),
    );
    report.notes.push(format!(
        "BATCH: {} sent at {STREAM_RATE_HZ}/s ({STREAM_ADDS} adds + {STREAM_DELS} deletes), latency from due time p50 {:.3} ms, p{tail_p} {:.3} ms",
        timings.len(),
        stats::median(&lat),
        tail
    ));

    // Oracle: every graph version rebuilt from the edge list, counted for
    // the templates a reply could have come from; final totals and a final
    // MATCH of every template on the last version.
    let qs = queries(&patterns);
    let mut needed: BTreeMap<u64, BTreeSet<usize>> = BTreeMap::new();
    for s in &samples {
        for v in s.versions.0..=s.versions.1.min(sent) {
            needed.entry(v).or_default().insert(s.template);
        }
    }
    needed.entry(sent).or_default().extend(0..patterns.len());
    let mut edges: BTreeSet<(u32, u32)> = gen::edges(&graph)
        .into_iter()
        .map(|(a, b)| (a.0, b.0))
        .collect();
    let mut expected: BTreeMap<(u64, usize), u64> = BTreeMap::new();
    for v in 0..=sent {
        if v > 0 {
            gen::apply(&mut edges, &batches[v as usize - 1]);
        }
        if let Some(ts) = needed.get(&v) {
            let g = gen::with_edges(&graph, &edges);
            let wanted: Vec<&QueryGraph> = ts.iter().map(|&t| &qs[t]).collect();
            for (&t, c) in ts.iter().zip(oracle::count_all(&g, &wanted, None)) {
                expected.insert((v, t), c);
            }
        }
    }
    summarize_matches(&mut report, &samples, wall, |s| {
        (s.versions.0..=s.versions.1.min(sent))
            .filter_map(|v| expected.get(&(v, s.template)).copied())
            .collect()
    });
    check_chains(&mut report, &mut writer, &initial, last_epoch, |i| {
        expected[&(sent, registered[i])]
    })?;
    for (t, p) in paths.iter().enumerate() {
        let reply = load::parse_match(admin.request(&format!("MATCH g {}", path_str(p))));
        report.tally.record(match reply {
            Ok(r) => load::judge(r.count, &[expected[&(sent, t)]]),
            Err(f) => Some(f),
        });
    }
    rss(&mut report, &[&server])?;
    shut_down(&mut report, vec![server]);
    let mut ops = Vec::new();
    for b in 0..STREAM_REPLAY_BATCHES.min(batches.len()) {
        ops.push(Op::Batch(b));
        ops.extend((0..STREAM_READERS).map(|t| Op::Match {
            template: t,
            limit: None,
        }));
    }
    ops.splice(0..0, (0..STREAM_READERS).map(Op::Warm));
    let r = Replay {
        graph_path: &data,
        templates: &paths,
        ops: &ops,
        batches: &batches,
        registered: &registered,
    };
    replay(ctx, &mut report, &r)?;
    Ok(report)
}

/// Waits for every continuous query's `EVENT DELTA` up to sub-epoch
/// `last` and checks each chain: one event per batch in order after the
/// registration's sub-epoch, `total = prev + new - retired`, and the final
/// total equal to the oracle's.
fn check_chains(
    report: &mut Report,
    writer: &mut Client,
    initial: &[(u64, u64)],
    last: u64,
    oracle_total: impl Fn(usize) -> u64,
) -> Result<(), String> {
    let mut events: Vec<String> = writer.take_events();
    let reached = |events: &[String], q: usize| {
        let name = format!("c{q}");
        events.iter().any(|e| {
            field(e, "query") == Some(name.as_str())
                && field(e, "batch") == Some(last.to_string().as_str())
        })
    };
    let deadline = Instant::now() + Duration::from_secs(20);
    while (0..initial.len()).any(|q| initial[q].1 < last && !reached(&events, q)) {
        if Instant::now() > deadline {
            return Err("continuous-query events stopped arriving".into());
        }
        events.push(
            writer
                .wait_event()
                .map_err(|e| format!("waiting for EVENT DELTA: {e}"))?,
        );
    }
    for (q, &(start, epoch)) in initial.iter().enumerate() {
        let name = format!("c{q}");
        let (mut total, mut batch) = (start, epoch);
        let mut ok = true;
        for e in events
            .iter()
            .filter(|e| field(e, "query") == Some(name.as_str()))
        {
            let num = |k: &str| field(e, k).and_then(|v| v.parse::<u64>().ok());
            let (Some(b), Some(new), Some(retired), Some(t)) =
                (num("batch"), num("new"), num("retired"), num("total"))
            else {
                ok = false;
                break;
            };
            ok &= b == batch + 1 && total + new >= retired && t == total + new - retired;
            batch = b;
            total = t;
        }
        ok &= batch == last.max(epoch);
        report.tally.record((!ok).then_some(Failure::BrokenChain));
        report.tally.record(load::judge(total, &[oracle_total(q)]));
    }
    Ok(())
}

fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    line.split_whitespace()
        .filter_map(|t| t.split_once('='))
        .find(|(k, _)| *k == key)
        .map(|(_, v)| v)
}

/// Window of the stream probe.
const STREAM_PROBE_WINDOW: Duration = Duration::from_secs(10);

/// Stream-layer metrics the probe reports.
const STREAM_METRICS: [&str; 10] = [
    "graph.overlay_apply_us",
    "core.delta_us",
    "stream.patch_us",
    "stream.keys_recomputed",
    "stream.materialize_us",
    "service.repair_us_p50",
    "service.repair_frac",
    "loadgen.late_ms_max",
    "loadgen.batch_p50_ms",
    "loadgen.batch_p99_ms",
];

/// The stream layers, measured in serve-hot's traced run: the mutation
/// workload runs for [`STREAM_PROBE_WINDOW`] with its own server, checks
/// and traced replay, and its stream-layer metrics join the report. As a
/// bounded workload of its own its MATCH p99 was not steady on a 2-core
/// host: with about 5,000 reads a run, a few dozen scheduling stalls moved
/// it by half between runs.
fn stream_probe(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let probe = Ctx {
        bin_dir: ctx.bin_dir.clone(),
        work: ctx.work.join("stream"),
        trace_path: ctx
            .trace_path
            .with_file_name(format!("trace-stream-probe-{}.json", ctx.seed)),
        seed: ctx.seed,
        window: STREAM_PROBE_WINDOW,
        trace: true,
    };
    std::fs::create_dir_all(&probe.work).map_err(|e| format!("{}: {e}", probe.work.display()))?;
    let stream = stream_mixed(&probe)?;
    report.tally.attempted += stream.tally.attempted;
    report.tally.failures.extend(stream.tally.failures);
    for name in STREAM_METRICS {
        report.set(name, stream.metrics.get(name).copied().unwrap_or(0.0));
    }
    report.notes.extend(
        stream
            .notes
            .into_iter()
            .map(|n| format!("stream probe: {n}")),
    );
    Ok(())
}

// -------------------------------------------------------- coordinator probe

/// Hot templates sent through the coordinator in a traced run.
const PROBE_TEMPLATES: usize = 8;
/// Pivots timed per template when `EXEC` is sent straight to one shard.
const PROBE_EXEC_PIVOTS: usize = 16;

/// The coordinator and shard layers, measured in serve-hot's traced run:
/// two `ceci-shard` processes behind a `ceci-serve` coordinator answer one
/// count-only MATCH of each of the first hot templates (checked against the
/// single-process oracle), then one shard answers `EXEC`s sent to it
/// directly. A served workload of its own was not steady enough to bound on
/// a 2-core host: the coordinator polls its result board every 2 ms, so
/// tail latency jumps between whole polls from run to run.
fn coord_probe(
    ctx: &Ctx,
    report: &mut Report,
    graph: &Graph,
    data: &Path,
    patterns: &[Graph],
    paths: &[PathBuf],
    counts: &[u64],
) -> Result<(), String> {
    let shard_bin = ctx.bin_dir.join("ceci-shard");
    let shard_args = vec![
        "--graph".to_string(),
        path_str(data).to_string(),
        "--labeled".to_string(),
    ];
    let shards = vec![
        Server::spawn(&shard_bin, &shard_args)?,
        Server::spawn(&shard_bin, &shard_args)?,
    ];
    let mut extra = Vec::new();
    for s in &shards {
        extra.extend(["--shard".to_string(), s.addr.to_string()]);
    }
    let coord = ctx.serve(&extra)?;
    let mut admin = load::connect(coord.addr)?;
    load::expect_ok(&mut admin, &format!("LOAD g {}", path_str(data)))?;
    let (mut commits, mut stale) = (0u64, 0u64);
    for (path, &count) in paths.iter().zip(counts).take(PROBE_TEMPLATES) {
        match load::parse_match(admin.request(&format!("MATCH g {}", path_str(path)))) {
            Ok(r) => {
                report.tally.record(load::judge(r.count, &[count]));
                commits += r.shard_commits;
                stale += r.stale_rejected;
            }
            Err(f) => report.tally.record(Some(f)),
        }
    }
    report.set(
        "coord.exec_per_match",
        commits as f64 / PROBE_TEMPLATES as f64,
    );
    report.set(
        "coord.stale_rejected_frac",
        frac(stale as f64, commits as f64),
    );
    let exec = exec_straight(
        shards[0].addr,
        graph,
        &paths[..PROBE_TEMPLATES],
        &queries(&patterns[..PROBE_TEMPLATES]),
    )?;
    report.set("shard.exec_us_p50", exec);
    let mut all = shards;
    all.push(coord);
    shut_down(report, all);
    Ok(())
}

/// `PREPARE`s every template on one shard and times `EXEC` of its first
/// pivots; returns the median round trip in µs.
fn exec_straight(
    addr: SocketAddr,
    graph: &Graph,
    paths: &[PathBuf],
    qs: &[QueryGraph],
) -> Result<f64, String> {
    let mut shard = load::connect(addr)?;
    let mut rtts = Vec::new();
    for (i, (path, q)) in paths.iter().zip(qs).enumerate() {
        let plan = QueryPlan::new(q.clone(), graph);
        let name = format!("direct{i}");
        load::expect_ok(
            &mut shard,
            &prepare_line(&name, path_str(path), &plan, plan_radius(&plan)),
        )?;
        let ceci = Ceci::build(graph, &plan);
        for &(pivot, _) in ceci.pivots().iter().take(PROBE_EXEC_PIVOTS) {
            let t = Instant::now();
            load::expect_ok(&mut shard, &format!("EXEC {name} {} 1", pivot.0))?;
            rtts.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    Ok(median_of(&rtts))
}

/// Runs one workload.
pub type Workload = fn(&Ctx) -> Result<Report, String>;

/// Every workload, by the name the benchmark takes.
pub const ALL: [(&str, Workload); 2] = [("serve-hot", serve_hot), ("serve-cold", serve_cold)];

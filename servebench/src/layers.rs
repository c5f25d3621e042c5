//! The traced replay: the calls a served request makes into each layer's
//! public functions, timed from the benchmark's own code and recorded as
//! `ceci_trace` spans. Spans are kept in memory, written out as a Chrome
//! trace at the end, and reduced to per-layer self times.

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::time::Instant;

use ceci_core::{
    batch_delta, enumerate_parallel, plan_with_options, AdaptiveOptions, BuildOptions, Ceci,
    ParallelOptions,
};
use ceci_graph::{io, DeltaOverlay, Graph, VertexId};
use ceci_query::{
    admission_check, CanonicalQuery, OrderStrategy, PlanOptions, QueryGraph, QueryPlan,
};
use ceci_stream::StreamIndex;
use ceci_trace::{SpanRecord, Tracer};

use crate::gen::Batch;

/// Records spans into a tracer, or only runs the calls when untraced.
pub struct Rec<'t> {
    tracer: Option<&'t Tracer>,
}

impl Rec<'_> {
    /// Runs `f` as span `name` under `parent`. `f` receives the span's id,
    /// for children, and returns its result plus the counts to attach.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: u64,
        f: impl FnOnce(u64) -> (T, Vec<(&'static str, u64)>),
    ) -> T {
        let Some(tracer) = self.tracer else {
            return f(0).0;
        };
        let id = tracer.next_span_id();
        let ts_ns = tracer.now_ns();
        let (out, args) = f(id);
        let dur_ns = (tracer.now_ns() - ts_ns).max(1);
        let cat = name.split('.').next().unwrap_or(name);
        tracer.record(SpanRecord {
            id,
            parent,
            name,
            index: None,
            cat,
            ts_ns,
            dur_ns,
            tid: 0,
            args,
        });
        out
    }

    /// [`Rec::span`] without counts.
    pub fn time<T>(&self, name: &'static str, parent: u64, f: impl FnOnce() -> T) -> T {
        self.span(name, parent, |_| (f(), Vec::new()))
    }

    /// Records a span already measured elsewhere (a stage split reported by
    /// the library itself).
    pub fn inside(&self, name: &'static str, parent: u64, ts_ns: u64, dur_ns: u64) {
        if let Some(tracer) = self.tracer {
            let cat = name.split('.').next().unwrap_or(name);
            tracer.span(name, cat, parent, 0, ts_ns, dur_ns.max(1), Vec::new());
        }
    }

    fn now_ns(&self) -> u64 {
        self.tracer.map_or(0, Tracer::now_ns)
    }
}

/// One replayed workload operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// A MATCH of template `t`, stopping at `limit` embeddings.
    Match { template: usize, limit: Option<u64> },
    /// A MATCH that fills the cache before the measured operations, like
    /// a workload's warm pass; its spans are left out of the layer totals.
    Warm(usize),
    /// Mutation batch `b` of the schedule.
    Batch(usize),
}

/// What a replay runs over.
pub struct Replay<'a> {
    /// The data graph file the server loads.
    pub graph_path: &'a Path,
    /// Every template file, indexed by template id.
    pub templates: &'a [PathBuf],
    /// The operations, in order.
    pub ops: &'a [Op],
    /// The mutation schedule `Op::Batch` indexes into.
    pub batches: &'a [Batch],
    /// Templates registered as continuous queries: each batch computes
    /// their delta.
    pub registered: &'a [usize],
}

/// The cached state of one template, as the server's index cache keeps it.
struct Cached {
    plan: QueryPlan,
    ceci: Ceci,
    stream: StreamIndex,
    version: usize,
}

fn load_query(path: &Path) -> QueryGraph {
    let pattern = io::load_labeled(path).expect("generated template loads");
    QueryGraph::from_graph(&pattern).expect("generated template is a valid query")
}

/// Runs the replay once. Returns the wall time of the operations (graph
/// load included) in seconds.
pub fn run(r: &Replay, rec: &Rec) -> f64 {
    let t0 = Instant::now();
    let root =
        |name: &'static str, f: &mut dyn FnMut(u64)| rec.span(name, 0, |id| (f(id), Vec::new()));
    let mut graph = rec.time("graph.load", 0, || {
        io::load_labeled(r.graph_path).expect("generated graph loads")
    });
    rec.time("graph.label_pairs", 0, || graph.build_label_pair_index());
    let registered: Vec<QueryPlan> = r
        .registered
        .iter()
        .map(|&t| QueryPlan::new(load_query(&r.templates[t]), &graph))
        .collect();
    let mut cache: HashMap<usize, Cached> = HashMap::new();
    // Touched endpoints of every applied batch, for patching stale entries.
    let mut dirty: Vec<Vec<VertexId>> = Vec::new();
    for op in r.ops {
        match *op {
            Op::Batch(b) => root("op.batch", &mut |id| {
                let batch = &r.batches[b];
                let pairs = |l: &[(u32, u32)]| -> Vec<(VertexId, VertexId)> {
                    l.iter().map(|&(a, b)| (VertexId(a), VertexId(b))).collect()
                };
                let (added, deleted) = (pairs(&batch.adds), pairs(&batch.dels));
                let next = rec.time("graph.overlay_apply", id, || {
                    let mut overlay = DeltaOverlay::new();
                    for &(a, b) in &added {
                        overlay.add_edge(&graph, a, b);
                    }
                    for &(a, b) in &deleted {
                        overlay.delete_edge(&graph, a, b);
                    }
                    overlay.commit(&graph)
                });
                for plan in &registered {
                    rec.span("core.delta", id, |_| {
                        let d = batch_delta(&graph, &next, plan, &added, &deleted);
                        (
                            (),
                            vec![("new", d.new_matches), ("retired", d.retired_matches)],
                        )
                    });
                }
                dirty.push(
                    added
                        .iter()
                        .chain(&deleted)
                        .flat_map(|&(a, b)| [a, b])
                        .collect(),
                );
                graph = next;
            }),
            Op::Match { template, limit } => root("op.match", &mut |id| {
                serve(rec, r, &graph, &mut cache, &dirty, id, template, limit)
            }),
            Op::Warm(template) => root("op.warm", &mut |id| {
                serve(rec, r, &graph, &mut cache, &dirty, id, template, None)
            }),
        }
    }
    t0.elapsed().as_secs_f64()
}

/// One MATCH as the server runs it: parse, hash, admission check, then the
/// cached index — repaired when mutations made it stale, built on a miss —
/// and a count.
#[allow(clippy::too_many_arguments)]
fn serve(
    rec: &Rec,
    r: &Replay,
    graph: &Graph,
    cache: &mut HashMap<usize, Cached>,
    dirty: &[Vec<VertexId>],
    id: u64,
    template: usize,
    limit: Option<u64>,
) {
    let query = rec.time("query.parse", id, || load_query(&r.templates[template]));
    rec.time("query.hash", id, || {
        std::hint::black_box(CanonicalQuery::of(&query))
    });
    if rec
        .time("query.admission", id, || admission_check(&query, graph))
        .rejected()
    {
        return;
    }
    let version = dirty.len();
    let entry = match cache.remove(&template) {
        Some(mut c) if c.version < version => {
            let endpoints: Vec<VertexId> = dirty[c.version..].concat();
            rec.span("stream.patch", id, |_| {
                let s = c.stream.patch(graph, &c.plan, &endpoints);
                ((), vec![("keys_recomputed", s.keys_recomputed as u64)])
            });
            c.ceci = rec.time("stream.materialize", id, || {
                c.stream.materialize(graph, &c.plan)
            });
            c.version = version;
            c
        }
        Some(c) => c,
        None => build(rec, id, query, graph, version),
    };
    rec.span("core.enumerate", id, |_| {
        let options = ParallelOptions {
            limit,
            prune_redundant: true,
            ..Default::default()
        };
        let c = enumerate_parallel(graph, &entry.plan, &entry.ceci, &options).counters;
        let args = vec![
            ("embeddings", c.embeddings),
            ("intersection_ops", c.intersection_ops),
            ("recursive_calls", c.recursive_calls),
        ];
        ((), args)
    });
    cache.insert(template, entry);
}

/// A cache-miss build on the server's default path: the fixed plan, the
/// adaptive portfolio scoring, the CECI build (split into Algorithm 1
/// filter and Algorithm 2 refine by its own stats), and the maintainable
/// stream index kept for later repair.
fn build(rec: &Rec, parent: u64, query: QueryGraph, graph: &Graph, version: usize) -> Cached {
    rec.time("query.plan", parent, || {
        std::hint::black_box(QueryPlan::new(query.clone(), graph))
    });
    let plan = rec.time("core.plan_score", parent, || {
        let options = PlanOptions {
            order: OrderStrategy::Adaptive,
            ..Default::default()
        };
        plan_with_options(query, graph, &options, &AdaptiveOptions::default()).0
    });
    let ceci = rec.span("core.build", parent, |id| {
        let start = rec.now_ns();
        let ceci = Ceci::build_with(graph, &plan, BuildOptions::default());
        let s = ceci.stats();
        let filter = s.filter_time.as_nanos() as u64;
        rec.inside("core.filter", id, start, filter);
        rec.inside(
            "core.refine",
            id,
            start + filter,
            s.refine_time.as_nanos() as u64,
        );
        let size = ceci.size_bytes() as u64;
        (ceci, vec![("size_bytes", size), ("builds", 1)])
    });
    let stream = rec.time("stream.build", parent, || StreamIndex::build(graph, &plan));
    Cached {
        plan,
        ceci,
        stream,
        version,
    }
}

/// Per-span-name totals of one traced replay.
#[derive(Clone, Debug, Default)]
pub struct Layer {
    /// Summed self time (span minus the part its children cover), ns.
    pub self_ns: u64,
    /// Summed span args, by key.
    pub args: BTreeMap<&'static str, u64>,
}

/// Self time of every span: its duration minus the union of its children's
/// intervals, clipped to it.
pub fn self_times(spans: &[SpanRecord]) -> Vec<u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.ts_ns, s.ts_ns + s.dur_ns));
    }
    spans
        .iter()
        .map(|s| {
            let (lo, hi) = (s.ts_ns, s.ts_ns + s.dur_ns);
            let mut iv: Vec<(u64, u64)> = children.get(&s.id).cloned().unwrap_or_default();
            iv.sort_unstable();
            let (mut covered, mut reach) = (0, lo);
            for (a, b) in iv {
                let (a, b) = (a.max(reach), b.min(hi));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns - covered
        })
        .collect()
}

/// Totals by span name. Spans under a warm-up operation add their counts
/// but no time, so layer times cover the measured operations.
pub fn by_layer(spans: &[SpanRecord]) -> BTreeMap<&'static str, Layer> {
    let name: HashMap<u64, (&str, u64)> =
        spans.iter().map(|s| (s.id, (s.name, s.parent))).collect();
    let warm = |mut id: u64| {
        while let Some(&(n, parent)) = name.get(&id) {
            if n == "op.warm" {
                return true;
            }
            id = parent;
        }
        false
    };
    let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let l = out.entry(s.name).or_default();
        if !warm(s.id) {
            l.self_ns += own;
        }
        for &(k, v) in &s.args {
            *l.args.entry(k).or_default() += v;
        }
    }
    out
}

/// Passes per mode when measuring the tracing overhead.
const OVERHEAD_PASSES: usize = 5;

/// Runs the replay once to warm up, then untraced and traced
/// [`OVERHEAD_PASSES`] times each, alternating; writes the last traced
/// pass as a Chrome trace to `trace_path`. Returns its per-layer totals and
/// the tracing overhead (best traced pass over best untraced pass, minus
/// one).
pub fn traced(
    r: &Replay,
    trace_path: &Path,
) -> Result<(BTreeMap<&'static str, Layer>, f64), String> {
    run(r, &Rec { tracer: None });
    let mut plain = f64::INFINITY;
    let mut with = f64::INFINITY;
    let mut spans = Vec::new();
    for _ in 0..OVERHEAD_PASSES {
        plain = plain.min(run(r, &Rec { tracer: None }));
        let tracer = Tracer::new();
        with = with.min(run(
            r,
            &Rec {
                tracer: Some(&tracer),
            },
        ));
        spans = tracer.take();
    }
    ceci_trace::chrome::write_file(&spans, trace_path)
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;
    Ok((by_layer(&spans), with / plain - 1.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, ts: u64, dur: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name: "x",
            index: None,
            cat: "x",
            ts_ns: ts,
            dur_ns: dur,
            tid: 0,
            args: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Parent [0,100); children [10,30), [20,40) overlap, [90,120) is
        // clipped to the parent: coverage 30 + 10 = 40.
        let spans = [
            span(1, 0, 0, 100),
            span(2, 1, 10, 20),
            span(3, 1, 20, 20),
            span(4, 1, 90, 30),
        ];
        assert_eq!(self_times(&spans), vec![60, 20, 20, 30]);
    }
}

//! The traced run: the same operations, replayed through each layer's
//! public functions with a span around every call.  The program itself
//! carries no instrumentation for this; spans are recorded here, kept in
//! memory, and reduced to the per-layer metrics when the run ends.

use crate::inputs::{Inputs, Op};
use crate::report::{mean, Report};
use crate::run::{build, pieces, Latencies, Spec, State};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use xseq::index::{
    filter_tombstones, instantiate, tree_search_with, QuerySequence, SearchScratch, TrieView,
};
use xseq::sequence::sequence_document;
use xseq::storage::{write_paged_trie, MemStore, PagedTrie};
use xseq::xml::parse_document;
use xseq::{
    parse_xpath_readonly, Corpus, Database, DocId, PlanOptions, ProbabilityModel, Strategy,
    ValueMode, WeightMap, XmlIndex,
};

const NO_PARENT: u32 = u32::MAX;

/// One timed call.  Spans of one request share `req`; `parent` is the span
/// that caused this one.
#[derive(Debug, Clone)]
struct Span {
    req: u32,
    parent: u32,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

impl Span {
    fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span recorder.
#[derive(Debug)]
struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&mut self, req: u32, parent: u32, name: &'static str) -> u32 {
        let start_ns = self.now();
        self.spans.push(Span {
            req,
            parent,
            name,
            start_ns,
            end_ns: start_ns,
        });
        (self.spans.len() - 1) as u32
    }

    fn close(&mut self, id: u32) {
        let now = self.now();
        self.spans[id as usize].end_ns = now;
    }

    /// Runs `f` inside a span.
    fn span<R>(&mut self, req: u32, parent: u32, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.open(req, parent, name);
        let r = f();
        self.close(id);
        r
    }

    /// Nanoseconds in all spans named `name`.
    fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64)
            .sum()
    }
}

/// Work counts of the replayed queries, summed.
#[derive(Debug, Default)]
struct Counts {
    instantiations: u64,
    dictionary_paths: u64,
    candidates: u64,
    cover_rejections: u64,
    link_probes: u64,
    results: u64,
    delta_segments: u64,
    delta_runs: u64,
}

/// The replay of one traced run.
#[derive(Debug)]
pub struct Replay {
    tracer: Tracer,
    /// End-to-end seconds of the database call behind each query request,
    /// and the query's template.
    e2e: BTreeMap<u32, (f64, &'static str)>,
    counts: Counts,
    insert_plain_us: Vec<f64>,
    insert_cut_us: Vec<f64>,
    /// Per shard, local id → global id, and the (database size,
    /// compactions) it was derived for.
    globals: Vec<Vec<DocId>>,
    globals_for: Option<(usize, u64)>,
    scratch: SearchScratch,
    next_req: u32,
}

impl Replay {
    fn new() -> Self {
        Replay {
            tracer: Tracer {
                epoch: Instant::now(),
                spans: Vec::new(),
            },
            e2e: BTreeMap::new(),
            counts: Counts::default(),
            insert_plain_us: Vec::new(),
            insert_cut_us: Vec::new(),
            globals: Vec::new(),
            globals_for: None,
            scratch: SearchScratch::new(),
            next_req: 0,
        }
    }

    /// Forgets everything recorded so far (after a warm-up pass).
    fn clear(&mut self) {
        self.tracer.spans.clear();
        self.e2e.clear();
        self.counts = Counts::default();
    }

    /// Σ over shards of the tiered delta's run count: an insert that
    /// changes it cut the memtable into a run (and perhaps merged runs).
    /// The delta epoch cannot tell, as every insert bumps it.
    pub fn delta_state(db: &Database) -> usize {
        (0..db.shard_count())
            .map(|s| db.shard_index(s).delta().run_count())
            .sum()
    }

    pub fn insert(&mut self, secs: f64, cut: bool) {
        if cut {
            self.insert_cut_us.push(secs * 1e6);
        } else {
            self.insert_plain_us.push(secs * 1e6);
        }
    }

    /// Replays query `q` shard by shard through the query, index and
    /// sequence layers, and checks that it returns what the database
    /// returned (`docs`, from a call that took `e2e_secs`).
    pub fn query(
        &mut self,
        state: &State,
        inputs: &Inputs,
        q: usize,
        docs: &[DocId],
        e2e_secs: f64,
        report: &mut Report,
    ) {
        let db = &state.db;
        let key = (db.len(), state.compactions);
        if self.globals_for != Some(key) {
            self.globals = local_to_global(db);
            self.globals_for = Some(key);
        }
        let req = self.next_req;
        self.next_req += 1;
        self.e2e.insert(req, (e2e_secs, inputs.queries[q].template));
        let text = &inputs.queries[q].text;
        let root = self.tracer.open(req, NO_PARENT, "query");
        let mut all = Vec::new();
        let mut ok = true;
        for s in 0..db.shard_count() {
            let shard = self.tracer.open(req, root, "shard");
            let found = self.search_shard(req, shard, db, s, text, db.shard_index(s).trie());
            self.tracer.close(shard);
            match found {
                Some(found) => {
                    let globals = &self.globals[s];
                    all.extend(found.iter().map(|&l| globals[l as usize]));
                }
                None => ok = false,
            }
        }
        all.sort_unstable();
        self.tracer.close(root);
        self.counts.results += all.len() as u64;
        report.check(ok && all == docs);
    }

    /// Plans `text` on shard `s` and searches every instantiation in
    /// `frozen` (the shard's trie, or a paged copy of it) and in the
    /// shard's delta segments, each call in a span under `parent`.
    /// Returns the shard's matching local ids without the tombstoned ones,
    /// or `None` when the query does not parse.
    fn search_shard<T: TrieView + ?Sized>(
        &mut self,
        req: u32,
        parent: u32,
        db: &Database,
        s: usize,
        text: &str,
        frozen: &T,
    ) -> Option<Vec<DocId>> {
        let index = db.shard_index(s);
        let corpus = db.shard_corpus(s);
        let parsed = self.tracer.span(req, parent, "query.parse", || {
            parse_xpath_readonly(text, &corpus.symbols)
        });
        let pattern = match parsed.ok()? {
            Some(p) => p,
            // A name this shard never saw: provably empty here.
            None => return Some(Vec::new()),
        };
        let concrete = self.tracer.span(req, parent, "index.plan", || {
            instantiate(&pattern, &corpus.paths, index.data_paths(), index.options())
        });
        self.counts.instantiations += concrete.len() as u64;
        self.counts.dictionary_paths += corpus.paths.len() as u64;
        let view = index.delta_view();
        self.counts.delta_segments += view.segment_count() as u64;
        self.counts.delta_runs += index.delta().run_count() as u64;
        let mut found = Vec::new();
        for qdoc in &concrete {
            let qs = self.tracer.span(req, parent, "sequence.query_encode", || {
                QuerySequence::from_document_readonly(qdoc, &corpus.paths, index.strategy())
            });
            let Some(qs) = qs else { continue };
            self.search(req, parent, "index.search", frozen, &qs, &mut found);
            for segment in view.segments() {
                self.search(req, parent, "index.search.delta", segment, &qs, &mut found);
            }
        }
        found.sort_unstable();
        found.dedup();
        filter_tombstones(&mut found, &index.tombstones());
        Some(found)
    }

    /// One `tree_search_with` in a span named `name`; its matches are
    /// appended to `found`.
    fn search<T: TrieView + ?Sized>(
        &mut self,
        req: u32,
        parent: u32,
        name: &'static str,
        trie: &T,
        qs: &QuerySequence,
        found: &mut Vec<DocId>,
    ) {
        let scratch = &mut self.scratch;
        let st = self
            .tracer
            .span(req, parent, name, || tree_search_with(trie, qs, scratch));
        self.counts.candidates += st.candidates;
        self.counts.cover_rejections += st.cover_rejections;
        self.counts.link_probes += st.link_probes;
        found.extend_from_slice(&self.scratch.docs);
    }

    /// Replays the build of `state`'s database from the base documents,
    /// shard by shard: parse, probability estimation, sequencing, and the
    /// index build (whose own sequencing is subtracted afterwards).
    fn setup(&mut self, state: &State, inputs: &Inputs, report: &mut Report) {
        let db = &state.db;
        let mut shard_xml: Vec<Vec<&str>> = vec![Vec::new(); db.shard_count()];
        for (g, xml) in inputs.base.iter().enumerate() {
            let (s, _) = db.doc_location(g as DocId).expect("base ids exist");
            shard_xml[s].push(xml);
        }
        let req = self.next_req;
        self.next_req += 1;
        let root = self.tracer.open(req, NO_PARENT, "setup");
        for (s, xmls) in shard_xml.iter().enumerate() {
            let built = catch_unwind(AssertUnwindSafe(|| {
                let mut corpus = Corpus::new(ValueMode::Intern);
                let parsed = self.tracer.span(req, root, "xml.parse", || {
                    for xml in xmls {
                        let doc = parse_document(xml, &mut corpus.symbols)?;
                        corpus.push(doc);
                    }
                    Ok::<_, xseq::XmlError>(())
                });
                parsed.ok()?;
                let strategy = self.tracer.span(req, root, "schema.estimate", || {
                    let model = ProbabilityModel::estimate(&corpus.docs, &mut corpus.paths, 0);
                    Strategy::Probability(model.priorities(&corpus.paths, &WeightMap::default()))
                });
                let mut paths = corpus.paths.clone();
                self.tracer.span(req, root, "sequence.encode", || {
                    for doc in &corpus.docs {
                        std::hint::black_box(sequence_document(doc, &mut paths, &strategy));
                    }
                });
                let index = self.tracer.span(req, root, "index.build", || {
                    XmlIndex::build(
                        &corpus.docs,
                        &mut corpus.paths,
                        strategy,
                        PlanOptions::default(),
                    )
                });
                Some(index.node_count())
            }));
            report.check(built.ok().flatten() == Some(db.shard_index(s).node_count()));
        }
        self.tracer.close(root);
    }

    /// Reduces the spans to per-layer metrics.
    fn finish(&self, report: &mut Report) {
        let spans = &self.tracer.spans;
        let total = |name: &str| self.tracer.total(name);
        // Layer time under each shard span; per request, the slowest shard
        // is the critical path of a scatter query.
        let mut shard_ns: BTreeMap<u32, (u32, f64)> = BTreeMap::new();
        for sp in spans {
            if spans
                .get(sp.parent as usize)
                .is_some_and(|p| p.name == "shard")
            {
                shard_ns.entry(sp.parent).or_insert((sp.req, 0.0)).1 += sp.ns() as f64;
            }
        }
        let mut by_req: BTreeMap<u32, Vec<f64>> = BTreeMap::new();
        for &(req, ns) in shard_ns.values() {
            by_req.entry(req).or_default().push(ns);
        }
        let n = self.e2e.len().max(1) as f64;
        let e2e_ns: f64 = self.e2e.values().map(|(s, _)| s * 1e9).sum();
        let mut crit_ns = 0.0;
        let mut self_ns = 0.0;
        let mut skews = Vec::new();
        // Per template: queries, end to end, critical path (ns).
        let mut per_template: BTreeMap<&str, (u32, f64, f64)> = BTreeMap::new();
        for (req, (secs, template)) in &self.e2e {
            let shards = by_req.get(req).map(Vec::as_slice).unwrap_or(&[]);
            let max = shards.iter().copied().fold(0.0, f64::max);
            crit_ns += max;
            // The replay is a second execution: on a query that is nearly
            // all planning it can outlast the database call it replays,
            // which leaves nothing for the core's own work.
            self_ns += (secs * 1e9 - max).max(0.0);
            if mean(shards) > 0.0 {
                skews.push(max / mean(shards) - 1.0);
            }
            let t = per_template.entry(template).or_default();
            *t = (t.0 + 1, t.1 + secs * 1e9, t.2 + max);
        }
        for (template, (n, e2e, crit)) in per_template {
            eprintln!(
                "{template}: {n} queries, {:.1} us end to end, {:.1} us in layer spans",
                e2e / f64::from(n) / 1e3,
                crit / f64::from(n) / 1e3
            );
        }
        let per_q = |ns: f64| ns / n / 1e3;
        let c = &self.counts;
        report.push("query.parse_us", per_q(total("query.parse")), "us");
        report.push("index.plan_us", per_q(total("index.plan")), "us");
        report.push(
            "index.plan.instantiations",
            c.instantiations as f64 / n,
            "count/query",
        );
        report.push(
            "index.plan.dictionary_paths",
            c.dictionary_paths as f64 / n,
            "count/query",
        );
        report.push(
            "sequence.query_encode_us",
            per_q(total("sequence.query_encode")),
            "us",
        );
        report.push("index.search_us", per_q(total("index.search")), "us");
        report.push(
            "index.search.candidates",
            c.candidates as f64 / n,
            "count/query",
        );
        report.push(
            "index.search.cover_rejections",
            c.cover_rejections as f64 / n,
            "count/query",
        );
        report.push(
            "index.search.link_probes",
            c.link_probes as f64 / n,
            "count/query",
        );
        report.push(
            "index.search.results_per_kcandidate",
            c.results as f64 * 1e3 / c.candidates.max(1) as f64,
            "count",
        );
        report.push(
            "index.search.delta_us",
            per_q(total("index.search.delta")),
            "us",
        );
        report.push(
            "index.delta.segments",
            c.delta_segments as f64 / n,
            "count/query",
        );
        report.push("index.delta.runs", c.delta_runs as f64 / n, "count/query");
        report.push("core.self_us", per_q(self_ns), "us");
        report.push("core.shard_skew", mean(&skews), "ratio");
        report.push("xml.parse_s", total("xml.parse") / 1e9, "s");
        report.push("schema.estimate_s", total("schema.estimate") / 1e9, "s");
        report.push("sequence.encode_s", total("sequence.encode") / 1e9, "s");
        report.push(
            "index.build_s",
            (total("index.build") - total("sequence.encode")) / 1e9,
            "s",
        );
        report.push("update.insert.plain_us", mean(&self.insert_plain_us), "us");
        report.push("update.insert.cut_us", mean(&self.insert_cut_us), "us");
        report.push(
            "attribution_permille",
            crit_ns / e2e_ns.max(1.0) * 1e3,
            "permille",
        );
    }
}

/// Per shard, local id → global id (the inverse of `doc_location`).
fn local_to_global(db: &Database) -> Vec<Vec<DocId>> {
    let mut globals = vec![Vec::new(); db.shard_count()];
    for g in 0..db.len() as DocId {
        let (s, local) = db
            .doc_location(g)
            .expect("every id below len has a location");
        let list: &mut Vec<DocId> = &mut globals[s];
        if list.len() <= local as usize {
            list.resize(local as usize + 1, DocId::MAX);
        }
        list[local as usize] = g;
    }
    globals
}

/// Pages every shard's frozen trie into memory and runs every distinct
/// query once against it, from a cold pool that persists across the pass:
/// once with a pool that holds every page and once with a quarter of them.
/// Reports pages read per query (the paper's disk accesses), hit ratio and
/// search time for each.
fn storage_replay(state: &State, inputs: &Inputs, report: &mut Report) {
    let db = &state.db;
    let globals = local_to_global(db);
    let n = inputs.queries.len().max(1) as f64;
    for (share, names) in [
        (
            1,
            [
                "storage.fit.pages_read_per_query",
                "storage.fit.hit_ratio",
                "storage.fit.search_us",
            ],
        ),
        (
            4,
            [
                "storage.quarter.pages_read_per_query",
                "storage.quarter.hit_ratio",
                "storage.quarter.search_us",
            ],
        ),
    ] {
        let tries: Vec<_> = (0..db.shard_count())
            .map(|s| {
                let mut store = MemStore::new();
                let trie = db.shard_index(s).trie();
                let pages = write_paged_trie(trie, &mut store).expect("in-memory store");
                PagedTrie::open(store, (pages as usize / share).max(1))
                    .expect("freshly written layout")
            })
            .collect();
        let mut replay = Replay::new();
        for (q, query) in inputs.queries.iter().enumerate() {
            let mut all = Vec::new();
            let mut ok = true;
            for (s, trie) in tries.iter().enumerate() {
                match replay.search_shard(q as u32, NO_PARENT, db, s, &query.text, trie) {
                    Some(found) => all.extend(found.iter().map(|&l| globals[s][l as usize])),
                    None => ok = false,
                }
            }
            all.sort_unstable();
            report.check(ok && all == inputs.expected(q, &state.live));
        }
        let (hits, misses) = tries.iter().fold((0, 0), |(h, m), t| {
            let st = t.pool_stats();
            (h + st.hits, m + st.misses)
        });
        report.push(names[0], misses as f64 / n, "count/query");
        report.push(
            names[1],
            hits as f64 / (hits + misses).max(1) as f64,
            "ratio",
        );
        report.push(
            names[2],
            replay.tracer.total("index.search") / n / 1e3,
            "us",
        );
    }
}

/// Memory and trie-size counts of the database as it stands.
fn footprint_counts(state: &State, report: &mut Report) {
    let mem = state.db.stats().memory;
    report.push("index.trie_nodes", state.trie_nodes() as f64, "count");
    report.push("memory.index_bytes", mem.index_bytes as f64, "B");
    report.push("memory.corpus_bytes", mem.corpus_bytes as f64, "B");
}

/// The traced run: a fixed number of operations (so every count repeats
/// exactly for a seed), each query timed end to end and then replayed.
pub fn run_traced(
    spec: &Spec,
    (inputs, reads, churn): (Inputs, Vec<Op>, Vec<Op>),
    report: &mut Report,
) {
    let Some((mut state, _)) = build(spec, &inputs, report) else {
        return;
    };
    let mut replay = Replay::new();
    let mut lat = Latencies::default();
    // Warm the database and the replay, then forget what the replay
    // recorded.
    state.warm_up(&inputs, report, Some(&mut replay));
    replay.clear();
    replay.setup(&state, &inputs, report);
    footprint_counts(&state, report);
    // Two cycles of the untraced run's shape: a read block, then a churn
    // piece.  Each read block runs once untraced and once traced; the
    // ratio of the two times is the tracing overhead on query_qps.
    let (mut plain_s, mut traced_s) = (0.0, 0.0);
    let mut script = reads.iter().cycle();
    for piece in pieces(&churn).into_iter().take(2) {
        let block: Vec<Op> = script
            .by_ref()
            .take(spec.traced_reads / 2)
            .copied()
            .collect();
        let t0 = Instant::now();
        for &op in &block {
            state.run_op(op, &inputs, report, &mut lat, None);
        }
        plain_s += t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        for &op in &block {
            state.run_op(op, &inputs, report, &mut lat, Some(&mut replay));
        }
        traced_s += t0.elapsed().as_secs_f64();
        for &op in piece {
            state.run_op(op, &inputs, report, &mut lat, Some(&mut replay));
        }
    }
    // Every piece ends with a compaction: the frozen tries hold everything.
    storage_replay(&state, &inputs, report);
    state.verify(report);
    replay.finish(report);
    report.push(
        "trace_overhead_pct",
        (traced_s / plain_s - 1.0) * 100.0,
        "%",
    );
}

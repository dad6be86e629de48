//! The workloads, the closed-loop client that drives `xseq::Database`, and
//! the untraced run that yields the end-to-end metrics.

use crate::inputs::{Family, Inputs, Op};
use crate::replay::Replay;
use crate::report::{mean, median, percentile, Report};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use xseq::{Database, DatabaseBuilder, DocId};

/// Timed queries per cycle, at least: whole rounds of the read script.
const READS_PER_CYCLE: usize = 300;

/// One workload: its inputs, its database configuration and its op stream.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub family: Family,
    pub base_docs: usize,
    /// `DatabaseBuilder::threads`.
    pub threads: usize,
    /// `DatabaseBuilder::shards`.
    pub shards: usize,
    /// Churn pieces of a run: one per cycle, so every run of a seed makes
    /// the same inserts, removes and compactions.
    pub churn_pieces: usize,
    /// Inserts per churn piece; a compaction ends each piece.
    pub piece_inserts: usize,
    /// Read-phase queries the traced run replays.
    pub traced_reads: usize,
}

pub const WORKLOADS: &[Spec] = &[
    Spec {
        name: "xmark_paper",
        family: Family::Xmark,
        base_docs: 8000,
        threads: 1,
        shards: 1,
        // Twenty pieces of 500 inserts and as many removes.
        churn_pieces: 20,
        piece_inserts: 500,
        traced_reads: 1000,
    },
    Spec {
        name: "dblp_search",
        family: Family::Dblp,
        base_docs: 20_000,
        threads: 2,
        shards: 2,
        churn_pieces: 16,
        piece_inserts: 500,
        traced_reads: 1000,
    },
];

impl Spec {
    pub fn by_name(name: &str) -> Option<Spec> {
        WORKLOADS.iter().find(|s| s.name == name).copied()
    }

    /// The same workload with every size multiplied by `f` (for tests).
    pub fn scaled(self, f: f64) -> Spec {
        let s = |n: usize| ((n as f64 * f).ceil() as usize).max(8);
        Spec {
            base_docs: s(self.base_docs),
            piece_inserts: s(self.piece_inserts),
            traced_reads: s(self.traced_reads),
            ..self
        }
    }

    pub fn builder(&self) -> DatabaseBuilder {
        DatabaseBuilder::new()
            .threads(self.threads)
            .shards(self.shards)
    }

    /// Seeded inputs and scripts: (inputs, read round, churn script).
    pub fn inputs(&self, seed: u64) -> (Inputs, Vec<Op>, Vec<Op>) {
        let fresh = self.churn_pieces * self.piece_inserts;
        let mut inputs = Inputs::generate(self.family, seed, self.base_docs, fresh);
        let reads = inputs.read_round(self.family);
        let churn = inputs.churn_script(&reads, self.churn_pieces, self.piece_inserts);
        (inputs, reads, churn)
    }
}

/// Runs `f`, turning a panic into `None`.
fn guarded<R>(f: impl FnOnce() -> R) -> Option<R> {
    catch_unwind(AssertUnwindSafe(f)).ok()
}

/// A database plus the client's record of which input document sits
/// behind each id.
pub struct State {
    pub db: Database,
    /// `live[id]`: the input document (base index, or base count + fresh
    /// index) behind database id `id`; `None` once removed.
    pub live: Vec<Option<u32>>,
    /// Ids not yet removed, in a deterministic order (remove draws index
    /// into it).
    live_ids: Vec<DocId>,
    /// Compactions so far (each renumbers ids).
    pub compactions: u64,
}

/// Latency samples of one op stream.
#[derive(Debug, Default)]
pub struct Latencies {
    pub query_us: Vec<f64>,
    pub insert_us: Vec<f64>,
    pub compact_s: Vec<f64>,
    /// Every query, insert and remove, in stream order.
    pub op_us: Vec<f64>,
}

/// Builds the database from the base documents, timed.
pub fn build(spec: &Spec, inputs: &Inputs, report: &mut Report) -> Option<(State, f64)> {
    let t0 = Instant::now();
    let built = guarded(|| {
        spec.builder()
            .build_from_xml(inputs.base.iter().map(String::as_str))
    });
    let secs = t0.elapsed().as_secs_f64();
    let db = match built {
        Some(Ok(db)) if db.len() == inputs.base.len() => db,
        _ => {
            report.check(false);
            return None;
        }
    };
    report.check(true);
    let n = inputs.base.len() as u32;
    let state = State {
        db,
        live: (0..n).map(Some).collect(),
        live_ids: (0..n).collect(),
        compactions: 0,
    };
    Some((state, secs))
}

impl State {
    /// Runs one op, checks its outcome, and records its latency.  With a
    /// replay attached, queries are also replayed layer by layer and
    /// inserts classified as plain or cut.
    pub fn run_op(
        &mut self,
        op: Op,
        inputs: &Inputs,
        report: &mut Report,
        lat: &mut Latencies,
        mut replay: Option<&mut Replay>,
    ) {
        match op {
            Op::Query(q) => {
                let text = &inputs.queries[q].text;
                let db = &self.db;
                let t0 = Instant::now();
                let out = guarded(|| db.query_xpath_full(text));
                let secs = t0.elapsed().as_secs_f64();
                lat.op_us.push(secs * 1e6);
                lat.query_us.push(secs * 1e6);
                let docs = match out {
                    Some(Ok(out)) => out.docs,
                    _ => {
                        report.check(false);
                        return;
                    }
                };
                report.check(docs == inputs.expected(q, &self.live));
                if let Some(r) = replay.as_deref_mut() {
                    r.query(self, inputs, q, &docs, secs, report);
                }
            }
            Op::Insert(i) => {
                let before = replay.as_deref().map(|_| Replay::delta_state(&self.db));
                let db = &mut self.db;
                let xml = &inputs.fresh[i];
                let t0 = Instant::now();
                let out = guarded(|| db.insert_document(xml));
                let secs = t0.elapsed().as_secs_f64();
                lat.op_us.push(secs * 1e6);
                lat.insert_us.push(secs * 1e6);
                let expected_id = self.live.len() as DocId;
                let ok = matches!(out, Some(Ok(id)) if id == expected_id);
                report.check(ok);
                if ok {
                    self.live.push(Some((inputs.base.len() + i) as u32));
                    self.live_ids.push(expected_id);
                }
                if let (Some(r), Some(before)) = (replay, before) {
                    r.insert(secs, before != Replay::delta_state(&self.db));
                }
            }
            Op::Remove(draw) => {
                if self.live_ids.is_empty() {
                    return;
                }
                let id = self
                    .live_ids
                    .swap_remove((draw % self.live_ids.len() as u64) as usize);
                let db = &mut self.db;
                let t0 = Instant::now();
                let out = guarded(|| db.remove_document(id));
                lat.op_us.push(t0.elapsed().as_secs_f64() * 1e6);
                report.check(out == Some(true));
                self.live[id as usize] = None;
            }
            Op::Compact => {
                let db = &mut self.db;
                let t0 = Instant::now();
                let out = guarded(|| db.compact());
                let secs = t0.elapsed().as_secs_f64();
                lat.compact_s.push(secs);
                self.compactions += 1;
                let Some(out) = out else {
                    report.check(false);
                    return;
                };
                // Compaction renumbers densely: survivors keep their order
                // and removed ids disappear.
                let mut live = vec![None; out.docs_after];
                let mut ok = out.remap.len() == self.live.len();
                for (old, new) in out.remap.iter().enumerate() {
                    let before = self.live.get(old).copied().flatten();
                    match (new, before) {
                        (Some(new), Some(d)) if (*new as usize) < live.len() => {
                            live[*new as usize] = Some(d)
                        }
                        (None, None) => {}
                        _ => ok = false,
                    }
                }
                ok &= live.iter().all(Option::is_some);
                report.check(ok);
                self.live_ids = (0..live.len() as DocId).collect();
                self.live = live;
            }
        }
    }

    /// One pass over every distinct query, so caches are warm before
    /// anything is timed (and replayed too, when a replay is attached).
    pub fn warm_up(
        &mut self,
        inputs: &Inputs,
        report: &mut Report,
        mut replay: Option<&mut Replay>,
    ) {
        let mut scratch = Latencies::default();
        for q in 0..inputs.queries.len() {
            self.run_op(
                Op::Query(q),
                inputs,
                report,
                &mut scratch,
                replay.as_deref_mut(),
            );
        }
    }

    /// `verify_integrity` must come back clean.
    pub fn verify(&mut self, report: &mut Report) {
        let db = &mut self.db;
        let clean = guarded(|| db.verify_integrity().is_clean());
        report.check(clean == Some(true));
    }

    /// Modelled heap bytes per XML input byte, and frozen trie nodes per
    /// document, of a database just built from the base documents.
    pub fn footprint(&self, inputs: &Inputs) -> (f64, f64) {
        let heap = self.db.stats().memory.total_bytes() as f64;
        let bytes: usize = inputs.base.iter().map(String::len).sum();
        let nodes = self.trie_nodes() as f64;
        (heap / bytes as f64, nodes / inputs.base.len() as f64)
    }

    /// Frozen trie nodes over all shards.
    pub fn trie_nodes(&self) -> usize {
        (0..self.db.shard_count())
            .map(|s| self.db.shard_index(s).node_count())
            .sum()
    }
}

fn p50(us: &[f64]) -> f64 {
    percentile(us, 0.5)
}

fn p99(us: &[f64]) -> f64 {
    percentile(us, 0.99)
}

/// Operations per second of latencies in microseconds.
fn rate(us: &[f64]) -> f64 {
    us.len() as f64 / (us.iter().sum::<f64>() / 1e6)
}

/// Splits a churn stream into pieces that each end with a compaction.
pub fn pieces(churn: &[Op]) -> Vec<&[Op]> {
    churn.split_inclusive(|op| *op == Op::Compact).collect()
}

/// Per position, the 10th percentile of one kind of sample across blocks
/// that repeat the same work position by position: read rounds, or churn
/// pieces.
///
/// On a shared host, other tenants slow the program in spells of
/// milliseconds to minutes, and only ever add time.  Even in a slow
/// minute, the host leaves the program alone for some of its
/// milliseconds, so the fast tenth of a position's repeats gives its own
/// cost, and the run-to-run spread drops well below that of a pooled
/// figure.
fn calm(blocks: &[Latencies], samples: fn(&Latencies) -> &[f64]) -> Vec<f64> {
    let len = blocks.iter().map(|b| samples(b).len()).min().unwrap_or(0);
    (0..len)
        .map(|k| {
            percentile(
                &blocks.iter().map(|b| samples(b)[k]).collect::<Vec<_>>(),
                0.1,
            )
        })
        .collect()
}

/// The untraced run: every end-to-end metric.
///
/// The run makes one cycle per churn piece: a warm-up pass, rounds of
/// timed queries on the compacted database, the piece (which ends with a
/// compaction), and one more set-up sample.  While `seconds` have not
/// passed it then adds cycles without a piece.  Every run of a seed thus
/// makes the same writes, and only the number of read rounds and set-ups
/// follows the clock.  The query figures take each query of the read
/// round at its calm time over the rounds, the insert and churn figures
/// each op of a piece at its calm time over the pieces (see [`calm`]).
pub fn run_untraced(
    spec: &Spec,
    (inputs, round, churn): (Inputs, Vec<Op>, Vec<Op>),
    seconds: f64,
    report: &mut Report,
) {
    let rounds_per_cycle = READS_PER_CYCLE.div_ceil(round.len().max(1));
    let mut rounds = Vec::new();
    let mut churned = Vec::new();
    let mut cycles = 0;
    let start = Instant::now();
    let Some((mut state, secs)) = build(spec, &inputs, report) else {
        return;
    };
    let mut setups = vec![secs];
    let (heap, nodes) = state.footprint(&inputs);
    let mut pieces = pieces(&churn).into_iter();
    loop {
        let piece = pieces.next();
        if piece.is_none() && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
        // The piece and the build of the last cycle left the caches cold;
        // warm them again before anything is timed.
        state.warm_up(&inputs, report, None);
        for _ in 0..rounds_per_cycle {
            let mut reads = Latencies::default();
            for &op in &round {
                state.run_op(op, &inputs, report, &mut reads, None);
            }
            rounds.push(reads);
        }
        if let Some(piece) = piece {
            let mut lat = Latencies::default();
            for &op in piece {
                state.run_op(op, &inputs, report, &mut lat, None);
            }
            churned.push(lat);
        }
        if let Some((_, secs)) = build(spec, &inputs, report) {
            setups.push(secs);
        }
        cycles += 1;
    }
    state.verify(report);
    let q = calm(&rounds, |l| &l.query_us);
    let ins = calm(&churned, |l| &l.insert_us);
    let ops = calm(&churned, |l| &l.op_us);
    let compactions: Vec<f64> = churned.iter().flat_map(|l| l.compact_s.clone()).collect();
    if q.is_empty() || ins.is_empty() || compactions.is_empty() {
        report.check(false);
        return;
    }
    report.push("setup_s", median(&setups), "s");
    report.push("query_qps", rate(&q), "1/s");
    report.push("query_p50_us", p50(&q), "us");
    report.push("query_p99_us", p99(&q), "us");
    report.push("insert_p50_us", p50(&ins), "us");
    report.push("churn_ops_per_s", rate(&ops), "1/s");
    // Every compaction does about the same work, and interference from other
    // tenants of a shared host only ever adds time: the fastest of the
    // run's compactions is the best estimate of their own cost.
    let fastest = compactions.iter().copied().fold(f64::INFINITY, f64::min);
    report.push("compact_s", fastest, "s");
    report.push("heap_bytes_per_input_byte", heap, "B/B");
    report.push("trie_nodes_per_doc", nodes, "count");
    eprintln!(
        "{}: {cycles} cycles, {} set-ups, {} read rounds of {} queries (calm mean {:.1} us), \
         {} pieces of {} ops, {} compactions in {:.1} s",
        spec.name,
        setups.len(),
        rounds.len(),
        q.len(),
        mean(&q),
        churned.len(),
        ops.len(),
        compactions.len(),
        start.elapsed().as_secs_f64()
    );
}

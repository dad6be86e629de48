//! The benchmark's own checks: counts repeat exactly for a seed, a new seed
//! gives new inputs, and a wrong answer shows up as a failure.

use xseq_perfbench::run::{Spec, WORKLOADS};

/// Small enough to run in seconds, large enough for every template to
/// find its literals.
const SCALE: f64 = 0.02;

/// Metrics that are counts (or ratios of counts), so they must repeat
/// exactly for a seed.
const COUNTS: &[&str] = &[
    "index.trie_nodes",
    "memory.index_bytes",
    "memory.corpus_bytes",
    "index.plan.instantiations",
    "index.plan.dictionary_paths",
    "index.search.candidates",
    "index.search.cover_rejections",
    "index.search.link_probes",
    "index.search.results_per_kcandidate",
    "index.delta.segments",
    "index.delta.runs",
    "storage.fit.pages_read_per_query",
    "storage.quarter.pages_read_per_query",
    "storage.fit.hit_ratio",
    "storage.quarter.hit_ratio",
];

fn small(spec: &Spec) -> Spec {
    spec.scaled(SCALE)
}

#[test]
fn same_seed_repeats_every_count() {
    for spec in WORKLOADS.iter().map(small) {
        let a = xseq_perfbench::run(&spec, 7, 0.01, true);
        let b = xseq_perfbench::run(&spec, 7, 0.01, true);
        assert_eq!((a.failed, b.failed), (0, 0), "{}", spec.name);
        assert_eq!(a.attempted, b.attempted, "{}", spec.name);
        for name in COUNTS {
            let (x, y) = (a.metric(name), b.metric(name));
            assert!(x.is_some(), "{}: {name} missing", spec.name);
            assert_eq!(x, y, "{}: {name}", spec.name);
        }
        // A run shorter than its churn pieces makes exactly one cycle per
        // piece, whatever the host's speed.
        let a = xseq_perfbench::run(&spec, 7, 0.01, false);
        let b = xseq_perfbench::run(&spec, 7, 0.01, false);
        assert_eq!((a.failed, b.failed), (0, 0), "{}", spec.name);
        assert_eq!(a.attempted, b.attempted, "{}", spec.name);
        for name in ["heap_bytes_per_input_byte", "trie_nodes_per_doc"] {
            assert_eq!(a.metric(name), b.metric(name), "{}: {name}", spec.name);
        }
    }
}

#[test]
fn another_seed_changes_the_inputs() {
    for spec in WORKLOADS.iter().map(small) {
        let (a, a_reads, a_churn) = spec.inputs(1);
        let (b, b_reads, b_churn) = spec.inputs(2);
        assert_ne!(a.base, b.base, "{}", spec.name);
        assert_ne!(a.fresh, b.fresh, "{}", spec.name);
        let texts = |i: &xseq_perfbench::inputs::Inputs| {
            i.queries.iter().map(|q| q.text.clone()).collect::<Vec<_>>()
        };
        assert_ne!(texts(&a), texts(&b), "{}", spec.name);
        assert!(a_reads != b_reads || a_churn != b_churn, "{}", spec.name);
    }
}

#[test]
fn every_query_instance_has_an_answer() {
    for spec in WORKLOADS.iter().map(small) {
        let (inputs, _, _) = spec.inputs(3);
        let base = inputs.base.len();
        for (q, query) in inputs.queries.iter().enumerate() {
            assert!(
                inputs.matches[..base].iter().any(|m| m >> q & 1 == 1),
                "{}: {} matches no base document",
                spec.name,
                query.text
            );
        }
    }
}

#[test]
fn an_injected_mismatch_counts_as_a_failure() {
    for spec in WORKLOADS.iter().map(small) {
        for trace in [false, true] {
            let mut generated = spec.inputs(5);
            // Claim that base document 0 answers query 0 when it does not
            // (or the reverse): every check of query 0 must now fail.
            generated.0.matches[0] ^= 1;
            let report = xseq_perfbench::run_with(&spec, generated, 0.01, trace);
            assert!(report.failed > 0, "{} trace={trace}", spec.name);
            assert!(report.attempted > report.failed, "{}", spec.name);
            assert!(report.to_json().starts_with("{\"correct\": false"));
        }
    }
}

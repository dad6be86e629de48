//! End-to-end and per-layer benchmark of `xseq::Database`.
//!
//! A run generates seeded XML and XPath inputs, drives the database from
//! one closed-loop client, checks every answer against the brute-force
//! matcher, and reports either the end-to-end metrics (untraced) or the
//! per-layer metrics of a traced replay.  See `README.md` for the
//! workloads and metrics.

pub mod inputs;
pub mod replay;
pub mod report;
pub mod run;

use inputs::{Inputs, Op};
use report::Report;
use run::Spec;

/// One run over already generated inputs (tests tamper with them first).
pub fn run_with(
    spec: &Spec,
    generated: (Inputs, Vec<Op>, Vec<Op>),
    seconds: f64,
    trace: bool,
) -> Report {
    let mut report = Report::default();
    if trace {
        replay::run_traced(spec, generated, &mut report);
    } else {
        run::run_untraced(spec, generated, seconds, &mut report);
    }
    report
}

/// One run of `spec` on the inputs of `seed`.
pub fn run(spec: &Spec, seed: u64, seconds: f64, trace: bool) -> Report {
    run_with(spec, spec.inputs(seed), seconds, trace)
}

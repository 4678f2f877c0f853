//! Human-readable and JSON rendering of runs. Every metric is printed by
//! name with its unit and the number of samples behind it.

use crate::metrics::{json_string, layer, Source, END_TO_END, PER_LAYER, RUN_SECONDS};
use crate::probes::BATCHES;
use crate::run::{AaCell, SetSummary, Tally, TimedRun, TracedRun, TWIN_REPS};
use crate::workloads::{Workload, CLIENT_THREADS};

/// Print the timed run: the three end-to-end metrics and their context.
pub fn print_timed(run: &TimedRun) {
    let w = run.workload.name();
    let reps = run.reps.len();
    println!(
        "# {w}: timed run, seed {}, {} txn/rep, {reps} measured reps, batch hash {:016x}",
        run.seed,
        run.workload.txns_per_rep(),
        run.batch_hash
    );
    for e in END_TO_END {
        println!(
            "{w} {} = {} {} (median of {reps} reps; {} is better; bound {:.0} %)",
            e.name,
            run.end_to_end(e.name),
            e.unit,
            e.better.as_str(),
            e.bound * 100.0
        );
    }
    for (i, r) in run.reps.iter().enumerate() {
        println!(
            "{w} rep {} seed {}: txn_per_s {:.1} txn_p50_us {:.3} txn_p99_us {:.1} setup_s {:.4} \
             exec_s {:.3} cpu_us_per_txn {:.2} retries {}",
            i + 1,
            r.seed,
            r.txn_per_s,
            r.p50_us,
            r.p99_us,
            r.setup_s,
            r.exec_s,
            r.cpu_us_per_txn,
            r.retries
        );
    }
    let commits: u64 = run.reps.iter().map(|r| r.commits).sum();
    let retries: u64 = run.reps.iter().map(|r| r.retries).sum();
    println!(
        "{w} client.txn_p99_us = {} us (median of {reps} reps, ungated) | client.rep_spread = {:.4} \
         (IQR/median of the reps' txn_per_s) | {commits} latency samples, {retries} retries",
        run.p99_us(),
        run.rep_spread()
    );
    print_tally(w, &run.tally);
}

fn print_tally(w: &str, tally: &Tally) {
    println!(
        "{w} attempted = {} failed = {} correct = {}",
        tally.attempted,
        tally.failed,
        tally.correct()
    );
    for v in &tally.violations {
        println!("{w} VIOLATION {v}");
    }
}

fn samples(source: Source, traced_commits: u64) -> String {
    match source {
        Source::Probe => format!("median of {BATCHES} probe batches"),
        Source::Trace => format!("spans of {traced_commits} traced txns"),
        Source::Counter => format!("counters over {traced_commits} traced txns"),
        Source::Rep => format!("{TWIN_REPS} untraced reps + 1 baseline rep"),
        Source::Once => "1 measurement".into(),
    }
}

/// Print the traced run: every per-layer metric, then the breakdown.
pub fn print_traced(run: &TracedRun) {
    let w = run.workload.name();
    println!(
        "# {w}: traced run, seed {}, {} traced txns{}",
        run.seed,
        run.traced_commits,
        run.trace_file
            .as_ref()
            .map(|p| format!(", spans of the first transactions in {}", p.display()))
            .unwrap_or_default()
    );
    for p in PER_LAYER {
        println!(
            "{w} {} = {} {} [{}; {}; moves {}]",
            p.name,
            run.values[p.name],
            p.unit,
            layer(p.name),
            samples(p.source, run.traced_commits),
            p.moves
        );
    }
    println!("# {w}: where a traced transaction's time goes (self time per span kind)");
    let mut sum = 0.0;
    for (name, us_per_txn, share) in run.breakdown() {
        sum += share;
        println!(
            "{w} breakdown {:<20} {us_per_txn:>10.3} us/txn {:>6.2} %",
            name.as_str(),
            share * 100.0
        );
    }
    let unattributed = match run.workload {
        Workload::OeHot | Workload::OeRead => "client.txn self time is engine time no wrapper sees",
        Workload::SvcDurable => {
            "service.queue_exec self time is queueing + engine + WAL time no wrapper sees"
        }
        Workload::FleetCross => "dist.submit self time is everything inside the fleet",
    };
    println!("{w} breakdown sums to {:.2} % of client.txn; {unattributed}", sum * 100.0);
    print_tally(w, &run.tally);
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn tally_json(t: &Tally) -> String {
    let violations: Vec<String> = t.violations.iter().map(|v| json_string(v)).collect();
    format!(
        "\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"violations\": [{}]",
        t.correct(),
        t.attempted,
        t.failed,
        violations.join(", ")
    )
}

/// Everything a timed run measured, as one JSON object (the `# detail`
/// line of a run; `run.json` embeds it verbatim).
pub fn timed_json(run: &TimedRun) -> String {
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|e| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\", \"samples\": {}}}",
                e.name,
                num(run.end_to_end(e.name)),
                e.unit,
                run.reps.len()
            )
        })
        .collect();
    let rows: Vec<String> = run
        .reps
        .iter()
        .map(|r| {
            format!(
                "{{\"seed\": {}, \"txn_per_s\": {}, \"txn_p50_us\": {}, \"txn_p99_us\": {}, \
                 \"setup_s\": {}, \"exec_s\": {}, \"cpu_us_per_txn\": {}, \"commits\": {}, \
                 \"failures\": {}, \"retries\": {}}}",
                r.seed,
                num(r.txn_per_s),
                num(r.p50_us),
                num(r.p99_us),
                num(r.setup_s),
                num(r.exec_s),
                num(r.cpu_us_per_txn),
                r.commits,
                r.failures,
                r.retries
            )
        })
        .collect();
    format!(
        "{{\"seed\": {}, \"txns_per_rep\": {}, \"batch_hash\": \"{:016x}\", {}, \"reps\": {}, \
         \"end_to_end\": {{{}}}, \"txn_p99_us\": {}, \"rep_spread\": {}, \"rep_rows\": [{}]}}",
        run.seed,
        run.workload.txns_per_rep(),
        run.batch_hash,
        tally_json(&run.tally),
        run.reps.len(),
        e2e.join(", "),
        num(run.p99_us()),
        num(run.rep_spread()),
        rows.join(", ")
    )
}

/// Everything a traced run measured, as one JSON object.
pub fn traced_json(run: &TracedRun) -> String {
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|p| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\", \"layer\": \"{}\", \"samples\": \"{}\"}}",
                p.name,
                num(run.values[p.name]),
                p.unit,
                layer(p.name),
                samples(p.source, run.traced_commits)
            )
        })
        .collect();
    let breakdown: Vec<String> = run
        .breakdown()
        .iter()
        .map(|(name, us, share)| {
            format!(
                "\"{}\": {{\"self_us_per_txn\": {}, \"share\": {}}}",
                name.as_str(),
                num(*us),
                num(*share)
            )
        })
        .collect();
    format!(
        "{{\"seed\": {}, {}, \"traced_txns\": {}, \"per_layer\": {{{}}}, \"breakdown\": {{{}}}}}",
        run.seed,
        tally_json(&run.tally),
        run.traced_commits,
        per_layer.join(", "),
        breakdown.join(", ")
    )
}

/// Provenance header shared by `run.json` and `aa.json`.
pub fn provenance_json(seed: u64, seconds: f64) -> String {
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
    };
    let rev = git(&["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into());
    let dirty = git(&["status", "--porcelain"]).is_some_and(|s| !s.is_empty());
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    format!(
        "\"git_revision\": \"{rev}\", \"worktree_dirty\": {dirty}, \"nproc\": {nproc}, \
         \"client_threads\": {CLIENT_THREADS}, \"seed\": {seed}, \"run_seconds\": {seconds}, \
         \"default_run_seconds\": {RUN_SECONDS}"
    )
}

fn set_json(s: &SetSummary) -> String {
    let values: Vec<String> = s.values.iter().map(|v| num(*v)).collect();
    format!(
        "{{\"median\": {}, \"q1\": {}, \"q3\": {}, \"iqr_over_median\": {}, \"values\": [{}]}}",
        num(s.median),
        num(s.q1),
        num(s.q3),
        num(s.spread),
        values.join(", ")
    )
}

/// Print and render an A/A comparison.
pub fn aa_report(cells: &[AaCell], tally: &Tally, n: usize, header: &str) -> String {
    println!("# A/A: two interleaved sets of {n} runs of this build");
    println!(
        "{:<12} {:<11} {:>14} {:>7} {:>14} {:>7} {:>8} {:>6}  verdict",
        "workload", "metric", "median A", "IQR A", "median B", "IQR B", "diff", "bound"
    );
    for c in cells {
        println!(
            "{:<12} {:<11} {:>14.4} {:>6.2}% {:>14.4} {:>6.2}% {:>7.2}% {:>5.0}%  {}",
            c.workload.name(),
            c.metric,
            c.a.median,
            c.a.spread * 100.0,
            c.b.median,
            c.b.spread * 100.0,
            c.difference * 100.0,
            c.bound * 100.0,
            if c.pass { "ok" } else { "FAIL" }
        );
    }
    print_tally("aa", tally);
    let rows: Vec<String> = cells
        .iter()
        .map(|c| {
            format!(
                "{{\"workload\": \"{}\", \"metric\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \
                 \"bound\": {}, \"a\": {}, \"b\": {}, \"relative_difference\": {}, \
                 \"b_worse_than_a_by\": {}, \"pass\": {}}}",
                c.workload.name(),
                c.metric,
                c.unit,
                c.better.as_str(),
                c.bound,
                set_json(&c.a),
                set_json(&c.b),
                num(c.difference),
                num(c.worsening),
                c.pass
            )
        })
        .collect();
    format!(
        "{{{header}, \"runs_per_set\": {n}, {}, \"pass\": {},\n \"cells\": [\n  {}\n ]}}\n",
        tally_json(tally),
        cells.iter().all(|c| c.pass) && tally.correct(),
        rows.join(",\n  ")
    )
}

//! Command line of the benchmark.
//!
//! ```text
//! semcc-benchmark                       all four workloads, timed + traced, full report
//! semcc-benchmark --workload W --seed N --seconds S --trace 0|1
//!                                       one run; the last line of stdout is the result object
//! semcc-benchmark --aa [N]              A/A: two interleaved sets of N full timed runs
//! semcc-benchmark --manifest            print BENCHMARK.json
//! ```

use semcc_benchmark::metrics::{self, END_TO_END, PER_LAYER, RUN_SECONDS};
use semcc_benchmark::report;
use semcc_benchmark::run::{self, RunResult, DEFAULT_SEED};
use semcc_benchmark::workloads::Workload;
use std::path::Path;
use std::process::ExitCode;

/// Where trace files and reports go: `benchmark/out`, whether the
/// benchmark is started from the repository root (as the driver does) or
/// from `benchmark/` itself.
fn out_dir() -> &'static Path {
    if Path::new("benchmark").is_dir() {
        Path::new("benchmark/out")
    } else {
        Path::new("out")
    }
}
const DEFAULT_AA_RUNS: usize = 10;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    aa: Option<usize>,
    manifest: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        trace: false,
        aa: None,
        manifest: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                args.workload =
                    Some(Workload::from_name(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => {
                args.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            "--aa" => {
                // The count is optional.
                let n = match it.peek().and_then(|v| v.parse::<usize>().ok()) {
                    Some(n) => {
                        it.next();
                        n
                    }
                    None => DEFAULT_AA_RUNS,
                };
                if n < 2 {
                    return Err("--aa needs at least 2 runs per set".into());
                }
                args.aa = Some(n);
            }
            "--manifest" => args.manifest = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn write_out(name: &str, text: &str) {
    let path = out_dir().join(name);
    match std::fs::create_dir_all(out_dir()).and_then(|()| std::fs::write(&path, text)) {
        Ok(()) => println!("# wrote {}", path.display()),
        Err(e) => eprintln!("cannot write {}: {e}", path.display()),
    }
}

/// Prefix of the line that carries a run's full detail as JSON.
const DETAIL: &str = "# detail ";

/// One run for the driver: the last line printed is the result object.
fn driver_run(w: Workload, args: &Args) -> bool {
    let (tally, metrics) = if args.trace {
        let run = run::traced_run(w, args.seed, out_dir());
        report::print_traced(&run);
        println!("{DETAIL}{}", report::traced_json(&run));
        let metrics: Vec<_> =
            PER_LAYER.iter().map(|p| (p.name, p.unit, run.values[p.name])).collect();
        (run.tally, metrics)
    } else {
        let run = run::timed_run(w, args.seed, args.seconds);
        report::print_timed(&run);
        println!("{DETAIL}{}", report::timed_json(&run));
        let metrics: Vec<_> =
            END_TO_END.iter().map(|e| (e.name, e.unit, run.end_to_end(e.name))).collect();
        (run.tally, metrics)
    };
    println!("{}", metrics::result_line(tally.correct(), tally.attempted, tally.failed, &metrics));
    tally.correct()
}

/// Start one run in a process of its own — as the driver does, so that no
/// run inherits another's heap — wait for it, and return its stdout.
fn run_in_child(w: Workload, seed: u64, seconds: f64, trace: bool) -> Result<Vec<String>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let out = std::process::Command::new(exe)
        .args(["--workload", w.name(), "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", if trace { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a run: {e}"))?;
    let lines: Vec<String> =
        String::from_utf8_lossy(&out.stdout).lines().map(str::to_owned).collect();
    if lines.last().is_some_and(|l| l.starts_with("{\"correct\"")) {
        Ok(lines)
    } else {
        Err(format!("run of {} ended with {} and no result", w.name(), out.status))
    }
}

/// The one command: every workload, timed then traced, everything printed.
fn full_report(args: &Args) -> bool {
    let mut ok = true;
    let mut rows = Vec::new();
    for w in Workload::ALL {
        let mut details = Vec::new();
        for trace in [false, true] {
            match run_in_child(w, args.seed, args.seconds, trace) {
                Ok(lines) => {
                    ok &= lines.last().is_some_and(|l| l.contains("\"correct\": true"));
                    for line in &lines {
                        match line.strip_prefix(DETAIL) {
                            Some(detail) => details.push(detail.to_owned()),
                            None => println!("{line}"),
                        }
                    }
                }
                Err(e) => {
                    eprintln!("{e}");
                    ok = false;
                }
            }
        }
        if let [timed, traced] = &details[..] {
            rows.push(format!(
                "{{\"workload\": \"{}\", \"timed\": {timed},\n   \"traced\": {traced}}}",
                w.name()
            ));
        }
    }
    let json = format!(
        "{{{}, \"correct\": {ok},\n \"workloads\": [\n  {}\n ]}}\n",
        report::provenance_json(args.seed, args.seconds),
        rows.join(",\n  ")
    );
    write_out("run.json", &json);
    ok
}

fn aa(n: usize, args: &Args) -> bool {
    let (cells, tally) = run::aa(n, args.seed, |w, seed| {
        let lines = run_in_child(w, seed, args.seconds, false)?;
        let result = lines.last().expect("a run's output ends with its result");
        let number = |key: &str| {
            metrics::result_number(result, key).ok_or(format!("no {key} in the result line"))
        };
        let end_to_end =
            END_TO_END.iter().map(|e| number(e.name)).collect::<Result<Vec<_>, _>>()?;
        eprintln!("aa: {} seed {seed}: {end_to_end:?}", w.name());
        Ok(RunResult {
            end_to_end,
            attempted: number("attempted")? as u64,
            failed: number("failed")? as u64,
            correct: result.contains("\"correct\": true"),
        })
    });
    let json =
        report::aa_report(&cells, &tally, n, &report::provenance_json(args.seed, args.seconds));
    write_out("aa.json", &json);
    !cells.is_empty() && cells.iter().all(|c| c.pass) && tally.correct()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let ok = if args.manifest {
        print!("{}", metrics::manifest());
        true
    } else if let Some(n) = args.aa {
        aa(n, &args)
    } else if let Some(w) = args.workload {
        driver_run(w, &args)
    } else {
        full_report(&args)
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

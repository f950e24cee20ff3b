//! The `perfbench` command.
//!
//! ```text
//! perfbench --bin-dir DIR --workload resolve|stream|cluster --seed N
//!           --seconds S --trace 0|1
//! perfbench --print-pins
//! ```
//!
//! Run from the repository root (normally through `perfbench/run.sh`,
//! which builds the servers first). Prints the run context, the phase
//! tallies, and finally one result line:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`. Results and
//! traced spans are also written under `.perfbench/`.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use perfbench::report::{self, PINS};
use perfbench::run::{run, Config};
use perfbench::workload::{digest, Inputs, Size, Workload, DEFAULT_SEED};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    bins: PathBuf,
}

fn value<'a>(it: &mut impl Iterator<Item = &'a String>, flag: &str) -> Result<&'a String, String> {
    it.next().ok_or_else(|| format!("{flag} needs a value"))
}

fn parse(args: &[String]) -> Result<Option<Args>, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut bins) = (None, None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--print-pins" => return Ok(None),
            "--workload" => {
                let name = value(&mut it, flag)?;
                workload =
                    Some(Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => {
                seed = Some(
                    value(&mut it, flag)?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value(&mut it, flag)?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value(&mut it, flag)?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                });
            }
            "--bin-dir" => bins = Some(PathBuf::from(value(&mut it, flag)?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Some(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        bins: bins.ok_or("--bin-dir is required")?,
    }))
}

fn print_pins() -> Result<(), String> {
    let mut fields = vec![format!("\"seed\":{DEFAULT_SEED}")];
    for w in Workload::ALL {
        let digest = digest(&Inputs::generate(w, DEFAULT_SEED, Size::BENCH)?);
        fields.push(format!("\"{}\":\"{digest}\"", w.name()));
    }
    println!("{{{}}}", fields.join(","));
    Ok(())
}

fn main_inner() -> Result<(), String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some(args) = parse(&raw)? else {
        return print_pins();
    };
    report::check_pin(PINS, args.workload)?;
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    let bins = std::fs::canonicalize(&args.bins)
        .map_err(|e| format!("--bin-dir {}: {e}", args.bins.display()))?;
    let out_dir = root.join(".perfbench");
    let work = out_dir.join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let cfg = Config {
        workload: args.workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        size: Size::BENCH,
        bins,
        work: work.clone(),
        inject: None,
    };
    let report = run(&cfg).map_err(|e| format!("{e} (server logs kept in {})", work.display()))?;
    let context = report::context(&root);
    let details = report::details(&report);
    let result = report::result_line(&report);
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    write(
        &out_dir.join(format!("{stem}.json")),
        &format!("{{\"context\":{context},\"details\":{details},\"result\":{result}}}\n"),
    )?;
    if let Some(tracer) = &report.tracer {
        let path = out_dir.join(format!("{stem}.spans.tsv"));
        tracer
            .write_tsv(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let _ = std::fs::remove_dir_all(&work);
    println!("{{\"context\":{context}}}");
    println!("{details}");
    println!("{result}");
    Ok(())
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn main() -> ExitCode {
    match main_inner() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

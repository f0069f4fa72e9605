//! `perfbench --workload <stream|reload|nips> --seed <n> --seconds <s>
//! --trace <0|1> [--size full|tiny]`
//!
//! Prints a self-describing table, then as its last line one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. Exits 1 when an
//! output check fails (and reports no metrics), 2 on a usage or set-up
//! error.

use nwdp_perfbench::report::{Report, SCHEMA_VERSION};
use nwdp_perfbench::{nips, reload, stream, Opts, Size, SHARDS};
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <stream|reload|nips> --seed <n> \
                     --seconds <s> --trace <0|1> [--size full|tiny]";

fn parse(args: &[String]) -> Result<(String, Opts), String> {
    let mut workload = None;
    let mut opts = Opts { seed: 0, seconds: 10.0, trace: false, size: Size::Full, threads: 1 };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = |what: &str| format!("{flag} {value:?}: expected {what}\n{USAGE}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => opts.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(opts.seconds >= 0.0 && opts.seconds.is_finite()) {
                    return Err(bad("a number of seconds"));
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--size" => {
                opts.size = match value.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    _ => return Err(bad("full or tiny")),
                }
            }
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    let workload = workload.ok_or_else(|| format!("--workload is required\n{USAGE}"))?;
    opts.threads = threads(&workload);
    Ok((workload, opts))
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Worker threads: two, or one on a single-core host. `stream` runs one:
/// at two its rate follows the load other tenants put on the host's
/// cores far more than at one (see the README).
fn threads(workload: &str) -> usize {
    if workload == "stream" {
        1
    } else {
        nproc().min(2)
    }
}

/// Commit of the checkout when it is a git work tree, else "unknown".
fn commit() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, opts) = match parse(&args) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // The program reads its worker count from the environment; set it
    // before the first fan-out. Instrumentation starts off.
    std::env::set_var("NWDP_THREADS", opts.threads.to_string());
    nwdp_obs::set_enabled(false);
    nwdp_obs::set_alert_enabled(false);

    let mut rep = Report::default();
    rep.param("schema", SCHEMA_VERSION);
    rep.param("workload", &workload);
    rep.param("mode", if opts.trace { "traced" } else { "plain" });
    rep.param("commit", commit());
    rep.param("nproc", nproc());
    rep.param("threads", opts.threads);
    rep.param("shards", SHARDS);
    rep.param("seed", opts.seed);
    rep.param("seconds", opts.seconds);
    rep.param("size", if opts.size == Size::Full { "full" } else { "tiny" });
    let result = match workload.as_str() {
        "stream" => stream::run(&opts, &mut rep),
        "reload" => reload::run(&opts, &mut rep),
        "nips" => nips::run(&opts, &mut rep),
        other => Err(format!("unknown workload {other:?}\n{USAGE}")),
    };
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        return ExitCode::from(2);
    }
    let title =
        if opts.trace { "per-layer (traced run)" } else { "end-to-end (tracing and metrics off)" };
    print!("{}", rep.render_table(title));
    println!("{}", rep.render_json());
    if rep.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

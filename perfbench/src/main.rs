//! The benchmark command.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints detail lines, then, as the last line of standard output, one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`. Exits
//! non-zero when an output check failed.

use std::process::ExitCode;

use perfbench::{workloads, Options};

fn parse() -> Result<(String, Options), String> {
    let mut workload = None;
    let mut opts = Options {
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if opts.seconds.is_nan() || opts.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok((workload, opts))
}

fn main() -> ExitCode {
    let (workload, opts) = match parse() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // The engine's recursion runs on the calling thread for the push
    // front-ends; give it the same large stack the engine's own worker
    // threads get.
    let handle = std::thread::Builder::new()
        .name("perfbench".into())
        .stack_size(64 << 20)
        .spawn(move || workloads::run(&workload, &opts).map(|mut r| (r.to_json(opts.trace), r)))
        .expect("spawn the benchmark thread");
    match handle.join() {
        Ok(Ok((json, report))) => {
            for line in &report.lines {
                println!("{line}");
            }
            for p in &report.problems {
                println!("FAILED CHECK: {p}");
            }
            println!("{json}");
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Ok(Err(e)) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
        Err(_) => {
            eprintln!("perfbench: the workload panicked");
            ExitCode::FAILURE
        }
    }
}

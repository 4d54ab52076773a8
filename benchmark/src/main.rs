//! The repo's single benchmark. See `README.md` beside this package and
//! `BENCHMARK.json` at the root of the repo.
//!
//! ```text
//! benchmark --workload NAME --seed N --seconds S --trace 0|1    one workload, one result line
//! benchmark run [--seed N] [--seconds S] [--workload NAME]... [--traced]
//!               [--repeat R] [--quick] [--out FILE]              the suite, one child per workload
//! benchmark compare A.json B.json                               judge B against A by the bounds
//! benchmark selfcheck [--quick] [--seed N]                      the suite twice, then compare
//! ```

mod compare;
mod run;
mod spec;
mod stats;
mod suite;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use run::RunArgs;
use spec::Spec;
use suite::SuiteArgs;

/// `--name value` pairs and bare `--flag`s, in order.
struct Flags(Vec<(String, Option<String>)>);

impl Flags {
    const BARE: [&'static str; 3] = ["--traced", "--quick", "--corrupt-reference"];

    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut out = Vec::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if !arg.starts_with("--") {
                return Err(format!("unexpected argument `{arg}`"));
            }
            if Self::BARE.contains(&arg.as_str()) {
                out.push((arg.clone(), None));
            } else {
                let value = it.next().ok_or_else(|| format!("`{arg}` needs a value"))?;
                out.push((arg.clone(), Some(value.clone())));
            }
        }
        Ok(Flags(out))
    }

    fn has(&self, name: &str) -> bool {
        self.0.iter().any(|(n, _)| n == name)
    }

    fn all(&self, name: &str) -> Vec<String> {
        self.0
            .iter()
            .filter(|(n, _)| n == name)
            .filter_map(|(_, v)| v.clone())
            .collect()
    }

    fn number<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.all(name).last() {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("`{name} {v}` is not a number")),
        }
    }

    fn only(&self, allowed: &[&str]) -> Result<(), String> {
        match self.0.iter().find(|(n, _)| !allowed.contains(&n.as_str())) {
            Some((n, _)) => Err(format!("unknown option `{n}`")),
            None => Ok(()),
        }
    }
}

/// The driver's entry point: one workload, one JSON object as the last
/// line of standard output.
fn one_workload(spec: &Spec, flags: &Flags) -> Result<ExitCode, String> {
    flags.only(&[
        "--workload",
        "--seed",
        "--seconds",
        "--trace",
        "--corrupt-reference",
    ])?;
    let args = RunArgs {
        workload: flags
            .all("--workload")
            .pop()
            .ok_or("missing --workload NAME")?,
        seed: flags.number("--seed")?.unwrap_or(suite::DEFAULT_SEED),
        seconds: flags
            .number("--seconds")?
            .unwrap_or(spec.run_seconds as f64),
        trace: flags.number::<u8>("--trace")?.unwrap_or(0) != 0,
        corrupt_reference: flags.has("--corrupt-reference"),
    };
    let outcome = run::measure(spec, &args)?;
    print!("{}{}", outcome.report, outcome.table());
    println!("{}", outcome.info_line());
    println!("{}", outcome.result_line());
    Ok(ExitCode::SUCCESS)
}

fn suite_args(spec: &Spec, flags: &Flags) -> Result<SuiteArgs, String> {
    let quick = flags.has("--quick");
    let default_seed = if quick {
        suite::QUICK_SEED
    } else {
        suite::DEFAULT_SEED
    };
    Ok(SuiteArgs {
        seed: flags.number("--seed")?.unwrap_or(default_seed),
        // Quick: a pass or two of every workload (the first pass always
        // completes), never a result anyone should quote.
        seconds: match flags.number("--seconds")? {
            Some(s) => s,
            None if quick => 3.0,
            None => spec.run_seconds as f64,
        },
        workloads: flags.all("--workload"),
        traced: flags.has("--traced"),
        repeat: flags.number("--repeat")?.unwrap_or(1),
        quick,
        corrupt_reference: flags.has("--corrupt-reference"),
    })
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    let spec = Spec::load()?;
    let pass = |ok: bool| {
        if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    };
    match args.first().map(String::as_str) {
        Some(first) if first.starts_with("--") => one_workload(&spec, &Flags::parse(args)?),
        Some("run") => {
            let flags = Flags::parse(&args[1..])?;
            flags.only(&[
                "--seed", "--seconds", "--workload", "--traced", "--repeat", "--quick", "--out",
                "--corrupt-reference",
            ])?;
            let out = flags
                .all("--out")
                .pop()
                .map_or_else(|| workloads::out_dir().join("result.json"), PathBuf::from);
            Ok(pass(suite::run(&spec, &suite_args(&spec, &flags)?, &[out])?))
        }
        Some("compare") => match &args[1..] {
            [a, b] => Ok(pass(compare::compare(&spec, &PathBuf::from(a), &PathBuf::from(b))?)),
            _ => Err("usage: benchmark compare A.json B.json".to_owned()),
        },
        Some("selfcheck") => {
            let flags = Flags::parse(&args[1..])?;
            flags.only(&["--seed", "--seconds", "--workload", "--quick", "--repeat"])?;
            // Same code, same seed, two interleaved sets: every end-to-end
            // metric must agree within its bound, every exact metric bit
            // for bit.
            let mut sets = suite_args(&spec, &flags)?;
            sets.traced = true;
            sets.repeat = flags.number("--repeat")?.unwrap_or(3);
            let outs = ["selfcheck-a.json", "selfcheck-b.json"].map(|f| workloads::out_dir().join(f));
            let correct = suite::run(&spec, &sets, &outs)?;
            Ok(pass(compare::compare(&spec, &outs[0], &outs[1])? && correct))
        }
        _ => Err("usage: benchmark (--workload NAME --seed N --seconds S --trace 0|1 | run | compare A B | selfcheck)".to_owned()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

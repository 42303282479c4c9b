//! Captures a built-in workload's reference stream to a trace file.
//!
//! Any generated workload — one of the paper's eleven benchmarks or a
//! stress scenario (`pointer_chase`, `strided_stream`, `phase_mix`,
//! `way_alias_thrash`, `phase_flip`, `conflict_chase`) — is run through
//! its generator once and every micro-op is recorded in the `WPTR` binary
//! format (or, with `--text`, the human-readable twin, which is for
//! reading and diffing: nothing reads it back). A `WPTR` file replays
//! bit-identically through `trace_replay` or a
//! [`wp_workloads::TraceReplay`].
//!
//! With `--profile FILE` (mutually exclusive with `--workload`) every
//! scenario of an adversarial workload profile (see `docs/WORKLOADS.md`)
//! is captured in one run; `--out` then names a directory receiving one
//! `<scenario>.wptr` file per scenario.
//!
//! Usage: `cargo run --release -p wp-experiments --bin trace_capture --
//! (--workload NAME | --profile FILE) --out PATH
//! [--quick] [--ops N] [--seed N] [--text]`

use std::io::BufWriter;
use std::path::{Path, PathBuf};

use wp_experiments::runner::{exit_usage, parse_value, CliError, CliOptions, RunOptions};
use wp_workloads::{capture_to_file, ProfileSpec, TextTraceWriter, WorkloadSpec};

const USAGE: &str = "usage: trace_capture (--workload NAME | --profile FILE) --out PATH \
                     [--quick] [--ops N] [--seed N] [--text]";

/// What to capture: one named workload to one file, or every scenario of
/// a profile into a directory.
enum Source {
    Workload(WorkloadSpec),
    Profile(ProfileSpec),
}

struct Cli {
    source: Source,
    out: PathBuf,
    run: RunOptions,
    text: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Cli, String> {
    let mut workload: Option<WorkloadSpec> = None;
    let mut out: Option<PathBuf> = None;
    let mut text = false;
    let mut shared = CliOptions::default();

    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workload" => {
                let name: String = parse_value("--workload", args.next())?;
                workload = Some(WorkloadSpec::parse(&name).ok_or_else(|| {
                    format!(
                        "unknown workload `{name}` (expected one of: {})",
                        WorkloadSpec::generated_names().join(", ")
                    )
                })?);
            }
            "--out" => out = Some(parse_value("--out", args.next())?),
            "--text" => text = true,
            "--quick" | "--ops" | "--seed" | "--profile" => shared.parse_flag(&arg, &mut args)?,
            other => return Err(CliError::UnknownFlag(other.to_string()).into()),
        }
    }
    if workload.is_some() && shared.profile.is_some() {
        return Err("flags `--workload` and `--profile` are mutually exclusive".into());
    }
    let source = match (workload, shared.load_profile().map_err(|e| e.to_string())?) {
        (Some(workload), _) => Source::Workload(workload),
        (None, Some(profile)) => Source::Profile(profile),
        (None, None) => return Err("missing required flag `--workload` (or `--profile`)".into()),
    };
    Ok(Cli {
        source,
        out: out.ok_or("missing required flag `--out`")?,
        run: shared.run(),
        text,
    })
}

/// Captures one workload's stream to `out`, printing the summary line.
/// Returns false if the capture failed (after printing the error).
fn capture_one(workload: &WorkloadSpec, out: &Path, run: &RunOptions, text: bool) -> bool {
    let label = format!("{} ops={} seed={}", workload.label(), run.ops, run.seed);
    let stream = workload
        .stream(run.ops, run.seed)
        .expect("generated workloads always open");

    let result = if text {
        std::fs::File::create(out)
            .map_err(Into::into)
            .and_then(|file| {
                let mut writer = TextTraceWriter::new(BufWriter::new(file), &label)?;
                for op in stream {
                    writer.write_op(&op)?;
                }
                let records = writer.records();
                writer.finish()?;
                Ok(records)
            })
    } else {
        capture_to_file(stream, out, &label)
    };

    match result {
        Ok(records) => {
            let bytes = std::fs::metadata(out).map(|m| m.len()).unwrap_or(0);
            println!(
                "captured {records} ops of `{label}` to {} ({bytes} bytes, {:.2} bytes/op)",
                out.display(),
                bytes as f64 / records.max(1) as f64,
            );
            true
        }
        Err(error) => {
            eprintln!("error: capture failed: {error}");
            false
        }
    }
}

fn main() {
    let cli = parse_args(std::env::args().skip(1)).unwrap_or_else(|error| exit_usage(USAGE, error));

    let ok = match &cli.source {
        Source::Workload(workload) => capture_one(workload, &cli.out, &cli.run, cli.text),
        Source::Profile(profile) => {
            if let Err(error) = std::fs::create_dir_all(&cli.out) {
                eprintln!(
                    "error: cannot create output directory {}: {error}",
                    cli.out.display()
                );
                std::process::exit(1);
            }
            let extension = if cli.text { "txt" } else { "wptr" };
            // A profile may list one scenario family more than once (with
            // different parameters); suffix repeats so no capture is
            // silently overwritten.
            let mut seen: Vec<&str> = Vec::new();
            let mut all_ok = true;
            for (scenario, workload) in profile.scenarios.iter().zip(profile.workloads()) {
                let repeats = seen.iter().filter(|n| **n == scenario.name()).count();
                seen.push(scenario.name());
                let file = if repeats == 0 {
                    format!("{}.{extension}", scenario.name())
                } else {
                    format!("{}-{}.{extension}", scenario.name(), repeats + 1)
                };
                all_ok &= capture_one(&workload, &cli.out.join(file), &cli.run, cli.text);
            }
            println!(
                "captured profile `{}` (tier {}, {} scenarios) into {}",
                profile.name,
                profile.tier.name(),
                profile.scenarios.len(),
                cli.out.display()
            );
            all_ok
        }
    };
    if !ok {
        std::process::exit(1);
    }
}

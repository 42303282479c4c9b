//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path ledger/Cargo.toml -- \
//!     --workload paper_sweep|serve_points|stress_stream --seed N \
//!     --seconds N --trace 0|1
//! cargo run --release --manifest-path ledger/Cargo.toml -- --self-test
//! ```
//!
//! Run from the root of a checkout. The harness builds the release
//! `run_all` and `serve` binaries first (untimed), then either measures one
//! workload end to end for `--seconds` (`--trace 0`) or runs the per-layer
//! ledger (`--trace 1`). The last line of stdout is the result; a record
//! with the host fingerprint, sample counts and (traced) spans is written
//! under `.bench_out/`. See `ledger/README.md`.

mod e2e;
mod host;
mod layers;
mod report;

use std::process::ExitCode;

use e2e::{Ctx, Scale, Workload};
use report::{Metric, Outcome, END_TO_END, PER_LAYER};

const USAGE: &str = "usage: wp-ledger --workload NAME --seed N --seconds N --trace 0|1\n       \
                     wp-ledger --self-test\n\
                     workloads: paper_sweep, serve_points, stress_stream";

/// The committed profile the `stress_stream` workload sweeps.
const STRESS_PROFILE: &str = "tests/profiles/stress.json";

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// [`Scale::QUICK`] inputs, for the self-test.
    quick: bool,
}

enum Mode {
    Run(Args),
    SelfTest,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Mode, String> {
    let mut args = args.peekable();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| args.next().ok_or(format!("`{flag}` requires a value"));
        match arg.as_str() {
            "--self-test" => return Ok(Mode::SelfTest),
            "--workload" => {
                let name = value("--workload")?;
                workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => {
                let raw = value("--seed")?;
                seed = Some(raw.parse().map_err(|_| format!("bad --seed `{raw}`"))?);
            }
            "--seconds" => {
                let raw = value("--seconds")?;
                seconds = Some(
                    raw.parse()
                        .ok()
                        .filter(|&s: &u64| s > 0)
                        .ok_or(format!("bad --seconds `{raw}`"))?,
                );
            }
            "--trace" => {
                trace = Some(match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad --trace `{other}`")),
                });
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Mode::Run(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        quick: false,
    }))
}

/// Everything a run needs from the host, set up before any timing.
struct Setup {
    bins: host::Binaries,
    stress: wp_workloads::ProfileSpec,
    fingerprint: String,
    scratch: host::Scratch,
}

fn set_up() -> Result<Setup, String> {
    host::check_checkout()?;
    let scratch = host::Scratch::create().map_err(|e| format!("cannot create scratch: {e}"))?;
    let bins = host::build_binaries()?;
    let stress = wp_workloads::ProfileSpec::load(STRESS_PROFILE).map_err(|e| e.to_string())?;
    Ok(Setup {
        bins,
        stress,
        fingerprint: host::fingerprint(),
        scratch,
    })
}

/// One measured run: its metrics, outcome, and the record written beside
/// the result.
fn measure(setup: &Setup, args: &Args) -> Result<(Vec<Metric>, Outcome, String), String> {
    let ctx = Ctx {
        bins: &setup.bins,
        scratch: &setup.scratch,
        seed: args.seed,
        scale: if args.quick {
            Scale::QUICK
        } else {
            Scale::FULL
        },
        stress: &setup.stress,
    };
    let mut outcome = Outcome::default();
    let (metrics, detail) = if args.trace {
        let (metrics, recorder) =
            layers::run(&ctx, &mut outcome).map_err(|e| format!("traced run failed: {e}"))?;
        (metrics, format!("\"spans\":{}", recorder.to_json()))
    } else {
        let samples = e2e::run(args.workload, &ctx, args.seconds as f64, &mut outcome)
            .map_err(|e| format!("{} failed: {e}", args.workload.name()))?;
        (
            samples.metrics(),
            format!("\"samples\":{}", samples.to_json()),
        )
    };
    let registry = if args.trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    let metrics = report::complete(metrics, registry, &mut outcome);
    let record = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"fingerprint\":{},\
         \"metrics\":{},\"failures\":[{}],{detail}}}\n",
        args.workload.name(),
        args.seed,
        args.trace,
        setup.fingerprint,
        report::metrics_json(&metrics),
        outcome
            .failures
            .iter()
            .map(|f| host::json_string(f))
            .collect::<Vec<_>>()
            .join(","),
    );
    Ok((metrics, outcome, record))
}

fn run(args: &Args) -> Result<ExitCode, String> {
    let setup = set_up()?;
    let (metrics, outcome, record) = measure(&setup, args)?;
    let out_dir = std::path::Path::new(".bench_out");
    let record_path = out_dir.join(format!(
        "{}-seed{}{}.json",
        args.workload.name(),
        args.seed,
        if args.trace { "-trace" } else { "" }
    ));
    std::fs::create_dir_all(out_dir)
        .and_then(|()| std::fs::write(&record_path, record))
        .map_err(|e| format!("cannot write {}: {e}", record_path.display()))?;
    println!("fingerprint: {}", setup.fingerprint);
    println!("{}", report::result_line(&outcome, &metrics));
    Ok(if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Checks a run's metrics against a registry: every name once, in order.
fn check_names(what: &str, metrics: &[Metric], registry: &[(&str, &str)]) -> Result<(), String> {
    let got: Vec<&str> = metrics.iter().map(|m| m.name).collect();
    let want: Vec<&str> = registry.iter().map(|m| m.0).collect();
    if got != want {
        return Err(format!("{what}: emitted {got:?}, registered {want:?}"));
    }
    match metrics.iter().find(|m| !m.value.is_finite()) {
        Some(m) => Err(format!("{what}: {} is {}", m.name, m.value)),
        None => Ok(()),
    }
}

/// Checks that `BENCHMARK.json` declares exactly the registered metrics,
/// with their units, and the declared workloads.
fn check_declaration() -> Result<(), String> {
    let text = std::fs::read_to_string("BENCHMARK.json").map_err(|e| e.to_string())?;
    let json = serde_json::from_str(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let declared = |section: &str, field: &str| -> Vec<String> {
        json.get(section)
            .and_then(serde::Value::as_array)
            .map(|items| {
                items
                    .iter()
                    .filter_map(|m| m.get(field).and_then(serde::Value::as_str))
                    .map(str::to_string)
                    .collect()
            })
            .unwrap_or_default()
    };
    let registry = |metrics: &[(&str, &str)], field: usize| -> Vec<String> {
        metrics
            .iter()
            .map(|m| if field == 0 { m.0 } else { m.1 }.to_string())
            .collect()
    };
    let workloads: Vec<String> = Workload::DECLARED
        .iter()
        .map(|w| w.name().to_string())
        .collect();
    let pairs = [
        (declared("end_to_end", "name"), registry(&END_TO_END, 0)),
        (declared("end_to_end", "unit"), registry(&END_TO_END, 1)),
        (declared("per_layer", "name"), registry(&PER_LAYER, 0)),
        (declared("per_layer", "unit"), registry(&PER_LAYER, 1)),
        (declared("workloads", "name"), workloads),
    ];
    for (declared, registered) in pairs {
        if declared != registered {
            return Err(format!(
                "BENCHMARK.json declares {declared:?}, the harness emits {registered:?}"
            ));
        }
    }
    Ok(())
}

/// The process residual recomputed from the probe spans in a traced run's
/// record: the fastest probe process minus the fastest in-process engine +
/// Table 4 + render.
fn probe_residual(record: &str) -> Result<f64, String> {
    let json = serde_json::from_str(record).map_err(|e| format!("run record: {e}"))?;
    let spans = json
        .get("spans")
        .and_then(serde::Value::as_array)
        .ok_or("the run record has no spans")?;
    let seconds = |name: &str| -> Vec<f64> {
        spans
            .iter()
            .filter(|span| span.get("name").and_then(serde::Value::as_str) == Some(name))
            .filter_map(|span| {
                let at = |key: &str| span.get(key).and_then(serde::Value::as_f64);
                Some((at("end_ns")? - at("start_ns")?) / 1e9)
            })
            .collect()
    };
    let process = seconds("probe.process");
    let parts = ["probe.engine", "probe.table4", "probe.render"].map(seconds);
    if process.len() != layers::PROBE_PAIRS || parts.iter().any(|p| p.len() != process.len()) {
        return Err(format!(
            "expected {} probe pairs, the record holds {}",
            layers::PROBE_PAIRS,
            process.len()
        ));
    }
    let min = |values: Vec<f64>| values.into_iter().reduce(f64::min).unwrap_or(f64::NAN);
    let in_process = (0..process.len())
        .map(|i| parts.iter().map(|p| p[i]).sum::<f64>())
        .collect();
    Ok(min(process) - min(in_process))
}

/// The quick-size self-test: every workload and the traced run at
/// [`Scale::QUICK`], asserting the emitted metric sets, the residual
/// identities, and that every output and count check passed.
fn self_test() -> Result<(), String> {
    check_declaration()?;
    let setup = set_up()?;
    for workload in Workload::ALL {
        let args = Args {
            workload,
            seed: 7,
            seconds: 1,
            trace: false,
            quick: true,
        };
        let (metrics, outcome, _) = measure(&setup, &args)?;
        check_names(workload.name(), &metrics, &END_TO_END)?;
        if outcome.failed > 0 || outcome.attempted == 0 {
            return Err(format!("{}: {:?}", workload.name(), outcome.failures));
        }
        eprintln!(
            "self-test: {} ok ({} operations)",
            workload.name(),
            outcome.attempted
        );
    }
    let args = Args {
        workload: Workload::PaperSweep,
        seed: 7,
        seconds: 1,
        trace: true,
        quick: true,
    };
    let (metrics, outcome, record) = measure(&setup, &args)?;
    check_names("traced run", &metrics, &PER_LAYER)?;
    if outcome.failed > 0 {
        return Err(format!("traced run: {:?}", outcome.failures));
    }
    let get = |name: &str| {
        metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
            .expect("every registered metric was emitted")
    };
    let residuals = [
        (
            "cpu.sched_residual_ns_per_op",
            get("cpu.scalar_ns_per_op")
                - (get("workloads.replay_resident_ns_per_op")
                    + get("cpu.branch_per_op") * get("predictors.branch_update_ns")
                    + get("cpu.mem_per_op") * get("cache.dprobe.parallel_ns")
                    + get("cpu.fetch_per_op") * get("cache.ifetch.parallel_ns")
                    + get("cpu.l2_per_op") * get("mem.l2_ns")),
        ),
        ("experiments.process_residual_s", probe_residual(&record)?),
        (
            "serve.roundtrip_residual_us",
            get("serve.roundtrip_p50_us")
                - (get("serve.parse_request_us")
                    + get("serve.matrix_load_us")
                    + get("serve.render_ok_us")),
        ),
    ];
    for (name, expected) in residuals {
        let got = get(name);
        if (got - expected).abs() > 1e-9 * expected.abs().max(1.0) {
            return Err(format!("{name} is {got}, its definition gives {expected}"));
        }
    }
    for (name, cells) in [
        ("fidelity.table4_cells", 22.0),
        ("fidelity.table5_cells", 12.0),
    ] {
        if get(name) != cells {
            return Err(format!("{name} is {}, expected {cells}", get(name)));
        }
    }
    eprintln!(
        "self-test: traced run ok ({} operations)",
        outcome.attempted
    );
    Ok(())
}

fn main() -> ExitCode {
    // Before any thread or child starts: nothing inherits these.
    host::scrub_env();
    let mode = match parse_args(std::env::args().skip(1)) {
        Ok(mode) => mode,
        Err(error) => {
            eprintln!("error: {error}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match mode {
        Mode::SelfTest => self_test().map(|()| {
            println!("self-test: ok");
            ExitCode::SUCCESS
        }),
        Mode::Run(args) => run(&args),
    };
    result.unwrap_or_else(|error| {
        eprintln!("error: {error}");
        ExitCode::FAILURE
    })
}

//! `oaasbench`: the end-to-end and per-layer benchmark of the embedded
//! OaaS platform.
//!
//! ```text
//! oaasbench --workload <iot_twin|json_batch|image_pipeline|cluster_chaos>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Drives the platform's reference applications through its public API
//! on the virtual clock, checks every output against an oracle computed
//! apart from the platform, and prints one JSON line: the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics (`--trace 1`). The
//! timed phase is a fixed amount of work: `--seconds` worth of rounds at
//! the workload's rate on the reference host. See `README.md` beside
//! this package for the workloads and metrics.

mod alloc;
mod bench;
mod hist;
mod meter;
mod trace;
mod workloads;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10.0, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("oaasbench: {e}");
            std::process::exit(2);
        }
    };
    let Some(setup) = workloads::find(&args.workload) else {
        eprintln!(
            "oaasbench: unknown workload {:?} (have {})",
            args.workload,
            workloads::NAMES.join(", ")
        );
        std::process::exit(2);
    };
    workloads::quiet_injected_panics();
    let outcome = match bench::run(setup, args.seed, args.seconds, args.trace) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("oaasbench: {e}");
            println!("{{\"correct\": false, \"attempted\": 1, \"failed\": 0, \"metrics\": {{}}}}");
            std::process::exit(1);
        }
    };
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    );
}

//! Wall-clock benchmark of the dense, candidate and serve workloads.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload dense|candidate|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the
//! per-layer ones; either way the last line is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. The process exits
//! non-zero when an output check fails.

mod alloc;
mod client;
mod offline;
mod probes;
mod report;
mod serve;
mod spans;

use report::Report;
use std::path::PathBuf;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 25.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse::<u32>().map_err(|_| bad())? as f64,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["dense", "candidate", "serve"].contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}: dense, candidate or serve"
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Pin the process to one CPU, the one it is running on, before any
/// thread starts. The simulator fans each launch out over
/// `available_parallelism()` threads and joins them; on a shared host a
/// stall of any one CPU stalls the join, which made wall times swing by
/// a factor of two between runs. On one CPU the simulator runs its
/// blocks on one thread and a run only feels the load of its own CPU.
/// Returns the CPU pinned to.
#[cfg(target_os = "linux")]
fn pin_to_one_cpu() -> Option<usize> {
    // A `cpu_set_t` of glibc and musl: 1024 bits.
    const WORDS: usize = 16;
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    // SAFETY: no arguments; returns the calling thread's CPU or -1.
    let cpu = usize::try_from(unsafe { sched_getcpu() }).ok()?;
    if cpu >= WORDS * 64 {
        return None;
    }
    let mut one = [0u64; WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of the size passed; pid 0 is
    // the calling thread, the only one at this point.
    let set = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
    (set == 0).then_some(cpu)
}

#[cfg(not(target_os = "linux"))]
fn pin_to_one_cpu() -> Option<usize> {
    None
}

/// Scratch space inside the build directory: `$CARGO_TARGET_DIR` when
/// set, else the benchmark's own `target/`.
pub fn work_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target"))
        .join("perfbench")
}

/// Write the traced run's spans and print each layer's self time.
pub fn write_spans(workload: &str, seed: u64, tracer: &spans::Tracer, report: &mut Report) {
    let spans = tracer.spans();
    for (name, t) in spans::self_times(&spans) {
        report.note(format!(
            "span {name:<32} count={:<6} total_s={:.6} self_s={:.6}",
            t.count, t.total_s, t.self_s
        ));
    }
    let dir = work_dir().join("spans");
    let path = dir.join(format!("{workload}-seed{seed}.jsonl"));
    let written =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, spans::to_jsonl(&spans)));
    match written {
        Ok(()) => report.note(format!(
            "{} spans written to {}",
            spans.len(),
            path.display()
        )),
        Err(e) => report.note(format!("spans not written to {}: {e}", path.display())),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let pinned = pin_to_one_cpu();
    let mut report = Report::new(&args.workload, args.trace);
    report.note(format!(
        "workload={} seed={} seconds={} trace={} pinned_cpu={pinned:?} threads={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    ));
    let tracer = spans::Tracer::new(args.trace);
    match args.workload.as_str() {
        "serve" => serve::run(args.seed, args.seconds, &tracer, &mut report),
        w => offline::run(w, args.seed, args.seconds, &tracer, &mut report),
    }
    if args.trace {
        if args.workload == "candidate" {
            // The comparison runs dense and candidate only: serve's
            // end-to-end times swing with the host's speed by more than
            // any bound could hold (see the README). Its layers are still
            // measured, by a traced serve session in this run.
            let mut served = Report::new("serve", true);
            serve::run(args.seed, args.seconds, &tracer, &mut served);
            report.adopt(served, &["http.", "serve.", "gen."]);
        }
        probes::launch(&tracer, &mut report);
        probes::observability(args.seed, &tracer, &mut report);
        write_spans(&args.workload, args.seed, &tracer, &mut report);
    }
    if !report.print() {
        std::process::exit(1);
    }
}

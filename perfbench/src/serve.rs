//! The `serve` workload: an in-process `tsp-serve` (1 device × 2
//! streams) driven over loopback HTTP by a two-thread load generator.
//!
//! * steady phase — an open loop at [`STEADY_RATE`] jobs/s; each job's
//!   latency runs from when it was due to be sent until its terminal
//!   state was observed, so a generator stall counts against the
//!   system;
//! * burst phase — [`BURST`] jobs sent back to back; throughput is
//!   jobs ÷ makespan.
//!
//! The two alternate for [`ROUNDS`] rounds. Every round serves the same
//! steady jobs and then solves them in-process through the facade; a
//! steady job's latency and solve times are its best over the rounds.
//! The burst throughput is the median of the rounds.
//!
//! Jobs are n = 64 clustered instances with 2–4 ILS iterations, spread
//! over [`TENANTS`] tenants so the per-tenant quota of 16 never refuses
//! one. Every request is solved in-process at least once, which gives
//! the length each served job must match.

use crate::alloc;
use crate::client::Client;
use crate::probes;
use crate::report::{median, percentile, Report};
use crate::spans::Tracer;
use std::collections::VecDeque;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::mpsc;
use std::time::{Duration, Instant};
use tsp::prelude::*;
use tsp::tsplib::Style;
use tsp_serve::{
    FromRequest, JobState, JobStatus, RequestSpan, ServeServer, ServiceConfig, SolveRequest,
    SolveResponse, SolveService, Stage,
};

/// Open-loop arrival rate of the steady phase, jobs/s: low enough that
/// the two lanes stay well below saturation even when the host takes a
/// share of the CPU away, so the queue stays near empty.
const STEADY_RATE: f64 = 20.0;
/// Share of `--seconds` the steady phase lasts.
const STEADY_SHARE: f64 = 0.5;
/// Jobs of the burst phase.
const BURST: usize = 192;
/// Closed-loop jobs before timing starts.
const WARMUP: usize = 8;
const TENANTS: usize = 24;
/// Streams of the one device, hence service lanes (worker threads).
const STREAMS: usize = 2;
/// Service boots before the first job; the median of these and of
/// [`BOOTS_PER_ROUND`] more after each round counts.
const SETUP_REPS: usize = 5;
/// Set-up samples taken after each round, so they span the run.
const BOOTS_PER_ROUND: usize = 3;
/// Steady segments and bursts alternate this many times.
const ROUNDS: usize = 5;
/// Status polling cadence.
const TICK: Duration = Duration::from_millis(2);
/// A phase that has not finished by then has failed.
const PHASE_LIMIT: Duration = Duration::from_secs(30);

/// One generated job: its request and the JSON body sent for it.
struct Job {
    request: SolveRequest,
    body: String,
}

fn jobs(seed: u64, count: usize) -> Vec<Job> {
    (0..count)
        .map(|j| {
            let inst = tsp::tsplib::generate(
                &format!("serve-{j}"),
                64,
                Style::Clustered { clusters: 4 },
                seed,
            );
            let request = SolveRequest::tsplib(tsp::tsplib::write(&inst))
                .with_tenant(format!("tenant-{:02}", j % TENANTS))
                .with_ils_iterations(2 + (j % 3) as u64)
                .with_seed(seed.wrapping_add(j as u64));
            let body = request.to_json().to_string();
            Job { request, body }
        })
        .collect()
}

/// What the load generator saw of one job.
struct Seen {
    index: usize,
    job_id: Option<String>,
    due: Instant,
    sent: Instant,
    acked: Instant,
    done: Option<Instant>,
    status: Option<JobStatus>,
    polls: Vec<(Instant, Instant)>,
    error: Option<String>,
}

struct Phase {
    start: Instant,
    seen: Vec<Seen>,
    late_s: Vec<f64>,
    connects: u64,
}

impl Phase {
    /// Time from the first due send to the last observed completion.
    fn makespan(&self) -> f64 {
        let end = self
            .seen
            .iter()
            .filter_map(|s| s.done)
            .max()
            .unwrap_or(self.start);
        (end - self.start).as_secs_f64()
    }
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// Submit `indices` (`rate` = open loop, `None` = back to back) from
/// one thread and poll them from another, each on its own kept-alive
/// connection. In a burst only the oldest outstanding job is polled.
fn drive(addr: SocketAddr, jobs: &[Job], indices: &[usize], rate: Option<f64>) -> Phase {
    let (tx, rx) = mpsc::channel::<Seen>();
    let start = Instant::now();
    std::thread::scope(|scope| {
        let submitter = scope.spawn(move || {
            let mut client = Client::new(addr);
            let mut late_s = Vec::new();
            for (k, &index) in indices.iter().enumerate() {
                let due = match rate {
                    Some(r) => start + Duration::from_secs_f64(k as f64 / r),
                    None => Instant::now(),
                };
                sleep_until(due);
                let sent = Instant::now();
                late_s.push((sent - due).as_secs_f64());
                let reply = client.request("POST", "/v1/solve", &jobs[index].body);
                let acked = Instant::now();
                let (job_id, error) = match reply {
                    Ok((202, body)) => match SolveResponse::parse(&body) {
                        Ok(r) => (Some(r.job_id), None),
                        Err(e) => (None, Some(format!("bad submit response: {e}"))),
                    },
                    Ok((status, body)) => (None, Some(format!("submit refused {status}: {body}"))),
                    Err(e) => (None, Some(format!("submit failed: {e}"))),
                };
                let seen = Seen {
                    index,
                    job_id,
                    due,
                    sent,
                    acked,
                    done: None,
                    status: None,
                    polls: Vec::new(),
                    error,
                };
                if tx.send(seen).is_err() {
                    break;
                }
            }
            (late_s, client.connects)
        });
        let poller = scope.spawn(move || poll(addr, rx, rate.is_none(), start));
        let (late_s, submit_connects) = submitter.join().expect("submit thread panicked");
        let (seen, poll_connects) = poller.join().expect("poll thread panicked");
        Phase {
            start,
            seen,
            late_s,
            connects: submit_connects + poll_connects,
        }
    })
}

fn poll(
    addr: SocketAddr,
    rx: mpsc::Receiver<Seen>,
    oldest_only: bool,
    start: Instant,
) -> (Vec<Seen>, u64) {
    let mut client = Client::new(addr);
    let mut outstanding: VecDeque<Seen> = VecDeque::new();
    let mut finished = Vec::new();
    let mut open = true;
    let mut tick = Instant::now();
    while open || !outstanding.is_empty() {
        loop {
            match rx.try_recv() {
                Ok(seen) if seen.job_id.is_some() => outstanding.push_back(seen),
                Ok(seen) => finished.push(seen),
                Err(mpsc::TryRecvError::Empty) => break,
                Err(mpsc::TryRecvError::Disconnected) => {
                    open = false;
                    break;
                }
            }
        }
        if start.elapsed() > PHASE_LIMIT {
            for mut seen in outstanding.drain(..) {
                seen.error = Some("no terminal state within the phase limit".into());
                finished.push(seen);
            }
            break;
        }
        let mut i = 0;
        while i < outstanding.len() {
            let seen = &mut outstanding[i];
            let path = format!("/v1/jobs/{}", seen.job_id.as_deref().unwrap_or_default());
            let t0 = Instant::now();
            let reply = client.request("GET", &path, "");
            let t1 = Instant::now();
            seen.polls.push((t0, t1));
            let terminal = match reply {
                Ok((200, body)) => match JobStatus::parse(&body) {
                    Ok(status) if status.state.is_terminal() => {
                        seen.status = Some(status);
                        true
                    }
                    Ok(_) => false,
                    Err(e) => {
                        seen.error = Some(format!("bad status: {e}"));
                        true
                    }
                },
                Ok((status, body)) => {
                    seen.error = Some(format!("status refused {status}: {body}"));
                    true
                }
                Err(e) => {
                    seen.error = Some(format!("status failed: {e}"));
                    true
                }
            };
            if terminal {
                let mut seen = outstanding.remove(i).expect("index in range");
                seen.done = Some(t1);
                finished.push(seen);
            } else if oldest_only {
                break;
            } else {
                i += 1;
            }
        }
        tick += TICK;
        let now = Instant::now();
        if tick < now {
            tick = now;
        }
        sleep_until(tick);
    }
    finished.sort_by_key(|s| s.index);
    (finished, client.connects)
}

/// Boot the service and bind its HTTP front. The profiler handle
/// shares the service's device-memory ledger.
fn boot(dir: &Path, lanes: usize) -> (ServeServer, Profiler) {
    let cfg = ServiceConfig::default()
        .with_devices(1)
        .with_streams(lanes)
        .with_artifacts_dir(dir);
    let prof = Profiler::attached();
    let service = SolveService::start(cfg, Telemetry::attached(), prof.clone())
        .expect("boot the solve service");
    let server = ServeServer::spawn("127.0.0.1:0", service).expect("bind a loopback port");
    (server, prof)
}

/// Count and check one phase's jobs: each must end `Done`.
fn tally(phase: &Phase, report: &mut Report) {
    for seen in &phase.seen {
        report.attempted += 1;
        let done = seen
            .status
            .as_ref()
            .is_some_and(|s| s.state == JobState::Done);
        if !done || seen.error.is_some() {
            report.failed += 1;
            let state = seen.status.as_ref().map(|s| s.state.as_str());
            report.note(format!(
                "job {} not done ({state:?}): {}",
                seen.index,
                seen.error.as_deref().unwrap_or("")
            ));
        }
    }
}

/// One in-process facade solve of a request.
struct Direct {
    wall: f64,
    checks: u64,
    length: i64,
    initial: i64,
    tour: Vec<u32>,
    profile: tsp::twoopt::StepProfile,
}

fn direct(request: &SolveRequest, engine: EngineKind) -> Option<Direct> {
    let inst = request.instance().ok()?;
    let solver = SolverBuilder::from_request(request)
        .ok()?
        .engine(engine)
        .build();
    let t0 = Instant::now();
    let s = solver.run(&inst).ok()?;
    let wall = t0.elapsed().as_secs_f64();
    s.tour.validate().ok()?;
    Some(Direct {
        wall,
        checks: s.profile.pairs_checked,
        length: s.length,
        initial: s.initial_length,
        tour: s.tour.as_slice().to_vec(),
        profile: s.profile,
    })
}

/// In-process facade solves of the requests on both engines, every
/// result kept per job.
struct InProcess {
    gpu: Vec<Vec<Direct>>,
    seq: Vec<Vec<Direct>>,
}

impl InProcess {
    fn new(jobs: usize) -> InProcess {
        InProcess {
            gpu: (0..jobs).map(|_| Vec::new()).collect(),
            seq: (0..jobs).map(|_| Vec::new()).collect(),
        }
    }

    fn solve(&mut self, jobs: &[Job], ix: &[usize], tracer: &Tracer, report: &mut Report) {
        for &j in ix {
            report.attempted += 2;
            let _span = tracer.span("solver.run", None, j as u64);
            match (
                direct(&jobs[j].request, EngineKind::Gpu),
                direct(&jobs[j].request, EngineKind::Sequential),
            ) {
                (Some(g), Some(s)) => {
                    self.gpu[j].push(g);
                    self.seq[j].push(s);
                }
                _ => {
                    report.failed += 2;
                    report.note(format!("job {j}: in-process solve failed"));
                }
            }
        }
    }

    /// Each job's first Gpu result, if every job has one.
    fn first(&self) -> Option<Vec<&Direct>> {
        self.gpu.iter().map(|g| g.first()).collect()
    }
}

/// Each job's best wall time over its repeated solves.
fn best_walls(solves: &[Vec<Direct>], ix: &[usize]) -> Vec<f64> {
    ix.iter()
        .map(|&j| {
            solves[j]
                .iter()
                .map(|d| d.wall)
                .fold(f64::INFINITY, f64::min)
        })
        .collect()
}

/// Run the serve workload. With the tracer on, one round is followed
/// by a traced steady phase and traced bursts, and the per-layer
/// metrics are reported.
pub fn run(seed: u64, seconds: f64, tracer: &Tracer, report: &mut Report) {
    let trace = tracer.is_on();
    let lanes = STREAMS;
    let steady_jobs = (STEADY_RATE * STEADY_SHARE * seconds / ROUNDS as f64)
        .round()
        .max(10.0) as usize;
    let jobs = jobs(seed, WARMUP + steady_jobs + BURST);
    let warmup: Vec<usize> = (0..WARMUP).collect();
    let steady_ix: Vec<usize> = (WARMUP..WARMUP + steady_jobs).collect();
    let burst_ix: Vec<usize> = (WARMUP + steady_jobs..jobs.len()).collect();
    let dir = crate::work_dir().join(format!("serve-{seed}-{}", std::process::id()));

    // Set-up: boot + arena install + bind. Spare services boot in
    // their own artifacts dir and shut down at once; the last boot is
    // the service the run drives.
    let spare = dir.with_extension("boots");
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&spare);
    let mut boots = Vec::new();
    let timed_boot = |dir: &Path, boots: &mut Vec<f64>| {
        let t0 = Instant::now();
        let booted = boot(dir, lanes);
        let t1 = Instant::now();
        tracer.record("serve.boot", None, boots.len() as u64, t0, t1);
        boots.push((t1 - t0).as_secs_f64());
        booted
    };
    let spare_boots = |n: usize, boots: &mut Vec<f64>| {
        for _ in 0..n {
            timed_boot(&spare, boots).0.shutdown();
        }
    };
    spare_boots(SETUP_REPS - 1, &mut boots);
    let (server, prof) = timed_boot(&dir, &mut boots);
    let addr = server.addr();
    let rounds = if trace { 1 } else { ROUNDS };
    report.note(format!(
        "tsp-serve on {addr}: 1 device x {lanes} streams; {WARMUP} warm-up jobs, then {rounds} rounds of the same {steady_jobs} steady jobs at {STEADY_RATE}/s and a {BURST}-job burst"
    ));

    tally(&drive(addr, &jobs, &warmup, None), report);
    // Every round serves the same steady jobs, then the burst, then
    // solves the steady jobs in-process. The host's speed drifts by
    // tens of percent over minutes; a job's best round is its cost on
    // this host at its fastest, which holds still from run to run.
    let mut steady = Vec::new();
    let mut bursts = Vec::new();
    let mut direct = InProcess::new(jobs.len());
    for _ in 0..rounds {
        steady.push(drive(addr, &jobs, &steady_ix, Some(STEADY_RATE)));
        bursts.push(drive(addr, &jobs, &burst_ix, None));
        spare_boots(BOOTS_PER_ROUND, &mut boots);
        if !trace {
            direct.solve(&jobs, &steady_ix, tracer, report);
        }
    }
    // Traced: a steady segment, then traced bursts alternating with
    // more untraced ones, so the tracing price is a ratio of medians.
    let traced = trace.then(|| {
        let steady = drive(addr, &jobs, &steady_ix, Some(STEADY_RATE));
        let mut traced_bursts = Vec::new();
        let mut allocs = 0;
        for _ in 0..2 {
            alloc::set_counting(true);
            let a0 = alloc::allocations();
            traced_bursts.push(drive(addr, &jobs, &burst_ix, None));
            allocs += alloc::allocations() - a0;
            alloc::set_counting(false);
            bursts.push(drive(addr, &jobs, &burst_ix, None));
        }
        (steady, traced_bursts, allocs)
    });
    server.shutdown();
    // As `serve_smoke` pins it: the arena install is the only device
    // allocation, and shutdown returns it.
    let memory = prof.memory_report();
    report.check(
        "device memory ledger balances after shutdown",
        memory.balanced(),
    );
    let allocs: u64 = memory.devices.iter().map(|d| d.allocs).sum();
    report.check(
        "no device allocation besides the one arena install",
        allocs == 1,
    );
    let mut served: Vec<&Phase> = steady.iter().chain(&bursts).collect();
    if let Some((s, b, _)) = &traced {
        served.push(s);
        served.extend(b);
    }
    for phase in &served {
        tally(phase, report);
    }

    // Every job not solved in-process yet, once: the result each
    // served job must match.
    let rest: Vec<usize> = (0..jobs.len())
        .filter(|&j| direct.gpu[j].is_empty())
        .collect();
    direct.solve(&jobs, &rest, tracer, report);
    let first = direct.first();
    report.check(
        "every request solves in-process on both engines",
        first.is_some(),
    );
    let Some(first) = first else {
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&spare);
        return;
    };
    report.check(
        "Gpu and Sequential in-process tours match bit for bit, on every repeat",
        direct.gpu.iter().zip(&direct.seq).all(|(g, s)| {
            let tour = &g[0].tour;
            g.iter().chain(s).all(|d| &d.tour == tour)
        }),
    );
    let matches = served.iter().flat_map(|p| &p.seen).all(|seen| {
        let d = first[seen.index];
        seen.status.as_ref().is_some_and(|s| {
            s.length == Some(d.length)
                && s.initial_length == Some(d.initial)
                && s.tour.as_deref() == Some(&d.tour[..])
        })
    });
    report.check(
        "every served job matches the in-process Solver::run",
        matches,
    );

    if let Some((steady, burst, allocs)) = traced {
        per_layer(
            &jobs,
            &dir,
            &first,
            (&steady, &burst, allocs),
            &bursts,
            tracer,
            report,
        );
    } else {
        end_to_end(
            &boots, &direct, &first, &steady_ix, &steady, &bursts, report,
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&spare);
}

fn end_to_end(
    boots: &[f64],
    direct: &InProcess,
    first: &[&Direct],
    steady_ix: &[usize],
    steady: &[Phase],
    bursts: &[Phase],
    report: &mut Report,
) {
    let walls = best_walls(&direct.gpu, steady_ix);
    let refs = best_walls(&direct.seq, steady_ix);
    let checks: u64 = steady_ix.iter().map(|&j| direct.gpu[j][0].checks).sum();
    let gains: Vec<f64> = first
        .iter()
        .map(|d| 100.0 * (d.initial - d.length) as f64 / d.initial as f64)
        .collect();
    // Each steady job's best latency over the rounds.
    let mut best = vec![f64::INFINITY; first.len()];
    for seen in steady.iter().flat_map(|p| &p.seen) {
        if let Some(done) = seen.done {
            let ms = (done - seen.due).as_secs_f64() * 1e3;
            best[seen.index] = best[seen.index].min(ms);
        }
    }
    let latency: Vec<f64> = steady_ix.iter().map(|&j| best[j]).collect();
    let throughput: Vec<f64> = bursts
        .iter()
        .map(|b| b.seen.len() as f64 / b.makespan())
        .collect();
    report.e2e("setup_s", median(boots), boots.len());
    report.e2e("solve_s", median(&walls), walls.len());
    report.e2e(
        "checks_per_s",
        checks as f64 / walls.iter().sum::<f64>(),
        walls.len(),
    );
    report.e2e("ref_solve_s", median(&refs), refs.len());
    report.e2e(
        "tour_gain_pct",
        gains.iter().sum::<f64>() / gains.len() as f64,
        gains.len(),
    );
    report.e2e("p50_ms", percentile(&latency, 0.50), latency.len());
    report.e2e("p95_ms", percentile(&latency, 0.95), latency.len());
    report.e2e("burst_jobs_per_s", median(&throughput), throughput.len());
    let late = steady
        .iter()
        .flat_map(|p| &p.late_s)
        .copied()
        .fold(0.0, f64::max);
    let connects: u64 = steady.iter().chain(bursts).map(|p| p.connects).sum();
    report.note(format!(
        "solve_s, ref_solve_s, p50_ms, p95_ms: per steady job, the best of {} rounds, then over the jobs; checks_per_s: pairs checked / summed best walls",
        steady.len()
    ));
    report.note(format!(
        "steady: generator at most {:.3} ms late; {connects} connections; burst makespans {:?} s",
        late * 1e3,
        bursts
            .iter()
            .map(|b| (b.makespan() * 1e3).round() / 1e3)
            .collect::<Vec<_>>()
    ));
}

fn per_layer(
    jobs: &[Job],
    dir: &Path,
    gpu: &[&Direct],
    (steady, traced_bursts, allocs): (&Phase, &[Phase], u64),
    untraced_bursts: &[Phase],
    tracer: &Tracer,
    report: &mut Report,
) {
    let mut parse = Vec::new();
    let mut mf = Vec::new();
    for job in jobs {
        let text = job.request.tsplib.as_deref().unwrap_or_default();
        let t0 = Instant::now();
        let inst = tsp::tsplib::parse(text);
        parse.push(t0.elapsed().as_secs_f64());
        if let Ok(inst) = inst {
            let t0 = Instant::now();
            std::hint::black_box(tsp::construction::multiple_fragment(&inst));
            mf.push(t0.elapsed().as_secs_f64());
        }
    }
    report.layer("tsplib.parse_us", median(&parse) * 1e6, parse.len());
    report.layer("construction.mf_s", median(&mf), mf.len());

    let (mut submit, mut status) = (Vec::new(), Vec::new());
    let mut stages: [Vec<f64>; 4] = Default::default();
    // The stage waits explain the steady latencies; the round trips
    // and spans cover the first traced burst too.
    let steady_jobs = steady.seen.len();
    for (k, seen) in steady.seen.iter().chain(&traced_bursts[0].seen).enumerate() {
        submit.push((seen.acked - seen.sent).as_secs_f64() * 1e3);
        status.extend(
            seen.polls
                .iter()
                .map(|(a, b)| (*b - *a).as_secs_f64() * 1e3),
        );
        let span = seen
            .job_id
            .as_ref()
            .and_then(|id| std::fs::read_to_string(dir.join(id).join("request.json")).ok())
            .and_then(|text| RequestSpan::parse(&text).ok());
        let Some(span) = span else {
            report.check(
                format!("job {} left a readable request.json", seen.index),
                false,
            );
            continue;
        };
        let waits = [
            span.queue_wait_seconds(),
            span.lease_wait_seconds(),
            span.solve_seconds(),
            span.wall_between(Stage::Artifacts, Stage::Done),
        ];
        if k < steady_jobs {
            for (out, w) in stages.iter_mut().zip(waits) {
                out.extend(w.map(|w| w * 1e3));
            }
        }
        record_job_spans(seen, &span, tracer);
    }
    report.layer("http.submit_ms", median(&submit), submit.len());
    report.layer("http.status_ms", median(&status), status.len());
    for (name, values) in [
        "serve.queue_wait_ms",
        "serve.lease_wait_ms",
        "serve.solve_ms",
        "serve.flush_ms",
    ]
    .into_iter()
    .zip(&stages)
    {
        report.layer(name, median(values), values.len());
    }
    let direct: Vec<f64> = gpu.iter().map(|d| d.wall * 1e3).collect();
    report.layer("serve.solve_direct_ms", median(&direct), direct.len());
    let mut modeled = tsp::twoopt::StepProfile::default();
    for d in gpu {
        modeled.accumulate(&d.profile);
    }
    probes::sim_counts(&modeled, report);
    let burst_jobs: usize = traced_bursts.iter().map(|b| b.seen.len()).sum();
    report.layer(
        "host.allocs_per_job",
        allocs as f64 / burst_jobs as f64,
        burst_jobs,
    );
    let late = steady.late_s.iter().copied().fold(0.0, f64::max);
    report.layer("gen.max_late_ms", late * 1e3, steady.late_s.len());
    let makespans = |phases: &[Phase]| phases.iter().map(Phase::makespan).collect::<Vec<f64>>();
    let (on, off) = (makespans(traced_bursts), makespans(untraced_bursts));
    report.layer("trace.overhead_ratio", median(&on) / median(&off), on.len());
    report.note(format!(
        "burst makespans: traced {on:.3?} s, untraced {off:.3?} s"
    ));
}

/// A served job as spans: the job from due to observed, its HTTP
/// round trips, and the service's stages, placed from the send time.
fn record_job_spans(seen: &Seen, span: &RequestSpan, tracer: &Tracer) {
    let Some(done) = seen.done else { return };
    let request = seen.index as u64;
    let job = tracer.record("serve.job", None, request, seen.due, done);
    tracer.record("http.submit", job, request, seen.sent, seen.acked);
    for &(a, b) in &seen.polls {
        tracer.record("http.status", job, request, a, b);
    }
    let at = |stage| {
        span.stage(stage)
            .map(|s| seen.sent + Duration::from_secs_f64(s.wall_seconds))
    };
    for (name, from, to) in [
        ("serve.queue", Stage::Queued, Stage::Dequeued),
        ("serve.lease", Stage::Dequeued, Stage::Leased),
        ("serve.solve", Stage::Solving, Stage::Artifacts),
        ("serve.flush", Stage::Artifacts, Stage::Done),
    ] {
        if let (Some(a), Some(b)) = (at(from), at(to)) {
            tracer.record(name, job, request, a, b);
        }
    }
}

//! Single-layer probes of a traced run: k-NN build, launch fixed cost,
//! the price of attached observability sinks, and the modeled counts.

use crate::report::{median, Report};
use crate::spans::Tracer;
use std::time::Instant;
use tsp::prelude::*;
use tsp::sim::spec::gtx_680_cuda;
use tsp::sim::{Device, Kernel, LaunchConfig, ThreadCtx};
use tsp::tsplib::Style;
use tsp::twoopt::cpu_model::BYTES_PER_CHECK;
use tsp::twoopt::{CandidateLists, StepProfile};

/// One `CandidateLists::build(inst, 16)`, timed.
pub fn knn(inst: &Instance, tracer: &Tracer) -> f64 {
    let _span = tracer.span("neighbors.build", None, 0);
    let t0 = Instant::now();
    let lists = CandidateLists::build(inst, 16);
    let dt = t0.elapsed().as_secs_f64();
    std::hint::black_box(lists);
    dt
}

/// A kernel that does nothing, so a launch costs only its fixed part.
struct Empty;

impl Kernel for Empty {
    type Shared = ();

    fn shared_bytes(&self) -> usize {
        0
    }

    fn make_shared(&self) {}

    fn num_phases(&self) -> usize {
        1
    }

    fn run(&self, _phase: usize, _ctx: &mut ThreadCtx<'_>, _shared: &mut ()) {}

    fn label(&self) -> &str {
        "empty"
    }
}

/// Median wall time of an empty `Device::launch` at three geometries.
pub fn launch(tracer: &Tracer, report: &mut Report) {
    const WARMUP: usize = 5;
    const TIMED: usize = 41;
    let device = Device::new(gtx_680_cuda());
    for (name, grid, block) in [
        ("sim.launch_us.1x32", 1, 32),
        ("sim.launch_us.8x256", 8, 256),
        ("sim.launch_us.28x1024", 28, 1024),
    ] {
        let cfg = LaunchConfig::new(grid, block);
        let mut times = Vec::with_capacity(TIMED);
        for i in 0..WARMUP + TIMED {
            let _span = tracer.span("sim.launch", None, 0);
            let t0 = Instant::now();
            let ok = device.launch(cfg, &Empty).is_ok();
            let dt = t0.elapsed().as_secs_f64();
            report.attempted += 1;
            if !ok {
                report.failed += 1;
            }
            if i >= WARMUP {
                times.push(dt);
            }
        }
        report.layer(name, median(&times) * 1e6, times.len());
    }
}

/// The wall-time price of every observability sink attached: a facade
/// solve with recorder, telemetry, journal, flight recorder and
/// profiler attached, over the same solve detached. Measured at
/// n = 1000 (descent) and on an n = 64 ILS job, alternating the two
/// sides; the attached tours must equal the detached ones.
pub fn observability(seed: u64, tracer: &Tracer, report: &mut Report) {
    let dense = tsp::tsplib::generate("obs-1000", 1000, Style::Uniform, seed);
    let small = tsp::tsplib::generate("obs-64", 64, Style::Clustered { clusters: 4 }, seed);
    let ils = IlsOptions::default()
        .with_max_iterations(3u64)
        .with_seed(seed);
    let cases = [
        ("obs.attached_ratio.n1000", &dense, None, 3),
        ("obs.attached_ratio.ils64", &small, Some(ils), 15),
    ];
    for (name, inst, ils, reps) in cases {
        let build = |attached: bool| {
            let mut b = Solver::builder();
            if let Some(opts) = &ils {
                b = b.ils(opts.clone());
            }
            if attached {
                b = b
                    .recorder(Recorder::enabled())
                    .telemetry(TelemetryOptions::attached())
                    .record(FlightRecorder::attached())
                    .profiler(Profiler::attached());
            }
            b.build()
        };
        let (mut on, mut off) = (Vec::new(), Vec::new());
        let mut same = true;
        for _ in 0..reps {
            let mut tours = Vec::new();
            for attached in [false, true] {
                let solver = build(attached);
                let _span = tracer.span("obs.solve", None, u64::from(attached));
                let t0 = Instant::now();
                let solution = solver.run(inst);
                let dt = t0.elapsed().as_secs_f64();
                report.attempted += 1;
                match solution {
                    Ok(s) => tours.push(s.tour.as_slice().to_vec()),
                    Err(_) => report.failed += 1,
                }
                if attached { &mut on } else { &mut off }.push(dt);
            }
            same &= tours.len() == 2 && tours[0] == tours[1];
        }
        report.check(
            format!("{name}: attached sinks leave the tour unchanged"),
            same,
        );
        report.layer(name, median(&on) / median(&off), on.len());
    }
}

/// Modeled-device counts of the traced descents: FLOPs, modeled
/// seconds, and the coordinate bytes the checks load by the cost
/// model's `BYTES_PER_CHECK` (computed, not measured).
pub fn sim_counts(profile: &StepProfile, report: &mut Report) {
    let bytes = profile.pairs_checked * BYTES_PER_CHECK;
    report.layer("sim.flops", profile.flops as f64, 1);
    report.layer("sim.bytes", bytes as f64, 1);
    report.layer("sim.modeled_s", profile.modeled_seconds(), 1);
}

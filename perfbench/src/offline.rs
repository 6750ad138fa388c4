//! The `dense` and `candidate` workloads: generated TSPLIB instances
//! solved from their Multiple-Fragment start to the 2-opt local
//! minimum, timed on the host.
//!
//! Every instance is solved twice. The workload's main configuration
//! runs `multiple_fragment` and then `tsp_2opt::optimize` with a timing
//! wrapper around the engine, so each `best_move` sweep is a latency
//! sample. The reference configuration runs through the facade's
//! `Solver::run`. The two engines return identical moves, so the tours
//! must match bit for bit, which also checks the decomposed solve
//! against the facade's.

use crate::alloc;
use crate::probes;
use crate::report::{median, percentile, Report};
use crate::spans::{id_of, Tracer};
use std::collections::BTreeMap;
use std::time::Instant;
use tsp::prelude::*;
use tsp::sim::spec::gtx_680_cuda;
use tsp::tsplib::Style;
use tsp::twoopt::{optimize, BestMove, EngineError, GpuTwoOpt, SequentialTwoOpt, StepProfile};

/// Times the instance texts are parsed before the first solve. They
/// are parsed once more before every solve after that, so the set-up
/// samples span the run; their median counts.
const SETUP_REPS: usize = 5;

/// One solve configuration and the label its engine metrics are kept
/// under.
#[derive(Clone, Copy)]
struct Config {
    label: &'static str,
    /// Span name of this configuration's `best_move` calls.
    span: &'static str,
    engine: EngineKind,
    strategy: Strategy,
    max_sweeps: Option<u64>,
}

impl Config {
    fn search(&self) -> SearchOptions {
        SearchOptions::new().with_max_sweeps(self.max_sweeps)
    }

    fn solver(&self) -> Solver {
        Solver::builder()
            .engine(self.engine)
            .strategy(self.strategy)
            .search(self.search())
            .build()
    }

    fn engine(&self) -> Box<dyn TwoOptEngine> {
        match self.engine {
            EngineKind::Sequential => Box::new(SequentialTwoOpt::new()),
            _ => Box::new(GpuTwoOpt::new(gtx_680_cuda()).with_strategy(self.strategy)),
        }
    }
}

const AUTO: Config = Config {
    label: "auto",
    span: "engine.auto.best_move",
    engine: EngineKind::Gpu,
    strategy: Strategy::Auto,
    max_sweeps: None,
};
const SEQUENTIAL: Config = Config {
    label: "sequential",
    span: "engine.sequential.best_move",
    engine: EngineKind::Sequential,
    strategy: Strategy::Auto,
    max_sweeps: None,
};
/// `Auto` on n = 8000 selects the tiled §IV.B kernel; four sweeps.
const TILED: Config = Config {
    label: "tiled",
    span: "engine.tiled.best_move",
    engine: EngineKind::Gpu,
    strategy: Strategy::Auto,
    max_sweeps: Some(4),
};
const CANDRES16: Config = Config {
    label: "candres16",
    span: "engine.candres16.best_move",
    engine: EngineKind::Gpu,
    strategy: Strategy::CandidateResident { k: 16 },
    max_sweeps: None,
};
const CAND16: Config = Config {
    label: "cand16",
    span: "engine.cand16.best_move",
    engine: EngineKind::Gpu,
    strategy: Strategy::Candidate { k: 16 },
    max_sweeps: None,
};

/// What a workload solves: `main` and `reference` on every instance
/// of `cases`, and `extra` once per pass; `texts` are the instances as
/// the TSPLIB texts the program parses.
struct Plan {
    texts: Vec<String>,
    cases: Vec<Instance>,
    main: Config,
    reference: Config,
    extra: Option<(Config, Instance)>,
}

fn generate(name: &str, n: usize, style: Style, seed: u64) -> String {
    tsp::tsplib::write(&tsp::tsplib::generate(name, n, style, seed))
}

/// The workload's plan.
fn plan(workload: &str, seed: u64) -> Plan {
    let mut texts = Vec::new();
    let (main, reference, extra) = match workload {
        "dense" => {
            for i in 0..8 {
                texts.push(generate(&format!("dense-u{i}"), 1000, Style::Uniform, seed));
            }
            for i in 0..4 {
                let style = Style::Clustered { clusters: 10 };
                texts.push(generate(&format!("dense-c{i}"), 1000, style, seed));
            }
            let tiled = generate("dense-tiled", 8000, Style::Uniform, seed);
            (AUTO, SEQUENTIAL, Some((TILED, tiled)))
        }
        "candidate" => {
            for i in 0..2 {
                texts.push(generate(
                    &format!("cand-u{i}"),
                    20_000,
                    Style::Uniform,
                    seed,
                ));
                let style = Style::Clustered { clusters: 40 };
                texts.push(generate(&format!("cand-c{i}"), 20_000, style, seed));
            }
            (CANDRES16, CAND16, None)
        }
        other => unreachable!("not an offline workload: {other}"),
    };
    let parse = |text: &String| tsp::tsplib::parse(text).expect("generated TSPLIB text parses");
    let cases = texts.iter().map(parse).collect();
    let extra = extra.map(|(cfg, text)| {
        let inst = parse(&text);
        texts.push(text);
        (cfg, inst)
    });
    Plan {
        texts,
        cases,
        main,
        reference,
        extra,
    }
}

/// Set-up: parse every instance text once; the time goes to
/// `ctx.setup`, each single parse to `ctx.parse`.
fn setup(texts: &[String], ctx: &mut Ctx) {
    let t0 = Instant::now();
    for text in texts {
        let t = Instant::now();
        let inst = tsp::tsplib::parse(text);
        ctx.parse.push(t.elapsed().as_secs_f64());
        assert!(inst.is_ok(), "generated TSPLIB text parses");
    }
    ctx.setup.push(t0.elapsed().as_secs_f64());
}

/// One solve's outcome.
struct Solved {
    /// Construction + descent.
    wall: f64,
    checks: u64,
    tour: Vec<u32>,
    length: i64,
    initial: i64,
    valid: bool,
    profile: StepProfile,
    /// Allocations of the whole solve (counted in traced runs only).
    allocs: u64,
}

/// Per-engine totals gathered by [`Timed`].
#[derive(Default)]
struct EngineStats {
    sweeps: u64,
    checks: u64,
    busy_s: f64,
    sweep_s: Vec<f64>,
    allocs: u64,
}

/// Times each `best_move` of the wrapped engine; when the tracer is
/// on, also records a span for it.
struct Timed<'a> {
    inner: Box<dyn TwoOptEngine>,
    span: &'static str,
    tracer: &'a Tracer,
    parent: Option<u64>,
    request: u64,
    stats: &'a mut EngineStats,
}

impl TwoOptEngine for Timed<'_> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn best_move(
        &mut self,
        inst: &Instance,
        tour: &Tour,
    ) -> Result<(Option<BestMove>, StepProfile), EngineError> {
        let a0 = alloc::allocations();
        let t0 = Instant::now();
        let out = self.inner.best_move(inst, tour);
        let t1 = Instant::now();
        self.stats.allocs += alloc::allocations() - a0;
        self.tracer
            .record(self.span, self.parent, self.request, t0, t1);
        let dt = (t1 - t0).as_secs_f64();
        self.stats.sweeps += 1;
        self.stats.busy_s += dt;
        self.stats.sweep_s.push(dt);
        if let Ok((_, p)) = &out {
            self.stats.checks += p.pairs_checked;
        }
        out
    }

    fn last_best_key(&self) -> Option<u64> {
        self.inner.last_best_key()
    }
}

/// What passes accumulate besides their solves.
struct Ctx<'a> {
    tracer: &'a Tracer,
    stats: BTreeMap<&'static str, EngineStats>,
    construction: Vec<f64>,
    /// Set-up times: every parse of all instance texts.
    setup: Vec<f64>,
    /// Single `tsp_tsplib::parse` times.
    parse: Vec<f64>,
}

impl<'a> Ctx<'a> {
    fn new(tracer: &'a Tracer) -> Ctx<'a> {
        Ctx {
            tracer,
            stats: BTreeMap::new(),
            construction: Vec::new(),
            setup: Vec::new(),
            parse: Vec::new(),
        }
    }
}

/// `multiple_fragment`, then `optimize` over the timing wrapper.
fn descend(
    cfg: &Config,
    inst: &Instance,
    request: u64,
    ctx: &mut Ctx,
) -> Result<Solved, EngineError> {
    let tracer = ctx.tracer;
    let a0 = alloc::allocations();
    let solve = tracer.span("solve", None, request);
    let t0 = Instant::now();
    let mut tour = {
        let _span = tracer.span("construction.multiple_fragment", id_of(&solve), request);
        tsp::construction::multiple_fragment(inst)
    };
    ctx.construction.push(t0.elapsed().as_secs_f64());
    let search = tracer.span("search.optimize", id_of(&solve), request);
    let mut engine = Timed {
        inner: cfg.engine(),
        span: cfg.span,
        tracer,
        parent: id_of(&search),
        request,
        stats: ctx.stats.entry(cfg.label).or_default(),
    };
    let stats = optimize(&mut engine, inst, &mut tour, cfg.search());
    drop(search);
    drop(solve);
    let wall = t0.elapsed().as_secs_f64();
    let stats = stats?;
    Ok(Solved {
        wall,
        checks: stats.profile.pairs_checked,
        valid: tour.validate().is_ok() && tour.len() == inst.len(),
        tour: tour.as_slice().to_vec(),
        length: stats.final_length,
        initial: stats.initial_length,
        profile: stats.profile,
        allocs: alloc::allocations() - a0,
    })
}

/// The facade: `Solver::run`, construction included.
fn facade(cfg: &Config, inst: &Instance) -> Result<Solved, TspError> {
    let solver = cfg.solver();
    let t0 = Instant::now();
    let s = solver.run(inst)?;
    let wall = t0.elapsed().as_secs_f64();
    Ok(Solved {
        wall,
        checks: s.profile.pairs_checked,
        valid: s.tour.validate().is_ok() && s.tour.len() == inst.len(),
        tour: s.tour.as_slice().to_vec(),
        length: s.length,
        initial: s.initial_length,
        profile: s.profile,
        allocs: 0,
    })
}

/// The solves of one pass, in plan order.
struct Pass {
    wall: f64,
    main: Vec<Solved>,
    reference: Vec<Solved>,
    extra: Option<Solved>,
}

/// One pass. Untraced, the reference goes through the facade; traced,
/// it is decomposed and wrapped like the main configuration.
fn pass(plan: &Plan, ctx: &mut Ctx, report: &mut Report) -> Option<Pass> {
    #[derive(PartialEq)]
    enum Role {
        Main,
        Reference,
        Extra,
    }
    let t0 = Instant::now();
    let mut jobs: Vec<(Role, &Config, &Instance)> = Vec::new();
    for inst in &plan.cases {
        jobs.push((Role::Main, &plan.main, inst));
        jobs.push((Role::Reference, &plan.reference, inst));
    }
    if let Some((cfg, inst)) = &plan.extra {
        jobs.push((Role::Extra, cfg, inst));
    }
    let mut out = Pass {
        wall: 0.0,
        main: Vec::new(),
        reference: Vec::new(),
        extra: None,
    };
    for (request, (role, cfg, inst)) in jobs.into_iter().enumerate() {
        setup(&plan.texts, ctx);
        report.attempted += 1;
        let solved = if role == Role::Reference && !ctx.tracer.is_on() {
            facade(cfg, inst).map_err(|e| e.to_string())
        } else {
            descend(cfg, inst, request as u64, ctx).map_err(|e| e.to_string())
        };
        let solved = match solved {
            Ok(s) => s,
            Err(e) => {
                report.failed += 1;
                report.note(format!("{} solve failed: {e}", cfg.label));
                return None;
            }
        };
        match role {
            Role::Main => out.main.push(solved),
            Role::Reference => out.reference.push(solved),
            Role::Extra => out.extra = Some(solved),
        }
    }
    out.wall = t0.elapsed().as_secs_f64();
    Some(out)
}

fn gain_pct(s: &Solved) -> f64 {
    100.0 * (s.initial - s.length) as f64 / s.initial as f64
}

/// Every tour must be valid, the two configurations must agree bit
/// for bit, and every pass must repeat the first exactly.
fn check_passes(plan: &Plan, runs: &[Pass], report: &mut Report) {
    let Some(first) = runs.first() else {
        report.check("at least one pass completed", false);
        return;
    };
    let all = runs
        .iter()
        .flat_map(|p| p.main.iter().chain(&p.reference).chain(&p.extra));
    report.check("every tour passes validate()", all.clone().all(|s| s.valid));
    report.check(
        "every solve stays at or below its start length",
        all.clone().all(|s| s.length <= s.initial),
    );
    let same = runs.iter().all(|p| {
        p.main.len() == plan.cases.len()
            && p.main
                .iter()
                .zip(&p.reference)
                .all(|(m, r)| m.tour == r.tour && m.length == r.length)
    });
    report.check(
        format!(
            "{} and {} tours match bit for bit",
            plan.main.label, plan.reference.label
        ),
        same,
    );
    let key = |s: &Solved| {
        (
            s.tour.clone(),
            s.checks,
            s.profile.modeled_seconds().to_bits(),
        )
    };
    let repeat = runs.iter().all(|p| {
        p.main.iter().map(key).eq(first.main.iter().map(key))
            && p.extra.as_ref().map(key) == first.extra.as_ref().map(key)
    });
    report.check(
        "every pass repeats the first: tours, checks, modeled seconds",
        repeat,
    );
}

/// Run an offline workload. With the tracer on, one untraced pass is
/// followed by the same pass traced, and the per-layer metrics are
/// reported.
pub fn run(workload: &str, seed: u64, seconds: f64, tracer: &Tracer, report: &mut Report) {
    let trace = tracer.is_on();
    let plan = plan(workload, seed);
    let off = Tracer::new(false);
    let mut ctx = Ctx::new(&off);
    for _ in 0..SETUP_REPS {
        setup(&plan.texts, &mut ctx);
    }
    // Untraced passes until `seconds` would be exceeded (at least one);
    // a traced run makes one, to price the tracing against.
    let t0 = Instant::now();
    let mut runs: Vec<Pass> = Vec::new();
    while let Some(p) = pass(&plan, &mut ctx, report) {
        let last = p.wall;
        runs.push(p);
        if trace || t0.elapsed().as_secs_f64() + last > seconds {
            break;
        }
    }
    if !trace {
        check_passes(&plan, &runs, report);
        end_to_end(&plan, &runs, &ctx, report);
        return;
    }
    let Some(untraced) = runs.pop() else {
        return;
    };
    report.layer("tsplib.parse_us", median(&ctx.parse) * 1e6, ctx.parse.len());
    let mut ctx = Ctx::new(tracer);
    alloc::set_counting(true);
    let traced = pass(&plan, &mut ctx, report);
    alloc::set_counting(false);
    match traced {
        Some(traced) => {
            report.layer("trace.overhead_ratio", traced.wall / untraced.wall, 1);
            per_layer(&plan, &traced, &ctx, report);
            check_passes(&plan, &[untraced, traced], report);
        }
        None => check_passes(&plan, &[untraced], report),
    }
    let knn: Vec<f64> = plan.cases.iter().map(|c| probes::knn(c, tracer)).collect();
    report.layer("neighbors.knn_s", median(&knn), knn.len());
}

fn end_to_end(plan: &Plan, runs: &[Pass], ctx: &Ctx, report: &mut Report) {
    let main: Vec<f64> = runs.iter().flat_map(|p| &p.main).map(|s| s.wall).collect();
    let reference: Vec<f64> = runs
        .iter()
        .flat_map(|p| &p.reference)
        .map(|s| s.wall)
        .collect();
    let gains: Vec<f64> = runs
        .first()
        .map_or(Vec::new(), |p| p.main.iter().map(gain_pct).collect());
    let Some(engine) = ctx.stats.get(plan.main.label) else {
        return;
    };
    report.e2e("setup_s", median(&ctx.setup), ctx.setup.len());
    report.e2e("solve_s", median(&main), main.len());
    report.e2e(
        "checks_per_s",
        engine.checks as f64 / engine.busy_s,
        engine.sweep_s.len(),
    );
    report.e2e("ref_solve_s", median(&reference), reference.len());
    report.e2e(
        "tour_gain_pct",
        gains.iter().sum::<f64>() / gains.len() as f64,
        gains.len(),
    );
    report.e2e(
        "p50_ms",
        percentile(&engine.sweep_s, 0.50) * 1e3,
        engine.sweep_s.len(),
    );
    report.e2e(
        "p95_ms",
        percentile(&engine.sweep_s, 0.95) * 1e3,
        engine.sweep_s.len(),
    );
    for (m, r) in runs
        .first()
        .into_iter()
        .flat_map(|p| p.main.iter().zip(&p.reference))
    {
        report.note(format!(
            "{}: {:.4} s, {} checks; {} through the facade: {:.4} s",
            plan.main.label, m.wall, m.checks, plan.reference.label, r.wall
        ));
    }
    report.note(format!(
        "{} passes of {} {} + {} {} solves{}; p50/p95 are per {} sweep",
        runs.len(),
        plan.cases.len(),
        plan.main.label,
        plan.cases.len(),
        plan.reference.label,
        plan.extra
            .as_ref()
            .map_or(String::new(), |(c, _)| format!(" + one {} run", c.label)),
        plan.main.label,
    ));
}

fn per_layer(plan: &Plan, traced: &Pass, ctx: &Ctx, report: &mut Report) {
    let layers = crate::spans::self_times(&ctx.tracer.spans());
    report.layer(
        "construction.mf_s",
        median(&ctx.construction),
        ctx.construction.len(),
    );
    if let Some(t) = layers.get("search.optimize") {
        report.layer("search.host_s", t.self_s, t.count as usize);
    }
    for (label, s) in &ctx.stats {
        report.layer(&format!("engine.{label}.sweeps"), s.sweeps as f64, 1);
        report.layer(&format!("engine.{label}.checks"), s.checks as f64, 1);
        report.layer(
            &format!("engine.{label}.sweep_us"),
            median(&s.sweep_s) * 1e6,
            s.sweep_s.len(),
        );
        report.layer(&format!("engine.{label}.busy_s"), s.busy_s, s.sweep_s.len());
    }
    if let Some(s) = ctx.stats.get(plan.main.label) {
        report.layer(
            "host.allocs_per_sweep",
            s.allocs as f64 / s.sweeps as f64,
            s.sweeps as usize,
        );
    }
    let allocs: Vec<f64> = traced.main.iter().map(|s| s.allocs as f64).collect();
    report.layer("host.allocs_per_job", median(&allocs), allocs.len());
    let mut modeled = StepProfile::default();
    for s in traced.main.iter().chain(&traced.extra) {
        modeled.accumulate(&s.profile);
    }
    probes::sim_counts(&modeled, report);
}

//! The serving workload `serve-lenet-open`: seeded Poisson arrivals from
//! one generator thread into a static `cc-serve` server running the
//! LeNet-5 network at a base rate. The traced run adds the per-layer
//! measurements, a ladder of fixed rates (capacity), and a control-plane
//! probe (trickle, burst, steady under the controller).

use crate::layers;
use crate::report::Report;
use crate::setup::{self, same_bits, Built, Model};
use crate::spans::Spans;
use crate::stats::{median, percentile, windowed, Rng};
use crate::{record_setup, write_trace, Args};
use cc_deploy::{BandSet, DeployedNetwork};
use cc_serve::{EventKind, ServeConfig, Server, TelemetrySnapshot, Ticket, TraceConfig};
use cc_systolic::SimStats;
use cc_tensor::Tensor;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The latency limit a request must meet, from its due time, in ms.
const LIMIT_MS: f64 = 10.0;
/// `serve-lenet-open`'s base rate, in requests per second.
const BASE_RPS: f64 = 2000.0;
/// The ladder's fixed grid: `BASE_RPS · LADDER_STEP^k`. The step is finer
/// than the `slo_rps` bound in `BENCHMARK.json`.
const LADDER_STEP: f64 = 1.05;
/// The coarse ascent jumps this many grid steps at a time; bisection then
/// narrows the bracket to one grid step.
const COARSE: i32 = 8;
/// The ladder stops climbing here, and descends no lower than grid step
/// `MIN_LADDER_K` (about 280 rps).
const MAX_LADDER_RPS: f64 = 100_000.0;
const MIN_LADDER_K: i32 = -40;
/// The control probe's schedule: (name, rate, share of the probe).
const PHASES: [(&str, f64, f64); 3] = [
    ("trickle", 300.0, 0.3),
    ("burst", 8000.0, 0.1),
    ("steady", 1000.0, 0.6),
];
/// How long the generator waits for outstanding requests after a schedule
/// ends; a request still unresolved then counts as failed.
const DRAIN_BOUND: Duration = Duration::from_secs(10);
/// The static server's queue: two seconds of base-rate arrivals. When a
/// host stall holds the generator, it submits the overdue arrivals at once
/// afterwards; a queue this deep takes them and bills their lateness to
/// latency. A 128-deep queue sheds after a ~70 ms stall, which a shared
/// 2-vCPU host produces now and then, so the failure count would vary
/// between runs of the same code.
const QUEUE_CAPACITY: usize = 4096;
/// Largest batch the sim-cost table covers (the control plane's widest
/// batch is 16).
const MAX_TABLE_BATCH: usize = 32;

/// The static server: 2 workers, batches of up to 8 with a 1 ms deadline,
/// a [`QUEUE_CAPACITY`] queue, one array, no cache.
fn static_config(traced: bool) -> ServeConfig {
    let cfg = ServeConfig::default()
        .with_workers(2)
        .with_max_batch(8)
        .with_batch_deadline(Duration::from_millis(1))
        .with_queue_capacity(QUEUE_CAPACITY)
        .with_pipeline_stages(1)
        .with_shards(1);
    if traced {
        // The recorder exists from the start (idle until switched on) so
        // both halves of a traced run use one server configuration.
        cfg.with_trace(TraceConfig::off().with_capacity(1 << 18))
    } else {
        cfg
    }
}

/// The simulated cost of one batch of each size, from a one-lane shard
/// set (index = batch size).
fn sim_table(built: &Built, report_bad: &mut u64) -> Vec<SimStats> {
    let sched = built.net.scheduler();
    let mut scratch = cc_deploy::ActivationScratch::new();
    let mut table = vec![SimStats::default()];
    for b in 1..=MAX_TABLE_BATCH {
        let idx: Vec<usize> = (0..b).map(|i| i % built.test.len()).collect();
        let images: Vec<Tensor> = idx.iter().map(|&i| built.test.image(i).clone()).collect();
        let mut one = BandSet::new(1);
        let logits = layers::banded_batch(&built.net, &sched, &images, &mut scratch, &mut one);
        *report_bad += idx
            .iter()
            .zip(&logits)
            .filter(|(&i, l)| !same_bits(l, &built.reference[i]))
            .count() as u64;
        table.push(one.merged_stats());
    }
    table
}

/// Where requests' images come from: the test set in a seeded order.
struct Source {
    images: Vec<Tensor>,
    order: Vec<usize>,
    next: usize,
    arrivals: Rng,
}

impl Source {
    fn new(built: &Built, seed: u64) -> Self {
        Source {
            images: (0..built.test.len())
                .map(|i| built.test.image(i).clone())
                .collect(),
            order: Rng::new(seed ^ 0x0bde_4a11).permutation(built.test.len()),
            next: 0,
            arrivals: Rng::new(seed ^ 0x5eed_a771),
        }
    }

    fn take(&mut self) -> usize {
        let i = self.order[self.next % self.order.len()];
        self.next += 1;
        i
    }

    /// Poisson due times (offsets from the schedule start) for `phases`,
    /// each tagged with its phase index.
    fn schedule(&mut self, phases: &[(f64, Duration)]) -> Vec<(Duration, usize)> {
        let mut out = Vec::new();
        let mut start = 0.0;
        for (p, &(rate, dur)) in phases.iter().enumerate() {
            let end = start + dur.as_secs_f64();
            let mut t = start + self.arrivals.exp_gap(rate);
            while t < end {
                out.push((Duration::from_secs_f64(t), p));
                t += self.arrivals.exp_gap(rate);
            }
            start = end;
        }
        out
    }
}

/// What the generator saw in one phase.
#[derive(Clone, Debug, Default)]
struct PhaseStats {
    rate: f64,
    sent: u64,
    /// Correct responses.
    ok: u64,
    /// Correct responses within [`LIMIT_MS`].
    within: u64,
    failed: u64,
    mismatches: u64,
    shed: u64,
    /// (due time from the schedule start in s, due time to response in
    /// ms) per correct response.
    samples: Vec<(f64, f64)>,
    /// Due time to submit, per request, in ms.
    late_ms: Vec<f64>,
    /// Correct responses per batch size they rode in.
    batch_sizes: BTreeMap<usize, u64>,
    /// Requests outstanding when the phase's last arrival was submitted.
    backlog_end: usize,
}

impl PhaseStats {
    /// Latencies in due order.
    fn latency_ms(&self) -> Vec<f64> {
        let mut s = self.samples.clone();
        s.sort_by(|a, b| a.0.total_cmp(&b.0));
        s.into_iter().map(|(_, ms)| ms).collect()
    }

    fn p99(&self) -> f64 {
        windowed(&self.latency_ms(), 0.99)
    }

    /// A rate is met when nothing was shed or failed, the p99 is within
    /// the limit, and the backlog left behind is under a limit's worth of
    /// arrivals (the queue is not growing).
    fn meets_limit(&self) -> bool {
        self.failed == 0
            && self.p99() <= LIMIT_MS
            && (self.backlog_end as f64) <= self.rate * LIMIT_MS / 1e3
    }
}

struct Pending {
    ticket: Ticket,
    img: usize,
    phase: usize,
    /// Due time from the schedule start.
    due: Duration,
    late: Duration,
}

/// Drives `server` through `phases` (rate, duration) on one thread: submit
/// each request at its due time, poll outstanding tickets with a zero
/// timeout in between, then drain for at most [`DRAIN_BOUND`].
fn drive(
    server: &Server,
    src: &mut Source,
    reference: &[Vec<f32>],
    phases: &[(f64, Duration)],
    mut spans: Option<&mut Spans>,
) -> Vec<PhaseStats> {
    let mut stats: Vec<PhaseStats> = phases
        .iter()
        .map(|&(rate, _)| PhaseStats {
            rate,
            ..PhaseStats::default()
        })
        .collect();
    let arrivals = src.schedule(phases);
    let mut pending: Vec<Pending> = Vec::new();
    let resolve = |pending: &mut Vec<Pending>, stats: &mut [PhaseStats]| {
        pending.retain(|p| {
            let Some(result) = layers::poll(&p.ticket) else {
                return true;
            };
            let s = &mut stats[p.phase];
            match result {
                Ok(resp) if same_bits(&resp.logits, &reference[p.img]) => {
                    let ms = (p.late + resp.latency).as_secs_f64() * 1e3;
                    s.ok += 1;
                    s.within += (ms <= LIMIT_MS) as u64;
                    s.samples.push((p.due.as_secs_f64(), ms));
                    *s.batch_sizes.entry(resp.batch_size).or_insert(0) += 1;
                }
                Ok(_) => {
                    s.failed += 1;
                    s.mismatches += 1;
                }
                Err(_) => s.failed += 1,
            }
            false
        });
    };
    let t0 = Instant::now();
    for (i, &(offset, phase)) in arrivals.iter().enumerate() {
        let due = t0 + offset;
        loop {
            resolve(&mut pending, &mut stats);
            let now = Instant::now();
            if now >= due {
                break;
            }
            std::thread::sleep((due - now).min(Duration::from_millis(2)));
        }
        let img = src.take();
        let submitted = Instant::now();
        let result = layers::submit(server, src.images[img].clone());
        if let Some(spans) = spans.as_deref_mut() {
            spans.record("serve.submit", submitted, Instant::now(), None, i as u64);
        }
        let s = &mut stats[phase];
        s.sent += 1;
        s.late_ms.push((submitted - due).as_secs_f64() * 1e3);
        match result {
            Ok(ticket) => pending.push(Pending {
                ticket,
                img,
                phase,
                due: offset,
                late: submitted - due,
            }),
            Err(_) => {
                s.shed += 1;
                s.failed += 1;
            }
        }
        if arrivals.get(i + 1).is_none_or(|next| next.1 != phase) {
            s.backlog_end = pending.len();
        }
    }
    let drain_until = Instant::now() + DRAIN_BOUND;
    while !pending.is_empty() && Instant::now() < drain_until {
        resolve(&mut pending, &mut stats);
        std::thread::sleep(Duration::from_micros(100));
    }
    for p in pending {
        stats[p.phase].failed += 1;
    }
    stats
}

/// Simulated cycles per image and utilization of the batches the
/// responses rode in: a batch of `b` contributes `b` responses.
fn sim_of(
    table: &[SimStats],
    batch_sizes: &BTreeMap<usize, u64>,
    report: &mut Report,
) -> (f64, f64) {
    let (mut cycles, mut macs, mut slots, mut images) = (0.0, 0.0, 0.0, 0u64);
    for (&b, &n) in batch_sizes {
        let Some(sim) = table.get(b).filter(|_| b > 0) else {
            report
                .inconsistent
                .push(format!("no sim cost for a batch of {b}"));
            continue;
        };
        let batches = n as f64 / b as f64;
        cycles += batches * sim.cycles as f64;
        macs += batches * sim.mac_ops as f64;
        slots += batches * sim.cell_word_slots as f64;
        images += n;
    }
    (cycles / images.max(1) as f64, macs / slots.max(1.0))
}

/// Books a measured stretch into the run's operation counts.
fn count(report: &mut Report, s: &PhaseStats) {
    report.attempted += s.sent;
    report.failed += s.failed;
    report.mismatches += s.mismatches;
}

/// The end-to-end metrics of a measured stretch `s` that took `secs`.
fn record_e2e(report: &mut Report, s: &PhaseStats, secs: f64, table: &[SimStats]) {
    report.set("images_per_s", s.ok as f64 / secs);
    report.set("p50_ms", windowed(&s.latency_ms(), 0.5));
    report.set("p99_ms", s.p99());
    report.set("slo_attainment", s.within as f64 / s.sent.max(1) as f64);
    let (cycles, util) = sim_of(table, &s.batch_sizes, report);
    report.set("sim_cycles_per_image", cycles);
    report.set("sim_utilization", util);
    report.note(format!(
        "{} sent, {} correct, {} failed ({} shed); latency samples {}; generator late p50 {:.3} ms p99 {:.3} ms",
        s.sent,
        s.ok,
        s.failed,
        s.shed,
        s.samples.len(),
        median(&s.late_ms),
        percentile(&s.late_ms, 0.99)
    ));
}

/// The serving set-up: the network, its sim table, and a started, warmed
/// server.
struct Served {
    server: Server,
    table: Vec<SimStats>,
    /// Mismatches in the sim table's batches and the warm-up's responses.
    warm_bad: u64,
    /// The warm-up's other failures (sheds, error resolutions, drain
    /// timeouts).
    warm_failed: u64,
}

fn start_warm(
    net: &DeployedNetwork,
    traced: bool,
    src: &mut Source,
    reference: &[Vec<f32>],
) -> (Server, PhaseStats) {
    let server = layers::start_server(net, static_config(traced));
    let warm = drive(
        &server,
        src,
        reference,
        &[(BASE_RPS, Duration::from_millis(200))],
        None,
    );
    (server, warm[0].clone())
}

fn setup_served(args: &Args, report: &mut Report) -> (setup::Repeated<Served>, Source) {
    let mut warm_ops = 0;
    let mut setup = setup::build_repeated(Model::LeNet5, args.size, args.seed, |built| {
        let mut bad = 0;
        let table = sim_table(built, &mut bad);
        let mut src = Source::new(built, args.seed);
        let (server, warm) = start_warm(&built.net, args.trace, &mut src, &built.reference);
        warm_ops += warm.sent + MAX_TABLE_BATCH as u64;
        Served {
            server,
            table,
            warm_bad: bad + warm.mismatches,
            warm_failed: warm.failed - warm.mismatches,
        }
    });
    record_setup(report, &setup);
    report.check(warm_ops, setup.state.warm_bad);
    report.failed += setup.state.warm_failed;
    if args.perturb_reference {
        let first = Rng::new(args.seed ^ 0x0bde_4a11).permutation(setup.built.test.len())[0];
        setup.built.reference[first][0] += 1.0;
    }
    let src = Source::new(&setup.built, args.seed);
    (setup, src)
}

/// Per-layer serving metrics from the server's own request-lifecycle
/// recorder and telemetry over a traced stretch.
fn record_serve_layers(
    report: &mut Report,
    server: &Server,
    before: &TelemetrySnapshot,
    s: &PhaseStats,
) {
    let events = server.trace_events();
    let durations = |kind: EventKind| -> Vec<f64> {
        events
            .iter()
            .filter(|e| e.kind == kind)
            .map(|e| e.dur_ns as f64 / 1e6)
            .collect()
    };
    let (queue, execute) = (durations(EventKind::Queue), durations(EventKind::Execute));
    report.set("serve.queue_wait_p50_ms", median(&queue));
    report.set("serve.queue_wait_p99_ms", percentile(&queue, 0.99));
    report.set("serve.execute_p50_ms", median(&execute));
    report.set("serve.execute_p99_ms", percentile(&execute, 0.99));
    let after = server.telemetry();
    let batches = after.batches - before.batches;
    report.set("serve.batches", batches as f64);
    report.set(
        "serve.batch_occupancy",
        (after.completed - before.completed) as f64 / batches.max(1) as f64,
    );
    report.set("serve.shed", (after.shed - before.shed) as f64);
    report.set("serve.failed", (after.failed - before.failed) as f64);
    report.set("serve.gen_late_p99_ms", percentile(&s.late_ms, 0.99));
    report.note(format!(
        "traced: {} queue spans, {} execute spans, {} recorder events",
        queue.len(),
        execute.len(),
        events.len()
    ));
}

fn secs(args: &Args, share: f64) -> Duration {
    Duration::from_secs_f64(args.seconds * share)
}

pub fn run_open(args: &Args, report: &mut Report) {
    let (setup, mut src) = setup_served(args, report);
    let (built, served) = (&setup.built, &setup.state);
    let server = &served.server;
    report.note(format!(
        "latency limit {LIMIT_MS} ms; base rate {BASE_RPS} rps"
    ));

    let base_dur = secs(args, if args.trace { 0.25 } else { 1.0 });
    let base = drive(
        server,
        &mut src,
        &built.reference,
        &[(BASE_RPS, base_dur)],
        None,
    )
    .remove(0);
    count(report, &base);
    record_e2e(report, &base, base_dur.as_secs_f64(), &served.table);
    if !args.trace {
        return;
    }

    server.set_tracing(true);
    let before = server.telemetry();
    let mut spans = Spans::new();
    let traced = drive(
        server,
        &mut src,
        &built.reference,
        &[(BASE_RPS, base_dur)],
        Some(&mut spans),
    )
    .remove(0);
    server.set_tracing(false);
    count(report, &traced);
    record_serve_layers(report, server, &before, &traced);
    report.set(
        "trace_overhead",
        windowed(&traced.latency_ms(), 0.5) / windowed(&base.latency_ms(), 0.5),
    );
    write_trace(args, report, "spans.json", &spans.chrome_json());
    if let Some(chrome) = server.chrome_trace() {
        write_trace(args, report, "server.json", &chrome);
    }
    let slo = ladder(
        args,
        server,
        &mut src,
        &built.reference,
        base.meets_limit(),
        report,
    );
    report.set("slo_rps", slo);
    control_probe(args, &built.net, &mut src, &built.reference, report);
}

/// The control-plane probe: a fresh copy of the static server under
/// `Controller::attach` with an empty profile store, driven through
/// [`PHASES`] for half the run. The burst is above the static server's
/// shed point, so requests may be shed; like the ladder's, those are the
/// probe's outcome (each phase's `completed_share`), not run failures.
fn control_probe(
    args: &Args,
    net: &DeployedNetwork,
    src: &mut Source,
    reference: &[Vec<f32>],
    report: &mut Report,
) {
    let (server, warm) = start_warm(net, false, src, reference);
    report.mismatches += warm.mismatches;
    let server = Arc::new(server);
    let before = server.telemetry();
    let controller = layers::attach_controller(Arc::clone(&server));
    let schedule: Vec<(f64, Duration)> = PHASES
        .iter()
        .map(|&(_, rate, share)| (rate, secs(args, share * 0.5)))
        .collect();
    let phases = drive(&server, src, reference, &schedule, None);
    drop(controller);
    report.set(
        "control.retunes",
        (server.telemetry().retunes - before.retunes) as f64,
    );
    for ((name, ..), p) in PHASES.iter().zip(&phases) {
        report.mismatches += p.mismatches;
        report.set(&format!("phase.{name}.p99_ms"), p.p99());
        report.set(
            &format!("phase.{name}.completed_share"),
            p.ok as f64 / p.sent.max(1) as f64,
        );
        report.note(format!(
            "control probe, {name} {} rps: {} sent, p99 {:.3} ms, shed {}, backlog {}",
            p.rate,
            p.sent,
            p.p99(),
            p.shed,
            p.backlog_end
        ));
    }
}

/// The ladder, a capacity probe on the fixed grid `BASE_RPS ·
/// LADDER_STEP^k`: climb in coarse steps from the base rate until a rate
/// fails (or, if the base rate failed, descend until one passes), then
/// bisect the bracket down to one grid step. Returns the highest rate that
/// met the limit. A step's sheds and late requests mark the step failed
/// and are not run failures (a mismatch still is).
fn ladder(
    args: &Args,
    server: &Server,
    src: &mut Source,
    reference: &[Vec<f32>],
    base_met: bool,
    report: &mut Report,
) -> f64 {
    let step_dur = secs(args, 0.035);
    let rate_of = |k: i32| BASE_RPS * LADDER_STEP.powi(k);
    // A failed step is run once more before it counts: a single host
    // stall can fail a step that the server sustains.
    let mut step = |k: i32| -> bool {
        (0..2).any(|_| {
            let s = drive(server, src, reference, &[(rate_of(k), step_dur)], None).remove(0);
            report.note(format!(
                "ladder {:.0} rps: p99 {:.3} ms, shed {}, failed {}, backlog {} -> {}",
                rate_of(k),
                s.p99(),
                s.shed,
                s.failed,
                s.backlog_end,
                if s.meets_limit() { "pass" } else { "fail" }
            ));
            report.mismatches += s.mismatches;
            s.meets_limit()
        })
    };
    let mut bracket = None;
    if base_met {
        let mut lo = 0;
        while rate_of(lo + COARSE) <= MAX_LADDER_RPS && step(lo + COARSE) {
            lo += COARSE;
        }
        bracket = Some((lo, lo + COARSE));
    } else {
        let mut hi = 0;
        while hi - COARSE >= MIN_LADDER_K {
            if step(hi - COARSE) {
                bracket = Some((hi - COARSE, hi));
                break;
            }
            hi -= COARSE;
        }
    }
    let Some((mut lo, mut hi)) = bracket else {
        return 0.0;
    };
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        if step(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    rate_of(lo)
}

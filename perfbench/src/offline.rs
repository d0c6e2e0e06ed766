//! The offline workloads: a closed, single-threaded loop of batches of 4
//! through the deploy engine, either on one array (`engine-resnet20-b4`)
//! or scattered over a 2-lane row-band shard set (`bands2-lenet-b4`).

use crate::calib::{self, Reference};
use crate::layers;
use crate::report::{layer_metric, Report};
use crate::setup::{self, same_bits, Built, Model};
use crate::spans::Spans;
use crate::stats::{median, percentile, windowed, Rng};
use crate::{record_setup, write_trace, Args};
use cc_deploy::{ActivationScratch, BandSet, BatchOutput, DeployedLayer, DeployedNetwork, QMap};
use cc_systolic::{RunScratch, SimStats, TiledScheduler};
use cc_tensor::Tensor;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One offline workload.
#[derive(Clone, Copy, Debug)]
pub struct Offline {
    model: Model,
    /// Row-band lanes; `None` runs the unsharded engine path.
    lanes: Option<usize>,
    /// The latency limit a batch must meet, in ms.
    limit_ms: f64,
}

pub const ENGINE_RESNET20: Offline = Offline {
    model: Model::ResNet20,
    lanes: None,
    limit_ms: 5.0,
};
pub const BANDS2_LENET: Offline = Offline {
    model: Model::LeNet5,
    lanes: Some(2),
    limit_ms: 2.0,
};

const BATCH: usize = 4;

/// Everything a measured loop needs, built once per set-up.
struct Engine {
    net: DeployedNetwork,
    sched: TiledScheduler,
    scratch: ActivationScratch,
    bands: Option<BandSet>,
    /// Test-image indices of each batch, in the seeded order.
    batches: Vec<Vec<usize>>,
    images: Vec<Vec<Tensor>>,
}

impl Engine {
    fn new(built: &Built, lanes: Option<usize>, seed: u64) -> Self {
        let order = Rng::new(seed ^ 0x0bde_4a11).permutation(built.test.len());
        let batches: Vec<Vec<usize>> = order.chunks_exact(BATCH).map(<[usize]>::to_vec).collect();
        let images = batches
            .iter()
            .map(|b| b.iter().map(|&i| built.test.image(i).clone()).collect())
            .collect();
        Engine {
            net: built.net.clone(),
            sched: built.net.scheduler(),
            scratch: ActivationScratch::new(),
            bands: lanes.map(BandSet::new),
            batches,
            images,
        }
    }

    /// The measured call: one batch through the workload's path.
    fn run(&mut self, k: usize) -> Vec<Vec<f32>> {
        match &mut self.bands {
            Some(bands) => layers::banded_batch(
                &self.net,
                &self.sched,
                &self.images[k],
                &mut self.scratch,
                bands,
            ),
            None => {
                layers::engine_batch(&self.net, &self.sched, &self.images[k], &mut self.scratch)
            }
        }
    }

    /// Mismatching images of batch `k` against the reference.
    fn mismatches(&self, k: usize, logits: &[Vec<f32>], reference: &[Vec<f32>]) -> u64 {
        let batch = &self.batches[k];
        (logits.len() != batch.len()) as u64
            + batch
                .iter()
                .zip(logits)
                .filter(|(&i, l)| !same_bits(l, &reference[i]))
                .count() as u64
    }

    fn allocations(&self) -> u64 {
        self.scratch.buffer_allocations() + self.scratch.shell_allocations()
    }
}

/// The simulated cost of one batch: the busiest array's cycles and the
/// merged counters of every array.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct SimSig {
    makespan: u64,
    merged: SimStats,
}

/// Reads (and resets) the shard set's counters for the batch just run.
fn take_sig(bands: &mut BandSet) -> SimSig {
    let sig = SimSig {
        makespan: bands.makespan_cycles(),
        merged: bands.merged_stats(),
    };
    bands.reset_stats();
    sig
}

/// What one measured loop saw. Host times are kept raw and calibrated
/// (see [`crate::calib`]); the calibrated ones are the reported metrics.
#[derive(Default)]
struct Loop {
    raw_ms: Vec<f64>,
    batch_ms: Vec<f64>,
    /// Calibrated images per second of each full pass over the test set.
    pass_rates: Vec<f64>,
    raw_pass_rates: Vec<f64>,
    /// Reference-loop times, in ms.
    ref_ms: Vec<f64>,
    images: u64,
    within_limit: u64,
    sigs: Vec<SimSig>,
}

impl Loop {
    /// Books one full pass: `raw` batch times with the reference-loop
    /// times `probes` taken during it.
    fn pass(&mut self, raw: &[Duration], probes: &[Duration], limit_ms: f64) {
        let factor = calib::factor(probes);
        let secs: f64 = raw.iter().map(Duration::as_secs_f64).sum();
        let images = (raw.len() * BATCH) as f64;
        self.raw_pass_rates.push(images / secs);
        self.pass_rates.push(images / (secs * factor));
        for dt in raw {
            let raw_ms = dt.as_secs_f64() * 1e3;
            let ms = raw_ms * factor;
            self.raw_ms.push(raw_ms);
            self.batch_ms.push(ms);
            self.within_limit += if ms <= limit_ms { BATCH as u64 } else { 0 };
        }
        self.images += images as u64;
        self.ref_ms
            .extend(probes.iter().map(|p| p.as_secs_f64() * 1e3));
    }
}

/// The reference loop runs after every this many batches.
const PROBE_EVERY: usize = 4;

/// Runs whole passes over the batches in the seeded order until `until`
/// (at least one), checking every batch against the reference.
fn measure(
    eng: &mut Engine,
    built: &Built,
    spec: &Offline,
    until: Instant,
    report: &mut Report,
) -> Loop {
    let mut out = Loop::default();
    let mut reference = Reference::new();
    let n = eng.batches.len();
    let mut raw = Vec::with_capacity(n);
    let mut probes = Vec::with_capacity(n / PROBE_EVERY + 1);
    while out.pass_rates.is_empty() || Instant::now() < until {
        raw.clear();
        probes.clear();
        for k in 0..n {
            let t = Instant::now();
            let logits = eng.run(k);
            raw.push(t.elapsed());
            let bad = eng.mismatches(k, &logits, &built.reference);
            report.check(BATCH as u64, bad);
            if let Some(bands) = &mut eng.bands {
                out.sigs.push(take_sig(bands));
            }
            if k % PROBE_EVERY == 0 {
                probes.push(reference.time());
            }
        }
        out.pass(&raw, &probes, spec.limit_ms);
    }
    out
}

/// The engine path's sim counters, read once through a one-lane shard set
/// (the serial kernel with the set's accounting) on the first batch.
fn engine_sig(eng: &mut Engine, built: &Built, report: &mut Report) -> SimSig {
    let mut one = BandSet::new(1);
    let logits = layers::banded_batch(
        &eng.net,
        &eng.sched,
        &eng.images[0],
        &mut eng.scratch,
        &mut one,
    );
    let bad = eng.mismatches(0, &logits, &built.reference);
    report.check(BATCH as u64, bad);
    take_sig(&mut one)
}

pub fn run(args: &Args, spec: Offline, report: &mut Report) {
    // Warm-up: every batch once through the measured path and (for the
    // banded path) through the unsharded engine, both checked.
    let mut warm_bad = 0u64;
    let mut warm_ops = 0u64;
    let mut setup = setup::build_repeated(spec.model, args.size, args.seed, |built| {
        let mut eng = Engine::new(built, spec.lanes, args.seed);
        for k in 0..eng.batches.len() {
            let logits = eng.run(k);
            warm_bad += eng.mismatches(k, &logits, &built.reference);
            if eng.bands.is_some() {
                let plain =
                    layers::engine_batch(&eng.net, &eng.sched, &eng.images[k], &mut eng.scratch);
                warm_bad += eng.mismatches(k, &plain, &built.reference);
            }
            warm_ops += BATCH as u64;
        }
        if let Some(bands) = &mut eng.bands {
            bands.reset_stats();
            bands.reset_busy();
        }
        eng
    });
    record_setup(report, &setup);
    report.check(warm_ops, warm_bad);
    if args.perturb_reference {
        let first = setup.state.batches[0][0];
        setup.built.reference[first][0] += 1.0;
    }
    let (built, eng) = (&setup.built, &mut setup.state);
    report.note(format!(
        "{} test images in {} batches of {BATCH}; {} deployed layers; latency limit {} ms",
        built.test.len(),
        eng.batches.len(),
        eng.net.num_layers(),
        spec.limit_ms
    ));

    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let start = Instant::now();
    let allocs_before = eng.allocations();
    let plain = measure(
        eng,
        built,
        &spec,
        start + Duration::from_secs_f64(seconds),
        report,
    );
    report.set(
        "deploy.scratch_allocs",
        (eng.allocations() - allocs_before) as f64,
    );
    let sigs = match &eng.bands {
        Some(_) => plain.sigs.clone(),
        None => vec![engine_sig(eng, built, report)],
    };
    if sigs.windows(2).any(|w| w[0] != w[1]) {
        report
            .inconsistent
            .push("sim counters differ between batches".into());
    }
    let sig = sigs[0];
    let (p50, p99) = (
        windowed(&plain.batch_ms, 0.5),
        windowed(&plain.batch_ms, 0.99),
    );
    let images_per_s = median(&plain.pass_rates);
    let attainment = plain.within_limit as f64 / plain.images as f64;
    report.set("images_per_s", images_per_s);
    report.set("p50_ms", p50);
    report.set("p99_ms", p99);
    report.set("slo_attainment", attainment);
    // A closed loop runs at its own pace, so the rate it sustains within
    // the limit is its throughput over the batches that met the limit.
    report.set("slo_rps", images_per_s * attainment);
    report.set("sim_cycles_per_image", sig.makespan as f64 / BATCH as f64);
    report.set("sim_utilization", sig.merged.utilization());
    report.note(format!(
        "{} batches ({} full passes); sim per batch: makespan {} cycles, {:?}",
        plain.batch_ms.len(),
        plain.pass_rates.len(),
        sig.makespan,
        sig.merged
    ));
    report.note(format!(
        "uncalibrated host: {:.1} images/s, batch p50 {:.4} ms, p99 {:.4} ms; reference loop \
         median {:.4} ms (nominal {:.4} ms) over {} runs",
        median(&plain.raw_pass_rates),
        percentile(&plain.raw_ms, 0.5),
        percentile(&plain.raw_ms, 0.99),
        median(&plain.ref_ms),
        calib::NOMINAL.as_secs_f64() * 1e3,
        plain.ref_ms.len()
    ));

    if args.trace {
        let until = Instant::now() + Duration::from_secs_f64(seconds);
        let traced = measure_traced(eng, built, until, report);
        traced.report(eng, p50, report);
        write_trace(args, report, "spans.json", &traced.spans.chrome_json());
    }
}

/// Per-layer accumulators of the traced loop.
struct Traced {
    spans: Spans,
    /// Host time of each traced batch with the probes left out, in ms.
    batch_ms: Vec<f64>,
    images: u64,
    kinds: BTreeMap<&'static str, u64>,
    layer_ns: Vec<u64>,
    kernel_ns: u64,
    sim: SimStats,
    tiles: u64,
    nonzero_cells: u64,
    load_words: u64,
    lane_busy: Vec<u64>,
    band_overhead_ns: u64,
    /// Calibration factor of the traced stretch.
    factor: f64,
}

impl Traced {
    fn report(&self, eng: &Engine, untraced_p50: f64, report: &mut Report) {
        let per_image = |ns: u64| ns as f64 / self.images as f64;
        for (name, ns) in &self.kinds {
            report.set(name, per_image(*ns));
        }
        let conv = self
            .kinds
            .get("deploy.packed_conv.ns")
            .copied()
            .unwrap_or(0);
        report.set(
            "deploy.conv_epilogue.ns",
            per_image(conv.saturating_sub(self.kernel_ns)),
        );
        report.set("systolic.kernel.ns", per_image(self.kernel_ns));
        for (i, ns) in self.layer_ns.iter().enumerate() {
            report.set(&layer_metric(i), per_image(*ns));
        }
        report.set("systolic.tiles", per_image(self.tiles));
        report.set("systolic.mac_ops", per_image(self.sim.mac_ops));
        report.set(
            "systolic.cell_word_slots",
            per_image(self.sim.cell_word_slots),
        );
        report.set("systolic.load_cycles", per_image(self.sim.load_cycles));
        report.set(
            "packing.density",
            self.nonzero_cells as f64 / self.load_words.max(1) as f64,
        );
        if let Some(bands) = &eng.bands {
            for (lane, ns) in self.lane_busy.iter().enumerate() {
                report.set(&format!("bands.lane{lane}.busy_ns"), per_image(*ns));
            }
            report.set("bands.overhead_ns", per_image(self.band_overhead_ns));
            report.set("bands.makespan_cycles", per_image(bands.makespan_cycles()));
            let cycles: Vec<u64> = bands.shard_stats().iter().map(|s| s.cycles).collect();
            let (lo, hi) = (cycles.iter().min().copied(), cycles.iter().max().copied());
            report.set(
                "bands.balance",
                lo.unwrap_or(0) as f64 / hi.unwrap_or(1).max(1) as f64,
            );
        }
        report.set(
            "trace_overhead",
            percentile(&self.batch_ms, 0.5) * self.factor / untraced_p50,
        );
        report.note(format!(
            "traced: {} batches, {} spans; per-layer ns are host ns per image",
            self.batch_ms.len(),
            self.spans.len()
        ));
    }
}

/// The traced loop: the same batches run layer by layer through the
/// engine's public per-layer call, with a span around each call. Probes
/// (the array kernel re-run on each conv's data matrix, and residual
/// bodies re-run stage by stage) are recorded as child spans and kept out
/// of the batch time.
fn measure_traced(eng: &mut Engine, built: &Built, until: Instant, report: &mut Report) -> Traced {
    let layer_names: Vec<String> = (0..eng.net.num_layers()).map(layer_metric).collect();
    let mut t = Traced {
        spans: Spans::new(),
        batch_ms: Vec::new(),
        images: 0,
        kinds: BTreeMap::new(),
        layer_ns: vec![0; eng.net.num_layers()],
        kernel_ns: 0,
        sim: SimStats::default(),
        tiles: 0,
        nonzero_cells: 0,
        load_words: 0,
        lane_busy: vec![0; eng.bands.as_ref().map_or(0, BandSet::shards)],
        band_overhead_ns: 0,
        factor: 1.0,
    };
    if let Some(bands) = &mut eng.bands {
        bands.reset_stats();
    }
    let mut probe = Probe {
        run: RunScratch::new(),
        scratch: ActivationScratch::new(),
    };
    let mut reference = Reference::new();
    let mut ref_times = Vec::new();
    let n = eng.batches.len();
    let mut k = 0;
    let mut group = 0u64;
    while Instant::now() < until || t.batch_ms.len() < n {
        group += 1;
        let Engine {
            net,
            sched,
            scratch,
            bands,
            images,
            ..
        } = eng;
        let (maps, q) = t.spans.time("deploy.quantize.ns", None, group, || {
            layers::quantize(net, &images[k], scratch)
        });
        let mut batch_ns = t.spans.get(q).dur_ns;
        *t.kinds.entry("deploy.quantize.ns").or_insert(0) += batch_ns;
        let mut data = BatchOutput::Maps(maps);
        for (i, layer) in net.layers().iter().enumerate() {
            let BatchOutput::Maps(maps) = data else {
                panic!("layers after the classifier head")
            };
            let busy_before = bands.as_ref().map(|b| b.busy_nanos().to_vec());
            let (out, idx) = t.spans.time(&layer_names[i], None, group, || {
                layers::layer(layer, &maps, sched, scratch, bands.as_mut())
            });
            let dur = t.spans.get(idx).dur_ns;
            batch_ns += dur;
            t.layer_ns[i] += dur;
            if let (Some(bands), Some(before)) = (bands.as_ref(), busy_before) {
                let busy: Vec<u64> = bands
                    .busy_nanos()
                    .iter()
                    .zip(&before)
                    .map(|(a, b)| a - b)
                    .collect();
                for (lane, ns) in busy.iter().enumerate() {
                    t.lane_busy[lane] += ns;
                }
                if matches!(layer, DeployedLayer::PackedConv { .. }) {
                    t.band_overhead_ns +=
                        dur.saturating_sub(busy.iter().copied().max().unwrap_or(0));
                }
            }
            probe.layer(layer, &maps, dur, idx, sched, &mut t, group);
            scratch.recycle_batch(maps);
            data = out;
        }
        let BatchOutput::Logits(logits) = data else {
            panic!("network has no classifier head")
        };
        let bad = eng.mismatches(k, &logits, &built.reference);
        report.check(BATCH as u64, bad);
        t.batch_ms.push(batch_ns as f64 / 1e6);
        t.images += BATCH as u64;
        if k % PROBE_EVERY == 0 {
            ref_times.push(reference.time());
        }
        k = (k + 1) % n;
    }
    t.factor = calib::factor(&ref_times);
    t
}

/// Scratch for the probe runs, kept apart from the measured scratch so
/// probes never touch its pools or counters.
struct Probe {
    run: RunScratch,
    scratch: ActivationScratch,
}

impl Probe {
    /// Attributes one layer call of `dur_ns` to its kind, re-running what
    /// the call hides: the array kernel of a packed conv, and the body
    /// stages of a residual block (whose add is the remainder).
    #[allow(clippy::too_many_arguments)]
    fn layer(
        &mut self,
        layer: &DeployedLayer,
        inputs: &[QMap],
        dur_ns: u64,
        parent: usize,
        sched: &TiledScheduler,
        t: &mut Traced,
        group: u64,
    ) {
        let kind = match layer {
            DeployedLayer::Shift { .. } => "deploy.shift.ns",
            DeployedLayer::PackedConv { tiles, .. } => {
                let data = layers::conv_data_matrix(inputs);
                let (stats, idx) = t.spans.time("systolic.kernel.ns", Some(parent), group, || {
                    layers::kernel(sched, tiles, &data, &mut self.run)
                });
                t.kernel_ns += t.spans.get(idx).dur_ns;
                t.sim.merge(&stats);
                t.tiles += tiles.num_tiles() as u64;
                t.nonzero_cells += tiles.nonzero_cells();
                t.load_words += tiles.load_words();
                "deploy.packed_conv.ns"
            }
            DeployedLayer::AvgPool | DeployedLayer::GlobalAvgPool => "deploy.pool.ns",
            DeployedLayer::Relu => "deploy.relu.ns",
            DeployedLayer::Linear { .. } => "deploy.linear.ns",
            DeployedLayer::Residual { body, .. } => {
                let mut body_ns = 0;
                let mut held: Option<Vec<QMap>> = None;
                for stage in body {
                    let src: &[QMap] = held.as_deref().unwrap_or(inputs);
                    let (out, idx) =
                        t.spans
                            .time("probe.residual_body", Some(parent), group, || {
                                layers::layer(stage, src, sched, &mut self.scratch, None)
                            });
                    let stage_ns = t.spans.get(idx).dur_ns;
                    body_ns += stage_ns;
                    self.layer(stage, src, stage_ns, idx, sched, t, group);
                    let BatchOutput::Maps(out) = out else {
                        panic!("classifier inside a residual body")
                    };
                    if let Some(consumed) = held.replace(out) {
                        self.scratch.recycle_batch(consumed);
                    }
                }
                if let Some(last) = held {
                    self.scratch.recycle_batch(last);
                }
                *t.kinds.entry("deploy.residual_add.ns").or_insert(0) +=
                    dur_ns.saturating_sub(body_ns);
                return;
            }
        };
        *t.kinds.entry(kind).or_insert(0) += dur_ns;
    }
}

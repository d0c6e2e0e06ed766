//! Shard benchmark: one model scattered across N simulated systolic
//! arrays, at three altitudes —
//!
//! 1. **Kernel**: synthetic layer-shaped packed matrices carved into row
//!    bands ([`PreparedPacked::partition_row_bands`]); the simulated-cycle
//!    makespan (the busiest band's array) must fall monotonically as
//!    shards are added. Pure simulation, deterministic.
//! 2. **Model**: a deployed LeNet sharded two ways — row bands (every
//!    conv through a [`BandSet`]) and layer cuts (a
//!    [`partition_min_max`] split of the layer costs, one
//!    [`DeployedNetwork::run_stage`] per range, folded as concurrent
//!    arrays) — makespan, parallel cycle speedup, and host wall clock per
//!    batch.
//! 3. **Serving**: a shards × workers × batch closed-loop sweep through
//!    the full `cc-serve` stack, with per-stage/per-shard occupancy.
//!
//! Results land machine-readable in `results/bench_shard.json`. CI runs
//! the `shard_gate` tests in this module: the makespan monotonicity gate
//! (simulated, deterministic) and a release-mode wall-clock gate asserting
//! the 1-shard banded path does not regress against the direct scratch
//! path.

use crate::experiments::kernel_bench::best_ns;
use crate::report::{fnum, JsonValue, Table};
use crate::scale::Scale;
use crate::setups;
use cc_dataset::Dataset;
use cc_deploy::{identity_groups, ActivationScratch, BandSet, BatchOutput, DeployedNetwork};
use cc_packing::{group_columns, pack_columns, GroupingConfig};
use cc_systolic::array::{ArrayConfig, QuantPacked};
use cc_systolic::{
    partition_min_max, ArrayGeometry, PreparedPacked, RunScratch, SimStats, TiledScheduler,
};
use cc_tensor::init::sparse_matrix;
use cc_tensor::quant::{AccumWidth, QuantMatrix, QuantParams};
use cc_tensor::Tensor;
use std::hint::black_box;

/// Shard widths the experiment sweeps.
const SHARD_SWEEP: [usize; 4] = [1, 2, 3, 4];

/// One layer-shaped kernel workload (row count chosen to span several
/// tile row-groups on the 32-row array, so bands can actually fan out).
struct LayerCase {
    name: &'static str,
    rows: usize,
    cols: usize,
    density: f64,
    l: usize,
}

fn layer_cases() -> Vec<LayerCase> {
    vec![
        // A wide mid-network layer: 8 row-groups on the 32-row array.
        LayerCase { name: "layer_256x120_l16", rows: 256, cols: 120, density: 0.16, l: 16 },
        // A deeper, sparser late layer with a longer stream.
        LayerCase { name: "layer_320x200_l32", rows: 320, cols: 200, density: 0.10, l: 32 },
    ]
}

fn prepared_fixture(case: &LayerCase, seed: u64) -> (PreparedPacked, QuantMatrix, TiledScheduler) {
    let f = sparse_matrix(case.rows, case.cols, case.density, seed);
    let params = QuantParams::calibrate(f.as_slice());
    let groups = group_columns(&f, &GroupingConfig::paper_default());
    let qp = QuantPacked::quantize_with(&pack_columns(&f, &groups), params);
    let sched = TiledScheduler::new(ArrayConfig::new(32, 32, AccumWidth::Bits32));
    let prepared = sched.prepare_packed(&qp);
    let d = QuantMatrix::quantize(&sparse_matrix(case.cols, case.l, 1.0, seed ^ 0x5));
    (prepared, d, sched)
}

/// Simulated makespans (max band cycles) of one kernel case across the
/// shard sweep, with the scatter/gather actually executed and checked
/// against the unsharded plane.
fn kernel_makespans(case: &LayerCase) -> Vec<(usize, usize, u64)> {
    let (prepared, d, sched) = prepared_fixture(case, 61);
    let mut reference = RunScratch::new();
    sched.run_prepared_with(&prepared, &d, &mut reference);
    SHARD_SWEEP
        .iter()
        .map(|&shards| {
            let plan = prepared.partition_row_bands(shards);
            let mut primary = RunScratch::new();
            let mut aux = vec![RunScratch::new(); plan.len().saturating_sub(1)];
            let mut runs = Vec::new();
            sched.run_bands(&prepared, &plan, &[], &[], &d, &mut primary, &mut aux, &mut runs);
            assert_eq!(
                primary.outputs(),
                reference.outputs(),
                "sharded gather diverged on {}",
                case.name
            );
            let makespan = runs.iter().map(|r| r.stats.cycles).max().unwrap_or(0);
            (shards, plan.len(), makespan)
        })
        .collect()
}

/// The makespan of one kernel case scattered across an explicit fleet of
/// array geometries (cost-weighted band planning), with the gather checked
/// bit-identical against the unsharded plane. Returns `(bands, makespan)`.
fn fleet_makespan(
    prepared: &PreparedPacked,
    sched: &TiledScheduler,
    d: &QuantMatrix,
    fleet: &[ArrayGeometry],
    reference: &RunScratch,
) -> (usize, u64) {
    let plan = prepared.partition_row_bands_for(fleet, d.cols());
    let mut primary = RunScratch::new();
    let mut aux = vec![RunScratch::new(); plan.len().saturating_sub(1)];
    let mut runs = Vec::new();
    sched.run_bands(prepared, &plan, fleet, &[], d, &mut primary, &mut aux, &mut runs);
    assert_eq!(primary.outputs(), reference.outputs(), "fleet gather diverged");
    (plan.len(), runs.iter().map(|r| r.stats.cycles).max().unwrap_or(0))
}

/// Fleet configurations the heterogeneous sweep compares: the base 32×32
/// array alone, doubled, and paired with progressively weaker partners.
fn fleet_cases() -> Vec<(&'static str, Vec<ArrayGeometry>)> {
    let base = ArrayGeometry::new(32, 32);
    vec![
        ("base_alone", vec![base]),
        ("2x_base", vec![base, base]),
        ("base_plus_half", vec![base, ArrayGeometry::new(16, 16)]),
        ("base_plus_quarter", vec![base, ArrayGeometry::new(8, 8)]),
    ]
}

/// Homogeneous-vs-heterogeneous fleet makespans for one kernel case, plus
/// the weakest partner array's solo makespan as the baseline a sane
/// hetero plan must beat.
fn fleet_rows(case: &LayerCase) -> Vec<(&'static str, usize, u64)> {
    let (prepared, d, sched) = prepared_fixture(case, 61);
    let mut reference = RunScratch::new();
    sched.run_prepared_with(&prepared, &d, &mut reference);
    let mut rows: Vec<(&'static str, usize, u64)> = fleet_cases()
        .iter()
        .map(|(name, fleet)| {
            let (bands, makespan) = fleet_makespan(&prepared, &sched, &d, fleet, &reference);
            (*name, bands, makespan)
        })
        .collect();
    let weak = vec![ArrayGeometry::new(8, 8)];
    let (bands, solo) = fleet_makespan(&prepared, &sched, &d, &weak, &reference);
    rows.push(("quarter_alone", bands, solo));
    rows
}

/// A deployed LeNet on a deliberately small-row array so every conv spans
/// several tile row-groups — the geometry sharding needs to fan out.
fn model_fixture(scale: &Scale) -> (DeployedNetwork, Vec<Tensor>) {
    let scale =
        Scale { image_hw: scale.image_hw.max(12), width_mult: scale.width_mult.max(0.5), ..*scale };
    let (train, test) = setups::mnist_setup(&scale, 63);
    let net = setups::lenet(&scale, 63);
    let deployed = DeployedNetwork::build_with_array(
        &net,
        &identity_groups(&net),
        &train,
        ArrayConfig::new(8, 32, AccumWidth::Bits32),
    );
    let images: Vec<Tensor> = (0..4).map(|i| test.image(i % test.len()).clone()).collect();
    (deployed, images)
}

struct ModelRow {
    mode: &'static str,
    shards: usize,
    makespan: u64,
    merged_cycles: u64,
    wall_ns: f64,
}

impl ModelRow {
    fn cycle_speedup(&self) -> f64 {
        self.merged_cycles as f64 / self.makespan.max(1) as f64
    }

    fn as_json(&self) -> JsonValue {
        JsonValue::obj([
            ("mode", JsonValue::from(self.mode)),
            ("shards", JsonValue::from(self.shards)),
            ("makespan_cycles", JsonValue::from(self.makespan)),
            ("merged_cycles", JsonValue::from(self.merged_cycles)),
            ("cycle_speedup", JsonValue::from(self.cycle_speedup())),
            ("wall_ns_per_batch", JsonValue::from(self.wall_ns)),
        ])
    }
}

/// Layer cuts as pipeline stages: one batch through `ranges` in sequence,
/// range `i` on its own activation scratch `acts[i]` and on the one-array
/// set `bands` (reset per range). Returns the logits and each range's
/// merged stats — one simulated array per range.
fn run_layer_cuts(
    deployed: &DeployedNetwork,
    images: &[Tensor],
    ranges: &[std::ops::Range<usize>],
    acts: &mut [ActivationScratch],
    bands: &mut BandSet,
) -> (Vec<Vec<f32>>, Vec<SimStats>) {
    let sched = deployed.scheduler();
    let mut data = BatchOutput::Maps(deployed.quantize_batch_scratch(images, &mut acts[0]));
    let mut per_range = Vec::with_capacity(ranges.len());
    for (range, scratch) in ranges.iter().zip(acts.iter_mut()) {
        bands.reset_stats();
        data = deployed.run_stage(range.clone(), data, &sched, scratch, Some(&mut *bands));
        per_range.push(bands.merged_stats());
    }
    let BatchOutput::Logits(logits) = data else {
        panic!("deployed network has no classifier head")
    };
    (logits, per_range)
}

fn measure_model(deployed: &DeployedNetwork, images: &[Tensor], iters: u32) -> Vec<ModelRow> {
    let serial = deployed.run_batch(images);
    let sched = deployed.scheduler();
    let mut rows = Vec::new();
    let mut acts = ActivationScratch::new();
    for &shards in &SHARD_SWEEP {
        let mut bands = BandSet::new(shards);
        let logits = deployed.run_batch_banded(&sched, images, &mut acts, &mut bands);
        assert_eq!(logits, serial, "row_bands at {shards} shards diverged");
        let (makespan, merged_cycles) = (bands.makespan_cycles(), bands.merged_stats().cycles);
        let wall_ns = best_ns(
            || {
                let images = black_box(images);
                black_box(deployed.run_batch_banded(&sched, images, &mut acts, &mut bands));
            },
            iters,
            2,
        );
        rows.push(ModelRow { mode: "row_bands", shards, makespan, merged_cycles, wall_ns });
    }
    for &shards in &SHARD_SWEEP {
        let ranges = partition_min_max(&deployed.layer_costs(), shards);
        let mut stage_acts: Vec<ActivationScratch> =
            ranges.iter().map(|_| ActivationScratch::new()).collect();
        let mut bands = BandSet::new(1);
        let (logits, per_range) =
            run_layer_cuts(deployed, images, &ranges, &mut stage_acts, &mut bands);
        assert_eq!(logits, serial, "layers at {shards} shards diverged");
        // Layer ranges run side by side in steady state (batches pipeline
        // through them): the makespan is the concurrent fold.
        let (mut merged, mut concurrent) = (SimStats::default(), SimStats::default());
        for s in &per_range {
            merged.merge(s);
            concurrent.merge_concurrent(s);
        }
        let wall_ns = best_ns(
            || {
                black_box(run_layer_cuts(
                    deployed,
                    black_box(images),
                    &ranges,
                    &mut stage_acts,
                    &mut bands,
                ));
            },
            iters,
            2,
        );
        rows.push(ModelRow {
            mode: "layers",
            shards: ranges.len(),
            makespan: concurrent.cycles,
            merged_cycles: merged.cycles,
            wall_ns,
        });
    }
    rows
}

/// Runs the shard benchmark and returns the printed tables; also writes
/// `results/bench_shard.json`.
pub fn run(scale: &Scale) -> Vec<Table> {
    let release = !cfg!(debug_assertions);
    let iters = if release { 10 } else { 1 };

    // 1. Kernel-level makespans.
    let mut kernel_table = Table::new(
        "Shards: simulated-cycle makespan of row-banded layer workloads",
        &["case", "shards", "bands", "makespan_cycles", "speedup_vs_1"],
    );
    let mut kernel_json = Vec::new();
    for case in layer_cases() {
        let rows = kernel_makespans(&case);
        let base = rows[0].2;
        for &(shards, bands, makespan) in &rows {
            kernel_table.push_row(vec![
                case.name.into(),
                shards.to_string(),
                bands.to_string(),
                makespan.to_string(),
                fnum(base as f64 / makespan.max(1) as f64, 2),
            ]);
            kernel_json.push(JsonValue::obj([
                ("case", JsonValue::from(case.name)),
                ("shards", JsonValue::from(shards)),
                ("bands", JsonValue::from(bands)),
                ("makespan_cycles", JsonValue::from(makespan)),
                ("speedup_vs_1", JsonValue::from(base as f64 / makespan.max(1) as f64)),
            ]));
        }
    }

    // 1b. Homogeneous vs heterogeneous fleets (pure simulation).
    let mut fleet_table = Table::new(
        "Shards: homogeneous vs heterogeneous fleet makespans",
        &["case", "fleet", "bands", "makespan_cycles", "speedup_vs_base_alone"],
    );
    let mut fleet_json = Vec::new();
    for case in layer_cases() {
        let rows = fleet_rows(&case);
        let base = rows[0].2;
        for &(fleet, bands, makespan) in &rows {
            fleet_table.push_row(vec![
                case.name.into(),
                fleet.into(),
                bands.to_string(),
                makespan.to_string(),
                fnum(base as f64 / makespan.max(1) as f64, 2),
            ]);
            fleet_json.push(JsonValue::obj([
                ("case", JsonValue::from(case.name)),
                ("fleet", JsonValue::from(fleet)),
                ("bands", JsonValue::from(bands)),
                ("makespan_cycles", JsonValue::from(makespan)),
                ("speedup_vs_base_alone", JsonValue::from(base as f64 / makespan.max(1) as f64)),
            ]));
        }
    }

    // 2. Model-level sharding.
    let (deployed, images) = model_fixture(scale);
    let model_rows = measure_model(&deployed, &images, iters);
    let mut model_table = Table::new(
        "Shards: deployed LeNet, row bands and layer cuts (batch of 4)",
        &["mode", "shards", "makespan_cycles", "cycle_speedup", "wall_ns_per_batch"],
    );
    for row in &model_rows {
        model_table.push_row(vec![
            row.mode.into(),
            row.shards.to_string(),
            row.makespan.to_string(),
            fnum(row.cycle_speedup(), 2),
            fnum(row.wall_ns, 0),
        ]);
    }

    // 3. Serving sweep: shards × workers × batch at equal offered
    // concurrency per (workers, batch) group.
    let test = Dataset::new(images.clone(), vec![0; images.len()], 1);
    let requests = if release { 96 } else { 24 };
    let mut serving_table = Table::new(
        "Shards: closed-loop serving sweep (shards x workers x max_batch)",
        &["shards", "workers", "max_batch", "throughput_rps", "p50_us", "shard_busy"],
    );
    let mut serving_json = Vec::new();
    for &shards in &[1usize, 2, 4] {
        for &workers in &[1usize, 2] {
            for &max_batch in &[4usize, 8] {
                let clients = (workers * max_batch).clamp(2, 8);
                let stats = crate::experiments::serve_load::closed_loop(
                    &deployed, &test, workers, max_batch, 1, shards, clients, requests,
                );
                let busy = stats
                    .shard_busy
                    .iter()
                    .map(|f| fnum(*f, 2))
                    .collect::<Vec<_>>()
                    .join("/");
                serving_table.push_row(vec![
                    shards.to_string(),
                    workers.to_string(),
                    max_batch.to_string(),
                    fnum(stats.throughput_rps, 1),
                    fnum(stats.p50.as_secs_f64() * 1e6, 0),
                    busy,
                ]);
                serving_json.push(JsonValue::obj([
                    ("shards", JsonValue::from(shards)),
                    ("workers", JsonValue::from(workers)),
                    ("max_batch", JsonValue::from(max_batch)),
                    ("requests", JsonValue::from(requests)),
                    ("completed", JsonValue::from(stats.completed)),
                    ("throughput_rps", JsonValue::from(stats.throughput_rps)),
                    ("p50_us", JsonValue::from(stats.p50.as_secs_f64() * 1e6)),
                    ("p99_us", JsonValue::from(stats.p99.as_secs_f64() * 1e6)),
                    (
                        "stage_busy",
                        JsonValue::Arr(
                            stats.stage_busy.iter().map(|&f| JsonValue::from(f)).collect(),
                        ),
                    ),
                    (
                        "shard_busy",
                        JsonValue::Arr(
                            stats.shard_busy.iter().map(|&f| JsonValue::from(f)).collect(),
                        ),
                    ),
                ]));
            }
        }
    }

    let json = JsonValue::obj([
        ("experiment", JsonValue::from("shard_bench")),
        ("profile", JsonValue::from(if release { "release" } else { "debug" })),
        ("kernel", JsonValue::Arr(kernel_json)),
        ("fleet", JsonValue::Arr(fleet_json)),
        ("model", JsonValue::Arr(model_rows.iter().map(ModelRow::as_json).collect())),
        ("serving", JsonValue::Arr(serving_json)),
    ]);
    if let Err(e) = crate::report::write_json("results/bench_shard.json", &json) {
        eprintln!("warning: could not write results/bench_shard.json: {e}");
    }

    vec![kernel_table, fleet_table, model_table, serving_table]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// CI gate, part 1 (simulated, deterministic): on the layer workloads
    /// the row-band makespan must decrease strictly and monotonically from
    /// 1 to 4 shards — adding arrays must keep buying simulated time.
    #[test]
    fn shard_gate_makespan_scales_down_monotonically() {
        for case in layer_cases() {
            let rows = kernel_makespans(&case);
            for pair in rows.windows(2) {
                assert!(
                    pair[1].2 < pair[0].2,
                    "{}: makespan must fall {} -> {} shards: {} vs {}",
                    case.name,
                    pair[0].0,
                    pair[1].0,
                    pair[0].2,
                    pair[1].2,
                );
            }
        }
    }

    /// CI gate (simulated, deterministic): pairing the base array with a
    /// weaker partner must help, not hurt — the heterogeneous 2-shard
    /// plan's makespan must fall strictly below the *worst* single array
    /// running everything alone, and must not exceed the base array
    /// alone (a cost-weighted planner that hands a straggler too much
    /// work would violate one of these).
    #[test]
    fn shard_gate_hetero_fleet_beats_worst_single_array() {
        for case in layer_cases() {
            let (prepared, d, sched) = prepared_fixture(&case, 61);
            let mut reference = RunScratch::new();
            sched.run_prepared_with(&prepared, &d, &mut reference);
            let base = ArrayGeometry::new(32, 32);
            let weak = ArrayGeometry::new(8, 8);
            let (_, base_alone) =
                fleet_makespan(&prepared, &sched, &d, &[base], &reference);
            let (_, weak_alone) =
                fleet_makespan(&prepared, &sched, &d, &[weak], &reference);
            let (bands, hetero) =
                fleet_makespan(&prepared, &sched, &d, &[base, weak], &reference);
            assert_eq!(bands, 2, "{}: the fleet must actually fan out", case.name);
            assert!(
                hetero < weak_alone,
                "{}: hetero plan must beat the weak array alone: {hetero} vs {weak_alone}",
                case.name
            );
            assert!(
                hetero <= base_alone,
                "{}: adding a weak array must never hurt the base: {hetero} vs {base_alone}",
                case.name
            );
        }
    }

    /// CI gate, part 2 (wall clock, release only): the banded path at one
    /// shard is the serial kernel plus stats accounting — it must not
    /// meaningfully regress against the direct scratch path.
    #[test]
    fn shard_gate_one_shard_wall_clock_no_regression() {
        if cfg!(debug_assertions) {
            eprintln!("skipping shard wall-clock gate in debug build");
            return;
        }
        let _exclusive = crate::perf_gate_lock();
        let (deployed, images) = model_fixture(&Scale::quick());
        let sched = deployed.scheduler();
        let mut scratch = ActivationScratch::new();
        deployed.run_batch_scratch(&sched, &images, &mut scratch);
        let direct_ns = best_ns(
            || {
                black_box(deployed.run_batch_scratch(&sched, black_box(&images), &mut scratch));
            },
            20,
            2,
        );
        let mut bands = BandSet::new(1);
        let mut banded_scratch = ActivationScratch::new();
        deployed.run_batch_banded(&sched, &images, &mut banded_scratch, &mut bands);
        let banded_ns = best_ns(
            || {
                bands.reset_stats();
                black_box(deployed.run_batch_banded(
                    &sched,
                    black_box(&images),
                    &mut banded_scratch,
                    &mut bands,
                ));
            },
            20,
            2,
        );
        assert!(
            banded_ns <= direct_ns / 0.75,
            "1-shard banded path regressed: {banded_ns:.0} ns vs direct {direct_ns:.0} ns"
        );
    }

    /// Debug-profile smoke: the experiment plumbing runs end to end on a
    /// small fixture and the in-measurement bit-identity holds.
    #[test]
    fn shard_bench_smoke() {
        let case = LayerCase { name: "smoke", rows: 96, cols: 40, density: 0.3, l: 4 };
        let rows = kernel_makespans(&case);
        assert_eq!(rows.len(), SHARD_SWEEP.len());
        assert!(rows[0].2 > 0);
    }
}

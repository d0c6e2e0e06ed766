//! Property suite for multi-array sharding: whole deployed networks
//! sharded 1–4 ways — row bands through a [`BandSet`], or layer cuts run
//! as one `run_stage` per `partition_min_max` range — must reproduce the
//! unsharded `run_batch` bit-exactly, with merged [`SimStats`] that are
//! shard-plan invariant, and the kernel-level band scatter/gather
//! (`run_bands`, with or without fault actions) must match the unsharded
//! prepared run on random packings.

use cc_deploy::{identity_groups, ActivationScratch, BandSet, BatchOutput, DeployedNetwork};
use cc_nn::models::{lenet5_shift, resnet20_shift, ModelConfig};
use cc_packing::{group_columns, pack_columns, GroupingConfig};
use cc_systolic::array::{ArrayConfig, QuantPacked, SimStats};
use cc_systolic::{
    partition_min_max, ArrayGeometry, BandAction, BandOutcome, CellKind, RunScratch, TiledScheduler,
};
use cc_tensor::init::sparse_matrix;
use cc_tensor::quant::{AccumWidth, QuantMatrix, QuantParams};
use cc_tensor::Tensor;
use proptest::prelude::*;
use std::ops::Range;
use std::sync::OnceLock;

/// Deployed fixtures are expensive to build (train-free, but packing and
/// calibration still cost seconds); build each once and share across
/// proptest cases. The 4×8 array makes even tiny convs span several tile
/// row-groups, so row-band plans genuinely fan out.
fn small_array() -> ArrayConfig {
    ArrayConfig::new(4, 8, AccumWidth::Bits32)
}

fn lenet_fixture() -> &'static (DeployedNetwork, Vec<Tensor>, Vec<Vec<f32>>) {
    static FIXTURE: OnceLock<(DeployedNetwork, Vec<Tensor>, Vec<Vec<f32>>)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let (train, test) = cc_dataset::SyntheticSpec::mnist_like()
            .with_size(8, 8)
            .with_samples(48, 8)
            .generate(71);
        let net = lenet5_shift(&ModelConfig::tiny(1, 8, 8, 10));
        let deployed =
            DeployedNetwork::build_with_array(&net, &identity_groups(&net), &train, small_array());
        let images: Vec<Tensor> = (0..test.len()).map(|i| test.image(i).clone()).collect();
        let serial = deployed.run_batch(&images);
        (deployed, images, serial)
    })
}

fn resnet_fixture() -> &'static (DeployedNetwork, Vec<Tensor>, Vec<Vec<f32>>) {
    static FIXTURE: OnceLock<(DeployedNetwork, Vec<Tensor>, Vec<Vec<f32>>)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let (train, test) = cc_dataset::SyntheticSpec::cifar_like()
            .with_size(8, 8)
            .with_samples(32, 6)
            .generate(72);
        let net = resnet20_shift(&ModelConfig::tiny(3, 8, 8, 10));
        let deployed =
            DeployedNetwork::build_with_array(&net, &identity_groups(&net), &train, small_array());
        let images: Vec<Tensor> = (0..test.len()).map(|i| test.image(i).clone()).collect();
        let serial = deployed.run_batch(&images);
        (deployed, images, serial)
    })
}

/// A deterministic fleet of `shards` mixed geometries (rows, cols, and
/// cell kind all vary) derived from one u64, so proptest shrinking stays
/// meaningful while the fleet space is genuinely heterogeneous.
fn random_fleet(shards: usize, gseed: u64) -> Vec<ArrayGeometry> {
    let mut s = gseed;
    let mut next = move || {
        s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (s >> 33) as usize
    };
    (0..shards)
        .map(|_| {
            let g = ArrayGeometry::new(2 + next() % 11, 2 + next() % 15);
            match next() % 3 {
                0 => g.with_cell(CellKind::Balanced),
                1 => g.with_cell(CellKind::Interleaved),
                _ => g, // keep the multiplexed default
            }
        })
        .collect()
}

/// One sharded batch: logits plus per-shard, merged, and makespan
/// counters.
struct Sharded {
    logits: Vec<Vec<f32>>,
    per_shard: Vec<SimStats>,
    merged: SimStats,
    makespan: u64,
}

/// Row-band sharding: the whole network through `bands` (stats reset
/// first, so each call reports one batch).
fn row_bands(
    net: &DeployedNetwork,
    images: &[Tensor],
    acts: &mut ActivationScratch,
    bands: &mut BandSet,
) -> Sharded {
    bands.reset_stats();
    let logits = net.run_batch_banded(&net.scheduler(), images, acts, bands);
    Sharded {
        logits,
        per_shard: bands.shard_stats().to_vec(),
        merged: bands.merged_stats(),
        makespan: bands.makespan_cycles(),
    }
}

/// Layer cuts: one `run_stage` per range, range `i` on its own activation
/// scratch and one-array set (reset per range), the ranges folded as
/// concurrently running arrays.
fn layer_cuts(
    net: &DeployedNetwork,
    images: &[Tensor],
    ranges: &[Range<usize>],
    acts: &mut [ActivationScratch],
    bands: &mut BandSet,
) -> Sharded {
    let sched = net.scheduler();
    let mut data = BatchOutput::Maps(net.quantize_batch_scratch(images, &mut acts[0]));
    let mut per_shard = Vec::new();
    for (range, scratch) in ranges.iter().zip(acts.iter_mut()) {
        bands.reset_stats();
        data = net.run_stage(range.clone(), data, &sched, scratch, Some(&mut *bands));
        per_shard.push(bands.merged_stats());
    }
    let BatchOutput::Logits(logits) = data else { panic!("no classifier head") };
    let (mut merged, mut concurrent) = (SimStats::default(), SimStats::default());
    for s in &per_shard {
        merged.merge(s);
        concurrent.merge_concurrent(s);
    }
    Sharded { logits, per_shard, merged, makespan: concurrent.cycles }
}

/// A reusable sharded executor over one network: row bands or layer cuts
/// at `shards`, holding its scratches across calls.
struct Plan {
    ranges: Option<Vec<Range<usize>>>,
    acts: Vec<ActivationScratch>,
    bands: BandSet,
}

impl Plan {
    fn new(net: &DeployedNetwork, row_bands: bool, shards: usize) -> Self {
        let ranges = (!row_bands).then(|| partition_min_max(&net.layer_costs(), shards));
        let n = ranges.as_ref().map_or(1, Vec::len);
        Plan {
            acts: (0..n).map(|_| ActivationScratch::new()).collect(),
            bands: BandSet::new(if row_bands { shards } else { 1 }),
            ranges,
        }
    }

    fn run(&mut self, net: &DeployedNetwork, images: &[Tensor]) -> Sharded {
        match &self.ranges {
            Some(ranges) => layer_cuts(net, images, ranges, &mut self.acts, &mut self.bands),
            None => row_bands(net, images, &mut self.acts[0], &mut self.bands),
        }
    }
}

/// Band actions decoded from proptest codes: 0 run, 1 stall, 2 poison,
/// 3 dead.
fn decode_actions(codes: &[u8]) -> Vec<BandAction> {
    codes
        .iter()
        .map(|c| match c % 4 {
            0 => BandAction::Run,
            1 => BandAction::Stall(5),
            2 => BandAction::Poison,
            _ => BandAction::Dead,
        })
        .collect()
}

proptest! {
    // Cases and RNG stream are pinned so CI failures replay exactly.
    #![proptest_config(ProptestConfig::with_cases(16).with_rng_seed(0xA5_1305_0005))]

    /// Whole-network sharding: any (mode, shard count, batch slice) must
    /// be bit-identical to the unsharded batch, and the merged stats must
    /// be identical across every plan — the scatter redistributes work,
    /// it never changes it.
    #[test]
    fn sharded_network_matches_unsharded_bit_exactly(
        residual in any::<bool>(),
        row_bands in any::<bool>(),
        shards in 1usize..5,
        start in 0usize..4,
        len in 1usize..5,
    ) {
        let (deployed, images, serial) =
            if residual { resnet_fixture() } else { lenet_fixture() };
        let start = start.min(images.len() - 1);
        let end = (start + len).min(images.len());
        let batch = &images[start..end];
        let expected = &serial[start..end];

        let mut plan = Plan::new(deployed, row_bands, shards);

        // The 1-shard plan is the unsharded reference for merged stats.
        let reference = Plan::new(deployed, row_bands, 1).run(deployed, batch);

        // Two rounds through one scratch: stale state must not leak.
        for round in 0..2 {
            let stats = plan.run(deployed, batch);
            prop_assert_eq!(
                &stats.logits[..], expected,
                "row_bands={} x{} diverged on round {}", row_bands, shards, round
            );
            prop_assert_eq!(
                stats.merged, reference.merged,
                "row_bands={} x{} merged stats diverged on round {}", row_bands, shards, round
            );
            prop_assert!(stats.makespan <= stats.merged.cycles);
            prop_assert!(
                stats.per_shard.iter().map(|s| s.cycles).max().unwrap_or(0)
                    == stats.makespan
            );
        }
    }

    /// Kernel-level row bands on random packings: the gathered plane and
    /// the exact work sums must match the unsharded prepared run. Under a
    /// random per-band action vector, `Run`/`Stall` bands reproduce the
    /// healthy scatter's rows and per-band stats, while a `Poison`/`Dead`
    /// band reports an error and leaves every other band's rows untouched.
    #[test]
    fn row_band_gather_matches_prepared_run(
        rows in 8usize..64,
        cols in 4usize..40,
        density in 0.05f64..0.8,
        l in 1usize..10,
        array_rows in 2usize..12,
        shards in 1usize..5,
        sixteen_bit in any::<bool>(),
        seed in any::<u64>(),
        action_codes in prop::collection::vec(0u8..4, 4..5),
    ) {
        let f = sparse_matrix(rows, cols, density, seed);
        let params = QuantParams::calibrate(f.as_slice());
        let packed = pack_columns(&f, &group_columns(&f, &GroupingConfig::paper_default()));
        let qp = QuantPacked::quantize_with(&packed, params);
        let d = QuantMatrix::quantize(&sparse_matrix(cols, l, 1.0, seed ^ 0xF00D));
        let acc = if sixteen_bit { AccumWidth::Bits16 } else { AccumWidth::Bits32 };
        let sched = TiledScheduler::new(ArrayConfig::new(array_rows, 8, acc));
        let prepared = sched.prepare_packed(&qp);

        let mut reference = RunScratch::new();
        let ref_stats = sched.run_prepared_with(&prepared, &d, &mut reference);

        let plan = prepared.partition_row_bands(shards);
        let mut primary = RunScratch::new();
        let mut aux = vec![RunScratch::new(); plan.len().saturating_sub(1)];
        let mut runs = Vec::new();
        sched.run_bands(&prepared, &plan, &[], &[], &d, &mut primary, &mut aux, &mut runs);

        prop_assert_eq!(primary.outputs(), reference.outputs(), "gathered plane diverged");
        let mut summed = SimStats::default();
        let mut makespan = 0u64;
        for run in &runs {
            prop_assert_eq!(run.outcome, BandOutcome::Ran);
            summed.merge(&run.stats);
            makespan = makespan.max(run.stats.cycles);
        }
        prop_assert_eq!(summed.mac_ops, ref_stats.mac_ops);
        prop_assert_eq!(summed.cell_word_slots, ref_stats.cell_word_slots);
        prop_assert_eq!(summed.input_words, ref_stats.input_words);
        prop_assert_eq!(summed.output_words, ref_stats.output_words);
        prop_assert_eq!(summed.load_cycles, ref_stats.load_cycles);
        prop_assert!(makespan <= ref_stats.cycles, "a shard outran the sequential run");
        prop_assert_eq!(prepared.sequential_cycles(l), ref_stats.cycles);

        // The same scatter under per-band actions, over a plane left
        // stale by a run on other data (what a dead band must keep).
        let stale_d = QuantMatrix::quantize(&sparse_matrix(cols, l, 1.0, seed ^ 0xBEEF));
        let mut stale = RunScratch::new();
        sched.run_prepared_with(&prepared, &stale_d, &mut stale);
        sched.run_prepared_with(&prepared, &stale_d, &mut primary);
        let actions = decode_actions(&action_codes);
        let mut acted = Vec::new();
        sched.run_bands(&prepared, &plan, &[], &actions, &d, &mut primary, &mut aux, &mut acted);
        prop_assert_eq!(acted.len(), plan.len());
        for (i, (band, run)) in plan.iter().zip(&acted).enumerate() {
            let slice = band.rows().start * l..band.rows().end * l;
            let got = &primary.outputs()[slice.clone()];
            let want = &reference.outputs()[slice.clone()];
            match actions[i] {
                BandAction::Run | BandAction::Stall(_) => {
                    prop_assert!(!run.outcome.is_error(), "band {} errored: {:?}", i, actions[i]);
                    prop_assert_eq!(got, want, "clean band {} diverged", i);
                    prop_assert_eq!(run.stats, runs[i].stats, "clean band {} stats diverged", i);
                }
                BandAction::Poison => {
                    prop_assert!(run.outcome.is_error());
                    let poisoned: Vec<i64> = want.iter().map(|w| !w).collect();
                    prop_assert_eq!(got, &poisoned[..], "poisoned band {} rows", i);
                }
                BandAction::Dead => {
                    prop_assert!(run.outcome.is_error());
                    prop_assert_eq!(run.stats, SimStats::default());
                    prop_assert_eq!(got, &stale.outputs()[slice], "dead band {} wrote rows", i);
                }
            }
        }
    }

    /// Whole-network sharding over a random heterogeneous fleet (1–4
    /// shards, mixed rows/cols/cell kinds): logits must stay bit-identical
    /// to the unsharded batch, and the merged stats must equal the
    /// unsharded reference — geometry reshapes only where work lands and
    /// how it is priced, never the work itself.
    #[test]
    fn mixed_fleet_network_matches_unsharded_bit_exactly(
        residual in any::<bool>(),
        shards in 1usize..5,
        start in 0usize..4,
        len in 1usize..5,
        gseed in any::<u64>(),
    ) {
        let (deployed, images, serial) =
            if residual { resnet_fixture() } else { lenet_fixture() };
        let start = start.min(images.len() - 1);
        let end = (start + len).min(images.len());
        let batch = &images[start..end];
        let expected = &serial[start..end];

        let fleet = random_fleet(shards, gseed);
        let mut bands = BandSet::with_fleet(fleet.clone());
        prop_assert_eq!(bands.shards(), shards);
        prop_assert_eq!(bands.fleet(), Some(&fleet[..]));
        let mut acts = ActivationScratch::new();

        // The 1-shard plan is the unsharded reference for merged stats.
        let reference =
            row_bands(deployed, batch, &mut ActivationScratch::new(), &mut BandSet::new(1));

        // Two rounds through one scratch: stale state must not leak.
        for round in 0..2 {
            let stats = row_bands(deployed, batch, &mut acts, &mut bands);
            prop_assert_eq!(
                &stats.logits[..], expected,
                "fleet {:?} diverged on round {}", fleet, round
            );
            prop_assert_eq!(
                stats.merged, reference.merged,
                "fleet {:?} merged stats diverged on round {}", fleet, round
            );
            prop_assert!(
                stats.per_shard.iter().map(|s| s.cycles).max().unwrap_or(0)
                    == stats.makespan
            );
        }
    }

    /// Kernel-level fleet banding on random packings: the cost-weighted
    /// plan gathered under per-band geometries must reproduce the
    /// unsharded plane bit-exactly, and the geometry-invariant work sums
    /// (MACs, occupied cell slots, output words) must match the reference.
    /// `input_words` and `load_cycles` legitimately vary with geometry —
    /// smaller arrays re-tile, re-stream, and re-load more.
    #[test]
    fn fleet_band_gather_matches_prepared_run(
        rows in 8usize..64,
        cols in 4usize..40,
        density in 0.05f64..0.8,
        l in 1usize..10,
        shards in 1usize..5,
        sixteen_bit in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let f = sparse_matrix(rows, cols, density, seed);
        let params = QuantParams::calibrate(f.as_slice());
        let packed = pack_columns(&f, &group_columns(&f, &GroupingConfig::paper_default()));
        let qp = QuantPacked::quantize_with(&packed, params);
        let d = QuantMatrix::quantize(&sparse_matrix(cols, l, 1.0, seed ^ 0xD1CE));
        let acc = if sixteen_bit { AccumWidth::Bits16 } else { AccumWidth::Bits32 };
        let sched = TiledScheduler::new(ArrayConfig::new(4, 8, acc));
        let prepared = sched.prepare_packed(&qp);

        let mut reference = RunScratch::new();
        let ref_stats = sched.run_prepared_with(&prepared, &d, &mut reference);

        let fleet = random_fleet(shards, seed ^ 0xFEED);
        let plan = prepared.partition_row_bands_for(&fleet, l);
        prop_assert!(!plan.is_empty() && plan.len() <= fleet.len());
        let mut primary = RunScratch::new();
        let mut aux = vec![RunScratch::new(); plan.len().saturating_sub(1)];
        let mut runs = Vec::new();
        sched.run_bands(&prepared, &plan, &fleet, &[], &d, &mut primary, &mut aux, &mut runs);

        prop_assert_eq!(primary.outputs(), reference.outputs(), "fleet gather diverged");
        let mut summed = SimStats::default();
        for run in &runs {
            summed.merge(&run.stats);
        }
        prop_assert_eq!(summed.mac_ops, ref_stats.mac_ops);
        prop_assert_eq!(summed.cell_word_slots, ref_stats.cell_word_slots);
        prop_assert_eq!(summed.output_words, ref_stats.output_words);
    }
}

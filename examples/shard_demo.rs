//! Multi-array sharding demo: one deployed network carved across N
//! simulated systolic arrays — as layer cuts (cost-balanced layer ranges,
//! each run as one stage on its own array) and as row-band shards (each
//! conv's output rows split across a `BandSet`'s arrays) — with
//! bit-identical results, a simulated-cycle scaling table, and a sharded
//! serving run through `cc-serve`.
//!
//! ```text
//! cargo run --release -p cc-examples --example shard_demo
//! ```

use cc_dataset::SyntheticSpec;
use cc_deploy::{ActivationScratch, BandSet, BatchOutput, DeployedNetwork};
use cc_nn::models::{lenet5_shift, ModelConfig};
use cc_packing::{ColumnCombineConfig, ColumnCombiner};
use cc_serve::{ModelRegistry, ServeConfig, Server};
use cc_systolic::array::ArrayConfig;
use cc_systolic::{partition_min_max, SimStats};
use cc_tensor::quant::AccumWidth;
use cc_tensor::Tensor;
use std::time::Duration;

fn main() {
    // 1. Train + column-combine a small network, deploy it once on a
    // small-row array so convs span several tile row-groups.
    let (train, test) = SyntheticSpec::mnist_like()
        .with_size(12, 12)
        .with_samples(256, 64)
        .generate(31);
    let mut net = lenet5_shift(&ModelConfig::new(1, 12, 12, 10).with_width(0.5));
    let cfg = ColumnCombineConfig {
        rho: net.nonzero_conv_weights() / 2,
        epochs_per_iteration: 1,
        final_epochs: 1,
        ..ColumnCombineConfig::default()
    };
    let (_, groups, _) = ColumnCombiner::new(cfg).run(&mut net, &train, None);
    let deployed = DeployedNetwork::build_with_array(
        &net,
        &groups,
        &train,
        ArrayConfig::new(8, 32, AccumWidth::Bits32),
    );

    let images: Vec<Tensor> = (0..8).map(|i| test.image(i % test.len()).clone()).collect();
    let serial = deployed.run_batch(&images);

    // 2. Shard it 1..4 ways in both geometries: bit-identity plus the
    // simulated-cycle makespan each extra array buys.
    println!("sharding one model across N simulated arrays (batch of {}):", images.len());
    println!("  mode        shards  makespan_cycles  speedup");
    for (mode, cuts) in [("layer cuts", true), ("row bands", false)] {
        let mut base = 0u64;
        let mut base_mac_ops = 0u64;
        for shards in 1..=4 {
            let (logits, per_shard) = if cuts {
                layer_cuts(&deployed, &images, shards)
            } else {
                let mut bands = BandSet::new(shards);
                let logits = deployed.run_batch_banded(
                    &deployed.scheduler(),
                    &images,
                    &mut ActivationScratch::new(),
                    &mut bands,
                );
                (logits, bands.shard_stats().to_vec())
            };
            assert_eq!(logits, serial, "sharded execution must be bit-identical to unsharded");
            // Shards run side by side: work sums, the makespan is the
            // busiest array.
            let mut stats = SimStats::default();
            per_shard.iter().for_each(|s| stats.merge_concurrent(s));
            if shards == 1 {
                base = stats.cycles;
                base_mac_ops = stats.mac_ops;
            }
            assert_eq!(stats.mac_ops, base_mac_ops, "the scatter must conserve total work");
            println!(
                "  {:<11} {:>6}  {:>15}  {:>6.2}x",
                mode,
                per_shard.len(),
                stats.cycles,
                base as f64 / stats.cycles.max(1) as f64,
            );
        }
    }

    // 3. Serve the same burst through the scatter/gather scheduler: a
    // shard pool per worker (and an auto-chosen pipeline depth).
    let registry = ModelRegistry::new().with_model("lenet", deployed.clone());
    let server = Server::start(
        registry,
        ServeConfig::default()
            .with_workers(2)
            .with_max_batch(8)
            .with_batch_deadline(Duration::from_millis(1))
            .with_queue_capacity(256)
            .with_pipeline_stages(0) // auto from the layer cost model
            .with_shards(2),
    );
    let burst: Vec<Tensor> = (0..96).map(|i| test.image(i % test.len()).clone()).collect();
    let expected: Vec<Vec<f32>> = burst.iter().map(|im| deployed.logits(im)).collect();
    let tickets: Vec<_> = burst
        .iter()
        .map(|im| server.submit("lenet", im.clone()).expect("queue sized for the burst"))
        .collect();
    for (i, ticket) in tickets.into_iter().enumerate() {
        let response = ticket.wait().expect("request served");
        assert_eq!(response.logits, expected[i], "sharded serving diverged on request {i}");
    }
    let stats = server.shutdown();
    assert_eq!(stats.completed as usize, burst.len());
    println!(
        "served {} requests through 2 workers x 2-shard pools, bit-identically \
         ({:.0} req/s, shard occupancy {:?})",
        burst.len(),
        stats.throughput_rps,
        stats.shard_busy.iter().map(|f| (f * 100.0).round() / 100.0).collect::<Vec<_>>(),
    );
}

/// Layer cuts: `k` cost-balanced layer ranges, each run as one stage on
/// its own simulated array. Returns the logits and each range's stats.
fn layer_cuts(
    deployed: &DeployedNetwork,
    images: &[Tensor],
    k: usize,
) -> (Vec<Vec<f32>>, Vec<SimStats>) {
    let sched = deployed.scheduler();
    let mut scratch = ActivationScratch::new();
    let mut data = BatchOutput::Maps(deployed.quantize_batch_scratch(images, &mut scratch));
    let mut per_range = Vec::new();
    for range in partition_min_max(&deployed.layer_costs(), k) {
        let mut bands = BandSet::new(1);
        data = deployed.run_stage(range, data, &sched, &mut scratch, Some(&mut bands));
        per_range.push(bands.merged_stats());
    }
    let BatchOutput::Logits(logits) = data else {
        panic!("deployed network has no classifier head")
    };
    (logits, per_range)
}

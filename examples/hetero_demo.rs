//! Heterogeneous fleet demo: one deployed network scattered across
//! mixed-geometry simulated arrays. The cost-weighted row-band planner
//! gives each array a band sized to its own cycle model, so a big array
//! paired with a small one still beats either alone — while every plan
//! stays bit-identical to the serial run. Finishes with a serving run
//! whose telemetry reports per-geometry busy fractions.
//!
//! ```text
//! cargo run --release -p cc-examples --example hetero_demo
//! ```

use cc_dataset::SyntheticSpec;
use cc_deploy::{ActivationScratch, BandSet, DeployedNetwork};
use cc_nn::models::{lenet5_shift, ModelConfig};
use cc_packing::{ColumnCombineConfig, ColumnCombiner};
use cc_serve::{ModelRegistry, ServeConfig, Server};
use cc_systolic::array::ArrayConfig;
use cc_systolic::ArrayGeometry;
use cc_tensor::quant::AccumWidth;
use cc_tensor::Tensor;
use std::time::Duration;

fn main() {
    // 1. Train + column-combine a small network, deploy it once. The
    // deployment is fleet-agnostic: geometries only reprice the work.
    let (train, test) = SyntheticSpec::mnist_like()
        .with_size(12, 12)
        .with_samples(256, 64)
        .generate(33);
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

    // 2. Makespans across fleets, from a lone big array to mixed pairs.
    // The planner hands the small array a thin band instead of half the
    // rows, so adding even a quarter-size array still helps.
    let base = ArrayGeometry::new(8, 32);
    let fleets: [(&str, Vec<ArrayGeometry>); 4] = [
        ("base alone", vec![base]),
        ("2x base", vec![base, base]),
        ("base + half", vec![base, ArrayGeometry::new(4, 16)]),
        ("base + quarter", vec![base, ArrayGeometry::new(2, 8)]),
    ];
    println!("one model across mixed-geometry fleets (batch of {}):", images.len());
    println!("  {:<15} {:<18} {:>15}  {:>7}", "fleet", "arrays", "makespan_cycles", "speedup");
    let mut base_makespan = 0u64;
    for (name, fleet) in fleets {
        let labels: Vec<String> = fleet.iter().map(ArrayGeometry::label).collect();
        let mut bands = BandSet::with_fleet(fleet);
        let mut scratch = ActivationScratch::new();
        let logits =
            deployed.run_batch_banded(&deployed.scheduler(), &images, &mut scratch, &mut bands);
        assert_eq!(logits, serial, "fleet execution must be bit-identical to unsharded");
        let makespan = bands.makespan_cycles();
        if base_makespan == 0 {
            base_makespan = makespan;
        }
        println!(
            "  {:<15} {:<18} {:>15}  {:>6.2}x",
            name,
            labels.join("+"),
            makespan,
            base_makespan as f64 / makespan.max(1) as f64,
        );
    }

    // 3. Serve a burst over the mixed pair: ServeConfig::with_fleet sets
    // the shard count from the fleet and labels occupancy telemetry per
    // geometry.
    let fleet = vec![base, ArrayGeometry::new(2, 8)];
    let registry = ModelRegistry::new().with_model("lenet", deployed.clone());
    let server = Server::start(
        registry,
        ServeConfig::default()
            .with_workers(2)
            .with_max_batch(8)
            .with_batch_deadline(Duration::from_millis(1))
            .with_queue_capacity(256)
            .with_fleet(fleet),
    );
    let burst: Vec<Tensor> = (0..96).map(|i| test.image(i % test.len()).clone()).collect();
    let expected: Vec<Vec<f32>> = burst.iter().map(|im| deployed.logits(im)).collect();
    let tickets: Vec<_> = burst
        .iter()
        .map(|im| server.submit("lenet", im.clone()).expect("queue sized for the burst"))
        .collect();
    for (i, ticket) in tickets.into_iter().enumerate() {
        let response = ticket.wait().expect("request served");
        assert_eq!(response.logits, expected[i], "fleet serving diverged on request {i}");
    }
    let stats = server.shutdown();
    assert_eq!(stats.completed as usize, burst.len());
    println!(
        "served {} requests over an {} fleet, bit-identically ({:.0} req/s)",
        burst.len(),
        stats
            .shard_geometry_busy
            .iter()
            .map(|(l, _)| l.as_str())
            .collect::<Vec<_>>()
            .join("+"),
        stats.throughput_rps,
    );
    for (label, busy) in &stats.shard_geometry_busy {
        println!("  geometry {label}: busy fraction {busy:.3}");
    }
}

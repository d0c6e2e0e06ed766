//! Every call the benchmark makes into the program, one function per layer
//! entry point. A change to how a layer is called edits one place here;
//! the workloads and the tracing only ever go through these.

use cc_dataset::{Dataset, SyntheticSpec};
use cc_deploy::engine::run_layer_batch_banded;
use cc_deploy::{ActivationScratch, BandSet, BatchOutput, DeployedLayer, DeployedNetwork, QMap};
use cc_nn::Network;
use cc_packing::{ColumnCombineConfig, ColumnCombiner, ColumnGroups};
use cc_serve::{
    ControlConfig, Controller, ModelRegistry, ProfileStore, Response, ServeConfig, Server,
    SubmitError, Ticket, WaitError,
};
use cc_systolic::{PreparedPacked, RunScratch, SimStats, TiledScheduler};
use cc_tensor::quant::{QuantMatrix, QuantParams};
use cc_tensor::Tensor;
use std::sync::Arc;
use std::time::Duration;

/// The model name the serving workloads register.
pub const MODEL: &str = "m";

// ---- setup: cc-dataset, cc-packing (Algorithm 1), cc-deploy build ----

pub fn dataset(spec: &SyntheticSpec, seed: u64) -> (Dataset, Dataset) {
    spec.generate(seed)
}

pub fn combine(cfg: ColumnCombineConfig, net: &mut Network, train: &Dataset) -> Vec<ColumnGroups> {
    ColumnCombiner::new(cfg).run(net, train, None).1
}

pub fn deploy_build(
    net: &Network,
    groups: &[ColumnGroups],
    calibration: &Dataset,
) -> DeployedNetwork {
    DeployedNetwork::build(net, groups, calibration)
}

// ---- engine: cc-deploy ----

/// The serial single-image path: the reference every other path must
/// match bit for bit.
pub fn reference_logits(net: &DeployedNetwork, image: &Tensor) -> Vec<f32> {
    net.logits(image)
}

/// The offline hot path with a warm caller-owned scratch.
pub fn engine_batch(
    net: &DeployedNetwork,
    sched: &TiledScheduler,
    images: &[Tensor],
    scratch: &mut ActivationScratch,
) -> Vec<Vec<f32>> {
    net.run_batch_scratch(sched, images, scratch)
}

/// Whole-network inference over a row-band shard set.
pub fn banded_batch(
    net: &DeployedNetwork,
    sched: &TiledScheduler,
    images: &[Tensor],
    scratch: &mut ActivationScratch,
    bands: &mut BandSet,
) -> Vec<Vec<f32>> {
    net.run_batch_banded(sched, images, scratch, bands)
}

/// Input quantization, the first step of a batch.
pub fn quantize(
    net: &DeployedNetwork,
    images: &[Tensor],
    scratch: &mut ActivationScratch,
) -> Vec<QMap> {
    net.quantize_batch_scratch(images, scratch)
}

/// One deployed layer on a batch; `bands` routes packed convs through a
/// shard set exactly as [`banded_batch`] does.
pub fn layer(
    layer: &DeployedLayer,
    inputs: &[QMap],
    sched: &TiledScheduler,
    scratch: &mut ActivationScratch,
    bands: Option<&mut BandSet>,
) -> BatchOutput {
    run_layer_batch_banded(layer, inputs, sched, scratch, bands)
}

// ---- kernel: cc-systolic ----

/// The packed-conv data matrix the engine builds for `inputs`: channels ×
/// (batch · positions), image `b` owning column band `b·l..(b+1)·l`.
pub fn conv_data_matrix(inputs: &[QMap]) -> QuantMatrix {
    let first = &inputs[0];
    let (c, l) = (first.channels(), first.plane());
    let mut data = Vec::with_capacity(c * l * inputs.len());
    for k in 0..c {
        for m in inputs {
            data.extend_from_slice(&m.as_slice()[k * l..(k + 1) * l]);
        }
    }
    QuantMatrix::from_raw(
        c,
        l * inputs.len(),
        data,
        QuantParams::from_max_abs(first.scale() * 127.0),
    )
}

/// The array kernel on prepared tiles.
pub fn kernel(
    sched: &TiledScheduler,
    tiles: &PreparedPacked,
    data: &QuantMatrix,
    run: &mut RunScratch,
) -> SimStats {
    sched.run_prepared_with(tiles, data, run)
}

// ---- serving: cc-serve ----

pub fn start_server(net: &DeployedNetwork, cfg: ServeConfig) -> Server {
    Server::start(ModelRegistry::new().with_model(MODEL, net.clone()), cfg)
}

pub fn submit(server: &Server, image: Tensor) -> Result<Ticket, SubmitError> {
    server.submit(MODEL, image)
}

/// A zero-timeout poll: never blocks the generator.
pub fn poll(ticket: &Ticket) -> Option<Result<Response, WaitError>> {
    ticket.wait_timeout(Duration::ZERO)
}

/// The control plane with its default policy and an empty profile store
/// (nothing is read from earlier bench results).
pub fn attach_controller(server: Arc<Server>) -> Controller {
    Controller::attach(server, ControlConfig::default(), ProfileStore::new())
}

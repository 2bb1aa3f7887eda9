//! Single-threaded replay of FL session rounds from the layers' public
//! functions: VRF sampling, local training, DSkellam encoding, XNoise
//! perturbation, the SecAgg stepper, excess-noise removal, decoding,
//! FedAvg and the privacy ledger — one span per call.
//!
//! Every random artefact is derived as `core::session` derives it, so
//! the per-round aggregates are bit-equal to `train_session` /
//! `train_session_networked` (pinned in `tests/fl_replay.rs`, and checked
//! against the measured session on every run). Only the XNoise variant
//! is replayed; that is the variant the benchmark runs.

use std::collections::BTreeSet;

use dordis_core::config::{ModelSpec, OptimizerSpec, TaskSpec, Variant};
use dordis_core::sampling::{decode_claim, encode_claim, seat_claims, self_select, SamplingConfig};
use dordis_core::session::{FlSessionOptions, MidStreamDrop};
use dordis_crypto::prg::{Prg, Seed};
use dordis_crypto::vrf::VrfSecretKey;
use dordis_dp::accountant::Mechanism;
use dordis_dp::encoding::Encoder;
use dordis_dp::ledger::PrivacyLedger;
use dordis_dp::planner::{plan, PlannerConfig};
use dordis_fl::data::{dirichlet_partition, synthetic_classification, train_test_split, Dataset};
use dordis_fl::eval::{accuracy, perplexity};
use dordis_fl::fedavg::{apply_update, local_train, LocalTrainConfig};
use dordis_fl::model::{Linear, Mlp, Model};
use dordis_fl::optim::{AdamW, Optimizer, Sgd};
use dordis_fl::tensor::clip_l2;
use dordis_net::codec::{self, StageTag};
use dordis_net::NetError;
use dordis_secagg::client::ClientInput;
use dordis_secagg::driver::round_rng_seed;
use dordis_secagg::graph::MaskingGraph;
use dordis_secagg::{ClientId, RoundParams, ThreatModel};
use dordis_xnoise::decomposition::XNoisePlan;
use dordis_xnoise::enforcement::{derive_component_seeds, perturb, remove_excess};

use crate::stepper::{decode, encode, step_round, RoundScript};
use crate::trace::{Recorder, ROOT};
use crate::Res;

/// One replayed round's released aggregate.
#[derive(Clone, Debug)]
pub struct ReplayedRound {
    /// The VRF-seated cohort, in seating order.
    pub cohort: Vec<ClientId>,
    /// Clients whose inputs are in the aggregate.
    pub survivors: Vec<ClientId>,
    /// The modular aggregate after excess-noise removal.
    pub sum: Vec<u64>,
}

/// The session-long state both execution paths derive before round 0.
pub struct FlReplay {
    spec: TaskSpec,
    sample: SamplingConfig,
    chunks: usize,
    droppers: Vec<MidStreamDrop>,
    root: Seed,
    /// The planned central noise multiplier z*.
    pub z_star: f64,
    target_variance: f64,
    dim: usize,
    data: Dataset,
    train_set: Dataset,
    test_set: Dataset,
    shards: Vec<Vec<usize>>,
    ledger: PrivacyLedger,
    /// The global model; starts at the task's initial parameters.
    pub global: Vec<f32>,
}

fn vrf_key(seed: u64, id: ClientId) -> VrfSecretKey {
    let mut s = [0u8; 32];
    s[..8].copy_from_slice(&seed.to_le_bytes());
    s[8..12].copy_from_slice(&id.to_le_bytes());
    s[31] = 0x7f;
    VrfSecretKey::from_seed(&s)
}

fn noise_root(run_seed: u64, round: u64, client: ClientId) -> Seed {
    let mut s = [0u8; 32];
    s[..8].copy_from_slice(&run_seed.to_le_bytes());
    s[8..16].copy_from_slice(&round.to_le_bytes());
    s[16..20].copy_from_slice(&client.to_le_bytes());
    s[31] = 0xc5;
    s
}

fn model_for(spec: &TaskSpec, data: &Dataset) -> Box<dyn Model> {
    match spec.model {
        ModelSpec::Linear => Box::new(Linear::new(data.dim(), data.num_classes)),
        ModelSpec::Mlp { hidden } => {
            Box::new(Mlp::new(data.dim(), hidden, data.num_classes, spec.seed))
        }
    }
}

impl FlReplay {
    /// Derives the session statics (dataset, partition, noise plan).
    /// The noise planning is recorded as a `dp.planner.plan` span.
    ///
    /// # Errors
    ///
    /// The task is not an XNoise task, or planning fails.
    pub fn new(spec: &TaskSpec, opts: &FlSessionOptions, rec: &mut Recorder) -> Res<FlReplay> {
        if !matches!(spec.variant, Variant::XNoise { .. }) {
            return Err("the replay covers the XNoise variant only".into());
        }
        let data = synthetic_classification(&spec.dataset);
        let (train_set, test_set) = train_test_split(&data, spec.test_fraction);
        let shards =
            dirichlet_partition(&train_set, spec.population, spec.dirichlet_alpha, spec.seed);
        let model = model_for(spec, &data);
        let dim = model.num_params();
        let mut root = [0u8; 32];
        root[..8].copy_from_slice(&spec.seed.to_le_bytes());
        root[8..12].copy_from_slice(&(spec.name.len() as u32).to_le_bytes());

        let enc = &spec.privacy.encoding;
        let mechanism = Mechanism::Skellam {
            l1_per_l2: enc.l1_per_l2(dim),
        };
        let noise_plan = rec
            .span("dp.planner.plan", |_| {
                plan(&PlannerConfig {
                    epsilon: spec.privacy.epsilon,
                    delta: spec.privacy.delta,
                    rounds: opts.rounds,
                    sample_rate: opts.sample.target_sample as f64 / spec.population as f64,
                    mechanism,
                })
            })
            .map_err(|e| e.to_string())?;
        let sigma = noise_plan.noise_multiplier * enc.l2_sensitivity(dim);
        Ok(FlReplay {
            spec: spec.clone(),
            sample: opts.sample,
            chunks: opts.chunks,
            droppers: opts.droppers.clone(),
            root,
            z_star: noise_plan.noise_multiplier,
            target_variance: sigma * sigma,
            dim,
            global: model.params(),
            data,
            train_set,
            test_set,
            shards,
            ledger: PrivacyLedger::new(mechanism, spec.privacy.epsilon, spec.privacy.delta)
                .map_err(|e| e.to_string())?,
        })
    }

    fn sample_rate(&self) -> f64 {
        self.sample.target_sample as f64 / self.spec.population as f64
    }

    fn model(&self) -> Box<dyn Model> {
        model_for(&self.spec, &self.data)
    }

    fn optimizer(&self) -> Box<dyn Optimizer> {
        match self.spec.optimizer {
            OptimizerSpec::Sgd { lr, momentum } => Box::new(Sgd::new(lr, momentum)),
            OptimizerSpec::AdamW { lr, weight_decay } => Box::new(AdamW::new(lr, weight_decay)),
        }
    }

    fn rotation(&self, r: u64) -> Seed {
        Prg::fork(&self.root, b"session.rotation", r)
    }

    /// The XNoise plan a cohort of `n` runs under.
    ///
    /// # Errors
    ///
    /// The plan's parameters are out of range.
    pub fn xnoise_plan(&self, n: usize) -> Res<XNoisePlan> {
        let Variant::XNoise {
            tolerance_frac,
            collusion_frac,
        } = self.spec.variant
        else {
            unreachable!("rejected in new()");
        };
        let tolerance = (((n as f64) * tolerance_frac).floor() as usize).min(n.saturating_sub(1));
        let threshold = n / 2 + 1;
        let collusion = ((threshold as f64) * collusion_frac).floor() as usize;
        XNoisePlan::new(self.target_variance, n, tolerance, collusion, threshold)
            .map_err(|e| e.to_string())
    }

    /// Round `i`'s cohort: every population member evaluates its VRF,
    /// the claims cross the wire, and the verifier seats the cohort.
    ///
    /// # Errors
    ///
    /// A claim fails to decode.
    pub fn sample_cohort(&self, i: u32, rec: &mut Recorder) -> Res<Vec<ClientId>> {
        let r = u64::from(i) + 1;
        let population = self.spec.population as u32;
        let seed = self.spec.seed;
        let mut claims = Vec::new();
        for id in 0..population {
            let claim = rec.span("core.sampling.self_select", |_| {
                self_select(&vrf_key(seed, id), id, r, &self.sample)
            });
            if let Some(claim) = claim {
                let frame = encode(rec, StageTag::Join, r, 0, 1, || {
                    codec::encode_join_claim(id, &encode_claim(&claim))
                });
                claims.push(decode(rec, &frame, r, |env| {
                    let (_, raw) = codec::decode_join_claim(&env.body)?;
                    decode_claim(&raw).map_err(NetError::Codec)
                })?);
            }
        }
        let keys = move |id: ClientId| (id < population).then(|| vrf_key(seed, id).public_key());
        Ok(rec.span("core.sampling.seat_claims", |_| {
            seat_claims(&claims, &keys, r, &self.sample).seated
        }))
    }

    /// One seated client's round input, built from the Setup payload
    /// (the global model): local training, DSkellam encoding, XNoise
    /// perturbation.
    fn client_input(
        &self,
        i: u32,
        id: ClientId,
        payload: &[u8],
        xplan: &XNoisePlan,
        rec: &mut Recorder,
    ) -> Res<ClientInput> {
        let r = u64::from(i) + 1;
        let enc_cfg = self.spec.privacy.encoding;
        let global: Vec<f32> = payload
            .chunks_exact(4)
            .map(|b| f32::from_le_bytes(b.try_into().expect("4 bytes")))
            .collect();
        let update = rec.span("fl.local_train", |_| {
            let mut model = self.model();
            let mut opt = self.optimizer();
            let shard = self.train_set.subset(&self.shards[id as usize]);
            let mut delta = local_train(
                model.as_mut(),
                &global,
                &shard,
                opt.as_mut(),
                &LocalTrainConfig {
                    epochs: self.spec.local_epochs,
                    batch_size: self.spec.batch_size,
                    seed: self.spec.seed ^ (u64::from(i) << 16) ^ u64::from(id),
                },
            )
            .delta;
            clip_l2(&mut delta, self.spec.privacy.clip as f32);
            delta
        });
        let mut vector = rec
            .span("dp.encoding.encode", |_| {
                let update: Vec<f64> = update.iter().map(|&x| f64::from(x)).collect();
                let seed = Prg::fork(&self.root, b"session.client", (r << 20) ^ u64::from(id));
                Encoder::new(&enc_cfg, self.rotation(r)).encode(&update, &seed)
            })
            .map_err(|e| e.to_string())?;
        let noise_seeds = rec
            .span("xnoise.perturb", |_| {
                let seeds = derive_component_seeds(
                    &noise_root(self.spec.seed, r, id),
                    xplan.dropout_tolerance,
                );
                perturb(&mut vector, &seeds, xplan, enc_cfg.bit_width).map(|()| seeds)
            })
            .map_err(|e| e.to_string())?;
        Ok(ClientInput {
            vector,
            noise_seeds,
        })
    }

    /// Runs round `i` end to end on `self.global` and returns what it
    /// released. Rounds must be replayed in order (the ledger refuses a
    /// repeat); use [`FlReplay::absorb`] to skip one.
    ///
    /// # Errors
    ///
    /// Any layer failure, as text.
    pub fn round(&mut self, i: u32, rec: &mut Recorder) -> Res<ReplayedRound> {
        let r = u64::from(i) + 1;
        rec.set_round(r);
        rec.span(ROOT, |rec| {
            let cohort = self.sample_cohort(i, rec)?;
            let n = cohort.len();
            let xplan = self.xnoise_plan(n)?;
            let enc_cfg = self.spec.privacy.encoding;
            let bits = enc_cfg.bit_width;
            let params = RoundParams {
                round: r,
                clients: cohort.clone(),
                threshold: n / 2 + 1,
                bit_width: bits,
                vector_len: Encoder::padded_len(self.dim),
                noise_components: xplan.dropout_tolerance,
                threat_model: ThreatModel::SemiHonest,
                graph: MaskingGraph::Complete,
            };

            // ---- Secure aggregation with the scripted droppers. The
            // Setup frame carries the global model; each seated client
            // trains on it, encodes and perturbs. ----
            let script = RoundScript {
                params,
                requested_chunks: self.chunks,
                rng_seed: round_rng_seed(self.spec.seed, r),
                setup_payload: self.global.iter().flat_map(|v| v.to_le_bytes()).collect(),
                mid_stream: self
                    .droppers
                    .iter()
                    .filter(|d| d.round == i && cohort.contains(&d.client))
                    .map(|d| (d.client, d.after_chunks))
                    .collect(),
                before_unmasking: BTreeSet::new(),
            };
            let outcome = step_round(
                &script,
                |id, payload, rec| self.client_input(i, id, payload, &xplan, rec),
                rec,
            )?;

            // ---- Server tail: removal, decode, ledger, FedAvg. ----
            let mut sum = outcome.sum;
            let dropped = n - outcome.survivors.len();
            if dropped <= xplan.dropout_tolerance {
                rec.span("xnoise.remove_excess", |_| {
                    remove_excess(
                        &mut sum,
                        &outcome.removal_seeds,
                        &outcome.survivors,
                        &xplan,
                        bits,
                    )
                })
                .map_err(|e| e.to_string())?;
                let removed = xplan
                    .removal_components(dropped)
                    .map_err(|e| e.to_string())?
                    .count();
                rec.count(
                    "xnoise.components_removed",
                    (removed * outcome.survivors.len()) as u64,
                );
            }
            // Within tolerance XNoise leaves exactly the planned noise.
            let achieved = if dropped <= xplan.dropout_tolerance {
                self.z_star * xplan.inflation().sqrt()
            } else {
                let residual = outcome.survivors.len() as f64 * xplan.per_client_variance();
                self.z_star * (residual / self.target_variance).sqrt()
            };
            let rate = self.sample_rate();
            rec.span("dp.ledger.record", |_| {
                self.ledger.record_round_at(r, rate, achieved)
            })
            .map_err(|e| e.to_string())?;
            self.absorb(i, &sum, outcome.survivors.len(), rec);
            Ok(ReplayedRound {
                cohort,
                survivors: outcome.survivors,
                sum,
            })
        })
    }

    /// Applies round `i`'s released aggregate to `self.global`: decode,
    /// average over the survivors, FedAvg step.
    pub fn absorb(&mut self, i: u32, sum: &[u64], survivors: usize, rec: &mut Recorder) {
        let r = u64::from(i) + 1;
        let enc_cfg = self.spec.privacy.encoding;
        let decoded = rec.span("dp.encoding.decode", |_| {
            Encoder::new(&enc_cfg, self.rotation(r)).decode(sum, self.dim)
        });
        rec.span("fl.apply_update", |_| {
            let mean: Vec<f32> = decoded
                .iter()
                .map(|&v| (v / survivors as f64) as f32)
                .collect();
            apply_update(&mut self.global, &mean, 1.0);
        });
    }

    /// Accuracy and perplexity of `self.global` on the held-out set.
    pub fn evaluate(&self, rec: &mut Recorder) -> (f64, f64) {
        rec.span("fl.eval", |_| {
            let mut model = self.model();
            model.set_params(&self.global);
            (
                accuracy(model.as_ref(), &self.test_set),
                perplexity(model.as_ref(), &self.test_set),
            )
        })
    }

    /// Privacy spent by the rounds replayed so far.
    #[must_use]
    pub fn epsilon(&self) -> f64 {
        self.ledger.realized_epsilon()
    }
}

//! Secure-aggregation protocols for Dordis: SecAgg and SecAgg+.
//!
//! This crate implements the protocol of Bonawitz et al. (CCS '17) exactly
//! as presented in Figure 5 of the Dordis paper — *including* the XNoise
//! integration points (extra Shamir-shared noise seeds, the
//! `ConsistencyCheck` round-signature stage, and the
//! `ExcessiveNoiseRemoval` stage) — plus the SecAgg+ variant of Bell et
//! al. (CCS '20), which replaces the complete masking graph with a sparse
//! k-regular one.
//!
//! Layering: this crate is *noise-agnostic*. Clients hand in an input
//! vector in `Z_{2^b}` that is already perturbed (by `dordis-xnoise`), plus
//! the noise seeds `g_{u,k}` to be backed up; the server-side outcome
//! reports the masked sum and every seed recovered for noise removal.
//! Regenerating and subtracting the actual noise is the caller's job,
//! which keeps the protocol reusable for any distributed-DP mechanism —
//! the "self-contained and complementary" property claimed in §3.3.
//!
//! Structure:
//! - [`chunkplan`]: the [`ChunkPlan`] every layer consumes — byte-aligned
//!   per-chunk element ranges that make the chunk the unit of masking,
//!   transmission, and aggregation,
//! - [`graph`]: complete and Harary k-regular masking graphs,
//! - [`messages`]: wire messages with byte-size accounting,
//! - [`pack`]: the `b`-bits-per-element packing masked inputs travel
//!   and wait in,
//! - [`client`], [`server`]: per-party state machines, one method per
//!   stage,
//! - [`driver`]: in-memory round executor with a configurable dropout
//!   schedule and full traffic/crypto-op statistics,
//! - [`plain`]: the no-crypto aggregator behind the trainer's plain engine.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chunkplan;
pub mod client;
pub mod driver;
pub mod graph;
pub mod mask;
pub mod messages;
pub mod pack;
pub mod plain;
pub mod server;

pub use chunkplan::{ChunkPlan, ChunkPlanError};
use dordis_crypto::CryptoError;

/// Client identifier within a round (index into the sampled set).
pub type ClientId = u32;

/// Adversary model the protocol run defends against (paper §2.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ThreatModel {
    /// All parties follow the protocol but are curious.
    SemiHonest,
    /// The server (and colluding clients) may deviate arbitrarily; the
    /// bracketed/italicized steps of Figure 5 (signatures, consistency
    /// check) are enabled.
    Malicious,
}

/// Errors aborting a protocol run.
#[derive(Debug, Clone, PartialEq)]
pub enum SecAggError {
    /// Fewer than `t` live clients at some stage.
    BelowThreshold {
        /// Stage at which the shortfall occurred.
        stage: &'static str,
        /// Live clients observed.
        live: usize,
        /// Threshold `t`.
        threshold: usize,
    },
    /// A client aborted after detecting an inconsistency (tampering,
    /// bad signature, understated dropout, duplicate keys...).
    ClientAbort {
        /// The aborting client.
        client: ClientId,
        /// Human-readable reason.
        reason: String,
    },
    /// Underlying cryptographic failure.
    Crypto(CryptoError),
    /// Protocol misconfiguration.
    Config(String),
}

impl From<CryptoError> for SecAggError {
    fn from(e: CryptoError) -> Self {
        SecAggError::Crypto(e)
    }
}

impl core::fmt::Display for SecAggError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SecAggError::BelowThreshold {
                stage,
                live,
                threshold,
            } => write!(f, "below threshold at {stage}: {live} live < t={threshold}"),
            SecAggError::ClientAbort { client, reason } => {
                write!(f, "client {client} aborted: {reason}")
            }
            SecAggError::Crypto(e) => write!(f, "crypto failure: {e}"),
            SecAggError::Config(why) => write!(f, "bad protocol config: {why}"),
        }
    }
}

impl std::error::Error for SecAggError {}

/// Static parameters of one aggregation round.
#[derive(Clone, Debug)]
pub struct RoundParams {
    /// Round index (signed in the malicious model to prevent replay).
    pub round: u64,
    /// The sampled client set `U` (ids must be unique).
    pub clients: Vec<ClientId>,
    /// Shamir threshold `t`; reconstruction needs `t` shares and the
    /// protocol aborts below `t` live clients.
    pub threshold: usize,
    /// Bit width `b` of the aggregation ring `Z_{2^b}`.
    pub bit_width: u32,
    /// Vector (chunk) length `d`.
    pub vector_len: usize,
    /// XNoise dropout tolerance `T`: number of shared noise-seed
    /// components per client (0 disables XNoise bookkeeping).
    pub noise_components: usize,
    /// Adversary model.
    pub threat_model: ThreatModel,
    /// Masking graph (complete = SecAgg, Harary = SecAgg+).
    pub graph: graph::MaskingGraph,
}

impl RoundParams {
    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`SecAggError::Config`] on duplicate ids, out-of-range
    /// threshold, a vector length or noise-component count past its
    /// Setup-frame width, or an unusable masking graph.
    pub fn validate(&self) -> Result<(), SecAggError> {
        let n = self.clients.len();
        if n == 0 {
            return Err(SecAggError::Config("empty client set".into()));
        }
        let mut sorted = self.clients.clone();
        sorted.sort_unstable();
        sorted.dedup();
        if sorted.len() != n {
            return Err(SecAggError::Config("duplicate client ids".into()));
        }
        // Shamir x-coordinates are scoped to each owner's share-holder
        // neighborhood (`graph::MaskingGraph::holders`), so GF(256) only
        // has to seat `degree + 1` holders — the roster itself is bounded
        // by the wire's u16 roster/cohort counts, not by the field.
        if n > usize::from(u16::MAX) {
            return Err(SecAggError::Config(
                "at most 65535 clients per round (roster counts are u16 on the wire)".into(),
            ));
        }
        if self.graph.degree(n) > 254 {
            return Err(SecAggError::Config(format!(
                "masking-graph degree {} needs {} neighborhood Shamir x-coordinates, \
                 but at most 255 fit in GF(256); use a sparse graph (e.g. \
                 MaskingGraph::recommended) for rounds this large",
                self.graph.degree(n),
                self.graph.degree(n) + 1,
            )));
        }
        if self.threshold == 0 || self.threshold > n {
            return Err(SecAggError::Config(format!(
                "threshold {} out of range for {} clients",
                self.threshold, n
            )));
        }
        if self.threat_model == ThreatModel::Malicious && 2 * self.threshold <= n {
            return Err(SecAggError::Config(
                "malicious model requires 2t > |U|".into(),
            ));
        }
        if self.bit_width == 0 || self.bit_width > 62 {
            return Err(SecAggError::Config("bit width must be in 1..=62".into()));
        }
        // The Setup frame carries these at fixed widths; a value past the
        // width would reach every client truncated and still validate.
        if u32::try_from(self.vector_len).is_err() {
            return Err(SecAggError::Config(format!(
                "vector length {} exceeds the wire's u32",
                self.vector_len
            )));
        }
        if u16::try_from(self.noise_components).is_err() {
            return Err(SecAggError::Config(format!(
                "{} noise components exceed the wire's u16",
                self.noise_components
            )));
        }
        self.graph.validate(n)?;
        Ok(())
    }

    /// The ring mask `2^b - 1`.
    #[must_use]
    pub fn ring_mask(&self) -> u64 {
        (1u64 << self.bit_width) - 1
    }
}

/// The effective Shamir threshold: the configured `t`, capped at the
/// masking-graph degree plus one (a client's shares are held by its
/// neighbors and, for the self-mask seed, by the client itself) so that
/// reconstruction stays possible under SecAgg+'s sparse graph.
#[must_use]
pub fn share_threshold(params: &RoundParams) -> usize {
    params
        .threshold
        .min(params.graph.degree(params.clients.len()))
        .max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> RoundParams {
        RoundParams {
            round: 0,
            clients: (0..8).collect(),
            threshold: 5,
            bit_width: 20,
            vector_len: 16,
            noise_components: 2,
            threat_model: ThreatModel::SemiHonest,
            graph: graph::MaskingGraph::Complete,
        }
    }

    #[test]
    fn valid_params_pass() {
        params().validate().unwrap();
    }

    #[test]
    fn duplicate_ids_rejected() {
        let mut p = params();
        p.clients = vec![1, 2, 2];
        assert!(matches!(p.validate(), Err(SecAggError::Config(_))));
    }

    #[test]
    fn threshold_bounds() {
        let mut p = params();
        p.threshold = 0;
        assert!(p.validate().is_err());
        p.threshold = 9;
        assert!(p.validate().is_err());
    }

    #[test]
    fn malicious_needs_majority_threshold() {
        let mut p = params();
        p.threat_model = ThreatModel::Malicious;
        p.threshold = 4; // 2*4 = 8 is not > 8.
        assert!(p.validate().is_err());
        p.threshold = 5;
        assert!(p.validate().is_ok());
    }

    #[test]
    fn complete_graph_stops_at_255() {
        // The old wall, now expressed as a degree bound: the complete
        // graph's neighborhood is the whole roster, so 255 is still its
        // ceiling — but only *its* ceiling.
        let mut p = params();
        p.clients = (0..255).collect();
        p.threshold = 128;
        p.noise_components = 0;
        p.validate().unwrap();
        p.clients = (0..256).collect();
        assert!(matches!(p.validate(), Err(SecAggError::Config(_))));
    }

    #[test]
    fn sparse_graph_admits_rounds_past_255() {
        let mut p = params();
        p.clients = (0..1024).collect();
        p.threshold = 512;
        p.noise_components = 0;
        p.graph = graph::MaskingGraph::recommended(1024);
        p.validate().unwrap();
        // The Harary degree at n = 1024 leaves plenty of field headroom.
        assert!(share_threshold(&p) <= p.graph.degree(1024));
    }

    #[test]
    fn roster_wider_than_wire_rejected() {
        let mut p = params();
        p.clients = (0..70_000).collect();
        p.threshold = 2;
        p.graph = graph::MaskingGraph::Harary { half_degree: 8 };
        assert!(matches!(p.validate(), Err(SecAggError::Config(_))));
    }

    #[test]
    fn oversized_harary_degree_rejected() {
        let mut p = params();
        p.clients = (0..1000).collect();
        p.threshold = 500;
        p.graph = graph::MaskingGraph::Harary { half_degree: 130 };
        assert!(matches!(p.validate(), Err(SecAggError::Config(_))));
    }

    #[test]
    fn bit_width_bounds() {
        let mut p = params();
        p.bit_width = 0;
        assert!(p.validate().is_err());
        p.bit_width = 63;
        assert!(p.validate().is_err());
        p.bit_width = 62;
        assert!(p.validate().is_ok());
    }
}

//! Primary–backup replication of round-boundary session state.
//!
//! A coordinator crash used to lose the session: parked connections,
//! the round counter, the global model, and — worst — the privacy
//! ledger, whose loss or replay is a *privacy* bug, not just an
//! availability one. This module replicates the session's round-boundary
//! state to a backup coordinator:
//!
//! - At every round boundary the primary serializes a
//!   [`SessionCheckpoint`] and ships it as a
//!   [`StageTag::CheckpointInstall`] frame over a dedicated channel.
//! - The round **commits only after the backup acks**
//!   ([`StageTag::CheckpointAck`]): the ledger entry, the model update,
//!   and the parked survivor set become durable on two machines before
//!   either acts on them, so no failover can double-count a round.
//! - The backup holds a lease on the primary: every received frame
//!   renews it, and when it expires (or the connection drops) the
//!   backup promotes itself, best-effort announces a
//!   [`StageTag::ViewChange`] to the (possibly still-live) old primary,
//!   and resumes the session from its last installed checkpoint.
//!
//! The roles are a *typed* state machine in the
//! `sgdxbc/typing-protocols` idiom: each transition **consumes** the
//! old state and returns the next one, and transitions are the only
//! places that emit wire effects. A deposed primary cannot keep
//! committing because completing its [`AwaitingAck`] against a
//! `ViewChange` frame destroys the `Primary` value instead of returning
//! it — the type system enforces the handover.

use std::time::Duration;

use dordis_secagg::ClientId;
use dordis_telemetry::Telemetry;

use crate::codec::{Envelope, Reader, StageTag};
use crate::transport::{deadline_in, Channel};
use crate::NetError;

/// The session state a backup needs to resume from a round boundary.
///
/// `app_state` is opaque to this layer: the driver above the session
/// (e.g. `dordis-core`'s FL loop) serializes whatever it needs — the
/// privacy ledger (with its round watermark), the global model, the
/// round records — and gets the exact bytes back at takeover.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SessionCheckpoint {
    /// Wire round id this checkpoint is a boundary of (the round just
    /// completed on the primary; the successor resumes at `round + 1`).
    pub round: u64,
    /// Rounds completed so far in the session.
    pub rounds_done: u64,
    /// Replication view the checkpoint was produced in (0 = the
    /// original primary; bumped once per takeover).
    pub view: u64,
    /// Identities of the peers parked on the session after the round —
    /// the connections themselves die with the primary, but the roster
    /// lets the successor size join deadlines and report continuity.
    pub parked: Vec<ClientId>,
    /// Opaque driver state (ledger, model, records), restored verbatim.
    pub app_state: Vec<u8>,
}

impl SessionCheckpoint {
    /// Serializes the checkpoint into a `CheckpointInstall` body.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out =
            Vec::with_capacity(8 * 3 + 4 + self.parked.len() * 4 + 4 + self.app_state.len());
        out.extend_from_slice(&self.round.to_le_bytes());
        out.extend_from_slice(&self.rounds_done.to_le_bytes());
        out.extend_from_slice(&self.view.to_le_bytes());
        out.extend_from_slice(&(self.parked.len() as u32).to_le_bytes());
        for id in &self.parked {
            out.extend_from_slice(&id.to_le_bytes());
        }
        out.extend_from_slice(&(self.app_state.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.app_state);
        out
    }

    /// Decodes a `CheckpointInstall` body.
    ///
    /// # Errors
    ///
    /// [`NetError::Codec`] on truncated or oversized input.
    pub fn decode(body: &[u8]) -> Result<SessionCheckpoint, NetError> {
        let mut r = Reader::new(body);
        let round = r.u64()?;
        let rounds_done = r.u64()?;
        let view = r.u64()?;
        let n_parked = r.u32()? as usize;
        let mut parked = r.vec_for(n_parked, 4)?;
        for _ in 0..n_parked {
            parked.push(r.u32()?);
        }
        let app_len = r.u32()? as usize;
        let app_state = r.take(app_len)?.to_vec();
        r.finish()?;
        Ok(SessionCheckpoint {
            round,
            rounds_done,
            view,
            parked,
            app_state,
        })
    }
}

// ---------------------------------------------------------------------
// Primary side.
// ---------------------------------------------------------------------

/// The primary role: free to run rounds; must [`Primary::ship`] a
/// checkpoint (becoming [`AwaitingAck`]) before committing one.
#[derive(Debug)]
pub struct Primary {
    view: u64,
}

impl Primary {
    /// A fresh primary in view 0.
    #[must_use]
    pub fn new() -> Primary {
        Primary { view: 0 }
    }

    /// The view this primary believes it leads.
    #[must_use]
    pub fn view(&self) -> u64 {
        self.view
    }

    /// Ships `ckpt` to the backup. Consumes the primary: until the ack
    /// arrives the session holds an [`AwaitingAck`] and *cannot* commit
    /// (there is no other way back to a `Primary` value).
    ///
    /// # Errors
    ///
    /// Propagates the channel failure; the primary role is forfeited
    /// either way (an unreplicated round must never commit).
    pub fn ship(
        self,
        ckpt: &SessionCheckpoint,
        chan: &mut dyn Channel,
    ) -> Result<AwaitingAck, NetError> {
        let env = Envelope::new(StageTag::CheckpointInstall, ckpt.round, ckpt.encode());
        chan.send(&env.encode())?;
        Ok(AwaitingAck {
            view: self.view,
            round: ckpt.round,
        })
    }

    /// Says goodbye to the backup at clean session end, so it knows not
    /// to take over when the connection drops. Consumes the primary —
    /// the session is over.
    pub fn retire(self, chan: &mut dyn Channel) {
        let env = Envelope::new(StageTag::SessionEnd, 0, Vec::new());
        let _ = chan.send(&env.encode()); // best effort: backup may be gone
    }
}

impl Default for Primary {
    fn default() -> Self {
        Primary::new()
    }
}

/// A primary that shipped a checkpoint and is waiting for the backup's
/// ack. The only exits are [`AwaitingAck::complete`] (back to
/// [`Primary`]) or destruction (deposed / failed) — the round the
/// checkpoint covers cannot commit while this value exists.
#[derive(Debug)]
pub struct AwaitingAck {
    view: u64,
    round: u64,
}

impl AwaitingAck {
    /// Consumes the wait on a frame from the backup.
    ///
    /// # Errors
    ///
    /// - [`NetError::Aborted`] when the frame is a
    ///   [`StageTag::ViewChange`]: the backup's lease expired and it
    ///   took over — this node is deposed and must stand down *without
    ///   committing* (the `Primary` value is destroyed, so it cannot).
    /// - [`NetError::Protocol`] on any other unexpected frame.
    pub fn complete(self, env: &Envelope) -> Result<Primary, NetError> {
        match env.stage {
            StageTag::CheckpointAck if env.round == self.round => Ok(Primary { view: self.view }),
            StageTag::CheckpointAck => Err(NetError::Protocol(format!(
                "checkpoint ack for round {} while round {} is in flight",
                env.round, self.round
            ))),
            StageTag::ViewChange => Err(NetError::Aborted(format!(
                "deposed by view change (view {})",
                env.round
            ))),
            other => Err(NetError::Protocol(format!(
                "unexpected {other:?} frame on the replication channel"
            ))),
        }
    }
}

// ---------------------------------------------------------------------
// Backup side.
// ---------------------------------------------------------------------

/// The backup role: installs checkpoints and acks them; promotes to
/// [`Candidate`] when its lease on the primary expires.
#[derive(Debug)]
pub struct Backup {
    view: u64,
    installed: Option<SessionCheckpoint>,
}

impl Backup {
    /// A fresh backup in view 0 with nothing installed.
    #[must_use]
    pub fn new() -> Backup {
        Backup {
            view: 0,
            installed: None,
        }
    }

    /// Installs the checkpoint in `env` and acks it. The ack is emitted
    /// *by this transition* — there is no way to ack without installing
    /// first, so an acked round is always recoverable from this backup.
    ///
    /// # Errors
    ///
    /// [`NetError::Codec`] when the body does not decode (nothing is
    /// acked); channel errors from the ack send.
    fn install(self, env: &Envelope, chan: &mut dyn Channel) -> Result<Backup, NetError> {
        let ckpt = SessionCheckpoint::decode(&env.body)?;
        let ack = Envelope::new(StageTag::CheckpointAck, env.round, Vec::new());
        chan.send(&ack.encode())?;
        Ok(Backup {
            view: self.view.max(ckpt.view),
            installed: Some(ckpt),
        })
    }

    /// The lease expired: this backup becomes a takeover candidate.
    #[must_use]
    fn promote(self) -> Candidate {
        Candidate {
            view: self.view,
            installed: self.installed,
        }
    }
}

impl Default for Backup {
    fn default() -> Self {
        Backup::new()
    }
}

/// A promoted backup that has not yet announced its takeover.
#[derive(Debug)]
pub struct Candidate {
    view: u64,
    installed: Option<SessionCheckpoint>,
}

impl Candidate {
    /// Announces the view change (best effort — the old primary is
    /// usually dead, but if it is merely partitioned the frame is what
    /// destroys its `Primary` value) and assumes leadership.
    fn take_over(self, chan: &mut dyn Channel) -> Takeover {
        let view = self.view + 1;
        let env = Envelope::new(StageTag::ViewChange, view, Vec::new());
        let _ = chan.send(&env.encode()); // the primary being gone is the common case
        Takeover {
            view,
            checkpoint: self.installed,
        }
    }
}

/// The result of a takeover: the new view number and the state to
/// resume from (`None` when the primary died before any round
/// boundary — the successor starts the session from scratch).
#[derive(Debug)]
pub struct Takeover {
    /// The view the new primary leads.
    pub view: u64,
    /// The last installed round-boundary state.
    pub checkpoint: Option<SessionCheckpoint>,
}

/// How a backup's watch over the primary ended.
#[derive(Debug)]
pub enum BackupOutcome {
    /// The primary finished the session and retired cleanly; nothing to
    /// take over (the final checkpoint is returned for the record).
    SessionEnded(Option<SessionCheckpoint>),
    /// The lease expired or the connection died: this node is now the
    /// primary and must resume the session.
    Takeover(Takeover),
}

/// Runs the backup role to completion: installs and acks checkpoints,
/// renewing a `lease` on every frame; on lease expiry or disconnect,
/// promotes, announces the view change, and returns the takeover.
///
/// Emits `dordis_checkpoints_total{role="backup"}`, a
/// `dordis_checkpoint_bytes` histogram, and `dordis_view_changes_total`
/// on promotion.
///
/// # Errors
///
/// Propagates codec violations and ack-send failures (a backup that
/// cannot ack is useless — better to crash loudly than hold a lease it
/// cannot honor).
pub fn run_backup(
    chan: &mut dyn Channel,
    lease: Duration,
    telemetry: &Telemetry,
) -> Result<BackupOutcome, NetError> {
    let installs = telemetry.counter("dordis_checkpoints_total", &[("role", "backup")]);
    let ckpt_bytes = telemetry.histogram("dordis_checkpoint_bytes", &[]);
    let view_changes = telemetry.counter("dordis_view_changes_total", &[]);
    let mut backup = Backup::new();
    loop {
        match chan.recv_deadline(deadline_in(lease)) {
            Ok(frame) => {
                let env = Envelope::decode(&frame)?;
                match env.stage {
                    StageTag::CheckpointInstall => {
                        ckpt_bytes.observe(env.body.len() as u64);
                        backup = backup.install(&env, chan)?;
                        installs.inc();
                    }
                    StageTag::SessionEnd => {
                        return Ok(BackupOutcome::SessionEnded(backup.installed.take()));
                    }
                    other => {
                        return Err(NetError::Protocol(format!(
                            "unexpected {other:?} frame on the replication channel"
                        )));
                    }
                }
            }
            Err(NetError::Timeout) | Err(NetError::Closed) => {
                view_changes.inc();
                return Ok(BackupOutcome::Takeover(backup.promote().take_over(chan)));
            }
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tcp::TcpChannel;

    fn ckpt(round: u64) -> SessionCheckpoint {
        SessionCheckpoint {
            round,
            rounds_done: round,
            view: 0,
            parked: vec![1, 5, 9],
            app_state: vec![0xAB; 37],
        }
    }

    #[test]
    fn checkpoint_roundtrips() {
        for c in [
            ckpt(3),
            SessionCheckpoint {
                round: 0,
                rounds_done: 0,
                view: 7,
                parked: Vec::new(),
                app_state: Vec::new(),
            },
        ] {
            assert_eq!(SessionCheckpoint::decode(&c.encode()).unwrap(), c);
        }
    }

    #[test]
    fn truncated_checkpoint_rejected() {
        let body = ckpt(1).encode();
        for cut in [0, 7, 23, body.len() - 1] {
            assert!(SessionCheckpoint::decode(&body[..cut]).is_err());
        }
        let mut trailing = body.clone();
        trailing.push(0);
        assert!(SessionCheckpoint::decode(&trailing).is_err());
    }

    #[test]
    fn ship_install_ack_cycle() {
        let (mut p_chan, mut b_chan) = TcpChannel::pair().unwrap();
        let primary = Primary::new();
        let waiting = primary.ship(&ckpt(1), &mut p_chan).unwrap();
        assert_eq!(waiting.round, 1);

        // Backup installs and acks in one typed transition.
        let frame = b_chan
            .recv_deadline(deadline_in(Duration::from_secs(1)))
            .unwrap();
        let env = Envelope::decode(&frame).unwrap();
        assert_eq!(env.stage, StageTag::CheckpointInstall);
        let backup = Backup::new().install(&env, &mut b_chan).unwrap();
        assert_eq!(backup.installed.as_ref().unwrap().round, 1);

        // Primary completes against the ack and is a primary again.
        let frame = p_chan
            .recv_deadline(deadline_in(Duration::from_secs(1)))
            .unwrap();
        let primary = waiting
            .complete(&Envelope::decode(&frame).unwrap())
            .unwrap();
        assert_eq!(primary.view(), 0);
    }

    #[test]
    fn view_change_deposes_waiting_primary() {
        let (mut p_chan, mut b_chan) = TcpChannel::pair().unwrap();
        let waiting = Primary::new().ship(&ckpt(2), &mut p_chan).unwrap();
        // The backup never acks: it promotes and announces instead.
        let takeover = Backup::new().promote().take_over(&mut b_chan);
        assert_eq!(takeover.view, 1);
        let frame = p_chan
            .recv_deadline(deadline_in(Duration::from_secs(1)))
            .unwrap();
        let err = waiting
            .complete(&Envelope::decode(&frame).unwrap())
            .unwrap_err();
        assert!(matches!(err, NetError::Aborted(_)), "{err}");
    }

    #[test]
    fn mismatched_ack_round_is_a_protocol_error() {
        let (mut p_chan, _b) = TcpChannel::pair().unwrap();
        let waiting = Primary::new().ship(&ckpt(4), &mut p_chan).unwrap();
        let stale = Envelope::new(StageTag::CheckpointAck, 3, Vec::new());
        assert!(matches!(
            waiting.complete(&stale),
            Err(NetError::Protocol(_))
        ));
    }

    #[test]
    fn run_backup_takes_over_on_disconnect_with_latest_state() {
        let (mut p_chan, mut b_chan) = TcpChannel::pair().unwrap();
        let driver = std::thread::spawn(move || {
            let mut primary = Primary::new();
            for r in 1..=3u64 {
                let waiting = primary.ship(&ckpt(r), &mut p_chan).unwrap();
                let frame = p_chan
                    .recv_deadline(deadline_in(Duration::from_secs(5)))
                    .unwrap();
                primary = waiting
                    .complete(&Envelope::decode(&frame).unwrap())
                    .unwrap();
            }
            // Crash: drop the channel without retiring.
        });
        let telemetry = Telemetry::enabled();
        let outcome = run_backup(&mut b_chan, Duration::from_secs(5), &telemetry).unwrap();
        driver.join().unwrap();
        match outcome {
            BackupOutcome::Takeover(t) => {
                assert_eq!(t.view, 1);
                assert_eq!(t.checkpoint.unwrap().round, 3);
            }
            BackupOutcome::SessionEnded(_) => panic!("expected takeover"),
        }
    }

    #[test]
    fn run_backup_honors_clean_retirement() {
        let (mut p_chan, mut b_chan) = TcpChannel::pair().unwrap();
        let driver = std::thread::spawn(move || {
            let waiting = Primary::new().ship(&ckpt(1), &mut p_chan).unwrap();
            let frame = p_chan
                .recv_deadline(deadline_in(Duration::from_secs(5)))
                .unwrap();
            let primary = waiting
                .complete(&Envelope::decode(&frame).unwrap())
                .unwrap();
            primary.retire(&mut p_chan);
            p_chan // hold the channel open past the SessionEnd send
        });
        let outcome =
            run_backup(&mut b_chan, Duration::from_secs(5), &Telemetry::disabled()).unwrap();
        drop(driver.join().unwrap());
        match outcome {
            BackupOutcome::SessionEnded(ckpt) => {
                assert_eq!(ckpt.unwrap().round, 1);
            }
            BackupOutcome::Takeover(_) => panic!("expected clean end"),
        }
    }

    #[test]
    fn run_backup_takes_over_on_lease_expiry() {
        let (p_chan, mut b_chan) = TcpChannel::pair().unwrap();
        // Primary alive but silent: the lease must expire.
        let outcome = run_backup(
            &mut b_chan,
            Duration::from_millis(50),
            &Telemetry::disabled(),
        )
        .unwrap();
        match outcome {
            BackupOutcome::Takeover(t) => {
                assert_eq!(t.view, 1);
                assert!(t.checkpoint.is_none());
            }
            BackupOutcome::SessionEnded(_) => panic!("expected takeover"),
        }
        drop(p_chan);
    }
}

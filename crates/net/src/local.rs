//! The local cohort: a coordinator on the calling thread and one client
//! thread per id, every connection a TCP socket on 127.0.0.1.
//!
//! This is how tests, benches and in-process sessions stand in for a
//! deployment of one coordinator and one separately scheduled client per
//! participant. [`spawn`] starts the client threads and
//! [`Cohort::reap`] joins them; [`run_session`] wraps both around every
//! round of a [`Session`]; [`roster_client`] is the claim-free client
//! most of them run.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use dordis_secagg::client::{ClientInput, Identity};
use dordis_secagg::{ClientId, RoundParams};

use crate::coordinator::NetRoundReport;
use crate::runtime::{run_session_client, FailPoint, SessionClientOptions, SessionClientReport};
use crate::session::{Seating, Session, SessionConfig};
use crate::tcp::{TcpAcceptor, TcpChannel};
use crate::transport::{Acceptor, Channel};
use crate::NetError;

/// A coordinator listener on an OS-assigned 127.0.0.1 port, and the
/// address clients dial.
///
/// # Panics
///
/// If the port cannot be bound.
#[must_use]
pub fn listen() -> (TcpAcceptor, String) {
    let acceptor = TcpAcceptor::bind("127.0.0.1:0").expect("bind 127.0.0.1");
    let addr = acceptor.local_addr();
    (acceptor, addr)
}

/// A client connection to `addr`.
///
/// # Panics
///
/// If the connection is refused.
#[must_use]
pub fn dial(addr: &str) -> TcpChannel {
    TcpChannel::connect(addr).expect("connect")
}

/// A one-round roster session for `params` (round id included), with
/// [`SessionConfig::new`]'s defaults for everything else.
#[must_use]
pub fn one_round(params: RoundParams) -> SessionConfig<'static> {
    SessionConfig {
        first_round: params.round,
        ..SessionConfig::new(1, Seating::Roster, Box::new(move |_, _| params.clone()))
    }
}

/// The local cohort's client options: a receive window that outlasts
/// any stage deadline a local session sets.
#[must_use]
pub fn options(id: ClientId, seed: u64) -> SessionClientOptions {
    SessionClientOptions {
        id,
        rng_seed: seed,
        recv_timeout: Duration::from_secs(300),
    }
}

/// A claim-free session client: it joins every round announced, with an
/// empty claim where the session asks for claims. `fail(round)` scripts
/// its failure and `input(round)` its update.
///
/// # Errors
///
/// Those of [`run_session_client`].
pub fn roster_client(
    chan: &mut dyn Channel,
    id: ClientId,
    seed: u64,
    fail: impl FnMut(u64) -> Option<FailPoint>,
    mut input: impl FnMut(u64) -> ClientInput,
    identity: Option<Identity>,
) -> Result<SessionClientReport, NetError> {
    run_session_client(
        chan,
        &options(id, seed),
        |_| Some(Vec::new()),
        fail,
        |round, _params, _cohort, _payload| Ok(input(round)),
        |_| identity.clone(),
    )
}

/// Client threads, one per id, started by [`spawn`].
#[must_use = "reap the cohort to join its threads"]
pub struct Cohort<T> {
    threads: Vec<(ClientId, JoinHandle<T>)>,
}

/// Starts `client(id)` on one thread per id, in id order.
pub fn spawn<T: Send + 'static>(
    ids: impl IntoIterator<Item = ClientId>,
    client: impl Fn(ClientId) -> T + Send + Sync + 'static,
) -> Cohort<T> {
    let client = Arc::new(client);
    let threads = ids
        .into_iter()
        .map(|id| {
            let client = Arc::clone(&client);
            (id, std::thread::spawn(move || client(id)))
        })
        .collect();
    Cohort { threads }
}

impl<T> Cohort<T> {
    /// Joins every client thread and returns what each returned.
    ///
    /// # Errors
    ///
    /// The lowest id whose thread panicked (after all are joined).
    pub fn reap(self) -> Result<BTreeMap<ClientId, T>, ClientId> {
        let mut returned = BTreeMap::new();
        let mut panicked = None;
        for (id, thread) in self.threads {
            match thread.join() {
                Ok(value) => {
                    returned.insert(id, value);
                }
                Err(_) => {
                    panicked = panicked.or(Some(id));
                }
            }
        }
        panicked.map_or(Ok(returned), Err)
    }
}

/// Spawns `client(id)` on one thread per id, runs every round of `cfg`
/// on `acceptor` from the calling thread, ends the session and reaps the
/// threads. Returns the per-round reports and what each client thread
/// returned.
///
/// # Panics
///
/// On any coordinator-side failure or client-thread panic.
pub fn run_session<'a, T: Send + 'static>(
    acceptor: &'a mut dyn Acceptor,
    cfg: SessionConfig<'a>,
    ids: impl IntoIterator<Item = ClientId>,
    client: impl Fn(ClientId) -> T + Send + Sync + 'static,
) -> (Vec<NetRoundReport>, BTreeMap<ClientId, T>) {
    let cohort = spawn(ids, client);
    let rounds = cfg.rounds;
    let mut session = Session::new(acceptor, cfg).expect("session");
    let reports = (0..rounds)
        .map(|_| session.run_round(&[]).expect("round"))
        .collect();
    session.finish();
    let returned = cohort.reap().expect("client thread");
    (reports, returned)
}
